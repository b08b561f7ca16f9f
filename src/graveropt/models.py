"""Application builders over the block solvers.

Everything here translates a concrete model (capacitated transportation,
line-sum tables, hierarchical margin systems, checksum decoding) into an
NFoldInstance whose integer points biject with the model's feasible set,
plus the distance objectives used on top of them.  Builders are pure and
attach a zero objective unless given one; decode drives the solver.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import inf

from . import bruteforce
from .errors import (
    BalanceMismatch,
    DimMismatch,
    DomainError,
    Infeasible,
    InconsistentMargins,
)
from .linalg import Mat
from .nfold import DIRECT_THRESHOLD, NFoldInstance, solve_nfold
from .objective import AbsPower, CompositeObjective, ZeroFn, evaluate

__all__ = [
    "MarginSpec",
    "DecodingSpec",
    "DecodeResult",
    "margin_tuples",
    "build_transportation",
    "build_3way_linesum",
    "build_hierarchical",
    "lp_objective",
    "linf_q",
    "encode",
    "decode",
]


def _int_grid(x, shape, name):
    """Nested sequence -> nested tuple of ints with the given shape."""
    if not shape:
        if not isinstance(x, int) or isinstance(x, bool):
            raise DomainError("%s entries must be integers" % (name,))
        return x
    try:
        items = tuple(x)
    except TypeError:
        raise DomainError("%s must be nested sequences of depth %d" % (name, len(shape)))
    if len(items) != shape[0]:
        raise DimMismatch("%s has length %d, expected %d" % (name, len(items), shape[0]))
    return tuple(_int_grid(v, shape[1:], name) for v in items)


def _grid_or_scalar(x, shape, name):
    if isinstance(x, int) and not isinstance(x, bool):
        if x < 0:
            raise DomainError("%s must be nonnegative" % (name,))
        return x
    grid = _int_grid(x, shape, name)

    def check(g, depth):
        if depth == len(shape):
            if g < 0:
                raise DomainError("%s must be nonnegative" % (name,))
            return
        for v in g:
            check(v, depth + 1)

    check(grid, 0)
    return grid


def _zero_objective(n, N):
    return tuple(CompositeObjective((0,) * n, ()) for _ in range(N))


def margin_tuples(dims, support):
    """All margin index tuples of the given support, row-major.

    Entries are 1-based indices on the support coordinates and '+' on
    the summed ones; support coordinates are 1-based positions.
    """
    d = len(dims)
    sup = sorted(set(support))
    for c in sup:
        if not isinstance(c, int) or not 1 <= c <= d:
            raise DomainError("support coordinate %r outside 1..%d" % (c, d))
    out = []
    for combo in product(*(range(1, dims[c - 1] + 1) for c in sup)):
        t = ["+"] * d
        for c, v in zip(sup, combo):
            t[c - 1] = v
        out.append(tuple(t))
    return tuple(out)


def _tuple_support(t):
    return tuple(i + 1 for i, v in enumerate(t) if v != "+")


@dataclass(frozen=True)
class MarginSpec:
    """A hierarchical margin system: array dims, the family of margin
    supports, one value per margin tuple of every family member, and
    per-cell upper bounds (a scalar applies everywhere).

    Margin tuples use 1-based indices with '+' on summed coordinates;
    supports are 1-based coordinate positions.  The value map must be
    complete: every margin of every family support needs a value.
    """

    dims: tuple
    family: tuple
    values: dict
    bounds: object

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims or any(not isinstance(m, int) or m < 1 for m in dims):
            raise DomainError("dims must be positive integers")
        d = len(dims)
        fam = []
        for H in self.family:
            sup = tuple(sorted(set(H)))
            for c in sup:
                if not isinstance(c, int) or not 1 <= c <= d:
                    raise DomainError("family support %r outside 1..%d" % (H, d))
            if sup not in fam:
                fam.append(sup)
        if not fam:
            raise DomainError("family must be nonempty")
        fam.sort()
        values = {}
        for key, v in dict(self.values).items():
            t = tuple(key)
            if len(t) != d:
                raise DimMismatch("margin tuple %r must have %d entries" % (t, d))
            sup = _tuple_support(t)
            if sup not in fam:
                raise DomainError("margin %r has support %r outside the family" % (t, sup))
            for c in sup:
                idx = t[c - 1]
                if not isinstance(idx, int) or not 1 <= idx <= dims[c - 1]:
                    raise DomainError("margin %r index out of range" % (t,))
            if not isinstance(v, int) or v < 0:
                raise DomainError("margin values must be nonnegative integers")
            values[t] = v
        for sup in fam:
            for t in margin_tuples(dims, sup):
                if t not in values:
                    raise DomainError("missing value for margin %r" % (t,))
        bounds = _grid_or_scalar(self.bounds, dims, "bounds")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "family", tuple(fam))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bounds", bounds)

    def bound_at(self, idx):
        """Upper bound of the cell at 0-based index tuple idx."""
        b = self.bounds
        if isinstance(b, int):
            return b
        for i in idx:
            b = b[i]
        return b


def _check_pairwise_consistency(spec):
    # two margins agreeing on the intersection of their supports sum the
    # same cells there, so the per-assignment totals must match
    for a in range(len(spec.family)):
        for b in range(a + 1, len(spec.family)):
            H1, H2 = spec.family[a], spec.family[b]
            common = tuple(sorted(set(H1) & set(H2)))
            sums1 = {}
            for t in margin_tuples(spec.dims, H1):
                key = tuple(t[c - 1] for c in common)
                sums1[key] = sums1.get(key, 0) + spec.values[t]
            sums2 = {}
            for t in margin_tuples(spec.dims, H2):
                key = tuple(t[c - 1] for c in common)
                sums2[key] = sums2.get(key, 0) + spec.values[t]
            if sums1 != sums2:
                raise InconsistentMargins(
                    "margins of supports %r and %r disagree on shared totals" % (H1, H2)
                )


def build_transportation(supplies, demands, caps, objective=None):
    """N-fold instance of capacitated transportation: one block per
    customer, coordinates = flows from each supplier.

    The block matrix is the all-ones row (each customer's demand), the
    coupling block the identity (per-supplier totals = supplies).
    """
    supplies = tuple(supplies)
    demands = tuple(demands)
    n, N = len(supplies), len(demands)
    if n < 1 or N < 1:
        raise DomainError("need at least one supplier and one customer")
    for v in supplies + demands:
        if not isinstance(v, int) or v < 0:
            raise DomainError("supplies and demands must be nonnegative integers")
    if sum(supplies) != sum(demands):
        raise BalanceMismatch(
            "total supply %d != total demand %d" % (sum(supplies), sum(demands))
        )
    caps = _grid_or_scalar(caps, (N, n), "caps")
    if isinstance(caps, int):
        upper = tuple(((caps,) * n) for _ in range(N))
    else:
        upper = caps
    A = Mat(((1,) * n,))
    B = Mat.identity(n)
    return NFoldInstance(
        A=A,
        B=B,
        N=N,
        b0=supplies,
        b=tuple((dk,) for dk in demands),
        upper=upper,
        objective=_zero_objective(n, N) if objective is None else tuple(objective),
    )


def build_3way_linesum(L, M, N, r, s, t, caps, objective=None):
    """N-fold instance of L x M x N arrays with all line sums pinned.

    Layers along the third axis are the blocks (cells row-major, i*M+j);
    within a layer the bipartite incidence rows pin s_{i,k} = sum over j
    and r_{j,k} = sum over i, and the identity coupling pins the across-
    layer sums t_{i,j}.
    """
    for name, v in (("L", L), ("M", M), ("N", N)):
        if not isinstance(v, int) or v < 1:
            raise DomainError("%s must be a positive integer" % (name,))
    r = _int_grid(r, (M, N), "r")
    s = _int_grid(s, (L, N), "s")
    t = _int_grid(t, (L, M), "t")
    for grid, name in ((r, "r"), (s, "s"), (t, "t")):
        for row in grid:
            for v in row:
                if v < 0:
                    raise DomainError("%s entries must be nonnegative" % (name,))
    for k in range(N):
        if sum(s[i][k] for i in range(L)) != sum(r[j][k] for j in range(M)):
            raise InconsistentMargins("layer %d: row and column sums disagree" % (k,))
    for i in range(L):
        if sum(s[i][k] for k in range(N)) != sum(t[i][j] for j in range(M)):
            raise InconsistentMargins("slice i=%d: s and t totals disagree" % (i,))
    for j in range(M):
        if sum(r[j][k] for k in range(N)) != sum(t[i][j] for i in range(L)):
            raise InconsistentMargins("slice j=%d: r and t totals disagree" % (j,))
    n = L * M
    rows = []
    for i in range(L):
        rows.append(tuple(1 if c // M == i else 0 for c in range(n)))
    for j in range(M):
        rows.append(tuple(1 if c % M == j else 0 for c in range(n)))
    A = Mat(tuple(rows))
    B = Mat.identity(n)
    b = tuple(
        tuple(s[i][k] for i in range(L)) + tuple(r[j][k] for j in range(M)) for k in range(N)
    )
    b0 = tuple(t[i][j] for i in range(L) for j in range(M))
    caps = _grid_or_scalar(caps, (L, M, N), "caps")
    if isinstance(caps, int):
        upper = tuple(((caps,) * n) for _ in range(N))
    else:
        upper = tuple(
            tuple(caps[c // M][c % M][k] for c in range(n)) for k in range(N)
        )
    return NFoldInstance(
        A=A,
        B=B,
        N=N,
        b0=b0,
        b=b,
        upper=upper,
        objective=_zero_objective(n, N) if objective is None else tuple(objective),
    )


def build_hierarchical(spec, objective=None):
    """N-fold instance of a hierarchical margin system.

    The last axis is the long one: its size is the number of blocks, and
    a block holds one slice (cells row-major over the other axes).
    Margins whose support contains the last coordinate pin per-slice
    sums and become block rows; the others sum across slices and become
    coupling rows.
    """
    if not isinstance(spec, MarginSpec):
        raise DomainError("build_hierarchical takes a MarginSpec")
    _check_pairwise_consistency(spec)
    dims = spec.dims
    d = len(dims)
    if d < 2:
        raise DomainError("need at least two axes (the last one is the block axis)")
    N = dims[-1]
    inner = dims[:-1]
    cells = tuple(product(*(range(1, m + 1) for m in inner)))
    n = len(cells)

    def cell_row(t):
        # 1 on cells matching the concrete coordinates among the first d-1
        return tuple(
            1 if all(t[c] == "+" or t[c] == cell[c] for c in range(d - 1)) else 0
            for cell in cells
        )

    a_rows = []
    a_keys = []  # (support, concrete-part) identifying each block row
    b_rows = []
    b0 = []
    for sup in spec.family:
        if d in sup:
            for t in margin_tuples(dims, tuple(c for c in sup if c != d)):
                a_rows.append(cell_row(t))
                a_keys.append(t)
        else:
            for t in margin_tuples(dims, sup):
                b_rows.append(cell_row(t))
                b0.append(spec.values[t])
    A = Mat(tuple(a_rows), cols=n)
    B = Mat(tuple(b_rows), cols=n)
    b = tuple(
        tuple(
            spec.values[t[: d - 1] + (k,)] for t in a_keys
        )
        for k in range(1, N + 1)
    )
    upper = tuple(
        tuple(spec.bound_at(tuple(v - 1 for v in cell) + (k,)) for cell in cells)
        for k in range(N)
    )
    return NFoldInstance(
        A=A,
        B=B,
        N=N,
        b0=tuple(b0),
        b=b,
        upper=upper,
        objective=_zero_objective(n, N) if objective is None else tuple(objective),
    )


def lp_objective(target, p, I=None):
    """Distance objective sum_{j in I} |z_j - target_j|^p as a composite.

    target is a flat sequence; entries outside I may be None.  When I is
    omitted it defaults to the coordinates with a non-None target.  Every
    coordinate keeps its unit coefficient row so instances built per
    block share rows; coordinates outside I get the zero function.
    """
    target = tuple(target)
    n = len(target)
    if I is None:
        I = tuple(j for j, v in enumerate(target) if v is not None)
    I = sorted(set(I))
    for j in I:
        if not isinstance(j, int) or not 0 <= j < n:
            raise DomainError("coordinate %r outside 0..%d" % (j, n - 1))
        if not isinstance(target[j], int):
            raise DomainError("target must be integer on coordinate %d" % (j,))
    inside = set(I)
    rows = []
    for j in range(n):
        e = tuple(1 if c == j else 0 for c in range(n))
        fn = AbsPower(1, p, target[j]) if j in inside else ZeroFn()
        rows.append((e, fn))
    return CompositeObjective((0,) * n, tuple(rows))


def linf_q(count, w):
    """Smallest positive integer q with (1 + 1/(2w))^q > count, exactly."""
    if not isinstance(count, int) or count < 1:
        raise DomainError("count must be a positive integer")
    if not isinstance(w, int) or w < 1:
        raise DomainError("w must be a positive integer")
    base = 1 + Fraction(1, 2 * w)
    power = base
    q = 1
    while power <= count:
        power *= base
        q += 1
    return q


@dataclass(frozen=True)
class DecodingSpec:
    """Checksum decoding over a cubic array.

    dims are the message dimensions (the transmitted array is one larger
    along every axis, its line sums all equal to U); u bounds message
    entries, U the slack entries.  received is the full transmitted-size
    array, possibly corrupted; p selects the distance (integer >= 1 or
    math.inf); I restricts the distance to a set of 0-based (i, j, k)
    coordinates of the transmitted array (default: all).
    """

    dims: tuple
    u: int
    U: int
    received: tuple
    p: object
    I: object = None

    def __post_init__(self):
        dims = tuple(self.dims)
        if len(dims) != 3 or any(not isinstance(m, int) or m < 1 for m in dims):
            raise DomainError("dims must be three positive integers")
        L, M, N = dims
        if not (L == M == N):
            raise DomainError(
                "a single checksum constant forces equal axis lengths; got %r" % (dims,)
            )
        if not isinstance(self.u, int) or self.u < 0:
            raise DomainError("u must be a nonnegative integer")
        if not isinstance(self.U, int) or self.U < self.u * L:
            raise DomainError("U must be at least the largest message line sum u*%d" % (L,))
        shape = (L + 1, M + 1, N + 1)
        received = _int_grid(self.received, shape, "received")
        hi = max(self.u, self.U)
        for plane in received:
            for row in plane:
                for v in row:
                    if not 0 <= v <= hi:
                        raise DomainError("received entries must lie in [0, %d]" % (hi,))
        if self.p != inf and (not isinstance(self.p, int) or self.p < 1):
            raise DomainError("p must be an integer >= 1 or math.inf")
        if self.I is None:
            coords = None
        else:
            coords = []
            for c in self.I:
                c = tuple(c)
                if len(c) != 3 or any(
                    not isinstance(v, int) or not 0 <= v < shape[a] for a, v in enumerate(c)
                ):
                    raise DomainError("coordinate %r outside the transmitted array" % (c,))
                coords.append(c)
            coords = tuple(sorted(set(coords)))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "received", received)
        object.__setattr__(self, "I", coords)

    @property
    def side(self):
        return self.dims[0]

    def coordinates(self):
        """The distance-relevant coordinate set, defaulted to all."""
        if self.I is not None:
            return self.I
        m = self.side + 1
        return tuple(product(range(m), range(m), range(m)))


@dataclass(frozen=True)
class DecodeResult:
    """Decoded message with its distance; unpacks as (message, distance).

    q is the surrogate exponent used for the max-distance reduction
    (None for finite p); transmitted is the full decoded array including
    the checksum slack entries; trace is the solver's augmentation
    record.
    """

    message: tuple
    distance: object
    q: object
    transmitted: tuple
    trace: object = None

    def __iter__(self):
        return iter((self.message, self.distance))


def encode(message, u, U):
    """Extend a message with checksum slack entries so that every line
    of the transmitted array sums to U.

    The slack cells are forced: each is U minus a line sum, so encoding
    either succeeds uniquely or the message is not encodable under
    (u, U), which raises Infeasible.
    """
    n = len(message)
    if n == 0:
        raise DomainError("message must be nonempty")
    msg = _int_grid(message, (n, n, n), "message")
    for plane in msg:
        for row in plane:
            for v in row:
                if not 0 <= v <= u:
                    raise DomainError("message entries must lie in [0, %d]" % (u,))
    m = n + 1
    aug = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                aug[i][j][k] = msg[i][j][k]
    for i in range(n):
        for j in range(n):
            aug[i][j][n] = U - sum(msg[i][j][k] for k in range(n))
    for i in range(n):
        for k in range(n):
            aug[i][n][k] = U - sum(msg[i][j][k] for j in range(n))
    for j in range(n):
        for k in range(n):
            aug[n][j][k] = U - sum(msg[i][j][k] for i in range(n))
    for i in range(n):
        aug[i][n][n] = U - sum(aug[i][n][k] for k in range(n))
    for j in range(n):
        aug[n][j][n] = U - sum(aug[n][j][k] for k in range(n))
    for k in range(n):
        aug[n][n][k] = U - sum(aug[n][j][k] for j in range(n))
    aug[n][n][n] = U - sum(aug[n][n][k] for k in range(n))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                v = aug[i][j][k]
                cap = u if (i < n and j < n and k < n) else U
                if not 0 <= v <= cap:
                    raise Infeasible(
                        "message is not encodable: slack at (%d,%d,%d) would be %d" % (i, j, k, v)
                    )
    for i in range(m):
        for j in range(m):
            if sum(aug[i][j][k] for k in range(m)) != U:
                raise Infeasible("checksum failed along axis 3 at (%d,%d)" % (i, j))
    for i in range(m):
        for k in range(m):
            if sum(aug[i][j][k] for j in range(m)) != U:
                raise Infeasible("checksum failed along axis 2 at (%d,%d)" % (i, k))
    for j in range(m):
        for k in range(m):
            if sum(aug[i][j][k] for i in range(m)) != U:
                raise Infeasible("checksum failed along axis 1 at (%d,%d)" % (j, k))
    return tuple(tuple(tuple(row) for row in plane) for plane in aug)


def _decode_instance(spec):
    n = spec.side
    m = n + 1
    allU = tuple((spec.U,) * m for _ in range(m))
    caps = tuple(
        tuple(
            tuple(spec.u if (i < n and j < n and k < n) else spec.U for k in range(m))
            for j in range(m)
        )
        for i in range(m)
    )
    coords = set(spec.coordinates())
    exponent = spec.p if spec.p != inf else linf_q(m**3, max(spec.u, spec.U))
    objective = []
    for k in range(m):
        target = tuple(
            spec.received[i][j][k] if (i, j, k) in coords else None
            for i in range(m)
            for j in range(m)
        )
        objective.append(lp_objective(target, exponent, I=None))
    inst = build_3way_linesum(m, m, m, allU, allU, allU, caps, objective=tuple(objective))
    return inst, (exponent if spec.p == inf else None)


def decode(spec):
    """Closest feasible transmitted array to the received one, in the
    l_p sense over spec's coordinate set.

    Finite p reports the p-th power of the distance (an integer), which
    has the same minimizers; p = inf minimizes a surrogate power q
    chosen so any l_q minimizer is also an l_inf minimizer, and reports
    the exact l_inf distance.  Returns a DecodeResult; iterating it
    yields (message, distance).
    """
    if not isinstance(spec, DecodingSpec):
        raise DomainError("decode takes a DecodingSpec")
    inst, q = _decode_instance(spec)
    return _decode_lowered(spec, inst, q)[0]


def _decode_lowered(spec, inst, q):
    """Solve the instance and exponent that _decode_instance(spec)
    lowered spec to.  Returns (DecodeResult, N-fold optimum): the walk
    starts at the lexicographically first feasible point and sweeps the
    directly computed test set."""
    box = inst.box()
    start = bruteforce.first_feasible(box)
    if start is None:
        raise Infeasible("no transmitted array satisfies the checksums and bounds")
    flat_dim = box.dim
    z, trace = solve_nfold(
        inst,
        z0=start,
        direct_threshold=max(DIRECT_THRESHOLD, flat_dim),
    )
    n = spec.side
    m = n + 1
    transmitted = tuple(
        tuple(tuple(z.blocks[k][i * m + j] for k in range(m)) for j in range(m))
        for i in range(m)
    )
    message = tuple(
        tuple(tuple(transmitted[i][j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    coords = spec.coordinates()
    if spec.p == inf:
        distance = max(
            abs(transmitted[i][j][k] - spec.received[i][j][k]) for (i, j, k) in coords
        ) if coords else 0
    else:
        distance = sum(
            abs(transmitted[i][j][k] - spec.received[i][j][k]) ** spec.p
            for (i, j, k) in coords
        )
    res = DecodeResult(
        message=message, distance=distance, q=q, transmitted=transmitted, trace=trace
    )
    return res, z
