"""Table models over the N-fold solver.

A table model is a margin system (MarginSpec): an array whose sums over
a family of coordinate subsets are fixed, with per-cell upper bounds.
build_hierarchical is the one builder that turns a margin system into
an NFoldInstance whose integer points biject with the tables: the last
axis indexes the blocks, margins over it become block rows and the
others coupling rows.  build_transportation and build_3way_linesum only
map their arguments to a MarginSpec, and checksum decoding lowers
through the line-sum builder, adding the distance objectives defined
here.  Builders are pure and attach a zero objective unless given one;
decode drives the solver.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
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
from .nfold import NFoldInstance, solve_nfold
from .objective import AbsPower, CompositeObjective, ZeroFn

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
    sup = set(support)
    for c in sorted(sup):
        if not isinstance(c, int) or not 1 <= c <= len(dims):
            raise DomainError("support coordinate %r outside 1..%d" % (c, len(dims)))
    return tuple(
        product(*(range(1, m + 1) if c in sup else ("+",) for c, m in enumerate(dims, 1)))
    )


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
    def totals(H, common):
        sums = {}
        for t in margin_tuples(spec.dims, H):
            key = tuple(t[c - 1] for c in common)
            sums[key] = sums.get(key, 0) + spec.values[t]
        return sums

    for a, H1 in enumerate(spec.family):
        for H2 in spec.family[a + 1 :]:
            common = sorted(set(H1) & set(H2))
            if totals(H1, common) != totals(H2, common):
                raise InconsistentMargins(
                    "margins of supports %r and %r disagree on shared totals" % (H1, H2)
                )


def build_transportation(supplies, demands, caps, objective=None):
    """Capacitated transportation as the margin system of a suppliers x
    customers array with family {1}, {2}, through build_hierarchical.

    Customers are the block axis: one block per customer holds its flows
    from each supplier, its demand pins the block sum, and the supplies
    pin the per-supplier sums across blocks.  caps is a scalar or a
    customers x suppliers grid.
    """
    supplies, demands = tuple(supplies), tuple(demands)
    n, N = len(supplies), len(demands)
    if n < 1 or N < 1:
        raise DomainError("need at least one supplier and one customer")
    caps = _grid_or_scalar(caps, (N, n), "caps")
    values = {(i + 1, "+"): v for i, v in enumerate(supplies)}
    values.update((("+", k + 1), v) for k, v in enumerate(demands))
    bounds = caps if isinstance(caps, int) else tuple(zip(*caps))
    spec = MarginSpec((n, N), ((1,), (2,)), values, bounds)
    if sum(supplies) != sum(demands):
        raise BalanceMismatch(
            "total supply %d != total demand %d" % (sum(supplies), sum(demands))
        )
    return build_hierarchical(spec, objective)


def build_3way_linesum(L, M, N, r, s, t, caps, objective=None):
    """L x M x N arrays with all line sums pinned: the margin system with
    family {1,3}, {2,3}, {1,2}, through build_hierarchical.

    r[j][k], s[i][k] and t[i][j] are the sums over i, j and k; caps is a
    scalar or an L x M x N grid.  The third axis is the block axis, so a
    block is one layer (cells row-major, i*M+j) pinned by its s and r
    sums, and the t sums couple the layers.
    """
    for name, v in (("L", L), ("M", M), ("N", N)):
        if not isinstance(v, int) or v < 1:
            raise DomainError("%s must be a positive integer" % (name,))
    r = _int_grid(r, (M, N), "r")
    s = _int_grid(s, (L, N), "s")
    t = _int_grid(t, (L, M), "t")
    values = {("+", j + 1, k + 1): v for j, row in enumerate(r) for k, v in enumerate(row)}
    values.update(((i + 1, "+", k + 1), v) for i, row in enumerate(s) for k, v in enumerate(row))
    values.update(((i + 1, j + 1, "+"), v) for i, row in enumerate(t) for j, v in enumerate(row))
    caps = _grid_or_scalar(caps, (L, M, N), "caps")
    spec = MarginSpec((L, M, N), ((1, 3), (2, 3), (1, 2)), values, caps)
    return build_hierarchical(spec, objective)


def _table_symmetries(spec, cells):
    """Permutations of a block's cells that map every margin of spec
    onto a margin: for each non-block axis the swaps of adjacent values,
    and the swap of two equal-size non-block axes where it maps the
    family onto itself."""
    index = {c: j for j, c in enumerate(cells)}
    perms = []
    for a, m in enumerate(spec.dims[:-1]):
        for v in range(m - 1):
            swap = {v: v + 1, v + 1: v}
            perms.append([c[:a] + (swap.get(c[a], c[a]),) + c[a + 1 :] for c in cells])
    for a, b in combinations(range(len(spec.dims) - 1), 2):
        swap = {a + 1: b + 1, b + 1: a + 1}
        family = {tuple(sorted(swap.get(x, x) for x in H)) for H in spec.family}
        if spec.dims[a] == spec.dims[b] > 1 and family == set(spec.family):
            order = {a: b, b: a}
            perms.append([tuple(c[order.get(k, k)] for k in range(len(c))) for c in cells])
    return tuple(tuple(index[c] for c in p) for p in perms)


def build_hierarchical(spec, objective=None):
    """N-fold instance of a hierarchical margin system.

    The last axis is the long one: its size is the number of blocks, and
    a block holds one slice (cells row-major over the other axes).
    Margins whose support contains the last coordinate pin per-slice
    sums and become block rows; the others sum across slices and become
    coupling rows.  Permuting the values of a non-block axis, or
    swapping two equal non-block axes when that swap maps the family
    onto itself, maps every margin onto a margin: the instance carries
    these cell permutations as its symmetries, under which its block
    test sets are completed.
    """
    if not isinstance(spec, MarginSpec):
        raise DomainError("build_hierarchical takes a MarginSpec")
    _check_pairwise_consistency(spec)
    dims = spec.dims
    d = len(dims)
    if d < 2:
        raise DomainError("need at least two axes (the last one is the block axis)")
    N = dims[-1]
    cells = tuple(product(*map(range, dims[:-1])))  # 0-based, row-major

    def cell_row(t):
        # 1 on the cells that match the 1-based concrete coordinates of t
        return tuple(
            1 if all(a == "+" or a == i + 1 for a, i in zip(t, cell)) else 0 for cell in cells
        )

    a_keys = [t for H in spec.family if d in H for t in margin_tuples(dims, set(H) - {d})]
    b_keys = [t for H in spec.family if d not in H for t in margin_tuples(dims, H)]
    return NFoldInstance(
        A=Mat(tuple(map(cell_row, a_keys)), cols=len(cells)),
        B=Mat(tuple(map(cell_row, b_keys)), cols=len(cells)),
        N=N,
        b0=tuple(spec.values[t] for t in b_keys),
        b=tuple(tuple(spec.values[t[:-1] + (k,)] for t in a_keys) for k in range(1, N + 1)),
        upper=tuple(tuple(spec.bound_at(cell + (k,)) for cell in cells) for k in range(N)),
        objective=_zero_objective(len(cells), N) if objective is None else tuple(objective),
        symmetries=_table_symmetries(spec, cells),
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


@lru_cache(maxsize=8)
def _decode_margins(side, u, U):
    """Zero-objective line-sum instance shared by the decodes with these
    parameters: every line of the transmitted array sums to U, message
    cells are capped at u and checksum slack cells at U."""
    m = side + 1
    allU = ((U,) * m,) * m
    caps = tuple(
        tuple(tuple(u if max(i, j, k) < side else U for k in range(m)) for j in range(m))
        for i in range(m)
    )
    return build_3way_linesum(m, m, m, allU, allU, allU, caps)


@lru_cache(maxsize=8)
def _decode_start(side, u, U):
    """Lexicographically first feasible point of the box of
    _decode_margins(side, u, U), or None.  The objective does not touch
    the box, so every decode with these parameters starts there."""
    return bruteforce.first_feasible(_decode_margins(side, u, U).box())


def _decode_instance(spec):
    m = spec.side + 1
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
    inst = replace(_decode_margins(spec.side, spec.u, spec.U), objective=tuple(objective))
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
    test set solve_nfold chooses.  The line-sum pair does not stabilize
    below the instance's width, so where the lifted walk runs, it stops
    at that width and returns the directly computed set."""
    start = _decode_start(spec.side, spec.u, spec.U)
    if start is None:
        raise Infeasible("no transmitted array satisfies the checksums and bounds")
    z, trace = solve_nfold(inst, z0=start)
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
