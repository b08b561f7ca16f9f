"""Block-structured programs with a repeated block and coupling rows.

An instance has N copies of a block variable x^(i) (n coordinates each),
per-block constraints A x^(i) = b^(i), and coupling constraints
sum_i B x^(i) = b0.  The full constraint matrix (B repeated across the
top, A block-diagonal below) has a key property: the maximum number of
nonzero blocks over its conformal test-set elements is bounded by a
constant g depending on (A, B) only, not on N.  That constant is
detected empirically here (stabilization of the maximum type between
two consecutive N, with a cap), and the test set for any larger N is
then assembled by embedding the nonzero-block sequences of the small
basis into N slots in every order-preserving way.

N-fold and two-stage programs (twostage) are one block layout, kept
here in the private _layout_* functions: columns (x, y^(1), ..., y^(N)),
coupling rows B (y^(1) + ... + y^(N)) and per-block rows T x + A y^(i),
where an N-fold program (its blocks x^(i) are the y^(i) here) has no
x and a two-stage program no coupling rows.  The layout gives both
kinds their block matrix (built from direct rows), their box
0 <= z <= u with its empty-box rule, their flat objective, and the
split of a flat vector into (x, y^(1..N)), each block cut to its first
n coordinates when a folded pair made it wider.

Composite objectives ride along by folding their shared coefficient
rows into the block: the pair ([[A,0],[rows,I]], [B 0]) has the same
shape, and its block matrix is the flat fold of the plain one up to a
permutation of rows and columns.  So the direct and lifted paths fold
the pair once (unless graver.rows_matter says the rows change nothing)
and cut each block back to its first n coordinates.  Test sets, direct
or lifted, are cached per pair and width.  The lifted walk computes no
block test set wider than the instance: when it reaches width N
unstabilized, the test set it computed there is the answer.

Feasibility (phase one) uses the test set the solve walks anyway:
augment.feasible_start takes an integer solution of the block
equations, widens the bounds to contain it, and walks the separable
bound violation down along that test set.  A test set of the matrix
serves every separable convex objective over every box, so a violation
left at the end certifies infeasibility.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .augment import DirectionTable, FeasibleBox, feasible_start, solve_ip_greedy
from .errors import DimMismatch, DomainError, Infeasible, NotStabilized, NTooSmall
from .graver import GraverBasis, fold_rows, graver, rows_matter
from .linalg import Mat, is_zero
from .objective import CompositeObjective

__all__ = [
    "NFoldInstance",
    "BlockVector",
    "LiftedGraver",
    "build_nfold_matrix",
    "graver_complexity",
    "analyze_pair",
    "lift_graver",
    "phase_one",
    "solve_nfold",
]

DIRECT_THRESHOLD = 24  # flat variable count up to which the test set is computed directly


def build_nfold_matrix(A, B, N):
    """[B B ... B] across the top, A block-diagonal below."""
    if A.cols != B.cols:
        raise DimMismatch("A and B must share a column count")
    return _layout_matrix(N, A, B)


def _layout_matrix(N, A, B=None, T=None):
    """Matrix of the block layout: coupling rows B first, then per block
    the rows of T on x and A on y^(i).  No B or T means no such rows or
    no x.  Built from direct rows, so each entry is checked once."""
    if N < 1:
        raise DomainError("N must be at least 1")
    m, n = (0, A.cols) if T is None else (T.cols, A.cols)
    heads = ((),) * A.rows if T is None else T.data
    rows = [(0,) * m + r * N for r in (() if B is None else B.data)]
    for i in range(N):
        left, right = (0,) * (i * n), (0,) * ((N - 1 - i) * n)
        rows.extend(t + left + a + right for t, a in zip(heads, A.data))
    return Mat(rows, cols=m + N * n)


def _layout_box(inst, rhs, upper):
    """FeasibleBox of inst: its matrix, rhs and 0 <= z <= upper."""
    if any(u < 0 for u in upper):
        # the lower bounds are all 0, so the program has no point
        raise Infeasible("an upper bound is negative: the box is empty")
    return FeasibleBox(inst.matrix(), rhs, (0,) * len(upper), upper)


def _layout_objective(objs, m, n):
    """Flat objective of the layout: block i's composite acts on x (its
    first m coordinates, whose costs add up over the blocks) and y^(i)."""
    x, ys, rows = [0] * m, [], []
    for i, f in enumerate(objs):
        x = [a + c for a, c in zip(x, f.c)]
        ys.extend(f.c[m:])
        left, right = (0,) * (i * n), (0,) * ((len(objs) - 1 - i) * n)
        rows.extend((r[:m] + left + r[m:] + right, fn) for r, fn in f.rows)
    return CompositeObjective(x + ys, rows)


def _layout_split(flat, m, N, n, width=None):
    """(x, (y^(1), ..., y^(N))) of a flat vector of the layout; with
    blocks width wide (a folded pair), each y^(i) keeps its first n."""
    w = n if width is None else width
    return tuple(flat[:m]), tuple(tuple(flat[m + i * w : m + i * w + n]) for i in range(N))


@dataclass(frozen=True)
class BlockVector:
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))

    def flatten(self):
        return sum(self.blocks, ())

    @property
    def btype(self):
        return sum(1 for b in self.blocks if not is_zero(b))

    @staticmethod
    def from_flat(flat, N, n):
        if len(flat) != N * n:
            raise DimMismatch("flat vector has %d coordinates, expected %d" % (len(flat), N * n))
        return BlockVector(_layout_split(flat, 0, N, n)[1])


def _nonzero_blocks(flat, n):
    return tuple(b for b in _layout_split(flat, 0, len(flat) // n, n)[1] if not is_zero(b))


@dataclass(frozen=True)
class LiftedGraver:
    """Type-bounded generators of the block test sets of a pair.

    seed_elements maps each type t (number of nonzero blocks) to the
    canonical tuple of nonzero-block sequences occurring at that type;
    embedding those sequences order-preservingly into N slots yields the
    full test set for every N >= generator_type_bound.
    """

    A: Mat
    B: Mat
    generator_type_bound: int
    seed_elements: tuple  # of (type, tuple of block sequences)

    def sequences(self):
        for t, seqs in self.seed_elements:
            for seq in seqs:
                yield t, seq


def _max_type(elements, n):
    worst = 0
    for e in elements:
        worst = max(worst, len(_nonzero_blocks(e, n)))
    return worst


def analyze_pair(A, B, cap=6):
    """Detect the type bound of the pair and collect seed generators.

    Walks N = 1, 2, ... computing the test set directly; stops at the
    smallest g with maximum type exactly g at both N = g and N = g + 1.
    A pair whose test sets are empty at N = 1 and 2 stabilizes trivially
    at bound 1.  NotStabilized(cap) when no g <= cap qualifies.
    """
    return _walk(A, B, cap)


def _walk(A, B, cap, width=None):
    """analyze_pair's walk.  With a width it computes no test set wider
    than that: reaching N = width unstabilized, it returns the directly
    computed GraverBasis at that width instead of seeds."""
    if cap < 2:
        raise DomainError("cap must be at least 2")
    if A.cols != B.cols:
        raise DimMismatch("A and B must share a column count")
    n = A.cols
    bases = {}

    def basis_at(N):
        if N not in bases:
            bases[N] = graver(build_nfold_matrix(A, B, N))
        return bases[N].elements

    if not basis_at(1) and width != 1 and not basis_at(2):
        return LiftedGraver(A, B, 1, ())
    for g in range(1, cap + 1):
        if _max_type(basis_at(g), n) == g and g != width and _max_type(basis_at(g + 1), n) == g:
            grouped = {}
            for e in basis_at(g):
                seq = _nonzero_blocks(e, n)
                grouped.setdefault(len(seq), set()).add(seq)
            seeds = tuple((t, tuple(sorted(grouped[t]))) for t in sorted(grouped))
            return LiftedGraver(A, B, g, seeds)
        if g == width:
            return bases[g]
    raise NotStabilized(cap, "maximum block type kept growing through N = %d" % (cap + 1,))


def graver_complexity(A, B, cap=6):
    """Smallest bound on the number of nonzero blocks of test-set
    elements of the pair, detected by stabilization up to the cap."""
    return analyze_pair(A, B, cap).generator_type_bound


def lift_graver(seed, N):
    """Test set of the pair at width N, assembled from the seeds.

    Every order-preserving placement of each seed's nonzero blocks into
    the N slots, padded with zero blocks.  Complete because the directly
    computed sets are closed under block permutation and their elements
    never have more than generator_type_bound nonzero blocks.
    """
    if N < seed.generator_type_bound:
        raise NTooSmall(
            "N = %d below the generator type bound %d" % (N, seed.generator_type_bound)
        )
    n = seed.A.cols
    out = set()
    for t, seq in seed.sequences():
        for slots in combinations(range(N), t):
            v = [0] * (N * n)
            for blk, i in zip(seq, slots):
                v[i * n : (i + 1) * n] = blk
            out.add(tuple(v))
    return GraverBasis(build_nfold_matrix(seed.A, seed.B, N), tuple(sorted(out)))


@dataclass(frozen=True)
class NFoldInstance:
    """N repeated blocks under shared per-block matrix A and coupling
    matrix B; objectives are one composite per block over that block's
    coordinates, all sharing the same coefficient rows."""

    A: Mat
    B: Mat
    N: int
    b0: tuple
    b: tuple  # N right-hand sides, one per block
    upper: tuple  # N bound vectors, one per block
    objective: tuple  # N CompositeObjective over n coordinates

    def __post_init__(self):
        if self.A.cols != self.B.cols:
            raise DimMismatch("A and B must share a column count")
        if self.N < 1:
            raise DomainError("N must be at least 1")
        n = self.A.cols
        b0 = tuple(self.b0)
        if len(b0) != self.B.rows:
            raise DimMismatch("b0 has %d entries, B has %d rows" % (len(b0), self.B.rows))
        b = tuple(tuple(x) for x in self.b)
        upper = tuple(tuple(x) for x in self.upper)
        obj = tuple(self.objective)
        if len(b) != self.N or len(upper) != self.N or len(obj) != self.N:
            raise DimMismatch("need exactly N right-hand sides, bounds, and objectives")
        for x in b:
            if len(x) != self.A.rows:
                raise DimMismatch("block right-hand side dimension mismatch")
        for x in upper:
            if len(x) != n or not all(isinstance(v, int) for v in x):
                raise DomainError("bounds must be integer vectors of block width")
        rows0 = None
        for f in obj:
            if not isinstance(f, CompositeObjective) or f.dim != n:
                raise DomainError("objectives must be composites over the block width")
            rows = tuple(r for r, _ in f.rows)
            if rows0 is None:
                rows0 = rows
            elif rows != rows0:
                raise DomainError("objective coefficient rows must be shared across blocks")
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "objective", obj)

    @property
    def n(self):
        return self.A.cols

    @property
    def s(self):
        return self.objective[0].s

    def shared_rows(self):
        return Mat(tuple(r for r, _ in self.objective[0].rows), cols=self.n)

    def matrix(self):
        return self._matrix

    @cached_property
    def _matrix(self):
        # built once per instance: box() and the solvers all reuse it
        return build_nfold_matrix(self.A, self.B, self.N)

    def box(self):
        return _layout_box(self, self.b0 + sum(self.b, ()), sum(self.upper, ()))

    def flatten_objective(self):
        return _layout_objective(self.objective, 0, self.n)


def _test_set(inst, graver_cap=6, direct_threshold=DIRECT_THRESHOLD):
    """Move source of the walks over inst.box(): the test set of the
    block matrix, with the objective's shared coefficient rows folded
    into the pair when graver.rows_matter says they count.  Up to
    direct_threshold flat variables it is computed directly; beyond
    that it is lifted from the stabilized seed generators."""
    A, B, N, n = inst.A, inst.B, inst.N, inst.n
    C = inst.shared_rows()
    M = inst.matrix()
    if rows_matter(C):
        A, B, M = fold_rows(A, C), Mat.hstack(B, Mat.zeros(B.rows, C.rows)), None
    cap = None if N * n <= direct_threshold else graver_cap
    return _block_test_set(A, B, N, n, cap, M)


# Repeated solves over one pair and width (decode batches, documents of
# one shape) reuse the test set; matrices are immutable and hashable.
@lru_cache(maxsize=64)
def _block_test_set(A, B, N, n, cap, M):
    """Test set of the block matrix of (A, B) at width N: computed
    directly when cap is None, else lifted through the walk with that
    cap.  M, when given, is that block matrix as the instance built it
    for its box, so a solve builds it once.  A folded
    pair, A wider than n, keeps the first n coordinates of each block:
    nonzero, deduplicated and sorted, in one table so that phase one
    and the solve share its bitsets."""
    if cap is None:
        G = graver(build_nfold_matrix(A, B, N) if M is None else M)
    else:
        G = _walk(A, B, cap, N)
        if isinstance(G, LiftedGraver):
            G = lift_graver(G, N)
    width = A.cols
    if width == n:
        return G
    proj = {sum(_layout_split(e, 0, N, n, width)[1], ()) for e in G.elements}
    proj.discard((0,) * (N * n))
    return DirectionTable(sorted(proj))


def phase_one(inst, basis=None):
    """Feasible block point of the instance, or a certified Infeasible.

    augment.feasible_start from an integer solution of the block
    equations, walking the bound violation along basis: the move source
    solve_nfold uses, or by default the test set it would choose.
    """
    if basis is None:
        basis = _test_set(inst)
    return BlockVector.from_flat(feasible_start(inst.box(), basis), inst.N, inst.n)


def solve_nfold(inst, graver_cap=6, direct_threshold=DIRECT_THRESHOLD, z0=None):
    """Global optimum of the instance with an augmentation trace.

    Phase one and the greedy walk both move along the test set of
    _test_set (direct up to direct_threshold flat variables, lifted
    beyond); a caller that already holds a feasible point can pass it
    as z0 (a BlockVector or flat tuple) to skip phase one.
    """
    box = inst.box()
    basis = _test_set(inst, graver_cap, direct_threshold)
    if z0 is None:
        start = phase_one(inst, basis).flatten()
    else:
        start = z0.flatten() if isinstance(z0, BlockVector) else tuple(z0)
        box.check_point(start)
    zopt, trace = solve_ip_greedy(start, basis, inst.flatten_objective(), box)
    return BlockVector.from_flat(zopt, inst.N, inst.n), trace
