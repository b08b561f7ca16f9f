"""Two-stage programs: one shared decision, N scenario corrections.

Constraints are T x + W y^(i) = b^(i) per scenario, with bounds on x
and each y^(i).  This is nfold's block layout with no coupling rows:
nfold's _layout_* functions build the matrix, box and flat objective
and split flat points and test-set elements into (x, y^(1..N)).
Kernel vectors of the stacked matrix are exactly the
(v, w_1..w_N) with T v + W w_i = 0 for every i, so test-set elements
decompose into a first-stage block v and scenario blocks w that pair
with it.  The pool of distinct blocks stops growing as the scenario
count increases; it is harvested from directly computed test sets for
N = 1..cap with an explicit stabilization check, and improving moves
for any larger N are assembled per scenario from the pool.  Assembled
moves need not be test-set elements themselves; any strict improvement
is accepted, and "no assembled move improves" still certifies
optimality because assembly covers every projected test-set element.

Composite objectives with shared rows (c_j, d_j) fold into the pair as
stacked matrices (T over C) and graver.fold_rows(W, D), mirroring the
plain block construction.  Rows that graver.rows_matter finds change
nothing ([C D] all +-unit rows) are left out, as on the flat and N-fold
paths.  Step lengths are enumerated directly over the box span, which
is the one deliberate concession to simplicity over asymptotic
step-count guarantees.

The assembled moves feed the shared integer loop: BlockMoves is the
move source that augment.solve_ip_greedy walks.  It prices moves by
the flat objective and box it is handed, split into a first-stage part
and one part per scenario, so the pool of the instance's own pair
serves both phase one (augment.feasible_start) and the main walk.
Moves compare by the change they make to the objective.  A part that
splits per coordinate is priced on the move's support, as
augment.greedy_step does; such a scenario part has no row on x, so
each of its candidate blocks is priced once per step length and shared
by every first-stage block.  A part with a row coupling coordinates is
evaluated whole, less its value at the current point.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .augment import GreedyStep, _per_coordinate, feasible_start, solve_ip_greedy
from .errors import DimMismatch, DomainError, Infeasible, NotStabilized
from .graver import fold_rows, graver, rows_matter
from .linalg import Mat, is_zero
from .nfold import _layout_box, _layout_matrix, _layout_objective, _layout_split
from .objective import CompositeObjective, _norm, evaluate

__all__ = [
    "TwoStageInstance",
    "TwoStagePoint",
    "BuildingBlocks",
    "build_twostage_matrix",
    "extract_building_blocks",
    "improving_vector",
    "greedy_step_twostage",
    "BlockMoves",
    "solve_twostage",
]


def build_twostage_matrix(T, W, N):
    """T repeated in the first column block, W block-diagonal after it."""
    if T.rows != W.rows:
        raise DimMismatch("T and W must share a row count")
    return _layout_matrix(N, W, T=T)


@dataclass(frozen=True)
class TwoStagePoint:
    x: tuple
    ys: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "ys", tuple(tuple(y) for y in self.ys))

    def flatten(self):
        return self.x + sum(self.ys, ())

    @staticmethod
    def from_flat(flat, m, N, n):
        if len(flat) != m + N * n:
            raise DimMismatch("flat point has %d coordinates, expected %d" % (len(flat), m + N * n))
        return TwoStagePoint(*_layout_split(flat, m, N, n))


@dataclass(frozen=True)
class BuildingBlocks:
    """first_stage holds the v blocks; second_stage maps each v to the
    w blocks seen with it (every stored pair satisfies Tv + Ww = 0).

    second_stage is stored as a read-only copy: extract_building_blocks
    hands the same cached object to every solve over the same pair.
    """

    first_stage: tuple
    second_stage: dict

    def __post_init__(self):
        object.__setattr__(self, "first_stage", tuple(self.first_stage))
        object.__setattr__(self, "second_stage", MappingProxyType(dict(self.second_stage)))

    def pool(self, v):
        return self.second_stage.get(tuple(v), ())


def extract_building_blocks(T, W, C=None, D=None, cap=4):
    """Harvest first- and second-stage blocks from the test sets of the
    stacked pair at N = 1..cap.

    With objective rows (C, D) that graver.rows_matter counts, the pair
    is (T over C) and fold_rows(W, D); the auxiliary coordinates are
    dropped again after the computation since they are a linear image
    of (v, w).  Raises NotStabilized(cap) unless the harvested sets are
    identical after N = cap - 1 and N = cap.  Results are cached per
    (T, W, C, D, cap), so repeated solves over the same pair share one
    read-only pool.
    """
    if cap < 2:
        raise DomainError("cap must be at least 2")
    if (C is None) != (D is None):
        raise DomainError("C and D must be given together")
    if C is not None and C.rows:
        if C.cols != T.cols or D.cols != W.cols or C.rows != D.rows:
            raise DimMismatch("objective rows must be s x m and s x n")
    if C is None or not C.rows or not rows_matter(Mat.hstack(C, D)):
        C = D = None
    blocks, stable = _harvest_blocks(T, W, C, D, cap)
    if not stable:
        raise NotStabilized(cap, "building blocks still growing at N = %d" % (cap,))
    return blocks


# A solve takes one entry, its own pair, so 256 keep the blocks of 256
# distinct pairs warm.
@lru_cache(maxsize=256)
def _harvest_blocks(T, W, C, D, cap):
    """(blocks, stabilized) for the validated arguments of
    extract_building_blocks; C and D are None when no rows fold in."""
    m, n = T.cols, W.cols
    if C is not None:
        Tc, Wc = Mat.vstack(T, C), fold_rows(W, D)
    else:
        Tc, Wc = T, W
    width = Wc.cols

    first = set()
    second = {}

    def snapshot():
        return (frozenset(first), {v: frozenset(ws) for v, ws in second.items()})

    prev = None
    for N in range(1, cap + 1):
        G = graver(build_twostage_matrix(Tc, Wc, N))
        for e in G.elements:
            v, ws = _layout_split(e, m, N, n, width)
            first.add(v)
            second.setdefault(v, set()).update(ws)
        if N == cap - 1:
            prev = snapshot()
    blocks = BuildingBlocks(
        tuple(sorted(first)),
        {v: tuple(sorted(ws)) for v, ws in second.items()},
    )
    return blocks, prev == snapshot()


def _check_point(z, inst):
    if len(z.x) != inst.m or len(z.ys) != inst.N or any(len(y) != inst.n for y in z.ys):
        raise DimMismatch("point shape does not match the instance")


def _scenario_candidates(inst, blocks, v):
    """Per-scenario w pools for first-stage block v: harvested partners
    plus the zero block when v alone is in the kernel of T."""
    pool = blocks.pool(v)
    if is_zero(inst.T.mul_vec(v)) and (0,) * inst.n not in pool:
        pool = pool + ((0,) * inst.n,)
    return pool


def _boxed(point, delta, alpha, lower, upper):
    out = []
    for p, d, l, u in zip(point, delta, lower, upper):
        q = p + alpha * d
        if q < l or q > u:
            return None
        out.append(q)
    return tuple(out)


def _split(f, skip):
    """(linear costs, rows per coordinate) of f over its coordinates from
    skip on, or None when a row of f acts on two coordinates."""
    coord = _per_coordinate(f)
    return None if coord is None else (f.c[skip:], coord[skip:])


def _base(f, split, head, block):
    """What _change subtracts: the per-coordinate row values of block
    when f splits, else the whole value of f at head + block."""
    if split is None:
        return evaluate(f, head + block)
    return [sum(g(r * t) for r, g in rows) for t, rows in zip(block, split[1])]


def _change(f, split, base, head, new, d, alpha):
    """Change of f when its block moves by alpha * d to new, head being
    the coordinates before the block.  Priced on the support of d when
    f splits per coordinate."""
    if split is None:
        return evaluate(f, head + new) - base
    c, coord = split
    acc = 0
    for j, dj in enumerate(d):
        if dj:
            acc += alpha * dj * c[j] - base[j]
            for r, g in coord[j]:
                acc += g(r * new[j])
    return acc


class _Pricing:
    """A flat objective and box over a two-stage instance, split by stage,
    and the candidate moves of a block pool.

    first holds the first-stage linear costs and the rows on x alone;
    parts[i] holds scenario i's linear costs and rows, over (x, y^(i)).
    first plus the parts is the flat objective.  splits holds the
    per-coordinate split (_split) of first over x and of each part over
    its y^(i), or None where a row couples coordinates; a part that
    splits has no row on x.  candidates pairs every first-stage block,
    zero included, in sorted order with its scenario pool.  lower and
    upper are the box bounds as TwoStagePoints.
    """

    def __init__(self, inst, blocks, obj, box):
        def split(v):
            return _layout_split(v, inst.m, inst.N, inst.n)

        first = []
        parts = [[] for _ in range(inst.N)]
        for r, f in obj.rows:
            x, ys = split(r)
            hit = [i for i, y in enumerate(ys) if any(y)]
            if len(hit) > 1:
                raise DomainError("an objective row couples two scenarios")
            if hit:
                parts[hit[0]].append((x + ys[hit[0]], f))
            else:
                first.append((x, f))
        cx, cys = split(obj.c)
        self.inst, self.obj, self.box = inst, obj, box
        self.first = CompositeObjective(cx, first)
        self.parts = tuple(CompositeObjective((0,) * inst.m + y, p) for y, p in zip(cys, parts))
        self.splits = (_split(self.first, 0),) + tuple(_split(f, inst.m) for f in self.parts)
        vs = sorted(set(blocks.first_stage) | {(0,) * inst.m})
        self.candidates = tuple((v, _scenario_candidates(inst, blocks, v)) for v in vs)
        self.lower, self.upper = TwoStagePoint(*split(box.lower)), TwoStagePoint(*split(box.upper))
        self.span = max([0] + [u - l for l, u in zip(box.lower, box.upper)])

    def bases(self, z):
        """_base of the first stage, then of each scenario, at point z."""
        return [_base(self.first, self.splits[0], (), z.x)] + [
            _base(f, s, z.x, y) for f, s, y in zip(self.parts, self.splits[1:], z.ys)
        ]


def _assemble(z, p, bases, alpha):
    """Best assembled move of length alpha, as (delta, v, ws), or None.

    delta is the change of the flat objective; bases is p.bases(z).  For
    each feasible first-stage block the scenarios decouple: each picks
    its own best partner block independently by the change of its part,
    and the first-stage change plus the per-scenario minima are compared
    across first-stage blocks.  A scenario part that splits acts on
    y^(i) alone, so each of its blocks is priced once per call and
    shared by every first-stage block.
    """
    shared = [{} for _ in z.ys]
    best = None
    for v, pool in p.candidates:
        x2 = _boxed(z.x, v, alpha, p.lower.x, p.upper.x)
        if x2 is None:
            continue
        delta = _change(p.first, p.splits[0], bases[0], (), x2, v, alpha)
        ws = []
        for i, y in enumerate(z.ys):
            f, s = p.parts[i], p.splits[i + 1]
            priced = shared[i] if s is not None else {}
            best_i = None
            for w in pool:
                if w not in priced:
                    y2 = _boxed(y, w, alpha, p.lower.ys[i], p.upper.ys[i])
                    priced[w] = None if y2 is None else _change(f, s, bases[i + 1], x2, y2, w, alpha)
                if priced[w] is not None and (best_i is None or (priced[w], w) < best_i):
                    best_i = (priced[w], w)
            if best_i is None:
                break
            delta += best_i[0]
            ws.append(best_i[1])
        else:
            cand = (delta, v, tuple(ws))
            if best is None or cand < best:
                best = cand
    return best


def improving_vector(z, blocks, inst):
    """One-step improving move (v, w_1..w_N), or None as an optimality
    certificate.  The move is in the kernel of the stacked matrix and
    feasible at step length one."""
    _check_point(z, inst)
    p = _Pricing(inst, blocks, inst.flatten_objective(), inst.box())
    got = _assemble(z, p, p.bases(z), 1)
    if got is None or got[0] >= 0:
        return None
    return TwoStagePoint(got[1], got[2])


def greedy_step_twostage(z, blocks, inst):
    """Best assembled move over all step lengths within the box span.

    inst is a TwoStageInstance, whose own objective and box price the
    moves, or the pricing BlockMoves.step makes of blocks and of the
    objective and box it is handed.  Step lengths are enumerated
    1..max(u - l); candidates are compared by (objective change, length,
    move) so the result is deterministic.  Returns the zero step when
    nothing strictly improves.
    """
    if isinstance(inst, _Pricing):
        p, inst = inst, inst.inst
    else:
        p = _Pricing(inst, blocks, inst.flatten_objective(), inst.box())
    _check_point(z, inst)
    cur = evaluate(p.obj, z.flatten())
    bases = p.bases(z)
    best = None
    for alpha in range(1, p.span + 1):
        got = _assemble(z, p, bases, alpha)
        if got is not None and got[0] < 0:
            delta, v, ws = got
            cand = (delta, alpha, v + sum(ws, ()))
            if best is None or cand < best:
                best = cand
    if best is None:
        return GreedyStep((0,) * (inst.m + inst.N * inst.n), 0, cur)
    delta, alpha, flat = best
    return GreedyStep(flat, alpha, _norm(cur + delta))


class BlockMoves:
    """Move source of augment.solve_ip_greedy for a two-stage instance.

    step(z, obj, box) takes a flat point of the instance's shape and
    returns greedy_step_twostage's best assembled move from it, priced
    by obj over box; len() is the number of (v, w) block pairs in the
    pool.  The split of obj is kept while the loop passes the same obj
    and box.
    """

    def __init__(self, blocks, inst):
        self.blocks = blocks
        self.inst = inst
        self._pricing = None

    def __len__(self):
        return sum(len(self.blocks.pool(v)) for v in self.blocks.first_stage)

    def step(self, z, obj, box):
        inst = self.inst
        p = self._pricing
        if p is None or p.obj is not obj or p.box is not box:
            p = self._pricing = _Pricing(inst, self.blocks, obj, box)
        point = TwoStagePoint.from_flat(z, inst.m, inst.N, inst.n)
        return greedy_step_twostage(point, self.blocks, p)


@dataclass(frozen=True)
class TwoStageInstance:
    T: Mat
    W: Mat
    N: int
    b: tuple  # N right-hand sides, d entries each
    ux: tuple
    uy: tuple  # N bound vectors for the scenario stages
    objective: tuple  # N CompositeObjective over m + n coordinates

    def __post_init__(self):
        if self.T.rows != self.W.rows:
            raise DimMismatch("T and W must share a row count")
        if self.N < 1:
            raise DomainError("N must be at least 1")
        d = self.T.rows
        m, n = self.T.cols, self.W.cols
        b = tuple(tuple(x) for x in self.b)
        uy = tuple(tuple(x) for x in self.uy)
        ux = tuple(self.ux)
        obj = tuple(self.objective)
        if len(b) != self.N or len(uy) != self.N or len(obj) != self.N:
            raise DimMismatch("need exactly N right-hand sides, bounds, and objectives")
        for x in b:
            if len(x) != d:
                raise DimMismatch("scenario right-hand side dimension mismatch")
        if len(ux) != m or not all(isinstance(v, int) for v in ux):
            raise DomainError("ux must be an integer vector of the first-stage width")
        for u in uy:
            if len(u) != n or not all(isinstance(v, int) for v in u):
                raise DomainError("uy entries must be integer vectors of the scenario width")
        rows0 = None
        for f in obj:
            if not isinstance(f, CompositeObjective) or f.dim != m + n:
                raise DomainError("objectives must be composites over first plus scenario width")
            rows = tuple(r for r, _ in f.rows)
            if rows0 is None:
                rows0 = rows
            elif rows != rows0:
                raise DomainError("objective coefficient rows must be shared across scenarios")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "ux", ux)
        object.__setattr__(self, "uy", uy)
        object.__setattr__(self, "objective", obj)

    @property
    def m(self):
        return self.T.cols

    @property
    def n(self):
        return self.W.cols

    @property
    def s(self):
        return self.objective[0].s

    def rows_CD(self):
        m = self.m
        rows = tuple(r for r, _ in self.objective[0].rows)
        C = Mat(tuple(r[:m] for r in rows), cols=m)
        D = Mat(tuple(r[m:] for r in rows), cols=self.n)
        return C, D

    def matrix(self):
        return build_twostage_matrix(self.T, self.W, self.N)

    def box(self):
        return _layout_box(self, sum(self.b, ()), self.ux + sum(self.uy, ()))

    def flatten_objective(self):
        return _layout_objective(self.objective, self.m, self.n)

    def value(self, z):
        return sum(evaluate(f, z.x + y) for f, y in zip(self.objective, z.ys))

    def check_feasible(self, z):
        _check_point(z, self)
        if any(x < 0 or x > u for x, u in zip(z.x, self.ux)):
            raise Infeasible("first-stage point violates its bounds")
        for i in range(self.N):
            if any(y < 0 or y > u for y, u in zip(z.ys[i], self.uy[i])):
                raise Infeasible("scenario %d point violates its bounds" % (i,))
            got = tuple(
                a + b
                for a, b in zip(self.T.mul_vec(z.x), self.W.mul_vec(z.ys[i]))
            )
            if got != self.b[i]:
                raise Infeasible("scenario %d constraints violated" % (i,))
        return z


def solve_twostage(inst, cap=4):
    """Global optimum of the instance with an augmentation trace.

    One BlockMoves over the stabilized block pool of the instance's pair
    drives both walks of the shared integer loop over inst.box():
    augment.feasible_start walks the bound violation down to a feasible
    point or certifies Infeasible, and the main walk then follows the
    objective until no assembled move improves, which certifies
    optimality.
    """
    box = inst.box()
    blocks = extract_building_blocks(inst.T, inst.W, *inst.rows_CD(), cap=cap)
    moves = BlockMoves(blocks, inst)
    start = feasible_start(box, moves)
    z, trace = solve_ip_greedy(start, moves, inst.flatten_objective(), box, h_warn_factor=None)
    return TwoStagePoint.from_flat(z, inst.m, inst.N, inst.n), trace
