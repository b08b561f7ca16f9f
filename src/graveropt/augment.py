"""Greedy augmentation engines.

The integer solver repeats one move: over all candidate directions g and
feasible step lengths a, take the (a, g) minimizing the objective at
z + a*g, and stop when nothing improves.  With the direction set equal
to the conformal test set of the constraint matrix (projected, for
composite objectives) the stopping point is a global optimum.

The linear-programming solver walks circuit directions instead, and
after every strict improvement runs a support-shrinking phase (moves
with nonincreasing objective that zero out a coordinate) so it cannot
zigzag between interior points: naive_lp_greedy demonstrates the
halving-forever failure mode the shrink phase exists to prevent.

A sweep considers every direction of the set, but most are rejected
before any arithmetic: a direction that increases a coordinate sitting
on its upper bound, or decreases one on its lower bound, has step bound
0.  DirectionTable keeps, per coordinate, the bitsets of directions
with a positive and a negative entry there, so the rejected directions
of a sweep are the OR of a few bitsets; the exact step bound, the line
search and the objective delta run only for the rest.  The table is
built once per test set (GraverBasis and CircuitSet cache it), not once
per sweep.

solve_ip_greedy is the one integer augmentation loop.  It takes a move
source: a test set (a direction list, GraverBasis, CircuitSet or
DirectionTable), swept by greedy_step, or any object with a
step(z, obj, box) method returning a GreedyStep and a length, such as
the two-stage block assembler of twostage.BlockMoves.

feasible_start finds a start point with the same move sources: it
walks the bound violation down from an integer solution of A z = b.

Step lengths along a fixed direction are found by exact three-point
bisection on integers; all arithmetic is int/Fraction.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from operator import floordiv

from .errors import (
    DimMismatch,
    DomainError,
    EmptyInterval,
    Infeasible,
    InfeasibleBase,
    UnboundedBox,
    UnboundedObjective,
)
from .linalg import Mat, dot, integer_solution
from .objective import AbsPower, CompositeObjective, LinearObjective, _norm, evaluate, range_bound

__all__ = [
    "UNBOUNDED",
    "FeasibleBox",
    "GreedyStep",
    "DirectionTable",
    "TraceStep",
    "AugmentTrace",
    "line_search",
    "max_step",
    "greedy_step",
    "solve_ip_greedy",
    "feasible_start",
    "solve_lp_circuit",
    "naive_lp_greedy",
]


class _Unbounded:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()


def _is_rat(x):
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class FeasibleBox:
    """Constraint system A z = b with bounds lower <= z <= upper.

    upper entries may be None (no bound on that coordinate); integer
    solvers require a fully finite integer box.
    """

    A: Mat
    b: tuple
    lower: tuple
    upper: tuple

    def __post_init__(self):
        b = tuple(self.b)
        lower = tuple(self.lower)
        upper = tuple(self.upper)
        if len(b) != self.A.rows:
            raise DimMismatch("b has %d entries, A has %d rows" % (len(b), self.A.rows))
        if len(lower) != self.A.cols or len(upper) != self.A.cols:
            raise DimMismatch("bounds must have %d entries" % (self.A.cols,))
        for l in lower:
            if not _is_rat(l):
                raise DomainError("lower bounds must be finite rationals")
        for l, u in zip(lower, upper):
            if u is None:
                continue
            if not _is_rat(u):
                raise DomainError("upper bounds must be rationals or None")
            if l > u:
                raise DomainError("lower bound exceeds upper bound")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self):
        return self.A.cols

    def is_finite_integer(self):
        return all(isinstance(l, int) for l in self.lower) and all(
            isinstance(u, int) for u in self.upper
        )

    def inside_bounds(self, z):
        for x, l, u in zip(z, self.lower, self.upper):
            if x < l:
                return False
            if u is not None and x > u:
                return False
        return True

    def check_point(self, z):
        z = tuple(z)
        if len(z) != self.dim:
            raise DimMismatch("point has %d coordinates, box %d" % (len(z), self.dim))
        if self.A.mul_vec(z) != self.b:
            raise InfeasibleBase("point violates the equality constraints")
        if not self.inside_bounds(z):
            raise InfeasibleBase("point violates the bounds")
        return z


@dataclass(frozen=True)
class GreedyStep:
    direction: tuple
    steplen: object  # nonnegative int (integer mode) or Fraction
    new_value: object

    @property
    def is_zero(self):
        return self.steplen == 0


@dataclass(frozen=True)
class TraceStep:
    value_before: object
    value_after: object
    direction: tuple
    steplen: object


@dataclass(frozen=True)
class AugmentTrace:
    """Per-iteration record of strict objective decreases.

    h_bound is the telemetry range bound (None when not computable);
    n_eff is the step-count parameter of the engine that produced the
    trace; shrink_moves counts equal-value support-shrinking moves of
    the LP solver, which are not iterations; basis_size is the number
    of candidate directions each greedy sweep considered (most are
    rejected by the sign-bitset test before any step bound is priced).
    """

    iterations: tuple
    h_bound: object
    n_eff: int
    shrink_moves: int = 0
    basis_size: int = 0

    def __len__(self):
        return len(self.iterations)

    def values(self):
        if not self.iterations:
            return ()
        return (self.iterations[0].value_before,) + tuple(t.value_after for t in self.iterations)


def line_search(f, l, u):
    """Smallest integer minimizer of a convex f on [l, u].

    Three evaluations around the midpoint decide which side holds the
    minimum, so the interval halves per round: O(log(u - l)) calls.
    Ties break toward the smallest argument.
    """
    if l > u:
        raise EmptyInterval("empty interval [%s, %s]" % (l, u))
    memo = {}

    def F(t):
        if t not in memo:
            memo[t] = f(t)
        return memo[t]

    while u - l >= 2:
        m = (l + u) // 2
        if F(m - 1) <= F(m):
            # nondecreasing from m-1 on; smallest minimizer is left of m
            u = m - 1
        elif F(m) > F(m + 1):
            l = m + 1
        else:
            return m
    return l if F(l) <= F(u) else u


def _step_bound(z, sup, lower, upper, mode):
    """Largest a >= 0 with z + a*g inside the bounds, or UNBOUNDED, for
    the direction g whose nonzero entries are sup = [(j, g[j]), ...]."""
    # The floor of the minimum is the minimum of the per-coordinate
    # floors, and // floors ints and Fractions exactly.
    ratio = floordiv if mode == "integer" else Fraction
    best = None
    for j, d in sup:
        if d > 0:
            u = upper[j]
            if u is None:
                continue
            cap = ratio(u - z[j], d)
        else:
            cap = ratio(lower[j] - z[j], d)
        if best is None or cap < best:
            best = cap
    if best is None:
        return UNBOUNDED
    if mode == "integer":
        return floor(best)
    return best


def _support(g):
    return [(j, d) for j, d in enumerate(g) if d]


def max_step(z, g, box, mode="integer"):
    """Largest a >= 0 with z + a*g inside the bounds, or UNBOUNDED.

    Integer mode floors the exact bound.  Equality constraints are not
    rechecked: g is assumed to be a kernel vector.
    """
    z = tuple(z)
    if len(z) != box.dim or len(g) != box.dim:
        raise DimMismatch("point/direction must have %d coordinates" % (box.dim,))
    if not box.inside_bounds(z):
        raise InfeasibleBase("base point violates the bounds")
    return _step_bound(z, _support(g), box.lower, box.upper, mode)


class DirectionTable:
    """A direction list with per-coordinate sign bitsets over it.

    Bit i of up[j] (down[j]) is set when directions[i][j] > 0 (< 0), in
    the style of the _Fits bitsets of the kernels.  From a point
    with z[j] on its upper bound every direction in up[j] has step
    bound 0, and likewise down[j] at the lower bound; live() ORs those
    bitsets and returns the directions that remain.  Build one per
    test set: GraverBasis and CircuitSet keep theirs as sweep_table.
    """

    __slots__ = ("directions", "dim", "up", "down", "full")

    def __init__(self, directions):
        dirs = tuple(tuple(g) for g in directions)
        dims = {len(g) for g in dirs}
        if len(dims) > 1:
            raise DimMismatch("directions of different lengths: %s" % (sorted(dims),))
        self.directions = dirs
        self.dim = dims.pop() if dims else None
        self.up, self.down = [], []
        for j in range(self.dim or 0):
            col = [g[j] for g in reversed(dirs)]
            self.up.append(int("0" + "".join("1" if d > 0 else "0" for d in col), 2))
            self.down.append(int("0" + "".join("1" if d < 0 else "0" for d in col), 2))
        self.full = (1 << len(dirs)) - 1

    def __len__(self):
        return len(self.directions)

    def step(self, z, obj, box):
        """The integer greedy_step over this table: the move source
        interface of solve_ip_greedy."""
        return greedy_step(z, self, obj, box, "integer")

    def live(self, z, lower, upper):
        """Indices, ascending, of the directions not blocked at z by a
        coordinate on its bound."""
        if not self.full:
            return []
        blocked = 0
        for j, (x, l, u) in enumerate(zip(z, lower, upper)):
            if x == l:
                blocked |= self.down[j]
            if u is not None and x == u:
                blocked |= self.up[j]
        # bit i of the mask is character i of the reversed binary string
        bits = bin(self.full & ~blocked)[:1:-1]
        out = []
        i = bits.find("1")
        while i >= 0:
            out.append(i)
            i = bits.find("1", i + 1)
        return out


def _sweep_table(S):
    """The cached table of a test-set object, a table passed as is, or a
    new table of a plain direction list."""
    if isinstance(S, DirectionTable):
        return S
    table = getattr(S, "sweep_table", None)
    return table if table is not None else DirectionTable(S)


def _add_scaled(z, a, g):
    out = []
    for x, d in zip(z, g):
        y = x + a * d
        if isinstance(y, Fraction) and y.denominator == 1:
            y = int(y)
        out.append(y)
    return tuple(out)


def _ray_improves(obj, g):
    # only linear objectives can certify improvement along an infinite ray
    if isinstance(obj, LinearObjective):
        return dot(obj.c, g) < 0
    raise UnboundedBox("composite objective over an unbounded ray; finite bounds required")


def _per_coordinate(obj):
    """Per-coordinate split of a composite objective, or None.

    Possible exactly when every function row acts on one coordinate.
    Index j then maps to the (scale, function) rows hitting z[j]; the
    greedy engine can price a move on the support of its direction
    instead of re-evaluating the whole point.  Rows that are all zero
    contribute a constant and drop out of any difference.
    """
    if not isinstance(obj, CompositeObjective):
        return None
    coord = [[] for _ in range(obj.dim)]
    for row, f in obj.rows:
        nz = [(j, r) for j, r in enumerate(row) if r]
        if len(nz) > 1:
            return None
        if nz:
            j, r = nz[0]
            coord[j].append((r, f))
    return coord


def greedy_step(z, S, obj, box, mode="integer"):
    """Best single move from z: minimize obj(z + a*g) over g in S and
    feasible a > 0.

    S is a direction list, a GraverBasis or CircuitSet (whose cached
    DirectionTable is used), or a DirectionTable.  Directions blocked by
    a coordinate on its bound are rejected by the table's bitsets; the
    rest get their exact step bound on their support.  Integer mode
    searches a by bisection per direction; rational mode is for linear
    objectives, where only the bound endpoint can be optimal.  Returns
    the zero step when nothing strictly improves.  Ties break by
    (new value, step length, direction) so the result is deterministic
    and independent of evaluation order.
    """
    z = box.check_point(z)
    cur = evaluate(obj, z)
    if mode not in ("integer", "rational"):
        raise DomainError("mode must be 'integer' or 'rational'")
    if mode == "rational" and not isinstance(obj, LinearObjective):
        raise DomainError("rational mode requires a linear objective")
    table = _sweep_table(S)
    if table.dim is not None and table.dim != box.dim:
        raise DimMismatch("point/direction must have %d coordinates" % (box.dim,))
    lower, upper = box.lower, box.upper
    percoord = _per_coordinate(obj) if mode == "integer" else None
    if percoord is not None:
        base = [sum(f(r * x) for r, f in rows) if rows else 0 for x, rows in zip(z, percoord)]
    best = None
    for i in table.live(z, lower, upper):
        g = table.directions[i]
        sup = _support(g)
        a_max = _step_bound(z, sup, lower, upper, mode)
        if a_max is UNBOUNDED:
            if _ray_improves(obj, g):
                raise UnboundedObjective("objective decreases without bound along %r" % (g,))
            continue
        if mode == "rational":
            cg = dot(obj.c, g)
            if cg >= 0 or a_max <= 0:
                continue
            cand = (cur + a_max * cg, a_max, g)
        elif a_max < 1:
            continue
        elif percoord is not None:
            cg = dot(obj.c, g)

            def delta(t):
                acc = t * cg
                for j, d in sup:
                    x = z[j] + t * d
                    for r, f in percoord[j]:
                        acc += f(r * x)
                    acc -= base[j]
                return acc

            a = line_search(delta, 1, a_max)
            dv = delta(a)
            if dv >= 0:
                continue
            cand = (_norm(cur + dv), a, g)
        else:
            a = line_search(lambda t: evaluate(obj, _add_scaled(z, t, g)), 1, a_max)
            v = evaluate(obj, _add_scaled(z, a, g))
            if v >= cur:
                continue
            cand = (v, a, g)
        if best is None or cand < best:
            best = cand
    if best is None:
        return GreedyStep((0,) * box.dim, 0, cur)
    v, a, g = best
    return GreedyStep(g, a, v)


def _h_telemetry(obj, box, warn_factor):
    try:
        h = range_bound(obj, box.lower, box.upper)
    except (UnboundedBox, DomainError):
        return None
    if warn_factor is not None and h > 0:
        hbits = h.numerator.bit_length() if isinstance(h, Fraction) else int(h).bit_length()
        data_bits = 0
        for row in box.A.data:
            for a in row:
                data_bits += abs(a).bit_length() + 1
        for x in box.b + box.lower + box.upper:
            n = x if isinstance(x, int) else int(x)
            data_bits += abs(n).bit_length() + 1
        if hbits > warn_factor * max(1, data_bits):
            warnings.warn(
                "objective range needs %d bits against %d instance bits; step-count "
                "guarantees assume the range bound has polynomial encoding" % (hbits, data_bits)
            )
    return h


def solve_ip_greedy(z0, basis, obj, box, h_warn_factor=8):
    """Greedy augmentation to integer optimality over a finite box.

    basis is the move source.  A test set must be the conformal test set
    of box.A (projected composite test set for composite objectives);
    that is what makes the final point a certified global optimum rather
    than a local stopping point.  Pass the GraverBasis itself, not its
    elements, so repeated solves share its DirectionTable; a plain
    direction list gets a table for this solve.  Any other object with
    step(z, obj, box) and len() is used as is.  Returns (optimum,
    trace); the trace holds every strict decrease.
    """
    z = box.check_point(z0)
    if not all(isinstance(x, int) for x in z):
        raise DomainError("integer solver needs an integer start point")
    if not box.is_finite_integer():
        raise UnboundedBox("integer solver needs a finite integer box")
    n = box.dim
    if isinstance(obj, CompositeObjective):
        n_eff = max(1, 2 * (n + obj.s) - 2)
    else:
        n_eff = max(1, 2 * n - 2)
    h = _h_telemetry(obj, box, h_warn_factor)
    moves = basis if hasattr(basis, "step") else _sweep_table(basis)
    steps = []
    cur = evaluate(obj, z)
    while True:
        st = moves.step(z, obj, box)
        if st.is_zero:
            break
        assert st.new_value < cur
        steps.append(TraceStep(cur, st.new_value, st.direction, st.steplen))
        z = _add_scaled(z, st.steplen, st.direction)
        cur = st.new_value
    return z, AugmentTrace(tuple(steps), h, n_eff, basis_size=len(moves))


def feasible_start(box, moves):
    """A point of the finite integer box with A z = b, or Infeasible.

    Starts at linalg.integer_solution, widens the box to contain it and
    walks sum_j |z_j - l_j| + |z_j - u_j| down along moves, a test set
    of box.A or twostage.BlockMoves.  The sum is sum_j (u_j - l_j)
    exactly on the box, and moves certify its minimum, since they are a
    test set for every separable convex objective over every box.
    """
    z0 = integer_solution(box.A, box.b)
    if z0 is None:
        raise Infeasible("A z = b has no integer solution")
    relaxed = FeasibleBox(
        box.A,
        box.b,
        tuple(map(min, box.lower, z0)),
        tuple(map(max, box.upper, z0)),
    )
    dim = box.dim
    rows = []
    for j, (l, u) in enumerate(zip(box.lower, box.upper)):
        unit = (0,) * j + (1,) + (0,) * (dim - j - 1)
        rows += [(unit, AbsPower(1, 1, l)), (unit, AbsPower(1, 1, u))]
    violation = CompositeObjective((0,) * dim, tuple(rows))
    z, _ = solve_ip_greedy(z0, moves, violation, relaxed, h_warn_factor=None)
    if evaluate(violation, z) > sum(u - l for l, u in zip(box.lower, box.upper)):
        raise Infeasible("no integer point of A z = b lies in the bounds")
    return z


def _shrink_to_vertex(z, circuits, c, box):
    """Support-shrinking moves until none applies.

    A move is the first circuit (canonical order) that vanishes outside
    supp(z), does not increase c.z, and can zero out a coordinate within
    the bounds; its length is the smallest positive zero-creating value.
    Each move removes a nonzero coordinate, so there are at most dim
    moves.  Requires all-zero lower bounds.
    """
    records = []
    moves = 0
    n = len(z)
    while True:
        applied = False
        for g in circuits.elements:
            if any(d and not x for x, d in zip(z, g)):
                continue
            cg = dot(c, g)
            if cg > 0:
                continue
            touches = [Fraction(x, -d) for x, d in zip(z, g) if d < 0 and x > 0]
            if not touches:
                continue
            a = min(touches)
            cap = max_step(z, g, box, "rational")
            if cap is not UNBOUNDED and a > cap:
                continue
            before = dot(c, z)
            z = _add_scaled(z, a, g)
            moves += 1
            if cg < 0:
                records.append(TraceStep(before, dot(c, z), g, a))
            applied = True
            break
        if not applied:
            return z, records, moves
        assert moves <= n, "support can shrink at most dim times"


def solve_lp_circuit(z0, circuits, c, box):
    """Linear program over the box, walked along circuit directions.

    Alternates one greedy circuit step with the support-shrinking phase
    and stops when the greedy step is zero; the stopping point is an
    optimal solution.  Bounds may be rational; lower bounds must be all
    zero (the shrinking phase identifies "leaves the support" with
    "reaches zero").  Returns (optimum, trace): iterations are the
    strict decreases, shrink_moves counts the equal-value moves.
    """
    if any(l != 0 for l in box.lower):
        raise DomainError("circuit LP solver requires zero lower bounds")
    obj = c if isinstance(c, LinearObjective) else LinearObjective(tuple(c))
    z = box.check_point(z0)
    n = box.dim
    h = _h_telemetry(obj, box, None)
    steps = []
    shrunk = 0
    while True:
        st = greedy_step(z, circuits, obj, box, "rational")
        if st.is_zero:
            break
        cur = evaluate(obj, z)
        steps.append(TraceStep(cur, st.new_value, st.direction, st.steplen))
        z = _add_scaled(z, st.steplen, st.direction)
        z2, recs, moves = _shrink_to_vertex(z, circuits, obj.c, box)
        z = z2
        steps.extend(recs)
        shrunk += moves - len(recs)
    return z, AugmentTrace(
        tuple(steps), h, n, shrink_moves=shrunk, basis_size=len(circuits.elements)
    )


def naive_lp_greedy(z0, directions, c, box, max_iter=25):
    """Diagnostic: endpoint greedy over a fixed direction list, with no
    support shrinking.  Returns the value sequence (including the start)
    so callers can watch it fail to terminate on adversarial direction
    sets.  Stops after max_iter moves or at a point with no improving
    move, whichever is first.
    """
    obj = c if isinstance(c, LinearObjective) else LinearObjective(tuple(c))
    z = box.check_point(z0)
    table = DirectionTable(directions)
    values = [evaluate(obj, z)]
    for _ in range(max_iter):
        st = greedy_step(z, table, obj, box, "rational")
        if st.is_zero:
            break
        z = _add_scaled(z, st.steplen, st.direction)
        values.append(st.new_value)
    return values, z
