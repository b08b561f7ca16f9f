import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graveropt.augment as augment
from graveropt.augment import (
    UNBOUNDED,
    AugmentTrace,
    DirectionTable,
    FeasibleBox,
    GreedyStep,
    greedy_step,
    line_search,
    max_step,
    naive_lp_greedy,
    solve_ip_greedy,
    solve_lp_circuit,
)
from graveropt.bruteforce import enumerate_feasible, solve_oracle
from graveropt.errors import (
    DomainError,
    EmptyInterval,
    InfeasibleBase,
    UnboundedBox,
    UnboundedObjective,
)
from graveropt.graver import circuits, graver, graver_composite
from graveropt.linalg import Mat, dot
from graveropt.objective import AbsPower, CompositeObjective, LinearObjective, evaluate

SQ = AbsPower(1, 2)

EX_A = Mat((
    (2, 1, 0, 1, 0, 0),
    (1, 2, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 1),
))
EX_BOX = FeasibleBox(EX_A, (2, 2, 1), (0,) * 6, (2, 2, 1, 2, 2, 1))
EX_C = LinearObjective((1, 1, -1, 0, 0, 0))
EX_Z0 = (0, 1, 0, 1, 0, 1)

KNAP = FeasibleBox(Mat(((1, 1),)), (3,), (0, 0), (3, 3))
KNAP_SQ = CompositeObjective((0, 0), (((1, 0), SQ), ((0, 1), SQ)))


def test_line_search_square():
    assert line_search(lambda a: a * a, -5, 10) == 0


def test_line_search_abs():
    assert line_search(lambda a: abs(a - 3), 0, 10) == 3


def test_line_search_tie_breaks_low():
    assert line_search(lambda a: (a - 2) * (a - 3), 0, 10) == 2


def test_line_search_endpoints():
    assert line_search(lambda a: a, 4, 4) == 4
    with pytest.raises(EmptyInterval):
        line_search(lambda a: a, 3, 2)


def test_line_search_evaluation_count():
    calls = [0]

    def f(a):
        calls[0] += 1
        return (a - 7) ** 2

    assert line_search(f, 0, 10**6) == 7
    assert calls[0] <= 4 * (10**6).bit_length()


def test_max_step_binding_coordinate():
    assert max_step(EX_Z0, (0, -1, 0, 1, 2, 0), EX_BOX) == 1


def test_max_step_zero_direction_unbounded():
    assert max_step(EX_Z0, (0,) * 6, EX_BOX) is UNBOUNDED


def test_max_step_knapsack():
    assert max_step((3, 0), (-1, 1), KNAP) == 3


def test_max_step_rational_mode():
    box = FeasibleBox(Mat(((1, 1),)), (3,), (0, 0), (3, 3))
    got = max_step((Fraction(3, 2), Fraction(3, 2)), (1, -1), box, mode="rational")
    assert got == Fraction(3, 2)


def test_max_step_integer_matches_exact_floor():
    # integer mode floors each coordinate's bound separately; the result
    # must equal the floor of the exact rational minimum
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 5)
        lower = tuple(rng.randint(-4, 0) for _ in range(n))
        upper = tuple(rng.choice((None, rng.randint(0, 6))) for _ in range(n))
        box = FeasibleBox(Mat((), cols=n), (), lower, upper)
        z = tuple(rng.randint(l, u if u is not None else 6) for l, u in zip(lower, upper))
        g = tuple(rng.randint(-3, 3) for _ in range(n))
        exact = max_step(z, g, box, mode="rational")
        got = max_step(z, g, box)
        if exact is UNBOUNDED:
            assert got is UNBOUNDED
        else:
            assert type(got) is int and got == math.floor(exact)


def test_max_step_integer_mode_rational_point():
    box = FeasibleBox(Mat(((1, 1),)), (3,), (0, 0), (3, 3))
    assert max_step((Fraction(3, 2), Fraction(3, 2)), (1, -1), box) == 1


def test_max_step_infeasible_base():
    with pytest.raises(InfeasibleBase):
        max_step((4, -1), (1, -1), KNAP)


def test_greedy_step_example():
    got = greedy_step(EX_Z0, circuits(EX_A).elements, EX_C, EX_BOX, mode="rational")
    assert got.direction == (0, -1, 0, 1, 2, 0)
    assert got.steplen == 1
    assert got.new_value == 0


def test_greedy_step_zero_at_optimum():
    got = greedy_step((0, 0, 1, 2, 2, 0), circuits(EX_A).elements, EX_C, EX_BOX, mode="rational")
    assert got.is_zero
    assert got.new_value == -1


def test_greedy_step_knapsack_squares():
    got = greedy_step((3, 0), graver(KNAP.A).elements, KNAP_SQ, KNAP)
    assert got == GreedyStep((-1, 1), 1, 5)


def test_greedy_step_unbounded_ray():
    box = FeasibleBox(Mat(((1, -1),)), (0,), (0, 0), (None, None))
    with pytest.raises(UnboundedObjective):
        greedy_step((0, 0), ((1, 1), (-1, -1)), LinearObjective((-1, 0)), box, mode="rational")


def test_solve_ip_greedy_knapsack():
    z, trace = solve_ip_greedy((3, 0), graver(KNAP.A), KNAP_SQ, KNAP)
    assert z == (2, 1)
    assert evaluate(KNAP_SQ, z) == 5
    assert len(trace) == 1
    assert trace.values() == (9, 5)
    assert trace.n_eff == 2 * (2 + 2) - 2
    assert trace.basis_size == len(graver(KNAP.A).directions())


def test_solve_ip_greedy_already_optimal():
    z, trace = solve_ip_greedy((2, 1), graver(KNAP.A), KNAP_SQ, KNAP)
    assert z == (2, 1)
    assert len(trace) == 0
    assert trace.values() == ()


def test_solve_ip_greedy_linear():
    obj = LinearObjective((1, 2))
    z, trace = solve_ip_greedy((0, 3), graver(KNAP.A), obj, KNAP)
    assert z == (3, 0)
    assert evaluate(obj, z) == 3
    assert trace.n_eff == 2 * 2 - 2


def test_solve_ip_greedy_certificate():
    # after termination no basis direction with any step length improves
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 4)
        A = Mat((tuple(rng.randint(1, 3) for _ in range(n)),))
        u = tuple(rng.randint(1, 4) for _ in range(n))
        b = (sum(a * x for a, x in zip(A.data[0], u)) // 2,)
        box = FeasibleBox(A, b, (0,) * n, u)
        pts = list(enumerate_feasible(box))
        if not pts:
            continue
        obj = CompositeObjective(
            tuple(rng.randint(-2, 2) for _ in range(n)),
            (((1,) * n, SQ),),
        )
        G = graver_composite(A, Mat(((1,) * n,), cols=n))
        z, _ = solve_ip_greedy(pts[0], G, obj, box)
        best = evaluate(obj, z)
        for g in G.directions():
            a = 1
            while True:
                cand = tuple(x + a * d for x, d in zip(z, g))
                if not box.inside_bounds(cand):
                    break
                assert evaluate(obj, cand) >= best
                a += 1


def test_solve_lp_circuit_example():
    z, trace = solve_lp_circuit(EX_Z0, circuits(EX_A), EX_C, EX_BOX)
    assert z == (0, 0, 1, 2, 2, 0)
    assert trace.values()[-1] == -1
    assert trace.n_eff == 6


def test_solve_lp_circuit_from_value_zero_start():
    z, trace = solve_lp_circuit((0, 0, 0, 2, 2, 1), circuits(EX_A), EX_C, EX_BOX)
    assert z == (0, 0, 1, 2, 2, 0)
    assert trace.values() == (0, -1)


def test_solve_lp_circuit_optimal_vertex_unchanged():
    z, trace = solve_lp_circuit((0, 0, 1, 2, 2, 0), circuits(EX_A), EX_C, EX_BOX)
    assert z == (0, 0, 1, 2, 2, 0)
    assert len(trace) == 0


def test_solve_lp_circuit_requires_zero_lower():
    box = FeasibleBox(Mat(((1, 1),)), (3,), (1, 0), (3, 3))
    with pytest.raises(DomainError):
        solve_lp_circuit((1, 2), circuits(box.A), LinearObjective((1, 0)), box)


def test_naive_lp_greedy_zigzag():
    zig = (
        (1, -2, 0, 0, 3, 0),
        (-1, 2, 0, 0, -3, 0),
        (2, -1, 0, -3, 0, 0),
        (-2, 1, 0, 3, 0, 0),
    )
    values, z = naive_lp_greedy(EX_Z0, zig, EX_C, EX_BOX, max_iter=10)
    assert len(values) == 11
    assert values[:4] == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert values[-1] == Fraction(1, 1024)
    # never reaches the optimum the circuit solver finds
    assert all(v > -1 for v in values)


def test_linear_composite_same_trace():
    # a composite with no rows is the same objective as its linear part
    c = (1, -2)
    lin = LinearObjective(c)
    comp = CompositeObjective(c, ())
    G = graver(KNAP.A)
    z1, t1 = solve_ip_greedy((0, 3), G, lin, KNAP)
    z2, t2 = solve_ip_greedy((0, 3), G, comp, KNAP)
    assert z1 == z2
    assert t1.iterations == t2.iterations


def test_separable_fast_path_matches_general(monkeypatch):
    # disable the per-coordinate shortcut and require identical steps
    rng = random.Random(32)
    cases = []
    for _ in range(10):
        n = 3
        A = Mat((tuple(rng.randint(1, 2) for _ in range(n)),))
        u = tuple(rng.randint(1, 4) for _ in range(n))
        b = (sum(a * x for a, x in zip(A.data[0], u)) // 2,)
        box = FeasibleBox(A, b, (0,) * n, u)
        start = None
        for z in enumerate_feasible(box):
            start = z
            break
        if start is None:
            continue
        obj = CompositeObjective(
            tuple(rng.randint(-1, 1) for _ in range(n)),
            tuple(((1 if j == i else 0 for j in range(n)), SQ) for i in range(n)),
        )
        cases.append((box, CompositeObjective(obj.c, tuple((tuple(r), f) for r, f in obj.rows)), start))
    results = []
    for box, obj, start in cases:
        results.append(solve_ip_greedy(start, graver(box.A), obj, box))
    monkeypatch.setattr(augment, "_per_coordinate", lambda obj: None)
    for (box, obj, start), (z, t) in zip(cases, results):
        z2, t2 = solve_ip_greedy(start, graver(box.A), obj, box)
        assert z2 == z
        assert t2.iterations == t.iterations


def test_trace_values_strictly_decrease():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(2, 3)
        A = Mat((tuple(rng.randint(1, 3) for _ in range(n)),))
        u = tuple(rng.randint(1, 5) for _ in range(n))
        b = (sum(a * x for a, x in zip(A.data[0], u)) // 2,)
        box = FeasibleBox(A, b, (0,) * n, u)
        pts = list(enumerate_feasible(box))
        if not pts:
            continue
        obj = LinearObjective(tuple(rng.randint(-3, 3) for _ in range(n)))
        z, trace = solve_ip_greedy(pts[-1], graver(A), obj, box)
        vals = trace.values()
        assert all(a > b2 for a, b2 in zip(vals, vals[1:]))
        best = solve_oracle(box, obj)
        assert evaluate(obj, z) == best[1]


def test_augment_trace_helpers():
    t = AugmentTrace((), None, 4)
    assert len(t) == 0
    assert t.values() == ()
    assert t.shrink_moves == 0


def _shifted(z, a, g):
    return tuple(x + a * d for x, d in zip(z, g))


def _reference_step(z, dirs, obj, box, mode):
    """greedy_step spelled out with the public max_step and line_search
    on every direction, with no sign-bitset prefilter."""
    cur = evaluate(obj, z)
    cands = []
    for g in dirs:
        a_max = max_step(z, g, box, mode)
        if a_max is UNBOUNDED:
            if not isinstance(obj, LinearObjective):
                raise UnboundedBox("composite objective over an unbounded ray")
            if dot(obj.c, g) < 0:
                raise UnboundedObjective("objective decreases without bound along %r" % (g,))
            continue
        if mode == "rational":
            if a_max <= 0:
                continue
            a = a_max
        else:
            if a_max < 1:
                continue
            a = line_search(lambda t: evaluate(obj, _shifted(z, t, g)), 1, a_max)
        v = evaluate(obj, _shifted(z, a, g))
        if v < cur:
            cands.append((v, a, g))
    if not cands:
        return GreedyStep((0,) * box.dim, 0, cur)
    v, a, g = min(cands)
    return GreedyStep(g, a, v)


def _outcome(f):
    try:
        return f()
    except (UnboundedBox, UnboundedObjective) as e:
        return type(e), str(e) if isinstance(e, UnboundedObjective) else None


@st.composite
def _sweep_cases(draw):
    """A point with many coordinates on their bounds, a direction list
    and an objective: integer mode with integer points and finite boxes,
    rational mode with linear objectives, Fraction points and None
    upper bounds."""
    mode = draw(st.sampled_from(("integer", "rational")))
    # open boxes: every coordinate on its lower bound, no upper bounds
    ray = mode == "rational" and draw(st.booleans())
    n = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    z, lower, upper = [], [], []
    for _ in range(n):
        if mode == "rational" and draw(st.booleans()):
            x = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 3)))
        else:
            x = draw(small)
        at = "lower" if ray else draw(st.sampled_from(("lower", "upper", "both", "inside", "inside")))
        lo = x if at in ("lower", "both") else x - draw(st.integers(1, 3))
        if at in ("upper", "both"):
            up = x
        elif ray or (mode == "rational" and draw(st.booleans())):
            up = None
        else:
            up = x + draw(st.integers(1, 3))
        z.append(x)
        lower.append(lo)
        upper.append(up)
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=2))
    A = Mat(rows, cols=n)
    box = FeasibleBox(A, A.mul_vec(z), lower, upper)
    dirs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=14))
    c = draw(st.tuples(*[small] * n))
    shape = "linear" if mode == "rational" else draw(st.sampled_from(("linear", "coordinate", "mixed")))
    if shape == "linear":
        obj = LinearObjective(c)
    else:
        pieces = []
        for j in range(n):
            if draw(st.booleans()):
                row = [0] * n
                row[j] = draw(st.sampled_from((1, 2, -1)))
                if shape == "mixed" and n > 1:
                    row[(j + 1) % n] = draw(st.integers(-1, 1))
                f = AbsPower(draw(st.integers(0, 2)), draw(st.integers(1, 3)), draw(small))
                pieces.append((tuple(row), f))
        obj = CompositeObjective(c, tuple(pieces))
    return tuple(z), tuple(dirs), obj, box, mode


@settings(max_examples=300, deadline=None)
@given(_sweep_cases())
def test_greedy_step_matches_per_direction_reference(case):
    z, dirs, obj, box, mode = case
    got = _outcome(lambda: greedy_step(z, dirs, obj, box, mode))
    want = _outcome(lambda: _reference_step(z, dirs, obj, box, mode))
    assert got == want
    # every direction the bitsets reject has exact step bound 0
    table = DirectionTable(dirs)
    live = set(table.live(z, box.lower, box.upper))
    for i, g in enumerate(dirs):
        if i not in live:
            assert max_step(z, g, box, "rational") == 0


def test_greedy_step_unbounded_ray_behind_blocked_directions():
    # coordinate 1 sits on its lower bound, so (0, -1) is rejected by the
    # bitsets; the unbounded improving ray (1, 0) must still be found
    box = FeasibleBox(Mat((), cols=2), (), (0, 0), (None, 4))
    dirs = ((0, -1), (0, 1), (1, 0))
    with pytest.raises(UnboundedObjective):
        greedy_step((Fraction(1, 2), 0), dirs, LinearObjective((-1, 1)), box, mode="rational")


def test_direction_table_built_once_per_basis(monkeypatch):
    built = []
    init = DirectionTable.__init__

    def counting(self, directions):
        built.append(len(directions))
        init(self, directions)

    monkeypatch.setattr(DirectionTable, "__init__", counting)
    G = graver(EX_A)
    unit_rows = tuple(tuple(int(j == i) for j in range(6)) for i in range(6))
    obj = CompositeObjective((0,) * 6, tuple((r, SQ) for r in unit_rows))
    for start in (EX_Z0, (0, 0, 1, 2, 2, 0), (1, 0, 0, 0, 1, 1)):
        solve_ip_greedy(start, G, obj, EX_BOX)
    assert built == [len(G)]
    assert G.sweep_table is G.sweep_table
    # a plain direction list gets one table per solve, not one per sweep
    z, trace = solve_ip_greedy((0, 0, 1, 2, 2, 0), G.elements, obj, EX_BOX)
    assert len(trace) >= 1
    assert built == [len(G), len(G)]
