import itertools
import random
from fractions import Fraction

import pytest
from _oracles import block_swaps, dense_twostage_step, orbit_closed

from graveropt.augment import FeasibleBox, greedy_step, solve_ip_greedy
from graveropt.bruteforce import first_feasible
from graveropt.errors import (
    DimMismatch,
    DomainError,
    Infeasible,
    NotStabilized,
)
from graveropt.graver import graver, graver_composite
from graveropt.linalg import Mat, integer_solution, kernel_basis
from graveropt.objective import AbsPower, CompositeObjective, evaluate
import graveropt.twostage as twostage
from graveropt import _kernels_py
from graveropt.nfold import _layout_group
from graveropt.twostage import (
    BlockMoves,
    BuildingBlocks,
    TwoStageInstance,
    TwoStagePoint,
    build_twostage_matrix,
    extract_building_blocks,
    greedy_step_twostage,
    improving_vector,
    solve_twostage,
)

SQ = AbsPower(1, 2)

T1 = Mat(((1,),))
W1 = Mat(((1,),))


def brute_optimum(inst):
    """Scenario-decoupled enumeration; returns (value, point) or None."""
    best = None
    for x in itertools.product(*(range(u + 1) for u in inst.ux)):
        tx = inst.T.mul_vec(x)
        ys = []
        total = 0
        dead = False
        for i in range(inst.N):
            best_i = None
            for y in itertools.product(*(range(u + 1) for u in inst.uy[i])):
                lhs = tuple(a + b for a, b in zip(tx, inst.W.mul_vec(y)))
                if lhs != inst.b[i]:
                    continue
                val = evaluate(inst.objective[i], x + y)
                if best_i is None or (val, y) < best_i:
                    best_i = (val, y)
            if best_i is None:
                dead = True
                break
            total += best_i[0]
            ys.append(best_i[1])
        if dead:
            continue
        cand = (total, TwoStagePoint(x, ys))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def feasible_points(inst):
    for x in itertools.product(*(range(u + 1) for u in inst.ux)):
        tx = inst.T.mul_vec(x)
        per = []
        for i in range(inst.N):
            ok = [
                y
                for y in itertools.product(*(range(u + 1) for u in inst.uy[i]))
                if tuple(a + b for a, b in zip(tx, inst.W.mul_vec(y))) == inst.b[i]
            ]
            per.append(ok)
        if any(not p for p in per):
            continue
        for ys in itertools.product(*per):
            yield TwoStagePoint(x, ys)


def test_build_matrix_two_scenarios():
    M = build_twostage_matrix(T1, W1, 2)
    assert M.to_lists() == [[1, 1, 0], [1, 0, 1]]


def test_build_matrix_one_scenario_is_concat():
    T = Mat(((1, 2), (0, 1)))
    W = Mat(((3,), (1,)))
    assert build_twostage_matrix(T, W, 1).to_lists() == Mat.hstack(T, W).to_lists()


def test_build_matrix_block_layout():
    T = Mat(((1,), (2,)))
    W = Mat(((1, 0), (0, 1)))
    M = build_twostage_matrix(T, W, 3)
    assert (M.rows, M.cols) == (6, 7)
    for i in range(3):
        for r in range(2):
            row = M.data[2 * i + r]
            assert row[0] == T.data[r][0]
            assert row[1 + 2 * i : 3 + 2 * i] == W.data[r]
            others = row[1 : 1 + 2 * i] + row[3 + 2 * i :]
            assert not any(others)


def test_build_matrix_errors():
    with pytest.raises(DimMismatch):
        build_twostage_matrix(Mat(((1,), (1,))), W1, 2)
    with pytest.raises(DomainError):
        build_twostage_matrix(T1, W1, 0)


def test_kernel_iff_blockwise():
    # z in ker of the stacked matrix exactly when T v + W w_i = 0 per scenario
    rng = random.Random(51)
    seen_zero = seen_nonzero = 0
    for trial in range(200):
        d = rng.choice((1, 2))
        m = rng.choice((1, 2))
        n = rng.choice((1, 2))
        N = rng.choice((1, 2, 3))
        T = Mat(tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(d)), cols=m)
        W = Mat(tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)), cols=n)
        M = build_twostage_matrix(T, W, N)
        if trial % 2:
            z = tuple(rng.randint(-3, 3) for _ in range(m + N * n))
        else:
            # replicate a kernel vector of [T | W] across the scenarios
            ker = kernel_basis(Mat.hstack(T, W))
            g = ker[0] if ker else (0,) * (m + n)
            z = g[:m] + g[m:] * N
        v = z[:m]
        blockwise = all(
            all(
                a + b == 0
                for a, b in zip(T.mul_vec(v), W.mul_vec(z[m + i * n : m + (i + 1) * n]))
            )
            for i in range(N)
        )
        stacked = not any(M.mul_vec(z))
        assert stacked == blockwise
        if stacked:
            seen_zero += 1
        else:
            seen_nonzero += 1
    assert seen_zero > 20 and seen_nonzero > 20


def test_blocks_simple_pair():
    blocks = extract_building_blocks(T1, W1, cap=3)
    assert set(blocks.first_stage) == {(-1,), (1,)}
    for v in blocks.first_stage:
        for w in blocks.pool(v):
            assert v[0] + w[0] == 0


def test_blocks_zero_first_stage_matrix():
    T = Mat.zeros(1, 1)
    W = Mat(((1, -1),))
    blocks = extract_building_blocks(T, W, cap=3)
    for v in blocks.first_stage:
        for w in blocks.pool(v):
            assert w[0] - w[1] == 0


def test_blocks_grow_then_stabilize():
    # the zero scenario block only appears once N >= 2, so cap=2 is too early
    T = Mat(((1,),))
    W = Mat(((-2, 0),))
    with pytest.raises(NotStabilized) as e:
        extract_building_blocks(T, W, cap=2)
    assert e.value.cap == 2
    b3 = extract_building_blocks(T, W, cap=3)
    assert b3 == extract_building_blocks(T, W, cap=4)
    assert set(b3.first_stage) == {(-2,), (0,), (2,)}
    assert b3.pool((2,)) == ((1, 0),)
    assert b3.pool((9,)) == ()


def test_blocks_cached_and_read_only():
    T = Mat(((1, 1),))
    W = Mat(((-1, 1),))
    b = extract_building_blocks(T, W, cap=4)
    assert extract_building_blocks(T, W, cap=4) is b
    v = b.first_stage[0]
    with pytest.raises(TypeError):
        b.second_stage[v] = ()
    # a cached failed stabilization still raises on every call
    for _ in range(2):
        with pytest.raises(NotStabilized):
            extract_building_blocks(Mat(((1,),)), Mat(((-2, 0),)), cap=2)


def test_blocks_copy_caller_dict():
    second = {(1,): ((-1,),)}
    b = BuildingBlocks([(1,)], second)
    second[(1,)] = ()
    assert b.first_stage == ((1,),)
    assert b.pool((1,)) == ((-1,),)


def test_blocks_pairs_satisfy_scenario_equation():
    rng = random.Random(52)
    for _ in range(10):
        T = Mat(((rng.randint(-1, 1), rng.randint(-1, 1)),), cols=2)
        W = Mat(((rng.randint(-1, 1), 1),), cols=2)
        blocks = extract_building_blocks(T, W, cap=4)
        assert isinstance(blocks, BuildingBlocks)
        for v in blocks.first_stage:
            tv = T.mul_vec(v)
            for w in blocks.pool(v):
                assert tuple(a + b for a, b in zip(tv, W.mul_vec(w))) == (0,)


def test_blocks_with_objective_rows():
    C = Mat(((1,),))
    D = Mat(((1,),))
    blocks = extract_building_blocks(T1, W1, C, D, cap=4)
    assert blocks.first_stage
    for v in blocks.first_stage:
        for w in blocks.pool(v):
            assert v[0] + w[0] == 0


def test_blocks_ignore_unit_objective_rows():
    # +-unit rows change no usable direction: the pool is the plain
    # pair's, and folding the rows in anyway harvests the same pool
    T, W = Mat(((1, -1),)), Mat(((1,),))
    C = Mat(((1, 0), (0, -1), (0, 0)))
    D = Mat(((0,), (0,), (1,)))
    plain = extract_building_blocks(T, W, cap=4)
    assert extract_building_blocks(T, W, C, D, cap=4) == plain
    assert twostage._harvest_blocks(T, W, C, D, 4) == (plain, True)


def test_blocks_argument_validation():
    with pytest.raises(DomainError):
        extract_building_blocks(T1, W1, cap=1)
    with pytest.raises(DomainError):
        extract_building_blocks(T1, W1, C=Mat(((1,),)), cap=3)
    with pytest.raises(DimMismatch):
        extract_building_blocks(T1, W1, C=Mat(((1, 1),)), D=Mat(((1,),)), cap=3)


def test_point_flatten_roundtrip():
    z = TwoStagePoint((1, 2), ((3,), (4,)))
    assert z.flatten() == (1, 2, 3, 4)
    assert TwoStagePoint.from_flat((1, 2, 3, 4), 2, 2, 1) == z
    with pytest.raises(DimMismatch):
        TwoStagePoint.from_flat((1, 2, 3), 2, 2, 1)


def _square_instance():
    obj = CompositeObjective((0, 0), (((1, 0), SQ), ((0, 1), SQ)))
    return TwoStageInstance(
        T1, W1, 2, ((2,), (3,)), (2,), ((2,), (3,)), (obj, obj)
    )


def test_instance_validation():
    obj = CompositeObjective((0, 0), (((1, 0), SQ),))
    other = CompositeObjective((0, 0), (((0, 1), SQ),))
    with pytest.raises(DomainError):
        TwoStageInstance(T1, W1, 2, ((2,), (3,)), (2,), ((2,), (3,)), (obj, other))
    with pytest.raises(DimMismatch):
        TwoStageInstance(T1, W1, 2, ((2,),), (2,), ((2,), (3,)), (obj, obj))
    inst = _square_instance()
    assert (inst.m, inst.n, inst.s) == (1, 1, 2)


def test_instance_value_and_feasibility():
    inst = _square_instance()
    z = TwoStagePoint((1,), ((1,), (2,)))
    assert inst.value(z) == 1 + 1 + 1 + 4
    assert inst.check_feasible(z) is z
    with pytest.raises(Infeasible):
        inst.check_feasible(TwoStagePoint((0,), ((2,), (2,))))
    with pytest.raises(Infeasible):
        inst.check_feasible(TwoStagePoint((2,), ((0,), (3,))))
    with pytest.raises(DimMismatch):
        inst.check_feasible(TwoStagePoint((1, 0), ((1,), (2,))))


def test_rows_CD_split():
    obj = CompositeObjective((0, 0, 0), (((1, 2, 3), SQ), ((0, 1, 0), SQ)))
    inst = TwoStageInstance(
        Mat(((1, 1),)), Mat(((1,),)), 1, ((2,),), (2, 2), ((2,),), (obj,)
    )
    C, D = inst.rows_CD()
    assert C.to_lists() == [[1, 2], [0, 1]]
    assert D.to_lists() == [[3], [0]]


def test_improving_vector_none_at_optimum():
    inst = _square_instance()
    blocks = extract_building_blocks(T1, W1, *inst.rows_CD(), cap=4)
    opt = brute_optimum(inst)
    assert improving_vector(opt[1], blocks, inst) is None


def test_improving_vector_strictly_improves():
    inst = _square_instance()
    blocks = extract_building_blocks(T1, W1, *inst.rows_CD(), cap=4)
    z = TwoStagePoint((0,), ((2,), (3,)))
    mv = improving_vector(z, blocks, inst)
    assert mv is not None
    z2 = TwoStagePoint(
        tuple(a + b for a, b in zip(z.x, mv.x)),
        tuple(tuple(a + b for a, b in zip(y, w)) for y, w in zip(z.ys, mv.ys)),
    )
    inst.check_feasible(z2)
    assert inst.value(z2) < inst.value(z)


def test_certificate_matches_enumeration():
    # improving_vector is None exactly on the global optima
    T = Mat(((1,),))
    W = Mat(((1, -1),))
    obj1 = CompositeObjective((1, -2, 1), ())
    obj2 = CompositeObjective((0, 1, -1), ())
    inst = TwoStageInstance(T, W, 2, ((1,), (0,)), (2,), ((3, 3), (3, 3)), (obj1, obj2))
    blocks = extract_building_blocks(T, W, cap=4)
    pts = list(feasible_points(inst))
    assert len(pts) > 20
    opt = min(inst.value(z) for z in pts)
    for z in pts:
        assert (improving_vector(z, blocks, inst) is None) == (inst.value(z) == opt)


def test_greedy_step_agrees_with_certificate():
    inst = _square_instance()
    blocks = extract_building_blocks(T1, W1, *inst.rows_CD(), cap=4)
    for z in feasible_points(inst):
        st = greedy_step_twostage(z, blocks, inst)
        mv = improving_vector(z, blocks, inst)
        assert st.is_zero == (mv is None)
        if not st.is_zero:
            assert st.new_value < inst.value(z)


def test_greedy_linear_takes_full_step():
    T = Mat(((1,),))
    W = Mat(((-1,),))
    obj = CompositeObjective((-1, 0), ())
    inst = TwoStageInstance(T, W, 1, ((0,),), (5,), ((5,),), (obj,))
    blocks = extract_building_blocks(T, W, cap=4)
    st = greedy_step_twostage(TwoStagePoint((0,), ((0,),)), blocks, inst)
    assert st.steplen == 5
    assert st.direction == (1, 1)
    assert st.new_value == -5


def test_solve_square_example():
    inst = _square_instance()
    z, trace = solve_twostage(inst)
    assert inst.value(z) == 7
    assert z == TwoStagePoint((1,), ((1,), (2,)))
    assert trace.n_eff == 2 * (1 + 2 * 1 + 2 * 2) - 2
    assert trace.basis_size > 0
    vals = trace.values()
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 7


def test_solve_infeasible_parity():
    obj = CompositeObjective((0, 0), (((0, 1), SQ),))
    inst = TwoStageInstance(
        Mat(((2,),)), Mat(((2,),)), 2, ((2,), (3,)), (2,), ((2,), (2,)), (obj, obj)
    )
    with pytest.raises(Infeasible):
        solve_twostage(inst)


def test_solve_single_scenario_matches_plain_greedy():
    T = Mat(((1,),))
    W = Mat(((1, 1),))
    obj = CompositeObjective((0, 0, 1), (((1, 1, 0), SQ),))
    inst = TwoStageInstance(T, W, 1, ((3,),), (2,), ((2, 2),), (obj,))
    z, _ = solve_twostage(inst)
    A = Mat.hstack(T, W)
    basis = graver_composite(A, Mat(((1, 1, 0),), cols=3))
    box = FeasibleBox(A, (3,), (0, 0, 0), (2, 2, 2))
    z0 = box.check_point((2, 1, 0))
    plain, _ = solve_ip_greedy(z0, basis, obj, box)
    assert inst.value(z) == evaluate(obj, plain)


def test_solve_matches_bruteforce_randoms():
    rng = random.Random(53)
    solved = 0
    while solved < 12:
        m = rng.choice((1, 2))
        n = rng.choice((1, 2))
        N = rng.choice((1, 2, 3))
        T = Mat(tuple((tuple(rng.randint(-1, 1) for _ in range(m)),)), cols=m)
        W = Mat(tuple((tuple(rng.randint(-1, 1) for _ in range(n)),)), cols=n)
        ux = tuple(rng.randint(1, 3) for _ in range(m))
        uy = tuple(tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(N))
        xs = tuple(rng.randint(0, u) for u in ux)
        b = []
        for i in range(N):
            y = tuple(rng.randint(0, u) for u in uy[i])
            b.append(
                tuple(p + q for p, q in zip(T.mul_vec(xs), W.mul_vec(y)))
            )
        if solved % 2:
            objs = tuple(
                CompositeObjective(
                    tuple(rng.randint(-2, 2) for _ in range(m + n)), ()
                )
                for _ in range(N)
            )
        else:
            row = tuple(rng.randint(0, 1) for _ in range(m + n))
            objs = tuple(
                CompositeObjective((0,) * (m + n), ((row, SQ),)) for _ in range(N)
            )
        inst = TwoStageInstance(T, W, N, tuple(b), ux, uy, objs)
        z, trace = solve_twostage(inst)
        inst.check_feasible(z)
        want = brute_optimum(inst)
        assert want is not None
        assert inst.value(z) == want[0]
        assert improving_vector(
            z, extract_building_blocks(T, W, *inst.rows_CD(), cap=4), inst
        ) is None
        vals = trace.values()
        assert len(vals) == (len(trace) + 1 if len(trace) else 0)
        solved += 1


def _violation(box):
    """sum_j |z_j - l_j| + |z_j - u_j|, the phase-one objective."""
    rows = []
    for j, (l, u) in enumerate(zip(box.lower, box.upper)):
        unit = tuple(int(k == j) for k in range(box.dim))
        rows += [(unit, AbsPower(1, 1, l)), (unit, AbsPower(1, 1, u))]
    return CompositeObjective((0,) * box.dim, tuple(rows))


def _random_instance(rng, N):
    m, n = rng.choice((1, 2)), rng.choice((1, 2))
    T = Mat((tuple(rng.randint(-1, 1) for _ in range(m)),), cols=m)
    W = Mat((tuple(rng.randint(-1, 1) for _ in range(n)),), cols=n)
    ux = tuple(rng.randint(0, 2) for _ in range(m))
    uy = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(N))
    b = tuple((rng.randint(-2, 3),) for _ in range(N))
    objs = tuple(
        CompositeObjective(tuple(rng.randint(-2, 2) for _ in range(m + n)), ()) for _ in range(N)
    )
    return TwoStageInstance(T, W, N, b, ux, uy, objs)


def test_block_moves_price_given_objective_and_box():
    # Phase one walks the bound violation over a box widened around an
    # integer solution; the assembled moves must price that objective
    # and box, and match the best move of the full test set.
    rng = random.Random(54)
    checked = improving = 0
    for _ in range(60):
        inst = _random_instance(rng, rng.choice((1, 2)))
        box = inst.box()
        z = integer_solution(box.A, box.b)
        if z is None:
            continue
        for g in kernel_basis(box.A):
            k = rng.randint(-2, 2)
            z = tuple(a + k * d for a, d in zip(z, g))
        relaxed = FeasibleBox(
            box.A, box.b, tuple(map(min, box.lower, z)), tuple(map(max, box.upper, z))
        )
        obj = _violation(box)
        blocks = extract_building_blocks(inst.T, inst.W, cap=4)
        got = BlockMoves(blocks, inst).step(z, obj, relaxed)
        want = greedy_step(z, graver(inst.matrix()), obj, relaxed)
        assert got.is_zero == want.is_zero
        assert got.new_value <= want.new_value
        checked += 1
        improving += not want.is_zero
    assert checked > 30 and improving > 10


def test_solve_infeasible_iff_no_point_randoms():
    rng = random.Random(55)
    outcomes = []
    for trial in range(40):
        inst = _random_instance(rng, 1 + trial % 3)
        try:
            solve_twostage(inst)
            infeasible = False
        except Infeasible:
            infeasible = True
        assert infeasible == (first_feasible(inst.box()) is None)
        outcomes.append(infeasible)
    assert 5 < sum(outcomes) < 35


def _priced_instance(rng, kind):
    m, n, N = rng.choice((1, 2)), rng.choice((1, 2)), rng.randint(1, 4)
    T = Mat((tuple(rng.randint(-1, 1) for _ in range(m)),), cols=m)
    W = Mat((tuple(rng.randint(-1, 1) for _ in range(n)),), cols=n)
    ux = tuple(rng.randint(0, 3) for _ in range(m))
    uy = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(N))
    b = tuple((rng.randint(-2, 3),) for _ in range(N))
    if kind == "linear":
        rows = ()
    elif kind == "per-coordinate":
        rows = [tuple(int(k == j) for k in range(m + n)) for j in range(m + n) if rng.random() < 0.7]
    else:  # one row couples x with y
        rows = [tuple(rng.choice((-1, 1)) for _ in range(m)) + tuple(rng.randint(0, 1) for _ in range(n))]

    def fn():
        return AbsPower(Fraction(rng.randint(1, 4), rng.randint(1, 3)), rng.randint(1, 2), rng.randint(0, 2))

    objs = tuple(
        CompositeObjective(tuple(rng.randint(-2, 2) for _ in range(m + n)), tuple((r, fn()) for r in rows))
        for _ in range(N)
    )
    return TwoStageInstance(T, W, N, b, ux, uy, objs)


def _dense(z, blocks, inst, obj, box, lengths=None):
    return dense_twostage_step(
        z, blocks.first_stage, blocks.pool, inst.T.to_lists(), inst.m, inst.n, obj,
        box.lower, box.upper, lengths,
    )


def _assert_step_matches(got, want, obj, z):
    if want is None:
        assert got.is_zero and got.new_value == evaluate(obj, z)
    else:
        assert (got.direction, got.steplen, got.new_value) == want


def test_pricing_on_support_matches_dense_pricing():
    # Moves priced on their support must be the moves whole-composite
    # pricing picks: same direction, length and value, for the
    # instance's own objective and box and for phase one's violation
    # over a widened box.
    rng = random.Random(56)
    improving = {"own": 0, "phase one": 0, "vector": 0}
    for trial in range(90):
        inst = _priced_instance(rng, ("linear", "per-coordinate", "coupled")[trial % 3])
        blocks = extract_building_blocks(inst.T, inst.W, *inst.rows_CD(), cap=4)
        box, obj = inst.box(), inst.flatten_objective()
        for _ in range(3):
            z = tuple(rng.randint(l, u) for l, u in zip(box.lower, box.upper))
            point = TwoStagePoint.from_flat(z, inst.m, inst.N, inst.n)
            want = _dense(z, blocks, inst, obj, box)
            _assert_step_matches(greedy_step_twostage(point, blocks, inst), want, obj, z)
            improving["own"] += want is not None
            want = _dense(z, blocks, inst, obj, box, lengths=(1,))
            got = improving_vector(point, blocks, inst)
            assert got == (None if want is None else TwoStagePoint.from_flat(want[0], inst.m, inst.N, inst.n))
            improving["vector"] += want is not None
        z = integer_solution(box.A, box.b)
        if z is None:
            continue
        for g in kernel_basis(box.A):
            k = rng.randint(-2, 2)
            z = tuple(a + k * d for a, d in zip(z, g))
        relaxed = FeasibleBox(
            box.A, box.b, tuple(map(min, box.lower, z)), tuple(map(max, box.upper, z))
        )
        violation = _violation(box)
        want = _dense(z, blocks, inst, violation, relaxed)
        _assert_step_matches(BlockMoves(blocks, inst).step(z, violation, relaxed), want, violation, z)
        improving["phase one"] += want is not None
    assert min(improving.values()) > 20, improving


def test_scenario_group_completion_matches_plain():
    # Swapping two scenarios (first stage fixed) maps the kernel of a
    # two-stage matrix onto itself; completing under the swaps gives the
    # plain test set from a pool closed under them and negation.
    rng = random.Random(20)
    for _ in range(20):
        m, n, N = rng.randint(1, 2), rng.randint(2, 3), rng.randint(2, 4)
        T = Mat((tuple(rng.randint(-1, 1) for _ in range(m)),))
        W = Mat((tuple(rng.randint(-1, 2) for _ in range(n)),))
        M = build_twostage_matrix(T, W, N)
        group = _layout_group(m, N, n)
        assert group == block_swaps(m, n, N)
        assert graver(M, group).elements == graver(M).elements, (T.data, W.data, N)
        assert orbit_closed(_kernels_py.complete(kernel_basis(M), group), group), (T.data, W.data, N)
