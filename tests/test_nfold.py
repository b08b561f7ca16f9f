import itertools
import random
from dataclasses import replace

import pytest
from _oracles import (
    assert_step_bound,
    block_swaps,
    layout_box,
    layout_matrix,
    layout_objective,
    orbit_closed,
)

import graveropt.nfold as nfold
from graveropt import kernels
from graveropt.augment import FeasibleBox, solve_ip_greedy
from graveropt.bruteforce import enumerate_feasible, first_feasible, solve_oracle
from graveropt.errors import DimMismatch, DomainError, Infeasible, NotStabilized, NTooSmall
from graveropt.graver import graver, graver_composite
from graveropt.linalg import Mat, dot, kernel_basis
from graveropt.models import build_3way_linesum, build_transportation
from graveropt.nfold import (
    BlockVector,
    NFoldInstance,
    analyze_pair,
    build_nfold_matrix,
    graver_complexity,
    lift_graver,
    phase_one,
    solve_nfold,
)
from graveropt.objective import AbsPower, CompositeObjective, evaluate
from graveropt.twostage import TwoStageInstance, TwoStagePoint, build_twostage_matrix

SQ = AbsPower(1, 2)

A11 = Mat(((1, 1),))
B10 = Mat(((1, 0),))


def comp(c, rows=()):
    return CompositeObjective(tuple(c), tuple(rows))


def test_build_nfold_matrix_small():
    M = build_nfold_matrix(A11, B10, 2)
    assert M.to_lists() == [[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]]


def test_build_nfold_matrix_n1_is_stack():
    M = build_nfold_matrix(A11, B10, 1)
    assert M.to_lists() == [[1, 0], [1, 1]]


def test_build_nfold_matrix_kernel_structure():
    M = build_nfold_matrix(A11, Mat.identity(2), 3)
    assert (M.rows, M.cols) == (5, 6)
    for v in kernel_basis(M):
        # blockwise membership in ker(A), coupled rows sum to zero
        for i in range(3):
            blk = v[2 * i : 2 * i + 2]
            assert blk[0] + blk[1] == 0
        assert sum(v[0::2]) == 0 and sum(v[1::2]) == 0


def test_build_nfold_matrix_dim_mismatch():
    with pytest.raises(DimMismatch):
        build_nfold_matrix(A11, Mat(((1, 0, 0),)), 2)


def test_direct_composite_test_set_is_the_flat_fold():
    # the block matrix of the folded pair is the flat fold of the block
    # matrix up to a permutation, so both give the same directions
    rng = random.Random(41)
    for _ in range(10):
        n, N = rng.randint(1, 2), rng.randint(1, 3)
        A = Mat((tuple(rng.randint(-1, 2) for _ in range(n)),))
        B = Mat((tuple(rng.randint(-1, 2) for _ in range(n)),))
        row = (rng.choice((-2, 2)),) + tuple(rng.randint(-1, 1) for _ in range(n - 1))
        inst = NFoldInstance(
            A=A,
            B=B,
            N=N,
            b0=(0,),
            b=((0,),) * N,
            upper=((1,) * n,) * N,
            objective=(comp((0,) * n, ((row, SQ),)),) * N,
        )
        C_flat = Mat(tuple((0,) * (i * n) + row + (0,) * ((N - 1 - i) * n) for i in range(N)))
        want = graver_composite(inst.matrix(), C_flat).directions()
        assert nfold._test_set(inst).directions == want, (A.data, B.data, row, N)


def test_lifted_walk_stops_at_the_instance_width(monkeypatch):
    # 13 suppliers x 2 customers: 26 flat variables take the lifted
    # path, whose walk stops at N = 2 with the direct test set there
    objective = tuple(comp(tuple((3 * j + 7 * k) % 5 for j in range(13))) for k in range(2))
    inst = build_transportation((1,) * 13, (6, 7), 1, objective=objective)
    assert inst.N * inst.n > nfold.DIRECT_THRESHOLD
    nfold._block_test_set.cache_clear()
    widths = []
    real = nfold.build_nfold_matrix
    monkeypatch.setattr(nfold, "build_nfold_matrix", lambda A, B, N: widths.append(N) or real(A, B, N))
    lifted = solve_nfold(inst)
    assert max(widths) == inst.N
    assert lifted == solve_nfold(inst, direct_threshold=26)
    assert len(lifted[1]) > 0


def test_graver_complexity_values():
    assert graver_complexity(A11, B10) == 2
    assert graver_complexity(A11, Mat(((0, 0),))) == 1
    assert graver_complexity(Mat(((1, 1, 1),)), Mat.identity(3)) == 3
    assert graver_complexity(Mat(((1, 2),)), Mat(((0, 1),))) == 2
    assert graver_complexity(A11, Mat.identity(2)) == 2


def test_graver_complexity_cap_too_small():
    with pytest.raises(NotStabilized) as e:
        graver_complexity(Mat(((1, 1, 1),)), Mat.identity(3), cap=2)
    assert e.value.cap == 2


def test_lift_graver_matches_direct():
    for A, B in (
        (A11, B10),
        (A11, Mat(((0, 0),))),
        (Mat(((1, 2),)), Mat(((0, 1),))),
        (A11, Mat.identity(2)),
    ):
        seed = analyze_pair(A, B)
        g = seed.generator_type_bound
        for N in (g, g + 1, g + 2):
            lifted = lift_graver(seed, N)
            direct = graver(build_nfold_matrix(A, B, N))
            assert set(lifted.elements) == set(direct.elements), (A.data, B.data, N)


def test_lift_graver_type_bound_and_counts():
    seed = analyze_pair(A11, B10)
    assert seed.generator_type_bound == 2
    counts = []
    for N in (2, 3, 4):
        basis = lift_graver(seed, N)
        n = A11.cols
        for e in basis:
            blocks = [e[i * n : (i + 1) * n] for i in range(N)]
            assert sum(1 for b in blocks if any(b)) <= 2
        counts.append(len(basis))
    assert counts == [2, 6, 12]
    # second differences constant: cardinality is a degree-2 polynomial in N
    assert counts[2] - 2 * counts[1] + counts[0] == 2


def test_lift_graver_n_too_small():
    seed = analyze_pair(A11, B10)
    with pytest.raises(NTooSmall):
        lift_graver(seed, 1)


def test_lift_counts_b_zero():
    seed = analyze_pair(A11, Mat(((0, 0),)))
    assert [len(lift_graver(seed, N)) for N in (1, 2, 3)] == [2, 4, 6]


def test_lift_counts_identity3():
    seed = analyze_pair(Mat(((1, 1, 1),)), Mat.identity(3))
    assert [len(lift_graver(seed, N)) for N in (3, 4, 5)] == [30, 84, 180]


def test_phase_one_finds_feasible():
    inst = NFoldInstance(
        A=A11,
        B=B10,
        N=2,
        b0=(1,),
        b=((2,), (2,)),
        upper=((5, 5), (5, 5)),
        objective=(comp((0, 0)), comp((0, 0))),
    )
    z = phase_one(inst)
    inst.box().check_point(z.flatten())


def test_phase_one_infeasible():
    inst = NFoldInstance(
        A=A11,
        B=Mat(((0, 0),)),
        N=1,
        b0=(0,),
        b=((-1,),),
        upper=((3, 3),),
        objective=(comp((0, 0)),),
    )
    with pytest.raises(Infeasible):
        phase_one(inst)


def test_phase_one_zero_rhs():
    inst = NFoldInstance(
        A=A11,
        B=B10,
        N=2,
        b0=(0,),
        b=((0,), (0,)),
        upper=((3, 3), (3, 3)),
        objective=(comp((0, 0)), comp((0, 0))),
    )
    assert phase_one(inst).flatten() == (0, 0, 0, 0)


def test_solve_nfold_linear_matches_oracle():
    inst = NFoldInstance(
        A=A11,
        B=B10,
        N=2,
        b0=(2,),
        b=((3,), (2,)),
        upper=((3, 3), (3, 3)),
        objective=(comp((1, -1)), comp((2, 1))),
    )
    z, trace = solve_nfold(inst)
    got = evaluate(inst.flatten_objective(), z.flatten())
    best = solve_oracle(inst.box(), inst.flatten_objective())
    assert got == best[1]
    assert trace.basis_size > 0


def test_solve_nfold_composite_matches_oracle():
    rng = random.Random(42)
    for _ in range(10):
        N = rng.randint(1, 3)
        row = tuple(rng.randint(0, 2) for _ in range(2))
        objs = tuple(
            comp(
                (rng.randint(-2, 2), rng.randint(-2, 2)),
                ((row, SQ),),
            )
            for _ in range(N)
        )
        upper = tuple((rng.randint(1, 3), rng.randint(1, 3)) for _ in range(N))
        blocks = [tuple(rng.randint(0, u) for u in ub) for ub in upper]
        b0 = (sum(b[0] for b in blocks),)
        b = tuple((x + y,) for x, y in blocks)
        inst = NFoldInstance(A=A11, B=B10, N=N, b0=b0, b=b, upper=upper, objective=objs)
        z, _ = solve_nfold(inst)
        got = evaluate(inst.flatten_objective(), z.flatten())
        best = solve_oracle(inst.box(), inst.flatten_objective())
        assert got == best[1]


def test_solve_nfold_n1_equals_plain_greedy():
    inst = NFoldInstance(
        A=A11,
        B=B10,
        N=1,
        b0=(1,),
        b=((2,),),
        upper=((3, 3),),
        objective=(comp((1, 2)),),
    )
    z, _ = solve_nfold(inst)
    stacked = Mat.vstack(B10, A11)
    box = FeasibleBox(stacked, (1, 2), (0, 0), (3, 3))
    start = None
    for p in enumerate_feasible(box):
        start = p
        break
    z2, _ = solve_ip_greedy(start, graver(stacked), inst.objective[0], box)
    obj = inst.objective[0]
    assert evaluate(obj, z.flatten()) == evaluate(obj, z2)


def test_solve_nfold_infeasible():
    inst = NFoldInstance(
        A=A11,
        B=B10,
        N=1,
        b0=(5,),
        b=((0,),),
        upper=((3, 3),),
        objective=(comp((0, 0)),),
    )
    with pytest.raises(Infeasible):
        solve_nfold(inst)


def test_solve_nfold_starts_from_given_point():
    inst = NFoldInstance(
        A=A11,
        B=B10,
        N=2,
        b0=(2,),
        b=((3,), (2,)),
        upper=((3, 3), (3, 3)),
        objective=(comp((1, -1)), comp((2, 1))),
    )
    z0 = None
    for p in enumerate_feasible(inst.box()):
        z0 = p
        break
    z, _ = solve_nfold(inst, z0=z0)
    best = solve_oracle(inst.box(), inst.flatten_objective())
    assert evaluate(inst.flatten_objective(), z.flatten()) == best[1]


def test_block_vector():
    v = BlockVector(((1, 0), (0, 0), (2, -1)))
    assert v.btype == 2
    assert v.flatten() == (1, 0, 0, 0, 2, -1)
    assert BlockVector.from_flat((1, 2, 3, 4), 2, 2).blocks == ((1, 2), (3, 4))
    with pytest.raises(DimMismatch):
        BlockVector.from_flat((1, 2, 3), 2, 2)


def test_instance_requires_shared_rows():
    with pytest.raises(DomainError):
        NFoldInstance(
            A=A11,
            B=B10,
            N=2,
            b0=(0,),
            b=((0,), (0,)),
            upper=((1, 1), (1, 1)),
            objective=(
                comp((0, 0), (((1, 0), SQ),)),
                comp((0, 0), (((0, 1), SQ),)),
            ),
        )


def test_instance_rejects_a_permutation_that_is_no_symmetry():
    assert build_transportation((2, 2), (1, 3), 3).symmetries == ((1, 0),)
    for A, B in (((1, 2, 3),), ((1, 1, 1),)), (((1, 1, 3),), ((1, 0, 0),)):
        fields = dict(A=Mat(A), B=Mat(B), N=1, b0=(0,), b=((0,),), upper=((1, 1, 1),))
        fields["objective"] = (comp((0, 0, 0)),)
        assert NFoldInstance(**fields, symmetries=((0, 1, 2),)).symmetries == ((0, 1, 2),)
        # (1, 0, 2) moves a row of A, or of B, off the rows
        for p in ((1, 0, 2), (0, 0, 1), (0, 1)):
            with pytest.raises(DomainError):
                NFoldInstance(**fields, symmetries=(p,))


def _random_margin_instance(rng):
    """A table3 2x2x3 or a transportation instance of 2-3 suppliers and
    customers, with the margins of a random table, and caps that keep
    the box under the oracle's cell cap."""
    if rng.random() < 0.5:
        # entries mostly 1, so that moves fit under the cap of 2
        x = [
            [[rng.randint(0, 1) + rng.randint(0, 1) for _ in range(3)] for _ in range(2)]
            for _ in range(2)
        ]
        r = [[x[0][j][k] + x[1][j][k] for k in range(3)] for j in range(2)]
        s = [[sum(x[i][j][k] for j in range(2)) for k in range(3)] for i in range(2)]
        t = [[sum(x[i][j]) for j in range(2)] for i in range(2)]
        return build_3way_linesum(2, 2, 3, r, s, t, 2)
    n, N = rng.randint(2, 3), rng.randint(2, 3)
    x = [[rng.randint(0, 4) for _ in range(n)] for _ in range(N)]
    supplies = [sum(x[k][i] for k in range(N)) for i in range(n)]
    return build_transportation(supplies, [sum(b) for b in x], 4)


def test_block_walks_meet_the_step_bound():
    # Criterion 5's per-step gain and step count on N-fold walks, direct
    # and lifted, with unit rows (plain pair) and a non-unit shared row
    # (folded pair), against the oracle optimum.  Walks start from phase
    # one's point and from the worst feasible point.
    rng = random.Random(2026)
    for trial in range(40):
        inst = _random_margin_instance(rng)
        n = inst.n
        row = (1, 2) + (0,) * (n - 2) if trial % 4 == 3 else None
        objs = []
        for _ in range(inst.N):
            if row is None:
                units = [tuple(int(c == j) for c in range(n)) for j in range(n)]
                rows = [(e, AbsPower(1, rng.randint(1, 3), rng.randint(0, 4))) for e in units]
            else:
                rows = [(row, AbsPower(1, 2, rng.randint(0, 4)))]
            objs.append(comp(tuple(rng.randint(-2, 2) for _ in range(n)), rows))
        inst = replace(inst, objective=tuple(objs))
        f = inst.flatten_objective()
        opt = solve_oracle(inst.box(), f)[1]
        worst = max(enumerate_feasible(inst.box()), key=lambda z: evaluate(f, z))
        for threshold, z0 in itertools.product((nfold.DIRECT_THRESHOLD, 0), (None, worst)):
            z, trace = solve_nfold(inst, direct_threshold=threshold, z0=z0)
            assert evaluate(f, z.flatten()) == opt
            assert_step_bound(trace, opt)


def test_solve_nfold_builds_matrix_once(monkeypatch):
    # box(), the direct test set and the walk share one block matrix
    built = []
    real = nfold.build_nfold_matrix

    def counting(A, B, N):
        built.append(N)
        return real(A, B, N)

    monkeypatch.setattr(nfold, "build_nfold_matrix", counting)
    rows = (((1, 0), SQ), ((0, 1), SQ))
    inst = NFoldInstance(
        A=A11,
        B=B10,
        N=2,
        b0=(1,),
        b=((2,), (2,)),
        upper=((5, 5), (5, 5)),
        objective=(comp((1, 0), rows), comp((0, 1), rows)),
    )
    box = inst.box()
    z, _ = solve_nfold(inst, z0=(1, 1, 0, 2))
    box.check_point(z.flatten())
    assert inst.matrix() is box.A
    assert built == [2]


def test_solve_nfold_infeasible_iff_no_point_randoms():
    rng = random.Random(61)
    outcomes = []
    for trial in range(40):
        n, N = rng.choice((1, 2)), 1 + trial % 3
        A = Mat((tuple(rng.randint(-1, 2) for _ in range(n)),), cols=n)
        B = Mat((tuple(rng.randint(-1, 1) for _ in range(n)),), cols=n)
        upper = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(N))
        # every other instance has its right-hand sides taken at a point
        # of the box, the rest at random
        x = [tuple(rng.randint(0, u) for u in block) for block in upper]
        b0 = sum(dot(B.data[0], block) for block in x) + trial % 2 * rng.randint(-2, 2)
        b = tuple((dot(A.data[0], block) + trial % 2 * rng.randint(-2, 2),) for block in x)
        inst = NFoldInstance(
            A=A,
            B=B,
            N=N,
            b0=(b0,),
            b=b,
            upper=upper,
            objective=tuple(comp(tuple(rng.randint(-2, 2) for _ in range(n))) for _ in range(N)),
        )
        try:
            solve_nfold(inst)
            infeasible = False
        except Infeasible:
            infeasible = True
        assert infeasible == (first_feasible(inst.box()) is None)
        outcomes.append(infeasible)
    assert 5 < sum(outcomes) < 35


def test_box_with_negative_upper_is_infeasible():
    inst = NFoldInstance(
        A=A11,
        B=B10,
        N=1,
        b0=(0,),
        b=((0,),),
        upper=((1, -1),),
        objective=(comp((0, 0)),),
    )
    with pytest.raises(Infeasible):
        inst.box()


@pytest.mark.parametrize(
    "rows",
    [
        # unit rows: the plain lifted test set
        lambda k: (((1, 0), AbsPower(1, 2, k % 3)), ((0, 1), AbsPower(1, 2, 2 - k % 3))),
        # a shared non-unit row: the composite lifted test set
        lambda k: (((1, 2), AbsPower(1, 2, 1 + k % 4)),),
    ],
    ids=["unit-rows", "shared-row"],
)
def test_lifted_solve_matches_direct(monkeypatch, rows):
    # 2 suppliers x 13 customers: 26 flat variables, past DIRECT_THRESHOLD
    objective = tuple(comp((k % 2, 0), rows(k)) for k in range(13))
    inst = build_transportation((10, 16), (2,) * 13, 2, objective=objective)
    assert inst.N * inst.n > nfold.DIRECT_THRESHOLD
    nfold._block_test_set.cache_clear()
    lifts = []
    monkeypatch.setattr(nfold, "lift_graver", lambda *a: lifts.append(a) or lift_graver(*a))
    lifted_point, lifted_trace = solve_nfold(inst)
    assert len(lifts) == 1
    point, trace = solve_nfold(inst, direct_threshold=26)
    assert len(lifts) == 1
    assert lifted_point == point
    assert lifted_trace == trace
    assert len(trace) > 0


def _layout_case(rng, m):
    """A random N-fold (m = 0) or two-stage instance of the block layout
    with its plain-list data."""
    n, N = rng.randint(1, 3), rng.randint(1, 4)
    coupling = rng.randint(0, 2) if m == 0 else 0
    block_rows = rng.randint(0, 2)

    def rows(k, w, lo=-2, hi=2):
        return [[rng.randint(lo, hi) for _ in range(w)] for _ in range(k)]

    T, A, B = rows(block_rows, m), rows(block_rows, n), rows(coupling, n)
    rhs0 = [rng.randint(-3, 3) for _ in range(coupling)]
    rhs = rows(N, block_rows)
    ux, uy = [rng.randint(0, 3) for _ in range(m)], rows(N, n, 0, 3)
    if rng.random() < 0.2:
        (uy[rng.randrange(N)] if rng.random() < 0.5 or not m else ux)[0] = -1
    shared = rows(rng.randint(1, 2), m + n) if rng.random() < 0.6 else []
    objs = [(rows(1, m + n, -3, 3)[0], [(r, AbsPower(1, 2)) for r in shared]) for _ in range(N)]
    mats = [Mat(x, cols=w) for x, w in ((T, m), (A, n), (B, n))]
    composites = tuple(CompositeObjective(tuple(c), tuple((tuple(r), f) for r, f in rs)) for c, rs in objs)
    if m == 0:
        inst = NFoldInstance(mats[1], mats[2], N, rhs0, rhs, uy, composites)
        built = build_nfold_matrix(mats[1], mats[2], N)
    else:
        inst = TwoStageInstance(mats[0], mats[1], N, rhs, ux, uy, composites)
        built = build_twostage_matrix(mats[0], mats[1], N)
    return inst, built, (T, A, B, rhs0, rhs, ux, uy, objs, n, N)


def test_block_layout_matches_plain_list_oracle():
    # Both block kinds share one layout: matrix, box, flat objective and
    # point split must equal a plain-list construction entry for entry.
    rng = random.Random(57)
    seen = {"box": 0, "empty box": 0, "rows": 0, "coupling": 0, "two-stage": 0}
    for trial in range(150):
        m = trial % 3
        inst, built, (T, A, B, rhs0, rhs, ux, uy, objs, n, N) = _layout_case(rng, m)
        dim = m + N * n
        want = layout_matrix(T if m else [[]] * len(A), A, B, m, n, N)
        for M in (built, inst.matrix()):
            assert (M.to_lists(), M.cols) == (want, dim)
        box = layout_box(rhs0, rhs, ux, uy)
        if box is None:
            with pytest.raises(Infeasible, match="an upper bound is negative: the box is empty"):
                inst.box()
            seen["empty box"] += 1
        else:
            got = inst.box()
            assert (got.A.to_lists(), list(got.b), list(got.lower), list(got.upper)) == (want,) + box
            seen["box"] += 1
        c, rows = layout_objective(objs, m, n)
        flat = inst.flatten_objective()
        assert list(flat.c) == c
        assert [list(r) for r, _ in flat.rows] == [r for r, _ in rows]
        assert all(f is g for (_, f), (_, g) in zip(flat.rows, rows))
        z = tuple(rng.randint(-5, 5) for _ in range(dim))
        blocks = [z[m + i * n : m + (i + 1) * n] for i in range(N)]
        if m == 0:
            v = BlockVector.from_flat(z, N, n)
            assert list(v.blocks) == blocks and v.flatten() == z
        else:
            p = TwoStagePoint.from_flat(z, m, N, n)
            assert (p.x, list(p.ys)) == (z[:m], blocks) and p.flatten() == z
        seen["rows"] += bool(rows)
        seen["coupling"] += len(B) > 0
        seen["two-stage"] += m > 0
    assert min(seen.values()) > 15, seen


def test_brick_group_completion_matches_plain():
    # The brick swaps of the layout map the kernel of an N-fold matrix
    # onto itself; completing under them gives the plain test set from
    # a pool closed under them and negation.
    rng = random.Random(19)
    for _ in range(20):
        n, N = rng.randint(2, 3), rng.randint(2, 4)
        A = Mat((tuple(rng.randint(-1, 2) for _ in range(n)),))
        B = Mat(tuple(tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(1, 2))))
        M = build_nfold_matrix(A, B, N)
        group = nfold._layout_group(0, N, n)
        assert group == block_swaps(0, n, N)
        assert graver(M, group).elements == graver(M).elements, (A.data, B.data, N)
        assert orbit_closed(kernels.complete(kernel_basis(M), group), group), (A.data, B.data, N)
