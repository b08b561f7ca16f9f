import itertools
import random
from math import inf

import pytest
from _oracles import assert_step_bound, orbit_closed

from graveropt.bruteforce import enumerate_feasible
from graveropt.errors import (
    BalanceMismatch,
    DimMismatch,
    DomainError,
    Infeasible,
    InconsistentMargins,
)
from graveropt.graver import graver
from graveropt.kernels import complete
from graveropt.linalg import kernel_basis
from graveropt.models import (
    DecodeResult,
    DecodingSpec,
    MarginSpec,
    build_3way_linesum,
    build_hierarchical,
    build_transportation,
    decode,
    encode,
    linf_q,
    lp_objective,
    margin_tuples,
)
from graveropt.nfold import _layout_group, build_nfold_matrix
from graveropt.objective import AbsPower, CompositeObjective, ZeroFn, evaluate


def test_transportation_fields():
    inst = build_transportation((3, 3), (2, 2, 2), 3)
    assert inst.A.to_lists() == [[1, 1]]
    assert inst.B.to_lists() == [[1, 0], [0, 1]]
    assert inst.N == 3
    assert inst.b0 == (3, 3)
    assert inst.b == ((2,), (2,), (2,))
    assert inst.upper == ((3, 3),) * 3
    for f in inst.objective:
        assert isinstance(f, CompositeObjective) and f.s == 0


def test_transportation_bijection():
    supplies, demands, cap = (2, 1), (1, 2), 2
    inst = build_transportation(supplies, demands, cap)
    got = {z for z in enumerate_feasible(inst.box())}
    want = set()
    for grid in itertools.product(range(cap + 1), repeat=4):
        x = (grid[:2], grid[2:])  # x[k][i]: supplier i -> customer k
        if all(sum(x[k]) == demands[k] for k in range(2)) and all(
            sum(x[k][i] for k in range(2)) == supplies[i] for i in range(2)
        ):
            want.add(grid)
    assert want
    assert got == want


def test_transportation_validation():
    with pytest.raises(BalanceMismatch):
        build_transportation((3,), (2, 2), 2)
    with pytest.raises(DomainError):
        build_transportation((3, -1), (1, 1), 2)
    with pytest.raises(DomainError):
        build_transportation((), (0,), 2)


def test_3way_fields_and_bijection():
    # margins of a concrete 2 x 2 x 2 array, then recover all arrays
    base = (((1, 0), (0, 1)), ((0, 1), (1, 1)))
    L = M = N = 2
    r = tuple(
        tuple(sum(base[i][j][k] for i in range(L)) for k in range(N)) for j in range(M)
    )
    s = tuple(
        tuple(sum(base[i][j][k] for j in range(M)) for k in range(N)) for i in range(L)
    )
    t = tuple(
        tuple(sum(base[i][j][k] for k in range(N)) for j in range(M)) for i in range(L)
    )
    inst = build_3way_linesum(L, M, N, r, s, t, 1)
    assert inst.A.to_lists() == [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    assert inst.B.to_lists() == [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    got = set(enumerate_feasible(inst.box()))
    want = set()
    for grid in itertools.product(range(2), repeat=8):
        arr = lambda i, j, k: grid[k * 4 + i * 2 + j]
        ok = all(
            sum(arr(i, j, k) for i in range(L)) == r[j][k]
            for j in range(M)
            for k in range(N)
        )
        ok = ok and all(
            sum(arr(i, j, k) for j in range(M)) == s[i][k]
            for i in range(L)
            for k in range(N)
        )
        ok = ok and all(
            sum(arr(i, j, k) for k in range(N)) == t[i][j]
            for i in range(L)
            for j in range(M)
        )
        if ok:
            want.add(grid)
    flat_base = tuple(
        base[i][j][k] for k in range(N) for i in range(L) for j in range(M)
    )
    assert flat_base in want
    assert got == want


def test_3way_zero_margins_single_point():
    zero2 = ((0, 0), (0, 0))
    inst = build_3way_linesum(2, 2, 2, zero2, zero2, zero2, 3)
    assert list(enumerate_feasible(inst.box())) == [(0,) * 8]


def test_3way_inconsistent_margins():
    with pytest.raises(InconsistentMargins):
        build_3way_linesum(2, 2, 1, ((1,), (0,)), ((1,), (1,)), ((1, 0), (0, 1)), 2)


def test_hierarchical_matches_3way():
    base = (((1, 0), (0, 1)), ((0, 1), (1, 1)))
    L = M = N = 2
    values = {}
    for j in range(M):
        for k in range(N):
            values[("+", j + 1, k + 1)] = sum(base[i][j][k] for i in range(L))
    for i in range(L):
        for k in range(N):
            values[(i + 1, "+", k + 1)] = sum(base[i][j][k] for j in range(M))
    for i in range(L):
        for j in range(M):
            values[(i + 1, j + 1, "+")] = sum(base[i][j][k] for k in range(N))
    spec = MarginSpec((2, 2, 2), ((1, 3), (2, 3), (1, 2)), values, 1)
    hier = build_hierarchical(spec)
    r = tuple(tuple(values[("+", j + 1, k + 1)] for k in range(N)) for j in range(M))
    s = tuple(tuple(values[(i + 1, "+", k + 1)] for k in range(N)) for i in range(L))
    t = tuple(tuple(values[(i + 1, j + 1, "+")] for j in range(M)) for i in range(L))
    line = build_3way_linesum(L, M, N, r, s, t, 1)
    assert hier.A.to_lists() == line.A.to_lists()
    assert hier.B.to_lists() == line.B.to_lists()
    assert (hier.b0, hier.b, hier.upper, hier.N) == (line.b0, line.b, line.upper, line.N)


def test_hierarchical_full_support_pins_cells():
    vals = {}
    cells = {}
    for i, j, k in itertools.product((1, 2), (1, 2), (1, 2)):
        v = (i + j + k) % 2
        vals[(i, j, k)] = v
        cells[(i, j, k)] = v
    spec = MarginSpec((2, 2, 2), ((1, 2, 3),), vals, 1)
    inst = build_hierarchical(spec)
    pts = list(enumerate_feasible(inst.box()))
    assert len(pts) == 1
    flat = pts[0]
    # blocks follow the last axis; cells row-major over the first two
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert flat[k * 4 + i * 2 + j] == cells[(i + 1, j + 1, k + 1)]


def test_hierarchical_detects_inconsistency():
    values = {
        (1, "+"): 2,
        (2, "+"): 1,
        ("+", 1): 1,
        ("+", 2): 1,
    }
    spec = MarginSpec((2, 2), ((1,), (2,)), values, 3)
    with pytest.raises(InconsistentMargins):
        build_hierarchical(spec)


def _random_spec(rng, dims, family):
    """MarginSpec of family whose values are the margins of a random
    table of the given dims, so they are consistent."""
    cells = {c: rng.randint(0, 2) for c in itertools.product(*(range(1, m + 1) for m in dims))}
    values = {
        t: sum(v for c, v in cells.items() if all(a in ("+", i) for a, i in zip(t, c)))
        for H in family
        for t in margin_tuples(dims, H)
    }
    return MarginSpec(dims, family, values, 2)


def test_table_symmetries_permute_the_margins_and_keep_every_test_set():
    # Transportation of 2-4 suppliers, line sums of L x M layers with
    # L = M and L != M, the 3x3 layer of the decode lowering, and a
    # family that an axis swap does not fix.  Each derived permutation
    # permutes the rows of A and of B; at every N, completion under the
    # brick swaps plus these symmetries gives the plain test set, from a
    # pool closed under that group.  The 3x3 layer stops at N = 2: its
    # N = 3 set is the line-sum count test of test_kernels.
    rng = random.Random(22)
    cases = [((k, 3), ((1,), (2,)), k - 1) for k in (rng.randint(2, 4) for _ in range(3))]
    for L, M in ((2, 2), (1, 3), (2, 3), (3, 2), (3, 3)):
        cases.append(((L, M, 3), ((1, 3), (2, 3), (1, 2)), L + M - 2 + (L == M)))
    cases.append(((2, 2, 3), ((1, 3), (1, 2)), 2))
    for dims, family, count in cases:
        inst = build_hierarchical(_random_spec(rng, dims, family))
        assert len(inst.symmetries) == count, (dims, family)
        for p in inst.symmetries:
            for M in (inst.A, inst.B):
                assert sorted(tuple(r[j] for j in p) for r in M.data) == sorted(M.data)
        for N in (1, 2) if dims[:2] == (3, 3) else (1, 2, 3):
            M = build_nfold_matrix(inst.A, inst.B, N)
            group = _layout_group(0, N, inst.n, inst.symmetries)
            assert graver(M, group).elements == graver(M).elements, (dims, N)
            assert orbit_closed(complete(kernel_basis(M), group), group)


def test_margin_spec_validation():
    with pytest.raises(DomainError):
        MarginSpec((2, 2), (), {}, 1)
    with pytest.raises(DomainError):
        MarginSpec((2, 2), ((3,),), {}, 1)
    with pytest.raises(DomainError):
        MarginSpec((2, 2), ((1,),), {(1, "+"): 1}, 1)  # (2,'+') missing
    with pytest.raises(DomainError):
        MarginSpec((2, 2), ((1,),), {(1, "+"): 1, (2, "+"): -1}, 1)
    spec = MarginSpec((2, 3), ((1,),), {(1, "+"): 1, (2, "+"): 0}, ((1, 1, 1), (2, 2, 2)))
    assert spec.bound_at((1, 2)) == 2


def test_margin_tuples_shape():
    got = margin_tuples((4, 5, 3, 2), (3, 1))
    assert len(got) == 12
    assert got[0] == (1, "+", 1, "+")
    assert got[-1] == (4, "+", 3, "+")
    sup = {tuple(i + 1 for i, v in enumerate(t) if v != "+") for t in got}
    assert sup == {(1, 3)}
    with pytest.raises(DomainError):
        margin_tuples((2, 2), (0,))


def test_lp_objective_values():
    f1 = lp_objective((1, 2), 1)
    assert evaluate(f1, (0, 3)) == 2
    f2 = lp_objective((1, 1), 2)
    assert evaluate(f2, (0, 3)) == 5
    assert len(f2.rows) == 2


def test_lp_objective_partial_support():
    f = lp_objective((None, 3), 2)
    assert evaluate(f, (5, 1)) == 4
    assert evaluate(f, (0, 3)) == 0
    # unit rows are kept on every coordinate so block instances share rows
    assert [r for r, _ in f.rows] == [(1, 0), (0, 1)]
    assert isinstance(f.rows[0][1], ZeroFn)
    assert isinstance(f.rows[1][1], AbsPower)
    g = lp_objective((4, 3), 1, I=(1,))
    assert evaluate(g, (0, 0)) == 3


def test_lp_objective_validation():
    with pytest.raises(DomainError):
        lp_objective((1, 2), 1, I=(2,))
    with pytest.raises(DomainError):
        lp_objective((None, 2), 1, I=(0, 1))


def test_linf_q_values():
    assert linf_q(1, 1) == 1
    assert linf_q(6, 1) == 5
    assert linf_q(4, 2) == 7
    assert linf_q(27, 2) == 15
    with pytest.raises(DomainError):
        linf_q(0, 1)
    with pytest.raises(DomainError):
        linf_q(3, 0)


def test_encode_single_cell():
    assert encode((((1,),),), 1, 2) == (((1, 1), (1, 1)), ((1, 1), (1, 1)))


def test_encode_line_sums():
    word = encode((((1, 0), (0, 1)), ((0, 1), (1, 0))), 1, 2)
    m = 3
    for i in range(m):
        for j in range(m):
            assert sum(word[i][j][k] for k in range(m)) == 2
            assert sum(word[i][k][j] for k in range(m)) == 2
            assert sum(word[k][i][j] for k in range(m)) == 2


def test_encode_infeasible():
    zeros = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    with pytest.raises(Infeasible):
        encode(zeros, 1, 2)


def test_encode_validation():
    with pytest.raises(DomainError):
        encode((), 1, 2)
    with pytest.raises(DomainError):
        encode((((2,),),), 1, 2)
    with pytest.raises(DimMismatch):
        encode((((1, 0),),), 1, 2)


ONES = (((1, 1), (1, 1)), ((1, 1), (1, 1)))


def corrupt(word, i, j, k, v):
    g = [[list(r) for r in p] for p in word]
    g[i][j][k] = v
    return tuple(tuple(tuple(r) for r in p) for p in g)


def test_decode_clean_word():
    res = decode(DecodingSpec((1, 1, 1), 1, 2, ONES, 1))
    assert isinstance(res, DecodeResult)
    msg, dist = res
    assert (msg, dist) == ((((1,),),), 0)
    assert res.q is None
    assert res.transmitted == ONES


def test_decode_single_corruption():
    res = decode(DecodingSpec((1, 1, 1), 1, 2, corrupt(ONES, 0, 0, 0, 0), 1))
    assert res.message == (((1,),),)
    assert res.distance == 1
    assert res.transmitted == ONES


def test_decode_max_distance():
    res = decode(DecodingSpec((1, 1, 1), 1, 2, corrupt(ONES, 0, 0, 0, 0), inf))
    assert res.message == (((1,),),)
    assert res.distance == 1
    assert res.q == linf_q(8, 2) == 10


def test_decode_restricted_coordinates():
    received = corrupt(ONES, 0, 0, 0, 0)
    I = tuple(
        c for c in itertools.product(range(2), range(2), range(2)) if c != (0, 0, 0)
    )
    res = decode(DecodingSpec((1, 1, 1), 1, 2, received, 1, I=I))
    assert res.distance == 0
    assert res.transmitted == ONES


def test_decoding_spec_validation():
    with pytest.raises(DomainError):
        DecodingSpec((1, 2, 1), 1, 2, ONES, 1)
    with pytest.raises(DomainError):
        DecodingSpec((1, 1), 1, 2, ONES, 1)
    with pytest.raises(DomainError):
        DecodingSpec((1, 1, 1), 1, 0, ONES, 1)
    with pytest.raises(DimMismatch):
        DecodingSpec((1, 1, 1), 1, 2, (((1, 1), (1, 1)),), 1)
    with pytest.raises(DomainError):
        DecodingSpec((1, 1, 1), 1, 2, corrupt(ONES, 0, 0, 0, 3), 1)
    with pytest.raises(DomainError):
        DecodingSpec((1, 1, 1), 1, 2, ONES, 0)
    with pytest.raises(DomainError):
        DecodingSpec((1, 1, 1), 1, 2, ONES, 1, I=((0, 0, 9),))
    spec = DecodingSpec((1, 1, 1), 1, 2, ONES, inf)
    assert spec.side == 1
    assert len(spec.coordinates()) == 8
    with pytest.raises(DomainError):
        decode("not a spec")


def test_decodes_of_the_222_code_meet_the_step_bound():
    # The decode walk's optimum is the least objective value over the
    # code: encode of every message that has a codeword.
    code = []
    for bits in itertools.product((0, 1), repeat=8):
        msg = tuple(tuple(bits[4 * i + 2 * j : 4 * i + 2 * j + 2] for j in range(2)) for i in range(2))
        try:
            code.append(encode(msg, 1, 2))
        except Infeasible:
            pass
    assert len(code) == 68
    rng = random.Random(2026)
    cells = list(itertools.product(range(3), repeat=3))
    for trial in range(8):
        received = rng.choice(code)
        for i, j, k in rng.sample(cells, 1 + trial % 2):
            v = rng.choice([v for v in range(3) if v != received[i][j][k]])
            received = corrupt(received, i, j, k, v)
        for p in (1, 2, inf):
            res = decode(DecodingSpec((2, 2, 2), 1, 2, received, p))
            e = p if res.q is None else res.q

            def value(w):
                return sum(abs(w[i][j][k] - received[i][j][k]) ** e for i, j, k in cells)

            opt = min(map(value, code))
            assert value(res.transmitted) == opt
            assert_step_bound(res.trace, opt)
