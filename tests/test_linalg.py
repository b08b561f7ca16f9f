import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt.augment import FeasibleBox
from graveropt.bruteforce import first_feasible
from graveropt.errors import DimMismatch, ZeroVector
from graveropt.linalg import (
    Mat,
    dot,
    integer_solution,
    is_primitive,
    kernel_basis,
    primitive_part,
    rank,
    sign_compatible,
    support,
)

EX_A = Mat((
    (2, 1, 0, 1, 0, 0),
    (1, 2, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 1),
))


def solve_rational(basis, target):
    """Coefficients writing target as a rational combination of basis
    vectors, or None.  Plain Gaussian elimination over Fraction."""
    if not basis:
        return None
    n = len(target)
    k = len(basis)
    rows = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    piv = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        f = rows[r][c]
        rows[r] = [x / f for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                g = rows[i][c]
                rows[i] = [a - g * b for a, b in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    for i in range(r, n):
        if rows[i][k]:
            return None
    coeff = [Fraction(0)] * k
    for i, c in enumerate(piv):
        coeff[c] = rows[i][k]
    return coeff


def test_mat_shape_and_ops():
    A = Mat(((1, 2), (3, 4)))
    assert (A.rows, A.cols) == (2, 2)
    assert A.mul_vec((1, 1)) == (3, 7)
    assert Mat.identity(3).mul_vec((5, 6, 7)) == (5, 6, 7)
    assert Mat.zeros(2, 3).mul_vec((1, 1, 1)) == (0, 0)
    H = Mat.hstack(A, Mat.identity(2))
    assert (H.rows, H.cols) == (2, 4)
    V = Mat.vstack(A, Mat.zeros(1, 2))
    assert V.rows == 3
    assert A.to_lists() == [[1, 2], [3, 4]]


def test_mat_rejects_ragged_rows():
    with pytest.raises(DimMismatch):
        Mat(((1, 2), (3,)))


def test_dot_support():
    assert dot((1, 2, 3), (1, 0, -1)) == -2
    assert support((0, 3, 0, -1)) == frozenset({1, 3})


def test_kernel_basis_one_dim():
    basis = kernel_basis(Mat(((1, 1),)))
    assert len(basis) == 1
    v = basis[0]
    assert v in ((1, -1), (-1, 1))


def test_kernel_basis_full_rank_empty():
    assert kernel_basis(Mat(((1, 0), (0, 1)))) == ()


def test_kernel_basis_example_matrix():
    basis = kernel_basis(EX_A)
    assert len(basis) == 3
    for v in basis:
        assert EX_A.mul_vec(v) == (0, 0, 0)


def test_kernel_basis_saturation_random():
    # every small integer kernel point must be an *integer* combination
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(1, 2)
        n = rng.randint(2, 4)
        A = Mat(tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)))
        basis = kernel_basis(A)
        pts = []

        def scan(prefix):
            if len(prefix) == n:
                pts.append(tuple(prefix))
                return
            for x in range(-3, 4):
                scan(prefix + [x])

        scan([])
        for z in pts:
            if any(z) and A.mul_vec(z) == (0,) * m:
                coeff = solve_rational(basis, z)
                assert coeff is not None, (A.data, z)
                assert all(c.denominator == 1 for c in coeff), (A.data, z, coeff)


def test_rank():
    assert rank(Mat(((1, 2), (2, 4)))) == 1
    assert rank(EX_A) == 3
    assert rank(Mat(((0, 0),))) == 0


def test_is_primitive():
    assert is_primitive((2, -1, 0))
    assert not is_primitive((2, -2, 4))
    assert is_primitive((1, 0, 0, -2, -1, 0))


def test_is_primitive_zero_rejected():
    with pytest.raises(ZeroVector):
        is_primitive((0, 0, 0))


def test_primitive_part():
    assert primitive_part((2, -2, 4)) == (1, -1, 2)
    assert primitive_part((3, 0)) == (1, 0)
    with pytest.raises(ZeroVector):
        primitive_part((0,))


def test_sign_compatible():
    assert sign_compatible((1, -1, 0), (2, 0, 0))
    assert not sign_compatible((1, -1), (1, 1))
    # zeros belong to every closed orthant, so these two do share one
    assert sign_compatible((1, -2, 0, 0, 3, 0), (2, -1, 0, -3, 0, 0))
    assert not sign_compatible((1, -2, 0, 1, 3, 0), (2, -1, 0, -3, 0, 0))


def test_sign_compatible_dim_mismatch():
    with pytest.raises(DimMismatch):
        sign_compatible((1, 2), (1, 2, 3))


def test_sign_compatible_symmetric_reflexive():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        b = tuple(rng.randint(-2, 2) for _ in range(n))
        assert sign_compatible(a, b) == sign_compatible(b, a)
        nonneg = tuple(abs(x) for x in a)
        assert sign_compatible(nonneg, nonneg)


@st.composite
def _systems(draw):
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(0, 4))
    A = Mat(
        tuple(tuple(draw(st.integers(-3, 3)) for _ in range(cols)) for _ in range(rows)),
        cols=cols,
    )
    if draw(st.booleans()):
        b = A.mul_vec(tuple(draw(st.integers(-2, 2)) for _ in range(cols)))
    else:
        b = tuple(draw(st.integers(-6, 6)) for _ in range(rows))
    return A, b


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_integer_solution_matches_bruteforce(case):
    A, b = case
    z = integer_solution(A, b)
    if z is not None:
        assert A.mul_vec(z) == b
    box = FeasibleBox(A, b, (-3,) * A.cols, (3,) * A.cols)
    if first_feasible(box) is not None:
        assert z is not None


def test_integer_solution_none_without_integer_point():
    # 2 z = 1 has a rational solution but no integer one
    assert integer_solution(Mat(((2,),)), (1,)) is None
    assert integer_solution(Mat(((2,),)), (4,)) == (2,)
    # no columns: only b = 0 is reachable
    assert integer_solution(Mat(((),)), (1,)) is None
    assert first_feasible(FeasibleBox(Mat(((),)), (1,), (), ())) is None
    with pytest.raises(DimMismatch):
        integer_solution(Mat(((2,),)), (1, 1))
