"""Backend parity: the compiled kernels must agree with the pure twin."""

import hashlib
import importlib
import os
import random
import subprocess
import sys

import pytest

from graveropt import _kernels_py, kernels
from graveropt._kernels_py import l1
from graveropt.errors import DomainError
from graveropt.graver import graver
from graveropt.linalg import Mat, kernel_basis
from graveropt.nfold import _layout_group, build_nfold_matrix

from _oracles import orbit_closed, pottier_reference

cython_missing = "cython" not in kernels.available()


def _random_matrix(rng, n_max=4, m_max=2, n_min=2):
    m = rng.randint(1, m_max)
    n = rng.randint(n_min, n_max)
    return Mat(tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m)))


def _basis_via(backend_name, A):
    old = kernels.active
    try:
        mod = kernels.use(backend_name)
        gens = kernel_basis(A)
        pool = mod.complete(gens)
        return sorted(mod.minimal_elements(pool))
    finally:
        kernels.active = old


def test_available_contains_python():
    assert "python" in kernels.available()


def test_use_rejects_unknown():
    with pytest.raises(ValueError):
        kernels.use("fortran")


def test_use_switches_backend():
    old = kernels.active
    try:
        mod = kernels.use("python")
        assert mod.BACKEND == "python"
        assert kernels.backend_name() == "python"
    finally:
        kernels.active = old


@pytest.mark.skipif(cython_missing, reason="compiled backend not built")
def test_backends_agree_on_random_matrices():
    rng = random.Random(12)
    for _ in range(30):
        A = _random_matrix(rng)
        assert _basis_via("python", A) == _basis_via("cython", A), A.data


@pytest.mark.skipif(cython_missing, reason="compiled backend not built")
def test_backends_scalar_parity():
    from graveropt import _kernels_py, _speedups

    rng = random.Random(13)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 6)
        cases.append(
            (
                tuple(rng.randint(-5, 5) for _ in range(n)),
                tuple(rng.randint(-5, 5) for _ in range(n)),
            )
        )
    # values past int64 must take the overflow path and still agree
    big = 2**63
    cases.append(((big, -big), (big + 7, -big - 9)))
    cases.append(((-(2**40), 2**41), (2**90, -(2**91))))
    for u, v in cases:
        assert _speedups.sign_compatible(u, v) == _kernels_py.sign_compatible(u, v)
        assert _speedups.conforms(u, v) == _kernels_py.conforms(u, v)
        assert _speedups.vec_add(u, v) == _kernels_py.vec_add(u, v)
        assert _speedups.vec_sub(u, v) == _kernels_py.vec_sub(u, v)
        assert _speedups.vec_neg(u) == _kernels_py.vec_neg(u)
        assert _speedups.is_zero(u) == _kernels_py.is_zero(u)
        assert _speedups.l1(u) == _kernels_py.l1(u)
        assert _speedups.conformal_multiple(u, v) == _kernels_py.conformal_multiple(u, v)


@pytest.mark.skipif(cython_missing, reason="compiled backend not built")
def test_completion_survives_huge_seed_entries():
    from graveropt import _speedups, _kernels_py

    # forces the completion out of the int64 fast path mid-run
    gens = ((2**62, -(2**62), 0), (0, 2**62, -(2**62)))
    a = sorted(_speedups.minimal_elements(_speedups.complete(gens)))
    b = sorted(_kernels_py.minimal_elements(_kernels_py.complete(gens)))
    assert a == b


def test_pure_completion_matches_textbook_pottier():
    rng = random.Random(18)
    for _ in range(100):
        A = _random_matrix(rng, n_max=6, m_max=3, n_min=3)
        gens = kernel_basis(A)
        pool = _kernels_py.complete(gens)
        assert len(set(pool)) == len(pool), A.data
        assert {_kernels_py.vec_neg(v) for v in pool} == set(pool), A.data
        assert sorted(_kernels_py.minimal_elements(pool)) == pottier_reference(gens), A.data


def test_completion_forms_one_sum_per_mirror_pair(monkeypatch):
    # 3x3 line sums at N = 2, the small line-sum case of
    # benchmarks/bench_kernels.py.  Every pair sum is formed as
    # map(_add, u, v); record the pairs through the module's map and
    # check that no pair is formed along with its mirror (-u, -v).
    formed = []

    def recording_map(f, *args):
        if f is _kernels_py._add:
            formed.append(frozenset(args))
        return map(f, *args)

    monkeypatch.setattr(_kernels_py, "map", recording_map, raising=False)
    rows = [tuple(int(j // 3 == i) for j in range(9)) for i in range(3)]
    rows += [tuple(int(k % 3 == j) for k in range(9)) for j in range(3)]
    A = build_nfold_matrix(Mat(tuple(rows)), Mat.identity(9), 2)
    pool = _kernels_py.complete(kernel_basis(A))
    assert len(_kernels_py.minimal_elements(pool)) == 30
    assert len(formed) > 100
    once = set(formed)
    assert len(once) == len(formed)
    for pair in formed:
        assert frozenset(map(_kernels_py.vec_neg, pair)) not in once, sorted(pair)


def _line_sums(N):
    # 3x3 line sums as the N-fold pair (A, I): at N = 3 the 3x3x3
    # line-sum matrix of the decode lowering
    rows = [tuple(int(j // 3 == i) for j in range(9)) for i in range(3)]
    rows += [tuple(int(k % 3 == j) for k in range(9)) for j in range(3)]
    return build_nfold_matrix(Mat(tuple(rows)), Mat.identity(9), N)


def test_brick_group_completion_of_the_line_sum_code(monkeypatch):
    # Every pair sum is formed as map(_add, u, v); count them through
    # the module's map, for plain completion and for graver under the
    # brick swaps, which runs the pure kernel on either backend.
    counts = []

    def counting_map(f, *args):
        if f is _kernels_py._add:
            counts[-1] += 1
        return map(f, *args)

    monkeypatch.setattr(_kernels_py, "map", counting_map, raising=False)
    A = _line_sums(3)
    counts.append(0)
    plain = _kernels_py.minimal_elements(_kernels_py.complete(kernel_basis(A)))
    counts.append(0)
    G = graver(A, _layout_group(0, 3, 9))
    assert G.elements == tuple(sorted(plain))
    assert len(G) == 1590
    assert hashlib.sha1(repr(G.elements).encode()).hexdigest() == "389d3f588f59b41ac076c4a60704c51a5dde17ef"
    assert 0 < 4 * counts[1] < counts[0], counts


def test_graver_rejects_a_permutation_that_is_no_symmetry():
    A = Mat(((1, 2, 3),))
    with pytest.raises(DomainError):
        graver(A, ((1, 0, 2),))
    with pytest.raises(DomainError):
        graver(A, ((0, 0, 1),))
    with pytest.raises(DomainError):
        graver(A, ((0, 1),))
    # the swap of the two columns with equal entries is one
    B = Mat(((1, 1, 3),))
    assert graver(B, ((1, 0, 2),)) == graver(B)


def test_grouped_completion_under_equal_column_cycles():
    # Cycling columns that are equal maps the kernel onto itself.  Unlike
    # the block swaps of the N-fold and two-stage tests, these groups
    # give test sets that need the pairs of an orbit representative with
    # its own images.
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        cols, runs = [], []
        for _ in range(rng.randint(2, 3)):
            col = tuple(rng.randint(-2, 2) for _ in range(2))
            k = rng.randint(1, 3)
            if k > 1:
                runs.append(list(range(len(cols), len(cols) + k)))
            cols += [col] * k
        if not runs:
            continue
        # one generator per run of equal columns: the cycle over the run
        perms = []
        for run in runs:
            p = list(range(len(cols)))
            for a, b in zip(run, run[1:] + run[:1]):
                p[a] = b
            perms.append(tuple(p))
        perms = tuple(perms)
        A = Mat(tuple(tuple(c[i] for c in cols) for i in range(2)))
        gens = kernel_basis(A)
        pool = _kernels_py.complete(gens, perms)
        assert orbit_closed(pool, perms), (A.data, perms)
        plain = _kernels_py.minimal_elements(_kernels_py.complete(gens))
        assert _kernels_py.minimal_elements(pool) == plain, (A.data, perms)
        checked += 1


def test_minimal_elements_drops_conformal_sums():
    pool = [(1, -1), (-1, 1), (2, -2)]
    assert sorted(kernels.active.minimal_elements(pool)) == [(-1, 1), (1, -1)]


def test_l1():
    assert l1((3, -4, 0)) == 7
    assert l1(()) == 0


def test_pure_env_var_disables_extension():
    code = (
        "from graveropt import kernels;"
        "print(kernels.backend_name(), sorted(kernels.available()))"
    )
    env = dict(os.environ, GRAVER_OPT_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split()[0] == "python"
    assert "cython" not in out.stdout
