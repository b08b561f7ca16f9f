"""The completion kernels: pair queueing, orbits, reducers and filters."""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from graveropt import kernels
from graveropt.errors import DomainError
from graveropt.graver import graver
from graveropt.linalg import Mat, kernel_basis
from graveropt.models import build_3way_linesum
from graveropt.nfold import _layout_group, build_nfold_matrix

from _oracles import orbit_closed, pottier_reference


def _random_matrix(rng, n_max=4, m_max=2, n_min=2):
    m = rng.randint(1, m_max)
    n = rng.randint(n_min, n_max)
    return Mat(tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m)))


def test_available_contains_python():
    # the pure kernel is the only backend; graverbench records its name
    assert kernels.BACKEND == "python"
    assert kernels.backend_name() == "python"


def test_use_switches_backend():
    # graverbench resolves its kernel spans through kernels.active
    assert kernels.active is kernels
    assert kernels.active.complete is kernels.complete
    assert kernels.active.minimal_elements is kernels.minimal_elements


def test_pure_env_var_disables_extension():
    # without GRAVER_OPT_PURE, a fresh process still completes on the
    # pure kernel and loads no compiled extension
    code = (
        "import sys;"
        "from graveropt import kernels;"
        "from graveropt.graver import graver;"
        "from graveropt.linalg import Mat;"
        "graver(Mat(((1, 1, 1),)));"
        "print(kernels.backend_name(), 'graveropt._speedups' in sys.modules)"
    )
    env = {k: v for k, v in os.environ.items() if k != "GRAVER_OPT_PURE"}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["python", "False"]


def test_completion_survives_huge_seed_entries():
    # entries far past any machine word stay exact
    gens = ((2**62, -(2**62), 0), (0, 2**62, -(2**62)))
    got = sorted(kernels.minimal_elements(kernels.complete(gens)))
    assert got == pottier_reference(gens)
    assert len(got) == 6


def test_pure_completion_matches_textbook_pottier():
    rng = random.Random(18)
    for _ in range(100):
        A = _random_matrix(rng, n_max=6, m_max=3, n_min=3)
        gens = kernel_basis(A)
        pool = kernels.complete(gens)
        assert len(set(pool)) == len(pool), A.data
        assert {kernels.vec_neg(v) for v in pool} == set(pool), A.data
        assert sorted(kernels.minimal_elements(pool)) == pottier_reference(gens), A.data


def test_completion_forms_one_sum_per_mirror_pair(monkeypatch):
    # 3x3 line sums at N = 2, the small line-sum case of
    # benchmarks/bench_kernels.py.  Every pair sum is formed as
    # map(_add, u, v); record the pairs through the module's map and
    # check that no pair is formed along with its mirror (-u, -v).
    formed = []

    def recording_map(f, *args):
        if f is kernels._add:
            formed.append(frozenset(args))
        return map(f, *args)

    monkeypatch.setattr(kernels, "map", recording_map, raising=False)
    rows = [tuple(int(j // 3 == i) for j in range(9)) for i in range(3)]
    rows += [tuple(int(k % 3 == j) for k in range(9)) for j in range(3)]
    A = build_nfold_matrix(Mat(tuple(rows)), Mat.identity(9), 2)
    pool = kernels.complete(kernel_basis(A))
    assert len(kernels.minimal_elements(pool)) == 30
    assert len(formed) > 100
    once = set(formed)
    assert len(once) == len(formed)
    for pair in formed:
        assert frozenset(map(kernels.vec_neg, pair)) not in once, sorted(pair)


def _line_sums(N):
    # 3x3 line sums as the N-fold pair (A, I): at N = 3 the 3x3x3
    # line-sum matrix of the decode lowering
    rows = [tuple(int(j // 3 == i) for j in range(9)) for i in range(3)]
    rows += [tuple(int(k % 3 == j) for k in range(9)) for j in range(3)]
    return build_nfold_matrix(Mat(tuple(rows)), Mat.identity(9), N)


def test_brick_group_completion_of_the_line_sum_code(monkeypatch):
    # Every pair sum is formed as map(_add, u, v); count them through
    # the module's map, for plain completion, for graver under the
    # brick swaps, and under the brick swaps plus the table symmetries
    # that the line-sum builder derives for a 3x3 layer.
    counts = []

    def counting_map(f, *args):
        if f is kernels._add:
            counts[-1] += 1
        return map(f, *args)

    monkeypatch.setattr(kernels, "map", counting_map, raising=False)
    A = _line_sums(3)
    counts.append(0)
    plain = kernels.minimal_elements(kernels.complete(kernel_basis(A)))
    counts.append(0)
    G = graver(A, _layout_group(0, 3, 9))
    assert G.elements == tuple(sorted(plain))
    assert len(G) == 1590
    assert hashlib.sha1(repr(G.elements).encode()).hexdigest() == "389d3f588f59b41ac076c4a60704c51a5dde17ef"
    assert 0 < 4 * counts[1] < counts[0], counts
    layer = build_3way_linesum(3, 3, 3, *[[[1] * 3] * 3] * 3, 1)
    assert build_nfold_matrix(layer.A, layer.B, 3) == A
    counts.append(0)
    T = graver(A, _layout_group(0, 3, 9, layer.symmetries))
    assert T.elements == G.elements
    assert 0 < 10 * counts[2] < counts[1], counts


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
        pool = kernels.complete(gens, perms)
        assert orbit_closed(pool, perms), (A.data, perms)
        plain = kernels.minimal_elements(kernels.complete(gens))
        assert kernels.minimal_elements(pool) == plain, (A.data, perms)
        checked += 1


def test_minimal_elements_drops_conformal_sums():
    pool = [(1, -1), (-1, 1), (2, -2)]
    assert sorted(kernels.minimal_elements(pool)) == [(-1, 1), (1, -1)]


def test_l1():
    assert kernels.l1((3, -4, 0)) == 7
    assert kernels.l1(()) == 0
