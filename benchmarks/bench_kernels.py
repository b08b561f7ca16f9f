"""Benchmark the completion hot path: plain against grouped completion.

Runs the full test-set computation for a family of matrices and prints
per-case wall times.  The "plain" column is graver(A); for the line-sum
cases, the "brick group" column is graver(A, group) under the brick
swaps of the N-fold layout, and the "table group" column adds the 3x3
layer's table symmetries that models.build_3way_linesum derives (row
swaps, column swaps, transpose).  Every column must return the same
sorted elements.  The headline case is the 3x3x3 all-line-sums matrix
(27 variables), whose test set has 1590 elements.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import sys
from time import perf_counter

from graveropt import Mat, graver
from graveropt.models import build_3way_linesum
from graveropt.nfold import _layout_group, build_nfold_matrix


def _bipartite_incidence(L, M):
    rows = []
    for i in range(L):
        rows.append(tuple(1 if j // M == i else 0 for j in range(L * M)))
    for j in range(M):
        rows.append(tuple(1 if k % M == j else 0 for k in range(L * M)))
    return Mat(tuple(rows))


def cases(quick):
    """(label, matrix, {column: group}) for the grouped columns known."""
    yield "knapsack 1x4", Mat(((1, 2, 3, 4),)), {}
    yield "two rows 2x5", Mat(((1, 1, 1, 1, 1), (0, 1, 2, 3, 4))), {}
    layer = build_3way_linesum(3, 3, 3, *[[[1] * 3] * 3] * 3, 1)
    assert (layer.A, layer.B) == (_bipartite_incidence(3, 3), Mat.identity(9))
    for N in (2,) if quick else (2, 3):
        A = build_nfold_matrix(_bipartite_incidence(3, 3), Mat.identity(9), N)
        groups = {
            "brick group": _layout_group(0, N, 9),
            "table group": _layout_group(0, N, 9, layer.symmetries),
        }
        yield "3x3 line sums, N=%d" % N, A, groups


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="skip the 27-variable case")
    args = ap.parse_args()

    columns = ("plain", "brick group", "table group")
    results = {}
    for label, A, groups in cases(args.quick):
        row = {}
        bases = set()
        for name, g in [("plain", ())] + list(groups.items()):
            t0 = perf_counter()
            basis = graver(A, g)
            row[name] = perf_counter() - t0
            bases.add(tuple(sorted(basis.elements)))
        assert len(bases) == 1, "plain and grouped completion disagree on %s" % (label,)
        results[label] = (row, len(bases.pop()))

    width = max(len(k) for k in results)
    print("%-*s %10s  %s" % (width, "case", "|basis|", "  ".join("%12s" % n for n in columns)))
    for label, (row, size) in results.items():
        cells = "  ".join("%11.3fs" % row[n] if n in row else "%12s" % "-" for n in columns)
        print("%-*s %10d  %s" % (width, label, size, cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
