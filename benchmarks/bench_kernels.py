"""Benchmark the completion hot path: compiled backend vs pure Python.

Runs the full test-set computation for a family of matrices on every
available kernel backend and prints per-case wall times plus the
speedup, after checking that every backend returns the same sorted
elements.  The headline case is the 3x3x3 all-line-sums matrix (27
variables), whose test set has 1590 elements; the small cases exist to
show the crossover point where the compiled path starts to matter.
The line-sum cases also run grouped, with the brick swaps of their
N-fold layout, in a "brick group" column; grouped completion always
runs the pure kernel, and must return the same sorted elements.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import sys
from time import perf_counter

from graveropt import Mat, graver
from graveropt import kernels
from graveropt.nfold import _layout_group, build_nfold_matrix


def _bipartite_incidence(L, M):
    rows = []
    for i in range(L):
        rows.append(tuple(1 if j // M == i else 0 for j in range(L * M)))
    for j in range(M):
        rows.append(tuple(1 if k % M == j else 0 for k in range(L * M)))
    return Mat(tuple(rows))


def cases(quick):
    """(label, matrix, group); the group is () where none is known."""
    yield "knapsack 1x4", Mat(((1, 2, 3, 4),)), ()
    yield "two rows 2x5", Mat(((1, 1, 1, 1, 1), (0, 1, 2, 3, 4))), ()
    for N in (2,) if quick else (2, 3):
        A = build_nfold_matrix(_bipartite_incidence(3, 3), Mat.identity(9), N)
        yield "3x3 line sums, N=%d" % N, A, _layout_group(0, N, 9)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="skip the 27-variable case")
    args = ap.parse_args()

    names = kernels.available()
    if len(names) < 2:
        print("only backend(s) %s available; build the extension for a comparison" % (names,))
    columns = names + ("brick group",)
    results = {}
    for label, A, group in cases(args.quick):
        row = {}
        bases = set()
        runs = [(name, ()) for name in names] + ([("brick group", group)] if group else [])
        for name, g in runs:
            if not g:
                kernels.use(name)
            t0 = perf_counter()
            basis = graver(A, g)
            row[name] = perf_counter() - t0
            bases.add(tuple(sorted(basis.elements)))
        assert len(bases) == 1, "backends disagree on %s" % (label,)
        results[label] = (row, len(bases.pop()))

    kernels.use(kernels.available()[0])
    width = max(len(k) for k in results)
    print("%-*s %10s  %s" % (width, "case", "|basis|", "  ".join("%12s" % n for n in columns)))
    for label, (row, size) in results.items():
        cells = "  ".join("%10.3fs" % row[n] if n in row else "%11s" % "-" for n in columns)
        line = "%-*s %10d  %s" % (width, label, size, cells)
        if "python" in row and "cython" in row and row["cython"] > 0:
            line += "  (%.1fx)" % (row["python"] / row["cython"])
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
