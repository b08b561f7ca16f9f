"""Exact dense integer linear algebra on small matrices.

Conventions used across the package:
  - vectors are tuples of Python ints (Fractions only in the rational
    augmentation paths), compared and sorted lexicographically, which is
    the canonical order everywhere a set of vectors is serialized;
  - matrices are immutable row-major Mat objects;
  - no floating point anywhere: entries of kernel lattice bases and the
    intermediate pivots can exceed any fixed width.

kernel_basis computes a lattice basis of ker(A) over the integers by
unimodular row reduction of [A^T | I]: the rows whose A^T part vanishes
give the basis.  Because it is the full integer kernel of A, the lattice
is saturated (primitive basis, no finite index defect).  The same
reduction U A^T = H solves A z = b over the integers: H^T y = b is
triangular on the pivot rows of H, and z = U^T y.
"""

from math import gcd

from .errors import DimMismatch, ZeroVector
from .kernels import conforms, vec_add, vec_sub, vec_neg, is_zero
from .kernels import sign_compatible as _sign_compatible_fast

__all__ = [
    "Mat",
    "kernel_basis",
    "integer_solution",
    "rank",
    "is_primitive",
    "primitive_part",
    "sign_compatible",
    "conforms",
    "vec_add",
    "vec_sub",
    "vec_neg",
    "is_zero",
    "dot",
    "support",
]


def dot(u, v):
    if len(u) != len(v):
        raise DimMismatch("dot: %d vs %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


def sign_compatible(a, b):
    """True iff a and b share a closed orthant: a[i]*b[i] >= 0 for all i."""
    if len(a) != len(b):
        raise DimMismatch("sign_compatible: %d vs %d" % (len(a), len(b)))
    return _sign_compatible_fast(a, b)


def support(v):
    return frozenset(i for i, a in enumerate(v) if a)


def is_primitive(v):
    """True iff gcd of the entries is 1.  Zero vectors are rejected."""
    g = 0
    for a in v:
        g = gcd(g, a)
    if g == 0:
        raise ZeroVector("primitivity undefined for the zero vector")
    return g == 1


def primitive_part(v):
    """v divided by the gcd of its entries."""
    g = 0
    for a in v:
        g = gcd(g, a)
    if g == 0:
        raise ZeroVector("zero vector has no primitive part")
    return tuple(a // g for a in v)


class Mat:
    """Immutable integer matrix.  data is a tuple of row tuples."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = tuple(tuple(row) for row in data)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise DimMismatch("declared %d columns, rows have %d" % (cols, width))
            cols = width
        elif cols is None:
            raise DimMismatch("empty matrix needs an explicit column count")
        for row in data:
            if len(row) != cols:
                raise DimMismatch("ragged rows")
            for a in row:
                if not isinstance(a, int):
                    raise TypeError("integer entries required, got %r" % (a,))
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    def __eq__(self, other):
        return isinstance(other, Mat) and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return "Mat(%r)" % (list(map(list, self.data)),)

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise DimMismatch("matrix has %d columns, vector has %d" % (self.cols, len(v)))
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.data)

    def submatrix_cols(self, js):
        return Mat(tuple(tuple(row[j] for j in js) for row in self.data), cols=len(js))

    def to_lists(self):
        return [list(row) for row in self.data]

    @staticmethod
    def identity(n):
        return Mat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), cols=n)

    @staticmethod
    def zeros(m, n):
        return Mat(tuple((0,) * n for _ in range(m)), cols=n)

    @staticmethod
    def hstack(*mats):
        rows = {m.rows for m in mats}
        if len(rows) != 1:
            raise DimMismatch("hstack needs equal row counts")
        r = rows.pop()
        data = tuple(sum((mats[k].data[i] for k in range(len(mats))), ()) for i in range(r))
        return Mat(data, cols=sum(m.cols for m in mats))

    @staticmethod
    def vstack(*mats):
        cols = {m.cols for m in mats}
        if len(cols) != 1:
            raise DimMismatch("vstack needs equal column counts")
        data = sum((m.data for m in mats), ())
        return Mat(data, cols=cols.pop())


def _transpose_rows(A):
    # rows of A^T as mutable lists
    return [list(A.col(j)) for j in range(A.cols)] if A.rows else [[] for _ in range(A.cols)]


def _echelon(rows_in, track=None):
    """Integer row echelon by gcd pivoting.

    rows_in: list of mutable rows, consumed in place.  track: optional
    companion rows receiving the same operations.  Returns the rank.
    """
    rows = rows_in
    m = len(rows)
    w = len(rows[0]) if m else 0
    r = 0
    for c in range(w):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if rows[i][c]]
            if not nz:
                break
            if len(nz) == 1:
                p = nz[0]
            else:
                p = min(nz, key=lambda i: abs(rows[i][c]))
                done = True
                for i in nz:
                    if i == p:
                        continue
                    q = rows[i][c] // rows[p][c]
                    if q:
                        for k in range(w):
                            rows[i][k] -= q * rows[p][k]
                        if track is not None:
                            for k in range(len(track[i])):
                                track[i][k] -= q * track[p][k]
                    if rows[i][c]:
                        done = False
                if not done:
                    continue
                nz = [i for i in range(r, m) if rows[i][c]]
                p = nz[0]
            rows[r], rows[p] = rows[p], rows[r]
            if track is not None:
                track[r], track[p] = track[p], track[r]
            r += 1
            break
    return r


def rank(A):
    rows = [list(row) for row in A.data]
    if not rows:
        return 0
    return _echelon(rows)


def _tracked_echelon(A):
    """(H, U, rank) with U A^T = H in echelon form and U unimodular, as
    lists of rows."""
    left = _transpose_rows(A)
    right = [[1 if i == j else 0 for j in range(A.cols)] for i in range(A.cols)]
    return left, right, _echelon(left, track=right)


def kernel_basis(A):
    """Basis of the saturated integer kernel lattice of A, canonically sorted.

    Empty tuple when the kernel is trivial.  Rows with more columns than
    rank always produce cols - rank generators.
    """
    _, right, r = _tracked_echelon(A)
    gens = []
    for i in range(r, A.cols):
        v = tuple(right[i])
        if not is_zero(v):
            gens.append(v)
    # normalize sign so each generator is lexicographically >= its negation
    gens = [max(v, vec_neg(v)) for v in gens]
    return tuple(sorted(gens))


def integer_solution(A, b):
    """An integer z with A z = b, or None when there is none.

    z = U^T y solves it exactly when H^T y = b.  The pivot of each
    nonzero row of H fixes one y entry by forward substitution, where an
    inexact division means no integer solution; the other entries are
    kernel coordinates and stay 0.
    """
    b = tuple(b)
    if len(b) != A.rows:
        raise DimMismatch("b has %d entries, A has %d rows" % (len(b), A.rows))
    left, right, r = _tracked_echelon(A)
    y = []
    for i in range(r):
        p = next(k for k, a in enumerate(left[i]) if a)
        q, rem = divmod(b[p] - sum(left[k][p] * y[k] for k in range(i)), left[i][p])
        if rem:
            return None
        y.append(q)
    z = tuple(sum(y[i] * right[i][j] for i in range(r)) for j in range(A.cols))
    return z if A.mul_vec(z) == b else None
