"""Circuits, conformal test sets, and sign-compatible decompositions.

For an integer matrix A the test set computed here is the set of nonzero
integer kernel vectors that cannot be written as u + w with u, w nonzero
kernel vectors lying in the same closed orthant (conformal minimality).
Circuits are the primitive kernel vectors of support-minimal support.

The test set is computed by a completion procedure over the quotient by
negation: the pool holds a lattice basis of ker(A) and every later
element together with its negation, but each pair sum is formed once per
+- class, since the mirror pair (-x, -y) sums to -(x + y) and reduces to
the negated normal form.  Each sum is reduced to a normal form by
conformal subtraction, and nonzero normal forms join the pool with their
negations until no pair produces anything new.  A final filter keeps the
conformally minimal elements.  Pairs that already lie in a common orthant
reduce to zero and are skipped up front.  Where the caller knows column
permutations that map the kernel onto itself (the block swaps of an
N-fold or two-stage layout), graver takes them as a group: the pool
then grows by whole orbits, and each pair sum is formed once per orbit.

Everything is exact; element coordinates are unbounded Python ints.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import kernels
from .augment import DirectionTable
from .errors import BoundExceeded, DimMismatch, DomainError, NotInKernel
from .linalg import Mat, conforms, is_zero, kernel_basis, primitive_part, vec_neg

__all__ = ["CircuitSet", "GraverBasis", "Decomposition", "circuits", "graver", "graver_composite", "decompose"]


@dataclass(frozen=True)
class CircuitSet:
    matrix: Mat
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, v):
        return tuple(v) in set(self.elements)

    @cached_property
    def sweep_table(self):
        """DirectionTable of the elements, built on first use."""
        return DirectionTable(self.elements)


@dataclass(frozen=True)
class GraverBasis:
    matrix: Mat
    elements: tuple
    # composite bases keep full-width elements; project_to marks how many
    # leading coordinates carry the actual step direction
    project_to: int = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, v):
        return tuple(v) in set(self.elements)

    def directions(self):
        """Step directions for augmentation: projected and deduplicated
        for composite bases, the elements themselves otherwise."""
        if self.project_to is None:
            return self.elements
        n = self.project_to
        seen = set()
        out = []
        for e in self.elements:
            p = e[:n]
            if p not in seen and not is_zero(p):
                seen.add(p)
                out.append(p)
        return tuple(sorted(out))

    @cached_property
    def sweep_table(self):
        """DirectionTable of directions(), built on first use and kept
        as long as the basis (the solvers' lru caches keep bases)."""
        return DirectionTable(self.directions())


@dataclass(frozen=True)
class Decomposition:
    terms: tuple  # of (coeff, dir) with positive integer coeff

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def total(self):
        if not self.terms:
            return ()
        n = len(self.terms[0][1])
        acc = [0] * n
        for c, g in self.terms:
            for i in range(n):
                acc[i] += c * g[i]
        return tuple(acc)


def _graver_elements(A, group=()):
    n = A.cols
    for p in group:
        if sorted(p) != list(range(n)):
            raise DomainError("a symmetry must permute the %d columns, got %r" % (n, tuple(p)))
    basis = kernel_basis(A)
    if not basis:
        return ()
    for p in group:
        if any(any(A.mul_vec(tuple(b[i] for i in p))) for b in basis):
            raise DomainError("column permutation %r does not map the kernel onto itself" % (tuple(p),))
    return tuple(sorted(kernels.minimal_elements(kernels.complete(basis, group))))


def graver(A, group=()):
    """Conformal test set of A (closed under negation, canonical order).

    group, a tuple of column permutations that map the kernel of A onto
    itself (p acts on v as (v[p[0]], ..., v[p[n-1]])), lets the
    completion form each pair sum once per orbit under the group they
    generate; the test set is the same.  The caller takes the group
    from a known structure, such as nfold's block layout; each
    permutation is checked on a kernel lattice basis, and DomainError
    names the first that fails.
    """
    return GraverBasis(A, _graver_elements(A, group))


def fold_rows(A, C):
    """The block matrix [[A, 0], [C, I]] that folds objective rows C
    into A.

    Its kernel vectors are (x, C x) for x in the kernel of A, so the
    conformal test set of the fold, cut back to the leading A.cols
    coordinates, holds the moves that are conformal in x and in the row
    values C x at once: the paper's test set for f(C x).
    """
    if C.cols != A.cols:
        raise DimMismatch("C must have %d columns, has %d" % (A.cols, C.cols))
    s = C.rows
    return Mat.vstack(Mat.hstack(A, Mat.zeros(A.rows, s)), Mat.hstack(C, Mat.identity(s)))


def rows_matter(C):
    """Whether folding rows C changes the usable step directions.

    False with no rows or only +-unit rows: the auxiliary coordinate of
    a row +-x_j takes its sign from x_j in every kernel vector, so the
    fold's test set projects onto the test set of A itself.
    """
    return any([abs(a) for a in row if a] != [1] for row in C.data)


def graver_composite(A, C):
    """Test set of fold_rows(A, C) with projection marker.

    The leading A.cols coordinates of each element are the usable step;
    the trailing C.rows coordinates track the row values C·step and are
    kept so the projection stays recoverable.  With no C rows this is
    exactly graver(A).
    """
    M = fold_rows(A, C)
    if not C.rows:
        return graver(A)
    return GraverBasis(M, _graver_elements(M), project_to=A.cols)


def circuits(A):
    """Primitive support-minimal nonzero kernel vectors of A.

    Enumerates candidate supports; a support S carries a circuit exactly
    when ker of the column submatrix is one-dimensional and its generator
    has no zero inside S.
    """
    if A.cols < 1:
        raise DimMismatch("need at least one column")
    n = A.cols
    from .linalg import rank as _rank

    r = _rank(A)
    found = set()
    for k in range(1, min(r + 1, n) + 1):
        for S in combinations(range(n), k):
            sub = A.submatrix_cols(S)
            kb = kernel_basis(sub)
            if len(kb) != 1:
                continue
            w = kb[0]
            if 0 in w:
                continue
            v = [0] * n
            for pos, j in enumerate(S):
                v[j] = w[pos]
            v = primitive_part(tuple(v))
            found.add(v)
            found.add(vec_neg(v))
    return CircuitSet(A, tuple(sorted(found)))


def decompose(v, G, bound):
    """Write v as a positive-integer conformal combination of at most
    `bound` distinct test-set elements.

    Exhaustive depth-first search over the elements conforming to v, in
    canonical order; raises BoundExceeded when no combination within the
    bound exists.  NotInKernel when v is not a kernel vector of G.matrix.
    """
    v = tuple(v)
    if len(v) != G.matrix.cols:
        raise DimMismatch("vector has %d coordinates, matrix %d columns" % (len(v), G.matrix.cols))
    if not is_zero(G.matrix.mul_vec(v)):
        raise NotInKernel("decompose target is not in the kernel")
    if is_zero(v):
        return Decomposition(())
    cands = [g for g in G.elements if conforms(g, v)]

    def dfs(rem, start, terms):
        if is_zero(rem):
            return terms
        if len(terms) >= bound:
            return None
        for idx in range(start, len(cands)):
            g = cands[idx]
            if not conforms(g, rem):
                continue
            m = min(rem[i] // g[i] for i in range(len(rem)) if g[i])
            for c in range(m, 0, -1):
                nxt = tuple(rem[i] - c * g[i] for i in range(len(rem)))
                got = dfs(nxt, idx + 1, terms + [(c, g)])
                if got is not None:
                    return got
        return None

    got = dfs(v, 0, [])
    if got is None:
        raise BoundExceeded("no conformal decomposition with at most %d distinct elements" % bound)
    return Decomposition(tuple(got))
