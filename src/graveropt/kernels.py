"""Reduction kernels.

These are the inner loops of the completion procedure that computes
conformal test sets: sign checks, conformal comparison, and reduction of
a vector against a pool of reducers.  complete() queues one pair per
orbit, under negation and under an optional group of column
permutations that the caller knows to be symmetries (the block swaps of
an N-fold or two-stage layout), and finds reducers through
per-coordinate bitsets.  Vectors are plain tuples of Python ints, so
every kernel is exact at any magnitude.
"""

import sys
from functools import reduce as _fold
from heapq import heappop, heappush
from operator import add as _add, and_ as _and, getitem as _getitem, itemgetter, sub as _sub

BACKEND = "python"


def backend_name():
    return BACKEND


# the one backend: graverbench/tracing.py resolves its kernels.* layers through it
active = sys.modules[__name__]


def sign_compatible(u, v):
    """True iff u[i]*v[i] >= 0 for all i (no coordinate fights the other)."""
    for a, b in zip(u, v):
        if a * b < 0:
            return False
    return True


def conforms(g, v):
    """True iff g lies in the same closed orthant as v and |g| <= |v| entrywise.

    This is the partial order whose minimal nonzero kernel elements form
    the test set; zero coordinates of v force zero coordinates of g.
    """
    for a, b in zip(g, v):
        if a > 0:
            if b < a:
                return False
        elif a < 0:
            if b > a:
                return False
    return True


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def is_zero(u):
    for a in u:
        if a:
            return False
    return True


def l1(u):
    n = 0
    for a in u:
        n += a if a >= 0 else -a
    return n


class _Fits(dict):
    """Bitsets over a pool for one coordinate i, keyed by a value x.

    Entry x marks the pool elements g whose coordinate g[i] lies in the
    closed interval between 0 and x, i.e. the elements that conform to
    any vector with x at coordinate i.  Built on first lookup, kept up
    to date by note() as the pool grows.
    """

    def __init__(self, pool, i):
        super().__init__()
        self.pool = pool
        self.i = i

    def __missing__(self, x):
        i = self.i
        lo, hi = (0, x) if x >= 0 else (x, 0)
        bits = "".join("1" if lo <= g[i] <= hi else "0" for g in reversed(self.pool))
        mask = int("0" + bits, 2)
        self[x] = mask
        return mask

    def note(self, a, bit):
        """Mark a new pool element (coordinate value a, index bit)."""
        for x, mask in self.items():
            if (0 <= a <= x) or (x <= a <= 0):
                self[x] = mask | bit


def complete(generators, group=()):
    """Close a kernel lattice basis under conformal summation (Pottier).

    group is a tuple of column permutations that map the kernel lattice
    onto itself; a permutation p acts on v as (v[p[0]], ..., v[p[n-1]]).
    Negation is always such a symmetry.  Every symmetry also preserves
    the conformal order, so the pool is kept closed under the group they
    generate: an irreducible remainder joins together with its whole
    orbit under the permutations and negation, and is that orbit's
    representative.  Only pairs (representative, pool element) are
    queued, when the orbit joins, with every element already in the
    pool or in the orbit itself.  Each pair of pool elements is the
    image of such a pair under some symmetry s, and the images under s
    of the reducers that take the queued sum to its normal form take
    the other sum to the image of that normal form, which is in the
    pool as well.  So the completion criterion holds for every pair
    and the minimal elements are those of plain completion.  With no
    group an orbit is v and -v: one pair per +- class is queued, when
    v joins, and the pair (v, -v), whose sum is zero, is never queued.
    Pairs that already lie in a common orthant reduce to zero and are
    never queued either.

    Pairs are worked through in ascending order of combined l1 norm:
    a heap holds the distinct norm sums, and each sum a bucket of
    entries (j, partners), one per representative j and partner norm,
    whose partners are a bitset over pool indices.  Each pair sum is
    reduced against the pool; an irreducible nonzero remainder joins
    the pool with its orbit.  Returns the full pool, closed under the
    group and negation and free of duplicates, which may still contain
    non-minimal elements; callers filter with minimal_elements.

    Reducers are found through bitsets over pool indices instead of a
    scan: the AND over the coordinates of s of the per-coordinate
    _Fits masks marks exactly the pool elements that conform to s, and
    the latest-added of them is subtracted.  Which applicable reducer
    is taken, and the order of pairs within one norm, change the
    intermediate pool, never the minimal elements: any conformal
    reduction keeps the completion's closure property, and the
    conformally minimal kernel elements are unique.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        return []
    n = len(gens[0])
    # identities move nothing; dropping them also keeps every itemgetter
    # below at two or more columns, where it returns a tuple
    moves = [itemgetter(*p) for p in group if tuple(p) != tuple(range(n))]
    pool = []
    seen = set()
    # pos[i] / neg[i]: pool indices whose coordinate i is > 0 / < 0
    pos = [0] * n
    neg = [0] * n
    fits = [_Fits(pool, i) for i in range(n)]
    # by_norm: pool indices per l1 norm; sums / buckets: pending pairs
    by_norm = {}
    sums = []
    buckets = {}

    def join(v):
        # v joins at j and -v at j + 1, then the rest of v's orbit
        orbit = [v, vec_neg(v)]
        if moves:
            known = set(orbit)
            for w in orbit:
                for move in moves:
                    u = move(w)
                    if u not in known:
                        known.add(u)
                        orbit.append(u)
        j = len(pool)
        for w in orbit:
            bit = 1 << len(pool)
            seen.add(w)
            pool.append(w)
            for i, a in enumerate(w):
                if a > 0:
                    pos[i] |= bit
                elif a < 0:
                    neg[i] |= bit
                fits[i].note(a, bit)
        nv = l1(v)
        by_norm[nv] = by_norm.get(nv, 0) | (((1 << len(orbit)) - 1) << j)
        opposite = 0
        for i, a in enumerate(v):
            if a > 0:
                opposite |= neg[i]
            elif a < 0:
                opposite |= pos[i]
        # -v is opposite to v wherever v is nonzero; their sum is zero
        opposite ^= 2 << j
        for nt, partners in by_norm.items():
            partners &= opposite
            if partners:
                key = nt + nv
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                    heappush(sums, key)
                bucket.append((j, partners))

    for b in gens:
        if b not in seen and any(b):
            join(b)
    while sums:
        for j, partners in buckets.pop(heappop(sums)):
            x = pool[j]
            while partners:
                i = partners.bit_length() - 1
                partners ^= 1 << i
                s = tuple(map(_add, pool[i], x))
                while any(s) and s not in seen:
                    mask = _fold(_and, map(_getitem, fits, s))
                    if not mask:
                        join(s)
                        break
                    s = tuple(map(_sub, s, pool[mask.bit_length() - 1]))
    return pool


def minimal_elements(elems):
    """Filter a list of nonzero vectors down to its conformally minimal ones.

    An element is dropped when a different element conforms to it.  The
    input order is irrelevant; the output is sorted by (norm, value).
    """
    # A reducer conformally below v has l1 norm at most v's, so after
    # sorting by norm it suffices to test against the kept minimal ones;
    # the _Fits masks over kept answer that test for all of them at once.
    ordered = sorted(set(elems), key=lambda v: (l1(v), v))
    if not ordered:
        return []
    kept = []
    fits = [_Fits(kept, i) for i in range(len(ordered[0]))]
    for v in ordered:
        if kept and _fold(_and, map(_getitem, fits, v), -1):
            continue
        bit = 1 << len(kept)
        kept.append(v)
        for f, a in zip(fits, v):
            f.note(a, bit)
    return kept
