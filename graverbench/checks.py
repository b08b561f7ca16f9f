"""Computations made apart from graveropt, used to check its outputs.

Nothing here imports the package under test: test sets are checked with
an exact elimination and a box enumeration of our own, decodes against
a codebook enumerated here, and document solves against exhaustive
searches, a negative-cycle certificate and LP vertex enumeration.  Each
check returns a list of faults; an empty list means the output passed.
"""

from fractions import Fraction
from itertools import combinations, product

# Largest number of free-coordinate assignments the brute-force test-set
# enumeration walks; matrices above it get the structural checks only.
BRUTE_FORCE_CAP = 20000


def mat_vec(rows, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in rows)


def conforms(u, v):
    """u lies in v's closed orthant and |u| <= |v| entrywise."""
    for a, b in zip(u, v):
        if a > 0:
            if b < a:
                return False
        elif a < 0:
            if b > a:
                return False
    return True


def _sign_masks(v):
    pos = neg = 0
    for i, a in enumerate(v):
        if a > 0:
            pos |= 1 << i
        elif a < 0:
            neg |= 1 << i
    return pos, neg


def _l1(v):
    return sum(abs(a) for a in v)


def minimal_filter(vectors):
    """Conformally minimal elements of a set of nonzero vectors."""
    kept = []
    for v in sorted(set(vectors), key=lambda v: (_l1(v), v)):
        if not any(conforms(u, v) for u in kept):
            kept.append(v)
    return set(kept)


def testset_faults(rows, cols, elements):
    """Every element a nonzero kernel vector, the set closed under
    negation, and no element conforming to another."""
    faults = []
    elems = [tuple(e) for e in elements]
    if not elems:
        return ["empty test set"]
    found = set(elems)
    if len(found) != len(elems):
        faults.append("repeated elements")
    for e in elems:
        if len(e) != cols or not any(e):
            faults.append("element %r is zero or has the wrong length" % (e,))
            return faults
        if any(mat_vec(rows, e)):
            faults.append("element %r is not a kernel vector" % (e,))
            return faults
        if tuple(-a for a in e) not in found:
            faults.append("negation of %r missing" % (e,))
            return faults
    # u conforming to v needs the sign pattern of u inside that of v and
    # a smaller l1 norm; the masks rule out almost every pair cheaply
    keyed = sorted((_l1(e), _sign_masks(e), e) for e in found)
    for j, (nv, (pv, mv), v) in enumerate(keyed):
        for nu, (pu, mu), u in keyed[:j]:
            if nu == nv:
                break
            if pu & ~pv or mu & ~mv:
                continue
            if conforms(u, v):
                faults.append("%r conforms to %r" % (u, v))
                return faults
    return faults


def _reduce(rows, cols):
    """Reduced row echelon form over the rationals: (rank, pivot columns)."""
    M = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(M)) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c] / M[r][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return r, pivots


def rank(rows, cols):
    return _reduce(rows, cols)[0]


def _independent_rows(rows, cols):
    picked = []
    for row in rows:
        if rank(picked + [row], cols) > len(picked):
            picked.append(row)
    return picked


def _det(M):
    n = len(M)
    if n == 0:
        return 1
    M = [[Fraction(a) for a in row] for row in M]
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c]), None)
        if p is None:
            return 0
        if p != c:
            M[c], M[p] = M[p], M[c]
            d = -d
        d *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return int(d)


def _adjugate(M):
    n = len(M)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for k, row in enumerate(M) if k != i]
            adj[j][i] = (-1) ** (i + j) * _det(minor)
    return adj


def circuits(rows, cols):
    """Primitive support-minimal kernel vectors, by support enumeration."""
    rows = _independent_rows(rows, cols)
    r = len(rows)
    out = set()
    for k in range(1, r + 2):
        for S in combinations(range(cols), k):
            sub = [[row[j] for j in S] for row in rows]
            if rank(sub, k) != k - 1:
                continue
            # the kernel of sub is one-dimensional: solve it on k-1
            # independent rows with one coordinate set to the determinant
            basis_rows = _independent_rows(sub, k)
            for free in range(k):
                others = [j for j in range(k) if j != free]
                B = [[row[j] for j in others] for row in basis_rows]
                d = _det(B)
                if d == 0:
                    continue
                adj = _adjugate(B) if B else []
                rhs = [-row[free] for row in basis_rows]
                sol = [sum(adj[i][t] * rhs[t] for t in range(len(rhs))) for i in range(len(others))]
                vec = [0] * k
                vec[free] = d
                for i, j in enumerate(others):
                    vec[j] = sol[i]
                break
            if 0 in vec:
                continue
            g = 0
            for a in vec:
                g = _gcd(g, a)
            full = [0] * cols
            for pos, j in enumerate(S):
                full[j] = vec[pos] // g
            out.add(tuple(full))
            out.add(tuple(-a for a in full))
    return out


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def graver_bruteforce(rows, cols, cap=BRUTE_FORCE_CAP):
    """Conformally minimal nonzero kernel vectors by box enumeration, or
    None when the box is larger than cap.

    Every test-set element is a conformal combination of at most n - r
    circuits with coefficients below one, so coordinate j is bounded by
    the sum of the n - r largest |c_j| over the circuits.  The free
    coordinates of a pivot split walk that box; the pivot coordinates
    follow exactly from the kernel equations.
    """
    ind = _independent_rows(rows, cols)
    r = len(ind)
    _, pivots = _reduce(ind, cols)
    free = [j for j in range(cols) if j not in pivots]
    circ = circuits(ind, cols)
    bound = []
    for j in range(cols):
        top = sorted((abs(c[j]) for c in circ), reverse=True)[: cols - r]
        bound.append(sum(top))
    size = 1
    for j in free:
        size *= 2 * bound[j] + 1
    if size > cap:
        return None
    AP = [[row[j] for j in pivots] for row in ind]
    d = _det(AP)
    adj = _adjugate(AP) if r else []
    # pivot part = K . free part / d
    K = [
        [-sum(adj[i][t] * ind[t][j] for t in range(r)) for j in free]
        for i in range(r)
    ]
    found = []
    for xf in product(*(range(-bound[j], bound[j] + 1) for j in free)):
        v = [0] * cols
        ok = True
        for i, p in enumerate(pivots):
            num = sum(k * x for k, x in zip(K[i], xf))
            if num % d:
                ok = False
                break
            q = num // d
            if abs(q) > bound[p]:
                ok = False
                break
            v[p] = q
        if not ok:
            continue
        for j, x in zip(free, xf):
            v[j] = x
        if any(v):
            found.append(tuple(v))
    return minimal_filter(found)


# ---------------------------------------------------------------- decoding


def line_sums_ok(arr, U):
    m = len(arr)
    for a in range(m):
        for b in range(m):
            if sum(arr[a][b][k] for k in range(m)) != U:
                return False
            if sum(arr[a][k][b] for k in range(m)) != U:
                return False
            if sum(arr[k][a][b] for k in range(m)) != U:
                return False
    return True


def codebook(n, u, U):
    """Every (n+1)^3 array with all line sums U, message cells (all
    indices below n) in [0, u] and the other cells in [0, U].

    The message cells fix the rest: a cell with one index at n closes
    its line, a cell with two closes the line through the first kind,
    and the corner closes the last line.
    """
    m = n + 1
    words = []
    for bits in product(range(u + 1), repeat=n**3):
        a = [[[0] * m for _ in range(m)] for _ in range(m)]
        for idx, (i, j, k) in enumerate(product(range(n), repeat=3)):
            a[i][j][k] = bits[idx]
        for i, j in product(range(n), repeat=2):
            a[i][j][n] = U - sum(a[i][j][k] for k in range(n))
            a[i][n][j] = U - sum(a[i][k][j] for k in range(n))
            a[n][i][j] = U - sum(a[k][i][j] for k in range(n))
        for i in range(n):
            a[i][n][n] = U - sum(a[i][n][k] for k in range(n))
            a[n][i][n] = U - sum(a[n][i][k] for k in range(n))
            a[n][n][i] = U - sum(a[n][k][i] for k in range(n))
        a[n][n][n] = U - sum(a[n][n][k] for k in range(n))
        word = tuple(tuple(tuple(r) for r in p) for p in a)
        if within_caps(word, n, u, U) and line_sums_ok(word, U):
            words.append(word)
    return words


def within_caps(arr, n, u, U):
    m = n + 1
    for i, j, k in product(range(m), repeat=3):
        cap = u if (i < n and j < n and k < n) else U
        if not 0 <= arr[i][j][k] <= cap:
            return False
    return True


def distance(a, b, p):
    m = len(a)
    diffs = [abs(a[i][j][k] - b[i][j][k]) for i, j, k in product(range(m), repeat=3)]
    if p == "inf":
        return max(diffs)
    return sum(x**p for x in diffs)


def decode_faults(received, p, transmitted, reported, book, n, u, U):
    faults = []
    if not line_sums_ok(transmitted, U):
        faults.append("a line sum of the decoded array is not %d" % (U,))
    if not within_caps(transmitted, n, u, U):
        faults.append("decoded array leaves its caps")
    got = distance(transmitted, received, p)
    if got != reported:
        faults.append("reported distance %r, recomputed %r" % (reported, got))
    best = min(distance(w, received, p) for w in book)
    if got != best:
        faults.append("distance %r, codebook minimum %r" % (got, best))
    return faults


# ------------------------------------------------------------- objectives


def composite_value(c, terms, z):
    """c.z + sum scale * |coeffs.z - shift| ** power over the terms."""
    v = sum(a * x for a, x in zip(c, z))
    for coeffs, scale, power, shift in terms:
        v += scale * abs(sum(a * x for a, x in zip(coeffs, z)) - shift) ** power
    return v


# ----------------------------------------------------- flat box programs


def box_faults(A, b, upper, z):
    if len(z) != len(upper):
        return ["point has %d coordinates, expected %d" % (len(z), len(upper))]
    faults = []
    if any(x < 0 or x > u for x, u in zip(z, upper)):
        faults.append("point leaves the box")
    if mat_vec(A, z) != tuple(b):
        faults.append("point violates A z = b")
    return faults


def box_points(A, b, upper):
    """Every integer point of 0 <= z <= upper with A z = b."""
    for z in product(*(range(u + 1) for u in upper)):
        if mat_vec(A, z) == tuple(b):
            yield z


def ip_optimum(A, b, upper, c, terms):
    return min(composite_value(c, terms, z) for z in box_points(A, b, upper))


def lp_optimum(A, b, upper, c):
    """Minimum of c.x over A x = b, 0 <= x <= upper, by enumerating the
    basic solutions in exact Fractions.  A must have full row rank."""
    m, n = len(A), len(A[0])
    best = None
    for basis in combinations(range(n), m):
        AB = [[row[j] for j in basis] for row in A]
        d = _det(AB)
        if d == 0:
            continue
        adj = _adjugate(AB)
        nonbasic = [j for j in range(n) if j not in basis]
        for at_upper in product((False, True), repeat=len(nonbasic)):
            x = [Fraction(0)] * n
            for j, up in zip(nonbasic, at_upper):
                x[j] = Fraction(upper[j] if up else 0)
            rhs = [b[i] - sum(A[i][j] * x[j] for j in nonbasic) for i in range(m)]
            ok = True
            for i, j in enumerate(basis):
                x[j] = sum(adj[i][t] * rhs[t] for t in range(m)) / d
                if x[j] < 0 or x[j] > upper[j]:
                    ok = False
                    break
            if ok:
                v = sum(cj * xj for cj, xj in zip(c, x))
                if best is None or v < best:
                    best = v
    return best


# ----------------------------------------------------------- transportation


def flow_faults(supplies, demands, caps, fns, x):
    """Feasibility and optimality of a transportation flow.

    x[k][s] is the flow from supplier s to customer k, fns[k][s] its
    convex cost as a function of the flow.  An integer flow is optimal
    iff the residual graph has no negative cycle under unit marginal
    costs (Bellman-Ford from a virtual source).
    """
    n, N = len(supplies), len(demands)
    faults = []
    for k in range(N):
        if sum(x[k]) != demands[k]:
            faults.append("customer %d receives %d, demand %d" % (k, sum(x[k]), demands[k]))
        for s in range(n):
            if not 0 <= x[k][s] <= caps[k][s]:
                faults.append("flow %d->%d leaves [0, %d]" % (s, k, caps[k][s]))
    for s in range(n):
        if sum(x[k][s] for k in range(N)) != supplies[s]:
            faults.append("supplier %d ships the wrong total" % (s,))
    if faults:
        return faults
    arcs = []
    for k in range(N):
        for s in range(n):
            f, v = fns[k][s], x[k][s]
            if v < caps[k][s]:
                arcs.append((s, n + k, f(v + 1) - f(v)))
            if v > 0:
                arcs.append((n + k, s, f(v - 1) - f(v)))
    dist = [0] * (n + N)
    for _ in range(n + N):
        changed = False
        for a, b, w in arcs:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            return []
    return ["negative cycle in the residual graph: the flow is not optimal"]


# ---------------------------------------------------------------- two-stage


def twostage_faults(T, W, b, ux, uy, x, ys):
    """Feasibility of (x, ys) for T x + W y_i = b_i within the bounds."""
    faults = []
    if len(x) != len(ux) or any(not 0 <= a <= u for a, u in zip(x, ux)):
        faults.append("first-stage point leaves its box")
    for i, y in enumerate(ys):
        if len(y) != len(uy[i]) or any(not 0 <= a <= u for a, u in zip(y, uy[i])):
            faults.append("scenario %d leaves its box" % (i,))
        lhs = tuple(p + q for p, q in zip(mat_vec(T, x), mat_vec(W, y)))
        if lhs != tuple(b[i]):
            faults.append("scenario %d violates T x + W y = b" % (i,))
    return faults


def twostage_value(cx, cy, x, ys):
    return sum(
        sum(a * v for a, v in zip(cx[i], x)) + sum(a * v for a, v in zip(cy[i], y))
        for i, y in enumerate(ys)
    )


def twostage_optimum(T, W, b, ux, uy, cx, cy):
    """Minimum over first-stage points x of the scenario costs, each
    scenario's recourse min over y solved on its own (None when no x is
    feasible for every scenario)."""
    recourse = []
    for i in range(len(b)):
        best = {}
        for y in product(*(range(u + 1) for u in uy[i])):
            key = mat_vec(W, y)
            v = sum(a * q for a, q in zip(cy[i], y))
            if key not in best or v < best[key]:
                best[key] = v
        recourse.append(best)
    opt = None
    for x in product(*(range(u + 1) for u in ux)):
        tx = mat_vec(T, x)
        total = 0
        for i, best in enumerate(recourse):
            need = tuple(p - q for p, q in zip(b[i], tx))
            if need not in best:
                total = None
                break
            total += sum(a * v for a, v in zip(cx[i], x)) + best[need]
        if total is not None and (opt is None or total < opt):
            opt = total
    return opt


# ------------------------------------------------------------- line sums


def table_points(L, M, N, r, s, t, caps):
    """Every L x M x N array within caps whose line sums match (r, s, t),
    built layer by layer: each layer k must have row sums s[.][k] and
    column sums r[.][k]; the across-layer sums must then match t."""
    layers = []
    for k in range(N):
        opts = []
        for cells in product(*(range(caps[i][j][k] + 1) for i in range(L) for j in range(M))):
            if all(sum(cells[i * M + j] for j in range(M)) == s[i][k] for i in range(L)) and all(
                sum(cells[i * M + j] for i in range(L)) == r[j][k] for j in range(M)
            ):
                opts.append(cells)
        layers.append(opts)
    for combo in product(*layers):
        if all(
            sum(combo[k][i * M + j] for k in range(N)) == t[i][j] for i in range(L) for j in range(M)
        ):
            yield combo
