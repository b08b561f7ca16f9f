"""Independent brute-force oracles used as ground truth.

Everything here is deliberately written from scratch on plain lists and
itertools, sharing no code with the package under test: enumeration
replaces completion, so agreement between the two routes is evidence,
not tautology.
"""

from itertools import product
from math import gcd


def mul(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def in_kernel(A, v):
    return all(s == 0 for s in mul(A, v))


def kernel_points(A, radius):
    """All nonzero integer kernel vectors of A inside [-radius, radius]^n
    by plain product enumeration; fine for tiny boxes only."""
    n = len(A[0])
    return [
        v
        for v in product(range(-radius, radius + 1), repeat=n)
        if any(v) and in_kernel(A, v)
    ]


def _suffix_bounds(A, box):
    m, n = len(A), len(A[0])
    lo = [[0] * (n + 1) for _ in range(m)]
    hi = [[0] * (n + 1) for _ in range(m)]
    for r in range(m):
        for j in range(n - 1, -1, -1):
            a, b = A[r][j] * box[j][0], A[r][j] * box[j][1]
            lo[r][j] = lo[r][j + 1] + min(a, b)
            hi[r][j] = hi[r][j + 1] + max(a, b)
    return lo, hi


def _kernel_dfs(A, box, emit):
    """Depth-first walk of {v in box: Av = 0} with per-row interval
    pruning; calls emit on every solution (including zero)."""
    m, n = len(A), len(A[0])
    lo, hi = _suffix_bounds(A, box)
    v = [0] * n

    def walk(j, sums):
        if j == n:
            emit(tuple(v))
            return
        for x in range(box[j][0], box[j][1] + 1):
            ns = []
            for r in range(m):
                s = sums[r] + A[r][j] * x
                if s + lo[r][j + 1] > 0 or s + hi[r][j + 1] < 0:
                    ns = None
                    break
                ns.append(s)
            if ns is not None:
                v[j] = x
                walk(j + 1, ns)

    walk(0, [0] * m)


class _Found(Exception):
    pass


def has_proper_conformal_summand(A, v):
    """True iff some kernel u with 0 != u != v lies in the sign box of v
    (same orthant, entrywise no larger)."""
    box = [(min(0, x), max(0, x)) for x in v]
    target = tuple(v)

    def emit(u):
        if any(u) and u != target:
            raise _Found

    try:
        _kernel_dfs(A, box, emit)
    except _Found:
        return True
    return False


def minimal_kernel_in_box(A, radius):
    """Conformally minimal nonzero kernel vectors inside [-radius, radius]^n.

    Only complete if radius covers the true basis; callers verify that by
    re-running at radius + 2 and checking the set is unchanged.
    """
    n = len(A[0])
    out = []

    def emit(v):
        if any(v) and not has_proper_conformal_summand(A, v):
            out.append(v)

    _kernel_dfs(A, [(-radius, radius)] * n, emit)
    return sorted(out)


def circuits_oracle(A, radius):
    """Primitive kernel vectors of support-minimal support inside the box."""
    pts = kernel_points(A, radius)
    supports = {}
    for v in pts:
        supports.setdefault(frozenset(i for i, x in enumerate(v) if x), []).append(v)
    minimal = [S for S in supports if not any(T < S for T in supports)]
    out = set()
    for S in minimal:
        for v in supports[S]:
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            if g == 1:
                out.add(v)
    return sorted(out)


def feasible_points(A, b, lower, upper):
    ranges = [range(l, u + 1) for l, u in zip(lower, upper)]
    for z in product(*ranges):
        if mul(A, z) == tuple(b):
            yield z


def solve_ip_oracle(A, b, lower, upper, f):
    """(best_value, set of argmins) by full enumeration; (None, set()) when
    infeasible.  f is any exact callable on integer tuples."""
    best = None
    argmins = set()
    for z in feasible_points(A, b, lower, upper):
        v = f(z)
        if best is None or v < best:
            best = v
            argmins = {z}
        elif v == best:
            argmins.add(z)
    return best, argmins


def _dense_value(c, rows, z):
    return sum(a * x for a, x in zip(c, z)) + sum(f(sum(a * x for a, x in zip(r, z))) for r, f in rows)


def _shifted_in_box(point, d, alpha, lower, upper):
    out = tuple(p + alpha * e for p, e in zip(point, d))
    return out if all(l <= q <= u for q, l, u in zip(out, lower, upper)) else None


def dense_twostage_step(z, first_stage, pool, T, m, n, obj, lower, upper, lengths=None):
    """Best assembled two-stage move from the flat point z by pricing the
    whole composite of each stage at every candidate.

    The flat composite obj (with .c and .rows) over (x, y^(1..N)) is split
    into a first-stage part (costs of x, rows on x alone) and per
    scenario i a part over (x, y^(i)).  For each first-stage block v
    (zero included) whose step stays in the box, every scenario picks
    the partner w from pool(v) (plus zero when T v = 0) with the least
    (part value, w); candidates compare by (total, v, ws), then over
    lengths (default 1..max(upper - lower)) by (total, length, move).
    Returns (direction, steplen, new_value), or None when nothing
    strictly improves.
    """
    N = (len(z) - m) // n

    def block(vec, i):
        return tuple(vec[m + i * n : m + (i + 1) * n])

    first_rows, parts = [], [[] for _ in range(N)]
    for r, f in obj.rows:
        hit = [i for i in range(N) if any(block(r, i))]
        assert len(hit) <= 1
        if hit:
            parts[hit[0]].append((tuple(r[:m]) + block(r, hit[0]), f))
        else:
            first_rows.append((tuple(r[:m]), f))
    costs = [(0,) * m + block(obj.c, i) for i in range(N)]
    x, ys = tuple(z[:m]), [block(z, i) for i in range(N)]
    cur = _dense_value(obj.c, obj.rows, z)
    vs = sorted(set(first_stage) | {(0,) * m})
    if lengths is None:
        lengths = range(1, max([0] + [u - l for l, u in zip(lower, upper)]) + 1)
    best = None
    for alpha in lengths:
        top = None
        for v in vs:
            x2 = _shifted_in_box(x, v, alpha, lower[:m], upper[:m])
            if x2 is None:
                continue
            ws_pool = tuple(pool(v))
            if all(s == 0 for s in mul(T, v)) and (0,) * n not in ws_pool:
                ws_pool += ((0,) * n,)
            total = _dense_value(obj.c[:m], first_rows, x2)
            ws = []
            for i in range(N):
                pick = None
                for w in ws_pool:
                    y2 = _shifted_in_box(ys[i], w, alpha, block(lower, i), block(upper, i))
                    if y2 is not None:
                        cand = (_dense_value(costs[i], parts[i], x2 + y2), w)
                        pick = cand if pick is None or cand < pick else pick
                if pick is None:
                    break
                total += pick[0]
                ws.append(pick[1])
            else:
                cand = (total, v, tuple(ws))
                top = cand if top is None or cand < top else top
        if top is not None and top[0] < cur:
            cand = (top[0], alpha, top[1] + sum(top[2], ()))
            best = cand if best is None or cand < best else best
    if best is None:
        return None
    total, alpha, move = best
    return move, alpha, total


def _layout_col(m, n, i, j):
    """Flat column of coordinate j of a block composite over (x, y):
    x's own column for j < m, else column j - m of block i."""
    return j if j < m else m + i * n + (j - m)


def layout_matrix(T, A, B, m, n, N):
    """Block matrix over (x, y^(1), ..., y^(N)) as plain lists: each
    coupling row of B on every block, then per block i the rows of T on
    x with A on y^(i).  T holds one row of m entries per row of A."""
    rows = []
    for b in B:
        row = [0] * (m + N * n)
        for i in range(N):
            for j in range(n):
                row[_layout_col(m, n, i, m + j)] = b[j]
        rows.append(row)
    for i in range(N):
        for t, a in zip(T, A):
            row = [0] * (m + N * n)
            for j, e in enumerate(list(t) + list(a)):
                row[_layout_col(m, n, i, j)] = e
            rows.append(row)
    return rows


def layout_box(rhs0, rhs, ux, uy):
    """(right-hand side, lower, upper) of the block layout as lists, or
    None when an upper bound is negative (the box is empty)."""
    upper = list(ux) + [u for block in uy for u in block]
    if min(upper, default=0) < 0:
        return None
    return list(rhs0) + [b for block in rhs for b in block], [0] * len(upper), upper


def layout_objective(objs, m, n):
    """(costs, rows) of the flat objective of per-block composites, each
    given as (costs, rows) over (x, y): block i acts on x and y^(i)."""
    N = len(objs)
    c = [0] * (m + N * n)
    rows = []
    for i, (ci, ri) in enumerate(objs):
        for j, e in enumerate(ci):
            c[_layout_col(m, n, i, j)] += e
        for r, f in ri:
            row = [0] * (m + N * n)
            for j, e in enumerate(r):
                row[_layout_col(m, n, i, j)] = e
            rows.append((row, f))
    return c, rows
