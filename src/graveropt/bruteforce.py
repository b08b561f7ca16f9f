"""Exhaustive enumeration over integer boxes.

This is the ground-truth side of every solver comparison: a depth-first
scan of the box with per-row interval pruning, no test sets, no
augmentation.  solve_oracle refuses boxes above a cell cap; feasibility
search (first_feasible) has no cap because the pruning collapses the
tree on the equality-heavy systems it is used for, but it is still an
exponential fallback and sized accordingly by callers.
"""

from .errors import DomainError, SearchSpaceTooLarge
from .objective import evaluate

__all__ = ["search_space", "enumerate_feasible", "first_feasible", "solve_oracle", "CELL_CAP"]

CELL_CAP = 10**7


def search_space(box):
    """Number of integer points in the bounds (ignoring equalities)."""
    total = 1
    for l, u in zip(box.lower, box.upper):
        if u is None or not isinstance(l, int) or not isinstance(u, int):
            raise DomainError("oracle needs a finite integer box")
        total *= u - l + 1
    return total


def _scan(box):
    A, b = box.A, box.b
    n = A.cols
    lower, upper = box.lower, box.upper
    rows = range(A.rows)
    # suffix extremes: tightest addable row value from coordinates j..n-1
    min_rest = [[0] * (n + 1) for _ in rows]
    max_rest = [[0] * (n + 1) for _ in rows]
    for r in rows:
        for j in range(n - 1, -1, -1):
            a = A.data[r][j]
            lo = a * lower[j] if a >= 0 else a * upper[j]
            hi = a * upper[j] if a >= 0 else a * lower[j]
            min_rest[r][j] = min_rest[r][j + 1] + lo
            max_rest[r][j] = max_rest[r][j + 1] + hi

    point = [0] * n
    partial = [[0] * len(b) for _ in range(n + 1)]

    def walk(j):
        if j == n:
            yield tuple(point)
            return
        base = partial[j]
        for v in range(lower[j], upper[j] + 1):
            ok = True
            nxt = partial[j + 1]
            for r in rows:
                s = base[r] + A.data[r][j] * v
                if s + min_rest[r][j + 1] > b[r] or s + max_rest[r][j + 1] < b[r]:
                    ok = False
                    break
                nxt[r] = s
            if ok:
                point[j] = v
                yield from walk(j + 1)

    return walk(0)


def enumerate_feasible(box):
    """Yield every integer point of the box satisfying A z = b, in
    lexicographic order."""
    for l, u in zip(box.lower, box.upper):
        if u is None or not isinstance(l, int) or not isinstance(u, int):
            raise DomainError("enumeration needs a finite integer box")
        if l > u:
            return
    if not box.dim and any(box.b):
        # with no coordinate to place, _scan would check no row
        return
    yield from _scan(box)


def first_feasible(box):
    """First feasible point in lexicographic order, or None.

    Exhaustive, so None certifies emptiness of the whole box.
    """
    for z in enumerate_feasible(box):
        return z
    return None


def solve_oracle(box, obj, cell_cap=CELL_CAP):
    """Exact optimum by full enumeration: (point, value), or None when
    the feasible set is empty.

    Ties break toward the lexicographically smallest point, matching the
    deterministic tie rules of the solvers it judges.  Boxes with more
    than cell_cap points are refused.
    """
    if search_space(box) > cell_cap:
        raise SearchSpaceTooLarge("box has more than %d points" % (cell_cap,))
    best = None
    for z in enumerate_feasible(box):
        v = evaluate(obj, z)
        if best is None or v < best[1]:
            best = (z, v)
    return best
