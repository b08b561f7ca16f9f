"""Each output check of the benchmark passes a right answer and rejects
a wrong one.

    python3 -m pytest graverbench -q
"""

import json
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
os.environ["GRAVER_OPT_PURE"] = "1"
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _neg(v):
    return tuple(-a for a in v)


# ------------------------------------------------------------- test sets


def test_bruteforce_known_bases():
    # (1 1 1): the differences of unit vectors
    want = {(1, -1, 0), (1, 0, -1), (0, 1, -1)}
    want |= {_neg(v) for v in want}
    assert checks.graver_bruteforce(((1, 1, 1),), 3) == want
    # (1 2): a single primitive direction
    assert checks.graver_bruteforce(((1, 2),), 2) == {(2, -1), (-2, 1)}
    # (1 2 3): the 10 primitive-partition moves and their negatives
    assert len(checks.graver_bruteforce(((1, 2, 3),), 3)) == 10


def test_testset_faults_reject_each_defect():
    A = ((1, 1, 1),)
    good = sorted(checks.graver_bruteforce(A, 3))
    assert checks.testset_faults(A, 3, good) == []
    assert checks.testset_faults(A, 3, good + [(1, 1, -2), (-1, -1, 2)])  # conforming sum
    assert checks.testset_faults(A, 3, good[1:])  # negation missing
    assert checks.testset_faults(A, 3, good + [(1, 1, 0), (-1, -1, 0)])  # not in the kernel
    assert checks.testset_faults(A, 3, good + [(0, 0, 0)])  # zero element
    assert checks.testset_faults(A, 3, [])


def test_testsets_cold_ops_check_the_program():
    wl = workloads.TestsetsCold(seed=5)
    wl.setup()
    ops = wl.round(0)
    brute = [op for op in ops if op.kind == "flat"]
    for op in ops:
        out = op.call()
        assert op.check(out) == [], op.kind
    # a closed, antichain set that is still incomplete: only the brute
    # force notices
    op = brute[0]
    out = op.call()
    e = max(out, key=lambda v: sum(map(abs, v)))
    short = [v for v in out if v not in (e, _neg(e))]
    assert op.check(short) == ["differs from the brute-force enumeration"]


def test_linesum_count_check():
    wl = workloads.TestsetsCold(seed=5)
    wl.setup()
    (op,) = wl.final_ops()
    # a basic 2x2x2 move: a valid, closed, antichain set of the wrong size
    move = [0] * 27
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        move[(k * 3 + i) * 3 + j] = 1
    for i, j, k in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)):
        move[(k * 3 + i) * 3 + j] = -1
    move = tuple(move)
    faults = op.check([move, _neg(move)])
    assert faults == ["2 elements, expected 1590"]


# ----------------------------------------------------------------- decoding


def test_decode_check():
    book = checks.codebook(2, 1, 2)
    assert len(book) == 68
    wl = workloads.DecodeWarm(seed=1)
    wl.book = book
    for op in wl.round(0):
        received = op.check.__defaults__[0]
        p = op.check.__defaults__[1]
        best = min(book, key=lambda w: checks.distance(w, received, p))
        d = checks.distance(best, received, p)
        assert op.check((best, d)) == []
        assert op.check((best, d + 1))  # wrong distance
        worse = max(book, key=lambda w: checks.distance(w, received, p))
        assert op.check((worse, checks.distance(worse, received, p)))  # not closest
        broken = [[list(r) for r in q] for q in best]
        broken[0][0][0] = 1 - broken[0][0][0]
        broken = tuple(tuple(tuple(r) for r in q) for q in broken)
        assert op.check((broken, checks.distance(broken, received, p)))  # line sums


# -------------------------------------------------------------- documents


def test_flow_certificate():
    # two suppliers, two customers; crossing is cheaper than going straight
    fns = [[lambda v: 5 * v, lambda v: v], [lambda v: v, lambda v: 5 * v]]
    caps = [[1, 1], [1, 1]]
    assert checks.flow_faults([1, 1], [1, 1], caps, fns, [[0, 1], [1, 0]]) == []
    assert checks.flow_faults([1, 1], [1, 1], caps, fns, [[1, 0], [0, 1]])  # negative cycle
    assert checks.flow_faults([1, 1], [1, 1], caps, fns, [[1, 1], [0, 0]])  # infeasible


def test_lp_vertex_enumeration():
    # min -x1 - x2 with x1 + 2 x2 + s = 4, bounds 3: optimum x1 = 3, x2 = 1/2
    assert checks.lp_optimum(((1, 2, 1),), (4,), (3, 3, 4), (-1, -1, 0)) == Fraction(-7, 2)


def test_twostage_recourse_enumeration():
    # x + y_i = b_i; cost per scenario x - y_i favours y
    T, W = ((1,),), ((1,),)
    opt = checks.twostage_optimum(T, W, [(3,), (2,)], (3,), [(3,), (2,)], [(1,), (1,)], [(-1,), (-1,)])
    assert opt == -5  # x = 0, y = (3, 2)


def test_solve_docs_ops_reject_wrong_answers():
    workdir = tempfile.mkdtemp(prefix="graverbench-test-")
    try:
        wl = workloads.SolveDocs(seed=7, workdir=workdir)
        wl.setup()
        kinds = set()
        for op in wl.round(0):
            code, text = op.call()
            assert op.check((code, text)) == [], op.kind
            res = json.loads(text)
            worse = dict(res, value=str(Fraction(res["value"]) + 1))
            assert op.check((code, json.dumps(worse))), op.kind
            point = list(res["point"])
            point[0] = Fraction(point[0]) + 1
            point[0] = str(point[0]) if point[0].denominator != 1 else int(point[0])
            assert op.check((code, json.dumps(dict(res, point=point)))), op.kind
            assert op.check((1, json.dumps(dict(res, status="infeasible")))), op.kind
            kinds.add(op.kind)
        assert kinds == {"twostage", "transportation-2", "transportation-3", "table3", "ip", "lp"}
    finally:
        shutil.rmtree(workdir)


def _worst_point(kind, doc):
    """A feasible point of the document with the largest objective value
    and that value, by enumeration."""
    p, obj = doc["payload"], doc["objective"]
    if kind in ("ip", "lp"):
        terms = [(tuple(r["coeffs"]), 1, 2, r["fn"]["shift"]) for r in obj.get("rows", [])]
        pts = list(checks.box_points(p["A"], p["b"], p["upper"]))
        z = max(pts, key=lambda z: checks.composite_value(obj["c"], terms, z))
        return list(z), checks.composite_value(obj["c"], terms, z)
    if kind == "table3":
        L, M, N = p["L"], p["M"], p["N"]
        blocks = obj["blocks"]

        def value(layers):
            return sum(
                checks.composite_value(blocks[k]["c"], [], layers[k])
                + sum((layers[k][j] - blocks[k]["rows"][j]["fn"]["shift"]) ** 2 for j in range(L * M))
                for k in range(N)
            )

        pts = list(checks.table_points(L, M, N, p["r"], p["s"], p["t"], p["caps"]))
        worst = max(pts, key=value)
        return [v for layer in worst for v in layer], value(worst)
    # twostage: over the first-stage points, the costliest feasible
    # recourse of every scenario
    T, W, N = p["T"], p["W"], p["N"]
    m = len(T[0])
    cx = [blk["c"][:m] for blk in obj["blocks"]]
    cy = [blk["c"][m:] for blk in obj["blocks"]]
    worst = None
    for x in checks.box_points([[0] * m], [0], p["ux"]):
        ys = []
        for i in range(N):
            need = [p["b"][i][0] - checks.mat_vec(T, x)[0]]
            feas = list(checks.box_points(W, need, p["uy"][i]))
            if not feas:
                break
            ys.append(max(feas, key=lambda y: sum(a * v for a, v in zip(cy[i], y))))
        else:
            v = checks.twostage_value(cx, cy, x, ys)
            if worst is None or v > worst[1]:
                worst = (list(x) + [q for y in ys for q in y], v)
    return worst


def test_optimum_checks_reject_feasible_non_optimal_points():
    """A feasible point that is not optimal, reported with its own value,
    is still rejected by the exhaustive, vertex and scenario-wise optima."""
    workdir = tempfile.mkdtemp(prefix="graverbench-test-")
    try:
        wl = workloads.SolveDocs(seed=7, workdir=workdir)
        wl.setup()
        rng = random.Random(0)
        rejected = set()
        for make, kind in ((wl._ip, "ip"), (wl._lp, "lp"), (wl._table3, "table3"), (wl._twostage, "twostage")):
            for r in range(40):
                if kind in rejected:
                    break
                _, _, doc, check = make(rng, r, r % 3)
                point, value = _worst_point(kind, doc)
                faults = check(point, value)
                if faults:
                    assert all("optimum" in f for f in faults), faults
                    rejected.add(kind)
        assert rejected == {"ip", "lp", "table3", "twostage"}
    finally:
        shutil.rmtree(workdir)
