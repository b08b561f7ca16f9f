"""End-to-end acceptance checks, one test per criterion, in order.

Each test prints a single "criterion NN: PASS/FAIL" line on the real
stdout and enforces its runtime budget.  Every CLI invocation made here
is recorded; the final criterion replays all of them with four threads
and requires byte-identical output modulo wall_ms.
"""

import io
import itertools
import os
import random
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from math import inf
from pathlib import Path
from time import perf_counter

import pytest

from graveropt import bruteforce
from graveropt.augment import (
    FeasibleBox,
    naive_lp_greedy,
    solve_ip_greedy,
    solve_lp_circuit,
)
from graveropt.cli import main as cli_main
from graveropt.documents import FORMAT_VERSION, parse, to_json
from graveropt.errors import Infeasible
from graveropt.graver import circuits, decompose, graver, graver_composite
from graveropt.linalg import Mat
from graveropt.models import DecodingSpec, decode, encode, linf_q
from graveropt.nfold import analyze_pair, build_nfold_matrix, lift_graver
from graveropt.objective import (
    AbsPower,
    CompositeObjective,
    LinearObjective,
    evaluate,
)
from graveropt.twostage import (
    TwoStageInstance,
    build_twostage_matrix,
    extract_building_blocks,
    improving_vector,
    solve_twostage,
)

from _oracles import assert_step_bound, minimal_kernel_in_box

EX_A = Mat(((2, 1, 0, 1, 0, 0), (1, 2, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)))
EX_B = (2, 2, 1)
EX_C = (1, 1, -1, 0, 0, 0)
EX_UPPER = (2, 2, 1, 2, 2, 1)
EX_Z0 = (0, 1, 0, 1, 0, 1)
EX_CIRCUITS = {
    (1, 0, 0, -2, -1, 0),
    (0, 1, 0, -1, -2, 0),
    (1, -2, 0, 0, 3, 0),
    (2, -1, 0, -3, 0, 0),
    (0, 0, 1, 0, 0, -1),
}

SQ = AbsPower(1, 2)
SQ_DOC = {"kind": "abs_power", "scale": 1, "power": 2, "shift": 0}

DOCDIR = Path(tempfile.mkdtemp(prefix="graveropt-acceptance-"))
REGISTRY = []  # (argv, stdout) of every successful CLI run in criteria 1-10


def run_cli(argv, expect=0):
    out_buf, err_buf = io.StringIO(), io.StringIO()
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        code = cli_main(list(argv))
    out = out_buf.getvalue()
    assert code == expect, (argv, code, err_buf.getvalue())
    REGISTRY.append((tuple(argv), out))
    return out


def write_doc(doc, name):
    path = DOCDIR / name
    path.write_text(to_json(doc))
    return str(path)


def _report(n, status, dt):
    print("criterion %02d: %s (%.2fs)" % (n, status, dt), file=sys.__stdout__, flush=True)


@contextmanager
def criterion(n, budget=None):
    t0 = perf_counter()
    try:
        yield
        dt = perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError("criterion %d: %.1fs over the %ds budget" % (n, dt, budget))
    except BaseException:
        _report(n, "FAIL", perf_counter() - t0)
        raise
    _report(n, "PASS", dt)


def lp_example_doc(z0=EX_Z0):
    return {
        "format_version": FORMAT_VERSION,
        "kind": "lp",
        "payload": {
            "A": [list(r) for r in EX_A.data],
            "b": list(EX_B),
            "lower": [0] * 6,
            "upper": list(EX_UPPER),
            "z0": list(z0),
        },
        "objective": {"kind": "linear", "c": list(EX_C)},
    }


def test_criterion_01():
    with criterion(1, budget=1.0):
        path = write_doc(lp_example_doc(), "c01.json")
        out = run_cli(["basis", path, "--circuits"])
        doc = parse(out)
        got = {tuple(e) for e in doc["elements"]}
        assert doc["count"] == 10
        assert got == EX_CIRCUITS | {tuple(-x for x in e) for e in EX_CIRCUITS}


def test_criterion_02():
    with criterion(2, budget=1.0):
        box = FeasibleBox(EX_A, EX_B, (0,) * 6, EX_UPPER)
        z, trace = solve_lp_circuit(EX_Z0, circuits(EX_A), LinearObjective(EX_C), box)
        assert z == (0, 0, 1, 2, 2, 0)
        assert trace.values()[-1] == -1
        path = write_doc(lp_example_doc(), "c02.json")
        doc = parse(run_cli(["solve", path, "--trace"]))
        assert doc["point"] == [0, 0, 1, 2, 2, 0]
        assert doc["value"] == "-1"

        zigzag = (
            (1, -2, 0, 0, 3, 0),
            (-1, 2, 0, 0, -3, 0),
            (2, -1, 0, -3, 0, 0),
            (-2, 1, 0, 3, 0, 0),
        )
        values, _ = naive_lp_greedy(EX_Z0, zigzag, LinearObjective(EX_C), box, max_iter=10)
        assert list(values) == [Fraction(1, 2**k) for k in range(11)]
        assert values[-1] > -1  # ten moves and still short of the optimum


def _random_matrix(rng, rows, cols, lo=-3, hi=3):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def test_criterion_03():
    with criterion(3, budget=120.0):
        rng = random.Random(20260814)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 5)
            m = rng.randint(1, max(1, n - 1))
            A_rows = _random_matrix(rng, m, n)
            A = Mat(A_rows, cols=n)
            G = set(graver(A).elements)
            radius = max([2] + [abs(x) for g in G for x in g])
            if radius > 7:
                # keep the independent box enumeration tractable
                continue
            oracle = set(minimal_kernel_in_box([list(r) for r in A_rows], radius))
            assert G == oracle, A_rows
            # completeness witness: a larger box reveals nothing new
            assert oracle == set(
                minimal_kernel_in_box([list(r) for r in A_rows], radius + 2)
            ), A_rows
            assert set(circuits(A).elements) <= G, A_rows
            checked += 1


C4_RECORDS = None


def c4_records():
    """Criterion-4 instances with library solves and CLI oracle values."""
    global C4_RECORDS
    if C4_RECORDS is not None:
        return C4_RECORDS
    rng = random.Random(99)
    records = []
    while len(records) < 200:
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        A = Mat(_random_matrix(rng, m, n, -2, 2), cols=n)
        upper = tuple(rng.randint(1, 6) for _ in range(n))
        x0 = tuple(rng.randint(0, u) for u in upper)
        box = FeasibleBox(A, A.mul_vec(x0), (0,) * n, upper)
        if len(records) % 2:
            obj = LinearObjective(tuple(rng.randint(-3, 3) for _ in range(n)))
            basis = graver(A)
            s = 0
        else:
            row = (0,) * n
            while not any(row):
                row = tuple(rng.randint(-1, 1) for _ in range(n))
            obj = CompositeObjective(
                tuple(rng.randint(-1, 1) for _ in range(n)), ((row, SQ),)
            )
            basis = graver_composite(A, Mat((row,), cols=n))
            s = 1
        z0 = bruteforce.first_feasible(box)
        z, trace = solve_ip_greedy(z0, basis, obj, box)
        path = write_doc(
            {
                "format_version": FORMAT_VERSION,
                "kind": "ip",
                "payload": {
                    "A": [list(r) for r in A.data],
                    "b": list(box.b),
                    "lower": [0] * n,
                    "upper": list(upper),
                },
                "objective": {"kind": "linear", "c": list(obj.c)}
                if s == 0
                else {
                    "kind": "composite",
                    "c": list(obj.c),
                    "rows": [{"coeffs": list(row), "fn": SQ_DOC}],
                },
            },
            "c04-%03d.json" % len(records),
        )
        oracle_doc = parse(run_cli(["oracle", path]))
        opt = Fraction(oracle_doc["value"])
        records.append(
            {
                "A": A,
                "box": box,
                "obj": obj,
                "n": n,
                "s": s,
                "value": evaluate(obj, z),
                "opt": opt,
                "trace": trace,
            }
        )
    C4_RECORDS = records
    return records


def test_criterion_04():
    with criterion(4, budget=120.0):
        records = c4_records()
        assert len(records) >= 200
        for rec in records:
            assert rec["value"] == rec["opt"]


def test_criterion_05():
    with criterion(5):
        for rec in c4_records():
            trace = rec["trace"]
            n, s = rec["n"], rec["s"]
            n_eff = 2 * n - 2 if s == 0 else 2 * (n + s) - 2
            assert trace.n_eff == n_eff
            assert_step_bound(trace, rec["opt"])


def test_criterion_06():
    with criterion(6):
        rng = random.Random(7)
        done = 0
        for rec in c4_records():
            if done >= 120:
                break
            box = rec["box"]
            pts = list(itertools.islice(bruteforce.enumerate_feasible(box), 400))
            if len(pts) < 2:
                continue
            G = graver(rec["A"])
            bound = 2 * rec["n"] - 2
            for _ in range(2):
                z1, z2 = rng.sample(pts, 2)
                target = tuple(a - b for a, b in zip(z1, z2))
                dec = decompose(target, G, bound)
                total = [0] * rec["n"]
                seen = set()
                for coeff, g in dec.terms:
                    assert coeff > 0 and g in G
                    seen.add(g)
                    total = [t + coeff * x for t, x in zip(total, g)]
                assert tuple(total) == target
                assert len(seen) <= bound
                done += 1
        assert done >= 100


NFOLD_PAIRS = (
    (Mat(((1, 1),)), Mat(((1, 0),))),
    (Mat(((1, 2),)), Mat(((0, 1),))),
    (Mat(((1, 1),)), Mat.identity(2)),
    (Mat(((1, 1, 1),)), Mat.identity(3)),
)


def test_criterion_07():
    with criterion(7, budget=180.0):
        for A, B in NFOLD_PAIRS:
            seed = analyze_pair(A, B)
            g = seed.generator_type_bound
            n = A.cols
            for N in (g, g + 1, g + 2):
                lifted = set(lift_graver(seed, N))
                direct = set(graver(build_nfold_matrix(A, B, N)).elements)
                assert lifted == direct, (A.to_lists(), B.to_lists(), N)
                for e in direct:
                    bricks = [e[i * n : (i + 1) * n] for i in range(N)]
                    assert sum(1 for w in bricks if any(w)) <= g


def congestion_doc():
    block = {
        "kind": "composite",
        "c": [0, 0],
        "rows": [
            {"coeffs": [1, 0], "fn": SQ_DOC},
            {"coeffs": [0, 1], "fn": SQ_DOC},
        ],
    }
    return {
        "format_version": FORMAT_VERSION,
        "kind": "transportation",
        "payload": {"supplies": [3, 3], "demands": [2, 2, 2], "caps": 3},
        "objective": {"kind": "blocks", "blocks": [block] * 3},
    }


def table_doc():
    rng = random.Random(4)
    L, M, N = 2, 2, 4
    arr = [[[rng.randint(0, 1) for _ in range(N)] for _ in range(M)] for _ in range(L)]
    r = [[sum(arr[i][j][k] for i in range(L)) for k in range(N)] for j in range(M)]
    s = [[sum(arr[i][j][k] for j in range(M)) for k in range(N)] for i in range(L)]
    t = [[sum(arr[i][j][k] for k in range(N)) for j in range(M)] for i in range(L)]
    ones_dist = {"kind": "abs_power", "scale": 1, "power": 2, "shift": 1}
    block = {
        "kind": "composite",
        "c": [0, 0, 0, 0],
        "rows": [
            {"coeffs": [1 if c == j else 0 for c in range(4)], "fn": ones_dist}
            for j in range(4)
        ],
    }
    return {
        "format_version": FORMAT_VERSION,
        "kind": "table3",
        "payload": {"L": L, "M": M, "N": N, "r": r, "s": s, "t": t, "caps": 1},
        "objective": {"kind": "blocks", "blocks": [block] * N},
    }


def test_criterion_08():
    with criterion(8, budget=60.0):
        path = write_doc(congestion_doc(), "c08-congestion.json")
        solved = parse(run_cli(["solve", path]))
        oracle = parse(run_cli(["oracle", path]))
        assert solved["value"] == oracle["value"] == "6"

        path = write_doc(table_doc(), "c08-table.json")
        solved = parse(run_cli(["solve", path]))
        oracle = parse(run_cli(["oracle", path]))
        assert solved["value"] == oracle["value"] == "9"


def _c9_instance(rng, k):
    m = rng.choice((1, 2))
    n = rng.choice((1, 2))
    N = rng.choice((1, 3))
    T = Mat(_random_matrix(rng, 1, m, -1, 1), cols=m)
    W = Mat(_random_matrix(rng, 1, n, -1, 1), cols=n)
    ux = tuple(rng.randint(1, 3) for _ in range(m))
    uy = tuple(tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(N))
    xs = tuple(rng.randint(0, u) for u in ux)
    b = []
    for i in range(N):
        y = tuple(rng.randint(0, u) for u in uy[i])
        b.append(tuple(p + q for p, q in zip(T.mul_vec(xs), W.mul_vec(y))))
    if k % 2:
        objs = tuple(
            CompositeObjective(tuple(rng.randint(-2, 2) for _ in range(m + n)), ())
            for _ in range(N)
        )
    else:
        row = (0,) * (m + n)
        while not any(row):
            row = tuple(rng.randint(0, 1) for _ in range(m + n))
        objs = tuple(
            CompositeObjective((0,) * (m + n), ((row, SQ),)) for _ in range(N)
        )
    return TwoStageInstance(T, W, N, tuple(b), ux, uy, objs)


def twostage_to_doc(inst):
    from graveropt.documents import instance_to_doc

    return instance_to_doc("twostage", inst)


def test_criterion_09():
    with criterion(9, budget=120.0):
        # kernel membership is exactly blockwise membership, 1000 vectors
        rng = random.Random(1009)
        hits = 0
        for trial in range(1000):
            m = rng.choice((1, 2))
            n = rng.choice((1, 2))
            N = rng.choice((1, 2, 3))
            T = Mat(_random_matrix(rng, 1, m, -2, 2), cols=m)
            W = Mat(_random_matrix(rng, 1, n, -2, 2), cols=n)
            M = build_twostage_matrix(T, W, N)
            z = tuple(rng.randint(-2, 2) for _ in range(m + N * n))
            v = z[:m]
            blockwise = all(
                all(
                    a + b == 0
                    for a, b in zip(
                        T.mul_vec(v), W.mul_vec(z[m + i * n : m + (i + 1) * n])
                    )
                )
                for i in range(N)
            )
            assert blockwise == (not any(M.mul_vec(z)))
            hits += blockwise
        assert 0 < hits < 1000

        rng = random.Random(11)
        for k in range(50):
            inst = _c9_instance(rng, k)
            z, _ = solve_twostage(inst)
            inst.check_feasible(z)
            value = inst.value(z)
            path = write_doc(twostage_to_doc(inst), "c09-%02d.json" % k)
            assert parse(run_cli(["solve", path]))["value"] == str(value)
            assert Fraction(parse(run_cli(["oracle", path]))["value"]) == value

        # one-step certificate == brute-force optimality, every feasible point
        rng = random.Random(5)
        points = 0
        for k in range(20):
            m = rng.choice((1, 2))
            n = rng.choice((1, 2))
            N = rng.choice((1, 2))
            T = Mat(_random_matrix(rng, 1, m, -1, 1), cols=m)
            W = Mat(_random_matrix(rng, 1, n, -1, 1), cols=n)
            ux = tuple(rng.randint(1, 2) for _ in range(m))
            uy = tuple(tuple(rng.randint(1, 2) for _ in range(n)) for _ in range(N))
            xs = tuple(rng.randint(0, u) for u in ux)
            b = []
            for i in range(N):
                y = tuple(rng.randint(0, u) for u in uy[i])
                b.append(tuple(p + q for p, q in zip(T.mul_vec(xs), W.mul_vec(y))))
            objs = tuple(
                CompositeObjective(tuple(rng.randint(-2, 2) for _ in range(m + n)), ())
                for _ in range(N)
            )
            inst = TwoStageInstance(T, W, N, tuple(b), ux, uy, objs)
            blocks = extract_building_blocks(T, W, cap=4)
            feas = list(_twostage_points(inst))
            opt = min(inst.value(p) for p in feas)
            for p in feas:
                certified = improving_vector(p, blocks, inst) is None
                assert certified == (inst.value(p) == opt)
                points += 1
        assert points >= 100


def _twostage_points(inst):
    from graveropt.twostage import TwoStagePoint

    for x in itertools.product(*(range(u + 1) for u in inst.ux)):
        tx = inst.T.mul_vec(x)
        per = []
        for i in range(inst.N):
            ok = [
                y
                for y in itertools.product(*(range(u + 1) for u in inst.uy[i]))
                if tuple(a + b for a, b in zip(tx, inst.W.mul_vec(y))) == inst.b[i]
            ]
            per.append(ok)
        if any(not p for p in per):
            continue
        for ys in itertools.product(*per):
            yield TwoStagePoint(x, ys)


def _codebook():
    words = []
    for bits in itertools.product((0, 1), repeat=8):
        msg = tuple(
            tuple(tuple(bits[4 * i + 2 * j + k] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        try:
            words.append((msg, encode(msg, 1, 2)))
        except Infeasible:
            continue
    return words


def _corrupt(rng, word):
    i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(3)
    delta = rng.choice((-1, 1))
    v = word[i][j][k] + delta
    if not 0 <= v <= 2:
        v = word[i][j][k] - delta
    grid = [[list(r) for r in p] for p in word]
    grid[i][j][k] = v
    return tuple(tuple(tuple(r) for r in p) for p in grid)


def test_criterion_10():
    with criterion(10, budget=60.0):
        book = _codebook()
        assert len(book) == 68
        rng = random.Random(3)
        encodable = [m for m, _ in book]
        for trial in range(50):
            msg, word = book[rng.randrange(len(book))]
            received = _corrupt(rng, word)
            res = decode(DecodingSpec((2, 2, 2), 1, 2, received, 1))
            assert res.message == msg
            assert res.distance == 1
            assert res.q is None
            if trial == 0:
                path = write_doc(
                    {
                        "format_version": FORMAT_VERSION,
                        "kind": "decode",
                        "payload": {
                            "dims": [2, 2, 2],
                            "u": 1,
                            "U": 2,
                            "received": [[list(r) for r in p] for p in received],
                            "p": 1,
                        },
                        "objective": None,
                    },
                    "c10-p1.json",
                )
                assert parse(run_cli(["solve", path]))["value"] == "1"

        for trial in range(8):
            msg, word = book[rng.randrange(len(book))]
            received = _corrupt(rng, word)
            res = decode(DecodingSpec((2, 2, 2), 1, 2, received, inf))
            best = min(
                max(
                    abs(w[i][j][k] - received[i][j][k])
                    for i in range(3)
                    for j in range(3)
                    for k in range(3)
                )
                for _, w in book
            )
            assert res.distance == best
            assert res.q == linf_q(27, 2) == 15
            if trial == 0:
                path = write_doc(
                    {
                        "format_version": FORMAT_VERSION,
                        "kind": "decode",
                        "payload": {
                            "dims": [2, 2, 2],
                            "u": 1,
                            "U": 2,
                            "received": [[list(r) for r in p] for p in received],
                            "p": "inf",
                        },
                        "objective": None,
                    },
                    "c10-pinf.json",
                )
                assert parse(run_cli(["solve", path]))["value"] == str(best)


def _canonical(out):
    doc = parse(out)
    if "stats" in doc:
        doc["stats"].pop("wall_ms", None)
    return to_json(doc)


def test_criterion_11():
    with criterion(11):
        assert REGISTRY, "criteria 1-10 must run first in the same session"
        for argv, out in list(REGISTRY):
            if argv[0] == "solve":
                replay = list(argv) + ["--threads", "4"]
                env_threads = None
            else:
                replay = list(argv)
                env_threads = "4"
            out_buf, err_buf = io.StringIO(), io.StringIO()
            old = os.environ.get("GRAVER_OPT_THREADS")
            try:
                if env_threads is not None:
                    os.environ["GRAVER_OPT_THREADS"] = env_threads
                with redirect_stdout(out_buf), redirect_stderr(err_buf):
                    code = cli_main(replay)
            finally:
                if old is None:
                    os.environ.pop("GRAVER_OPT_THREADS", None)
                else:
                    os.environ["GRAVER_OPT_THREADS"] = old
            assert code == 0, (replay, err_buf.getvalue())
            assert _canonical(out_buf.getvalue()) == _canonical(out), replay
