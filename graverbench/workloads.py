"""The three benchmark workloads.

A workload builds its inputs from the seed, round by round: round r of
seed s is the same list of operations in every run.  Each operation is
one call into graveropt; its output is kept and checked after the timed
loop against the computations in checks.py.  An operation carries a
shape key; the first operation with a given key is a first sight, which
for the cached paths of solve-docs is the one that pays extraction or
phase one.
"""

import io
import json
import os
import random
import shutil
from contextlib import redirect_stdout
from fractions import Fraction
from importlib import import_module
from itertools import product

import checks


def _mod(name):
    # Look functions up on their module at call time, so the tracer's
    # wrappers are the ones called.
    return import_module("graveropt." + name)


class Op:
    __slots__ = ("kind", "key", "call", "check")

    def __init__(self, kind, key, call, check):
        self.kind = kind
        self.key = key
        self.call = call
        self.check = check


def _rand_rows(rng, rows, cols, lo, hi):
    while True:
        M = tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))
        if all(any(r) for r in M) and checks.rank(M, cols) == rows:
            return M


def _hstack(*blocks):
    return tuple(sum((b[i] for b in blocks), ()) for i in range(len(blocks[0])))


def _identity(k, sign=1):
    return tuple(tuple(sign if i == j else 0 for j in range(k)) for i in range(k))


def _zeros(r, c):
    return tuple((0,) * c for _ in range(r))


def twostage_matrix(T, W, N):
    """Rows T x + W y_i for every scenario i."""
    d, m, n = len(T), len(T[0]), len(W[0])
    rows = []
    for i in range(N):
        for r in range(d):
            rows.append(T[r] + (0,) * (i * n) + W[r] + (0,) * ((N - 1 - i) * n))
    return tuple(rows)


def transportation_matrix(n, N):
    """Coupling rows (supplier totals) over per-customer demand rows;
    column k*n + s is the flow from supplier s to customer k."""
    rows = [tuple(1 if c % n == s else 0 for c in range(n * N)) for s in range(n)]
    rows += [tuple(1 if c // n == k else 0 for c in range(n * N)) for k in range(N)]
    return tuple(rows)


def linesum_matrix(m):
    """All line sums of an m x m x m array, columns in the layout of
    graveropt's line-sum builder: cell (i, j, k) is column (k*m + i)*m + j."""
    rows = []
    cells = [(i, j, k) for k in range(m) for i in range(m) for j in range(m)]
    for axis in range(3):
        for a, b in product(range(m), repeat=2):
            rows.append(
                tuple(
                    1 if tuple(c for ax, c in enumerate(cell) if ax != axis) == (a, b) else 0
                    for cell in cells
                )
            )
    return tuple(rows)


def _permute_cols(M, perm):
    return tuple(tuple(row[p] for p in perm) for row in M)


# ------------------------------------------------------------ testsets-cold


# Flat shapes stop at five columns with two or three rows: with entries
# in [-3, 3], 2x6 and 3x6 matrices take from under 1 ms to over 6 s, so
# a run's throughput would hang on a few draws.
FLAT_SHAPES = ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5)) * 2
TRANSPORT_SHAPES = ((2, (3, 4, 5)), (3, (2, 3)))
LINESUM_333_SIZE = 1590
# (T, W) pairs of the two-stage documents of solve-docs.
TWOSTAGE_PAIRS = (
    (((1,),), ((1, 1),)),
    (((1, -1),), ((1,),)),
    (((1,),), ((-1,),)),
)
# Pairs whose stacked matrices testsets-cold computes cold: the last two
# of solve-docs and three more alike.  The first pair of solve-docs is
# left out: its phase-one matrix at N = 4 alone takes 1.1 s, which would
# make rounds so long that their count, and with it the share of the
# 3x3x3 matrix in a run's throughput, would jump between runs.
STACKED_PAIRS = TWOSTAGE_PAIRS[1:] + (
    (((1,),), ((1,),)),
    (((1, 0),), ((1,),)),
    (((1,),), ((1, 0),)),
)


class TestsetsCold:
    """One graver(A) call per operation, each on a matrix new to the
    process, so every call runs the whole completion."""

    name = "testsets-cold"

    def __init__(self, seed):
        self.seed = seed
        self.seen = set()

    def setup(self):
        self.Mat = _mod("linalg").Mat
        self.linesum = linesum_matrix(3)

    def reset(self):
        """Forget the matrices seen, so that the rounds repeat exactly;
        graver keeps no cache, so a repeat costs what the first call did."""
        self.seen.clear()

    def _op(self, kind, rows, cols, brute):
        A = self.Mat(rows, cols=cols)
        self.seen.add(rows)

        def call():
            return _mod("graver").graver(A).elements

        def check(elements):
            faults = checks.testset_faults(rows, cols, elements)
            if not faults and brute:
                want = checks.graver_bruteforce(rows, cols)
                if want is not None and want != set(elements):
                    faults.append("differs from the brute-force enumeration")
            return faults

        return Op(kind, rows, call, check)

    def _fresh(self, rng, M):
        """M with its columns shuffled so that it is new to the process.
        Small matrices run out of column orders; they get zero rows
        appended, which keeps the kernel and so the test set."""
        cols = len(M[0])
        tries = 0
        while True:
            perm = list(range(cols))
            rng.shuffle(perm)
            P = _permute_cols(M, perm) + _zeros(tries // 8, cols)
            if P not in self.seen:
                return P
            tries += 1

    def round(self, r):
        rng = random.Random("%s:%s:%d" % (self.name, self.seed, r))
        ops = []
        for rows, cols in FLAT_SHAPES:
            while True:
                M = _rand_rows(rng, rows, cols, -3, 3)
                if M not in self.seen:
                    break
            ops.append(self._op("flat", M, cols, True))
        # Phase one's form of every pair at N = 1..4, the plain stacked
        # matrix of one pair (by round) at N = 1..4.  The five N = 4
        # phase-one matrices (about 0.3 s and four near 0.09 s) are an
        # eighth of the round, so the 90th percentile falls among the four
        # alike ones and the median among the N = 2 ones.
        for p, (T, W) in enumerate(STACKED_PAIRS):
            forms = [(_hstack(W, _identity(1), _identity(1, -1)), "stacked-phase-one")]
            if p == r % len(STACKED_PAIRS):
                forms.append((W, "stacked"))
            for Wb, kind in forms:
                for N in range(1, 5):
                    M = self._fresh(rng, twostage_matrix(T, Wb, N))
                    ops.append(self._op(kind, M, len(M[0]), N <= 2))
        for n, Ns in TRANSPORT_SHAPES:
            N = Ns[r % len(Ns)]
            base = transportation_matrix(n, N)
            ext = _hstack(
                base,
                _hstack(_identity(n), _identity(n, -1)) + _zeros(N, 2 * n),
            )
            for M, kind in ((base, "transportation"), (ext, "transportation-phase-one")):
                M = self._fresh(rng, M)
                ops.append(self._op(kind, M, len(M[0]), False))
        return ops

    def final_ops(self):
        """The 27-column 3x3x3 line-sum matrix, once per run."""
        op = self._op("linesum-3x3x3", self.linesum, 27, False)
        structural = op.check

        def check(elements):
            faults = structural(elements)
            if len(elements) != LINESUM_333_SIZE:
                faults.append("%d elements, expected %d" % (len(elements), LINESUM_333_SIZE))
            return faults

        op.check = check
        return [op]


# -------------------------------------------------------------- decode-warm


DECODE_N, DECODE_U_MSG, DECODE_U = 2, 1, 2
DECODE_PS = (1, 2, "inf")


class DecodeWarm:
    """models.decode on corrupted line-sum codewords with the 3x3x3 test
    set already cached: the timed part is pure augmentation."""

    name = "decode-warm"
    warm_keys = (("decode",),)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.book = checks.codebook(DECODE_N, DECODE_U_MSG, DECODE_U)
        # the first decode computes and caches the 1590-element test set
        self._decode(self.book[0], 1)

    def reset(self):
        pass

    def _decode(self, received, p):
        models = _mod("models")
        spec = models.DecodingSpec(
            (DECODE_N,) * 3, DECODE_U_MSG, DECODE_U, received, float("inf") if p == "inf" else p
        )
        res = models.decode(spec)
        return res.transmitted, res.distance

    def _corrupt(self, rng, word, cells):
        grid = [[list(r) for r in p] for p in word]
        m = DECODE_N + 1
        for _ in range(cells):
            i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(m)
            choices = [v for v in range(DECODE_U + 1) if v != grid[i][j][k]]
            grid[i][j][k] = rng.choice(choices)
        return tuple(tuple(tuple(r) for r in p) for p in grid)

    def round(self, r):
        rng = random.Random("%s:%s:%d" % (self.name, self.seed, r))
        ops = []
        for p, cells in product(DECODE_PS, (1, 2)):
            received = self._corrupt(rng, rng.choice(self.book), cells)

            def call(received=received, p=p):
                return self._decode(received, p)

            def check(out, received=received, p=p):
                transmitted, dist = out
                return checks.decode_faults(
                    received, p, transmitted, dist, self.book, DECODE_N, DECODE_U_MSG, DECODE_U
                )

            ops.append(Op("decode-p%s" % (p,), ("decode",), call, check))
        return ops

    def final_ops(self):
        return []


# --------------------------------------------------------------- solve-docs


def _abs_power(scale, power, shift):
    return {"kind": "abs_power", "scale": scale, "power": power, "shift": shift}


# Flat box documents: graveropt.cli computes their test set or circuits
# on every solve, so only the size repeats.
IP_SHAPES = ((1, 4), (2, 5))


def _doc(kind, payload, objective):
    return {"format_version": 1, "kind": kind, "payload": payload, "objective": objective}


class SolveDocs:
    """graveropt.cli.main(["solve", path]) on a stream of instance
    documents whose matrices repeat, so the in-process caches serve all
    but the first document of each shape."""

    name = "solve-docs"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.to_json = _mod("documents").to_json

    def reset(self):
        """Empty graveropt's in-process caches, as in a fresh process."""
        for name in ("nfold", "twostage"):
            for value in vars(_mod(name)).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:  # another run still has its directory there
            pass

    def _op(self, kind, key, doc, index, check):
        path = os.path.join(self.workdir, "%d.json" % (index,))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(doc))

        def call():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = _mod("cli").main(["solve", path])
            return code, buf.getvalue()

        def full_check(out):
            code, text = out
            try:
                res = json.loads(text)
            except ValueError:
                return ["exit %d, output is not JSON" % (code,)]
            if code != 0 or res.get("status") != "optimal":
                return ["exit %d, status %r" % (code, res.get("status"))]
            return check(res["point"], Fraction(res["value"]))

        return Op(kind, key, call, full_check)

    def round(self, r):
        """One document per maker.  Shapes follow the round index, so
        every run meets the same shapes in the same rounds; the data in
        the documents come from the seed."""
        rng = random.Random("%s:%s:%d" % (self.name, self.seed, r))
        # Four fast documents (ip, lp), four middling (table3,
        # transportation-3) and four slow (two-stage, transportation-2):
        # the median lies inside the middle group.
        makers = [self._twostage] * len(TWOSTAGE_PAIRS) + [
            self._transport2,
            self._transport3,
            self._table3,
            self._table3,
            self._table3,
            self._ip,
            self._ip,
            self._lp,
            self._lp,
        ]
        ops = []
        for i, make in enumerate(makers):
            kind, key, doc, check = make(rng, r, i)
            ops.append(self._op(kind, key, doc, len(ops), check))
        return ops

    def final_ops(self):
        return []

    # -- two-stage

    def _twostage(self, rng, r, i):
        T, W = TWOSTAGE_PAIRS[i]
        m, n = len(T[0]), len(W[0])
        N = 10 + (7 * r + 11 * i) % 31
        ux = [rng.randint(3, 8) for _ in range(m)]
        uy = [[rng.randint(2, 8) for _ in range(n)] for _ in range(N)]
        xs = [rng.randint(0, u) for u in ux]
        b = []
        for k in range(N):
            y = [rng.randint(0, u) for u in uy[k]]
            b.append([p + q for p, q in zip(checks.mat_vec(T, xs), checks.mat_vec(W, y))])
        cx = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(N)]
        cy = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(N)]
        doc = _doc(
            "twostage",
            {"T": [list(row) for row in T], "W": [list(row) for row in W], "N": N, "b": b, "ux": ux, "uy": uy},
            {"kind": "blocks", "blocks": [{"kind": "composite", "c": cx[k] + cy[k], "rows": []} for k in range(N)]},
        )
        opt = checks.twostage_optimum(T, W, b, ux, uy, cx, cy)

        def check(point, value):
            x = tuple(point[:m])
            ys = [tuple(point[m + k * n : m + (k + 1) * n]) for k in range(N)]
            faults = checks.twostage_faults(T, W, b, ux, uy, x, ys)
            got = checks.twostage_value(cx, cy, x, ys)
            if got != value:
                faults.append("reported value %s, recomputed %s" % (value, got))
            if got != opt:
                faults.append("value %s, scenario-wise optimum %s" % (got, opt))
            return faults

        return "twostage", ("twostage", T, W), doc, check

    # -- transportation

    def _transport(self, rng, n, N):
        caps = [[rng.randint(1, 3) for _ in range(n)] for _ in range(N)]
        flow = [[0] * n for _ in range(N)]
        for k in range(N):
            for _ in range(rng.randint(1, 3)):
                s = rng.randrange(n)
                if flow[k][s] < caps[k][s]:
                    flow[k][s] += 1
            if not any(flow[k]):
                flow[k][0] = 1
        demands = [sum(f) for f in flow]
        supplies = [sum(flow[k][s] for k in range(N)) for s in range(n)]
        cost = [[rng.randint(0, 5) for _ in range(n)] for _ in range(N)]
        scale = [[rng.randint(0, 2) for _ in range(n)] for _ in range(N)]
        blocks = []
        for k in range(N):
            rows = [
                {"coeffs": [1 if c == s else 0 for c in range(n)], "fn": _abs_power(scale[k][s], 2, 0)}
                for s in range(n)
            ]
            blocks.append({"kind": "composite", "c": cost[k], "rows": rows})
        doc = _doc(
            "transportation",
            {"supplies": supplies, "demands": demands, "caps": caps},
            {"kind": "blocks", "blocks": blocks},
        )
        fns = [
            [(lambda v, c=cost[k][s], a=scale[k][s]: c * v + a * v * v) for s in range(n)]
            for k in range(N)
        ]

        def check(point, value):
            x = [point[k * n : (k + 1) * n] for k in range(N)]
            faults = checks.flow_faults(supplies, demands, caps, fns, x)
            if faults:
                return faults
            got = sum(fns[k][s](x[k][s]) for k in range(N) for s in range(n))
            if got != value:
                faults.append("reported value %s, recomputed %s" % (value, got))
            return faults

        return doc, check

    def _transport2(self, rng, r, i):
        N = 13 + r % 8
        doc, check = self._transport(rng, 2, N)
        return "transportation-2", ("transportation", 2, N), doc, check

    def _transport3(self, rng, r, i):
        N = 2 + r % 4
        doc, check = self._transport(rng, 3, N)
        return "transportation-3", ("transportation", 3, N), doc, check

    # -- line-sum tables

    def _table3(self, rng, r, i):
        L = M = 2
        N = 3 + (r + i) % 2
        caps = [[[rng.randint(1, 2) for _ in range(N)] for _ in range(M)] for _ in range(L)]
        arr = [[[rng.randint(0, caps[a][b][k]) for k in range(N)] for b in range(M)] for a in range(L)]
        rs = [[sum(arr[a][b][k] for a in range(L)) for k in range(N)] for b in range(M)]
        ss = [[sum(arr[a][b][k] for b in range(M)) for k in range(N)] for a in range(L)]
        ts = [[sum(arr[a][b][k] for k in range(N)) for b in range(M)] for a in range(L)]
        n = L * M
        target = [[rng.randint(0, 2) for _ in range(n)] for _ in range(N)]
        c = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(N)]
        blocks = [
            {
                "kind": "composite",
                "c": c[k],
                "rows": [
                    {"coeffs": [1 if q == j else 0 for q in range(n)], "fn": _abs_power(1, 2, target[k][j])}
                    for j in range(n)
                ],
            }
            for k in range(N)
        ]
        doc = _doc(
            "table3",
            {"L": L, "M": M, "N": N, "r": rs, "s": ss, "t": ts, "caps": caps},
            {"kind": "blocks", "blocks": blocks},
        )

        def value_of(layers):
            return sum(
                checks.composite_value(c[k], [], layers[k])
                + sum((layers[k][j] - target[k][j]) ** 2 for j in range(n))
                for k in range(N)
            )

        best = min(value_of(p) for p in checks.table_points(L, M, N, rs, ss, ts, caps))

        def check(point, value):
            layers = [tuple(point[k * n : (k + 1) * n]) for k in range(N)]
            faults = []
            if len(point) != N * n:
                return ["point has %d coordinates" % (len(point),)]
            for a, b, k in product(range(L), range(M), range(N)):
                if not 0 <= layers[k][a * M + b] <= caps[a][b][k]:
                    faults.append("cell (%d,%d,%d) leaves its cap" % (a, b, k))
            for b, k in product(range(M), range(N)):
                if sum(layers[k][a * M + b] for a in range(L)) != rs[b][k]:
                    faults.append("line sum r[%d][%d] violated" % (b, k))
            for a, k in product(range(L), range(N)):
                if sum(layers[k][a * M + b] for b in range(M)) != ss[a][k]:
                    faults.append("line sum s[%d][%d] violated" % (a, k))
            for a, b in product(range(L), range(M)):
                if sum(layers[k][a * M + b] for k in range(N)) != ts[a][b]:
                    faults.append("line sum t[%d][%d] violated" % (a, b))
            got = value_of(layers)
            if got != value:
                faults.append("reported value %s, recomputed %s" % (value, got))
            if got != best:
                faults.append("value %s, exhaustive optimum %s" % (got, best))
            return faults

        return "table3", ("table3", L, M, N), doc, check

    # -- flat boxes

    def _ip(self, rng, r, i):
        rows, cols = IP_SHAPES[(r + i) % len(IP_SHAPES)]
        A = _rand_rows(rng, rows, cols, -2, 2)
        upper = [rng.randint(1, 3) for _ in range(cols)]
        zs = [rng.randint(0, u) for u in upper]
        b = list(checks.mat_vec(A, zs))
        c = [rng.randint(-2, 2) for _ in range(cols)]
        coeffs = tuple(rng.randint(0, 1) for _ in range(cols))
        while sum(coeffs) < 2:
            coeffs = tuple(rng.randint(0, 1) for _ in range(cols))
        shift = rng.randint(0, 3)
        terms = [(coeffs, 1, 2, shift)]
        doc = _doc(
            "ip",
            {"A": [list(row) for row in A], "b": b, "lower": [0] * cols, "upper": upper},
            {"kind": "composite", "c": c, "rows": [{"coeffs": list(coeffs), "fn": _abs_power(1, 2, shift)}]},
        )
        best = checks.ip_optimum(A, b, upper, c, terms)

        def check(point, value):
            faults = checks.box_faults(A, b, upper, point)
            if faults:
                return faults
            got = checks.composite_value(c, terms, point)
            if got != value:
                faults.append("reported value %s, recomputed %s" % (value, got))
            if got != best:
                faults.append("value %s, exhaustive optimum %s" % (got, best))
            return faults

        return "ip", ("ip", rows, cols), doc, check

    def _lp(self, rng, r, i):
        rows, cols = IP_SHAPES[(r + i) % len(IP_SHAPES)]
        A = _rand_rows(rng, rows, cols, 0, 3)
        upper = [rng.randint(2, 4) for _ in range(cols)]
        zs = [rng.randint(0, u) for u in upper]
        b = list(checks.mat_vec(A, zs))
        c = [rng.randint(-3, 3) for _ in range(cols)]
        doc = _doc(
            "lp",
            {"A": [list(row) for row in A], "b": b, "lower": [0] * cols, "upper": upper},
            {"kind": "linear", "c": c},
        )
        best = checks.lp_optimum(A, b, upper, c)

        def check(point, value):
            z = [Fraction(x) for x in point]
            faults = checks.box_faults(A, b, upper, z)
            if faults:
                return faults
            got = sum(a * x for a, x in zip(c, z))
            if got != value:
                faults.append("reported value %s, recomputed %s" % (value, got))
            if got != best:
                faults.append("value %s, vertex optimum %s" % (got, best))
            return faults

        return "lp", ("lp", rows, cols), doc, check
