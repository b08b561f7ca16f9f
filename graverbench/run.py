"""graveropt benchmark: one workload per process, closed loop, one caller.

    python3 graverbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 graverbench/run.py --compare DIR_A DIR_B

Run from the root of a source checkout; graveropt is imported from its
src/ directory with the pure-Python kernels pinned (GRAVER_OPT_PURE=1,
GRAVER_OPT_THREADS unset).  The run fails unless kernels.backend_name()
is 'python'.

--trace 0 runs whole rounds of operations until S seconds have passed
(and at least MIN_OPS operations), then the workload's final operations,
and reports the end-to-end metrics.  --trace 1 instead runs rounds
untraced for S * TRACE_SHARE seconds, empties the program's caches, and
runs the same rounds again with spans on; it reports the per-layer
metrics of the traced pass and setup, and the traced wall time against
the untraced one as tracing.overhead.  Every output is checked after
the timed loop; the last line of stdout is the result JSON, which is
also written under graverbench/results/ (or --results).

--compare reads the result files of two directories and prints, per
workload and end-to-end metric, the median and quartiles of each side,
flagging a change worse than the metric's bound in BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("testsets-cold", "decode-warm", "solve-docs")
# end-to-end metrics and the direction in which they are better
END_TO_END = (
    ("setup_s", "lower"),
    ("ops_per_s", "higher"),
    ("op_ms_p50", "lower"),
    ("op_ms_p90", "lower"),
    ("peak_rss_mb", "lower"),
)
MIN_OPS = 100
TRACE_SHARE = 1 / 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=os.path.join(HERE, "results"))
    p.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload is required unless --compare is given")
    return args


def load_program(repeats=5):
    """Import graveropt from the checkout with the pure kernels pinned,
    `repeats` times from scratch; returns the median import time."""
    os.environ["GRAVER_OPT_PURE"] = "1"
    os.environ.pop("GRAVER_OPT_THREADS", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "graveropt" or m.startswith("graveropt.")]:
            del sys.modules[name]
        t = perf_counter()
        import graveropt.cli  # noqa: F401  (imports every layer)

        times.append(perf_counter() - t)
    from graveropt import kernels

    if kernels.backend_name() != "python":
        raise RuntimeError("kernel backend is %r, expected 'python'" % (kernels.backend_name(),))
    return statistics.median(times)


def make_workload(name, seed):
    import workloads

    if name == "testsets-cold":
        return workloads.TestsetsCold(seed)
    if name == "decode-warm":
        return workloads.DecodeWarm(seed)
    return workloads.SolveDocs(seed, os.path.join(HERE, "work", str(os.getpid())))


class Record:
    __slots__ = ("op", "seconds", "output", "error")

    def __init__(self, op, seconds, output, error):
        self.op = op
        self.seconds = seconds
        self.output = output
        self.error = error


def run_ops(ops, records, tracer=None):
    for op in ops:
        if tracer is not None:
            tracer.op = len(records)
        output = error = None
        t = perf_counter()
        try:
            output = op.call()
        except Exception as e:  # a failed operation is counted, the run goes on
            error = "%s: %s" % (type(e).__name__, e)
        records.append(Record(op, perf_counter() - t, output, error))


def run_pass(wl, seconds=None, rounds=None, tracer=None):
    """Whole rounds until `seconds` have passed and MIN_OPS operations
    ran (or exactly `rounds` rounds), then the final operations.
    Returns (records, rounds run)."""
    records = []
    start = perf_counter()
    r = 0
    while True:
        if rounds is not None and r >= rounds:
            break
        if rounds is None and r and perf_counter() - start >= seconds and len(records) >= MIN_OPS:
            break
        run_ops(wl.round(r), records, tracer)
        r += 1
    run_ops(wl.final_ops(), records, tracer)
    return records, r


def check(records):
    """(failed, wrong, first few faults): failed counts operations that
    raised or whose output failed its check; wrong only the latter."""
    failed = wrong = 0
    faults = []
    for i, rec in enumerate(records):
        if rec.error is not None:
            failed += 1
            faults.append("op %d (%s): %s" % (i, rec.op.kind, rec.error))
            continue
        found = rec.op.check(rec.output)
        if found:
            failed += 1
            wrong += 1
            faults.append("op %d (%s): %s" % (i, rec.op.kind, "; ".join(found)))
    return failed, wrong, faults[:20]


def end_to_end(setup_s, records):
    times = [rec.seconds for rec in records]
    deciles = statistics.quantiles(times, n=10)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_ms_p50": (statistics.median(times) * 1000, "ms"),
        "op_ms_p90": (deciles[8] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def first_sight_share(wl, records):
    seen = set(getattr(wl, "warm_keys", ()))
    first = 0
    for rec in records:
        if rec.op.key not in seen:
            seen.add(rec.op.key)
            first += 1
    return first / len(records)


def run(args):
    sys.path.insert(0, HERE)
    try:
        import_s = load_program()
    except (ImportError, RuntimeError) as e:
        print("cannot load graveropt: %s" % (e,), file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.on = True
    try:
        setup_start = perf_counter()
        wl.setup()
        setup_s = import_s + perf_counter() - setup_start
        if tracer is None:
            records, rounds = run_pass(wl, seconds=args.seconds)
            metrics = end_to_end(setup_s, records)
            all_records = records
        else:
            tracer.on = False
            plain, rounds = run_pass(wl, seconds=args.seconds * TRACE_SHARE)
            wl.reset()
            tracer.on = True
            records, _ = run_pass(wl, rounds=rounds, tracer=tracer)
            tracer.on = False
            metrics = tracer.metrics()
            plain_s = sum(rec.seconds for rec in plain)
            traced_s = sum(rec.seconds for rec in records)
            overhead = traced_s / plain_s - 1
            metrics["tracing.overhead"] = (overhead, "ratio")
            all_records = plain + records
        check_start = perf_counter()
        failed, wrong, faults = check(all_records)
        check_s = perf_counter() - check_start
    finally:
        if hasattr(wl, "close"):
            wl.close()
    for line in faults:
        print("FAULT " + line, file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec.op.kind, []).append(rec.seconds)
    kinds = {k: [len(v), sum(v), statistics.median(v) * 1000] for k, v in by_kind.items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "ops_seconds_median_ms_by_kind": kinds,
        "check_s": check_s,
        "first_sight_share": first_sight_share(wl, records),
        "result": result,
    }
    tag = "%s-seed%d" % (args.workload, args.seed)
    if tracer is not None:
        tdir = os.path.join(HERE, "traces")
        os.makedirs(tdir, exist_ok=True)
        tracer.write(os.path.join(tdir, tag + ".spans.csv.gz"))
        with open(os.path.join(tdir, tag + ".layers.txt"), "w", encoding="utf-8") as fh:
            fh.write(tracer.table())
            fh.write("\ntraced ops wall %.3f s, untraced %.3f s, overhead %.3f\n" % (traced_s, plain_s, overhead))
        print(tracer.table(), file=sys.stderr)
    os.makedirs(os.path.join(args.results, args.workload), exist_ok=True)
    with open(os.path.join(args.results, args.workload, "%s-trace%d.json" % (tag, args.trace)), "w") as fh:
        json.dump(info, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _load_side(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            info = json.load(fh)
        if info.get("trace") == 0:
            runs.setdefault(info["workload"], []).append(info["result"]["metrics"])
    return runs


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(dir_a, dir_b):
    """Print median and quartiles of both sides; flag a worsening beyond
    the bound.  Returns 1 when any metric is flagged."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    a, b = _load_side(dir_a), _load_side(dir_b)
    flagged = 0
    print("%-14s %-12s %7s %31s %31s %8s" % ("workload", "metric", "runs", "A q1/median/q3", "B q1/median/q3", "change"))
    for wl in sorted(set(a) | set(b)):
        if wl not in a or wl not in b:
            print("%-14s only on one side" % (wl,))
            continue
        for name, better in END_TO_END:
            va = [m[name]["value"] for m in a[wl]]
            vb = [m[name]["value"] for m in b[wl]]
            sa, sb = _summary(va), _summary(vb)
            change = (sb[1] - sa[1]) / sa[1]
            worse = change if better == "lower" else -change
            mark = "WORSE" if worse > bounds[name] else ""
            flagged += bool(mark)
            print(
                "%-14s %-12s %3d/%-3d %10.4g/%9.4g/%9.4g %10.4g/%9.4g/%9.4g %+7.1f%% %s"
                % (wl, name, len(va), len(vb), *sa, *sb, 100 * change, mark)
            )
    return 1 if flagged else 0


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
