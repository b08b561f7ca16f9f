"""Command-line driver: solve instances, dump bases, run the exhaustive
oracle, translate model documents.

Standard output carries exactly one JSON document; diagnostics go to
standard error.  Exit codes: 0 optimal, 1 error, 2 infeasible,
3 unbounded, 4 search space too large.  wall_ms is the single
nondeterministic field.  --threads (default: GRAVER_OPT_THREADS) is
validated and has no effect: every solve runs on one thread, since a
per-step thread pool measured slower under the GIL.
"""

import argparse
import os
import sys
from time import perf_counter

from . import bruteforce
from .augment import FeasibleBox, solve_ip_greedy, solve_lp_circuit
from .documents import (
    FORMAT_VERSION,
    MODEL_KINDS,
    instance_to_doc,
    load_instance,
    parse,
    rat_str,
    rat_to_json,
    to_json,
)
from .errors import (
    GraverOptError,
    Infeasible,
    InfeasibleBase,
    SchemaError,
    SearchSpaceTooLarge,
    UnboundedObjective,
)
from .graver import circuits, graver, graver_composite, rows_matter
from .linalg import Mat, integer_solution
from .models import _decode_instance, _decode_lowered
from .nfold import DIRECT_THRESHOLD, _layout_group, solve_nfold
from .objective import CompositeObjective, LinearObjective, evaluate
from .twostage import solve_twostage

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_TOO_LARGE = 4


def _read_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as e:
        raise SchemaError("cannot read %s: %s" % (path, e))


def _emit(doc):
    sys.stdout.write(to_json(doc))


def _stats(augment_steps, basis_size, t0):
    # one certifying sweep runs after the last improving step
    return {
        "augment_steps": augment_steps,
        "directions_evaluated": basis_size * (augment_steps + 1),
        "basis_size": basis_size,
        "wall_ms": int((perf_counter() - t0) * 1000),
    }


def _trace_doc(trace):
    return [
        {
            "value_before": rat_to_json(t.value_before),
            "value_after": rat_to_json(t.value_after),
            "direction": list(t.direction),
            "steplen": rat_to_json(t.steplen),
        }
        for t in trace.iterations
    ]


def _result(status, t0, point=None, value=None, trace=None, stats=None):
    doc = {"format_version": FORMAT_VERSION, "kind": "result", "status": status}
    if point is not None:
        doc["point"] = [rat_to_json(x) for x in point]
    if value is not None:
        doc["value"] = rat_str(value)
    if trace is not None:
        doc["trace"] = trace
    doc["stats"] = stats if stats is not None else _stats(0, 0, t0)
    return doc


def _selfcheck(box, obj, z, trace):
    """Feasibility recheck plus value recomputation for an optimal point;
    any discrepancy is a hard error, never emitted as optimal."""
    try:
        box.check_point(z)
    except GraverOptError as e:
        raise GraverOptError("self-verification failed: %s" % (e,))
    val = evaluate(obj, z)
    vals = trace.values()
    if vals and val != vals[-1]:
        raise GraverOptError("self-verification failed: value mismatch")
    return val


def _composite_rows(obj, cols):
    if isinstance(obj, CompositeObjective):
        return Mat(tuple(r for r, _ in obj.rows), cols=cols)
    return Mat((), cols=cols)


def _ip_directions(box, objective):
    C = _composite_rows(objective, box.A.cols)
    return graver_composite(box.A, C) if rows_matter(C) else graver(box.A)


def _flat_problem(kind, obj):
    """(box, objective, lowered) of the flat integer program behind any
    document.  lowered is what the document's solver takes: the loaded
    object itself, or for decode the (NFoldInstance, q) pair of
    _decode_instance."""
    if kind in ("ip", "lp"):
        box, objective, _ = obj
        return box, objective, obj
    if kind == "decode":
        lowered = _decode_instance(obj)
        inst = lowered[0]
    else:
        inst = lowered = obj
    return inst.box(), inst.flatten_objective(), lowered


def _block_group(kind, lowered):
    """Column permutations that map the kernel of a document's flat
    matrix onto itself: the block layout's swaps, plus an N-fold
    instance's symmetries on every block; none for ip and lp."""
    if kind in ("ip", "lp"):
        return ()
    inst = lowered[0] if kind == "decode" else lowered
    if kind == "twostage":
        return _layout_group(inst.m, inst.N, inst.n)
    return _layout_group(0, inst.N, inst.n, inst.symmetries)


def cmd_solve(args):
    t0 = perf_counter()
    kind, obj = load_instance(_read_doc(args.path))
    if args.mode == "lp" and kind not in ("ip", "lp"):
        raise SchemaError("lp mode applies only to flat box documents")
    try:
        box, objective, lowered = _flat_problem(kind, obj)
        if kind in ("ip", "lp"):
            z0 = obj[2]
            mode = args.mode or kind
            if z0 is None:
                # the lattice test sees parity, which the scan's pruning cannot
                if integer_solution(box.A, box.b) is not None:
                    z0 = bruteforce.first_feasible(box)
                if z0 is None:
                    _emit(_result("infeasible", t0))
                    return EXIT_INFEASIBLE
            if mode == "lp":
                if not isinstance(objective, LinearObjective):
                    raise SchemaError("lp mode needs a linear objective")
                z, trace = solve_lp_circuit(z0, circuits(box.A), objective, box)
            else:
                z, trace = solve_ip_greedy(z0, _ip_directions(box, objective), objective, box)
        elif kind == "twostage":
            point, trace = solve_twostage(obj, cap=4 if args.graver_cap is None else args.graver_cap)
            z = point.flatten()
        elif kind == "decode":
            res, point = _decode_lowered(obj, *lowered)
            z, trace = point.flatten(), res.trace
        else:
            point, trace = solve_nfold(
                obj,
                graver_cap=6 if args.graver_cap is None else args.graver_cap,
                direct_threshold=args.direct_threshold,
            )
            z = point.flatten()
        value = _selfcheck(box, objective, z, trace)
        if kind == "decode":
            # the l_p distance itself, not the surrogate objective
            value = res.distance
    except (Infeasible, InfeasibleBase) as e:
        print("infeasible: %s" % (e,), file=sys.stderr)
        _emit(_result("infeasible", t0))
        return EXIT_INFEASIBLE
    except UnboundedObjective as e:
        print("unbounded: %s" % (e,), file=sys.stderr)
        _emit(_result("unbounded", t0))
        return EXIT_UNBOUNDED
    stats = _stats(len(trace), trace.basis_size, t0)
    tdoc = _trace_doc(trace) if args.trace else None
    _emit(_result("optimal", t0, point=z, value=value, trace=tdoc, stats=stats))
    return EXIT_OK


def cmd_basis(args):
    kind, obj = load_instance(_read_doc(args.path))
    box, objective, lowered = _flat_problem(kind, obj)
    A = box.A
    C = _composite_rows(objective, A.cols)
    if args.variant == "circuits":
        elements = circuits(A).elements
    elif args.variant == "graver":
        elements = graver(A, _block_group(kind, lowered)).elements
    else:
        elements = graver_composite(A, C).elements
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "kind": "basis",
            "variant": args.variant,
            "count": len(elements),
            "elements": [list(e) for e in elements],
        }
    )
    return EXIT_OK


def cmd_oracle(args):
    t0 = perf_counter()
    kind, obj = load_instance(_read_doc(args.path))
    box, objective, _ = _flat_problem(kind, obj)
    if args.radius is not None:
        upper = tuple(
            l + args.radius if u is None else u for l, u in zip(box.lower, box.upper)
        )
        box = FeasibleBox(box.A, box.b, box.lower, upper)
    best = bruteforce.solve_oracle(box, objective, cell_cap=args.cell_cap)
    if best is None:
        _emit(_result("infeasible", t0))
        return EXIT_INFEASIBLE
    z, value = best
    _emit(_result("optimal", t0, point=z, value=value))
    return EXIT_OK


def cmd_model(args):
    doc = _read_doc(args.path)
    if doc.get("kind") != args.kind:
        raise SchemaError("document kind %r does not match %r" % (doc.get("kind"), args.kind))
    kind, obj = load_instance(doc)
    if kind == "decode":
        inst, q = _decode_instance(obj)
        meta = None if q is None else {"q": q}
    else:
        inst, meta = obj, None
    _emit(instance_to_doc("nfold", inst, meta=meta))
    return EXIT_OK


def _default_threads():
    raw = os.environ.get("GRAVER_OPT_THREADS")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SchemaError("GRAVER_OPT_THREADS must be an integer, got %r" % (raw,))


def build_parser():
    p = argparse.ArgumentParser(
        prog="graveropt",
        description="Exact augmentation solvers over integer instance documents.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance document")
    ps.add_argument("path")
    ps.add_argument("--trace", action="store_true", help="include the augmentation trace")
    ps.add_argument("--mode", choices=("ip", "lp"), help="override the solver for box documents")
    ps.add_argument("--threads", type=int, default=None,
                    help="accepted for compatibility; no effect, solves run on one thread")
    ps.add_argument("--graver-cap", type=int, default=None, help="stabilization cap for block methods")
    ps.add_argument("--direct-threshold", type=int, default=DIRECT_THRESHOLD,
                    help="flat size up to which block test sets are computed directly")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("basis", help="dump a test set or circuit set")
    pb.add_argument("path")
    var = pb.add_mutually_exclusive_group(required=True)
    var.add_argument("--circuits", dest="variant", action="store_const", const="circuits")
    var.add_argument("--graver", dest="variant", action="store_const", const="graver")
    var.add_argument("--composite", dest="variant", action="store_const", const="composite")
    pb.set_defaults(func=cmd_basis)

    po = sub.add_parser("oracle", help="exhaustive enumeration ground truth")
    po.add_argument("path")
    po.add_argument("--radius", type=int, default=None,
                    help="cap for coordinates without an upper bound")
    po.add_argument("--cell-cap", type=int, default=bruteforce.CELL_CAP,
                    help="refuse boxes with more points than this")
    po.set_defaults(func=cmd_oracle)

    pm = sub.add_parser("model", help="translate a model document to its nfold instance")
    pm.add_argument("kind", choices=MODEL_KINDS)
    pm.add_argument("path")
    pm.set_defaults(func=cmd_model)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", None) is None and hasattr(args, "threads"):
            args.threads = _default_threads()
        return args.func(args)
    except SearchSpaceTooLarge as e:
        print("error: %s" % (e,), file=sys.stderr)
        return EXIT_TOO_LARGE
    except GraverOptError as e:
        print("error: %s" % (e,), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
