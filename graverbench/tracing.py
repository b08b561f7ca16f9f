"""Spans around graveropt's public functions, for the traced run.

install() wraps each function in LAYERS and puts the wrapper in place of
the original under every name that refers to it in a graveropt module,
including lru_cache copies (which are rebuilt around the wrapper, so
they must be empty when install() runs).  While the tracer is on, each
call records a span: name, start, end, parent span and operation id.
Self time is a span's duration minus the time its child spans cover.
Spans live in flat arrays until write() saves them.
"""

import functools
import gzip
import sys
from array import array
from importlib import import_module
from time import perf_counter

# (layer name, module, function).  kernels.* resolve to the active
# backend module, which graver calls through kernels.active.
LAYERS = (
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("kernels.complete", "kernels", "complete"),
    ("kernels.minimal_elements", "kernels", "minimal_elements"),
    ("graver.graver", "graver", "graver"),
    ("graver.circuits", "graver", "circuits"),
    ("objective.evaluate", "objective", "evaluate"),
    ("augment.line_search", "augment", "line_search"),
    ("augment.max_step", "augment", "max_step"),
    ("augment.greedy_step", "augment", "greedy_step"),
    ("augment.solve_ip_greedy", "augment", "solve_ip_greedy"),
    ("augment.solve_lp_circuit", "augment", "solve_lp_circuit"),
    ("bruteforce.first_feasible", "bruteforce", "first_feasible"),
    ("nfold.analyze_pair", "nfold", "analyze_pair"),
    ("nfold.lift_graver", "nfold", "lift_graver"),
    ("nfold.phase_one", "nfold", "phase_one"),
    ("nfold.solve_nfold", "nfold", "solve_nfold"),
    ("twostage.extract_building_blocks", "twostage", "extract_building_blocks"),
    ("twostage.greedy_step_twostage", "twostage", "greedy_step_twostage"),
    ("twostage.solve_twostage", "twostage", "solve_twostage"),
    ("models.decode", "models", "decode"),
    ("documents.load_instance", "documents", "load_instance"),
    ("documents.to_json", "documents", "to_json"),
    ("cli.main", "cli", "main"),
)


# Layers whose call counts are reported besides their self time.
COUNTED_CALLS = (
    "kernels.complete",
    "augment.greedy_step",
    "augment.max_step",
    "augment.line_search",
    "objective.evaluate",
    "twostage.extract_building_blocks",
    "twostage.greedy_step_twostage",
)


def _resolve(module, attr):
    mod = import_module("graveropt." + module)
    if module == "kernels":
        mod = mod.active
    return getattr(mod, attr)


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.names = [name for name, _, _ in LAYERS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = [0.0] * len(LAYERS)
        self.total_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts = {
            "kernels.complete.pool_elements": 0,
            "kernels.minimal_elements.offered": 0,
            "kernels.minimal_elements.kept": 0,
            "graver.basis_elements": 0,
        }
        self._stack = []  # open span indices
        self._child = []  # child time accumulated by each open span

    def _count(self, name, args, result):
        c = self.counts
        if name == "kernels.complete":
            c["kernels.complete.pool_elements"] += len(result)
        elif name == "kernels.minimal_elements":
            c["kernels.minimal_elements.offered"] += len(args[0])
            c["kernels.minimal_elements.kept"] += len(result)
        elif name == "graver.graver":
            c["graver.basis_elements"] += len(result.elements)

    def _wrap(self, nid, f):
        name = self.names[nid]
        counted = name in ("kernels.complete", "kernels.minimal_elements", "graver.graver")

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if not self.on:
                return f(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_op.append(self.op)
            self._stack.append(idx)
            self._child.append(0.0)
            start = perf_counter()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = f(*args, **kwargs)
            finally:
                end = perf_counter()
                self.span_end[idx] = end
                self._stack.pop()
                dur = end - start
                self.self_s[nid] += dur - self._child.pop()
                self.total_s[nid] += dur
                self.calls[nid] += 1
                if self._child:
                    self._child[-1] += dur
            if counted:
                self._count(name, args, result)
            return result

        return traced

    def install(self):
        targets = {}
        for nid, (_, module, attr) in enumerate(LAYERS):
            f = _resolve(module, attr)
            targets[id(f)] = (f, self._wrap(nid, f))
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("graveropt") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    setattr(mod, attr, targets[id(value)][1])
                    continue
                inner = getattr(value, "__wrapped__", None)
                if hasattr(value, "cache_info") and id(inner) in targets and targets[id(inner)][0] is inner:
                    size = value.cache_info().maxsize
                    setattr(mod, attr, functools.lru_cache(maxsize=size)(targets[id(inner)][1]))

    def metrics(self):
        """Per-layer metrics: self time of every layer, calls of the
        COUNTED_CALLS layers, and element counts at the completion
        boundary.  kept_per_pool is the share of the pools handed to
        minimal_elements that survives as test-set elements."""
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".self_s"] = (self.self_s[nid], "s")
            if name in COUNTED_CALLS:
                out[name + ".calls"] = (self.calls[nid], "count")
        c = self.counts
        out["kernels.complete.pool_elements"] = (c["kernels.complete.pool_elements"], "count")
        out["graver.basis_elements"] = (c["graver.basis_elements"], "count")
        offered = c["kernels.minimal_elements.offered"]
        kept = c["kernels.minimal_elements.kept"]
        out["graver.kept_per_pool"] = (kept / offered if offered else 0.0, "ratio")
        return out

    def table(self):
        rows = ["%-36s %12s %12s %10s" % ("layer", "self_s", "total_s", "calls")]
        order = sorted(range(len(self.names)), key=lambda i: -self.self_s[i])
        for nid in order:
            rows.append(
                "%-36s %12.6f %12.6f %10d"
                % (self.names[nid], self.self_s[nid], self.total_s[nid], self.calls[nid])
            )
        rows.append("")
        for k, v in sorted(self.counts.items()):
            rows.append("%-36s %12d" % (k, v))
        return "\n".join(rows) + "\n"

    def write(self, path):
        """Spans as gzipped CSV: id, op, name, parent id, start, end
        (seconds on the process's perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,op,name,parent,start,end\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    "%d,%d,%s,%d,%.9f,%.9f\n"
                    % (
                        i,
                        self.span_op[i],
                        names[self.span_name[i]],
                        self.span_parent[i],
                        self.span_start[i],
                        self.span_end[i],
                    )
                )
