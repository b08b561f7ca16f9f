"""Backend selection for the reduction kernels.

The compiled extension (graveropt._speedups) is used when it imported
cleanly and GRAVER_OPT_PURE is unset; otherwise the pure-Python twin.
Both expose the functions the package calls.  The scalar kernels give
identical results.  complete() queues pairs and picks reducers
differently in the two twins: the pure one forms each pair sum once per
+- class, or once per orbit of a group of column symmetries that it
alone accepts (graver.graver sends every grouped completion to the pure
twin).  So the intermediate pools it returns may differ, but both are
closed under negation and minimal_elements of either pool is the same
test set, which is all that callers use; test sets differ only in the
time they take.  use() swaps the active backend at runtime, which the
benchmark and the twin-equality tests rely on.
"""

import os

from . import _kernels_py

_backends = {"python": _kernels_py}

if not os.environ.get("GRAVER_OPT_PURE"):
    try:
        from . import _speedups

        _backends["cython"] = _speedups
    except ImportError:
        pass

active = _backends.get("cython", _kernels_py)


def available():
    return tuple(sorted(_backends))


def use(name):
    """Switch the active backend ('python' or 'cython'). Returns the module."""
    global active
    if name not in _backends:
        raise ValueError("unknown kernel backend %r (available: %s)" % (name, ", ".join(available())))
    active = _backends[name]
    return active


def backend_name():
    return active.BACKEND
