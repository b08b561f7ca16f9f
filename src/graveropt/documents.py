"""Instance and result documents: exact JSON in, exact JSON out.

All numbers in a document are integers or rational strings "p/q"; floats
are rejected at parse time so no value ever passes through binary
floating point.  Serialization is canonical (sorted keys, fixed
separators, one trailing newline) which makes result documents
byte-comparable; wall_ms is the single field excluded from comparisons.

Document kinds: flat boxes (ip, lp), block instances (nfold, twostage),
and the model kinds (transportation, table3, hierarchical, decode) that
translate into nfold instances via the builders.
"""

import json
from fractions import Fraction
from math import inf

from .augment import FeasibleBox
from .errors import SchemaError
from .linalg import Mat
from .models import MarginSpec, build_3way_linesum, build_hierarchical, build_transportation
from .nfold import NFoldInstance
from .objective import (
    AbsPower,
    CompositeObjective,
    LinearObjective,
    Poly,
    TableFn,
    ZeroFn,
)
from .twostage import TwoStageInstance

__all__ = [
    "FORMAT_VERSION",
    "INSTANCE_KINDS",
    "MODEL_KINDS",
    "to_json",
    "parse",
    "rat_to_json",
    "rat_from_json",
    "objective_to_doc",
    "objective_from_doc",
    "load_instance",
    "instance_to_doc",
]

FORMAT_VERSION = 1
INSTANCE_KINDS = ("ip", "lp", "nfold", "twostage", "transportation", "table3", "hierarchical", "decode")
MODEL_KINDS = ("transportation", "table3", "hierarchical", "decode")


def to_json(doc):
    """Canonical single-document serialization."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _reject_float(s):
    raise SchemaError("floating-point literal %r not allowed; use integers or \"p/q\"" % (s,))


def parse(text):
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as e:
        raise SchemaError("invalid JSON: %s" % (e,))


def rat_to_json(x):
    if isinstance(x, bool):
        raise SchemaError("booleans are not numbers here")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return "%d/%d" % (x.numerator, x.denominator)
    raise SchemaError("not an exact rational: %r" % (x,))


def rat_from_json(v):
    if isinstance(v, bool):
        raise SchemaError("booleans are not numbers here")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        parts = v.split("/")
        if len(parts) != 2:
            raise SchemaError("rational strings look like \"p/q\", got %r" % (v,))
        try:
            num, den = int(parts[0]), int(parts[1])
        except ValueError:
            raise SchemaError("rational strings look like \"p/q\", got %r" % (v,))
        if den <= 0:
            raise SchemaError("rational denominator must be positive in %r" % (v,))
        f = Fraction(num, den)
        return int(f) if f.denominator == 1 else f
    raise SchemaError("expected an integer or \"p/q\" string, got %r" % (v,))


def rat_str(x):
    """Exact value as a string (result documents carry values this way)."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return "%d/%d" % (x.numerator, x.denominator)
    return "%d" % (int(x),)


def _int_from(v, what):
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError("%s must be an integer, got %r" % (what, v))
    return v


def _int_vec(v, what):
    if not isinstance(v, list):
        raise SchemaError("%s must be an array" % (what,))
    return tuple(_int_from(x, what + " entry") for x in v)


def _rat_vec(v, what):
    if not isinstance(v, list):
        raise SchemaError("%s must be an array" % (what,))
    return tuple(rat_from_json(x) for x in v)


def _matrix_from(v, what):
    if not isinstance(v, list):
        raise SchemaError("%s must be an array of rows" % (what,))
    rows = tuple(_int_vec(r, what + " row") for r in v)
    if rows:
        return Mat(rows)
    raise SchemaError("%s needs explicit columns; use [] rows inside a sized matrix" % (what,))


def _matrix_to(M):
    return [list(r) for r in M.data]


def _fn_to_doc(f):
    if isinstance(f, Poly):
        return {"kind": "poly", "coeffs": [rat_to_json(c) for c in f.coeffs]}
    if isinstance(f, AbsPower):
        return {
            "kind": "abs_power",
            "scale": rat_to_json(f.scale),
            "power": f.power,
            "shift": f.shift,
        }
    if isinstance(f, TableFn):
        return {"kind": "table", "points": [[t, rat_to_json(v)] for t, v in f.points]}
    if isinstance(f, ZeroFn):
        return {"kind": "zero"}
    raise SchemaError("function %r has no document form" % (f,))


def _fn_from_doc(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("function documents need a kind")
    kind = doc["kind"]
    if kind == "poly":
        return Poly(tuple(rat_from_json(c) for c in doc.get("coeffs", []))), None
    if kind == "abs_power":
        return (
            AbsPower(
                rat_from_json(doc.get("scale", 1)),
                _int_from(doc.get("power"), "power"),
                _int_from(doc.get("shift", 0), "shift"),
            ),
            None,
        )
    if kind == "table":
        pts = doc.get("points")
        if not isinstance(pts, list):
            raise SchemaError("table functions need points")
        return TableFn(tuple((_int_from(t, "table t"), rat_from_json(v)) for t, v in pts)), None
    if kind == "zero":
        return ZeroFn(), None
    raise SchemaError("unknown function kind %r" % (kind,))


def _composite_to_doc(obj):
    return {
        "kind": "composite",
        "c": [rat_to_json(x) for x in obj.c],
        "rows": [{"coeffs": list(r), "fn": _fn_to_doc(f)} for r, f in obj.rows],
    }


def _composite_from_doc(doc):
    c = _rat_vec(doc.get("c"), "composite c")
    rows = []
    for item in doc.get("rows", []):
        if not isinstance(item, dict):
            raise SchemaError("composite rows are objects with coeffs and fn")
        coeffs = _int_vec(item.get("coeffs"), "row coeffs")
        fn, _ = _fn_from_doc(item.get("fn"))
        rows.append((coeffs, fn))
    return CompositeObjective(tuple(int(x) for x in c), tuple(rows))


def objective_to_doc(obj):
    if isinstance(obj, LinearObjective):
        return {"kind": "linear", "c": [rat_to_json(x) for x in obj.c]}
    if isinstance(obj, CompositeObjective):
        return _composite_to_doc(obj)
    if isinstance(obj, tuple):
        return {"kind": "blocks", "blocks": [_composite_to_doc(o) for o in obj]}
    raise SchemaError("objective %r has no document form" % (obj,))


def objective_from_doc(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("objective documents need a kind")
    kind = doc["kind"]
    if kind == "linear":
        return LinearObjective(_rat_vec(doc.get("c"), "linear c"))
    if kind == "composite":
        return _composite_from_doc(doc)
    if kind == "blocks":
        blocks = doc.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise SchemaError("blocks objectives need a nonempty blocks array")
        return tuple(_composite_from_doc(b) for b in blocks)
    raise SchemaError("unknown objective kind %r" % (kind,))


def _box_from_payload(p):
    A = _matrix_from(p.get("A"), "A")
    b = _int_vec(p.get("b"), "b")
    lower = _rat_vec(p.get("lower"), "lower")
    upper_raw = p.get("upper")
    if not isinstance(upper_raw, list):
        raise SchemaError("upper must be an array (null entries for no bound)")
    upper = tuple(None if x is None else rat_from_json(x) for x in upper_raw)
    return FeasibleBox(A, b, lower, upper)


def _box_payload(box):
    return {
        "A": _matrix_to(box.A),
        "b": list(box.b),
        "lower": [rat_to_json(x) for x in box.lower],
        "upper": [None if x is None else rat_to_json(x) for x in box.upper],
    }


def _check_declared_rows(p, field, rows):
    """C_rows / D_rows restate the objective's shared coefficient rows;
    when present they must agree with the objective."""
    declared = p.get(field)
    if declared is None:
        return
    got = tuple(_int_vec(r, field + " row") for r in declared)
    if got != rows:
        raise SchemaError("%s disagrees with the objective's coefficient rows" % (field,))


def _nfold_from_payload(p, objective):
    A = _matrix_from(p.get("A"), "A")
    # instance_to_doc writes a B with no rows as []; it has A's columns
    B = Mat((), cols=A.cols) if p.get("B") == [] else _matrix_from(p.get("B"), "B")
    N = _int_from(p.get("N"), "N")
    b0 = _int_vec(p.get("b0"), "b0")
    b = tuple(_int_vec(x, "b block") for x in p.get("b", []))
    upper = tuple(_int_vec(x, "upper block") for x in p.get("upper", []))
    if objective is None:
        objective = tuple(CompositeObjective((0,) * A.cols, ()) for _ in range(N))
    if isinstance(objective, CompositeObjective):
        objective = (objective,) * N
    if not isinstance(objective, tuple):
        raise SchemaError("nfold instances need a blocks (or single composite) objective")
    inst = NFoldInstance(A=A, B=B, N=N, b0=b0, b=b, upper=upper, objective=objective)
    _check_declared_rows(p, "C_rows", tuple(r for r, _ in inst.objective[0].rows))
    return inst


def _nfold_payload(inst):
    return {
        "A": _matrix_to(inst.A),
        "B": _matrix_to(inst.B),
        "C_rows": [list(r) for r, _ in inst.objective[0].rows],
        "N": inst.N,
        "b0": list(inst.b0),
        "b": [list(x) for x in inst.b],
        "upper": [list(x) for x in inst.upper],
    }


def _twostage_from_payload(p, objective):
    T = _matrix_from(p.get("T"), "T")
    W = _matrix_from(p.get("W"), "W")
    N = _int_from(p.get("N"), "N")
    b = tuple(_int_vec(x, "b scenario") for x in p.get("b", []))
    ux = _int_vec(p.get("ux"), "ux")
    uy = tuple(_int_vec(x, "uy scenario") for x in p.get("uy", []))
    if objective is None:
        objective = tuple(CompositeObjective((0,) * (T.cols + W.cols), ()) for _ in range(N))
    if isinstance(objective, CompositeObjective):
        objective = (objective,) * N
    if not isinstance(objective, tuple):
        raise SchemaError("twostage instances need a blocks (or single composite) objective")
    inst = TwoStageInstance(T=T, W=W, N=N, b=b, ux=ux, uy=uy, objective=objective)
    m = T.cols
    rows = tuple(r for r, _ in inst.objective[0].rows)
    _check_declared_rows(p, "C_rows", tuple(r[:m] for r in rows))
    _check_declared_rows(p, "D_rows", tuple(r[m:] for r in rows))
    return inst


def _caps_from(p, what="caps"):
    caps = p.get(what)
    if caps is None:
        raise SchemaError("missing %s" % (what,))
    return caps


def _margin_values_from(p):
    raw = p.get("values")
    if not isinstance(raw, list):
        raise SchemaError("hierarchical values must be an array of {index, value}")
    values = {}
    for item in raw:
        if not isinstance(item, dict) or "index" not in item or "value" not in item:
            raise SchemaError("margin entries look like {\"index\": [...], \"value\": n}")
        idx = tuple(x if x == "+" else _int_from(x, "margin index") for x in item["index"])
        values[idx] = _int_from(item["value"], "margin value")
    return values


def _decode_spec_from_payload(p):
    from .models import DecodingSpec

    p_raw = p.get("p")
    if p_raw == "inf":
        pval = inf
    else:
        pval = _int_from(p_raw, "p")
    I = p.get("I")
    if I is not None:
        I = tuple(tuple(_int_from(v, "I coordinate") for v in c) for c in I)
    return DecodingSpec(
        dims=_int_vec(p.get("dims"), "dims"),
        u=_int_from(p.get("u"), "u"),
        U=_int_from(p.get("U"), "U"),
        received=p.get("received"),
        p=pval,
        I=I,
    )


def _check_envelope(doc):
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaError("format_version must be %d" % (FORMAT_VERSION,))
    kind = doc.get("kind")
    if kind not in INSTANCE_KINDS:
        raise SchemaError("kind must be one of %s" % (", ".join(INSTANCE_KINDS),))
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    return kind, payload


def load_instance(doc):
    """Instance document -> (kind, runtime object).

    ip/lp give (FeasibleBox, objective); nfold and the model kinds give
    an NFoldInstance; twostage a TwoStageInstance; decode a DecodingSpec
    (its objective is implied by the payload, so the objective field
    must be null).
    """
    kind, payload = _check_envelope(doc)
    obj_doc = doc.get("objective")
    if kind == "decode":
        if obj_doc is not None:
            raise SchemaError("decode documents imply their objective; set objective to null")
        return kind, _decode_spec_from_payload(payload)
    objective = None if obj_doc is None else objective_from_doc(obj_doc)
    if kind in ("ip", "lp"):
        box = _box_from_payload(payload)
        if objective is None:
            raise SchemaError("%s documents need an objective" % (kind,))
        if isinstance(objective, tuple):
            raise SchemaError("%s documents take a single objective" % (kind,))
        z0 = payload.get("z0")
        if z0 is not None:
            z0 = _int_vec(z0, "z0")
        return kind, (box, objective, z0)
    if kind == "nfold":
        return kind, _nfold_from_payload(payload, objective)
    if kind == "twostage":
        return kind, _twostage_from_payload(payload, objective)
    if kind == "transportation":
        inst = build_transportation(
            _int_vec(payload.get("supplies"), "supplies"),
            _int_vec(payload.get("demands"), "demands"),
            _caps_from(payload),
            objective=objective,
        )
        return kind, inst
    if kind == "table3":
        inst = build_3way_linesum(
            _int_from(payload.get("L"), "L"),
            _int_from(payload.get("M"), "M"),
            _int_from(payload.get("N"), "N"),
            payload.get("r"),
            payload.get("s"),
            payload.get("t"),
            _caps_from(payload),
            objective=objective,
        )
        return kind, inst
    if kind == "hierarchical":
        spec = MarginSpec(
            dims=_int_vec(payload.get("dims"), "dims"),
            family=tuple(tuple(_int_vec(H, "family support")) for H in payload.get("family", [])),
            values=_margin_values_from(payload),
            bounds=payload.get("bounds"),
        )
        inst = build_hierarchical(spec, objective=objective)
        return kind, inst
    raise SchemaError("unhandled kind %r" % (kind,))


def instance_to_doc(kind, obj, objective=None, meta=None):
    """Runtime object -> canonical instance document."""
    if kind in ("ip", "lp"):
        box, objective, z0 = obj
        payload = _box_payload(box)
        if z0 is not None:
            payload["z0"] = list(z0)
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "payload": payload,
            "objective": objective_to_doc(objective),
        }
    elif kind == "nfold":
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "nfold",
            "payload": _nfold_payload(obj),
            "objective": objective_to_doc(obj.objective),
        }
    elif kind == "twostage":
        C, D = obj.rows_CD()
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "twostage",
            "payload": {
                "T": _matrix_to(obj.T),
                "W": _matrix_to(obj.W),
                "C_rows": _matrix_to(C),
                "D_rows": _matrix_to(D),
                "N": obj.N,
                "b": [list(x) for x in obj.b],
                "ux": list(obj.ux),
                "uy": [list(x) for x in obj.uy],
            },
            "objective": objective_to_doc(obj.objective),
        }
    else:
        raise SchemaError("cannot serialize kind %r" % (kind,))
    if meta:
        doc["payload"]["meta"] = meta
    return doc
