from fractions import Fraction
from math import inf

import pytest

from graveropt.augment import FeasibleBox
from graveropt.documents import (
    FORMAT_VERSION,
    instance_to_doc,
    load_instance,
    objective_from_doc,
    objective_to_doc,
    parse,
    rat_from_json,
    rat_str,
    rat_to_json,
    to_json,
)
from graveropt.errors import SchemaError
from graveropt.linalg import Mat
from graveropt.models import DecodingSpec, build_transportation
from graveropt.nfold import NFoldInstance, solve_nfold
from graveropt.objective import (
    AbsPower,
    CompositeObjective,
    LinearObjective,
    Poly,
    TableFn,
    ZeroFn,
)
from graveropt.twostage import TwoStageInstance

SQ_DOC = {"kind": "abs_power", "scale": 1, "power": 2, "shift": 0}


def ip_doc():
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ip",
        "payload": {
            "A": [[1, 1]],
            "b": [3],
            "lower": [0, 0],
            "upper": [3, 3],
            "z0": [3, 0],
        },
        "objective": {
            "kind": "composite",
            "c": [0, 0],
            "rows": [
                {"coeffs": [1, 0], "fn": SQ_DOC},
                {"coeffs": [0, 1], "fn": SQ_DOC},
            ],
        },
    }


def test_to_json_is_canonical():
    text = to_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    assert text == '{"a":[2,{"c":4,"d":3}],"b":1}\n'


def test_roundtrip_is_byte_stable():
    text = to_json(ip_doc())
    assert to_json(parse(text)) == text
    assert parse(text) == ip_doc()


def test_parse_rejects_floats():
    with pytest.raises(SchemaError):
        parse('{"x": 1.5}')
    with pytest.raises(SchemaError):
        parse('{"x": 1e3}')
    with pytest.raises(SchemaError):
        parse('{"x": ')
    assert parse('{"x": 10}') == {"x": 10}


def test_rational_codec():
    assert rat_to_json(5) == 5
    assert rat_to_json(Fraction(3, 2)) == "3/2"
    assert rat_to_json(Fraction(4, 2)) == 2
    assert rat_from_json(7) == 7
    assert rat_from_json("3/2") == Fraction(3, 2)
    got = rat_from_json("4/2")
    assert got == 2 and isinstance(got, int)
    assert rat_from_json("-1/3") == Fraction(-1, 3)
    for bad in (True, "1/0", "x/y", "3", "1/2/3", 1.5):
        with pytest.raises(SchemaError):
            rat_from_json(bad)
    with pytest.raises(SchemaError):
        rat_to_json(True)
    with pytest.raises(SchemaError):
        rat_to_json(0.5)
    assert rat_str(Fraction(3, 2)) == "3/2"
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(-7) == "-7"


def test_objective_docs_roundtrip():
    lin = LinearObjective((1, Fraction(-1, 2), 0))
    assert objective_from_doc(objective_to_doc(lin)) == lin
    comp = CompositeObjective(
        (1, 0),
        (
            ((1, 1), Poly((0, 0, 1))),
            ((1, -1), AbsPower(2, 3, 1)),
            ((0, 1), TableFn(((0, 0), (1, 2), (2, 5)))),
            ((1, 0), ZeroFn()),
        ),
    )
    assert objective_from_doc(objective_to_doc(comp)) == comp
    blocks = (comp, comp)
    doc = objective_to_doc(blocks)
    assert doc["kind"] == "blocks"
    assert objective_from_doc(doc) == blocks


def test_objective_doc_errors():
    with pytest.raises(SchemaError):
        objective_from_doc({"kind": "mystery"})
    with pytest.raises(SchemaError):
        objective_from_doc({"c": [1]})
    with pytest.raises(SchemaError):
        objective_from_doc({"kind": "blocks", "blocks": []})
    with pytest.raises(SchemaError):
        objective_to_doc("cost")


def test_envelope_validation():
    doc = ip_doc()
    doc["format_version"] = 2
    with pytest.raises(SchemaError):
        load_instance(doc)
    doc = ip_doc()
    doc["kind"] = "sudoku"
    with pytest.raises(SchemaError):
        load_instance(doc)
    doc = ip_doc()
    doc["payload"] = []
    with pytest.raises(SchemaError):
        load_instance(doc)
    with pytest.raises(SchemaError):
        load_instance([ip_doc()])


def test_load_ip_document():
    kind, (box, obj, z0) = load_instance(ip_doc())
    assert kind == "ip"
    assert isinstance(box, FeasibleBox)
    assert box.A.to_lists() == [[1, 1]]
    assert box.b == (3,)
    assert z0 == (3, 0)
    assert isinstance(obj, CompositeObjective)
    doc = ip_doc()
    del doc["payload"]["z0"]
    _, (_, _, z0) = load_instance(doc)
    assert z0 is None


def test_ip_document_objective_required():
    doc = ip_doc()
    doc["objective"] = None
    with pytest.raises(SchemaError):
        load_instance(doc)
    doc = ip_doc()
    doc["objective"] = {"kind": "blocks", "blocks": [doc["objective"]]}
    with pytest.raises(SchemaError):
        load_instance(doc)


def test_lp_document_with_rationals():
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "lp",
        "payload": {
            "A": [[2, 1, 0, 1, 0, 0], [1, 2, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
            "b": [2, 2, 1],
            "lower": [0, 0, 0, 0, 0, 0],
            "upper": [2, 2, 1, 2, 2, "5/2"],
        },
        "objective": {"kind": "linear", "c": [1, 1, -1, 0, 0, 0]},
    }
    kind, (box, obj, z0) = load_instance(doc)
    assert kind == "lp"
    assert box.upper[-1] == Fraction(5, 2)
    assert obj == LinearObjective((1, 1, -1, 0, 0, 0))
    assert z0 is None


def test_ip_instance_to_doc_roundtrip():
    kind, triple = load_instance(ip_doc())
    doc = instance_to_doc("ip", triple)
    assert to_json(doc) == to_json(ip_doc())


def nfold_doc(objective):
    return {
        "format_version": FORMAT_VERSION,
        "kind": "nfold",
        "payload": {
            "A": [[1, 1]],
            "B": [[1, 0], [0, 1]],
            "N": 2,
            "b0": [1, 1],
            "b": [[1], [1]],
            "upper": [[1, 1], [1, 1]],
        },
        "objective": objective,
    }


def test_nfold_single_composite_replicates():
    comp = {
        "kind": "composite",
        "c": [0, 0],
        "rows": [{"coeffs": [1, 1], "fn": SQ_DOC}],
    }
    kind, inst = load_instance(nfold_doc(comp))
    assert kind == "nfold"
    assert isinstance(inst, NFoldInstance)
    assert len(inst.objective) == 2
    assert inst.objective[0] == inst.objective[1]
    kind, inst0 = load_instance(nfold_doc(None))
    assert all(f.s == 0 for f in inst0.objective)


def test_nfold_declared_rows_checked():
    comp = {
        "kind": "composite",
        "c": [0, 0],
        "rows": [{"coeffs": [1, 1], "fn": SQ_DOC}],
    }
    doc = nfold_doc(comp)
    doc["payload"]["C_rows"] = [[1, 1]]
    load_instance(doc)
    doc["payload"]["C_rows"] = [[1, 0]]
    with pytest.raises(SchemaError):
        load_instance(doc)


def test_nfold_without_coupling_rows_round_trips_and_solves():
    # B with no rows is written as [] and read back with A's columns
    obj = objective_from_doc({"kind": "composite", "c": [0, 0], "rows": [{"coeffs": [1, 0], "fn": SQ_DOC}]})
    inst = NFoldInstance(
        A=Mat(((1, 1),)),
        B=Mat((), cols=2),
        N=2,
        b0=(),
        b=((2,), (1,)),
        upper=((2, 2), (2, 2)),
        objective=(obj, obj),
    )
    doc = instance_to_doc("nfold", inst)
    assert doc["payload"]["B"] == []
    kind, inst2 = load_instance(parse(to_json(doc)))
    assert kind == "nfold" and inst2 == inst
    z, _ = solve_nfold(inst2)
    assert z.flatten() == (0, 2, 0, 1)


def twostage_doc():
    comp = {
        "kind": "composite",
        "c": [0, 0],
        "rows": [
            {"coeffs": [1, 0], "fn": SQ_DOC},
            {"coeffs": [0, 1], "fn": SQ_DOC},
        ],
    }
    return {
        "format_version": FORMAT_VERSION,
        "kind": "twostage",
        "payload": {
            "T": [[1]],
            "W": [[1]],
            "N": 2,
            "b": [[2], [3]],
            "ux": [2],
            "uy": [[2], [3]],
        },
        "objective": {"kind": "blocks", "blocks": [comp, comp]},
    }


def test_load_twostage_document():
    kind, inst = load_instance(twostage_doc())
    assert kind == "twostage"
    assert isinstance(inst, TwoStageInstance)
    assert (inst.m, inst.n, inst.N) == (1, 1, 2)
    assert inst.b == ((2,), (3,))


def test_twostage_declared_rows_checked():
    doc = twostage_doc()
    doc["payload"]["C_rows"] = [[1], [0]]
    doc["payload"]["D_rows"] = [[0], [1]]
    load_instance(doc)
    doc["payload"]["D_rows"] = [[1], [1]]
    with pytest.raises(SchemaError):
        load_instance(doc)


def test_twostage_instance_to_doc():
    kind, inst = load_instance(twostage_doc())
    doc = instance_to_doc("twostage", inst)
    assert doc["payload"]["C_rows"] == [[1], [0]]
    assert doc["payload"]["D_rows"] == [[0], [1]]
    kind2, inst2 = load_instance(parse(to_json(doc)))
    assert inst2 == inst


def test_load_transportation_document():
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "transportation",
        "payload": {"supplies": [2, 1], "demands": [1, 2], "caps": 2},
        "objective": None,
    }
    kind, inst = load_instance(doc)
    assert kind == "transportation"
    want = build_transportation((2, 1), (1, 2), 2)
    assert (inst.A, inst.B, inst.b0, inst.b, inst.upper) == (
        want.A,
        want.B,
        want.b0,
        want.b,
        want.upper,
    )
    doc["payload"].pop("caps")
    with pytest.raises(SchemaError):
        load_instance(doc)


def test_load_table3_document():
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "table3",
        "payload": {
            "L": 2,
            "M": 2,
            "N": 2,
            "r": [[0, 0], [0, 0]],
            "s": [[0, 0], [0, 0]],
            "t": [[0, 0], [0, 0]],
            "caps": 1,
        },
        "objective": None,
    }
    kind, inst = load_instance(doc)
    assert kind == "table3" and inst.N == 2


def test_load_hierarchical_document():
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "hierarchical",
        "payload": {
            "dims": [2, 2],
            "family": [[1], [2]],
            "values": [
                {"index": [1, "+"], "value": 1},
                {"index": [2, "+"], "value": 1},
                {"index": ["+", 1], "value": 1},
                {"index": ["+", 2], "value": 1},
            ],
            "bounds": 1,
        },
        "objective": None,
    }
    kind, inst = load_instance(doc)
    assert kind == "hierarchical" and inst.N == 2
    doc["payload"]["values"] = [{"index": [1, "+"]}]
    with pytest.raises(SchemaError):
        load_instance(doc)


def decode_doc(p):
    ones = [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "decode",
        "payload": {"dims": [1, 1, 1], "u": 1, "U": 2, "received": ones, "p": p},
        "objective": None,
    }


def test_load_decode_document():
    kind, spec = load_instance(decode_doc(1))
    assert kind == "decode"
    assert isinstance(spec, DecodingSpec)
    assert spec.p == 1
    kind, spec = load_instance(decode_doc("inf"))
    assert spec.p == inf
    doc = decode_doc(1)
    doc["payload"]["I"] = [[0, 0, 0], [1, 1, 1]]
    kind, spec = load_instance(doc)
    assert spec.I == ((0, 0, 0), (1, 1, 1))


def test_decode_document_objective_must_be_null():
    doc = decode_doc(1)
    doc["objective"] = {"kind": "linear", "c": [1]}
    with pytest.raises(SchemaError):
        load_instance(doc)


def test_instance_to_doc_meta_and_unknown_kind():
    kind, triple = load_instance(ip_doc())
    doc = instance_to_doc("ip", triple, meta={"q": 15})
    assert doc["payload"]["meta"] == {"q": 15}
    with pytest.raises(SchemaError):
        instance_to_doc("decode", None)


def test_matrix_payload_requires_rows():
    doc = ip_doc()
    doc["payload"]["A"] = []
    with pytest.raises(SchemaError):
        load_instance(doc)
    doc = ip_doc()
    doc["payload"]["A"] = [[1, True]]
    with pytest.raises(SchemaError):
        load_instance(doc)
