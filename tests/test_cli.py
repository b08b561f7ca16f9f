import json
import subprocess
import sys

import pytest

from graveropt import cli, models, nfold
from graveropt.cli import main
from graveropt.documents import FORMAT_VERSION, parse, to_json
from graveropt.nfold import BlockVector
from graveropt.twostage import TwoStagePoint

SQ_DOC = {"kind": "abs_power", "scale": 1, "power": 2, "shift": 0}

LP_DOC = {
    "format_version": FORMAT_VERSION,
    "kind": "lp",
    "payload": {
        "A": [[2, 1, 0, 1, 0, 0], [1, 2, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
        "b": [2, 2, 1],
        "lower": [0, 0, 0, 0, 0, 0],
        "upper": [2, 2, 1, 2, 2, 1],
        "z0": [0, 1, 0, 1, 0, 1],
    },
    "objective": {"kind": "linear", "c": [1, 1, -1, 0, 0, 0]},
}


def knap_doc(z0=None):
    payload = {"A": [[1, 1]], "b": [3], "lower": [0, 0], "upper": [3, 3]}
    if z0 is not None:
        payload["z0"] = list(z0)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ip",
        "payload": payload,
        "objective": {
            "kind": "composite",
            "c": [0, 0],
            "rows": [
                {"coeffs": [1, 0], "fn": SQ_DOC},
                {"coeffs": [0, 1], "fn": SQ_DOC},
            ],
        },
    }


def write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(to_json(doc) if isinstance(doc, dict) else doc)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_solve_ip_with_start(tmp_path, capsys):
    path = write_doc(tmp_path, knap_doc(z0=(3, 0)))
    code, out, err = run(capsys, ["solve", path])
    assert code == 0
    doc = parse(out)
    assert doc["status"] == "optimal"
    assert doc["point"] == [2, 1]
    assert doc["value"] == "5"
    st = doc["stats"]
    assert st["directions_evaluated"] == st["basis_size"] * (st["augment_steps"] + 1)
    assert isinstance(st["wall_ms"], int)


def test_solve_ip_default_start_is_lex_smallest(tmp_path, capsys):
    path = write_doc(tmp_path, knap_doc())
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    doc = parse(out)
    assert doc["point"] == [1, 2]
    assert doc["value"] == "5"


def test_solve_lp_example(tmp_path, capsys):
    path = write_doc(tmp_path, LP_DOC)
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    doc = parse(out)
    assert doc["point"] == [0, 0, 1, 2, 2, 0]
    assert doc["value"] == "-1"
    assert "trace" not in doc


def test_solve_trace_output(tmp_path, capsys):
    path = write_doc(tmp_path, LP_DOC)
    code, out, _ = run(capsys, ["solve", path, "--trace"])
    assert code == 0
    doc = parse(out)
    tr = doc["trace"]
    assert len(tr) == 2
    assert tr[0]["value_before"] == 1
    assert tr[-1]["value_after"] == -1
    assert all(set(t) == {"value_before", "value_after", "direction", "steplen"} for t in tr)


def test_solve_mode_override(tmp_path, capsys):
    path = write_doc(tmp_path, LP_DOC)
    code, out, _ = run(capsys, ["solve", path, "--mode", "ip"])
    assert code == 0
    doc = parse(out)
    assert doc["point"] == [0, 0, 1, 2, 2, 0]
    assert doc["value"] == "-1"


def test_solve_lp_mode_rejects_block_documents(tmp_path, capsys):
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "transportation",
        "payload": {"supplies": [2, 1], "demands": [1, 2], "caps": 2},
        "objective": None,
    }
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, ["solve", path, "--mode", "lp"])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_solve_infeasible_document(tmp_path, capsys):
    doc = knap_doc()
    doc["payload"]["b"] = [7]
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, ["solve", path])
    assert code == 2
    doc = parse(out)
    assert doc["status"] == "infeasible"
    assert "point" not in doc


def test_solve_unbounded_lp(tmp_path, capsys):
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "lp",
        "payload": {
            "A": [[1, -1]],
            "b": [0],
            "lower": [0, 0],
            "upper": [None, None],
            "z0": [0, 0],
        },
        "objective": {"kind": "linear", "c": [-1, -1]},
    }
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, ["solve", path])
    assert code == 3
    assert parse(out)["status"] == "unbounded"


def test_solve_parse_error_keeps_stdout_clean(tmp_path, capsys):
    path = write_doc(tmp_path, '{"format_version": 1,', name="bad.json")
    code, out, err = run(capsys, ["solve", path])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_solve_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, ["solve", str(tmp_path / "nope.json")])
    assert code == 1
    assert out == ""


def test_solve_twostage_document(tmp_path, capsys):
    comp = {
        "kind": "composite",
        "c": [0, 0],
        "rows": [
            {"coeffs": [1, 0], "fn": SQ_DOC},
            {"coeffs": [0, 1], "fn": SQ_DOC},
        ],
    }
    doc = {
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
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    got = parse(out)
    assert got["point"] == [1, 1, 2]
    assert got["value"] == "7"


def test_solve_decode_document(tmp_path, capsys):
    received = [[[0, 1], [1, 1]], [[1, 1], [1, 1]]]
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "decode",
        "payload": {"dims": [1, 1, 1], "u": 1, "U": 2, "received": received, "p": 1},
        "objective": None,
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    got = parse(out)
    assert got["value"] == "1"
    assert got["point"] == [1] * 8


def test_basis_circuits_count(tmp_path, capsys):
    path = write_doc(tmp_path, LP_DOC)
    code, out, _ = run(capsys, ["basis", path, "--circuits"])
    assert code == 0
    doc = parse(out)
    assert doc["kind"] == "basis" and doc["variant"] == "circuits"
    assert doc["count"] == 10
    elems = {tuple(e) for e in doc["elements"]}
    assert (1, 0, 0, -2, -1, 0) in elems
    assert all(tuple(-x for x in e) in elems for e in elems)


def test_basis_graver_and_composite(tmp_path, capsys):
    doc = knap_doc()
    doc["payload"]["A"] = [[1, 2]]
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["basis", path, "--graver"])
    assert code == 0
    got = parse(out)
    assert sorted(tuple(e) for e in got["elements"]) == [(-2, 1), (2, -1)]
    code, out, _ = run(capsys, ["basis", path, "--composite"])
    assert code == 0
    comp = parse(out)
    assert comp["variant"] == "composite"
    # lifted width: 2 step coordinates plus one tracker per objective row
    assert all(len(e) == 4 for e in comp["elements"])
    assert {tuple(e[:2]) for e in comp["elements"]} >= {(2, -1), (-2, 1)}
    assert all(e[2] == -e[0] and e[3] == -e[1] for e in comp["elements"])


def test_basis_variant_required(tmp_path, capsys):
    path = write_doc(tmp_path, LP_DOC)
    with pytest.raises(SystemExit):
        main(["basis", path])
    capsys.readouterr()


def test_oracle_tie_break(tmp_path, capsys):
    path = write_doc(tmp_path, knap_doc(z0=(3, 0)))
    code, out, _ = run(capsys, ["oracle", path])
    assert code == 0
    doc = parse(out)
    assert doc["point"] == [1, 2]
    assert doc["value"] == "5"


def test_oracle_radius_fills_open_bounds(tmp_path, capsys):
    doc = knap_doc()
    doc["payload"]["upper"] = [None, 3]
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, ["oracle", path])
    assert code == 1  # unbounded box refused without a radius
    code, out, _ = run(capsys, ["oracle", path, "--radius", "3"])
    assert code == 0
    assert parse(out)["point"] == [1, 2]


def test_oracle_cell_cap(tmp_path, capsys):
    path = write_doc(tmp_path, knap_doc())
    code, out, err = run(capsys, ["oracle", path, "--cell-cap", "3"])
    assert code == 4
    assert out == ""
    assert "error" in err


def test_model_transportation_translation(tmp_path, capsys):
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "transportation",
        "payload": {"supplies": [2, 1], "demands": [1, 2], "caps": 2},
        "objective": None,
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["model", "transportation", path])
    assert code == 0
    got = parse(out)
    assert got["kind"] == "nfold"
    assert got["payload"]["A"] == [[1, 1]]
    assert got["payload"]["B"] == [[1, 0], [0, 1]]
    assert got["payload"]["b0"] == [2, 1]
    code, out2, _ = run(capsys, ["model", "transportation", path])
    assert out2 == out


def test_model_decode_reports_surrogate_exponent(tmp_path, capsys):
    ones = [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "decode",
        "payload": {"dims": [1, 1, 1], "u": 1, "U": 2, "received": ones, "p": "inf"},
        "objective": None,
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["model", "decode", path])
    assert code == 0
    got = parse(out)
    assert got["payload"]["meta"] == {"q": 10}
    doc["payload"]["p"] = 1
    path = write_doc(tmp_path, doc, name="p1.json")
    code, out, _ = run(capsys, ["model", "decode", path])
    assert "meta" not in parse(out)["payload"]


def test_model_kind_mismatch(tmp_path, capsys):
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "transportation",
        "payload": {"supplies": [1], "demands": [1], "caps": 1},
        "objective": None,
    }
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, ["model", "table3", path])
    assert code == 1
    assert out == ""
    assert "does not match" in err


def test_threads_env_default(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, knap_doc(z0=(3, 0)))
    monkeypatch.setenv("GRAVER_OPT_THREADS", "4")
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    assert parse(out)["point"] == [2, 1]
    monkeypatch.setenv("GRAVER_OPT_THREADS", "x")
    code, out, err = run(capsys, ["solve", path])
    assert code == 1
    assert out == ""
    # an explicit flag wins before the env value is even parsed
    code, out, _ = run(capsys, ["solve", path, "--threads", "2"])
    assert code == 0
    assert parse(out)["point"] == [2, 1]


def canonical_without_wall(out):
    doc = parse(out)
    del doc["stats"]["wall_ms"]
    return to_json(doc)


def test_threads_do_not_change_results(tmp_path, capsys):
    docs = [knap_doc(z0=(3, 0)), LP_DOC]
    for i, doc in enumerate(docs):
        path = write_doc(tmp_path, doc, name="t%d.json" % i)
        outs = set()
        for flags in ([], ["--threads", "1"], ["--threads", "4"]):
            code, out, _ = run(capsys, ["solve", path, "--trace"] + flags)
            assert code == 0
            outs.add(canonical_without_wall(out))
        assert len(outs) == 1


def _sq(shift):
    return {"kind": "abs_power", "scale": 1, "power": 2, "shift": shift}


def _comp(c, shifts):
    rows = [
        {"coeffs": [1 if k == j else 0 for k in range(len(c))], "fn": _sq(v)}
        for j, v in enumerate(shifts)
    ]
    return {"kind": "composite", "c": list(c), "rows": rows}


def _doc(kind, payload, objective):
    return {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload, "objective": objective}


TWOSTAGE_PAYLOAD = {"T": [[1]], "W": [[1]], "N": 2, "b": [[2], [3]], "ux": [2], "uy": [[2], [3]]}
TWOSTAGE_OBJ = {"kind": "blocks", "blocks": [_comp([0, 0], [0, 0])] * 2}
DECODE_PAYLOAD = {"dims": [1, 1, 1], "u": 1, "U": 2, "received": [[[0, 1], [1, 1]], [[1, 1], [1, 2]]]}

# One small document per kind, with its result document as recorded
# before the solvers shared one lowering and one augmentation loop.
# table3 and twostage were recorded again when block solves started
# from an integer solution of A z = b walked into the bounds: their
# start point moved, so trace and stats did; status, value and point
# agree with bruteforce.solve_oracle.
GOLDEN_DOCS = {
    "ip": knap_doc(z0=(3, 0)),
    "lp": LP_DOC,
    "nfold": _doc(
        "nfold",
        {"A": [[1, 1]], "B": [[1, 0], [0, 1]], "N": 2, "b": [[2], [2]], "b0": [2, 2],
         "upper": [[2, 2], [2, 2]]},
        {"kind": "blocks", "blocks": [_comp([0, 1], [2, 0]), _comp([1, 0], [0, 0])]},
    ),
    "transportation": _doc(
        "transportation",
        {"supplies": [2, 1], "demands": [1, 2], "caps": 2},
        {"kind": "blocks", "blocks": [_comp([1, 3], [0, 0]), _comp([2, 0], [1, 0])]},
    ),
    "table3": _doc(
        "table3",
        {"L": 2, "M": 2, "N": 2, "caps": 1,
         "r": [[1, 1], [1, 1]], "s": [[1, 1], [1, 1]], "t": [[1, 1], [1, 1]]},
        {"kind": "blocks",
         "blocks": [_comp([0, 3, 3, 0], [1, 0, 0, 1]), _comp([3, 0, 0, 3], [0, 1, 1, 0])]},
    ),
    # few blocks past DIRECT_THRESHOLD: the lifted walk stops at N, and
    # the results are those of --direct-threshold 30
    "transportation-25x1": _doc(
        "transportation",
        {"supplies": [1] * 25, "demands": [25], "caps": 1},
        {"kind": "blocks", "blocks": [_comp([j % 4 for j in range(25)], [])]},
    ),
    "transportation-13x2": _doc(
        "transportation",
        {"supplies": [1] * 13, "demands": [6, 7], "caps": 1},
        {"kind": "blocks",
         "blocks": [_comp([3 * j % 5 for j in range(13)], []), _comp([(2 * j + 1) % 4 for j in range(13)], [])]},
    ),
    "twostage": _doc("twostage", TWOSTAGE_PAYLOAD, TWOSTAGE_OBJ),
    "decode-p1": _doc("decode", dict(DECODE_PAYLOAD, p=1), None),
    "decode-pinf": _doc("decode", dict(DECODE_PAYLOAD, p="inf"), None),
    "infeasible": _doc("twostage", dict(TWOSTAGE_PAYLOAD, b=[[2], [9]]), TWOSTAGE_OBJ),
    "infeasible-box": _doc("twostage", dict(TWOSTAGE_PAYLOAD, ux=[-1]), TWOSTAGE_OBJ),
    "nfold-infeasible-box": _doc(
        "nfold",
        {"A": [[1, 1]], "B": [[1, 0], [0, 1]], "N": 2, "b": [[2], [2]], "b0": [2, 2],
         "upper": [[2, -1], [2, 2]]},
        {"kind": "blocks", "blocks": [_comp([0, 0], [0, 0])] * 2},
    ),
    # 2 z_1 + ... + 2 z_20 = 41 has no integer point; a scan of the box
    # alone, without the parity argument, would take hours
    "parity": _doc(
        "ip",
        {"A": [[2] * 20], "b": [41], "lower": [0] * 20, "upper": [3] * 20},
        {"kind": "linear", "c": [1] * 20},
    ),
    "unbounded": _doc(
        "lp",
        {"A": [[1, -1]], "b": [0], "lower": [0, 0], "upper": [None, None], "z0": [0, 0]},
        {"kind": "linear", "c": [-1, -1]},
    ),
}

GOLDEN_OUT = {
    "ip": (0, '{"format_version":1,"kind":"result","point":[2,1],"stats":{"augment_steps":1,"basis_size":2,"directions_evaluated":4},"status":"optimal","trace":[{"direction":[-1,1],"steplen":1,"value_after":5,"value_before":9}],"value":"5"}\n'),
    "lp": (0, '{"format_version":1,"kind":"result","point":[0,0,1,2,2,0],"stats":{"augment_steps":2,"basis_size":10,"directions_evaluated":30},"status":"optimal","trace":[{"direction":[0,-1,0,1,2,0],"steplen":1,"value_after":0,"value_before":1},{"direction":[0,0,1,0,0,-1],"steplen":1,"value_after":-1,"value_before":0}],"value":"-1"}\n'),
    "nfold": (0, '{"format_version":1,"kind":"result","point":[2,0,0,2],"stats":{"augment_steps":1,"basis_size":2,"directions_evaluated":4},"status":"optimal","trace":[{"direction":[1,-1,-1,1],"steplen":2,"value_after":4,"value_before":16}],"value":"4"}\n'),
    "transportation": (0, '{"format_version":1,"kind":"result","point":[1,0,1,1],"stats":{"augment_steps":1,"basis_size":2,"directions_evaluated":4},"status":"optimal","trace":[{"direction":[1,-1,-1,1],"steplen":1,"value_after":5,"value_before":9}],"value":"5"}\n'),
    "table3": (0, '{"format_version":1,"kind":"result","point":[1,0,0,1,0,1,1,0],"stats":{"augment_steps":0,"basis_size":2,"directions_evaluated":2},"status":"optimal","trace":[],"value":"0"}\n'),
    "transportation-25x1": (0, '{"format_version":1,"kind":"result","point":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"stats":{"augment_steps":0,"basis_size":0,"directions_evaluated":0},"status":"optimal","trace":[],"value":"36"}\n'),
    "transportation-13x2": (0, '{"format_version":1,"kind":"result","point":[1,0,0,0,0,1,0,1,0,1,1,0,1,0,1,1,1,1,0,1,0,1,0,0,1,0],"stats":{"augment_steps":2,"basis_size":156,"directions_evaluated":468},"status":"optimal","trace":[{"direction":[0,0,0,0,0,1,0,0,-1,0,0,0,0,0,0,0,0,0,-1,0,0,1,0,0,0,0],"steplen":1,"value_after":18,"value_before":24},{"direction":[1,0,0,0,0,0,0,0,0,0,0,-1,0,-1,0,0,0,0,0,0,0,0,0,0,1,0],"steplen":1,"value_after":17,"value_before":18}],"value":"17"}\n'),
    "twostage": (0, '{"format_version":1,"kind":"result","point":[1,1,2],"stats":{"augment_steps":1,"basis_size":2,"directions_evaluated":4},"status":"optimal","trace":[{"direction":[-1,1,1],"steplen":1,"value_after":7,"value_before":9}],"value":"7"}\n'),
    "decode-p1": (0, '{"format_version":1,"kind":"result","point":[1,1,1,1,1,1,1,1],"stats":{"augment_steps":1,"basis_size":2,"directions_evaluated":4},"status":"optimal","trace":[{"direction":[1,-1,-1,1,-1,1,1,-1],"steplen":1,"value_after":2,"value_before":6}],"value":"2"}\n'),
    # p = inf reports the l_inf distance, not the surrogate objective
    "decode-pinf": (0, '{"format_version":1,"kind":"result","point":[1,1,1,1,1,1,1,1],"stats":{"augment_steps":1,"basis_size":2,"directions_evaluated":4},"status":"optimal","trace":[{"direction":[1,-1,-1,1,-1,1,1,-1],"steplen":1,"value_after":2,"value_before":6}],"value":"1"}\n'),
    "infeasible": (2, '{"format_version":1,"kind":"result","stats":{"augment_steps":0,"basis_size":0,"directions_evaluated":0},"status":"infeasible"}\n'),
    "infeasible-box": (2, '{"format_version":1,"kind":"result","stats":{"augment_steps":0,"basis_size":0,"directions_evaluated":0},"status":"infeasible"}\n'),
    "nfold-infeasible-box": (2, '{"format_version":1,"kind":"result","stats":{"augment_steps":0,"basis_size":0,"directions_evaluated":0},"status":"infeasible"}\n'),
    "parity": (2, '{"format_version":1,"kind":"result","stats":{"augment_steps":0,"basis_size":0,"directions_evaluated":0},"status":"infeasible"}\n'),
    "unbounded": (3, '{"format_version":1,"kind":"result","stats":{"augment_steps":0,"basis_size":0,"directions_evaluated":0},"status":"unbounded"}\n'),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCS))
def test_solve_trace_golden_output(tmp_path, capsys, name):
    path = write_doc(tmp_path, GOLDEN_DOCS[name])
    code, out, _ = run(capsys, ["solve", path, "--trace"])
    assert (code, canonical_without_wall(out)) == GOLDEN_OUT[name]


def test_graver_cap_zero_is_not_the_default(tmp_path, capsys):
    path = write_doc(tmp_path, GOLDEN_DOCS["twostage"])
    for cap in ("0", "1"):
        code, out, err = run(capsys, ["solve", path, "--graver-cap", cap])
        assert code == 1 and out == ""
        assert "cap must be at least 2" in err


def test_solve_decode_builds_matrix_once(tmp_path, capsys, monkeypatch):
    # the CLI lowers the document once; decoding and the self-check share it
    built = []
    real = nfold.build_nfold_matrix

    def counting(A, B, N):
        built.append(N)
        return real(A, B, N)

    monkeypatch.setattr(nfold, "build_nfold_matrix", counting)
    path = write_doc(tmp_path, GOLDEN_DOCS["decode-p1"])
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    assert built == [2]


def _off_constraints(result):
    """The solver's result with its first coordinate raised by one, which
    breaks an equality constraint of every case below."""
    point, trace = result
    if isinstance(point, BlockVector):
        first = point.blocks[0]
        return BlockVector(((first[0] + 1,) + first[1:],) + point.blocks[1:]), trace
    if isinstance(point, TwoStagePoint):
        return TwoStagePoint((point.x[0] + 1,) + point.x[1:], point.ys), trace
    return (point[0] + 1,) + tuple(point[1:]), trace


@pytest.mark.parametrize(
    "name, module, solver",
    [
        ("ip", cli, "solve_ip_greedy"),
        ("lp", cli, "solve_lp_circuit"),
        ("nfold", cli, "solve_nfold"),
        ("twostage", cli, "solve_twostage"),
        ("decode-p1", models, "solve_nfold"),
    ],
)
def test_selfcheck_rejects_broken_point(tmp_path, capsys, monkeypatch, name, module, solver):
    real = getattr(module, solver)
    monkeypatch.setattr(module, solver, lambda *a, **k: _off_constraints(real(*a, **k)))
    path = write_doc(tmp_path, GOLDEN_DOCS[name])
    code, out, err = run(capsys, ["solve", path])
    assert code == 1
    assert "self-verification failed" in err
    assert out == ""


def test_console_script_runs(tmp_path):
    path = write_doc(tmp_path, knap_doc(z0=(3, 0)))
    proc = subprocess.run(
        ["graveropt", "solve", path], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["point"] == [2, 1]
