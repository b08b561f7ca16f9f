"""The benchmark's traced run wraps graveropt functions by name
(graverbench/tracing.py LAYERS); a refactor that renames or bypasses one
of them would silently drop its layer from the per-layer table.  The
benchmark's own output checks run here too."""

import importlib.util
import json
import os
import subprocess
import sys

import graveropt.nfold as nfold
import graveropt.twostage as twostage
from graveropt.cli import main
from graveropt.documents import to_json
from graveropt.linalg import Mat
from graveropt.objective import AbsPower, CompositeObjective

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench(name):
    path = os.path.join(ROOT, "graverbench", name + ".py")
    spec = importlib.util.spec_from_file_location("graverbench_" + name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_resolves():
    tracing = _load_bench("tracing")
    for name, module, attr in tracing.LAYERS:
        assert callable(tracing._resolve(module, attr)), name


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_solve_nfold_runs_phase_one(monkeypatch):
    calls = _counting(monkeypatch, nfold, "phase_one")
    zero = CompositeObjective((0, 0), ())
    inst = nfold.NFoldInstance(
        A=Mat(((1, 1),)),
        B=Mat(((1, 0),)),
        N=2,
        b0=(1,),
        b=((2,), (2,)),
        upper=((2, 2), (2, 2)),
        objective=(CompositeObjective((1, 0), ()), zero),
    )
    nfold.solve_nfold(inst)
    assert len(calls) == 1
    nfold.solve_nfold(inst, z0=(1, 1, 0, 2))
    assert len(calls) == 1


def test_solve_twostage_steps_through_its_layers(monkeypatch):
    # one block pool, the instance's own pair, serves phase one and the
    # solve; every step goes through greedy_step_twostage
    extracted = _counting(monkeypatch, twostage, "extract_building_blocks")
    steps = _counting(monkeypatch, twostage, "greedy_step_twostage")
    obj = CompositeObjective((1, -1), ())
    T = W = Mat(((1,),))
    inst = twostage.TwoStageInstance(T, W, 2, ((2,), (3,)), (2,), ((2,), (3,)), (obj, obj))
    twostage.solve_twostage(inst)
    assert [a[:2] for a in extracted] == [(T, W)]
    assert len(steps) >= 2


def test_block_moves_price_on_the_support(monkeypatch):
    # With a per-coordinate objective, assembled moves are priced on
    # their support; whole-composite pricing would call evaluate once
    # per block, scenario and step length, so the count would grow
    # with N and the box span.
    calls = _counting(monkeypatch, twostage, "evaluate")
    T = W = Mat(((1,),))
    sq = AbsPower(1, 2, 1)
    obj = CompositeObjective((1, -1), (((1, 0), sq), ((0, 1), sq)))
    counts = set()
    for N in (1, 3):
        for u in (2, 6):
            inst = twostage.TwoStageInstance(T, W, N, ((u,),) * N, (u,), ((u,),) * N, (obj,) * N)
            moves = twostage.BlockMoves(twostage.extract_building_blocks(T, W, *inst.rows_CD()), inst)
            del calls[:]
            assert not moves.step((u,) + (0,) * N, inst.flatten_objective(), inst.box()).is_zero
            counts.add(len(calls))
    assert len(counts) == 1, counts


def test_benchmark_solve_docs_outputs_are_correct(tmp_path):
    # one pass of solve-docs rounds (108 CLI solves of every document
    # kind), each output checked by graverbench's checker
    proc = subprocess.run(
        [sys.executable, "graverbench/run.py", "--workload", "solve-docs", "--seed", "1",
         "--seconds", "0", "--results", str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def _graveropt_caches():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name.startswith("graveropt") and mod is not None
        for attr, value in vars(mod).items()
        if hasattr(value, "cache_info")
    }


def _blocks(N, c, rows=()):
    return {"kind": "blocks", "blocks": [{"kind": "composite", "c": c, "rows": list(rows)}] * N}


def test_benchmark_reset_empties_every_grown_cache(tmp_path, monkeypatch, capsys):
    # solve-docs times cold caches by emptying those of nfold and
    # twostage; a test-set cache anywhere else would keep its runs warm
    monkeypatch.syspath_prepend(os.path.join(ROOT, "graverbench"))
    workloads = _load_bench("workloads")
    sq = {"kind": "abs_power", "scale": 1, "power": 2, "shift": 1}
    pair = {"A": [[1, 1, 2]], "B": [[1, 0, 1]], "N": 2, "b": [[2], [2]], "b0": [2],
            "upper": [[2, 2, 1], [2, 2, 1]]}
    docs = {
        # shapes no other test solves, so every cache they use grows
        "direct": ("nfold", pair, _blocks(2, [1, 0, 2])),
        "lifted": ("transportation", {"supplies": [9, 8], "demands": [1] * 17, "caps": 1},
                   _blocks(17, [1, 0])),
        "composite": ("nfold", pair, _blocks(2, [0, 1, 0], [{"coeffs": [1, 2, 0], "fn": sq}])),
        "twostage": ("twostage", {"T": [[2]], "W": [[1, 1]], "N": 2, "b": [[3], [4]], "ux": [2],
                                  "uy": [[2, 2], [2, 2]]}, _blocks(2, [1, -1, 1])),
    }
    caches = _graveropt_caches()
    before = {key: c.cache_info().currsize for key, c in caches.items()}
    for name, (kind, payload, objective) in docs.items():
        path = tmp_path / (name + ".json")
        doc = {"format_version": 1, "kind": kind, "payload": payload, "objective": objective}
        path.write_text(to_json(doc))
        assert main(["solve", str(path)]) == 0, name
    capsys.readouterr()
    grown = [key for key, c in caches.items() if c.cache_info().currsize > before[key]]
    assert ("graveropt.nfold", "_block_test_set") in grown
    assert ("graveropt.twostage", "_harvest_blocks") in grown
    workloads.SolveDocs(1, str(tmp_path / "work")).reset()
    assert [key for key in grown if caches[key].cache_info().currsize] == []
