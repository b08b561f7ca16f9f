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
from graveropt.linalg import Mat
from graveropt.objective import CompositeObjective

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    path = os.path.join(ROOT, "graverbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("graverbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_resolves():
    tracing = _load_tracing()
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
