"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._pin_blas_threads()
run._import_benchmark()

from tracer import felab_modules, is_wrapped  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.3", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_emits_every_metric(workload):
    plain = _run(workload, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["attempted"] >= 1 and plain["failed"] == 0
    for spec in SPEC["end_to_end"]:
        m = plain["metrics"][spec["name"]]
        assert m["unit"] == spec["unit"] and m["value"] > 0, spec["name"]
    assert set(plain["metrics"]) == {s["name"] for s in SPEC["end_to_end"]}

    traced = _run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {s["name"] for s in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        m = traced["metrics"][spec["name"]]
        assert m["unit"] == spec["unit"] and m["value"] is not None, spec["name"]
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    # self times partition the traced wall: layers plus the unattributed rest
    layers = sum(values[f"{layer}.self_s"] for layer in
                 ("search", "functional", "set_model", "radial_kernels", "quadrature",
                  "spectral", "perturbation"))
    assert values["trace.unattributed_s"] >= 0.0
    assert layers + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"],
                                                                     rel=1e-9)


def corrupt(x, factor=1.0 + 1e-3):
    """Every float in a felab result scaled by ``factor``."""
    if isinstance(x, float):
        return x * factor
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        return x * factor
    if isinstance(x, tuple):
        return tuple(corrupt(v, factor) for v in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return dataclasses.replace(x, **{f.name: corrupt(getattr(x, f.name), factor)
                                         for f in dataclasses.fields(x) if f.init})
    return x


# op kinds whose references are tight enough to see a 1e-3 relative error
CAUGHT = {
    "planar_sets": ("probe", "balance"),
    "interval_sets": ("phi_q6", "phi_q4", "search_q6"),
    "kernel_spectrum": ("kernel_K1_q4", "gamma_d1", "gamma_d2_q4", "mode_margins_q4",
                        "first_variation_q6"),
    "expansion": ("translated_ball_d1_q4", "sliver_d1_q4"),
}


@pytest.mark.parametrize("workload", list(CAUGHT))
def test_corrupted_result_counts_as_failed(workload):
    w = WORKLOADS[workload]
    fl = run.import_felab()
    stream = w.op_stream(fl, 5)
    ops = [next(op for op in stream if op.kind == kind) for kind in CAUGHT[workload]]
    clean = run.run_ops(ops)
    assert [r.failures for r in clean] == [[] for _ in ops]
    for op in ops:
        call = op.call
        op.call = lambda call=call: corrupt(call())
    dirty = run.run_ops(ops)
    assert all(r.failures for r in dirty), [(r.kind, r.failures) for r in dirty]


def test_untraced_run_leaves_felab_unwrapped(monkeypatch):
    seen = []
    real_run_ops = run.run_ops

    def watching_run_ops(ops, tracer=None):
        seen.append([name for mod in felab_modules() for name, val in vars(mod).items()
                     if callable(val) and is_wrapped(val)])
        return real_run_ops(ops, tracer)

    monkeypatch.setattr(run, "run_ops", watching_run_ops)
    run.run_untraced(WORKLOADS["planar_sets"], 7, 0.3)
    assert seen == [[]]
    assert not any(is_wrapped(val) for mod in felab_modules() for val in vars(mod).values()
                   if callable(val))


def test_yardstick_reads_inside_an_op_and_restores_the_handler():
    from yardstick import Yardstick
    before = signal.getsignal(signal.SIGALRM)
    ys = Yardstick()
    with ys.installed():
        ys.arm()
        t0 = perf_counter()
        while perf_counter() - t0 < 0.35:  # an op busy in Python code
            pass
        inside = ys.disarm()
    assert len(inside) >= 2 and all(r > 0 for r in inside)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_run_restores_felab():
    run.run_traced(WORKLOADS["planar_sets"], 7, 0.6)
    assert not any(is_wrapped(val) for mod in felab_modules() for val in vars(mod).values()
                   if callable(val))
