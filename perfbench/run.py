"""felab benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload planar_sets --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

Run from the repository root.  One client calls felab's public Python API,
each call after the previous one returns, with threads=1 and a fixed BLAS
thread count.  The workload seed draws every input; felab receives only the
generated inputs.

A run executes a fixed op list: the prefix of the workload's op pattern
whose nominal cost (single-call times measured on a 2-core x86 box) reaches
--seconds.  Every run of a seed therefore executes the same ops, and a
faster program finishes the list sooner.

--trace 0 sets up felab several times (fresh import, input generation,
warm-up) before the list and after it, reports the median as setup_s, and
prints the end-to-end metrics; their timings are in units of a yardstick
timed around and during every op (yardstick.py), because the host's speed
changes within seconds.  --trace 1 runs a list of a quarter of that nominal
length four times, each from a fresh set-up; the third pass has every
public felab function wrapped in a span recorder.  It prints the per-layer
metrics.  --workload all runs every workload, untraced and traced, each in
its own process, and prints every metric.

Every op's result is checked against references computed outside the
timed region; a failed check or an exception counts the op as failed.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench"
BLAS_THREADS = 1
SETUP_MIN_REPS = 2     # before the ops, set up at least this many times,
SETUP_MIN_SECONDS = 0.5  # and again until the set-ups take this long in all,
SETUP_MAX_REPS = 12    # but no more than this many; after the ops, one fewer
# setup_s is a set-up's time in yardstick units times this: seconds at a
# fixed host speed, one yardstick computation (yardstick.py) per millisecond
REF_SECONDS = 1e-3
# the timing metrics in seconds: printed, not in the result (see yardstick.py)
SECONDS_FORMS = ("ops_per_s", "op_p50_s", "op_tail_s")
TAIL_BEYOND = 10  # op_tail_ref is the latency with this many samples above it


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_benchmark():
    """numpy and the benchmark's modules, after the BLAS pin and the path check."""
    if not (ROOT / "src" / "felab" / "__init__.py").is_file():
        raise SystemExit(f"felab sources not found under {ROOT / 'src'}; "
                         "run the benchmark from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import numpy  # noqa: F401  felab's third-party imports stay outside setup_s
    import scipy.interpolate  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401


@dataclass
class OpRecord:
    kind: str
    latency: float
    failures: list
    ref: float  # mean yardstick reading around and during the op, in s


def import_felab():
    """A fresh import of felab's layers: module state and caches start empty."""
    from tracer import LAYERS
    from types import SimpleNamespace
    for name in [m for m in sys.modules if m == "felab" or m.startswith("felab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"felab.{name}") for name in LAYERS})


def set_up(workload, seed: int, n_ops: int, tracer=None, yardstick=None):
    """Import, input generation and warm-up.

    Returns (felab, the first ``n_ops`` ops of the workload, import seconds,
    generation and warm-up seconds, yardstick readings).  With a tracer, the
    wrappers go in after the import and record generation and warm-up as
    op -1.  With a yardstick (untraced runs, inside its ``installed``
    block), readings are taken while the set-up runs and their time is taken
    out of the generation and warm-up seconds.
    """
    gc.collect()  # the previous set-up's garbage is not this one's cost
    if yardstick is not None:
        yardstick.arm()
    t0 = perf_counter()
    fl = import_felab()
    t1 = perf_counter()
    if tracer is not None:
        tracer.install()
        tracer.active = True
    t2 = perf_counter()
    ops = list(itertools.islice(workload.op_stream(fl, seed), n_ops))
    workload.warm_up(fl)
    t3 = perf_counter()
    inside = yardstick.disarm() if yardstick is not None else []
    if tracer is not None:
        tracer.active = False
    return fl, ops, t1 - t0, t3 - t2 - sum(inside), inside


def run_ops(ops, tracer=None) -> list:
    """Closed loop: each op starts when the previous one and its check are done.

    Checks and yardstick readings run untimed and untraced.  Readings
    inside an op are taken in untraced runs only, where the time they take
    is subtracted from the op's latency; in a traced run they would land
    in felab's spans.
    """
    from yardstick import Yardstick
    records = []
    yardstick = Yardstick()
    yardstick.read()  # the first reading pays numpy's one-time costs
    with yardstick.installed():
        for index, op in enumerate(ops):
            before = yardstick.read()
            if tracer is None:
                yardstick.arm()
            else:
                tracer.op = index
                tracer.active = True
            t0 = perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed op is counted, never fatal
                result, error = None, exc
            latency = perf_counter() - t0
            if tracer is None:
                inside = yardstick.disarm()
                latency -= sum(inside)
            else:
                tracer.active = False
                inside = []
            readings = [before, *inside, yardstick.read()]
            if error is not None:
                failures = [f"raised {type(error).__name__}: {error}"]
            else:
                try:
                    failures = op.check(result)
                except Exception as exc:
                    failures = [f"check raised {type(exc).__name__}: {exc}"]
            if failures:
                print(f"# FAILED op {index} ({op.kind}): {'; '.join(failures)}",
                      file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
            records.append(OpRecord(op.kind, latency, failures,
                                    sum(readings) / len(readings)))
    return records


def tail_latency(latencies: list):
    """(value, percentile, samples): the latency with TAIL_BEYOND samples above it.

    With no more samples than TAIL_BEYOND no such latency exists; the
    maximum is reported, at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank from the bottom
    return xs[rank - 1], 100.0 * rank / n, n


def environment() -> dict:
    import numpy
    import scipy
    src = ROOT / "src" / "felab"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    blas = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_runtime": blas.get("threads"),
        "felab_commit": commit,
        "felab_source_sha256": digest.hexdigest(),
        "process": "one workload per process; peak_rss_mb is that workload's peak",
    }


def _openblas_runtime() -> dict:
    """OpenBLAS version and thread count as the loaded library reports them."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                            and line.split()[-1].endswith(".so")})
    except OSError:
        return {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                config = get_config().decode(errors="replace").split()
                return {"threads": get_threads(),
                        "version": config[1] if len(config) > 1 else None}
    return {}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed: int, seconds: float) -> tuple:
    """Set-ups, the op list, then one set-up fewer than before it.

    Set-ups on both sides of the op list put setup_s on the host speed of
    the whole run rather than of its first seconds.  Like the ops, each
    set-up is timed against the yardstick; setup_s converts the median to
    seconds at REF_SECONDS per yardstick time.
    """
    from yardstick import Yardstick
    yardstick = Yardstick()
    yardstick.read()  # the first reading pays numpy's one-time costs
    setups, setup_refs = [], []

    def one_set_up():
        before = yardstick.read()
        fl, ops, import_s, prep_s, inside = set_up(workload, seed, workload.ops_for(seconds),
                                                   yardstick=yardstick)
        readings = [before, *inside, yardstick.read()]
        setups.append(import_s + prep_s)
        setup_refs.append(setups[-1] / (sum(readings) / len(readings)))
        return ops

    with yardstick.installed():
        while len(setups) < SETUP_MIN_REPS or (sum(setups) < SETUP_MIN_SECONDS
                                               and len(setups) < SETUP_MAX_REPS):
            ops = None  # drop the previous set-up before the next one
            ops = one_set_up()
        records = run_ops(ops)
        ops = None
        for _ in range(len(setups) - 1):
            one_set_up()
    latencies = [r.latency for r in records]
    scaled = [r.latency / r.ref for r in records]
    failed = sum(1 for r in records if r.failures)
    tail, pct, n = tail_latency(scaled)
    metrics = {
        "ops_per_kref": _metric(1000.0 * len(records) / sum(scaled), "1/kref"),
        "op_p50_ref": _metric(statistics.median(scaled), "ref"),
        "op_tail_ref": _metric(tail, "ref"),
        "ok_frac": _metric((len(records) - failed) / len(records), "ratio"),
        "setup_s": _metric(statistics.median(setup_refs) * REF_SECONDS, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    refs = [r.ref for r in records]
    notes = {"op_tail_ref": f"p{pct:.1f} of n={n} ops ({min(TAIL_BEYOND, n - 1)} above it)",
             "fail_frac": f"{failed / len(records):.6g} ({failed} of {len(records)} ops failed)",
             "setup_s": f"median of {len(setups)} set-ups; unscaled median "
                        f"{statistics.median(setups):.6g} s, {min(setups):.4f} to "
                        f"{max(setups):.4f} s",
             # the same figures in seconds, which follow the host's speed
             "ops_per_s": _metric(len(records) / sum(latencies), "1/s"),
             "op_p50_s": _metric(statistics.median(latencies), "s"),
             "op_tail_s": _metric(tail_latency(latencies)[0], "s"),
             "yardstick_s": f"median {statistics.median(refs):.6g}, {min(refs):.6g} to "
                            f"{max(refs):.6g}",
             "ops_by_kind": _kinds(records)}
    return records, metrics, notes


def _kinds(records) -> dict:
    """Op kind -> [count, median latency in s, median latency in ref]."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r)
    return {k: [len(v), round(statistics.median(r.latency for r in v), 4),
                round(statistics.median(r.latency / r.ref for r in v), 2)]
            for k, v in by_kind.items()}


def run_traced(workload, seed: int, seconds: float) -> tuple:
    """A fixed op list run four times, each from a fresh set-up.

    The list is the pattern prefix whose nominal cost reaches seconds / 4,
    so counts repeat exactly for a seed.  Pass 1 (plain) absorbs the
    process's one-time costs; pass 3 is traced, and its overhead is taken
    against the mean of the plain passes 2 and 4 around it, which cancels
    a steady drift in speed.  Walls exclude the import.
    """
    from tracer import Tracer
    n = workload.ops_for(seconds / 4.0)
    tracer = Tracer()
    records, walls = [], []
    for pass_tracer in (None, None, tracer, None):
        fl = ops = None
        try:
            fl, ops, _, prep, _ = set_up(workload, seed, n, pass_tracer)
            done = run_ops(ops, pass_tracer)
        finally:
            if pass_tracer is not None:
                pass_tracer.uninstall()
        records += done
        walls.append(prep + sum(r.latency for r in done))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")
    metrics = layer_metrics(tracer, walls[2], 0.5 * (walls[1] + walls[3]))
    notes = {"traced_ops": n, "pass_walls_s": [round(w, 4) for w in walls],
             "ops_by_kind": _kinds(records[2 * n:3 * n])}
    return records, metrics, notes


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def layer_metrics(tracer, wall: float, plain_wall: float) -> dict:
    """Every per_layer metric of BENCHMARK.json; absent functions give null."""
    from tracer import LAYERS
    summary = tracer.summary()
    funcs, tags = summary["functions"], summary["tags"]
    self_total = sum(f["self_s"] for f in funcs.values())
    results = sum(f["results"] for q, f in funcs.items() if q.startswith("quadrature."))
    unconv = sum(f["unconverged"] for q, f in funcs.items() if q.startswith("quadrature."))
    probe = funcs.get("search.random_probe")
    special = {
        "search.evals": tracer.evals if probe else None,
        "search.evals_per_s": (tracer.evals / probe["busy_s"] if probe["busy_s"] else 0.0)
        if probe else None,
        "search.useful_frac": (tracer.calls_under("functional.phi_q", "search.random_probe")
                               / tracer.evals if tracer.evals else 0.0) if probe else None,
        "functional.phi_q.unconverged_frac": _frac(funcs.get("functional.phi_q")),
        "quadrature.unconverged_frac": unconv / results if results else 0.0,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - self_total,
        "trace.overhead_frac": wall / plain_wall - 1.0,
    }
    for layer in LAYERS:
        special[f"{layer}.self_s"] = sum(f["self_s"] for q, f in funcs.items()
                                         if q.startswith(layer + "."))
    metrics = {}
    for spec in load_spec()["per_layer"]:
        name = spec["name"]
        if name in special:
            value = special[name]
        elif name.endswith("_1d.busy_s") or name.endswith("_2d.busy_s"):
            base = name[: -len("_1d.busy_s")]
            value = tags.get(name[: -len(".busy_s")], 0.0) if base in funcs else None
        else:
            qual, _, stat = name.rpartition(".")
            value = funcs[qual][stat] if qual in funcs else None
        metrics[name] = _metric(value, spec["unit"])
    return metrics


def _frac(f):
    if f is None:
        return None
    return f["unconverged"] / f["results"] if f["results"] else 0.0


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    runner = run_traced if trace else run_untraced
    records, metrics, notes = runner(workload, seed, seconds)
    failed = sum(1 for r in records if r.failures)
    for key, value in metrics.items():
        extra = f"  [{notes[key]}]" if key in notes else ""
        print(f"# {name} {key} = {value['value']} {value['unit']}{extra}")
    for key, value in notes.items():
        if key in SECONDS_FORMS:
            print(f"# {name} {key} = {value['value']} {value['unit']}  [in seconds]")
        elif key not in metrics:
            print(f"# {name} {key}: {value}")
    print(json.dumps({"env": environment()}))
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    from workloads import WORKLOADS
    spec = load_spec()
    rows, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            row = rows.setdefault(name, {})
            row.update(result["metrics"])
            if not trace:
                row["fail_frac"] = _metric(result["failed"] / result["attempted"], "ratio")
                for line in lines:
                    words = line.split()
                    if len(words) >= 6 and words[2] in SECONDS_FORMS and words[3] == "=":
                        row[words[2]] = _metric(float(words[4]), words[5])
    names = ([m["name"] for m in spec["end_to_end"]] + ["fail_frac"] + list(SECONDS_FORMS)
             + [m["name"] for m in spec["per_layer"]])
    print(f"{'metric':44s} " + " ".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for metric in names:
        cells, unit = [], ""
        for w in WORKLOADS:
            m = rows.get(w, {}).get(metric)
            unit = m["unit"] if m else unit
            v = None if m is None else m["value"]
            cells.append(f"{'absent' if v is None else format(v, '.6g'):>16s}")
        print(f"{metric:44s} " + " ".join(cells) + f"  {unit}")
    print(json.dumps(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["planar_sets", "interval_sets", "kernel_spectrum",
                                 "expansion", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _pin_blas_threads()
    _import_benchmark()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
