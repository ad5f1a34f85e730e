#!/usr/bin/env python3
"""Sweep benchmark for qetchain.

Run from the repository root:

    python3 benchmarks/run.py --workload s2-block --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seconds 10

One caller drives the library in-process as a closed loop: each workload
pass starts when the previous one has returned.  Everything runs on one
thread: the workloads ask for ``threads=1`` and the benchmark sets the BLAS
and OpenMP thread counts to 1 before numpy loads, recording what it found.
On a host of two shared vCPUs, the auto pool with BLAS at its default thread
count made pass times swing by a third from one run to the next.

With ``--trace 0`` a run measures, in this order:

* ``peak_traced_mb``: the tracemalloc peak over one pass, in MiB.  It
  excludes LAPACK workspaces, which tracemalloc cannot see.  This pass is
  also the warm-up pass, so lazy set-up does not leak into ``pass_s``;
* ``pass_s``: median wall time of the passes started within ``--seconds``;
* ``setup_s``: median over SETUP_RUNS fresh interpreters, started one at a
  time between passes across the same ``--seconds``, of the time from start
  to the first result (``import qetchain`` plus the smallest
  ``run_setting1`` call);
* ``ok_frac``: 1 - failed_frac, the share of checked items that matched the
  reference (a never-zero form of failed_frac).

With ``--trace 1`` a run alternates untraced and traced passes after a
warm-up pass and reports per-layer counts and self times (see tracer.py),
plus the tracing overhead.  Spans go to ``.bench_out/`` at the end.

Lines before the last one report the environment and details (the pass-time
tail, failed_frac); the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("s2-block", "s1-distance", "size-large", "validate-small")
SETUP_RUNS = 11
SETUP_CODE = (
    "import qetchain\n"
    "report = qetchain.run_setting1(qetchain.ChainParams(n_sites=4, alpha=0.9), 0)\n"
    "print(repr(report.optimized_energy), flush=True)\n"
)
# Set before numpy loads; fresh set-up interpreters inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FOUND_THREAD_VARS = {name: os.environ.get(name) for name in THREAD_VARS}
END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_traced_mb": "MiB", "ok_frac": "frac"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import qetchain from this checkout's src/, and nothing else."""
    if not (SRC / "qetchain" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no qetchain sources under {SRC}")
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import qetchain

    if Path(qetchain.__file__).resolve().parent != SRC / "qetchain":
        raise SystemExit(f"run.py: imported qetchain from {qetchain.__file__}, not from {SRC}")
    return qetchain


# -- environment --------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return caches


def environment(config, rows: int | None) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars_found": FOUND_THREAD_VARS,
        "thread_vars_used": {name: os.environ.get(name) for name in THREAD_VARS},
        "threads": config.threads,
        # What threads=0 would resolve to: experiment._map_ordered sizes the
        # auto pool as min(rows, nproc); validate runs no pool.
        "auto_pool_workers": None if rows is None else min(rows, cpus),
    }


# -- measurement --------------------------------------------------------------

def timed_pass(workloads, config) -> tuple[float, str | None]:
    """Wall time of one pass and its output text, or None if it raised."""
    t0 = perf_counter()
    try:
        text = workloads.execute(config)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        text = None
    return perf_counter() - t0, text


def setup_once(expected: float, gate) -> float:
    """One fresh interpreter's time to the first result; the run is a checked item."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    try:
        ok = proc.returncode == 0 and abs(float(line) - expected) <= 1e-12 * abs(expected)
    except ValueError:
        ok = False
    if not ok:
        print(f"setup run failed (exit {proc.returncode}): {line!r} {err}", file=sys.stderr)
    gate.count(1, 0 if ok else 1)
    return elapsed


def tail(times: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11], "samples": n}


def end_to_end(qetchain, workloads, config, gate, seconds: float) -> tuple[dict, dict]:
    expected = qetchain.run_setting1(qetchain.ChainParams(n_sites=4, alpha=0.9), 0).optimized_energy

    tracemalloc.start()
    try:
        _, text = timed_pass(workloads, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate.check(text)

    # Set-up runs are spread evenly over the timed window, so that they and
    # the passes see the same spells of a busy host.
    times, setup = [], []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        if len(setup) < SETUP_RUNS and perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
            setup.append(setup_once(expected, gate))
            continue
        elapsed, text = timed_pass(workloads, config)
        times.append(elapsed)
        gate.check(text)
    while len(setup) < SETUP_RUNS:
        setup.append(setup_once(expected, gate))

    metrics = {
        "pass_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_traced_mb": peak / 2**20,
        "ok_frac": 1.0 - gate.failed / gate.attempted,
    }
    detail = {"pass_s_tail": tail(times), "pass_s_samples": times, "setup_s_samples": setup,
              "failed_frac": gate.failed / gate.attempted}
    return metrics, detail


def traced(workloads, workload, config, gate, seed: int, seconds: float) -> tuple[dict, dict]:
    import tracer as tracing

    _, text = timed_pass(workloads, config)  # warm-up
    gate.check(text)
    spans_tracer = tracing.Tracer()
    untraced_s, traced_s, summaries, spans_by_pass = [], [], [], []
    start = perf_counter()
    while not traced_s or perf_counter() - start < seconds:
        elapsed, plain = timed_pass(workloads, config)
        untraced_s.append(elapsed)
        gate.check(plain)
        with spans_tracer:
            elapsed, text = timed_pass(workloads, config)
        traced_s.append(elapsed)
        gate.check(text)
        # Tracing must not change a byte of the output.
        gate.count(1, 0 if text is not None and text == plain else 1)
        spans = spans_tracer.take()
        spans_by_pass.append(spans)
        summaries.append(tracing.summarize_pass(spans, elapsed))
    # Counts, distinct_frac and max_dim repeat exactly from pass to pass.
    repeat = tracing.counts_agree(summaries)
    gate.count(1, 0 if repeat else 1)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracing.write_spans(spans_path, spans_by_pass)
    metrics = tracing.layer_metrics(summaries, traced_s, untraced_s)
    detail = {"traced_passes": len(traced_s), "counts_repeat": repeat,
              "row_threads": summaries[0]["row_threads"], "spans": str(spans_path.relative_to(ROOT)),
              "failed_frac": gate.failed / gate.attempted}
    return metrics, detail


def units(trace: int) -> dict:
    if not trace:
        return END_TO_END_UNITS
    import tracer as tracing

    return {name: unit for name, unit, _ in tracing.metric_specs()}


def run_one(args) -> int:
    qetchain = import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    config = workload.config(args.seed)
    gate = workloads.Gate(workload, config)
    print("# environment " + json.dumps(environment(config, gate.rows or None)))
    if args.trace:
        values, detail = traced(workloads, workload, config, gate, args.seed, args.seconds)
    else:
        values, detail = end_to_end(qetchain, workloads, config, gate, args.seconds)
    print("# detail " + json.dumps({"workload": workload.name, "seed": args.seed, **detail}))
    unit = units(args.trace)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, then one table and one JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run.py: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
        rows.append((name, result))
    if not args.trace:
        print(f"{'workload':<16}{'pass_s':>12}{'setup_s':>12}{'peak_traced_mb':>16}{'failed_frac':>13}")
        for name, result in rows:
            m = result["metrics"]
            print(f"{name:<16}{m['pass_s']['value']:>10.4f} s{m['setup_s']['value']:>10.4f} s"
                  f"{m['peak_traced_mb']['value']:>12.2f} MiB{result['failed'] / result['attempted']:>13.4f}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
