"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload imitate --seed 0 --seconds 8 --trace 0

Run from the repository root (the script finds ``src/`` next to its
own directory). ``--trace 0`` measures the end-to-end metrics listed in
BENCHMARK.json; ``--trace 1`` runs the same work with every measured
library function wrapped in a span and reports the per-layer metrics
instead, plus the tracing overhead measured inside the same process.
``--seconds`` is the total time given to repeated rollout passes, split
over the run; set-up repeats a fixed number of times and training runs
to the acceptance bar, so those phases take as long as their work takes.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. Human-readable lines
(machine block, fingerprint status) come before it, and a full record
of the run is written to ``.perfbench-out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# bytecode of every module the benchmark imports is cached here, so
# imports always load bytecode compiled from the current sources
PYCACHE = OUT / "pycache"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# BLAS threads are pinned before numpy loads: the workloads are single
# process, and 1 vs 2 OpenBLAS threads measured within noise, so one
# thread keeps the run from competing with itself
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    value = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = value


def machine_block():
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def fingerprint_status(workload, fingerprint):
    try:
        recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(workload, {})
    except FileNotFoundError:
        recorded = {}
    return {key: ("unrecorded" if key not in recorded
                  else "match" if recorded[key] == value else "mismatch")
            for key, value in fingerprint.items()}


def check_identities(tracer, runs, rollout_steps, horizon, errors):
    """Call counts the trace must reproduce from the workload's own counts."""
    if errors:
        return []   # an aborted update breaks the per-step accounting
    stats = tracer.stats()
    calls = {name: s["calls"] for name, s in stats.items()}
    train_steps = sum(r["env_steps"] for r in runs)
    evaluated = sum(r["evals"] * r["eval_episodes"] * horizon for r in runs)
    expected = [
        ("trainer.update_step.calls", calls.get("trainer.update_step", 0), train_steps),
        ("critic.critic_loss_and_grads.calls",
         calls.get("critic.critic_loss_and_grads", 0), calls.get("trainer.update_step", 0)),
        ("envs.step.calls during training", tracer.calls_within("envs.step", "bench.train"),
         train_steps + evaluated),
        ("envs.step.calls during rollout", tracer.calls_within("envs.step", "bench.rollout"),
         rollout_steps),
    ]
    return [f"{what}: traced {got}, expected {want}"
            for what, got, want in expected if got != want]


def install(tracer, measured, clamp):
    """Wrap the measured functions; clamp counts q_batch's clamped rows."""
    import numpy as np

    def count_clamped(result):
        # q_batch returns (q, cache, in_range) when gradients will flow
        if isinstance(result, tuple):
            in_range = result[2]
            clamp["rows"] += in_range.size
            clamp["clamped"] += in_range.size - int(np.count_nonzero(in_range))

    tracer.install(measured, hooks={"critic.q_batch": count_clamped})


def tracing_overhead(units, pairs, measured):
    """Traced over untraced wall time of each unit of work, minus one.

    Traced and untraced passes alternate in this one process (which
    goes first alternates too), so drift in the host's speed cancels
    within a pair; the result is the median over pairs.
    """
    from spans import Tracer

    ratios = {name: [] for name in units}
    for i in range(pairs):
        for name, unit in units.items():
            seconds = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                tracer = Tracer("mimicrl")   # a fresh one: spans do not pile up
                if traced:
                    install(tracer, measured, {"rows": 0, "clamped": 0})
                try:
                    t0 = time.perf_counter()
                    unit()
                    seconds[traced] = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
            ratios[name].append(seconds[True] / seconds[False])
    return {name: statistics.median(r) - 1.0 for name, r in ratios.items()}


def per_layer_metrics(tracer, measured, clamp, overhead):
    stats = tracer.stats()
    metrics = {}
    for name in measured:
        s = stats[name]
        metrics[f"{name}.calls"] = {"value": s["calls"], "unit": "count"}
        metrics[f"{name}.total_s"] = {"value": s["total_s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": s["self_s"], "unit": "s"}
    metrics["critic.q_batch.clamped_frac"] = {
        "value": clamp["clamped"] / clamp["rows"] if clamp["rows"] else 0.0,
        "unit": "ratio"}
    metrics["trainer.update_step.errors"] = {
        "value": tracer.errors.get(("trainer.update_step", "NonFiniteError"), 0),
        "unit": "count"}
    for name, share in overhead.items():
        metrics[f"tracing_overhead.{name}"] = {"value": share, "unit": "ratio"}
    return metrics


def run(workload, seed, seconds, trace, out_dir):
    """Run one workload in this process; returns the full record."""
    import workloads as wl
    from spans import Tracer

    if isinstance(workload, str):
        if workload not in wl.WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}; known: {sorted(wl.WORKLOADS)}")
        workload = wl.WORKLOADS[workload]
    w = workload
    work_dir = wl.fresh_dir(os.path.join(out_dir, "work"))
    tally = wl.Tally()
    tracer = clamp = None
    phase = lambda name: contextlib.nullcontext()  # noqa: E731
    if trace:
        tracer = Tracer("mimicrl")
        clamp = {"rows": 0, "clamped": 0}
        install(tracer, wl.MEASURED, clamp)
        phase = tracer.span

    try:
        samples = wl.run_phases(w, seed, seconds, work_dir, tally, phase)
        with phase("bench.check"):
            fingerprint = wl.check_and_fingerprint(samples.runs, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()

    runs = samples.runs
    train_s = sum(r["train_s"] for r in runs)
    env_steps = sum(r["env_steps"] for r in runs)
    end_to_end = {
        "time_to_bar_s": {"value": train_s, "unit": "s"},
        "steps_to_bar": {"value": env_steps, "unit": "steps"},
        "bar_hit_rate": {"value": sum(r["hit"] for r in runs) / len(runs), "unit": "ratio"},
        "train_ms_per_step": {"value": 1000.0 * train_s / env_steps, "unit": "ms"},
        "rollout_steps_per_s": {"value": statistics.median(samples.rollout_steps_per_s),
                                "unit": "1/s"},
        "dataset_roundtrip_s": {"value": statistics.median(samples.roundtrip_s), "unit": "s"},
        "setup_s": {"value": statistics.median(samples.import_s)
                    + statistics.median(samples.setup_s), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "machine": machine_block(),
        "samples": {"import_s": samples.import_s, "setup_s": samples.setup_s,
                    "rollout_steps_per_s": samples.rollout_steps_per_s,
                    "roundtrip_s": samples.roundtrip_s},
        "end_to_end": end_to_end,
        "runs": [{k: v for k, v in r.items() if k != "out_dir"} for r in runs],
        "fingerprint": fingerprint,
        "fingerprint_status": fingerprint_status(w.name, fingerprint),
        "attempted": tally.attempted, "failed": len(tally.errors), "errors": tally.errors,
        "problems": tally.problems,
    }
    if tracer is not None:
        horizon = wl.envs.env_spec(wl.ACCEPT_ENV).horizon
        broken = tracer.check() + check_identities(tracer, record["runs"],
                                                   samples.rollout_steps, horizon, tally.errors)
        if broken or tracer.missing:
            raise RuntimeError("trace is unsound: " + "; ".join(
                broken + [f"{m} not found" for m in tracer.missing]))
        tracer.save(os.path.join(out_dir, "spans.npz"))
        overhead = tracing_overhead(wl.overhead_units(w, samples.dataset),
                                    wl.OVERHEAD_PAIRS, wl.MEASURED)
        record["per_layer"] = per_layer_metrics(tracer, wl.MEASURED, clamp, overhead)
    return record


def prepare():
    """Point imports at src/ and the bytecode cache, pin BLAS threads.

    False if src/ is absent.
    """
    if not (SRC / "mimicrl" / "__init__.py").is_file():
        print(f"mimicrl sources not found under {SRC}", file=sys.stderr)
        return False
    pin_blas_threads()
    # written and read whatever PYTHONDONTWRITEBYTECODE says, so import
    # time never depends on what an earlier process left behind
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        return 2
    out_dir = OUT / args.workload
    record = run(args.workload, args.seed, args.seconds, args.trace, out_dir)
    name = f"trace{args.trace}-seed{args.seed}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, value in record["machine"].items():
        print(f"machine.{key}: {value}")
    for key, status in record["fingerprint_status"].items():
        print(f"fingerprint {args.workload}.{key}: {status}")
    for error in record["errors"]:
        print(f"failed: {error}")
    for problem in record["problems"]:
        print(f"incorrect: {problem}")
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
