"""Run every workload several times and print medians with their spread.

    python3 perfbench/report.py [--runs 5]

For each workload in BENCHMARK.json this makes ``--runs`` untraced runs
(seeds 0, 1, ...) and one traced run, each a fresh process of ``run.py``
measuring BENCHMARK.json's ``run_seconds``. It prints every end-to-end
metric as median, spread (interquartile range over median) and sample
count; the per-layer metrics of the traced run, heaviest self time
first; the tracing overhead the traced run measured; and the
fingerprint status. The summary is also written to
``.perfbench-out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = OUT / workload / f"trace{trace}-seed{seed}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "spread": None, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        records = [run_once(workload, seed, seconds, 0) for seed in range(args.runs)]
        traced = run_once(workload, args.runs, seconds, 1)
        end_to_end = {
            name: {**summarize([r["end_to_end"][name]["value"] for r in records]),
                   "unit": metric["unit"]}
            for name, metric in records[0]["end_to_end"].items()}
        prefix = "tracing_overhead."
        report[workload] = {
            "machine": records[0]["machine"],
            "end_to_end": end_to_end,
            "per_layer": traced["per_layer"],
            "tracing_overhead": {k[len(prefix):]: m["value"]
                                 for k, m in traced["per_layer"].items()
                                 if k.startswith(prefix)},
            "fingerprint_status": traced["fingerprint_status"],
        }

        print(f"== {workload}")
        for key, value in records[0]["machine"].items():
            print(f"  machine.{key}: {value}")
        for name, s in end_to_end.items():
            spread = "-" if s["spread"] is None else f"{100 * s['spread']:.1f}%"
            print(f"  {name:22s} {s['median']:14.6g} {s['unit']:6s} spread {spread:>6s}"
                  f"  n={s['n']}")
        print("  tracing overhead: " + ", ".join(
            f"{unit} {100 * v:+.1f}%" for unit, v in report[workload]["tracing_overhead"].items()))
        layers = sorted((k[:-len(".self_s")] for k in traced["per_layer"] if k.endswith(".self_s")),
                        key=lambda k: -traced["per_layer"][k + ".self_s"]["value"])
        for layer in layers:
            m = traced["per_layer"]
            print(f"  {layer:34s} calls {m[layer + '.calls']['value']:9d}"
                  f"  total {m[layer + '.total_s']['value']:9.3f} s"
                  f"  self {m[layer + '.self_s']['value']:9.3f} s")
        for key in ("critic.q_batch.clamped_frac", "trainer.update_step.errors"):
            print(f"  {key}: {traced['per_layer'][key]['value']}")
        for key, status in traced["fingerprint_status"].items():
            print(f"  fingerprint {key}: {status}")

    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
