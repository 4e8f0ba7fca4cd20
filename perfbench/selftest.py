"""Smoke-run every workload at a tiny size, traced, and check the trace.

    python3 perfbench/selftest.py

Each workload runs with the same phases as the benchmark but a few
seconds of work (``Workload.smoke``). The traced run itself already
fails on an unsound trace or a broken count identity; this script then
re-derives the per-layer numbers from the saved spans and checks:

* every span lies inside its parent, and a span's direct children add
  up to no more than the span, so ``self_s <= total_s`` per name;
* the per-layer metrics match the spans they were derived from;
* the end-to-end and per-layer metric names are exactly the ones
  BENCHMARK.json lists;
* after the run, no library name is left pointing at a wrapper.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run as bench

TOL_S = 1e-9


def check_spans(path, per_layer, measured):
    import numpy as np

    spans = np.load(path)
    names = list(spans["names"])
    name, start, end, parent = spans["name"], spans["start"], spans["end"], spans["parent"]
    problems = []
    dur = end - start
    child = np.zeros_like(dur)
    for i in np.flatnonzero(parent >= 0):
        p = parent[i]
        if start[i] < start[p] or end[i] > end[p]:
            problems.append(f"span {i} ({names[name[i]]}) outside its parent {p}")
        child[p] += dur[i]
    if np.any(child > dur + TOL_S):
        problems.append("a span's children add up to more than the span")
    for fn in measured:
        mask = name == names.index(fn) if fn in names else np.zeros(name.size, bool)
        total, own = float(dur[mask].sum()), float((dur - child)[mask].sum())
        if own > total + TOL_S or own < -TOL_S:
            problems.append(f"{fn}: self {own} outside [0, total {total}]")
        if int(mask.sum()) != per_layer[f"{fn}.calls"]["value"] \
                or abs(total - per_layer[f"{fn}.total_s"]["value"]) > 1e-6 \
                or abs(own - per_layer[f"{fn}.self_s"]["value"]) > 1e-6:
            problems.append(f"{fn}: per-layer metrics disagree with the spans")
    return problems


def leftover_wrappers():
    """Library names (module attributes and class methods) bound to a wrapper."""
    found = []
    for key, module in list(sys.modules.items()):
        if key != "mimicrl" and not key.startswith("mimicrl."):
            continue
        for attr, value in vars(module).items():
            scopes = [(attr, value)]
            if isinstance(value, type):
                scopes += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            found += [f"{key}.{n}" for n, v in scopes if hasattr(v, "span_name")]
    return found


def main():
    if not bench.prepare():
        return 2
    import workloads as wl

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, workload in wl.WORKLOADS.items():
        out_dir = bench.OUT / "selftest" / name
        record = bench.run(workload.smoke(), seed=0, seconds=0.1, trace=1, out_dir=out_dir)
        problems += [f"{name}: {p}" for p in record["errors"] + record["problems"]]
        problems += [f"{name}: {p}" for p in
                     check_spans(out_dir / "spans.npz", record["per_layer"], wl.MEASURED)]
        for kind in ("end_to_end", "per_layer"):
            listed = {m["name"] for m in spec[kind]}
            if set(record[kind]) != listed:
                problems.append(f"{name}: {kind} metrics differ from BENCHMARK.json: "
                                f"{sorted(set(record[kind]) ^ listed)}")
        problems += [f"{name}: {p} is still wrapped after the run" for p in leftover_wrappers()]
        print(f"{name}: smoke run traced {record['per_layer']['trainer.update_step.calls']['value']}"
              f" updates, {len(record['per_layer'])} per-layer metrics")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
