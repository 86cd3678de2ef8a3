"""Compare two benchmark result files (JSONL records written by run.py --out).

For each workload and metric it prints both medians over the records (one
record per seed), the relative delta and a verdict against the metric's
bound in BENCHMARK.json:

- worse       the change's median is worse than the base's by more than the bound;
- unresolved  the base's own spread (quartile distance / median) is wider than
              the bound, and not every change run beats every base run;
- better      the change wins at least 9 of 10 seeds run on both sides and the
              medians differ by more than the base's spread;
- unchanged   none of the above.

Per-layer metrics have no bound and get the verdict "-".  Exact values
(final loss, NFE, *_train.csv hashes) are compared per seed as same/differs.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict:
    """{(workload, trace): {seed: record}}; a later record for the same seed wins."""
    out: dict = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[(rec["workload"], rec["trace"])][rec["seed"]] = rec
    return out


def spread(vals) -> float:
    if len(vals) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: dict, change: dict, better: str, bound) -> str:
    """base/change map seed -> value."""
    if bound is None:
        return "-"
    a, b = list(base.values()), list(change.values())
    sign = 1.0 if better == "higher" else -1.0
    ma = statistics.median(a)
    gain = sign * (statistics.median(b) - ma) / abs(ma) if ma else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    paired = [s for s in base if s in change]
    wins = sum(sign * (change[s] - base[s]) > 0 for s in paired)
    if spread(a) > bound and not all_better:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if paired and wins >= 0.9 * len(paired) and gain > spread(a):
        return "better"
    return "unchanged"


def compare_files(base_path, change_path, spec: dict) -> int:
    base, change = load(base_path), load(change_path)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':13s} {'metric':34s} {'base':>12s} {'change':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict   n")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        a_recs, b_recs = base[key], change[key]
        names = sorted({n for r in list(a_recs.values()) + list(b_recs.values())
                        for n in r["metrics"]})
        for name in names:
            a = {s: r["metrics"][name]["value"] for s, r in a_recs.items()
                 if name in r["metrics"]}
            b = {s: r["metrics"][name]["value"] for s, r in b_recs.items()
                 if name in r["metrics"]}
            if not a or not b:
                print(f"{workload:13s} {name:34s} missing on one side")
                continue
            m = meta.get(name, {"better": "lower"})
            bound = m.get("bound")
            v = verdict(a, b, m["better"], bound)
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            delta = (mb - ma) / abs(ma) if ma else 0.0
            print(f"{workload:13s} {name:34s} {ma:12.6g} {mb:12.6g} {delta:+8.2%} "
                  f"{'-' if bound is None else format(bound, '.2f'):>6s}  "
                  f"{v:9s} {len(a)}/{len(b)}")
        if not trace:
            for seed in sorted(set(a_recs) & set(b_recs)):
                same = a_recs[seed].get("exact") == b_recs[seed].get("exact")
                print(f"{workload:13s} exact values, seed {seed}: "
                      f"{'same' if same else 'differs'}")
    return 0
