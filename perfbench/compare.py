"""Compare two sets of benchmark results.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records appended by ``run.py --out``. For every
workload and end-to-end metric, one row gives each side's median and
quartiles and a verdict under the metric's bound in ``BENCHMARK.json``:

``worse``
    the change's median is worse than the base's by more than the bound;
``better``
    the change's median is better than the base's by more than the base's
    own quartile spread, and every change run beats the base median;
``unresolved``
    neither — within the bound, or not clear of the base's noise.

Then, from the traced records, the per-layer count and self-time deltas
of each workload, naming the layer whose self time moved most.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]) -> tuple:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: List[float], change: List[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    q1, base_median, q3 = quartiles(base)
    change_median = quartiles(change)[1]
    # Positive = the change is worse, as a share of the base median.
    worsening = sign * (change_median - base_median) / base_median
    if worsening > bound:
        return "worse"
    spread = (q3 - q1) / base_median
    if -worsening > spread and all(sign * (value - base_median) < 0 for value in change):
        return "better"
    return "unresolved"


def group(records: List[dict], trace: int) -> Dict[str, Dict[str, List[float]]]:
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        if record["trace"] != trace:
            continue
        metrics = grouped.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return grouped


def compare(base: List[dict], change: List[dict], spec: dict) -> List[str]:
    lines = []
    for label, records in (("base", base), ("change", change)):
        envs = sorted({json.dumps(record.get("env", {}), sort_keys=True) for record in records})
        lines.append(f"{label}: {len(records)} records; env {'; '.join(envs)}")
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    base_e2e, change_e2e = group(base, 0), group(change, 0)
    lines.append(
        f"{'workload':<14} {'metric':<18} {'base q1/median/q3':>32} "
        f"{'change q1/median/q3':>32} {'delta':>8}  verdict (bound)"
    )
    for workload in sorted(set(base_e2e) & set(change_e2e)):
        for name, metric in bounds.items():
            left = base_e2e[workload].get(name)
            right = change_e2e[workload].get(name)
            if not left or not right:
                continue
            lower = metric["better"] == "lower"
            bq, cq = quartiles(left), quartiles(right)
            delta = (cq[1] - bq[1]) / bq[1]
            lines.append(
                f"{workload:<14} {name:<18} {_fmt(bq):>32} {_fmt(cq):>32} "
                f"{delta:>+8.1%}  {verdict(left, right, metric['bound'], lower)} "
                f"({metric['bound']:.0%}, n={len(left)}/{len(right)})"
            )
    base_layer, change_layer = group(base, 1), group(change, 1)
    for workload in sorted(set(base_layer) & set(change_layer)):
        lines.append("")
        lines.append(f"{workload}: per-layer medians (base -> change)")
        moved = {}
        for name in base_layer[workload]:
            if name not in change_layer[workload]:
                continue
            left = statistics.median(base_layer[workload][name])
            right = statistics.median(change_layer[workload][name])
            if left == right == 0:
                continue
            lines.append(f"  {name:<28} {left:>14.6g} -> {right:<14.6g} ({right - left:+.6g})")
            if name.endswith(".self_s"):
                moved[name[: -len(".self_s")]] = right - left
        if moved:
            layer = max(sorted(moved), key=lambda key: abs(moved[key]))
            lines.append(
                f"  self time moved most in layer {layer!r}: {moved[layer]:+.4g} s per pass"
            )
    return lines


def _fmt(quartile: tuple) -> str:
    return "/".join(f"{value:.4g}" for value in quartile)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    for line in compare(load(argv[0]), load(argv[1]), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
