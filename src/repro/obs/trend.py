"""Bench-trend observatory: turn BENCH_*.json artifacts into a trajectory.

The benchmark suite leaves machine-readable telemetry files at the repo
root (``BENCH_observability.json``, ``BENCH_parallel.json``,
``BENCH_fastpath.json``, ``BENCH_topology.json``), but until now they
were point-in-time artifacts — a slowdown was invisible unless someone
diffed JSON by hand.
This module compares the current files against a committed baseline
(``bench-baseline.json``) and reports per-benchmark deltas; the CI
``bench-trend`` job runs it warn-only (``--check``), with ``--strict``
available once the baseline has soaked.

Comparison semantics:

* A benchmark is keyed by its pytest node name (unique across files).
* ``slower`` / ``faster`` require the relative delta to exceed
  ``threshold`` (default 25%) *and* at least one side to exceed the noise
  floor (default 50 ms) — sub-floor benchmarks are pure jitter on shared
  CI boxes.
* Benchmarks present only in the current files are ``new``; present only
  in the baseline are ``missing``. Neither ever fails the gate: they are
  churn signals, not regressions.
* Records marked ``"status": "skipped"`` (see ``benchmarks/conftest.py``)
  and records without a measured ``seconds`` are ignored on both sides.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import ConfigurationError

#: Benchmark telemetry files the observatory ingests, repo-root relative.
DEFAULT_BENCH_FILES = (
    "BENCH_observability.json",
    "BENCH_parallel.json",
    "BENCH_fastpath.json",
    "BENCH_topology.json",
    "BENCH_audit.json",
)

#: Committed baseline filename, repo-root relative.
DEFAULT_BASELINE = "bench-baseline.json"

#: Relative slowdown/speedup beyond which a delta is reported.
DEFAULT_THRESHOLD = 0.25

#: Both sides under this many seconds → the benchmark is jitter, not signal.
NOISE_FLOOR_SECONDS = 0.05


def load_bench_records(path: Union[str, Path]) -> Dict[str, float]:
    """Benchmark name → measured seconds from one BENCH_*.json file.

    Handles both telemetry shapes (a bare list, or ``{"cpu_count": ...,
    "records": [...]}``); skipped and unmeasured records are dropped.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        records = payload.get("records")
        if not isinstance(records, list):
            raise ConfigurationError(
                f"{path}: expected a 'records' list in the telemetry object"
            )
    elif isinstance(payload, list):
        records = payload
    else:
        raise ConfigurationError(f"{path}: not a benchmark telemetry file")
    out: Dict[str, float] = {}
    for record in records:
        if not isinstance(record, dict) or "name" not in record:
            continue
        if record.get("status") == "skipped":
            continue
        seconds = record.get("seconds")
        if seconds is None:
            continue
        out[str(record["name"])] = float(seconds)
    return out


def collect_bench_seconds(
    paths: Sequence[Union[str, Path]],
) -> Dict[str, float]:
    """Merge every existing BENCH file into one name → seconds map."""
    merged: Dict[str, float] = {}
    for path in paths:
        if not Path(path).exists():
            continue
        merged.update(load_bench_records(path))
    return merged


def build_baseline(
    paths: Sequence[Union[str, Path]],
    cpu_count: Optional[int] = None,
) -> dict:
    """A committable baseline payload from the current BENCH files."""
    benchmarks = collect_bench_seconds(paths)
    payload = {
        "benchmarks": {
            name: round(seconds, 6)
            for name, seconds in sorted(benchmarks.items())
        },
    }
    if cpu_count is not None:
        payload["cpu_count"] = cpu_count
    return payload


def load_baseline(path: Union[str, Path]) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise ConfigurationError(
            f"{path}: not a bench baseline (missing 'benchmarks')"
        )
    return payload


@dataclass
class BenchDelta:
    """One benchmark's movement against the baseline."""

    name: str
    status: str  # "ok" | "slower" | "faster" | "new" | "missing"
    baseline_seconds: Optional[float] = None
    current_seconds: Optional[float] = None
    #: (current - baseline) / baseline; None for new/missing benchmarks.
    relative_delta: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "baseline_seconds": self.baseline_seconds,
            "current_seconds": self.current_seconds,
            "relative_delta": (
                round(self.relative_delta, 4)
                if self.relative_delta is not None
                else None
            ),
        }


@dataclass
class TrendReport:
    """Every benchmark's delta plus gate-level rollups."""

    deltas: List[BenchDelta] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.status == "slower"]

    @property
    def improvements(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.status == "faster"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def render(self) -> str:
        """Human-readable delta table for the CI log."""
        lines = [
            "bench trend vs baseline "
            f"(threshold {self.threshold:.0%}, noise floor "
            f"{NOISE_FLOOR_SECONDS * 1000:.0f} ms)",
            "",
        ]
        if not self.deltas:
            lines.append("  (no benchmarks to compare)")
            return "\n".join(lines)
        width = max(len(d.name) for d in self.deltas)
        for delta in self.deltas:
            if delta.status == "new":
                detail = f"new          {delta.current_seconds:8.4f}s"
            elif delta.status == "missing":
                detail = f"missing      {delta.baseline_seconds:8.4f}s (baseline)"
            else:
                marker = {"ok": " ", "slower": "!", "faster": "+"}[delta.status]
                detail = (
                    f"{delta.status:<8} {marker} "
                    f"{delta.baseline_seconds:8.4f}s -> "
                    f"{delta.current_seconds:8.4f}s "
                    f"({delta.relative_delta:+.1%})"
                )
            lines.append(f"  {delta.name:<{width}}  {detail}")
        lines.append("")
        if self.regressions:
            names = ", ".join(d.name for d in self.regressions)
            lines.append(f"REGRESSIONS ({len(self.regressions)}): {names}")
        else:
            lines.append("no regressions beyond threshold")
        return "\n".join(lines)


def check_threshold(threshold: float) -> None:
    """Reject a threshold that is not a positive finite fraction (NaN
    would pass every delta as ``ok``)."""
    if not 0 < threshold < math.inf:
        raise ConfigurationError("threshold must be positive and finite")


def compare_to_baseline(
    baseline: dict,
    paths: Sequence[Union[str, Path]],
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor: float = NOISE_FLOOR_SECONDS,
) -> TrendReport:
    """Per-benchmark deltas of the current BENCH files vs a baseline."""
    check_threshold(threshold)
    base = {
        str(name): float(seconds)
        for name, seconds in baseline.get("benchmarks", {}).items()
    }
    current = collect_bench_seconds(paths)
    report = TrendReport(threshold=threshold)
    for name in sorted(set(base) | set(current)):
        if name not in base:
            report.deltas.append(
                BenchDelta(name, "new", current_seconds=current[name])
            )
            continue
        if name not in current:
            report.deltas.append(
                BenchDelta(name, "missing", baseline_seconds=base[name])
            )
            continue
        before, after = base[name], current[name]
        # Divide through the noise floor, not the raw baseline: a
        # zero/near-zero baseline (skipped run, sub-resolution timer)
        # would otherwise explode the percentage into inf/NaN and flag
        # pure jitter as a thousand-percent regression.
        relative = (after - before) / max(before, noise_floor)
        status = "ok"
        if max(before, after) >= noise_floor:
            if relative > threshold:
                status = "slower"
            elif relative < -threshold:
                status = "faster"
        report.deltas.append(
            BenchDelta(
                name,
                status,
                baseline_seconds=before,
                current_seconds=after,
                relative_delta=relative,
            )
        )
    return report


__all__ = [
    "DEFAULT_BENCH_FILES",
    "DEFAULT_BASELINE",
    "DEFAULT_THRESHOLD",
    "NOISE_FLOOR_SECONDS",
    "BenchDelta",
    "TrendReport",
    "load_bench_records",
    "collect_bench_seconds",
    "build_baseline",
    "load_baseline",
    "compare_to_baseline",
]
