"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire-traffic --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload model-mc --trace 1 --out results.jsonl
    python3 perfbench/run.py --workload all --seconds 20   # each workload in turn

One process, ``jobs=1``, closed loop: one unit at a time. The run repeats
*passes* — the workload's fixed unit list — until the passes have taken
``--seconds`` reference seconds (``speed.py``), so a run does about the
same work however busy the host is; :data:`HOST_CAP` bounds its host
time. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
#: Metric names, units and bounds; the result line reports exactly these.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Child processes timed from spawn to "ready" for ``setup_s``.
SETUP_SAMPLES = 5

#: A run stops after this many times ``--seconds`` of host time even if
#: its passes have not yet taken ``--seconds`` reference seconds.
HOST_CAP = 1.8

#: Counts that must read zero on a workload (wire-fastpath's event-engine
#: work is allowed inside fallback requests only, checked separately).
EXPECTED_ZERO = {
    "wire-traffic": [
        "backend.runs", "backend.fallback_runs", "fastpath.rounds",
        "fastpath.draws", "model.shards", "models.probabilities_calls",
    ],
    "wire-fastpath": ["model.shards"],
    "model-mc": [
        "events.scheduled", "events.popped", "events.cancelled", "sim.events",
        "crypto.hmac.calls", "crypto.hotprf.calls", "crypto.onion.calls",
        "crypto.oblivious.calls", "crypto.sig.calls", "crypto.hash.calls",
        "link.transmits", "node.deliveries", "stats.updates",
        "agent.handler_calls", "adversary.decisions", "backend.runs",
        "fastpath.rounds", "fastpath.draws",
    ],
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="wire-traffic, wire-fastpath, model-mc, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record (JSON line) to a file")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (set-up timing child)")
    parser.add_argument("--write-references", action="store_true",
                        help="store this seed's unit digests in references.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- set-up ----------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """Import the program, build the workload's inputs and warm up."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from workloads import Workload

    bench = Workload(workload, seed)
    bench.warm_up()
    return bench


def time_setups(args) -> tuple:
    """Seconds from spawning a fresh interpreter until it is ready to run
    its first unit, once per sample; children run one after another.
    Returns ``(reference seconds, host seconds)`` lists."""
    from speed import SpeedGauge

    gauge = SpeedGauge()
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited with {code}")
        samples.append(elapsed * gauge.factor())
        raw.append(elapsed)
    return samples, raw


# -- measurement -------------------------------------------------------------------

class Clock:
    """Decides when a run has measured enough: ``seconds`` of reference
    time spent in passes, or the host-time cap."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.measured = 0.0
        self.host_deadline = perf_counter() + HOST_CAP * seconds

    def done(self, reference_seconds: float) -> bool:
        self.measured += reference_seconds
        return self.measured >= self.seconds or perf_counter() >= self.host_deadline


class Runner:
    """Runs passes and keeps every sample the metrics are made from.

    Times are kept twice: host seconds (``raw_*``) and reference seconds
    (see ``speed.py``), which the metrics report.
    """

    def __init__(self, bench, references: dict, gauge) -> None:
        self.bench = bench
        self.references = references
        self.gauge = gauge
        self.seen: dict = {}
        self.unit_s: list = []
        self.raw_unit_s: list = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self) -> tuple:
        """One pass over the unit list. Returns ``(reference seconds, host
        seconds)`` spent preparing and running units (output checks and
        calibration excluded)."""
        gc.collect()  # every pass starts from the same heap state
        total = raw_total = 0.0
        for unit in self.bench.units:
            self.attempted += 1
            try:
                start = perf_counter()
                prepared = self.bench.prepare(unit)
                ready = perf_counter()
                result = self.bench.run(unit, prepared)
                done = perf_counter()
            except Exception:
                self.gauge.factor()
                self.failed += 1
                print(f"unit {unit.name} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            factor = self.gauge.factor()
            total += (done - start) * factor
            raw_total += done - start
            self.unit_s.append((done - ready) * factor)
            self.raw_unit_s.append(done - ready)
            self._check(unit, result)
        return total, raw_total

    def _check(self, unit, result) -> None:
        try:
            outcome = self.bench.check(unit, result)
        except Exception:
            self.failed += 1
            print(f"unit {unit.name} output check raised:", file=sys.stderr)
            traceback.print_exc()
            return
        problems = list(outcome.problems)
        expected = self.references.get(unit.name) or self.seen.get(unit.name)
        if expected is not None and outcome.digest != expected:
            problems.append(f"digest {outcome.digest[:12]} != reference {expected[:12]}")
        self.seen.setdefault(unit.name, outcome.digest)
        if problems:
            self.failed += 1
            print(f"unit {unit.name} failed: {'; '.join(problems)}", file=sys.stderr)


def end_to_end(bench, runner: Runner, passes: list, setups: tuple) -> tuple:
    from workloads import tail_percentile

    if not runner.unit_s:
        raise SystemExit("perfbench: every unit failed")
    tail = tail_percentile(runner.unit_s)
    packets = sum(unit.packets for unit in bench.units)
    wall = median([scaled for scaled, _ in passes])
    metrics = {
        "setup_s": median(setups[0]),
        "wall_s": wall,
        "sim_packets_per_s": packets / wall,
        "unit_p50_s": median(runner.unit_s),
        "unit_tail_s": tail[0] if tail else max(runner.unit_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "passes": len(passes),
        "units": len(runner.unit_s),
        "unit_tail_percentile": round(tail[1], 2) if tail else 100.0,
        "setup_samples": len(setups[0]),
        "error_rate": runner.failed / runner.attempted,
        "host_seconds": {
            "setup_s": median(setups[1]),
            "wall_s": median([raw for _, raw in passes]),
            "unit_p50_s": median(runner.raw_unit_s),
        },
    }
    return metrics, notes


def traced(args, bench, runner: Runner) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics from the
    traced ones. Work counts must repeat exactly across traced passes."""
    from tracer import Tracer, TIME_METRICS

    clock = Clock(args.seconds)
    plain, traced_walls, samples, problems = [], [], [], []
    counts = None
    while True:
        plain.append(runner.run_pass()[0])
        tracer = Tracer()
        with tracer:
            scaled, raw = runner.run_pass()
        traced_walls.append(scaled)
        sample = tracer.metrics()
        for name in TIME_METRICS:
            sample[name] *= scaled / raw
        samples.append(sample)
        if counts is None:
            counts = tracer.work_counts()
        elif tracer.work_counts() != counts:
            problems.append("work counts differ between traced passes")
        if clock.done(plain[-1] + scaled):
            break
    metrics = dict(samples[0])
    for name in TIME_METRICS:
        metrics[name] = median([sample[name] for sample in samples])
    metrics["trace.overhead_frac"] = median(traced_walls) / median(plain) - 1.0
    zero_checks = {
        name: metrics[name] for name in EXPECTED_ZERO[args.workload] if metrics[name]
    }
    if args.workload == "wire-fastpath" and counts["events_outside_backend"]:
        zero_checks["events outside fallback requests"] = counts["events_outside_backend"]
    notes = {
        "passes": len(samples),
        "expected_zero_violations": zero_checks,
        "trace_problems": problems,
    }
    return metrics, notes


def environment() -> dict:
    import numpy

    head = os.path.join(ROOT, ".git", "HEAD")
    sha = None
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                ref = handle.read().strip()
        sha = ref
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "jobs": 1,
    }


def load_references(workload: str, seed: int) -> dict:
    try:
        with open(REFERENCES) as handle:
            stored = json.load(handle)
    except FileNotFoundError:
        return {}
    return stored.get(workload, {}).get(str(seed), {})


def write_references(workload: str, seed: int, digests: dict) -> None:
    try:
        with open(REFERENCES) as handle:
            stored = json.load(handle)
    except FileNotFoundError:
        stored = {}
    stored.setdefault(workload, {})[str(seed)] = digests
    with open(REFERENCES, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_all(args) -> int:
    """Run every workload in its own process, one after another, and end
    with one combined result line (metrics keyed ``workload:metric``)."""
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            command += ["--out", args.out]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(child.stdout, end="")
            raise SystemExit(f"perfbench: {workload} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    bench = set_up(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    references = {} if args.write_references else load_references(args.workload, args.seed)
    from speed import SpeedGauge

    runner = Runner(bench, references, SpeedGauge())
    if args.trace:
        metrics, notes = traced(args, bench, runner)
    else:
        setups = time_setups(args)
        clock = Clock(args.seconds)
        passes = []
        while True:
            passes.append(runner.run_pass())
            if clock.done(passes[-1][0]):
                break
        metrics, notes = end_to_end(bench, runner, passes, setups)
    if args.write_references and not runner.failed:
        write_references(args.workload, args.seed, runner.seen)
    correct = runner.failed == 0 and not notes.get("trace_problems")
    report(args, bench, metrics, notes, references, runner, correct)
    return 0


def report(args, bench, metrics, notes, references, runner, correct) -> None:
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    metrics = {name: metrics[name] for name in units}
    env = environment()
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode} "
          f"units/pass={len(bench.units)} passes={notes['passes']}")
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    print(f"references: {'stored for this seed' if references else 'none stored; first-pass digests'}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'error_rate':<{width}}  {notes['error_rate']:>14.6g} fraction")
        print(f"  unit_tail_s is p{notes['unit_tail_percentile']:g} of "
              f"{notes['units']} units; setup_s is the median of "
              f"{notes['setup_samples']} set-ups")
    else:
        for name, value in notes["expected_zero_violations"].items():
            print(f"  expected ~0 on {args.workload} but read {value}: {name}")
        for problem in notes["trace_problems"]:
            print(f"  trace problem: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "notes": notes,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    sys.exit(main())
