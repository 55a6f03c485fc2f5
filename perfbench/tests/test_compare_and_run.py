"""Compare mode, tail percentile, and the run script's output contract."""

import json
import os
import shutil
import subprocess
import sys

from compare import compare, verdict
from workloads import tail_percentile

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "sim_packets_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]
}


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    value, percentile = tail_percentile(samples)
    assert sum(1 for sample in samples if sample > value) == 10
    assert percentile == 90.0
    assert tail_percentile(list(range(10))) is None


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert verdict(base, [1.20, 1.21, 1.19], 0.1, lower_is_better=True) == "worse"
    assert verdict(base, [0.80, 0.81, 0.79], 0.1, lower_is_better=True) == "better"
    assert verdict(base, [1.03, 0.97, 1.00], 0.1, lower_is_better=True) == "unresolved"
    assert verdict(base, [0.80, 0.81, 0.79], 0.1, lower_is_better=False) == "worse"


def _record(workload, trace, metrics):
    return {
        "workload": workload,
        "trace": trace,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }


def test_compare_names_the_layer_that_moved_most():
    base = [_record("wire-traffic", 0, {"wall_s": 4.0 + i / 100, "sim_packets_per_s": 3000.0})
            for i in range(5)]
    base.append(_record("wire-traffic", 1, {"crypto.hmac.self_s": 1.0, "events.self_s": 0.5,
                                            "crypto.hmac.calls": 100}))
    change = [_record("wire-traffic", 0, {"wall_s": 5.0 + i / 100, "sim_packets_per_s": 2400.0})
              for i in range(5)]
    change.append(_record("wire-traffic", 1, {"crypto.hmac.self_s": 1.9, "events.self_s": 0.6,
                                              "crypto.hmac.calls": 100}))
    lines = compare(base, change, SPEC)
    text = "\n".join(lines)
    assert "wall_s" in text and "worse" in text
    assert "self time moved most in layer 'crypto.hmac'" in text
    assert "crypto.hmac.calls" in text


def _run(args, cwd, timeout=120):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_run_prints_the_result_line_last():
    result = _run(["--workload", "model-mc", "--seed", "0", "--seconds", "0.1",
                   "--trace", "0"], ROOT)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(last["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert "error_rate" in result.stdout and "references: stored" in result.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run(["--workload", "wire-traffic", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], str(tmp_path), timeout=180)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
