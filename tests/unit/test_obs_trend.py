"""Unit coverage for the bench-trend observatory (repro.obs.trend)."""

import json
import math

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.trend import (
    build_baseline,
    collect_bench_seconds,
    compare_to_baseline,
    load_baseline,
    load_bench_records,
)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoading:
    def test_bare_list_shape(self, tmp_path):
        path = _write(tmp_path / "obs.json", [
            {"name": "bench_a", "seconds": 1.5, "scale": 100},
            {"name": "bench_b", "status": "skipped"},
            {"name": "bench_c", "seconds": None},
            {"not-a-record": True},
        ])
        assert load_bench_records(path) == {"bench_a": 1.5}

    def test_records_object_shape(self, tmp_path):
        path = _write(tmp_path / "fast.json", {
            "cpu_count": 4,
            "records": [{"name": "bench_fast", "seconds": 0.2}],
        })
        assert load_bench_records(path) == {"bench_fast": 0.2}

    def test_bad_shapes_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_bench_records(_write(tmp_path / "scalar.json", 42))
        with pytest.raises(ConfigurationError):
            load_bench_records(
                _write(tmp_path / "norecords.json", {"cpu_count": 4})
            )

    def test_collect_merges_and_skips_missing_files(self, tmp_path):
        first = _write(tmp_path / "a.json", [{"name": "a", "seconds": 1.0}])
        second = _write(tmp_path / "b.json", [{"name": "b", "seconds": 2.0}])
        merged = collect_bench_seconds(
            [first, second, str(tmp_path / "absent.json")]
        )
        assert merged == {"a": 1.0, "b": 2.0}

    def test_baseline_round_trip(self, tmp_path):
        bench = _write(
            tmp_path / "a.json", [{"name": "a", "seconds": 1.23456789}]
        )
        payload = build_baseline([bench], cpu_count=2)
        assert payload == {
            "benchmarks": {"a": 1.234568}, "cpu_count": 2,
        }
        baseline_path = _write(tmp_path / "baseline.json", payload)
        assert load_baseline(baseline_path) == payload
        with pytest.raises(ConfigurationError):
            load_baseline(_write(tmp_path / "junk.json", {"records": []}))


class TestComparison:
    def _report(self, tmp_path, baseline, current, **kwargs):
        bench = _write(
            tmp_path / "bench.json",
            [
                {"name": name, "seconds": seconds}
                for name, seconds in current.items()
            ],
        )
        return compare_to_baseline(
            {"benchmarks": baseline}, [bench], **kwargs
        )

    def test_statuses_and_gate(self, tmp_path):
        report = self._report(
            tmp_path,
            baseline={
                "steady": 1.0, "regressed": 1.0,
                "improved": 1.0, "gone": 1.0,
            },
            current={
                "steady": 1.1, "regressed": 1.5,
                "improved": 0.5, "fresh": 2.0,
            },
        )
        statuses = {d.name: d.status for d in report.deltas}
        assert statuses == {
            "steady": "ok",
            "regressed": "slower",
            "improved": "faster",
            "gone": "missing",
            "fresh": "new",
        }
        assert [d.name for d in report.regressions] == ["regressed"]
        assert [d.name for d in report.improvements] == ["improved"]
        assert not report.ok

    def test_noise_floor_suppresses_sub_floor_jitter(self, tmp_path):
        report = self._report(
            tmp_path,
            baseline={"tiny": 0.001, "real": 1.0},
            current={"tiny": 0.01, "real": 1.0},
        )
        statuses = {d.name: d.status for d in report.deltas}
        # 10x slower but both sides under the 50 ms floor: jitter, not
        # signal.
        assert statuses == {"tiny": "ok", "real": "ok"}
        assert report.ok

    def test_new_and_missing_never_fail_the_gate(self, tmp_path):
        report = self._report(
            tmp_path, baseline={"gone": 5.0}, current={"fresh": 5.0}
        )
        assert {d.status for d in report.deltas} == {"missing", "new"}
        assert report.ok

    def test_threshold_validation(self, tmp_path):
        for threshold in (0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                self._report(tmp_path, baseline={}, current={}, threshold=threshold)

    def test_to_dict_and_render(self, tmp_path):
        report = self._report(
            tmp_path,
            baseline={"regressed": 1.0, "gone": 2.0},
            current={"regressed": 2.0, "fresh": 0.5},
        )
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["regressions"] == 1
        by_name = {d["name"]: d for d in payload["deltas"]}
        assert by_name["regressed"]["relative_delta"] == 1.0
        assert by_name["fresh"]["baseline_seconds"] is None
        text = report.render()
        assert "REGRESSIONS (1): regressed" in text
        assert "new" in text and "missing" in text

    def test_render_clean_report(self, tmp_path):
        report = self._report(
            tmp_path, baseline={"a": 1.0}, current={"a": 1.0}
        )
        assert "no regressions beyond threshold" in report.render()
        empty = self._report(tmp_path, baseline={}, current={})
        assert "(no benchmarks to compare)" in empty.render()


class TestNearZeroBaseline:
    """A zero/near-zero baseline must not explode the percent delta."""

    def _report(self, tmp_path, baseline, current, **kwargs):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(
            [{"name": n, "seconds": s} for n, s in current.items()]
        ))
        return compare_to_baseline(
            {"benchmarks": baseline}, [path], **kwargs
        )

    def test_zero_baseline_yields_finite_delta(self, tmp_path):
        report = self._report(
            tmp_path, baseline={"b": 0.0}, current={"b": 0.2}
        )
        (delta,) = report.deltas
        # Divided through the 50 ms floor, not the zero baseline:
        # (0.2 - 0) / 0.05 = 4.0, finite and well-defined.
        assert delta.relative_delta == pytest.approx(4.0)
        assert math.isfinite(delta.relative_delta)

    def test_near_zero_baseline_not_flagged_for_jitter(self, tmp_path):
        # 0.1 ms -> 40 ms is a 400x blowup by raw ratio but both sides
        # sit at/under the floor; the floor-normalized delta stays under
        # any sane threshold.
        report = self._report(
            tmp_path, baseline={"b": 0.0001}, current={"b": 0.04}
        )
        (delta,) = report.deltas
        assert delta.status == "ok"
        assert delta.relative_delta == pytest.approx(0.798, abs=1e-3)
        assert report.ok

    def test_real_regression_from_tiny_baseline_still_flags(self, tmp_path):
        # Baseline under the floor but the current run is genuinely
        # slow: still reported, with a sane percentage.
        report = self._report(
            tmp_path, baseline={"b": 0.001}, current={"b": 1.0}
        )
        (delta,) = report.deltas
        assert delta.status == "slower"
        assert delta.relative_delta == pytest.approx((1.0 - 0.001) / 0.05)

    def test_render_survives_zero_baseline(self, tmp_path):
        report = self._report(
            tmp_path, baseline={"b": 0.0}, current={"b": 0.2}
        )
        text = report.render()
        assert "inf" not in text and "nan" not in text.lower()


class TestBaselineCanonicalization:
    def test_update_baseline_writes_sorted_keys(self, tmp_path, capsys,
                                                monkeypatch):
        from repro import cli

        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps([
            {"name": "zeta", "seconds": 1.0},
            {"name": "alpha", "seconds": 2.0},
            {"name": "mid", "seconds": 3.0},
        ]))
        baseline = tmp_path / "baseline.json"
        assert cli.main([
            "bench", "trend", "--bench", str(bench),
            "--baseline", str(baseline), "--update-baseline",
        ]) == 0
        raw = baseline.read_text()
        parsed = json.loads(raw)
        assert list(parsed["benchmarks"]) == ["alpha", "mid", "zeta"]
        # Byte-canonical: re-serializing with sorted keys reproduces the
        # file exactly, so baseline diffs stay reviewable.
        assert raw == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
