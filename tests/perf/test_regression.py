"""The hot-path perf-regression harness (timing helpers + gates).

The timing loop and the check logic are exercised with fakes; one real
quick-suite run (single repeat) validates the report structure end to
end, that every call drew a new field, and the deterministic gates (byte
and value identity).  Its wall-clock comparisons are gated in the bench
lane (``benchmarks/bench_hotpath.py``), never here: on fresh inputs the
gaps they compare are a few percent, inside one run's noise.
"""

from __future__ import annotations

import json
import time
import types

import numpy as np
import pytest

from repro.perf import regression
from repro.perf.regression import (TARGET_COMPILED_DECODE,
                                   TARGET_WARM_SHARDED, _traced_stages,
                                   best_seconds, check_regressions,
                                   check_results, diff, fresh_seconds,
                                   median_seconds, paired_overhead,
                                   render_diff,
                                   render_report, run_hotpath_suite,
                                   write_report)


class TestMedianSeconds:
    def test_call_counts_and_result(self):
        calls = []
        t, result = median_seconds(lambda: calls.append(1) or len(calls),
                                   warmup=2, repeat=3)
        assert len(calls) == 5                       # 2 warmup + 3 timed
        assert result == 5                           # last call's value
        assert t >= 0.0

    def test_setup_runs_before_every_call(self):
        order = []
        median_seconds(lambda: order.append("c"),
                       warmup=1, repeat=2, setup=lambda: order.append("s"))
        assert order == ["s", "c", "s", "c", "s", "c"]

    def test_minimums(self):
        calls = []
        median_seconds(lambda: calls.append(1), warmup=0, repeat=0)
        assert len(calls) == 1                       # repeat clamps to 1

    def test_best_seconds_call_counts_and_result(self):
        calls = []
        t, result = best_seconds(lambda: calls.append(1) or len(calls),
                                 warmup=1, repeat=3)
        assert len(calls) == 4                       # 1 warmup + 3 timed
        assert result == 4                           # last call's value
        assert t >= 0.0

    def test_fresh_seconds_new_input_per_call(self):
        order = []
        inputs = iter(range(100))

        def make():
            return next(inputs)

        timed = fresh_seconds(
            {"a": lambda x: order.append(("a", x)) or x * 10,
             "b": lambda x: order.append(("b", x)) or x * 100},
            make, warmup=1, repeat=2,
            setup={"a": lambda: order.append(("setup-a",))})
        # arms alternate order round by round, each call on a new input
        assert order == [("setup-a",), ("a", 0), ("b", 1),
                         ("b", 2), ("setup-a",), ("a", 3),
                         ("setup-a",), ("a", 4), ("b", 5)]
        assert timed["a"][1:] == (4, 40) and timed["b"][1:] == (5, 500)
        assert timed["a"][0] >= 0.0 and timed["b"][0] >= 0.0


class TestPairedOverhead:
    def test_both_arms_share_each_rounds_input_in_abba_order(self):
        state = {"on": False}
        calls = []
        inputs = iter(range(100))

        def fn(x):
            calls.append((x, state["on"]))
            return (x, state["on"])

        overhead, rounds, (off, on) = paired_overhead(
            fn, lambda: next(inputs),
            enable=lambda: state.update(on=True),
            disable=lambda: state.update(on=False), warmup=1, repeat=2)
        assert calls == [(x, on) for x in range(3)
                         for on in (False, True, True, False)]
        assert len(rounds) == 2                      # warmup round dropped
        assert off == (2, False) and on == (2, True)
        assert state["on"] is False                  # left disabled
        assert overhead == pytest.approx(np.median(rounds))

    def test_measures_the_enabled_cost_and_keeps_its_sign(self,
                                                          monkeypatch):
        # a fake clock: the on arm costs 3 ticks, the off arm 2
        clock = [0.0]
        state = {"on": False}
        monkeypatch.setattr(regression, "time",
                            types.SimpleNamespace(perf_counter=lambda: clock[0]))

        def fn(x):
            clock[0] += 3.0 if state["on"] else 2.0

        def run(enable_to):
            return paired_overhead(
                fn, lambda: 0, enable=lambda: state.update(on=enable_to),
                disable=lambda: state.update(on=not enable_to),
                warmup=0, repeat=3)

        overhead, rounds, _ = run(True)
        assert overhead == pytest.approx(0.5)
        assert rounds == pytest.approx([0.5] * 3)
        faster, _, _ = run(False)
        assert faster == pytest.approx(2 / 3 - 1)    # not clamped to 0


def _fake_report(warm_d=1.0, cold_d=2.0, warm_c=1.0, cold_c=2.0,
                 warm_s=1.0, cold_s=2.0) -> dict:
    def leg(cold, warm):
        return {"cold_s": cold, "warm_s": warm, "speedup": cold / warm}
    return {"single": {"compress": leg(cold_c, warm_c),
                       "decompress": leg(cold_d, warm_d)},
            "sharded": {"compress": leg(cold_s, warm_s)}}


class TestChecks:
    def test_all_pass(self):
        checks = check_results(_fake_report())
        assert all(checks.values())
        assert check_regressions({"checks": checks, **_fake_report()}) == []

    def test_warm_slower_is_a_regression(self):
        report = _fake_report(warm_d=3.0)            # slower than cold
        report["checks"] = check_results(report)
        failures = check_regressions(report)
        assert len(failures) == 1 and "decompress" in failures[0]

    def test_targets_only_gate_in_strict_mode(self):
        # sharded compress has no hard gate: a speedup under its target
        # fails only the strict run
        report = _fake_report(warm_s=1.0, cold_s=0.9 * TARGET_WARM_SHARDED)
        report["checks"] = check_results(report)
        assert not report["checks"]["target_warm_sharded"]
        assert check_regressions(report) == []
        assert any(f"{TARGET_WARM_SHARDED}x target" in f
                   for f in check_regressions(report, strict=True))


@pytest.fixture(scope="module")
def quick_run() -> tuple[dict, list[int]]:
    """One quick suite run, plus the seed of every field it generated."""
    seeds: list[int] = []
    real = regression._bench_field

    def spy(shape, seed):
        seeds.append(seed)
        return real(shape, seed)

    regression._bench_field = spy
    try:
        report = run_hotpath_suite(quick=True, warmup=1, repeat=1)
    finally:
        regression._bench_field = real
    return report, seeds


@pytest.fixture(scope="module")
def quick_report(quick_run) -> dict:
    return quick_run[0]


#: the identity flags every quick report must carry (and pass)
IDENTITY_CHECKS = {"telemetry_blob_identical", "profiler_blob_identical",
                   "compiled_blob_identical",
                   "compiled_decode_value_identical",
                   "threaded_blob_identical", "threaded_value_identical"}


class TestSuite:
    def test_report_structure(self, quick_report):
        assert quick_report["suite"] == "hotpath" and quick_report["quick"]
        assert set(quick_report) >= {"config", "single", "sharded",
                                     "hotpath", "peak_bytes", "checks"}
        hp = quick_report["hotpath"]
        # spec-keyed plans are reused across fresh inputs; content-keyed
        # codebooks are rebuilt for every new histogram
        assert hp["plan_caches"]["compile.plans"]["hits"] > 0
        assert hp["plan_caches"]["huffman.codebook"]["misses"] > 0
        assert hp["buffer_pool"]["hits"] > 0

    def test_every_field_is_new(self, quick_run):
        _, seeds = quick_run
        assert len(seeds) > 30                       # one per timed call
        assert len(set(seeds)) == len(seeds)

    def test_deterministic_gates_pass(self, quick_report):
        checks = quick_report["checks"]
        assert IDENTITY_CHECKS <= set(checks)
        assert all(checks[name] for name in IDENTITY_CHECKS)

    def test_render_and_write(self, quick_report, tmp_path):
        text = render_report(quick_report)
        assert "decompress" in text and "shared codebook" in text
        out = tmp_path / "bench.json"
        write_report(quick_report, str(out))
        assert json.loads(out.read_text())["checks"] == quick_report["checks"]


class TestTelemetrySection:
    def test_report_has_telemetry_section(self, quick_report):
        tel = quick_report["telemetry"]
        assert tel["spans_per_compress"] > 0
        assert tel["blob_identical"] is True
        assert quick_report["checks"]["telemetry_blob_identical"]
        assert "telemetry_disabled_overhead_lt_3pct" in quick_report["checks"]

    def test_fakes_without_telemetry_still_check(self):
        checks = check_results(_fake_report())
        assert "telemetry_blob_identical" not in checks

    def test_blob_mismatch_is_a_regression(self):
        report = _fake_report()
        report["telemetry"] = {"spans_per_compress": 9,
                               "disabled_span_ns": 100.0,
                               "disabled_overhead_s": 0.0,
                               "disabled_overhead_fraction": 0.0,
                               "blob_identical": False}
        report["checks"] = check_results(report)
        assert any("container" in f for f in check_regressions(report))

    def test_overhead_over_budget_is_a_regression(self):
        report = _fake_report()
        report["telemetry"] = {"spans_per_compress": 9,
                               "disabled_span_ns": 100.0,
                               "disabled_overhead_s": 0.1,
                               "disabled_overhead_fraction": 0.10,
                               "blob_identical": True}
        report["checks"] = check_results(report)
        assert any("budget" in f for f in check_regressions(report))


def _fake_decode_section(speedup=2.0, identical=True) -> dict:
    warm_i = 1.0
    return {"plan_key": "0" * 32,
            "interpreted": {"warm_s": warm_i, "warm_mb_s": 10.0},
            "decompress": {"warm_s": warm_i / speedup,
                           "warm_mb_s": 10.0 * speedup,
                           "speedup_vs_interpreted": speedup},
            "value_identical": identical}


class TestCompiledDecodeSection:
    def test_report_has_section(self, quick_report):
        dcomp = quick_report["compiled_decompress"]
        assert dcomp["plan_key"] is not None
        assert dcomp["value_identical"] is True
        checks = quick_report["checks"]
        assert checks["compiled_decode_value_identical"]
        assert "compiled_decode_not_slower_than_interpreted" in checks
        assert "target_compiled_decode" in checks

    def test_fakes_without_section_still_check(self):
        checks = check_results(_fake_report())
        assert "compiled_decode_value_identical" not in checks

    def test_value_divergence_is_a_regression(self):
        report = _fake_report()
        report["compiled_decompress"] = _fake_decode_section(identical=False)
        report["checks"] = check_results(report)
        assert any("value-identical" in f for f in check_regressions(report))

    def test_slower_than_interpreted_is_a_regression(self):
        report = _fake_report()
        report["compiled_decompress"] = _fake_decode_section(speedup=0.8)
        report["checks"] = check_results(report)
        assert any("compiled decompress is slower" in f
                   for f in check_regressions(report))

    def test_decode_target_only_gates_in_strict_mode(self):
        report = _fake_report()
        report["compiled_decompress"] = _fake_decode_section(
            speedup=0.99 * TARGET_COMPILED_DECODE)
        report["checks"] = check_results(report)
        assert not report["checks"]["target_compiled_decode"]
        assert not any("vs-interpreted" in f
                       for f in check_regressions(report))
        assert any("vs-interpreted" in f
                   for f in check_regressions(report, strict=True))

    def test_rendered_report_names_both_directions(self, quick_report):
        text = render_report(quick_report)
        assert "c.decomp" in text and "interpreted" in text


class TestStagesSection:
    def test_report_has_per_direction_breakdown(self, quick_report):
        stages = quick_report["stages"]
        for direction in ("compress", "decompress"):
            sec = stages[direction]
            assert sec["wall_seconds"] > 0
            assert sec["mb_s"] > 0
            assert any(n.startswith("stage.") for n in sec["stages"])
            for row in sec["stages"].values():
                assert set(row) == {"count", "inclusive_s", "exclusive_s",
                                    "bytes_in", "bytes_out", "mb_s"}

    def test_exclusive_time_accounts_for_the_wall(self, quick_report):
        # the ISSUE gate: per-stage exclusive time must sum to >= 95% of
        # the traced wall — less means untraced gaps in the hot path
        for direction in ("compress", "decompress"):
            sec = quick_report["stages"][direction]
            assert sec["exclusive_coverage"] >= 0.95, direction

    def test_stage_bandwidth_recorded(self, quick_report):
        comp = quick_report["stages"]["compress"]["stages"]
        assert comp["stage.predictor"]["bytes_in"] > 0
        assert comp["stage.encoder"]["mb_s"] is not None

    def test_rendered_report_includes_breakdown(self, quick_report):
        text = render_report(quick_report)
        assert "stages/compress" in text
        assert "stage." in text


class TestProfilerSection:
    def test_report_has_section_and_checks(self, quick_report):
        prof = quick_report["profiler"]
        assert prof["interval_s"] > 0
        assert prof["samples"] >= 0
        assert prof["blob_identical"] is True
        checks = quick_report["checks"]
        assert checks["profiler_blob_identical"]
        assert "profiler_overhead_lt_5pct" in checks

    def test_fakes_without_section_still_check(self):
        checks = check_results(_fake_report())
        assert "profiler_overhead_lt_5pct" not in checks

    def _fake_profiler(self, overhead=0.01, identical=True) -> dict:
        return {"interval_s": 0.005, "samples": 100, "distinct_stacks": 10,
                "warm_off_s": 1.0, "warm_on_s": 1.0 + overhead,
                "overhead_fraction": overhead, "blob_identical": identical}

    def test_overhead_over_budget_is_a_regression(self):
        report = _fake_report()
        report["profiler"] = self._fake_profiler(overhead=0.10)
        report["checks"] = check_results(report)
        assert any("sampling-profiler overhead" in f
                   for f in check_regressions(report))

    def test_blob_mismatch_is_a_regression(self):
        report = _fake_report()
        report["profiler"] = self._fake_profiler(identical=False)
        report["checks"] = check_results(report)
        assert any("serialized output" in f
                   for f in check_regressions(report))


class TestDiff:
    def _stages(self, wall, **excl):
        return {"wall_seconds": wall,
                "mb_s": 1.0 / wall,
                "exclusive_coverage": 1.0,
                "stages": {name: {"count": 1, "inclusive_s": s,
                                  "exclusive_s": s, "bytes_in": 0,
                                  "bytes_out": 0, "mb_s": None}
                           for name, s in excl.items()}}

    def test_attributes_delta_to_the_regressed_stage(self):
        a = {"stages": {"compress": self._stages(
            1.0, **{"stage.predictor": 0.4, "stage.encoder": 0.6})}}
        b = {"stages": {"compress": self._stages(
            1.3, **{"stage.predictor": 0.7, "stage.encoder": 0.6})}}
        d = diff(a, b)
        sec = d["sections"]["compress"]
        assert sec["regressed"] is True
        assert sec["delta_s"] == pytest.approx(0.3)
        assert sec["delta_pct"] == pytest.approx(30.0)
        assert sec["top_stage"] == "stage.predictor"
        top = sec["stages"][0]
        assert top["name"] == "stage.predictor"
        assert top["share"] == pytest.approx(1.0)

    def test_speedup_and_new_stage_handling(self):
        a = {"stages": {"decompress": self._stages(
            2.0, **{"stage.encoder": 1.9})}}
        b = {"stages": {"decompress": self._stages(
            1.0, **{"stage.encoder": 0.8, "stage.fused": 0.1})}}
        sec = diff(a, b)["sections"]["decompress"]
        assert sec["regressed"] is False
        assert sec["top_stage"] == "stage.encoder"
        fused = next(r for r in sec["stages"] if r["name"] == "stage.fused")
        assert fused["a_s"] == 0.0 and fused["b_s"] == pytest.approx(0.1)

    def test_missing_sections_are_skipped(self):
        assert diff({}, {})["sections"] == {}
        a = {"stages": {"compress": self._stages(1.0, **{"s": 1.0})}}
        assert diff(a, {})["sections"] == {}
        assert "no comparable" in render_diff(diff(a, {}))

    def test_render_diff_text(self):
        a = {"stages": {"compress": self._stages(1.0, **{"stage.x": 1.0})}}
        b = {"stages": {"compress": self._stages(1.3, **{"stage.x": 1.3})}}
        text = render_diff(diff(a, b))
        assert "compress: 1.0000s -> 1.3000s (+30.0%, slower)" in text
        assert "stage.x" in text and "of delta" in text

    def test_injected_sleep_is_attributed_to_its_stage(self, monkeypatch):
        # the acceptance test from the ISSUE: slow one stage down for real
        # and check the diff names it as the prime suspect
        from repro.core.pipeline import Pipeline
        x = np.linspace(0, 6, 40, dtype=np.float32)
        field = (np.sin(x)[:, None, None]
                 + np.cos(x)[None, :, None] * x[None, None, :]
                 ).astype(np.float32)
        pipe = Pipeline.from_names()
        mb = field.nbytes / 1e6

        baseline = _traced_stages(
            lambda: pipe.compress(field, 1e-3, compile=False), mb)

        real_encode = pipe.predictor.encode

        def slow_encode(*args, **kwargs):
            time.sleep(0.05)
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(pipe.predictor, "encode", slow_encode)
        slowed = _traced_stages(
            lambda: pipe.compress(field, 1e-3, compile=False), mb)

        sec = diff({"stages": {"compress": baseline}},
                   {"stages": {"compress": slowed}})["sections"]["compress"]
        assert sec["regressed"] is True
        assert sec["top_stage"] == "stage.predictor"
        assert sec["stages"][0]["delta_s"] >= 0.04
        assert sec["stages"][0]["share"] > 0.5


class TestWriteReportHistory:
    def test_rewrites_append_history(self, quick_report, tmp_path):
        out = tmp_path / "bench.json"
        write_report(quick_report, str(out))
        assert json.loads(out.read_text())["history"] == []
        write_report(quick_report, str(out))
        doc = json.loads(out.read_text())
        assert doc["checks"] == quick_report["checks"]   # latest at root
        assert len(doc["history"]) == 1
        assert doc["history"][0]["checks"] == quick_report["checks"]
        write_report(quick_report, str(out))
        assert len(json.loads(out.read_text())["history"]) == 2

    def test_fresh_discards_history(self, quick_report, tmp_path):
        out = tmp_path / "bench.json"
        write_report(quick_report, str(out))
        write_report(quick_report, str(out))
        write_report(quick_report, str(out), fresh=True)
        assert json.loads(out.read_text())["history"] == []

    def test_corrupt_prior_file_is_tolerated(self, quick_report, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text("{not json")
        write_report(quick_report, str(out))
        assert json.loads(out.read_text())["history"] == []
