"""Unit tests for the benchmark-trajectory schema helpers.

These do not run benchmarks (that is the bench-smoke CI job's work);
they pin the save/load contract and the regression-gate semantics that
``fprz bench --baseline`` relies on.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.harness.trajectory import (
    RANGE_SLICES,
    SCHEMA_VERSION,
    Regression,
    compare_trajectories,
    format_trajectory,
    load_trajectory,
    save_trajectory,
)


def _point(compress=100e6, decompress=200e6, *, codecs=None, tag="t"):
    if codecs is None:
        codecs = {
            "spspeed": {
                "compress_bytes_per_s": compress,
                "decompress_bytes_per_s": decompress,
                "ratio": 1.5,
            }
        }
    return {"schema": SCHEMA_VERSION, "tag": tag, "codecs": codecs}


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        point = _point(tag="rt")
        path = tmp_path / "BENCH_rt.json"
        save_trajectory(point, path)
        assert load_trajectory(path) == point

    def test_saved_file_is_stable_json(self, tmp_path):
        # sort_keys + trailing newline: committed points diff cleanly.
        path = tmp_path / "p.json"
        save_trajectory(_point(), path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot load"):
            load_trajectory(tmp_path / "absent.json")

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="cannot load"):
            load_trajectory(path)

    def test_non_dict_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ReproError, match="not a benchmark trajectory"):
            load_trajectory(path)

    @pytest.mark.parametrize("missing", ["schema", "codecs"])
    def test_missing_required_key_rejected(self, tmp_path, missing):
        point = _point()
        del point[missing]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(point))
        with pytest.raises(ReproError, match="not a benchmark trajectory"):
            load_trajectory(path)

    def test_newer_schema_rejected(self, tmp_path):
        point = _point()
        point["schema"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(point))
        with pytest.raises(ReproError, match="newer than supported"):
            load_trajectory(path)


class TestCompare:
    def test_identical_points_have_no_regressions(self):
        assert compare_trajectories(_point(), _point()) == []

    def test_improvement_is_not_a_regression(self):
        assert compare_trajectories(_point(100e6), _point(400e6)) == []

    def test_drop_within_threshold_passes(self):
        # -30% is the default gate; -25% must pass.
        assert compare_trajectories(_point(100e6), _point(75e6)) == []

    def test_drop_past_threshold_is_reported(self):
        regs = compare_trajectories(_point(100e6, 200e6), _point(60e6, 200e6))
        assert len(regs) == 1
        reg = regs[0]
        assert (reg.section, reg.key, reg.metric) == (
            "codecs", "spspeed", "compress_bytes_per_s",
        )
        assert reg.baseline == 100e6 and reg.current == 60e6

    def test_both_directions_gate(self):
        regs = compare_trajectories(_point(100e6, 200e6), _point(10e6, 20e6))
        assert {r.metric for r in regs} == {
            "compress_bytes_per_s", "decompress_bytes_per_s",
        }

    def test_custom_threshold(self):
        base, cur = _point(100e6), _point(85e6)
        assert compare_trajectories(base, cur, threshold=0.10)
        assert compare_trajectories(base, cur, threshold=0.20) == []

    def test_codec_missing_from_current_is_skipped(self):
        # A baseline measured with more codecs must not fail the gate.
        assert compare_trajectories(_point(), _point(codecs={})) == []

    def test_only_codecs_section_gates(self):
        base, cur = _point(), _point()
        base["kernels"] = {"pack_words/w32/width8": {"bytes_per_s": 1e9}}
        cur["kernels"] = {"pack_words/w32/width8": {"bytes_per_s": 1e3}}
        assert compare_trajectories(base, cur) == []


def _range_rows(bytes_per_s):
    key = f"dpratio/slice{max(RANGE_SLICES)}"
    return {key: {"bytes_per_s": bytes_per_s,
                  "slice_bytes": max(RANGE_SLICES)}}


class TestRangeReadGate:
    def test_range_read_point_gates(self):
        base, cur = _point(), _point()
        base["range_read"] = _range_rows(100e6)
        cur["range_read"] = _range_rows(40e6)
        regs = compare_trajectories(base, cur)
        assert len(regs) == 1
        assert regs[0].section == "range_read"
        assert regs[0].metric == "bytes_per_s"

    def test_range_read_within_threshold_passes(self):
        base, cur = _point(), _point()
        base["range_read"] = _range_rows(100e6)
        cur["range_read"] = _range_rows(80e6)
        assert compare_trajectories(base, cur) == []

    def test_missing_range_section_is_skipped(self):
        # Old baselines without the section must keep gating cleanly.
        base, cur = _point(), _point()
        cur["range_read"] = _range_rows(1e3)
        assert compare_trajectories(base, cur) == []

    def test_only_the_largest_slice_gates(self):
        # Small-slice throughput is planning-overhead-dominated and far
        # noisier; it is recorded but not gated.
        base, cur = _point(), _point()
        small = f"dpratio/slice{min(RANGE_SLICES)}"
        base["range_read"] = {small: {"bytes_per_s": 100e6, "slice_bytes": 1}}
        cur["range_read"] = {small: {"bytes_per_s": 1e3, "slice_bytes": 1}}
        assert compare_trajectories(base, cur) == []


class TestRegression:
    def test_change_is_relative(self):
        reg = Regression("codecs", "spspeed", "compress_bytes_per_s", 100e6, 60e6)
        assert reg.change == pytest.approx(-0.4)

    def test_zero_baseline_change_is_zero(self):
        reg = Regression("codecs", "spspeed", "compress_bytes_per_s", 0.0, 60e6)
        assert reg.change == 0.0

    def test_render_mentions_metric_and_delta(self):
        reg = Regression("codecs", "dpratio", "decompress_bytes_per_s", 200e6, 100e6)
        text = reg.render()
        assert "codecs/dpratio" in text
        assert "decompress_bytes_per_s" in text
        assert "-50.0%" in text
        assert "200.00 -> 100.00 MB/s" in text


class TestFormat:
    def test_format_lists_codecs_and_kernels(self):
        point = _point(tag="fmt")
        point["kernel_backend"] = {"numpy/count_leading_zeros/w32": {"bytes_per_s": 5e8}}
        text = format_trajectory(point)
        assert "tag fmt" in text
        assert "spspeed" in text
        assert "numpy/count_leading_zeros/w32" in text

    def test_format_ignores_the_retired_kernels_section(self):
        # Committed points recorded before the section was dropped still
        # carry it; they must load and format, without the duplicate rows.
        point = _point(tag="old")
        point["kernels"] = {"clz/w32": {"bytes_per_s": 5e8}}
        text = format_trajectory(point)
        assert "spspeed" in text
        assert "clz/w32" not in text

    def test_format_renders_range_and_parallel_sections(self):
        point = _point(tag="v3")
        point["range_read"] = {
            "dpratio/slice4096": {"bytes_per_s": 2e8, "slice_bytes": 4096},
        }
        point["fcm_parallel"] = {
            "serial": {"compress_bytes_per_s": 1e8,
                       "decompress_bytes_per_s": 2e8,
                       "ratio": 1.2, "workers": 1},
            "global": {"compress_bytes_per_s": 1e8,
                       "decompress_bytes_per_s": 2e8,
                       "ratio": 1.3, "workers": 1},
        }
        text = format_trajectory(point)
        assert "dpratio/slice4096" in text
        assert "range read" in text
        assert "serial" in text and "global" in text


def _saturation_derived(pipelined=2.5, router=3.5):
    return {"derived": {"pipelined_speedup": pipelined,
                        "router_scaling": router,
                        "job_delay_ms": 3.0}}


class TestSaturationGate:
    def test_ratio_drop_past_threshold_gates(self):
        base, cur = _point(), _point()
        base["service_saturation"] = _saturation_derived(pipelined=2.5)
        cur["service_saturation"] = _saturation_derived(pipelined=1.2)
        regs = compare_trajectories(base, cur)
        assert len(regs) == 1
        reg = regs[0]
        assert (reg.section, reg.metric) == (
            "service_saturation", "pipelined_speedup",
        )
        assert reg.unit == "x"

    def test_both_saturation_ratios_gate(self):
        base, cur = _point(), _point()
        base["service_saturation"] = _saturation_derived(2.5, 3.5)
        cur["service_saturation"] = _saturation_derived(1.0, 1.0)
        regs = compare_trajectories(base, cur)
        assert {r.metric for r in regs} == {
            "pipelined_speedup", "router_scaling",
        }

    def test_ratio_within_threshold_passes(self):
        base, cur = _point(), _point()
        base["service_saturation"] = _saturation_derived(2.5, 3.5)
        cur["service_saturation"] = _saturation_derived(2.0, 2.8)  # -20%
        assert compare_trajectories(base, cur) == []

    def test_missing_saturation_section_is_skipped(self):
        base, cur = _point(), _point()
        base["service_saturation"] = _saturation_derived()
        assert compare_trajectories(base, cur) == []

    def test_ratio_regression_renders_raw_values_not_mbs(self):
        reg = Regression(
            "service_saturation", "derived", "router_scaling",
            3.5, 1.4, unit="x",
        )
        text = reg.render()
        assert "3.50 -> 1.40 x" in text
        assert "MB/s" not in text
