"""Tests for the extended CLI subcommands (explain/recommend/verify/archive)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def sample_file(tmp_path, rng):
    data = np.cumsum(rng.normal(scale=0.01, size=15_000)).astype(np.float32)
    path = tmp_path / "field.f32"
    path.write_bytes(data.tobytes())
    return path, data


class TestExplainCommand:
    def test_waterfall_printed(self, sample_file, capsys):
        path, _ = sample_file
        assert main(["explain", str(path), "--codec", "spratio"]) == 0
        out = capsys.readouterr().out
        for stage in ("diffms", "bit", "rze"):
            assert stage in out
        assert "ratio" in out


class TestRecommendCommand:
    def test_smooth_data_recommendation(self, sample_file, capsys):
        path, _ = sample_file
        assert main(["recommend", str(path)]) == 0
        out = capsys.readouterr().out
        assert "recommended codec: spratio" in out


class TestBenchMeasured:
    def test_trace_prints_per_chunk_stage_table(self, capsys):
        assert main(["bench", "--trace", "--scale", "0.05",
                     "--codec", "spratio"]) == 0
        out = capsys.readouterr().out
        # per-executor measured rows name their policy
        for policy in ("serial", "threaded"):
            assert policy in out
        # per-chunk stage timings and sizes from the traced run
        for stage in ("diffms", "bit", "rze"):
            assert stage in out
        assert "raw fallback" in out
        assert "ms" in out and "B out" in out

    def test_single_executor_selection(self, capsys):
        assert main(["bench", "--codec", "spspeed", "--executor", "threaded",
                     "--workers", "2", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "threaded" in out
        assert "serial" not in out

    def test_unknown_executor_rejected(self, capsys):
        rc = main(["bench", "--codec", "spspeed", "--executor", "fibers",
                   "--scale", "0.05"])
        assert rc == 1


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--scale", "0.02"]) == 0
        assert "ALL LOSSLESS" in capsys.readouterr().out


class TestArchiveCommand:
    def test_create_list_extract(self, tmp_path, rng, capsys):
        a = np.cumsum(rng.normal(size=4000)).astype(np.float32)
        b = rng.normal(size=2000).astype(np.float32)
        (tmp_path / "a.f32").write_bytes(a.tobytes())
        (tmp_path / "b.f32").write_bytes(b.tobytes())
        archive_path = tmp_path / "snapshot.fpra"

        assert main(["archive", "create", str(archive_path),
                     f"T={tmp_path / 'a.f32'}", f"P={tmp_path / 'b.f32'}"]) == 0
        assert main(["archive", "list", str(archive_path)]) == 0
        out = capsys.readouterr().out
        assert "T" in out and "total ratio" in out

        out_path = tmp_path / "restored.f32"
        assert main(["archive", "extract", str(archive_path), f"T={out_path}"]) == 0
        assert out_path.read_bytes() == a.tobytes()

    def test_bad_member_spec(self, tmp_path, capsys):
        rc = main(["archive", "create", str(tmp_path / "x.fpra"), "justaname"])
        assert rc == 1
        assert "NAME=FILE" in capsys.readouterr().err
