"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from bench import compare, loadgen, run, stats, trace, workloads
from repro.errors import BusyError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# -- percentiles -------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert stats.beyond(1000, 99) == 10
    assert stats.tail(samples, 99) == (99.0, 990)
    # 999 samples leave only 9 beyond p99: the next percentile down is used.
    q, value = stats.tail(samples[:999], 99)
    assert q == 98.0 and stats.beyond(999, q) >= stats.MIN_BEYOND
    assert value == stats.percentile(samples[:999], 98)
    # Too few samples for any tail: the median is reported.
    assert stats.tail(list(range(12)), 99)[0] == 50.0


def test_interquartile_mean_moves_smoothly_where_the_median_jumps():
    assert stats.iqm([8, 1, 7, 2, 6, 3, 5, 4]) == pytest.approx(4.5)
    # Two clusters, the median at their edge: one sample moving across
    # moves the median by the whole gap and the iqm by a fraction of it.
    before = [1.0] * 50 + [2.0] * 50
    after = [1.0] * 49 + [2.0] * 51
    assert stats.percentile(after, 50) - stats.percentile(before, 50) == 1.0
    assert stats.iqm(after) - stats.iqm(before) == pytest.approx(0.02)


def test_percentile_is_nearest_rank():
    assert stats.percentile([5, 1, 3, 2, 4], 50) == 3
    assert stats.percentile([5, 1, 3, 2, 4], 100) == 5
    assert stats.percentile([5, 1, 3, 2, 4], 1) == 1


# -- open-loop load generation ------------------------------------------------


class FakeClock:
    """A clock that only moves when the generator sleeps or the server works."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    clock = FakeClock()
    service = {0: 0.050}  # the first request stalls the server for 50 ms

    def send(conn, rid):
        clock.now += service.get(rid, 0.001)
        return rid

    outcomes = loadgen.run_open_loop(
        send, lambda rid, response: response == rid, n_conn=1, rate=1000.0, seed=0,
        count=20, clock=clock, sleep=clock.sleep,
    )
    assert [o.rid for o in outcomes] == list(range(20))
    first, second = outcomes[0], outcomes[1]
    assert first.late == 0.0 and first.latency == pytest.approx(0.050)
    # The second request was due during the stall: it went out late, and
    # its latency counts from when it was due, not from when it was sent.
    assert second.late > 0.040
    assert second.latency == pytest.approx(second.late + 0.001)
    assert second.done - second.sent == pytest.approx(0.001)
    assert all(o.ok for o in outcomes)


def test_refused_and_wrong_requests_are_failures():
    def send(conn, rid):
        if rid == 1:
            raise BusyError("queue full")
        return rid

    outcomes = loadgen.run_closed_loop(send, lambda rid, response: rid != 2,
                                       n_conn=2, count=4)
    assert [o.ok for o in outcomes] == [True, False, False, True]
    assert "BusyError" in outcomes[1].error
    assert outcomes[2].error == "wrong output"


# -- spans --------------------------------------------------------------------


def _span(sid, parent, start, end, name="s"):
    return trace.Span(sid, parent, name, "layer", start, end, None, 0)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),    # overlaps span 2
        _span(4, 2, 2.0, 3.0),    # grandchild of 1
        _span(5, 1, 8.0, 12.0),   # another thread, outlives its parent
    ]
    selfs = trace.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(4.0)


def test_tracer_nests_spans_and_restores_every_target():
    original = repro.compress
    original_getitem = repro.ContainerReader.__getitem__
    tracer = trace.Tracer()
    field = np.cumsum(np.ones(8192, dtype=np.float32))
    with tracer.installed():
        assert repro.compress is not original
        with tracer.request("r1"):
            blob = repro.compress(field)
    assert repro.compress is original
    assert repro.ContainerReader.__getitem__ is original_getitem
    from repro.bitpack.backend import active_backend
    assert active_backend().name != "bench-timed"
    by_sid = {s.sid: s for s in tracer.spans}
    engine = next(s for s in tracer.spans if s.name == "engine.compress")
    assert by_sid[engine.parent].name == "api.compress"
    assert {s.rid for s in tracer.spans} == {"r1"}
    values, absent = tracer.layer_metrics({})
    assert absent == []
    assert values["container.build.calls"] == 1
    assert values["engine.chunks"] == 2
    assert values["stages.rze.out_bytes"] > 0
    assert np.array_equal(repro.decompress(blob), field)


def test_missing_wrap_point_marks_its_layer_absent(monkeypatch, capsys):
    monkeypatch.setattr(trace, "WRAP_POINTS", trace.WRAP_POINTS + (
        trace.WrapPoint("repro.no_such_module.plan", "core.plan", "plan"),
        trace.WrapPoint("repro.core.container.renamed_checksum", "core.container", "container.crc"),
    ))
    tracer = trace.Tracer()
    with tracer.installed():
        repro.decompress(repro.compress(np.zeros(8192, dtype=np.float32)))
    values, absent = tracer.layer_metrics({})
    assert tracer.absent == {"core.plan", "core.container"}
    assert "plan.calls" in absent and values["plan.calls"] == 0
    assert "container.crc.bytes" in absent
    assert values["engine.chunks"] == 4  # the other layers are still traced
    assert "not found" in capsys.readouterr().err


def test_engine_without_a_trace_argument_is_absent_not_a_crash(monkeypatch):
    import repro.api

    real = repro.api.compress_bytes

    def compress_bytes(data, codec, **kwargs):
        kwargs.pop("trace", None)
        return real(data, codec, **kwargs)

    monkeypatch.setattr(repro.api, "compress_bytes", compress_bytes)
    tracer = trace.Tracer()
    with tracer.installed():
        repro.compress(np.zeros(4096, dtype=np.float32))
    values, absent = tracer.layer_metrics({})
    assert "core.compressor" in tracer.absent
    assert "stages.rze.enc_s" in absent and "engine.chunks" in absent


# -- correctness checks -------------------------------------------------------


def test_a_corrupted_output_counts_as_failed(monkeypatch, tmp_path):
    workload = workloads.make("bulk-sp", 0, tmp_path)
    workload.fields = [("tiny", np.linspace(0.0, 1.0, 8192, dtype=np.float32))]
    real = repro.decompress

    def corrupting(blob, **kwargs):
        out = real(blob, **kwargs).copy()
        out.view(np.uint32)[7] ^= 1
        return out

    monkeypatch.setattr(repro, "decompress", corrupting)
    result = workload.measure(0.0)
    assert (result.attempted, result.failed) == (2, 1)
    assert "differs" in result.errors[0]


def test_same_bits_compares_bit_patterns():
    a = np.array([0.0, np.nan], dtype=np.float64)
    assert workloads.same_bits(a.copy(), a)
    assert not workloads.same_bits(np.array([-0.0, np.nan]), a)
    assert not workloads.same_bits(a.astype(np.float32), a)


# -- comparing result sets ----------------------------------------------------


SPEC = [{"name": "throughput_MBps", "unit": "MB/s", "better": "higher", "bound": 0.1}]
STEADY = [100.0, 101.0, 99.0, 100.5, 102.0, 98.0, 100.0, 101.0, 99.5, 100.0]


def _results(values, numpy_version="2.0"):
    return [{
        "metrics": {"throughput_MBps": {"value": v, "unit": "MB/s"}},
        "provenance": {"workload": "bulk-sp", "seed": seed, "trace": False, "nproc": 2,
                       "python": "3.11", "numpy": numpy_version, "kernel_backend": "numpy",
                       "offered_rps": None, "seconds": 20},
    } for seed, v in enumerate(values)]


@pytest.mark.parametrize("b_values, expected", [
    (STEADY, "within bound"),
    ([v * 1.2 for v in STEADY], "improved"),
    ([v * 0.8 for v in STEADY], "regressed"),
    ([v * 0.95 for v in STEADY], "within bound"),
])
def test_compare_verdicts(b_values, expected):
    rows = compare.compare(_results(STEADY), _results(b_values), SPEC)
    assert [r["verdict"] for r in rows] == [expected]


def test_compare_reports_a_wide_spread_as_unresolved():
    wide = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    rows = compare.compare(_results(wide), _results([v * 0.85 for v in wide]), SPEC)
    assert rows[0]["verdict"] == "unresolved"
    rows = compare.compare(_results(wide), _results([200.0 + v for v in wide]), SPEC)
    assert rows[0]["verdict"] == "improved"


def test_compare_refuses_different_environments():
    with pytest.raises(compare.NotComparable, match="numpy"):
        compare.compare(_results(STEADY), _results(STEADY, numpy_version="1.26"), SPEC)


def test_compare_exits_nonzero_on_a_regression(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for side, scale in (("a", 1.0), ("b", 0.5)):
        (tmp_path / side).mkdir()
        for r in _results(STEADY):
            r["metrics"] = {m["name"]: {"value": r["metrics"]["throughput_MBps"]["value"] * scale,
                                        "unit": m["unit"]} for m in spec}
            path = tmp_path / side / f"{r['provenance']['seed']}.json"
            path.write_text(json.dumps(r))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1


# -- the benchmark definition -------------------------------------------------


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["bench"] and spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _layer in trace.PER_LAYER]
    assert len(spec["per_layer"]) <= 128 and len(spec["end_to_end"]) <= 16
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_a_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bulk-sp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
