"""The benchmark's four workloads.

Every workload makes its inputs from the seed alone, pays its set-up the
way a user would, runs a timed phase, and checks every output it gets:
a decompressed array must equal its input bit for bit, a container must
equal the one the same input produced before (or, from the service, the
one ``repro.compress`` produces in-process), and a range read must equal
the same slice of the source field.

Why these four (each stresses a layer the others barely touch):

* ``bulk-sp`` — SPratio on one 4 MiB field per single-precision domain,
  serial.  Time goes to the DIFFMS/BIT/RZE stages; there is no FCM and
  per-call cost is a few percent.
* ``bulk-dp`` — DPratio on one 4 MiB field per double-precision domain,
  global FCM, threaded executor with 2 workers.  The serial FCM pass is
  about half of compress time, so FCM and executor changes show here
  and not in ``bulk-sp``.
* ``range-read`` — 4 KiB and 64 KiB slice reads (3:1) from a 16 MiB
  DPratio container with FCM restart markers.  Fixed per-call cost
  dominates: header and index validation, planning, pipeline set-up.
* ``service-mix`` — 4-64 KiB float32 compress and decompress requests
  (50/50) to an ``fprz serve`` subprocess over 2 connections, at a fixed
  offered rate (open loop) alternating with back-to-back requests
  (closed loop).  Framing, admission and the thread hand-off run only
  here.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import select
import signal
import subprocess
import sys
import time
import zlib
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from bench import loadgen, stats
from repro.datasets import dp_suite, sp_suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
#: The tail latency ``op_tail_ms`` does not repeat within a useful bound
#: on a shared 2-vCPU machine; it is a per-layer metric of traced runs.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_MBps", "MB/s"),
    ("op_iqm_ms", "ms"),
    ("ratio", "x"),
    ("peak_rss_MB", "MB"),
)

#: Set-up trials per run; ``setup_s`` is their median.
SETUP_TRIALS = 5
MB = 1e6


@dataclass
class Run:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: sample count behind each metric
    samples: dict = field(default_factory=dict)
    #: facts needed to read the metrics (e.g. which tail percentile)
    info: dict = field(default_factory=dict)

    def record(self, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error or "wrong output")

    def latencies(self, seconds: list[float], tail_pct: float) -> None:
        """Set ``op_iqm_ms``, ``op_p50_ms`` and ``op_tail_ms`` from
        per-operation times."""
        used, tail = stats.tail(seconds, tail_pct)
        self.metrics["op_iqm_ms"] = 1000.0 * stats.iqm(seconds)
        self.metrics["op_p50_ms"] = 1000.0 * stats.percentile(seconds, 50)
        self.metrics["op_tail_ms"] = 1000.0 * tail
        for name in ("op_iqm_ms", "op_p50_ms", "op_tail_ms"):
            self.samples[name] = len(seconds)
        self.info["op_tail_percentile"] = used

    def rates(self, values: list[float], unit_of_work: str) -> None:
        """Set ``throughput_MBps`` to the median of per-block rates."""
        self.metrics["throughput_MBps"] = stats.median(values)
        self.samples["throughput_MBps"] = len(values)
        self.info["throughput_block"] = unit_of_work


def field_rng(seed: int, name: str) -> np.random.Generator:
    """The generator for one named input under one seed."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def same_bits(out, ref: np.ndarray) -> bool:
    """Whether ``out`` has ``ref``'s dtype, shape and exact bit patterns."""
    out = np.asarray(out)
    if out.dtype != ref.dtype or out.shape != ref.shape:
        return False
    word = np.dtype(f"u{ref.dtype.itemsize}")
    return bool(np.array_equal(out.view(word), ref.view(word)))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux); no-op elsewhere."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """This process's peak resident set since the last reset, in MB."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def child_env() -> dict:
    """Environment for child interpreters: ``src`` first on PYTHONPATH."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _probe(*args: str) -> dict:
    """Run one set-up trial in a fresh interpreter (``setup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """One seeded input set and how it is driven."""

    name = ""
    #: the tail percentile ``op_tail_ms`` reports
    tail_pct = 99.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        """Make the inputs from the seed (timed as ``gen_s``, not set-up)."""

    def setup_trial(self) -> float:
        """One complete set-up, as a user pays it, in seconds."""
        raise NotImplementedError

    def start(self) -> None:
        """Set up in this process before the timed phase."""

    def measure(self, seconds: float) -> Run:
        """The timed phase, tracing off."""
        raise NotImplementedError

    def traced(self, tracer) -> Run:
        """Fixed work, alternately untraced and traced; metrics are the
        per-layer values the workload measures itself."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def provenance(self) -> dict:
        return {}

    def close(self) -> None:
        """Release everything the workload started."""


class Bulk(Workload):
    """Whole-field compress and decompress of one field per domain."""

    #: 16 x the corpus base grid: about 4 MiB per field.
    SCALE = 16
    #: passes per side in the traced run
    TRACE_PASSES = 3
    tail_pct = 90.0

    def __init__(self, seed, workdir, *, name, suite, codec, executor, workers) -> None:
        super().__init__(seed, workdir)
        self.name = name
        self.suite = suite
        self.codec = codec
        self.kwargs = {"executor": executor, "workers": workers}
        self.fields: list[tuple[str, np.ndarray]] = []
        self.reference: dict[int, bytes] = {}

    def generate(self) -> None:
        files = [domain.files[0] for domain in self.suite()]
        self.fields = [
            (f.name, f.generator(field_rng(self.seed, f.name), f.grid_at(self.SCALE)))
            for f in files
        ]

    @property
    def nbytes(self) -> int:
        return sum(x.nbytes for _, x in self.fields)

    def setup_trial(self) -> float:
        t = _probe("--codec", self.codec, "--executor", self.kwargs["executor"],
                   "--workers", str(self.kwargs["workers"]))
        return t["import_s"] + t["warmup_s"]

    def start(self) -> None:
        sample = self.fields[0][1].ravel()[:65_536]
        repro.decompress(repro.compress(sample, self.codec, **self.kwargs), **self.kwargs)

    def _round_trip(self, run: Run, i: int, latencies: list[float]) -> float:
        """Compress and decompress field ``i``; returns the seconds in calls."""
        name, x = self.fields[i]
        t0 = time.perf_counter()
        try:
            blob = repro.compress(x, self.codec, **self.kwargs)
        except Exception as exc:  # a failed operation is a result, not a crash
            run.record(False, f"{name} compress: {_failure(exc)}")
            return time.perf_counter() - t0
        t1 = time.perf_counter()
        reference = self.reference.setdefault(i, blob)
        run.record(blob == reference, f"{name}: container differs from the first pass")
        t2 = time.perf_counter()
        try:
            out = repro.decompress(blob, **self.kwargs)
        except Exception as exc:
            run.record(False, f"{name} decompress: {_failure(exc)}")
            return (t1 - t0) + (time.perf_counter() - t2)
        t3 = time.perf_counter()
        run.record(same_bits(out, x), f"{name}: decompressed array differs from the input")
        latencies += [t1 - t0, t3 - t2]
        return (t1 - t0) + (t3 - t2)

    def _pass(self, run: Run, latencies: list[float], tracer=None, tag="") -> float:
        busy = 0.0
        for i, (name, _) in enumerate(self.fields):
            with tracer.request(f"{tag}{name}") if tracer else nullcontext():
                busy += self._round_trip(run, i, latencies)
        return busy

    def measure(self, seconds: float) -> Run:
        run = Run()
        latencies: list[float] = []
        rates: list[float] = []
        end = time.perf_counter() + seconds
        while True:
            rates.append(2 * self.nbytes / self._pass(run, latencies) / MB)
            if time.perf_counter() >= end:
                break
        run.rates(rates, "one pass over every field")
        run.latencies(latencies, self.tail_pct)
        run.metrics["ratio"] = geomean(
            x.nbytes / len(self.reference[i]) for i, (_, x) in enumerate(self.fields)
            if i in self.reference
        )
        run.samples["ratio"] = len(self.reference)
        return run

    def traced(self, tracer) -> Run:
        run = Run()
        plain = traced = 0.0
        latencies: list[float] = []
        for k in range(self.TRACE_PASSES):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                if side:
                    with tracer.installed():
                        traced += self._pass(run, [], tracer, f"pass{k}/")
                else:
                    plain += self._pass(run, latencies)
        run.latencies(latencies, self.tail_pct)
        run.metrics["trace.overhead_frac"] = traced / plain - 1.0
        run.metrics["trace.coverage"] = tracer.total_self_s() / traced
        return run


class RangeRead(Workload):
    """Random slice reads from one seekable container, through
    ``decompress_range`` on bytes and a ``ContainerReader`` on the file."""

    name = "range-read"
    #: source field: 64 x the base grid of a Miranda field, 128**3 doubles
    SOURCE, SCALE = "Miranda/miranda_pressure", 64
    SMALL, LARGE = 512, 8192  # elements: 4 KiB and 64 KiB of float64
    SCHEDULE = 1 << 18
    BLOCK = 256  # reads per throughput sample
    TRACE_READS, TRACE_BLOCK = 2000, 100
    reader = None

    def generate(self) -> None:
        source = next(f for d in dp_suite() for f in d.files if f.name == self.SOURCE)
        self.field = source.generator(
            field_rng(self.seed, source.name), source.grid_at(self.SCALE)
        ).ravel()
        self.blob = repro.compress(self.field, "dpratio", fcm="restart")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.path = self.workdir / "range.fprz"
        self.path.write_bytes(self.blob)
        rng = np.random.default_rng([self.seed, 1])
        self.sizes = np.where(rng.random(self.SCHEDULE) < 0.75, self.SMALL, self.LARGE)
        self.starts = rng.integers(0, len(self.field) - self.sizes + 1)

    def setup_trial(self) -> float:
        t = _probe("--container", str(self.path))
        return t["import_s"] + t["open_s"] + t["warmup_s"]

    def start(self) -> None:
        self.reader = repro.ContainerReader(self.path)
        self.reader[0:self.SMALL]
        repro.decompress_range(self.blob, 0, self.SMALL)

    def _read(self, run: Run, k: int, latencies: list[float]) -> tuple[float, int]:
        """Read ``k`` of the schedule; even reads go through
        ``decompress_range``, odd ones through the reader."""
        j = k % self.SCHEDULE
        a = int(self.starts[j])
        b = a + int(self.sizes[j])
        t0 = time.perf_counter()
        try:
            if k % 2 == 0:
                out = repro.decompress_range(self.blob, a, b)
            else:
                out = self.reader[a:b]
        except Exception as exc:  # a failed operation is a result, not a crash
            run.record(False, f"read [{a}:{b}]: {_failure(exc)}")
            return time.perf_counter() - t0, 0
        dt = time.perf_counter() - t0
        run.record(same_bits(out, self.field[a:b]), f"read [{a}:{b}] differs from the source")
        latencies.append(dt)
        return dt, (b - a) * self.field.itemsize

    def measure(self, seconds: float) -> Run:
        run = Run()
        latencies: list[float] = []
        rates: list[float] = []
        busy = moved = 0
        k = 0
        end = time.perf_counter() + seconds
        while True:
            dt, n = self._read(run, k, latencies)
            busy += dt
            moved += n
            k += 1
            if k % self.BLOCK == 0:
                rates.append(moved / busy / MB)
                busy = moved = 0
            if time.perf_counter() >= end:
                break
        run.rates(rates or [moved / busy / MB], f"{self.BLOCK} reads")
        run.latencies(latencies, self.tail_pct)
        run.metrics["ratio"] = self.field.nbytes / len(self.blob)
        run.samples["ratio"] = 1
        return run

    def traced(self, tracer) -> Run:
        run = Run()
        plain = traced = 0.0
        latencies: list[float] = []
        for block in range(self.TRACE_READS // self.TRACE_BLOCK):
            reads = range(block * self.TRACE_BLOCK, (block + 1) * self.TRACE_BLOCK)
            for side in ((0, 1) if block % 2 == 0 else (1, 0)):
                if side:
                    with tracer.installed():
                        for k in reads:
                            with tracer.request(k):
                                traced += self._read(run, k, [])[0]
                else:
                    plain += sum(self._read(run, k, latencies)[0] for k in reads)
        run.latencies(latencies, self.tail_pct)
        run.metrics["trace.overhead_frac"] = traced / plain - 1.0
        run.metrics["trace.coverage"] = tracer.total_self_s() / traced
        return run

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None


class ServiceMix(Workload):
    """Compress and decompress requests to an ``fprz serve`` subprocess."""

    name = "service-mix"
    #: Open-loop offered rate: about 40% of the closed-loop capacity
    #: measured at seed 0 on 2 vCPUs, rounded to 50 requests/s.
    OFFERED_RPS = 450
    CONNECTIONS = 2
    #: share of the run spent in the open-loop phase; the rest is closed loop
    OPEN_SHARE = 0.6
    #: The two phases alternate this many times, so that each samples the
    #: whole run: capacity drifts by about 10% over a few seconds here.
    ROUNDS = 5
    POOL = 256
    FILES_PER_DOMAIN = 3
    SCHEDULE = 1 << 18
    WINDOW_S = 0.5  # closed-loop throughput sample
    TRACE_REQUESTS = 1000
    MIN_ELEMENTS, MAX_ELEMENTS = 1024, 16384  # float32: 4 KiB .. 64 KiB

    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self.procs: list[subprocess.Popen] = []
        #: peak RSS (MB) of every server that has exited, by pid
        self.rss_mb: dict[int, float] = {}
        self.server = None
        self.clients: list = []

    def generate(self) -> None:
        # 21 source fields (3 per domain), so one seed's pool compresses
        # within about 1% of another's.
        sources = [
            f.generator(field_rng(self.seed, f.name), f.grid_at(1.0)).ravel()
            for domain in sp_suite() for f in domain.files[:self.FILES_PER_DOMAIN]
        ]
        rng = np.random.default_rng([self.seed, 2])
        lo, hi = math.log(self.MIN_ELEMENTS), math.log(self.MAX_ELEMENTS)
        # Every seed gets the same sizes (the pool's log-uniform quantiles)
        # and the same number of slices per source field; the seed picks
        # which slice of which field each size is cut from.
        owners = rng.permutation(np.arange(self.POOL) % len(sources))
        self.entries = []
        for i in range(self.POOL):
            src = sources[int(owners[i])]
            n = int(round(math.exp(lo + (i + 0.5) / self.POOL * (hi - lo))))
            a = int(rng.integers(0, len(src) - n + 1))
            arr = np.ascontiguousarray(src[a:a + n])
            self.entries.append((arr, repro.compress(arr)))
        self.pick = rng.integers(0, self.POOL, size=self.SCHEDULE)
        self.is_compress = rng.random(self.SCHEDULE) < 0.5
        self.workdir.mkdir(parents=True, exist_ok=True)

    # -- the server process ----------------------------------------------

    def _spawn(self) -> tuple[subprocess.Popen, int, float]:
        """Start a server; returns it, its port, and seconds until it
        announced, answered PING negotiation and one warm-up round trip."""
        log = open(self.workdir / f"server-{len(self.procs)}.log", "w")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log, text=True,
        )
        log.close()
        self.procs.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else ""
        match = re.search(r"listening on \S+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"fprz serve did not announce a port (got {line!r})")
        port = int(match.group(1))
        arr, blob = self.entries[0]
        with repro.connect(port=port, timeout=30.0) as client:
            client.negotiate()
            client.decompress(client.compress(arr))
        return proc, port, time.perf_counter() - start

    def _stop(self, proc: subprocess.Popen) -> float:
        """SIGTERM-drain a server (idempotent); returns its peak RSS in MB."""
        if proc.pid not in self.rss_mb:
            proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30.0
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            self.rss_mb[proc.pid] = usage.ru_maxrss * 1024 / MB
        return self.rss_mb[proc.pid]

    def setup_trial(self) -> float:
        proc, _, seconds = self._spawn()
        self._stop(proc)
        return seconds

    def start(self) -> None:
        self.server, port, _ = self._spawn()
        self.port = port
        self.clients = [repro.connect(port=port, timeout=30.0)
                        for _ in range(self.CONNECTIONS)]

    # -- requests ----------------------------------------------------------

    def _entry(self, rid: int):
        j = rid % self.SCHEDULE
        return self.entries[int(self.pick[j])], bool(self.is_compress[j])

    def _send(self, conn: int, rid: int):
        (arr, blob), compress = self._entry(rid)
        client = self.clients[conn]
        return client.compress(arr) if compress else client.decompress(blob)

    def _check(self, rid: int, response) -> bool:
        (arr, blob), compress = self._entry(rid)
        return response == blob if compress else same_bits(response, arr)

    def _open_loop(self, run: Run, send, seed: int, **limit) -> list:
        outcomes = loadgen.run_open_loop(
            send, self._check, n_conn=self.CONNECTIONS, rate=self.OFFERED_RPS,
            seed=seed, **limit,
        )
        for o in outcomes:
            run.record(o.ok, o.error)
        return outcomes

    def measure(self, seconds: float) -> Run:
        run = Run()
        latencies: list[float] = []
        rates: list[float] = []
        served = span = 0.0
        for r in range(self.ROUNDS):
            opened = self._open_loop(run, self._send, self.seed * self.ROUNDS + r,
                                     duration=seconds * self.OPEN_SHARE / self.ROUNDS)
            latencies += [o.latency for o in opened if o.ok]
            closed = loadgen.run_closed_loop(
                self._send, self._check, n_conn=self.CONNECTIONS,
                duration=seconds * (1.0 - self.OPEN_SHARE) / self.ROUNDS,
            )
            for o in closed:
                run.record(o.ok, o.error)
            rates += self._window_rates(closed)
            served += sum(o.ok for o in closed)
            span += max(o.done for o in closed) - min(o.sent for o in closed)
        run.latencies(latencies, self.tail_pct)
        run.rates(rates, f"{self.WINDOW_S} s of the closed loop")
        run.info["capacity_rps"] = served / span
        run.metrics["ratio"] = geomean(arr.nbytes / len(blob) for arr, blob in self.entries)
        run.samples["ratio"] = len(self.entries)
        return run

    def _window_rates(self, outcomes) -> list[float]:
        """Uncompressed MB/s answered in each whole window of the phase."""
        start = min(o.sent for o in outcomes)
        end = max(o.done for o in outcomes)
        width = min(self.WINDOW_S, end - start)
        moved: dict[int, int] = defaultdict(int)
        for o in outcomes:
            if o.ok:
                moved[int((o.done - start) // width)] += self._entry(o.rid)[0][0].nbytes
        return [moved[w] / width / MB for w in range(int((end - start) // width))]

    def traced(self, tracer) -> Run:
        run = Run()
        plain = self._open_loop(run, self._send, self.seed, count=self.TRACE_REQUESTS)
        before = self.clients[0].stats()["metrics"]["counters"]
        cpu_before = _cpu_seconds(self.server.pid)

        def send(conn, rid):
            with tracer.request(rid):
                return self._send(conn, rid)

        with tracer.installed():
            traced = self._open_loop(run, send, self.seed, count=self.TRACE_REQUESTS)
        cpu = _cpu_seconds(self.server.pid) - cpu_before
        after = self.clients[0].stats()["metrics"]["counters"]
        ok = [o for o in traced if o.ok]
        engine = []
        for o in ok:
            (arr, blob), compress = self._entry(o.rid)
            t0 = time.perf_counter()
            if compress:
                repro.compress(arr)
            else:
                repro.decompress(blob)
            engine.append(time.perf_counter() - t0)
        overhead = [(o.done - o.sent) - e for o, e in zip(ok, engine)]
        delta = {k: _counter(after, k) - _counter(before, k) for k in (
            "busy_rejections_total", "protocol_errors_total", "bytes_in_total", "bytes_out_total")}
        run.latencies([o.latency for o in plain if o.ok], self.tail_pct)
        p50 = stats.median
        run.metrics.update({
            "service.engine_p50_ms": 1000.0 * p50(engine),
            "service.overhead_p50_ms": 1000.0 * p50(overhead),
            "service.server_cpu_ms_per_req": 1000.0 * cpu / len(traced),
            "service.busy_rejections": delta["busy_rejections_total"],
            "service.protocol_errors": delta["protocol_errors_total"],
            "service.bytes_in": delta["bytes_in_total"],
            "service.bytes_out": delta["bytes_out_total"],
            "loadgen.late_p99_ms": 1000.0 * stats.percentile([o.late for o in traced], 99),
            "trace.overhead_frac": (p50([o.latency for o in ok])
                                    / p50([o.latency for o in plain if o.ok]) - 1.0),
            "trace.coverage": tracer.total_self_s() / sum(o.done - o.sent for o in traced),
        })
        return run

    def peak_rss_mb(self) -> float:
        """The server's peak RSS, read when it exits after a SIGTERM drain."""
        for client in self.clients:
            client.close()
        self.clients = []
        return self._stop(self.server)

    def provenance(self) -> dict:
        return {"offered_rps": self.OFFERED_RPS}

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        for proc in self.procs:
            self._stop(proc)


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a running process (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _counter(counters: dict, name: str) -> float:
    """Sum of one STATS counter over its label sets (request opcodes only
    for the byte counters, so the STATS calls themselves are left out)."""
    total = 0.0
    for key, value in counters.items():
        base, _, labels = key.partition("{")
        if base != name:
            continue
        if name.startswith("bytes_") and not re.search(r"opcode=(de)?compress\b", labels):
            continue
        total += value
    return total


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "bulk-sp":
        return Bulk(seed, workdir, name=name, suite=sp_suite, codec="spratio",
                    executor="serial", workers=1)
    if name == "bulk-dp":
        return Bulk(seed, workdir, name=name, suite=dp_suite, codec="dpratio",
                    executor="threaded", workers=2)
    if name == "range-read":
        return RangeRead(seed, workdir)
    if name == "service-mix":
        return ServiceMix(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
