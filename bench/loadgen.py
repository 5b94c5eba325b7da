"""Open- and closed-loop request drivers over a fixed set of connections.

Each connection is driven by its own thread and carries one request at a
time.  ``send(conn, rid)`` performs request ``rid`` on connection
``conn`` and returns the response; ``check(rid, response)`` says whether
the response is correct.  Any exception from ``send`` or ``check``
counts the request as failed.

In the open loop every connection follows its own seeded Poisson
schedule (together they form one Poisson stream at ``rate``).  A request
is timed from when it was due, not from when it was sent, so a stall
charges its wait to every request queued behind it; how late the
generator sent each request is recorded too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Outcome:
    """One request: when it was due (open loop), sent and answered."""

    rid: int
    conn: int
    due: float | None
    sent: float
    done: float
    ok: bool
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from due time (open loop) or send time (closed loop)."""
        return self.done - (self.sent if self.due is None else self.due)

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return 0.0 if self.due is None else self.sent - self.due


def _attempt(send, check, conn: int, rid: int, due, clock) -> Outcome:
    sent = clock()
    try:
        response = send(conn, rid)
    except Exception as exc:  # a refused or failed request is a result, not a crash
        return Outcome(rid, conn, due, sent, clock(), False, f"{type(exc).__name__}: {exc}")
    done = clock()
    try:
        ok = bool(check(rid, response))
    except Exception as exc:
        return Outcome(rid, conn, due, sent, done, False, f"{type(exc).__name__}: {exc}")
    return Outcome(rid, conn, due, sent, done, ok, None if ok else "wrong output")


def _split(count: int, n: int, conn: int) -> int:
    return count // n + (1 if conn < count % n else 0)


def poisson_offsets(rng: np.random.Generator, rate: float, *,
                    duration: float | None = None, count: int | None = None) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process at ``rate`` per second,
    ending before ``duration`` or after ``count`` arrivals."""
    if count is None:
        expected = int(rate * duration * 1.5) + 16
        times = np.cumsum(rng.exponential(1.0 / rate, size=expected))
        return [float(t) for t in times if t < duration]
    return [float(t) for t in np.cumsum(rng.exponential(1.0 / rate, size=count))]


def _run_threads(n_conn: int, body) -> list[Outcome]:
    results: list[list[Outcome]] = [[] for _ in range(n_conn)]
    threads = [
        threading.Thread(target=body, args=(c, results[c]), name=f"loadgen-{c}")
        for c in range(n_conn)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted((o for r in results for o in r), key=lambda o: o.rid)


def run_open_loop(send, check, *, n_conn: int, rate: float, seed: int,
                  duration: float | None = None, count: int | None = None,
                  clock=time.perf_counter, sleep=time.sleep) -> list[Outcome]:
    """Send on each connection's Poisson schedule; returns outcomes by rid."""
    schedules = [
        poisson_offsets(
            np.random.default_rng([seed, conn]), rate / n_conn, duration=duration,
            count=None if count is None else _split(count, n_conn, conn),
        )
        for conn in range(n_conn)
    ]
    start = clock()

    def body(conn: int, out: list[Outcome]) -> None:
        for k, offset in enumerate(schedules[conn]):
            due = start + offset
            delay = due - clock()
            if delay > 0:
                sleep(delay)
            out.append(_attempt(send, check, conn, k * n_conn + conn, due, clock))

    return _run_threads(n_conn, body)


def run_closed_loop(send, check, *, n_conn: int, duration: float | None = None,
                    count: int | None = None, clock=time.perf_counter) -> list[Outcome]:
    """Send back to back on every connection until ``duration`` or ``count``."""
    start = clock()

    def body(conn: int, out: list[Outcome]) -> None:
        limit = None if count is None else _split(count, n_conn, conn)
        k = 0
        while (limit is None or k < limit) and (duration is None or clock() - start < duration):
            out.append(_attempt(send, check, conn, k * n_conn + conn, None, clock))
            k += 1

    return _run_threads(n_conn, body)
