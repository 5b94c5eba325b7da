"""Run the repository benchmark.

    python3 bench/run.py --workload bulk-sp --seed 0 --seconds 20 --trace 0

runs one workload (``all``, the default, runs the four in turn), checks
every output, prints each metric by name with its unit, and ends with one
JSON line per workload::

    {"correct": true, "attempted": 1064, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` (or a bare ``--trace``) they are the
per-layer ones from a separate, fixed-size traced run, whose spans are
written to ``bench/out/trace-<workload>-<seed>.json``.  ``--out DIR``
also writes the full result, with its provenance, to ``DIR`` for
``bench/compare.py``.

The package is imported from the checkout's ``src`` directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: timed seconds per run; equals ``run_seconds`` in BENCHMARK.json
DEFAULT_SECONDS = 25
#: the workloads, in the order ``--workload all`` runs them
WORKLOADS = ("bulk-sp", "bulk-dp", "range-read", "service-mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"timed seconds per run (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write the full result file to")
    return parser.parse_args(argv)


def _use_checkout_imports() -> None:
    """Import ``repro`` from ``src`` and the benchmark as package ``bench``.

    The script's own directory leaves ``sys.path`` so that
    ``bench/trace.py`` cannot shadow the standard library's ``trace``.
    """
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(SRC), str(ROOT)]


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, name: str, workload, gen_s: float) -> dict:
    import numpy

    try:
        from repro.bitpack.backend import active_backend

        backend = active_backend().name
    except (ImportError, AttributeError):
        backend = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "commit": git_commit(),
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "offered_rps": None,
        "gen_s": gen_s,
        **workload.provenance(),
    }


def run_workload(name: str, args) -> dict:
    from bench import stats, workloads
    from bench import trace as tracing

    workdir = OUT / f"tmp-{os.getpid()}-{name}"
    workload = workloads.make(name, args.seed, workdir)
    absent: list[str] = []
    try:
        start = time.perf_counter()
        workload.generate()
        gen_s = time.perf_counter() - start
        if args.trace:
            workload.start()
            tracer = tracing.Tracer()
            run = workload.traced(tracer)
            values, absent = tracer.layer_metrics(run.metrics)
            table = [(n, unit) for n, unit, _better, _layer in tracing.PER_LAYER]
            tracer.write(OUT / f"trace-{name}-{args.seed}.json",
                         {"workload": name, "seed": args.seed})
        else:
            setup = [workload.setup_trial() for _ in range(workloads.SETUP_TRIALS)]
            workloads.reset_peak_rss()
            workload.start()
            run = workload.measure(args.seconds)
            run.metrics["setup_s"] = stats.median(setup)
            run.samples["setup_s"] = len(setup)
            run.metrics["peak_rss_MB"] = workload.peak_rss_mb()
            run.samples["peak_rss_MB"] = 1
            values = run.metrics
            table = list(workloads.END_TO_END)
        record = provenance(args, name, workload, gen_s)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": float(values[n]), "unit": unit} for n, unit in table},
        "details": {n: v for n, v in run.metrics.items() if n not in dict(table)},
        "samples": run.samples,
        "info": run.info,
        "errors": run.errors,
        "absent": absent,
        "provenance": record,
    }


def report(result: dict) -> None:
    p = result["provenance"]
    mode = "traced run, per-layer metrics" if p["trace"] else f"{p['seconds']:g} s timed"
    print(f"== {p['workload']} seed {p['seed']}: {mode}; "
          f"inputs generated in {p['gen_s']:.2f} s (gen_s)")
    for name, metric in result["metrics"].items():
        note = f"n={result['samples'][name]}" if name in result["samples"] else ""
        if name == "op_tail_ms":
            note += f", p{result['info']['op_tail_percentile']:g}"
        if name in result["absent"]:
            note = "absent"
        print(f"   {name:<34} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"   attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_frac {frac:g})")
    for error in result["errors"]:
        print(f"   error: {error}")


def write_result(result: dict, out: Path) -> Path:
    p = result["provenance"]
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{p['workload']}-{p['seed']}{'-trace' if p['trace'] else ''}"
    n = 0
    while (out / f"{stem}-{n}.json").exists():
        n += 1
    path = out / f"{stem}-{n}.json"
    path.write_text(json.dumps(result, indent=1))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing from {SRC}; "
              f"run the benchmark from a full checkout", file=sys.stderr)
        return 2
    _use_checkout_imports()
    # SIGTERM unwinds like an exception, so every server and child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result = run_workload(name, args)
        report(result)
        if args.out is not None:
            print(f"   result written to {write_result(result, args.out)}")
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}),
              flush=True)
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
