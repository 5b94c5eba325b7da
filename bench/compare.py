"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py A/ B/

``A`` (the parent) and ``B`` (the change) are directories of result files
written by ``bench/run.py --out``.  Traced results are skipped.  Runs are
paired in seed order; for each end-to-end metric of ``BENCHMARK.json``
on each workload the table shows both sides' median and quartiles, the
share of pairs ``B`` wins (ties count for neither side), and a verdict:

* ``unresolved`` — ``A``'s own spread (interquartile distance over the
  median) is wider than the metric's bound, and ``B`` does not beat
  every run of ``A`` with every one of its runs;
* ``regressed`` — ``B``'s median is worse than ``A``'s by more than the
  bound;
* ``improved`` — ``B`` wins at least nine tenths of the pairs and the
  medians differ by more than ``A``'s interquartile distance (or ``A``
  is too spread out to resolve, but every ``B`` run beats every ``A``
  run);
* ``within bound`` — anything else.

Exits 1 if any metric regressed, and 2 without a verdict if the result
sets were measured in different environments or are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __package__ in (None, ""):
    # Run as a script: import the benchmark as package ``bench`` (so that
    # ``bench/trace.py`` cannot shadow the standard library's ``trace``).
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path.insert(0, str(HERE.parent))

from bench import stats  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"

#: Provenance fields that must match between the two sets.
ENVIRONMENT = ("nproc", "python", "numpy", "kernel_backend", "offered_rps", "seconds")


class NotComparable(Exception):
    """The two result sets cannot be compared."""


def load(directory: Path) -> list[dict]:
    """Every untraced result file in ``directory``."""
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if not result["provenance"]["trace"]:
            results.append(result)
    return results


def environment(results: list[dict]) -> dict:
    """The one environment every result of a workload shares."""
    seen = {}
    for r in results:
        p = r["provenance"]
        env = tuple(p.get(k) for k in ENVIRONMENT)
        previous = seen.setdefault(p["workload"], env)
        if previous != env:
            raise NotComparable(f"{p['workload']}: runs within one set differ: "
                                f"{_describe(previous)} vs {_describe(env)}")
    return seen


def _describe(env: tuple) -> str:
    return ", ".join(f"{k}={v}" for k, v in zip(ENVIRONMENT, env))


def verdict(a: list[float], b: list[float], better: str, bound: float,
            win_frac: float) -> str:
    """The comparison rule applied to one metric on one workload."""
    a_q1, a_med, a_q3 = stats.quartiles(a)
    b_med = stats.median(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b_med - a_med) / a_med
    beats_all = min(sign * x for x in b) > max(sign * x for x in a)
    if (a_q3 - a_q1) / a_med > bound:
        return "improved" if beats_all else "unresolved"
    if gain < -bound:
        return "regressed"
    if win_frac >= 0.9 and gain > 0 and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved"
    return "within bound"


def compare(a_results: list[dict], b_results: list[dict], spec: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric) both sets measured."""
    if not a_results or not b_results:
        raise NotComparable("a result set is empty")
    a_env, b_env = environment(a_results), environment(b_results)
    rows = []
    for workload in sorted(set(a_env) & set(b_env)):
        if a_env[workload] != b_env[workload]:
            raise NotComparable(f"{workload}: environments differ: "
                                f"{_describe(a_env[workload])} vs {_describe(b_env[workload])}")
        a_runs = _side(a_results, workload)
        b_runs = _side(b_results, workload)
        for metric in spec:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            pairs = list(zip(a, b))
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            win_frac = wins / len(pairs)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "bound": metric["bound"], "a": stats.quartiles(a), "b": stats.quartiles(b),
                "n": (len(a), len(b)), "win_frac": win_frac,
                "verdict": verdict(a, b, metric["better"], metric["bound"], win_frac),
            })
    if not rows:
        raise NotComparable("the two sets share no workload")
    return rows


def _side(results: list[dict], workload: str) -> list[dict]:
    runs = [r for r in results if r["provenance"]["workload"] == workload]
    return sorted(runs, key=lambda r: r["provenance"]["seed"])


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<12} {'metric':<16} {'A median [q1, q3]':>30} "
             f"{'B median [q1, q3]':>30} {'wins':>5} {'bound':>6}  verdict"]
    for r in rows:
        def side(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        lines.append(
            f"{r['workload']:<12} {r['metric']:<16} {side(r['a']):>30} {side(r['b']):>30} "
            f"{r['win_frac']:>5.2f} {r['bound']:>6.2f}  {r['verdict']}"
            f"  (n={r['n'][0]}/{r['n'][1]}, {r['unit']})"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("a", type=Path, help="results of the parent")
    parser.add_argument("b", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    try:
        rows = compare(load(args.a), load(args.b), spec)
    except NotComparable as exc:
        print(f"error: not comparable: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
