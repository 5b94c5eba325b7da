#!/usr/bin/env bash
# Paired timing guard: benchmark a parent commit and this checkout on
# one machine and fail if the change regressed.
#
#   bash scripts/bench_guard.sh <parent-sha>
#
# Runs bench/run.py (every workload, untraced, 2 s each) three times per
# side, alternating which side goes first, with the same seed within a
# pair.  Because both sides run on the same machine in turn, machine
# speed cancels and a fixed cross-machine baseline is not needed.  The
# runs are then compared with bench/compare.py's paired rule on two
# metrics: throughput_MBps with a bound of 0.60 (shared CI runners
# swing by +-40%; the guard catches collapses such as a fallback to a
# reference kernel, not small deltas) and ratio at its BENCHMARK.json
# bound.  Prints the comparison table; exits 1 on any `regressed` verdict.
set -euo pipefail

parent=${1:?usage: bash scripts/bench_guard.sh <parent-sha>}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The parent's committed tree, unpacked beside this checkout.
mkdir "$work/tree"
git -C "$root" archive "$parent" | tar -x -C "$work/tree"

bench() {  # bench <checkout> <side> <seed>; results go to $work/<side>
    local log="$work/$2-$3.log"
    echo "bench_guard: $2 seed $3" >&2
    if ! python3 "$1/bench/run.py" --seconds 2 --seed "$3" --out "$work/$2" >"$log" 2>&1; then
        cat "$log" >&2
        echo "bench_guard: the $2 benchmark run failed" >&2
        exit 1
    fi
}

for seed in 1 2 3; do
    if (( seed % 2 )); then
        bench "$work/tree" parent "$seed"
        bench "$root" change "$seed"
    else
        bench "$root" change "$seed"
        bench "$work/tree" parent "$seed"
    fi
done

PYTHONPATH="$root" python3 - "$work/parent" "$work/change" <<'EOF'
import json
import sys
from pathlib import Path

from bench import compare

spec = {m["name"]: m for m in json.loads(compare.BENCHMARK.read_text())["end_to_end"]}
gated = [dict(spec["throughput_MBps"], bound=0.60), spec["ratio"]]
try:
    rows = compare.compare(compare.load(Path(sys.argv[1])), compare.load(Path(sys.argv[2])), gated)
except compare.NotComparable as exc:
    sys.exit(f"bench_guard: not comparable: {exc}")
print(compare.render(rows))
sys.exit(1 if any(r["verdict"] == "regressed" for r in rows) else 0)
EOF
