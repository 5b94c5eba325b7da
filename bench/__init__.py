"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run it with ``python3 bench/run.py --workload W --seed S``; see
``bench/README.md`` for the workloads, metrics and how to compare runs.
"""
