"""Benchmark harness regenerating the paper's evaluation (Figures 8-19).

* :mod:`repro.harness.runner` — runs every compressor of a figure's
  comparison set over the corpus, aggregates geo-mean-of-geo-mean ratios,
  attaches modeled throughputs.
* :mod:`repro.harness.figures` — the twelve figure configurations.
* :mod:`repro.harness.report` — text tables with Pareto annotation and
  the EXPERIMENTS.md writer.
"""

from repro.harness.figures import FIGURES, FigureSpec
from repro.harness.runner import (
    FigureResult,
    MeasuredRow,
    ResultRow,
    measure_executors,
    run_figure,
    run_suite,
)
from repro.harness.report import format_figure, format_measured, render_experiments

__all__ = [
    "FIGURES",
    "FigureResult",
    "FigureSpec",
    "MeasuredRow",
    "ResultRow",
    "format_figure",
    "format_measured",
    "measure_executors",
    "render_experiments",
    "run_figure",
    "run_suite",
]
