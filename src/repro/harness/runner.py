"""Run comparison sets over the corpus and aggregate results.

Ratios come from the real implementations over the synthetic corpus,
aggregated as geometric means per domain and a geometric mean of those
(paper §4).  Ratios depend only on (compressor, dtype, scale), never on
the device, so they are computed once and cached; throughputs come from
the device model per machine.

:func:`measure_executors` is the *measured* complement: it times this
reproduction's own engine under each executor policy (serial / threaded
worklist) and reports per-policy throughput rows, so the recorded
numbers always say which executor produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

import repro
from repro.baselines import BaselineCompressor, competitors_for
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.core.executors import SCHEDULING_POLICIES
from repro.datasets import dp_suite, sp_suite
from repro.device import Device
from repro.device.model import modeled_throughput
from repro.metrics import geomean
from repro.metrics.timing import measure_throughput

#: Default corpus scale for harness runs (fraction of the base file size).
DEFAULT_SCALE = 0.25


class _OurCodec(BaselineCompressor):
    """Adapter exposing a paper codec through the baseline interface."""

    _DISPLAY = {"spspeed": "SPspeed", "spratio": "SPratio",
                "dpspeed": "DPspeed", "dpratio": "DPratio"}

    def __init__(self, codec_name: str) -> None:
        self.codec_name = codec_name
        self.name = self._DISPLAY[repro.get_codec(codec_name).name]
        self.device = "CPU+GPU"

    def compress(self, data: bytes) -> bytes:
        return repro.compress(data, self.codec_name)

    def decompress(self, blob: bytes) -> bytes:
        return repro.decompress(blob)


def our_codecs_for(dtype: np.dtype) -> list[BaselineCompressor]:
    if np.dtype(dtype) == np.float32:
        return [_OurCodec("spspeed"), _OurCodec("spratio")]
    return [_OurCodec("dpspeed"), _OurCodec("dpratio")]


@dataclass(frozen=True)
class ResultRow:
    """One compressor's aggregate position in one figure."""

    name: str
    ratio: float
    throughput: float
    on_front: bool
    ours: bool


@dataclass(frozen=True)
class FigureResult:
    figure_id: str
    title: str
    device_name: str
    dtype_name: str
    direction: str
    rows: tuple[ResultRow, ...]

    def front_names(self) -> list[str]:
        return [r.name for r in self.rows if r.on_front]

    def row(self, name: str) -> ResultRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


@lru_cache(maxsize=16)
def _suite_ratios(dtype_name: str, device_kind: str, scale: float) -> dict[str, float]:
    """Geo-of-geo ratio per compressor name (cached; device independent)."""
    dtype = np.dtype(dtype_name)
    domains = sp_suite() if dtype == np.float32 else dp_suite()
    compressors = our_codecs_for(dtype) + competitors_for(dtype, device_kind)
    per_domain: dict[str, list[float]] = {c.name: [] for c in compressors}
    for domain in domains:
        per_file: dict[str, list[float]] = {c.name: [] for c in compressors}
        for file in domain.files:
            array = file.load(scale)
            data = array.tobytes()
            for comp in compressors:
                comp.set_dimensions(array.shape)
                blob = comp.compress(data)
                if comp.decompress(blob) != data:
                    raise AssertionError(
                        f"{comp.name} failed to round-trip {file.name}"
                    )
                per_file[comp.name].append(len(data) / len(blob))
        for name, ratios in per_file.items():
            per_domain[name].append(geomean(ratios))
    # per_domain holds per-domain geometric means; the aggregate is their
    # geometric mean — the paper's geo-mean-of-geo-means.
    return {name: geomean(groups) for name, groups in per_domain.items()}


def run_suite(
    dtype: np.dtype, device: Device, direction: str, *, scale: float = DEFAULT_SCALE
) -> list[ResultRow]:
    """Aggregate rows (ratio + modeled throughput) for one figure."""
    from repro.metrics.pareto import ParetoPoint, pareto_front

    ratios = _suite_ratios(np.dtype(dtype).name, device.kind, scale)
    our_names = {c.name for c in our_codecs_for(dtype)}
    dtype_name = np.dtype(dtype).name
    points = {
        name: ParetoPoint(
            name, modeled_throughput(name, device, direction, dtype_name), ratio
        )
        for name, ratio in ratios.items()
    }
    front = {p.name for p in pareto_front(list(points.values()))}
    rows = [
        ResultRow(
            name=name,
            ratio=point.ratio,
            throughput=point.throughput,
            on_front=name in front,
            ours=name in our_names,
        )
        for name, point in points.items()
    ]
    rows.sort(key=lambda r: -r.throughput)
    return rows


@dataclass(frozen=True)
class MeasuredRow:
    """One (codec, executor policy) pair's measured performance."""

    codec: str
    policy: str
    workers: int
    #: compression throughput in bytes/second (median of ``runs``).
    throughput: float
    decompress_throughput: float
    ratio: float


def measure_executors(
    data: bytes,
    codec_name: str,
    *,
    policies: tuple[str, ...] = SCHEDULING_POLICIES,
    workers: int = 4,
    runs: int = 3,
) -> list[MeasuredRow]:
    """Time the real engine under each executor policy on ``data``.

    Every row records the executor policy and worker count that produced
    it — measured numbers are never reported without their execution
    configuration.  The compressed output is byte-identical across rows
    (asserted here, cheaply, since it is the engine's core invariant).
    """
    codec = repro.get_codec(codec_name)
    rows = []
    reference: bytes | None = None
    for policy in policies:
        n_workers = 1 if policy == "serial" else workers
        blob = compress_bytes(data, codec, workers=n_workers, executor=policy)
        if reference is None:
            reference = blob
        elif blob != reference:
            raise AssertionError(
                f"executor {policy!r} produced different bytes than "
                f"{policies[0]!r} for codec {codec_name!r}"
            )
        compress_bps = measure_throughput(
            lambda: compress_bytes(data, codec, workers=n_workers,
                                   executor=policy),
            len(data), runs=runs,
        )
        decompress_bps = measure_throughput(
            lambda: decompress_bytes(blob, workers=n_workers, executor=policy),
            len(data), runs=runs,
        )
        rows.append(MeasuredRow(
            codec=codec.name,
            policy=policy,
            workers=n_workers,
            throughput=compress_bps,
            decompress_throughput=decompress_bps,
            ratio=len(data) / len(blob) if len(blob) else 0.0,
        ))
    return rows


def run_figure(figure_id: str, *, scale: float = DEFAULT_SCALE) -> FigureResult:
    """Regenerate one of the paper's figures by id ('fig08' ... 'fig19')."""
    from repro.harness.figures import FIGURES

    spec = FIGURES[figure_id]
    rows = run_suite(spec.dtype, spec.device, spec.direction, scale=scale)
    return FigureResult(
        figure_id=figure_id,
        title=spec.title,
        device_name=spec.device.name,
        dtype_name=np.dtype(spec.dtype).name,
        direction=spec.direction,
        rows=tuple(rows),
    )
