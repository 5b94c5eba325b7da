"""Codec definitions: SPspeed, SPratio, DPspeed, DPratio.

Figure 1 of the paper defines the four algorithms as stage chains:

* ``SPspeed``  (FP32, speed): DIFFMS -> MPLG
* ``SPratio``  (FP32, ratio): DIFFMS -> BIT -> RZE
* ``DPspeed``  (FP64, speed): DIFFMS -> MPLG
* ``DPratio``  (FP64, ratio): FCM (global) -> DIFFMS -> RAZE -> RARE

The "ratio" mode favours compression ratio, the "speed" mode favours
throughput; all four beat most prior work on both axes (paper §1).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import UnknownCodecError, UnsupportedDtypeError
from repro.core.pipeline import Pipeline
from repro.stages import RARE, RAZE, RZE, BitTranspose, DiffMS, FCMStage, MPLG, Stage


@dataclass(frozen=True)
class Codec:
    """A named compression algorithm: a chunk pipeline plus optional global stage."""

    name: str
    codec_id: int
    dtype: np.dtype
    word_bits: int
    mode: str  # "speed", "ratio", or "mixed" (the v4 header id)
    description: str
    stage_factory: Callable[[], list[Stage]] = field(repr=False)
    global_stage_factory: Callable[[], Stage] | None = field(default=None, repr=False)

    def make_pipeline(self, fcm_restart: bool = False) -> Pipeline:
        """The per-chunk stage chain.

        With ``fcm_restart=True`` the codec's global stage (FCM) is
        prepended to the chunk pipeline instead of running as a serial
        whole-input pass: the predictor re-seeds at every chunk boundary
        (container v3 restart markers), which makes every chunk
        independently decodable and lets DPratio run under any executor.
        """
        stages = self.stage_factory()
        if fcm_restart and self.global_stage_factory is not None:
            stages.insert(0, self.global_stage_factory())
        return Pipeline(stages)

    def make_global_stage(self) -> Stage | None:
        if self.global_stage_factory is None:
            return None
        return self.global_stage_factory()

    @property
    def stage_names(self) -> list[str]:
        names = [stage.name for stage in self.stage_factory()]
        if self.global_stage_factory is not None:
            names.insert(0, self.global_stage_factory().name)
        return names


SPSPEED = Codec(
    name="spspeed",
    codec_id=1,
    dtype=np.dtype(np.float32),
    word_bits=32,
    mode="speed",
    description="FP32 throughput mode: DIFFMS -> enhanced MPLG",
    stage_factory=lambda: [DiffMS(32), MPLG(32)],
)

SPRATIO = Codec(
    name="spratio",
    codec_id=2,
    dtype=np.dtype(np.float32),
    word_bits=32,
    mode="ratio",
    description="FP32 ratio mode: DIFFMS -> BIT -> RZE",
    stage_factory=lambda: [DiffMS(32), BitTranspose(32), RZE()],
)

DPSPEED = Codec(
    name="dpspeed",
    codec_id=3,
    dtype=np.dtype(np.float64),
    word_bits=64,
    mode="speed",
    description="FP64 throughput mode: DIFFMS -> enhanced MPLG",
    stage_factory=lambda: [DiffMS(64), MPLG(64)],
)

DPRATIO = Codec(
    name="dpratio",
    codec_id=4,
    dtype=np.dtype(np.float64),
    word_bits=64,
    mode="ratio",
    description="FP64 ratio mode: FCM (global) -> DIFFMS -> RAZE -> RARE",
    stage_factory=lambda: [DiffMS(64), RAZE(64), RARE(64)],
    global_stage_factory=FCMStage,
)

#: The header id of a mixed-codec (v4) container, whose per-chunk codec
#: table names the fixed codec behind every chunk.  It owns no stages and
#: encodes nothing, so it lives *outside* :data:`CODECS` (which enumerates
#: the paper's fixed pipelines): :func:`codec_by_id` answers it so old
#: and concatenated v4 files decode, :func:`get_codec` does not.
MIXED = Codec(
    name="mixed",
    codec_id=5,
    dtype=np.dtype(np.void),
    word_bits=0,
    mode="mixed",
    description="v4 header id: the per-chunk codec table names each chunk's codec",
    stage_factory=lambda: [],
)

CODECS: dict[str, Codec] = {
    codec.name: codec for codec in (SPSPEED, SPRATIO, DPSPEED, DPRATIO)
}

_BY_ID: dict[int, Codec] = {codec.codec_id: codec for codec in CODECS.values()}
_BY_ID[MIXED.codec_id] = MIXED


def get_codec(name: str) -> Codec:
    """Look a fixed codec up by name (case-insensitive)."""
    key = name.lower()
    if key not in CODECS:
        raise UnknownCodecError(
            f"unknown codec {name!r}; available: {', '.join(sorted(CODECS))}"
        )
    return CODECS[key]


def codec_by_id(codec_id: int) -> Codec:
    """Look a codec up by its container id (including the v4 header id)."""
    if codec_id not in _BY_ID:
        raise UnknownCodecError(f"unknown codec id {codec_id}")
    return _BY_ID[codec_id]


def fixed_codec_ids() -> frozenset[int]:
    """Registry ids legal in a v4 per-chunk codec table (fixed codecs only)."""
    return frozenset(_BY_ID) - {MIXED.codec_id}


def codec_for(dtype: np.dtype, mode: str = "ratio") -> Codec:
    """Pick the paper's codec for a dtype and mode ('speed' or 'ratio')."""
    if mode not in ("speed", "ratio"):
        raise UnknownCodecError(f"unknown mode {mode!r}; use 'speed' or 'ratio'")
    dtype = np.dtype(dtype)
    for codec in CODECS.values():
        if codec.dtype == dtype and codec.mode == mode:
            return codec
    raise UnsupportedDtypeError(
        f"no codec for dtype {dtype}; float32 and float64 are supported"
    )
