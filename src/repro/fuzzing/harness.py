"""The fault-injection harness: decode must survive anything.

``run_fuzz`` builds a small corpus of valid containers (every paper
codec in v1, v2, and v3-with-chunk-index framing, a raw-fallback
container, and v4 mixed-codec containers carrying a per-chunk codec
table), then runs ``iterations`` seeded mutations through both decode
paths, checking the robustness invariants the container format
promises:

1. **Typed failure or success, never a crash** — ``decompress`` on a
   mutant either returns, or raises a :class:`~repro.errors.ReproError`
   subclass.  Any other exception is a harness failure, recorded with a
   traceback summary.
2. **No over-allocation** — when a mutant's header still parses, every
   declared length obeys the documented bomb guards
   (:data:`~repro.core.container.MAX_DECLARED_EXPANSION`,
   :data:`~repro.core.container.MAX_CHUNK_SIZE`), so no allocation is
   ever sized beyond them.
3. **Salvage containment** — for same-length mutants that only touch
   payload bytes of a chunk-CRC container, ``errors="salvage"`` must
   succeed and every output byte outside the report's damaged ranges
   must be bit-exact against the original data.
4. **Index consistency** — mutants from the ``index-*`` mutators (a v3
   chunk index contradicting the size table, or index entries aliasing
   the same payload bytes) must be *rejected*: the stored index is
   redundant by design, and a decode that accepts a contradictory one
   is reading payload windows from attacker-chosen offsets.
5. **Codec-table consistency** — mutants from the ``codec-table-*``
   mutators (an unknown codec id in a v4 per-chunk table, a deleted
   table byte, a flipped ``FLAG_CHUNK_CODECS`` bit) must be rejected at
   parse time: the table routes payloads to decode pipelines, so an
   accepted lie routes bytes through the wrong codec.

Everything is derived from ``(seed, iteration)`` via
``np.random.default_rng([seed, iteration])``, so any failure replays in
isolation with :func:`replay`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE, iter_chunks
from repro.core.codecs import CODECS, MIXED, get_codec
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.errors import ReproError, traceback_summary
from repro.fuzzing.mutators import (
    CODEC_TABLE_MUST_REJECT,
    CONTAINER_MUST_REJECT,
    FLAG_MUST_REJECT,
    MUTATORS,
    mutate,
)


@dataclass(frozen=True)
class FuzzCase:
    """One valid container the mutators start from."""

    label: str
    codec: str
    data: bytes
    blob: bytes
    payload_offset: int
    has_chunk_crcs: bool
    has_index: bool = False
    has_codec_table: bool = False


@dataclass(frozen=True)
class FuzzFailure:
    """One violated invariant, replayable from (seed, iteration)."""

    iteration: int
    case: str
    mutator: str
    kind: str  # "crash" | "over-allocation" | "salvage-crash" | ...
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"iteration {self.iteration} [{self.case} x {self.mutator}] "
            f"{self.kind}: {self.detail}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    seed: int
    iterations: int
    outcomes: Counter = field(default_factory=Counter)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} iterations={self.iterations} "
            f"failures={len(self.failures)}"
        ]
        for kind in sorted(self.outcomes):
            lines.append(f"  {kind}: {self.outcomes[kind]}")
        lines.extend(f"  FAIL {failure}" for failure in self.failures)
        return "\n".join(lines)


def _smooth(rng: np.random.Generator, dtype: np.dtype, n_bytes: int) -> bytes:
    n = n_bytes // dtype.itemsize
    walk = np.cumsum(rng.normal(0.0, 0.01, size=n)) + 1.0
    return np.ascontiguousarray(walk.astype(dtype)).tobytes()


def build_corpus(seed: int, *, codecs=None, size: int = 72_000) -> list[FuzzCase]:
    """Valid containers to mutate: each codec in v1, v2, and v3 framing.

    ``size`` (~4.5 default chunks) keeps several chunks per container so
    table splices and salvage containment have structure to work on.
    The v1/v2 cases pin the legacy framing explicitly with
    ``fcm="global"``; the v3 case is built with restart framing and
    :func:`~repro.core.container.concat_containers`, so it carries the
    explicit chunk index the ``index-*`` mutators target.
    """
    rng = np.random.default_rng([seed, 0xF0])
    names = sorted(codecs) if codecs else sorted(CODECS)
    cases: list[FuzzCase] = []

    def record(label: str, codec_name: str, data: bytes, blob: bytes) -> None:
        info = fmt.inspect_container(blob)
        cases.append(FuzzCase(
            label=label, codec=codec_name, data=data, blob=blob,
            payload_offset=info.payload_offset,
            has_chunk_crcs=info.chunk_crcs is not None,
            has_index=info.index_offsets is not None,
            has_codec_table=info.chunk_codecs is not None,
        ))

    def add(label: str, codec_name: str, data: bytes, **kwargs) -> None:
        record(label, codec_name, data,
               compress_bytes(data, get_codec(codec_name), **kwargs))

    for name in names:
        codec = get_codec(name)
        data = _smooth(rng, codec.dtype, size)
        add(f"{name}-v2", name, data, checksum=True, chunk_checksums=True,
            fcm="global")
        add(f"{name}-v1", name, data, checksum=False, chunk_checksums=False,
            fcm="global")
        # v3 with an explicit chunk index, via zero-re-encode concat of
        # two independently compressed halves (restart framing).
        half = len(data) // 2
        record(f"{name}-v3", name, data, fmt.concat_containers([
            compress_bytes(data[:half], codec, chunk_checksums=True,
                           fcm="restart"),
            compress_bytes(data[half:], codec, chunk_checksums=True,
                           fcm="restart"),
        ]))
    # Raw fallback: random bytes defeat every stage.
    add("raw-fallback", names[0], rng.bytes(size // 4),
        checksum=True, chunk_checksums=True)
    # v4 mixed-codec containers, for the codec-table mutators: a concat
    # of differently-encoded halves (sp and, restart-framed, dp), and a
    # table naming one codec for every chunk — the shape the retired
    # adaptive codec wrote (raw-byte dtype, header id 5), which old
    # files still carry.
    if {"spspeed", "spratio"} <= set(names):
        data = _smooth(rng, get_codec("spspeed").dtype, size)
        half = len(data) // 2
        record("mixed-sp-v4", "spspeed", data, fmt.concat_containers([
            compress_bytes(data[:half], get_codec("spspeed"),
                           chunk_checksums=True),
            compress_bytes(data[half:], get_codec("spratio"),
                           chunk_checksums=True),
        ]))
        spratio = get_codec("spratio")
        pipeline = spratio.make_pipeline()
        payloads = [pipeline.encode_chunk(c) for c in iter_chunks(data)]
        record("uniform-v4", "spratio", data, fmt.build_container(
            codec_id=MIXED.codec_id, dtype_code=fmt.DTYPE_BYTES,
            original_len=len(data), intermediate_len=len(data),
            chunk_size=CHUNK_SIZE, chunk_payloads=payloads,
            checksum=fmt.checksum_of(data), chunk_crcs=True,
            chunk_codecs=[spratio.codec_id] * len(payloads),
        ))
    if {"dpspeed", "dpratio"} <= set(names):
        data = _smooth(rng, get_codec("dpspeed").dtype, size)
        half = len(data) // 2
        record("mixed-dp-v4", "dpspeed", data, fmt.concat_containers([
            compress_bytes(data[:half], get_codec("dpspeed"),
                           chunk_checksums=True),
            compress_bytes(data[half:], get_codec("dpratio"),
                           chunk_checksums=True, fcm="restart"),
        ]))
    return cases


def _changed_spans(original: bytes, mutant: bytes) -> np.ndarray | None:
    """Indices of changed bytes, or None when lengths differ."""
    if len(original) != len(mutant):
        return None
    a = np.frombuffer(original, dtype=np.uint8)
    b = np.frombuffer(mutant, dtype=np.uint8)
    return np.nonzero(a != b)[0]


def _undamaged_bytes_match(
    data: bytes, original: bytes, damaged_ranges
) -> bool:
    """True when every byte outside ``damaged_ranges`` is bit-exact."""
    if len(data) != len(original):
        return False
    got = np.frombuffer(data, dtype=np.uint8)
    want = np.frombuffer(original, dtype=np.uint8)
    trusted = np.ones(len(got), dtype=bool)
    for start, end in damaged_ranges:
        trusted[max(0, int(start)) : max(0, int(end))] = False
    return bool(np.array_equal(got[trusted], want[trusted]))


def _check_declared_bounds(mutant: bytes) -> str | None:
    """Re-assert the bomb guards on a parseable mutant header."""
    try:
        info = fmt.inspect_container(mutant)
    except ReproError:
        return None  # rejected before any allocation: fine
    limit = max(len(mutant), 64) * fmt.MAX_DECLARED_EXPANSION
    if info.original_len > limit or info.intermediate_len > limit:
        return (
            f"accepted header declares {info.original_len}/"
            f"{info.intermediate_len} bytes from a {len(mutant)}-byte blob"
        )
    if info.chunk_size > fmt.MAX_CHUNK_SIZE:
        return f"accepted chunk_size {info.chunk_size}"
    return None


def run_fuzz(
    seed: int = 0,
    iterations: int = 500,
    *,
    codecs=None,
    mutators=None,
    on_progress=None,
    batched: bool = True,
) -> FuzzReport:
    """Run the harness; returns a :class:`FuzzReport` (ok == no failures).

    ``batched`` routes every mutant through the engine's batched decode
    path (``batch=True``), so the 2D stage kernels face the same hostile
    inputs the per-chunk path does; ``batched=False`` pins the serial
    per-chunk path instead.
    """
    cases = build_corpus(seed, codecs=codecs)
    mutator_names = sorted(mutators) if mutators else sorted(MUTATORS)
    report = FuzzReport(seed=seed, iterations=iterations)
    for iteration in range(iterations):
        rng = np.random.default_rng([seed, iteration])
        case = cases[int(rng.integers(0, len(cases)))]
        mutator = mutator_names[int(rng.integers(0, len(mutator_names)))]
        mutant = mutate(case.blob, mutator, rng)
        outcome = _probe(case, mutator, mutant, iteration, report,
                         batched=batched)
        report.outcomes[outcome] += 1
        if on_progress is not None:
            on_progress(iteration + 1, iterations)
    return report


def replay(seed: int, iteration: int, *, codecs=None, mutators=None):
    """Rebuild the exact (case, mutator, mutant) of one failing iteration."""
    cases = build_corpus(seed, codecs=codecs)
    mutator_names = sorted(mutators) if mutators else sorted(MUTATORS)
    rng = np.random.default_rng([seed, iteration])
    case = cases[int(rng.integers(0, len(cases)))]
    mutator = mutator_names[int(rng.integers(0, len(mutator_names)))]
    return case, mutator, mutate(case.blob, mutator, rng)


def _probe(
    case: FuzzCase,
    mutator: str,
    mutant: bytes,
    iteration: int,
    report: FuzzReport,
    *,
    batched: bool = True,
) -> str:
    def fail(kind: str, detail: str) -> None:
        report.failures.append(FuzzFailure(
            iteration=iteration, case=case.label, mutator=mutator,
            kind=kind, detail=detail,
        ))

    # Invariant 2: the bomb guards hold on whatever still parses.
    bound_violation = _check_declared_bounds(mutant)
    if bound_violation is not None:
        fail("over-allocation", bound_violation)

    # Invariant 1: strict decode returns or raises ReproError, nothing else.
    outcome = "rejected"
    try:
        data, _ = decompress_bytes(mutant, batch=batched)
        outcome = "decoded-intact" if data == case.data else "decoded-differs"
    except ReproError:
        pass
    except MemoryError as exc:
        fail("over-allocation", traceback_summary(exc))
        outcome = "crashed"
    except BaseException as exc:
        fail("crash", traceback_summary(exc))
        outcome = "crashed"

    # Invariants 4 and 5: a contradictory chunk index or codec table
    # must never decode.
    must_reject = (
        (mutator in CONTAINER_MUST_REJECT and case.has_index)
        or (mutator in CODEC_TABLE_MUST_REJECT and case.has_codec_table)
        or mutator in FLAG_MUST_REJECT
    )
    if must_reject and mutant != case.blob and outcome.startswith("decoded"):
        fail("must-reject",
             f"{mutator} mutant decoded instead of being rejected")

    # Invariant 3: salvage never crashes; payload-only damage to a
    # chunk-CRC container is contained to the reported ranges.
    changed = _changed_spans(case.blob, mutant)
    payload_only = (
        changed is not None
        and case.has_chunk_crcs
        and (len(changed) == 0 or int(changed.min()) >= case.payload_offset)
    )
    try:
        data, _, salvage = decompress_bytes(
            mutant, errors="salvage", batch=batched
        )
    except ReproError as exc:
        if payload_only:
            fail("salvage-rejected",
                 f"payload-only damage refused: {traceback_summary(exc)}")
        return outcome
    except BaseException as exc:
        fail("salvage-crash", traceback_summary(exc))
        return outcome
    if len(data) != len(case.data) and _changed_spans(case.blob, mutant) is not None:
        # Same-length mutant kept the original header geometry, so the
        # salvage output must honour the declared original length.
        fail("salvage-length",
             f"salvaged {len(data)} bytes from a header declaring {len(case.data)}")
    if payload_only and not _undamaged_bytes_match(
        data, case.data, salvage.damaged_ranges
    ):
        fail("salvage-mismatch",
             f"bytes outside {salvage.damaged_ranges} differ from the original")
    return outcome
