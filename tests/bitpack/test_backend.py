"""Kernel backend registry + cross-backend byte-identity parity suite.

Every registered backend must produce *identical* results to the numpy
reference for every kernel in the frozen contract — same bytes, same
dtypes, same errors.  The suite runs against whatever is registered:

* locally (no numba installed) the numba loop bodies are exercised
  un-jitted — ``pure_python_kernels()`` registers them as the
  ``numba-py`` backend, so the exact code numba compiles is verified
  byte for byte even where numba itself is absent;
* in the CI ``backend-smoke`` job (numba installed) the compiled
  ``numba`` backend additionally replays the golden sha256 corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.bitpack import backend as B
from repro.bitpack import _numba_kernels
from repro.errors import ReproError
from tests.core.test_golden_format import GOLDEN_CORPUS_SHA256, _golden_corpus

PURE_NAME = "numba-py"


def _ensure_pure_backend():
    """Register the un-jitted numba loop bodies as a parity backend."""
    if PURE_NAME not in B.available_backends():
        B.register_backend(B.KernelBackend(
            name=PURE_NAME,
            kernels=_numba_kernels.pure_python_kernels(),
            version="pure-python",
            accelerated=False,
            priority=-1,
            auto=False,
        ))


_ensure_pure_backend()

#: Backends under parity test: everything registered except the
#: reference itself.
ALT_BACKENDS = [name for name in B.available_backends() if name != "numpy"]

#: Geometries that historically shake out off-by-ones: empty, single
#: value, single full word, just past word boundaries, ragged tails.
COUNTS = (0, 1, 2, 3, 7, 8, 9, 37, 64, 100)


def _ref():
    return B.get_backend("numpy").resolved


def _alt(name):
    return B.get_backend(name).resolved


def _words(rng, n, width, word_bits):
    dt = np.uint32 if word_bits == 32 else np.uint64
    w = rng.integers(0, 2**word_bits, n, dtype=np.uint64)
    if width < 64:
        w &= np.uint64((1 << width) - 1)
    return w.astype(dt)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("word_bits", [32, 64])
class TestPackParity:
    def test_pack_unpack_all_widths(self, backend, word_bits):
        ref, alt = _ref(), _alt(backend)
        rng = np.random.default_rng(0xBACC + word_bits)
        for width in range(1, word_bits + 1):
            for n in COUNTS:
                w = _words(rng, n, width, word_bits)
                expect = ref["pack_lanes"](w, width, word_bits)
                got = alt["pack_lanes"](w, width, word_bits)
                assert got == expect, f"pack width={width} n={n}"
                raw = np.frombuffer(expect, dtype=np.uint8)
                u_ref = ref["unpack_lanes"](raw, n, width, word_bits)
                u_alt = alt["unpack_lanes"](raw, n, width, word_bits)
                assert u_alt.dtype == u_ref.dtype
                assert np.array_equal(u_alt, u_ref), f"unpack width={width} n={n}"

    def test_clz_and_common_bits(self, backend, word_bits):
        ref, alt = _ref(), _alt(backend)
        rng = np.random.default_rng(0xC12 + word_bits)
        for n in COUNTS:
            w = _words(rng, n, word_bits, word_bits)
            w[: n // 3] = 0  # clz(0) == word_bits corner
            for k in ("count_leading_zeros",):
                a, b = ref[k](w, word_bits), alt[k](w, word_bits)
                assert a.dtype == b.dtype and np.array_equal(a, b)
            for initial in (0, 5):
                a = ref["leading_common_bits"](w, word_bits, initial=initial)
                b = alt["leading_common_bits"](w, word_bits, initial=initial)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_clz_2d_grid(self, backend, word_bits):
        ref, alt = _ref(), _alt(backend)
        rng = np.random.default_rng(3)
        g = _words(rng, 4 * 25, word_bits, word_bits).reshape(4, 25)
        a = ref["count_leading_zeros"](g, word_bits)
        b = alt["count_leading_zeros"](g, word_bits)
        assert a.shape == b.shape == (4, 25) and np.array_equal(a, b)

    def test_clz_dtype_mismatch_raises(self, backend, word_bits):
        other = np.zeros(4, dtype=np.uint64 if word_bits == 32 else np.uint32)
        with pytest.raises(ValueError):
            _alt(backend)["count_leading_zeros"](other, word_bits)

    def test_transpose(self, backend, word_bits):
        ref, alt = _ref(), _alt(backend)
        rng = np.random.default_rng(0x717 + word_bits)
        for n in COUNTS:
            w = _words(rng, n, word_bits, word_bits)
            expect = ref["bit_transpose"](w, word_bits)
            assert alt["bit_transpose"](w, word_bits) == expect
            u_ref = ref["bit_untranspose"](expect, n, word_bits)
            u_alt = alt["bit_untranspose"](expect, n, word_bits)
            assert u_alt.dtype == u_ref.dtype and np.array_equal(u_alt, u_ref)

    def test_untranspose_short_buffer_raises(self, backend, word_bits):
        with pytest.raises(ValueError):
            _alt(backend)["bit_untranspose"](b"\x00", 100, word_bits)

    def test_adaptive_rows(self, backend, word_bits):
        ref, alt = _ref(), _alt(backend)
        rng = np.random.default_rng(0xADA + word_bits)
        # Ragged rows, empty ones included: one flat array plus row counts.
        counts = np.array([40, 0, 7, 40, 1, 0, 33], dtype=np.int64)
        flat = rng.integers(0, word_bits + 1, int(counts.sum())).astype(np.uint8)
        ka, ca = ref["choose_k_rows"](flat, counts, word_bits)
        kb, cb = alt["choose_k_rows"](flat, counts, word_bits)
        assert np.array_equal(ka, kb) and np.array_equal(ca, cb)
        assert ka[1] == ka[5] == 0 and ca[1] == ca[5] == 0
        # all-zero leading counts => split disabled everywhere
        zeros = np.zeros(48, dtype=np.uint8)
        ka, ca = ref["choose_k_rows"](zeros, np.full(3, 16), word_bits)
        kb, cb = alt["choose_k_rows"](zeros, np.full(3, 16), word_bits)
        assert np.array_equal(ka, kb) and np.array_equal(ca, cb)
        assert not ka.any()


@pytest.mark.parametrize("backend", ALT_BACKENDS)
class TestEndToEndParity:
    """Whole containers, encoded under each backend, must match numpy."""

    def test_small_corpus_byte_identical(self, backend):
        rng = np.random.default_rng(0xE2E)
        datasets = [
            ("walk32", np.cumsum(rng.normal(size=1500)).astype(np.float32)),
            ("walk64", np.cumsum(rng.normal(size=1100)).astype(np.float64)),
            ("mixed", np.where(rng.random(700) < 0.1, np.inf,
                               rng.normal(size=700)).astype(np.float32)),
        ]
        for label, arr in datasets:
            codecs = ("spspeed", "spratio") if arr.itemsize == 4 else ("dpspeed", "dpratio")
            for codec in codecs:
                with B.use_backend("numpy"):
                    expect = repro.compress(arr, codec)
                with B.use_backend(backend):
                    blob = repro.compress(arr, codec)
                    back = repro.decompress(expect)
                assert blob == expect, f"{label}/{codec} diverged under {backend}"
                assert np.array_equal(back, arr, equal_nan=True)


#: Real accelerated backends replay the full golden corpus; the pure
#: Python loops are exempt (same code, ~100x slower) — they get the
#: small corpus above instead.
REAL_BACKENDS = [
    name for name, have in (
        ("numba", _numba_kernels.HAVE_NUMBA),
    ) if have
]


@pytest.mark.parametrize("backend", REAL_BACKENDS or ["numba"])
class TestGoldenCorpusPerBackend:
    def test_golden_digests_match(self, backend):
        if backend not in REAL_BACKENDS:
            pytest.skip(f"{backend} not importable")
        seen = {}
        with B.use_backend(backend):
            for dtype, datasets in _golden_corpus():
                codecs = ("spspeed", "spratio") if dtype.itemsize == 4 else ("dpspeed", "dpratio")
                for label, arr in datasets:
                    for codec in codecs:
                        blob = repro.compress(arr, codec)
                        seen[f"{label}/{dtype.name}/{codec}"] = hashlib.sha256(blob).hexdigest()
        assert seen == GOLDEN_CORPUS_SHA256


class TestRegistry:
    def test_numpy_always_registered_and_default(self):
        assert "numpy" in B.available_backends()
        ref = B.get_backend("numpy")
        assert not ref.accelerated
        assert set(ref.resolved) == set(B.KERNEL_NAMES)

    def test_unknown_backend_raises(self):
        with pytest.raises(ReproError, match="unknown kernel backend"):
            B.get_backend("tpu")

    def test_register_rejects_unknown_kernel_names(self):
        with pytest.raises(ReproError, match="unknown kernels"):
            B.register_backend(B.KernelBackend(name="bad", kernels={"pack_lane": len}))

    def test_partial_backend_falls_back_to_numpy(self):
        pure = _numba_kernels.pure_python_kernels()
        bk = B.register_backend(B.KernelBackend(
            name="partial-test",
            kernels={"pack_lanes": pure["pack_lanes"]},
            auto=False,
        ))
        assert bk.resolved["pack_lanes"] is pure["pack_lanes"]
        ref = B.get_backend("numpy").resolved
        for name in B.KERNEL_NAMES:
            if name != "pack_lanes":
                assert bk.resolved[name] is ref[name]

    def test_set_backend_pins_and_restores(self):
        assert B.set_backend(PURE_NAME) is None
        try:
            assert B.active_backend().name == PURE_NAME
        finally:
            assert B.set_backend(None) == PURE_NAME
        assert B.active_backend().name != PURE_NAME

    def test_use_backend_context_restores_on_error(self):
        before = B.active_backend().name
        with pytest.raises(RuntimeError):
            with B.use_backend(PURE_NAME):
                assert B.active_backend().name == PURE_NAME
                raise RuntimeError("boom")
        assert B.active_backend().name == before

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(B.BACKEND_ENV_VAR, PURE_NAME)
        B.set_backend(None)  # drop the cached resolution
        try:
            assert B.active_backend().name == PURE_NAME
        finally:
            monkeypatch.delenv(B.BACKEND_ENV_VAR)
            B.set_backend(None)
        assert B.active_backend().name != PURE_NAME

    def test_explicit_pin_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(B.BACKEND_ENV_VAR, PURE_NAME)
        with B.use_backend("numpy"):
            assert B.active_backend().name == "numpy"

    def test_auto_false_backends_never_auto_selected(self):
        # numba-py has auto=False: with no pin and no env var the
        # resolver must not pick it even though it is registered.
        B.set_backend(None)
        assert B.active_backend().name != PURE_NAME
        assert B.active_backend().auto

    def test_describe_counts_native_kernels(self):
        assert "7/7 native kernels" in B.get_backend(PURE_NAME).describe()
        assert B.get_backend("numpy").describe().startswith("numpy")

    def test_numba_auto_selected_when_importable(self):
        if not _numba_kernels.HAVE_NUMBA:
            pytest.skip("numba not importable")
        B.set_backend(None)
        assert B.active_backend().name == "numba"
        assert B.active_backend().accelerated
