"""Bit-level substrate used by every compression stage.

This subpackage contains the vectorised primitives the paper's data
transformations are built from:

* :mod:`repro.bitpack.zigzag` — two's-complement <-> magnitude-sign maps,
  the representation change inside DIFFMS and the enhanced MPLG stage.
* :mod:`repro.bitpack.clz` — count-leading-zeros and leading-common-bits,
  used by MPLG, RAZE, and RARE.
* :mod:`repro.bitpack.packing` — fixed-width MSB-first bit packing of word
  arrays, the payload encoding of MPLG/RAZE/RARE.
* :mod:`repro.bitpack.lanes` — the word-lane shift/OR kernels behind
  ``packing`` (chained-value lanes, strided window tables); byte-identical
  to the historical bit-matrix implementation, which the test suite keeps
  as a reference.
* :mod:`repro.bitpack.transpose` — bit transposition (the BIT stage).
* :mod:`repro.bitpack.bytes_util` — byte views, byte shuffles, safe casts.
* :mod:`repro.bitpack.backend` — the kernel backend registry: the hot
  kernels above dispatch through it, so accelerated implementations
  (numba JIT) can be swapped in per process without touching call
  sites.  Every backend must be byte-identical to the numpy reference.

All functions operate on numpy arrays and are pure (no in-place mutation
of caller data).
"""

from repro.bitpack.backend import (
    KernelBackend,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.bitpack.bytes_util import (
    byte_shuffle,
    byte_unshuffle,
    words_from_bytes,
    words_to_bytes,
)
from repro.bitpack.clz import count_leading_zeros, leading_common_bits
from repro.bitpack.packing import pack_words, unpack_words, packed_size_bytes
from repro.bitpack.transpose import (
    bit_transpose,
    bit_transpose_batch,
    bit_untranspose,
    bit_untranspose_batch,
)
from repro.bitpack.zigzag import zigzag_decode, zigzag_encode

__all__ = [
    "KernelBackend",
    "active_backend",
    "available_backends",
    "bit_transpose",
    "bit_transpose_batch",
    "bit_untranspose",
    "bit_untranspose_batch",
    "byte_shuffle",
    "byte_unshuffle",
    "count_leading_zeros",
    "get_backend",
    "leading_common_bits",
    "pack_words",
    "packed_size_bytes",
    "register_backend",
    "set_backend",
    "unpack_words",
    "use_backend",
    "words_from_bytes",
    "words_to_bytes",
    "zigzag_decode",
    "zigzag_encode",
]
