"""Pluggable kernel backends for the frozen-contract bitpack kernel set.

The hot loops of every codec are a small set of kernels with frozen wire
contracts (golden sha256 corpora pin their output byte for byte):

===========================  ====================================================
kernel                       contract
===========================  ====================================================
``pack_lanes``               low ``width`` bits of each word, MSB-first, padded
``unpack_lanes``             exact inverse over a validated byte stream
``count_leading_zeros``      per-element clz, ``clz(0) == word_bits``
``leading_common_bits``      clz of ``word ^ previous`` (chunk-leading ``initial``)
``bit_transpose``            8x8 masked-swap bit-matrix transpose (BIT stage)
``bit_untranspose``          exact inverse
``choose_k_rows``            per-row leading-bit histogram, modelled-cost argmin
===========================  ====================================================

A *backend* is one implementation set for (a subset of) those kernels.
This module is the registry that resolves which implementation a call
site gets:

* ``numpy`` — the reference word-lane kernels (always available, always
  registered, and the byte-identity oracle every other backend is tested
  against);
* ``numba`` — fused nopython/nogil JIT loops
  (:mod:`repro.bitpack._numba_kernels`), **auto-selected when numba is
  importable**: the loops collapse the multi-pass numpy pipelines into
  single passes and release the GIL, so the ``threaded`` executor policy
  scales where numpy dispatch serialized it.

Resolution order per call: an explicit :func:`set_backend` /
:func:`use_backend` choice, else the ``FPRZ_KERNEL_BACKEND`` environment
variable, else auto (highest-priority available backend).  A backend
that implements only part of the kernel set transparently falls back to
the numpy reference for the rest, so partial backends still produce
complete — and identical — wire bytes.

Adding a backend: implement any subset of :data:`KERNEL_NAMES` with the
exact numpy-reference semantics, then call :func:`register_backend`.
The parity suite (``tests/bitpack/test_backend.py``) automatically runs
every registered backend against the reference: a property sweep over
widths 1–64, both word sizes, and degenerate geometries, plus golden
sha256 corpus replay.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ReproError

#: Environment variable consulted when no backend was set explicitly.
BACKEND_ENV_VAR = "FPRZ_KERNEL_BACKEND"

#: The frozen-contract kernel set a backend may implement (any subset).
KERNEL_NAMES = (
    "pack_lanes",
    "unpack_lanes",
    "count_leading_zeros",
    "leading_common_bits",
    "bit_transpose",
    "bit_untranspose",
    "choose_k_rows",
)


@dataclass(frozen=True)
class KernelBackend:
    """One named implementation set of the bitpack kernel contract.

    ``kernels`` maps :data:`KERNEL_NAMES` entries to callables with the
    reference signatures; missing entries resolve to the numpy
    reference.  ``priority`` orders auto-selection (highest available
    wins); backends with ``auto=False`` are never auto-selected and must
    be requested by name.
    """

    name: str
    kernels: Mapping[str, Callable]
    version: str | None = None
    #: True for JIT/GPU backends.
    accelerated: bool = False
    priority: int = 0
    auto: bool = True
    #: Fully-resolved kernel table (gaps filled with numpy), built on
    #: registration.  Call sites read this dict directly.
    resolved: dict = field(default_factory=dict, compare=False)

    def describe(self) -> str:
        ver = f" {self.version}" if self.version else ""
        native = sum(1 for k in KERNEL_NAMES if k in self.kernels)
        return f"{self.name}{ver} ({native}/{len(KERNEL_NAMES)} native kernels)"


_lock = threading.Lock()
_registry: dict[str, KernelBackend] = {}
_explicit: str | None = None
#: The resolved active backend; ``None`` forces re-resolution.
_active: KernelBackend | None = None


def _numpy_kernels() -> dict:
    # Function-level imports: the leaf modules (lanes, clz, transpose,
    # _adaptive) never import this module, but the public wrapper
    # modules (packing, clz, transpose) do — so the reference table is
    # built lazily to keep import order trivial.
    from repro.bitpack import clz as _clz
    from repro.bitpack import lanes as _lanes
    from repro.bitpack import transpose as _transpose
    from repro.stages import _adaptive as _adapt

    return {
        "pack_lanes": _lanes.pack_lanes,
        "unpack_lanes": _lanes.unpack_lanes,
        "count_leading_zeros": _clz._count_leading_zeros_numpy,
        "leading_common_bits": _clz._leading_common_bits_numpy,
        "bit_transpose": _transpose._bit_transpose_numpy,
        "bit_untranspose": _transpose._bit_untranspose_numpy,
        "choose_k_rows": _adapt._choose_k_rows_numpy,
    }


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register (or replace) a backend and return it.

    Unknown kernel names are rejected — a typo would otherwise silently
    fall back to numpy and void the backend's point.
    """
    unknown = set(backend.kernels) - set(KERNEL_NAMES)
    if unknown:
        raise ReproError(
            f"backend {backend.name!r} implements unknown kernels: "
            f"{', '.join(sorted(unknown))}"
        )
    resolved = dict(_numpy_kernels())
    resolved.update(backend.kernels)
    backend.resolved.clear()
    backend.resolved.update(resolved)
    global _active
    with _lock:
        _registry[backend.name] = backend
        _active = None
    return backend


def _ensure_builtin_backends() -> None:
    if "numpy" in _registry:
        return
    import numpy as np

    register_backend(KernelBackend(
        name="numpy", kernels=_numpy_kernels(), version=np.__version__,
        accelerated=False, priority=0,
    ))
    from repro.bitpack import _numba_kernels

    if _numba_kernels.HAVE_NUMBA:
        register_backend(_numba_kernels.make_backend())


def available_backends() -> tuple[str, ...]:
    """Registered backend names, auto-resolution order first."""
    _ensure_builtin_backends()
    with _lock:
        backends = sorted(
            _registry.values(), key=lambda b: (-b.priority, b.name)
        )
    return tuple(b.name for b in backends)


def get_backend(name: str) -> KernelBackend:
    """Look up one registered backend by name."""
    _ensure_builtin_backends()
    with _lock:
        backend = _registry.get(name)
    if backend is None:
        raise ReproError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())} "
            f"(numba registers only when importable)"
        )
    return backend


def _resolve() -> KernelBackend:
    _ensure_builtin_backends()
    name = _explicit or os.environ.get(BACKEND_ENV_VAR) or None
    if name:
        return get_backend(name)
    with _lock:
        candidates = [b for b in _registry.values() if b.auto]
        candidates.sort(key=lambda b: (-b.priority, b.name))
        return candidates[0]


def active_backend() -> KernelBackend:
    """The backend the next kernel call will use."""
    global _active
    backend = _active
    if backend is None:
        backend = _active = _resolve()
    return backend


def kernel(name: str) -> Callable:
    """Resolve one kernel against the active backend (numpy fills gaps)."""
    return active_backend().resolved[name]


def set_backend(name: str | None) -> str | None:
    """Pin the process-wide backend; ``None`` restores auto-resolution.

    Returns the previously pinned name (``None`` if resolution was
    automatic) so callers can restore it.
    """
    global _explicit, _active
    if name is not None:
        get_backend(name)  # validate before switching
    with _lock:
        previous = _explicit
        _explicit = name
        _active = None
    return previous


@contextmanager
def use_backend(name: str | None):
    """Context manager: pin a backend, restore the previous pin on exit.

    Process-wide (kernel dispatch is a module-level decision), so tests
    that use it must not run concurrent compressions expecting different
    backends.
    """
    previous = set_backend(name)
    try:
        yield active_backend()
    finally:
        set_backend(previous)
