"""Backend x executor interplay: byte identity under every combination.

The kernel backend is a process-wide dispatch decision and the executors
run chunk jobs on worker threads — this suite pins the contract that the
two compose: any (backend, policy, workers) combination emits the exact
container bytes the serial numpy reference emits.

The practical payoff of that composition is documented in EXECUTION.md:
numba kernels run ``nogil``, so under the ``threaded`` policy the JIT
backend actually scales with workers where pure-numpy dispatch spends
part of each chunk holding the GIL.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bitpack import backend as B
from tests.bitpack.test_backend import ALT_BACKENDS, _ensure_pure_backend

_ensure_pure_backend()

POLICIES = ("serial", "threaded")


def _dataset(dtype):
    rng = np.random.default_rng(0x5EED)
    walk = np.cumsum(rng.normal(size=9001)).astype(dtype)
    walk[::71] = 0.0
    return walk


@pytest.mark.parametrize("backend", ["numpy", *ALT_BACKENDS])
@pytest.mark.parametrize("policy", POLICIES)
def test_policy_backend_byte_identity(backend, policy):
    arr = _dataset(np.float32)
    expect = repro.compress(arr, "spratio")  # serial, numpy, 1 worker
    with B.use_backend(backend):
        blob = repro.compress(arr, "spratio", workers=4, executor=policy)
    assert blob == expect
    assert np.array_equal(repro.decompress(blob), arr)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_decode_under_alt_backend_of_numpy_container(backend):
    # Cross-backend archive exchange: bytes written under one backend
    # must decode under any other.
    arr = _dataset(np.float64)
    blob = repro.compress(arr, "dpratio")
    with B.use_backend(backend):
        assert np.array_equal(repro.decompress(blob), arr)
        reblob = repro.compress(arr, "dpratio", workers=2, executor="threaded")
    assert reblob == blob


def test_pin_is_visible_from_worker_threads():
    # The pin is process-wide module state; worker threads must observe
    # the same resolution the main thread set.  Spy on dispatch (the
    # wrapper modules alias this exact module object, so swapping
    # ``B.kernel`` intercepts every call site) and record which backend
    # each kernel call resolved against while threaded workers ran.
    real_kernel = B.kernel
    seen_names = set()

    def spying_kernel(name):
        seen_names.add(B.active_backend().name)
        return real_kernel(name)

    arr = _dataset(np.float32)
    with B.use_backend("numpy"):
        expect = repro.compress(arr, "spratio")
        try:
            B.kernel = spying_kernel
            blob = repro.compress(arr, "spratio", workers=3, executor="threaded")
        finally:
            B.kernel = real_kernel
    assert blob == expect
    assert seen_names == {"numpy"}
