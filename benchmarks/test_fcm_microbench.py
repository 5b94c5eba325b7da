"""Microbenchmark of the FCM match finder vs the stable-argsort reference.

The packed-key value sort (``repro.stages.fcm._stable_hash_order``)
exists purely for speed: it must reproduce the stable argsort's
``(values, distances)`` exactly (``tests/stages/test_fcm.py`` checks
that differentially, the golden digests pin the wire bytes).  This
module keeps the speed claim honest: on one 4 MiB field of the DP
corpus the finder must beat the reference by >= 2x, timed in
interleaved pairs.

Run from the repository root (``PYTHONPATH=src python -m pytest
benchmarks/test_fcm_microbench.py``) so the reference imports from the
test suite.  Not part of tier-1 (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import numpy as np

from repro.datasets import dp_suite
from repro.stages import FCMStage
from repro.stages.fcm import MATCH_WINDOW, _context_hash
from test_kernel_microbench import _paired_speedup
from tests.stages.test_fcm import _reference_find_matches

MIN_SPEEDUP = 2.0
#: 16 x the corpus base grid: 512 Ki doubles, 4 MiB.
FIELD_SCALE = 16


def test_packed_sort_finder_beats_stable_argsort():
    file = dp_suite()[0].files[0]
    field = file.generator(np.random.default_rng(0), file.grid_at(FIELD_SCALE))
    words = np.ascontiguousarray(field, dtype=np.float64).view(np.uint64).ravel()
    assert words.nbytes == 4 << 20
    stage = FCMStage()
    values = np.empty_like(words)
    distances = np.empty_like(words)

    def packed():
        stage._find_matches(words, values, distances)

    def reference():
        return _reference_find_matches(words, MATCH_WINDOW, _context_hash)

    packed()
    ref_values, ref_distances = reference()
    assert np.array_equal(values, ref_values)
    assert np.array_equal(distances, ref_distances)
    speedup = _paired_speedup(packed, reference)
    print(f"\nFCM find_matches on {file.name}: packed-key sort x{speedup:.2f}")
    assert speedup >= MIN_SPEEDUP, f"packed-key finder only {speedup:.2f}x"

