"""The adaptive ``auto`` codec out-compresses every fixed codec.

No fixed codec suits both float widths, so over one file per corpus
domain (the seven SP and five DP domains, full 256 KiB files) ``auto``'s
combined geo-mean compression ratio must beat all four.  Compressed
sizes are deterministic, so this is exact, not a timing.
"""

from __future__ import annotations

import math

import repro
from repro.core.codecs import CODECS
from repro.datasets import dp_suite, sp_suite


def test_auto_beats_every_fixed_codec_on_the_corpus():
    arrays = [domain.files[0].load(1.0) for domain in (*sp_suite(), *dp_suite())]
    names = (*sorted(CODECS), "auto")
    geomean = {
        name: math.exp(sum(math.log(a.nbytes / len(repro.compress(a, name)))
                           for a in arrays) / len(arrays))
        for name in names
    }
    best_fixed = max(sorted(CODECS), key=geomean.get)
    assert geomean["auto"] > geomean[best_fixed], geomean
