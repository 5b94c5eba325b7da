"""One set-up trial in a fresh interpreter; prints its phase times as JSON.

The benchmark runs this once per trial, with ``src`` on ``PYTHONPATH``::

    python3 bench/setup_probe.py --codec spratio --executor serial --workers 1
    python3 bench/setup_probe.py --container range.fprz

It times ``import repro`` and one warm-up call: a compress/decompress
round trip with the workload's codec and executor or, given
``--container``, the ``ContainerReader`` open plus one range read
through the reader and one through ``decompress_range``.  Interpreter
start-up is not counted.
"""

import time

_T0 = time.perf_counter()
import repro  # noqa: E402  (the import is what is being timed)

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--codec", default=None)
    parser.add_argument("--executor", default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--container", default=None)
    args = parser.parse_args()
    times = {"import_s": _IMPORT_S, "open_s": 0.0}
    if args.container:
        start = time.perf_counter()
        reader = repro.ContainerReader(args.container)
        times["open_s"] = time.perf_counter() - start
        start = time.perf_counter()
        reader[0:512]
        with open(args.container, "rb") as f:
            repro.decompress_range(f.read(), 0, 512)
        times["warmup_s"] = time.perf_counter() - start
        reader.close()
    else:
        dtype = np.float64 if args.codec.startswith("dp") else np.float32
        field = np.cumsum(np.random.default_rng(0).normal(size=65_536)).astype(dtype)
        start = time.perf_counter()
        blob = repro.compress(field, args.codec, executor=args.executor, workers=args.workers)
        repro.decompress(blob, executor=args.executor, workers=args.workers)
        times["warmup_s"] = time.perf_counter() - start
    print(json.dumps(times))


if __name__ == "__main__":
    main()
