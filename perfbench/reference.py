"""Reference work, timed beside the ops of the benchmark.

The host this benchmark was built on is shared, and its speed drifts by up
to 2x over minutes, longer than any run can average over.  The gated
end-to-end metrics therefore divide op latency by the latency of reference
work of the same kind, timed right after each op (or each ``cli_short``
round): drift slows both alike, and no change to lightclock can move the
reference, because it uses only numpy and the standard library.

Run as a child, the reference also pays for interpreter start-up and fresh
memory, as a CLI op does:

    python3 perfbench/reference.py decay SAMPLES WORKERS SEED
    python3 perfbench/reference.py start
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

# Key salt of the second ensemble, so that it never shares the first's stream.
SECOND_KEY = 0x5A5A5A5A


def floor(samples: int, seed: int, workers: int = 1) -> float:
    """Philox fill, in-place log1p and mean: the least any estimator can do.

    With ``workers`` > 1 the fill is split over that many threads, as the
    decay engine splits it.
    """
    u = np.empty(samples)
    bounds = [i * samples // workers for i in range(workers + 1)]

    def fill(i):
        gen = np.random.Generator(np.random.Philox(key=seed + i))
        gen.random(out=u[bounds[i]:bounds[i + 1]])

    if workers == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(workers)))
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return -float(u.mean())


def decay(samples: int, workers: int, seed: int) -> float:
    """Two ensembles of ``samples``, as one ``compare_frames`` call draws them."""
    return floor(samples, seed, workers) + floor(samples, seed ^ SECOND_KEY, workers)


def series(v: Fraction, d: Fraction, c: Fraction, order: int) -> Fraction:
    """Truncated product of two dense exact series in v/c and d/c.

    The same kind of ``Fraction`` work as an exact certification at ``order``.
    """
    x = [(v / c) ** k for k in range(order + 1)]
    y = [(1 + d / c) ** -k for k in range(order + 1)]
    return sum(x[i] * y[j] for i in range(order + 1) for j in range(order + 1 - i))


def main(argv: list[str]) -> int:
    if argv[:1] == ["decay"] and len(argv) == 4:
        samples, workers, seed = (int(a) for a in argv[1:])
        print(json.dumps({"mean": decay(samples, workers, seed)}))
    elif argv == ["start"]:
        import click  # noqa: F401  (the CLI's own start-up imports)

        print(json.dumps({"numpy": np.__version__}))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
