"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, whose load
changes the speed of pure-Python code by 10-35% from one half-minute to the
next. Every run therefore times this loop in the benchmark process before
each CLI command, for about half as long as the commands have taken so far,
and divides its times by the loop's mean, so that the time metrics read as
seconds on a host where the loop takes ``NOMINAL_S``. Over a run the program
and the loop see the same slow and fast stretches of the host.

The loop does the kind of work the pipeline does (regex tokenising, counting,
small numpy vector means and dot products, sorting, float formatting and
parsing) on fixed data, and imports nothing from ``explainrank``: a change to
the program never changes it.
"""

from __future__ import annotations

import random
import re
import time
from collections import Counter

import numpy as np

# about the median slice on a 2-vCPU 2.1 GHz Xeon VM (Python 3.11, numpy 2)
NOMINAL_S = 0.23
_TEXTS = 7500
# seconds of reference loop per second of program time: the loop's slices
# vary about half as much per second as the commands do, so this share
# balances the two sources of noise in their ratio
SHARE = 0.5
_TOKEN_RE = re.compile(r"[a-z0-9]+")


class HostClock:
    """Times slices of the reference loop; ``factor`` is mean slice / NOMINAL_S."""

    def __init__(self) -> None:
        rng = random.Random(0)
        words = [
            "".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(3, 8)))
            for _ in range(3000)
        ]
        self.texts = [" ".join(rng.choices(words, k=rng.randint(6, 14))) for _ in range(_TEXTS)]
        self.vectors = {w: np.array([rng.gauss(0.0, 1.0) for _ in range(50)]) for w in words}
        self.slices: list[float] = []
        self.program_s = 0.0  # the caller adds each command's seconds

    def tick(self) -> None:
        """Run one slice of the loop and record its seconds."""
        started = time.perf_counter()
        df: Counter[str] = Counter()
        rows = []
        for text in self.texts:
            tokens = _TOKEN_RE.findall(text.lower())
            df.update(set(tokens))
            rows.append(np.mean([self.vectors[t] for t in tokens], axis=0))
        anchor = rows[0]
        scored = sorted(
            (-float(np.dot(anchor, row)) / (float(np.linalg.norm(row)) + 1.0), i)
            for i, row in enumerate(rows)
        )
        # the scores interchange: written with repr, read back with float
        lines = [f"q\t{i}\t{score!r}\n" for score, i in scored]
        sum(float(line.split("\t")[2]) for line in lines)
        self.slices.append(time.perf_counter() - started)

    def keep_up(self) -> None:
        """Tick once, then until the loop has run ``SHARE`` of ``program_s``."""
        self.tick()
        while sum(self.slices) < SHARE * self.program_s:
            self.tick()

    def factor(self) -> float:
        """How much slower than nominal the host ran over the slices so far."""
        return sum(self.slices) / len(self.slices) / NOMINAL_S
