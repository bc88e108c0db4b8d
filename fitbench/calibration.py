"""Host-speed calibration: timed results in reference seconds.

The host's cores are shared with other tenants.  The speed of the core
the benchmark runs on changes by up to 2x from one second to the next
(one vCPU can run at half the speed of the other, and the two swap), and
CPU time changes with wall time, so neither clock alone separates a
change in the program from a change in the host.

A *calibration pass* is a fixed piece of pure Python work shaped like
the middleware's counting loop (dict increments keyed by attribute,
value and class over integer tuples).  It lives here, not in the
program, so no change to the program moves it.  A :class:`Stopwatch`
runs a pass when it starts, every :data:`SAMPLE_INTERVAL_S` while it
runs (from a ``SIGALRM`` handler, so on the timed thread, between its
bytecodes) and when it stops.  Each stretch of the program's work
between two passes is scaled by

    REFERENCE_PASS_S / mean(time of the two passes)

into *reference seconds*: the time the stretch would take on a core
where one pass takes :data:`REFERENCE_PASS_S`.  The passes' own time is
left out of both the wall and the reference seconds.  Each pass runs
twice and only the second run is timed, because the program's work just
before evicts the pass's code and data from the caches.
"""

from __future__ import annotations

import random
import signal
import time
from typing import Any

#: Nominal seconds of one pass; only ratios between runs matter.
REFERENCE_PASS_S = 2e-4
#: Seconds between passes while a stopwatch runs.
SAMPLE_INTERVAL_S = 0.02

_rng = random.Random(20_000)
_ROWS = [tuple(_rng.randrange(4) for _ in range(13)) for _ in range(80)]


def calibration_pass() -> float:
    """Run one pass; returns its wall seconds."""
    started = time.perf_counter()
    counts: dict[tuple[int, int, int], int] = {}
    for row in _ROWS:
        label = row[-1]
        for attribute, value in enumerate(row[:-1]):
            key = (attribute, value, label)
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - started


class Stopwatch:
    """Times the ``with`` block in wall and in reference seconds.

    Must be used on the main thread (it owns ``SIGALRM`` while it
    runs).  After the block, :attr:`wall` and :attr:`reference` hold the
    block's seconds, the passes' own time left out.  With ``passes``
    false it runs no passes, so traced spans stay free of them, and
    measures only :attr:`wall`.
    """

    def __init__(self, passes: bool = True) -> None:
        self.passes = passes
        #: (start, end, timed seconds) of every pass.
        self.samples: list[tuple[float, float, float]] = []
        self.wall = 0.0
        self.reference = 0.0
        self._previous: Any = None
        self._busy = False

    def _sample(self) -> None:
        start = time.perf_counter()
        timed = 0.0
        if self.passes:
            calibration_pass()
            timed = calibration_pass()
        self.samples.append((start, time.perf_counter(), timed))

    def _on_alarm(self, _signum: int, _frame: Any) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def __enter__(self) -> "Stopwatch":
        self._sample()
        if self.passes:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self.passes:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        if self.passes:
            self.wall, self.reference = stretches(self.samples)
        else:
            self.wall = self.samples[1][0] - self.samples[0][1]


def stretches(samples: list[tuple[float, float, float]]
              ) -> tuple[float, float]:
    """(wall, reference) seconds of the work between consecutive passes."""
    wall = reference = 0.0
    for (_, end, before), (start, _, after) in zip(samples, samples[1:]):
        stretch = start - end
        wall += stretch
        reference += stretch * REFERENCE_PASS_S * 2 / (before + after)
    return wall, reference
