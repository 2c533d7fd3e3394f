"""How fast the host runs right now, measured with work the program
never does, so that timings can be given in reference-host seconds.

The benchmark's host is a shared virtual machine whose speed follows
other tenants' load: the same campaign runs up to twice as fast when they
are idle, and the host switches between such states within seconds.  A
timing divided by the host's *slowness* measured over the same interval
(its kernel time over the reference host's) no longer moves with them.

* :func:`slowness` times a few runs of a fixed loop.
* :func:`meter` picks how to measure it over a campaign, and keeps the
  time that took so the runner can take it out of the campaign's:

  - :class:`Probe` times a short run of the loop every
    :data:`PROBE_INTERVAL_S` while the campaign runs, from a ``SIGALRM``
    handler in the campaign's own thread.  It is used where the campaign
    runs in this process (``workers=1``).
  - :class:`Bracket` measures just before and just after the campaign.
    It is used with a worker pool, where a probe would compete with the
    workers for the CPUs it measures.

Nothing here calls the program, so no change to the program can move the
slowness it reports.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy

#: steps of the speed loop in one kernel run (about 25 ms on the
#: reference host) and in one probe (about 4 ms)
KERNEL_STEPS = 60_000
PROBE_STEPS = 8_000
#: kernel runs per slowness sample; their median is the sample
KERNEL_REPEATS = 3
#: seconds between probes while a campaign runs
PROBE_INTERVAL_S = 0.2
#: one loop step on the reference host: the 2-vCPU Xeon (Sapphire Rapids,
#: KVM) the benchmark was built on, in its usual state
REFERENCE_STEP_S = 0.45e-6
#: the numpy part of the start-of-run calibration kernel
CALIBRATION_SORT = 100_000

_SORT_INPUT = numpy.random.default_rng(0).random(CALIBRATION_SORT)


def loop_seconds(steps: int) -> float:
    """Seconds ``steps`` steps of a fixed pure-Python loop take (dict
    reads and writes and float arithmetic, like the program's own)."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(steps):
        key = i & 1023
        total += table.get(key, 0.0) * 0.5 + i / (key + 1.0)
        table[key] = total % 97.0
    return time.perf_counter() - start


def calibration_kernel() -> float:
    """Seconds of the start-of-run calibration kernel: the speed loop
    plus one numpy sort (recorded as a host fact, never gated on)."""
    start = time.perf_counter()
    loop_seconds(KERNEL_STEPS)
    numpy.sort(_SORT_INPUT)
    return time.perf_counter() - start


def slowness() -> float:
    """How much slower than the reference host this host runs right
    now: the median of a few kernel runs over the reference time."""
    seconds = statistics.median(loop_seconds(KERNEL_STEPS) for _ in range(KERNEL_REPEATS))
    return seconds / (KERNEL_STEPS * REFERENCE_STEP_S)


class Bracket:
    """``with Bracket() as meter:`` around a campaign; afterwards
    ``meter.slowness`` is the mean of the slowness just before and just
    after it, and ``meter.spent_s`` the time those two samples took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(slowness())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Bracket":
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        self._sample()

    @property
    def slowness(self) -> float:
        return statistics.fmean(self.samples)


class Probe(Bracket):
    """``with Probe() as meter:`` around a campaign that runs in this
    thread; afterwards ``meter.slowness`` is the median over the probes
    and ``meter.spent_s`` the time they took.  A campaign too short for
    three probes gets one :func:`slowness` sample at its end instead."""

    def __init__(self):
        super().__init__()
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(loop_seconds(PROBE_STEPS) / (PROBE_STEPS * REFERENCE_STEP_S))
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.samples) < 3:
            self.samples.clear()
            self._sample()

    @property
    def slowness(self) -> float:
        return statistics.median(self.samples)


def meter(workers: int) -> Bracket:
    """How to measure the slowness over a campaign run at ``workers``."""
    return Probe() if workers == 1 else Bracket()
