"""Host speed, sampled all through every measured child step.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
a third over minutes and by half from one second to the next, in CPU
time as much as in wall time. A ``Sampler`` therefore times a short,
fixed piece of benchmark-owned work (the probe) every ``INTERVAL_S`` of
wall time while a set-up or pass runs, from a ``SIGALRM`` handler in the
same thread, and gives

- ``probe_s``: wall time the probes took, which the step subtracts from
  its own wall time, and
- ``slowness``: the host's mean slowness over the step, probe time over
  the probe's time on a nominal host.

A measured time is reported as ``(wall - probe_s) / slowness``: seconds
on the nominal host. No change under ``src/`` moves the probe, so a
program change shows in the raw time alone, while a host swing shows in
both and cancels.
"""

import signal
import time

# Sampling period; one probe takes about 1.4 ms, so the probes add about
# 5% to a step's wall time, and a 1 s set-up gets about 40 samples.
INTERVAL_S = 0.025
# Seconds of one probe on a 2-vCPU Xeon VM (Python 3.11) in a calm
# stretch. Only scales the reported figures to about wall seconds.
NOMINAL_S = 0.00135

# Wall time spent in probes so far in this process; see clock().
_probed = 0.0

_WORDS = ("kitab", "qalam", "jamil", "sayyi", "la", "jiddan", "lam",
          "kabir", "saghir", "hasan", "qabih", "wa", "fi", "min", "ila")


def _probe() -> float:
    """String splitting, dict counting, float sums and a sort: the mix of
    tokenizing, lexicon look-ups and scoring most of the program is."""
    text = " ".join(_WORDS[(i * 7) % len(_WORDS)] for i in range(2400))
    counts, score = {}, 0.0
    for token in text.split():
        counts[token] = counts.get(token, 0) + 1
        score += len(token) * 0.25 - (token in ("la", "lam")) * 1.5
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return score + len(ranked)


def clock() -> float:
    """``time.perf_counter()`` minus the time spent in probes so far, so a
    span timed with it is not charged for a probe that interrupted it."""
    return time.perf_counter() - _probed


class Sampler:
    """``with Sampler() as host:`` probes the host until the block ends."""

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame):
        global _probed
        start = time.perf_counter()
        _probe()
        took = time.perf_counter() - start
        _probed += took
        self.times.append(took)

    def __enter__(self):
        _probe()               # warm, so the first sample is not a cold one
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self.times)
        if not self.times:     # a step shorter than one period
            self._tick(None, None)
        return False

    @property
    def slowness(self) -> float:
        # The probes come at equal steps of wall time, and a step does
        # work in proportion to the host's speed, so the step's slowness
        # is the harmonic mean of the sampled ones.
        speeds = [NOMINAL_S / t for t in self.times]
        return len(speeds) / sum(speeds)
