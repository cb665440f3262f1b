"""CPU-speed sampling, so that times are comparable across host speed phases.

On a shared host the speed of one virtual CPU can change by a factor of 1.7
within seconds and stay changed for a minute, and the two CPUs of one guest
change independently.  No hardware counters are exposed, so a worker samples
its own speed: every PERIOD_S a SIGALRM handler times a fixed pure-Python
loop.  ``normalize`` turns a wall-clock interval into seconds at the
reference speed (the loop taking REF_S), leaving out the sampling itself.

The handler runs only between bytecodes of the main thread, so it never
interrupts native code; interrupted system calls are retried (PEP 475).
"""

import signal
import time

PERIOD_S = 0.1
REF_S = 0.002
LOOP = 20_000


def probe() -> float:
    """Seconds for the fixed reference loop at the current CPU speed."""
    start = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return time.perf_counter() - start


class Sampler:
    """Timestamped probe durations, taken every PERIOD_S while running."""

    def __init__(self):
        self.samples: list = []

    def sample(self, *_):
        t = time.perf_counter()
        self.samples.append((t, probe()))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Idempotent; takes one last sample on the first call."""
        if signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0):
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def normalize(t0: float, t1: float, samples: list) -> float:
    """Work time in [t0, t1] at the reference speed, probes excluded.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes, so the
    interval may be timed by the parent and the samples by the worker.  Each
    stretch between probes runs at the mean speed of the probes on its two
    sides; the stretch before the first probe in the window takes the speed
    of the last probe before the window, or of the first probe in it.
    """
    if not samples:
        raise ValueError("no speed samples")
    before = [(t, d) for t, d in samples if t < t0]
    inside = [(t, d) for t, d in samples if t0 <= t and t + d <= t1]
    after = [d for t, d in samples if t >= t0 and t + d > t1]
    if before:
        prev_end, prev_d = max(t0, sum(before[-1])), before[-1][1]
    else:
        prev_end, prev_d = t0, inside[0][1] if inside else after[0]
    total = 0.0
    for t, d in inside:
        total += (t - prev_end) * REF_S / ((prev_d + d) / 2)
        prev_end, prev_d = t + d, d
    last_d = (prev_d + after[0]) / 2 if after else prev_d
    return total + (t1 - prev_end) * REF_S / last_d
