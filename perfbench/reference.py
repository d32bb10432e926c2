"""A fixed reference loop that measures how fast the machine is right now.

On a shared machine the same operation can take 1.8 times longer, for
minutes at a time, while a neighbour loads the core. The loop below has
the instruction mix of fedsim's local SGD at the commit that introduced
the benchmark: a Python Fisher-Yates shuffle, then momentum SGD on a
small ReLU MLP in batches of 10. It is the benchmark's own frozen code,
so no change to fedsim changes its speed. `Sampler` times a short pass
of it every 50 ms while an operation runs, and rescales the operation's
time to the speed the loop has on an uncontended core.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Time of one loop step on an uncontended Intel Xeon core (2-vCPU VM,
# Python 3.11, numpy 2.4, OpenBLAS pinned to one thread).
NOMINAL_STEP_S = 0.014 / 300
SAMPLE_STEPS = 20
SAMPLE_INTERVAL_S = 0.05

_GEN = np.random.default_rng(0)
_X = _GEN.random((20, 24))
_Y = _GEN.integers(0, 10, 20)
_W1 = _GEN.normal(0.0, 0.1, (24, 32))
_W2 = _GEN.normal(0.0, 0.1, (32, 10))


def speed(steps: int) -> float:
    """Nominal over measured time of `steps` loop steps: 1.0 uncontended."""
    return steps * NOMINAL_STEP_S / loop_s(steps)


def loop_s(steps: int) -> float:
    """Wall time of `steps` steps (rounded up to even) of the reference loop."""
    start = perf_counter()
    params = [_W1.copy(), np.zeros(32), _W2.copy(), np.zeros(10)]
    velocity = [np.zeros_like(p) for p in params]
    rows = np.arange(10)
    state = 12345
    for _ in range(-(-steps // 2)):
        order = list(range(20))
        for i in range(19, 0, -1):
            state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            j = state % (i + 1)
            order[i], order[j] = order[j], order[i]
        order = np.array(order)
        for first in (0, 10):
            idx = order[first : first + 10]
            x, y = _X[idx], _Y[idx]
            w1, b1, w2, b2 = params
            pre = x @ w1 + b1
            hidden = np.maximum(pre, 0.0)
            z = hidden @ w2 + b2
            e = np.exp(z - z.max(axis=1, keepdims=True))
            dz = e / e.sum(axis=1, keepdims=True)
            dz[rows, y] -= 1.0
            dz /= 10
            dh = (dz @ w2.T) * (pre > 0.0)
            grads = (x.T @ dh, dh.sum(axis=0), hidden.T @ dz, dz.sum(axis=0))
            for p, v, g in zip(params, velocity, grads):
                v *= 0.9
                v += g
                p -= 0.01 * v
    return perf_counter() - start


class Sampler:
    """Samples the machine's speed while one operation runs.

    A SIGALRM handler runs a short pass of the loop every
    SAMPLE_INTERVAL_S of wall time; one more pass runs on entry and one
    on exit. `adjust` removes the handler's own time from a wall time
    measured inside the block and rescales the rest by the mean speed,
    which weights each interval by its length.
    """

    def __enter__(self) -> "Sampler":
        self.speeds = [speed(SAMPLE_STEPS)]
        self.busy = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.speeds.append(speed(SAMPLE_STEPS))
        self.busy += perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.speeds.append(speed(SAMPLE_STEPS))

    def adjust(self, wall: float) -> float:
        return (wall - self.busy) * statistics.fmean(self.speeds)
