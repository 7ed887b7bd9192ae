"""A fixed reference kernel, timed next to every op to factor out machine speed.

On a shared VM the speed of the machine changes by up to a factor of two
within minutes, far more than the bounds a benchmark can use.  A kernel
that calls no zmcnoid code is timed before the first op of a pass and after
every op; each op's time is divided by the mean of the two kernel times
around it and multiplied by REF_S.  The result is in reference seconds: the
time the op would take on a machine that runs the kernel in REF_S seconds.
A change to zmcnoid moves it as much as it moves the raw time; a change of
machine speed that slows the kernel and the op alike cancels.

The kernel mixes what the workloads spend their time on: an interpreter
loop, small numpy calls (per-call overhead) and sorts of 2 MiB arrays on
two threads (the second CPU, which the tessellate pool also uses).  Its
arrays add about 8 MB to the peak RSS of every run.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# about the kernel time on the 2-vCPU VM of BASELINE.md, so that reference
# seconds read close to seconds there
REF_S = 0.06

_SMALL = np.linspace(0.0, 1.0, 25)


def _interpreter() -> float:
    s = 0.0
    for i in range(200_000):
        s += (i * 0.5) % 7
    return s


def _small_calls() -> None:
    for _ in range(6000):
        np.cos(_SMALL).sum() + np.sqrt(_SMALL)[3]


def _sort(a) -> None:
    for _ in range(4):
        np.sort(a)


class Kernel:
    """The reference kernel, with its arrays and its two-thread pool.

    Use it in a ``with`` block, which shuts the pool down.  run.py makes
    one in the measuring process only, not in the set-up probes, so that
    numpy.random and the arrays add nothing to setup_s.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._arrays = [rng.random(1 << 18) for _ in range(2)]
        self._pool = ThreadPoolExecutor(max_workers=2)

    def __enter__(self) -> Kernel:
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown()

    def time_s(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        _interpreter()
        _small_calls()
        list(self._pool.map(_sort, self._arrays))
        return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel runs into reference seconds."""
    return 2.0 * REF_S / (before + after)
