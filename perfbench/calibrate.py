"""How fast the machine runs right now, from a fixed reference computation.

On a virtual machine with a shared host, the same code takes up to twice
the CPU time when the host is busy (another guest on the same core or
cache), and that load comes and goes over minutes.  The benchmark therefore
runs this reference computation between passes and divides each pass's CPU
time by it: the ratio moves when the program's work changes, not when the
host does.

The reference mixes what the program spends its time on: interpreted
Python loops, a dense symmetric eigensolve, FFTs and vectorised numpy
arithmetic.  Its inputs are fixed, so its work never changes.  No adskg
code runs in it, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPS = 3  # reference computations per reading; a reading is their median
REFERENCE_S = 0.1  # CPU seconds one reference computation is scaled to

_rng = np.random.default_rng(0)
_SYM = _rng.standard_normal((300, 300))
_SYM = _SYM + _SYM.T
_SIGNAL = _rng.standard_normal(1 << 19)
_VALUES = _rng.standard_normal(1_200_000)


def _python_loop() -> float:
    s = 0.0
    for i in range(320_000):
        s += (i % 7) * 0.5
    return s


def _reference() -> None:
    _python_loop()
    np.linalg.eigh(_SYM)
    np.fft.irfft(np.fft.rfft(_SIGNAL) * 2.0)
    float(np.sum(np.sin(_VALUES) * _VALUES + np.sqrt(np.abs(_VALUES))))


def reading() -> list[float]:
    """CPU seconds of ``REPS`` reference computations, one after another."""
    out = []
    for _ in range(REPS):
        t = time.process_time()
        _reference()
        out.append(time.process_time() - t)
    return out


def scale(before: list[float], after: list[float]) -> float:
    """Factor that turns CPU seconds measured between two readings into
    CPU seconds at the reference speed (one computation in REFERENCE_S)."""
    return REFERENCE_S / statistics.median(before + after)
