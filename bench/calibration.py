"""Reference seconds: measured times scaled by the machine's current speed.

The shared 2-vCPU machine the reference figures come from drifts in speed
by up to 1.8x over tens of seconds, so the same job list read 2.4 to 3.6 s
from one run to the next.  Each worker therefore times ``kernel`` after
set-up and after every job; its slowdown is the median kernel time over
``REF_S``, and the benchmark reports measured time / slowdown.  The
kernel mimics the library's work (a recursive walk of 4x4 complex products
keyed by tuples, and big-integer arithmetic like mpmath's) but calls no nss
code, so no change to the library can move it.  Over a minute of search
jobs the ratio's spread was a third of the raw time's.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time at the reference speed; it defines the reference second
REF_S = 0.009
SETUP_SAMPLES = 5
_MODULUS = (1 << 2203) - 1
_rng = np.random.default_rng(0)
_POOL = {(s, t): np.linalg.qr(_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4)))[0]
         for s in range(2) for t in range(4)}


def _walk(mat, depth, word):
    acc = 0.0
    for t in range(4):
        m2 = _POOL[(depth & 1, t)] @ mat
        w2 = word + ((depth, t),)
        acc += float(abs(m2[0, 1]))
        if depth < 4:
            acc += _walk(m2, depth + 1, w2)
    return acc


def kernel() -> float:
    """Seconds for one fixed run of the calibration work."""
    t0 = time.perf_counter()
    _walk(np.eye(4, dtype=complex), 0, ())
    x = 3 ** 700
    for _ in range(200):
        x = x * x % _MODULUS
    return time.perf_counter() - t0


def slowdown(samples) -> float:
    return statistics.median(samples) / REF_S
