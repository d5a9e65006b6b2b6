"""Host-speed calibration: a fixed kernel timed on both sides of every
measured interval.

On a shared machine the speed of one core drifts by up to 80% over a few
seconds, and a slow stretch can outlast a whole run, so neither the best nor
the median of a run's raw times repeats from run to run.  The harness times
``kernel`` just before and just after each measured interval and scales the
interval by ``REFERENCE_NS`` over the mean of the two kernel times.  Reported
times are therefore in reference ms: what the interval would take on a host
where the kernel takes ``REFERENCE_NS``.  On a steady host the scale is
constant, so ratios between two commits are unchanged.

The kernel does what the program's hot loop does, sparse polynomial
multiplication with tuple exponents and big-integer coefficients, so it
slows with the same contention.  It never calls ``scrolleq``: no change to
the program can move it.  The collector is off while it runs, so the
program's heap does not change its time.
"""

from __future__ import annotations

import gc
import time

# Kernel time that the scale maps to: a round figure near its time on one
# vCPU of a 2.1 GHz Xeon with Python 3.11.
REFERENCE_NS = 2_500_000


class _Mono:
    __slots__ = ("exps", "_hash")

    def __init__(self, exps):
        self.exps = exps
        self._hash = hash(exps)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.exps == other.exps


def _merge(a, b):
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            mono = _Mono(_merge(ma.exps, mb.exps))
            c = ca * cb
            prev = out.get(mono)
            out[mono] = c if prev is None else prev + c
    return out


_BASE = {_Mono(((i, 1), (i + 1, 2))): 3 ** (40 + i) - i for i in range(12)}
# Terms of _BASE cubed; checks that the kernel did its whole work.
_TERMS = 364


def kernel() -> int:
    p = _BASE
    for _ in range(2):
        p = _mul(p, _BASE)
    return len(p)


def kernel_ns() -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        terms = kernel()
        elapsed = time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
    if terms != _TERMS:
        raise AssertionError(f"calibration kernel made {terms} terms, not {_TERMS}")
    return elapsed


def scale(before_ns: int, after_ns: int) -> float:
    """Factor from raw ns to reference ns, given the kernel times around an
    interval."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


def measure(fn, *args):
    """Run ``fn(*args)`` between two kernel runs; returns its result, its raw
    duration in ns and the scale to reference ns."""
    before = kernel_ns()
    start = time.perf_counter_ns()
    result = fn(*args)
    raw = time.perf_counter_ns() - start
    return result, raw, scale(before, kernel_ns())
