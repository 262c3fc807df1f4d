"""Machine-speed probe: a fixed piece of numpy work, timed.

The kernel is a few forward/backward steps of a 16-64-10 classifier on one
batch of 64, the same kind of small-matrix work as the program's training
loop, so it slows down with it when the machine does. It does not depend on
the program: its cost is fixed, and a change in the program changes only how
often it is sampled, never what a sample reads.

A sample is the fastest of REPEATS timings of the kernel, so a single
preemption does not count as a slow stretch. Each CPU of a shared host can
be slow or fast on its own, changing within seconds. A sample reads the CPU
it runs on, which is the program's own CPU when the program runs one thread
at a time; for a program that keeps several CPUs busy, sample(cpus) reads
each of them in turn and gives the mean.

Program time is reported at a fixed machine speed: the one at which the
kernel takes REFERENCE_S. So a run made while the whole machine is slow
reads about the same as one made while it is fast.
"""

from __future__ import annotations

import os
import statistics
import time

REPEATS = 3
STEPS = 12
# The kernel's time at the fast speed of a 2-vCPU Intel Xeon virtual machine
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31); at its slow speed it takes 0.9 ms.
REFERENCE_S = 0.0006

_data = None


def _setup():
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16))
    return np, x, rng.standard_normal((64, 16)) * 0.1, rng.standard_normal((10, 64)) * 0.1


def sample(cpus=None) -> float:
    """Seconds the kernel takes, best of REPEATS; with cpus, the mean of one
    such sample pinned to each CPU."""
    if cpus:
        home = os.sched_getaffinity(0)
        try:
            out = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                out.append(sample())
            return statistics.fmean(out)
        finally:
            os.sched_setaffinity(0, home)
    global _data
    if _data is None:
        _data = _setup()
    np, x, w1_0, w2_0 = _data
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        w1, w2 = w1_0, w2_0
        for _ in range(STEPS):
            h = np.maximum(x @ w1.T, 0.0)
            z = h @ w2.T
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            g2 = p.T @ h
            g1 = ((p @ w2) * (h > 0)).T @ x
            w1, w2 = w1 - 0.01 * g1, w2 - 0.01 * g2
        best = min(best, time.perf_counter() - t)
    return best


def program_cpus(threads: str):
    """The CPUs to sample for a program run with LTLAB_THREADS = threads:
    None (the current one) for one thread, else every CPU it may use."""
    if not threads.isdigit() or int(threads) < 2 or not hasattr(os, "sched_getaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))


def corrected(t0: float, t_end: float, samples: list, lo: float, hi: float):
    """(raw, corrected) seconds of program time in [lo, hi].

    samples are (before, seconds, after) in time order, all inside
    [t0, t_end] except that the first may end at t0. The gaps between samples
    are program time; the samples themselves are not. Each gap is scaled by
    REFERENCE_S / (mean of the samples that bound it): a gap the machine ran slowly
    through counts as it would have at the reference speed. A cost of the
    program's own, however rarely it occurs, leaves the samples as they are
    and so shows in full.
    """
    raw = fixed = 0.0
    edges = [(t0, None)] + [(s[0], s) for s in samples] + [(t_end, None)]
    ends = [(t0, None)] + [(s[2], s) for s in samples] + [(t_end, None)]
    # gap i runs from the end of point i to the start of point i + 1
    for (a, left), (b, right) in zip(ends[:-1], edges[1:]):
        a, b = max(a, t0, lo), min(b, t_end, hi)
        if b <= a:
            continue
        near = [s[1] for s in (left, right) if s is not None]
        raw += b - a
        fixed += (b - a) * (REFERENCE_S * len(near) / sum(near) if near else 1.0)
    return raw, fixed
