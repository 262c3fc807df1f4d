"""Shared test fixtures: finite-difference oracles and a lazily-populated
cache of benchmark training runs (the expensive cross-test resource)."""

import numpy as np
import pytest

from ltlab.harness import ExperimentConfig, build_datasets, train_one


def fd_param_grads(f, net, h=1e-4):
    """Central finite differences of the scalar f() wrt every parameter of
    net, laid out like net.params.

    f must read the live net object; entries are perturbed in place and
    restored, so the net must not be shared with a concurrent reader.
    """
    p = net.params
    out = np.zeros_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        fp = f()
        p[i] = orig - h
        fm = f()
        p[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return out


def max_rel_err(analytic, fd):
    """max component error, relative to the largest FD component (floored so
    an all-zero reference still compares exactly)."""
    scale = np.abs(fd).max(initial=0.0)
    diff = np.abs(analytic - fd).max(initial=0.0)
    return diff / max(scale, 1e-12)


def fd_vector_grad(f, x, h=1e-6):
    """Central differences of scalar f(x) wrt the vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


class BenchCache:
    """Benchmark runs on the default synthetic config, one per
    (method, seed, head), trained on first request and then shared."""

    SEEDS = (0, 1, 2, 3, 4)

    def __init__(self):
        self.base = ExperimentConfig()
        self.train_set, self.meta_set = build_datasets(self.base)
        self._runs = {}

    def result(self, method, seed, head="linear"):
        key = (method, seed, head)
        if key not in self._runs:
            cfg = ExperimentConfig(method=method, head=head)
            self._runs[key] = train_one(cfg, self.train_set, self.meta_set, seed)
        return self._runs[key]

    def final_record(self, method, seed, head="linear"):
        return self.result(method, seed, head)[2].epochs[-1]

    def first_record(self, method, seed, head="linear"):
        return self.result(method, seed, head)[2].epochs[0]

    def median(self, method, key, head="linear"):
        vals = [getattr(self.final_record(method, s, head), key) for s in self.SEEDS]
        return float(np.median([v for v in vals if v is not None]))


@pytest.fixture(scope="session")
def bench():
    return BenchCache()
