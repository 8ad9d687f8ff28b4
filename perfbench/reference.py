"""Reference work: fixed code, none of it fairbound's, timed around every op.

The shared machines the benchmark runs on drift between faster and slower
spells that last seconds to minutes, and a spell slows every process alike.
Each op child times its workload's kernel right before and right after the
op; the harness divides the op's wall time by the kernel's slowdown
against ``NOMINAL_S`` (README.md, "Reference seconds").

A spell does not slow all code alike: it slowed small numpy calls about half
as much as Python-level parsing.  So each workload's kernel mimics the mix
of its own ops, and must never change once results have been compared with
it.  Each kernel takes about ``NOMINAL_S`` on the tuning machine, a 2-core
x86-64 VM (Xeon at 2.0 GHz), when it is fast.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import softmax

NOMINAL_S = 0.06


def _check(*values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise RuntimeError("reference work gave a non-finite result")


def dense_steps() -> float:
    """Like ``sweep-eps-op``: full-batch softmax gradient steps and
    per-group accuracy counts over a 4000 x 4 matrix (trainer and fairness),
    plus a little scalar Python (bounds)."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((4000, 4))
    y = rng.integers(0, 2, 4000)
    groups = rng.integers(0, 4, 4000)
    rows = np.arange(4000)
    w = np.zeros((2, 4))
    start = time.perf_counter()
    for _ in range(110):
        p = softmax(x @ w.T, axis=1)
        p[rows, y] -= 1.0
        w = w - 0.5 * (p.T @ x / 4000 + w)
    for _ in range(90):
        correct = (np.argmax(x @ w.T, axis=1) == y).astype(np.float64)
        acc = np.bincount(groups, weights=correct, minlength=4) / np.bincount(groups, minlength=4)
    total = 0.0
    for i in range(1, 11000):
        total += (i % 7) ** 0.5 / i
    seconds = time.perf_counter() - start
    _check(w, acc, total)
    return seconds


def parse_floats() -> float:
    """Like ``cli-certify``: parsing and summing floats from text (CSV
    loading), plus small dense numpy products over a 4000 x 4 matrix."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((4000, 4))
    text = ",".join(repr(v) for v in rng.standard_normal(2000).tolist())
    w = np.zeros(4)
    start = time.perf_counter()
    for _ in range(40):
        for _ in range(20):
            z = x @ w
            w = w - 1e-3 * (x.T @ (1.0 / (1.0 + np.exp(-z)) - 0.5))
        total = sum(float(v) for v in text.split(","))
    seconds = time.perf_counter() - start
    _check(w, total)
    return seconds


KERNELS = {"dense_steps": dense_steps, "parse_floats": parse_floats}
