"""Sample-based empirical measures on the real line.

The particle systems in this package are one-dimensional, so every measure is
an unweighted atom cloud (mass 1/n each), and the one distance between two
clouds is W1. For equal sample counts it is exact by sorting — the 1-D
optimal coupling is the monotone one. Unequal counts are compared through
their inverse CDFs at the QUANTILE_GRID_SIZE = 10,000 midpoint levels.
Weighted atoms and measures on path space are out of scope: the path
ensembles stand for path-space laws.
"""

from __future__ import annotations

import math

import numpy as np

# Number of uniform quantile levels used when comparing clouds of unequal
# size. Midpoint levels (i + 1/2)/K avoid evaluating the inverse CDF at 0 or 1.
QUANTILE_GRID_SIZE = 10_000


def _mean_last(v: np.ndarray, keepdims: bool = False):
    """Mean over the last axis with np.mean's float64 bits: the one ensemble-mean rule."""
    return np.add.reduce(v, axis=-1, keepdims=keepdims) / v.shape[-1]


class EmpiricalMeasure:
    """Uniform empirical measure (1/n)·Σ δ_{x_i} on the real line.

    samples is one ensemble of shape (n,) or a (batch, n) stack, and every
    statistic is taken over the last axis: a float for one ensemble, a
    (batch, 1) column for a stack, so drift expressions like
    ``a + kappa * m.clamped_mean(b)`` broadcast against the state array.
    len() is the sample count n of each ensemble. Immutable after
    construction; the sorted copy is cached. The private _range is the
    (min, max) of all samples when the creator knows it, else None.
    """

    __slots__ = ("samples", "_sorted", "_range")

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim not in (1, 2) or arr.size == 0:
            raise ValueError("EmpiricalMeasure needs a non-empty (n,) or (batch, n) sample array")
        self.samples = arr
        self._sorted = None
        self._range = None

    def __len__(self) -> int:
        return self.samples.shape[-1]

    @property
    def sorted_samples(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(self.samples)
        return self._sorted

    @staticmethod
    def _average(v: np.ndarray):
        """_mean_last as a float for (n,), as a (batch, 1) column for (batch, n)."""
        if v.ndim == 1:
            return float(_mean_last(v))
        return _mean_last(v, keepdims=True)

    def mean(self):
        return self._average(self.samples)

    def moment(self, p: float):
        """Sample mean of |x|^p."""
        return self._average(np.abs(self.samples) ** p)

    def clamped_mean(self, b_bar: float):
        """Sample mean of (-b_bar) ∨ (b_bar ∧ x); b_bar = inf means no clamp."""
        # A _range inside [-b_bar, b_bar] means the clip would change no sample,
        # signed zeros included; a NaN bound or range fails the test and clips.
        span = self._range
        if math.isinf(b_bar) or (span is not None and -b_bar <= span[0] and span[1] <= b_bar):
            return self._average(self.samples)
        return self._average(np.clip(self.samples, -b_bar, b_bar))


def wasserstein_p(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """W1 distance between two 1-D empirical measures.

    Equal sample counts use the exact sorted-sample coupling
    (1/n)·Σ|a_(i) − b_(i)|. Unequal counts take the mean of |F_a⁻¹(u) −
    F_b⁻¹(u)| over the QUANTILE_GRID_SIZE = 10,000 midpoint levels
    u = (i + 1/2)/K, with the right-continuous inverse x_(floor(u·n)+1),
    capped at x_(n). A (batch, n) stack raises ValueError.
    """
    if a.samples.ndim != 1 or b.samples.ndim != 1:
        raise ValueError("wasserstein_p compares single ensembles, not (batch, n) stacks")
    if len(a) == len(b):
        xa, xb = a.sorted_samples, b.sorted_samples
    else:
        u = (np.arange(QUANTILE_GRID_SIZE) + 0.5) / QUANTILE_GRID_SIZE
        xa, xb = (m.sorted_samples[np.minimum((u * len(m)).astype(int), len(m) - 1)] for m in (a, b))
    return float(np.mean(np.abs(xa - xb)))
