"""Sample-based empirical measures on the real line.

The particle systems in this package are one-dimensional, so every measure is
an unweighted atom cloud (mass 1/n each) and the p-Wasserstein distance between
two clouds of equal size is computed exactly by sorting — the 1-D optimal
coupling is the monotone one. Unequal sample counts are compared through
their inverse CDFs on a common quantile grid. Weighted atoms and measures on
path space are out of scope: the path ensembles stand for path-space laws.
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

    def quantiles(self, levels: np.ndarray) -> np.ndarray:
        """Inverse CDF at the given levels: the order statistic x_(floor(u·n)+1).

        This is the right-continuous inverse inf{x : F(x) > u}, capped at
        x_(n); where u·n is an integer k it returns x_(k+1), not the
        left-continuous x_(k). A level outside [0, 1], or NaN, raises
        ValueError, and so does a (batch, n) stack: it holds one inverse CDF
        per ensemble, not one.
        """
        if self.samples.ndim != 1:
            raise ValueError("quantiles takes a single ensemble, not a (batch, n) stack")
        levels = np.asarray(levels)
        if not ((levels >= 0) & (levels <= 1)).all():
            raise ValueError("quantile levels must lie in [0, 1]")
        s = self.sorted_samples
        n = s.size
        idx = np.minimum((levels * n).astype(int), n - 1)
        return s[idx]


def wasserstein_p(a: EmpiricalMeasure, b: EmpiricalMeasure, p: float = 1.0) -> float:
    """p-Wasserstein distance between two 1-D empirical measures.

    Equal sample counts use the exact sorted-sample coupling
    ((1/n)·Σ|a_(i) − b_(i)|^p)^(1/p); unequal counts apply the same formula
    to the two quantile functions at QUANTILE_GRID_SIZE midpoint levels. A
    (batch, n) stack raises ValueError, and so does a p outside [1, inf),
    NaN included.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"wasserstein_p needs 1 <= p < inf, got {p}")
    if a.samples.ndim != 1 or b.samples.ndim != 1:
        raise ValueError("wasserstein_p compares single ensembles, not (batch, n) stacks")
    if len(a) == len(b):
        xa, xb = a.sorted_samples, b.sorted_samples
    else:
        levels = (np.arange(QUANTILE_GRID_SIZE) + 0.5) / QUANTILE_GRID_SIZE
        xa, xb = a.quantiles(levels), b.quantiles(levels)
    return float(np.mean(np.abs(xa - xb) ** p) ** (1.0 / p))
