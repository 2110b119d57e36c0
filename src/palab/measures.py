"""Sample-based empirical measures on the real line and their time flows.

The particle systems in this package are one-dimensional, so every measure is
an unweighted atom cloud (mass 1/n each) and the p-Wasserstein distance between
two clouds of equal size is computed exactly by sorting — the 1-D optimal
coupling is the monotone one. Unequal sample counts are compared through
inverse-CDF interpolation on a common quantile grid.

Weighted atoms and measures on path space are out of scope: path-space laws
are represented implicitly by the path ensembles themselves.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Number of uniform quantile levels used when comparing clouds of unequal
# size. Midpoint levels (i + 1/2)/K avoid evaluating the inverse CDF at 0 or 1.
QUANTILE_GRID_SIZE = 10_000


class EmpiricalMeasure:
    """Uniform empirical measure (1/n)·Σ δ_{x_i} on the real line.

    Immutable after construction. The sorted copy is computed on first use and
    cached; moments and clamped means are cached per argument so that drift
    coefficients which only need a summary statistic get it once per time step
    regardless of how many coefficient evaluations share the measure.
    """

    __slots__ = ("samples", "_sorted", "_stat_cache")

    def __init__(self, samples, sorted_cache: np.ndarray | None = None):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("EmpiricalMeasure needs a non-empty 1-D sample vector")
        self.samples = arr
        self._sorted = sorted_cache
        self._stat_cache: dict = {}

    def __len__(self) -> int:
        return self.samples.size

    @property
    def sorted_samples(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(self.samples)
        return self._sorted

    def mean(self) -> float:
        key = ("mean",)
        if key not in self._stat_cache:
            self._stat_cache[key] = float(self.samples.mean())
        return self._stat_cache[key]

    def moment(self, p: float) -> float:
        """Sample mean of |x|^p."""
        key = ("moment", float(p))
        if key not in self._stat_cache:
            self._stat_cache[key] = float(np.mean(np.abs(self.samples) ** p))
        return self._stat_cache[key]

    def clamped_mean(self, b_bar: float) -> float:
        """Sample mean of (-b_bar) ∨ (b_bar ∧ x); b_bar = inf means no clamp."""
        key = ("clamped_mean", float(b_bar))
        if key not in self._stat_cache:
            if math.isinf(b_bar):
                self._stat_cache[key] = self.mean()
            else:
                self._stat_cache[key] = float(
                    np.mean(np.clip(self.samples, -b_bar, b_bar))
                )
        return self._stat_cache[key]

    def quantiles(self, levels: np.ndarray) -> np.ndarray:
        """Left-continuous inverse CDF x_(ceil(u·n)) at the given levels."""
        s = self.sorted_samples
        n = s.size
        idx = np.minimum((np.asarray(levels) * n).astype(int), n - 1)
        return s[idx]


class BatchedEmpiricalMeasure:
    """Row-wise empirical measures over a (batch, n) state matrix.

    Internal plumbing for batched simulations (many independent ensembles
    stepped together). Summary statistics come back as (batch, 1) columns so
    drift expressions like ``a + kappa * m.clamped_mean(b)`` broadcast
    unchanged against (batch, n) state arrays. Not a full EmpiricalMeasure:
    only the statistics the coefficients use are provided.
    """

    __slots__ = ("states",)

    def __init__(self, states: np.ndarray):
        if states.ndim != 2:
            raise ValueError("BatchedEmpiricalMeasure needs a (batch, n) matrix")
        self.states = states

    def __len__(self) -> int:
        """Samples per row (so flows of batched measures validate)."""
        return self.states.shape[1]

    def mean(self) -> np.ndarray:
        return self.states.mean(axis=1, keepdims=True)

    def moment(self, p: float) -> np.ndarray:
        return np.mean(np.abs(self.states) ** p, axis=1, keepdims=True)

    def clamped_mean(self, b_bar: float) -> np.ndarray:
        if math.isinf(b_bar):
            return self.mean()
        return np.mean(np.clip(self.states, -b_bar, b_bar), axis=1, keepdims=True)


class MeasureFlow:
    """One empirical measure per time-grid node, t_0 = 0 … t_steps = T.

    ``times`` and ``measures`` have equal length and all measures share one
    sample count (the particle count of the generating simulation).
    """

    __slots__ = ("times", "measures")

    def __init__(self, times, measures: Sequence[EmpiricalMeasure]):
        times = np.asarray(times, dtype=float)
        measures = list(measures)
        if times.ndim != 1 or times.size != len(measures):
            raise ValueError("MeasureFlow needs one measure per grid node")
        counts = {len(m) for m in measures}
        if len(counts) > 1:
            raise ValueError("all measures in a flow must share one sample count")
        self.times = times
        self.measures = measures

    def __len__(self) -> int:
        return len(self.measures)

    def at(self, k: int) -> EmpiricalMeasure:
        return self.measures[k]

    @property
    def terminal(self) -> EmpiricalMeasure:
        return self.measures[-1]

    @classmethod
    def single(cls, t: float, measure: EmpiricalMeasure) -> "MeasureFlow":
        """One-node flow: what the streaming evaluators hand to terminal maps."""
        return cls(np.array([t]), [measure])


def wasserstein_p(a: EmpiricalMeasure, b: EmpiricalMeasure, p: float = 1.0) -> float:
    """p-Wasserstein distance between two 1-D empirical measures.

    Equal sample counts use the exact sorted-sample coupling
    ((1/n)·Σ|a_(i) − b_(i)|^p)^(1/p). Unequal counts are compared through the
    inverse CDFs sampled at QUANTILE_GRID_SIZE midpoint levels, which is the
    same formula applied to the interpolated clouds.
    """
    if p < 1:
        raise ValueError(f"wasserstein_p needs p >= 1, got {p}")
    if len(a) == len(b):
        xa, xb = a.sorted_samples, b.sorted_samples
    else:
        levels = (np.arange(QUANTILE_GRID_SIZE) + 0.5) / QUANTILE_GRID_SIZE
        xa, xb = a.quantiles(levels), b.quantiles(levels)
    diff = np.abs(xa - xb)
    if p == 1.0:
        return float(diff.mean())
    return float(np.mean(diff**p) ** (1.0 / p))
