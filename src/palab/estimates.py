"""Monte Carlo point estimates with standard errors.

Every estimator in this package reports a value together with its standard
error; bare point estimates are not emitted anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MCEstimate:
    """Point value and its standard error under the producer's sampling scheme."""

    value: float
    se: float


def mean_se(samples: np.ndarray) -> MCEstimate:
    """Sample mean with its standard error std/sqrt(m); one sample gives se = 0, none ValueError."""
    arr = np.asarray(samples, dtype=float).ravel()
    m = arr.size
    if m == 0:
        raise ValueError("mean_se needs at least one sample")
    value = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return MCEstimate(value, se)


def _central_slope(f, v: float) -> float:
    """Central-difference slope of the scalar map f at v, step 1e-6 * max(1, |v|)."""
    h = 1e-6 * max(1.0, abs(v))
    return (float(f(v + h)) - float(f(v - h))) / (2.0 * h)
