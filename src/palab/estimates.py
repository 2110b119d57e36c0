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
    """Mean over the first axis with its standard error std/sqrt(m).

    m is the length of that axis: a length-m sample gives floats, an (m, k)
    stack length-k arrays. One sample gives se = 0, none ValueError.
    """
    arr = np.asarray(samples, dtype=float)
    m = len(arr)
    if m == 0:
        raise ValueError("mean_se needs at least one sample")
    value = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.zeros_like(value)
    return MCEstimate(value, se) if arr.ndim > 1 else MCEstimate(float(value), float(se))


def _central_slope(f, v: float) -> float:
    """Central-difference slope of the scalar map f at v, step 1e-6 * max(1, |v|)."""
    h = 1e-6 * max(1.0, abs(v))
    return (float(f(v + h)) - float(f(v - h))) / (2.0 * h)
