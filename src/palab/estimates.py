"""Monte Carlo point estimates with standard errors.

Every estimator in this package reports a value together with its standard
error; bare point estimates are not emitted anywhere. This module holds the
small shared record type and the aggregation helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate: point value, standard error, sample count.

    ``se`` is the standard error of ``value`` as an estimator of the target
    expectation, under whatever sampling scheme produced it (per-agent scatter
    within one ensemble, or scatter across independent replications — the
    producing function documents which).
    """

    value: float
    se: float
    n_samples: int


def mean_se(samples: np.ndarray) -> MCEstimate:
    """Sample mean with its standard error std/sqrt(m).

    A single sample yields se = 0 (there is no scatter to estimate); callers
    that need a real error bar must supply replications.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    m = arr.size
    if m == 0:
        raise ValueError("mean_se needs at least one sample")
    value = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return MCEstimate(value, se, m)


def _central_slope(f, v: float) -> float:
    """Central-difference slope of the scalar map f at v, step 1e-6 * max(1, |v|)."""
    h = 1e-6 * max(1.0, abs(v))
    return (float(f(v + h)) - float(f(v - h))) / (2.0 * h)
