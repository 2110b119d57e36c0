"""Tests for the Monte Carlo estimate record and its aggregation."""

import math

import numpy as np
import pytest

from palab.estimates import MCEstimate, mean_se


def test_mean_se_values():
    est = mean_se([1.0, 2.0, 4.0])
    assert est.value == pytest.approx(7.0 / 3.0)
    assert est.se == pytest.approx(np.std([1.0, 2.0, 4.0], ddof=1) / math.sqrt(3))
    # a (batch, 1) column counts every entry as one sample
    assert mean_se(np.array([[1.0], [2.0], [4.0]])) == est


def test_mean_se_one_sample_has_zero_se():
    assert mean_se([0.25]) == MCEstimate(0.25, 0.0)


def test_mean_se_rejects_no_samples():
    with pytest.raises(ValueError):
        mean_se([])
