"""Tests for the Monte Carlo estimate record and its aggregation."""

import math

import numpy as np
import pytest

from palab.estimates import MCEstimate, mean_se


def test_mean_se_values():
    est = mean_se([1.0, 2.0, 4.0])
    assert est.value == pytest.approx(7.0 / 3.0)
    assert est.se == pytest.approx(np.std([1.0, 2.0, 4.0], ddof=1) / math.sqrt(3))
    # a (batch, 1) column is a stack of one-entry samples: its estimate is a
    # pair of shape-(1,) arrays holding the 1-D estimate
    col = mean_se(np.array([[1.0], [2.0], [4.0]]))
    assert col.value.shape == col.se.shape == (1,)
    assert col.value[0] == est.value and col.se[0] == est.se


def test_mean_se_stack_reduces_rows_in_order():
    # at m >= 8 numpy's pairwise 1-D sum and the row-by-row stack sum may
    # differ in the last bit (here in three means and two se values); a stack
    # must keep the row-by-row bits
    m = 12
    stack = np.random.default_rng(4).normal(size=(m, 5)) * np.array([1e-3, 1.0, 10.0, 1e3, 1e6])
    est = mean_se(stack)
    assert np.array_equal(est.value, stack.mean(axis=0))
    assert np.array_equal(est.se, stack.std(axis=0, ddof=1) / math.sqrt(m))


def test_mean_se_one_sample_has_zero_se():
    assert mean_se([0.25]) == MCEstimate(0.25, 0.0)
    est = mean_se(np.array([[0.25, -1.0, 3.0]]))
    assert np.array_equal(est.value, [0.25, -1.0, 3.0])
    assert np.array_equal(est.se, np.zeros(3))


def test_mean_se_rejects_no_samples():
    with pytest.raises(ValueError):
        mean_se([])
