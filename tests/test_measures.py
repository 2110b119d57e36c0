"""Tests for the empirical-measure layer: statistics, stacks, distances."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from palab.measures import EmpiricalMeasure, wasserstein_p

EXACT = 1e-12
N_PROPERTY_TRIALS = 200


def test_basic_stats():
    m = EmpiricalMeasure([1.0, 2.0, 3.0, 6.0])
    assert m.mean() == 3.0
    assert m.moment(1.0) == 3.0
    assert m.moment(2.0) == (1 + 4 + 9 + 36) / 4.0
    assert len(m) == 4


def test_clamped_mean_examples():
    m = EmpiricalMeasure([3.0, -3.0])
    assert m.clamped_mean(1.0) == 0.0
    m2 = EmpiricalMeasure([3.0, 1.0])
    assert m2.clamped_mean(2.0) == 1.5
    # no clamp at b_bar = inf
    assert m2.clamped_mean(np.inf) == m2.mean()
    # clamp everything
    assert EmpiricalMeasure([10.0, 20.0]).clamped_mean(0.5) == 0.5


def _clip_mean(samples, b_bar):
    clipped = np.clip(samples, -b_bar, b_bar)
    return float(np.mean(clipped)) if clipped.ndim == 1 else np.mean(clipped, axis=-1, keepdims=True)


@pytest.mark.parametrize(
    "samples, b_bar",
    [
        ([-0.5, 0.5, 0.1, -0.0], 0.5),  # samples exactly at -b_bar and b_bar
        ([-0.0, -0.0, -0.0], 0.5),  # a -0.0 mean survives the skipped clip
        ([-0.0, 0.0, -0.0], 0.0),  # b_bar = 0 with signed zeros
        ([-0.0], 1e-300),
        ([0.3, -0.7, 0.2], 0.5),  # crosses: the clip runs
        ([[0.1, -0.2, 0.4], [0.2, 0.9, -0.1], [-0.5, 0.0, 0.5]], 0.5),  # one row crosses
        ([[0.1, -0.2, -0.0], [0.2, 0.3, -0.1]], 0.5),  # a stack inside the clamp
    ],
)
def test_clamped_mean_with_known_range_matches_clip(samples, b_bar):
    # With _range set to the true (min, max), the skipped clip gives the
    # bits of np.mean(np.clip(...)), signed zeros included.
    arr = np.asarray(samples, dtype=float)
    m = EmpiricalMeasure(arr)
    m._range = (arr.min(), arr.max())
    got, want = m.clamped_mean(b_bar), _clip_mean(arr, b_bar)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_clamped_mean_skips_clip_only_inside_range():
    # The range alone decides: a range inside the clamp takes the plain mean
    # even of samples it misdescribes, and one touching outside clips.
    m = EmpiricalMeasure([3.0, 1.0])
    m._range = (-1.0, 1.0)
    assert m.clamped_mean(2.0) == 2.0
    m._range = (1.0, 3.0)
    assert m.clamped_mean(2.0) == 1.5
    m._range = (float("nan"), 3.0)
    assert m.clamped_mean(2.0) == 1.5


@pytest.mark.parametrize("n", [1, 7, 10_000, 200_000])
def test_average_matches_np_mean(n):
    rng = np.random.default_rng(n)
    one = rng.standard_normal(n)
    stack = rng.standard_normal((3, n)) * [[1.0], [1e-3], [1e5]]
    assert EmpiricalMeasure(one).mean() == float(np.mean(one))
    col = EmpiricalMeasure(stack).mean()
    assert col.shape == (3, 1)
    assert np.array_equal(col, np.mean(stack, axis=-1, keepdims=True))
    zeros = np.full(n, -0.0)
    got, want = EmpiricalMeasure(zeros).mean(), float(np.mean(zeros))
    assert got == want and np.signbit(got) == np.signbit(want)


def test_empty_or_3d_rejected():
    with pytest.raises(ValueError):
        EmpiricalMeasure([])
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((3, 2, 2)))


def test_wasserstein_two_atoms():
    # {0, 0} vs {0, 2}: optimal coupling moves one atom of mass 1/2 by 2
    a = EmpiricalMeasure([0.0, 0.0])
    b = EmpiricalMeasure([0.0, 2.0])
    assert abs(wasserstein_p(a, b) - 1.0) <= EXACT


def test_wasserstein_shift_identity():
    # W1(mu, mu + c) = |c| (the monotone coupling is a shift)
    rng = np.random.default_rng(101)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(2, 60))
        c = float(rng.uniform(-3, 3))
        a = EmpiricalMeasure(x)
        b = EmpiricalMeasure(x + c)
        assert abs(wasserstein_p(a, b) - abs(c)) <= EXACT


def test_wasserstein_self_distance_zero():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(33)
    m = EmpiricalMeasure(x)
    assert wasserstein_p(m, m) == 0.0
    # same cloud presented in a different order
    m2 = EmpiricalMeasure(x[::-1].copy())
    assert wasserstein_p(m, m2) == 0.0


def test_wasserstein_assignment_oracle():
    # Equal-size exact distance must agree with the optimal assignment
    # (Hungarian algorithm on the |x_i - y_j| cost matrix): the sorted
    # coupling is optimal in 1-D.
    rng = np.random.default_rng(2024)
    for _ in range(N_PROPERTY_TRIALS):
        n = int(rng.integers(2, 7))
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-5, 5, n)
        cost = np.abs(x[:, None] - y[None, :])
        ri, ci = linear_sum_assignment(cost)
        oracle = cost[ri, ci].mean()
        ours = wasserstein_p(EmpiricalMeasure(x), EmpiricalMeasure(y))
        assert abs(ours - oracle) <= 1e-10, (x, y)


def test_wasserstein_triangle_equal_sizes():
    rng = np.random.default_rng(5)
    for _ in range(N_PROPERTY_TRIALS):
        n = int(rng.integers(2, 40))
        a = EmpiricalMeasure(rng.standard_normal(n) * rng.uniform(0.5, 2))
        b = EmpiricalMeasure(rng.standard_normal(n) + rng.uniform(-1, 1))
        c = EmpiricalMeasure(rng.standard_normal(n) * 0.3)
        dab = wasserstein_p(a, b)
        dac = wasserstein_p(a, c)
        dcb = wasserstein_p(c, b)
        assert dab <= dac + dcb + EXACT


def test_wasserstein_triangle_unequal_sizes():
    # All three pairwise sizes distinct, so every pair goes through the same
    # quantile grid and the triangle inequality holds exactly on that grid.
    rng = np.random.default_rng(6)
    for _ in range(N_PROPERTY_TRIALS):
        na, nb, nc = rng.permutation([11, 23, 47])
        a = EmpiricalMeasure(rng.standard_normal(int(na)))
        b = EmpiricalMeasure(rng.standard_normal(int(nb)) + 0.5)
        c = EmpiricalMeasure(rng.uniform(-2, 2, int(nc)))
        dab = wasserstein_p(a, b)
        dac = wasserstein_p(a, c)
        dcb = wasserstein_p(c, b)
        assert dab <= dac + dcb + 1e-9


def test_wasserstein_unequal_shift():
    # Shift identity survives the quantile-grid path when counts differ.
    rng = np.random.default_rng(8)
    x = rng.standard_normal(40)
    a = EmpiricalMeasure(x)
    b = EmpiricalMeasure(np.concatenate([x, x]) + 0.75)  # same law, doubled, shifted
    assert abs(wasserstein_p(a, b) - 0.75) <= EXACT


def test_wasserstein_rejects_stacked_measure():
    a = EmpiricalMeasure([0.0, 1.0])
    stack = EmpiricalMeasure([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        wasserstein_p(a, stack)
    with pytest.raises(ValueError):
        wasserstein_p(stack, a)


def test_batched_measure_matches_rowwise():
    # A (batch, n) stack gives each row's lone statistic bit for bit, as a
    # (batch, 1) column.
    rng = np.random.default_rng(11)
    states = rng.standard_normal((5, 64))
    bm = EmpiricalMeasure(states)
    assert len(bm) == 64
    stats = [("mean", ()), ("moment", (2.0,)), ("clamped_mean", (0.7,)), ("clamped_mean", (np.inf,))]
    for stat, args in stats:
        col = getattr(bm, stat)(*args)
        assert col.shape == (5, 1)
        for i in range(5):
            lone = getattr(EmpiricalMeasure(states[i]), stat)(*args)
            assert isinstance(lone, float)
            assert col[i, 0] == lone


def test_wasserstein_unequal_sizes_on_midpoint_grid():
    # Unequal counts compare the right-continuous inverse CDFs x_(floor(u*n)+1)
    # at the 10,000 midpoint levels u: 1,667 levels lie in [1/2, 2/3), where
    # the inverses are 1 and 0, and 3,333 lie in [2/3, 1), where they are 1
    # and 3. The exact W1 is 5/6; the grid gives (1667 + 2 * 3333) / 10000.
    a = EmpiricalMeasure([0.0, 1.0])
    b = EmpiricalMeasure([0.0, 0.0, 3.0])
    assert wasserstein_p(a, b) == 0.8333
    assert wasserstein_p(b, a) == 0.8333
