"""Tests for model specs and the Hamiltonian machinery."""

import math
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from palab.contracts import Contract, contract_report
from palab.measures import EmpiricalMeasure
from palab.model import (
    DEFAULT_PROBES,
    TOL_A,
    TOL_H,
    AmbiguousMaximizerError,
    ModelSpec,
    NumericDomainError,
    exp_saturating_utility,
    hamiltonian_h,
    identity_utility,
    maximize_hamiltonian,
    multitask_model,
    normal_law,
    point_mass,
    quadratic_generic_model,
    reduced_coefficients,
    slope_over_sigma,
)
from palab.sde_engine import SeedSpec, SimGrid, simulate_particles

EXACT = 1e-12
ARGMAX_TOL = 1e-6  # golden-section location accuracy we rely on
ENVELOPE_TOL = 1e-8


def _measure(mean=0.0):
    return EmpiricalMeasure(np.array([mean - 0.5, mean + 0.5]))


# ---------------------------------------------------------------------------
# hamiltonian_h
# ---------------------------------------------------------------------------


def test_hamiltonian_value_no_interaction():
    # b = a, sigma = 1, L = -a^2/2: h = a*z - a^2/2; at z = 1, a = 1 -> 1/2
    model = multitask_model(0.0)
    m = _measure(0.0)
    h = hamiltonian_h(model, 0.0, 0.0, m, 0.0, 1.0, 1.0)
    assert abs(h - 0.5) <= EXACT


def test_hamiltonian_value_with_interaction():
    # kappa = 0.5, measure mean 2, no clamp: b = a + 1
    model = multitask_model(0.5)
    m = _measure(2.0)
    z, a = 0.7, -0.3
    expect = (a + 0.5 * 2.0) * z - 0.5 * a * a
    assert abs(hamiltonian_h(model, 0.0, 0.0, m, 0.0, z, a) - expect) <= EXACT


def test_hamiltonian_clamp_binds():
    # same but b_bar = 1: clamped mean is 1, not 2
    model = multitask_model(0.5, b_bar=1.0)
    m = _measure(2.0)
    z, a = 0.7, -0.3
    expect = (a + 0.5 * 1.0) * z - 0.5 * a * a
    assert abs(hamiltonian_h(model, 0.0, 0.0, m, 0.0, z, a) - expect) <= EXACT


def test_hamiltonian_affine_in_slope():
    # h(z1 + z2) + h(0) = h(z1) + h(z2) for every fixed action
    model = quadratic_generic_model(a_base=0.8, sigma0=1.7)
    m = _measure(0.3)
    rng = np.random.default_rng(31)
    for _ in range(100):
        z1, z2, a = rng.uniform(-4, 4, 3)
        lhs = hamiltonian_h(model, 0.2, 0.1, m, 0.0, z1 + z2, a) + hamiltonian_h(
            model, 0.2, 0.1, m, 0.0, 0.0, a
        )
        rhs = hamiltonian_h(model, 0.2, 0.1, m, 0.0, z1, a) + hamiltonian_h(
            model, 0.2, 0.1, m, 0.0, z2, a
        )
        assert abs(lhs - rhs) <= 1e-10


def test_hamiltonian_nonfinite_raises():
    model = multitask_model(0.0)
    model = replace(model, vol_sigma=lambda t, x: 0.0)
    with pytest.raises(NumericDomainError):
        hamiltonian_h(model, 0.0, 0.0, _measure(), 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# slope_over_sigma conventions
# ---------------------------------------------------------------------------


def test_slope_over_sigma():
    assert slope_over_sigma(0.0, 0.0) == 0.0
    assert slope_over_sigma(0.0, 2.0) == 0.0
    assert slope_over_sigma(3.0, 2.0) == 1.5
    assert np.isinf(slope_over_sigma(1.0, 0.0))
    out = slope_over_sigma(np.array([0.0, 1.0, -2.0]), 0.5)
    assert np.array_equal(out, [0.0, 2.0, -4.0])
    # array slope against zero volatility: zero entries stay finite
    out2 = slope_over_sigma(np.array([0.0, 1.0]), 0.0)
    assert out2[0] == 0.0 and np.isinf(out2[1])


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2e-308, math.nan, math.inf, -math.inf, 1e300, -1.0]
_EDGE_SIGMAS = [1.0, 0.0, 2.0, 3.0, 0.5, 1e300]
_slopes = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)


def _with_edge_examples(test):
    # every edge slope against every edge sigma, on top of the drawn examples
    for sig in _EDGE_SIGMAS + [np.array([0.0, 1.0, 2.5])]:
        test = example(z=np.array(_EDGE_FLOATS), sig=sig)(test)
    return test


@_with_edge_examples
@given(
    z=_slopes | hnp.arrays(np.float64, st.integers(0, 6), elements=_slopes),
    sig=st.sampled_from(_EDGE_SIGMAS)
    | st.floats(min_value=1e-300, max_value=1e300)
    | hnp.arrays(np.float64, 3, elements=st.floats(0.0, 4.0)),
)
def test_slope_over_sigma_bits_match_reference(z, sig):
    # every path returns the bits of the masked division, signed zeros (a
    # zero slope gives +0.0, a nonzero one that underflows keeps its sign)
    # and NaN included
    if isinstance(z, np.ndarray) and isinstance(sig, np.ndarray):
        z = np.resize(z, 3)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ref = np.where(np.asarray(z) == 0.0, 0.0, np.asarray(z) / sig)
        out = slope_over_sigma(z, sig)
    assert type(out) is (float if ref.ndim == 0 else np.ndarray)
    assert np.array_equal(out, ref, equal_nan=True)
    num = ~np.isnan(ref)
    assert np.array_equal(np.signbit(out)[num], np.signbit(ref)[num])


# ---------------------------------------------------------------------------
# maximizers
# ---------------------------------------------------------------------------


def test_quadratic_maximizer_against_grid_oracle():
    # true argmax of a*z - (a - a_base)^2/2 is a_base + z; check the numeric
    # path against a brute-force grid as well as the closed form
    model = quadratic_generic_model(a_base=1.0, sigma0=1.0)
    m = _measure()
    for z in [0.0, -1.3, 2.4]:
        a_star = maximize_hamiltonian(model, 0.0, 0.0, m, 0.0, z)
        grid = np.linspace(*model.action_bounds, 160001)
        vals = grid * z - 0.5 * (grid - 1.0) ** 2
        a_grid = grid[np.argmax(vals)]
        assert abs(a_star - (1.0 + z)) <= ARGMAX_TOL
        assert abs(a_star - a_grid) <= 1e-4 + ARGMAX_TOL


def test_maximizer_respects_action_bounds():
    # slope large enough that the unconstrained argmax is outside the box
    model = quadratic_generic_model(a_base=0.5, sigma0=1.0)
    a_star = maximize_hamiltonian(model, 0.0, 0.0, _measure(), 0.0, 100.0)
    assert abs(a_star - model.action_bounds[1]) <= ARGMAX_TOL


def test_analytic_maximizer_agrees_with_golden():
    # strip the analytic shortcut from the multitask model and check the
    # numeric search reproduces alpha = z/sigma
    base = multitask_model(0.5)
    model = replace(base, analytic_maximizer=None)
    m = _measure(1.0)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        t, x = rng.uniform(0, 1), rng.uniform(-2, 2)
        z = rng.uniform(-5, 5)
        a_star = maximize_hamiltonian(model, t, x, m, 0.0, z)
        worst = max(worst, abs(a_star - z))
    assert worst <= ARGMAX_TOL


def _bimodal_model():
    # L = -(a^2 - 1)^2: at zero slope two global maxima at a = +-1
    return ModelSpec(
        drift_b=lambda t, x, m, e, a: np.asarray(a, dtype=float),
        vol_sigma=lambda t, x: 1.0,
        running_cost_L=lambda t, x, m, e, a: -((np.asarray(a) ** 2 - 1.0) ** 2),
        terminal_utility_g=lambda m, e: e,
        g_inverse=lambda m, y: y,
        principal_running_cost_LP=lambda t, e: 0.0,
        principal_terminal_cost_gP=lambda m, e: e,
        production_utility_Upsilon=lambda x: x,
        principal_utility_U=identity_utility,
        initial_law_nu=point_mass(0.0),
        reservation_R=0.0,
        action_bounds=(-3.0, 3.0),
    )


def test_ambiguous_maximizer_detected():
    model = _bimodal_model()
    with pytest.raises(AmbiguousMaximizerError):
        maximize_hamiltonian(model, 0.0, 0.0, _measure(), 0.0, 0.0)
    # a nonzero slope breaks the tie and the search succeeds
    a_star = maximize_hamiltonian(model, 0.0, 0.0, _measure(), 0.0, 0.5)
    assert 0.9 < a_star < 1.3


def test_ambiguous_maximizer_detected_on_hot_paths():
    # the simulation and the contract report run the same tie check as the
    # scalar call: a zero slope on the bimodal model must raise, not drift
    # every agent silently toward one of the two maxima
    model = _bimodal_model()
    grid = SimGrid(1.0, 5)
    zero = lambda t, x: 0.0
    x = np.zeros(4)
    with pytest.raises(AmbiguousMaximizerError):
        maximize_hamiltonian(model, 0.0, x, EmpiricalMeasure(x), 0.0, np.zeros(4))
    with pytest.raises(AmbiguousMaximizerError):
        simulate_particles(model, zero, zero, 4, grid, SeedSpec(0))
    c = Contract(Y0=0.0, gamma=zero, aleph=zero)
    with pytest.raises(AmbiguousMaximizerError):
        contract_report(c, model, 4, grid, 3, SeedSpec(0))
    # one element with a tie is enough, even when the others have none
    with pytest.raises(AmbiguousMaximizerError):
        maximize_hamiltonian(
            model, 0.0, x, EmpiricalMeasure(x), 0.0, np.array([0.5, -0.5, 0.0, 1.0])
        )


def test_maximizer_returns_higher_of_two_peaks():
    # a broad peak of height 1 at a = -4 holds the best probe (probes sit on
    # multiples of 0.5); the higher, narrow peak of height 1.5 at a = 2.25
    # falls between probes and only shows as a lower probe-local maximum
    model = replace(
        _bimodal_model(),
        running_cost_L=lambda t, x, m, e, a: np.exp(-np.square((np.asarray(a) + 4.0) / 2.0))
        + 1.5 * np.exp(-np.square((np.asarray(a) - 2.25) / 0.25)),
        action_bounds=(-8.0, 8.0),
    )
    L = lambda a: model.running_cost_L(0.0, 0.0, None, 0.0, a)
    probes = np.linspace(-8.0, 8.0, 33)
    assert probes[np.argmax(L(probes))] == -4.0
    a_star = maximize_hamiltonian(model, 0.0, 0.0, _measure(), 0.0, 0.0)
    fine = np.linspace(-8.0, 8.0, 160001)
    assert abs(a_star - fine[np.argmax(L(fine))]) <= 1e-4 + ARGMAX_TOL
    assert L(a_star) > 1.49
    x = np.zeros(3)
    a_vec = maximize_hamiltonian(model, 0.0, x, EmpiricalMeasure(x), 0.0, np.zeros(3))
    assert np.array_equal(a_vec, np.full(3, a_star))


def test_maximize_needs_finite_bounds():
    # an empty or one-point box is refused too, on scalar and array calls
    for bounds in [(-math.inf, math.inf), (1.0, 1.0), (2.0, 1.0)]:
        model = replace(quadratic_generic_model(), action_bounds=bounds)
        with pytest.raises(ValueError):
            maximize_hamiltonian(model, 0.0, 0.0, _measure(), 0.0, 0.0)
        with pytest.raises(ValueError):
            maximize_hamiltonian(model, 0.0, np.zeros(2), _measure(), 0.0, np.zeros(2))


def _reference_maximizer(model, t, x, m, e, z):
    """The per-probe, two-calls-per-step search maximize_hamiltonian replaced.

    Every probe is one objective call broadcast to x's shape, and each
    golden step calls the objective at c and at d separately; the result
    bits must not depend on which of the two searches ran.
    """
    lo, hi = model.action_bounds
    x = np.asarray(x, dtype=float)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def objective(a):
        return model.drift_b(t, x, m, e, a) * z + model.running_cost_L(t, x, m, e, a)

    grid = np.linspace(lo, hi, DEFAULT_PROBES)
    vals = np.stack([np.broadcast_to(objective(a), x.shape) for a in grid])
    if not np.isfinite(vals).all():
        raise NumericDomainError("non-finite Hamiltonian probe value")
    step = grid[1] - grid[0]
    n_iter = max(int(math.ceil(math.log(TOL_A / (2.0 * step)) / math.log(invphi))) + 1, 1)

    def refine(probe):
        a_lo = np.maximum(grid[probe] - step, lo)
        a_hi = np.minimum(grid[probe] + step, hi)
        for _ in range(n_iter):
            c = a_hi - invphi * (a_hi - a_lo)
            d = a_lo + invphi * (a_hi - a_lo)
            take_left = objective(c) >= objective(d)
            a_hi = np.where(take_left, d, a_hi)
            a_lo = np.where(take_left, a_lo, c)
        return 0.5 * (a_lo + a_hi)

    best = np.argmax(vals, axis=0)
    a_star = refine(best)
    peaks = np.ones(vals.shape, dtype=bool)
    peaks[1:] &= vals[1:] >= vals[:-1]
    peaks[:-1] &= vals[:-1] >= vals[1:]
    np.put_along_axis(peaks, best[None], False, axis=0)
    multi = peaks.any(axis=0)
    if not multi.any():
        return float(a_star) if a_star.ndim == 0 else a_star
    cands = [a_star]
    while peaks.any():
        probe = np.where(peaks.any(axis=0), np.argmax(peaks, axis=0), best)
        np.put_along_axis(peaks, probe[None], False, axis=0)
        cands.append(refine(probe))
    cands = np.stack(cands)
    values = np.stack([np.broadcast_to(objective(a), x.shape) for a in cands])
    top = np.argmax(values, axis=0)[None]
    a_top = np.take_along_axis(cands, top, axis=0)
    h_top = np.take_along_axis(values, top, axis=0)
    tie = multi & (np.abs(cands - a_top) > TOL_A) & (np.abs(values - h_top) < TOL_H)
    if tie.any():
        raise AmbiguousMaximizerError("two maximizers")
    a_star = np.where(multi, a_top[0], a_star)
    return float(a_star) if a_star.ndim == 0 else a_star


def _oracle_cases():
    rng = np.random.default_rng(16)
    quad = quadratic_generic_model(a_base=0.3, sigma0=1.0)
    stack = rng.normal(size=(6, 100))
    x1 = rng.normal(size=100)
    # drift a·(1 + tanh(x)/2) depends on x; drift a·(1 + mean/4) on the measure
    x_drift = replace(quad, drift_b=lambda t, x, m, e, a: a * (1.0 + 0.5 * np.tanh(x)))
    m_drift = replace(quad, drift_b=lambda t, x, m, e, a: a * (1.0 + 0.25 * m.mean()))
    two_peaks = replace(
        _bimodal_model(),
        running_cost_L=lambda t, x, m, e, a: np.exp(-np.square((np.asarray(a) + 4.0) / 2.0))
        + 1.5 * np.exp(-np.square((np.asarray(a) - 2.25) / 0.25)),
        action_bounds=(-8.0, 8.0),
    )
    # a running cost that is NaN on a band between the probes 0.0 and 0.5;
    # adding 0 * x makes the same objective state-dependent
    nan_band = replace(
        quad,
        running_cost_L=lambda t, x, m, e, a: np.where(
            np.abs(a - 0.3) < 0.05, np.nan, -0.5 * np.square(a - 0.3)
        ),
    )
    nan_band_x = replace(
        quad,
        running_cost_L=lambda t, x, m, e, a: nan_band.running_cost_L(t, x, m, e, a) + 0.0 * x,
    )
    # the narrow peak of two_peaks scaled by max(x, 0): elements with x <= 0
    # have one probe-local maximum, the others more, so ranks get padded
    ragged_peaks = replace(
        two_peaks,
        running_cost_L=lambda t, x, m, e, a: np.exp(-np.square((np.asarray(a) + 4.0) / 2.0))
        + 1.5 * np.maximum(x, 0.0) * np.exp(-np.square((np.asarray(a) - 2.25) / 0.25)),
    )
    return {
        "quadratic-scalar-slope": (quad, stack, 0.7),
        "quadratic-array-slope": (quad, stack, rng.uniform(-3.0, 3.0, stack.shape)),
        "quadratic-column-slope": (quad, stack, rng.uniform(-3.0, 3.0, (6, 1))),
        "x-dependent-drift": (x_drift, x1, rng.uniform(-3.0, 3.0, x1.shape)),
        "measure-dependent-drift": (m_drift, stack, 1.1),
        "scalar-x": (quad, 0.4, -1.3),
        "higher-of-two-peaks": (two_peaks, np.zeros((2, 3)), 0.0),
        "x-dependent-drift-one-element": (x_drift, x1[:1], rng.uniform(-3.0, 3.0, 1)),
        "nan-band-state-independent": (nan_band, stack, 0.0),
        "nan-band-state-dependent": (nan_band_x, stack, 0.0),
        "peak-count-differs": (ragged_peaks, np.stack([np.linspace(-1.0, 2.0, 7)] * 2), 0.0),
    }


@pytest.mark.parametrize("case", list(_oracle_cases()))
def test_maximizer_bits_match_reference(case):
    model, x, z = _oracle_cases()[case]
    m = EmpiricalMeasure(x) if np.ndim(x) else _measure()
    got = maximize_hamiltonian(model, 0.3, x, m, 0.0, z)
    want = _reference_maximizer(model, 0.3, x, m, 0.0, z)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) == np.shape(x)
    assert np.array_equal(got, want)


def test_one_element_search_matches_array_search():
    # golden steps that land in the NaN band compare NaN; a one-element
    # search (Python floats) and a state-dependent one (arrays) must still
    # land on the same bits
    cases = _oracle_cases()
    results = []
    for case in ("nan-band-state-independent", "nan-band-state-dependent"):
        model, x, z = cases[case]
        results.append(maximize_hamiltonian(model, 0.3, x, EmpiricalMeasure(x), 0.0, z))
    assert np.array_equal(results[0], results[1])


def test_maximizer_ties_raise_in_both_searches():
    x = np.zeros(4)
    flat = replace(
        _bimodal_model(),
        drift_b=lambda t, x, m, e, a: np.zeros_like(x),
        running_cost_L=lambda t, x, m, e, a: -np.square(x),
    )
    for search in (maximize_hamiltonian, _reference_maximizer):
        with pytest.raises(AmbiguousMaximizerError):
            search(_bimodal_model(), 0.0, x, EmpiricalMeasure(x), 0.0, 0.0)
        with pytest.raises(AmbiguousMaximizerError):
            search(_bimodal_model(), 0.0, 0.0, _measure(), 0.0, 0.0)
        # an objective that ignores the action ties everywhere
        with pytest.raises(AmbiguousMaximizerError):
            search(flat, 0.0, x, EmpiricalMeasure(x), 0.0, 0.5)


def test_maximizer_work_and_result_shape():
    # all probes in one objective call, then one call per golden step
    calls = []

    def drift(t, x, m, e, a):
        calls.append(np.shape(a))
        return np.asarray(a, dtype=float) + 0.0

    # on the (-8, 8) bounds: 1 probe call + 40 golden steps
    model = replace(quadratic_generic_model(), drift_b=drift)
    x = np.zeros((6, 100))
    m = EmpiricalMeasure(x)
    for z in (0.5, np.linspace(-1.0, 1.0, 600).reshape(x.shape)):
        calls.clear()
        first = maximize_hamiltonian(model, 0.0, x, m, 0.0, z)
        assert len(calls) == 41
        second = maximize_hamiltonian(model, 0.0, x, m, 0.0, z)
        for a_star in (first, second):
            assert a_star.shape == x.shape
            assert a_star.flags.writeable
        assert not np.shares_memory(first, second)
    # two peaks: one golden search over both brackets, one call per step,
    # and one call to compare the two refined candidates
    two_peaks = replace(_oracle_cases()["higher-of-two-peaks"][0], drift_b=drift)
    for x2, z in ((0.0, 0.0), (np.zeros(3), np.zeros(3)), (x, np.zeros(x.shape))):
        calls.clear()
        maximize_hamiltonian(two_peaks, 0.0, x2, m, 0.0, z)
        assert len(calls) == 42
    calls.clear()
    maximize_hamiltonian(model, 0.0, 0.0, _measure(), 0.0, 0.5)
    assert len(calls) == 41
    # a slope with more dimensions than x is refused, also when its leading
    # axis has length 1 and would line up with the actions' axis
    for z in (np.zeros((1, 6, 100)), np.zeros((2, 6, 100))):
        with pytest.raises(ValueError):
            maximize_hamiltonian(model, 0.0, x, m, 0.0, z)
    with pytest.raises(ValueError):
        maximize_hamiltonian(model, 0.0, 0.0, _measure(), 0.0, np.zeros(1))
    # values that do not broadcast to x's shape are refused before the search
    with pytest.raises(ValueError, match="do not broadcast"):
        maximize_hamiltonian(model, 0.0, np.zeros((6, 1)), m, 0.0, np.zeros((6, 100)))


# ---------------------------------------------------------------------------
# reduced coefficients / envelope
# ---------------------------------------------------------------------------


def test_nonfinite_coefficients_at_numeric_maximizer_raise():
    # the search checks only its probes and ends at a = 0.34999999998, inside
    # the NaN band of L: the node evaluation refuses the NaN running cost
    cases = _oracle_cases()
    x = np.zeros(4)
    zero = lambda t, x: 0.0
    for case in ("nan-band-state-independent", "nan-band-state-dependent"):
        model = cases[case][0]
        for x_node in (0.0, x):
            with pytest.raises(NumericDomainError, match="numeric maximizer"):
                reduced_coefficients(model, 0.3, x_node, EmpiricalMeasure(x), 0.0, 0.0)
        with pytest.raises(NumericDomainError, match="numeric maximizer"):
            simulate_particles(model, zero, zero, 4, SimGrid(1.0, 5), SeedSpec(0))


def test_reduced_coefficients_multitask_closed_form():
    model = multitask_model(0.5, b_bar=1.0)
    m = _measure(2.0)  # clamped mean = 1
    z = 0.8
    b_hat, l_hat, big_h = reduced_coefficients(model, 0.0, 0.0, m, 0.0, z)
    # alpha = z (sigma = 1), b = z + 0.5*1, L = -z^2/2, H = b*z + L
    assert abs(b_hat - (z + 0.5)) <= EXACT
    assert abs(l_hat - (-0.5 * z * z)) <= EXACT
    assert abs(big_h - ((z + 0.5) * z - 0.5 * z * z)) <= EXACT


def test_reduced_coefficients_array_matches_scalar():
    model = quadratic_generic_model(a_base=0.3)
    m = _measure(0.0)
    xs = np.array([-1.0, 0.0, 2.0])
    zs = np.array([0.5, -1.0, 2.0])
    b_vec, l_vec, h_vec = reduced_coefficients(model, 0.1, xs, m, 0.0, zs)
    for i in range(3):
        b_i, l_i, h_i = reduced_coefficients(model, 0.1, float(xs[i]), m, 0.0, float(zs[i]))
        # one routine serves both calls, so they agree bit for bit
        assert b_vec[i] == b_i
        assert l_vec[i] == l_i
        assert h_vec[i] == h_i


def test_envelope_property_random_tuples():
    # H(t,x,m,e,z) >= h(t,x,m,e,z,a) for all a, equality at the maximizer
    rng = np.random.default_rng(404)
    models = [
        multitask_model(0.5, b_bar=2.0),
        multitask_model(-1.0),
        quadratic_generic_model(a_base=0.7, sigma0=1.5),
    ]
    actions = np.linspace(-8.0, 8.0, 101)
    for model in models:
        analytic = model.analytic_maximizer is not None
        for _ in range(60):
            t = float(rng.uniform(0, 1))
            x = float(rng.uniform(-2, 2))
            m = EmpiricalMeasure(rng.standard_normal(8))
            z = float(rng.uniform(-4, 4))
            _, _, big_h = reduced_coefficients(model, t, x, m, 0.0, z)
            h_vals = np.array(
                [hamiltonian_h(model, t, x, m, 0.0, z, a) for a in actions]
            )
            assert big_h >= h_vals.max() - ENVELOPE_TOL
            if analytic:
                zsig = z / model.vol_sigma(t, x)
                a_hat = model.analytic_maximizer(t, x, m, 0.0, zsig)
                h_at_max = hamiltonian_h(model, t, x, m, 0.0, z, a_hat)
                assert abs(big_h - h_at_max) <= ENVELOPE_TOL


# ---------------------------------------------------------------------------
# params, laws, utilities
# ---------------------------------------------------------------------------


def test_builders_validate_their_parameters():
    # a clamp level must be > 0 (NaN fails), and the default is no clamp
    for b_bar in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="b_bar must be > 0"):
            multitask_model(0.5, b_bar)
    far = EmpiricalMeasure(np.array([1e6, 1e6 + 2.0]))
    assert multitask_model(0.5).drift_b(0.0, 0.0, far, 0.0, 0.0) == 0.5 * (1e6 + 1.0)
    # sigma0 must be finite and > 0, so a NaN or inf fails at build time, not
    # at the first step
    for sigma0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma0 must be finite and > 0"):
            quadratic_generic_model(sigma0=sigma0)


def test_initial_laws():
    rng = np.random.default_rng(0)
    x = point_mass(1.5)(4, rng)
    assert np.array_equal(x, [1.5, 1.5, 1.5, 1.5])
    y = normal_law(2.0, 0.5)(200_000, np.random.default_rng(1))
    assert abs(y.mean() - 2.0) < 0.01
    assert abs(y.std() - 0.5) < 0.01


def test_utilities():
    assert identity_utility(3.7) == 3.7
    assert exp_saturating_utility(0.0) == 0.0
    v = np.linspace(-2, 2, 41)
    u = exp_saturating_utility(v)
    assert np.all(np.diff(u) > 0)  # increasing
    assert np.all(np.diff(np.diff(u)) < 0)  # concave
    assert np.all(u < 1.0)  # bounded above by 1
