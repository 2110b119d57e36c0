"""Tests for the limit control problem: closed forms, evaluation, search."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import conftest
from palab.mkv_control import (
    MultitaskAnalytic,
    PolicyParam,
    evaluate_limit_objective,
    minimize,
    optimize_policy,
)
from palab.model import multitask_model, normal_law, point_mass
from palab import mkv_control, sde_engine
from palab.sde_engine import SeedSpec, SimGrid

CLOSED_FORM_TOL = 1e-8
KNOT_TOL = 0.05  # coefficient recovery accuracy we promise
VALUE_NEAR = 5e-3


def _zero(t, x):
    return 0.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_against_quadrature():
    for kappa, frozen in conftest.HALF_GAMMA_SQ_FROZEN.items():
        am = MultitaskAnalytic(kappa)
        oracle = 0.5 * conftest.simpson_gamma_sq_integral(kappa)
        assert abs(0.5 * am.gamma_sq_integral - oracle) <= CLOSED_FORM_TOL
        assert abs(0.5 * am.gamma_sq_integral - frozen) <= 1e-12


def test_closed_form_assembly():
    R, T, E_iota, kappa = 0.3, 1.0, 0.25, 0.5
    am = MultitaskAnalytic(kappa, R=R, T=T, E_iota=E_iota)
    half = conftest.HALF_GAMMA_SQ_FROZEN[kappa]
    assert abs(R + 0.5 * am.gamma_sq_integral - (R + half)) <= 1e-12
    assert abs(am.V_infinity - (-R + math.exp(kappa * T) * E_iota + half)) <= 1e-12
    # kappa = 0 degenerates to the flat slope with integral T
    am0 = MultitaskAnalytic(0.0)
    assert am0.gamma_sq_integral == 1.0
    assert am0.V_infinity == 0.5


def test_gamma_hat_shape():
    am = MultitaskAnalytic(0.5, T=1.0)
    assert abs(am.gamma_hat(1.0) - 1.0) <= 1e-15
    assert abs(am.gamma_hat(0.0) - math.exp(0.5)) <= 1e-15
    # state argument is ignored (the optimal slope is a function of time only)
    assert am.gamma_hat(0.3, x=5.0) == am.gamma_hat(0.3)
    arr = am.gamma_hat(0.3, x=np.zeros(4))
    assert np.ndim(arr) == 0 or np.allclose(arr, am.gamma_hat(0.3))


def test_gamma_hat_solves_terminal_condition():
    # gamma_hat is the unique solution of gamma'(t) = -kappa gamma, gamma(T) = 1;
    # verify the ODE by finite differences on a fine grid
    kappa = -0.7
    am = MultitaskAnalytic(kappa, T=2.0)
    t = np.linspace(0.0, 2.0, 2001)
    g = np.array([am.gamma_hat(s) for s in t])
    dg = np.gradient(g, t)
    assert np.max(np.abs(dg + kappa * g)) <= 1e-3
    assert abs(g[-1] - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# PolicyParam plumbing
# ---------------------------------------------------------------------------


def _flat_policy(c0=1.0, knots=(0.0, 0.5, 1.0)):
    m = len(knots) - 1
    return PolicyParam(
        knots=np.asarray(knots),
        gamma_c0=np.full(m, c0),
        gamma_c1=np.zeros(m),
        aleph_c0=np.zeros(m),
        aleph_c1=np.zeros(m),
    )


def test_policy_param_validation():
    with pytest.raises(ValueError):
        _flat_policy(knots=(0.0, 0.5, 0.5))  # not strictly increasing
    with pytest.raises(ValueError):
        PolicyParam(
            knots=np.array([0.0, 1.0]),
            gamma_c0=np.zeros(2),  # wrong length
            gamma_c1=np.zeros(1),
            aleph_c0=np.zeros(1),
            aleph_c1=np.zeros(1),
        )
    for knots in ([[0.0, 0.5], [0.5, 1.0]], [0.0]):  # 2-d, a single knot
        with pytest.raises(ValueError, match="1-d array of at least two times"):
            PolicyParam(np.array(knots), *[np.zeros(1)] * 4)


def test_interval_lookup():
    p = PolicyParam(
        knots=np.array([0.0, 0.5, 1.0]),
        gamma_c0=np.array([1.0, 2.0]),
        gamma_c1=np.array([0.0, 3.0]),
        aleph_c0=np.array([5.0, 6.0]),
        aleph_c1=np.zeros(2),
    )
    assert len(p.knots) - 1 == 2
    assert p.gamma_fn(0.0, 0.0) == 1.0
    assert p.gamma_fn(0.49, 0.0) == 1.0
    assert p.gamma_fn(0.5, 0.0) == 2.0  # right-continuous at the knot
    assert p.gamma_fn(0.75, 2.0) == 2.0 + 3.0 * 2.0  # affine in the state
    assert p.gamma_fn(1.0, 0.0) == 2.0  # horizon end stays in the last interval
    assert p.aleph_fn(0.2, 9.9) == 5.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_policy_param_rejects_non_finite_knots(bad):
    # np.diff(knots) <= 0 is False next to a NaN, so only the finiteness
    # check stops it; the interval lookup would order a NaN knot arbitrarily.
    with pytest.raises(ValueError, match="finite"):
        _flat_policy(knots=(0.0, bad, 1.0))
    with pytest.raises(ValueError, match="finite"):
        _flat_policy(knots=(0.0, 0.5, bad))


def test_interval_lookup_matches_searchsorted():
    knots = np.array([0.0, 0.2, 0.55, 1.0])
    p = _flat_policy(knots=knots)
    between = 0.5 * (knots[:-1] + knots[1:])
    for t in [*knots, *between, -0.0, -0.5, -1e-300, 1.0 + 1e-12, 3.0, math.nan, np.float64(0.2)]:
        j = int(np.searchsorted(knots, t, side="right")) - 1
        assert p._interval(t) == min(max(j, 0), len(p.knots) - 2), t


def test_field_shortcut_bits_match_affine_expression():
    # A zero c1 returns the scalar c0, which must broadcast to the bits of
    # c0 + c1 * x, signed zeros included; a c0 of -0.0 keeps the array.
    x = np.array([-2.5, -1e-310, -0.0, 0.0, 1e-310, 3.0])
    values = (0.0, -0.0, 1.5)
    for c0 in values:
        for c1 in values:
            p = PolicyParam(
                knots=np.array([0.0, 1.0]),
                gamma_c0=np.array([c0]),
                gamma_c1=np.array([c1]),
                aleph_c0=np.array([c0]),
                aleph_c1=np.array([c1]),
            )
            want = np.float64(c0) + np.float64(c1) * x
            for field in (p.gamma_fn, p.aleph_fn):
                got = np.broadcast_to(field(0.5, x), x.shape)
                assert np.array_equal(got, want), (c0, c1)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (c0, c1)


# ---------------------------------------------------------------------------
# objective evaluation
# ---------------------------------------------------------------------------


def test_limit_objective_is_seed_deterministic():
    model = multitask_model(0.5, b_bar=10.0)
    am = MultitaskAnalytic(0.5)
    pol = (am.gamma_hat, _zero)
    grid = SimGrid(1.0, 20)
    a = evaluate_limit_objective(model, pol, N_proxy=500, grid=grid, seed=SeedSpec(3).child(1))
    b = evaluate_limit_objective(model, pol, N_proxy=500, grid=grid, seed=SeedSpec(3).child(1))
    assert a.value == b.value and a.se == b.se
    c = evaluate_limit_objective(model, pol, N_proxy=500, grid=grid, seed=SeedSpec(3).child(2))
    assert c.value != a.value


def test_limit_objective_flat_slope_value():
    # kappa = 0: the optimal slope is identically 1 and the value is 1/2
    model = multitask_model(0.0)
    est = evaluate_limit_objective(
        model, (lambda t, x: 1.0, _zero), N_proxy=20_000, grid=SimGrid(1.0, 100), seed=SeedSpec(17)
    )
    assert abs(est.value - 0.5) <= max(3.0 * est.se, VALUE_NEAR)


def test_limit_objective_zero_policy():
    # gamma = 0 and kappa = 0: no action, no cost, no interaction drift;
    # the value reduces to E[iota] - R
    model = multitask_model(0.0, R=0.2, nu=point_mass(0.3))
    est = evaluate_limit_objective(
        model, (_zero, _zero), N_proxy=5_000, grid=SimGrid(1.0, 50), seed=SeedSpec(23)
    )
    assert abs(est.value - 0.1) <= 3.0 * est.se + 1e-9


def test_limit_objective_scalar_production_utility():
    # a constant Upsilon returned as a scalar stands for N equal entries, as
    # in the contract pass: it prices exactly as the same constant per particle
    model = multitask_model(0.5)
    kwargs = dict(policy=(lambda t, x: 1.0, _zero), N_proxy=300, grid=SimGrid(1.0, 10), seed=SeedSpec(4))
    lone = evaluate_limit_objective(replace(model, production_utility_Upsilon=lambda x: 0.0), **kwargs)
    full = evaluate_limit_objective(replace(model, production_utility_Upsilon=np.zeros_like), **kwargs)
    assert lone.value == full.value and lone.se == full.se


def _parity_setup():
    # b_bar = 0.5 with a narrow initial law: the early steps stay inside the
    # clamp and the later ones cross it. L_P = e lets the rate field reach
    # the value; the policy has -0.0 and zero-c1 entries in both fields.
    kappa, b_bar = 0.7, 0.5
    model = replace(
        multitask_model(kappa, b_bar=b_bar, R=0.1, nu=normal_law(0.0, 0.05)),
        principal_running_cost_LP=lambda t, e: e,
    )
    policy = PolicyParam(
        knots=np.array([0.0, 0.3, 0.7, 1.0]),
        gamma_c0=np.array([0.9, -0.0, 1.2]),
        gamma_c1=np.array([0.0, 0.0, 0.4]),
        aleph_c0=np.array([-0.0, 0.25, 0.0]),
        aleph_c1=np.array([0.0, -0.0, 0.3]),
    )
    return model, kappa, b_bar, policy, SimGrid(1.0, 40)


def test_limit_objective_equals_plain_reference_loop():
    model, kappa, b_bar, policy, grid = _parity_setup()
    seed, N = SeedSpec(61), 2_000
    est = evaluate_limit_objective(model, (policy.gamma_fn, policy.aleph_fn), N, grid, seed)
    rng = seed.generator()
    x0 = np.asarray(model.initial_law_nu(N, rng), dtype=float)
    value, se, crossings = conftest.reference_multitask_objective(
        model, kappa, b_bar, policy, grid, x0, lambda k: rng.standard_normal(N)
    )
    assert any(crossings) and not all(crossings)
    assert est.value == value and est.se == se


def _reference_search(names, N, seed, budget):
    """The search's trace by a plain loop: the vector is the arrays `names`, in order."""
    model, kappa, b_bar, policy, grid = _parity_setup()
    rng = seed.generator()
    x0 = np.asarray(model.initial_law_nu(N, rng), dtype=float)
    normals = [rng.standard_normal(N) for _ in range(grid.steps)]
    m = len(policy.knots) - 1
    trace, crossed = [], set()

    def value_of(vec):
        candidate = replace(policy, **{name: vec[i * m : (i + 1) * m] for i, name in enumerate(names)})
        value, _, crossings = conftest.reference_multitask_objective(
            model, kappa, b_bar, candidate, grid, x0, normals.__getitem__
        )
        trace.append(value)
        crossed.update(crossings)
        return value

    v0 = np.concatenate([getattr(policy, name) for name in names])
    value_of(v0)
    minimize(lambda v: -value_of(v), v0, (-math.inf, math.inf), budget, xatol=1e-4, fatol=1e-7)
    assert len(trace) == budget + 1  # the initial policy, then the search
    return trace, crossed


def test_optimize_trace_equals_plain_reference_loop(monkeypatch):
    model, kappa, b_bar, policy, grid = _parity_setup()
    seed, N, budget, parts = SeedSpec(62), 500, 20, ("gamma", "aleph_c0")
    # blocks of 7 steps: the stream reuses its block for steps 7, 14, ...,
    # so a cache that kept the yielded views instead of copying them would
    # hold the last block's increments in every slot
    monkeypatch.setattr(sde_engine, "_DRAW_BLOCK_ELEMENTS", 7 * N)
    res = optimize_policy(model, policy, N, grid, seed, budget=budget, parts=parts)
    trace, crossed = _reference_search(("gamma_c0", "gamma_c1", "aleph_c0"), N, seed, budget)
    assert crossed == {True, False}
    assert res.trace == trace


def test_optimize_searches_parts_in_order_without_repeats():
    # "gamma" expands to gamma_c0, gamma_c1 in place, a part named again adds
    # nothing, and a generator of parts searches as its tuple does
    model, _, _, policy, grid = _parity_setup()
    seed, N, budget, parts = SeedSpec(63), 300, 15, ("aleph_c1", "gamma", "gamma_c0")
    trace, _ = _reference_search(("aleph_c1", "gamma_c0", "gamma_c1"), N, seed, budget)
    for given in (parts, iter(parts)):
        res = optimize_policy(model, policy, N, grid, seed, budget=budget, parts=given)
        assert res.trace == trace
        assert np.array_equal(res.policy.aleph_c0, policy.aleph_c0)  # not searched


def test_optimize_rejects_an_unknown_part_before_any_draw(monkeypatch):
    def no_stream(*args):
        raise AssertionError("the stream was read")

    monkeypatch.setattr(mkv_control, "_stream", no_stream)
    model, _, _, policy, grid = _parity_setup()
    with pytest.raises(ValueError, match="unknown policy part 'delta'"):
        optimize_policy(model, policy, 100, grid, SeedSpec(0), parts=("gamma", "delta"))


def test_objective_concave_in_constant_slope():
    # under common random numbers the sampled objective inherits the exact
    # concavity of c -> c - c^2/2 around the optimum at c = 1
    model = multitask_model(0.0)
    grid = SimGrid(1.0, 50)
    vals = {}
    for c in (0.0, 0.5, 1.0, 1.5, 2.0):
        est = evaluate_limit_objective(
            model, (lambda t, x, c=c: c, _zero), N_proxy=20_000, grid=grid, seed=SeedSpec(100)
        )
        vals[c] = est.value
    assert vals[1.0] > vals[0.5] > vals[0.0]
    assert vals[1.0] > vals[1.5] > vals[2.0]
    # symmetric pairs have equal true values; CRN keeps the sampled gap tiny
    assert abs(vals[0.5] - vals[1.5]) < 5e-3
    assert abs(vals[0.0] - vals[2.0]) < 5e-3


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def test_optimize_recovers_flat_optimum():
    model = multitask_model(0.0)
    initial = _flat_policy(c0=0.5, knots=np.linspace(0.0, 1.0, 5))
    res = optimize_policy(
        model,
        initial,
        N_proxy=4_000,
        grid=SimGrid(1.0, 50),
        seed=SeedSpec(7),
        budget=200,
        parts=("gamma_c0",),
    )
    assert np.max(np.abs(res.policy.gamma_c0 - 1.0)) <= KNOT_TOL
    assert np.all(res.policy.gamma_c1 == 0.0)  # frozen parts untouched
    assert abs(res.value - 0.5) <= 0.05
    assert res.value >= res.trace[0]
    assert len(res.trace) <= 200 + 2
    assert res.value == max(res.trace)


def test_optimize_keeps_optimum():
    # started exactly at the closed-form slope, the best-seen policy cannot
    # drift away: the optimum is a fixed point up to search noise
    kappa = 0.5
    am = MultitaskAnalytic(kappa)
    model = multitask_model(kappa, b_bar=10.0)
    knots = np.linspace(0.0, 1.0, 5)
    mids = 0.5 * (knots[:-1] + knots[1:])
    zeros = np.zeros(4)
    initial = PolicyParam(knots, am.gamma_hat(mids), zeros, zeros, zeros)
    res = optimize_policy(
        model, initial, N_proxy=4_000, grid=SimGrid(1.0, 50), seed=SeedSpec(8), budget=80,
        parts=("gamma_c0",),
    )
    assert res.value >= res.trace[0]
    targets = np.array([am.gamma_hat(t) for t in mids])
    assert np.max(np.abs(res.policy.gamma_c0 - targets)) <= KNOT_TOL


def test_optimize_respects_bounds():
    model = multitask_model(0.0)
    initial = _flat_policy(c0=1.0, knots=(0.0, 1.0))
    res = optimize_policy(
        model, initial, N_proxy=1_000, grid=SimGrid(1.0, 20), seed=SeedSpec(9), budget=60,
        parts=("gamma_c0",), bounds=(0.9, 1.05),
    )
    assert np.all(res.policy.gamma_c0 >= 0.9 - 1e-12)
    assert np.all(res.policy.gamma_c0 <= 1.05 + 1e-12)


def test_optimize_clips_its_start_into_the_box():
    # a start outside the box is evaluated at its clipped point, which is
    # also the simplex's first vertex: no point outside the box is scored,
    # so the best policy lies inside it
    model = multitask_model(0.5)
    initial = _flat_policy(c0=1.2)
    res = optimize_policy(
        model, initial, N_proxy=1_000, grid=SimGrid(1.0, 20), seed=SeedSpec(3), budget=30,
        bounds=(0.2, 0.5),
    )
    for coeffs in (res.policy.gamma_c0, res.policy.gamma_c1):
        assert np.all((coeffs >= 0.2) & (coeffs <= 0.5))
    assert res.trace[0] == res.trace[1]
    start = replace(
        initial,
        gamma_c0=np.clip(initial.gamma_c0, 0.2, 0.5),
        gamma_c1=np.clip(initial.gamma_c1, 0.2, 0.5),
    )
    clipped = evaluate_limit_objective(
        model, (start.gamma_fn, start.aleph_fn), 1_000, SimGrid(1.0, 20), SeedSpec(3)
    )
    assert res.trace[0] == clipped.value


def test_optimize_rejects_bad_input():
    model = multitask_model(0.0)
    initial = _flat_policy()
    with pytest.raises(ValueError):
        optimize_policy(model, initial, 100, SimGrid(1.0, 5), SeedSpec(0), parts=("nonsense",))
    with pytest.raises(ValueError, match="lo < hi"):  # degenerate box
        optimize_policy(model, initial, 100, SimGrid(1.0, 5), SeedSpec(0), bounds=(1.0, 1.0))


# ---------------------------------------------------------------------------
# the in-house Nelder-Mead against scipy's
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", range(1, 9))
@pytest.mark.parametrize(
    "case", ["free", "boxed", "zero-entry", "near-hi", "outside-box", "short-budget"]
)
def test_minimize_matches_scipy_neldermead(case, N):
    # Same points handed to the objective, in the same order, bit for bit,
    # and the same converged flag, on seeded quadratic-plus-sine objectives.
    from scipy.optimize import Bounds, OptimizeWarning
    from scipy.optimize import minimize as scipy_minimize

    for seed in range(3):
        rng = np.random.default_rng([N, seed])
        A = rng.normal(size=(N, N))
        c, w = rng.normal(size=N), rng.normal(size=N)

        def recorded(log):
            def f(x):
                log.append(x.copy())
                value = float(x @ A @ A.T @ x / N - c @ x + 0.3 * math.sin(3.0 * (w @ x)))
                x[:] = np.nan  # the search must not read a point back from the objective
                return value

            return f

        x0 = rng.normal(size=N)
        box = free = (-math.inf, math.inf)
        maxfev = int(rng.integers(50, 400))
        if case == "boxed":  # per-coordinate bounds
            box = (-1.0 - rng.random(N), 1.0 + rng.random(N))
        elif case == "zero-entry":
            x0[rng.integers(N)] = 0.0
        elif case == "near-hi":  # 1.05 x0[k] passes hi: reflected into the box
            box = (-1.5, 1.25)
            x0 = np.clip(x0, -1.5, 1.25)
            x0[rng.integers(N)] = 1.25 - 1e-3
        elif case == "outside-box":  # x0 is clipped first
            box = (-0.5, 0.5)
            x0 = 2.0 * x0
        elif case == "short-budget":
            maxfev = int(rng.integers(0, N + 1))
        ours, theirs = [], []
        converged = minimize(recorded(ours), x0, box, maxfev, xatol=1e-4, fatol=1e-7)
        bounds = None if box is free else Bounds(*(np.broadcast_to(b, N) for b in box))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            res = scipy_minimize(
                recorded(theirs), x0, method="Nelder-Mead", bounds=bounds,
                options={"adaptive": True, "maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-7},
            )
        assert len(ours) == len(theirs) <= maxfev
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        assert converged == bool(res.success)
