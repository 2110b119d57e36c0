"""Tests for the particle simulation engine: grids, seeds, paths, integrals."""

import math
from dataclasses import replace

import numpy as np
import pytest

from palab.estimates import variance_se
from palab.mkv_control import evaluate_limit_objective
from palab.model import (
    MultitaskParams,
    NumericDomainError,
    multitask_model,
    normal_law,
    point_mass,
)
from palab.principal_n import NPlayerPolicy, estimate_n_player_value
from palab.sde_engine import (
    ParticlePaths,
    SeedSpec,
    SimGrid,
    SimulationBlowupError,
    ito_integral,
    save_paths_csv,
    simulate_particles,
    simulate_terminal_measure,
)

EXACT = 1e-12


def _zero(t, x):
    return 0.0


def _one(t, x):
    return 1.0


# ---------------------------------------------------------------------------
# grid and seeds
# ---------------------------------------------------------------------------


def test_grid_basics():
    g = SimGrid(2.0, 4)
    assert g.dt == 0.5
    assert np.array_equal(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        SimGrid(1.0, 0)
    with pytest.raises(ValueError):
        SimGrid(-1.0, 10)


def test_seedspec_child_matches_keyed_generator():
    seed = SeedSpec(12345)
    a = seed.generator(7).standard_normal(5)
    b = seed.child(7).generator().standard_normal(5)
    assert np.array_equal(a, b)
    # deeper keys commute the same way
    c = seed.child(1).generator(2, 3).standard_normal(4)
    d = seed.child(1, 2).generator(3).standard_normal(4)
    e = seed.child(1, 2, 3).generator().standard_normal(4)
    assert np.array_equal(c, d) and np.array_equal(d, e)


def test_seedspec_distinct_keys_distinct_streams():
    seed = SeedSpec(0)
    x = seed.generator(0).standard_normal(8)
    y = seed.generator(1).standard_normal(8)
    assert not np.array_equal(x, y)


# ---------------------------------------------------------------------------
# simulation determinism and structure
# ---------------------------------------------------------------------------


def test_simulation_bitwise_deterministic():
    model = multitask_model(MultitaskParams(0.5), nu=normal_law())
    grid = SimGrid(1.0, 25)
    p1, f1 = simulate_particles(model, _one, _zero, 50, grid, SeedSpec(9).child(0))
    p2, f2 = simulate_particles(model, _one, _zero, 50, grid, SeedSpec(9).child(0))
    assert p1.states.tobytes() == p2.states.tobytes()
    assert p1.increments.tobytes() == p2.increments.tobytes()
    p3, _ = simulate_particles(model, _one, _zero, 50, grid, SeedSpec(9).child(1))
    assert p1.states.tobytes() != p3.states.tobytes()
    # shapes and flow bookkeeping
    assert p1.states.shape == (50, 26)
    assert p1.n_particles == 50 and p1.n_steps == 25
    assert len(f1) == 26
    assert np.array_equal(f1.terminal.samples, p1.states[:, -1])


class _PermutedDraws(np.random.Generator):
    """Generator whose length-n normal vectors come back permuted by p."""

    def __init__(self, bit_generator, p):
        super().__init__(bit_generator)
        self._p = np.asarray(p)

    def standard_normal(self, size=None):
        out = super().standard_normal(size)
        if isinstance(size, int) and size == self._p.size:
            return out[self._p]
        return out


def test_exchangeability_under_relabeling():
    # Relabeling the particles (same draws, permuted) permutes the paths and
    # nothing else. Without interaction the drift sees no ensemble statistic,
    # so the identity is bitwise.
    n = 17
    rng = np.random.default_rng(555)
    p = rng.permutation(n)
    model = multitask_model(MultitaskParams(0.0), nu=normal_law())
    grid = SimGrid(1.0, 20)
    g_plain = np.random.Generator(np.random.Philox(314))
    g_perm = _PermutedDraws(np.random.Philox(314), p)
    paths1, _ = simulate_particles(model, _one, _zero, n, grid, g_plain)
    paths2, _ = simulate_particles(model, _one, _zero, n, grid, g_perm)
    assert np.array_equal(paths2.states, paths1.states[p, :])
    # with interaction the ensemble mean re-sums in a different order, so
    # agreement is to rounding, not bitwise
    model_i = multitask_model(MultitaskParams(0.5), nu=normal_law())
    paths3, _ = simulate_particles(
        model_i, _one, _zero, n, grid, np.random.Generator(np.random.Philox(314))
    )
    paths4, _ = simulate_particles(
        model_i, _one, _zero, n, grid, _PermutedDraws(np.random.Philox(314), p)
    )
    assert np.allclose(paths4.states, paths3.states[p, :], atol=1e-10)


def test_terminal_measure_matches_full_paths():
    model = multitask_model(MultitaskParams(0.5), nu=normal_law())
    grid = SimGrid(1.0, 30)
    paths, _ = simulate_particles(model, _one, _zero, 40, grid, SeedSpec(4).child(2))
    m = simulate_terminal_measure(model, _one, _zero, 40, grid, SeedSpec(4).child(2))
    assert np.array_equal(m.samples, paths.states[:, -1])


def test_initial_law_shape_checked():
    model = multitask_model(MultitaskParams(0.0))
    bad = replace(model, initial_law_nu=lambda n, rng: np.zeros((n, 1)))
    with pytest.raises(ValueError):
        simulate_particles(bad, _zero, _zero, 5, SimGrid(1.0, 2), SeedSpec(0))


def test_negative_volatility_rejected():
    # Every step loop runs on the one stepper, so every entry point applies
    # the same volatility guard, for float and for array sigma alike.
    model = multitask_model(MultitaskParams(0.0))
    grid = SimGrid(1.0, 2)
    runs = {
        "simulate_particles": lambda m: simulate_particles(m, _zero, _zero, 5, grid, SeedSpec(0)),
        "estimate_n_player_value": lambda m: estimate_n_player_value(
            m, NPlayerPolicy.from_loading(_zero), 5, grid, 2, SeedSpec(0)
        ),
        "evaluate_limit_objective": lambda m: evaluate_limit_objective(
            m, (_zero, _zero), N_proxy=5, grid=grid, seed=SeedSpec(0)
        ),
    }
    for sigma in (lambda t, x: -1.0, lambda t, x: np.full(np.shape(x), np.nan)):
        bad = replace(model, vol_sigma=sigma)
        for name, run in runs.items():
            with pytest.raises(NumericDomainError):
                run(bad)
                pytest.fail(f"{name} accepted an invalid volatility")


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


def test_terminal_variance_is_horizon():
    # zero slope, no interaction: X_T = W_T, Var = T
    model = multitask_model(MultitaskParams(0.0))
    grid = SimGrid(1.0, 20)
    m = simulate_terminal_measure(model, _zero, _zero, 20_000, grid, SeedSpec(77))
    est = variance_se(m.samples)
    assert abs(est.value - 1.0) <= 4.0 * est.se


def test_deterministic_ode_limit():
    # sigma scaled to zero and a forced unit action: X_T = sum dt = T exactly
    # (64 steps keeps the dt accumulation exact in binary floating point)
    model = multitask_model(MultitaskParams(0.0))
    model = replace(model, vol_sigma=lambda t, x: 0.0)
    grid = SimGrid(1.0, 64)
    forced = replace(model, analytic_maximizer=lambda t, x, m, e, z: 1.0)
    paths, _ = simulate_particles(forced, _zero, _zero, 3, grid, SeedSpec(0))
    assert np.all(paths.states[:, -1] == 1.0)
    # zero slope with zero volatility is the tolerated 0/0 case
    m = simulate_terminal_measure(model, _zero, _zero, 3, grid, SeedSpec(0))
    assert np.all(m.samples == 0.0)


def test_ensemble_mean_replays_linear_recursion():
    # With the clamp slack, the ensemble mean follows
    #   xbar_{k+1} = (1 + kappa dt) xbar_k + gamma(t_k) dt + mean(sigma dW_k)
    # exactly; replaying the recursion from the stored increments must match.
    kappa = 0.5
    model = multitask_model(MultitaskParams(kappa, b_bar=10.0))
    grid = SimGrid(1.0, 40)
    gamma = lambda t, x: math.exp(kappa * (1.0 - t))
    paths, _ = simulate_particles(model, gamma, _zero, 500, grid, SeedSpec(21))
    xbar = float(np.mean(paths.states[:, 0]))
    dt = grid.dt
    for k in range(grid.steps):
        t = float(paths.times[k])
        xbar = xbar + (gamma(t, None) + kappa * xbar) * dt + float(
            np.mean(paths.increments[:, k])
        )
    assert abs(xbar - float(np.mean(paths.states[:, -1]))) <= 1e-10


def test_blowup_detected():
    # strong positive feedback through the mean: the state doubles every few
    # steps and must trip the threshold, not overflow silently
    model = multitask_model(MultitaskParams(50.0), nu=point_mass(1.0))
    grid = SimGrid(1.0, 100)
    with pytest.raises(SimulationBlowupError) as exc:
        simulate_particles(model, _one, _zero, 10, grid, SeedSpec(0))
    assert exc.value.step >= 1
    assert exc.value.worst > 1e8 or math.isinf(exc.value.worst)


def test_blowup_threshold_override():
    # alpha = z on the multitask model: slope 100 moves every state by about
    # 10 in the first step, past the lowered threshold
    model = multitask_model(MultitaskParams(0.0))
    with pytest.raises(SimulationBlowupError):
        simulate_particles(
            model,
            lambda t, x: 100.0,
            _zero,
            5,
            SimGrid(1.0, 10),
            SeedSpec(0),
            blowup_threshold=1.0,
        )


# ---------------------------------------------------------------------------
# Ito sums and CSV
# ---------------------------------------------------------------------------


def test_ito_integral_identities():
    model = multitask_model(MultitaskParams(0.5), nu=normal_law())
    grid = SimGrid(1.0, 16)
    paths, _ = simulate_particles(model, _one, _zero, 12, grid, SeedSpec(13))
    one = lambda t, x: np.ones_like(x)
    # integral of 1 dX telescopes
    got = ito_integral(paths, one, against="dX")
    want = paths.states[:, -1] - paths.states[:, 0]
    assert np.allclose(got, want, atol=EXACT)
    # integral of 1 dt is the horizon
    assert np.allclose(ito_integral(paths, one, against="dt"), 1.0, atol=EXACT)
    # integral of 1 dW sums the stored increments
    assert np.allclose(
        ito_integral(paths, one, against="dW"), paths.increments.sum(axis=1), atol=EXACT
    )
    # ensemble average reduces to a float
    avg = ito_integral(paths, one, against="dt", per="ensemble-average")
    assert isinstance(avg, float) and abs(avg - 1.0) <= EXACT
    with pytest.raises(ValueError):
        ito_integral(paths, one, against="dZ")
    with pytest.raises(ValueError):
        ito_integral(paths, one, per="median")


def test_ito_integral_left_endpoint():
    # hand-checkable two-step path: integrand x against dX uses the left state
    times = np.array([0.0, 0.5, 1.0])
    states = np.array([[1.0, 2.0, 4.0]])
    incs = np.zeros((1, 2))
    paths = ParticlePaths(times=times, states=states, increments=incs)
    got = ito_integral(paths, lambda t, x: x, against="dX")
    assert np.allclose(got, [1.0 * 1.0 + 2.0 * 2.0], atol=EXACT)


def test_paths_csv(tmp_path):
    model = multitask_model(MultitaskParams(0.0), nu=normal_law())
    grid = SimGrid(1.0, 3)
    paths, _ = simulate_particles(model, _zero, _zero, 4, grid, SeedSpec(2))
    out = tmp_path / "paths.csv"
    save_paths_csv(paths, str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,particle,state"
    assert len(lines) == 1 + 4 * 4  # header + (steps+1) * n rows
    t, i, x = lines[1].split(",")
    assert float(t) == 0.0 and int(i) == 0
    assert float(x) == paths.states[0, 0]  # repr roundtrip
