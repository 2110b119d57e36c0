"""Euler-Maruyama simulation of the interacting particle system.

The n agents follow

    dX^i_t = b(t, X^i_t, mu^n_t, e^i_t, a^i_t) dt + sigma(t, X^i_t) dW^i_t,

where mu^n_t is the empirical measure of the current ensemble, e^i_t is a
payment-rate field evaluated along the path, and a^i_t is the
Hamiltonian-optimal response to a slope field gamma (only the deviation
scan in contracts overrides it, through the stepper's play hook). The
scheme is explicit Euler with the measure updated simultaneously with the
states: the coefficients at step k see the measure of the step-k states.

Every step loop in the package runs on one private stepper, _euler_steps.
It steps an (n,) ensemble or a (batch, n) stack of ensembles, makes one
maximizer call per step (model._recommended), and applies the one guard:
sigma must be finite and >= 0 (NumericDomainError), and every state must
stay finite with |X| <= blowup_threshold (SimulationBlowupError). It yields
the per-step values; each caller keeps its own accumulators.

Randomness is organized around SeedSpec: one counter-based generator per
(master_seed, spawn key) pair, so any worker can reproduce any stream
without coordinating with the others. Within a stream the consumption order
is fixed — n initial draws, then one length-n increment vector per step —
which makes every simulation bit-reproducible regardless of how the
surrounding experiment is parallelized. Particle i always reads lane i of
the step draws. Independent replications are stepped together as one
(batch, n) ensemble (_replication_chunks), each row still reading its own
replication's stream in that order, so batching changes no result.

All Ito sums in this package use the left endpoint of each interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .measures import BatchedEmpiricalMeasure, EmpiricalMeasure, MeasureFlow
from .model import ModelSpec, NumericDomainError, _recommended, slope_over_sigma

DEFAULT_N_PROXY = 100_000
BLOWUP_THRESHOLD = 1e8
# Replications stepped together are capped at this many state elements, so
# each (batch, n) array of a chunk stays within 128 KiB (a replication whose
# n alone exceeds the cap runs as a chunk of one).
_BATCH_ELEMENTS = 1 << 14


class SimulationBlowupError(RuntimeError):
    """A state exceeded the blow-up threshold (or went non-finite).

    Attributes step and t locate the first offending Euler step.
    """

    def __init__(self, step: int, t: float, worst: float):
        self.step = step
        self.t = t
        self.worst = worst
        super().__init__(
            f"simulation blew up at step {step} (t={t:.6g}): max |X| = {worst:.3e}"
        )


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid on [0, horizon_T] with `steps` Euler steps."""

    horizon_T: float
    steps: int

    def __post_init__(self):
        if not (self.horizon_T > 0):
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon_T / self.steps

    @property
    def nodes(self) -> np.ndarray:
        """The steps+1 grid times, with both endpoints exact."""
        return np.linspace(0.0, self.horizon_T, self.steps + 1)


@dataclass(frozen=True)
class SeedSpec:
    """Hierarchical seed: a master seed plus a tuple spawn-key prefix.

    generator(*key) builds a Philox generator keyed by prefix + key, so
    streams are independent across distinct keys and reproducible from the
    (master_seed, key) pair alone. child(*key) extends the prefix, letting a
    component hand scoped sub-seeds to its own replications.
    """

    master_seed: int
    prefix: tuple = ()

    def child(self, *key: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.prefix + tuple(int(k) for k in key))

    def generator(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            self.master_seed, spawn_key=self.prefix + tuple(int(k) for k in key)
        )
        return np.random.Generator(np.random.Philox(ss))


SeedLike = Union[SeedSpec, np.random.Generator]


def _as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, SeedSpec):
        return seed.generator()
    if isinstance(seed, np.random.Generator):
        return seed
    raise TypeError(f"seed must be a SeedSpec or numpy Generator, got {type(seed)!r}")


@dataclass
class ParticlePaths:
    """Materialized ensemble paths on a uniform grid.

    states has shape (n, steps+1) with states[:, 0] the initial draws;
    increments are the Brownian increments, shape (n, steps).
    """

    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        if self.states.shape != (self.increments.shape[0], len(self.times)):
            raise ValueError("states must be (n, len(times))")
        if self.increments.shape[1] != len(self.times) - 1:
            raise ValueError("increments must be (n, len(times)-1)")

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    def terminal_measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states[:, -1])


def _initial_states(model: ModelSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """The n initial draws of one ensemble, checked to be a length-n vector."""
    if n < 1:
        raise ValueError(f"need at least one particle, got n={n}")
    x = np.asarray(model.initial_law_nu(n, rng), dtype=float)
    if x.shape != (n,):
        raise ValueError(f"initial law returned shape {x.shape}, expected ({n},)")
    return x


def _replication_chunks(
    model: ModelSpec, n: int, replications: int, seed: SeedSpec
) -> Iterator[tuple[range, np.ndarray, Callable[[int], np.ndarray]]]:
    """Independent replications grouped into (batch, n) chunks for _euler_steps.

    Yields (reps, x0, draws) per chunk: reps is the range of replication
    indices, x0 stacks their initial states (replication r from
    seed.generator(r)), and draws(k) refills one reused (batch, n) buffer,
    row i from the stream of replication reps[i]. Each stream is consumed
    exactly as a lone simulation consumes it (n initial draws, then one
    length-n vector per step), so every row matches simulate_particles on
    seed.child(r) bit for bit.
    """
    size = max(1, _BATCH_ELEMENTS // n)
    for start in range(0, replications, size):
        reps = range(start, min(start + size, replications))
        gens = [seed.generator(r) for r in reps]
        x0 = np.stack([_initial_states(model, n, g) for g in gens])
        buf = np.empty_like(x0)
        rows = list(zip(gens, buf))

        def draws(k, rows=rows, buf=buf):
            for g, row in rows:
                g.standard_normal(out=row)
            return buf

        yield reps, x0, draws


class _Step(NamedTuple):
    """What one Euler step from (t_k, X_k) saw and produced.

    X_k itself is not kept: callers that need dX hold their own copy, so a
    long-lived ensemble never has three state vectors alive at once.
    """

    t: float
    e: Any  # payment rate aleph(t_k, X_k)
    zsig: Any  # slope over volatility gamma(t_k, X_k) / sigma(t_k, X_k)
    L: Any  # running cost at the played action
    H: Any  # reduced Hamiltonian (at the recommended action)
    dW: np.ndarray  # Brownian increment sqrt(dt) * draw
    x_next: np.ndarray  # X_{k+1}


def _euler_steps(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    x: np.ndarray,
    grid: SimGrid,
    draws: Callable[[int], np.ndarray],
    play: Optional[Callable] = None,
    blowup_threshold: float = BLOWUP_THRESHOLD,
) -> Iterator[_Step]:
    """Step the ensemble x (shape (n,) or (batch, n)) across the grid.

    draws(k) returns the standard normals of step k: shape (n,), shared by
    every row of a batch, or the shape of x. Each step evaluates the fields
    and sigma at (t_k, X_k), makes one maximizer call for the recommended
    action, moves the state by the played action (the recommendation, or
    play(t, x, a_star) when given), guards the result, and yields a _Step.
    """
    times = grid.nodes
    dt = grid.dt
    sqdt = math.sqrt(dt)
    measure = EmpiricalMeasure if x.ndim == 1 else BatchedEmpiricalMeasure
    for k in range(grid.steps):
        t = float(times[k])
        m = measure(x)
        e = aleph(t, x)
        z = gamma(t, x)
        sig = model.vol_sigma(t, x)
        # The theory requires sigma > 0; the engine tolerates sigma == 0 so
        # that deterministic ODE-limit diagnostics (sigma scaled to zero) run.
        # A float sigma is checked without numpy calls; NaN fails either way.
        if isinstance(sig, float):
            sig_ok = 0.0 <= sig < math.inf
        else:
            sig_ok = np.all((sig >= 0.0) & (sig < math.inf))
        if not sig_ok:
            raise NumericDomainError(f"volatility must be finite and >= 0 (t={t}): {sig!r}")
        zsig = slope_over_sigma(z, sig)
        a, b, L, H = _recommended(model, t, x, m, e, zsig)
        if play is not None:
            a = play(t, x, a)
            b = model.drift_b(t, x, m, e, a)
            L = model.running_cost_L(t, x, m, e, a)
        dW = sqdt * draws(k)
        x_next = x + b * dt + sig * dW
        worst = np.abs(x_next).max()
        if not worst <= blowup_threshold:  # also catches NaN
            raise SimulationBlowupError(
                k + 1, float(times[k + 1]), float(worst) if math.isfinite(worst) else math.inf
            )
        yield _Step(t, e, zsig, L, H, dW, x_next)
        x = x_next


def simulate_particles(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    n: int,
    grid: SimGrid,
    seed: SeedLike,
    blowup_threshold: float = BLOWUP_THRESHOLD,
) -> tuple[ParticlePaths, MeasureFlow]:
    """Simulate the n-agent system under feedback fields gamma and aleph.

    gamma(t, x) is the payment slope and aleph(t, x) the payment-rate field;
    both must broadcast over the length-n state vector. Each agent plays the
    Hamiltonian-optimal response to slope gamma/sigma.

    Returns the materialized paths together with the flow of empirical
    measures at every grid node. Raises SimulationBlowupError if a state
    leaves [-blowup_threshold, blowup_threshold] or goes non-finite.
    """
    rng = _as_generator(seed)
    x = _initial_states(model, n, rng)
    states = np.empty((n, grid.steps + 1))
    incs = np.empty((n, grid.steps))
    states[:, 0] = x
    steps = _euler_steps(
        model, gamma, aleph, x, grid, lambda k: rng.standard_normal(n), None, blowup_threshold
    )
    for k, step in enumerate(steps):
        states[:, k + 1] = step.x_next
        incs[:, k] = step.dW

    times = grid.nodes
    paths = ParticlePaths(times=times, states=states, increments=incs)
    flow = MeasureFlow(
        times, [EmpiricalMeasure(states[:, k]) for k in range(grid.steps + 1)]
    )
    return paths, flow


def simulate_terminal_measure(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    n: int,
    grid: SimGrid,
    seed: SeedLike,
    blowup_threshold: float = BLOWUP_THRESHOLD,
) -> EmpiricalMeasure:
    """Terminal empirical measure only, with O(n) memory.

    Runs exactly the simulate_particles scheme (same draw order, same state
    recursion) but stores no intermediate states; use for large ensembles
    where only the terminal law matters (e.g. chaos sweeps).
    """
    rng = _as_generator(seed)
    x = _initial_states(model, n, rng)
    draws = lambda k: rng.standard_normal(n)
    for step in _euler_steps(model, gamma, aleph, x, grid, draws, None, blowup_threshold):
        x = step.x_next
    return EmpiricalMeasure(x)


def save_paths_csv(paths: ParticlePaths, path: str) -> None:
    """Dump paths as text CSV with columns (t, particle, state).

    One row per (grid node, particle); intended for small diagnostic runs —
    large ensembles should stay in memory.
    """
    with open(path, "w") as fh:
        fh.write("t,particle,state\n")
        for k, t in enumerate(paths.times):
            col = paths.states[:, k]
            for i in range(paths.n_particles):
                fh.write(f"{float(t)!r},{i},{float(col[i])!r}\n")


def ito_integral(
    paths: ParticlePaths,
    integrand: Callable,
    against: str = "dX",
    per: str = "particle",
):
    """Left-endpoint Ito sum of integrand(t_k, X_k) against dX, dW or dt.

    per="particle" returns the length-n vector of per-particle sums;
    per="ensemble-average" returns their mean as a float.
    """
    times = paths.times
    dt = np.diff(times)
    n_steps = paths.n_steps
    vals = np.empty((paths.n_particles, n_steps))
    for k in range(n_steps):
        vals[:, k] = integrand(float(times[k]), paths.states[:, k])

    if against == "dX":
        d = np.diff(paths.states, axis=1)
    elif against == "dW":
        d = paths.increments
    elif against == "dt":
        d = np.broadcast_to(dt, (paths.n_particles, n_steps))
    else:
        raise ValueError(f"against must be 'dX', 'dW' or 'dt', got {against!r}")

    per_particle = np.sum(vals * d, axis=1)
    if per == "particle":
        return per_particle
    if per == "ensemble-average":
        return float(np.mean(per_particle))
    raise ValueError(f"per must be 'particle' or 'ensemble-average', got {per!r}")
