"""Monte Carlo laboratory for interacting-agent contract problems.

The package simulates n interacting agents driven by payment-slope and
payment-rate feedback fields, prices terminal-payment contracts path by
path, estimates the principal's value in the finite system and in its
mean-field limit, and measures the convergence rates between the two.

Layout
------
model        model coefficients, built-in benchmarks, action optimization
measures     empirical measures and stacks of them, 1-d Wasserstein distance
sde_engine   the one Euler stepper, particle paths, hierarchical seeding
contracts    terminal-payment contracts and reward accounting
mkv_control  limit control problem, policy search, closed-form benchmarks
principal_n  finite-n value estimation, gap sweeps, rate fitting
cli          config-driven experiment harness (`palab` console script)
"""

from .contracts import (
    Contract,
    ContractEvaluationError,
    contract_report,
    evaluate_terminal_payment,
    joint_deviation_scan,
    mkv_contract_payment,
)
from .estimates import MCEstimate, mean_se
from .measures import EmpiricalMeasure, wasserstein_p
from .mkv_control import (
    MultitaskAnalytic,
    PolicyOptResult,
    PolicyParam,
    evaluate_limit_objective,
    optimize_policy,
)
from .model import (
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
from .principal_n import (
    InsufficientDataError,
    RateFit,
    estimate_n_player_value,
    fit_rate,
    gap_sweep,
)
from .sde_engine import (
    ParticlePaths,
    SeedSpec,
    SimGrid,
    SimulationBlowupError,
    save_paths_csv,
    simulate_particles,
    simulate_terminal_measure,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousMaximizerError",
    "Contract",
    "ContractEvaluationError",
    "EmpiricalMeasure",
    "InsufficientDataError",
    "MCEstimate",
    "ModelSpec",
    "MultitaskAnalytic",
    "NumericDomainError",
    "ParticlePaths",
    "PolicyOptResult",
    "PolicyParam",
    "RateFit",
    "SeedSpec",
    "SimGrid",
    "SimulationBlowupError",
    "contract_report",
    "estimate_n_player_value",
    "evaluate_limit_objective",
    "evaluate_terminal_payment",
    "exp_saturating_utility",
    "fit_rate",
    "gap_sweep",
    "hamiltonian_h",
    "identity_utility",
    "joint_deviation_scan",
    "maximize_hamiltonian",
    "mean_se",
    "mkv_contract_payment",
    "multitask_model",
    "normal_law",
    "optimize_policy",
    "point_mass",
    "quadratic_generic_model",
    "reduced_coefficients",
    "save_paths_csv",
    "simulate_particles",
    "simulate_terminal_measure",
    "slope_over_sigma",
    "wasserstein_p",
]
