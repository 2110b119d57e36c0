"""The benchmark's four pinned palab CLI workloads and their closed-form checks.

Each workload is one `palab <command>` config run in a fresh interpreter.
README.md beside this file explains why each one exists and which layers it
exercises. A check takes the run's output directory and returns a list of
failure messages (empty when the outputs pass).
"""

from __future__ import annotations

import copy
import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

# Digests in digests.json are recorded for this seed. Any other seed is
# compared against the first invocation of the same benchmark run instead.
DEFAULT_SEED = 2024

# Absolute slack for comparisons that hold exactly in real arithmetic and
# are only disturbed by floating-point rounding.
FLOAT_SLACK = 1e-12

_MULTITASK = {
    "name": "multitask",
    "params": {"kappa_bar": 0.5, "b_bar": 10.0},
    "R": 0.0,
    "T": 1.0,
    "nu": {"kind": "normal", "mean": 0.0, "std": 1.0},
}


def _model(**over) -> dict:
    return {**copy.deepcopy(_MULTITASK), **over}


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _read_csv(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _records(payload: dict) -> dict:
    return {r["metric"]: r for r in payload["records"]}


def check_nplayer_sweep(out_dir: str, cfg: dict) -> list[str]:
    fails = []
    if not _read_json(out_dir, "fit.json")["bound"]["satisfied"]:
        fails.append("fit.json: gap bound not satisfied")
    for row in _read_csv(out_dir, "gaps.csv"):
        gap, se = float(row["gap"]), float(row["se"])
        if not gap >= -3.0 * se:
            fails.append(f"gaps.csv: n={row['n']} gap {gap!r} below -3 se ({se!r})")
    return fails


# The 150-evaluation budget stops Nelder-Mead short of the optimum, and the
# reported se treats the measure as frozen, so it understates the spread of
# the coupled ensemble. Over seeds 0-29 the best value fell short of U(V_inf)
# by 0.017 +- 0.019 (at most 0.054). 0.1 is four of those deviations past
# the mean, and well below the 0.32 by which the initial policy falls short.
LIMIT_VALUE_TOL = 0.1


def check_limit_search(out_dir: str, cfg: dict) -> list[str]:
    err = float(_read_json(out_dir, "policy_best.json")["analytic"]["value_error"])
    if not err <= LIMIT_VALUE_TOL:
        return [f"policy_best.json: value_error {err!r} exceeds {LIMIT_VALUE_TOL}"]
    return []


def check_contract_numeric(out_dir: str, cfg: dict) -> list[str]:
    payload = _read_json(out_dir, "contract_summary.json")
    fails = []
    reward = _records(payload)["agent_reward"]
    R = float(cfg["model"].get("R", 0.0))
    if not abs(reward["value"] - R) <= 3.0 * reward["se"] + FLOAT_SLACK:
        fails.append(
            f"contract_summary.json: agent reward {reward['value']!r} not within 3 se "
            f"({reward['se']!r}) of R={R!r}"
        )
    if payload["pareto"]["no_improvement_beyond_3se"] is not True:
        fails.append("contract_summary.json: a joint deviation improves beyond 3 se")
    return fails


def check_chaos_proxy(out_dir: str, cfg: dict) -> list[str]:
    med = [float(r["median_w1"]) for r in _read_csv(out_dir, "chaos.csv")]
    if any(b > a for a, b in zip(med, med[1:])):
        return [f"chaos.csv: median W1 increases with n: {med}"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    workers: int  # pool workers of the timed runs (capped at nproc)
    check: Callable[[str, dict], list]
    particle_steps: int  # Euler particle-steps of one run, all step loops


def _nplayer_steps(cfg: dict) -> int:
    mc = cfg["mc"]
    return sum(mc["n_list"]) * len(mc["b_bar_list"]) * mc["replications"] * cfg["grid"]["steps"]


_NPLAYER = {
    "experiment": "bench-nplayer-sweep",
    "model": _model(utility="exp"),
    "grid": {"steps": 100},
    "mc": {
        "master_seed": DEFAULT_SEED,
        "n_list": [10, 30, 100, 300, 1000],
        "b_bar_list": [10.0],
        "replications": 50,
    },
}

_LIMIT = {
    "experiment": "bench-limit-search",
    "model": _model(utility="identity"),
    "grid": {"steps": 50},
    "mc": {"master_seed": DEFAULT_SEED, "N_proxy": 10_000},
    "policy": {"knots": 4, "budget": 150, "init_gamma": 0.5},
}

_CONTRACT = {
    "experiment": "bench-contract-numeric",
    "model": {
        "name": "quadratic",
        "params": {"a_base": 0.5, "sigma0": 1.0},
        "R": 0.0,
        "T": 1.0,
        "utility": "identity",
        "nu": {"kind": "normal", "mean": 0.0, "std": 1.0},
    },
    "grid": {"steps": 50},
    "mc": {
        "master_seed": DEFAULT_SEED,
        "n": 100,
        "replications": 6,
        "deviation": {"n": 2, "min": -1.0, "max": 3.0, "step": 0.5},
    },
    "output": {"dump_paths": True},
}

_CHAOS = {
    "experiment": "bench-chaos-proxy",
    "model": _model(utility="identity"),
    "grid": {"steps": 50},
    "mc": {
        "master_seed": DEFAULT_SEED,
        "n_list": [100, 1000, 10_000, 100_000],
        "N_proxy": 500_000,
        "replications": 4,
    },
}


def _limit_steps(cfg: dict) -> int:
    # The budget runs out, so Nelder-Mead makes budget calls plus the
    # initial evaluation, each over N_proxy particles.
    return (cfg["policy"]["budget"] + 1) * cfg["mc"]["N_proxy"] * cfg["grid"]["steps"]


def _contract_steps(cfg: dict) -> int:
    mc, steps = cfg["mc"], cfg["grid"]["steps"]
    dev = mc["deviation"]
    actions = int(round((dev["max"] - dev["min"]) / dev["step"])) + 1
    rows = actions ** dev["n"] + 1
    dump = mc["n"] if cfg["output"]["dump_paths"] else 0
    return (mc["replications"] * mc["n"] + mc["replications"] * rows * dev["n"] + dump) * steps


def _chaos_steps(cfg: dict) -> int:
    mc = cfg["mc"]
    return mc["replications"] * (mc["N_proxy"] + sum(mc["n_list"])) * cfg["grid"]["steps"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nplayer-sweep",
            "multitask-convergence",
            _NPLAYER,
            1,
            check_nplayer_sweep,
            _nplayer_steps(_NPLAYER),
        ),
        Workload(
            "limit-search",
            "policy-opt",
            _LIMIT,
            1,
            check_limit_search,
            _limit_steps(_LIMIT),
        ),
        Workload(
            "contract-numeric",
            "contract-eval",
            _CONTRACT,
            1,
            check_contract_numeric,
            _contract_steps(_CONTRACT),
        ),
        Workload(
            "chaos-proxy",
            "chaos",
            _CHAOS,
            2,
            check_chaos_proxy,
            _chaos_steps(_CHAOS),
        ),
    )
}
