"""Experiment harness: config-driven runs of the library's main pipelines.

Each command in _COMMANDS runs in three phases. It reads every config field
it uses through one checked accessor, _field, into a plan of plain picklable
values, so a bad field fails before any work starts and names itself; pool
workers take (plan, task index) and never see the raw config. It then
computes, and finally renders every result file before writing the first.
The README documents the commands, the config schema, the exit codes and
the determinism contract.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .contracts import (
    MAX_DEVIATION_CELLS,
    Contract,
    ContractEvaluationError,
    contract_report,
    evaluate_terminal_payment,
    joint_deviation_scan,
)
from .estimates import mean_se
from .measures import EmpiricalMeasure, wasserstein_p
from .mkv_control import (
    POLICY_PARTS,
    MultitaskAnalytic,
    PolicyParam,
    evaluate_limit_objective,
    optimize_policy,
)
from .model import (
    AmbiguousMaximizerError,
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
    estimate_n_player_value,
    fit_rate,
    gap_sweep,
)
from .sde_engine import (
    SeedSpec,
    SimGrid,
    SimulationBlowupError,
    save_paths_csv,
    simulate_particles,
    simulate_terminal_measure,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_CHECK_FAILED = 4
EXIT_NUMERIC = 5
EXIT_MEMORY = 6

_MISSING = object()  # an absent field, and the default of a required one
_read: set = set()  # the key paths _field was asked for since the last parse_config


class ConfigError(Exception):
    """A config failed validation; the message names the offending field path."""


# ---------------------------------------------------------------------------
# Config access and validation
# ---------------------------------------------------------------------------


def _walk(cfg: dict, path: str):
    """The value at a dotted path; null or absent blocks read as _MISSING, others must be objects."""
    cur: Any = cfg
    parts = path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(cur, dict) and cur is not None:
            raise ConfigError(f"{'.'.join(parts[:i])}: expected an object, got {cur!r}")
        if cur is None or part not in cur:
            return _MISSING
        cur = cur[part]
    return cur


# kind: (accepted types, the message's name of one value, of a list's items)
_KINDS = {
    "int": (int, "an integer", "integers"),
    "count": (int, "an integer", "integers"),
    "number": ((int, float, str), "a number", "numbers"),
    "level": ((int, float, str), "a number", "numbers"),
    "str": (str, "a string", "strings"),
    "bool": (bool, "true/false", None),
    "dict": (dict, "an object", None),
}


# A count sizes a float64 array (particles, replications, steps, knots), so
# one past the longest such array numpy can address could never be allocated.
_MAX_COUNT = int(np.iinfo(np.intp).max) // 8


def _too_large(path: str, val: int) -> ConfigError:
    return ConfigError(f"{path}: must fit in a float, got a {len(str(abs(val)))}-digit integer")


def _coerce(path: str, val, kind: str):
    if kind.endswith("-list"):
        item = kind[: -len("-list")]
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{path}: expected a non-empty list of {_KINDS[item][2]}")
        return [_coerce(f"{path}[{i}]", v, item) for i, v in enumerate(val)]
    types, name, _ = _KINDS[kind]
    if not isinstance(val, types) or (isinstance(val, bool) and types is not bool):
        raise ConfigError(f"{path}: expected {name}, got {val!r}")
    if kind == "count" and val > _MAX_COUNT:
        if val > sys.float_info.max:  # the grid divides the horizon by grid.steps
            raise _too_large(path, val)
        raise ConfigError(f"{path}: must be <= {_MAX_COUNT}, got {val}")
    if kind not in ("number", "level"):
        return val
    # A number may be written as a string ("1e-3", "inf"); only a level
    # (a clamp, a truncation, a bound) may be infinite.
    try:
        out = float(val)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {val!r}") from None
    except OverflowError:  # an integer beyond the float range
        raise _too_large(path, val) from None
    if math.isnan(out):
        raise ConfigError(f"{path}: NaN is not a valid value")
    if kind == "number" and math.isinf(out):
        raise ConfigError(f"{path}: must be finite, got {out!r}")
    return out


def _field(cfg: dict, path: str, kind: str, default=_MISSING, *, ge=None, gt=None, choices=None):
    """The checked value of the config field at a dotted path.

    An absent (or null) field takes the default; without one it is an error.
    The value must be of kind ("int", "count" (an int that sizes an array,
    at most _MAX_COUNT), "number" (finite), "level" (a number that may be
    +-inf), "str", "bool", "dict", or a non-empty list of one of the first
    five, e.g. "count-list"), and ge, gt and choices
    bound the value or, for a list, each entry. Every failure is a
    ConfigError whose message starts with the path.
    """
    _read.add(tuple(path.split(".")))
    val = _walk(cfg, path)
    if val is _MISSING or (val is None and default is not _MISSING):
        if default is _MISSING:
            raise ConfigError(f"{path}: required field is missing")
        return default
    val = _coerce(path, val, kind)
    for v in val if isinstance(val, list) else [val]:
        if ge is not None and not v >= ge:
            raise ConfigError(f"{path}: must be >= {ge}, got {v!r}")
        if gt is not None and not v > gt:
            raise ConfigError(f"{path}: must be > {gt}, got {v!r}")
        if choices is not None and v not in choices:
            raise ConfigError(f"{path}: expected one of {', '.join(map(repr, choices))}; got {v!r}")
    return val


def _reject_unread(cfg: dict, keys: tuple = ()) -> None:
    """ConfigError naming the first non-null leaf of cfg that no _field call has read.

    A command calls it after its last read and before any work, so a
    misspelled key or one of another branch is not silently ignored.
    """
    for key, val in cfg.items():
        path = (*keys, key)
        if isinstance(val, dict):
            _reject_unread(val, path)
        elif val is not None and path not in _read:
            raise ConfigError(f"{'.'.join(path)}: unknown field")


def config_hash(cfg: dict) -> str:
    """Stable 16-hex-digit digest of a config; insensitive to key order."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentConfig:
    """The fields every command needs, validated, plus the canonical hash.

    `raw` is the effective config (after any --seed override) and is the
    object the hash covers; each command validates the rest of it.
    """

    experiment: str
    master_seed: int
    steps: int
    raw: dict
    hash: str


def parse_config(raw, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Validate the reproducibility-critical fields and freeze the config.

    grid.steps (no silent time step) and mc.master_seed (no wall-clock
    seeding) are mandatory for every command. A --seed flag replaces the
    master seed *before* hashing, so the hash always matches the run; an mc
    block that is present but not an object is then a ConfigError. It
    starts a new record of the fields read, which _reject_unread checks.
    """
    _read.clear()
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    eff = copy.deepcopy(raw)
    if seed_override is not None:
        if not isinstance(eff.setdefault("mc", {}), dict):
            raise ConfigError(f"mc: expected an object, got {eff['mc']!r}")
        eff["mc"]["master_seed"] = int(seed_override)

    experiment = _field(eff, "experiment", "str")
    _field(eff, "model", "dict")
    _field(eff, "model.name", "str")
    steps = _field(eff, "grid.steps", "count", ge=1)
    seed = _field(eff, "mc.master_seed", "int")
    if not (0 <= seed < 2**63):
        raise ConfigError(f"mc.master_seed: must be in [0, 2^63), got {seed}")
    return ExperimentConfig(experiment, seed, steps, eff, config_hash(eff))


def load_config(path: str) -> dict:
    """The JSON document at path; a file that cannot be read or decoded is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"--config: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config: invalid JSON in {path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Plans: validated model and feedback fields, and what they build
# ---------------------------------------------------------------------------


def _model_plan(cfg: dict) -> dict:
    """The model block, validated into plain (picklable) fields."""
    name = _field(cfg, "model.name", "str", choices=("multitask", "quadratic"))
    plan = {
        "name": name,
        "R": _field(cfg, "model.R", "number", 0.0),
        "T": _field(cfg, "model.T", "number", 1.0, gt=0),
        "utility": _field(cfg, "model.utility", "str", "identity", choices=("identity", "exp")),
        "sigma_scale": _field(cfg, "model.sigma_scale", "number", 1.0, ge=0),
        "nu_kind": _field(cfg, "model.nu.kind", "str", "point", choices=("point", "normal")),
    }
    if plan["nu_kind"] == "point":
        plan["E_iota"], plan["nu_std"] = _field(cfg, "model.nu.value", "number", 0.0), 0.0
    else:
        plan["E_iota"] = _field(cfg, "model.nu.mean", "number", 0.0)
        plan["nu_std"] = _field(cfg, "model.nu.std", "number", 1.0, ge=0)
    if name == "multitask":
        plan["kappa_bar"] = _field(cfg, "model.params.kappa_bar", "number")
        plan["b_bar"] = _field(cfg, "model.params.b_bar", "level", math.inf, gt=0)
    else:
        plan["a_base"] = _field(cfg, "model.params.a_base", "number", 0.5)
        plan["sigma0"] = _field(cfg, "model.params.sigma0", "number", 1.0, gt=0)
    return plan


def _build_model(plan: dict):
    if plan["nu_kind"] == "point":
        nu = point_mass(plan["E_iota"])
    else:
        nu = normal_law(plan["E_iota"], plan["nu_std"])
    U = identity_utility if plan["utility"] == "identity" else exp_saturating_utility
    if plan["name"] == "multitask":
        model = multitask_model(plan["kappa_bar"], plan["b_bar"], R=plan["R"], nu=nu, U=U)
    else:
        model = quadratic_generic_model(
            a_base=plan["a_base"], sigma0=plan["sigma0"], R=plan["R"], nu=nu, U=U
        )
    s = plan["sigma_scale"]
    if s != 1.0:
        base = model.vol_sigma
        model = dataclasses.replace(model, vol_sigma=lambda t, x: s * base(t, x))
    return model


def _analytic(plan: dict):
    """Closed-form solution of the multitask limit problem of a model plan."""
    return MultitaskAnalytic(plan["kappa_bar"], R=plan["R"], T=plan["T"], E_iota=plan["E_iota"])


def _feedback_plan(cfg: dict, model: dict) -> dict:
    """The feedback plan of policy.source: "analytic" (closed-form slope), "constant" or "zero"."""
    default = "analytic" if model["name"] == "multitask" else "zero"
    source = _field(cfg, "policy.source", "str", default, choices=("analytic", "constant", "zero"))
    if source == "analytic" and model["name"] != "multitask":
        raise ConfigError("policy.source: 'analytic' requires the multitask model")
    return {
        "source": source,
        "value": _field(cfg, "policy.value", "number", 1.0) if source == "constant" else 0.0,
        "aleph_value": _field(cfg, "policy.aleph_value", "number", 0.0),
    }


def _feedback(model: dict, policy: dict):
    """(gamma, aleph) callables of a model plan and a feedback plan."""
    aleph_value = policy["aleph_value"]
    aleph = lambda t, x: aleph_value
    if policy["source"] == "analytic":
        return _analytic(model).gamma_hat, aleph
    value = policy["value"]
    return (lambda t, x: value), aleph


# ---------------------------------------------------------------------------
# Result records and rendering
# ---------------------------------------------------------------------------


def _sanitize(obj):
    """obj as plain JSON values: +-inf becomes "inf" / "-inf", and NaN raises NumericDomainError."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            raise NumericDomainError("a result value is NaN")
        return repr(obj)
    return obj


def _json_text(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n"


def _result_json(ec: ExperimentConfig, records: list, **payload) -> str:
    """A JSON result file: the payload and (metric, value, se) records, tagged with the config hash."""
    tag = {"experiment": ec.experiment, "config_hash": ec.hash}
    records = [{**tag, "metric": m, "value": v, "se": se, "runtime": None} for m, v, se in records]
    return _json_text({**tag, "records": records, **payload})


def _fmt_cell(v) -> str:
    v = _sanitize(v)
    return repr(v) if isinstance(v, float) else str(v)


def _result_csv(ec: ExperimentConfig, header: list, rows) -> str:
    """A CSV result file whose last column, config_hash, tags every row."""
    lines = [",".join(header + ["config_hash"])]
    lines += [",".join([*map(_fmt_cell, row), ec.hash]) for row in rows]
    return "\n".join(lines) + "\n"


def _rate_fit(ns, values) -> dict:
    """fit_rate's fields, or {"error": message} when the values cannot be fitted."""
    try:
        return dataclasses.asdict(fit_rate(ns, values))
    except InsufficientDataError as exc:
        return {"error": str(exc)}


def _write_results(out_dir: str, files: dict) -> None:
    """Write result files from their text, rendered in full before the first is written."""
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    print(f"wrote {', '.join(files)} to {out_dir}")


def _write_run_meta(out_dir: str, command: str, ec: ExperimentConfig, workers: int, elapsed: float) -> None:
    meta = {
        "command": command,
        "config_hash": ec.hash,
        "experiment": ec.experiment,
        "workers": workers,
        "elapsed_seconds": elapsed,
        "finished_at_unix": time.time(),
        "numpy_version": np.__version__,
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        fh.write(_json_text(meta))


# ---------------------------------------------------------------------------
# Worker-pool plumbing
# ---------------------------------------------------------------------------


def _quiet(fn: Callable, *args):
    """fn(*args) with numpy's overflow and invalid-value warnings off; the typed guards report those."""
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(*args)


def _map_ordered(fn: Callable, plan, count: int, workers: int) -> list:
    """[fn(plan, i) for i in range(count)], on a pool when it helps; fn must use (plan, i) alone.

    The pool has at most one process per task and per CPU this process may
    run on, since every worker is started at once. Each pool task runs
    under _quiet, whatever the start method.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, count, cpus)
    if workers <= 1:
        return [fn(plan, i) for i in range(count)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_quiet, [fn] * count, [plan] * count, range(count)))


def _convergence_worker(plan: dict, i: int) -> list:
    """Ensemble size n_list[i] of the gap sweep (all clamp levels, paired draws)."""
    model = plan["model"]
    models = [(b, _build_model({**model, "b_bar": b})) for b in plan["b_bar_list"]]
    am = _analytic(model)
    U = models[0][1].principal_utility_U  # every cell has the plan's utility
    return gap_sweep(
        models,
        am.gamma_hat,
        float(U(am.V_infinity)),
        [plan["n_list"][i]],
        SimGrid(model["T"], plan["steps"]),
        plan["replications"],
        SeedSpec(plan["seed"]).child(i),
    )


def _chaos_worker(plan: dict, r: int) -> list:
    """Seed r of the chaos sweep: proxy law plus every finite-n distance."""
    model = _build_model(plan["model"])
    gamma, aleph = _feedback(plan["model"], plan["policy"])
    grid = SimGrid(plan["model"]["T"], plan["steps"])
    seed = SeedSpec(plan["seed"])
    proxy = simulate_terminal_measure(model, gamma, aleph, plan["N_proxy"], grid, seed.child(1, 0, r))
    out = []
    for i_n, n in enumerate(plan["n_list"]):
        m_n = simulate_terminal_measure(model, gamma, aleph, n, grid, seed.child(0, i_n, r))
        out.append(wasserstein_p(m_n, proxy))
    return out


def _self_check_worker(master_seed: int, i: int) -> dict:
    name, key, fn = _SELF_CHECKS[i]
    result = fn(SeedSpec(master_seed).child(key))
    result["name"] = name
    return _sanitize(result)


# ---------------------------------------------------------------------------
# multitask-convergence
# ---------------------------------------------------------------------------


def cmd_multitask_convergence(ec: ExperimentConfig, out_dir: str, workers: int) -> int:
    cfg = ec.raw
    model = _model_plan(cfg)
    if model["name"] != "multitask":
        raise ConfigError("model.name: multitask-convergence requires the multitask model")
    # The gaps are measured against the closed-form limit, which assumes unit
    # volatility, so a scaled model would be compared with the wrong limit.
    if model["sigma_scale"] != 1.0:
        raise ConfigError(
            f"model.sigma_scale: multitask-convergence runs at scale 1, got {model['sigma_scale']!r}"
        )
    plan = {
        "model": model,
        "steps": ec.steps,
        "seed": ec.master_seed,
        "n_list": _field(cfg, "mc.n_list", "count-list", ge=1),
        "b_bar_list": _field(cfg, "mc.b_bar_list", "level-list", gt=0),
        "replications": _field(cfg, "mc.replications", "count", ge=2),
    }
    _reject_unread(cfg)
    n_list, b_bar_list = plan["n_list"], plan["b_bar_list"]

    cells = [
        row
        for rows in _map_ordered(_convergence_worker, plan, len(n_list), workers)
        for row in rows
    ]
    v_limit = cells[0]["v_limit"]

    # Rate fit per clamp level (gap vs n), and the single-constant bound
    # gap <= C * (n^{-1/2} + 1/b_bar) with C calibrated on the smallest n.
    fits = {}
    for b in b_bar_list:
        group = [c for c in cells if c["b_bar"] == b]
        fits[repr(b)] = _rate_fit([c["n"] for c in group], [c["gap"] for c in group])

    n0 = min(n_list)
    calib = [c for c in cells if c["n"] == n0]
    C = max(max(c["gap"], 0.0) / (n0**-0.5 + 1.0 / c["b_bar"]) for c in calib)
    bound_rows = []
    bound_ok = True
    for c in cells:
        limit = C * (c["n"] ** -0.5 + 1.0 / c["b_bar"])
        ok = c["gap"] <= limit + 3.0 * c["se"]
        bound_ok &= ok
        bound_rows.append({"n": c["n"], "b_bar": c["b_bar"], "bound": limit, "ok": ok})

    records = [(f"gap[n={c['n']},b_bar={c['b_bar']!r}]", c["gap"], c["se"]) for c in cells]
    records.append(("v_limit", v_limit, 0.0))

    am = _analytic(model)
    lines = [
        f"multitask-convergence  experiment={ec.experiment}  config={ec.hash}",
        (
            f"kappa_bar={model['kappa_bar']!r}  R={model['R']!r}  T={model['T']!r}  "
            f"E[iota]={model['E_iota']!r}  utility={model['utility']}"
        ),
        (
            f"limit value U(V) = {v_limit!r}  with V = -R + e^(kappa_bar*T)*E[iota]"
            f" + 0.5*int gamma_hat^2 = {am.V_infinity!r}"
        ),
        "",
        f"{'n':>8} {'b_bar':>10} {'value':>14} {'se':>12} {'gap':>14} {'bound':>12} ok",
    ]
    for c, b in zip(cells, bound_rows):
        lines.append(
            f"{c['n']:>8} {c['b_bar']:>10.4g} {c['v_n']:>14.6g} {c['se']:>12.3g} "
            f"{c['gap']:>14.6g} {b['bound']:>12.6g} {'yes' if b['ok'] else 'NO'}"
        )
    lines.append("")
    lines.append(f"bound constant C = {C!r} calibrated at n = {n0}")
    for b_repr, fit in fits.items():
        if "error" in fit:
            lines.append(f"rate fit (b_bar={b_repr}): {fit['error']}")
        else:
            lines.append(
                f"rate fit (b_bar={b_repr}): slope={fit['slope']:.4f} "
                f"r^2={fit['r_squared']:.4f} (reference -0.5)"
            )
    lines.append(f"verdict: gaps within bound (3*se slack): {'yes' if bound_ok else 'NO'}")

    _write_results(out_dir, {
        "gaps.csv": _result_csv(
            ec,
            ["n", "b_bar", "v_n", "se", "v_limit", "gap"],
            [[c["n"], c["b_bar"], c["v_n"], c["se"], c["v_limit"], c["gap"]] for c in cells],
        ),
        "fit.json": _result_json(
            ec,
            records,
            rate_fits_by_b_bar=fits,
            bound={
                "constant_C": C,
                "calibrated_at_n": n0,
                "form": "gap <= C * (n^-0.5 + 1/b_bar) + 3*se",
                "satisfied": bool(bound_ok),
                "cells": bound_rows,
            },
        ),
        "summary.txt": "\n".join(lines) + "\n",
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# contract-eval
# ---------------------------------------------------------------------------


def _deviation_config(cfg: dict, replications: int):
    """(n, replications, action grid) of the mc.deviation block, or None; the cap is checked first."""
    if _field(cfg, "mc.deviation", "dict", None) is None:
        return None
    d_n = _field(cfg, "mc.deviation.n", "count", 2, ge=1)
    d_reps = _field(cfg, "mc.deviation.replications", "count", replications, ge=2)
    lo = _field(cfg, "mc.deviation.min", "number", -3.0)
    hi = _field(cfg, "mc.deviation.max", "number", 3.0)
    step = _field(cfg, "mc.deviation.step", "number", 0.25)
    if not step > 0 or hi <= lo:
        raise ConfigError("mc.deviation: need a step > 0 and max > min")
    # np.arange(lo, stop, step) has ceil((stop - lo) / step) entries, so the
    # actions are counted from the same doubles; a count past the cap (or
    # inf) is not taken. The exponent is capped at 64: any grid of >= 2
    # actions is over the cap by then, and a one-action grid has one cell
    # whatever the exponent.
    stop = hi + step / 2
    span = (stop - lo) / step
    actions = math.ceil(span) if span < MAX_DEVIATION_CELLS else math.inf
    if actions ** min(d_n, 64) > MAX_DEVIATION_CELLS:
        raise ConfigError(
            f"mc.deviation: ({actions} actions)^(n={d_n}) cells exceed the "
            f"{MAX_DEVIATION_CELLS} cap; raise mc.deviation.step or lower mc.deviation.n"
        )
    return d_n, d_reps, np.arange(lo, stop, step)


def cmd_contract_eval(ec: ExperimentConfig, out_dir: str, workers: int) -> int:
    cfg = ec.raw
    plan = _model_plan(cfg)
    policy = _feedback_plan(cfg, plan)
    trunc = _field(cfg, "policy.truncation_l", "level", math.inf, gt=-math.inf)
    symmetric = _field(cfg, "policy.symmetric", "bool", False)
    if symmetric and trunc < 0:
        raise ConfigError(f"policy.truncation_l: must be >= 0 with policy.symmetric, got {trunc!r}")
    y0 = _field(cfg, "policy.Y0", "number", plan["R"], ge=plan["R"])
    n = _field(cfg, "mc.n", "count", ge=1)
    replications = _field(cfg, "mc.replications", "count", ge=2)
    deviation = _deviation_config(cfg, replications)
    dump_paths = _field(cfg, "output.dump_paths", "bool", False)
    _reject_unread(cfg)

    model = _build_model(plan)
    gamma, aleph = _feedback(plan, policy)
    contract = Contract(Y0=y0, gamma=gamma, aleph=aleph, truncation_l=trunc, symmetric=symmetric)
    grid = SimGrid(plan["T"], ec.steps)
    seed = SeedSpec(ec.master_seed)

    # the path dump is one more ensemble of the report's pass, on stream key 2
    paths_seed = seed.child(2) if dump_paths else None
    report = contract_report(contract, model, n, grid, replications, seed.child(0), paths_seed)
    records = [
        (key, report[key].value, report[key].se)
        for key in ("xi", "agent_reward", "principal_inside", "principal_outside")
    ]
    payload = {"n": n, "replications": replications, "per_replication": report["per_replication"]}
    if policy["source"] == "analytic":
        # at volatility scale s the agent plays gamma_hat / s: E xi = Y0 + 1/2 int (gamma_hat / s)^2
        payload["analytic_reference"] = {
            "xi_mean": y0 + 0.5 * _analytic(plan).gamma_sq_integral / plan["sigma_scale"] ** 2,
            "agent_reward": y0,
            "note": "untruncated closed form; truncation or clamping shifts these",
        }

    files = {}
    if deviation is not None:
        d_n, d_reps, action_grid = deviation
        scan = joint_deviation_scan(contract, model, action_grid, d_n, grid, d_reps, seed.child(1))
        with np.errstate(divide="ignore", invalid="ignore"):
            std_gain = np.where(
                scan["se"] > 0,
                scan["gain"] / np.maximum(scan["se"], 1e-300),
                np.where(scan["gain"] > 0, np.inf, 0.0),
            )
        no_improvement = bool(np.all(scan["gain"] <= 3.0 * scan["se"] + 1e-15))
        files["pareto.csv"] = _result_csv(
            ec,
            [f"a_{i}" for i in range(d_n)] + ["gain", "se"],
            [
                list(scan["actions"][j]) + [float(scan["gain"][j]), float(scan["se"][j])]
                for j in range(len(scan["gain"]))
            ],
        )
        best = int(np.argmax(scan["gain"]))
        payload["pareto"] = {
            "cells": int(len(scan["gain"])),
            "no_improvement_beyond_3se": no_improvement,
            "max_gain": float(scan["gain"][best]),
            "max_gain_se": float(scan["se"][best]),
            "max_gain_actions": [float(a) for a in scan["actions"][best]],
            "max_standardized_gain": float(np.max(std_gain)),
            "baseline_reward": scan["baseline"].value,
            "baseline_se": scan["baseline"].se,
        }
        records.append(("pareto_max_gain", float(scan["gain"][best]), float(scan["se"][best])))
        records.append(("pareto_baseline", scan["baseline"].value, scan["baseline"].se))

    files["contract_summary.json"] = _result_json(ec, records, **payload)
    _write_results(out_dir, files)
    if dump_paths:  # the path dump holds only guarded, finite states
        save_paths_csv(report["paths"], os.path.join(out_dir, "paths.csv"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# policy-opt
# ---------------------------------------------------------------------------


def _knots_from_config(cfg: dict, T: float) -> np.ndarray:
    if isinstance(_walk(cfg, "policy.knots"), list):
        knots = np.asarray(_field(cfg, "policy.knots", "number-list"), dtype=float)
        if np.any(np.diff(knots) <= 0):
            raise ConfigError(f"policy.knots: must be strictly increasing, got {knots.tolist()!r}")
    else:
        knots = np.linspace(0.0, T, _field(cfg, "policy.knots", "count", ge=1) + 1)
    if abs(knots[0]) > 1e-12 or abs(knots[-1] - T) > 1e-9:
        raise ConfigError("policy.knots: must span [0, T]")
    return knots


def cmd_policy_opt(ec: ExperimentConfig, out_dir: str, workers: int) -> int:
    cfg = ec.raw
    plan = _model_plan(cfg)
    knots = _knots_from_config(cfg, plan["T"])
    init_gamma = _field(cfg, "policy.init_gamma", "number", 0.5)
    bounds = _field(cfg, "policy.bounds", "level-list", None)
    if bounds is not None and (len(bounds) != 2 or not bounds[0] < bounds[1]):
        raise ConfigError(f"policy.bounds: expected [lo, hi] with lo < hi, got {bounds!r}")
    parts = tuple(_field(cfg, "policy.parts", "str-list", ["gamma"], choices=POLICY_PARTS))
    budget = _field(cfg, "policy.budget", "int", 400, ge=1)
    N_proxy = _field(cfg, "mc.N_proxy", "count", 20_000, ge=2)
    _reject_unread(cfg)

    model = _build_model(plan)
    m = len(knots) - 1
    zeros = np.zeros(m)
    initial = PolicyParam(
        knots=knots,
        gamma_c0=np.full(m, init_gamma),
        gamma_c1=zeros,
        aleph_c0=zeros,
        aleph_c1=zeros,
    )
    result = optimize_policy(
        model,
        initial,
        N_proxy=N_proxy,
        grid=SimGrid(plan["T"], ec.steps),
        seed=SeedSpec(ec.master_seed).child(0),
        budget=budget,
        parts=parts,
        bounds=bounds,
    )

    best = result.policy
    records = [("best_value", result.value, result.se), ("initial_value", result.trace[0], None)]
    payload = {
        "converged": result.converged,
        "n_evaluations": len(result.trace),
        "policy": dataclasses.asdict(best),
    }
    if plan["name"] == "multitask":
        # The agent plays gamma / s at volatility scale s, so s * gamma_hat is
        # optimal; the limit objective carries no utility U.
        am = _analytic(plan)
        mids = 0.5 * (knots[:-1] + knots[1:])
        gh = plan["sigma_scale"] * np.array([am.gamma_hat(t) for t in mids])
        payload["analytic"] = {
            "gamma_hat_mid": gh,
            "max_gamma_c0_error": float(np.max(np.abs(best.gamma_c0 - gh))),
            "max_gamma_c1_abs": float(np.max(np.abs(best.gamma_c1))),
            "value_closed_form": am.V_infinity,
            "value_error": float(abs(result.value - am.V_infinity)),
        }
    _write_results(out_dir, {
        "policy_best.json": _result_json(ec, records, **payload),
        "trace.csv": _result_csv(ec, ["evaluation", "value"], enumerate(result.trace)),
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------


def cmd_chaos(ec: ExperimentConfig, out_dir: str, workers: int) -> int:
    cfg = ec.raw
    model = _model_plan(cfg)
    plan = {
        "model": model,
        "policy": _feedback_plan(cfg, model),
        "steps": ec.steps,
        "seed": ec.master_seed,
        "n_list": _field(cfg, "mc.n_list", "count-list", ge=1),
        "N_proxy": _field(cfg, "mc.N_proxy", "count", ge=2),
    }
    replications = _field(cfg, "mc.replications", "count", 20, ge=1)
    _reject_unread(cfg)
    n_list = plan["n_list"]

    w = np.array(_map_ordered(_chaos_worker, plan, replications, workers))  # (reps, len(n_list))
    medians = np.median(w, axis=0)
    mean = mean_se(w)

    records = [
        (f"median_w1[n={n}]", float(medians[i]), float(mean.se[i])) for i, n in enumerate(n_list)
    ]
    _write_results(out_dir, {
        "chaos.csv": _result_csv(
            ec,
            ["n", "median_w1", "mean_w1", "se_mean"],
            [
                [n, float(medians[i]), float(mean.value[i]), float(mean.se[i])]
                for i, n in enumerate(n_list)
            ],
        ),
        "chaos_fit.json": _result_json(
            ec,
            records,
            replications=replications,
            N_proxy=plan["N_proxy"],
            rate_fit=_rate_fit(n_list, medians),
            reference_slope=-0.5,
        ),
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# self-check battery
# ---------------------------------------------------------------------------


def _check_limit_oracle(seed: SeedSpec) -> dict:
    """kappa_bar = 0 limit objective equals 0.5 within noise."""
    model = multitask_model(0.0, 10.0)
    grid = SimGrid(1.0, 200)
    est = evaluate_limit_objective(
        model, (MultitaskAnalytic(0.0).gamma_hat, lambda t, x: 0.0), N_proxy=20_000, grid=grid, seed=seed
    )
    tol = max(5.0 * est.se, 5e-3)
    return {
        "passed": abs(est.value - 0.5) <= tol,
        "observed": est.value,
        "target": 0.5,
        "tolerance": tol,
    }


def _check_consistency(seed: SeedSpec) -> dict:
    """n-player estimator and contract evaluator agree to 1e-12 on shared draws."""
    n = 16  # self_check.json records the check at this size
    model = multitask_model(0.5, 10.0)
    grid = SimGrid(1.0, 50)
    contract = Contract(Y0=0.0, gamma=MultitaskAnalytic(0.5).gamma_hat, aleph=lambda t, x: 0.0)
    _, details = estimate_n_player_value(model, contract.gamma, contract.aleph, n, grid, 1, seed)
    paths = simulate_particles(model, contract.gamma_l, contract.aleph_l, n, grid, seed.child(0))
    xi, y_path = evaluate_terminal_payment(contract, model, paths)
    dy = abs(float(details["y_T"][0]) - float(y_path[-1]))
    dxi = abs(float(details["xi"][0]) - xi)
    return {
        "passed": dy <= 1e-12 and dxi <= 1e-12,
        "observed": {"y_T_diff": dy, "xi_diff": dxi},
        "tolerance": 1e-12,
    }


def _check_envelope(seed: SeedSpec) -> dict:
    """H dominates h over random probes with equality at the maximizer."""
    model = multitask_model(0.3, 10.0)
    rng = seed.generator()
    m = EmpiricalMeasure(rng.normal(size=30))
    violations = 0
    worst_eq = 0.0
    for _ in range(200):
        t = float(rng.uniform(0.0, 1.0))
        x = float(rng.normal())
        z = float(rng.uniform(-3.0, 3.0))
        _, _, H = reduced_coefficients(model, t, x, m, 0.0, z)
        for a in rng.uniform(-5.0, 5.0, size=50):
            if hamiltonian_h(model, t, x, m, 0.0, z, float(a)) > H + 1e-10:
                violations += 1
        zsig = slope_over_sigma(z, model.vol_sigma(t, x))
        a_star = maximize_hamiltonian(model, t, x, m, 0.0, zsig)
        worst_eq = max(worst_eq, abs(hamiltonian_h(model, t, x, m, 0.0, z, a_star) - H))
    return {
        "passed": violations == 0 and worst_eq <= 1e-8,
        "observed": {"violations": violations, "worst_equality_error": worst_eq},
    }


def _check_wasserstein(seed: SeedSpec) -> dict:
    """Metric sanity: triangle inequality, known atom distance, shift identity."""
    rng = seed.generator()
    worst_tri = -math.inf
    for _ in range(50):
        a = EmpiricalMeasure(rng.normal(size=37))
        b = EmpiricalMeasure(rng.normal(size=21) + 1.0)
        c = EmpiricalMeasure(rng.normal(size=64) * 2.0)
        worst_tri = max(
            worst_tri,
            wasserstein_p(a, c) - (wasserstein_p(a, b) + wasserstein_p(b, c)),
        )
    atom = abs(wasserstein_p(EmpiricalMeasure([0.0, 0.0]), EmpiricalMeasure([0.0, 2.0])) - 1.0)
    xs = rng.normal(size=101)
    shift = abs(wasserstein_p(EmpiricalMeasure(xs), EmpiricalMeasure(xs + 0.75)) - 0.75)
    passed = worst_tri <= 1e-9 and atom <= 1e-12 and shift <= 1e-12
    return {
        "passed": passed,
        "observed": {"triangle_excess": worst_tri, "atom_error": atom, "shift_error": shift},
    }


def _check_terminal_variance(seed: SeedSpec) -> dict:
    """Zero-effort system is driftless: Var(X_T) = T within chi-square noise."""
    model = multitask_model(0.0, 10.0)
    grid = SimGrid(1.0, 50)
    n = 20_000
    m = simulate_terminal_measure(model, lambda t, x: 0.0, lambda t, x: 0.0, n, grid, seed)
    var = m.moment(2) - m.mean() ** 2
    tol = 4.0 * math.sqrt(2.0 / (n - 1))
    return {"passed": abs(var - 1.0) <= tol, "observed": var, "target": 1.0, "tolerance": tol}


def _check_quadrature(seed: SeedSpec) -> dict:
    """Closed-form squared-slope integral matches 30-point Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(30)
    t = 0.5 * (nodes + 1.0)  # [-1, 1] mapped onto [0, 1]
    worst = 0.0
    for kappa in (-1.0, -0.5, 0.0, 0.5, 1.0):
        am = MultitaskAnalytic(kappa)
        target = 0.5 * float(weights @ np.exp(2.0 * kappa * (1.0 - t)))
        worst = max(worst, abs(am.gamma_sq_integral - target))
    return {"passed": worst <= 1e-8, "observed": worst, "tolerance": 1e-8}


def _check_rate_fit(seed: SeedSpec) -> dict:
    """fit_rate recovers exact power laws and rejects starved inputs."""
    ns = [10.0, 100.0, 1000.0, 10000.0]
    f1 = fit_rate(ns, [3.7 * n**-0.5 for n in ns])
    f2 = fit_rate(ns, [0.2 / n for n in ns])
    try:
        fit_rate([10.0, 100.0, 1000.0], [0.5, 0.1, -0.2])
        starved_raises = False
    except InsufficientDataError:
        starved_raises = True
    err = max(abs(f1.slope + 0.5), abs(f2.slope + 1.0), abs(f1.r_squared - 1.0))
    return {
        "passed": err <= 1e-10 and starved_raises,
        "observed": {"max_slope_error": err, "starved_raises": starved_raises},
    }


def _check_seed_streams(seed: SeedSpec) -> dict:
    """Seed algebra: child/generator agree; repeat evaluation is bit-stable."""
    a = seed.generator(5).standard_normal(4)
    b = seed.child(5).generator().standard_normal(4)
    c = seed.generator(6).standard_normal(4)
    model = multitask_model(0.25, 10.0)
    grid = SimGrid(1.0, 20)
    pol = (lambda t, x: 1.0, lambda t, x: 0.0)
    e1 = evaluate_limit_objective(model, pol, N_proxy=2_000, grid=grid, seed=seed.child(7))
    e2 = evaluate_limit_objective(model, pol, N_proxy=2_000, grid=grid, seed=seed.child(7))
    passed = (
        bool(np.array_equal(a, b))
        and not bool(np.array_equal(a, c))
        and e1.value == e2.value
        and e1.se == e2.se
    )
    return {
        "passed": passed,
        "observed": {
            "child_equals_keyed": bool(np.array_equal(a, b)),
            "distinct_keys_differ": not bool(np.array_equal(a, c)),
            "repeat_value_equal": e1.value == e2.value,
        },
    }


# (name, stream key, check). A key is never reused or renumbered, so
# deleting a check re-seeds none of the others.
_SELF_CHECKS: list = [
    ("limit-objective-oracle", 0, _check_limit_oracle),
    ("nplayer-contract-consistency", 1, _check_consistency),
    ("hamiltonian-envelope", 3, _check_envelope),
    ("wasserstein-metric", 4, _check_wasserstein),
    ("terminal-variance", 5, _check_terminal_variance),
    ("closed-form-quadrature", 6, _check_quadrature),
    ("rate-fit-exactness", 7, _check_rate_fit),
    ("seed-stream-stability", 8, _check_seed_streams),
]


def cmd_self_check(ec: ExperimentConfig, out_dir: str, workers: int) -> int:
    results = _map_ordered(_self_check_worker, ec.master_seed, len(_SELF_CHECKS), workers)
    all_passed = all(r["passed"] for r in results)
    records = [(f"self_check.{r['name']}", 1.0 if r["passed"] else 0.0, 0.0) for r in results]
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}")
    _write_results(out_dir, {
        "self_check.json": _result_json(ec, records, all_passed=all_passed, checks=results),
    })
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "multitask-convergence": cmd_multitask_convergence,
    "contract-eval": cmd_contract_eval,
    "policy-opt": cmd_policy_opt,
    "chaos": cmd_chaos,
    "self-check": cmd_self_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palab",
        description="Config-driven experiments on interacting-agent contract models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", help="output directory (overrides output.directory)")
        p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
        p.add_argument("--seed", type=int, help="override mc.master_seed")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers: must be >= 1, got {args.workers}")
        ec = parse_config(load_config(args.config), seed_override=args.seed)
        configured = _field(ec.raw, "output.directory", "str", None)  # --out overrides it
        out_dir = args.out or configured
        if out_dir is None:
            raise ConfigError("output.directory: required (or pass --out)")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            source = "--out" if args.out else "output.directory"
            raise ConfigError(f"{source}: cannot create directory {out_dir}: {exc}") from None
        t0 = time.perf_counter()
        code = _quiet(_COMMANDS[args.command], ec, out_dir, args.workers)
        if args.command != "self-check":
            _write_run_meta(out_dir, args.command, ec, args.workers, time.perf_counter() - t0)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationBlowupError as exc:
        print(f"numeric blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ContractEvaluationError, NumericDomainError, AmbiguousMaximizerError, ArithmeticError) as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MemoryError, ValueError) as exc:
        # numpy refuses an array past its address space before allocating;
        # a count below _MAX_COUNT (linspace's padding, a product) can reach it
        if isinstance(exc, ValueError) and not str(exc).startswith("array is too big"):
            raise
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
