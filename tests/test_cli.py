"""End-to-end tests of the palab command line: configs, outputs, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import palab.cli as cli


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def _conv_config(**over):
    cfg = {
        "experiment": "conv-smoke",
        "model": {
            "name": "multitask",
            "params": {"kappa_bar": 0.5, "b_bar": 10.0},
            "utility": "exp",
            "nu": {"kind": "point", "value": 0.0},
        },
        "grid": {"steps": 20},
        "mc": {
            "master_seed": 2024,
            "n_list": [4, 8],
            "b_bar_list": [10.0],
            "replications": 50,
        },
    }
    for key, val in over.items():
        section, _, field = key.partition(".")
        if field:
            cfg.setdefault(section, {})[field] = val
        else:
            cfg[section] = val
    return cfg


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config validation -> exit code 2
# ---------------------------------------------------------------------------


def test_missing_config_file(tmp_path):
    code = cli.main(["self-check", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["self-check", "--config", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_config_without_steps_rejected(tmp_path, capsys):
    cfg = _conv_config()
    del cfg["grid"]["steps"]
    code = cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "grid.steps" in capsys.readouterr().err


def test_config_without_seed_rejected(tmp_path, capsys):
    cfg = _conv_config()
    del cfg["mc"]["master_seed"]
    code = cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "master_seed" in capsys.readouterr().err


def test_wrong_types_rejected(tmp_path):
    cfg = _conv_config()
    cfg["grid"]["steps"] = True  # bool is not an int here
    assert cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    cfg = _conv_config()
    cfg["mc"]["n_list"] = [4.5]
    assert cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg, "b.json"), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    cfg = _conv_config()
    cfg["model"]["params"]["b_bar"] = -1.0
    assert cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg, "c.json"), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    cfg = _conv_config()
    cfg["model"]["name"] = "unknown-model"
    assert cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg, "d.json"), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_missing_output_dir_rejected(tmp_path):
    cfg = _conv_config()  # no output.directory and no --out
    code = cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg)])
    assert code == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# config hashing
# ---------------------------------------------------------------------------


def test_config_hash_key_order_invariant():
    a = {"b": 1, "a": {"y": 2.0, "x": [1, 2]}}
    b = {"a": {"x": [1, 2], "y": 2.0}, "b": 1}
    assert cli.config_hash(a) == cli.config_hash(b)
    c = {"a": {"x": [1, 2], "y": 2.0}, "b": 2}
    assert cli.config_hash(a) != cli.config_hash(c)
    assert len(cli.config_hash(a)) == 16


def test_seed_override_changes_hash():
    raw = _conv_config()
    ec = cli.parse_config(raw)
    ec7 = cli.parse_config(raw, seed_override=7)
    assert ec.hash != ec7.hash
    assert ec7.master_seed == 7
    # overriding with the configured value is a no-op
    same = cli.parse_config(raw, seed_override=raw["mc"]["master_seed"])
    assert same.hash == ec.hash


# ---------------------------------------------------------------------------
# multitask-convergence
# ---------------------------------------------------------------------------


def test_convergence_minimal_run_emits_two_rows(tmp_path):
    # minimal real run: two ensemble sizes, one clamp, 10^3 replications
    cfg = _conv_config(**{
        "mc.n_list": [10, 100],
        "mc.replications": 1000,
        "grid.steps": 100,
    })
    out = tmp_path / "out"
    code = cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = _read_csv(out / "gaps.csv")
    assert len(rows) == 2
    assert [int(r["n"]) for r in rows] == [10, 100]
    gaps = [float(r["gap"]) for r in rows]
    ses = [float(r["se"]) for r in rows]
    # at this resolution the shared time-discretization bias (~dt) dominates
    # the n-dependent part of the gap, so only magnitude is checked here
    assert all(-3 * s < g < 0.02 for g, s in zip(gaps, ses))
    fit = json.loads((out / "fit.json").read_text())
    assert "records" in fit and "bound" in fit
    assert (out / "summary.txt").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["experiment"] == "conv-smoke"
    assert meta["elapsed_seconds"] > 0


def test_convergence_rerun_is_byte_identical(tmp_path):
    cfg_path = _write_config(tmp_path, _conv_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["multitask-convergence", "--config", cfg_path, "--out", str(out1)]) == 0
    assert cli.main(["multitask-convergence", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("gaps.csv", "fit.json", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_convergence_workers_do_not_change_results(tmp_path):
    cfg_path = _write_config(tmp_path, _conv_config())
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(["multitask-convergence", "--config", cfg_path, "--out", str(out1), "--workers", "1"]) == 0
    assert cli.main(["multitask-convergence", "--config", cfg_path, "--out", str(out2), "--workers", "3"]) == 0
    for name in ("gaps.csv", "fit.json", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_convergence_seed_flag(tmp_path):
    cfg_path = _write_config(tmp_path, _conv_config())
    outs = [tmp_path / x for x in ("s7", "s7again", "s8")]
    for out, seed in zip(outs, ("7", "7", "8")):
        assert cli.main(["multitask-convergence", "--config", cfg_path, "--out", str(out), "--seed", seed]) == 0
    assert (outs[0] / "gaps.csv").read_bytes() == (outs[1] / "gaps.csv").read_bytes()
    assert (outs[0] / "gaps.csv").read_bytes() != (outs[2] / "gaps.csv").read_bytes()
    # every row carries the hash of the effective config, which saw the seed
    rows7 = _read_csv(outs[0] / "gaps.csv")
    rows8 = _read_csv(outs[2] / "gaps.csv")
    assert rows7[0]["config_hash"] != rows8[0]["config_hash"]


def test_convergence_identity_utility_flat_limit(tmp_path):
    # kappa = 0 with the identity utility: the limit value column is exactly 1/2
    cfg = _conv_config(**{
        "model.params": {"kappa_bar": 0.0},
        "model.utility": "identity",
        "mc.n_list": [4],
        "mc.replications": 20,
    })
    out = tmp_path / "out"
    assert cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "gaps.csv")
    assert float(rows[0]["v_limit"]) == 0.5
    assert "0.5" in (out / "summary.txt").read_text()


# ---------------------------------------------------------------------------
# contract-eval
# ---------------------------------------------------------------------------


def test_contract_eval_outputs(tmp_path):
    cfg = {
        "experiment": "ce-smoke",
        "model": {
            "name": "multitask",
            "params": {"kappa_bar": 0.5, "b_bar": 10.0},
            "nu": {"kind": "normal", "mean": 0.0, "std": 1.0},
        },
        "grid": {"steps": 20},
        "policy": {"source": "analytic"},
        "mc": {
            "master_seed": 5,
            "n": 16,
            "replications": 10,
            "deviation": {"n": 2, "min": -1.0, "max": 1.0, "step": 1.0, "replications": 8},
        },
        "output": {"dump_paths": True},
    }
    out = tmp_path / "out"
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "contract_summary.json").read_text())
    metrics = {r["metric"] for r in summary["records"]}
    assert {"xi", "agent_reward", "principal_inside", "principal_outside"} <= metrics
    assert "analytic_reference" in summary
    assert abs(summary["analytic_reference"]["agent_reward"]) <= 1e-12  # R = 0
    assert len(summary["per_replication"]["xi"]) == 10
    pareto = _read_csv(out / "pareto.csv")
    assert len(pareto) == 9  # 3^2 deviation cells
    assert set(pareto[0]) == {"a_0", "a_1", "gain", "se", "config_hash"}
    assert (out / "paths.csv").exists()
    assert (out / "run_meta.json").exists()


def test_contract_eval_blowup_exit(tmp_path):
    cfg = {
        "experiment": "ce-blowup",
        "model": {"name": "multitask", "params": {"kappa_bar": 1e6}},
        "grid": {"steps": 50},
        "policy": {"source": "constant", "value": 1.0},
        "mc": {"master_seed": 1, "n": 4, "replications": 2},
    }
    out = tmp_path / "out"
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_BLOWUP


def _contract_config(**mc):
    return {
        "experiment": "ce-guard",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.0}},
        "grid": {"steps": 5},
        "policy": {"source": "constant", "value": 1.0},
        "mc": {"master_seed": 1, "n": 4, "replications": 2, **mc},
    }


def test_contract_eval_deviation_blowup_exit(tmp_path, capsys):
    # the deviation scan shares the stepper's guard: huge constant actions
    # trip the blow-up threshold instead of yielding a verdict from NaN
    cfg = _contract_config(deviation={"min": -1e200, "max": 1e200, "step": 1e200})
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_BLOWUP
    assert "numeric blowup" in capsys.readouterr().err
    assert not (out / "contract_summary.json").exists()


@pytest.mark.parametrize(
    "deviation, field",
    [
        ({"n": 0}, "mc.deviation.n"),
        ({"replications": 0}, "mc.deviation.replications"),
        ({"replications": 1}, "mc.deviation.replications"),
        ({"min": -2.0, "max": 2.0, "step": 1e-9}, "mc.deviation"),
    ],
    ids=["n-zero", "replications-zero", "replications-one", "too-many-cells"],
)
def test_contract_eval_deviation_validated(tmp_path, capsys, deviation, field):
    cfg = _contract_config(deviation=deviation)
    out = tmp_path / "out"
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "contract_summary.json").exists()


def test_contract_eval_numeric_error_exit(tmp_path, capsys):
    # a slope of 1e308 overflows the Hamiltonian at the first maximizer
    # probe: a typed numeric error with its own exit code, not a traceback,
    # and its one stderr line is not preceded by numpy overflow warnings
    cfg = {
        "experiment": "ce-numeric",
        "model": {"name": "quadratic"},
        "grid": {"steps": 5},
        "policy": {"source": "constant", "value": 1e308},
        "mc": {"master_seed": 1, "n": 4, "replications": 2},
    }
    out = tmp_path / "out"
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: NumericDomainError")
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# policy-opt
# ---------------------------------------------------------------------------


def test_policy_opt_outputs(tmp_path):
    cfg = {
        "experiment": "po-smoke",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.0}},
        "grid": {"steps": 20},
        "policy": {"knots": 4, "init_gamma": 0.6, "budget": 80, "parts": ["gamma_c0"]},
        "mc": {"master_seed": 11, "N_proxy": 2000},
    }
    out = tmp_path / "out"
    code = cli.main(["policy-opt", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    best = json.loads((out / "policy_best.json").read_text())
    assert len(best["policy"]["gamma_c0"]) == 4
    assert best["n_evaluations"] >= 1
    metrics = {r["metric"]: r["value"] for r in best["records"]}
    assert metrics["best_value"] >= metrics["initial_value"]
    # the flat optimum is easy to find even with a small budget
    assert "analytic" in best
    assert best["analytic"]["max_gamma_c0_error"] <= 0.2
    trace = _read_csv(out / "trace.csv")
    assert len(trace) == best["n_evaluations"]
    assert [int(r["evaluation"]) for r in trace] == list(range(len(trace)))


def test_policy_opt_knots_must_span_horizon(tmp_path):
    cfg = {
        "experiment": "po-bad",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.0}},
        "grid": {"steps": 10},
        "policy": {"knots": [0.0, 0.4]},  # does not reach T = 1
        "mc": {"master_seed": 11},
    }
    code = cli.main(["policy-opt", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------


def test_chaos_outputs(tmp_path):
    cfg = {
        "experiment": "chaos-smoke",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.5, "b_bar": 10.0}},
        "grid": {"steps": 10},
        "mc": {"master_seed": 3, "n_list": [50, 100], "N_proxy": 400, "replications": 4},
    }
    out = tmp_path / "out"
    code = cli.main(["chaos", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = _read_csv(out / "chaos.csv")
    assert [int(r["n"]) for r in rows] == [50, 100]
    w = [float(r["median_w1"]) for r in rows]
    assert all(x > 0 for x in w)
    assert w[1] < w[0]  # more particles, closer to the proxy
    fit = json.loads((out / "chaos_fit.json").read_text())
    assert fit["reference_slope"] == -0.5


# ---------------------------------------------------------------------------
# output conventions
# ---------------------------------------------------------------------------


def test_records_have_null_runtime_and_hash(tmp_path):
    # runtimes live in run_meta.json, not in result records; every record
    # carries the config hash
    cfg = _conv_config(**{"mc.n_list": [4], "mc.replications": 10})
    out = tmp_path / "out"
    assert cli.main(["multitask-convergence", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    ec = cli.parse_config(cfg)
    for rec in fit["records"]:
        assert rec["runtime"] is None
        assert rec["config_hash"] == ec.hash
