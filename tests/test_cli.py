"""End-to-end tests of the palab command line: configs, outputs, determinism."""

import ast
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import palab.cli as cli
from palab.contracts import Contract, contract_report
from palab.model import multitask_model, normal_law, quadratic_generic_model
from palab.sde_engine import SeedSpec, SimGrid, save_paths_csv, simulate_particles


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


def _assert_one_config_error(capsys, code, field):
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("mc", [None, 5, [], "x"], ids=["null", "number", "list", "string"])
def test_seed_flag_needs_mc_object(tmp_path, capsys, mc):
    cfg = {**_conv_config(), "mc": mc}
    out = tmp_path / "o"
    code = cli.main(["self-check", "--config", _write_config(tmp_path, cfg), "--out", str(out), "--seed", "3"])
    _assert_one_config_error(capsys, code, "mc:")
    assert not out.exists()


def test_unreadable_config_file(tmp_path, capsys):
    # a directory, and a file that is not UTF-8, are config errors like a
    # missing file or malformed JSON
    _assert_one_config_error(capsys, cli.main(["self-check", "--config", str(tmp_path)]), "--config")
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"experiment": "caf\xe9"}')
    _assert_one_config_error(capsys, cli.main(["self-check", "--config", str(path)]), "--config")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_rejected(tmp_path, capsys, workers):
    out = tmp_path / "o"
    argv = ["self-check", "--config", _write_config(tmp_path, _conv_config()), "--out", str(out)]
    _assert_one_config_error(capsys, cli.main(argv + ["--workers", workers]), "--workers:")
    assert not out.exists()


def test_readme_matches_cli():
    # the README's command table, exit codes and self-check count are the CLI's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | purpose | result files |", 1)[1].split("\n\n", 1)[0]
    commands = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
    assert commands == list(cli._COMMANDS)
    exit_text = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    documented = sorted({int(code) for code in re.findall(r"`(\d+)`", exit_text)})
    constants = sorted({value for name, value in vars(cli).items() if name.startswith("EXIT_")})
    assert documented == constants
    assert [int(n) for n in re.findall(r"\((\d+) checks", readme)] == [len(cli._SELF_CHECKS)]


def test_readme_names_every_config_key():
    # the README's config section names, as a backticked dotted key, every
    # path that cli.py reads with _field or _walk, and no other key; a block
    # (`model.nu`) counts when one of its children is read
    tree = ast.parse(Path(cli.__file__).read_text())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"_field", "_walk"}:
            path = node.args[1]
            if isinstance(path, ast.Constant):
                read.add(path.value)
            else:  # only the defs of _field and _walk pass a variable path
                assert ast.unparse(path) == "path", ast.unparse(node)
    read = {key for key in read if "." in key}
    blocks = {key.rsplit(".", i)[0] for key in read for i in range(1, key.count(".") + 1)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", section))
    assert sorted(read - named) == []
    assert sorted(named - read - blocks) == []


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


def _chaos_config():
    return {
        "experiment": "chaos-smoke",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.5, "b_bar": 10.0}},
        "grid": {"steps": 10},
        "mc": {"master_seed": 3, "n_list": [50, 100], "N_proxy": 400, "replications": 4},
    }


@pytest.mark.parametrize(
    "command, cfg, files",
    [
        ("multitask-convergence", _conv_config(), ("gaps.csv", "fit.json", "summary.txt")),
        ("chaos", _chaos_config(), ("chaos.csv", "chaos_fit.json")),
    ],
    ids=["multitask-convergence", "chaos"],
)
def test_workers_do_not_change_results(tmp_path, command, cfg, files):
    cfg_path = _write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main([command, "--config", cfg_path, "--out", str(out1), "--workers", "1"]) == 0
    assert cli.main([command, "--config", cfg_path, "--out", str(out2), "--workers", "3"]) == 0
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@given(
    n_list=st.lists(st.integers(1, 40), min_size=2, max_size=3),
    replications=st.integers(2, 5),
    steps=st.integers(1, 12),
    kappa_bar=st.floats(-1.0, 1.0),
    b_bar=st.floats(0.25, 10.0) | st.just(math.inf),
    seed=st.integers(0, 2**63 - 1),
)
@settings(max_examples=8)
def test_workers_never_change_result_bytes(n_list, replications, steps, kappa_bar, b_bar, seed):
    # on random small multitask configs, both pooled commands write the same
    # bytes in one process as on a two-process pool; each has at least two
    # tasks (n_list entries, replications), so the pool is used where the
    # machine has two CPUs
    model = {"name": "multitask", "params": {"kappa_bar": kappa_bar, "b_bar": b_bar}}
    mc = {"master_seed": seed, "n_list": n_list, "replications": replications}
    runs = [
        ("multitask-convergence", {"b_bar_list": [b_bar]}, ("gaps.csv", "fit.json", "summary.txt")),
        ("chaos", {"N_proxy": 60}, ("chaos.csv", "chaos_fit.json")),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for command, extra, files in runs:
            cfg = {"experiment": "workers-property", "model": model, "grid": {"steps": steps}, "mc": {**mc, **extra}}
            cfg_path = os.path.join(tmp, f"{command}.json")
            Path(cfg_path).write_text(json.dumps(cfg))
            outs = [os.path.join(tmp, f"{command}-w{k}") for k in (1, 2)]
            for k, out in zip((1, 2), outs):
                assert cli.main([command, "--config", cfg_path, "--out", out, "--workers", str(k)]) == cli.EXIT_OK
            for name in files:
                assert Path(outs[0], name).read_bytes() == Path(outs[1], name).read_bytes(), (command, name)


def test_pool_is_capped_at_usable_cpus(monkeypatch):
    # every pool worker is started at once, so --workers beyond the CPUs this
    # process may use would only start idle interpreters
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    square = lambda plan, i: plan * i * i
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._map_ordered(square, 2, 500, 500) == [2 * i * i for i in range(500)]
    assert cli._map_ordered(square, 2, 2, 500) == [0, 2]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cli._map_ordered(square, 2, 500, 500)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU, no pool
    assert cli._map_ordered(square, 2, 500, 500) == [2 * i * i for i in range(500)]
    assert sizes == [3, 2, 2]


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


def test_contract_eval_options_reach_contract_report(tmp_path):
    # the symmetric truncation (-1.5 clips to -1.2), the volatility scale and
    # Y0 reach the simulation exactly as a direct library call passes them;
    # neither built-in model reads the rate field, so aleph_value is only
    # parsed here
    cfg = {
        "experiment": "ce-options",
        "model": {
            "name": "multitask",
            "params": {"kappa_bar": 0.5, "b_bar": 10.0},
            "sigma_scale": 1.5,
            "nu": {"kind": "normal", "mean": 0.2, "std": 0.5},
        },
        "grid": {"steps": 10},
        "policy": {
            "source": "constant",
            "value": -1.5,
            "truncation_l": 1.2,
            "symmetric": True,
            "aleph_value": 0.3,
            "Y0": 0.1,
        },
        "mc": {"master_seed": 9, "n": 8, "replications": 4},
    }
    out = tmp_path / "out"
    assert cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "contract_summary.json").read_text())

    base = multitask_model(0.5, 10.0, nu=normal_law(0.2, 0.5))
    model = dataclasses.replace(base, vol_sigma=lambda t, x: 1.5 * base.vol_sigma(t, x))
    contract = Contract(
        Y0=0.1,
        gamma=lambda t, x: -1.5,
        aleph=lambda t, x: 0.3,
        truncation_l=1.2,
        symmetric=True,
    )
    report = contract_report(contract, model, 8, SimGrid(1.0, 10), 4, SeedSpec(9).child(0))
    assert summary["per_replication"] == report["per_replication"]


@pytest.mark.parametrize("sigma_scale, y0", [(2.0, None), (1.0, 1.0)], ids=["sigma-scale-2", "y0-1"])
def test_contract_eval_reference_follows_scale_and_y0(tmp_path, sigma_scale, y0):
    # at volatility scale s the agent plays gamma_hat / s, so the analytic
    # contract pays E xi = Y0 + 1/2 int (gamma_hat / s)^2 and leaves the agent
    # Y0; both references must hold the measured values within 3 se
    cfg = {
        "experiment": "ce-reference",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.5}, "sigma_scale": sigma_scale},
        "grid": {"steps": 50},
        "policy": {"source": "analytic"} if y0 is None else {"source": "analytic", "Y0": y0},
        "mc": {"master_seed": 3, "n": 200, "replications": 50},
    }
    out = tmp_path / "out"
    assert cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "contract_summary.json").read_text())
    reference = summary["analytic_reference"]
    records = {r["metric"]: r for r in summary["records"]}
    half = 0.5 * math.expm1(1.0)  # 1/2 int_0^1 e^(2 * 0.5 * (1 - t)) dt
    assert reference["xi_mean"] == pytest.approx((y0 or 0.0) + half / sigma_scale**2, rel=1e-14)
    assert reference["agent_reward"] == (y0 or 0.0)
    for metric, key in (("xi", "xi_mean"), ("agent_reward", "agent_reward")):
        assert abs(records[metric]["value"] - reference[key]) <= 3.0 * records[metric]["se"]


def test_contract_eval_paths_csv_equals_separate_simulation(tmp_path):
    # the dump steps inside the report's pass, yet writes the bytes of a
    # separate simulate_particles run on stream key 2 under the truncated
    # contract; the quadratic model runs the numeric maximizer
    cfg = {
        "experiment": "ce-dump",
        "model": {
            "name": "quadratic",
            "params": {"a_base": 0.3, "sigma0": 0.7},
            "R": 0.0,
            "nu": {"kind": "normal", "mean": 0.1, "std": 0.8},
        },
        "grid": {"steps": 8},
        "policy": {"source": "constant", "value": 0.6, "truncation_l": 0.5},
        "mc": {"master_seed": 13, "n": 6, "replications": 3},
        "output": {"dump_paths": True},
    }
    out = tmp_path / "out"
    assert cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0

    model = quadratic_generic_model(a_base=0.3, sigma0=0.7, R=0.0, nu=normal_law(0.1, 0.8))
    c = Contract(Y0=0.0, gamma=lambda t, x: 0.6, aleph=lambda t, x: 0.0, truncation_l=0.5)
    paths = simulate_particles(model, c.gamma_l, c.aleph_l, 6, SimGrid(1.0, 8), SeedSpec(13).child(2))
    save_paths_csv(paths, str(tmp_path / "expected.csv"))
    assert (out / "paths.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


_CE_BLOWUP = {
    "experiment": "ce-blowup",
    "model": {"name": "multitask", "params": {"kappa_bar": 1e6}},
    "grid": {"steps": 50},
    "policy": {"source": "constant", "value": 1.0},
    "mc": {"master_seed": 1, "n": 4, "replications": 2},
}


def test_contract_eval_blowup_exit(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, _CE_BLOWUP), "--out", str(out)])
    assert code == cli.EXIT_BLOWUP


def test_contract_eval_dump_blowup_exit(tmp_path):
    # with the dump on, the blow-up is raised in the pass the dump shares with
    # the report, still before any result file or paths.csv is written
    cfg = {**_CE_BLOWUP, "output": {"dump_paths": True}}
    out = tmp_path / "out"
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_BLOWUP
    assert not any(out.glob("*"))


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
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_BLOWUP
    err = capsys.readouterr().err
    assert err.startswith("numeric blowup") and len(err.strip().splitlines()) == 1
    assert not (out / "contract_summary.json").exists()


@pytest.mark.parametrize(
    "deviation, field",
    [
        ({"n": 0}, "mc.deviation.n"),
        ({"replications": 0}, "mc.deviation.replications"),
        ({"replications": 1}, "mc.deviation.replications"),
        ({"min": -2.0, "max": 2.0, "step": 1e-9}, "mc.deviation"),
        # (max - min) / step rounds to 140 spans, but the grid holds 142
        # actions: 142^2 cells are over the cap, 141^2 would not be
        ({"n": 2, "min": -1.0, "max": 3.215, "step": 0.03}, "mc.deviation"),
    ],
    ids=["n-zero", "replications-zero", "replications-one", "too-many-cells", "cells-counted-as-built"],
)
def test_contract_eval_deviation_validated(tmp_path, capsys, deviation, field):
    cfg = _contract_config(deviation=deviation)
    out = tmp_path / "out"
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    _assert_one_config_error(capsys, code, field)
    assert not any(out.glob("*"))


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


def test_contract_eval_nan_result_writes_nothing(tmp_path, capsys, monkeypatch):
    # a NaN in a result is a numeric error, raised while the result files are
    # rendered and so before the first of them (or the path dump) is written
    real = cli.contract_report

    def nan_xi(*args, **kwargs):
        report = real(*args, **kwargs)
        report["xi"] = dataclasses.replace(report["xi"], value=math.nan)
        return report

    monkeypatch.setattr(cli, "contract_report", nan_xi)
    cfg = {**_contract_config(deviation={"n": 1, "min": 0.0, "max": 1.0, "step": 1.0}),
           "output": {"dump_paths": True}}
    out = tmp_path / "out"
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: NumericDomainError")
    assert len(err.strip().splitlines()) == 1
    assert os.listdir(out) == []


_CHAOS_OVERFLOW = {
    "policy": {"source": "constant", "value": 1e200},
    "mc": {"n_list": [5], "N_proxy": 100, "replications": 2},
}


@pytest.mark.parametrize(
    "command, blocks, workers, code",
    [
        ("policy-opt", {"policy": {"knots": 2, "init_gamma": 1e200, "budget": 5}, "mc": {"N_proxy": 100}},
         1, cli.EXIT_BLOWUP),
        ("chaos", _CHAOS_OVERFLOW, 1, cli.EXIT_BLOWUP),
        ("chaos", _CHAOS_OVERFLOW, 2, cli.EXIT_BLOWUP),
        ("contract-eval", {"model": {"utility": "exp"}, "policy": {"source": "constant", "value": 1e4},
                           "mc": {"n": 4, "replications": 2}}, 1, cli.EXIT_NUMERIC),
        ("multitask-convergence", {"model": {"utility": "exp", "R": 1e4},
                                   "mc": {"n_list": [5], "b_bar_list": [10.0], "replications": 2}},
         1, cli.EXIT_NUMERIC),
    ],
    ids=["policy-opt", "chaos", "chaos-workers-2", "contract-eval", "convergence"],
)
def test_overflow_prints_only_the_typed_error(tmp_path, capsys, command, blocks, workers, code):
    # an overflow inside a command (or a pool task) reaches stderr as its one
    # typed line: numpy's RuntimeWarning never comes first
    cfg = {
        "experiment": "overflow",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.5}},
        "grid": {"steps": 10},
        "mc": {"master_seed": 1},
    }
    for name, block in blocks.items():
        cfg[name] = {**cfg.get(name, {}), **block}
    argv = [command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--workers", str(workers)]) == code
    err = capsys.readouterr().err
    prefix = "numeric blowup:" if code == cli.EXIT_BLOWUP else "numeric error:"
    assert err.startswith(prefix) and len(err.strip().splitlines()) == 1, err


def test_closed_form_overflow_is_a_numeric_error(tmp_path, capsys):
    # one Euler step from the atom at 0 stays finite, but the closed-form
    # limit value exp(kappa_bar T) overflows a float in Python's math module
    cfg = {
        "experiment": "closed-form-overflow",
        "model": {"name": "multitask", "params": {"kappa_bar": 1000.0}},
        "grid": {"steps": 1},
        "policy": {"knots": 1, "budget": 3},
        "mc": {"master_seed": 1, "N_proxy": 10},
    }
    out = tmp_path / "out"
    assert cli.main(["policy-opt", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric error: OverflowError: math range error\n"
    assert os.listdir(out) == []


_FINITE = st.floats(-1e308, 1e308)
_POSITIVE = st.floats(1e-300, 1e308)


@given(data=st.data(), command=st.sampled_from(["contract-eval", "policy-opt", "chaos", "multitask-convergence"]))
def test_finite_configs_never_end_in_a_traceback(data, command):
    # Any finite value in the model, law and policy fields, however large,
    # either runs or stops with a blow-up or numeric error on one stderr
    # line and no result file; never exit 1. Sizes stay tiny.
    draw = data.draw
    name = "multitask" if command == "multitask-convergence" else draw(st.sampled_from(["multitask", "quadratic"]))
    params = {"kappa_bar": draw(_FINITE)} if name == "multitask" else {"a_base": draw(_FINITE), "sigma0": draw(_POSITIVE)}
    nu = draw(st.sampled_from(["point", "normal"]))
    model = {
        "name": name,
        "params": params,
        "R": draw(_FINITE),
        "T": draw(_POSITIVE),
        "utility": draw(st.sampled_from(["identity", "exp"])),
        "nu": {"kind": "point", "value": draw(_FINITE)} if nu == "point" else
              {"kind": "normal", "mean": draw(_FINITE), "std": draw(_POSITIVE | st.just(0.0))},
    }
    mc = {"master_seed": draw(st.integers(0, 2**63 - 1))}
    policy = {}
    if command == "multitask-convergence":
        mc.update(n_list=[2, 3], b_bar_list=[draw(_POSITIVE | st.just(math.inf))], replications=2)
    else:
        model["sigma_scale"] = draw(_POSITIVE | st.just(0.0))
    if command == "policy-opt":
        policy = {"knots": draw(st.integers(1, 2)), "init_gamma": draw(_FINITE), "budget": draw(st.integers(1, 4))}
        mc["N_proxy"] = draw(st.integers(2, 10))
    elif command in ("contract-eval", "chaos"):
        sources = ["constant", "zero"] + (["analytic"] if name == "multitask" else [])
        policy = {"source": draw(st.sampled_from(sources)), "aleph_value": draw(_FINITE)}
        if policy["source"] == "constant":
            policy["value"] = draw(_FINITE)
        if command == "chaos":
            mc.update(n_list=[2, 3], N_proxy=draw(st.integers(2, 10)), replications=2)
        else:
            mc.update(n=draw(st.integers(1, 4)), replications=draw(st.integers(2, 3)))
    cfg = {"experiment": "finite-property", "model": model, "grid": {"steps": draw(st.integers(1, 4))},
           "policy": policy, "mc": mc}
    with tempfile.TemporaryDirectory() as tmp:
        out, err = os.path.join(tmp, "out"), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", _write_config(Path(tmp), cfg), "--out", out])
        assert code in (cli.EXIT_OK, cli.EXIT_BLOWUP, cli.EXIT_NUMERIC), err.getvalue()
        if code != cli.EXIT_OK:
            assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
            assert os.listdir(out) == []


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 8.00 EiB for an array"), "out of memory: Unable to allocate 8.00 EiB for an array\n"),
        (MemoryError(), "out of memory: an allocation failed\n"),
    ],
    ids=["numpy-message", "no-message"],
)
def test_memory_error_prints_one_line(tmp_path, capsys, monkeypatch, exc, line):
    # an allocation a command cannot make exits with its own code and one
    # stderr line, not a traceback; the command is replaced, so nothing
    # large is allocated
    def command(ec, out_dir, workers):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "chaos", command)
    out = tmp_path / "out"
    argv = ["chaos", "--config", _write_config(tmp_path, _chaos_config()), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_MEMORY
    assert capsys.readouterr().err == line
    assert os.listdir(out) == []


def test_run_meta_elapsed_ignores_wall_clock_steps(tmp_path, monkeypatch):
    # the wall clock steps back 100 s at every reading; the run's duration
    # comes from a monotonic clock, so it stays >= 0
    readings = iter(range(10**9, 0, -100))
    monkeypatch.setattr(cli.time, "time", lambda: float(next(readings)))
    out = tmp_path / "out"
    argv = ["contract-eval", "--config", _write_config(tmp_path, _contract_config()), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads((out / "run_meta.json").read_text())["elapsed_seconds"] >= 0


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


def test_policy_opt_keeps_its_start_in_the_box(tmp_path):
    # the initial slope 1.2 lies outside policy.bounds, so the search starts
    # from its clipped point: the written policy stays in the box, and the
    # start's recorded value is that of the simplex's first vertex
    cfg = {
        "experiment": "po-box",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.5}},
        "grid": {"steps": 20},
        "policy": {"knots": 2, "init_gamma": 1.2, "bounds": [0.2, 0.5], "budget": 40},
        "mc": {"master_seed": 3, "N_proxy": 2000},
    }
    out = tmp_path / "out"
    assert cli.main(["policy-opt", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_OK
    best = json.loads((out / "policy_best.json").read_text())
    assert all(0.2 <= c <= 0.5 for c in best["policy"]["gamma_c0"])
    metrics = {r["metric"]: r["value"] for r in best["records"]}
    assert metrics["initial_value"] == float(_read_csv(out / "trace.csv")[1]["value"])


def test_policy_opt_reference_follows_scale_not_utility(tmp_path):
    # the limit objective carries no utility U, and at volatility scale s the
    # agent plays gamma / s, so s * gamma_hat is optimal and the optimal value
    # is V_infinity at every s and under every U
    def analytic(name, init_gamma=0.6, **model):
        cfg = {
            "experiment": "po-reference",
            "model": {"name": "multitask", "params": {"kappa_bar": 0.0}, **model},
            "grid": {"steps": 20},
            "policy": {"knots": 4, "init_gamma": init_gamma, "budget": 80, "parts": ["gamma_c0"]},
            "mc": {"master_seed": 11, "N_proxy": 2000},
        }
        out = tmp_path / name
        assert cli.main(["policy-opt", "--config", _write_config(tmp_path, cfg, f"{name}.json"), "--out", str(out)]) == 0
        return json.loads((out / "policy_best.json").read_text())["analytic"]

    identity, exp = analytic("identity"), analytic("exp", utility="exp")
    scaled = analytic("scaled", init_gamma=1.6, sigma_scale=2.0)  # 0.4 from the optimum, as above
    assert exp == identity
    assert identity["value_closed_form"] == scaled["value_closed_form"] == 0.5
    assert scaled["gamma_hat_mid"] == [2.0 * g for g in identity["gamma_hat_mid"]]
    assert scaled["max_gamma_c0_error"] <= 0.2


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


def _policy_opt_config(**policy):
    return {
        "experiment": "po-guard",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.0}},
        "grid": {"steps": 5},
        "policy": {"knots": 2, "budget": 5, **policy},
        "mc": {"master_seed": 11, "N_proxy": 50},
    }


def _with(cfg, path, value):
    """A copy of cfg with the field at a dotted path set to value."""
    cfg = copy.deepcopy(cfg)
    *parents, last = path.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value
    return cfg


_MAX_COUNT = int(np.iinfo(np.intp).max) // 8  # the longest float64 array numpy can address

# Number fields that must be finite, each with a config that reads it. An
# infinite value is a config error whether it is written as a string or as
# JSON's Infinity; unchecked, it would fail mid-run as a blow-up or a
# numeric error, or (policy.aleph_value, which neither built-in model reads)
# not at all.
_FINITE_ONLY = [
    ("contract-eval", _contract_config(), "model.R"),
    ("contract-eval", _contract_config(), "model.sigma_scale"),
    ("contract-eval", _contract_config(), "model.params.kappa_bar"),
    ("contract-eval", {**_contract_config(), "model": {"name": "quadratic"}}, "model.params.a_base"),
    ("contract-eval", {**_contract_config(), "model": {"name": "quadratic"}}, "model.params.sigma0"),
    ("contract-eval", _contract_config(), "policy.Y0"),
    ("contract-eval", _contract_config(), "policy.value"),
    ("contract-eval", _contract_config(), "policy.aleph_value"),
    ("policy-opt", _policy_opt_config(), "policy.init_gamma"),
]
_INFINITIES = {"string-inf": "inf", "string-minus-inf": "-inf", "json-inf": math.inf, "json-minus-inf": -math.inf}


# Each of these fields is checked before any work starts: the library would
# otherwise fail mid-run on it, report an se of 0 from one particle, treat
# a truncation level of -inf as no truncation, or report an infinite horizon
# or initial law as a blow-up at its first step.
@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("policy-opt", _policy_opt_config(bounds=[2.0, 1.0]), "policy.bounds"),
        ("policy-opt", _policy_opt_config(knots=[0.0, 0.7, 0.3, 1.0]), "policy.knots"),
        ("policy-opt", {**_policy_opt_config(), "mc": {"master_seed": 11, "N_proxy": 0}}, "mc.N_proxy"),
        ("policy-opt", {**_policy_opt_config(), "mc": {"master_seed": 11, "N_proxy": 1}}, "mc.N_proxy"),
        ("multitask-convergence", _conv_config(**{"model.sigma_scale": 3.0}), "model.sigma_scale"),
        ("contract-eval", {**_contract_config(), "policy": {"Y0": -1.0}}, "policy.Y0"),
        ("contract-eval", {**_contract_config(), "policy": {"truncation_l": "-inf"}}, "policy.truncation_l"),
        (
            "contract-eval",
            {**_contract_config(), "policy": {"truncation_l": -1.0, "symmetric": True}},
            "policy.truncation_l",
        ),
        (
            "contract-eval",
            {**_contract_config(), "model": {"name": "multitask", "T": "inf", "params": {"kappa_bar": 0.0}}},
            "model.T",
        ),
        ("contract-eval", _with(_contract_config(), "model.nu", {"value": "inf"}), "model.nu.value"),
        ("contract-eval", _with(_contract_config(), "model.nu", {"kind": "normal", "mean": "inf"}), "model.nu.mean"),
        ("policy-opt", _with(_policy_opt_config(), "model.nu", {"kind": "normal", "mean": "-inf"}), "model.nu.mean"),
        ("policy-opt", _with(_policy_opt_config(), "model.nu", {"kind": "normal", "std": "inf"}), "model.nu.std"),
        *[
            (command, _with(cfg, field, value), field)
            for command, cfg, field in _FINITE_ONLY
            for value in _INFINITIES.values()
        ],
        # these cases give the whole message, so that each one stays word for word
        ("multitask-convergence", _conv_config(**{"mc.n_list": []}), "mc.n_list: expected a non-empty list of integers\n"),
        ("contract-eval", _with(_contract_config(), "model.R", [1.0]), "model.R: expected a number, got [1.0]\n"),
        ("contract-eval", _with(_contract_config(), "model.R", True), "model.R: expected a number, got True\n"),
        ("contract-eval", _with(_contract_config(), "model.R", "one"), "model.R: expected a number, got 'one'\n"),
        ("contract-eval", _with(_contract_config(), "model.R", "nan"), "model.R: NaN is not a valid value\n"),
        ("contract-eval", _with(_contract_config(), "model.utility", 1), "model.utility: expected a string, got 1\n"),
        ("contract-eval", _with(_contract_config(), "policy.symmetric", 1), "policy.symmetric: expected true/false, got 1\n"),
        ("contract-eval", [_contract_config()], "top level: expected a JSON object\n"),
        ("contract-eval", _with(_contract_config(), "mc.master_seed", -1), "mc.master_seed: must be in [0, 2^63), got -1\n"),
        (
            "contract-eval",
            _with(_contract_config(), "mc.master_seed", 2**63),
            f"mc.master_seed: must be in [0, 2^63), got {2**63}\n",
        ),
        (
            "contract-eval",
            {**_contract_config(), "model": {"name": "quadratic"}, "policy": {"source": "analytic"}},
            "policy.source: 'analytic' requires the multitask model\n",
        ),
        (
            "multitask-convergence",
            _conv_config(model={"name": "quadratic"}),
            "model.name: multitask-convergence requires the multitask model\n",
        ),
        ("contract-eval", _contract_config(deviation={"step": 0.0}), "mc.deviation: need a step > 0 and max > min\n"),
        ("contract-eval", _contract_config(deviation={"min": 1.0, "max": 1.0}), "mc.deviation: need a step > 0 and max > min\n"),
        # JSON integers beyond the float range: a number, a level and a count
        ("contract-eval", _with(_contract_config(), "model.R", 10**400), "model.R: must fit in a float, got a 401-digit integer\n"),
        (
            "contract-eval",
            _with(_contract_config(), "model.params.b_bar", 10**400),
            "model.params.b_bar: must fit in a float, got a 401-digit integer\n",
        ),
        ("contract-eval", _with(_contract_config(), "grid.steps", 10**400), "grid.steps: must fit in a float, got a 401-digit integer\n"),
        # a count that sizes an array, beyond the largest np.intp: each would
        # otherwise fail in numpy, or run until memory runs out
        ("contract-eval", _with(_contract_config(), "mc.n", 10**30), f"mc.n: must be <= {_MAX_COUNT}, got {10**30}\n"),
        (
            "contract-eval",
            _with(_contract_config(), "mc.replications", 10**30),
            f"mc.replications: must be <= {_MAX_COUNT}, got {10**30}\n",
        ),
        ("contract-eval", _with(_contract_config(), "grid.steps", 2**63), f"grid.steps: must be <= {_MAX_COUNT}, got {2**63}\n"),
        ("contract-eval", _contract_config(deviation={"replications": 2**63}), "mc.deviation.replications: must be <="),
        (
            "contract-eval",
            _contract_config(deviation={"n": 10**30, "min": 0.0, "max": 0.1, "step": 1.0}),
            f"mc.deviation.n: must be <= {_MAX_COUNT}, got {10**30}\n",
        ),
        ("multitask-convergence", _conv_config(**{"mc.replications": 2**63}), "mc.replications: must be <="),
        ("multitask-convergence", _conv_config(**{"mc.n_list": [4, 2**63]}), "mc.n_list[1]: must be <="),
        ("chaos", _with(_chaos_config(), "mc.N_proxy", 2**63), "mc.N_proxy: must be <="),
        ("chaos", _with(_chaos_config(), "mc.replications", 2**63), "mc.replications: must be <="),
        ("policy-opt", _policy_opt_config(knots=2**63), "policy.knots: must be <="),
        ("policy-opt", {**_policy_opt_config(), "mc": {"master_seed": 11, "N_proxy": 2**63}}, "mc.N_proxy: must be <="),
        # within np.intp but past the longest float64 array: numpy's size check
        # or an empty np.linspace would otherwise end the run in a traceback
        ("contract-eval", _with(_contract_config(), "mc.n", 2**62), f"mc.n: must be <= {_MAX_COUNT}, got {2**62}\n"),
        ("policy-opt", _policy_opt_config(knots=2**62), f"policy.knots: must be <= {_MAX_COUNT}, got {2**62}\n"),
        ("policy-opt", _policy_opt_config(knots=2**63 - 1), f"policy.knots: must be <= {_MAX_COUNT}, got {2**63 - 1}\n"),
        # a key the command never reads: misspelled, or of another branch
        ("multitask-convergence", _conv_config(**{"mc.replicatons": 99}), "mc.replicatons: unknown field\n"),
        ("contract-eval", {**_contract_config(), "polcy": {"source": "zero"}}, "polcy.source: unknown field\n"),
        ("policy-opt", _policy_opt_config(budgett=50), "policy.budgett: unknown field\n"),
        ("chaos", _with(_chaos_config(), "mc.N_proxyy", 5), "mc.N_proxyy: unknown field\n"),
        (
            "contract-eval",
            _with(_contract_config(), "model.nu", {"kind": "normal", "value": 0.3}),
            "model.nu.value: unknown field\n",
        ),
        ("contract-eval", _with(_contract_config(), "model.params.a_base", 0.5), "model.params.a_base: unknown field\n"),
    ],
    ids=[
        "bounds-reversed",
        "knots-unordered",
        "n-proxy-zero",
        "n-proxy-one",
        "convergence-sigma-scale",
        "contract-y0-below-reservation",
        "contract-truncation-minus-inf",
        "contract-symmetric-truncation-negative",
        "contract-horizon-inf",
        "contract-nu-value-inf",
        "contract-nu-mean-inf",
        "policy-opt-nu-mean-minus-inf",
        "policy-opt-nu-std-inf",
        *[f"{field}-{spelling}" for _, _, field in _FINITE_ONLY for spelling in _INFINITIES],
        "empty-list",
        "number-not-a-number",
        "number-bool",
        "number-unparsable-string",
        "number-nan-string",
        "string-not-a-string",
        "bool-not-a-bool",
        "top-level-not-an-object",
        "master-seed-negative",
        "master-seed-too-large",
        "analytic-source-on-quadratic",
        "convergence-on-quadratic",
        "deviation-step-zero",
        "deviation-empty-range",
        "number-beyond-float-range",
        "level-beyond-float-range",
        "steps-beyond-float-range",
        "contract-n-beyond-intp",
        "contract-replications-beyond-intp",
        "steps-beyond-intp",
        "deviation-replications-beyond-intp",
        "deviation-n-beyond-intp-one-cell",
        "convergence-replications-beyond-intp",
        "convergence-n-list-entry-beyond-intp",
        "chaos-n-proxy-beyond-intp",
        "chaos-replications-beyond-intp",
        "policy-opt-knots-beyond-intp",
        "policy-opt-n-proxy-beyond-intp",
        "contract-n-beyond-longest-array",
        "policy-opt-knots-beyond-longest-array",
        "policy-opt-knots-at-intp-max",
        "convergence-misspelled-key",
        "contract-misspelled-block",
        "policy-opt-misspelled-key",
        "chaos-misspelled-key",
        "nu-value-of-normal-law",
        "a-base-on-multitask",
    ],
)
def test_config_error_names_field(tmp_path, capsys, command, cfg, field):
    out = tmp_path / "out"
    out.mkdir()  # some fields fail before the command would create it
    code = cli.main([command, "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    _assert_one_config_error(capsys, code, field)
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("policy-opt", _policy_opt_config(knots=_MAX_COUNT)),
        ("contract-eval", _with(_contract_config(), "grid.steps", _MAX_COUNT)),
    ],
    ids=["policy-opt-knots", "contract-eval-steps"],
)
def test_array_past_the_address_space_is_out_of_memory(tmp_path, capsys, command, cfg):
    # the largest count passes the config check, but np.linspace pads the
    # count + 1 nodes past numpy's longest array; numpy refuses that before
    # allocating anything, and the refusal exits as out of memory
    out = tmp_path / "out"
    assert cli.main([command, "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_MEMORY
    err = capsys.readouterr().err
    assert err.startswith("out of memory: array is too big") and len(err.strip().splitlines()) == 1
    assert os.listdir(out) == []


def test_other_value_errors_keep_their_traceback(tmp_path, monkeypatch):
    # only numpy's size refusal is read as out of memory
    def command(ec, out_dir, workers):
        raise ValueError("a defect, not a size")

    monkeypatch.setitem(cli._COMMANDS, "chaos", command)
    argv = ["chaos", "--config", _write_config(tmp_path, _chaos_config()), "--out", str(tmp_path / "out")]
    with pytest.raises(ValueError, match="a defect"):
        cli.main(argv)


@pytest.mark.parametrize("block", ["policy", "model.nu", "mc.deviation"])
def test_config_block_must_be_object(tmp_path, capsys, block):
    # a block that is not an object is an error, not a block of defaults;
    # a null block is absent
    out = tmp_path / "out"
    cfg = _with(_contract_config(), block, 5)
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    _assert_one_config_error(capsys, code, f"{block}: expected an object")
    assert os.listdir(out) == []
    cfg = _with(_contract_config(), block, None)
    code = cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg, "null.json"), "--out", str(out)])
    assert code == cli.EXIT_OK


def test_null_and_overridden_fields_are_not_unknown(tmp_path):
    # a null leaf counts as absent, and --out overrides output.directory
    # rather than leaving it unread
    cfg = _with(_with(_contract_config(), "mc.N_proxy", None), "output.directory", str(tmp_path / "unused"))
    out = tmp_path / "out"
    assert cli.main(["contract-eval", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "contract_summary.json").exists() and not (tmp_path / "unused").exists()


def test_unusable_output_directory(tmp_path, capsys):
    # an output directory that names a file cannot be created
    afile = tmp_path / "afile"
    afile.write_text("")
    config = _write_config(tmp_path, _conv_config())
    _assert_one_config_error(capsys, cli.main(["self-check", "--config", config, "--out", str(afile)]), "--out:")
    cfg = {**_conv_config(), "output": {"directory": str(afile / "sub")}}
    code = cli.main(["self-check", "--config", _write_config(tmp_path, cfg, "dir.json")])
    _assert_one_config_error(capsys, code, "output.directory:")
    assert afile.read_text() == ""


def test_levels_may_be_infinite(tmp_path):
    # a clamp level, a truncation level and an optimizer bound may be
    # unbounded; for the clamp and the truncation, "inf" means what leaving
    # the field out means
    def run(command, cfg, name):
        out = tmp_path / name
        assert cli.main([command, "--config", _write_config(tmp_path, cfg, f"{name}.json"), "--out", str(out)]) == 0
        return out

    unbounded = _with(_with(_contract_config(), "model.params.b_bar", "inf"), "policy.truncation_l", "inf")
    outs = [run("contract-eval", _contract_config(), "ce-default"), run("contract-eval", unbounded, "ce-inf")]
    summaries = [json.loads((out / "contract_summary.json").read_text()) for out in outs]
    assert summaries[0]["per_replication"] == summaries[1]["per_replication"]
    run("policy-opt", _with(_policy_opt_config(), "policy.bounds", [0, "inf"]), "po-bounds")
    run("multitask-convergence", _conv_config(**{"mc.b_bar_list": ["inf", 10.0], "mc.replications": 4}), "conv")


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------


def test_chaos_outputs(tmp_path):
    cfg = _chaos_config()
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
    # runtimes live in run_meta.json, not in result records; every JSON
    # result file and each of its records carries the experiment and config
    # hash, and every CSV result file ends each row with the hash (paths.csv
    # is the library's path dump and has no hash column)
    runs = [
        ("multitask-convergence", _conv_config(**{"mc.n_list": [4], "mc.replications": 10})),
        (
            "contract-eval",
            {**_contract_config(deviation={"n": 1, "min": 0.0, "max": 1.0, "step": 1.0}), "output": {"dump_paths": True}},
        ),
        ("policy-opt", _policy_opt_config()),
        ("chaos", _chaos_config()),
        ("self-check", {**_chaos_config(), "experiment": "self-check-smoke"}),
    ]
    seen = set()
    for command, cfg in runs:
        out = tmp_path / command
        assert cli.main([command, "--config", _write_config(tmp_path, cfg, f"{command}.json"), "--out", str(out)]) == 0
        ec = cli.parse_config(cfg)
        for path in out.iterdir():
            seen.add(path.name)
            if path.suffix == ".json" and path.name != "run_meta.json":
                payload = json.loads(path.read_text())
                assert (payload["experiment"], payload["config_hash"]) == (ec.experiment, ec.hash)
                assert payload["records"]
                for rec in payload["records"]:
                    assert rec["runtime"] is None
                    assert (rec["experiment"], rec["config_hash"]) == (ec.experiment, ec.hash)
            elif path.suffix == ".csv" and path.name != "paths.csv":
                lines = path.read_text().splitlines()
                assert lines[0].split(",")[-1] == "config_hash"
                assert len(lines) > 1
                assert all(line.split(",")[-1] == ec.hash for line in lines[1:])
    assert {
        "fit.json", "contract_summary.json", "policy_best.json", "chaos_fit.json", "self_check.json",
        "gaps.csv", "pareto.csv", "trace.csv", "chaos.csv",
    } <= seen


def _run_python(code):
    """Run code in a fresh interpreter that imports palab from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_import_loads_neither_scipy_nor_process_pool():
    # No palab module imports scipy, and the process pool is imported only
    # when a command runs with --workers > 1; starting any command pays neither.
    code = (
        "import sys, palab.cli; print(' '.join(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    out = _run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def test_self_check_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes every scipy import raise, as on an
    # install with numpy alone.
    cfg = _write_config(tmp_path, {
        "experiment": "no-scipy",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.5}},
        "grid": {"steps": 10},
        "mc": {"master_seed": 123},
    })
    argv = ["self-check", "--config", cfg, "--out", str(tmp_path / "out")]
    out = _run_python(f"import sys; sys.modules['scipy'] = None; import palab.cli; sys.exit(palab.cli.main({argv!r}))")
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    verdicts = [line for line in out.stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert verdicts == [f"PASS  {name}" for name, _, _ in cli._SELF_CHECKS]
