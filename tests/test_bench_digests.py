"""The benchmark's digest gate, run in-process: every bench workload's result bytes.

bench/run.py rejects an invocation whose result files differ from the
digests recorded in bench/digests.json for this platform. This test runs the
same four workload configs through `cli.main`, applies each workload's
closed-form check and compares the same digests, so a change of result bytes
fails here and not only in the benchmark. It imports bench/workloads.py and
bench/run.py without writing bytecode beside them, and skips, saying why,
where no digests are recorded for this platform or scipy (part of the
platform key) is absent.
"""

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import palab.cli as cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench():
    """(workloads, run) from bench/, imported as run.py imports its sibling."""
    modules = {}
    with mock.patch.dict(sys.modules), mock.patch.object(sys, "dont_write_bytecode", True):
        for name in ("workloads", "run"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            modules[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
    return modules["workloads"], modules["run"]


@pytest.fixture(scope="module")
def bench():
    pytest.importorskip("scipy", reason="the benchmark's platform key names the scipy version")
    workloads, run = _load_bench()
    key = run.platform_key(run.machine_facts())
    recorded = json.loads(run.DIGESTS.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"bench/digests.json records no digests for this platform: {key}")
    return workloads, run, recorded


@pytest.mark.parametrize("name", ["nplayer-sweep", "limit-search", "contract-numeric", "chaos-proxy"])
def test_workload_matches_recorded_digests(tmp_path, bench, name):
    workloads, run, recorded = bench
    wl = workloads.WORKLOADS[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(wl.config, indent=2))
    out = tmp_path / "out"
    argv = [wl.command, "--config", str(cfg_path), "--out", str(out), "--workers", str(wl.workers)]
    assert cli.main(argv) == cli.EXIT_OK
    assert wl.check(str(out), wl.config) == []
    assert run.result_digests(out) == recorded[name]
