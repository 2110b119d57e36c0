"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks, at workload sizes far below the benchmark's own:
1. every metric named in BENCHMARK.json prints with its unit, on every
   workload, with and without tracing;
2. a tampered result file fails the gate, and an invocation whose output
   differs from the reference counts as failed;
3. a config error (palab exit code 2) counts as failed;
4. run.py exits nonzero, printing no result, where there is no palab source.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time

import run
from workloads import WORKLOADS

TINY = {
    "nplayer-sweep": {"grid.steps": 20, "mc.n_list": [10, 30, 100], "mc.replications": 20},
    "limit-search": {"grid.steps": 20, "mc.N_proxy": 2000, "policy.budget": 100},
    "contract-numeric": {
        "grid.steps": 10,
        "mc.n": 10,
        "mc.replications": 4,
        "mc.deviation": {"n": 2, "min": -1.0, "max": 1.0, "step": 1.0},
    },
    "chaos-proxy": {"grid.steps": 10, "mc.n_list": [10, 100, 1000], "mc.N_proxy": 10_000, "mc.replications": 2},
}

# Not the default seed: digests.json holds full-size digests for that one.
SEED = 1
FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'}  {what}")
    if not cond:
        FAILURES.append(what)


def tiny(wl):
    cfg = copy.deepcopy(wl.config)
    for path, value in TINY[wl.name].items():
        section, key = path.split(".")
        cfg[section][key] = value
    return dataclasses.replace(wl, config=cfg)


def deadline() -> float:
    return time.perf_counter() + run.RUN_LIMIT_S


def check_metric_names(facts: dict, run_dir) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in WORKLOADS.values():
        for trace in (False, True):
            sub = run_dir / f"{wl.name}-{int(trace)}"
            sub.mkdir()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                res = run.run_workload(tiny(wl), SEED, 0.0, trace, facts, sub, deadline())
                run.report_lines(res)
            text = out.getvalue()
            label = f"{wl.name} trace={int(trace)}"
            failed = [f for i in res.invocations for f in i.failures]
            expect(not failed, f"{label}: every invocation passes the gate {failed or ''}")
            expect(
                {n: res.units[n] for n in res.metrics} == want[trace],
                f"{label}: metrics and units match BENCHMARK.json",
            )
            lines = {
                line.split(" = ", 1)[0]: line for line in text.splitlines() if " = " in line
            }
            missing = [
                n for n, unit in want[trace].items()
                if f" {unit} (" not in lines.get(f"# {wl.name}: {n}", "")
            ]
            expect(not missing, f"{label}: every metric prints with its unit {missing or ''}")


def check_failures_count(run_dir) -> None:
    run_dir.mkdir()
    wl = tiny(WORKLOADS["contract-numeric"])
    runner = run.Runner(wl, SEED, run_dir, deadline(), run.Reference(None))
    first = runner.invoke(1)
    expect(first.ok, "tiny contract-numeric invocation passes the gate")

    out_dir = run_dir / first.tag / "out"
    with open(out_dir / "pareto.csv", "a") as fh:
        fh.write("0\n")
    _, fails = run.gate(wl, runner.cfg, 0, out_dir, first.digests)
    expect(bool(fails), "a tampered result file fails the gate")

    runner.reference.digests = dict(first.digests, **{"contract_summary.json": "0" * 64})
    second = runner.invoke(1)
    expect(not second.ok, "an invocation whose output differs from the reference counts as failed")

    bad = copy.deepcopy(wl.config)
    del bad["grid"]["steps"]
    bad_path = run_dir / "bad-config.json"
    bad_path.write_text(json.dumps(bad))
    third = runner.invoke(1, cfg_path=bad_path)
    expect(not third.ok and "exit code 2" in third.failures, "a config error (exit code 2) counts as failed")
    res = run.RunResult(wl.name, False, runner.log, {}, run.END_TO_END, [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report_lines(res)
    expect("fail_ratio = 2/3" in out.getvalue(), "fail_ratio counts both failures")


def check_bare_directory(run_dir) -> None:
    bare = run_dir / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "limit-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "run.py exits nonzero without a result where there is no palab source")


def main() -> int:
    run.check_checkout()
    facts = run.machine_facts()
    run.WORK_DIR.mkdir(exist_ok=True)
    run_dir = run.WORK_DIR / f"selftest-{os.getpid()}"
    run_dir.mkdir()
    try:
        check_metric_names(facts, run_dir)
        check_failures_count(run_dir / "failures")
        check_bare_directory(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
