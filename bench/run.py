"""palab benchmark: pinned CLI workloads, timed end to end and traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a palab checkout; palab is imported from its src/.

With --trace 0 each workload config runs again and again as one `palab`
command in a fresh interpreter, for S seconds, and the run reports the
median command wall time, set-up time and peak memory of the invocations
that passed the correctness gate. Times are calibrated to a reference
machine speed (Runner.calibrate); the raw medians are printed beside them.
With --trace 1 the same untraced loop runs, then two invocations with every
public library function wrapped in a span (tracer.py), and the run reports
per-layer metrics. --workload all does both for every workload and prints
every metric of each.

Every invocation passes the gate or counts as failed and is left out of the
timings: exit code 0, result files (all but run_meta.json) byte-identical
to the reference, and the workload's closed-form check (workloads.py). The
reference is the digest recorded in digests.json for the default seed on
this platform, else the run's first invocation.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it start with '#'. The full
result, with machine facts, is written to bench/_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
DIGESTS = BENCH_DIR / "digests.json"
CHILD = BENCH_DIR / "child.py"
CALIBRATE = BENCH_DIR / "calibrate.py"

RUN_LIMIT_S = 170.0  # a run must end within 180 s
META_FILE = "run_meta.json"  # the one result file with wall-clock content
MIB = 2.0**20
# Times are reported at the machine speed where calibrate.py's loop takes
# this long; see Runner.calibrate.
REFERENCE_CALIBRATION_S = 0.3
SETUP_PROBES = 2  # set-up-only interpreters after each passing invocation

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.command_self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.pool_efficiency": "ratio",
    "principal_n.estimate_calls": "count",
    "principal_n.self_s": "s",
    "principal_n.us_per_step.n10": "us",
    "principal_n.us_per_step.n1000": "us",
    "sde_engine.simulate_calls": "count",
    "sde_engine.particle_steps": "count",
    "sde_engine.ns_per_particle_step": "ns",
    "sde_engine.generator_calls": "count",
    "sde_engine.write_s": "s",
    "sde_engine.state_vector_mb": "MiB",
    "sde_engine.self_s": "s",
    "model.rc_calls": "count",
    "model.rc_elements": "count",
    "model.rc_s": "s",
    "model.rc_ns_per_element": "ns",
    "model.self_s": "s",
    "measures.stat_calls": "count",
    "measures.stat_s": "s",
    "measures.w1_calls": "count",
    "measures.w1_s": "s",
    "measures.self_s": "s",
    "contracts.payment_s": "s",
    "contracts.posthoc_s": "s",
    "contracts.deviation_s": "s",
    "contracts.deviation_cells": "count",
    "contracts.y_step_calls": "count",
    "contracts.self_s": "s",
    "mkv_control.objective_calls": "count",
    "mkv_control.objective_ms.p50": "ms",
    "mkv_control.objective_ms.p90": "ms",
    "mkv_control.optimizer_self_s": "s",
    "mkv_control.draw_cache_mb": "MiB",
    "mkv_control.self_s": "s",
    "estimates.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

# Metrics that count work or computed sizes: they must repeat exactly
# between the two traced invocations.
EXACT_UNITS = ("count", "bytes", "MiB")

_STAT_METHODS = [
    f"measures.{cls}.{m}"
    for cls in ("EmpiricalMeasure", "BatchedEmpiricalMeasure")
    for m in ("mean", "clamped_mean", "moment")
]
_POSTHOC = [
    f"contracts.{f}"
    for f in ("recommended_controls", "payment_matrix", "agent_reward", "principal_reward")
]
_SIMULATE = ["sde_engine.simulate_particles", "sde_engine.simulate_terminal_measure"]


class HarnessError(RuntimeError):
    """The benchmark itself misbehaved; no result is reported."""


# ---------------------------------------------------------------------------
# Machine facts and the checkout
# ---------------------------------------------------------------------------


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
    }


def platform_key(facts: dict) -> str:
    """Digests are only comparable where float results are: same stack and CPU."""
    return "|".join(
        [facts["machine"], facts["cpu_model"], f"python {facts['python']}",
         f"numpy {facts['numpy']}", f"scipy {facts['scipy']}"]
    )


def _size_bytes(text: str) -> int:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_checkout() -> None:
    if not (ROOT / "src" / "palab" / "cli.py").is_file():
        raise HarnessError(f"no palab sources under {ROOT / 'src'}; run from a palab checkout")


def invocation_cpus(workers: int) -> set:
    """CPUs an invocation runs on: a single process is pinned to the last one.

    Pinning keeps it off the CPU that takes this process and most
    interrupts; on a 2-vCPU VM that cut the spread of repeated invocations
    about in half. A process pool gets every allowed CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[-1]} if workers == 1 else set(cpus)


# ---------------------------------------------------------------------------
# One invocation and its correctness gate
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    tag: str
    workers: int
    traced: bool
    failures: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_mib: float = 0.0
    bytes_written: int = 0
    setup_probes: list = field(default_factory=list)
    calibration_s: float = REFERENCE_CALIBRATION_S  # loop time around the invocation

    @property
    def ok(self) -> bool:
        return not self.failures

    def calibrated(self, seconds: float) -> float:
        """seconds as they would read at the reference machine speed."""
        return seconds * REFERENCE_CALIBRATION_S / self.calibration_s


def result_digests(out_dir: Path) -> dict:
    """SHA-256 of every result file except run_meta.json, by file name."""
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != META_FILE
    }


def gate(wl, cfg: dict, exit_code, out_dir: Path, reference) -> tuple[dict, list]:
    """(digests, failure messages) of one finished invocation."""
    if exit_code != 0:
        return {}, [f"exit code {exit_code}"]
    digests = result_digests(out_dir)
    fails = []
    if reference is not None and digests != reference:
        diff = sorted(k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k))
        fails.append(f"result files differ from the reference: {', '.join(diff)}")
    try:
        fails += wl.check(str(out_dir), cfg)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        fails.append(f"closed-form check could not read the results: {exc!r}")
    return digests, fails


class Reference:
    """Digests every invocation of one run is compared against."""

    def __init__(self, recorded):
        self.digests = recorded
        self.source = "recorded digests" if recorded is not None else "first invocation"

    def offer(self, inv: Invocation) -> None:
        if self.digests is None and inv.digests:
            self.digests = inv.digests


def recorded_digests(wl_name: str, seed: int, facts: dict):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get(platform_key(facts), {}).get(wl_name)


class Runner:
    """Runs invocations of one workload under one deadline and work directory."""

    def __init__(self, wl, seed: int, run_dir: Path, deadline: float, reference: Reference):
        self.wl, self.seed, self.run_dir = wl, seed, run_dir
        self.deadline, self.reference = deadline, reference
        self.env = child_env()
        self.cfg = dict(wl.config)
        self.cfg_path = run_dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2))
        self.count = 0
        self.probes = 0
        self.log: list[Invocation] = []
        self._last_calibration: dict = {}  # CPU set -> loop time after the last invocation

    def warm_up(self) -> None:
        """Compile palab's bytecode and warm the file cache before timing."""
        subprocess.run(
            [sys.executable, "-c", "import palab.cli"], env=self.env, cwd=ROOT,
            check=True, timeout=max(1.0, self.deadline - time.perf_counter()),
        )

    def _spawn(self, mode: str, workers: int, inv_dir: Path, cfg_path: Path):
        """Run child.py to completion: (t_spawn, exit code, stderr, report or {})."""
        inv_dir.mkdir(parents=True)
        report = inv_dir / "report.json"
        cmd = [
            sys.executable, str(CHILD), str(report), mode,
            self.wl.command, "--config", str(cfg_path), "--out", str(inv_dir / "out"),
            "--workers", str(workers), "--seed", str(self.seed),
        ]
        t_spawn = time.perf_counter()
        cpus = invocation_cpus(workers)
        proc = subprocess.Popen(
            cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return t_spawn, None, b"", {}
        except BaseException:  # interrupted: take the child and its pool down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        rep = json.loads(report.read_text()) if report.is_file() else {}
        return t_spawn, proc.returncode, err, rep

    def calibrate(self, cpus: frozenset) -> float:
        """Mean calibrate.py loop time, one process pinned to each CPU at once.

        On a shared VM the speed of a process drifts by up to 2x for 10-60 s
        at a time, in CPU time as much as in wall time, and run medians of
        raw times spread by as much. The loop time, taken just before and
        after an invocation on the CPUs it uses, tracks that drift. Over ten
        seeded runs, dividing by it cut the spread of wall-time medians from
        31 % to 12 % (nplayer-sweep), 21 % to 14 % (contract-numeric) and
        11 % to 6 % (chaos-proxy); limit-search, at 8 % raw, read 12 %.
        """
        procs = [
            subprocess.Popen([sys.executable, str(CALIBRATE)], stdout=subprocess.PIPE,
                             env=self.env, cwd=ROOT,
                             preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
            for cpu in sorted(cpus)
        ]
        try:
            out = [p.communicate(timeout=60)[0] for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        if any(p.returncode != 0 for p in procs):
            raise HarnessError("calibrate.py failed")
        return statistics.fmean(float(o) for o in out)

    def probe_setup(self) -> float | None:
        """Set-up time of one fresh interpreter whose command returns at once."""
        self.probes += 1
        t_spawn, code, _, rep = self._spawn(
            "setup", 1, self.run_dir / f"setup-{self.probes:03d}", self.cfg_path)
        return rep["t_cmd_start"] - t_spawn if code == 0 and "t_cmd_start" in rep else None

    def invoke(self, workers: int, traced: bool = False, cfg_path: Path | None = None) -> Invocation:
        self.count += 1
        tag = f"{self.count:03d}-w{workers}{'-traced' if traced else ''}"
        inv = Invocation(tag, workers, traced)
        inv_dir = self.run_dir / tag
        out_dir = inv_dir / "out"
        cpus = frozenset(invocation_cpus(workers))
        before = self._last_calibration.get(cpus) or self.calibrate(cpus)
        t_spawn, returncode, err, inv.report = self._spawn(
            "trace" if traced else "run", workers, inv_dir, cfg_path or self.cfg_path)
        self._last_calibration[cpus] = after = self.calibrate(cpus)
        inv.calibration_s = 0.5 * (before + after)
        if returncode is None:
            inv.failures.append("timed out before the run deadline")
        else:
            exit_code = returncode if inv.report or returncode else "0 without a report"
            inv.digests, inv.failures = gate(self.wl, self.cfg, exit_code, out_dir,
                                             self.reference.digests)
            if returncode != 0 and err.strip():
                inv.failures.append(err.decode(errors="replace").strip().splitlines()[-1])
            self.reference.offer(inv)
        if inv.ok:
            rep = inv.report
            inv.setup_s = rep["t_cmd_start"] - t_spawn
            inv.wall_s = rep["t_cmd_end"] - rep["t_cmd_start"]
            inv.rss_mib = max(rep["maxrss_self_kib"], rep["maxrss_children_kib"]) / 1024.0
            inv.bytes_written = sum(
                p.stat().st_size for p in out_dir.iterdir() if p.name != META_FILE
            )
        self.log.append(inv)
        _say(
            f"invocation {tag}: "
            + (f"ok  wall {inv.wall_s:.4f} s  setup {inv.setup_s:.4f} s  rss {inv.rss_mib:.1f} MiB"
               f"  calibration {inv.calibration_s:.4f} s"
               if inv.ok else "FAILED: " + "; ".join(inv.failures))
        )
        return inv

    def loop(self, seconds: float, workers: int) -> list[Invocation]:
        """Invocations for `seconds`: one more starts only if it should end in time.

        Each passing invocation is followed by SETUP_PROBES set-up probes.
        setup_s is taken from the probes alone: set-up is short and noisy and
        needs more samples, and the probes all run on one pinned CPU.
        """
        start = time.perf_counter()
        durations: list[float] = []
        out = []
        while True:
            elapsed = time.perf_counter() - start
            typical = statistics.median(durations) if durations else 0.0
            if out and elapsed + typical > seconds:
                break
            if time.perf_counter() + typical > self.deadline:
                break
            t0 = time.perf_counter()
            inv = self.invoke(workers)
            if inv.ok:
                probes = (self.probe_setup() for _ in range(SETUP_PROBES))
                inv.setup_probes = [p for p in probes if p is not None]
            out.append(inv)
            durations.append(time.perf_counter() - t0)
        return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(invs: list[Invocation]) -> dict:
    good = [i for i in invs if i.ok]
    if not good:
        return {}
    return {
        "wall_s": _median([i.calibrated(i.wall_s) for i in good]),
        "setup_s": _median([i.calibrated(s) for i in good for s in i.setup_probes]),
        "peak_rss_mb": _median([i.rss_mib for i in good]),
    }


def layer_metrics(inv: Invocation) -> dict:
    """Per-layer metrics of one traced invocation (times not yet averaged)."""
    tr = inv.report["trace"]
    spans, counters, times, maxima = tr["spans"], tr["counters"], tr["times"], tr["maxima"]

    def total(names, key):
        return sum(spans.get(n, {}).get(key, 0) for n in names)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    layer_self = defaultdict(float)
    for name, s in spans.items():
        layer_self[name.split(".", 1)[0]] += s["self_s"]
    wall = spans["cli.command"]["incl_s"]
    attributed = sum(layer_self.values())
    if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
        raise HarnessError(f"layer self times add up to {attributed!r} s, traced wall is {wall!r} s")

    steps = counters.get("sde_engine.particle_steps", 0)
    rc_elements = counters.get("model.rc_elements", 0)
    rc_s = total(["model.reduced_coefficients"], "incl_s")
    objective_ms = [1e3 * d for d in tr["objective_s"]]
    m = {
        "cli.command_self_s": layer_self["cli"],
        "cli.bytes_written": inv.bytes_written,
        "principal_n.estimate_calls": total(["principal_n.estimate_n_player_value"], "count"),
        "sde_engine.simulate_calls": total(_SIMULATE, "count"),
        "sde_engine.particle_steps": steps,
        "sde_engine.ns_per_particle_step": ratio(times.get("sde_engine.simulate_s", 0.0), steps, 1e9),
        "sde_engine.generator_calls": total(["sde_engine.SeedSpec.generator"], "count"),
        "sde_engine.write_s": total(["sde_engine.save_paths_csv"], "incl_s"),
        "sde_engine.state_vector_mb": maxima.get("sde_engine.state_vector_bytes", 0.0) / MIB,
        "model.rc_calls": total(["model.reduced_coefficients"], "count"),
        "model.rc_elements": rc_elements,
        "model.rc_s": rc_s,
        "model.rc_ns_per_element": ratio(rc_s, rc_elements, 1e9),
        "measures.stat_calls": total(_STAT_METHODS, "count"),
        "measures.stat_s": total(_STAT_METHODS, "self_s"),
        "measures.w1_calls": total(["measures.wasserstein_p"], "count"),
        "measures.w1_s": total(["measures.wasserstein_p"], "incl_s"),
        "contracts.payment_s": total(["contracts.evaluate_terminal_payment"], "incl_s"),
        "contracts.posthoc_s": total(_POSTHOC, "incl_s"),
        "contracts.deviation_s": total(["contracts.joint_deviation_scan"], "incl_s"),
        "contracts.deviation_cells": counters.get("contracts.deviation_cells", 0),
        "contracts.y_step_calls": total(["contracts.contract_y_step"], "count"),
        "mkv_control.objective_calls": len(objective_ms),
        "mkv_control.objective_ms.p50": statistics.median(objective_ms) if objective_ms else 0.0,
        "mkv_control.objective_ms.p90": (
            statistics.quantiles(objective_ms, n=10)[-1] if len(objective_ms) > 1 else 0.0
        ),
        "mkv_control.optimizer_self_s": total(["mkv_control.minimize"], "self_s"),
        "mkv_control.draw_cache_mb": maxima.get("mkv_control.draw_cache_bytes", 0.0) / MIB,
        "trace.wall_s": wall,
        "trace.spans": tr["n_spans"],
    }
    for n in (10, 1000):
        m[f"principal_n.us_per_step.n{n}"] = ratio(
            times.get(f"principal_n.estimate_s.n{n}", 0.0),
            counters.get(f"principal_n.euler_steps.n{n}", 0), 1e6,
        )
    for layer in ("principal_n", "sde_engine", "model", "measures", "contracts", "mkv_control", "estimates"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def work_signature(inv: Invocation) -> dict:
    """Everything in a traced invocation that must repeat exactly."""
    tr = inv.report["trace"]
    return {
        "counters": tr["counters"],
        "span_counts": {k: v["count"] for k, v in tr["spans"].items()},
        "maxima": tr["maxima"],
        "bytes_written": inv.bytes_written,
    }


def traced_metrics(untraced: list[Invocation], traced: list[Invocation], baseline_wall: float,
                   pool_efficiency: float) -> dict:
    sigs = [work_signature(i) for i in traced]
    if any(s != sigs[0] for s in sigs[1:]):
        raise HarnessError(f"work counters differ between traced invocations: {sigs}")
    per_run = [layer_metrics(i) for i in traced]
    m = {}
    for name in per_run[0]:
        if PER_LAYER[name] in EXACT_UNITS:
            m[name] = per_run[0][name]
        else:
            m[name] = statistics.median(r[name] for r in per_run)
    good = [i for i in untraced if i.ok]
    m["cli.import_s"] = _median([i.report["t_import1"] - i.report["t_import0"] for i in good])
    m["cli.parse_s"] = _median([i.report["parse_s"] for i in good])
    m["cli.pool_efficiency"] = pool_efficiency
    m["trace.overhead_ratio"] = statistics.median(
        i.calibrated(i.report["trace"]["spans"]["cli.command"]["incl_s"]) for i in traced
    ) / baseline_wall
    return {name: m[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


@dataclass
class RunResult:
    workload: str
    trace: bool
    invocations: list
    metrics: dict
    units: dict
    notes: list


def run_workload(wl, seed: int, seconds: float, trace: bool, facts: dict, run_dir: Path,
                 deadline: float) -> RunResult:
    workers = min(wl.workers, facts["nproc"])
    ref = Reference(recorded_digests(wl.name, seed, facts))
    _say(
        f"workload {wl.name}: palab {wl.command}, --workers {workers}, --seed {seed}, "
        f"{wl.particle_steps:,} particle-steps per invocation; reference: {ref.source}"
    )
    runner = Runner(wl, seed, run_dir, deadline, ref)
    runner.warm_up()
    untraced = runner.loop(seconds, workers)
    notes = []
    if not trace:
        metrics, units = end_to_end(untraced), END_TO_END
    else:
        good_walls = [i.calibrated(i.wall_s) for i in untraced if i.ok]
        if not good_walls:
            return RunResult(wl.name, trace, runner.log, {}, PER_LAYER, ["no untraced invocation passed"])
        baseline, pool_eff = statistics.median(good_walls), 0.0
        if workers > 1:
            single = runner.invoke(1)
            if single.ok:
                baseline = single.calibrated(single.wall_s)
                pool_eff = baseline / (workers * statistics.median(good_walls))
            elif any("differ from the reference" in f for f in single.failures):
                single.failures.append(f"determinism probe: --workers 1 output differs from --workers {workers}")
        traced = [runner.invoke(1, traced=True) for _ in range(2)]
        if not all(i.ok for i in traced):
            return RunResult(wl.name, trace, runner.log, {}, PER_LAYER, ["a traced invocation failed"])
        metrics, units = traced_metrics(untraced, traced, baseline, pool_eff), PER_LAYER
        spans = run_dir / traced[-1].tag / "spans.csv"
        if spans.is_file():
            WORK_DIR.mkdir(exist_ok=True)
            shutil.copyfile(spans, WORK_DIR / f"{wl.name}.spans.csv")
            notes.append(f"spans of the last traced invocation: {WORK_DIR / (wl.name + '.spans.csv')}")
        state = metrics["sde_engine.state_vector_mb"] * MIB
        if state:
            l2 = _size_bytes(facts["caches"].get("L2", "0"))
            l3 = _size_bytes(facts["caches"].get("L3", "0"))
            notes.append(
                f"largest simulated state vector {state / 1024:.1f} KiB (computed): "
                f"{'above' if state > l2 else 'within'} the {facts['caches'].get('L2')} L2, "
                f"{'above' if state > l3 else 'within'} the {facts['caches'].get('L3')} L3"
            )
    return RunResult(wl.name, trace, runner.log, metrics, units, notes)


def report_lines(res: RunResult) -> None:
    attempted = len(res.invocations)
    failed = sum(not i.ok for i in res.invocations)
    untraced = sum(i.ok and not i.traced for i in res.invocations)
    _say(f"{res.workload}: fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for name, unit in res.units.items():
        if name not in res.metrics:
            continue
        if name == "setup_s":
            probes = sum(len(i.setup_probes) for i in res.invocations if i.ok)
            raw = _median([s for i in res.invocations if i.ok for s in i.setup_probes])
            basis = f"median of {probes} set-up probes, calibrated; raw median {raw!r} s"
        elif name == "wall_s":
            raw = _median([i.wall_s for i in res.invocations if i.ok and not i.traced])
            basis = f"median of {untraced} invocations, calibrated; raw median {raw!r} s"
        elif res.units is END_TO_END:
            basis = f"median of {untraced} invocations"
        elif name in ("cli.import_s", "cli.parse_s"):
            basis = f"median of {untraced} untraced invocations"
        elif name == "cli.pool_efficiency":
            basis = ("0: no process pool" if not res.metrics[name] else
                     "one untraced --workers 1 invocation against the wall_s median, calibrated")
        elif unit in EXACT_UNITS:
            basis = "exact, equal in both traced invocations"
        else:
            basis = "median of 2 traced invocations"
        _say(f"{res.workload}: {name} = {res.metrics[name]!r} {unit} ({basis})")
    for note in res.notes:
        _say(f"{res.workload}: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")

    start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_checkout()
        facts = machine_facts()
        _say("machine " + json.dumps(facts, sort_keys=True))
        WORK_DIR.mkdir(exist_ok=True)
        run_dir = WORK_DIR / f"run-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        try:
            if args.workload == "all":
                results = []
                for name in WORKLOADS:
                    for trace in (False, True):
                        sub = run_dir / f"{name}-{int(trace)}"
                        sub.mkdir()
                        res = run_workload(WORKLOADS[name], args.seed, args.seconds, trace, facts,
                                           sub, time.perf_counter() + RUN_LIMIT_S)
                        report_lines(res)
                        results.append(res)
            else:
                res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), facts, run_dir, start + RUN_LIMIT_S)
                report_lines(res)
                results = [res]
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(r.invocations) for r in results)
    failed = sum(not i.ok for r in results for i in r.invocations)
    if args.workload == "all":
        metrics = defaultdict(dict)
        for r in results:
            for name, value in r.metrics.items():
                metrics[r.workload][name] = {"value": value, "unit": r.units[name]}
    else:
        res = results[0]
        metrics = {n: {"value": v, "unit": res.units[n]} for n, v in res.metrics.items()}
    record = {"machine": facts, "args": vars(args), "metrics": metrics,
              "invocations": {f"{r.workload}-trace{int(r.trace)}": [vars(i) for i in r.invocations]
                                for r in results}}
    name = "all" if args.workload == "all" else f"{args.workload}-trace{args.trace}"
    (WORK_DIR / f"result-{name}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
