"""Record the result-file digests of every workload at the default seed.

    python3 bench/record_digests.py

Runs each workload once at workloads.DEFAULT_SEED, gates it against its
closed-form check, and stores the SHA-256 of each result file (all but
run_meta.json) in digests.json under this platform's key. Run it again only
when a change alters palab's outputs on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    run.check_checkout()
    facts = run.machine_facts()
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    entry = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    run_dir = run.WORK_DIR / f"record-{os.getpid()}"
    run_dir.mkdir()
    try:
        for name, wl in WORKLOADS.items():
            sub = run_dir / name
            sub.mkdir()
            runner = run.Runner(wl, DEFAULT_SEED, sub, time.perf_counter() + run.RUN_LIMIT_S,
                                run.Reference(None))
            inv = runner.invoke(min(wl.workers, facts["nproc"]))
            if not inv.ok:
                print(f"{name}: not recorded: {'; '.join(inv.failures)}", file=sys.stderr)
                return 1
            entry[name] = inv.digests
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    table[run.platform_key(facts)] = entry
    run.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded digests for {run.platform_key(facts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
