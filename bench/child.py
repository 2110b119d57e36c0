"""One benchmark invocation: a fresh interpreter that runs one palab command.

Usage (run.py starts this; PYTHONPATH must name the checkout's src/):

    python3 child.py REPORT.json run|setup|trace palab-args...

It times `import palab.cli`, the config load and parse, and the command
function from its start until it returns (after its last result file is
written), then runs `palab.cli.main` unchanged. In `setup` mode the command
function returns at once, so only the set-up is timed. In `trace` mode the
library's public names are wrapped in spans first (see tracer.py), and the
spans are written to spans.csv beside the report when the run ends. The
report is written whatever the exit code; an uncaught exception leaves no
report.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    report_path, mode, palab_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    rep: dict = {"t_import0": time.perf_counter()}
    import palab.cli as cli

    rep["t_import1"] = time.perf_counter()

    tr = None
    if mode == "trace":
        import tracer

        tr = tracer.Tracer()
        mods = {
            name.split(".", 1)[1] if "." in name else name: mod
            for name, mod in sys.modules.items()
            if name == "palab" or name.startswith("palab.")
        }
        tracer.install(tr, mods)

    parse_s = []

    def timed(fn):
        def inner(*a, **k):
            t0 = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                parse_s.append(time.perf_counter() - t0)

        return inner

    cli.load_config = timed(cli.load_config)
    cli.parse_config = timed(cli.parse_config)

    command = palab_args[0]
    run_command = cli._COMMANDS[command]
    if tr is not None:
        run_command = tr.wrap("cli.command", run_command)

    def command_fn(*a, **k):
        rep["t_cmd_start"] = time.perf_counter()
        try:
            return cli.EXIT_OK if mode == "setup" else run_command(*a, **k)
        finally:
            rep["t_cmd_end"] = time.perf_counter()

    cli._COMMANDS[command] = command_fn
    code = cli.main(palab_args)

    rep["exit_code"] = code
    rep["parse_s"] = sum(parse_s)
    rep["maxrss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rep["maxrss_children_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tr is not None:
        rep["trace"] = tr.summary()
        obj = tr.durations("mkv_control.objective")
        rep["trace"]["objective_s"] = obj.tolist()
        tr.write_spans(os.path.join(os.path.dirname(report_path), "spans.csv"))
    with open(report_path, "w") as fh:
        json.dump(rep, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
