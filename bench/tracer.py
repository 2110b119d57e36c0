"""Span tracer for the benchmark's traced runs, installed from outside palab.

install() wraps every public function and public method of palab's library
modules, and rebinds each wrapped function in every palab module that
imported it, so a call through `contracts.reduced_coefficients` is traced
the same as one through `model.reduced_coefficients`. scipy's `minimize`, as
bound in `mkv_control`, is wrapped too, and so is the objective it is given,
so each Nelder-Mead objective call is one span.

A span records its name, start, end and parent. Spans are kept in memory
and written out by write_spans() when the run ends. Self time is a span's
duration minus the time its child spans cover; because every span nests
inside its parent, the self times of all spans under one root add up to
that root's duration.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

# palab modules whose public names are traced, each one layer.
LAYERS = ("model", "measures", "sde_engine", "contracts", "mkv_control", "principal_n", "estimates")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # open spans: [index, time covered by children]
        self.count: list[int] = []
        self.incl_s: list[float] = []
        self.self_s: list[float] = []
        # Work counters (exact, must repeat across runs) and extra timings.
        self.counters: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.incl_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, on_exit=None):
        """fn wrapped in a span called name; on_exit(args, kwargs, dur) runs after."""
        nid = self._intern(name)
        stack, perf = self._stack, time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        count, incl_s, self_s = self.count, self.incl_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                span_end[idx] = end
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                count[nid] += 1
                incl_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if on_exit is not None:
                    on_exit(args, kwargs, dur)

        return traced

    def durations(self, name: str) -> np.ndarray:
        """Durations of every span called name, in call order."""
        nid = self._ids.get(name)
        if nid is None:
            return np.empty(0)
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        sel = ids == nid
        return np.frombuffer(self.span_end)[sel] - np.frombuffer(self.span_start)[sel]

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"count": self.count[i], "incl_s": self.incl_s[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "times": dict(self.times),
            "maxima": dict(self.maxima),
            "n_spans": len(self.span_name),
        }

    def write_spans(self, path: str) -> None:
        """All spans as CSV: id, name, parent id (-1 for a root), start, end."""
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            names = self.names
            for i, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i},{names[nid]},{parent},{start!r},{end!r}\n")


def _arg(args, kwargs, sig: inspect.Signature, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _hooks(tr: Tracer, mods: dict) -> dict:
    """Per-function work accounting, keyed by the traced span name."""
    c, t, mx = tr.counters, tr.times, tr.maxima
    sigs = {}

    def sig(layer: str, fn: str) -> inspect.Signature:
        key = f"{layer}.{fn}"
        if key not in sigs:
            sigs[key] = inspect.signature(getattr(mods[layer], fn))
        return sigs[key]

    def rc(args, kwargs, dur):
        # reduced_coefficients(model, t, x, flow, e, z): positional on every hot path.
        x = args[2] if len(args) > 2 else kwargs["x"]
        c["model.rc_elements"] += int(np.size(x))

    def simulate(fn):
        s = sig("sde_engine", fn)

        def hook(args, kwargs, dur):
            n = int(_arg(args, kwargs, s, "n"))
            steps = int(_arg(args, kwargs, s, "grid").steps)
            c["sde_engine.particle_steps"] += n * steps
            t["sde_engine.simulate_s"] += dur
            mx["sde_engine.state_vector_bytes"] = max(mx["sde_engine.state_vector_bytes"], 8.0 * n)

        return hook

    def estimate(args, kwargs, dur):
        s = sig("principal_n", "estimate_n_player_value")
        n = int(_arg(args, kwargs, s, "n"))
        steps = int(_arg(args, kwargs, s, "grid").steps) * int(_arg(args, kwargs, s, "replications"))
        c[f"principal_n.euler_steps.n{n}"] += steps
        t[f"principal_n.estimate_s.n{n}"] += dur

    def deviation(args, kwargs, dur):
        s = sig("contracts", "joint_deviation_scan")
        grid = np.asarray(_arg(args, kwargs, s, "action_grid"))
        c["contracts.deviation_cells"] += int(grid.size) ** int(_arg(args, kwargs, s, "n"))

    def optimize(args, kwargs, dur):
        s = sig("mkv_control", "optimize_policy")
        N = int(_arg(args, kwargs, s, "N_proxy"))
        steps = int(_arg(args, kwargs, s, "grid").steps)
        mx["mkv_control.draw_cache_bytes"] = max(mx["mkv_control.draw_cache_bytes"], 8.0 * N * steps)

    return {
        "model.reduced_coefficients": rc,
        "sde_engine.simulate_particles": simulate("simulate_particles"),
        "sde_engine.simulate_terminal_measure": simulate("simulate_terminal_measure"),
        "principal_n.estimate_n_player_value": estimate,
        "contracts.joint_deviation_scan": deviation,
        "mkv_control.optimize_policy": optimize,
    }


def install(tr: Tracer, mods: dict) -> None:
    """Wrap the public names of the LAYERS modules in mods (name -> module).

    mods must also hold every other palab module (cli, the package itself)
    so that their bindings of the wrapped functions are replaced too.
    """
    hooks = _hooks(tr, mods)
    replaced: dict[int, tuple] = {}  # id(original function) -> (original, wrapper)
    for layer in LAYERS:
        mod = mods[layer]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = (obj, tr.wrap(name, obj, hooks.get(name)))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for m_name, m_obj in list(vars(obj).items()):
                    if not m_name.startswith("_") and inspect.isfunction(m_obj):
                        setattr(obj, m_name, tr.wrap(f"{layer}.{obj.__name__}.{m_name}", m_obj))

    minimize = mods["mkv_control"].minimize

    def traced_minimize(fun, x0, *args, **kwargs):
        return minimize(tr.wrap("mkv_control.objective", fun), x0, *args, **kwargs)

    mods["mkv_control"].minimize = tr.wrap("mkv_control.minimize", traced_minimize)

    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
