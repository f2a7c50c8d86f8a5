"""Spans and taps around the package's functions, installed from outside.

Several modules import their collaborators by name (``planners`` imports
``conditional_entropy`` from ``gp``, ``cli`` imports ``plan_markov`` from
``planners``), so a function is replaced at every module attribute that
holds it. Click subcommands are wrapped through their callbacks.
"""

from __future__ import annotations

import functools
import sys
import time

# The per-layer functions, by module. ``transect`` and ``errors`` hold
# geometry helpers and exception types; their time lands in the callers'
# self time.
LAYERS = {
    "gp": (
        "cov_matrix",
        "cross_cov",
        "chol_factor",
        "posterior_cov",
        "posterior_mean",
        "conditional_entropy",
        "gaussian_entropy",
        "sample_prior_field",
    ),
    "planners": (
        "stage_entropy_table",
        "plan_markov",
        "rollout",
        "path_entropy",
        "plan_exact",
        "exact_value_given_history",
        "plan_greedy_entropy",
        "plan_greedy_mi",
    ),
    "bounds": ("bound_report", "verify_performance_bounds"),
    "metrics": ("evaluate", "unobserved_entropy", "relative_error"),
    "fieldio": ("write_field", "read_field"),
    "bench": ("run_benchmark", "write_csv"),
    "cli": ("synth", "plan"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if name == "transectplan" or name.startswith("transectplan.")
    ]


def wrap(module: str, name: str, make_wrapper) -> bool:
    """Replace ``transectplan.<module>.<name>`` by ``make_wrapper(original)``
    wherever the package binds it. False when the function does not exist."""
    mod = sys.modules[f"transectplan.{module}"]
    if module == "cli":
        command = mod.main.commands.get(name)
        if command is None:
            return False
        command.callback = make_wrapper(command.callback)
        return True
    original = getattr(mod, name, None)
    if original is None:
        return False
    wrapped = make_wrapper(original)
    for m in _package_modules():
        for attr, value in list(vars(m).items()):
            if value is original:
                setattr(m, attr, wrapped)
    return True


def tap(module: str, name: str) -> list | None:
    """Record ``(args, kwargs, result)`` of every call into the returned
    list, or return None when the function does not exist."""
    calls: list = []

    def make(fn):
        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        return tapped

    return calls if wrap(module, name, make) else None


class Tracer:
    """Call counts and self time per span, summed in memory.

    Self time is a span's duration minus the time its child spans cover.
    Spans record only while ``active``, so input generation and checks
    between ops stay out of the totals.
    """

    def __init__(self):
        self.active = False
        self.totals = {name: [0, 0.0] for name in SPAN_NAMES}
        self._child_time: list[float] = []

    def install(self) -> None:
        for mod, fns in LAYERS.items():
            for fn in fns:
                wrap(mod, fn, functools.partial(self._span, f"{mod}.{fn}"))

    def _span(self, name: str, fn):
        total = self.totals[name]
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - t0
                total[0] += 1
                total[1] += took - child_time.pop()
                if child_time:
                    child_time[-1] += took

        return traced

    def reset(self) -> None:
        for total in self.totals.values():
            total[0], total[1] = 0, 0.0

    def per_op(self, ops: int) -> dict:
        out = {}
        for name, (calls, self_s) in self.totals.items():
            out[f"{name}.calls"] = {"value": calls / ops, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s / ops, "unit": "s"}
        return out
