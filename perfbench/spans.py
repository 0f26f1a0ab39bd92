"""Spans around the calls that cross idlewage's module boundaries.

Only traced passes import this module.  ``install`` replaces each hooked
function, in every ``idlewage.*`` module that holds a reference to it, by a
wrapper that records a span (name, start, end, parent, thread).  A hook
whose target no longer exists is reported as absent instead of failing, so
a refactor that deletes a private helper needs no edit here.

Each thread keeps its own span stack.  A span opened on a thread with an
empty stack (a worker of the optimizer's thread pool) is adopted by the
innermost open span of the thread that installed the hooks: the benchmark
is a closed loop with a single caller, so that span caused it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np


class Hook(NamedTuple):
    module: str
    qualname: str
    span: str
    info: Callable | None = None   # (bound arguments, result) -> dict


def _build_info(args, tables):
    s = args["s"]
    mib = sum(v.nbytes for v in vars(tables).values() if isinstance(v, np.ndarray)) / 2**20
    return {"key": (s, np.asarray(args["p"], dtype=float).tobytes(), args["cfg"]), "mib": mib}


def _slice_info(args, roots):
    tables, tau = args["tables"], float(args["tau"])
    s = tables.scenario
    grids = (tables.p.tobytes(), np.asarray(args["j_values"], dtype=float).tobytes(), tables.cfg)
    # The roots depend on the risk premium and the commission only through
    # the earnings weight beta * (1 - tau).
    no_beta = (s.demand, s.pickup, s.supply.pool_size, s.supply.elasticity, s.trip_time)
    return {
        "key": (s, tau) + grids,
        "coef_key": (no_beta, s.supply.risk_beta * (1.0 - tau)) + grids,
        "roots": int(np.size(roots.z)),
    }


def _values_info(args, values):
    return {"elems": int(np.size(values))}


def _emit_info(args, result):
    return {"bytes": os.path.getsize(args["path"])}


HOOKS = (
    Hook("idlewage.equilibrium", "PeriodTables.build", "equilibrium.build", _build_info),
    Hook("idlewage.equilibrium", "solve_slice", "equilibrium.solve_slice", _slice_info),
    Hook("idlewage.equilibrium", "find_equilibria", "equilibrium.find_equilibria"),
    Hook("idlewage.equilibrium", "equilibrium_components", "equilibrium.components"),
    Hook("idlewage.objectives", "profit_values", "objectives.values", _values_info),
    Hook("idlewage.objectives", "welfare_values", "objectives.values", _values_info),
    Hook("idlewage.objectives", "evaluate", "objectives.evaluate"),
    Hook("idlewage.optimize", "optimize_single_period", "optimize.single"),
    Hook("idlewage.optimize", "sweep_idle_wage", "optimize.sweep"),
    Hook("idlewage.optimize", "optimize_day_flexible", "optimize.flexible"),
    Hook("idlewage.optimize", "value_vs_tau", "optimize.value_vs_tau"),
    Hook("idlewage.optimize", "optimize_day_fixed", "optimize.fixed"),
    Hook("idlewage.optimize", "optimize_min_wage", "optimize.minwage"),
    # Private helpers that run on pool threads: spans here keep the
    # per-price reduction out of the waiting regime span's self time.
    Hook("idlewage.optimize", "_best_over_prices", "optimize.best_over_prices"),
    Hook("idlewage.optimize", "_flexible_period", "optimize.flexible_period"),
    Hook("idlewage.optimize", "_fixed_period_matrices", "optimize.fixed_matrices"),
    Hook("idlewage.scenario", "load_config", "scenario.load_config"),
    Hook("idlewage.scenario", "emit_table", "scenario.emit_table", _emit_info),
    Hook("idlewage.cli", "main", "cli.main"),
)

REGIMES = ("single", "sweep", "flexible", "value_vs_tau", "fixed", "minwage")

# Unit of each metric that Recorder.summary reports.
UNITS = {
    "equilibrium.solve_slice.calls": "count",
    "equilibrium.solve_slice.distinct": "count",
    "equilibrium.solve_slice.distinct_coef": "count",
    "equilibrium.solve_slice.useful_ratio": "ratio",
    "equilibrium.solve_slice.self_s": "s",
    "equilibrium.solve_slice.roots": "count",
    "equilibrium.solve_slice.roots_per_call": "count/call",
    "equilibrium.build.calls": "count",
    "equilibrium.build.distinct": "count",
    "equilibrium.build.self_s": "s",
    "equilibrium.table_mib": "MiB_computed",
    "equilibrium.find_equilibria.self_s": "s",
    "equilibrium.components.self_s": "s",
    "objectives.values.calls": "count",
    "objectives.values.elems": "count",
    "objectives.values.self_s": "s",
    "objectives.evaluate.calls": "count",
    "optimize.single.calls": "count",
    "optimize.sweep.calls": "count",
    "optimize.flexible.calls": "count",
    "optimize.value_vs_tau.calls": "count",
    "optimize.fixed.calls": "count",
    "optimize.minwage.calls": "count",
    "optimize.self_s": "s",
    "optimize.span_busy_ratio": "ratio",
    "scenario.load_config.s": "s",
    "scenario.emit_table.s": "s",
    "scenario.emit_table.bytes": "B",
    "cli.self_s": "s",
}


class Recorder:
    """Collects spans in memory; ``summary`` turns one pass into layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, thread, t0, t1, info)
        self.absent: list[str] = []    # hook targets or info fields not found
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, hook: Hook):
        sig = inspect.signature(fn) if hook.info else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            info = None
            if hook.info is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info = hook.info(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    info = None
            self.spans.append((sid, parent, hook.span, threading.get_ident(), t0, t1, info))
            return result

        return wrapper

    def summary(self, wall: float, threads: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far, for a pass of ``wall`` seconds."""
        children = defaultdict(list)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            children[parent].append((t0, t1))
        self_time = {}
        for sid, _, _, _, t0, t1, _ in self.spans:
            self_time[sid] = (t1 - t0) - _covered(children.get(sid, ()), t0, t1)

        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[2]].append(span)

        def calls(name):
            return len(by_name[name])

        def self_s(name):
            return sum(self_time[s[0]] for s in by_name[name])

        def infos(name):
            return [s[6] for s in by_name[name]]

        def total(name, field):
            vals = infos(name)
            if any(v is None for v in vals):
                self._mark_absent(f"{name}.{field}")
                return 0.0
            return sum(v[field] for v in vals)

        def distinct(name, field):
            vals = infos(name)
            if any(v is None for v in vals):
                self._mark_absent(f"{name}.{field}")
                return 0
            return len({v[field] for v in vals})

        m = {}
        n = calls("equilibrium.solve_slice")
        m["equilibrium.solve_slice.calls"] = n
        m["equilibrium.solve_slice.distinct"] = distinct("equilibrium.solve_slice", "key")
        m["equilibrium.solve_slice.distinct_coef"] = distinct("equilibrium.solve_slice", "coef_key")
        m["equilibrium.solve_slice.useful_ratio"] = (
            m["equilibrium.solve_slice.distinct"] / n if n else 0.0
        )
        m["equilibrium.solve_slice.self_s"] = self_s("equilibrium.solve_slice")
        m["equilibrium.solve_slice.roots"] = total("equilibrium.solve_slice", "roots")
        m["equilibrium.solve_slice.roots_per_call"] = (
            m["equilibrium.solve_slice.roots"] / n if n else 0.0
        )
        m["equilibrium.build.calls"] = calls("equilibrium.build")
        m["equilibrium.build.distinct"] = distinct("equilibrium.build", "key")
        m["equilibrium.build.self_s"] = self_s("equilibrium.build")
        m["equilibrium.table_mib"] = total("equilibrium.build", "mib")
        m["equilibrium.find_equilibria.self_s"] = self_s("equilibrium.find_equilibria")
        m["equilibrium.components.self_s"] = self_s("equilibrium.components")
        m["objectives.values.calls"] = calls("objectives.values")
        m["objectives.values.elems"] = total("objectives.values", "elems")
        m["objectives.values.self_s"] = self_s("objectives.values")
        m["objectives.evaluate.calls"] = calls("objectives.evaluate")
        for regime in REGIMES:
            m[f"optimize.{regime}.calls"] = calls(f"optimize.{regime}")
        m["optimize.self_s"] = sum(self_s(k) for k in by_name if k.startswith("optimize."))
        busy = sum(self_time.values())
        m["optimize.span_busy_ratio"] = busy / (threads * wall) if wall > 0 else 0.0
        m["scenario.load_config.s"] = sum(s[5] - s[4] for s in by_name["scenario.load_config"])
        m["scenario.emit_table.s"] = sum(s[5] - s[4] for s in by_name["scenario.emit_table"])
        m["scenario.emit_table.bytes"] = total("scenario.emit_table", "bytes")
        m["cli.self_s"] = self_s("cli.main")
        return m

    def _mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def install() -> Recorder:
    """Wrap every hook target that exists; call from the thread that runs the workload."""
    rec = Recorder()
    for hook in HOOKS:
        try:
            module = importlib.import_module(hook.module)
            *path, attr = hook.qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            rec.absent.append(f"{hook.module}:{hook.qualname}")
            continue
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(rec.wrap(raw.__func__, hook)))
        elif owner is module:
            wrapper = rec.wrap(raw, hook)
            for name, mod in list(sys.modules.items()):
                if name == "idlewage" or name.startswith("idlewage."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapper)
        else:
            setattr(owner, attr, rec.wrap(raw, hook))
    return rec

