"""Per-layer timing by wrapping the library's public functions at run time.

Each wrapped function is replaced, in every thermosft module that holds a
reference to it, by a wrapper that times the call and adds to the active
bucket: ``<name>.calls``, ``<name>.s`` (total), ``<name>.self_s`` (total
minus the part of the call that wrapped calls it caused were running) and
the counts listed in ``EXTRAS``.  Replacing every reference matters because
the library imports functions by name: ``rate`` calls its own
``solve_potential`` binding, which looks up ``rpf_solve`` among the
``transfer`` module's globals.

Sweeps in ``thermosft.cli`` run in a thread pool.  A call made on a pool
thread with no wrapped caller on that thread is attributed to the innermost
open call of the main thread (the ``run_command`` that submitted it), so the
CLI's self time excludes the time its workers spent inside the library.
Times summed over pool threads can exceed wall time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _graph_states(out, args):
    tm = args["psi"].tm
    k = max(1, args["psi"].r - 1)
    return {"potentials.cohomology_spread.graph_states": float(
        np.linalg.matrix_power(tm.entries, k - 1).sum())}


def _steps(out, args):
    return {"deviations.sample_paths.steps": float(args["trials"] * args["n"])}


#: wrapped functions as module.function, with the counts each adds
EXTRAS = {
    "cli.run_command": None,
    "cli.load_model": None,
    "sft.state_graph": None,
    "potentials.make_potential": None,
    "potentials.affine_combine": None,
    "potentials.cohomology_spread": _graph_states,
    "transfer.build_transfer_matrix": lambda out, a: {"transfer.matrix_states": float(out.size)},
    "transfer.rpf_solve": lambda out, a: {"transfer.rpf_solve.iterations": float(out.iterations)},
    "transfer.normalize_potential": None,
    "transfer.equilibrium_measure": None,
    "transfer.verify_rpf_bounds": None,
    "rate.tilt_eval": None,
    "rate.rate_function": lambda out, a: {"rate.rate_function.evaluations": float(out.iterations)},
    "bounds.constants_for": None,
    "bounds.verify_bound": None,
    "deviations.exact_window_mass": None,
    "deviations.sample_paths": _steps,
}

#: extras that need the call's arguments by name
_NEEDS_ARGS = {"potentials.cohomology_spread", "deviations.sample_paths"}


class _Frame:
    __slots__ = ("name", "parent", "children", "span")

    def __init__(self, name, parent, span):
        self.name = name
        self.parent = parent
        self.children = []
        self.span = span


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Collects per-layer sums into the bucket opened by ``begin``; spans
    (id, parent id, name, start, end, thread) are kept when asked for."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._ids = itertools.count(1)
        self.stats = defaultdict(float)
        self.spans = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, keep_spans: bool = False) -> dict:
        """Open a new bucket; returns it."""
        self.stats = defaultdict(float)
        self.spans = [] if keep_spans else None
        return self.stats

    def wrap(self, name: str, fn):
        extra = EXTRAS[name]
        sig = inspect.signature(fn) if name in _NEEDS_ARGS else None

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            frame = _Frame(name, parent, next(self._ids))
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            if parent is not None:
                parent.children.append((t0, t1))
            counts = {
                name + ".calls": 1.0,
                name + ".s": t1 - t0,
                name + ".self_s": t1 - t0 - _covered(frame.children),
            }
            if extra is not None:
                bound = sig.bind(*args, **kwargs).arguments if sig else args
                counts.update(extra(out, bound))
            if name == "transfer.rpf_solve":
                node = parent
                while node is not None and node.name != "rate.rate_function":
                    node = node.parent
                if node is not None:
                    counts["rate.rate_function.solves"] = 1.0
            with self._lock:
                for key, value in counts.items():
                    self.stats[key] += value
                if self.spans is not None:
                    self.spans.append((frame.span, parent.span if parent else 0, name, t0, t1,
                                       threading.get_ident()))
            return out

        return wrapper

    def install(self) -> None:
        """Replace every reference to each wrapped function inside thermosft."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "thermosft" or n.startswith("thermosft.")]
        for name in EXTRAS:
            mod, func = name.split(".")
            original = getattr(importlib.import_module("thermosft." + mod), func)
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def per_layer(setups: list, rounds: list, names) -> dict:
    """Per-layer values for one set-up plus one round: for each sum, the
    mean over set-up buckets plus the mean over round buckets.  Two ratios
    are derived: solves per rate level and Monte Carlo steps per second."""

    def mean(buckets, key):
        return statistics.fmean(b.get(key, 0.0) for b in buckets) if buckets else 0.0

    def value(key):
        return mean(setups, key) + mean(rounds, key)

    out = {}
    for name in names:
        if name == "rate.solves_per_level":
            levels = value("rate.rate_function.calls")
            out[name] = value("rate.rate_function.solves") / levels if levels else 0.0
        elif name == "deviations.sample_paths.steps_per_s":
            secs = value("deviations.sample_paths.s")
            out[name] = value("deviations.sample_paths.steps") / secs if secs else 0.0
        else:
            out[name] = value(name)
    return out
