"""Span tracing of the alphacoh modules from outside the package.

`instrument` swaps selected package functions for timing wrappers for the
length of a `with` block and puts the originals back afterwards; nothing under
`src/` changes. A function bound under several module names (``select`` lives
in both ``alphacoh.channels`` and ``alphacoh.harness``) is replaced under every
one, so calls are caught whichever module makes them.

Each span records its name, start, end, parent span and operation id (a suite
trial, a search or a scalar call). Spans are kept in compact in-memory arrays
and written out once, at the end. Counters that cannot be read off span
durations (draws, redraws, dropped branches, refinement outcomes) are updated
by hooks at the same call boundaries.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

NO_PARENT = -1

# span name -> (module, attribute) targets; a dotted attribute patches a class
SPAN_TARGETS = {
    "cli.main": [("alphacoh.cli", "main")],
    "cli.emit": [("alphacoh.cli", "_emit")],
    "harness.run_suite": [("alphacoh.harness", "run_suite")],
    "harness.trial": [("alphacoh.harness", "_one_trial")],
    "harness.check": [
        ("alphacoh.harness", name)
        for name in (
            "check_strong_monotonicity",
            "check_monotonicity",
            "check_convexity",
            "check_lemma1",
            "check_holder_step",
            "check_observations",
        )
    ],
    "harness.search": [("alphacoh.harness", "search_violation")],
    "harness.batch_channels": [("alphacoh.harness", "_batch_incoherent_channels")],
    "harness.batch_gaps": [("alphacoh.harness", "_batch_gaps")],
    "harness.refine": [("alphacoh.harness", "_refine_witness")],
    "harness.strong_mono_stats": [("alphacoh.harness", "_strong_mono_stats")],
    "channels.incoherent_sampler": [("alphacoh.channels", "random_incoherent_channel")],
    "channels.random_channel": [("alphacoh.channels", "random_channel")],
    "channels.kraus_validate": [("alphacoh.channels", "KrausChannel.__post_init__")],
    "channels.select": [("alphacoh.channels", "select")],
    "channels.apply": [("alphacoh.channels", "apply_channel")],
    "coherence.measure": [
        ("alphacoh.coherence", "measure_value"),
        ("alphacoh.coherence", "optimal_incoherent_state"),
    ],
    "coherence.oracle": [("alphacoh.coherence", "brute_force_min")],
    "divergence.trace_functional": [("alphacoh.divergence", "trace_functional")],
    "divergence.entropy": [
        ("alphacoh.divergence", "von_neumann_entropy"),
        ("alphacoh.divergence", "relative_entropy"),
    ],
    "linalg.spectral_decompose": [("alphacoh.linalg", "spectral_decompose")],
    "linalg.matrix_power": [("alphacoh.linalg", "matrix_power")],
    "states.random_density": [("alphacoh.states", "random_density")],
    "states.substream": [("alphacoh.states", "substream")],
}

# wrapped for their counters only: a span per call would cost more than it shows
COUNT_TARGETS = {
    "sampler_redraw": ("alphacoh.channels", "_cancel_merge_terms"),
    "oracle_grid": ("alphacoh.coherence", "_simplex_grid"),
}

LAYERS = ("linalg", "states", "divergence", "coherence", "channels", "harness", "cli")

# modules whose global names get patched: the package, and the workloads that call into it
PATCHED_MODULES = ("alphacoh", "workloads")


class Tracer:
    """In-memory span store plus the counters the per-layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current = NO_PARENT
        self.current_op = NO_PARENT
        self._next_op = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.refine_first_gap = None
        self.hook_errors = 0
        self.missing_targets: set[str] = set()
        self.marks: list[tuple[str, int]] = []

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_op(self) -> int:
        self._next_op += 1
        self.current_op = self._next_op
        return self.current_op

    def mark(self, label: str) -> None:
        """Start a labelled part of the workload at the next span."""
        self.marks.append((label, len(self.start)))

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """(name ids, starts, ends, parents, op ids) as numpy arrays."""
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            np.array(self.parent, dtype=np.int64),
            np.array(self.op, dtype=np.int64),
        )

    def write(self, path) -> None:
        """Write every span to a compressed .npz (names, start, end, parent, op)."""
        names, start, end, parent, op = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=names, start=start, end=end,
            parent=parent, op=op,
        )


class NullTracer:
    """Stand-in for untraced runs: the workloads' calls on it do nothing."""

    def new_op(self) -> int:
        return NO_PARENT

    def mark(self, label: str) -> None:
        pass


def _span_wrapper(tracer: Tracer, fn, name: str, after=None, new_op: bool = False):
    nid = tracer.intern(name)
    clock = time.perf_counter
    name_id, starts, ends, parents, ops = (
        tracer.name_id, tracer.start, tracer.end, tracer.parent, tracer.op,
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = tracer.current
        saved_op = tracer.current_op
        if new_op:
            tracer.new_op()
        idx = len(starts)
        name_id.append(nid)
        parents.append(parent)
        ops.append(tracer.current_op)
        ends.append(0.0)
        tracer.current = idx
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counters[name + ".raised"] += 1
            raise
        finally:
            ends[idx] = clock()
            tracer.current = parent
            tracer.current_op = saved_op
        if after is not None:
            try:
                after(tracer, args, kwargs, result)
            except Exception:  # a hook must never change what the package returns
                tracer.hook_errors += 1
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        try:
            after(tracer, args, kwargs, result)
        except Exception:
            tracer.hook_errors += 1
        return result

    return wrapper


# ---------------------------------------------------------------------------
# counter hooks: (tracer, args, kwargs, result) -> None


def _after_select(tracer, args, kwargs, result):
    ch = args[0] if args else kwargs["ch"]
    outcomes, _ = result
    tracer.counters["channels.branches"] += len(ch.kraus)
    tracer.counters["channels.dropped_branches"] += len(ch.kraus) - len(outcomes)


def _after_batch_channels(tracer, args, kwargs, result):
    params, _ = result
    tracer.counters["harness.draws"] += len(params)


def _after_strong_mono_stats(tracer, args, kwargs, result):
    if tracer.current != NO_PARENT and tracer.names[tracer.name_id[tracer.current]] == "harness.refine":
        tracer.counters["harness.refine_evals"] += 1
        if tracer.refine_first_gap is None:
            tracer.refine_first_gap = result[2]


def _after_refine(tracer, args, kwargs, result):
    first = tracer.refine_first_gap
    tracer.refine_first_gap = None
    if first is not None and result[0] > first:
        tracer.counters["harness.refine_improved"] += 1


def _after_run_suite(tracer, args, kwargs, result):
    tracer.counters["harness.records"] += len(result.records)
    tracer.counters["harness.degenerate_records"] += sum(r.degenerate for r in result.records)


def _after_emit(tracer, args, kwargs, result):
    out_path = args[3] if len(args) > 3 else kwargs.get("out_path")
    if out_path:
        tracer.counters["cli.emit_bytes"] += os.path.getsize(out_path)


def _after_redraw(tracer, args, kwargs, result):
    if result is None:
        tracer.counters["channels.sampler_redraws"] += 1


def _after_grid(tracer, args, kwargs, result):
    tracer.counters["coherence.oracle_grid_points"] += len(result)


def _after_measure(tracer, args, kwargs, result):
    if np.isnan(result).any():
        tracer.counters["coherence.nan_results"] += 1


SPAN_HOOKS = {
    "channels.select": _after_select,
    "harness.batch_channels": _after_batch_channels,
    "harness.strong_mono_stats": _after_strong_mono_stats,
    "harness.refine": _after_refine,
    "harness.run_suite": _after_run_suite,
    "cli.emit": _after_emit,
    "coherence.measure": _after_measure,
}
COUNT_HOOKS = {"sampler_redraw": _after_redraw, "oracle_grid": _after_grid}
NEW_OP_SPANS = {"harness.trial"}


def _resolve(module_name: str, attr: str):
    module = sys.modules.get(module_name)
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None) if owner is not None else None
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


class instrument:
    """Context manager: patch every target for `tracer`, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _patch_everywhere(self, owner, attr, original, replacement):
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] not in PATCHED_MODULES:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def __enter__(self):
        tracer = self.tracer
        for span_name, targets in SPAN_TARGETS.items():
            for module_name, attr in targets:
                owner, leaf = _resolve(module_name, attr)
                if owner is None:
                    tracer.missing_targets.add(f"{module_name}.{attr}")
                    continue
                original = getattr(owner, leaf)
                wrapper = _span_wrapper(
                    tracer, original, span_name, SPAN_HOOKS.get(span_name),
                    new_op=span_name in NEW_OP_SPANS,
                )
                self._patch_everywhere(owner, leaf, original, wrapper)
        for key, (module_name, attr) in COUNT_TARGETS.items():
            owner, leaf = _resolve(module_name, attr)
            if owner is None:
                tracer.missing_targets.add(f"{module_name}.{attr}")
                continue
            original = getattr(owner, leaf)
            self._patch_everywhere(owner, leaf, original, _count_wrapper(tracer, original, COUNT_HOOKS[key]))
        return tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap one another; their union, clipped to the parent's
    interval, is what gets subtracted.
    """
    covered = np.zeros(start.size)
    child = np.nonzero(parent != NO_PARENT)[0]
    order = child[np.lexsort((start[child], parent[child]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    cur, run_lo, run_hi = NO_PARENT, 0.0, 0.0
    for i in order.tolist():
        p = parents[i]
        lo = max(starts[i], starts[p])
        hi = min(ends[i], ends[p])
        if hi <= lo:
            continue
        if p != cur or lo > run_hi:
            if cur != NO_PARENT:
                covered[cur] += run_hi - run_lo
            cur, run_lo, run_hi = p, lo, hi
        else:
            run_hi = max(run_hi, hi)
    if cur != NO_PARENT:
        covered[cur] += run_hi - run_lo
    return (end - start) - covered


def union_length(start: np.ndarray, end: np.ndarray, lo: float, hi: float) -> float:
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    total, run_start, run_end = 0.0, None, None
    for s, e in zip(np.maximum(start[order], lo).tolist(), np.minimum(end[order], hi).tolist()):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total
