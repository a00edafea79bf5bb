"""Per-layer metrics from a traced run.

Every `*_s` metric is self time: the summed durations of one kind of span
minus the part of each that its child spans cover, so the layer totals add up
to the covered share of traced wall time. `harness.refine_incl_s` is the one
inclusive time, kept because refinement spends most of its time in the
coherence, channels and linalg calls it makes.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS, NO_PARENT, Tracer, self_times, union_length

# per-layer metric -> span name whose self time it reports
SELF_TIME = {
    "harness.batch_channels_s": "harness.batch_channels",
    "harness.batch_gaps_s": "harness.batch_gaps",
    "harness.refine_s": "harness.refine",
    "harness.check_s": "harness.check",
    "channels.incoherent_sampler_s": "channels.incoherent_sampler",
    "channels.random_channel_s": "channels.random_channel",
    "channels.kraus_validate_s": "channels.kraus_validate",
    "channels.select_s": "channels.select",
    "coherence.measure_s": "coherence.measure",
    "coherence.oracle_s": "coherence.oracle",
    "divergence.trace_functional_s": "divergence.trace_functional",
    "divergence.entropy_s": "divergence.entropy",
    "linalg.spectral_decompose_s": "linalg.spectral_decompose",
    "linalg.matrix_power_s": "linalg.matrix_power",
    "states.random_density_s": "states.random_density",
    "states.substream_s": "states.substream",
    "cli.emit_s": "cli.emit",
}

# per-layer metric -> span name whose call count it reports
CALLS = {
    "harness.refine_calls": "harness.refine",
    "channels.kraus_validate_calls": "channels.kraus_validate",
    "channels.select_calls": "channels.select",
    "coherence.measure_calls": "coherence.measure",
    "divergence.trace_functional_calls": "divergence.trace_functional",
    "linalg.spectral_decompose_calls": "linalg.spectral_decompose",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _by_name(names: list[str], name_id: np.ndarray, values: np.ndarray) -> dict[str, tuple[float, int]]:
    total = np.bincount(name_id, weights=values, minlength=len(names))
    count = np.bincount(name_id, minlength=len(names))
    return {name: (float(total[i]), int(count[i])) for i, name in enumerate(names)}


def layer_metrics(tracer: Tracer, windows, untraced_wall: float, extra: dict) -> dict:
    """Every per-layer metric of the traced time windows [(start, end), ...]."""
    name_id, start, end, parent, _ = tracer.arrays()
    own = _by_name(tracer.names, name_id, self_times(start, end, parent))
    incl = _by_name(tracer.names, name_id, end - start)
    c = tracer.counters
    roots = parent == NO_PARENT
    wall = sum(hi - lo for lo, hi in windows)
    covered = sum(union_length(start[roots], end[roots], lo, hi) for lo, hi in windows)
    refine_calls = own.get("harness.refine", (0.0, 0))[1]
    values = {metric: own.get(name, (0.0, 0))[0] for metric, name in SELF_TIME.items()}
    values.update({metric: float(own.get(name, (0.0, 0))[1]) for metric, name in CALLS.items()})
    values.update(
        {
            "harness.refine_incl_s": incl.get("harness.refine", (0.0, 0))[0],
            "harness.refine_evals": c["harness.refine_evals"],
            "harness.refine_improved_share": _share(c["harness.refine_improved"], refine_calls),
            "harness.draws": c["harness.draws"],
            "harness.witness_draws": float(extra.get("harness.witness_draws", 0)),
            "harness.degenerate_share": _share(c["harness.degenerate_records"], c["harness.records"]),
            "channels.sampler_redraws": c["channels.sampler_redraws"],
            "channels.dropped_branch_share": _share(c["channels.dropped_branches"], c["channels.branches"]),
            "coherence.oracle_grid_points": c["coherence.oracle_grid_points"],
            "coherence.failed_calls": c["coherence.measure.raised"] + c["coherence.nan_results"],
            "cli.emit_bytes": c["cli.emit_bytes"],
        }
    )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(t for name, (t, _) in own.items() if name.startswith(layer + "."))
    values.update(
        {
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": wall - untraced_wall,
            "trace.overhead_share": _share(wall - untraced_wall, untraced_wall),
            "trace.covered_share": _share(covered, wall),
            "trace.spans": float(len(tracer)),
        }
    )
    return values


def split_by_part(tracer: Tracer, top: int = 8) -> dict:
    """Self time per span name within each labelled part, largest first, summed over passes."""
    name_id, start, end, parent, _ = tracer.arrays()
    own = self_times(start, end, parent)
    bounds = [idx for _, idx in tracer.marks[1:]] + [len(tracer)]
    parts: dict[str, np.ndarray] = {}
    for (label, lo), hi in zip(tracer.marks, bounds):
        per_name = np.bincount(name_id[lo:hi], weights=own[lo:hi], minlength=len(tracer.names))
        parts[label] = parts.get(label, 0) + per_name
    out = {}
    for label, per_name in parts.items():
        total = float(per_name.sum())
        order = np.argsort(per_name)[::-1][:top]
        out[label] = {
            "self_s": total,
            "top": {tracer.names[i]: [float(per_name[i]), _share(float(per_name[i]), total)] for i in order if per_name[i] > 0},
        }
    return out
