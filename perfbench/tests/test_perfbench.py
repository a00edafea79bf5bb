"""Tests of the benchmark's own pieces: span arithmetic, metric names, tiny workloads.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import alphacoh.channels
import alphacoh.coherence
import alphacoh.harness
import layers
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def test_self_times_on_a_synthetic_tree():
    # 0: root [0, 10); 1, 2: children [1, 4) and [3, 6) overlap, union [1, 6);
    # 3: grandchild [1.5, 2) under 1; 4: child [8, 12) runs past its parent's end
    start = np.array([0.0, 1.0, 3.0, 1.5, 8.0])
    end = np.array([10.0, 4.0, 6.0, 2.0, 12.0])
    parent = np.array([-1, 0, 0, 1, 0])
    own = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(own, [10.0 - 5.0 - 2.0, 3.0 - 0.5, 3.0, 0.5, 4.0])


def test_union_length_clips_and_merges():
    start = np.array([0.0, 2.0, 2.5, 9.0])
    end = np.array([1.0, 3.0, 4.0, 11.0])
    assert tracing.union_length(start, end, 0.5, 10.0) == pytest.approx(0.5 + 2.0 + 1.0)
    assert tracing.union_length(np.zeros(0), np.zeros(0), 0.0, 1.0) == 0.0


def test_spec_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.\-]{1,16}$", metric["unit"]), metric
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)


def test_layer_metrics_produce_exactly_the_declared_names():
    tracer = tracing.Tracer()
    values = layers.layer_metrics(tracer, [(0.0, 1.0)], 1.0, {})
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}


def test_reference_clock_divides_by_the_bracketing_kernel_times(monkeypatch):
    clock = workloads.ReferenceClock()
    clock.samples = [0.01]
    monkeypatch.setattr(clock, "reference", lambda: 0.03)
    result, timing = clock.time(lambda x: x + 1, 41)
    assert result == 42
    assert timing.refs == pytest.approx(timing.seconds / 0.02)
    assert clock.samples == [0.01, 0.03]


def test_reference_kernels_are_named_and_tick_adds_a_sample():
    clock = workloads.ReferenceClock("vector")
    clock.tick()
    assert len(clock.samples) == 2 and all(s > 0 for s in clock.samples)
    with pytest.raises(ValueError):
        workloads.ReferenceClock("gpu")


def test_structure_grid_matches_criterion_8():
    assert workloads.structure_grid_size(2, workloads.SEARCH_ALPHAS, workloads.SEARCH_KRAUS) == 56


def test_instrument_restores_every_patched_function():
    before = (
        alphacoh.harness.select,
        alphacoh.channels.select,
        alphacoh.coherence.measure_value,
        alphacoh.channels.KrausChannel.__post_init__,
        alphacoh.coherence._simplex_grid,
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert alphacoh.harness.select is not before[0]
        assert alphacoh.harness.select is alphacoh.channels.select
    after = (
        alphacoh.harness.select,
        alphacoh.channels.select,
        alphacoh.coherence.measure_value,
        alphacoh.channels.KrausChannel.__post_init__,
        alphacoh.coherence._simplex_grid,
    )
    assert all(a is b for a, b in zip(before, after))
    assert not tracer.missing_targets


TINY = {
    "suite": workloads.SuiteSize(trials_per_cell=1, dims=(2,), alphas=(0.5, 1.5)),
    "search": workloads.SearchSize(batch=32, qutrit_seeds=1, alphas=(0.5,), n_kraus_range=(1, 2)),
    "measures": workloads.MeasuresSize(states_per_rank=1, oracle_states=1, dims=(2, 3)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_gates(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, str(tmp_path), TINY[name])
    wl.warm_up()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = wl.run_pass(tracer)
    untraced = wl.run_pass(tracing.NullTracer())
    values, detail = wl.summarize([traced, untraced])
    assert wl.gate_failures == []
    assert wl.attempted > 0
    assert set(values) == {"ops_per_ref", "part_a_per_ref", "part_b_per_ref"}
    assert all(v > 0 for v in values.values())
    assert tracer.hook_errors == 0
    metrics = layers.layer_metrics(tracer, [(tracer.start[0], tracer.end[0] + 1.0)], 1.0, {})
    assert metrics["trace.spans"] > 0
    assert wl.failed == 0
    if name == "measures":
        # the small-alpha defect is counted apart from failures, not hidden
        assert detail["failure_causes"] and wl.known_defect > 0
    else:
        assert wl.known_defect == 0


def test_only_the_documented_defect_is_set_apart(tmp_path):
    # S >= d^(-1/alpha): underflow below 1e-14 needs alpha < log10(d) / 14
    assert workloads.underflow_possible(2, 0.02) and not workloads.underflow_possible(2, 0.025)
    assert workloads.underflow_possible(8, 0.05) and not workloads.underflow_possible(8, 0.1)
    assert not workloads.underflow_possible(8, None)
    wl = workloads.Measures(7, str(tmp_path), TINY["measures"])
    defect = alphacoh.coherence.DegenerateDiagonalError("vanished")
    wl._raised("alpha", defect, 2, 0.01)
    assert (wl.known_defect, wl.failed) == (1, 0)
    wl._raised("alpha", defect, 2, 0.05)
    wl._raised("alpha", ValueError("other"), 2, 0.01)
    assert (wl.known_defect, wl.failed) == (1, 2)
