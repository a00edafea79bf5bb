"""Every package name the benchmark in perfbench/ patches or imports still resolves.

The benchmark traces package functions by (module, attribute) and imports a
few names directly; a rename under src/ would otherwise break it silently
until the next benchmark run. The benchmark's own files are only read here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

if not BENCH_DIR.is_dir():
    pytest.skip("perfbench/ is not part of this checkout", allow_module_level=True)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH_DIR / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_trace_targets_resolve():
    tracing = load_tracing()
    targets = [t for group in tracing.SPAN_TARGETS.values() for t in group]
    targets += list(tracing.COUNT_TARGETS.values())
    assert targets
    missing = [f"{m}.{a}" for m, a in targets if not resolves(m, a)]
    assert missing == []


def test_workload_imports_resolve():
    tree = ast.parse((BENCH_DIR / "workloads.py").read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "alphacoh"
        for alias in node.names
    ]
    assert imports
    missing = [f"{m}.{n}" for m, n in imports if not resolves(m, n)]
    assert missing == []


def test_benchmark_test_attributes_resolve():
    # the benchmark's own tests read package attributes by dotted path, such
    # as alphacoh.harness.select, which it patches under both modules
    import re

    text = (BENCH_DIR / "tests" / "test_perfbench.py").read_text(encoding="utf-8")
    paths = set(re.findall(r"\balphacoh\.(\w+)\.(\w+(?:\.\w+)*)", text))
    assert paths
    missing = [f"alphacoh.{m}.{a}" for m, a in sorted(paths) if not resolves(f"alphacoh.{m}", a)]
    assert missing == []


def test_batch_sampler_return_shape():
    # the tracer's draw counter calls len() on the first value returned by
    # _batch_incoherent_channels, which the name check above cannot see
    from alphacoh.harness import _batch_incoherent_channels, _SearchParams
    from alphacoh.states import substream

    params, ops = _batch_incoherent_channels(substream(1, 2), 5, 3, 4, True)
    assert len(params) == 5
    assert isinstance(params[4], _SearchParams)
    assert ops.shape == (5, 4, 3, 3)


def test_refine_call_pattern(monkeypatch):
    # the tracer counts refinement evaluations as _strong_mono_stats calls made
    # directly under _refine_witness, reads the first one's gap as the start
    # gap, and counts channel validations as KrausChannel.__post_init__ calls;
    # the name check above cannot see any of it. Refinement scores the start
    # alone through _strong_mono_stats and every candidate under its own span:
    # factor moves through the state-stack branch average, channel moves through
    # the Kraus-stack one, and never through _batch_gaps, whose span holds only
    # the search's batch scoring.
    from alphacoh import harness
    from alphacoh.coherence import measure_values
    from alphacoh.states import substream

    rng = substream(3, 5)
    factors, rhos = harness._batch_states(rng, 64, 3, 3)
    params, ops = harness._batch_incoherent_channels(rng, 64, 3, 3, True)
    gaps = harness._batch_gaps("tsallis", rhos, ops, 0.3)
    top = int(gaps.argmax())

    evaluated, scored, averaged, built = [], [], [], []
    stats, batch_gaps, post_init = harness._strong_mono_stats, harness._batch_gaps, harness.KrausChannel.__post_init__
    branch_average = harness._branch_average

    def counting_stats(*args):
        result = stats(*args)
        evaluated.append(result[2])
        return result

    def counting_batch_gaps(*args):
        result = batch_gaps(*args)
        scored.append(result)
        return result

    def counting_branch_average(kind, kraus, rho, alpha):
        # a stack of Kraus stacks meets one state, a Kraus stack meets one state or a stack
        result = branch_average(kind, kraus, rho, alpha)
        averaged.append(((kraus.ndim, rho.ndim), result[0] - measure_values(kind, rho, alpha)[0]))
        return result

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(harness, "_strong_mono_stats", counting_stats)
    monkeypatch.setattr(harness, "_batch_gaps", counting_batch_gaps)
    monkeypatch.setattr(harness, "_branch_average", counting_branch_average)
    monkeypatch.setattr(harness.KrausChannel, "__post_init__", counting_post_init)
    monkeypatch.setattr(harness, "REFINE_SWEEPS", 2)
    gap, rho, ch = harness._refine_witness("tsallis", factors[top], params[top], 0.3)
    # one scalar evaluation, of the start draw; the candidates went through the two stacked broadcasts
    assert evaluated == [gaps[top]]
    assert scored == []
    shapes = [shape for shape, _ in averaged]
    assert shapes[0] == (3, 2)  # the start
    assert set(shapes[1:]) == {(3, 3), (4, 2)}  # factor moves, then channel moves
    assert built == [ch]
    assert type(gap) is float and gap >= evaluated[0]
    assert gap in [evaluated[0], *(float(v) for _, rows in averaged[1:] for v in rows)]
    assert gap == stats("tsallis", rho, ch.kraus, 0.3)[2]  # the returned pair's own scalar gap
