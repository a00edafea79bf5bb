"""Every import of a package module is used there, and every private helper and constant is used in the package.

A refactor that deletes the last use of a name leaves its import, the private
function or class behind it, or the constant it read, in place; these tests
find all three from the source alone. A helper or constant kept alive only by
`tests/` or `perfbench/` does not count as used: code the package itself
never runs is dead code.

`alphacoh.__all__` is kept because without it `help(alphacoh)` stops listing
the re-exported functions and `from alphacoh import *` binds the submodules
too; a test holds it to the package's import block.
"""

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "alphacoh"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
# imported and unused on purpose: the benchmark reads and patches `select` under the
# harness module too, so the name has to resolve there (ROADMAP Direction 1)
EXEMPT = {("harness", "select")}


def unused_imports(module: str) -> set[str]:
    """The names `module` binds by an import and never reads."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports(module) - {name for mod, name in EXEMPT if mod == module} == set()


@pytest.mark.parametrize("module, name", sorted(EXEMPT))
def test_an_exemption_is_still_needed(module, name):
    assert name in unused_imports(module)


def dead_private_helpers() -> set[tuple[str, str]]:
    """(module, name) of each module-level `_name` function or class no package code reads outside its own body."""
    defined, used = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.add((path.stem, node.name))
                read.discard(node.name)  # recursion is no use
            used |= read
    return {(module, name) for module, name in defined if name not in used}


def test_every_private_helper_is_used():
    assert dead_private_helpers() == set()


def dead_constants() -> set[tuple[str, str]]:
    """(module, name) of each module-level UPPER_CASE assignment no package code reads outside that assignment."""
    defined, used = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in (n.id for n in ast.walk(target) if isinstance(n, ast.Name)):
                        if re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
                            defined.add((path.stem, name))
                            read.discard(name)  # its own binding is no read
            used |= read
    return {(module, name) for module, name in defined if name not in used}


def test_every_constant_is_read():
    assert dead_constants() == set()


# each has one site: the Hermitian test (max_asymmetry), the 0**p power convention and the eigendecomposition
LINALG_ONLY = {"max_asymmetry", "powered_eigenvalues", "eigh"}


@pytest.mark.parametrize("module", [module for module in MODULES if module != "linalg"])
def test_the_linalg_rules_are_called_only_in_linalg(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    # the called name's last part, so an alias such as np.linalg.eigh or a bare eigh import both count
    called = {ast.unparse(node.func).split(".")[-1] for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called & LINALG_ONLY == set()


def test_the_cli_reads_values_only_through_the_measure_entry_points():
    # every value comes from measure_value and every optimal population from optimal_incoherent_state
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"coherence_alpha", "tsallis_coherence", "CoherenceResult"} == set()
    assert {"measure_value", "optimal_incoherent_state"} <= imported


# the steps of one search batch: its stream, its draws, their scores and the refinement of a candidate
BATCH_STEPS = {"substream", "_batch_states", "_batch_incoherent_channels", "_batch_gaps", "_refine_witness"}


def test_a_search_batch_is_run_only_in_search_batch():
    # search_violation commits batches; every step of one, and the confirm, run inside _search_batch
    harness = ast.parse((SRC / "harness.py").read_text())
    (search,) = [top for top in harness.body if getattr(top, "name", None) == "search_violation"]
    called = {ast.unparse(node.func).split(".")[-1] for node in ast.walk(search) if isinstance(node, ast.Call)}
    assert called & (BATCH_STEPS | {"_strong_mono_stats"}) == set()
    sites = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (name := ast.unparse(node.func).split(".")[-1]) in BATCH_STEPS:
                    sites.add((path.stem, getattr(top, "name", None), name))
    # substream is also the stream of each suite trial and of each oracle-compare state
    others = {("harness", "_drawn", "substream"), ("cli", "cmd_oracle_compare", "substream")}
    assert sites == {("harness", "_search_batch", name) for name in BATCH_STEPS} | others


def test_the_score_chunk_is_read_only_where_a_batch_is_formed_and_scored():
    # one bound on a search batch's working set, read by its two chunk loops and nowhere else
    sites = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name == "SCORE_CHUNK" and isinstance(getattr(node, "ctx", None), ast.Load):
                    sites.add((path.stem, getattr(top, "name", None)))
    assert sites == {("harness", "_batch_incoherent_channels"), ("harness", "_batch_gaps")}


# the steps of one suite task: its draws, each cell's forming, gate and scores, and its records
TASK_STEPS = {"_drawn", "_form", "_stacked_sides", "_input_gate", "_one_trial"}


def test_a_suite_task_is_run_only_in_run_cells():
    # run_suite maps tasks; every step of one runs inside _run_cells, the one suite task function
    harness = ast.parse((SRC / "harness.py").read_text())
    (suite,) = [top for top in harness.body if getattr(top, "name", None) == "run_suite"]
    calls = [node for node in ast.walk(suite) if isinstance(node, ast.Call)]
    mapped = [ast.unparse(node.args[0]) for node in calls if ast.unparse(node.func).endswith(".map")]
    called = {ast.unparse(node.func).split(".")[-1] for node in calls}
    assert mapped == ["_run_cells"]
    assert {name for name in called if name.startswith("_")} == {"_grid", "_run_cells"}
    sites = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (name := ast.unparse(node.func).split(".")[-1]) in TASK_STEPS:
                    sites.add((path.stem, getattr(top, "name", None), name))
    # a witness replays one draw and forms its cell of one; a public check gates and scores its own cell
    others = {("rebuild_witness", "_drawn"), ("rebuild_witness", "_form")}
    others |= {("_trial_records", "_stacked_sides"), ("_trial_records", "_input_gate")}
    assert sites == {("harness", top, name) for top, name in others | {("_run_cells", n) for n in TASK_STEPS}}


def test_a_cell_is_built_only_in_assemble():
    # one builder of the suite's cells: every other site hands _assemble its parts
    sites = []
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_Cell":
                    sites.append((path.stem, getattr(top, "name", None)))
    assert sites == [("harness", "_assemble")]

# each refusal has one site: the operand-size rule, and a grid field's nonempty and distinct rules
REFUSAL_SITES = {
    "operands differ in dimension": ("linalg", "one_size"),
    "must be nonempty": ("harness", "_field"),
    "must not repeat": ("harness", "_field"),
}


def test_each_input_rule_is_refused_at_one_site():
    sites = {phrase: set() for phrase in REFUSAL_SITES}
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):  # the text of each error built, as in raise ValueError(f"...")
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Error"):
                    texts = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                    for phrase in sites:
                        if any(phrase in text for text in texts):
                            sites[phrase].add((path.stem, getattr(top, "name", None)))
    assert sites == {phrase: {site} for phrase, site in REFUSAL_SITES.items()}


def test_all_is_every_public_name_the_package_binds():
    import alphacoh

    bound = {name for name, value in vars(alphacoh).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(alphacoh.__all__) == sorted(bound)
    assert len(alphacoh.__all__) == len(set(alphacoh.__all__)) == 46
    for name in alphacoh.__all__:
        assert not inspect.ismodule(getattr(alphacoh, name))


def test_importing_the_package_leaves_multiprocessing_out():
    # a serial run never needs a process pool; run_suite imports one only to make it
    script = "import sys, alphacoh; print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
