"""Acceptance gates.

Each test prints exactly one line, `criterion N: PASS/FAIL (detail)`, straight
to the terminal before asserting, so the full scorecard is visible in any run.
Tolerances and budgets are pinned in the asserts; nothing here adapts to the
numbers it measures.

Criterion 8 hunts the strong-monotonicity violation of the tsallis
quantifier where it exists, at d = 3, and replays the witness through the CLI
digit for digit. Two controls run the same budget and must stay clean: the
strongly monotone alpha family at d = 3, and the tsallis quantifier at d = 2,
where strong monotonicity reduces to a concavity that README.md ("No qubit
witness") proves at the edges of its parameter range and certifies on a
high-precision grid, and that tests/test_qubit_concavity.py checks.
"""

import json
import math
import time

import numpy as np
import pytest

from alphacoh.channels import random_channel, save_channel
from alphacoh.cli import main as cli_main
from alphacoh.coherence import (
    MEASURE_KINDS,
    brute_force_min,
    c2_direct,
    coherence_alpha,
    l1_coherence,
    max_coherence,
    measure_value,
    relative_entropy_coherence,
    skew_info_sum,
)
from alphacoh.harness import TrialConfig, check_observations, run_suite, search_violation
from alphacoh.linalg import matrix_power
from alphacoh.states import (
    embed_diagonal,
    maximally_coherent,
    random_density,
    save_state,
    substream,
)

ALPHA_FULL = (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0)
ALPHA_ORACLE = (0.3, 0.5, 0.7, 1.3, 1.5, 2.0)
SEED = 1001


def gate(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_maximal_coherence_closed_form(capsys):
    t0 = time.perf_counter()
    worst_rel = 0.0
    for d in range(2, 9):
        rho = maximally_coherent(d)
        for alpha in ALPHA_FULL:
            measured = coherence_alpha(rho, alpha).value
            bound = max_coherence(d, alpha)
            worst_rel = max(worst_rel, abs(measured - bound) / abs(bound))
    spots = (
        abs(max_coherence(2, 2.0) - (math.sqrt(2.0) - 1.0)),
        abs(max_coherence(2, 0.5) - 1.0),
        abs(max_coherence(4, 0.5) - 1.5),
    )
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-10 and max(spots) <= 1e-12 and elapsed < 1.0
    gate(capsys, 1, ok, f"worst rel err {worst_rel:.2e}, spot err {max(spots):.2e}, {elapsed:.2f} s")
    assert worst_rel <= 1e-10
    assert max(spots) <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_grid_oracle_agreement(capsys):
    t0 = time.perf_counter()
    bounds = {2: (1e-4, 2e-3), 3: (2e-3, 2e-2)}
    worst = {2: 0.0, 3: 0.0}
    closed_above = 0
    for d, (resolution, _) in bounds.items():
        for index in range(200):
            rho = random_density(d, d, substream(SEED, 2, d, index))
            for alpha in ALPHA_ORACLE:
                closed = coherence_alpha(rho, alpha).value
                oracle, _ = brute_force_min(rho, alpha, resolution)
                worst[d] = max(worst[d], abs(closed - oracle))
                if closed > oracle + 1e-9:
                    closed_above += 1
    elapsed = time.perf_counter() - t0
    ok = (
        worst[2] <= bounds[2][1]
        and worst[3] <= bounds[3][1]
        and closed_above == 0
        and elapsed < 300.0
    )
    gate(
        capsys, 2, ok,
        f"worst |diff| d=2 {worst[2]:.2e} (<=2e-3), d=3 {worst[3]:.2e} (<=2e-2), "
        f"closed>oracle {closed_above}x, {elapsed:.1f} s",
    )
    assert worst[2] <= 2e-3
    assert worst[3] <= 2e-2
    assert closed_above == 0
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_03_strong_monotonicity_suite(capsys):
    t0 = time.perf_counter()
    cfg = TrialConfig(
        dims=(2, 3, 4),
        alphas=ALPHA_FULL,
        trials_per_cell=3334,  # 3 dims x 3334 = 10002 trials per alpha
        n_kraus_range=(1, 4),
        rank_policy="mixed-ranks",
        checks=("strong_monotonicity",),
        kind="alpha",
        master_seed=SEED,
        tolerance=1e-9,
    )
    summary = run_suite(cfg)
    stats = summary.stats["strong_monotonicity"]
    elapsed = time.perf_counter() - t0
    ok = stats.failures == 0 and elapsed < 120.0
    gate(
        capsys, 3, ok,
        f"{stats.trials} trials, {stats.failures} failures, "
        f"worst margin {stats.worst_margin:.2e}, {elapsed:.1f} s",
    )
    assert stats.failures == 0
    assert stats.worst_margin >= -1e-9
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_04_convexity_and_monotonicity(capsys):
    cfg = TrialConfig(
        dims=(2, 3, 4),
        alphas=ALPHA_FULL,
        trials_per_cell=420,  # 24 cells x 420 = 10080 trials per check
        checks=("convexity", "monotonicity"),
        kind="alpha",
        master_seed=SEED,
    )
    summary = run_suite(cfg)
    conv, mono = summary.stats["convexity"], summary.stats["monotonicity"]
    ok = conv.failures == 0 and mono.failures == 0 and conv.trials >= 10_000
    gate(
        capsys, 4, ok,
        f"convexity {conv.trials} trials/{conv.failures} failures "
        f"(worst {conv.worst_margin:.2e}), monotonicity {mono.trials}/{mono.failures} "
        f"(worst {mono.worst_margin:.2e})",
    )
    assert conv.trials >= 10_000 and mono.trials >= 10_000
    assert conv.failures == 0
    assert mono.failures == 0


@pytest.mark.slow
def test_criterion_05_branch_decomposition_bound(capsys):
    cfg = TrialConfig(
        dims=(2, 3, 4),
        alphas=ALPHA_FULL,
        trials_per_cell=420,
        checks=("lemma1",),
        master_seed=SEED,
    )
    summary = run_suite(cfg)
    stats = summary.stats["lemma1"]
    ok = stats.failures == 0 and stats.trials >= 10_000
    gate(
        capsys, 5, ok,
        f"{stats.trials} arbitrary channels, {stats.failures} non-degenerate failures, "
        f"{stats.degenerate} degenerate, worst margin {stats.worst_margin:.2e}",
    )
    assert stats.trials >= 10_000
    assert stats.failures == 0


@pytest.mark.slow
def test_criterion_06_power_mean_step(capsys):
    cfg = TrialConfig(
        dims=(2, 3, 4),
        alphas=ALPHA_FULL,
        trials_per_cell=420,
        checks=("holder",),
        master_seed=SEED,
    )
    summary = run_suite(cfg)
    stats = summary.stats["holder"]

    single = TrialConfig(
        dims=(2, 3, 4),
        alphas=ALPHA_FULL,
        trials_per_cell=40,
        n_kraus_range=(1, 1),
        checks=("holder",),
        master_seed=SEED + 1,
    )
    margins = [abs(r.margin) for r in run_suite(single).records if not r.degenerate]
    tightness = max(margins)
    ok = stats.failures == 0 and stats.trials >= 10_000 and tightness <= 1e-10
    gate(
        capsys, 6, ok,
        f"{stats.trials} trials, {stats.failures} failures, worst margin "
        f"{stats.worst_margin:.2e}; single-operator equality within {tightness:.2e}",
    )
    assert stats.trials >= 10_000
    assert stats.failures == 0
    assert tightness <= 1e-10


@pytest.mark.slow
def test_criterion_07_functional_observations(capsys):
    cfg = TrialConfig(
        dims=(2, 3, 4),
        alphas=ALPHA_FULL,
        trials_per_cell=420,
        checks=("observations",),
        master_seed=SEED,
    )
    summary = run_suite(cfg)
    names = [
        "obs1_one_sided",
        "obs2_isometry",
        "obs3_contraction",
        "obs4_joint_convexity",
        "obs5_tensor_ancilla",
    ]
    failures = {n: summary.stats[n].failures for n in names}
    trials_ok = all(summary.stats[n].trials >= 10_000 for n in names)

    # forced equality instances: identical states and the identity isometry
    worst_eq = 0.0
    for index in range(50):
        gen = substream(SEED, 7, index)
        d = int(gen.integers(2, 5))
        rho = random_density(d, d, gen)
        ch = random_channel(d, 2, gen)
        alpha = ALPHA_FULL[index % len(ALPHA_FULL)]
        if abs(alpha - 1.0) < 1e-6:
            alpha = 1.5
        records = check_observations(
            rho, rho, ch, np.eye(d), gen.dirichlet(np.ones(2)), alpha
        )
        by_name = {r.check_name: r for r in records}
        for name in ("obs1_one_sided", "obs2_isometry", "obs5_tensor_ancilla"):
            worst_eq = max(worst_eq, abs(by_name[name].margin))
    ok = trials_ok and not any(failures.values()) and worst_eq <= 1e-10
    gate(
        capsys, 7, ok,
        f"failures {failures}, equality cases within {worst_eq:.2e}",
    )
    assert trials_ok
    assert not any(failures.values())
    assert worst_eq <= 1e-10


@pytest.mark.slow
def test_criterion_08_qubit_violation_search(capsys, tmp_path):
    # the violation lives at d >= 3: at d = 2 strong monotonicity of the
    # tsallis quantifier reduces to a concavity (README, "No qubit witness";
    # tests/test_qubit_concavity.py), so the qubit search is a control
    t0 = time.perf_counter()
    budget = 1_000_000
    alphas = (0.3, 0.5, 1.5, 2.0)
    report = search_violation(3, budget, kind="tsallis", alphas=alphas, seed=SEED)
    replay_ok = False
    if report.found:
        out_dir = tmp_path / "witness"
        out_dir.mkdir()
        state_path = out_dir / "witness_state.json"
        channel_path = out_dir / "witness_channel.json"
        save_state(state_path, report.state)
        save_channel(channel_path, report.channel)
        csv_path = out_dir / "replay.csv"
        code = cli_main(
            [
                "replay",
                "--state", str(state_path),
                "--channel", str(channel_path),
                "--alpha", str(report.alpha),
                "--kind", "tsallis",
                "--out", str(csv_path),
            ]
        )
        row = csv_path.read_text().strip().split("\n")[1].split(",")
        replay_ok = code == 0 and row[5] == repr(report.gap) and report.gap > 1e-6

    control = search_violation(3, budget, kind="alpha", alphas=alphas, seed=SEED)
    qubit = search_violation(2, budget, kind="tsallis", alphas=alphas, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = (
        report.found
        and replay_ok
        and not control.found
        and not qubit.found
        and elapsed < 600.0
    )
    if report.found:
        found = (
            f"qutrit witness gap {report.gap:.3e} at alpha {report.alpha} "
            f"(draw {report.trials_used}), replay exact: {replay_ok}"
        )
    else:
        found = f"no qutrit witness in {budget} draws (best gap {report.best_gap:.1e})"
    detail = (
        f"{found}; controls over {budget} draws each: qutrit alpha "
        f"{'FOUND' if control.found else 'clean'} (best {control.best_gap:.1e}), "
        f"qubit tsallis {'FOUND' if qubit.found else 'clean'} "
        f"(best {qubit.best_gap:.1e}, concave case); {elapsed:.0f} s"
    )
    gate(capsys, 8, ok, detail)
    assert not control.found, "the strongly monotone family produced a violation"
    assert not qubit.found, "a qubit witness contradicts the qubit concavity certificate"
    assert elapsed < 600.0
    assert report.found, detail
    assert replay_ok


def test_criterion_09_special_case_identities(capsys):
    worst_c2 = 0.0
    worst_half = 0.0
    worst_ratio = 0.0
    for index in range(1000):
        d = 2 + index % 3
        rho = random_density(d, d, substream(SEED, 9, index))
        worst_c2 = max(
            worst_c2, abs(coherence_alpha(rho, 2.0).value - c2_direct(rho))
        )
        half = coherence_alpha(rho, 0.5).value
        worst_half = max(worst_half, abs(half - 2.0 * skew_info_sum(rho)))
        root_diag = np.diag(matrix_power(rho, 0.5)).real
        inner = 1.0 - float(np.sum(root_diag**2))
        worst_ratio = max(worst_ratio, abs(half / inner - 2.0))
    ok = worst_c2 <= 1e-12 and worst_half <= 1e-10 and worst_ratio <= 1e-9
    gate(
        capsys, 9, ok,
        f"alpha=2 direct route within {worst_c2:.2e}, alpha=1/2 vs skew sum within "
        f"{worst_half:.2e}, factor-2 ratio off by {worst_ratio:.2e}",
    )
    assert worst_c2 <= 1e-12
    assert worst_half <= 1e-10
    assert worst_ratio <= 1e-9


def test_criterion_10_continuity_at_one(capsys):
    worst = 0.0
    for index in range(1000):
        d = 2 + index % 3
        rho = random_density(d, d, substream(SEED, 10, index))
        limit = relative_entropy_coherence(rho).value
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            worst = max(worst, abs(coherence_alpha(rho, alpha).value - limit))
    ok = worst <= 1e-3
    gate(capsys, 10, ok, f"worst |C_(1 +/- 1e-4) - entropy limit| = {worst:.2e}")
    assert worst <= 1e-3


def test_criterion_11_faithfulness(capsys):
    worst_diag = 0.0
    for d in (2, 3, 4, 6):
        probs = substream(SEED, 11, d).dirichlet(np.ones(d))
        rho = embed_diagonal(probs)
        for kind in MEASURE_KINDS:
            alphas = ALPHA_FULL if kind in ("alpha", "tsallis") else (None,)
            for alpha in alphas:
                worst_diag = max(worst_diag, abs(measure_value(kind, rho, alpha)))

    missed = 0
    checked = 0
    for index in range(1000):
        d = 2 + index % 3
        gen = substream(SEED, 12, index)
        rho = random_density(d, int(gen.integers(1, d + 1)), gen)
        if l1_coherence(rho) < 1e-3:
            continue
        checked += 1
        for alpha in ALPHA_FULL:
            if coherence_alpha(rho, alpha).value < 1e-6:
                missed += 1
    ok = worst_diag <= 1e-12 and missed == 0 and checked >= 900
    gate(
        capsys, 11, ok,
        f"diagonal states at most {worst_diag:.2e} across all measures; "
        f"{checked} coherent states all detected, {missed} misses",
    )
    assert worst_diag <= 1e-12
    assert missed == 0
    assert checked >= 900


def test_criterion_12_byte_identical_verification(capsys, tmp_path):
    args = [
        "verify", "--dim", "2", "--dim", "3", "--alpha", "0.5", "--alpha", "1.5",
        "--trials", "10", "--seed", str(SEED),
    ]
    paths = [tmp_path / name for name in ("run1.csv", "run2.csv", "run_w4.csv")]
    codes = [
        cli_main(args + ["--out", str(paths[0]), "--workers", "1"]),
        cli_main(args + ["--out", str(paths[1]), "--workers", "1"]),
        cli_main(args + ["--out", str(paths[2]), "--workers", "4"]),
    ]
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2]
    ok = identical and codes == [0, 0, 0]
    gate(
        capsys, 12, ok,
        f"3 runs (workers 1,1,4) x {len(blobs[0])} bytes, identical: {identical}",
    )
    assert codes == [0, 0, 0]
    assert identical
