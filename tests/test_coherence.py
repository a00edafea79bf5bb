"""Coherence quantifiers: closed forms, identities, and the grid oracle.

Spot values are hand evaluations of (d^((alpha-1)/alpha) - 1)/(alpha - 1)
and its relatives; the grid oracle never sees the closed form, so agreement
between the two is evidence, not bookkeeping.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from alphacoh.coherence import (
    AlphaBelowFloorError,
    _simplex_grid,
    DegenerateDiagonalError,
    DimTooLargeError,
    MEASURE_KINDS,
    alpha_diagonal,
    brute_force_min,
    c2_direct,
    coherence_alpha,
    l1_coherence,
    max_coherence,
    measure_value,
    optimal_incoherent_state,
    relative_entropy_coherence,
    skew_info_sum,
    tsallis_coherence,
)
from alphacoh.divergence import trace_functional, tsallis_divergence
from alphacoh.linalg import DimMismatchError, NotHermitianError
from alphacoh.states import (
    embed_diagonal,
    maximally_coherent,
    random_density,
    random_pure,
    substream,
)

ALPHA_GRID = (0.3, 0.5, 0.7, 1.3, 1.5, 2.0)


class TestClosedFormSpots:
    def test_qubit_alpha_two(self):
        rho = maximally_coherent(2)
        assert coherence_alpha(rho, 2.0).value == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_qubit_alpha_half(self):
        rho = maximally_coherent(2)
        assert coherence_alpha(rho, 0.5).value == pytest.approx(1.0, abs=1e-12)

    def test_dim_four_alpha_half(self):
        rho = maximally_coherent(4)
        assert coherence_alpha(rho, 0.5).value == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_maximally_coherent_attains_bound(self, d, alpha):
        rho = maximally_coherent(d)
        assert coherence_alpha(rho, alpha).value == pytest.approx(
            max_coherence(d, alpha), rel=1e-12
        )

    def test_phases_do_not_change_the_value(self):
        rho = maximally_coherent(3, phases=[0.0, 1.1, 2.3])
        assert coherence_alpha(rho, 1.5).value == pytest.approx(
            max_coherence(3, 1.5), rel=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_tsallis_on_maximally_coherent(self, d, alpha):
        # for the flat state S = d^((alpha-1)/alpha + ... ) collapses to
        # Ct = (d^(alpha-1) - 1)/(alpha - 1); at d=2, alpha=2 that is 1
        rho = maximally_coherent(d)
        expected = (d ** (alpha - 1.0) - 1.0) / (alpha - 1.0)
        assert tsallis_coherence(rho, alpha).value == pytest.approx(expected, rel=1e-12)

    def test_tsallis_qubit_alpha_two_is_one(self):
        assert tsallis_coherence(maximally_coherent(2), 2.0).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_relative_entropy_on_maximally_coherent(self):
        for d in (2, 3, 4):
            assert relative_entropy_coherence(maximally_coherent(d)).value == pytest.approx(
                math.log(d), abs=1e-12
            )

    def test_skew_info_on_maximally_coherent(self):
        # pure state: sqrt(rho) = rho, so the sum is 1 - d (1/d)^2 = 1 - 1/d
        assert skew_info_sum(maximally_coherent(2)) == pytest.approx(0.5, abs=1e-12)
        for d in (3, 4):
            assert skew_info_sum(maximally_coherent(d)) == pytest.approx(
                1.0 - 1.0 / d, abs=1e-12
            )

    def test_l1_on_maximally_coherent(self):
        for d in (2, 3, 5):
            assert l1_coherence(maximally_coherent(d)) == pytest.approx(d - 1.0, abs=1e-12)


class TestAlphaDiagonal:
    def test_diagonal_state_powers_entries(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert_allclose(alpha_diagonal(rho, 2.0), [0.5625, 0.0625], atol=1e-14)
        assert_allclose(
            alpha_diagonal(rho, 0.5), [math.sqrt(0.75), math.sqrt(0.25)], atol=1e-14
        )

    def test_sums_to_trace_of_power(self, rng):
        rho = random_density(4, 4, rng(70))
        for alpha in ALPHA_GRID:
            lam = np.linalg.eigvalsh(rho)
            assert alpha_diagonal(rho, alpha).sum() == pytest.approx(
                float(np.sum(np.clip(lam, 0.0, None) ** alpha)), rel=1e-12
            )


class TestIdentities:
    def test_half_order_equals_twice_skew_information(self, rng):
        gen = rng(71)
        for _ in range(20):
            rho = random_density(4, 4, gen)
            assert coherence_alpha(rho, 0.5).value == pytest.approx(
                2.0 * skew_info_sum(rho), abs=1e-10
            )

    def test_order_two_matches_direct_route(self, rng):
        gen = rng(72)
        for _ in range(20):
            rho = random_density(3, 3, gen)
            assert coherence_alpha(rho, 2.0).value == pytest.approx(
                c2_direct(rho), abs=1e-12
            )

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_divergence_to_optimal_state_recovers_both_values(self, alpha, rng):
        # the two quantifiers are the same functional at the same minimizer,
        # wrapped differently, so both must be reproducible through the
        # divergence module without touching the power-mean shortcut
        rho = random_density(3, 3, rng(73, int(alpha * 10)))
        delta = embed_diagonal(optimal_incoherent_state(rho, alpha))
        assert tsallis_divergence(rho, delta, alpha) == pytest.approx(
            tsallis_coherence(rho, alpha).value, abs=1e-10
        )
        f_val = trace_functional(rho, delta, alpha)
        family = (f_val ** (1.0 / alpha) - 1.0) / (alpha - 1.0)
        assert family == pytest.approx(coherence_alpha(rho, alpha).value, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_optimal_state_beats_other_incoherent_states(self, alpha, rng):
        gen = rng(74, int(alpha * 10))
        rho = random_density(3, 3, gen)
        best = tsallis_coherence(rho, alpha).value
        for _ in range(25):
            other = embed_diagonal(gen.dirichlet(np.ones(3)))
            assert tsallis_divergence(rho, other, alpha) >= best - 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_family_orders_around_quantifier(self, alpha, rng):
        # S^alpha >= S when S, alpha sit on the same side of 1, so the
        # quantifier dominates the family above alpha = 1 and trails below it
        gen = rng(75, int(alpha * 10))
        for _ in range(20):
            rho = random_density(3, 3, gen)
            gap = tsallis_coherence(rho, alpha).value - coherence_alpha(rho, alpha).value
            sign = 1.0 if alpha > 1.0 else -1.0
            assert sign * gap >= -1e-12


class TestOracleAgreement:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_qubit_grid_matches_closed_form(self, alpha, rng):
        rho = random_density(2, 2, rng(76, int(alpha * 10)))
        closed = coherence_alpha(rho, alpha).value
        oracle, argmin = brute_force_min(rho, alpha, 1e-4)
        assert closed <= oracle + 1e-9
        assert abs(closed - oracle) <= 2e-3
        assert_allclose(argmin, optimal_incoherent_state(rho, alpha), atol=5e-4)

    def test_qutrit_grid_matches_closed_form(self, rng):
        rho = random_density(3, 3, rng(77))
        closed = coherence_alpha(rho, 1.5).value
        oracle, _ = brute_force_min(rho, 1.5, 2e-3)
        assert closed <= oracle + 1e-9
        assert abs(closed - oracle) <= 2e-2

    def test_grid_gates(self, rng):
        rho = random_density(4, 4, rng(78))
        with pytest.raises(DimTooLargeError):
            brute_force_min(rho, 1.5, 1e-2)
        qubit = random_density(2, 2, rng(78, 1))
        with pytest.raises(ValueError, match="resolution"):
            brute_force_min(qubit, 1.5, 1e-6)
        with pytest.raises(ValueError, match="oracle undefined"):
            brute_force_min(qubit, 1.0 + 1e-9, 1e-4)

    def test_alpha_floor_gate(self):
        # under the floor the grid's 1/alpha power gave an artifact (0.17263975... at 1e-12)
        rho = random_density(3, 3, substream(1, 2))
        with pytest.raises(AlphaBelowFloorError, match="below"):
            brute_force_min(rho, 1e-12, 2e-3)
        assert brute_force_min(rho, 1e-9, 2e-3)[0] == pytest.approx(0.17234870, abs=1e-8)

    def test_qutrit_grid_size_gate(self, rng):
        # 1e-4 is a legal resolution, but its d = 3 grid holds about 5e7 points
        with pytest.raises(ValueError, match="too fine for d = 3"):
            brute_force_min(random_density(3, 3, rng(78, 2)), 1.5, 1e-4)


def reference_grid(d: int, steps: int) -> np.ndarray:
    """The simplex grid as a float (points, d) array, built the way the oracle once stored it."""
    if d == 2:
        t = np.linspace(0.0, 1.0, steps + 1)
        return np.column_stack([t, 1.0 - t])
    i, j = np.nonzero(np.add.outer(np.arange(steps + 1), np.arange(steps + 1)) <= steps)
    grid = np.empty((i.size, 3))
    grid[:, 0] = i / steps
    grid[:, 1] = j / steps
    grid[:, 2] = 1.0 - grid[:, 0] - grid[:, 1]
    np.clip(grid[:, 2], 0.0, None, out=grid[:, 2])
    return grid


def reference_brute_force_min(rho, alpha: float, resolution: float) -> tuple[float, np.ndarray]:
    """The oracle's body before the level table: one power per grid entry.

    Kept as the independent reference the level-table oracle must match bit
    for bit; its gates are left to brute_force_min.
    """
    grid = reference_grid(rho.shape[0], int(round(1.0 / resolution)))
    diag_a = alpha_diagonal(rho, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        objective = (np.power(grid, 1.0 - alpha) @ diag_a) ** (1.0 / alpha)
        values = (objective - 1.0) / (alpha - 1.0)
    values = np.where(np.isnan(values), np.inf, values)
    best = int(np.argmin(values))
    return float(values[best]), grid[best].copy()


REFERENCE_ALPHAS = (1e-9, 0.02, 0.3, 0.7, 0.999, 1.3, 1.5, 2.0)
REFERENCE_GRIDS = [(2, 1e-4), (2, 1e-2), (3, 2e-3), (3, 1e-2)]


class TestOracleLevelTable:
    """The level-table oracle returns the direct per-entry powers' value and argmin, bit for bit."""

    @pytest.mark.parametrize("d, resolution", REFERENCE_GRIDS)
    def test_table_rebuilds_every_grid_point(self, d, resolution):
        steps = int(round(1.0 / resolution))
        table, grid = _simplex_grid(d, steps), reference_grid(d, steps)
        assert len(table) == len(grid)
        assert table.index.dtype == np.intp
        assert table.levels[table.index].tobytes() == grid.tobytes()

    @pytest.mark.parametrize("d, resolution", REFERENCE_GRIDS)
    def test_matches_direct_powers(self, d, resolution):
        gen = substream(17, d, int(round(1.0 / resolution)))
        states = [random_density(d, rank, gen) for rank in range(1, d + 1)]
        # a zero population makes 0 * inf = NaN candidates at alpha > 1, which become inf
        states.append(embed_diagonal([1.0, 0.0] if d == 2 else [0.3, 0.7, 0.0]))
        for rho in states:
            for alpha in REFERENCE_ALPHAS:
                value, argmin = brute_force_min(rho, alpha, resolution)
                expected, expected_argmin = reference_brute_force_min(rho, alpha, resolution)
                assert repr(value) == repr(expected), (d, resolution, alpha)
                assert argmin.tobytes() == expected_argmin.tobytes(), (d, resolution, alpha)


class TestNearOneRouting:
    def test_window_routes_to_relative_entropy(self, rng):
        rho = random_density(3, 3, rng(79))
        expected = relative_entropy_coherence(rho).value
        for alpha in (1.0, 1.0 + 1e-8, 1.0 - 1e-8):
            assert coherence_alpha(rho, alpha).value == expected
            assert tsallis_coherence(rho, alpha).value == expected

    def test_continuity_just_outside_window(self, rng):
        gen = rng(80)
        for _ in range(5):
            rho = random_density(3, 3, gen)
            limit = relative_entropy_coherence(rho).value
            for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
                assert coherence_alpha(rho, alpha).value == pytest.approx(limit, abs=1e-3)

    def test_near_one_optimal_state_is_dephased(self, rng):
        rho = random_density(3, 3, rng(81))
        probs = optimal_incoherent_state(rho, 1.0)
        assert_allclose(probs, np.diag(rho).real, atol=1e-12)
        assert np.array_equal(probs, coherence_alpha(rho, 1.0).optimal_delta)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([[0.5, 0.3], [0.1, 0.5]], NotHermitianError),
            (np.ones((2, 3)), DimMismatchError),
            ([[np.nan, 0.0], [0.0, 1.0]], ValueError),
        ],
        ids=["non-hermitian", "non-square", "nan"],
    )
    def test_optimal_state_gates_its_input_at_every_alpha(self, bad, error):
        for alpha in (0.5, 1.0):
            with pytest.raises(error):
                optimal_incoherent_state(bad, alpha)


class TestNullOnIncoherentStates:
    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_diagonal_state_measures_zero(self, kind, rng):
        probs = substream(300).dirichlet(np.ones(4))
        rho = embed_diagonal(probs)
        value = measure_value(kind, rho, alpha=1.5)
        assert abs(value) <= 1e-12

    def test_all_alphas_vanish_on_diagonal(self, rng):
        rho = embed_diagonal([0.5, 0.3, 0.2])
        for alpha in ALPHA_GRID:
            assert abs(coherence_alpha(rho, alpha).value) <= 1e-12
            assert abs(tsallis_coherence(rho, alpha).value) <= 1e-12


class TestInvariances:
    def test_diagonal_phase_unitary_preserves_value(self, rng):
        gen = rng(82)
        rho = random_density(3, 3, gen)
        u = np.diag(np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, size=3)))
        rotated = u @ rho @ u.conj().T
        for alpha in (0.5, 1.5):
            assert coherence_alpha(rotated, alpha).value == pytest.approx(
                coherence_alpha(rho, alpha).value, rel=1e-12
            )

    def test_basis_permutation_preserves_value(self, rng):
        gen = rng(83)
        rho = random_density(4, 4, gen)
        perm = np.eye(4)[gen.permutation(4)].astype(complex)
        rotated = perm @ rho @ perm.T
        assert coherence_alpha(rotated, 1.5).value == pytest.approx(
            coherence_alpha(rho, 1.5).value, rel=1e-12
        )


class TestDispatchAndGates:
    def test_measure_value_matches_functions(self, rng):
        rho = random_density(3, 3, rng(84))
        assert measure_value("alpha", rho, 1.5) == coherence_alpha(rho, 1.5).value
        assert measure_value("tsallis", rho, 0.5) == tsallis_coherence(rho, 0.5).value
        assert measure_value("relent", rho) == relative_entropy_coherence(rho).value
        assert measure_value("l1", rho) == l1_coherence(rho)
        assert measure_value("skew", rho) == skew_info_sum(rho)
        assert measure_value("c2", rho) == c2_direct(rho)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError, match="unknown measure kind"):
            measure_value("l2", np.eye(2) / 2)

    def test_family_requires_alpha(self):
        with pytest.raises(ValueError, match="needs an alpha"):
            measure_value("alpha", np.eye(2) / 2)

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    @pytest.mark.parametrize("alpha, error", [(7.0, "must lie in"), (0.0, "must lie in"), (1e-12, "below")])
    def test_a_given_alpha_is_gated_for_every_kind(self, kind, alpha, error, rng):
        with pytest.raises(ValueError, match=error):
            measure_value(kind, random_density(2, 2, rng(85)), alpha)

    @pytest.mark.parametrize("kind", ["relent", "l1", "skew", "c2"])
    def test_plain_kinds_ignore_a_valid_alpha(self, kind, rng):
        rho = random_density(3, 2, rng(86))
        assert measure_value(kind, rho, 0.5) == measure_value(kind, rho)

    # one input gate for every kind, with the errors and messages the
    # eigendecomposing kinds always gave
    BAD_INPUTS = [
        pytest.param([[np.nan, 0.0], [0.0, 1.0]], ValueError, "entries must be finite", id="nan"),
        pytest.param([[0.5, 0.4], [0.1, 0.5]], NotHermitianError, "not Hermitian", id="non-hermitian"),
        pytest.param(np.full((3, 2, 2), 0.25), DimMismatchError, "expected a square matrix", id="stack"),
    ]

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    @pytest.mark.parametrize("bad, error, match", BAD_INPUTS)
    def test_every_kind_gates_its_input(self, kind, bad, error, match):
        with pytest.raises(error, match=match):
            measure_value(kind, bad, 0.5)

    @pytest.mark.parametrize("helper", [l1_coherence, c2_direct, skew_info_sum])
    @pytest.mark.parametrize("bad, error, match", BAD_INPUTS)
    def test_public_helpers_gate_their_input(self, helper, bad, error, match):
        with pytest.raises(error, match=match):
            helper(bad)

    def test_optimal_delta_on_result(self, rng):
        rho = random_density(3, 3, rng(85))
        res = coherence_alpha(rho, 1.5)
        assert_allclose(res.optimal_delta, optimal_incoherent_state(rho, 1.5), atol=0)
        assert res.optimal_delta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_diagonal_rejected(self):
        with pytest.raises(DegenerateDiagonalError):
            coherence_alpha(np.zeros((2, 2), dtype=complex), 0.5)

    def test_max_coherence_gates(self):
        with pytest.raises(ValueError, match="dimension"):
            max_coherence(0, 1.5)
        with pytest.raises(TypeError):  # int() read 2.5 as dimension 2
            max_coherence(2.5, 0.5)
        assert max_coherence(3, 1.0) == pytest.approx(math.log(3.0), abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), alpha_idx=st.integers(0, len(ALPHA_GRID) - 1))
def test_family_nonnegative_and_bounded(seed, alpha_idx):
    gen = substream(7005, seed)
    alpha = ALPHA_GRID[alpha_idx]
    d = int(gen.integers(2, 5))
    rho = random_density(d, d, gen)
    value = coherence_alpha(rho, alpha).value
    assert value >= -1e-12
    assert value <= max_coherence(d, alpha) + 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_pure_states_detected_as_coherent(seed):
    gen = substream(7006, seed)
    rho = random_pure(3, gen)
    if l1_coherence(rho) >= 1e-3:
        assert coherence_alpha(rho, 1.5).value >= 1e-6
