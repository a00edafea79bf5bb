"""Inequality checks, the suite runner, and the violation search.

The frozen qutrit witness under tests/data pins a found violation end to end;
search tests keep budgets small enough for the default batch schedule to hit
the structured channels quickly.
"""

import dataclasses
import hashlib
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from alphacoh.channels import (
    KrausChannel,
    NotIncoherentChannelError,
    SelectiveOutcome,
    apply_channel,
    branches,
    dephasing_channel,
    is_incoherent,
    load_channel,
    random_channel,
    random_incoherent_channel,
    select,
)
from alphacoh.coherence import (
    MEASURE_KINDS,
    AlphaBelowFloorError,
    CoherenceResult,
    DegenerateDiagonalError,
    SkewFormsDisagreeError,
    brute_force_min,
    coherence_alpha,
    max_coherence,
    measure_value,
    measure_values,
    optimal_incoherent_state,
)
from alphacoh.divergence import f_alpha, near_one, sgn1, validate_alpha
from alphacoh.harness import (
    ALL_CHECKS,
    DEFAULT_TOLERANCE,
    OBSERVATIONS,
    SCORE_CHUNK,
    SEARCH_ALPHAS,
    SEARCH_BATCH,
    VIOLATION_GAP,
    BadWeightsError,
    CheckStats,
    TrialConfig,
    TrialRecord,
    ViolationReport,
    _batch_gaps,
    _batch_incoherent_channels,
    _batch_states,
    _branch_average,
    _cell_of,
    _holder_sides,
    _input_gate,
    _lemma1_sides,
    _observation_sides,
    _record,
    _refine_witness,
    _search_batch,
    _SearchParams,
    _strong_mono_stats,
    check_convexity,
    check_holder_step,
    check_lemma1,
    check_monotonicity,
    check_observations,
    check_strong_monotonicity,
    rebuild_witness,
    reverify_violation,
    run_suite,
    search_violation,
)
from alphacoh.linalg import DimMismatchError, NegativeEigenvalueError, NotHermitianError
from alphacoh.states import (
    embed_diagonal,
    haar_unitary,
    load_state,
    maximally_coherent,
    random_density,
    state_from_factor,
    substream,
    validate_density,
)
from conftest import wiped_at_column_1

DATA = pathlib.Path(__file__).parent / "data"
HADAMARD_CH = KrausChannel(
    (np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),)
)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(d, dtype=complex),))


def image_refused_by_the_gate():
    """A qutrit state inside the Hermitian gate and an incoherent channel whose image of it is outside.

    rho carries the anti-Hermitian part 0.49e-10 i J (J all ones), under the
    1e-10 gate. Each K_n = |0><conj(u_n)|, u_n the rows of a Haar unitary, sends
    it to <conj(u_n)| rho |conj(u_n)> |0><0|, and their imaginary parts add up
    to 3 * 0.49e-10 at entry (0, 0).
    """
    rng = substream(3)
    u = haar_unitary(3, rng)
    rho = random_density(3, 3, rng) + 1j * 0.49e-10 * np.ones((3, 3))
    return rho, KrausChannel(tuple(np.outer(np.eye(3)[0], row) for row in u))


class TestTrialConfigValidation:
    def test_defaults_are_valid(self):
        cfg = TrialConfig()
        assert cfg.checks == ALL_CHECKS

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"dims": ()}, "dims"),
            ({"dims": (1,)}, "dims"),
            ({"alphas": ()}, "alphas"),
            ({"alphas": (2.5,)}, "alpha must lie"),
            ({"trials_per_cell": 0}, "trials_per_cell"),
            ({"n_kraus_range": (0, 3)}, "n_kraus_range"),
            ({"n_kraus_range": (3, 2)}, "n_kraus_range"),
            ({"tolerance": 0.0}, "tolerance"),
            ({"rank_policy": "low"}, "rank_policy"),
            ({"checks": ("strong_monotonicity", "nope")}, "unknown check"),
            ({"checks": ()}, "checks"),
            ({"kind": "l2"}, "unknown kind"),
            ({"tolerance": math.nan}, "tolerance"),
            ({"tolerance": math.inf}, "tolerance"),
        ],
    )
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrialConfig(**kwargs)

    @pytest.mark.parametrize("checks", [("strong_monotonicity",), ("holder",)])
    def test_rejects_alpha_below_floor(self, checks):
        # the floor search_violation applies; each trial would otherwise fail alone
        with pytest.raises(AlphaBelowFloorError, match="below"):
            TrialConfig(alphas=(0.5, 1e-12), checks=checks)

    def test_near_one_alpha_blocked_for_divergence_checks(self):
        with pytest.raises(ValueError, match="within 1e-6 of 1"):
            TrialConfig(alphas=(1.0,), checks=("lemma1",))

    def test_near_one_alpha_fine_for_measure_checks(self):
        cfg = TrialConfig(alphas=(1.0,), checks=("strong_monotonicity", "convexity"))
        assert cfg.alphas == (1.0,)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"dims": (3, 2, 3)}, r"^dims must not repeat, got \(3, 2, 3\)$"),
            ({"alphas": (0.5, 0.5)}, r"^alphas must not repeat, got \(0\.5, 0\.5\)$"),
            ({"alphas": (0.5, np.float64(0.5))}, r"^alphas must not repeat"),
            ({"checks": ("convexity", "lemma1", "convexity")}, r"^checks must not repeat"),
        ],
    )
    def test_rejects_a_repeated_grid_entry(self, kwargs, match):
        # two cells of one (check, dim, alpha) key draw differently, and rebuild_witness
        # would replay the first of them for the records of both
        with pytest.raises(ValueError, match=match):
            TrialConfig(**{"dims": (3,), "alphas": (0.5,), "trials_per_cell": 3, **kwargs})

    def test_search_rejects_a_repeated_alpha(self):
        with pytest.raises(ValueError, match="^alphas must not repeat"):
            search_violation(3, 10, alphas=(2.0, 0.5, 2.0))


class TestStrongMonotonicity:
    def test_identity_channel_margin_zero(self, rng):
        rho = random_density(3, 3, rng(90))
        rec = check_strong_monotonicity("alpha", rho, identity_channel(3), 1.5)
        assert rec.margin == 0.0
        assert rec.passed

    def test_dephasing_channel_strips_everything(self, rng):
        rho = maximally_coherent(3)
        rec = check_strong_monotonicity("alpha", rho, dephasing_channel(3), 1.5)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)
        assert rec.lhs == pytest.approx(coherence_alpha(rho, 1.5).value, abs=1e-12)
        assert rec.passed

    def test_rejects_coherent_channel(self, rng):
        rho = random_density(2, 2, rng(91))
        with pytest.raises(NotIncoherentChannelError):
            check_strong_monotonicity("alpha", rho, HADAMARD_CH, 1.5)

    def test_record_fields_are_builtin_floats(self, rng):
        rho = random_density(3, 2, rng(92))
        rec = check_strong_monotonicity("tsallis", rho, dephasing_channel(3), 0.5)
        assert type(rec.lhs) is float
        assert type(rec.rhs) is float
        assert type(rec.margin) is float

    def test_passed_tracks_tolerance(self, rng):
        rho = random_density(3, 3, rng(93))
        rec = check_strong_monotonicity("alpha", rho, identity_channel(3), 0.5, tolerance=1e-9)
        assert rec.passed == (rec.margin >= -1e-9)


class TestMonotonicity:
    def test_identity_channel_margin_zero(self, rng):
        rho = random_density(2, 2, rng(94))
        rec = check_monotonicity("alpha", rho, identity_channel(2), 0.5)
        assert rec.margin == 0.0

    def test_dephasing_channel(self):
        rec = check_monotonicity("tsallis", maximally_coherent(2), dephasing_channel(2), 2.0)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)
        assert rec.check_name == "monotonicity"

    def test_rejects_coherent_channel(self, rng):
        with pytest.raises(NotIncoherentChannelError):
            check_monotonicity("alpha", random_density(2, 2, rng(95)), HADAMARD_CH, 1.5)


class TestConvexity:
    def test_singleton_mixture_margin_zero(self, rng):
        rho = random_density(3, 3, rng(96))
        rec = check_convexity("alpha", [1.0], [rho], 1.5)
        assert rec.margin == 0.0

    def test_duplicate_states_margin_zero(self, rng):
        rho = random_density(3, 3, rng(97))
        rec = check_convexity("tsallis", [0.5, 0.5], [rho, rho], 0.5)
        assert abs(rec.margin) < 1e-12

    def test_random_mixture_passes(self, rng):
        gen = rng(98)
        states = [random_density(3, 3, gen) for _ in range(3)]
        rec = check_convexity("alpha", gen.dirichlet(np.ones(3)), states, 1.5)
        assert rec.passed

    @pytest.mark.parametrize(
        "weights, n_states",
        [([0.5, 0.4], 2), ([0.7, 0.5], 2), ([-0.1, 1.1], 2), ([1.0], 2), ([], 0)],
    )
    def test_bad_weights(self, weights, n_states, rng):
        gen = rng(99)
        states = [random_density(2, 2, gen) for _ in range(n_states)]
        with pytest.raises(BadWeightsError):
            check_convexity("alpha", weights, states, 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight(self, bad, rng):
        gen = rng(99)
        states = [random_density(2, 2, gen) for _ in range(2)]
        with pytest.raises(BadWeightsError, match="finite"):
            check_convexity("alpha", [bad, 0.5], states, 1.5)


class TestLemma1:
    def test_identity_channel_margin_zero(self, rng):
        gen = rng(100)
        rho, sigma = random_density(3, 3, gen), random_density(3, 3, gen)
        rec = check_lemma1(rho, sigma, identity_channel(3), 1.5)
        assert abs(rec.margin) < 1e-12
        assert rec.kind == "f_alpha"

    def test_equal_states_pass(self, rng):
        gen = rng(101)
        rho = random_density(3, 3, gen)
        from alphacoh.channels import random_channel

        rec = check_lemma1(rho, rho, random_channel(3, 3, gen), 0.5)
        assert rec.passed and not rec.degenerate

    def test_divergent_pair_is_degenerate(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        rec = check_lemma1(rho, sigma, identity_channel(2), 1.5)
        assert rec.degenerate
        assert rec.passed
        assert rec.margin == math.inf


class TestHolderStep:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 2.0])
    def test_single_kraus_equality(self, alpha, rng):
        # one branch collapses the power-mean bound to an identity
        rho = random_density(3, 3, rng(102, int(alpha * 10)))
        rec = check_holder_step(rho, identity_channel(3), alpha)
        assert abs(rec.margin) <= 1e-10

    def test_multi_branch_passes(self, rng):
        gen = rng(103)
        from alphacoh.channels import random_incoherent_channel

        rho = random_density(3, 3, gen)
        rec = check_holder_step(rho, random_incoherent_channel(3, 3, gen), 1.5)
        assert rec.passed

    def test_divergent_branch_is_degenerate(self):
        # K0 sends |-> to |0> and c|2> to |1>. rho carries weights t and s there, so
        # branch 0 keeps p0 = t + c^2 s >= P_MIN with weight on |1>, while the
        # optimal delta puts only ~c^2 s / q0 < 1e-12 there: sigma_0 is null on
        # |1>, and at alpha = 2 its branch functional diverges
        e0, e1, e2 = np.eye(3)
        plus, minus = (e0 + e1) / math.sqrt(2.0), (e0 - e1) / math.sqrt(2.0)
        c, t, s = 0.1, 2e-12, 1e-11
        k0 = np.outer(e0, minus) + c * np.outer(e1, e2)
        ch = KrausChannel((k0, np.outer(e0, plus), math.sqrt(1.0 - c * c) * np.outer(e2, e2)))
        rho = (1.0 - t - s) * np.outer(plus, plus) + t * np.outer(minus, minus) + s * np.outer(e2, e2)
        rec = check_holder_step(rho, ch, 2.0)
        assert rec.degenerate and rec.passed
        assert math.isinf(rec.lhs) and math.isinf(rec.rhs)

    def test_rejects_near_one(self, rng):
        with pytest.raises(ValueError, match="within 1e-6"):
            check_holder_step(random_density(2, 2, rng(104)), identity_channel(2), 1.0)

    def test_rejects_coherent_channel(self, rng):
        with pytest.raises(NotIncoherentChannelError):
            check_holder_step(random_density(2, 2, rng(105)), HADAMARD_CH, 1.5)


class TestObservations:
    def make_args(self, gen, d=3):
        from alphacoh.channels import random_channel

        return dict(
            rho=random_density(d, d, gen),
            sigma=random_density(d, d, gen),
            ch=random_channel(d, 2, gen),
            unitary=haar_unitary(d, gen),
            delta_diag=gen.dirichlet(np.ones(2)),
        )

    def test_returns_five_named_records(self, rng):
        args = self.make_args(rng(106))
        records = check_observations(**args, alpha=1.5)
        names = [r.check_name for r in records]
        assert names == [
            "obs1_one_sided",
            "obs2_isometry",
            "obs3_contraction",
            "obs4_joint_convexity",
            "obs5_tensor_ancilla",
        ]
        assert all(r.passed for r in records)

    def test_equal_states_and_identity_unitary(self, rng):
        gen = rng(107)
        rho = random_density(3, 3, gen)
        records = check_observations(
            rho, rho, identity_channel(3), np.eye(3), [1.0], alpha=0.5
        )
        by_name = {r.check_name: r for r in records}
        # F(rho, rho) = 1 makes every comparison an equality
        assert abs(by_name["obs1_one_sided"].margin) < 1e-10
        assert by_name["obs2_isometry"].margin == 0.0
        assert abs(by_name["obs3_contraction"].margin) < 1e-12
        assert abs(by_name["obs5_tensor_ancilla"].margin) < 1e-10

    def test_divergent_base_marks_degenerate(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        records = check_observations(
            rho, sigma, identity_channel(2), np.eye(2), [1.0], alpha=1.5
        )
        assert records[0].degenerate and records[0].passed

    def test_bad_ensemble_weights(self, rng):
        args = self.make_args(rng(108))
        bad = [(0.9, args["rho"], args["sigma"])]
        with pytest.raises(BadWeightsError):
            check_observations(**args, alpha=1.5, ensemble=bad)

    def test_nan_ensemble_weight(self, rng):
        args = self.make_args(rng(108))
        bad = [(math.nan, args["rho"], args["sigma"]), (0.5, args["sigma"], args["rho"])]
        with pytest.raises(BadWeightsError, match="finite"):
            check_observations(**args, alpha=1.5, ensemble=bad)


ZERO = np.zeros((2, 2), dtype=complex)
NOT_HERMITIAN = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
NOT_PSD = np.diag([1.5, -0.5]).astype(complex)
COMPLEX_WEIGHTS = np.array([0.5 + 0.3j, 0.5 - 0.3j])
VANISHED = 3e-11 * random_density(3, 3, substream(5))


def _qubit():
    return random_density(2, 2, substream(1))


def _qutrit():
    return random_density(3, 3, substream(2))


class TestErrorContract:
    """The exception class and message prefix each public check raises, one input defect at a time."""

    @pytest.mark.parametrize(
        "call, exc, prefix",
        [
            pytest.param(
                lambda: check_holder_step(ZERO, identity_channel(2), 0.5),
                DegenerateDiagonalError, "diagonal of rho^alpha vanished entirely", id="zero-holder",
            ),
            pytest.param(
                lambda: check_strong_monotonicity("alpha", ZERO, identity_channel(2), 0.5),
                DegenerateDiagonalError, "diagonal of rho^alpha vanished entirely", id="zero-strong_monotonicity",
            ),
            pytest.param(
                lambda: check_monotonicity("alpha", ZERO, identity_channel(2), 0.5),
                DegenerateDiagonalError, "diagonal of rho^alpha vanished entirely", id="zero-monotonicity",
            ),
            pytest.param(
                lambda: check_convexity("alpha", [1.0], [ZERO], 0.5),
                DegenerateDiagonalError, "diagonal of rho^alpha vanished entirely", id="zero-convexity",
            ),
            # under the 1e-14 peak of rho^2 as the scalar API's rule has it, not only at an exact zero
            pytest.param(
                lambda: check_monotonicity("alpha", VANISHED, identity_channel(3), 2.0),
                DegenerateDiagonalError, "diagonal of rho^alpha vanished entirely", id="vanished-monotonicity",
            ),
            pytest.param(
                lambda: check_holder_step(VANISHED, identity_channel(3), 1.5),
                DegenerateDiagonalError, "diagonal of rho^alpha vanished entirely", id="vanished-holder",
            ),
            pytest.param(
                lambda: check_lemma1(_qubit(), _qutrit(), identity_channel(2), 0.5),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-lemma1",
            ),
            pytest.param(
                lambda: check_observations(_qubit(), _qutrit(), identity_channel(2), np.eye(2), [1.0], 0.5),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-observations",
            ),
            pytest.param(
                lambda: check_holder_step(NOT_HERMITIAN, identity_channel(2), 0.5),
                NotHermitianError, "not Hermitian: max |H - H^dag| = 2.000e-01", id="not_hermitian-holder",
            ),
            pytest.param(
                lambda: check_lemma1(NOT_HERMITIAN, _qubit(), identity_channel(2), 0.5),
                NotHermitianError, "not Hermitian: max |H - H^dag| = 2.000e-01", id="not_hermitian-lemma1",
            ),
            pytest.param(
                lambda: check_monotonicity("skew", NOT_PSD, identity_channel(2), None),
                NegativeEigenvalueError, "eigenvalue -5.000e-01 below -1e-12", id="not_psd-skew-monotonicity",
            ),
            pytest.param(
                lambda: check_monotonicity("alpha", *image_refused_by_the_gate(), 0.5),
                NotHermitianError, "not Hermitian: max |H - H^dag|", id="image_not_hermitian-monotonicity",
            ),
            pytest.param(
                lambda: check_strong_monotonicity("alpha", _qubit(), HADAMARD_CH, 0.5),
                NotIncoherentChannelError, "strong monotonicity is defined for incoherent channels",
                id="coherent-strong_monotonicity",
            ),
            pytest.param(
                lambda: check_monotonicity("alpha", _qubit(), HADAMARD_CH, 0.5),
                NotIncoherentChannelError, "monotonicity is defined for incoherent channels",
                id="coherent-monotonicity",
            ),
            pytest.param(
                lambda: check_holder_step(_qubit(), HADAMARD_CH, 0.5),
                NotIncoherentChannelError, "the power-mean step is stated for incoherent channels",
                id="coherent-holder",
            ),
            pytest.param(
                lambda: check_convexity("alpha", [0.5, 0.6], [_qubit(), _qubit()], 0.5),
                BadWeightsError, "weights: normalization violated", id="weights-convexity",
            ),
            # a float cast of the array keeps only the real parts, 0.5 and 0.5, with a ComplexWarning
            pytest.param(
                lambda: check_convexity("alpha", COMPLEX_WEIGHTS, [_qubit(), maximally_coherent(2)], 0.5),
                BadWeightsError, "weights: entries must be real, max |imag| = 3.000e-01", id="complex-weights-convexity",
            ),
            pytest.param(
                lambda: check_observations(
                    _qubit(), _qubit(), identity_channel(2), np.eye(2), COMPLEX_WEIGHTS, 0.5
                ),
                BadWeightsError, "distribution: entries must be real, max |imag| = 3.000e-01",
                id="complex-ancilla-observations",
            ),
            pytest.param(
                lambda: check_convexity("alpha", [0.5, 0.5], [_qubit()], 0.5),
                BadWeightsError, "need one weight per state, got 2 weights, 1 states", id="count-convexity",
            ),
            pytest.param(
                lambda: check_observations(
                    _qubit(), _qubit(), identity_channel(2), np.eye(2), [1.0], 0.5,
                    ensemble=[(0.7, _qubit(), _qubit()), (0.7, _qubit(), _qubit())],
                ),
                BadWeightsError, "ensemble weights: normalization violated", id="ensemble-observations",
            ),
            pytest.param(
                lambda: check_observations(_qubit(), _qubit(), identity_channel(2), np.eye(2), [0.5, 0.6], 0.5),
                BadWeightsError, "distribution: normalization violated", id="ancilla-observations",
            ),
            pytest.param(
                lambda: check_holder_step(_qubit(), identity_channel(2), 1.0),
                ValueError, "holder step undefined within 1e-6 of alpha = 1", id="near_one-holder",
            ),
            pytest.param(
                lambda: check_lemma1(_qubit(), _qubit(), identity_channel(2), 1.0),
                ValueError, "sgn1 undefined inside the alpha = 1 window", id="near_one-lemma1",
            ),
            pytest.param(
                lambda: check_observations(_qubit(), _qubit(), identity_channel(2), np.eye(2), [1.0], 1.0),
                ValueError, "sgn1 undefined inside the alpha = 1 window", id="near_one-observations",
            ),
            pytest.param(
                lambda: check_monotonicity("alpha", _qubit(), identity_channel(2), 2.5),
                ValueError, "alpha must lie in (0, 2], got 2.5", id="alpha_range-monotonicity",
            ),
            pytest.param(
                lambda: check_holder_step(_qubit(), identity_channel(2), 2.5),
                ValueError, "alpha must lie in (0, 2], got 2.5", id="alpha_range-holder",
            ),
            pytest.param(
                lambda: check_monotonicity("l1", _qubit(), identity_channel(2), "x"),
                TypeError, "alpha must be a real number, got 'x'", id="alpha_type-monotonicity",
            ),
            pytest.param(
                lambda: check_strong_monotonicity("tsallis", _qubit(), identity_channel(2), None),
                ValueError, "measure kind 'tsallis' needs an alpha value", id="no_alpha-strong_monotonicity",
            ),
            pytest.param(
                lambda: check_convexity("alpha", [1.0], [_qubit()], 1e-12),
                AlphaBelowFloorError, "alpha 1e-12 is below 1e-10", id="alpha_floor-convexity",
            ),
            pytest.param(
                lambda: check_holder_step(_qubit(), identity_channel(2), 1e-12),
                AlphaBelowFloorError, "alpha 1e-12 is below 1e-10", id="alpha_floor-holder",
            ),
            # the floor TrialConfig puts on every suite cell holds for the public functional checks too
            pytest.param(
                lambda: check_lemma1(_qubit(), _qubit(), identity_channel(2), 1e-12),
                AlphaBelowFloorError, "alpha 1e-12 is below 1e-10", id="alpha_floor-lemma1",
            ),
            pytest.param(
                lambda: check_observations(_qubit(), _qubit(), identity_channel(2), np.eye(2), [1.0], 1e-12),
                AlphaBelowFloorError, "alpha 1e-12 is below 1e-10", id="alpha_floor-observations",
            ),
            # the measure checks gate their inputs before alpha, the functional checks alpha first
            pytest.param(
                lambda: check_strong_monotonicity("alpha", _qubit(), HADAMARD_CH, 2.5),
                NotIncoherentChannelError, "strong monotonicity is defined for incoherent channels",
                id="order-coherent_before_alpha-strong_monotonicity",
            ),
            pytest.param(
                lambda: check_holder_step(_qubit(), HADAMARD_CH, 1.0),
                ValueError, "holder step undefined within 1e-6 of alpha = 1", id="order-alpha_before_coherent-holder",
            ),
            pytest.param(
                lambda: check_lemma1(_qubit(), _qutrit(), identity_channel(2), 2.5),
                ValueError, "alpha must lie in (0, 2], got 2.5", id="order-alpha_before_sizes-lemma1",
            ),
            pytest.param(
                lambda: check_observations(
                    _qubit(), _qubit(), identity_channel(2), np.eye(2), [1.0], 0.5,
                    ensemble=[(0.5, _qubit(), _qutrit()), (0.5, _qubit(), _qubit())],
                ),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-ensemble-observations",
            ),
            # operand sizes that disagree are refused by the input gate, never by numpy
            pytest.param(
                lambda: check_strong_monotonicity("alpha", _qubit(), identity_channel(3), 0.5),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-channel-strong_monotonicity",
            ),
            pytest.param(
                lambda: check_monotonicity("alpha", _qubit(), identity_channel(3), 0.5),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-channel-monotonicity",
            ),
            pytest.param(
                lambda: check_holder_step(_qubit(), identity_channel(3), 0.5),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-channel-holder",
            ),
            pytest.param(
                lambda: check_lemma1(_qubit(), _qubit(), identity_channel(3), 0.5),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-channel-lemma1",
            ),
            pytest.param(
                lambda: check_observations(_qubit(), _qubit(), identity_channel(2), np.eye(3), [1.0], 0.5),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-unitary-observations",
            ),
            pytest.param(
                lambda: check_convexity("alpha", [0.5, 0.5], [_qubit(), _qutrit()], 0.5),
                DimMismatchError, "operands differ in dimension: 2 vs 3", id="sizes-states-convexity",
            ),
            pytest.param(
                lambda: check_strong_monotonicity("alpha", np.ones((2, 3)), identity_channel(2), 0.5),
                DimMismatchError, "matrix: expected a square matrix, got shape (2, 3)",
                id="non_square-strong_monotonicity",
            ),
            pytest.param(
                lambda: check_lemma1(np.ones((2, 3)), _qubit(), identity_channel(2), 0.5),
                DimMismatchError, "matrix: expected a square matrix, got shape (2, 3)", id="non_square-lemma1",
            ),
            # U^dag U = I, the completeness rule on U as a one-operator channel: a scaled U is no isometry
            pytest.param(
                lambda: check_observations(
                    _qutrit(), _qutrit(), identity_channel(3), 2 * haar_unitary(3, substream(3)), [1.0], 0.5
                ),
                ValueError, "unitary: completeness violated: max |sum K^dag K - I| = 3.000e+00",
                id="non_unitary-observations",
            ),
            # the finite rule on the unitary under its own name, before any product with it
            pytest.param(
                lambda: check_observations(
                    np.diag([0.3, 0.7]), np.diag([0.6, 0.4]), dephasing_channel(2), [[np.inf, 0], [0, 1]],
                    [0.5, 0.5], 0.5,
                ),
                ValueError, "unitary: entries must be finite", id="inf_unitary-observations",
            ),
            pytest.param(
                lambda: check_observations(
                    np.diag([0.3, 0.7]), np.diag([0.6, 0.4]), dephasing_channel(2), [[np.nan, 0], [0, 1]],
                    [0.5, 0.5], 0.5,
                ),
                ValueError, "unitary: entries must be finite", id="nan_unitary-observations",
            ),
        ],
    )
    def test_raises(self, call, exc, prefix):
        with pytest.raises(exc) as info:
            call()
        assert type(info.value) is exc
        assert str(info.value).startswith(prefix)

    def test_a_refused_channel_wins_over_a_refused_unitary(self):
        import alphacoh.harness as harness

        rho = _qubit()
        cell = _cell_of("observations", (rho, rho, identity_channel(2), 2 * np.eye(2), [1.0], [(1.0, rho, rho)]))
        assert str(_input_gate("observations", cell)[0]).startswith("unitary: completeness violated")
        cell.kraus[0] *= 2  # no KrausChannel holds this; a formed cell could
        (refusal,) = _input_gate("observations", cell).values()
        assert type(refusal) is ValueError
        assert str(refusal) == str(harness.completeness_refusals(cell.kraus)[0])


class TestCheckStats:
    def test_absorb_counts(self):
        stats = CheckStats()
        rec = TrialRecord("x", 2, 0.5, "alpha", 1.0, 0.5, 0.5, True, 0, 0)
        deg = TrialRecord("x", 2, 0.5, "alpha", math.inf, math.inf, math.inf, True, 0, 1, True)
        fail = TrialRecord("x", 2, 0.5, "alpha", 0.0, 1.0, -1.0, False, 0, 2)
        for r in (rec, deg, fail):
            stats.absorb(r)
        assert (stats.trials, stats.passes, stats.failures, stats.degenerate) == (3, 1, 1, 1)
        assert stats.worst_margin == -1.0

    def test_degenerate_only_leaves_inf_margin(self):
        stats = CheckStats()
        stats.absorb(
            TrialRecord("x", 2, 0.5, "alpha", math.inf, math.inf, math.inf, True, 0, 0, True)
        )
        assert stats.worst_margin == math.inf


SMALL_CFG = TrialConfig(
    dims=(2, 3),
    alphas=(0.5, 1.5),
    trials_per_cell=5,
    master_seed=7,
)


class TestRunSuite:
    def test_family_suite_passes(self):
        summary = run_suite(SMALL_CFG)
        assert summary.all_passed
        assert len(summary.records) > 0
        expected_checks = set(ALL_CHECKS) - {"observations"} | {
            "obs1_one_sided",
            "obs2_isometry",
            "obs3_contraction",
            "obs4_joint_convexity",
            "obs5_tensor_ancilla",
        }
        assert set(summary.stats) == expected_checks

    def test_deterministic_rerun(self):
        a = run_suite(SMALL_CFG)
        b = run_suite(SMALL_CFG)
        assert a.records == b.records

    def test_worker_count_does_not_change_records(self):
        cfg = TrialConfig(
            dims=(2,), alphas=(0.5,), trials_per_cell=4, master_seed=3,
            checks=("strong_monotonicity", "convexity"),
        )
        assert run_suite(cfg, workers=1).records == run_suite(cfg, workers=2).records

    @pytest.mark.parametrize("bound, workers, pool", [(SEARCH_BATCH, 5000, 2), (2, 8, 4)])
    def test_pool_is_capped_at_the_task_count(self, bound, workers, pool, monkeypatch):
        # the pool forks every worker up front, so an oversized request must shrink
        # to one worker per task: a row of cells by default, one cell when the patched
        # bound on a task's draws is a cell's; the stand-in pool runs inline
        import concurrent.futures

        import alphacoh.harness as harness

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        cfg = TrialConfig(
            dims=(2, 3), alphas=(0.5, 1.5), trials_per_cell=2, master_seed=3,
            checks=("strong_monotonicity",),
        )
        serial = run_suite(cfg, workers=1).records
        monkeypatch.setattr(harness, "SEARCH_BATCH", bound)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)  # run_suite imports it per pool
        assert run_suite(cfg, workers=workers).records == serial
        assert len(serial) == 4 * 2 and sizes == [pool]  # four cells in two rows

    @pytest.mark.parametrize(
        "workers, error", [(0, ValueError), (-1, ValueError), (True, TypeError), (2.5, TypeError)]
    )
    def test_a_worker_count_is_a_count(self, workers, error):
        with pytest.raises(error, match="workers"):
            run_suite(SMALL_CFG, workers=workers)

    def test_the_stacks_gate_no_alpha(self, monkeypatch):
        # TrialConfig gates every alpha once; the cells and their stacks run no alpha gate again
        import alphacoh.coherence as coherence
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(2, 3), alphas=(0.5, 1.5), trials_per_cell=3)
        calls = []
        for module in (harness, coherence):
            for name in ("check_alpha_floor", "check_measure_alpha"):
                gate = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, gate=gate, name=name: calls.append(name) or gate(*a))
        summary = run_suite(cfg)
        assert summary.all_passed and len(summary.records) == 2 * 2 * 3 * (5 + len(OBSERVATIONS))
        assert calls == []

    def test_record_counts_match_grid(self):
        cfg = TrialConfig(
            dims=(2, 3), alphas=(0.5,), trials_per_cell=3, checks=("monotonicity",)
        )
        summary = run_suite(cfg)
        assert len(summary.records) == 2 * 1 * 3
        assert summary.stats["monotonicity"].trials == 6

    def test_trial_errors_are_aggregated(self, monkeypatch):
        import alphacoh.harness as harness

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic draw failure")

        monkeypatch.setattr(harness, "density_factor", boom)  # each state's draw
        cfg = TrialConfig(
            dims=(2,), alphas=(0.5,), trials_per_cell=2, checks=("monotonicity",)
        )
        summary = run_suite(cfg)
        assert not summary.all_passed
        assert all(r.error.startswith("RuntimeError") for r in summary.records)

    def test_quantifier_violation_shows_up_and_rebuilds(self):
        # frozen failing cell: the quantifier loses strong monotonicity on a
        # random draw at this dimension and order
        cfg = TrialConfig(
            dims=(4,),
            alphas=(0.1,),
            trials_per_cell=30,
            checks=("strong_monotonicity",),
            kind="tsallis",
            master_seed=1,
        )
        summary = run_suite(cfg)
        assert not summary.all_passed
        failing = [r for r in summary.records if not r.passed]
        assert failing
        worst = min(failing, key=lambda r: r.margin)
        assert worst.margin == pytest.approx(-0.012724250935573445, abs=1e-15)
        rho, ch = rebuild_witness(cfg, worst)
        replay = check_strong_monotonicity(
            cfg.kind, rho, ch, worst.alpha, tolerance=cfg.tolerance
        )
        assert replay.lhs == worst.lhs
        assert replay.rhs == worst.rhs

    def test_rebuild_witness_rejects_other_checks(self):
        cfg = TrialConfig(dims=(2,), alphas=(0.5,), trials_per_cell=1, checks=("convexity",))
        summary = run_suite(cfg)
        with pytest.raises(ValueError, match="no state/channel witness"):
            rebuild_witness(cfg, summary.records[0])

    def test_rebuild_witness_raises_the_error_of_its_draw(self, monkeypatch):
        def failing(*args):
            raise RuntimeError("synthetic draw failure")

        cfg = TrialConfig(dims=(3,), alphas=(1.5,), trials_per_cell=2, checks=("strong_monotonicity",))
        monkeypatch.setattr("alphacoh.harness.unprojected_draw", failing)
        record = run_suite(cfg).records[1]
        assert record.error == "RuntimeError: synthetic draw failure"
        with pytest.raises(RuntimeError, match="^synthetic draw failure$"):
            rebuild_witness(cfg, record)

    def test_rebuild_witness_is_bit_exact(self):
        cfg = TrialConfig(
            dims=(3,), alphas=(1.5,), trials_per_cell=3, checks=("strong_monotonicity",)
        )
        summary = run_suite(cfg)
        rec = summary.records[2]
        rho, ch = rebuild_witness(cfg, rec)
        replay = check_strong_monotonicity(cfg.kind, rho, ch, rec.alpha, tolerance=cfg.tolerance)
        assert replay.margin == rec.margin

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"trial": 500}, r"^trial must lie in \[0, 3\), got 500$"),
            ({"seed": 7}, r"^seed 7 is not the config's master_seed 0$"),
            ({"trial": -1}, r"^trial must lie in \[0, 3\), got -1$"),
            ({"alpha": 0.33}, r"^\(check, dim, alpha\) cell \('strong_monotonicity', 2, 0\.33\) is not in the "),
        ],
        ids=["trial_past_the_cell", "another_seed", "a_public_checks_trial", "a_cell_outside_the_grid"],
    )
    def test_rebuild_witness_refuses_a_record_its_config_never_wrote(self, monkeypatch, change, message):
        # each used to return a state and channel the suite never evaluated, or raise a nameless error
        cfg = TrialConfig(dims=(2,), alphas=(0.5,), trials_per_cell=3, checks=("strong_monotonicity",))
        record = dataclasses.replace(run_suite(cfg).records[0], **change)
        monkeypatch.setattr("alphacoh.harness._drawn", None)  # refused before anything is drawn
        with pytest.raises(ValueError, match=message):
            rebuild_witness(cfg, record)


class TestSearchViolation:
    def test_finds_qutrit_witness(self):
        report = search_violation(3, 60_000, kind="tsallis", seed=0)
        assert report.found
        assert report.trial_index == 17100
        assert report.gap > 1e-6
        assert report.trials_used <= 60_000
        assert report.trials_used == 17101 and report.refined is True
        assert repr(report.gap) == "0.024867039755557985"
        validate_density(report.state)
        assert is_incoherent(report.channel)
        assert reverify_violation(report) == report.gap
        # the strongly monotone family must pass on the same witness
        family = check_strong_monotonicity("alpha", report.state, report.channel, report.alpha)
        assert family.passed

    def test_criterion_8_witness_fingerprint(self):
        # the d = 3 hunt of criterion 8: any change to the draw stream, the
        # sampler's arithmetic or the refinement moves these
        report = search_violation(3, 1_000_000, kind="tsallis", seed=1001)
        assert report.found
        assert report.trial_index == 17531
        assert repr(report.gap) == "0.002124952079355258"

    def test_rejects_alpha_below_floor_up_front(self):
        with pytest.raises(AlphaBelowFloorError, match="below"):
            search_violation(3, 10, alphas=(0.5, 1e-20))

    def test_negative_control_family_never_violates(self):
        report = search_violation(3, 20_000, kind="alpha", seed=0)
        assert not report.found
        assert report.best_gap < 1e-9
        assert repr(report.best_gap) == "2.631228568361621e-14"
        assert report.trials_used == 20_000

    def test_near_one_alphas_exhaust(self):
        report = search_violation(3, 5_000, kind="tsallis", alphas=(1.0, 1.0 + 5e-7), seed=2)
        assert not report.found
        assert report.best_gap < 1e-9

    @pytest.mark.parametrize("d, pairs_drawn", [(2, False), (3, True)])
    def test_merge_pairs_only_above_d2(self, d, pairs_drawn, monkeypatch):
        # at d = 2 a merge pair leaves both its operators rank one, so a qubit
        # search never asks the sampler for one; 8 batches cover whole cycles
        asked = []
        sampler = _batch_incoherent_channels

        def recording(rng, count, dim, n_kraus, with_pair):
            asked.append(with_pair)
            return sampler(rng, count, dim, n_kraus, with_pair)

        monkeypatch.setattr("alphacoh.harness._batch_incoherent_channels", recording)
        report = search_violation(
            d, 8 * 4, kind="alpha", alphas=(0.5,), n_kraus_range=(2, 2), seed=0, batch_size=4
        )
        assert not report.found and len(asked) == 8
        assert any(asked) is pairs_drawn

    def test_qubit_search_exhausts(self):
        report = search_violation(2, 20_000, kind="tsallis", seed=0)
        assert not report.found
        assert report.best_gap < 1e-9
        assert repr(report.best_gap) == "8.715250743307479e-15"

    def test_gap_threshold_is_respected(self, monkeypatch):
        monkeypatch.setattr("alphacoh.harness.VIOLATION_GAP", 1.0)
        report = search_violation(3, 60_000, kind="tsallis", seed=0)
        assert not report.found
        assert report.best_gap > 1e-6  # it did see violations, none that large
        assert repr(report.best_gap) == "0.024867039755557985" and report.trials_used == 60_000

    def test_batches_are_pure_tasks_one_loop_commits(self, monkeypatch):
        # a batch reads nothing from the batches before it: run in reverse order and
        # then forward, each gives the bits it gave inside the search
        calls = []

        def recording(*args):
            calls.append((args, _search_batch(*args)))
            return calls[-1][1]

        monkeypatch.setattr("alphacoh.harness._search_batch", recording)
        report = search_violation(3, 60_000, kind="tsallis", seed=0)
        assert [args[3] for args, _ in calls] == list(range(5))
        assert sum(len(candidates) for _, (_, candidates) in calls) == 3
        for order in (calls[::-1], calls):
            for args, result in order:
                assert _batch_bits(_search_batch(*args)) == _batch_bits(result)
        # the commit rule folds the batches into the search's report
        best_gap = -math.inf
        for (kind, d, seed, index, structure, _), (batch_best, candidates) in calls:
            if batch_best > best_gap:
                best_gap = batch_best
            for offset, refined, rho, ch, before, after, gap in candidates:
                if gap > best_gap:
                    best_gap = gap
                if gap > VIOLATION_GAP:
                    done = index * SEARCH_BATCH
                    folded = ViolationReport(
                        True, kind, d, seed, done + offset + 1, best_gap, structure[0], rho, ch, before, after, gap,
                        done + offset, refined,
                    )
        assert _report_bits(folded) == _report_bits(report)
        assert report.trials_used == 17101

    @pytest.mark.parametrize("d, n_kraus, pair", [(2, 3, False), (3, 4, True), (4, 3, True)])
    def test_the_score_chunk_moves_no_bit(self, d, n_kraus, pair, monkeypatch):
        # a batch is formed and scored SCORE_CHUNK draws at a time; any chunk gives the default's bits, for one
        # Kraus stack per state and for refinement's factor rows, one (n, d, d) stack against every state
        def batch():
            rng = substream(23, d, n_kraus)
            _, rhos = _batch_states(rng, 300, d, d)
            _, ops = _batch_incoherent_channels(rng, 300, d, n_kraus, pair)
            gaps = [_batch_gaps(kind, rhos, ops, 0.3).tobytes() for kind in ("tsallis", "alpha")]
            gaps += [
                (_branch_average(kind, ops[0], rhos, 0.3)[0] - measure_values(kind, rhos, 0.3)[0]).tobytes()
                for kind in ("tsallis", "alpha")
            ]
            return _batch_bits(_search_batch("tsallis", d, 23, 0, (0.3, n_kraus, d, pair), 300)), ops.tobytes(), gaps

        default = batch()
        for chunk in (1, 7, 4096):
            monkeypatch.setattr("alphacoh.harness.SCORE_CHUNK", chunk)
            assert batch() == default

    def test_a_batch_allocates_no_more_than_a_chunk(self):
        # the traced peak of forming and of scoring 4,096 draws stays within 1.25 times one chunk's,
        # past the outputs themselves (d=4, 4 operators, merge pair)
        def traced(fn, *args):
            tracemalloc.start()
            try:
                return fn(*args), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def channels_excess(count):
            (params, ops), peak = traced(_batch_incoherent_channels, substream(5, count), count, 4, 4, True)
            return peak - ops.nbytes - sum(v.nbytes for v in vars(params).values())

        assert channels_excess(SEARCH_BATCH) <= 1.25 * channels_excess(SCORE_CHUNK)
        rng = substream(5)
        _, rhos = _batch_states(rng, SEARCH_BATCH, 4, 4)
        _, ops = _batch_incoherent_channels(rng, SEARCH_BATCH, 4, 4, True)
        gaps, batch_peak = traced(_batch_gaps, "tsallis", rhos, ops, 0.3)
        chunk_peak = traced(_batch_gaps, "tsallis", rhos[:SCORE_CHUNK], ops[:SCORE_CHUNK], 0.3)[1]
        assert batch_peak <= 1.25 * chunk_peak + gaps.nbytes

    def test_reverify_needs_a_witness(self):
        report = ViolationReport(found=False, kind="tsallis", dim=3, seed=0, trials_used=10, best_gap=-1.0)
        with pytest.raises(ValueError, match="no witness"):
            reverify_violation(report)

    def test_argument_gates(self):
        with pytest.raises(ValueError, match="dimension"):
            search_violation(1, 10)
        with pytest.raises(ValueError, match="trial budget"):
            search_violation(2, 0)
        with pytest.raises(ValueError, match="alpha must lie"):
            search_violation(2, 10, alphas=(2.5,))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"alphas": ()}, "alphas must be nonempty"),
            ({"n_kraus_range": (3, 1)}, "n_kraus_range"),
            ({"n_kraus_range": (0, 2)}, "n_kraus_range"),
            ({"batch_size": 0}, "batch_size"),
        ],
    )
    def test_refuses_a_search_that_cannot_run(self, kwargs, match, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a batch before refusing the arguments")

        monkeypatch.setattr("alphacoh.harness._batch_states", no_draws)
        with pytest.raises(ValueError, match=match):
            search_violation(3, 100, **kwargs)


class TestSearchSampler:
    """The batch sampler's bytes, pinned per (d, n_kraus, merge pair) cell.

    The digests in tests/data/search_sampler_sha256.json are sha256 sums of
    the ops stack and of each parameter array stacked over the batch, drawn
    from substream(7, d, n_kraus). They only change when the draw stream or
    the assembly arithmetic does, and then every search result moves too.
    """

    DIGESTS = json.loads((DATA / "search_sampler_sha256.json").read_text())
    CELLS = [
        (d, n_kraus, pair)
        for d in (2, 3, 4)
        for n_kraus in range(1, 5)
        for pair in ((False, True) if n_kraus >= 2 else (False,))
    ]

    @pytest.mark.parametrize("d, n_kraus, pair", CELLS)
    def test_bytes_and_single_construction_path(self, d, n_kraus, pair):
        params, ops = _batch_incoherent_channels(substream(7, d, n_kraus), 64, d, n_kraus, pair)
        draws = [params[b] for b in range(len(params))]
        seen = {"ops": hashlib.sha256(ops.tobytes()).hexdigest()}
        for name, value in vars(draws[0]).items():
            if value is not None:
                stacked = np.stack([getattr(p, name) for p in draws])
                seen[name] = hashlib.sha256(stacked.tobytes()).hexdigest()
        assert seen == self.DIGESTS[f"d={d} n_kraus={n_kraus} pair={pair}"]
        for b, p in enumerate(draws):
            assert np.array_equal(np.stack(KrausChannel(p.ops()).kraus), ops[b])

    @pytest.mark.parametrize("d, n_kraus, pair", CELLS)
    def test_batch_gaps_are_the_scalar_gaps(self, d, n_kraus, pair):
        # one branch kernel: every batched gap has the bits of the scalar replay
        rng = substream(7, d, n_kraus)
        factors, rhos = _batch_states(rng, 64, d, max(1, d - 1))
        _, ops = _batch_incoherent_channels(rng, 64, d, n_kraus, pair)
        for b in range(64):
            assert np.array_equal(state_from_factor(factors[b]), rhos[b])
        for kind in ("tsallis", "alpha"):
            for alpha in (0.3, 1.5):
                gaps = _batch_gaps(kind, rhos, ops, alpha)
                scalar = [_strong_mono_stats(kind, rhos[b], ops[b], alpha)[2] for b in range(64)]
                assert scalar == gaps.tolist()

    def test_branch_at_exactly_p_min_is_kept(self, monkeypatch):
        rho = random_density(3, 2, substream(7, 99))
        ch = random_incoherent_channel(3, 3, substream(7, 100))
        probs = branches(ch.kraus, rho)[0]
        n = int(np.argmin(probs))
        monkeypatch.setattr("alphacoh.channels.P_MIN", probs[n])
        outcomes, dropped = select(ch, rho)
        assert n in [o.index for o in outcomes] and dropped == 0.0
        assert branches(ch.kraus, rho)[2][n]
        monkeypatch.setattr("alphacoh.channels.P_MIN", np.nextafter(probs[n], 1.0))
        assert not branches(ch.kraus, rho)[2][n]

    @pytest.mark.parametrize("d, n_kraus, pair", CELLS)
    def test_ops_of_a_batch_and_of_a_draw(self, d, n_kraus, pair):
        # one assembly for a batch and for each of its draws, bit for bit
        params, ops = _batch_incoherent_channels(substream(7, d, n_kraus), 16, d, n_kraus, pair)
        assert np.array_equal(params.ops(), ops)
        for b in range(len(params)):
            assert np.array_equal(params[b].ops(), ops[b])

    def test_a_batch_is_search_params_with_a_leading_axis(self):
        params, ops = _batch_incoherent_channels(substream(7, 3, 3), 6, 3, 3, True)
        assert type(params) is _SearchParams and len(params) == 6
        draw = params[4]
        assert len(draw) == 3  # one draw's leading axis holds its operators
        for name, value in vars(draw).items():
            assert np.array_equal(value, getattr(params, name)[4])
            assert not np.shares_memory(value, getattr(params, name))
        ch = KrausChannel(draw.ops())
        assert type(ch.kraus) is np.ndarray and ch.kraus.shape == (3, 3, 3)
        assert not ch.kraus.flags.writeable
        assert np.array_equal(ch.kraus, ops[4])

    def test_indexing_copies(self):
        params, ops = _batch_incoherent_channels(substream(7, 3, 4), 8, 3, 4, True)
        params[2].raw[:] = 1.0
        params[2].pair_angles[:] = 0.0
        assert np.array_equal(np.stack(KrausChannel(params[2].ops()).kraus), ops[2])


def _batch_bits(result):
    """A _search_batch result with every float as its repr and every array as its bytes."""
    batch_best, candidates = result
    return repr(batch_best), [
        (offset, refined, rho.tobytes(), ch.kraus.tobytes(), repr(before), repr(after), repr(gap))
        for offset, refined, rho, ch, before, after, gap in candidates
    ]


def _report_bits(report):
    """Every ViolationReport field, the state and Kraus stack as their bytes."""
    fields = dict(vars(report), state=report.state.tobytes(), channel=report.channel.kraus.tobytes())
    return {k: v if isinstance(v, bytes) else repr(v) for k, v in fields.items()}


def sequential_refine(kind, g, params, alpha, *, max_sweeps=40, target=1e-4, skipped=None):
    """The move-at-a-time coordinate ascent that _refine_witness stacks: one
    scalar evaluation per candidate, the first that raises the gap kept."""
    g = g.copy()
    params = params[...]

    def evaluate():
        return _strong_mono_stats(kind, state_from_factor(g), params.ops(), alpha)[2]

    gap = evaluate()
    step = 0.05
    scale = max(float(np.max(np.abs(g))), 1.0)

    def nudge(v, step):
        return [v + step * t for t in (scale, -scale, 1j * scale, -1j * scale)]

    def grow(v, step):
        return [v * (1.0 + step), v * (1.0 / (1.0 + step))]

    def capped(v, step):
        return [min(w, 1.0) for w in grow(v, step)]

    def shift(v, step):
        return [v + step, v - step]

    merged = set() if params.pair_cols is None else {int(c) for c in params.pair_cols}
    knobs = [(g, idx, nudge) for idx in np.ndindex(g.shape)]
    knobs += [
        (params.raw, (n, c), grow)
        for n, c in np.ndindex(params.raw.shape)
        if not (n < 2 and c in merged)
    ]
    if merged:
        knobs += [(params.pair_angles, i, shift) for i in range(3)]
        if params.sing_phases.shape[0]:
            knobs += [(params.pair_s, i, capped) for i in range(2)]
        comp_cols = [c for c in range(params.raw.shape[1]) if c not in merged]
        knobs += [(params.comp_phases, (t, c), shift) for t in range(2) for c in comp_cols]
    stalls = 0
    for _ in range(max_sweeps):
        improved = False
        for values, idx, candidates in knobs:
            old = values[idx]
            for new in candidates(old, step):
                if new == old:
                    if skipped is not None:
                        skipped.append(idx)
                    continue
                values[idx] = new
                trial_gap = evaluate()
                if trial_gap > gap:
                    gap = trial_gap
                    improved = True
                    break
                values[idx] = old
        if gap >= target:
            break
        if improved:
            stalls = 0
        else:
            stalls += 1
            if stalls >= 4:
                break
            step *= 0.5
    return gap, state_from_factor(g), KrausChannel(params.ops())


class TestRefinementTrajectory:
    """Stacked refinement takes the move-at-a-time trajectory, bit for bit.

    Starts are the best draw of real search batches: d = 2 plain, d = 3
    plain and merge pair, one to four operators, both kinds, and every
    search alpha.
    """

    STRUCTURES = [(2, nk, False) for nk in range(1, 5)]
    STRUCTURES += [(3, nk, pair) for nk in range(1, 5) for pair in ((False, True) if nk >= 2 else (False,))]

    @staticmethod
    def start(d, n_kraus, pair, kind, alpha, seed):
        rng = substream(11, seed)
        factors, rhos = _batch_states(rng, 32, d, d if seed % 2 else max(1, d // 2))
        params, ops = _batch_incoherent_channels(rng, 32, d, n_kraus, pair)
        top = int(np.argmax(_batch_gaps(kind, rhos, ops, alpha)))
        return factors[top], params[top]

    @staticmethod
    def assert_same(new, old):
        assert type(new[0]) is float
        assert repr(new[0]) == repr(old[0])
        assert new[1].tobytes() == old[1].tobytes()
        assert new[2].kraus.tobytes() == old[2].kraus.tobytes()

    @pytest.mark.parametrize("index", range(len(STRUCTURES)))
    def test_matches_the_sequential_ascent(self, index):
        d, n_kraus, pair = self.STRUCTURES[index]
        for k, (kind, alpha) in enumerate(
            [("tsallis", SEARCH_ALPHAS[index % 4]), ("alpha", SEARCH_ALPHAS[(index + 1) % 4]),
             ("tsallis", SEARCH_ALPHAS[(index + 2) % 4]), ("alpha", SEARCH_ALPHAS[(index + 3) % 4])]
        ):
            g, params = self.start(d, n_kraus, pair, kind, alpha, 4 * index + k)
            self.assert_same(
                _refine_witness(kind, g, params, alpha), sequential_refine(kind, g, params, alpha)
            )

    def test_capped_share_is_skipped(self):
        # pair_s at its cap: the growing candidate caps to the old value and is
        # not scored, in either ascent
        g, params = self.start(3, 3, True, "tsallis", 0.5, 100)
        params.pair_s[0] = 1.0
        skipped = []
        old = sequential_refine("tsallis", g, params, 0.5, skipped=skipped)
        assert 0 in skipped
        self.assert_same(_refine_witness("tsallis", g, params, 0.5), old)

    def test_two_sweeps(self, monkeypatch):
        g, params = self.start(3, 4, True, "tsallis", 0.3, 101)
        monkeypatch.setattr("alphacoh.harness.REFINE_SWEEPS", 2)
        new = _refine_witness("tsallis", g, params, 0.3)
        self.assert_same(new, sequential_refine("tsallis", g, params, 0.3, max_sweeps=2))

    def test_stacks_hold_one_kind_of_move(self, monkeypatch):
        # factor stacks rebuild only states and channel stacks only Kraus stacks, and
        # the held state is measured once, at the start, never again inside the loop
        import alphacoh.harness as harness

        g, params = self.start(3, 3, True, "alpha", 0.5, 102)
        events, measured, depth = [], [], []
        ops, from_factor = _SearchParams.ops, harness.state_from_factor
        branch_average, values, value = harness._branch_average, harness.measure_values, harness.measure_value

        def recording_ops(self):
            arrays = [v.copy() for v in vars(self).values() if v is not None]  # the point's arrays move on
            events.append(("params", arrays) if self.raw.ndim == 3 else ("start params", arrays))
            return ops(self)

        def recording_from_factor(factors):
            rhos = from_factor(factors)
            events.append(("g" if factors.ndim == 3 else "start g", [factors.copy()], rhos))
            return rhos

        def nested_branch_average(*args):
            depth.append(1)
            try:
                return branch_average(*args)
            finally:
                depth.pop()

        def recording_values(kind, states, alpha):
            if not depth:
                measured.append(states)
            return values(kind, states, alpha)

        def counting_value(*args):
            measured.append("scalar")
            return value(*args)

        monkeypatch.setattr(_SearchParams, "ops", recording_ops)
        monkeypatch.setattr(harness, "state_from_factor", recording_from_factor)
        monkeypatch.setattr(harness, "_branch_average", nested_branch_average)
        monkeypatch.setattr(harness, "measure_values", recording_values)
        monkeypatch.setattr(harness, "measure_value", counting_value)
        gap, rho, ch = _refine_witness("alpha", g, params, 0.5)

        def moved_entries(rows, held):  # per row, the entries that differ from the held point
            return set(sum((r != h).reshape(len(r), -1).sum(axis=1) for r, h in zip(rows, held)).tolist())

        # the start is built once; then every stack row is one move from the point
        # held at that time, which is the last stack's matching entry or one of its rows
        assert [e[0] for e in events[:2]] == ["start g", "start params"]
        assert all(e[0] in ("g", "params") for e in events[2:])
        candidates = {"g": [events[0][1]], "params": [events[1][1]]}
        rows_of = {"g": 0, "params": 0}
        for name, rows, *_ in events[2:]:
            held = [h for h in candidates[name] if moved_entries(rows, h) == {1}]
            assert held, f"a {name} stack row is not one {name} move"
            candidates[name] = held[:1] + [[r[i] for r in rows] for i in range(len(rows[0]))]
            rows_of[name] += len(rows[0])
        assert rows_of["g"] and rows_of["params"]
        # the scalar start, then one before-side measurement per factor stack: that stack's own new states
        factor_states = [e[2] for e in events[2:] if e[0] == "g"]
        assert measured[0] == "scalar" and len(measured) == 1 + len(factor_states)
        assert all(m is s for m, s in zip(measured[1:], factor_states))
        assert _strong_mono_stats("alpha", rho, ch.kraus, 0.5)[2] == gap


class TestHeldSideGaps:
    """Refinement's two broadcasts give every row the bits of its own scalar evaluation.

    A stack of states against one held Kraus stack is its branch average minus
    each state's C; a stack of Kraus stacks against one held state is its
    branch average minus the held C(rho). Search structures, both kinds, every search alpha, and
    rank-one as well as full-rank factors.
    """

    @pytest.mark.parametrize("d, n_kraus, pair", TestRefinementTrajectory.STRUCTURES)
    def test_rows_are_the_scalar_gaps(self, d, n_kraus, pair):
        rng = substream(17, d, n_kraus, int(pair))
        for rank in (1, d):
            _, rhos = _batch_states(rng, 5, d, rank)
            _, ops = _batch_incoherent_channels(rng, 5, d, n_kraus, pair)
            for kind in ("tsallis", "alpha"):
                for alpha in SEARCH_ALPHAS:
                    state_rows = _branch_average(kind, ops[0], rhos, alpha)[0] - measure_values(kind, rhos, alpha)[0]
                    assert state_rows.tolist() == [_strong_mono_stats(kind, rho, ops[0], alpha)[2] for rho in rhos]
                    before = _strong_mono_stats(kind, rhos[0], ops[0], alpha)[0]
                    channel_rows = _branch_average(kind, ops, rhos[0], alpha)[0] - before
                    assert channel_rows.tolist() == [_strong_mono_stats(kind, rhos[0], k, alpha)[2] for k in ops]


def per_branch_average(kind, kraus, rho, alpha):
    """The branch average as one scalar measure_value call per kept branch.

    The loop _branch_average ran for the kinds outside the two families
    before every kind shared the stacked kernel, kept as the reference.
    """
    probs, products, kept = branches(kraus, rho)
    posts = products[kept] / probs[kept][:, None, None]
    values = [measure_value(kind, post, alpha) for post in posts]
    terms = np.zeros(probs.shape)
    terms[kept] = probs[kept] * values
    return sum(np.moveaxis(terms, -1, 0))


class TestStackedBranchAverage:
    """The stacked branch average of the plain kinds has the per-branch loop's bits."""

    @pytest.mark.parametrize("kind", ["relent", "l1", "skew", "c2"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_per_branch_loop(self, kind, d):
        rng = substream(13, d)
        for n_kraus in range(1, 5):
            channels = [random_incoherent_channel(d, n_kraus, rng).kraus for _ in range(4)]
            if d > 2 and n_kraus >= 2:  # merge pairs, whose branches can gain coherence
                channels += list(_batch_incoherent_channels(rng, 4, d, n_kraus, True)[1])
            for i, kraus in enumerate(channels):
                rho = random_density(d, 1 + i % d, rng)
                before, after, gap = _strong_mono_stats(kind, rho, kraus, None)
                reference = per_branch_average(kind, kraus, rho, None)
                assert type(after) is float
                assert repr(after) == repr(float(reference))
                assert gap == after - before


MEASURE_CHECK_NAMES = ("strong_monotonicity", "monotonicity", "convexity")
FUNCTIONAL_CHECK_NAMES = ("lemma1", "holder", "observations")


def reference_records(check, kind, inputs, alpha, tolerance, seed, trial) -> list[TrialRecord]:
    """One gated trial's records from scalar arithmetic, one matrix or pair at a time.

    The public checks' bodies before each of them scored its stack of one,
    kept as the independent reference of the stacked cells and the public
    checks. It is built from measure_value, branches, apply_channel, f_alpha
    and optimal_incoherent_state; the (lhs, rhs) rules (_lemma1_sides,
    _holder_sides, _observation_sides), _record and the input gate are the
    harness's own.
    """
    if check in FUNCTIONAL_CHECK_NAMES:
        alpha = validate_alpha(alpha)
        if check == "holder" and near_one(alpha):
            raise ValueError("holder step undefined within 1e-6 of alpha = 1")
        sign = sgn1(alpha)
        kind = "f_alpha"
    for refusal in _input_gate(check, _cell_of(check, inputs)).values():
        raise refusal
    if check == "convexity":
        w, mats = np.asarray(inputs[0], dtype=float), [np.asarray(s, dtype=complex) for s in inputs[1]]
        lhs = sum(wi * measure_value(kind, s, alpha) for wi, s in zip(w, mats))
        rhs = measure_value(kind, sum(wi * s for wi, s in zip(w, mats)), alpha)
        return [_record(check, len(mats[0]), alpha, kind, lhs, rhs, tolerance, seed, trial)]
    rho = np.asarray(inputs[0], dtype=complex)
    if check in ("strong_monotonicity", "monotonicity"):
        ch = inputs[1]
        lhs = measure_value(kind, rho, alpha)
        if check == "strong_monotonicity":
            sides = [(lhs, per_branch_average(kind, ch.kraus, rho, alpha))]
        else:
            sides = [(lhs, measure_value(kind, apply_channel(ch, rho), alpha))]
    elif check == "holder":
        delta = optimal_incoherent_state(rho, alpha)
        # one call for the pair (rho, delta); a branch counts when both sides keep it
        probs, products, kept = branches(inputs[1].kraus, np.stack([rho, embed_diagonal(delta)]))
        pairs = np.flatnonzero(kept[0] & kept[1])
        p, q = probs[:, pairs].tolist()
        f_vals = [f_alpha(products[0, n] / probs[0, n], products[1, n] / probs[1, n], alpha) for n in pairs]
        sides = [_holder_sides(alpha, p, q, f_vals)]
    else:
        sigma = np.asarray(inputs[1], dtype=complex)
        base = f_alpha(rho, sigma, alpha)
        if check == "lemma1":
            _, products, _ = branches(inputs[2].kraus, np.stack([rho, sigma]))
            sides = [_lemma1_sides(sign, base, [f_alpha(r, s, alpha) for r, s in zip(*products)])]
        else:
            ch, unitary, delta_diag, ensemble = inputs[2:]
            unitary = np.asarray(unitary, dtype=complex)
            ancilla = embed_diagonal(delta_diag)
            rotated = f_alpha(unitary @ rho @ unitary.conj().T, unitary @ sigma @ unitary.conj().T, alpha)
            mapped = f_alpha(apply_channel(ch, rho), apply_channel(ch, sigma), alpha)
            parts = [f_alpha(r, s, alpha) for _, r, s in ensemble]
            mix_rho = sum(w * np.asarray(r, dtype=complex) for w, r, _ in ensemble)
            mix_sigma = sum(w * np.asarray(s, dtype=complex) for w, _, s in ensemble)
            mixed = f_alpha(mix_rho, mix_sigma, alpha)
            tensored = f_alpha(np.kron(rho, ancilla), np.kron(sigma, ancilla), alpha)
            weights = [w for w, _, _ in ensemble]
            sides = _observation_sides(sign, base, rotated, mapped, weights, parts, mixed, tensored)
    names = OBSERVATIONS if check == "observations" else (check,)
    return [_record(name, len(rho), alpha, kind, *side, tolerance, seed, trial) for name, side in zip(names, sides)]


def error_record(cfg, check, dim, alpha, trial, exc):
    kind = "f_alpha" if check in FUNCTIONAL_CHECK_NAMES else cfg.kind
    return TrialRecord(
        check, dim, alpha, kind, math.nan, math.nan, -math.inf,
        False, cfg.master_seed, trial, False, f"{type(exc).__name__}: {exc}",
    )


def sampled_state(cfg, d, rng):
    """A suite trial's state, one public sampler call at a time: its rank, then random_density."""
    rank = d if cfg.rank_policy == "full" else int(rng.integers(1, d + 1))
    return random_density(d, rank, rng)


def sampled_inputs(cfg, check, d, rng):
    """A suite trial's arguments for its public check after the kind (observations: ensemble last).

    Drawn from the trial's stream in the suite's order and formed one public
    sampler call at a time: random_density, random_incoherent_channel,
    random_channel and haar_unitary, where the suite forms each cell at once.
    """
    lo, hi = cfg.n_kraus_range
    if check == "convexity":
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
        return weights, [sampled_state(cfg, d, rng) for _ in weights]
    rho = sampled_state(cfg, d, rng)
    if check in ("strong_monotonicity", "monotonicity", "holder"):
        return rho, random_incoherent_channel(d, int(rng.integers(lo, hi + 1)), rng)
    sigma = sampled_state(cfg, d, rng)
    ch = random_channel(d, int(rng.integers(lo, hi + 1)), rng)
    if check == "lemma1":
        return rho, sigma, ch
    unitary = haar_unitary(d, rng)
    delta_diag = rng.dirichlet(np.ones(max(1, min(3, 12 // d))))
    weights = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
    ensemble = [(float(w), sampled_state(cfg, d, rng), sampled_state(cfg, d, rng)) for w in weights]
    return rho, sigma, ch, unitary, delta_diag, ensemble


def per_trial_records(cfg):
    """run_suite's records, one trial and one scalar reference at a time.

    The loop run_suite ran before it formed and scored cells as stacks, kept
    as the reference: the same draws in the same order (sampled_inputs), each
    trial scored by reference_records, and any exception turned into an error record.
    """
    cells = [(check, dim, alpha) for check in cfg.checks for dim in cfg.dims for alpha in cfg.alphas]
    records = []
    for cell_index, (check, dim, alpha) in enumerate(cells):
        for trial in range(cfg.trials_per_cell):
            try:
                inputs = sampled_inputs(cfg, check, dim, substream(cfg.master_seed, cell_index, trial))
                records.extend(
                    reference_records(check, cfg.kind, inputs, alpha, cfg.tolerance, cfg.master_seed, trial)
                )
            except Exception as exc:
                records.append(error_record(cfg, check, dim, alpha, trial, exc))
    return records


def raising_on_call(fn, call, exc_type=RuntimeError):
    """fn, except that its `call`-th call (counting from 0) raises instead."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 == call:
            raise exc_type("synthetic draw failure")
        return fn(*args, **kwargs)

    return wrapper


def raising_draw(monkeypatch, name, call):
    """Patch the draw `name` (density_factor, unprojected_draw or channel_draw) so its `call`-th call raises.

    Returns the function that does the same to the public samplers, whose module calls the draw;
    a suite run and the per-trial loop then meet the failure on the same draw.
    """
    import alphacoh.channels as channels
    import alphacoh.harness as harness
    import alphacoh.states as states

    source = states if name == "density_factor" else channels
    original = getattr(source, name)
    monkeypatch.setattr(harness, name, raising_on_call(original, call))

    def in_the_samplers():
        monkeypatch.setattr(harness, name, original)
        monkeypatch.setattr(source, name, raising_on_call(original, call))

    return in_the_samplers


def replaced_at_trial_3(monkeypatch, replace):
    """Patch the harness's cell formation so `replace(cell)` edits each cell's inputs (trial 3's) after _form."""
    import alphacoh.harness as harness

    original = harness._form

    def form(check, draws):
        cell = original(check, draws)
        replace(cell)
        return cell

    monkeypatch.setattr(harness, "_form", form)


def coherent_channel_at_trial_3(cell):
    """Trial 3's channel made one Haar unitary: complete, and coherent."""
    cell.kraus[3] = 0.0
    cell.kraus[3, 0] = haar_unitary(cell.kraus.shape[-1], substream(43))


def assert_only_trial_3_changed(new, old, error):
    """new is old except that trial 3's one record is an error record carrying `error`'s class and message."""
    assert [repr(r) for r in new[:3] + new[4:]] == [repr(r) for r in old[:3] + old[4:]]
    assert new[3].error == f"{type(error).__name__}: {error}"
    assert (new[3].trial, old[3].trial, old[3].error) == (3, 3, "")


def public_error(call) -> Exception:
    """The exception a public check call raises."""
    with pytest.raises(Exception) as info:
        call()
    return info.value


SCALAR_GATES = ("measure_value", "optimal_incoherent_state", "_gated_pair", "as_hermitian")


def counting_scalar_gates(monkeypatch) -> list:
    """Log each call of a scalar gate, under every package module that binds one; returns the log."""
    import importlib

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module in ("linalg", "states", "divergence", "coherence", "channels", "harness", "cli"):
        module = importlib.import_module(f"alphacoh.{module}")
        for name in SCALAR_GATES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


class TestStackedCell:
    """Measure-check cells scored as stacks give the per-trial loop's records, bit for bit."""

    @staticmethod
    def assert_same_records(new, old):
        assert [repr(r) for r in new] == [repr(r) for r in old]

    @pytest.mark.parametrize("check", MEASURE_CHECK_NAMES)
    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    @pytest.mark.parametrize("trials", [1, 9])
    def test_matches_the_per_trial_loop(self, kind, check, trials):
        cfg = TrialConfig(
            dims=(2, 3, 4), alphas=(0.25, 1.5), trials_per_cell=trials, checks=(check,), kind=kind, master_seed=21
        )
        self.assert_same_records(run_suite(cfg).records, per_trial_records(cfg))

    def test_one_formation_per_cell(self, monkeypatch):
        # trials draw their numbers alone; the cell forms and gates them once, and builds no KrausChannel
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(3,), alphas=(0.5,), trials_per_cell=10, checks=("strong_monotonicity",), master_seed=44)
        draws = [harness._draw(cfg, "strong_monotonicity", 3, substream(44, 0, t)) for t in range(10)]
        ranks = {draw.factors[0].shape[1] for draw in draws}
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("kraus_stack", "state_from_factor", "completeness_refusals"):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        monkeypatch.setattr(KrausChannel, "__post_init__", counting("KrausChannel", KrausChannel.__post_init__))
        summary = run_suite(cfg)
        assert len(summary.records) == 10 and not any(r.error for r in summary.records)
        assert len(ranks) > 1  # the mixed ranks make more than one formation group
        assert sorted(calls) == sorted(["kraus_stack", "completeness_refusals"] + ["state_from_factor"] * len(ranks))

    @pytest.mark.parametrize("check", MEASURE_CHECK_NAMES)
    def test_a_draw_that_raises_keeps_its_place(self, check, monkeypatch):
        # the failing draw is trial 3 of the row's second cell
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(3,), alphas=(0.5, 1.5), trials_per_cell=6, checks=(check,), master_seed=22)
        before = [(0, trial) for trial in range(6)] + [(1, trial) for trial in range(3)]
        if check == "convexity":  # one density_factor call per state
            factors = [harness._draw(cfg, check, 3, substream(22, *key)).factors for key in before]
            name, call = "density_factor", sum(map(len, factors))
        else:  # one unprojected_draw call per trial
            name, call = "unprojected_draw", len(before)
        in_the_samplers = raising_draw(monkeypatch, name, call)
        new = run_suite(cfg).records
        in_the_samplers()
        self.assert_same_records(new, per_trial_records(cfg))
        errors = [r.error for r in new]
        assert errors == [""] * 9 + ["RuntimeError: synthetic draw failure"] + [""] * 2

    def test_one_projection_per_operator_count_in_a_row(self, monkeypatch):
        # a row's 30 incoherent draws share one _cancel_merge_terms call per operator count
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(3,), alphas=(0.5, 1.5, 2.0), trials_per_cell=10, checks=("strong_monotonicity",),
                          master_seed=45)
        keys = [(cell, trial) for cell in range(3) for trial in range(10)]
        counts = {len(harness._draw(cfg, "strong_monotonicity", 3, substream(45, *key)).channel[0]) for key in keys}
        original, calls = harness._cancel_merge_terms, []

        def counting(rows, amplitudes):
            columns, wiped = original(rows, amplitudes)
            calls.append((rows.shape[1], len(rows), int(wiped.sum())))
            return columns, wiped

        monkeypatch.setattr(harness, "_cancel_merge_terms", counting)
        summary = run_suite(cfg)
        assert len(summary.records) == 30 and not any(r.error for r in summary.records)
        assert len(counts) > 1
        assert sorted(n for n, _, _ in calls) == sorted(counts)
        assert sum(size for _, size, _ in calls) == 30 and not any(wiped for _, _, wiped in calls)

    def test_a_wiped_draw_draws_again_from_its_own_stream(self, monkeypatch):
        # trial 1 of the row's second cell gets a column its constraints wipe out: it draws again, as the
        # sampler does, and ends with the sampler's rows, amplitudes and next random()
        import alphacoh.channels as channels
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(4,), alphas=(0.5, 1.5), trials_per_cell=4, n_kraus_range=(2, 3),
                          checks=("monotonicity",), master_seed=31)
        original, calls = channels.unprojected_draw, []

        def wiping_on_call(call):
            """unprojected_draw, except that its `call`-th call (counting from 0) returns a draw that is wiped out."""
            made = []

            def draw(d, n_kraus, rng):
                made.append(None)
                calls.append(call)
                rows, amplitudes = original(d, n_kraus, rng)
                if len(made) - 1 == call:
                    rows, amplitudes = rows[None].copy(), amplitudes[None].copy()
                    wiped_at_column_1(rows, amplitudes, 0)
                    return rows[0], amplitudes[0]
                return rows, amplitudes

            return draw

        streams = {}  # the last stream made for each key

        def recorded(*key):
            streams[key] = substream(*key)
            return streams[key]

        monkeypatch.setattr(harness, "substream", recorded)
        sixth_wiped = wiping_on_call(5)
        for module in (harness, channels):  # a first draw, and a redraw through incoherent_draw
            monkeypatch.setattr(module, "unprojected_draw", sixth_wiped)
        keys = [(cell, trial) for cell in range(2) for trial in range(4)]
        drawn = harness._drawn(cfg, "monotonicity", 4, keys)
        assert calls == [5] * 10  # eight draws; trial (1, 1) replays its first and draws again
        for key in keys:
            rng = substream(31, *key)
            sampled_state(cfg, 4, rng)
            monkeypatch.setattr(channels, "unprojected_draw", wiping_on_call(0) if key == (1, 1) else original)
            rows, amplitudes = channels.incoherent_draw(4, int(rng.integers(2, 4)), rng)
            seen_rows, seen_amplitudes = drawn[key].channel
            assert (seen_rows.tobytes(), seen_amplitudes.tobytes()) == (rows.tobytes(), amplitudes.tobytes())
            assert streams[(31, *key)].random() == rng.random()
        assert calls == [5] * 10 + [0] * 2

    def test_an_error_drawing_a_wiped_draw_again_is_its_record(self, monkeypatch):
        # the first draw of the row is wiped out and its redraw raises: its record carries that error, the rest keep theirs
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(3,), alphas=(0.5,), trials_per_cell=4, n_kraus_range=(2, 2),
                          checks=("monotonicity",), master_seed=31)
        old = run_suite(cfg).records
        original = harness._cancel_merge_terms

        def wiping_the_first(rows, amplitudes):
            columns, wiped = original(rows, amplitudes)
            wiped[0] = True
            return columns, wiped

        def failing(*args):
            raise RuntimeError("synthetic redraw failure")

        monkeypatch.setattr(harness, "_cancel_merge_terms", wiping_the_first)
        monkeypatch.setattr(harness, "incoherent_draw", failing)
        new = run_suite(cfg).records
        assert [r.error for r in new] == ["RuntimeError: synthetic redraw failure", "", "", ""]
        assert [vars(r) for r in new[1:]] == [vars(r) for r in old[1:]]

    @pytest.mark.parametrize("check", ["strong_monotonicity", "monotonicity"])
    def test_a_coherent_draw_gets_the_scalar_error(self, check, monkeypatch):
        cfg = TrialConfig(dims=(3,), alphas=(0.5,), trials_per_cell=6, checks=(check,), master_seed=23)
        old = run_suite(cfg).records
        self.assert_same_records(old, per_trial_records(cfg))
        replaced_at_trial_3(monkeypatch, coherent_channel_at_trial_3)
        new = run_suite(cfg).records
        rho = sampled_inputs(cfg, check, 3, substream(cfg.master_seed, 0, 3))[0]
        ch = KrausChannel(haar_unitary(3, substream(43))[None])
        public = {"strong_monotonicity": check_strong_monotonicity, "monotonicity": check_monotonicity}[check]
        assert_only_trial_3_changed(new, old, public_error(lambda: public(cfg.kind, rho, ch, 0.5)))
        assert new[3].error.startswith("NotIncoherentChannelError: ")

    def test_an_image_the_gate_refuses_gets_the_scalar_error(self, monkeypatch):
        rho, ch = image_refused_by_the_gate()

        def refused_inputs_at_trial_3(cell):
            assert cell.kraus.shape[1] >= ch.n_kraus  # room for its three operators beside the zero padding
            cell.states[3, 0] = rho
            cell.kraus[3] = 0.0
            cell.kraus[3, : ch.n_kraus] = ch.kraus

        cfg = TrialConfig(dims=(3,), alphas=(0.5,), trials_per_cell=6, checks=("monotonicity",), master_seed=26)
        old = run_suite(cfg).records
        replaced_at_trial_3(monkeypatch, refused_inputs_at_trial_3)
        new = run_suite(cfg).records
        assert_only_trial_3_changed(new, old, public_error(lambda: check_monotonicity(cfg.kind, rho, ch, 0.5)))
        assert new[3].error.startswith("NotHermitianError: not Hermitian")
        assert [bool(r.error) for r in new] == [False, False, False, True, False, False]

    @pytest.mark.parametrize("check", MEASURE_CHECK_NAMES)
    def test_a_nan_no_rule_names_is_recorded_as_it_is(self, check, monkeypatch):
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(3,), alphas=(1.5,), trials_per_cell=6, checks=(check,), master_seed=24)
        old = per_trial_records(cfg)
        original, poisoned = harness.measure_values, []

        def nan_at_2_of_the_first_stack(kind, states, alpha=None):
            values, refusals = original(kind, states, alpha)
            if not poisoned:
                poisoned.append(states.shape)
                values = values.copy()
                values[2] = math.nan
            return values, refusals

        monkeypatch.setattr(harness, "measure_values", nan_at_2_of_the_first_stack)
        gates = counting_scalar_gates(monkeypatch)
        new = run_suite(cfg).records
        assert poisoned and poisoned[0][0] >= 6 and not gates
        # the first stack is the states: only the lhs of the trial that owns entry 2 moves
        changed = [(r, o) for r, o in zip(new, old) if repr(r) != repr(o)]
        assert len(changed) == 1
        (r, o), = changed
        assert math.isnan(r.lhs) and math.isnan(r.margin) and r.rhs == o.rhs
        assert not (r.passed or r.degenerate or r.error)

    @pytest.mark.parametrize("check", MEASURE_CHECK_NAMES)
    def test_a_stacked_call_that_raises_gives_its_cell_that_error(self, check, monkeypatch):
        import alphacoh.harness as harness

        cfg = TrialConfig(
            dims=(2,), alphas=(0.25, 1.5), trials_per_cell=5, checks=(check,), kind="skew", master_seed=25
        )
        old = run_suite(cfg).records
        original, raised = harness.measure_values, []

        def the_first_stack_raises(kind, states, alpha=None):
            if not raised:
                raised.append(len(states))
                raise SkewFormsDisagreeError("synthetic stack failure")
            return original(kind, states, alpha)

        monkeypatch.setattr(harness, "measure_values", the_first_stack_raises)
        new = run_suite(cfg).records
        assert raised and raised[0] >= cfg.trials_per_cell
        expected = error_record(cfg, check, 2, 0.25, 0, SkewFormsDisagreeError("synthetic stack failure"))
        assert [repr(r) for r in new[:5]] == [repr(dataclasses.replace(expected, trial=t)) for t in range(5)]
        self.assert_same_records(new[5:], old[5:])  # the other cell

    @pytest.mark.parametrize("check", MEASURE_CHECK_NAMES)
    def test_one_kernel_call_per_side(self, check, monkeypatch):
        import alphacoh.harness as harness

        calls = []

        def counting(name):
            original = getattr(harness, name)

            def wrapper(kind, *args):
                calls.append((name, len(args[-2])))  # the stack of states each kernel takes
                return original(kind, *args)

            return wrapper

        monkeypatch.setattr(harness, "measure_values", counting("measure_values"))
        monkeypatch.setattr(harness, "_branch_average", counting("_branch_average"))
        cfg = TrialConfig(dims=(3,), alphas=(0.5,), trials_per_cell=7, checks=(check,), kind="alpha")
        assert run_suite(cfg).all_passed
        if check == "strong_monotonicity":
            # the after side's kernel measures every kept branch of the cell in one nested call
            assert calls[:2] == [("measure_values", 7), ("_branch_average", 7)]
            assert [name for name, _ in calls[2:]] == ["measure_values"]
        elif check == "monotonicity":
            assert calls == [("measure_values", 7), ("measure_values", 7)]
        else:  # every drawn state of the cell, then the seven mixtures
            assert len(calls) == 2 and calls[0][1] >= 14 and calls[1] == ("measure_values", 7)


class TestSuiteRows:
    """A (check, dim) row, its alpha cells drawn and projected at once, gives the per-trial loop's records."""

    CFG = TrialConfig(dims=(2, 3), alphas=(0.5, 1.5, 2.0), trials_per_cell=4,
                      checks=("strong_monotonicity", "monotonicity", "holder"), master_seed=46)

    def test_rows_match_the_per_trial_loop_for_any_worker_count(self):
        records = [repr(r) for r in per_trial_records(self.CFG)]
        assert len(records) == 3 * 2 * 3 * 4
        for workers in (1, 2, 3):
            assert [repr(r) for r in run_suite(self.CFG, workers=workers).records] == records

    def test_rebuild_witness_replays_every_record(self):
        public = {"strong_monotonicity": check_strong_monotonicity, "monotonicity": check_monotonicity}
        replayed = 0
        for record in run_suite(self.CFG).records:
            if record.check_name in public:
                rho, ch = rebuild_witness(self.CFG, record)
                replay = public[record.check_name](self.CFG.kind, rho, ch, record.alpha, tolerance=self.CFG.tolerance)
                assert repr(dataclasses.replace(replay, seed=record.seed, trial=record.trial)) == repr(record)
                replayed += 1
        assert replayed == 2 * 2 * 3 * 4


class TestSuiteTasks:
    """A suite task is a run of one row's cells holding at most SEARCH_BATCH draws; its size moves no record."""

    CFG = TrialConfig(dims=(2, 3), alphas=(0.5, 1.5, 2.0), trials_per_cell=4,
                      checks=("strong_monotonicity", "monotonicity", "holder", "observations"), master_seed=47)

    @staticmethod
    def drawn_sizes(monkeypatch) -> list:
        """The number of keys of each _drawn call, as they come."""
        import alphacoh.harness as harness

        original, sizes = harness._drawn, []

        def counting(cfg, check, dim, keys):
            sizes.append(len(keys))
            return original(cfg, check, dim, keys)

        monkeypatch.setattr(harness, "_drawn", counting)
        return sizes

    # the bound on a task's draws, and the cells of each row's tasks: a row, runs of 2 and 1, one cell each
    @pytest.mark.parametrize("bound, runs", [(SEARCH_BATCH, [3]), (8, [2, 1]), (4, [1, 1, 1])])
    def test_task_size_moves_no_bit(self, bound, runs, monkeypatch):
        import alphacoh.harness as harness

        reference = run_suite(self.CFG).records
        monkeypatch.setattr(harness, "SEARCH_BATCH", bound)
        sizes = self.drawn_sizes(monkeypatch)
        records = run_suite(self.CFG).records
        assert len(records) == 2 * 3 * 4 * (3 + len(OBSERVATIONS))
        # field by field: a repr spells every float's exact digits, and a NaN side equals a NaN side
        assert [repr(r) for r in records] == [repr(r) for r in reference]
        n = self.CFG.trials_per_cell
        assert sizes == [cells * n for cells in runs] * 4 * 2  # one _drawn call per task, every row alike
        assert max(sizes) <= max(bound, n)

    def test_a_cell_above_the_bound_is_one_task(self, monkeypatch):
        import alphacoh.harness as harness

        cfg = dataclasses.replace(self.CFG, dims=(2,), checks=("strong_monotonicity",))
        reference = run_suite(cfg).records
        monkeypatch.setattr(harness, "SEARCH_BATCH", 3)  # under a cell's 4 trials
        sizes = self.drawn_sizes(monkeypatch)
        assert run_suite(cfg).records == reference
        assert sizes == [4, 4, 4]


class TestStackedFunctionalCell:
    """Functional-check cells scored as stacks give the per-trial loop's records, bit for bit."""

    assert_same_records = staticmethod(TestStackedCell.assert_same_records)

    @pytest.mark.parametrize("check", FUNCTIONAL_CHECK_NAMES)
    @pytest.mark.parametrize("trials", [1, 9])
    @pytest.mark.parametrize("rank_policy", ["full", "mixed-ranks"])
    def test_matches_the_per_trial_loop(self, check, trials, rank_policy):
        cfg = TrialConfig(
            dims=(2, 3, 4), alphas=(0.25, 0.75, 1.5, 2.0), trials_per_cell=trials,
            checks=(check,), rank_policy=rank_policy, master_seed=31,
        )
        self.assert_same_records(run_suite(cfg).records, per_trial_records(cfg))

    @pytest.mark.parametrize("check", FUNCTIONAL_CHECK_NAMES)
    def test_a_draw_that_raises_keeps_its_place(self, check, monkeypatch):
        cfg = TrialConfig(dims=(3,), alphas=(1.5,), trials_per_cell=6, checks=(check,), master_seed=32)
        in_the_samplers = raising_draw(monkeypatch, "density_factor", 3)
        new = run_suite(cfg).records
        in_the_samplers()
        self.assert_same_records(new, per_trial_records(cfg))
        assert [r.error for r in new].count("RuntimeError: synthetic draw failure") == 1

    def test_a_coherent_holder_channel_gets_the_scalar_error(self, monkeypatch):
        cfg = TrialConfig(dims=(3,), alphas=(0.5,), trials_per_cell=6, checks=("holder",), master_seed=33)
        old = run_suite(cfg).records
        self.assert_same_records(old, per_trial_records(cfg))
        replaced_at_trial_3(monkeypatch, coherent_channel_at_trial_3)
        new = run_suite(cfg).records
        rho = sampled_inputs(cfg, "holder", 3, substream(cfg.master_seed, 0, 3))[0]
        ch = KrausChannel(haar_unitary(3, substream(43))[None])
        assert_only_trial_3_changed(new, old, public_error(lambda: check_holder_step(rho, ch, 0.5)))
        assert new[3].error.startswith("NotIncoherentChannelError: ")

    @staticmethod
    def poison_2_of_the_first_stack(monkeypatch, poison) -> list:
        """Make entry 2 of the cell's first functional_values stack `poison`; returns the poisoned stack's length."""
        import alphacoh.harness as harness

        original, poisoned = harness.functional_values, []

        def poisoning(a_mats, b_mats, alpha):
            values = original(a_mats, b_mats, alpha)
            if not poisoned:
                poisoned.append(len(values))
                values[2] = poison
            return values

        monkeypatch.setattr(harness, "functional_values", poisoning)
        return poisoned

    @pytest.mark.parametrize("check", FUNCTIONAL_CHECK_NAMES)
    def test_a_nan_value_is_recorded_as_it_is(self, check, monkeypatch):
        cfg = TrialConfig(dims=(3,), alphas=(0.5,), trials_per_cell=6, checks=(check,), master_seed=34)
        old = per_trial_records(cfg)
        poisoned = self.poison_2_of_the_first_stack(monkeypatch, math.nan)
        gates = counting_scalar_gates(monkeypatch)
        new = run_suite(cfg).records
        assert poisoned and poisoned[0] >= 6 and not gates
        assert [(r.check_name, r.trial) for r in new] == [(r.check_name, r.trial) for r in old]
        changed = [r for r, o in zip(new, old) if repr(r) != repr(o)]
        # only the trial that owns the poisoned pair moves, and each record it changes carries the NaN
        assert changed and len({r.trial for r in changed}) == 1
        for r in changed:
            assert math.isnan(r.margin) and not (r.passed or r.degenerate or r.error)

    @pytest.mark.parametrize("check", FUNCTIONAL_CHECK_NAMES)
    def test_a_divergent_value_is_degenerate(self, check, monkeypatch):
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(3,), alphas=(0.5,), trials_per_cell=6, checks=(check,), master_seed=34)
        old = per_trial_records(cfg)
        poisoned = self.poison_2_of_the_first_stack(monkeypatch, math.inf)
        gates = counting_scalar_gates(monkeypatch)
        new = run_suite(cfg).records
        assert poisoned and poisoned[0] >= 6
        assert not gates
        assert [(r.check_name, r.trial) for r in new] == [(r.check_name, r.trial) for r in old]
        changed = [(r, o) for r, o in zip(new, old) if repr(r) != repr(o)]
        # only the trial that owns the poisoned pair moves, and each record it changes is degenerate
        assert changed and len({r.trial for r, _ in changed}) == 1
        for r, o in changed:
            assert r.degenerate and r.passed and r.margin == math.inf and not r.error
            assert math.inf in (r.lhs, r.rhs) and not o.degenerate

    def test_a_holder_state_whose_diagonal_vanishes_gets_the_scalar_error(self, monkeypatch):
        cfg = TrialConfig(dims=(3,), alphas=(2.0,), trials_per_cell=6, checks=("holder",), master_seed=37)
        old = run_suite(cfg).records
        self.assert_same_records(old, per_trial_records(cfg))
        rho, ch = sampled_inputs(cfg, "holder", 3, substream(cfg.master_seed, 0, 3))

        def vanished_at_trial_3(cell):
            cell.states[3, 0] *= 3e-11  # the largest a_j of rho^2 is then under 1e-14

        replaced_at_trial_3(monkeypatch, vanished_at_trial_3)
        new = run_suite(cfg).records
        assert_only_trial_3_changed(new, old, public_error(lambda: check_holder_step(3e-11 * rho, ch, 2.0)))
        assert new[3].error == "DegenerateDiagonalError: diagonal of rho^alpha vanished entirely"

    @pytest.mark.parametrize("check", FUNCTIONAL_CHECK_NAMES)
    def test_a_stacked_call_that_raises_gives_its_cell_that_error(self, check, monkeypatch):
        import alphacoh.harness as harness

        original, raised = harness.functional_values, []

        def the_first_stack_raises(a_mats, b_mats, alpha):
            if not raised:
                raised.append(alpha)
                raise np.linalg.LinAlgError("synthetic stack failure")
            return original(a_mats, b_mats, alpha)

        cfg = TrialConfig(dims=(2,), alphas=(0.25, 2.0), trials_per_cell=5, checks=(check,), master_seed=35)
        old = run_suite(cfg).records
        monkeypatch.setattr(harness, "functional_values", the_first_stack_raises)
        new = run_suite(cfg).records
        assert raised == [0.25]
        expected = error_record(cfg, check, 2, 0.25, 0, np.linalg.LinAlgError("synthetic stack failure"))
        assert [repr(r) for r in new[:5]] == [repr(dataclasses.replace(expected, trial=t)) for t in range(5)]
        self.assert_same_records(new[5:], old[len(old) // 2 :])  # the other cell

    def test_a_refused_value_beside_a_divergent_one_reaches_the_sides(self):
        # a NaN (a pair a stacked gate refused) sends its trial to the public check only through a NaN side
        nan, inf = math.nan, math.inf
        assert math.isnan(_lemma1_sides(-1.0, 0.5, [inf, nan])[1])
        assert any(map(math.isnan, _holder_sides(0.5, [0.5, 0.5], [0.5, 0.5], [inf, nan])))
        sides = _observation_sides(1.0, inf, nan, nan, [0.5, 0.5], [inf, nan], 1.0, nan)
        assert all(any(map(math.isnan, side)) for side in sides[1:])

    def test_divergent_trials_never_reach_the_scalar_checks(self, monkeypatch):
        gates = counting_scalar_gates(monkeypatch)
        # at alpha > 1 with mixed ranks most of these trials hold a divergent F value
        cfg = TrialConfig(alphas=(1.5, 2.0), trials_per_cell=10, checks=FUNCTIONAL_CHECK_NAMES, master_seed=5)
        summary = run_suite(cfg)
        assert not gates
        assert summary.stats["lemma1"].degenerate and summary.stats["obs1_one_sided"].degenerate

    @pytest.mark.parametrize("check, sizes", [("lemma1", [3]), ("holder", [3]), ("observations", [3, 9])])
    def test_one_kernel_call_per_matrix_size(self, check, sizes, monkeypatch):
        import alphacoh.harness as harness

        calls, original = [], harness.functional_values

        def counting(a_mats, b_mats, alpha):
            calls.append(a_mats.shape)
            return original(a_mats, b_mats, alpha)

        monkeypatch.setattr(harness, "functional_values", counting)
        cfg = TrialConfig(dims=(3,), alphas=(0.5, 1.5), trials_per_cell=7, checks=(check,), master_seed=36)
        assert run_suite(cfg).all_passed
        # one call per (cell, matrix size), each holding at least one pair per trial
        assert [shape[-1] for shape in calls] == sizes * 2
        assert all(len(shape) == 3 and shape[0] >= 7 for shape in calls)

    def test_error_records_carry_the_functional_kind(self, monkeypatch):
        cfg = TrialConfig(
            dims=(3,), alphas=(0.5,), trials_per_cell=3, checks=("lemma1",), kind="tsallis", master_seed=38
        )
        raising_draw(monkeypatch, "channel_draw", 1)
        records = run_suite(cfg).records
        assert [r.kind for r in records] == ["f_alpha"] * 3
        assert [r.error for r in records] == ["", "RuntimeError: synthetic draw failure", ""]


def public_check_call(check, kind, inputs, alpha, tolerance=DEFAULT_TOLERANCE):
    """The public check of `check` on one drawn trial (inputs in sampled_inputs order), as a list of records."""
    if check == "observations":
        return check_observations(*inputs[:-1], alpha, ensemble=inputs[-1], tolerance=tolerance)
    if check in FUNCTIONAL_CHECK_NAMES:
        return [(check_lemma1 if check == "lemma1" else check_holder_step)(*inputs, alpha, tolerance=tolerance)]
    public = {
        "strong_monotonicity": check_strong_monotonicity,
        "monotonicity": check_monotonicity,
        "convexity": check_convexity,
    }
    return [public[check](kind, *inputs, alpha, tolerance=tolerance)]


class TestStackOfOne:
    """Each public check is its cell's stack of one trial: one stacked call, the scalar reference's bits."""

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_one_stacked_call_of_one_trial(self, check, monkeypatch):
        import alphacoh.harness as harness

        calls, original = [], harness._stacked_sides

        def counting(check, kind, cell, alpha):
            calls.append(len(cell.states))
            return original(check, kind, cell, alpha)

        monkeypatch.setattr(harness, "_stacked_sides", counting)
        cfg = TrialConfig(dims=(3,), checks=(check,))
        inputs = sampled_inputs(cfg, check, 3, substream(39))
        assert public_check_call(check, "tsallis", inputs, 1.5)
        assert calls == [1]

    @pytest.mark.parametrize("check", ALL_CHECKS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_scalar_reference(self, check, d):
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(d,), checks=(check,))
        kinds = MEASURE_KINDS if check in MEASURE_CHECK_NAMES else ("alpha",)
        for trial in range(6):
            inputs = sampled_inputs(cfg, check, d, substream(40, d, trial))
            for kind in kinds:
                # the kinds outside the families take no alpha or ignore a given one
                for alpha in (0.25, 1.5, 2.0) if kind in ("alpha", "tsallis", "relent") else (None, 0.5):
                    new = public_check_call(check, kind, inputs, alpha)
                    old = reference_records(check, kind, inputs, alpha, DEFAULT_TOLERANCE, -1, -1)
                    assert [repr(r) for r in new] == [repr(r) for r in old]

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_the_public_cell_is_the_suite_cell(self, check):
        # a suite trial formed alone, and its inputs handed back to the public check, give one cell, bit for bit
        import alphacoh.harness as harness

        cfg = TrialConfig(dims=(3,), checks=(check,))
        for draw in harness._drawn(cfg, check, 3, [(0, trial) for trial in range(4)]).values():
            formed = harness._form(check, [draw])
            states = list(formed.states[0])
            if check == "convexity":
                inputs = (formed.weights[0], states)
            else:
                ch = KrausChannel(formed.kraus[0][formed.real_kraus[0]])
                inputs = (states[0], ch) if check in harness.CHANNEL_CHECKS else (*states[:2], ch)
            if check == "observations":
                ensemble = [(w, *pair) for w, pair in zip(formed.weights[0], zip(states[2::2], states[3::2]))]
                inputs += (formed.unitaries[0], formed.populations[0], ensemble)
            public = _cell_of(check, inputs)
            for name, mine, theirs in zip(formed._fields, formed, public):
                bits = [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in (mine, theirs)]
                assert bits[0] == bits[1], name

    def test_real_arrays_score_as_their_complex_copies(self):
        # a real eigh and a complex one differ in the last bits (here relent and skew at d = 4)
        gen = substream(41)
        rho, sigma = (random_density(4, 4, gen) for _ in range(2))
        real_rho, real_sigma = (np.real(m + m.conj().T) / 2 for m in (rho, sigma))
        ch = random_incoherent_channel(4, 3, gen)
        calls = [
            lambda r, s, kind=kind, check=check: [check(kind, r, ch, 0.5)]
            for kind in MEASURE_KINDS
            for check in (check_strong_monotonicity, check_monotonicity)
        ]
        calls += [
            lambda r, s: [check_convexity("skew", [0.5, 0.5], [r, s], None)],
            lambda r, s: [check_holder_step(r, ch, 0.5)],
            lambda r, s: [check_lemma1(r, s, ch, 1.5)],
            lambda r, s: check_observations(r, s, ch, np.eye(4), [1.0], 1.5),
        ]
        for call in calls:
            new = call(real_rho, real_sigma)
            old = call(real_rho.astype(complex), real_sigma.astype(complex))
            assert [repr(r) for r in new] == [repr(r) for r in old]

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_a_stack_error_no_gate_names_is_raised(self, check, monkeypatch):
        import alphacoh.harness as harness

        def raising(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic stack failure")

        monkeypatch.setattr(harness, "measure_values", raising)
        monkeypatch.setattr(harness, "functional_values", raising)
        cfg = TrialConfig(dims=(3,), checks=(check,))
        inputs = sampled_inputs(cfg, check, 3, substream(42))
        with pytest.raises(np.linalg.LinAlgError, match="synthetic stack failure"):
            public_check_call(check, "tsallis", inputs, 1.5)


class TestOneRefusalPerRule:
    """Each gate rule a formed matrix meets has one stacked site; a scalar gate raises its stack of one's refusal."""

    ALPHA = 2.0
    # the rule each refused row of rows() breaks, and the kinds whose measure_value applies it
    RULES = {
        1: (ValueError, MEASURE_KINDS),
        2: (NotHermitianError, MEASURE_KINDS),
        3: (DegenerateDiagonalError, ("alpha", "tsallis")),
        4: (NegativeEigenvalueError, ("skew",)),
        5: (SkewFormsDisagreeError, ("skew",)),
    }

    @staticmethod
    def rows() -> np.ndarray:
        """Qutrit rows: fine, non-finite, not Hermitian, vanished diagonal at alpha 2, not PSD, forms that disagree."""
        gen = substream(45)
        fine, scaled, forms = (random_density(3, 3, gen) for _ in range(3))
        u = haar_unitary(3, gen)
        nan, skew = fine.copy(), fine.copy()
        nan[2, 2] = math.nan
        skew[0, 1] += 1e-9
        skew[1, 0] -= 1e-9
        not_psd = u @ np.diag([1.2, 0.3, -0.5]) @ u.conj().T
        return np.stack([fine, nan, skew, 3e-11 * scaled, not_psd, forms])

    @pytest.fixture(autouse=True)
    def off_root_of_row_5(self, monkeypatch):
        """A wrong square root of row 5 alone, so its two skew forms disagree, stacked and scalar alike."""
        import alphacoh.coherence as coherence

        target, true_power = np.linalg.eigvalsh(self.rows()[5]), coherence.spectrum_power

        def off_root(lam, vecs, p):
            hit = np.isclose(lam, target, rtol=0.0, atol=1e-12).all(axis=-1)
            return true_power(lam, vecs, p) * np.where(hit, 0.9, 1.0)[..., None, None]

        monkeypatch.setattr(coherence, "spectrum_power", off_root)

    @staticmethod
    def assert_same_refusals(refusals: dict, mats, scalar_gate):
        """refusals holds, at each index, the class and message scalar_gate raises on that matrix, and nothing else."""
        raised = {}
        for t, mat in enumerate(mats):
            try:
                scalar_gate(mat)
            except ValueError as exc:
                raised[t] = (type(exc), str(exc))
        assert {t: (type(e), str(e)) for t, e in refusals.items()} == raised

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_a_measured_stack_refuses_what_measure_value_refuses(self, kind):
        import alphacoh.harness as harness

        rows = self.rows()
        _, refusals = harness._measured(kind, rows, self.ALPHA)
        assert {t: type(e) for t, e in refusals.items()} == {
            t: error for t, (error, kinds) in self.RULES.items() if kind in kinds
        }
        self.assert_same_refusals(refusals, rows, lambda mat: measure_value(kind, mat, self.ALPHA))

    def test_a_pair_stack_refuses_what_the_pair_gate_refuses(self):
        import alphacoh.harness as harness
        from alphacoh.divergence import _gated_pair

        rows = self.rows()
        pairs = np.array([(m, rows[0]) for m in rows] + [(rows[0], m) for m in rows])
        _, (by_matrix,) = harness._functional_stacks([pairs], self.ALPHA)
        refusals = {}
        for row, refusal in by_matrix.items():  # pair t holds matrices 2 t and 2 t + 1, gated in that order
            refusals.setdefault(row // 2, refusal)
        assert sorted(refusals) == [1, 2, 7, 8]
        self.assert_same_refusals(refusals, pairs, lambda pair: _gated_pair(*pair))

    def test_the_holder_state_refuses_what_optimal_incoherent_state_refuses(self):
        import alphacoh.harness as harness

        rows = self.rows()
        cell = harness._Cell(rows[:, None], np.eye(3)[None, None].repeat(6, 0), np.ones((6, 1), dtype=bool))
        sides, refusals = harness._stacked_sides("holder", None, cell, self.ALPHA)
        assert len(sides) == 6 and sorted(refusals) == [1, 2, 3]
        self.assert_same_refusals(refusals, rows, lambda mat: optimal_incoherent_state(mat, self.ALPHA))

    @pytest.mark.parametrize(
        "row, kind, check",
        [(row, kinds[0], "monotonicity") for row, (_, kinds) in RULES.items()]
        + [(row, "alpha", "holder") for row in (1, 2, 3)],
    )
    def test_a_cell_refuses_only_the_trial_that_holds_the_row(self, row, kind, check, monkeypatch):
        rho = self.rows()[row]
        cfg = TrialConfig(dims=(3,), alphas=(self.ALPHA,), trials_per_cell=6, checks=(check,), kind=kind, master_seed=46)
        old = run_suite(cfg).records

        def row_at_trial_3(cell):
            cell.states[3, 0] = rho

        replaced_at_trial_3(monkeypatch, row_at_trial_3)
        new = run_suite(cfg).records
        if check == "holder":
            error = public_error(lambda: check_holder_step(rho, identity_channel(3), self.ALPHA))
        else:
            error = public_error(lambda: check_monotonicity(kind, rho, identity_channel(3), self.ALPHA))
        assert type(error) is self.RULES[row][0]
        assert_only_trial_3_changed(new, old, error)


class TestNoScalarGateOnFormedMatrices:
    """The stacks name every refusal: no package code walks a scalar gate over what a stack formed."""

    def test_run_suite(self, monkeypatch):
        gates = counting_scalar_gates(monkeypatch)
        cfg = TrialConfig(dims=(2, 3), alphas=(0.5, 2.0), trials_per_cell=4, master_seed=5)
        assert len(run_suite(cfg).records) > 4 * 4 * len(ALL_CHECKS) and not gates

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_each_public_check(self, check, monkeypatch):
        cfg = TrialConfig(dims=(3,), checks=(check,))
        inputs = list(sampled_inputs(cfg, check, 3, substream(44)))
        gates = counting_scalar_gates(monkeypatch)
        assert public_check_call(check, "alpha", inputs, 2.0)
        skew = np.zeros((3, 3))
        skew[0, 1], skew[1, 0] = 1e-9, -1e-9
        if check == "convexity":
            inputs[1] = [inputs[1][0] + skew, *inputs[1][1:]]
        else:
            inputs[0] = inputs[0] + skew
        with pytest.raises(NotHermitianError, match=r"^not Hermitian: max \|H - H\^dag\| = 2\.000e-09"):
            public_check_call(check, "alpha", inputs, 2.0)
        assert not gates

    def test_one_trial_makes_the_records_of_each_suite_trial_once(self, monkeypatch):
        import alphacoh.harness as harness

        calls, original = [], harness._one_trial

        def counting(cfg, check, dim, alpha, trial, outcome):
            calls.append((check, dim, alpha, trial))
            return original(cfg, check, dim, alpha, trial, outcome)

        monkeypatch.setattr(harness, "_one_trial", counting)
        raising_draw(monkeypatch, "density_factor", 5)  # a draw error is one of the outcomes it turns into records
        cfg = TrialConfig(dims=(2, 3), alphas=(0.5, 2.0), trials_per_cell=3, checks=("convexity", "lemma1"))
        records = run_suite(cfg).records
        assert sorted(calls) == sorted(
            (check, dim, alpha, t) for check in cfg.checks for dim in cfg.dims for alpha in cfg.alphas for t in range(3)
        )
        assert sum(bool(r.error) for r in records) == 1


class TestFrozenWitness:
    def test_stored_qutrit_violation_replays(self):
        meta = json.loads((DATA / "qutrit_witness_meta.json").read_text())
        rho = load_state(DATA / "qutrit_witness_state.json")
        ch = load_channel(DATA / "qutrit_witness_channel.json")
        assert is_incoherent(ch)
        rec = check_strong_monotonicity(meta["kind"], rho, ch, meta["alpha"])
        assert not rec.passed
        assert -rec.margin == pytest.approx(meta["gap"], abs=1e-12)
        assert rec.lhs == pytest.approx(meta["coherence_before"], abs=1e-12)
        assert rec.rhs == pytest.approx(meta["average_after"], abs=1e-12)
        assert meta["gap"] > 1e-6

    def test_family_passes_on_stored_witness(self):
        meta = json.loads((DATA / "qutrit_witness_meta.json").read_text())
        rho = load_state(DATA / "qutrit_witness_state.json")
        ch = load_channel(DATA / "qutrit_witness_channel.json")
        rec = check_strong_monotonicity("alpha", rho, ch, meta["alpha"])
        assert rec.passed


class TestInputGates:
    @pytest.mark.parametrize(
        "kwargs",
        [{"trials_per_cell": 2.5}, {"master_seed": None}, {"dims": (2.5,)}, {"n_kraus_range": (1, "4")}],
    )
    def test_integer_config_fields_refuse_other_types(self, kwargs):
        with pytest.raises(TypeError):
            TrialConfig(**kwargs)

    @pytest.mark.parametrize("alphas", [("0.5",), ("a",), (0.5, None), "0.5"])
    def test_alphas_refuse_non_numbers(self, alphas):
        # float() would parse "0.5"; the alpha rule refuses it by type
        with pytest.raises(TypeError):
            TrialConfig(alphas=alphas)

    # one alpha rule (divergence.validate_alpha) behind every entry point: the same values pass, the same refuse
    ALPHA_TYPES = [
        pytest.param(0.5, False, id="float"),
        pytest.param(np.float32(0.5), False, id="float32"),
        pytest.param(np.array(0.5), False, id="0d-array"),
        pytest.param(1, False, id="int"),
        pytest.param("0.5", True, id="str"),
        pytest.param(b"0.5", True, id="bytes"),
        pytest.param(np.complex128(0.5), True, id="complex128"),
        pytest.param([0.5], True, id="list"),
        pytest.param(None, True, id="None"),
    ]
    # each entry with its refusal of None: measure_value reads None as "no alpha", which a family refuses
    ALPHA_ENTRIES = [
        pytest.param(validate_alpha, TypeError, id="validate_alpha"),
        pytest.param(lambda a: TrialConfig(alphas=(a,), checks=("strong_monotonicity",)), TypeError, id="TrialConfig"),
        pytest.param(lambda a: search_violation(2, 1, alphas=(a,)), TypeError, id="search_violation"),
        pytest.param(lambda a: measure_value("alpha", _qubit(), a), ValueError, id="measure_value"),
        # alpha = 1 passes the type rule and meets the oracle's own ValueError
        pytest.param(lambda a: a == 1 or brute_force_min(_qubit(), a, 1e-2), TypeError, id="brute_force_min"),
    ]

    @pytest.mark.parametrize("entry, none_error", ALPHA_ENTRIES)
    @pytest.mark.parametrize("alpha, refused", ALPHA_TYPES)
    def test_one_alpha_rule_at_every_entry(self, entry, none_error, alpha, refused):
        if not refused:
            entry(alpha)
            return
        error = none_error if alpha is None else TypeError
        with pytest.raises(error) as info:
            entry(alpha)
        assert type(info.value) is error
        assert str(info.value).startswith("alpha must be a real number" if error is TypeError else "measure kind")

    # True == 1, so brute_force_min is called here without the alpha = 1 bypass of ALPHA_ENTRIES
    BOOL_ENTRIES = [pytest.param(p.values[0], id=p.id) for p in ALPHA_ENTRIES[:-1]] + [
        pytest.param(lambda a: brute_force_min(_qubit(), a, 1e-2), id="brute_force_min")
    ]

    @pytest.mark.parametrize("entry", BOOL_ENTRIES)
    @pytest.mark.parametrize("alpha", [True, False, np.True_, np.array(True)], ids=["True", "False", "np_True", "0d-bool"])
    def test_a_bool_is_no_alpha_at_any_entry(self, entry, alpha):
        # bool is a numbers.Real, so True used to read as alpha 1
        with pytest.raises(TypeError, match="^alpha must be a real number"):
            entry(alpha)

    # one count rule (divergence.check_count) behind every count argument: entry, name in its message, floor
    COUNT_ENTRIES = [
        pytest.param(lambda n: TrialConfig(dims=(n,)), "dims", 2, id="TrialConfig-dims"),
        pytest.param(lambda n: TrialConfig(trials_per_cell=n), "trials_per_cell", 1, id="TrialConfig-trials"),
        pytest.param(lambda n: TrialConfig(n_kraus_range=(n, 4)), "n_kraus_range lo", 1, id="TrialConfig-kraus-lo"),
        pytest.param(lambda n: TrialConfig(n_kraus_range=(1, n)), "n_kraus_range hi", 1, id="TrialConfig-kraus-hi"),
        pytest.param(lambda n: TrialConfig(master_seed=n), "master_seed", 0, id="TrialConfig-seed"),
        pytest.param(lambda n: search_violation(n, 10), "dimension", 2, id="search-d"),
        pytest.param(lambda n: search_violation(3, n), "trial budget", 1, id="search-budget"),
        pytest.param(lambda n: search_violation(3, 10, batch_size=n), "batch_size", 1, id="search-batch"),
        pytest.param(lambda n: search_violation(3, 10, n_kraus_range=(n, 4)), "n_kraus_range lo", 1, id="search-kraus"),
        pytest.param(lambda n: search_violation(3, 10, seed=n), "seed", 0, id="search-seed"),
        pytest.param(lambda n: max_coherence(n, 0.5), "dimension", 1, id="max_coherence"),
        pytest.param(maximally_coherent, "dimension", 1, id="maximally_coherent"),
    ]

    @staticmethod
    def _no_draws(monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a batch before refusing the arguments")

        monkeypatch.setattr("alphacoh.harness._batch_states", no_draws)

    @pytest.mark.parametrize("entry, name, least", COUNT_ENTRIES)
    @pytest.mark.parametrize(
        "value",
        [2.5, True, "3", None, np.array(2.5), np.array([2])],
        ids=["float", "bool", "str", "None", "0d-float-array", "1d-array"],
    )
    def test_one_count_rule_at_every_entry(self, entry, name, least, value, monkeypatch):
        # a float budget used to run batches until numpy refused it; True used to count as 1;
        # a numpy array is named too, not left to operator.index's nameless message
        self._no_draws(monkeypatch)
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            entry(value)

    @pytest.mark.parametrize("entry, name, least", COUNT_ENTRIES)
    def test_a_count_below_its_floor_is_refused_by_name(self, entry, name, least, monkeypatch):
        self._no_draws(monkeypatch)
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
            entry(least - 1)

    # one tolerance rule behind TrialConfig and the six public checks
    TOLERANCE_ENTRIES = [pytest.param(lambda t: TrialConfig(tolerance=t), id="TrialConfig")] + [
        pytest.param(
            lambda t, check=check: public_check_call(
                check, "tsallis", sampled_inputs(TrialConfig(dims=(3,), checks=(check,)), check, 3, substream(39)),
                0.5, t,
            ),
            id=check,
        )
        for check in ALL_CHECKS
    ]

    @pytest.mark.parametrize("entry", TOLERANCE_ENTRIES)
    @pytest.mark.parametrize(
        "tolerance, error",
        [(math.nan, ValueError), (True, TypeError), (np.array([1e-9]), TypeError), (-1e-3, ValueError)],
        ids=["nan", "bool", "array", "negative"],
    )
    def test_one_tolerance_rule_at_every_entry(self, entry, tolerance, error):
        # the public checks used to take any tolerance: NaN failed a positive margin, an array made passed an array
        with pytest.raises(error, match="^tolerance must be"):
            entry(tolerance)

    # one sequence rule behind the grid fields: a str, bytes or non-iterable value is a TypeError naming the field
    SEQUENCE_ENTRIES = [
        pytest.param(lambda v: TrialConfig(dims=v), "dims", id="TrialConfig-dims"),
        pytest.param(lambda v: TrialConfig(alphas=v), "alphas", id="TrialConfig-alphas"),
        pytest.param(lambda v: TrialConfig(checks=v), "checks", id="TrialConfig-checks"),
        pytest.param(lambda v: TrialConfig(n_kraus_range=v), "n_kraus_range", id="TrialConfig-kraus"),
        pytest.param(lambda v: search_violation(3, 10, alphas=v), "alphas", id="search-alphas"),
        pytest.param(lambda v: search_violation(3, 10, n_kraus_range=v), "n_kraus_range", id="search-kraus"),
    ]

    @pytest.mark.parametrize("entry, name", SEQUENCE_ENTRIES)
    @pytest.mark.parametrize(
        "value",
        ["lemma1", "1:4", b"23", 3, 0.5, None, np.array(2)],
        ids=["str", "range-str", "bytes", "int", "float", "None", "0d-array"],
    )
    def test_one_sequence_rule_at_every_entry(self, entry, name, value, monkeypatch):
        # a str was iterated by character, an int or a 0-d array raised without naming the field
        self._no_draws(monkeypatch)
        with pytest.raises(TypeError, match=f"^{name} must be a sequence, got "):
            entry(value)

    @pytest.mark.parametrize("entry", [pytest.param(p.values[0], id=p.id) for p in SEQUENCE_ENTRIES[3::2]])
    @pytest.mark.parametrize("value", [(), (2,), (1, 2, 3)], ids=["empty", "one", "three"])
    def test_a_range_of_other_than_two_counts_is_refused_by_name(self, entry, value, monkeypatch):
        self._no_draws(monkeypatch)
        with pytest.raises(ValueError, match=r"^n_kraus_range must hold two counts \(lo, hi\), got "):
            entry(value)

    def test_search_refuses_a_float_seed(self):
        # int() made seed 1.5 draw seed 1's batches and report seed 1.5
        with pytest.raises(TypeError):
            search_violation(3, 300, seed=1.5)

    def test_search_rejects_kind_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a batch for an unsupported kind")

        monkeypatch.setattr("alphacoh.harness._batch_states", no_draws)
        with pytest.raises(ValueError, match="'l1'"):
            search_violation(3, 10, kind="l1")


def _channel():
    return random_channel(2, 2, substream(1))


def _outcome():
    return select(_channel(), random_density(2, 2, substream(2)))[0][0]


def _result():
    return coherence_alpha(random_density(3, 3, substream(3)), 0.5)


def _report():
    return ViolationReport(
        found=True, kind="tsallis", dim=2, seed=0, trials_used=1, best_gap=0.0, alpha=0.5,
        state=random_density(2, 2, substream(4)), channel=_channel(),
    )


def _params():
    return _batch_incoherent_channels(substream(1, 2), 5, 3, 3, True)[0]


@pytest.mark.parametrize(
    "build, cls",
    [
        (_channel, KrausChannel),
        (_outcome, SelectiveOutcome),
        (_result, CoherenceResult),
        (_report, ViolationReport),
        (_params, _SearchParams),
    ],
    ids=lambda x: getattr(x, "__name__", ""),
)
def test_array_holders_compare_and_hash_by_identity(build, cls):
    a, b = build(), build()  # equal content in separate arrays
    assert type(a) is cls
    assert a == a and not (a == b) and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
