"""Trace functional and divergence oracles.

Expected numbers here are hand derivations on commuting or otherwise
explicitly solvable pairs, written out in-line so the test is the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacoh.divergence import (
    SUPPORT_OVERLAP_TOL,
    f_alpha,
    functional_values,
    near_one,
    relative_entropy,
    sgn1,
    shannon_entropy,
    trace_functional,
    tsallis_divergence,
    validate_alpha,
    von_neumann_entropy,
)
from alphacoh.linalg import DimMismatchError, powered_eigenvalues, spectral_decompose
from alphacoh.states import haar_unitary, random_density, substream

RHO_DIAG = np.diag([0.75, 0.25]).astype(complex)
SIGMA_UNIFORM = np.diag([0.5, 0.5]).astype(complex)

# non-diagonal qubit state, eigenvalues (1 +/- sqrt(1/2)) / 2
RHO_TILTED = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)

ALPHA_GRID = (0.3, 0.5, 0.7, 1.3, 1.5, 2.0)


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


class TestCommutingOracles:
    def test_f2_diagonal_pair(self):
        # sum p^2/q = (9/16)/(1/2) + (1/16)/(1/2) = 10/8
        assert trace_functional(RHO_DIAG, SIGMA_UNIFORM, 2.0) == pytest.approx(1.25, abs=1e-12)

    def test_d2_diagonal_pair(self):
        assert tsallis_divergence(RHO_DIAG, SIGMA_UNIFORM, 2.0) == pytest.approx(0.25, abs=1e-12)

    def test_f_half_diagonal_pair(self):
        expected = math.sqrt(3.0 / 8.0) + math.sqrt(1.0 / 8.0)
        assert trace_functional(RHO_DIAG, SIGMA_UNIFORM, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_d_half_diagonal_pair(self):
        f_val = math.sqrt(3.0 / 8.0) + math.sqrt(1.0 / 8.0)
        expected = (f_val - 1.0) / (0.5 - 1.0)
        assert tsallis_divergence(RHO_DIAG, SIGMA_UNIFORM, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_relative_entropy_diagonal_pair(self):
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert relative_entropy(RHO_DIAG, SIGMA_UNIFORM) == pytest.approx(expected, abs=1e-12)

    def test_values_invariant_under_joint_rotation(self):
        u = rotation(0.7)
        rho = u @ RHO_DIAG @ u.conj().T
        sigma = u @ SIGMA_UNIFORM @ u.conj().T
        assert trace_functional(rho, sigma, 2.0) == pytest.approx(1.25, abs=1e-10)
        expected_half = math.sqrt(3.0 / 8.0) + math.sqrt(1.0 / 8.0)
        assert trace_functional(rho, sigma, 0.5) == pytest.approx(expected_half, abs=1e-10)


class TestTiltedOracles:
    """sigma = I/2 keeps sigma^(1-a) scalar, so f reduces to a moment of rho."""

    def test_f2_tilted(self):
        # f_2 = 2 Tr rho^2 = 2 (0.5625 + 2 * 0.0625 + 0.0625) = 1.5
        assert trace_functional(RHO_TILTED, SIGMA_UNIFORM, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_f_half_tilted(self):
        lam_hi = (1.0 + math.sqrt(0.5)) / 2.0
        lam_lo = (1.0 - math.sqrt(0.5)) / 2.0
        expected = math.sqrt(0.5) * (math.sqrt(lam_hi) + math.sqrt(lam_lo))
        assert trace_functional(RHO_TILTED, SIGMA_UNIFORM, 0.5) == pytest.approx(expected, abs=1e-12)


class TestSelfPair:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_f_of_state_with_itself_is_one(self, alpha, rng):
        rho = random_density(4, 4, rng(40, int(alpha * 10)))
        assert f_alpha(rho, rho, alpha) == pytest.approx(1.0, abs=1e-10)

    def test_divergence_of_state_with_itself_is_zero(self, rng):
        rho = random_density(3, 3, rng(41))
        for alpha in ALPHA_GRID:
            assert abs(tsallis_divergence(rho, rho, alpha)) < 1e-10
        assert abs(relative_entropy(rho, rho)) < 1e-10


class TestSupportConditions:
    def test_alpha_above_one_support_mismatch_is_inf(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        assert math.isinf(trace_functional(rho, sigma, 1.5))
        assert math.isinf(tsallis_divergence(rho, sigma, 1.5))
        assert math.isinf(relative_entropy(rho, sigma))

    def test_alpha_above_one_nested_support_is_finite(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert trace_functional(rho, rho, 1.5) == pytest.approx(1.0, abs=1e-12)
        assert tsallis_divergence(rho, rho, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_below_one_orthogonal_supports(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        # f vanishes, so the divergence saturates at 1/(1-alpha)
        assert trace_functional(rho, sigma, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert tsallis_divergence(rho, sigma, 0.5) == pytest.approx(2.0, abs=1e-12)


class TestAlphaGates:
    def test_validate_alpha_accepts_boundary(self):
        assert validate_alpha(2.0) == 2.0
        assert validate_alpha(0.1) == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 2.0 + 1e-9, math.nan, math.inf])
    def test_validate_alpha_rejects(self, bad):
        with pytest.raises(ValueError, match="alpha must lie"):
            validate_alpha(bad)

    def test_validate_alpha_reads_numpy_scalars(self):
        assert validate_alpha(np.float64(0.5)) == 0.5
        assert validate_alpha(np.float32(1.5)) == 1.5
        assert validate_alpha(np.array(2.0)) == 2.0

    @pytest.mark.parametrize("bad", ["x", None, [0.5], 0.5 + 0j])
    def test_validate_alpha_refuses_non_numbers(self, bad):
        with pytest.raises(TypeError, match="alpha must be a real number"):
            validate_alpha(bad)

    def test_near_one_window(self):
        assert near_one(1.0)
        assert near_one(1.0 + 0.9e-6)
        assert near_one(1.0 - 0.9e-6)
        assert not near_one(1.0 + 2e-6)
        assert not near_one(1.0 - 2e-6)

    def test_sgn1_values(self):
        assert sgn1(0.5) == -1.0
        assert sgn1(1.5) == 1.0
        assert sgn1(2.0) == 1.0

    def test_sgn1_rejects_window_and_bad_alpha(self):
        with pytest.raises(ValueError, match="undefined inside"):
            sgn1(1.0 + 1e-8)
        with pytest.raises(ValueError, match="alpha must lie"):
            sgn1(0.0)

    def test_trace_functional_rejects_near_one(self):
        with pytest.raises(ValueError, match="relative-entropy limit"):
            trace_functional(RHO_DIAG, SIGMA_UNIFORM, 1.0 + 1e-8)

    def test_tsallis_divergence_routes_near_one(self):
        expected = relative_entropy(RHO_DIAG, SIGMA_UNIFORM)
        assert tsallis_divergence(RHO_DIAG, SIGMA_UNIFORM, 1.0) == pytest.approx(expected, abs=1e-15)
        assert tsallis_divergence(RHO_DIAG, SIGMA_UNIFORM, 1.0 + 1e-8) == pytest.approx(
            expected, abs=1e-15
        )


class TestContinuityAtOne:
    def test_divergence_approaches_relative_entropy(self, rng):
        gen = rng(42)
        rho = random_density(3, 3, gen)
        sigma = random_density(3, 3, gen)
        limit = relative_entropy(rho, sigma)
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            assert tsallis_divergence(rho, sigma, alpha) == pytest.approx(limit, abs=1e-3)


class TestHomogeneity:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_scaling_first_argument(self, alpha, rng):
        gen = rng(43, int(alpha * 10))
        rho = random_density(3, 3, gen)
        sigma = random_density(3, 3, gen)
        base = trace_functional(rho, sigma, alpha)
        scaled = trace_functional(2.5 * rho, sigma, alpha)
        assert scaled == pytest.approx(2.5**alpha * base, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_scaling_second_argument(self, alpha, rng):
        gen = rng(44, int(alpha * 10))
        rho = random_density(3, 3, gen)
        sigma = random_density(3, 3, gen)
        base = trace_functional(rho, sigma, alpha)
        scaled = trace_functional(rho, 0.7 * sigma, alpha)
        assert scaled == pytest.approx(0.7 ** (1.0 - alpha) * base, rel=1e-10)


class TestEntropy:
    def test_pure_state_entropy_zero(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_entropy(self):
        d = 5
        assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(math.log(d), abs=1e-12)

    def test_diagonal_hand_value(self):
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert von_neumann_entropy(RHO_DIAG) == pytest.approx(expected, abs=1e-12)

    def test_shannon_entropy_of_a_stack_is_row_by_row(self):
        # zero entries add 0 ln 0 = 0 without a warning
        stack = np.array([[0.75, 0.25, 0.0], [1.0, 0.0, 0.0], [0.5, 0.25, 0.25]])
        values = shannon_entropy(stack)
        assert values.shape == (3,)
        assert values.tolist() == [shannon_entropy(row) for row in stack]
        assert values[0] == pytest.approx(-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)), abs=1e-15)
        assert values[1] == 0.0


SUITE_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0)


def per_pair_functional(a_mat, b_mat, alpha):
    """Tr A^alpha B^(1-alpha) of one pair, the support rule applied to the support and null blocks.

    trace_functional's body before it called the stacked kernel, kept as the reference.
    """
    (lam_a, vecs_a), (lam_b, vecs_b) = spectral_decompose(a_mat), spectral_decompose(b_mat)
    lam_a, lam_b = np.clip(lam_a, 0.0, None), np.clip(lam_b, 0.0, None)
    if alpha > 1.0 and np.any(lam_b == 0.0):
        overlap = np.sum(np.abs(vecs_a[:, lam_a > 0.0].conj().T @ vecs_b[:, lam_b == 0.0]) ** 2, axis=0)
        if np.any(overlap > SUPPORT_OVERLAP_TOL):
            return math.inf
    a_pow = (vecs_a * powered_eigenvalues(lam_a, alpha)) @ vecs_a.conj().T
    b_pow = (vecs_b * powered_eigenvalues(lam_b, 1.0 - alpha)) @ vecs_b.conj().T
    return float(np.einsum("ij,ji->", a_pow, b_pow).real)


class TestStackedKernel:
    """functional_values scores a stack with each pair's trace_functional bits."""

    OVERLAP, ORTHOGONAL, ZERO = -3, -2, -1  # the hand-made pairs closing every stack

    @classmethod
    def stacks(cls, d):
        """Pairs of every rank 1..d on both sides, a self pair each, then the three hand-made pairs."""
        gen = substream(7003, d)
        a_mats, b_mats = [], []
        for rank in range(1, d + 1):
            rho = random_density(d, rank, gen)
            a_mats += [rho, rho]
            b_mats += [random_density(d, d + 1 - rank, gen), rho]
        # rotated diagonal pairs: A's support is |0>; B's null direction is |0> (overlap) or |d-1> (orthogonal)
        u = haar_unitary(d, gen)
        first = np.diag(np.eye(d)[0]).astype(complex)
        for null in (0, d - 1):
            a_mats.append(u @ first @ u.conj().T)
            b_mats.append(u @ np.diag(np.where(np.arange(d) == null, 0.0, 1.0 / (d - 1))) @ u.conj().T)
        a_mats.append(np.zeros((d, d), dtype=complex))
        b_mats.append(np.zeros((d, d), dtype=complex))
        return np.array(a_mats), np.array(b_mats)

    @pytest.mark.parametrize("alpha", SUITE_ALPHAS)
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 12])
    def test_entries_have_the_scalar_bits(self, d, alpha):
        a_mats, b_mats = self.stacks(d)
        values = functional_values(a_mats, b_mats, alpha)
        assert values.shape == (len(a_mats),)
        for a_mat, b_mat, value in zip(a_mats, b_mats, values.tolist()):
            assert repr(value) == repr(trace_functional(a_mat, b_mat, alpha))
            assert repr(value) == repr(per_pair_functional(a_mat, b_mat, alpha))
        assert (values[self.OVERLAP] == math.inf) == (alpha > 1.0)
        assert math.isfinite(values[self.ORTHOGONAL])
        assert repr(values[self.ZERO].item()) == "0.0"

    def test_one_pair_is_a_scalar(self):
        value = functional_values(RHO_TILTED, SIGMA_UNIFORM, 2.0)
        assert value.shape == ()
        assert float(value) == trace_functional(RHO_TILTED, SIGMA_UNIFORM, 2.0)


class TestDimMismatch:
    def test_trace_functional(self):
        with pytest.raises(DimMismatchError):
            trace_functional(np.eye(2) / 2, np.eye(3) / 3, 1.5)

    def test_relative_entropy(self):
        with pytest.raises(DimMismatchError):
            relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), alpha_idx=st.integers(0, len(ALPHA_GRID) - 1))
def test_divergence_nonnegative(seed, alpha_idx):
    gen = substream(7001, seed)
    alpha = ALPHA_GRID[alpha_idx]
    rho = random_density(3, 3, gen)
    sigma = random_density(3, 3, gen)
    assert tsallis_divergence(rho, sigma, alpha) >= -1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_unitary_invariance(seed):
    gen = substream(7002, seed)
    rho = random_density(3, 3, gen)
    sigma = random_density(3, 3, gen)
    theta = float(gen.uniform(0.0, math.pi))
    u = np.eye(3, dtype=complex)
    u[:2, :2] = rotation(theta)
    before = trace_functional(rho, sigma, 1.5)
    after = trace_functional(u @ rho @ u.conj().T, u @ sigma @ u.conj().T, 1.5)
    assert after == pytest.approx(before, rel=1e-10, abs=1e-12)
