"""Spectral helpers: decomposition and fractional powers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacoh.linalg import (
    EIGENVALUE_CLAMP,
    NegativeEigenvalueError,
    NotHermitianError,
    matrix_power,
    max_asymmetry,
    powered_eigenvalues,
    spectral_decompose,
)
from conftest import random_hermitian

ROT = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


def test_spectral_decompose_reconstructs(rng):
    h = random_hermitian(4, rng(0))
    lam, vecs = spectral_decompose(h)
    rebuilt = (vecs * lam) @ vecs.conj().T
    np.testing.assert_allclose(rebuilt, h, atol=1e-12)
    assert np.all(np.diff(lam) >= 0.0)


def test_spectral_decompose_clamps_tiny_eigenvalues():
    h = np.diag([1.0, 1e-13])
    lam, _ = spectral_decompose(h)
    assert lam[0] == 0.0
    assert lam[1] == 1.0


def test_spectral_decompose_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError, match="exceeds"):
        spectral_decompose(bad)
    # widening the tolerance admits the same matrix
    spectral_decompose(bad, hermiticity_tol=2.0)


def test_max_asymmetry_hand_value():
    mat = np.array([[1.0, 2.0], [2.5, 3.0]])
    assert max_asymmetry(mat) == pytest.approx(0.5)
    assert max_asymmetry(np.zeros((0, 0))) == 0.0


class TestMatrixPower:
    def test_diagonal_square_root_exact(self):
        np.testing.assert_allclose(matrix_power(np.diag([1.0, 4.0]), 0.5), np.diag([1.0, 2.0]), atol=1e-15)

    def test_rotated_diagonal(self):
        # oracle: rotate eigenvalues through the same basis by hand
        h = ROT @ np.diag([2.0, 5.0]) @ ROT.T
        expected = ROT @ np.diag([2.0**0.3, 5.0**0.3]) @ ROT.T
        np.testing.assert_allclose(matrix_power(h, 0.3), expected, atol=1e-12)

    def test_zeroth_power_is_support_projector(self):
        out = matrix_power(np.diag([0.0, 0.5]), 0.0)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="p >= 0"):
            matrix_power(np.diag([4.0, 1.0]), -0.5)

    def test_rejects_genuinely_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalueError):
            matrix_power(np.diag([-1.0, 1.0]), 0.5)

    def test_clamp_window_negative_is_accepted(self):
        out = matrix_power(np.diag([-1e-13, 1.0]), 0.5)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)


def test_powered_eigenvalues_zero_convention():
    lam = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(powered_eigenvalues(lam, 0.0), [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(powered_eigenvalues(lam, 0.5), [0.0, 0.5, 1.0])
    # negative exponents never see the zeros (callers guard divergence)
    np.testing.assert_array_equal(powered_eigenvalues(lam, -1.0), [0.0, 4.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_first_power_is_identity_map(seed, d):
    gen = np.random.default_rng(seed)
    h = random_hermitian(d, gen)
    np.testing.assert_allclose(matrix_power(h + 3.0 * d * np.eye(d), 1.0), h + 3.0 * d * np.eye(d), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_half_power_squares_back(seed, d):
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    psd = g @ g.conj().T
    root = matrix_power(psd, 0.5)
    np.testing.assert_allclose(root @ root, psd, atol=1e-9 * max(1.0, np.max(np.abs(psd))))
