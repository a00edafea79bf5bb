"""Dense Hermitian linear algebra: spectral decompositions and fractional powers.

Everything here works on plain complex ndarrays and is sized for the small
dense matrices this package cares about (dimension <= 16 or so). Fractional
powers follow the conventions needed by the divergence layer: eigenvalues
within the clamp window are treated as exact zeros, and 0**p = 0 for p >= 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-12


class DimMismatchError(ValueError):
    """Operands do not share the required square shape."""


class NotHermitianError(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NegativeEigenvalueError(ValueError):
    """Matrix has an eigenvalue below the negativity clamp."""


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix: ascending eigenvalues, eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_square_matrix(mat, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D square complex array with finite entries."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimMismatchError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def max_asymmetry(mat: np.ndarray) -> float | np.ndarray:
    """Largest entrywise deviation from Hermiticity, max |M - M†|, of one matrix or each of a stack."""
    return np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def spectral_decompose(h) -> Spectrum:
    """Eigendecompose a Hermitian matrix.

    Eigenvalues come back ascending (LAPACK order); any eigenvalue with
    |lam| < 1e-12 is clamped to exactly 0 so that downstream power and
    support logic never sees denormal noise as rank.

    Raises NotHermitianError when max |H - H†| exceeds 1e-10, reporting the
    offending deviation. The arrays are copies, the caller's to write.
    """
    return Spectrum(*(arr.copy() for arr in validated_spectrum(h)))


def validated_spectrum(h) -> Spectrum:
    """spectral_decompose without the copies: read-only arrays, shared while h keeps its exact bytes."""
    return spectrum_memo(h).spectrum


class SpectrumMemo(NamedTuple):
    """A validated spectrum, its diagonal_terms (weights, overlaps) and a dict for the caller's terms.

    The arrays are read-only; the dict is created and dropped with the spectrum.
    """

    spectrum: Spectrum
    derived: dict
    weights: np.ndarray
    overlaps: np.ndarray


def spectrum_memo(h) -> SpectrumMemo:
    """validated_spectrum with its alpha-free diagonal terms and a dict for terms derived from it.

    One entry, the last matrix that passed as_hermitian, keyed by its shape and
    the bytes of its complex coercion. A matrix edited in place is a new key;
    a refused one is never stored, so it raises every time.
    """
    mat = np.asarray(h, dtype=complex)
    return _last_spectrum(mat.shape, mat.tobytes())


@lru_cache(maxsize=1)
def _last_spectrum(shape: tuple, data: bytes) -> SpectrumMemo:
    spectrum = eigh_clamped(as_hermitian(np.frombuffer(data, dtype=complex).reshape(shape)))
    terms = diagonal_terms(*spectrum)
    for arr in (*spectrum, *terms):
        arr.flags.writeable = False
    return SpectrumMemo(spectrum, {}, *terms)


def as_hermitian(h) -> np.ndarray:
    """as_square_matrix, plus NotHermitianError when max |H - H†| exceeds HERMITICITY_TOL."""
    mat = as_square_matrix(h)
    asym = max_asymmetry(mat)
    if asym > HERMITICITY_TOL:
        raise NotHermitianError(
            f"not Hermitian: max |H - H^dag| = {asym:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    return mat


def hermitian_mask(mats) -> np.ndarray:
    """Which matrices of a square stack (..., d, d) as_hermitian accepts: finite, max |H - H†| <= 1e-10."""
    return np.isfinite(mats).all(axis=(-2, -1)) & (max_asymmetry(mats) <= HERMITICITY_TOL)


def eigh_clamped(mats) -> Spectrum:
    """Unvalidated np.linalg.eigh of one matrix or a stack, |lam| < 1e-12 set to exactly 0."""
    eigenvalues, eigenvectors = np.linalg.eigh(mats)
    eigenvalues[np.abs(eigenvalues) < EIGENVALUE_CLAMP] = 0.0
    return Spectrum(eigenvalues, eigenvectors)


def diagonal_terms(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max(lam, 0), |V|^2) of one clamped spectrum or a stack: diag H_+^p = |V|^2 @ max(lam, 0)**p."""
    return np.maximum(eigenvalues, 0.0), np.abs(eigenvectors) ** 2


def powered_eigenvalues(eigenvalues: np.ndarray, p: float) -> np.ndarray:
    """Elementwise lam**p with the 0**p = 0 convention (also at p = 0, keeping rank)."""
    out = np.zeros_like(eigenvalues)
    positive = eigenvalues > 0
    out[positive] = eigenvalues[positive] ** p
    return out


def matrix_power(h, p: float) -> np.ndarray:
    """Nonnegative fractional power of a positive semidefinite Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Hermitian PSD matrix (eigenvalues >= -1e-12; small negatives are clamped to 0).
    p : float
        Exponent >= 0. 0**p = 0, so H**0 is the support projector.
    """
    if p < 0:
        raise ValueError(f"matrix_power takes exponents p >= 0, got {p}")
    return spectrum_power(*eigh_clamped(as_hermitian(h)), p)


def spectrum_power(eigenvalues: np.ndarray, eigenvectors: np.ndarray, p: float) -> np.ndarray:
    """H**p of one clamped spectrum or a stack, with no input checks; NegativeEigenvalueError when H is not PSD."""
    if eigenvalues[..., 0].min(initial=0.0) < 0.0:
        raise NegativeEigenvalueError(
            f"eigenvalue {eigenvalues.min():.3e} below -{EIGENVALUE_CLAMP:.0e}; matrix is not PSD"
        )
    powered = powered_eigenvalues(eigenvalues, p)
    return (eigenvectors * powered[..., None, :]) @ eigenvectors.conj().swapaxes(-1, -2)
