"""Dense Hermitian linear algebra: spectral decompositions and fractional powers.

Everything here works on plain complex ndarrays and is sized for the small
dense matrices this package cares about (dimension <= 16 or so). Fractional
powers follow the conventions needed by the divergence layer: eigenvalues
within the clamp window are treated as exact zeros, and 0**p = 0 for p >= 0.
"""

from __future__ import annotations

import math
import numbers
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


def real_number(value, name: str) -> float:
    """value as a float: a non-bool real, numpy real or 0-d real array; any other type is a TypeError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)) and not (
        isinstance(value, np.ndarray) and value.shape == () and value.dtype.kind in "iuf"
    ):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_square_matrix(mat, name: str = "matrix") -> np.ndarray:
    """Coerce to a nonempty 2-D square complex array with finite entries (matrix_refusals' first rule)."""
    return _gated(mat, name, hermitian=False)


def one_size(mats):
    """mats, the operands of one call, once each is a square matrix (as_square_matrix) of the first one's size."""
    for mat in mats:
        shape = np.shape(mat)
        if len(shape) != 2 or shape[0] != shape[1]:
            as_square_matrix(mat)  # raises its DimMismatchError
        elif shape != np.shape(mats[0]):
            raise DimMismatchError(f"operands differ in dimension: {len(mats[0])} vs {shape[0]}")
    return mats


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
    return Spectrum(*(arr.copy() for arr in spectrum_memo(h).spectrum))


class SpectrumMemo(NamedTuple):
    """A validated spectrum, its diagonal_terms (weights, overlaps) and a dict for the caller's terms.

    The arrays are read-only; the dict is created and dropped with the spectrum.
    """

    spectrum: Spectrum
    derived: dict
    weights: np.ndarray
    overlaps: np.ndarray


def spectrum_memo(h) -> SpectrumMemo:
    """spectral_decompose's spectrum, uncopied, with its alpha-free diagonal terms and a dict for derived terms.

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
    return _gated(h, "matrix", hermitian=True)


def _gated(mat, name: str, hermitian: bool) -> np.ndarray:
    """mat as a square complex array, or the first refusal matrix_refusals gives it as a stack of one."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        kind = "square" if arr.size else "nonempty square"
        raise DimMismatchError(f"{name}: expected a {kind} matrix, got shape {arr.shape}")
    raise_first(matrix_refusals(arr[None], name, hermitian))
    return arr


def matrix_refusals(mats: np.ndarray, name: str = "matrix", hermitian: bool = True) -> dict[int, ValueError]:
    """as_hermitian's rules on each matrix of a square stack (n, d, d): the refused ones' errors, by index.

    The one site of both rules, which the scalar gates run on a stack of one:
    entries must be finite (a ValueError naming `name`), then, when hermitian,
    max |H - H†| must not exceed HERMITICITY_TOL (NotHermitianError).
    """
    if hermitian:
        with np.errstate(invalid="ignore"):  # inf - inf
            asym = max_asymmetry(mats)
        # a non-finite entry makes the deviation NaN or inf, so one comparison finds both rules' matrices
        refused = ~(asym <= HERMITICITY_TOL)
    else:
        refused = ~np.isfinite(mats).all(axis=(-2, -1))
    return refusals_where(refused, lambda t: (
        NotHermitianError(f"not Hermitian: max |H - H^dag| = {asym[t]:.3e} exceeds {HERMITICITY_TOL:.1e}")
        if np.isfinite(mats[t]).all() else ValueError(f"{name}: entries must be finite")))


def refusals_where(refused: np.ndarray, error) -> dict:
    """A refusal map, {index: error(index)}, at each refused entry of a stack's (n,) or (n, 1) mask."""
    rows = refused.nonzero()[0]
    return {t: error(t) for t in rows.tolist()} if len(rows) else {}  # the common case skips the comprehension


def raise_first(refusals: dict) -> None:
    """Raise the error of the lowest index of a refusal map, {index: error}, if it holds one."""
    if refusals:
        raise refusals[min(refusals)]


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
        Finite exponent >= 0 (real_number's types). 0**p = 0, so H**0 is the support projector.

    The spectrum is the memo's (spectrum_memo), shared with the measures of h.
    """
    p = real_number(p, "p")
    if not 0.0 <= p < math.inf:  # NaN fails here too, where it would power every eigenvalue to NaN
        raise ValueError(f"matrix_power takes finite exponents p >= 0, got {p}")
    spectrum = spectrum_memo(h).spectrum
    raise_first(psd_refusals(spectrum.eigenvalues))
    return spectrum_power(*spectrum, p)


def psd_refusals(eigenvalues: np.ndarray) -> dict[int, NegativeEigenvalueError]:
    """The PSD rule on a clamped ascending spectrum (d,) or a stack (n, d): each negative one's error, by index."""
    lowest = eigenvalues[..., 0].reshape(-1)
    below = f"below -{EIGENVALUE_CLAMP:.0e}; matrix is not PSD"
    return refusals_where(lowest < 0.0, lambda t: NegativeEigenvalueError(f"eigenvalue {lowest[t]:.3e} {below}"))


def spectrum_power(eigenvalues: np.ndarray, eigenvectors: np.ndarray, p: float) -> np.ndarray:
    """H**p of one clamped spectrum or a stack, with no input checks: negative eigenvalues count as 0 (psd_refusals)."""
    powered = powered_eigenvalues(eigenvalues, p)
    return (eigenvectors * powered[..., None, :]) @ eigenvectors.conj().swapaxes(-1, -2)
