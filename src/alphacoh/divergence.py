"""Tsallis relative alpha entropy and its trace functional.

The central object is the trace functional

    F_alpha(A, B) = Tr A^alpha B^(1-alpha),        alpha in (0, 2], alpha != 1,

on positive semidefinite A, B. For states rho, sigma it yields the Tsallis
relative alpha entropy D_alpha = (F_alpha - 1) / (alpha - 1), which tends to
the (von Neumann) relative entropy as alpha -> 1; callers inside the 1e-6
window around alpha = 1 are routed to that analytic limit.

Sign bookkeeping: sgn1(alpha) = -1 on (0, 1) and +1 on (1, 2], so
sgn1 * F_alpha is the quantity that is jointly convex and contracts under
channels for every admissible alpha.

Support convention for alpha > 1: B^(1-alpha) has a negative exponent, so the
functional is +inf exactly when a null direction of B overlaps the support of
A (squared projection > 1e-10); a null direction orthogonal to A's support
contributes 0 * inf = 0 and the value stays finite. All logarithms are
natural, so entropic values are in nats.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .linalg import as_hermitian, eigh_clamped, one_size, real_number, spectrum_memo, spectrum_power

ALPHA_NEAR_ONE = 1e-6
SUPPORT_OVERLAP_TOL = 1e-10


def check_count(value, name: str, least: int) -> int:
    """value as an int >= least; a non-integer, a bool included (it reads 1 or 0), is a TypeError that names it."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def validate_alpha(alpha: float) -> float:
    """Require a real alpha in (0, 2] (real_number's types); any other type is a TypeError."""
    # a plain float, the common case, skips the slower abstract-class check
    a = alpha if type(alpha) is float else real_number(alpha, "alpha")
    if not math.isfinite(a) or a <= 0.0 or a > 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha!r}")
    return a


def near_one(alpha: float) -> bool:
    """True inside the window around alpha = 1 that routes to entropy limits."""
    return abs(float(alpha) - 1.0) < ALPHA_NEAR_ONE


def sgn1(alpha: float) -> float:
    """-1 for alpha in (0, 1), +1 for alpha in (1, 2]."""
    a = validate_alpha(alpha)
    if near_one(a):
        raise ValueError("sgn1 undefined inside the alpha = 1 window")
    return -1.0 if a < 1.0 else 1.0


def _gated_pair(a_mat, b_mat):
    """Two operands as as_hermitian returns them, or one_size's DimMismatchError when their sizes differ."""
    return one_size((as_hermitian(a_mat), as_hermitian(b_mat)))


def _clipped_spectrum(mats):
    lam, vecs = eigh_clamped(mats)
    return np.clip(lam, 0.0, None), vecs


def _support_diverges(lam_a, vecs_a, lam_b, vecs_b) -> np.ndarray:
    """Whether a null direction of B overlaps the support of A (squared projection > 1e-10), per pair."""
    cross = np.abs(vecs_a.conj().swapaxes(-1, -2) @ vecs_b) ** 2  # |<a_i|b_j>|^2
    overlap = np.where((lam_a > 0.0)[..., :, None], cross, 0.0).sum(axis=-2)
    return ((lam_b == 0.0) & (overlap > SUPPORT_OVERLAP_TOL)).any(axis=-1)


def functional_values(a_mats, b_mats, alpha: float) -> np.ndarray:
    """Tr A^alpha B^(1-alpha) of one Hermitian pair (d, d) or of stacks (..., d, d), with no input checks.

    Entry t has the bits trace_functional gives (A[t], B[t]), +inf where the
    support rule of the module doc fires (alpha > 1). The caller gates the
    operands and alpha.
    """
    lam_a, vecs_a = _clipped_spectrum(a_mats)
    lam_b, vecs_b = _clipped_spectrum(b_mats)
    a_pow, b_pow = spectrum_power(lam_a, vecs_a, alpha), spectrum_power(lam_b, vecs_b, 1.0 - alpha)
    values = np.einsum("...ij,...ji->...", a_pow, b_pow).real
    if alpha > 1.0:
        return np.where(_support_diverges(lam_a, vecs_a, lam_b, vecs_b), np.inf, values)
    return values


def trace_functional(a_mat, b_mat, alpha: float) -> float:
    """Tr A^alpha B^(1-alpha) for PSD A, B; may return math.inf (see module doc).

    Homogeneous of degree alpha in A and 1-alpha in B, so it can be applied
    to unnormalized branch outputs without dividing by their traces first.
    """
    a = validate_alpha(alpha)
    if near_one(a):
        raise ValueError("alpha within 1e-6 of 1: use the relative-entropy limit instead")
    return float(functional_values(*_gated_pair(a_mat, b_mat), a))


f_alpha = trace_functional  # its name for a pair of states


def tsallis_divergence(rho, sigma, alpha: float) -> float:
    """Tsallis relative alpha entropy (F_alpha - 1)/(alpha - 1), in nats at the limit.

    Inside the alpha = 1 window this returns relative_entropy(rho, sigma).
    Nonnegative up to round-off; +inf propagates from the functional.
    """
    a = validate_alpha(alpha)
    if near_one(a):
        return relative_entropy(rho, sigma)
    value = f_alpha(rho, sigma, a)
    if math.isinf(value):
        return math.inf
    return (value - 1.0) / (a - 1.0)


def shannon_entropy(p: np.ndarray) -> np.ndarray:
    """-sum_j p_j ln p_j in nats over the last axis, with 0 ln 0 = 0; one vector or a stack."""
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho in nats, with 0 ln 0 = 0."""
    return float(shannon_entropy(np.clip(spectrum_memo(rho).spectrum.eigenvalues, 0.0, None)))


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) = Tr rho ln rho - Tr rho ln sigma in nats.

    +inf when sigma has a null direction overlapping the support of rho,
    under the same 1e-10 overlap rule as the trace functional.
    """
    rho_mat, sigma_mat = _gated_pair(rho, sigma)
    lam_r, vecs_r = _clipped_spectrum(rho_mat)
    lam_s, vecs_s = _clipped_spectrum(sigma_mat)
    if _support_diverges(lam_r, vecs_r, lam_s, vecs_s):
        return math.inf
    plain = -float(shannon_entropy(lam_r))
    keep = lam_s > 0.0
    vecs = vecs_s[:, keep]
    # weights <v_i| rho |v_i> on sigma's support; null directions carry no rho weight
    weights = np.einsum("ij,jk,ki->i", vecs.conj().T, rho_mat, vecs).real
    cross = float(np.sum(weights * np.log(lam_s[keep])))
    return plain - cross
