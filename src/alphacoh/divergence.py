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

import numpy as np

from .linalg import DimMismatchError, powered_eigenvalues, spectral_decompose

ALPHA_NEAR_ONE = 1e-6
SUPPORT_OVERLAP_TOL = 1e-10


def validate_alpha(alpha: float) -> float:
    """Require alpha in the admissible interval (0, 2]."""
    a = float(alpha)
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


def _pair_spectra(a_mat, b_mat, *, check_support: bool):
    """Clipped spectra ((lam_a, vecs_a), (lam_b, vecs_b)) of two same-size PSD operands.

    With `check_support`, returns None instead when a null direction of B
    overlaps the support of A (squared projection > 1e-10): the divergent case.
    """
    sa = spectral_decompose(a_mat)
    sb = spectral_decompose(b_mat)
    if sa.eigenvalues.shape != sb.eigenvalues.shape:
        raise DimMismatchError(
            f"operands differ in dimension: {sa.eigenvalues.size} vs {sb.eigenvalues.size}"
        )
    lam_a = np.clip(sa.eigenvalues, 0.0, None)
    lam_b = np.clip(sb.eigenvalues, 0.0, None)
    if check_support and np.any(lam_b == 0.0):
        support = sa.eigenvectors[:, lam_a > 0.0]
        null_vecs = sb.eigenvectors[:, lam_b == 0.0]
        overlap = np.sum(np.abs(support.conj().T @ null_vecs) ** 2, axis=0)
        if np.any(overlap > SUPPORT_OVERLAP_TOL):
            return None
    return (lam_a, sa.eigenvectors), (lam_b, sb.eigenvectors)


def trace_functional(a_mat, b_mat, alpha: float) -> float:
    """Tr A^alpha B^(1-alpha) for PSD A, B; may return math.inf (see module doc).

    Homogeneous of degree alpha in A and 1-alpha in B, so it can be applied
    to unnormalized branch outputs without dividing by their traces first.
    """
    a = validate_alpha(alpha)
    if near_one(a):
        raise ValueError("alpha within 1e-6 of 1: use the relative-entropy limit instead")
    pair = _pair_spectra(a_mat, b_mat, check_support=a > 1.0)
    if pair is None:
        return math.inf
    (lam_a, vecs_a), (lam_b, vecs_b) = pair
    a_pow = (vecs_a * powered_eigenvalues(lam_a, a)) @ vecs_a.conj().T
    b_pow = (vecs_b * powered_eigenvalues(lam_b, 1.0 - a)) @ vecs_b.conj().T
    return float(np.einsum("ij,ji->", a_pow, b_pow).real)


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


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho in nats, with 0 ln 0 = 0."""
    lam = np.clip(spectral_decompose(rho).eigenvalues, 0.0, None)
    positive = lam[lam > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) = Tr rho ln rho - Tr rho ln sigma in nats.

    +inf when sigma has a null direction overlapping the support of rho,
    under the same 1e-10 overlap rule as the trace functional.
    """
    pair = _pair_spectra(rho, sigma, check_support=True)
    if pair is None:
        return math.inf
    (lam_r, _), (lam_s, vecs_s) = pair
    positive_r = lam_r[lam_r > 0.0]
    plain = float(np.sum(positive_r * np.log(positive_r)))
    rho_mat = np.asarray(rho, dtype=complex)
    keep = lam_s > 0.0
    vecs = vecs_s[:, keep]
    # weights <v_i| rho |v_i> on sigma's support; null directions carry no rho weight
    weights = np.einsum("ij,jk,ki->i", vecs.conj().T, rho_mat, vecs).real
    cross = float(np.sum(weights * np.log(lam_s[keep])))
    return plain - cross
