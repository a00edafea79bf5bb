"""Coherence quantifiers built on the Tsallis relative alpha entropy.

Two quantifiers share one diagonal statistic a_j = <j| rho^alpha |j> and its
power-mean S = sum_j a_j^(1/alpha):

* ``coherence_alpha``   C_alpha = (S - 1)/(alpha - 1) - the strongly monotone
  family. It equals the minimum over incoherent delta of
  (F_alpha^(1/alpha)(rho, delta) - 1)/(alpha - 1), attained at
  delta_j = a_j^(1/alpha) / S, and tends to the relative-entropy coherence as
  alpha -> 1.
* ``tsallis_coherence`` Ct_alpha = (S^alpha - 1)/(alpha - 1) - the minimal
  Tsallis relative alpha entropy to the incoherent set. Monotone and convex,
  but it fails strong monotonicity (the harness searches for witnesses).

Both are evaluated by one kernel, ``closed_form``: a kind-free power mean and
the kind's readout of it. ``measure_values`` is the one evaluation path of every
measure kind over a stack, shared with the harness; beside its values it returns
each refused entry's error, and the scalar API raises its state's. The scalar
API reads the spectrum from ``linalg.spectrum_memo``, with its alpha-free terms
max(lam, 0) and |V|^2, and keeps one power mean per gated alpha there, so every
kind, alpha, minimizer and oracle call on one state shares one
eigendecomposition, and each (state, alpha) pair is evaluated once.

``brute_force_min`` is the independent oracle: it minimizes the family's
objective on an explicit simplex grid, never touching the closed form, so the
two routes can be compared trial by trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .divergence import check_count, near_one, shannon_entropy, validate_alpha
from .linalg import as_hermitian, as_square_matrix, diagonal_terms, eigh_clamped, psd_refusals
from .linalg import raise_first, refusals_where, spectrum_memo, spectrum_power

DEGENERATE_DIAGONAL_TOL = 1e-14
# the 1/alpha power magnifies the ~1e-16 round-off of each a_j to ~1e-16/alpha,
# so values lose all meaning far below here and soon overflow the double range
ALPHA_FLOOR = 1e-10
ORACLE_RESOLUTION = {2: 1e-4, 3: 2e-3}
_MAX_GRID_POINTS = 5_000_000
_ORACLE_WINDOW = 1e-9  # relative distance from the objective's extreme inside which the oracle takes the root


class DimTooLargeError(ValueError):
    """Grid oracle requested beyond dimension 3."""


class DegenerateDiagonalError(ValueError):
    """All diagonal weights of rho^alpha vanished; no optimal state exists."""


class AlphaBelowFloorError(ValueError):
    """alpha below ALPHA_FLOOR, where double precision cannot resolve the 1/alpha power."""


class SkewFormsDisagreeError(ValueError):
    """The two evaluations of the summed skew information differ beyond 1e-10."""


@dataclass(eq=False)
class CoherenceResult:
    """A coherence value plus, when the measure defines one, the nearest incoherent state."""

    value: float
    optimal_delta: np.ndarray | None = field(default=None, repr=False)


def _diagonal(weights: np.ndarray, overlaps: np.ndarray, alpha: float) -> np.ndarray:
    # a_j = sum_k |<j|v_k>|^2 lam_k^alpha with every summand nonnegative, from
    # linalg.diagonal_terms of a spectrum clamped as spectral_decompose leaves it
    return (overlaps @ (weights**alpha)[..., None])[..., 0]


def closed_form(kind: str, lam: np.ndarray, vecs: np.ndarray, alpha: float):
    """C_alpha (kind "alpha") or Ct_alpha (kind "tsallis"), the optimal delta, and the refusals.

    Takes one spectrum (lam (d,), vecs (d, d)) or a stack ((n, d), (n, d, d)),
    clamped as spectral_decompose leaves it, and returns (value, delta, refusals)
    with value and delta of matching leading shape: the kind's readout of the
    kind-free power mean (_power_mean). An entry whose largest a_j is below
    DEGENERATE_DIAGONAL_TOL (no state gets there) is refused at every alpha:
    refusals maps its index to a DegenerateDiagonalError, and its value and delta
    are NaN, with no warning. The scalar API raises the refusal of its one state.
    No alpha is checked here: the scalar API and the search gate it first.
    """
    terms, refusals = _power_mean(*diagonal_terms(lam, vecs), alpha)
    return (*_readout(kind, alpha, terms), refusals)


def _power_mean(weights: np.ndarray, overlaps: np.ndarray, alpha: float) -> tuple[tuple, dict]:
    """closed_form's kind-free terms, (peak, total, delta) or (value, populations) at alpha ~ 1, and its refusals.

    S = sum_j a_j^(1/alpha) = peak^(1/alpha) total with total = sum_j (a_j/peak)^(1/alpha),
    which never loses S to underflow at small alpha, and delta_j = a_j^(1/alpha) / S.
    At alpha ~ 1 both kinds are S(diag rho) - S(rho), with the dephased populations.
    The one site of the vanished-diagonal rule: a refused entry's a_j are NaN, so its terms are too.
    """
    diag = _diagonal(weights, overlaps, 1.0 if near_one(alpha) else alpha)
    peak = diag.max(axis=-1, keepdims=True)
    vanished = peak < DEGENERATE_DIAGONAL_TOL
    refusals = refusals_where(vanished, lambda t: DegenerateDiagonalError("diagonal of rho^alpha vanished entirely"))
    if refusals:
        diag, peak = (np.where(vanished, np.nan, v) for v in (diag, peak))
    if near_one(alpha):
        pops = diag / diag.sum(axis=-1, keepdims=True)
        return (shannon_entropy(pops) - shannon_entropy(weights), pops), refusals
    roots = (diag / peak) ** (1.0 / alpha)
    total = roots.sum(axis=-1, keepdims=True)
    return (peak[..., 0], total[..., 0], roots / total), refusals


def _readout(kind: str, alpha: float, terms: tuple) -> tuple:
    """(value, delta) of kind from _power_mean's terms: (S - 1)/(alpha - 1) or (S^alpha - 1)/(alpha - 1)."""
    if near_one(alpha):
        return terms
    peak, total, delta = terms
    if kind == "tsallis":
        return (peak * total**alpha - 1.0) / (alpha - 1.0), delta
    return (peak ** (1.0 / alpha) * total - 1.0) / (alpha - 1.0), delta


def _memo_power_mean(rho, alpha: float) -> tuple:
    """_power_mean of rho's validated spectrum, kept in the spectrum's memo per gated alpha."""
    memo = spectrum_memo(rho)
    if alpha not in memo.derived:  # a refused evaluation stores nothing
        terms, refusals = _power_mean(memo.weights, memo.overlaps, alpha)
        raise_first(refusals)
        terms[-1].flags.writeable = False  # the delta leaves only as a copy
        memo.derived[alpha] = terms
    return memo.derived[alpha]


def check_alpha_floor(alpha: float) -> float:
    """validate_alpha, plus AlphaBelowFloorError when alpha is below ALPHA_FLOOR."""
    a = validate_alpha(alpha)
    if a < ALPHA_FLOOR:
        raise AlphaBelowFloorError(
            f"alpha {a!r} is below {ALPHA_FLOOR}, where the 1/alpha power "
            "cannot be resolved in double precision"
        )
    return a


def alpha_diagonal(rho, alpha: float) -> np.ndarray:
    """Diagonal of rho^alpha in the fixed basis, each entry >= 0.

    Computed from the spectrum as sum_k |<j|v_k>|^2 lam_k^alpha, which keeps
    every summand nonnegative instead of forming the full matrix power.
    """
    a = validate_alpha(alpha)
    memo = spectrum_memo(rho)
    return _diagonal(memo.weights, memo.overlaps, a)


def _family(kind: str, rho, alpha: float) -> CoherenceResult:
    a = check_alpha_floor(alpha)
    value, delta = _readout(kind, a, _memo_power_mean(rho, a))
    return CoherenceResult(float(value), delta.copy())


def coherence_alpha(rho, alpha: float) -> CoherenceResult:
    """The strongly monotone family C_alpha (relative-entropy coherence at alpha ~ 1).

    Parameters
    ----------
    rho : array_like
        Density matrix.
    alpha : float
        Order in (0, 2]. Values within 1e-6 of 1 route to the analytic limit.

    Returns
    -------
    CoherenceResult with the value and the minimizing incoherent populations.
    """
    return _family("alpha", rho, alpha)


def tsallis_coherence(rho, alpha: float) -> CoherenceResult:
    """Minimal Tsallis relative alpha entropy to the incoherent set (Ct_alpha).

    Shares the minimizer with coherence_alpha; only the outer function of the
    power mean differs, which is exactly why strong monotonicity is lost here.
    """
    return _family("tsallis", rho, alpha)


def optimal_incoherent_state(rho, alpha: float) -> np.ndarray:
    """Populations of the incoherent state closest to rho in the alpha sense (dephased at alpha ~ 1)."""
    return _memo_power_mean(rho, check_alpha_floor(alpha))[-1].copy()


def relative_entropy_coherence(rho) -> CoherenceResult:
    """S(diag(rho)) - S(rho) in nats; the optimal incoherent state is the dephased one.

    The alpha -> 1 limit of both families, evaluated by their kernel.
    """
    return _family("alpha", rho, 1.0)


@dataclass(frozen=True, eq=False)
class _LevelTable:
    """A simplex grid stored as its distinct coordinate values and an index into them.

    Point k of the grid is ``levels[index[k]]``; ``len()`` is the point count.
    """

    levels: np.ndarray  # the leading coordinates' steps + 1 values, then the last one's other values
    index: np.ndarray  # (points, d) intp positions into levels

    def __len__(self) -> int:
        return len(self.index)


@lru_cache(maxsize=8)
def _simplex_grid(d: int, steps: int) -> _LevelTable:
    """All probability vectors on the d-simplex with coordinates i/steps, as a level table.

    The leading coordinates take the steps + 1 values i/steps (np.linspace's at
    d = 2), so a point's level there is just i (and j). Only the last one,
    clip(1 - sum of the others, 0), needs np.unique, and a sorted search finds
    each point's level among its distinct values. Every point keeps the bits
    the float grid had, and the float grid itself is never stored.
    """
    count = np.arange(steps + 1)
    if d == 2:
        lead = np.linspace(0.0, 1.0, steps + 1)
        index = np.empty((steps + 1, 2), dtype=np.intp)
        index[:, 0] = count
    else:
        lead = count / steps
        index = np.empty(((steps + 1) * (steps + 2) // 2, 3), dtype=np.intp)
        index[:, 0], index[:, 1] = np.nonzero(np.add.outer(count, count) <= steps)
    last = 1.0 - lead[index[:, 0]]
    if d == 3:
        last -= lead[index[:, 1]]
    np.clip(last, 0.0, None, out=last)
    # asking for counts keeps np.unique on its in-place sort; the plain call's
    # hash path (numpy >= 2.3) imports numpy.ma, about 1 MB of resident memory
    tail, _ = np.unique(last, return_counts=True)
    # a tail value that is a leading value too keeps that level; the rest follow lead
    at = np.minimum(np.searchsorted(lead, tail), steps)
    new = lead[at] != tail
    level = np.where(new, lead.size - 1 + np.cumsum(new), at)
    index[:, -1] = np.searchsorted(tail, last)
    del last  # before the gather's temporary, so the build peaks no higher than the float grid's did
    index[:, -1] = level[index[:, -1]]
    return _LevelTable(np.concatenate([lead, tail[new]]), index)


def brute_force_min(rho, alpha: float, resolution: float) -> tuple[float, np.ndarray]:
    """Grid oracle for the family's defining minimum; dimensions 2 and 3 only.

    Minimizes (F_alpha^(1/alpha)(rho, delta) - 1)/(alpha - 1) over the grid
    points of the simplex with the given resolution and returns the smallest
    value with its argmin, the first in grid order among equal values.
    Deliberately independent of the closed form: for diagonal delta the
    functional reduces to F_alpha = sum_j a_j delta_j^(1-alpha), summed over
    the j with a_j > 0 (a point with delta_j = 0 there diverges at alpha > 1).
    Its alpha gate is the scalar API's, ALPHA_FLOOR included.

    The grid comes from a cache of level tables (_simplex_grid): each distinct
    coordinate is raised to 1 - alpha once, and one gather lays the powers out
    as the (points, d) matrix. The value rises with F_alpha when alpha > 1 and
    falls when alpha < 1, so the root is taken only within relative
    _ORACLE_WINDOW of F_alpha's extreme, when the value at a probe half as far
    out is strictly above the extreme's own. Otherwise rounding has merged
    values and the root is taken at every point. The value and argmin are
    those of the direct per-entry powers, bit for bit.
    """
    a = check_alpha_floor(alpha)
    if near_one(a):
        raise ValueError("oracle undefined within 1e-6 of alpha = 1")
    if not 1e-5 <= resolution <= 1e-2:
        raise ValueError(f"resolution must lie in [1e-5, 1e-2], got {resolution}")
    mat = as_square_matrix(rho)
    d = mat.shape[0]
    if d not in (2, 3):
        raise DimTooLargeError(f"grid oracle supports d in {{2, 3}}, got d = {d}")
    steps = int(round(1.0 / resolution))
    if d == 3 and (steps + 1) * (steps + 2) // 2 > _MAX_GRID_POINTS:
        raise ValueError(f"resolution {resolution} too fine for d = 3 (grid too large)")
    table = _simplex_grid(d, steps)
    diag_a = alpha_diagonal(mat, a)
    with np.errstate(divide="ignore"):
        powers = np.take(np.power(table.levels, 1.0 - a), table.index)
    powers[:, diag_a == 0] = 0.0  # a_j = 0 adds nothing, also where delta_j = 0 (no 0 * inf)
    f = powers @ diag_a
    edge, side, keep = (f.min(), 1.0, np.less_equal) if a > 1 else (f.max(), -1.0, np.greater_equal)
    ends = _oracle_objective(np.array([edge, edge * (1.0 + side * _ORACLE_WINDOW / 2)]), a)
    if ends[1] > ends[0]:  # the root past the window differs by ~5e-10 relative, far above its rounding
        near = np.flatnonzero(keep(f, edge * (1.0 + side * _ORACLE_WINDOW)))
    else:  # rounding merged values
        near = np.arange(len(f))
    values = _oracle_objective(f[near], a)
    best = int(np.argmin(values))
    return float(values[best]), table.levels[table.index[near[best]]]


def _oracle_objective(f: np.ndarray, a: float) -> np.ndarray:
    """(f^(1/a) - 1)/(a - 1) elementwise and in place: brute_force_min's value at F_alpha = f."""
    f **= 1.0 / a
    f -= 1.0
    f /= a - 1.0
    return f


def skew_info_sum(rho) -> float:
    """Summed basis skew information, 1 - sum_i <i|sqrt(rho)|i>^2.

    Evaluated as sum_i (<i|rho|i> - <i|sqrt(rho)|i>^2) and cross-checked
    against the commutator form -(1/2) sum_i Tr [sqrt(rho), |i><i|]^2, which
    must agree to 1e-10 or the state fails its own algebra.
    """
    return measure_value("skew", rho)


def l1_coherence(rho) -> float:
    """Sum of off-diagonal moduli."""
    return measure_value("l1", rho)


def c2_direct(rho) -> float:
    """sum_i <i|rho^2|i>^(1/2) - 1, the alpha = 2 member evaluated without eigendecomposition."""
    return measure_value("c2", rho)


def max_coherence(d: int, alpha: float) -> float:
    """Largest possible C_alpha in dimension d: (d^((alpha-1)/alpha) - 1)/(alpha - 1).

    Attained by the equal-weight pure states for every phase choice; ln d at
    the alpha ~ 1 limit.
    """
    d = check_count(d, "dimension", 1)
    a = validate_alpha(alpha)
    if near_one(a):
        return math.log(d)
    return (d ** ((a - 1.0) / a) - 1.0) / (a - 1.0)


MEASURE_KINDS = ("alpha", "tsallis", "relent", "l1", "skew", "c2")
ALPHA_KINDS = ("alpha", "tsallis")


def measure_value(kind: str, rho, alpha: float | None = None) -> float:
    """One measure of one gated state (square, finite, Hermitian) and gated alpha.

    The families need an alpha; the other kinds ignore it but still refuse one
    outside (0, 2] or under ALPHA_FLOOR. alpha, tsallis and relent (alpha 1)
    read the state's memoized power mean at alpha, and skew its memoized spectrum.
    """
    alpha = check_measure_alpha(kind, alpha)
    if kind == "relent":
        kind, alpha = "alpha", 1.0
    if kind in ALPHA_KINDS:
        return float(_readout(kind, alpha, _memo_power_mean(rho, alpha))[0])
    if kind == "skew":
        spectrum = spectrum_memo(rho).spectrum  # the gate, before rho is read
        value, refusals = _skew(np.asarray(rho, dtype=complex), *spectrum)
    else:
        value, refusals = measure_values(kind, as_hermitian(rho), alpha)
    raise_first(refusals)
    return float(value)


def check_measure_alpha(kind: str, alpha: float | None) -> float | None:
    """measure_value's alpha gate: a given alpha lies in (0, 2] and over ALPHA_FLOOR; the families need one."""
    if alpha is not None:
        return check_alpha_floor(alpha)
    if kind in ALPHA_KINDS:
        raise ValueError(f"measure kind {kind!r} needs an alpha value")
    return None


def measure_values(kind: str, states: np.ndarray, alpha: float | None = None) -> tuple[np.ndarray, dict]:
    """Any measure kind over one state (d, d) or a stack (n, d, d), with no input checks, and its refusals.

    Each entry has the bits measure_value gives that state. The refusals map each entry a kind's rule refuses
    to the error measure_value raises on that state: a vanished diagonal for the families (their entry is NaN),
    a negative eigenvalue or disagreeing forms for skew.
    """
    if kind in ("alpha", "tsallis", "relent"):
        family, order = ("alpha", 1.0) if kind == "relent" else (kind, alpha)
        value, _, refusals = closed_form(family, *eigh_clamped(states), order)
        return value, refusals
    if kind == "l1":
        mods = np.abs(states)
        return mods.sum(axis=(-2, -1)) - np.trace(mods, axis1=-2, axis2=-1), {}
    if kind == "c2":
        diag_sq = np.clip(np.diagonal(states @ states, axis1=-2, axis2=-1).real, 0.0, None)
        return np.sum(np.sqrt(diag_sq), axis=-1) - 1.0, {}
    if kind == "skew":
        return _skew(states, *eigh_clamped(states))
    raise ValueError(f"unknown measure kind {kind!r}; choose from {MEASURE_KINDS}")


def _skew(states: np.ndarray, lam: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, dict]:
    """skew_info_sum of one state or a stack from its clamped spectrum, and its refusals by index.

    A state is refused when it is not PSD (psd_refusals), then when the two forms differ beyond 1e-10.
    """
    root = spectrum_power(lam, vecs, 0.5)
    diag_root_sq = np.diagonal(root, axis1=-2, axis2=-1).real ** 2
    values = np.sum(np.diagonal(states, axis1=-2, axis2=-1).real - diag_root_sq, axis=-1)
    # -(1/2) sum_i Tr [root, |i><i|]^2 = sum_i ((root^2)_ii - root_ii^2)
    commutator = np.einsum("...ij,...ji->...", root, root).real - np.sum(diag_root_sq, axis=-1)
    flat, other = values.reshape(-1), commutator.reshape(-1)
    disagree = refusals_where(
        ~(np.abs(flat - other) <= 1e-10),
        lambda t: SkewFormsDisagreeError(f"skew information forms disagree: {flat[t]} vs {other[t]}"),
    )
    return values, {**disagree, **psd_refusals(lam)}
