"""Kraus channels, selective measurements, and incoherent-operation checks."""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .divergence import check_count
from .linalg import DimMismatchError, as_square_matrix, raise_first, refusals_where
from .states import ginibre, haar_from_ginibre, load_entries, save_entries

COMPLETENESS_TOL = 1e-9
INCOHERENCE_TOL = 1e-10
P_MIN = 1e-12


class NotIncoherentChannelError(ValueError):
    """Channel fails the incoherent-operation structure test."""


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel given by square Kraus operators on one dimension.

    Equal square operators or a ready stack become one read-only complex
    (n, d, d) array, which `branches` reads without a copy. The completeness
    sum must be the identity within 1e-9 (completeness_refusals); construction
    fails otherwise.
    """

    kraus: np.ndarray

    def __post_init__(self):
        try:
            ops = np.array(self.kraus, dtype=complex)
        except ValueError as exc:  # operators of different shapes do not stack
            raise ValueError(f"Kraus operators must share one square shape: {exc}") from None
        if ops.ndim and not len(ops):
            raise ValueError("channel needs at least one Kraus operator")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"Kraus operators must share one square shape, got {ops.shape[1:]}")
        if not np.all(np.isfinite(ops)):
            raise ValueError("Kraus entries must be finite")
        raise_first(completeness_refusals(ops[None]))
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)


def completeness_refusals(kraus: np.ndarray) -> dict[int, ValueError]:
    """The completeness rule on a stack of channels (channels, n, d, d): a ValueError per refused index.

    A channel is refused when max |sum_n K_n^dag K_n - I| exceeds 1e-9. Zero
    operators, the padding of a ragged stack, add nothing to the sum.
    """
    complete = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
    deviation = np.abs(complete - np.eye(kraus.shape[-1])).max(axis=(-2, -1))
    message = "completeness violated: max |sum K^dag K - I| = {:.3e}"
    return refusals_where(deviation > COMPLETENESS_TOL, lambda t: ValueError(message.format(deviation[t])))


@dataclass(frozen=True, eq=False)
class SelectiveOutcome:
    """One post-selected measurement branch: index, probability, normalized state."""

    index: int
    prob: float
    post_state: np.ndarray = field(repr=False)


def _products(kraus, rho) -> np.ndarray:
    """K_n rho K_n† for Kraus operators (..., n, d, d) and states (..., d, d): (..., n, d, d)."""
    kraus = np.asarray(kraus, dtype=complex)
    mat = np.asarray(rho, dtype=complex)
    return kraus @ mat[..., None, :, :] @ kraus.conj().swapaxes(-1, -2)


def branches(kraus, rho):
    """Unnormalized selective branches K_n rho K_n†, their probabilities, and which to keep.

    Kraus operators (..., n, d, d) and states (..., d, d) give probs (..., n),
    branches (..., n, d, d) and the mask probs >= P_MIN. A stack gets the bits
    of one operator at a time from the plain matmul and trace; an einsum would not.
    """
    products = _products(kraus, rho)
    probs = products.trace(axis1=-2, axis2=-1).real
    return probs, products, probs >= P_MIN


def kraus_stack(rows, amps) -> np.ndarray:
    """Kraus operators (..., n_kraus, d, d) holding amps[..., n, c] at (rows[..., n, c], c)."""
    ops = np.zeros(rows.shape + rows.shape[-1:], dtype=complex)
    np.put_along_axis(ops, rows[..., None, :], amps[..., None, :], axis=-2)
    return ops


def apply_channel(ch: KrausChannel | np.ndarray, rho) -> np.ndarray:
    """Deterministic (non-selective) action sum_n K_n rho K_n†, summed in operator order.

    Takes a channel and a state (gated by _channel_operand), or a Kraus stack
    (..., n, d, d) and states (..., d, d), ungated; each image of a stack has
    the bits of its own. It forms the branches as `branches` does, without
    their traces.
    """
    if isinstance(ch, KrausChannel):
        ch, rho = ch.kraus, _channel_operand(ch, rho)
    return sum(np.moveaxis(_products(ch, rho), -3, 0))


def _channel_operand(ch: KrausChannel, rho) -> np.ndarray:
    """rho as a finite square matrix (as_square_matrix) of the channel's dimension, else DimMismatchError."""
    mat = as_square_matrix(rho, "state")
    if len(mat) != ch.dim:
        raise DimMismatchError(f"state: a {len(mat)}-dimensional state on a {ch.dim}-dimensional channel")
    return mat


def select(ch: KrausChannel, rho) -> tuple[list[SelectiveOutcome], float]:
    """Selective measurement outcomes (prob, normalized post-state) plus dropped mass.

    Outcomes with probability below `P_MIN` are dropped, never normalized
    (dividing by a vanishing probability only amplifies noise); their total
    probability is returned so callers can account for it. rho must be a
    finite square matrix of the channel's dimension.
    """
    probs, products, kept = branches(ch.kraus, _channel_operand(ch, rho))
    outcomes = [
        SelectiveOutcome(int(n), float(probs[n]), products[n] / probs[n])
        for n in np.flatnonzero(kept)
    ]
    return outcomes, float(np.maximum(probs[~kept], 0.0).sum())


def is_incoherent(ch: KrausChannel) -> bool:
    """True when every Kraus operator has at most one entry per column above INCOHERENCE_TOL.

    That column structure maps diagonal states to diagonal states branch by
    branch, which is the defining property of an incoherent operation.
    """
    return bool(incoherent_mask(ch.kraus))


def incoherent_mask(kraus: np.ndarray) -> np.ndarray:
    """is_incoherent of each channel of a Kraus stack (..., n, d, d); zero padding operators pass."""
    return ~np.any((np.abs(kraus) > INCOHERENCE_TOL).sum(axis=-2) > 1, axis=(-2, -1))


def dephasing_channel(d: int) -> KrausChannel:
    """Projective measurement in the fixed basis: K_i = |i><i|, for a count d >= 1."""
    eye = np.eye(check_count(d, "d", 1), dtype=complex)
    return KrausChannel(eye[:, :, None] * eye[:, None, :])


def random_incoherent_channel(d: int, n_kraus: int, rng: np.random.Generator) -> KrausChannel:
    """Random incoherent channel, complete by construction.

    For each input column j: Dirichlet weights w_nj over the operators,
    uniform phases, and a target row f_n(j) drawn independently per (n, j),
    so one operator may merge several columns into one row. Each merge makes
    sum_n K_n^dag K_n pick up an off-diagonal cross term, so the amplitude
    vector of every column is projected against the merge-masked vectors of
    the earlier columns before use; the cross terms then cancel exactly and
    the unit column norms give completeness with no repair step.

    A projection can annihilate a column (the constraints admit no solution
    for that row draw, certain with one operator and a merge); such draws
    are rejected and redrawn until one is feasible. One operator therefore
    always comes out as a permutation with phases, after about d^d/d! draws.
    A draw whose row structure alone dooms it is rejected before any
    projection: see _structurally_infeasible. Rows, weights and phases are
    drawn in the same order either way, so the stream is the same.

    The draw is incoherent_draw's and the formation kraus_stack's, which the
    suite runs once per cell on the zero-padded draws of all its trials.
    """
    return KrausChannel(kraus_stack(*incoherent_draw(d, n_kraus, rng)))


def incoherent_draw(d: int, n_kraus: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """random_incoherent_channel's rows and amplitudes, each (n_kraus, d), for kraus_stack.

    Operator n puts amps[n, c] at (rows[n, c], c).
    """
    d, n_kraus = check_count(d, "d", 1), check_count(n_kraus, "n_kraus", 1)
    while True:  # ends: a draw with injective rows in every operator needs no projection
        rows = rng.integers(0, d, size=(n_kraus, d))
        weights = rng.dirichlet(np.ones(n_kraus), size=d).T  # (n_kraus, d), columns sum to 1
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_kraus, d))
        if _structurally_infeasible(rows):
            continue
        amplitudes = np.sqrt(weights) * np.exp(1j * phases)
        columns = _cancel_merge_terms(rows, amplitudes)
        if columns is not None:
            return rows, np.array(columns).T


def _structurally_infeasible(rows: np.ndarray) -> bool:
    """True when some column j shares a row with at least n_kraus earlier columns.

    Those m_j >= n_kraus constraint vectors live in C^n_kraus, so the QR in
    _cancel_merge_terms returns a square, unitary Q and the projection wipes
    column j out whatever the amplitudes. With one operator this reads "the
    rows are not a permutation".
    """
    columns = list(zip(*rows.tolist()))  # column j's row in each operator
    for j, column in enumerate(columns):
        # m_j: earlier columns that share a row with column j in some operator
        if sum(any(map(operator.eq, earlier, column)) for earlier in columns[:j]) >= len(rows):
            return True
    return False


def _cancel_merge_terms(rows: np.ndarray, amplitudes: np.ndarray):
    """Orthogonalize column amplitude vectors against merge-masked predecessors.

    Returns the list of unit column vectors, or None when a projection wipes
    a column out (norm below 1e-6; the row draw is infeasible).
    """
    n_kraus, d = rows.shape
    columns: list[np.ndarray] = []
    for j in range(d):
        vec = amplitudes[:, j].copy()
        constraints = []
        for k in range(j):
            mask = rows[:, k] == rows[:, j]
            if mask.any():
                constraints.append(np.where(mask, columns[k], 0.0))
        if constraints:
            # cross term (k, j) is vdot(masked column k, column j); project onto
            # the orthogonal complement of the span of those masked vectors
            basis, _ = np.linalg.qr(np.array(constraints).T)
            vec = vec - basis @ (basis.conj().T @ vec)
        norm = np.linalg.norm(vec)
        if norm < 1e-6:
            return None
        columns.append(vec / norm)
    return columns


def random_channel(d: int, n_kraus: int, rng: np.random.Generator) -> KrausChannel:
    """Arbitrary random channel: d-column blocks of a Haar unitary on d * n_kraus.

    The stacked blocks form an isometry, so completeness is inherited from
    unitarity rather than repaired after the fact. The draw is channel_draw's;
    the formation, haar_from_ginibre and isometry_kraus, runs in the suite once
    per cell and unitary size.
    """
    return KrausChannel(isometry_kraus(haar_from_ginibre(channel_draw(d, n_kraus, rng)), d))


def channel_draw(d: int, n_kraus: int, rng: np.random.Generator) -> np.ndarray:
    """The Ginibre matrix (d n_kraus, d n_kraus) behind random_channel's Haar unitary, after its count gates."""
    d, n_kraus = check_count(d, "d", 1), check_count(n_kraus, "n_kraus", 1)
    return ginibre((d * n_kraus, d * n_kraus), rng)


def isometry_kraus(unitary: np.ndarray, d: int) -> np.ndarray:
    """Kraus stack (..., n, d, d): the first d columns of unitaries (..., n d, n d), cut into n row blocks."""
    return unitary[..., :d].reshape(*unitary.shape[:-2], -1, d, d)


def save_channel(path: str | os.PathLike, ch: KrausChannel) -> None:
    """Write a channel file: {"d": d, "kraus": [[[re, im], ...], ...]} row-major."""
    save_entries(path, "d", ch.dim, "kraus", ch.kraus.reshape(ch.n_kraus, -1))


def load_channel(path: str | os.PathLike) -> KrausChannel:
    """Read a channel file; completeness is enforced by the KrausChannel constructor."""
    d, entries = load_entries(path, "channel", "d", "kraus")
    if entries.ndim != 2 or entries.shape[1] != d * d:
        raise ValueError(f"{path}: 'kraus' has shape {entries.shape}, expected {d * d} entries per operator")
    try:
        return KrausChannel(entries.reshape(-1, d, d))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
