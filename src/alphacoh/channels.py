"""Kraus channels, selective measurements, and incoherent-operation checks."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .states import haar_unitary, load_entries

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
    sum must be the identity within 1e-9; construction fails otherwise.
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
        complete = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0)
        deviation = float(np.max(np.abs(complete - np.eye(ops.shape[1]))))
        if deviation > COMPLETENESS_TOL:
            raise ValueError(f"completeness violated: max |sum K^dag K - I| = {deviation:.3e}")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)


@dataclass(frozen=True, eq=False)
class SelectiveOutcome:
    """One post-selected measurement branch: index, probability, normalized state."""

    index: int
    prob: float
    post_state: np.ndarray = field(repr=False)


def branches(kraus, rho, p_min: float = P_MIN):
    """Unnormalized selective branches K_n rho K_n†, their probabilities, and which to keep.

    Kraus operators (..., n, d, d) and states (..., d, d) give probs (..., n),
    branches (..., n, d, d) and the mask probs >= p_min. A stack gets the bits
    of one operator at a time from the plain matmul and trace; an einsum would not.
    """
    kraus = np.asarray(kraus, dtype=complex)
    mat = np.asarray(rho, dtype=complex)
    products = kraus @ mat[..., None, :, :] @ kraus.conj().swapaxes(-1, -2)
    probs = products.trace(axis1=-2, axis2=-1).real
    return probs, products, probs >= p_min


def kraus_stack(rows, amps) -> np.ndarray:
    """Kraus operators (..., n_kraus, d, d) holding amps[..., n, c] at (rows[..., n, c], c)."""
    ops = np.zeros(rows.shape + rows.shape[-1:], dtype=complex)
    np.put_along_axis(ops, rows[..., None, :], amps[..., None, :], axis=-2)
    return ops


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """Deterministic (non-selective) action sum_n K_n rho K_n†."""
    return sum(branches(ch.kraus, rho)[1])  # in operator order


def select(
    ch: KrausChannel, rho, p_min: float = P_MIN
) -> tuple[list[SelectiveOutcome], float]:
    """Selective measurement outcomes (prob, normalized post-state) plus dropped mass.

    Outcomes with probability below `p_min` are dropped, never normalized
    (dividing by a vanishing probability only amplifies noise); their total
    probability is returned so callers can account for it.
    """
    probs, products, kept = branches(ch.kraus, rho, p_min)
    outcomes = [
        SelectiveOutcome(int(n), float(probs[n]), products[n] / probs[n])
        for n in np.flatnonzero(kept)
    ]
    return outcomes, float(np.maximum(probs[~kept], 0.0).sum())


def is_incoherent(ch: KrausChannel, tol: float = INCOHERENCE_TOL) -> bool:
    """True when every Kraus operator has at most one entry per column above `tol`.

    That column structure maps diagonal states to diagonal states branch by
    branch, which is the defining property of an incoherent operation.
    """
    return not np.any((np.abs(ch.kraus) > tol).sum(axis=-2) > 1)


def dephasing_channel(d: int) -> KrausChannel:
    """Projective measurement in the fixed basis: K_i = |i><i|."""
    eye = np.eye(d, dtype=complex)
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
    are rejected and redrawn. One operator therefore always comes out as a
    permutation with phases.
    """
    if d < 1 or n_kraus < 1:
        raise ValueError(f"need d >= 1 and n_kraus >= 1, got d={d}, n_kraus={n_kraus}")
    for _ in range(128):
        rows = rng.integers(0, d, size=(n_kraus, d))
        weights = rng.dirichlet(np.ones(n_kraus), size=d).T  # (n_kraus, d), columns sum to 1
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_kraus, d))
        amplitudes = np.sqrt(weights) * np.exp(1j * phases)
        columns = _cancel_merge_terms(rows, amplitudes)
        if columns is None:
            continue
        return KrausChannel(kraus_stack(rows, np.array(columns).T))
    raise ValueError(
        f"no complete incoherent channel found for d={d}, n_kraus={n_kraus} after 128 draws"
    )


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
    unitarity rather than repaired after the fact.
    """
    if d < 1 or n_kraus < 1:
        raise ValueError(f"need d >= 1 and n_kraus >= 1, got d={d}, n_kraus={n_kraus}")
    big = haar_unitary(d * n_kraus, rng)
    return KrausChannel(big[:, :d].reshape(n_kraus, d, d))


def save_channel(path: str | os.PathLike, ch: KrausChannel) -> None:
    """Write a channel file: {"d": d, "kraus": [[[re, im], ...], ...]} row-major."""
    payload = {
        "d": ch.dim,
        "kraus": [
            [[float(z.real), float(z.imag)] for z in k.reshape(-1)] for k in ch.kraus
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_channel(path: str | os.PathLike) -> KrausChannel:
    """Read a channel file; completeness is enforced by the KrausChannel constructor."""
    d, entries = load_entries(path, "channel", "d", "kraus")
    if entries.ndim != 2 or entries.shape[1] != d * d:
        raise ValueError(f"{path}: 'kraus' has shape {entries.shape}, expected {d * d} entries per operator")
    try:
        return KrausChannel(entries.reshape(-1, d, d))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
