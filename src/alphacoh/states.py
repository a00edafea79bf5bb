"""Density matrices, probability vectors, and seeded random generation.

States are plain complex ndarrays and probability vectors are plain float
ndarrays; the validators below are the type gates, applied at construction
boundaries (file loads, user input) rather than inside hot loops. Generators
are deterministic functions of a `numpy.random.Generator`, and per-trial
substreams come from `SeedSequence` spawn keys so a master seed reproduces
every draw regardless of execution order.
"""

from __future__ import annotations

import json
import operator
import os

import numpy as np

from .divergence import check_count
from .linalg import NegativeEigenvalueError, NotHermitianError, as_square_matrix, psd_refusals, raise_first
from .linalg import spectrum_memo

TRACE_TOL = 1e-10
PROB_SUM_TOL = 1e-12


class BadRankError(ValueError):
    """Requested rank outside 1..dim."""


class BadWeightsError(ValueError):
    """Weights do not form a probability vector."""


def validate_density(rho, name: str = "state") -> np.ndarray:
    """Check the density-matrix invariants and return the coerced array.

    Invariants, each reported after `name` on failure: square, nonempty and
    finite, Hermitian within 1e-10 (NotHermitianError), PSD as matrix_power
    has it (NegativeEigenvalueError), trace within 1e-10 of 1.
    """
    mat = as_square_matrix(rho, name=name)
    try:  # the spectrum the measures of the state then reuse
        raise_first(psd_refusals(spectrum_memo(mat).spectrum.eigenvalues))
    except (NotHermitianError, NegativeEigenvalueError) as exc:
        raise type(exc)(f"{name}: {exc}") from None
    trace = mat.trace()
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"{name}: trace violated, Tr = {trace:.12g}")
    return mat


def validate_probability_vector(p, name: str = "distribution") -> np.ndarray:
    """Check realness, finiteness, nonnegativity and unit sum (within 1e-12), else raise BadWeightsError."""
    vec = np.asarray(p)
    if np.iscomplexobj(vec):
        if np.any(vec.imag != 0.0):  # a float cast would drop it with only a ComplexWarning
            raise BadWeightsError(f"{name}: entries must be real, max |imag| = {np.abs(vec.imag).max():.3e}")
        vec = vec.real
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise BadWeightsError(f"{name}: expected a nonempty 1-D vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise BadWeightsError(f"{name}: entries must be finite")
    if vec.min() < 0.0:
        raise BadWeightsError(f"{name}: nonnegativity violated, min entry {vec.min():.3e}")
    total = vec.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise BadWeightsError(f"{name}: normalization violated, sum = {total:.15g}")
    return vec


def embed_diagonal(probs) -> np.ndarray:
    """Diagonal density matrix carrying the given probability vector."""
    vec = validate_probability_vector(probs)
    return np.diag(vec).astype(complex)


def dephase(rho) -> np.ndarray:
    """Diagonal of a state in the fixed basis, as a probability vector.

    Tiny negatives are clamped to 0 and the vector is renormalized, so
    round-off on a valid input state never leaks past the 1e-12 sum gate.
    A non-square matrix, one with a non-finite entry, and one whose clamped
    diagonal sums to 0 (no distribution to renormalize) are refused.
    """
    mat = as_square_matrix(rho)
    diag = np.clip(np.diag(mat).real, 0.0, None)
    total = diag.sum()
    if total == 0.0:
        raise BadWeightsError(f"dephased diagonal must have a positive sum, got {total}")
    return diag / total


def maximally_coherent(d: int, phases=None) -> np.ndarray:
    """Pure state with all basis populations 1/d and free phases.

    Parameters
    ----------
    d : int
        Dimension, >= 1.
    phases : array_like of float, optional
        One finite phase per amplitude; defaults to all zeros.
    """
    d = check_count(d, "dimension", 1)
    if phases is None:
        phases = np.zeros(d)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (d,):
        raise ValueError(f"expected {d} phases, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"phases must be finite, got {phases.tolist()}")
    amplitudes = np.exp(1j * phases) / np.sqrt(d)
    return np.outer(amplitudes, amplitudes.conj())


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for (master seed, key...).

    SeedSequence spawn keys give the splittable-stream behavior the
    reproducibility contract needs: the stream for a given key is the same
    no matter how many other streams were opened or in what order.
    """
    # operator.index refuses a float seed or key, which int() would truncate to another stream
    ss = np.random.SeedSequence(operator.index(master_seed), spawn_key=tuple(map(operator.index, key)))
    return np.random.default_rng(ss)


def random_density(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix of the given rank (normalized Ginibre product G G†).

    Exactly `d - rank` eigenvalues are zero up to round-off. The draw is
    density_factor's and the formation state_from_factor's, which the suite
    runs once per cell on every factor of one rank.
    """
    return state_from_factor(density_factor(d, rank, rng))


def density_factor(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """The Ginibre factor G (d, rank) of random_density, after its gates on d and rank."""
    d = check_count(d, "d", 1)
    try:  # a non-integer rank is check_count's TypeError; an integer outside 1..d is a BadRankError
        if check_count(rank, "rank", 1) > d:
            raise ValueError
    except ValueError:
        raise BadRankError(f"rank must lie in 1..{d}, got {rank}") from None
    return ginibre((d, rank), rng)


def ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre array: standard normal real parts, then standard normal imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def state_from_factor(g: np.ndarray) -> np.ndarray:
    """G G† / Tr G G† for one factor (d, r) or a stack (..., d, r), the same bits either way."""
    mat = g @ g.conj().swapaxes(-1, -2)
    return mat / mat.trace(axis1=-2, axis2=-1).real[..., None, None]


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: the rank-one random_density."""
    return random_density(d, 1, rng)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: haar_from_ginibre of a d x d Ginibre matrix, for a count d >= 1."""
    d = check_count(d, "d", 1)
    return haar_from_ginibre(ginibre((d, d), rng))


def haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """The Haar unitary Q of G = QR, R's diagonal phases divided out, for one square G or a stack.

    Without the phase fix the QR convention skews the distribution away from
    Haar. A stacked QR factors each matrix alone, so a stack has the bits of
    one matrix at a time.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def save_state(path: str | os.PathLike, rho) -> None:
    """Write a state file: {"dim": d, "entries": [[re, im], ...]} in row-major order."""
    mat = np.asarray(rho, dtype=complex)
    save_entries(path, "dim", mat.shape[0], "entries", mat.reshape(-1))


def save_entries(path: str | os.PathLike, dim_key: str, d: int, entries_key: str, entries) -> None:
    """Write {dim_key: d, entries_key: [..., [re, im]]}, the file load_entries reads back bit for bit."""
    z = np.asarray(entries, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({dim_key: d, entries_key: np.stack([z.real, z.imag], axis=-1).tolist()}, fh)
        fh.write("\n")


def read_json(path: str | os.PathLike):
    """Parsed JSON of a file; text that does not parse raises a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def load_entries(path: str | os.PathLike, kind: str, dim_key: str, entries_key: str):
    """(d, complex entries) from a JSON {dim_key: d, entries_key: [..., [re, im]]} file.

    Malformed content raises a ValueError that names the file. The entries are
    the float pairs viewed as complex, so they keep their exact bits.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or dim_key not in payload or entries_key not in payload:
        raise ValueError(f"{path}: {kind} file needs '{dim_key}' and '{entries_key}' keys")
    d = payload[dim_key]
    try:
        if type(d) is not int:  # int() would take 2.7, true and "2"
            raise TypeError(f"{dim_key} must be a JSON integer, got {d!r}")
        pairs = np.array(payload[entries_key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {kind} file: {exc}") from None
    if d < 1 or pairs.shape[-1:] != (2,):
        raise ValueError(f"{path}: need {dim_key} >= 1 and [re, im] entries, got {d}, shape {pairs.shape}")
    return d, pairs.view(complex)[..., 0]


def load_state(path: str | os.PathLike) -> np.ndarray:
    """Read and validate a state file written by save_state."""
    d, entries = load_entries(path, "state", "dim", "entries")
    if entries.shape != (d * d,):
        raise ValueError(f"{path}: expected {d * d} entries for dim {d}, got shape {entries.shape}")
    return validate_density(entries.reshape(d, d), name=str(path))
