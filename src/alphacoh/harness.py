"""Randomized verification harness for the coherence inequalities.

Every inequality the quantifiers are supposed to satisfy becomes a check that
turns one random trial into a TrialRecord with an explicit margin;
``run_suite`` grinds a TrialConfig's (check, dim, alpha) grid through those
checks with per-trial RNG substreams, so a master seed reproduces every record
no matter how many workers ran them. ``search_violation`` does the opposite
job: it hunts for strong-monotonicity violations of the non-strongly-monotone
quantifier and packages the witness for exact replay.

Degenerate trials are ones whose inequality direction is unfalsifiable
numerically (a divergent term for alpha > 1, e.g. an outcome probability
under the drop threshold while the paired branch keeps weight). They are
recorded as passed but counted separately and excluded from worst-margin
bookkeeping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import (
    KrausChannel,
    NotIncoherentChannelError,
    _cancel_merge_terms,
    apply_channel,
    branches,
    channel_draw,
    completeness_refusals,
    incoherent_draw,
    incoherent_mask,
    isometry_kraus,
    kraus_stack,
    pure_branches,
    select,  # unused here; the benchmark reads and patches it under this module too
    unprojected_draw,
)
from .coherence import (
    ALPHA_KINDS,
    MEASURE_KINDS,
    check_alpha_floor,
    check_measure_alpha,
    closed_form,
    measure_value,
    measure_values,
    pure_values,
)
from .divergence import functional_values, near_one, sgn1
from .linalg import as_square_matrix, check_count, eigh_clamped, matrix_refusals, one_size, raise_first, real_number
from .states import BadWeightsError, density_factor, ginibre, haar_from_ginibre, state_from_factor
from .states import substream, validate_probability_vector

DEFAULT_TOLERANCE = 1e-9
VIOLATION_GAP = 1e-6
SEARCH_ALPHAS = (0.3, 0.5, 1.5, 2.0)
REFINE_TRIGGER = 1e-8
REFINE_TARGET = 1e-4  # coordinate ascent stops once a sweep ends at this gap
REFINE_SWEEPS = 40  # or after this many sweeps
# a batch's best gap within this of zero seeds coordinate ascent; raw draws
# alone essentially never cross into the (thin) violating set
ASCEND_WINDOW = 1e-2
SEARCH_BATCH = 4096  # the draws of a search batch, and at most those of a suite task unless one cell holds more
SCORE_CHUNK = 512  # the draws of a search batch formed into Kraus stacks and scored at once

ALL_CHECKS = (
    "strong_monotonicity",
    "monotonicity",
    "convexity",
    "lemma1",
    "holder",
    "observations",
)
# checks built on the trace functional, undefined inside the alpha = 1 window
DIVERGENCE_CHECKS = frozenset({"lemma1", "holder", "observations"})
CHANNEL_CHECKS = ("strong_monotonicity", "monotonicity", "holder")  # a trial is a state and an incoherent channel
WITNESS_CHECKS = ("strong_monotonicity", "monotonicity")  # their records' state and channel are a witness
RANK_POLICIES = ("full", "mixed-ranks")  # every state of full rank, or of a rank drawn uniformly from 1..d


def _entries(value, name: str) -> tuple:
    """The entries of a sequence field as a tuple; a str, bytes or non-iterable value is a TypeError naming it."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        entries = iter(value)
    except TypeError:
        raise TypeError(f"{name} must be a sequence, got {value!r}") from None
    return tuple(entries)


def _check_kraus_range(n_kraus_range) -> tuple[int, int]:
    """The (lo, hi) operator-count range of the drawn channels, two counts with 1 <= lo <= hi."""
    pair = _entries(n_kraus_range, "n_kraus_range")
    if len(pair) != 2:
        raise ValueError(f"n_kraus_range must hold two counts (lo, hi), got {n_kraus_range!r}")
    lo = check_count(pair[0], "n_kraus_range lo", 1)
    return lo, check_count(pair[1], "n_kraus_range hi", lo)


def _field(value, name: str, rule) -> tuple:
    """A grid field's _entries, each through rule, nonempty and distinct: rebuild_witness finds a cell by its key."""
    entries = tuple(rule(entry) for entry in _entries(value, name))
    if not entries:
        raise ValueError(f"{name} must be nonempty")
    if len(set(entries)) < len(entries):
        raise ValueError(f"{name} must not repeat, got {entries}")
    return entries


def _check_tolerance(tolerance) -> float:
    """A record tolerance: a real number in (0, inf), since NaN would fail every trial and inf pass every one."""
    t = real_number(tolerance, "tolerance")
    if not 0.0 < t < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    return t


@dataclass(frozen=True)
class TrialConfig:
    """Grid and policies for one suite run; identity of this object fixes every draw."""

    dims: tuple[int, ...] = (2, 3, 4)
    alphas: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0)
    trials_per_cell: int = 100
    n_kraus_range: tuple[int, int] = (1, 4)
    master_seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    rank_policy: str = "mixed-ranks"
    checks: tuple[str, ...] = ALL_CHECKS
    kind: str = "alpha"

    def __post_init__(self):
        object.__setattr__(self, "dims", _field(self.dims, "dims", lambda d: check_count(d, "dims", 2)))
        object.__setattr__(self, "alphas", _field(self.alphas, "alphas", check_alpha_floor))
        object.__setattr__(self, "trials_per_cell", check_count(self.trials_per_cell, "trials_per_cell", 1))
        object.__setattr__(self, "n_kraus_range", _check_kraus_range(self.n_kraus_range))
        object.__setattr__(self, "master_seed", check_count(self.master_seed, "master_seed", 0))
        object.__setattr__(self, "tolerance", _check_tolerance(self.tolerance))
        object.__setattr__(self, "checks", _field(self.checks, "checks", str))
        if self.rank_policy not in RANK_POLICIES:
            raise ValueError(f"rank_policy must be one of {RANK_POLICIES}, got {self.rank_policy!r}")
        for check in self.checks:
            if check not in ALL_CHECKS:
                raise ValueError(f"unknown check {check!r}; choose from {ALL_CHECKS}")
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {MEASURE_KINDS}")
        if DIVERGENCE_CHECKS.intersection(self.checks) and any(map(near_one, self.alphas)):
            raise ValueError(
                "alpha values within 1e-6 of 1 are not valid for the "
                "divergence-based checks (lemma1/holder/observations)"
            )


@dataclass(frozen=True)
class TrialRecord:
    """One checked inequality instance.

    margin = lhs - rhs, and passed requires margin >= -tolerance scaled by
    max(1, |lhs|, |rhs|): the functional is unbounded, so a fixed absolute
    cut would flag round-off ties on large values as violations while the
    scaled rule stays exactly the absolute rule for order-one quantities.
    """

    check_name: str
    dim: int
    alpha: float
    kind: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    seed: int
    trial: int
    degenerate: bool = False
    error: str = ""


@dataclass
class CheckStats:
    """Aggregate over one record stream key."""

    trials: int = 0
    passes: int = 0
    failures: int = 0
    degenerate: int = 0
    worst_margin: float = math.inf

    def absorb(self, record: TrialRecord) -> None:
        self.trials += 1
        if record.degenerate:
            self.degenerate += 1
            return
        if record.passed:
            self.passes += 1
        else:
            self.failures += 1
        if record.margin < self.worst_margin:
            self.worst_margin = record.margin


@dataclass
class SuiteSummary:
    """Everything a suite run produced, records ordered by (check, dim, alpha, trial)."""

    config: TrialConfig
    records: list[TrialRecord]
    stats: dict[str, CheckStats]
    all_passed: bool
    runtime_s: float


@dataclass(eq=False)
class ViolationReport:
    """Outcome of a strong-monotonicity violation search."""

    found: bool
    kind: str
    dim: int
    seed: int
    trials_used: int
    best_gap: float
    alpha: float | None = None
    state: np.ndarray | None = field(default=None, repr=False)
    channel: KrausChannel | None = field(default=None, repr=False)
    coherence_before: float = math.nan
    average_after: float = math.nan
    gap: float = math.nan
    trial_index: int = -1
    refined: bool = False


# the two sides of a record whose comparison a divergent value made unfalsifiable
DIVERGED = (math.inf, math.inf)


def _diverged(*values) -> bool:
    """Whether an F value is +inf and none is NaN (a NaN no rule names is recorded as it is)."""
    return any(map(math.isinf, values)) and not any(map(math.isnan, values))


def _record(check, dim, alpha, kind, lhs, rhs, tolerance, seed, trial):
    # builtin floats keep repr-based serialization downstream clean
    lhs, rhs = float(lhs), float(rhs)
    if math.isinf(lhs) or math.isinf(rhs):  # a divergent side: degenerate
        return TrialRecord(check, dim, alpha, kind, lhs, rhs, math.inf, True, seed, trial, True)
    margin = lhs - rhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return TrialRecord(check, dim, alpha, kind, lhs, rhs, margin, margin >= -tolerance * scale, seed, trial)


class _Cell(NamedTuple):
    """A cell's trials as stacks, one leading entry per trial; ragged parts are zero-padded beside their masks.

    states (T, m, d, d) holds each trial's states in _Draw.factors order (rho; rho and sigma; the convexity
    states; or rho, sigma, then each observations member's pair), masked by real_states as the weights are
    (observations: by real_states[:, 2::2]). A field the check has no use for is None.
    """

    states: np.ndarray
    kraus: np.ndarray | None = None  # (T, n, d, d)
    real_kraus: np.ndarray | None = None  # (T, n)
    real_states: np.ndarray | None = None  # (T, m)
    weights: np.ndarray | None = None  # (T, s): the convexity weights, or the observations ensemble's
    unitaries: np.ndarray | None = None  # (T, d, d)
    populations: np.ndarray | None = None  # (T, k): the observations ancilla's diagonal


def _input_gate(check: str, cell: _Cell) -> dict[int, Exception]:
    """The gate check_<check> and _run_cells put on a cell: the error of each refused trial, by index.

    Its channels must be complete (completeness_refusals: a KrausChannel met
    that when it was built, a formed cell meets it here) and, for the channel
    checks, incoherent; an observations unitary U must meet U^dag U = I, the
    completeness of U as a one-operator channel. A channel refused on two
    counts gets the completeness error, and a trial whose channel and unitary
    are both refused gets the channel's.
    """
    if cell.kraus is None:
        return {}
    refusals = {}
    if check in CHANNEL_CHECKS:
        stated = "the power-mean step is stated" if check == "holder" else f"{check.replace('_', ' ')} is defined"
        refusal = NotIncoherentChannelError(f"{stated} for incoherent channels")
        refusals = dict.fromkeys(np.flatnonzero(~incoherent_mask(cell.kraus)).tolist(), refusal)
    elif check == "observations":
        refusals = {t: ValueError(f"unitary: {e}") for t, e in completeness_refusals(cell.unitaries[:, None]).items()}
    return {**refusals, **completeness_refusals(cell.kraus)}


def _cell_of(check: str, inputs) -> _Cell:
    """The cell of one public check call, from its arguments after the kind (observations: ensemble last).

    First the rules a formed cell meets by construction: a KrausChannel as ch, (weight, rho, sigma) ensemble
    members, weights that are a distribution, one weight per convexity state, and one_size on the operands.
    The ensemble and the convexity states are sequences (_entries).
    """
    if check != "convexity" and not isinstance(ch := inputs[1 if check in CHANNEL_CHECKS else 2], KrausChannel):
        raise TypeError(f"ch must be a KrausChannel, got {type(ch).__name__}")
    if check in CHANNEL_CHECKS:
        operands = (inputs[0], ch.kraus[0])
    elif check == "convexity":
        weights, operands = validate_probability_vector(inputs[0], "weights"), _entries(inputs[1], "states")
        if len(operands) != weights.size:
            raise BadWeightsError(f"need one weight per state, got {weights.size} weights, {len(operands)} states")
    elif check == "lemma1":
        operands = (*inputs[:2], ch.kraus[0])
    else:
        ensemble = _entries(inputs[5], "ensemble")
        if not all(isinstance(member, (tuple, list)) and len(member) == 3 for member in ensemble):
            raise ValueError("ensemble: each member must be a (weight, rho, sigma) triple")
        weights = validate_probability_vector([w for w, _, _ in ensemble], "ensemble weights")
        populations = validate_probability_vector(inputs[4])
        operands = (*inputs[:2], ch.kraus[0], inputs[3], *(m for _, r, s in ensemble for m in (r, s)))
    one_size(operands)
    if check == "convexity":
        return _assemble([operands], weights=[weights])
    kraus = _padded([ch.kraus])
    states = operands[: 1 if check in CHANNEL_CHECKS else 2] + operands[4:]  # observations: then each member's pair
    if check == "observations":
        return _assemble([states], kraus, [weights], [as_square_matrix(inputs[3], "unitary")], [populations])
    return _assemble([states], kraus)


def check_strong_monotonicity(kind, rho, ch: KrausChannel, alpha, *, tolerance=DEFAULT_TOLERANCE) -> TrialRecord:
    """C(rho) >= sum_n p_n C(rho_n) over the selective branches of an incoherent channel.

    Dropped branches (probability under P_MIN, see channels.branches)
    contribute 0 to the average, biasing the right side down, i.e. toward
    pass; their mass is negligible by construction of the drop threshold.
    """
    return _trial_records("strong_monotonicity", kind, (rho, ch), alpha, tolerance)[0]


def check_monotonicity(kind, rho, ch: KrausChannel, alpha, *, tolerance=DEFAULT_TOLERANCE) -> TrialRecord:
    """C(rho) >= C(E(rho)) for the non-selective action of an incoherent channel."""
    return _trial_records("monotonicity", kind, (rho, ch), alpha, tolerance)[0]


def check_convexity(kind, weights, states, alpha, *, tolerance=DEFAULT_TOLERANCE) -> TrialRecord:
    """sum_i w_i C(rho_i) >= C(sum_i w_i rho_i)."""
    return _trial_records("convexity", kind, (weights, states), alpha, tolerance)[0]


def check_lemma1(rho, sigma, ch: KrausChannel, alpha, *, tolerance=DEFAULT_TOLERANCE) -> TrialRecord:
    """Branch decomposition bound on the trace functional for an arbitrary channel.

    sgn1(alpha) F(rho, sigma) >= sgn1(alpha) sum_n p_n^alpha q_n^(1-alpha) F(rho_n, sigma_n).

    Each term is evaluated in the homogeneous form Tr (K rho K†)^alpha
    (K sigma K†)^(1-alpha), which equals the normalized expression exactly but
    never divides by a branch probability; exact-zero branches contribute 0.
    A divergent term (alpha > 1, branch support mismatch) makes the direction
    unfalsifiable, so the trial is recorded as passed-degenerate.
    """
    return _trial_records("lemma1", None, (rho, sigma, ch), alpha, tolerance)[0]


def _lemma1_sides(sign, base, terms):
    """check_lemma1's (lhs, rhs) from F(rho, sigma) and its branch terms in operator order."""
    lhs = math.inf if _diverged(base) else sign * base
    rhs = math.inf if _diverged(*terms) else sign * sum(terms)
    return lhs, rhs


def check_holder_step(rho, ch: KrausChannel, alpha, *, tolerance=DEFAULT_TOLERANCE) -> TrialRecord:
    """Power-mean step over the branches of an incoherent channel.

    With p_n, rho_n the selective outcomes of rho, q_n, sigma_n those of the
    family's optimal incoherent state, and f_n = F(rho_n, sigma_n):

        (sum q_n)^(1-alpha) (sum p_n f_n^(1/alpha))^alpha >= sum p_n^alpha q_n^(1-alpha) f_n

    for alpha in (0, 1), with the direction reversed on (1, 2]. A single-Kraus
    channel must achieve equality. The record's lhs is whichever side the
    inequality bounds from above.
    """
    return _trial_records("holder", None, (rho, ch), alpha, tolerance)[0]


def _holder_sides(a, p, q, f_vals):
    """check_holder_step's (lhs, rhs) from the kept branches' p_n, q_n and f_n in operator order."""
    if not f_vals or _diverged(*f_vals):
        return DIVERGED
    p_side = sum(pn * f ** (1.0 / a) for pn, f in zip(p, f_vals))
    q_total = sum(q)
    mixed = sum(pn**a * qn ** (1.0 - a) * f for pn, qn, f in zip(p, q, f_vals))
    bound = q_total ** (1.0 - a) * p_side**a
    return (bound, mixed) if a < 1.0 else (mixed, bound)


# check_observations' records, in its order
OBSERVATIONS = ("obs1_one_sided", "obs2_isometry", "obs3_contraction", "obs4_joint_convexity", "obs5_tensor_ancilla")


def check_observations(
    rho,
    sigma,
    ch: KrausChannel,
    unitary,
    delta_diag,
    alpha,
    *,
    ensemble=None,
    tolerance=DEFAULT_TOLERANCE,
) -> list[TrialRecord]:
    """The five structural properties of the trace functional, one record each.

    1. one-sided:   sgn1 (F(rho, sigma) - 1) >= 0
    2. isometry:    F(U rho U†, U sigma U†) = F(rho, sigma)
    3. contraction: sgn1 F(E(rho), E(sigma)) <= sgn1 F(rho, sigma) for a channel E
    4. joint convexity over an ensemble of pairs (defaults to the swap ensemble
       {(rho, sigma), (sigma, rho)} with equal weights when none is given)
    5. tensoring a diagonal ancilla (populations `delta_diag`) changes nothing

    Equality-type properties (2 and 5) record margin = -|difference| divided
    by max(1, |value|), since the raw difference of two agreeing large values
    sits at their round-off scale, not at an absolute one. Records where a
    divergent value makes the comparison unfalsifiable are degenerate.
    """
    ensemble = [(0.5, rho, sigma), (0.5, sigma, rho)] if ensemble is None else ensemble
    inputs = (rho, sigma, ch, unitary, delta_diag, ensemble)
    return _trial_records("observations", None, inputs, alpha, tolerance)


def _observation_sides(sign, base, rotated, mapped, weights, parts, mixed, tensored):
    """check_observations' five (lhs, rhs), in OBSERVATIONS order, from its F values."""

    def equality(other):
        if _diverged(base, other):
            return DIVERGED
        return -abs(other - base) / max(1.0, abs(base), abs(other)), 0.0

    return [
        (math.inf if _diverged(base) else sign * base, sign * 1.0),
        equality(rotated),
        DIVERGED if _diverged(base, mapped) else (sign * base, sign * mapped),
        DIVERGED if _diverged(*parts, mixed) else (sign * sum(w * p for w, p in zip(weights, parts)), sign * mixed),
        equality(tensored),
    ]


def _trial_records(check: str, kind, inputs, alpha, tolerance) -> list[TrialRecord]:
    """A public check's records: its gates, then _stacked_sides on the cell of its trial alone (_cell_of).

    Alpha is gated first for the functional checks (check_alpha_floor), after
    the inputs for the measure checks. A refusal of the stack is raised.
    """
    if check in DIVERGENCE_CHECKS:
        alpha, kind = check_alpha_floor(alpha), "f_alpha"
        if check == "holder" and near_one(alpha):
            raise ValueError("holder step undefined within 1e-6 of alpha = 1")
        sgn1(alpha)
    tolerance = _check_tolerance(tolerance)
    cell = _cell_of(check, inputs)
    raise_first(_input_gate(check, cell))
    alpha = alpha if check in DIVERGENCE_CHECKS else check_measure_alpha(kind, alpha)
    (sides,), refusals = _stacked_sides(check, kind, cell, alpha)
    raise_first(refusals)
    return _records(check, cell.states.shape[-1], alpha, kind, sides, tolerance, -1, -1)


def _records(check: str, dim: int, alpha, kind, sides, tolerance, seed, trial) -> list[TrialRecord]:
    """A trial's records of the given kind from its list of (lhs, rhs), one per name its check writes."""
    names = OBSERVATIONS if check == "observations" else (check,)
    return [_record(name, dim, alpha, kind, *side, tolerance, seed, trial) for name, side in zip(names, sides)]


# ---------------------------------------------------------------------------
# suite runner


class _Draw(NamedTuple):
    """One trial's random numbers, everything _form makes its inputs from."""

    factors: list  # density_factor of each state: rho[, sigma[, then each ensemble pair]], or the convexity states
    channel: object = None  # incoherent_draw's (rows, amps), projected by _drawn, or channel_draw's Ginibre matrix
    unitary: np.ndarray | None = None  # observations: the Ginibre matrix of U
    weights: np.ndarray | None = None  # the convexity weights, or the observations ensemble's
    populations: np.ndarray | None = None  # observations: the ancilla's diagonal


def _draw_state(cfg: TrialConfig, d: int, rng) -> np.ndarray:
    rank = d if cfg.rank_policy == "full" else int(rng.integers(1, d + 1))
    return density_factor(d, rank, rng)


def _draw(cfg: TrialConfig, check: str, d: int, rng) -> _Draw:
    """A trial's draw, in its stream's order: the public samplers' generator calls, nothing formed or projected."""
    lo, hi = cfg.n_kraus_range
    if check == "convexity":
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
        return _Draw([_draw_state(cfg, d, rng) for _ in weights], weights=weights)
    rho = _draw_state(cfg, d, rng)
    if check in CHANNEL_CHECKS:  # the draw order rebuild_witness replays
        return _Draw([rho], unprojected_draw(d, int(rng.integers(lo, hi + 1)), rng))
    factors = [rho, _draw_state(cfg, d, rng)]
    channel = channel_draw(d, int(rng.integers(lo, hi + 1)), rng)
    if check == "lemma1":
        return _Draw(factors, channel)
    unitary = ginibre((d, d), rng)
    populations = rng.dirichlet(np.ones(max(1, min(3, 12 // d))))  # a tensored dimension of at most 12
    weights = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
    factors += [_draw_state(cfg, d, rng) for _ in range(2 * len(weights))]  # each member's rho, then sigma
    return _Draw(factors, channel, unitary, weights, populations)


def _form(check: str, draws: list[_Draw]) -> _Cell:
    """The cell of a list of trial draws; each input has the bits its public sampler makes of the same draw.

    One state_from_factor per factor rank; then one kraus_stack of the
    zero-padded incoherent draws, or one haar_from_ginibre per unitary size.
    """
    formed = iter(_by_shape(state_from_factor, [g[None] for draw in draws for g in draw.factors]))
    states = [[next(formed)[0] for _ in draw.factors] for draw in draws]
    if check == "convexity":
        return _assemble(states, weights=[draw.weights for draw in draws])
    if check in CHANNEL_CHECKS:
        (rows, real), (amps, _) = (_padded(part) for part in zip(*(draw.channel for draw in draws)))
        return _assemble(states, (kraus_stack(rows, amps), real))
    ginibres = [draw.channel for draw in draws] + [draw.unitary for draw in draws if draw.unitary is not None]
    unitaries = iter(_by_shape(haar_from_ginibre, [g[None] for g in ginibres]))  # each channel's, then each U
    kraus = _padded([isometry_kraus(next(unitaries)[0], len(draw.factors[0])) for draw in draws])
    if check == "lemma1":
        return _assemble(states, kraus)
    weights, populations = [draw.weights for draw in draws], [draw.populations for draw in draws]
    return _assemble(states, kraus, weights, [u[0] for u in unitaries], populations)


def _assemble(states, kraus=(None, None), weights=None, unitaries=None, populations=None) -> _Cell:
    """The one builder of a _Cell: each formed trial's states (_Draw.factors order) and parts, zero-padded stacks.

    kraus is the padded Kraus stack with its mask; a part the check has none of is None.
    """
    states, real_states = _padded([np.array(s, dtype=complex) for s in states])
    weights, unitaries, populations = (None if p is None else _padded(p)[0] for p in (weights, unitaries, populations))
    return _Cell(states, *kraus, real_states, weights, unitaries, populations)


def _by_shape(form, stacks: list) -> list:
    """form called once on the concatenated stacks (n, ...) of each entry shape; each stack's formed rows, in order."""
    groups: dict[tuple, list[int]] = {}
    for i, stack in enumerate(stacks):
        groups.setdefault(stack.shape[1:], []).append(i)
    formed = [None] * len(stacks)
    for members in groups.values():
        whole, end = form(np.concatenate([stacks[i] for i in members])), 0
        for i in members:
            formed[i], end = whole[end : end + len(stacks[i])], end + len(stacks[i])
    return formed


def _one_trial(cfg: TrialConfig, check: str, dim: int, alpha: float, trial: int, outcome) -> list[TrialRecord]:
    """A suite trial's records from its outcome: its list of (lhs, rhs), or the error of its draw, gate or stack."""
    kind, seed = "f_alpha" if check in DIVERGENCE_CHECKS else cfg.kind, cfg.master_seed
    if not isinstance(outcome, Exception):
        return _records(check, dim, alpha, kind, outcome, cfg.tolerance, seed, trial)
    error = f"{type(outcome).__name__}: {outcome}"
    return [TrialRecord(check, dim, alpha, kind, math.nan, math.nan, -math.inf, False, seed, trial, False, error)]


def _grid(cfg: TrialConfig) -> list[tuple[str, int, float]]:
    # single source of the cell ordering, alpha innermost so a (check, dim) row is consecutive; rebuild_witness reads it
    return [(check, dim, alpha) for check in cfg.checks for dim in cfg.dims for alpha in cfg.alphas]


def _drawn(cfg: TrialConfig, check: str, dim: int, keys) -> dict:
    """Each (cell, trial) key's _Draw from substream(seed, cell, trial), in key order, or the error its draw raised.

    The channel checks' incoherent draws are projected by one _cancel_merge_terms call per operator count. A
    draw it wipes out replays its stream to where it stopped and goes on as incoherent_draw, as the sampler would.
    """
    drawn: dict[tuple[int, int], object] = {}
    groups: dict[int, list] = {}  # the incoherent draws by operator count
    for key in keys:
        try:
            drawn[key] = _draw(cfg, check, dim, substream(cfg.master_seed, *key))
            if check in CHANNEL_CHECKS:
                groups.setdefault(len(drawn[key].channel[0]), []).append(key)
        except Exception as exc:  # aggregate, never abort the suite
            drawn[key] = exc
    for group in groups.values():
        rows, amps = (np.array(part) for part in zip(*(drawn[key].channel for key in group)))
        for key, *projected, gone in zip(group, rows, *_cancel_merge_terms(rows, amps)):
            try:
                if gone:  # no stream is kept: at about 0.9 KB each, a 4,096-draw task's would hold 3.7 MB
                    _draw(cfg, check, dim, rng := substream(cfg.master_seed, *key))
                    projected = incoherent_draw(dim, len(rows[0]), rng)
                drawn[key] = drawn[key]._replace(channel=tuple(projected))
            except Exception as exc:  # aggregate, never abort the suite
                drawn[key] = exc
    return drawn


def _run_cells(task) -> list[TrialRecord]:
    """A suite task, from its arguments alone: a run of consecutive cells of one (check, dim) row, in _grid order.

    The run's trials are drawn at once (_drawn), then each cell is formed and scored as stacks; _one_trial makes the
    records. A draw that raised gives that error record. _form makes the cell of the rest, one _stacked_sides call
    scores it beside each trial's first refusal (a stacked call that raises gives each that error's record), and
    _input_gate refuses trials first. So every record has the bits and text of its public check's.
    """
    cfg, first, check, dim, alphas = task
    n = cfg.trials_per_cell
    drawn = list(_drawn(cfg, check, dim, [(first + i // n, i % n) for i in range(len(alphas) * n)]).values())
    records = []
    for i, alpha in enumerate(alphas):
        outcomes = dict(enumerate(drawn[i * n : i * n + n]))  # each trial's draw, then its sides or its refusal
        trials = [trial for trial, draw in outcomes.items() if isinstance(draw, _Draw)]
        if trials:
            cell = _form(check, [outcomes[trial] for trial in trials])
            try:
                scored, refusals = _stacked_sides(check, cfg.kind, cell, alpha)
            except Exception as exc:  # aggregate, never abort the suite
                scored, refusals = [exc] * len(trials), {}
            refusals.update(_input_gate(check, cell))  # a trial's channel is refused before its matrices
            outcomes.update((trial, refusals.get(j, sides)) for j, (trial, sides) in enumerate(zip(trials, scored)))
        records += [r for trial in range(n) for r in _one_trial(cfg, check, dim, alpha, trial, outcomes[trial])]
    return records


def _padded(ragged) -> tuple[np.ndarray, np.ndarray]:
    """Ragged per-trial sequences zero-padded into one (trials, longest, ...) array, and the mask of real entries.

    Padding moves no bit of a stacked result: a zero Kraus operator's branch
    has probability 0 and is never kept, and a zero weight, state or operator
    adds only +-0.0 to an entry-order sum that starts from +0.
    """
    sizes = np.array([len(seq) for seq in ragged])
    real = np.arange(sizes.max()) < sizes[:, None]
    flat = np.concatenate(ragged)
    padded = np.zeros(real.shape + flat.shape[1:], dtype=flat.dtype)
    padded[real] = flat
    return padded, real


def _stacked_sides(check: str, kind, cell: _Cell, alpha) -> tuple[list, dict[int, Exception]]:
    """Each trial's list of (lhs, rhs), one per record its check writes, and each refused trial's refusal.

    The one scoring body of a cell and of a public check (its cell of one), with one kernel call per side
    or matrix size and no alpha gate. Entry t has the bits of the scalar arithmetic on trial t's inputs,
    divergent (+inf) values' degenerate sides included. A trial's refusal is the first a gate rule gives
    over the matrices its stacks formed: stacks in order, matrices in order, and per matrix the finite
    rule, the Hermitian rule (matrix_refusals), then its kernel's rule (a vanished diagonal, or skew's).
    """
    if check in DIVERGENCE_CHECKS:
        sides, formed = FUNCTIONAL_STACKS[check](cell, alpha, sgn1(alpha))
    else:
        sides, formed = _measure_sides(check, kind, cell, alpha)
    first: dict[int, Exception] = {}
    for refusals, owners in formed:  # a stack's refusals by matrix, and the trial of each matrix
        for row, refusal in sorted(refusals.items()):
            first.setdefault(int(owners[row]), refusal)
    return sides, first


def _gate(stack: np.ndarray) -> tuple[np.ndarray, dict]:
    """A square stack (n, d, d) with what as_hermitian refuses zeroed, so no kernel decomposes it, and the refusals."""
    refusals = matrix_refusals(stack)
    if refusals:
        stack = stack.copy()
        stack[list(refusals)] = 0.0
    return stack, refusals


def _lemma1_stack(cell: _Cell, a, sign):
    """The sides of every lemma1 trial of a cell, and its formed stacks: the pairs (rho, sigma), then each branch's."""
    pair, real = cell.states, cell.real_kraus  # (trials, 2, d, d)
    (base, terms), refusals = _functional_stacks([pair, branches(cell.kraus[:, None], pair)[1].swapaxes(1, 2)[real]], a)
    sides = [[_lemma1_sides(sign, b, t)] for b, t in zip(base.tolist(), _by_trial(terms, real.sum(axis=1)))]
    return sides, list(zip(refusals, [np.arange(len(pair)).repeat(2), np.nonzero(real)[0].repeat(2)]))


def _holder_stack(cell: _Cell, a, sign):
    """The sides of every holder trial of a cell, and its formed stacks: the states, then the kept branch pairs."""
    rhos, refused = _gate(cell.states[:, 0])
    _, deltas, vanished = closed_form("alpha", *eigh_clamped(rhos), a)
    refused = {**vanished, **refused}  # optimal_incoherent_state's rules on rho
    # only a refused rho's delta is NaN, and a finite one is a distribution (closed_form's largest root is 1)
    deltas = np.where(np.isnan(deltas), 0.0, deltas)[..., None] * np.eye(rhos.shape[-1])
    probs, products, kept = branches(cell.kraus[:, None], np.stack([rhos, deltas], 1))
    pairs = kept[:, 0] & kept[:, 1]  # a branch counts when both sides keep it
    p, q = probs[:, 0][pairs], probs[:, 1][pairs]
    normalized = products.swapaxes(1, 2)[pairs] / np.stack([p, q], 1)[..., None, None]
    (f,), (branch_refused,) = _functional_stacks([normalized], a)
    sides = [[_holder_sides(a, *terms)] for terms in zip(*(_by_trial(v, pairs.sum(axis=1)) for v in (p, q, f)))]
    return sides, [(refused, range(len(rhos))), (branch_refused, np.nonzero(pairs)[0].repeat(2))]


def _observations_stack(cell: _Cell, a, sign):
    """The five sides of every observations trial of a cell, and its six formed pair stacks in OBSERVATIONS order."""
    pair, populations = cell.states[:, :2], cell.populations  # (trials, 2, d, d) and (trials, k)
    trials, d, k = len(pair), pair.shape[-1], populations.shape[-1]
    us = cell.unitaries[:, None]
    weights, drawn = cell.weights, cell.real_states[:, 2::2]
    members = cell.states[:, 2:].reshape(trials, -1, 2, d, d)  # each member's pair
    ancillas = populations[:, None, None, :, None, None] * np.eye(k)[:, None, :]
    stacks = [
        pair,
        us @ pair @ us.conj().swapaxes(-1, -2),
        apply_channel(cell.kraus[:, None], pair),
        members[drawn],
        sum(np.moveaxis(weights[..., None, None, None] * members, 1, 0)),
        # np.kron(rho, ancilla) of each matrix: entry (i k + a, j k + b) is rho_ij ancilla_ab
        (pair[..., :, None, :, None] * ancillas).reshape(trials, 2, d * k, d * k),
    ]
    values, refusals = _functional_stacks(stacks, a)
    base, rotated, mapped, parts, mixed, tensored = (v.tolist() for v in values)
    counts = drawn.sum(axis=1)
    per_trial = zip(base, rotated, mapped, _by_trial(weights[drawn], counts), _by_trial(parts, counts), mixed, tensored)
    sides = [_observation_sides(sign, *terms) for terms in per_trial]
    owners = np.arange(trials).repeat(2)
    return sides, list(zip(refusals, [owners, owners, owners, np.nonzero(drawn)[0].repeat(2), owners, owners]))


FUNCTIONAL_STACKS = {"lemma1": _lemma1_stack, "holder": _holder_stack, "observations": _observations_stack}


def _by_trial(values, counts) -> list[list]:
    """A flat per-cell stack split into each trial's consecutive entries, as lists of floats."""
    flat, ends = np.asarray(values).tolist(), np.cumsum(counts).tolist()
    return [flat[end - count : end] for count, end in zip(counts, ends)]


def _functional_stacks(pairs, alpha) -> tuple[list[np.ndarray], list[dict]]:
    """F_alpha(A, B) of every pair of each (n, 2, d, d) stack, one kernel call per matrix size, and its refusals.

    A stack's refusals are _gated_pair's rules (_gate) on its matrices: pair t's A is matrix 2 t, its B 2 t + 1.
    """
    gated = [_gate(stack.reshape(-1, *stack.shape[-2:])) for stack in pairs]
    stacks = [stack.reshape(-1, 2, *stack.shape[-2:]) for stack, _ in gated]
    values = _by_shape(lambda stack: functional_values(stack[:, 0], stack[:, 1], alpha), stacks)
    return values, [refusals for _, refusals in gated]


def _measured(kind: str, stack: np.ndarray, alpha) -> tuple[np.ndarray, dict]:
    """measure_value on each matrix of a square stack (n, d, d): the values, and each refused one's first refusal."""
    stack, refusals = _gate(stack)
    values, rules = measure_values(kind, stack, alpha)
    return values, {**rules, **refusals}


def _measure_sides(check: str, kind: str, cell: _Cell, alpha):
    """The sides of every measure-check trial of a cell, one kernel call per side, and its formed stacks.

    Entry t has the bits of the scalar arithmetic's sides on trial t. The stacks, each with measure_value's
    refusals, are the states, then the channel images, the mixtures or the measured branches (_padded).
    """
    trials = range(len(cell.states))
    if check == "convexity":
        weights, real, states = cell.weights, cell.real_states, cell.states
        values = np.zeros(real.shape)
        values[real], refused = _measured(kind, states[real], alpha)
        lhs = sum(np.moveaxis(weights * values, -1, 0))
        rhs, mixed = _measured(kind, sum(np.moveaxis(weights[..., None, None] * states, -3, 0)), alpha)
        formed = [(refused, np.nonzero(real)[0]), (mixed, trials)]
    else:
        rhos = cell.states[:, 0]
        lhs, refused = _measured(kind, rhos, alpha)
        if check == "strong_monotonicity":
            rhs, measured = _branch_average(kind, cell.kraus, rhos, alpha)
        else:
            rhs, imaged = _measured(kind, apply_channel(cell.kraus, rhos), alpha)
            measured = (imaged, trials)
        formed = [(refused, trials), measured]
    return [[side] for side in zip(lhs.tolist(), rhs.tolist())], formed


def run_suite(cfg: TrialConfig, workers: int = 1) -> SuiteSummary:
    """Run the configured checks over their full (check, dim, alpha) grid.

    The per-trial stream is substream(master_seed, cell_index, trial), so the
    record stream is identical for any worker count and task size. A task
    (_run_cells) is a run of one row's cells holding at most SEARCH_BATCH
    draws, or one cell that alone holds more; workers only change who runs it.
    """
    start = time.perf_counter()
    workers = check_count(workers, "workers", 1)
    a, n = len(cfg.alphas), max(1, SEARCH_BATCH // cfg.trials_per_cell)  # a task's cells: n, or a row's last ones
    tasks = [(cfg, i, c, d, cfg.alphas[i % a :][:n]) for i, (c, d, _) in enumerate(_grid(cfg)) if i % a % n == 0]
    if workers == 1 or len(tasks) == 1:
        per_task = [_run_cells(t) for t in tasks]
    else:
        # imported here: concurrent.futures.process pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            per_task = list(pool.map(_run_cells, tasks))
    records = [r for task_records in per_task for r in task_records]
    stats: dict[str, CheckStats] = {}
    for record in records:
        stats.setdefault(record.check_name, CheckStats()).absorb(record)
    all_passed = all(s.failures == 0 for s in stats.values())
    return SuiteSummary(cfg, records, stats, all_passed, time.perf_counter() - start)


def rebuild_witness(cfg: TrialConfig, record: TrialRecord):
    """Recreate the exact state and channel behind a monotonicity-check record.

    Replays the record's substream and draw order, so the returned pair is
    bit-identical to what the suite evaluated. Only the WITNESS_CHECKS' records
    that cfg's suite writes carry one; any other is refused before a draw.
    """
    if record.check_name not in WITNESS_CHECKS:
        raise ValueError(f"no state/channel witness for check {record.check_name!r}")
    cell, grid = (record.check_name, record.dim, record.alpha), _grid(cfg)
    if cell not in grid:
        raise ValueError(f"(check, dim, alpha) cell {cell} is not in the config's grid")
    if record.seed != cfg.master_seed:
        raise ValueError(f"seed {record.seed} is not the config's master_seed {cfg.master_seed}")
    if not 0 <= record.trial < cfg.trials_per_cell:
        raise ValueError(f"trial must lie in [0, {cfg.trials_per_cell}), got {record.trial}")
    key = (grid.index(cell), record.trial)
    draw = _drawn(cfg, record.check_name, record.dim, [key])[key]
    if isinstance(draw, Exception):
        raise draw
    cell = _form(record.check_name, [draw])  # a cell of one: no padding
    return cell.states[0, 0], KrausChannel(cell.kraus[0])


# ---------------------------------------------------------------------------
# violation search


def _strong_mono_stats(kind: str, rho, kraus, alpha: float):
    """(C(rho), sum_n p_n C(rho_n), gap) for one state and Kraus stack, as _batch_gaps computes it."""
    before = float(measure_value(kind, rho, alpha))
    after = float(_branch_average(kind, kraus, rho, alpha)[0])
    return before, after, after - before


def reverify_violation(report: ViolationReport) -> float:
    """Recompute the witness gap from the stored state and channel."""
    if report.state is None or report.channel is None:
        raise ValueError("report carries no witness")
    _, _, gap = _strong_mono_stats(report.kind, report.state, report.channel.kraus, report.alpha)
    return gap


def _branch_average(kind: str, kraus, rho, alpha: float):
    """sum_n p_n C(K_n rho K_n† / p_n) over the kept branches, for one state or a stack, and the branches' refusals.

    Only kept branches are normalized and measured. The sum runs over the
    operators in order, as a Python sum of floats does, so one state and a
    stack give the same bits. The refusals are measure_values' on the measured
    branches, beside the leading index of each (for a stack, its state's).
    """
    probs, products, kept = branches(kraus, rho)
    values, refusals = measure_values(kind, products[kept] / probs[kept][:, None, None], alpha)
    return _kept_sum(probs, kept, values), (refusals, np.nonzero(kept)[0])


def _kept_sum(probs, kept, values):
    """sum_n p_n values_n over the kept branches (one value each), in operator order as a Python sum of floats."""
    terms = np.zeros(probs.shape)
    terms[kept] = probs[kept] * values
    return sum(np.moveaxis(terms, -1, 0))


def _batch_states(rng, count: int, d: int, rank: int):
    g = ginibre((count, d, rank), rng)
    return g, state_from_factor(g)


@dataclass(eq=False)
class _SearchParams:
    """Free parameters behind one searched channel; rebuilding from them is exact.

    Two layouts share the struct. Plain: every operator is a phased
    permutation with its own column weight share, so row maps are injective
    and completeness holds for any shares. Paired: operators 0 and 1 both send
    the two ``pair_cols`` columns to a single row each (``pair_rows``), the
    only incoherent structure that lets weight from different basis lines
    recombine; the 2x2 unitary built from ``pair_angles`` cancels the one
    cross term the merge puts into K^dag K, and on the remaining columns both
    operators stay injective away from their merge row. Row arrays are the
    discrete skeleton; everything else is a continuous knob the refiner may
    turn without ever leaving the trace-preserving incoherent family. The
    same arrays with a leading batch axis describe a whole batch, and
    ``ops`` assembles either.
    """

    raw: np.ndarray  # (n_kraus, d) positive column weight shares
    sing_rows: np.ndarray  # (n_sing, d) one permutation per plain operator
    sing_phases: np.ndarray  # (n_sing, d)
    pair_cols: np.ndarray | None = None  # (2,) merged columns, increasing
    pair_rows: np.ndarray | None = None  # (2,) merge row of operators 0 and 1
    pair_s: np.ndarray | None = None  # (2,) weight the pair keeps per merged column
    pair_angles: np.ndarray | None = None  # (3,) theta, phi1, phi2
    comp_rows: np.ndarray | None = None  # (2, d) rows for the pair's other columns
    comp_phases: np.ndarray | None = None  # (2, d)

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, index) -> "_SearchParams":
        """Draw `index` of a batch as a copy; ``params[...]`` copies the whole struct."""
        return _SearchParams(**{k: None if v is None else v[index].copy() for k, v in vars(self).items()})

    def ops(self) -> np.ndarray:
        """The Kraus stack (..., n_kraus, d, d) of one draw, or of every draw of a batch.

        Operator n puts the amplitude amps[..., n, c] of column c into row rows[..., n, c].
        """
        raw, pair_angles, sing_phases = self.raw, self.pair_angles, self.sing_phases
        weights = raw / raw.sum(axis=-2, keepdims=True)
        if self.pair_cols is None:
            return kraus_stack(self.sing_rows, np.sqrt(weights) * np.exp(1j * sing_phases))
        cols = np.arange(raw.shape[-1])
        is_i = cols == self.pair_cols[..., :1, None]  # (..., 1, d)
        merged = is_i | (cols == self.pair_cols[..., 1:, None])
        # at the merged columns (i, j), operators 0 and 1 carry the rows of
        # [[cos e^(i phi1), -sin e^(i phi2)], [sin e^(-i phi2), cos e^(-i phi1)]]: orthonormal
        # columns, so the (i, j) cross term in K^dag K cancels at any angle values
        theta, signs = pair_angles[..., :1], np.array([1j, -1j])
        cos, sin = np.cos(theta), np.sin(theta)
        at_i = np.concatenate([cos, sin], -1) * np.exp(signs * pair_angles[..., 1:])
        at_j = np.concatenate([-sin, cos], -1) * np.exp(signs * pair_angles[..., :0:-1])
        comp_amps = np.sqrt(weights[..., :2, :]) * np.exp(1j * self.comp_phases)
        amps = np.where(merged, np.where(is_i, at_i[..., None], at_j[..., None]), comp_amps)
        rows = np.where(merged, self.pair_rows[..., None], self.comp_rows)
        # the pair keeps the share s of each merged column, all of it when no plain
        # operator is there to split the rest in proportion to its raw shares
        if sing_phases.shape[-2] == 0:
            return kraus_stack(rows, amps)
        s = np.clip(self.pair_s, 0.0, 1.0)
        kept = np.where(is_i, s[..., :1, None], s[..., 1:, None])
        amps = np.where(merged, amps * np.sqrt(kept), amps)
        share = raw[..., 2:, :]
        sing_w = np.where(merged, (1.0 - kept) * share / share.sum(axis=-2, keepdims=True), weights[..., 2:, :])
        sing_amps = np.sqrt(sing_w) * np.exp(1j * sing_phases)
        return kraus_stack(np.concatenate([rows, self.sing_rows], -2), np.concatenate([amps, sing_amps], -2))


def _batch_incoherent_channels(rng, count: int, d: int, n_kraus: int, with_pair: bool):
    """Draw `count` incoherent channels in one stream; returns (params, ops stack).

    The params are one _SearchParams with a leading batch axis, assembled by
    its ``ops``, the same method every later rebuild goes through, SCORE_CHUNK draws at a time.
    """
    n_sing = n_kraus - 2 if with_pair else n_kraus
    raw = rng.gamma(1.0, size=(count, n_kraus, d))
    sing_phases = rng.uniform(0.0, 2.0 * np.pi, size=(count, n_sing, d))
    # argsort of uniforms: one uniform permutation per (trial, operator)
    sing_rows = np.argsort(rng.random((count, n_sing, d)), axis=-1)
    arrays = [raw, sing_rows, sing_phases]
    if with_pair:
        pair_cols = np.sort(np.argsort(rng.random((count, d)), axis=-1)[:, :2], axis=-1)
        pair_rows = rng.integers(0, d, size=(count, 2))
        pair_s = rng.random(size=(count, 2))
        angles = np.column_stack(
            [
                rng.uniform(0.0, 0.5 * np.pi, size=count),
                rng.uniform(0.0, 2.0 * np.pi, size=count),
                rng.uniform(0.0, 2.0 * np.pi, size=count),
            ]
        )
        # injective rows for the non-merged columns, avoiding each merge row:
        # permute the d - 1 allowed slots, then shift past the excluded row
        slot_perm = np.argsort(rng.random((count, 2, d - 1)), axis=-1)
        comp_phases = rng.uniform(0.0, 2.0 * np.pi, size=(count, 2, d))
        cols = np.arange(d)[None, :]
        # a column's rank among the non-merged ones; junk at the merged columns
        rank = np.clip(cols - (cols > pair_cols[:, :1]) - (cols > pair_cols[:, 1:]), 0, max(d - 3, 0))
        slots = np.take_along_axis(slot_perm, np.broadcast_to(rank[:, None, :], (count, 2, d)), axis=2)
        comp_rows = slots + (slots >= pair_rows[:, :, None])
        del slot_perm, rank, slots  # no draw temporary is held while the batch is formed
        arrays += [pair_cols, pair_rows, pair_s, angles, comp_rows, comp_phases]
    params = _SearchParams(*arrays)
    ops = np.empty((count, n_kraus, d, d), dtype=complex)
    for lo in range(0, count, SCORE_CHUNK):
        ops[lo : lo + SCORE_CHUNK] = params[lo : lo + SCORE_CHUNK].ops()
    return params, ops


def _batch_gaps(kind: str, states: np.ndarray, kraus: np.ndarray, alpha: float) -> np.ndarray:
    """Strong-monotonicity gaps (average after minus before); positive = violation.

    states is a density stack (count, d, d), whose entry b has the bits of _strong_mono_stats(kind,
    states[b], kraus[b], alpha)[2], or rank-one factors g (count, d, 1). A factor is scored as the pure
    state psi psi†, psi = g / |g|, with no eigh: pure_values of |psi_j|^2, and of |K_n psi|_j^2 / p_n for
    each kept branch (pure_branches), summed as _branch_average sums. Scored SCORE_CHUNK draws at a time;
    every kernel works per draw.
    """
    gaps = []
    for lo in range(0, len(states), SCORE_CHUNK):
        chunk, ops = states[lo : lo + SCORE_CHUNK], kraus[lo : lo + SCORE_CHUNK]
        if chunk.shape[-1] == 1:
            populations = chunk.real**2 + chunk.imag**2
            norm = populations.sum(axis=-2, keepdims=True)
            probs, branch_populations, kept = pure_branches(ops, chunk / np.sqrt(norm))
            values = pure_values(kind, branch_populations[kept] / probs[kept][:, None], alpha)
            gaps.append(_kept_sum(probs, kept, values) - pure_values(kind, (populations / norm)[..., 0], alpha))
        else:
            before = measure_values(kind, chunk, alpha)[0]
            gaps.append(_branch_average(kind, ops, chunk, alpha)[0] - before)
    return np.concatenate(gaps)


def _refine_witness(kind, g, params: _SearchParams, alpha):
    """Greedy coordinate ascent on the gap from one (state factor, channel) start.

    Perturbs the factor additively, weight shares multiplicatively, and the
    pair block's angles, shares, and phases in place; the discrete row
    structure never moves (batch cycling covers that instead). Every knob
    tries its candidate values in order, keeps the first that raises the gap
    and otherwise keeps its old value. Deterministic: fixed sweep order,
    fixed step schedule, halve the step on a stalled sweep and give up after
    four stalls in a row.

    A sweep is scored in two phases, the factor knobs' moves, then the
    channel knobs'. A phase scores stacks: every remaining (knob, candidate)
    move of its knobs from the current point is one entry of a stack, the
    first entry in sweep order that raises the gap is accepted, the next stack
    starts at the following knob, and the phase ends at a stack with no such
    entry. The point is held as its state rho, Kraus stack and C(rho): the
    factor phase scores new states against the held Kraus stack, the channel
    phase new Kraus stacks against the held rho and C(rho), and an accepted
    row's state (and its C) or Kraus stack becomes the held one. Each entry
    has the bits of its own scalar evaluation and a rejected move leaves the
    point as it was, so the trajectory is the one a move-at-a-time loop takes.
    """
    g = g.copy()
    params = params[...]
    point = {"g": g, **vars(params)}  # the knob arrays by name, shared with g and params
    # only the start goes through the scalar path, and only the returned witness is
    # built (and validated) as a KrausChannel: the stacked channels are complete by construction
    held = {"rho": state_from_factor(g), "kraus": params.ops()}
    held["before"], _, gap = _strong_mono_stats(kind, held["rho"], held["kraus"], alpha)
    step = 0.05
    scale = max(float(np.max(np.abs(g))), 1.0)

    # candidate values for one entry, given its current value v and the step
    def nudge(v, step):  # the complex factor entries, in four directions
        return [v + step * t for t in (scale, -scale, 1j * scale, -1j * scale)]

    def grow(v, step):
        return [v * (1.0 + step), v * (1.0 / (1.0 + step))]

    def capped(v, step):
        return [min(w, 1.0) for w in grow(v, step)]

    def shift(v, step):
        return [v + step, v - step]

    # _batch_gaps' two kernels, apart, so that an accepted state's C is held, not measured again
    def factor_rows(g):  # new states against the held Kraus stack
        rhos = state_from_factor(g)
        befores = measure_values(kind, rhos, alpha)[0]
        return _branch_average(kind, held["kraus"], rhos, alpha)[0] - befores, {"rho": rhos, "before": befores}

    def channel_rows(**arrays):  # new Kraus stacks against the held state and its C(rho)
        ops = _SearchParams(**arrays).ops()
        return _branch_average(kind, ops, held["rho"], alpha)[0] - held["before"], {"kraus": ops}

    # (array name, index, candidates) for every knob of a phase, in sweep order. The
    # pair operators' raw shares at the merged columns are dead (pair_s and the
    # angles govern those columns), so they get no knob.
    merged = set() if params.pair_cols is None else {int(c) for c in params.pair_cols}
    factor_knobs = [("g", idx, nudge) for idx in np.ndindex(g.shape)]
    channel_knobs = [("raw", (n, c), grow) for n, c in np.ndindex(params.raw.shape) if not (n < 2 and c in merged)]
    if merged:
        channel_knobs += [("pair_angles", (i,), shift) for i in range(3)]
        if params.sing_phases.shape[0]:
            channel_knobs += [("pair_s", (i,), capped) for i in range(2)]
        comp_cols = [c for c in range(params.raw.shape[1]) if c not in merged]
        channel_knobs += [("comp_phases", (t, c), shift) for t in range(2) for c in comp_cols]
    channel_names = [name for name, v in vars(params).items() if v is not None]
    phases = ((factor_knobs, ["g"], factor_rows), (channel_knobs, channel_names, channel_rows))

    stalls = 0
    for _ in range(REFINE_SWEEPS):
        improved = False
        for knobs, names, score in phases:
            first = 0
            while moves := [
                (name, idx, new, k)
                for k, (name, idx, candidates) in enumerate(knobs[first:], first)
                for new in candidates(point[name][idx], step)
                if new != point[name][idx]
            ]:
                stack = {name: np.repeat(point[name][None], len(moves), axis=0) for name in names}
                for row, (name, idx, new, _) in enumerate(moves):
                    stack[name][(row, *idx)] = new
                gaps, rows = score(**stack)
                better = np.flatnonzero(gaps > gap)
                if not better.size:
                    break
                row = better[0]
                held.update((key, value[row]) for key, value in rows.items())
                name, idx, new, k = moves[row]
                point[name][idx] = new
                gap, improved, first = float(gaps[row]), True, k + 1
        if gap >= REFINE_TARGET:
            break
        if improved:
            stalls = 0
        else:
            stalls += 1
            if stalls >= 4:
                break
            step *= 0.5
    return gap, held["rho"], KrausChannel(held["kraus"])


def _search_batch(kind: str, d: int, seed: int, batch_index: int, structure, size: int):
    """One search batch, from its arguments alone: (batch_best, candidates).

    Draws `size` states, then their channels, from substream(seed, batch_index)
    under the structure (alpha, operator count, rank, merge pair) and scores
    them. The first 3 draws above REFINE_TRIGGER are refined, then the best draw
    whenever it comes within ASCEND_WINDOW of zero, because the violating set is
    thin enough that raw sampling alone essentially never crosses it. A
    candidate is (offset, refined, rho, channel, before, after, gap), the last
    three confirmed by _strong_mono_stats on the refined witness; the list ends
    at the first whose gap exceeds VIOLATION_GAP.
    """
    alpha, n_kraus, rank, with_pair = structure
    rng = substream(seed, batch_index)
    factors, rhos = _batch_states(rng, size, d, rank)
    params, kraus = _batch_incoherent_channels(rng, size, d, n_kraus, with_pair)
    gaps = _batch_gaps(kind, factors if rank == 1 else rhos, kraus, alpha)
    batch_best = float(np.max(gaps))
    offsets = [int(o) for o in np.nonzero(gaps > REFINE_TRIGGER)[0][:3]]
    top = int(np.argmax(gaps))
    # a single operator is a phased permutation: conjugating by it moves
    # no coherence, the gap is identically zero, nothing to climb there
    if n_kraus > 1 and batch_best > -ASCEND_WINDOW and top not in offsets:
        offsets.append(top)
    candidates = []
    for offset in offsets:
        # refinement starts from the batch's exact draw and returns it unchanged when no move helps; a
        # rank-one gaps[offset] is the factor's, not its start gap, so a move is read from the bits
        _, rho, ch = _refine_witness(kind, factors[offset], params[offset], alpha)
        before, after, gap = _strong_mono_stats(kind, rho, ch.kraus, alpha)
        moved = rho.tobytes() != rhos[offset].tobytes() or ch.kraus.tobytes() != kraus[offset].tobytes()
        candidates.append((offset, moved, rho, ch, before, after, gap))
        if gap > VIOLATION_GAP:
            break
    return batch_best, candidates


def search_violation(
    d: int,
    max_trials: int,
    *,
    kind: str = "tsallis",
    alphas=SEARCH_ALPHAS,
    seed: int = 0,
    n_kraus_range: tuple[int, int] = (1, 4),
    batch_size: int = SEARCH_BATCH,
) -> ViolationReport:
    """Random search for a strong-monotonicity violation of the given quantifier.

    Scans (state, incoherent channel, alpha) draws in deterministic batches;
    the (alpha, operator count, rank, merge pair) combination cycles with the
    batch index so the budget covers the whole grid, and half the multi-
    operator batches carry a two-operator column merge; branches of either
    layout can gain coherence (criterion 8's witness is plain). Each batch is a
    _search_batch task of (seed, batch index, structure, size) alone, and this
    loop commits them in order. A witness comes back as a validated
    KrausChannel and counts as found once _strong_mono_stats confirms gap >
    VIOLATION_GAP; the report carries those numbers, so reverify_violation and
    a serialized witness replay them exactly.
    """
    d, max_trials = check_count(d, "dimension", 2), check_count(max_trials, "trial budget", 1)
    if kind not in ALPHA_KINDS:
        raise ValueError(f"batched search supports kinds 'tsallis' and 'alpha', got {kind!r}")
    # alpha values inside the near-one window are legal: both kinds collapse
    # to relative-entropy coherence there, which is strongly monotone, so a
    # search restricted to them just exhausts its budget
    alphas = _field(alphas, "alphas", check_alpha_floor)
    lo, hi = _check_kraus_range(n_kraus_range)
    batch_size, seed = check_count(batch_size, "batch_size", 1), check_count(seed, "seed", 0)
    ranks = sorted({1, max(1, d // 2), d})
    combos = [
        (a, nk, r, pair)
        for a in alphas
        for nk in range(lo, hi + 1)
        for r in ranks
        # at d = 2 a merge pair leaves operators 0 and 1 rank one, so it adds nothing
        for pair in ((False, True) if nk >= 2 and d > 2 else (False,))
    ]
    best_gap = -math.inf
    for batch_index, done in enumerate(range(0, max_trials, batch_size)):
        structure = combos[batch_index % len(combos)]
        size = min(batch_size, max_trials - done)
        batch_best, candidates = _search_batch(kind, d, seed, batch_index, structure, size)
        if batch_best > best_gap:
            best_gap = batch_best
        for offset, refined, rho, ch, before, after, gap in candidates:
            if gap > best_gap:
                best_gap = gap
            if gap > VIOLATION_GAP:
                return ViolationReport(
                    found=True, kind=kind, dim=d, seed=seed, trials_used=done + offset + 1, best_gap=best_gap,
                    alpha=structure[0], state=rho, channel=ch, coherence_before=before, average_after=after,
                    gap=gap, trial_index=done + offset, refined=refined,
                )
    return ViolationReport(found=False, kind=kind, dim=d, seed=seed, trials_used=max_trials, best_gap=best_gap)
