"""The three benchmark workloads: `suite`, `search` and `measures`.

Each workload builds its inputs from the workload seed in its constructor
(that is set-up), warms the package up, and then runs timed passes. Every unit
of work in a pass is timed by a `ReferenceClock`, in seconds and in reference
units. Correctness gates that fail are collected in ``gate_failures`` so a
wrong result is reported as such and never as a number. All calls go through
public package functions: ``alphacoh.cli.main``, ``search_violation``,
``reverify_violation``, ``measure_value``, ``optimal_incoherent_state`` and
``brute_force_min``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from alphacoh.cli import ORACLE_BOUND_FACTOR
from alphacoh.cli import main as cli_main
from alphacoh.coherence import (
    ALPHA_KINDS,
    DEGENERATE_DIAGONAL_TOL,
    MEASURE_KINDS,
    DegenerateDiagonalError,
    ORACLE_RESOLUTION,
    brute_force_min,
    measure_value,
    optimal_incoherent_state,
)
from alphacoh.harness import SEARCH_BATCH, reverify_violation, search_violation

# acceptance grid of `verify` (criteria 3-7)
SUITE_DIMS = (2, 3, 4)
SUITE_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0)
SUITE_GROUPS = {
    "measure": ("strong_monotonicity", "monotonicity", "convexity"),
    "functional": ("lemma1", "holder", "observations"),
}

# criterion 8's search shape
SEARCH_ALPHAS = (0.3, 0.5, 1.5, 2.0)
SEARCH_KRAUS = (1, 4)
SEARCH_KINDS = ("tsallis", "alpha")  # Ct_alpha, then the strongly monotone control
WITNESS_GAP = 1e-6
QUTRIT_BUDGET = 200_000  # a qutrit witness takes ~17k draws; this only bounds a stall

MEASURE_DIMS = (2, 3, 4, 8)
MEASURE_ALPHAS = (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0)
ORACLE_ALPHAS = (0.3, 0.5, 0.7, 1.3, 1.5, 2.0)
ORACLE_SLACK = 1e-9


def derive_seed(seed: int, *tag: int) -> int:
    """A 32-bit seed for one input stream of the workload, fixed by (seed, tag)."""
    return int(np.random.SeedSequence([int(seed), *tag]).generate_state(1)[0])


def random_state(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized Ginibre product of the given rank, drawn without the package."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return mat / mat.trace().real


def structure_grid_size(d: int, alphas, n_kraus_range) -> int:
    """Entries in search_violation's (alpha, operators, rank, merge pair) cycle."""
    lo, hi = n_kraus_range
    ranks = {1, max(1, d // 2), d}
    per_alpha = sum(1 if nk == 1 else 2 for nk in range(lo, hi + 1)) * len(ranks)
    return len(alphas) * per_alpha


def underflow_possible(d: int, alpha) -> bool:
    """Whether the known small-alpha defect can reach a valid d-dimensional state.

    The package raises DegenerateDiagonalError when S = sum_j a_j^(1/alpha),
    with a_j the diagonal of rho^alpha, falls below DEGENERATE_DIAGONAL_TOL.
    For alpha < 1, sum_j a_j = Tr rho^alpha >= 1, so the largest a_j is at
    least 1/d and S at least d^(-1/alpha). Where that bound clears the
    tolerance, the error cannot come from the defect.
    """
    return alpha is not None and d ** (-1.0 / alpha) < DEGENERATE_DIAGONAL_TOL


def median(values) -> float:
    return float(statistics.median(values))


REFERENCE_SEED = 20170414  # the reference kernels are the same on every run and commit
REFERENCE_ROUNDS = 400
REFERENCE_POINTS = 60_000
REFERENCE_EXPONENTS = (0.3, 0.7, 1.4, 1.9)


class Timing(NamedTuple):
    seconds: float
    refs: float  # the same duration in reference units


class ReferenceClock:
    """Times units of work against a fixed kernel timed between them.

    On a shared host the CPU runs in fast and slow phases, up to 1.7x apart and
    seconds to minutes long, and they move every wall time with them. The
    reference kernel, code the package never touches, is timed after every
    unit; a unit's duration divided by the mean of the reference times on
    either side of it is its duration in reference units, from which those
    phases mostly cancel.

    The phases slow interpreter-bound and vector-bound code by different
    factors, so there are two kernels. `scalar` (small LAPACK calls and
    interpreter work) matches the package's scalar paths and its search;
    `vector` (elementwise powers over a large point array) matches the grid
    oracle.
    """

    def __init__(self, kernel: str = "scalar"):
        rng = np.random.default_rng(REFERENCE_SEED)
        g = rng.standard_normal((REFERENCE_ROUNDS, 4, 4)) + 1j * rng.standard_normal((REFERENCE_ROUNDS, 4, 4))
        self._mats = list(g + g.conj().transpose(0, 2, 1))
        rng = np.random.default_rng(REFERENCE_SEED)  # its own stream: either kernel's data stays fixed
        self._points = rng.random((REFERENCE_POINTS, 3))
        self._weights = rng.random(3)
        kernels = {"scalar": self._scalar, "vector": self._vector}
        if kernel not in kernels:
            raise ValueError(f"unknown reference kernel {kernel!r}")
        self._kernel = kernels[kernel]
        self.reference()
        self.samples = [self.reference()]

    def _scalar(self) -> float:
        total = 0.0
        for h in self._mats:
            lam, vecs = np.linalg.eigh(h)
            total += float(np.abs(vecs[0]) @ lam)
            for k in range(20):
                total += k * 1e-12
        return total

    def _vector(self) -> float:
        total = 0.0
        for e in REFERENCE_EXPONENTS:
            values = (np.power(self._points, 1.0 - e) @ self._weights) ** (1.0 / e)
            total += float(values[int(np.argmin(values))])
        return total

    def reference(self) -> float:
        """Seconds one run of the reference kernel takes now."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def tick(self) -> None:
        """Take a fresh reference sample, to bracket the next unit closely."""
        self.samples.append(self.reference())

    def time(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); return its result and its Timing."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        after = self.reference()
        scale = 0.5 * (self.samples[-1] + after)
        self.samples.append(after)
        return result, Timing(seconds, seconds / scale)


class Workload:
    """Shared bookkeeping: operations attempted, failed and hit by the known defect."""

    name = ""
    fixed_passes: int | None = None  # None: untraced passes repeat until --seconds is spent
    trace_passes = 1  # passes run once untraced and once traced in trace mode

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0  # calls that raise the documented defect: not failed, but not ok
        self.gate_failures: list[str] = []
        self._clocks: dict[str, ReferenceClock] = {}

    def clock_of(self, kernel: str) -> ReferenceClock:
        # built on first use, so the benchmark's own kernels stay out of set-up time
        if kernel not in self._clocks:
            self._clocks[kernel] = ReferenceClock(kernel)
        return self._clocks[kernel]

    @property
    def clock(self) -> ReferenceClock:
        return self.clock_of("scalar")

    def gate(self, ok: bool, message: str) -> None:
        """Record a failed correctness gate; the first 20 messages are kept."""
        if not ok and len(self.gate_failures) < 20:
            self.gate_failures.append(message)

    def run_pass(self, tracer) -> dict:
        raise NotImplementedError

    def trace_pass(self, tracer) -> dict:
        return self.run_pass(tracer)

    def reference_detail(self) -> dict:
        return {
            "reference_s": {k: median(c.samples) for k, c in self._clocks.items()},
            "reference_runs": {k: len(c.samples) for k, c in self._clocks.items()},
        }


def _rates(work: float, timing: Timing) -> tuple[float, float]:
    return work / timing.refs, work / timing.seconds


def _sum(timings) -> Timing:
    timings = list(timings)
    return Timing(sum(t.seconds for t in timings), sum(t.refs for t in timings))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteSize:
    trials_per_cell: int = 10
    dims: tuple[int, ...] = SUITE_DIMS
    alphas: tuple[float, ...] = SUITE_ALPHAS


class Suite(Workload):
    """`alphacoh verify` on the acceptance grid, measure checks then functional checks.

    Each check is its own verify run, so the reference clock is read every
    0.1-0.3 s. Every pass repeats the runs with the same seed, so each record
    file must come out byte-identical each time.
    """

    name = "suite"
    trace_passes = 2

    def __init__(self, seed: int, work_dir: str, size: SuiteSize = SuiteSize()):
        super().__init__()
        verify_seed = derive_seed(seed, 1)
        self.argv = {}  # (group, check) -> verify arguments
        self.out_paths = {}
        self.trials_per_run = len(size.dims) * len(size.alphas) * size.trials_per_cell
        self.trials = {group: len(checks) * self.trials_per_run for group, checks in SUITE_GROUPS.items()}
        for group, checks in SUITE_GROUPS.items():
            for check in checks:
                out_path = os.path.join(work_dir, f"verify-{check}.csv")
                argv = ["verify", "--trials", str(size.trials_per_cell), "--seed", str(verify_seed)]
                argv += ["--rank-policy", "mixed-ranks", "--n-kraus", "1:4", "--kind", "alpha"]
                argv += ["--workers", "1", "--format", "csv", "--out", out_path, "--check", check]
                for d in size.dims:
                    argv += ["--dim", str(d)]
                for a in size.alphas:
                    argv += ["--alpha", repr(a)]
                self.argv[group, check] = argv
                self.out_paths[group, check] = out_path
        self.digests: dict[str, str] = {}

    @staticmethod
    def _verify(argv) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        return code, stdout.getvalue()

    def warm_up(self) -> None:
        # one trial per cell reaches every code path a pass uses
        for argv in self.argv.values():
            warm = list(argv)
            warm[warm.index("--trials") + 1] = "1"
            self._verify(warm)

    def run_pass(self, tracer) -> dict:
        result = {group: [] for group in SUITE_GROUPS}
        for (group, check), argv in self.argv.items():
            tracer.mark(group)
            tracer.new_op()
            (code, stdout), timing = self.clock.time(self._verify, argv)
            with open(self.out_paths[group, check], "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            rows = raw.decode().splitlines()[1:]
            errors = sum(1 for row in rows if row.split(",", 11)[-1] != "")
            self.attempted += self.trials_per_run
            self.failed += errors
            self.gate(code == 0, f"verify {check} exited {code}: {stdout.strip()[-300:]}")
            self.gate(len(rows) >= self.trials_per_run, f"verify {check}: {len(rows)} records")
            first = self.digests.setdefault(check, digest)
            self.gate(digest == first, f"verify {check}: record file sha256 changed between repeats")
            result[group].append(timing)
        return {group: _sum(timings) for group, timings in result.items()}

    def summarize(self, passes: list[dict]) -> tuple[dict, dict]:
        m, f = self.trials["measure"], self.trials["functional"]
        both = [_rates(m + f, _sum(p.values())) for p in passes]
        measure = [_rates(m, p["measure"]) for p in passes]
        functional = [_rates(f, p["functional"]) for p in passes]
        values = {
            "ops_per_ref": median(r for r, _ in both),
            "part_a_per_ref": median(r for r, _ in measure),
            "part_b_per_ref": median(r for r, _ in functional),
        }
        detail = {
            "aliases": {
                "ops_per_ref": "suite_trials_per_s",
                "part_a_per_ref": "suite_measure_trials_per_s",
                "part_b_per_ref": "suite_functional_trials_per_s",
            },
            "raw_per_s": {
                "suite_trials_per_s": median(r for _, r in both),
                "suite_measure_trials_per_s": median(r for _, r in measure),
                "suite_functional_trials_per_s": median(r for _, r in functional),
            },
            "samples": {k: len(passes) for k in values},
            "trials_per_pass": self.trials,
            "record_sha256": self.digests,
            **self.reference_detail(),
        }
        return values, detail


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSize:
    # criterion 8's batch size: refinement fires about once per batch, so a
    # smaller batch would shift the work towards refinement
    batch: int = SEARCH_BATCH
    qutrit_seeds: int = 12
    alphas: tuple[float, ...] = SEARCH_ALPHAS
    n_kraus_range: tuple[int, int] = SEARCH_KRAUS


class Search(Workload):
    """Qubit search over one whole structure-grid cycle per kind, then qutrit witness hunts.

    The qubit cycle runs as one search per (alpha, operator count), each over
    one cycle of its own (rank, merge pair) grid, so together they cover
    criterion 8's (alpha, operators, rank, merge pair) grid once per kind, and
    the reference clock is read every 0.3-3 s rather than once per cycle.
    """

    name = "search"
    fixed_passes = 1  # one pass is whole structure cycles and takes longer than --seconds

    def __init__(self, seed: int, work_dir: str, size: SearchSize = SearchSize()):
        super().__init__()
        self.size = size
        lo, hi = size.n_kraus_range
        self.qubit_units = [
            (kind, alpha, nk, derive_seed(seed, 2, i, j, nk))
            for i, kind in enumerate(SEARCH_KINDS)
            for j, alpha in enumerate(size.alphas)
            for nk in range(lo, hi + 1)
        ]
        self.budgets = {nk: structure_grid_size(2, size.alphas[:1], (nk, nk)) * size.batch for nk in range(lo, hi + 1)}
        self.qutrit_seeds = [derive_seed(seed, 3, i) for i in range(size.qutrit_seeds)]
        self.grid = structure_grid_size(2, size.alphas, size.n_kraus_range)
        self.warm_seed = derive_seed(seed, 9)

    def warm_up(self) -> None:
        # the first batch of the cycle has one operator: no refinement, just the batch path
        search_violation(2, 64, kind="tsallis", seed=self.warm_seed, batch_size=64)

    def run_pass(self, tracer, kinds=SEARCH_KINDS, qutrit_seeds=None) -> dict:
        qubit_draws, qubit = 0, []
        tracer.mark("qubit")
        for kind, alpha, nk, seed in self.qubit_units:
            if kind not in kinds:
                continue
            tracer.new_op()
            budget = self.budgets[nk]
            report, timing = self.clock.time(
                search_violation, 2, budget, kind=kind, alphas=(alpha,), seed=seed,
                n_kraus_range=(nk, nk), batch_size=self.size.batch,
            )
            qubit.append(timing)
            qubit_draws += report.trials_used
            self.attempted += 1
            if kind == "alpha" and report.found:
                self.failed += 1
                self.gate(False, f"control kind 'alpha' found a witness, gap {report.gap!r}")
            if not report.found:
                self.gate(report.trials_used == budget, f"qubit {kind} search used {report.trials_used} of {budget} draws")
        witness, witness_draws = [], 0
        tracer.mark("qutrit")
        for seed in self.qutrit_seeds if qutrit_seeds is None else qutrit_seeds:
            tracer.new_op()
            report, timing = self.clock.time(search_violation, 3, QUTRIT_BUDGET, kind="tsallis", seed=seed)
            witness.append(timing)
            witness_draws += report.trials_used
            self.attempted += 1
            ok = report.found and report.gap > WITNESS_GAP and reverify_violation(report) == report.gap
            if not ok:
                self.failed += 1
                self.gate(False, f"qutrit seed {seed}: found={report.found} gap={report.gap!r} "
                                 "did not replay bit-equal above 1e-6")
        return {"qubit": (qubit_draws, _sum(qubit)), "witness": witness, "witness_draws": witness_draws}

    def trace_pass(self, tracer) -> dict:
        # the Ct_alpha kind and half the qutrit seeds, so the untraced and
        # traced passes fit the time limit
        return self.run_pass(tracer, kinds=SEARCH_KINDS[:1], qutrit_seeds=self.qutrit_seeds[::2])

    def summarize(self, passes: list[dict]) -> tuple[dict, dict]:
        qubit_draws = sum(p["qubit"][0] for p in passes)
        qubit = _sum(p["qubit"][1] for p in passes)
        witness = [w for p in passes for w in p["witness"]]
        witness_draws = sum(p["witness_draws"] for p in passes)
        total = _sum([qubit, *witness])
        values = {
            "ops_per_ref": (qubit_draws + witness_draws) / total.refs,
            "part_a_per_ref": qubit_draws / qubit.refs,
            "part_b_per_ref": 1.0 / median(w.refs for w in witness),
        }
        detail = {
            "aliases": {
                "ops_per_ref": "draws/s over qubit and qutrit searches",
                "part_a_per_ref": "search_draws_per_s",
                "part_b_per_ref": "1 / witness_s",
            },
            "raw_per_s": {
                "draws_per_s": (qubit_draws + witness_draws) / total.seconds,
                "search_draws_per_s": qubit_draws / qubit.seconds,
            },
            "samples": {
                "ops_per_ref": len(passes) * (len(self.qubit_units) + len(self.qutrit_seeds)),
                "part_a_per_ref": len(passes) * len(self.qubit_units),
                "part_b_per_ref": len(witness),
            },
            "witness_s": median(w.seconds for w in witness),
            "witness_s_all": [w.seconds for w in witness],
            "witness_draws": witness_draws,
            "structure_grid": self.grid,
            "draws_per_search": {str(nk): b for nk, b in self.budgets.items()},
            **self.reference_detail(),
        }
        return values, detail


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasuresSize:
    states_per_rank: int = 12
    oracle_states: int = 4
    dims: tuple[int, ...] = MEASURE_DIMS


class Measures(Workload):
    """Scalar calls over every kind and the whole alpha range, then closed form vs grid oracle."""

    name = "measures"
    trace_passes = 5

    def __init__(self, seed: int, work_dir: str, size: MeasuresSize = MeasuresSize()):
        super().__init__()
        rng = np.random.default_rng(derive_seed(seed, 4))
        # one block of states per dimension; each block is timed on its own
        self.blocks = [
            [random_state(d, rank, rng) for rank in range(1, d + 1) for _ in range(size.states_per_rank)]
            for d in size.dims
        ]
        self.states = [rho for block in self.blocks for rho in block]
        self.oracle_states = [
            (d, random_state(d, d, rng)) for d in (2, 3) for _ in range(size.oracle_states)
        ]
        self.calls = len(self.states) * (
            len(ALPHA_KINDS) * len(MEASURE_ALPHAS)
            + (len(MEASURE_KINDS) - len(ALPHA_KINDS))
            + len(MEASURE_ALPHAS)
        )
        self.comparisons = len(self.oracle_states) * len(ORACLE_ALPHAS)
        self.causes: Counter = Counter()
        self.digest = None
        self.worst_ratio = 0.0

    def warm_up(self) -> None:
        # fills the simplex-grid cache for both oracle resolutions
        for d, rho in self.oracle_states[:: max(1, len(self.oracle_states) // 2)]:
            brute_force_min(rho, ORACLE_ALPHAS[0], ORACLE_RESOLUTION[d])
        measure_value("alpha", self.states[0], 0.5)

    def _fail(self, cause: str) -> None:
        self.failed += 1
        self.causes[cause] += 1

    def _raised(self, where: str, exc: Exception, d: int, alpha) -> None:
        """Count an exception as the known defect when it can be one, else as failed."""
        cause = f"{where}: {type(exc).__name__}"
        if isinstance(exc, DegenerateDiagonalError) and underflow_possible(d, alpha):
            self.known_defect += 1
            self.causes["known defect, " + cause] += 1
        else:
            self._fail(cause)

    def _scalar_calls(self, tracer, states, values: list) -> None:
        for rho in states:
            d = rho.shape[0]
            for kind in MEASURE_KINDS:
                for alpha in MEASURE_ALPHAS if kind in ALPHA_KINDS else (None,):
                    tracer.new_op()
                    try:
                        value = measure_value(kind, rho, alpha)
                    except Exception as exc:  # counted, never fatal: the share is a metric
                        self._raised(kind, exc, d, alpha)
                        value = math.inf
                    if value != value:
                        self._fail(f"{kind}: NaN")
                    values.append(value)
            for alpha in MEASURE_ALPHAS:
                tracer.new_op()
                try:
                    delta = optimal_incoherent_state(rho, alpha)
                except Exception as exc:
                    self._raised("optimal", exc, d, alpha)
                    delta = [math.inf]
                if np.isnan(delta).any():
                    self._fail("optimal: NaN")
                values.extend(delta)

    def _oracle_comparisons(self, tracer, values: list) -> None:
        for d, rho in self.oracle_states:
            resolution = ORACLE_RESOLUTION[d]
            bound = ORACLE_BOUND_FACTOR[d] * resolution
            for alpha in ORACLE_ALPHAS:
                tracer.new_op()
                try:
                    closed = measure_value("alpha", rho, alpha)
                    oracle, _ = brute_force_min(rho, alpha, resolution)
                except Exception as exc:
                    self._fail(f"oracle: {type(exc).__name__}")
                    self.gate(False, f"oracle comparison raised {exc!r}")
                    continue
                values.extend((closed, oracle))
                self.worst_ratio = max(self.worst_ratio, abs(closed - oracle) / bound)
                if not closed <= oracle + ORACLE_SLACK:
                    self._fail("oracle: closed form above oracle")
                    self.gate(False, f"d={d} alpha={alpha}: closed {closed!r} above oracle {oracle!r}")
                elif not abs(closed - oracle) <= bound:
                    self._fail("oracle: outside bound")
                    self.gate(False, f"d={d} alpha={alpha}: |closed - oracle| above {bound!r}")

    def run_pass(self, tracer) -> dict:
        values: list = []
        tracer.mark("calls")
        calls = _sum(self.clock.time(self._scalar_calls, tracer, block, values)[1] for block in self.blocks)
        tracer.mark("oracle")
        vector_clock = self.clock_of("vector")
        vector_clock.tick()
        _, oracle = vector_clock.time(self._oracle_comparisons, tracer, values)
        self.attempted += self.calls + self.comparisons
        digest = hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()
        self.digest = self.digest or digest
        self.gate(digest == self.digest, "scalar results changed between identical passes")
        return {"calls": calls, "oracle": oracle}

    def summarize(self, passes: list[dict]) -> tuple[dict, dict]:
        n, k = self.calls, self.comparisons
        both = [_rates(n + k, _sum(p.values())) for p in passes]
        calls = [_rates(n, p["calls"]) for p in passes]
        oracle = [_rates(k, p["oracle"]) for p in passes]
        values = {
            "ops_per_ref": median(r for r, _ in both),
            "part_a_per_ref": median(r for r, _ in calls),
            "part_b_per_ref": median(r for r, _ in oracle),
        }
        detail = {
            "aliases": {
                "ops_per_ref": "scalar calls and oracle comparisons per second",
                "part_a_per_ref": "measure_calls_per_s",
                "part_b_per_ref": "oracle_checks_per_s",
            },
            "raw_per_s": {
                "calls_and_comparisons_per_s": median(r for _, r in both),
                "measure_calls_per_s": median(r for _, r in calls),
                "oracle_checks_per_s": median(r for _, r in oracle),
            },
            "samples": {k: len(passes) for k in values},
            "calls_per_pass": self.calls,
            "comparisons_per_pass": self.comparisons,
            "failure_causes": dict(self.causes),
            "worst_oracle_diff_over_bound": self.worst_ratio,
            "values_sha256": self.digest,
            **self.reference_detail(),
        }
        return values, detail


WORKLOADS = {"suite": Suite, "search": Search, "measures": Measures}
