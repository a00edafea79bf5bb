"""Command-line interface: compute measures, sweep alpha, verify, search, replay.

Everything is emitted as flat delimited records (CSV by default, JSON with
--format json; the two carry identical values). Floats are serialized with
full round-trip precision so a rerun with the same seed is byte-identical.

Exit codes: 0 success (for search-violation: witness found), 1 property
failure or violation not confirmed, 2 bad usage or input validation,
3 search budget exhausted without a witness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .channels import is_incoherent, load_channel, save_channel
from .coherence import (
    ALPHA_KINDS,
    MEASURE_KINDS,
    ORACLE_RESOLUTION,
    brute_force_min,
    check_alpha_floor,
    coherence_alpha,
    measure_value,
    tsallis_coherence,
)
from .divergence import check_count, validate_alpha
from .harness import (
    ALL_CHECKS,
    SEARCH_ALPHAS,
    VIOLATION_GAP,
    TrialConfig,
    TrialRecord,
    run_suite,
    search_violation,
    _strong_mono_stats,
)
from .states import load_state, random_density, read_json, save_state, substream

SCHEMA_VERSION = 1
LN2 = math.log(2.0)
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3

VERIFY_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord))
COMPUTE_COLUMNS = ("measure", "dim", "alpha", "value", "units", "seed")
ORACLE_COLUMNS = (
    "dim", "alpha", "state_index", "closed_form", "oracle_value",
    "abs_diff", "resolution", "seed",
)
REPLAY_COLUMNS = (
    "kind", "dim", "alpha", "coherence_before", "average_after",
    "gap", "violation", "channel_incoherent",
)

# witness_meta.json carries these ViolationReport fields, in this order, after "schema"
WITNESS_FIELDS = (
    "kind", "dim", "alpha", "coherence_before", "average_after", "gap",
    "seed", "trial_index", "trials_used", "refined",
)

# |closed form - grid oracle| must stay under factor * resolution
ORACLE_BOUND_FACTOR = {2: 20.0, 3: 10.0}
ORACLE_ALPHAS = (0.3, 0.5, 0.7, 1.3, 1.5, 2.0)
# a sweep grid past this many points is a typo in --alpha-range, not a request
MAX_SWEEP_POINTS = 100_000


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(records: list[dict], columns, fmt: str, out_path: str | None) -> None:
    """Write records as CSV (fixed header) or JSON ({"schema": 1, "records": [...]})."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_cell(r.get(c)) for c in columns) for r in records)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "schema": SCHEMA_VERSION,
            "records": [{c: r.get(c) for c in columns} for r in records],
        }
        text = json.dumps(payload, indent=1) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(args) -> int:
    """--seed, else COHERENCE_SEED, else 0; a seed below 0 is refused under the name of its source."""
    if args.seed is not None:
        return check_count(args.seed, "--seed", 0)
    env = os.environ.get("COHERENCE_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise ValueError(f"COHERENCE_SEED must be an integer, got {env!r}") from None
    return check_count(seed, "COHERENCE_SEED", 0)


# the entropy-limit argument behind the bits factor only covers the
# divergence-derived kinds; l1, skew, and c2 are plain numbers
CONVERTIBLE_KINDS = frozenset({"alpha", "tsallis", "relent"})


def _convert_units(kind: str, value: float, units: str) -> tuple[float, str]:
    if kind not in CONVERTIBLE_KINDS:
        return value, "dimensionless"
    return (value / LN2, "bits") if units == "bits" else (value, "nats")


def _parse_alpha_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--alpha-range expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
        validate_alpha(lo), validate_alpha(hi)
    except ValueError as exc:
        raise ValueError(f"--alpha-range expects lo:hi:step with lo, hi in (0, 2], got {text!r}: {exc}")
    if not 0.0 < step < math.inf:
        raise ValueError(f"--alpha-range step must be positive and finite, got {step}")
    if hi < lo:
        raise ValueError(f"--alpha-range is empty: lo {lo} > hi {hi}")
    steps = (hi - lo) / step + 1e-9  # inf for a subnormal step
    if not steps < MAX_SWEEP_POINTS:
        raise ValueError(f"--alpha-range {text!r} holds more than {MAX_SWEEP_POINTS} points")
    # count >= 1 as hi >= lo; the measures reject a point under the alpha floor before any row is emitted.
    # lo + i * step can round past hi (2.0000000000000004 at hi = 2), so it is capped there
    return [min(lo + i * step, hi) for i in range(int(math.floor(steps)) + 1)]


def _emit_measures(args, pairs) -> int:
    """compute and sweep: one row per (kind, alpha) pair, in order; alpha is None for the plain kinds."""
    rho = load_state(args.state)
    seed = _resolve_seed(args)
    rows = []
    for kind, alpha in pairs:
        delta = None
        if kind in ALPHA_KINDS:
            result = coherence_alpha(rho, alpha) if kind == "alpha" else tsallis_coherence(rho, alpha)
            value, alpha = result.value, float(alpha)
            delta = ";".join(repr(float(x)) for x in result.optimal_delta)
        else:
            value = measure_value(kind, rho)
        value, unit_label = _convert_units(kind, value, args.units)
        row = {
            "measure": kind,
            "dim": rho.shape[0],
            "alpha": alpha,
            "value": value,
            "units": unit_label,
            "seed": seed,
        }
        if args.emit_delta:
            row["delta"] = delta
        rows.append(row)
    _emit(rows, COMPUTE_COLUMNS + ("delta",) if args.emit_delta else COMPUTE_COLUMNS, args.format, args.out)
    return EXIT_OK


def cmd_compute(args) -> int:
    # every --alpha is gated before any row, also when only the plain kinds ignore it
    alphas = [check_alpha_floor(a) for a in args.alpha or [1.0]]
    kinds = args.kind or MEASURE_KINDS
    return _emit_measures(args, [(k, a) for k in kinds for a in (alphas if k in ALPHA_KINDS else [None])])


def cmd_sweep(args) -> int:
    # ordered by alpha; alpha ~ 1 flows through the analytic limit
    grid = _parse_alpha_range(args.alpha_range)
    return _emit_measures(args, [(kind, alpha) for alpha in grid for kind in args.kind or ALPHA_KINDS])


def _config_from_args(args) -> TrialConfig:
    """TrialConfig from the verify flags that were set, then the --config keys on top of it."""
    fields = {f.name for f in dataclasses.fields(TrialConfig)}
    flags = {name: value for name, value in vars(args).items() if name in fields and value is not None}
    if "n_kraus_range" in flags:
        flags["n_kraus_range"] = _parse_kraus_range(flags["n_kraus_range"])
    # verify's --seed is TrialConfig's master_seed, gated there under that name, as in a config file
    cfg = TrialConfig(master_seed=_resolve_seed(args) if args.seed is None else args.seed, **flags)
    overrides = read_json(args.config) if args.config else {}
    if not isinstance(overrides, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    try:
        return dataclasses.replace(cfg, **overrides)  # config file wins over flags
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.config}: {exc}") from None


def _parse_kraus_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"--n-kraus expects N or LO:HI, got {text!r}")
    return lo, hi


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    summary = run_suite(cfg, workers=args.workers)
    if args.out:
        _emit([vars(r) for r in summary.records], VERIFY_COLUMNS, args.format, args.out)
    name_width = max(len(name) for name in summary.stats)
    print(f"{'check':<{name_width}}  {'trials':>7} {'pass':>7} {'fail':>5} {'degen':>5}  worst_margin")
    for name, stats in summary.stats.items():
        worst = "" if math.isinf(stats.worst_margin) else repr(stats.worst_margin)
        print(
            f"{name:<{name_width}}  {stats.trials:>7} {stats.passes:>7} "
            f"{stats.failures:>5} {stats.degenerate:>5}  {worst}"
        )
    verdict = "PASS" if summary.all_passed else "FAIL"
    print(f"verdict: {verdict} (seed {cfg.master_seed}, {summary.runtime_s:.1f} s)")
    if not summary.all_passed:
        failures = [r for r in summary.records if not r.passed]
        clean = [r for r in failures if not r.error]  # genuine margins beat error sentinels
        worst = min(clean or failures, key=lambda r: r.margin)
        print(
            f"worst failure: {worst.check_name} d={worst.dim} alpha={worst.alpha} "
            f"kind={worst.kind} margin={worst.margin!r} trial={worst.trial}"
        )
        if worst.check_name in ("strong_monotonicity", "monotonicity") and not worst.error:
            # the record's own sides; a replay of its state and channel gives the same bits
            strong = worst.check_name == "strong_monotonicity"
            after_label = "selective average" if strong else "channel output"
            print("violation witness (harness.rebuild_witness recreates its state and channel):")
            print(f"  coherence before   : {worst.lhs!r}")
            print(f"  {after_label:19s}: {worst.rhs!r}")
            print(f"  gap (after - before): {worst.rhs - worst.lhs!r}")
    return EXIT_OK if summary.all_passed else EXIT_FAILURE


def cmd_search_violation(args) -> int:
    seed = _resolve_seed(args)
    report = search_violation(
        args.dim,
        args.trials,
        kind=args.kind,
        alphas=args.alpha or SEARCH_ALPHAS,
        seed=seed,
    )
    if not report.found:
        print(
            f"no violation found: kind={report.kind} dim={report.dim} "
            f"trials={report.trials_used} best_gap={report.best_gap!r}"
        )
        return EXIT_EXHAUSTED
    os.makedirs(args.out_dir, exist_ok=True)
    state_path = os.path.join(args.out_dir, "witness_state.json")
    channel_path = os.path.join(args.out_dir, "witness_channel.json")
    meta_path = os.path.join(args.out_dir, "witness_meta.json")
    save_state(state_path, report.state)
    save_channel(channel_path, report.channel)
    meta = {
        "schema": SCHEMA_VERSION,
        **{name: getattr(report, name) for name in WITNESS_FIELDS},
        "state_file": state_path,
        "channel_file": channel_path,
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    print(
        f"violation found: kind={report.kind} dim={report.dim} alpha={report.alpha} "
        f"gap={report.gap!r} (trial {report.trial_index}, {report.trials_used} trials used)"
    )
    print(f"witness written: {state_path} {channel_path} {meta_path}")
    return EXIT_OK


def cmd_replay(args) -> int:
    rho = load_state(args.state)
    ch = load_channel(args.channel)
    if ch.dim != rho.shape[0]:
        raise ValueError(f"{args.channel}: dim {ch.dim} does not match dim {rho.shape[0]} of {args.state}")
    incoherent = is_incoherent(ch)
    before, after, gap = _strong_mono_stats(args.kind, rho, ch.kraus, args.alpha)
    violation = gap > VIOLATION_GAP
    row = {
        "kind": args.kind,
        "dim": rho.shape[0],
        "alpha": args.alpha,
        "coherence_before": before,
        "average_after": after,
        "gap": gap,
        "violation": violation,
        "channel_incoherent": incoherent,
    }
    _emit([row], REPLAY_COLUMNS, args.format, args.out)
    return EXIT_OK if violation else EXIT_FAILURE


def cmd_oracle_compare(args) -> int:
    if args.dim not in (2, 3):
        raise ValueError(f"oracle comparison supports dim 2 or 3, got {args.dim}")
    check_count(args.states, "--states", 1)
    seed = _resolve_seed(args)
    resolution = args.resolution if args.resolution is not None else ORACLE_RESOLUTION[args.dim]
    # brute_force_min rejects an alpha within 1e-6 of 1 before any row is emitted
    alphas = args.alpha or ORACLE_ALPHAS
    bound = ORACLE_BOUND_FACTOR[args.dim] * resolution
    rows = []
    worst = 0.0
    closed_above_oracle = False
    for index in range(args.states):
        rng = substream(seed, index)
        rho = random_density(args.dim, args.dim, rng)  # full rank
        for alpha in alphas:
            closed = coherence_alpha(rho, alpha).value
            oracle, _ = brute_force_min(rho, alpha, resolution)
            diff = abs(closed - oracle)
            worst = max(worst, diff)
            if closed > oracle + 1e-9:
                closed_above_oracle = True
            rows.append(
                {
                    "dim": args.dim,
                    "alpha": float(alpha),
                    "state_index": index,
                    "closed_form": closed,
                    "oracle_value": oracle,
                    "abs_diff": diff,
                    "resolution": resolution,
                    "seed": seed,
                }
            )
    _emit(rows, ORACLE_COLUMNS, args.format, args.out)
    if worst > bound or closed_above_oracle:
        print(
            f"oracle disagreement: worst |diff| {worst!r} (bound {bound!r}), "
            f"closed form above oracle: {closed_above_oracle}",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphacoh",
        description="Coherence quantifiers from the Tsallis relative alpha entropy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    records = argparse.ArgumentParser(add_help=False)  # for the subcommands that emit records
    records.add_argument("--format", choices=("csv", "json"), default="csv")
    records.add_argument("--out", metavar="PATH", help="write records here instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False)  # for the subcommands that draw or label a seed
    seeded.add_argument("--seed", type=int, default=None,
                        help="seed (falls back to COHERENCE_SEED, then 0)")
    shared = [records, seeded]

    p_compute = sub.add_parser("compute", parents=shared, help="evaluate measures on a state file")
    p_compute.add_argument("state", help="state file (JSON: dim + row-major entries)")
    p_compute.add_argument("--kind", action="append", choices=MEASURE_KINDS,
                           help="measure kind, repeatable (default: all)")
    p_compute.add_argument("--alpha", action="append", type=float,
                           help="alpha for the family kinds, repeatable (default: 1.0)")
    p_compute.add_argument("--units", choices=("nats", "bits"), default="nats")
    p_compute.add_argument("--emit-delta", action="store_true",
                           help="include the optimal incoherent populations")
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", parents=shared, help="evaluate the families over an alpha grid")
    p_sweep.add_argument("state")
    p_sweep.add_argument("--alpha-range", required=True, metavar="LO:HI:STEP")
    p_sweep.add_argument("--kind", action="append", choices=ALPHA_KINDS,
                         help="family kind, repeatable (default: both)")
    p_sweep.add_argument("--units", choices=("nats", "bits"), default="nats")
    p_sweep.add_argument("--emit-delta", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=shared, help="run the randomized inequality suite")
    # each dest is a TrialConfig field; a flag left unset keeps that field's default
    p_verify.add_argument("--dim", action="append", type=int, dest="dims", metavar="DIM")
    p_verify.add_argument("--alpha", action="append", type=float, dest="alphas", metavar="ALPHA")
    p_verify.add_argument("--trials", type=int, dest="trials_per_cell", metavar="TRIALS",
                          help="trials per (check, dim, alpha) cell")
    p_verify.add_argument("--tol", type=float, dest="tolerance", metavar="TOL")
    p_verify.add_argument("--rank-policy", choices=("full", "mixed-ranks"))
    p_verify.add_argument("--n-kraus", dest="n_kraus_range", metavar="LO:HI")
    p_verify.add_argument("--check", action="append", choices=ALL_CHECKS, dest="checks")
    p_verify.add_argument("--kind", choices=MEASURE_KINDS)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--config", metavar="PATH",
                          help="JSON TrialConfig; its keys override the flags")
    p_verify.set_defaults(func=cmd_verify)

    # no abbreviations here, or "--out" would pass for "--out-dir"
    p_search = sub.add_parser("search-violation", parents=[seeded], allow_abbrev=False,
                              help="hunt for a strong-monotonicity violation")
    p_search.add_argument("--dim", type=int, default=2)
    p_search.add_argument("--alpha", action="append", type=float,
                          help=f"candidate alphas (default: {' '.join(map(str, SEARCH_ALPHAS))})")
    p_search.add_argument("--trials", type=int, default=1_000_000)
    p_search.add_argument("--kind", default="tsallis", choices=ALPHA_KINDS)
    p_search.add_argument("--out-dir", default=".", help="where witness files go")
    p_search.set_defaults(func=cmd_search_violation)

    p_replay = sub.add_parser("replay", parents=[records], help="recompute a witness gap from its files")
    p_replay.add_argument("--state", required=True)
    p_replay.add_argument("--channel", required=True)
    p_replay.add_argument("--alpha", type=float, required=True)
    p_replay.add_argument("--kind", default="tsallis", choices=ALPHA_KINDS)
    p_replay.set_defaults(func=cmd_replay)

    p_oracle = sub.add_parser("oracle-compare", parents=shared, help="closed form vs simplex grid oracle")
    p_oracle.add_argument("--dim", type=int, default=2)
    p_oracle.add_argument("--alpha", action="append", type=float,
                          help=f"default: {' '.join(map(str, ORACLE_ALPHAS))}")
    p_oracle.add_argument("--states", type=int, default=200)
    p_oracle.add_argument("--resolution", type=float, default=None,
                          help="grid resolution (default: "
                          + ", ".join(f"{r} for d={d}" for d, r in ORACLE_RESOLUTION.items()) + ")")
    p_oracle.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input from outside; a ValueError names its file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
