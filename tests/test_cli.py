"""CLI behavior: flags, formats, exit codes, and byte-level reproducibility."""

import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import alphacoh
import alphacoh.cli as cli
from alphacoh.cli import (
    COMPUTE_COLUMNS,
    EXIT_EXHAUSTED,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    ORACLE_COLUMNS,
    VERIFY_COLUMNS,
    main,
)
from alphacoh.channels import dephasing_channel, save_channel
from alphacoh.coherence import MEASURE_KINDS, coherence_alpha
from alphacoh.harness import TrialConfig, TrialRecord, check_strong_monotonicity, rebuild_witness, run_suite
from alphacoh.states import maximally_coherent, random_density, save_state, substream

LN2 = math.log(2.0)
REPO_ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


def parse_csv(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture
def qubit_state(tmp_path):
    path = tmp_path / "plus.json"
    save_state(path, maximally_coherent(2))
    return str(path)


@pytest.fixture
def qutrit_state(tmp_path):
    path = tmp_path / "qutrit.json"
    save_state(path, random_density(3, 3, substream(2026, 200)))
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("COHERENCE_SEED", raising=False)


class TestCompute:
    def test_small_alpha_value(self, qubit_state, capsys):
        # S = 2 * (1/2)^(1/alpha) = 2^-49 sits far below any absolute cut
        assert main(["compute", qubit_state, "--kind", "alpha", "--alpha", "0.02"]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["value"]) == pytest.approx((2.0**-49 - 1.0) / (0.02 - 1.0), rel=1e-15)

    def test_known_value_csv(self, qubit_state, capsys):
        assert main(["compute", qubit_state, "--kind", "alpha", "--alpha", "2.0"]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["measure"] == "alpha"
        assert float(rows[0]["value"]) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
        assert rows[0]["units"] == "nats"
        assert rows[0]["seed"] == "0"

    def test_header_matches_contract(self, qubit_state, capsys):
        main(["compute", qubit_state, "--kind", "l1"])
        out = capsys.readouterr().out
        assert out.split("\n")[0] == ",".join(COMPUTE_COLUMNS)

    def test_bits_conversion(self, qubit_state, capsys):
        main(["compute", qubit_state, "--kind", "relent", "--units", "bits"])
        rows = parse_csv(capsys.readouterr().out)
        # ln 2 nats is exactly one bit for the flat qubit
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-12)
        assert rows[0]["units"] == "bits"

    def test_geometric_kinds_ignore_units(self, qubit_state, capsys):
        main(["compute", qubit_state, "--kind", "l1", "--units", "bits"])
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["units"] == "dimensionless"
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-12)

    def test_default_runs_all_kinds(self, qubit_state, capsys):
        main(["compute", qubit_state])
        rows = parse_csv(capsys.readouterr().out)
        assert [r["measure"] for r in rows] == ["alpha", "tsallis", "relent", "l1", "skew", "c2"]
        # only the two families carry an alpha value
        assert all(r["alpha"] == "1.0" for r in rows[:2])
        assert all(r["alpha"] == "" for r in rows[2:])

    def test_emit_delta(self, qutrit_state, capsys):
        main(["compute", qutrit_state, "--kind", "alpha", "--alpha", "1.5", "--emit-delta"])
        rows = parse_csv(capsys.readouterr().out)
        parts = [float(x) for x in rows[0]["delta"].split(";")]
        assert len(parts) == 3
        assert sum(parts) == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, qubit_state, capsys):
        main(["compute", qubit_state, "--kind", "c2", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["records"][0]["measure"] == "c2"
        assert payload["records"][0]["value"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_out_file(self, qubit_state, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        main(["compute", qubit_state, "--kind", "l1", "--out", str(out)])
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith(",".join(COMPUTE_COLUMNS))

    @pytest.mark.parametrize("kind", ["l1", "relent", "skew", "c2", "alpha"])
    @pytest.mark.parametrize("alpha", ["7", "0", "1e-12"])
    def test_every_alpha_is_gated_before_any_row(self, qubit_state, kind, alpha, capsys):
        # also when the only kinds asked for ignore alpha
        args = ["compute", qubit_state, "--kind", "relent", "--kind", kind, "--alpha", "0.5", "--alpha", alpha]
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha" in captured.err

    def test_missing_state_file_is_usage_error(self, tmp_path, capsys):
        assert main(["compute", str(tmp_path / "absent.json")]) == EXIT_USAGE

    def test_env_seed_lands_in_rows(self, qubit_state, capsys, monkeypatch):
        monkeypatch.setenv("COHERENCE_SEED", "41")
        main(["compute", qubit_state, "--kind", "l1"])
        assert parse_csv(capsys.readouterr().out)[0]["seed"] == "41"

    def test_flag_seed_beats_env(self, qubit_state, capsys, monkeypatch):
        monkeypatch.setenv("COHERENCE_SEED", "41")
        main(["compute", qubit_state, "--kind", "l1", "--seed", "5"])
        assert parse_csv(capsys.readouterr().out)[0]["seed"] == "5"

    def test_bad_env_seed(self, qubit_state, capsys, monkeypatch):
        monkeypatch.setenv("COHERENCE_SEED", "abc")
        assert main(["compute", qubit_state, "--kind", "l1"]) == EXIT_USAGE


# 0.5 + k * 2^-17 is exact, so these grids hold exactly 100,000 and 100,001 points
AT_CAP = "0.5:1.26293182373046875:7.62939453125e-06"
OVER_CAP = "0.5:1.262939453125:7.62939453125e-06"


class TestSweep:
    def test_grid_and_families(self, qutrit_state, capsys):
        assert main(["sweep", qutrit_state, "--alpha-range", "0.5:1.5:0.5"]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert [r["alpha"] for r in rows] == ["0.5", "0.5", "1.0", "1.0", "1.5", "1.5"]
        assert [r["measure"] for r in rows[:2]] == ["alpha", "tsallis"]

    def test_families_agree_at_one(self, qutrit_state, capsys):
        main(["sweep", qutrit_state, "--alpha-range", "1.0:1.0:1.0"])
        rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["value"]) == float(rows[1]["value"])

    @pytest.mark.parametrize(
        "bad",
        [
            "0.5:1.5", "a:b:c", "0.5:1.5:0", "1.5:0.5:0.1", "0.0:1.0:0.5", "1.0:2.5:0.5",
            "0.1:inf:0.1", "nan:1:0.1", "0.1:1:inf", "0.1:1:nan", "0.1:2:5e-324", OVER_CAP,
        ],
    )
    def test_bad_ranges(self, qutrit_state, bad, capsys):
        assert main(["sweep", qutrit_state, "--alpha-range", bad]) == EXIT_USAGE

    @pytest.mark.parametrize("bad", ["0.1:inf:0.1", "nan:1:0.1", "0.1:1:nan", OVER_CAP])
    def test_bad_range_names_the_flag(self, qutrit_state, bad, capsys):
        assert main(["sweep", qutrit_state, "--alpha-range", bad]) == EXIT_USAGE
        assert "--alpha-range" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0.18:2.0:0.07", "0.18:2.0:0.14"])
    def test_last_point_never_rounds_past_hi(self, qutrit_state, text, capsys):
        # 0.18 + 26 * 0.07 rounds to 2.0000000000000004, which no measure accepts
        assert main(["sweep", qutrit_state, "--alpha-range", text]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[-1]["alpha"] == "2.0"
        assert max(cli._parse_alpha_range(text)) == 2.0

    def test_points_below_hi_keep_their_bytes(self):
        # the cap only touches a point past hi: this grid still ends just under 1
        assert cli._parse_alpha_range("0.1:1.0:0.3") == [0.1, 0.4, 0.7, 0.9999999999999999]

    def test_grid_cap_is_checked_before_building(self):
        # the step 2^-17 makes the point count exact: the cap passes, one more is refused
        assert len(cli._parse_alpha_range(AT_CAP)) == cli.MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match="more than 100000 points"):
            cli._parse_alpha_range(OVER_CAP)


class TestVerify:
    PASSING = [
        "verify", "--dim", "2", "--alpha", "0.5", "--trials", "5",
        "--check", "strong_monotonicity", "--check", "convexity", "--seed", "3",
    ]
    FAILING = [
        "verify", "--dim", "4", "--alpha", "0.1", "--trials", "30",
        "--check", "strong_monotonicity", "--kind", "tsallis", "--seed", "1",
    ]

    def test_passing_suite(self, capsys):
        assert main(self.PASSING) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "strong_monotonicity" in out

    def test_failing_suite_prints_witness(self, capsys):
        assert main(self.FAILING) == EXIT_FAILURE
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "worst failure: strong_monotonicity" in out
        assert "violation witness" in out
        assert "gap (after - before): 0.012724250935573445" in out

    def test_failing_report_prints_the_worst_record(self, capsys):
        # the report prints the record's own sides; replaying its draws gives the same bits
        cfg = cli._config_from_args(cli._build_parser().parse_args(self.FAILING))
        worst = min((r for r in run_suite(cfg).records if not r.passed), key=lambda r: r.margin)
        assert main(self.FAILING) == EXIT_FAILURE
        out = capsys.readouterr().out
        assert f"coherence before   : {worst.lhs!r}\n" in out
        assert f"selective average  : {worst.rhs!r}\n" in out
        assert f"gap (after - before): {worst.rhs - worst.lhs!r}\n" in out
        replay = check_strong_monotonicity(worst.kind, *rebuild_witness(cfg, worst), worst.alpha)
        assert (replay.lhs, replay.rhs, replay.rhs - replay.lhs) == (worst.lhs, worst.rhs, worst.rhs - worst.lhs)

    def test_columns_are_the_record_fields(self):
        record = TrialRecord("convexity", 2, 0.5, "alpha", 0.1, 0.2, -0.1, False, 0, 0)
        assert VERIFY_COLUMNS == tuple(f.name for f in dataclasses.fields(TrialRecord)) == tuple(vars(record))

    def test_out_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        main(self.PASSING + ["--out", str(out)])
        text = out.read_text()
        assert text.split("\n")[0] == ",".join(VERIFY_COLUMNS)
        rows = parse_csv(text)
        assert len(rows) == 10  # 2 checks x 1 dim x 1 alpha x 5 trials
        assert all(r["passed"] == "true" for r in rows)

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.PASSING + ["--out", str(a)])
        main(self.PASSING + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_is_byte_invariant(self, tmp_path, capsys):
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        main(self.PASSING + ["--out", str(a), "--workers", "1"])
        main(self.PASSING + ["--out", str(b), "--workers", "4"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_a_worker_count_below_one_is_usage_error(self, workers, capsys):
        args = ["verify", "--dim", "2", "--alpha", "0.5", "--trials", "1", "--check", "convexity"]
        assert main(args + ["--workers", workers]) == EXIT_USAGE
        assert "workers" in capsys.readouterr().err

    def test_bad_alpha_is_usage_error(self, capsys):
        assert main(["verify", "--alpha", "2.5", "--trials", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "repeated, field",
        [
            (["--dim", "2", "--dim", "2", "--alpha", "0.5"], "dims"),
            (["--dim", "2", "--alpha", "0.5", "--alpha", "0.5"], "alphas"),
            (["--dim", "2", "--alpha", "0.5", "--check", "monotonicity"], "checks"),
        ],
    )
    def test_a_repeated_grid_entry_is_usage_error(self, repeated, field, capsys):
        args = ["verify", "--trials", "2", "--check", "monotonicity", *repeated]
        assert main(args) == EXIT_USAGE
        assert f"{field} must not repeat" in capsys.readouterr().err

    def test_alpha_below_floor_is_usage_error(self, capsys):
        args = [
            "verify", "--dim", "2", "--alpha", "1e-12", "--trials", "2",
            "--check", "strong_monotonicity",
        ]
        assert main(args) == EXIT_USAGE
        assert "below" in capsys.readouterr().err

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials_per_cell": 2}))
        out = tmp_path / "rows.csv"
        main(self.PASSING + ["--config", str(cfg), "--out", str(out)])
        assert len(parse_csv(out.read_text())) == 4  # 2 checks x 2 trials

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trails_per_cell": 2}))
        assert main(self.PASSING + ["--config", str(cfg)]) == EXIT_USAGE

    def test_defaults_are_trial_config_defaults(self):
        args = cli._build_parser().parse_args(["verify"])
        assert dataclasses.asdict(cli._config_from_args(args)) == dataclasses.asdict(TrialConfig())

    def test_single_operator_channels_at_d6(self, capsys):
        # one operator is a permutation, about 1 in 65 row draws at d = 6
        args = ["verify", "--dim", "6", "--alpha", "0.5", "--trials", "40", "--check", "monotonicity"]
        assert main(args + ["--seed", "3"]) == EXIT_OK

    def test_n_kraus_forms(self, capsys):
        args = [
            "verify", "--dim", "2", "--alpha", "0.5", "--trials", "2",
            "--check", "monotonicity", "--seed", "3",
        ]
        assert main(args + ["--n-kraus", "2"]) == EXIT_OK
        assert main(args + ["--n-kraus", "1:3"]) == EXIT_OK
        assert main(args + ["--n-kraus", "1:2:3"]) == EXIT_USAGE


class TestVerifyRecordBytes:
    """The verify record stream of every kind is pinned by sha256.

    tests/data/verify_sha256.json holds the digests of `verify --out` on dims
    2-4, alphas 0.25/1.5/2.0, 4 trials, seed 5 and all checks. They move only
    when a draw, a check or a measure changes bits, which also moves every
    record a user has written before.
    """

    DIGESTS = json.loads((DATA / "verify_sha256.json").read_text())
    GRID = [
        "verify", "--dim", "2", "--dim", "3", "--dim", "4",
        "--alpha", "0.25", "--alpha", "1.5", "--alpha", "2.0",
        "--trials", "4", "--seed", "5",
    ]

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_digest(self, kind, tmp_path, capsys):
        out = tmp_path / f"{kind}.csv"
        assert main(self.GRID + ["--kind", kind, "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[kind]

    def test_every_kind_is_pinned(self):
        assert sorted(self.DIGESTS) == sorted(MEASURE_KINDS)


class TestFunctionalRecordBytes:
    """The functional checks' verify records on the full acceptance grid are pinned by sha256.

    tests/data/functional_verify_sha256.json holds the digests of `verify --out`
    for lemma1, holder and observations on dims 2-4, the eight suite alphas,
    10 trials, seed 5 and --n-kraus 1:4, one per rank policy.
    """

    DIGESTS = json.loads((DATA / "functional_verify_sha256.json").read_text())
    GRID = [
        "verify", "--dim", "2", "--dim", "3", "--dim", "4",
        *(arg for alpha in ("0.1", "0.25", "0.5", "0.75", "0.9", "1.1", "1.5", "2.0") for arg in ("--alpha", alpha)),
        "--trials", "10", "--seed", "5", "--n-kraus", "1:4",
        "--check", "lemma1", "--check", "holder", "--check", "observations",
    ]

    @pytest.mark.parametrize("policy", ["full", "mixed-ranks"])
    def test_digest(self, policy, tmp_path, capsys):
        out = tmp_path / f"{policy}.csv"
        assert main(self.GRID + ["--rank-policy", policy, "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[policy]


class TestScalarApiBytes:
    """The scalar API's rows on a rank-2 qutrit and a full-rank d=4 state are pinned by sha256.

    tests/data/scalar_api_sha256.json holds the digests of `compute` (all kinds,
    alphas 0.01/0.5/1.0/2.0, with the optimal populations) and of `sweep` (both
    families over 0.05:2.0:0.05, whose alpha ~ 1 point is the relent limit, with
    the optimal populations) on each state, and of `oracle-compare` with 3 states
    at d=2 and d=3. They move only when a spectrum, a closed form or the oracle
    changes bits.
    """

    DIGESTS = json.loads((DATA / "scalar_api_sha256.json").read_text())
    STATES = {"qutrit_rank2": (3, 2, 300), "d4_full": (4, 4, 301)}
    COMMANDS = {
        "compute": ["compute", "--alpha", "0.01", "--alpha", "0.5", "--alpha", "1.0", "--alpha", "2.0", "--emit-delta"],
        "sweep": ["sweep", "--alpha-range", "0.05:2.0:0.05", "--emit-delta"],
    }
    CASES = [
        "compute-qutrit_rank2", "compute-d4_full", "sweep-qutrit_rank2", "sweep-d4_full", "oracle-d2", "oracle-d3",
    ]

    def _argv(self, case, tmp_path):
        if case.startswith("oracle-d"):
            return ["oracle-compare", "--dim", case[-1], "--states", "3"]
        command, name = case.split("-", 1)
        d, rank, key = self.STATES[name]
        path = tmp_path / f"{name}.json"
        save_state(path, random_density(d, rank, substream(2026, key)))
        first, *flags = self.COMMANDS[command]
        return [first, str(path), *flags]

    @pytest.mark.parametrize("case", CASES)
    def test_digest(self, case, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(self._argv(case, tmp_path) + ["--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[case]

    def test_every_case_is_pinned(self):
        assert sorted(self.DIGESTS) == sorted(self.CASES)


class TestMalformedInput:
    """Valid JSON with the wrong content is an input error (exit 2) naming the file."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": 2, "entries": [1, 0, 0, 0]},
            {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], ["x", 0]]},
            {"dim": -2, "entries": [[1, 0]]},
            {"dim": None, "entries": [[1, 0]]},
            {"dim": 2.7, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            {"dim": True, "entries": [[1, 0]]},
            {"dim": "2", "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        ],
    )
    def test_compute_state(self, payload, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        assert main(["compute", str(path)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"d": 2, "kraus": [[1, 0, 0, 1]]},
            {"d": 2, "kraus": 5},
            {"d": 2, "kraus": [[[1, 0], [0, 0], [0, 0], ["x", 0]]]},
            {"d": -2, "kraus": [[[1, 0]]]},
            {"d": 2, "kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]], [[1, 0]]]},
            {"d": 2.5, "kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]]},
            {"d": True, "kraus": [[[1, 0]]]},
            {"d": "2", "kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]]},
        ],
    )
    def test_replay_channel(self, payload, qubit_state, tmp_path, capsys):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(payload))
        args = ["replay", "--state", qubit_state, "--channel", str(path), "--alpha", "0.5"]
        assert main(args) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err


class TestSearchAndReplay:
    def test_replay_dimension_mismatch_names_both_files(self, qubit_state, tmp_path, capsys):
        channel = tmp_path / "qutrit_channel.json"
        save_channel(channel, dephasing_channel(3))
        args = ["replay", "--state", qubit_state, "--channel", str(channel), "--alpha", "0.5"]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(channel) in err and qubit_state in err

    def test_qutrit_find_write_replay(self, tmp_path, capsys):
        out_dir = tmp_path / "witness"
        code = main(
            [
                "search-violation", "--dim", "3", "--trials", "60000",
                "--kind", "tsallis", "--seed", "0", "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "violation found" in capsys.readouterr().out
        meta = json.loads((out_dir / "witness_meta.json").read_text())
        assert meta["gap"] > 1e-6
        assert meta["schema"] == 1

        replay = main(
            [
                "replay",
                "--state", str(out_dir / "witness_state.json"),
                "--channel", str(out_dir / "witness_channel.json"),
                "--alpha", str(meta["alpha"]),
                "--kind", "tsallis",
            ]
        )
        assert replay == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["violation"] == "true"
        assert rows[0]["channel_incoherent"] == "true"
        # the replayed gap must be the serialized one, digit for digit
        assert rows[0]["gap"] == repr(meta["gap"])

        # the strongly monotone family sees no violation on the same witness
        family = main(
            [
                "replay",
                "--state", str(out_dir / "witness_state.json"),
                "--channel", str(out_dir / "witness_channel.json"),
                "--alpha", str(meta["alpha"]),
                "--kind", "alpha",
            ]
        )
        assert family == EXIT_FAILURE
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["violation"] == "false"

    def test_exhausted_budget_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "search-violation", "--dim", "2", "--trials", "2000",
                "--kind", "tsallis", "--seed", "0", "--out-dir", str(tmp_path / "none"),
            ]
        )
        assert code == EXIT_EXHAUSTED
        assert "no violation found" in capsys.readouterr().out
        assert not (tmp_path / "none").exists()


class TestOracleCompare:
    def test_qubit_agreement(self, capsys):
        code = main(
            [
                "oracle-compare", "--dim", "2", "--states", "3",
                "--alpha", "1.5", "--resolution", "0.001", "--seed", "0",
            ]
        )
        assert code == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 3
        assert all(float(r["abs_diff"]) <= 0.02 for r in rows)
        assert all(
            float(r["closed_form"]) <= float(r["oracle_value"]) + 1e-9 for r in rows
        )

    def test_qutrit_agreement(self, capsys):
        code = main(
            [
                "oracle-compare", "--dim", "3", "--states", "2",
                "--alpha", "0.5", "--resolution", "0.002", "--seed", "0",
            ]
        )
        assert code == EXIT_OK

    def test_near_one_alpha_rejected(self, capsys):
        assert main(["oracle-compare", "--dim", "2", "--alpha", "1.0"]) == EXIT_USAGE

    def test_large_dim_rejected(self, capsys):
        assert main(["oracle-compare", "--dim", "4"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra", [["--states", "0"], ["--states", "-5"], ["--states", "0", "--resolution", "5"]]
    )
    def test_empty_comparison_rejected(self, extra, capsys):
        # zero comparisons would pass the agreement gate vacuously
        assert main(["oracle-compare", "--dim", "2", *extra]) == EXIT_USAGE
        assert "--states must be >= 1" in capsys.readouterr().err


class TestParserLevel:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_kind_choice(self, qubit_state):
        with pytest.raises(SystemExit) as err:
            main(["compute", qubit_state, "--kind", "l2"])
        assert err.value.code == 2

    def test_installed_entry_point(self):
        # the console script declared in pyproject.toml, run the way the
        # wrapper an installer writes runs it; no install needed
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        module, attr = scripts["alphacoh"].split(":")
        wrapper = (
            "import importlib, sys\n"
            f"target = getattr(importlib.import_module({module!r}), {attr!r})\n"
            "sys.argv[0] = 'alphacoh'\n"
            "sys.exit(target())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(alphacoh.__file__).resolve().parents[1]))
        commands = [[sys.executable, "-c", wrapper, "--help"]]
        installed = shutil.which("alphacoh")
        if installed is not None:
            commands.append([installed, "--help"])
        for command in commands:
            result = subprocess.run(command, capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            assert "compute" in result.stdout and "verify" in result.stdout


class TestInputBoundary:
    """Bad input from outside exits 2 with the file named, never 1 (a failed property)."""

    TRUNCATED = '{"dim": 2,'
    VERIFY = ["verify", "--dim", "2", "--alpha", "0.5", "--trials", "2", "--check", "convexity", "--seed", "3"]

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_truncated_state(self, tmp_path, capsys):
        path = self._write(tmp_path, "state.json", self.TRUNCATED)
        assert main(["compute", path]) == EXIT_USAGE
        assert path in capsys.readouterr().err

    def test_truncated_channel(self, qubit_state, tmp_path, capsys):
        path = self._write(tmp_path, "channel.json", self.TRUNCATED)
        args = ["replay", "--state", qubit_state, "--channel", path, "--alpha", "0.5"]
        assert main(args) == EXIT_USAGE
        assert path in capsys.readouterr().err

    def test_truncated_config(self, tmp_path, capsys):
        path = self._write(tmp_path, "cfg.json", self.TRUNCATED)
        assert main(self.VERIFY + ["--config", path]) == EXIT_USAGE
        assert path in capsys.readouterr().err

    def test_undecodable_state(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["compute", str(path)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"dims": 3},
            {"dims": ["a"]},
            {"trials_per_cell": "a"},
            {"trials_per_cell": 2.5},
            {"checks": 5},
            {"tolerance": "x"},
            {"master_seed": None},
            {"n_kraus_range": 3},
            {"alphas": ["0.5"]},
            {"alphas": ["a"]},
            {"tolerance": True},
        ],
    )
    def test_mistyped_config_value(self, payload, tmp_path, capsys):
        path = self._write(tmp_path, "cfg.json", json.dumps(payload))
        assert main(self.VERIFY + ["--config", path]) == EXIT_USAGE
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", [{"trials_per_cell": 0}, {"alphas": [2.5]}, {"rank_policy": "low"}, {"trails_per_cell": 2}]
    )
    def test_invalid_config_value(self, payload, tmp_path, capsys):
        path = self._write(tmp_path, "cfg.json", json.dumps(payload))
        assert main(self.VERIFY + ["--config", path]) == EXIT_USAGE
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_tolerance_that_decides_nothing(self, tol, capsys):
        # an infinite tolerance passes every record, NaN fails every one
        assert main(self.VERIFY + ["--tol", tol]) == EXIT_USAGE
        assert "tolerance must be positive and finite" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        # SeedSequence refused it in every trial, so every record was an error and verify exited 1
        argv = ["verify", "--seed", "-1", "--dim", "2", "--alpha", "0.5", "--trials", "2", "--check", "monotonicity"]
        assert main(argv) == EXIT_USAGE
        assert "master_seed must be >= 0, got -1" in capsys.readouterr().err

    def test_negative_seed_for_compute(self, qutrit_state, capsys):
        # it was accepted and printed as -1 in the seed column of every row
        assert main(["compute", qutrit_state, "--seed", "-1", "--kind", "l1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed must be >= 0, got -1" in captured.err

    def test_negative_seed_for_oracle_compare(self, capsys):
        # numpy's SeedSequence refused it without naming the seed
        assert main(["oracle-compare", "--dim", "2", "--states", "1", "--seed", "-1"]) == EXIT_USAGE
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_negative_env_seed(self, command, qutrit_state, monkeypatch, capsys):
        monkeypatch.setenv("COHERENCE_SEED", "-1")
        argv = [command, qutrit_state, "--kind", "l1"] if command == "compute" else self.VERIFY[:-2]  # no --seed
        assert main(argv) == EXIT_USAGE
        assert "COHERENCE_SEED must be >= 0, got -1" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        path = self._write(tmp_path, "cfg.json", "[2, 3]")
        assert main(self.VERIFY + ["--config", path]) == EXIT_USAGE
        assert f"{path}: config must be a JSON object" in capsys.readouterr().err

    def test_bad_flag_is_reported_under_a_config(self, tmp_path, capsys):
        # the flags make a TrialConfig of their own before the config applies
        path = self._write(tmp_path, "cfg.json", json.dumps({"trials_per_cell": 2}))
        assert main(self.VERIFY + ["--trials", "0", "--config", path]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "trials_per_cell must be >= 1" in err and path not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search-violation", "--out", "rows.csv"],
            ["search-violation", "--format", "json"],
            ["replay", "--state", "s.json", "--channel", "c.json", "--alpha", "0.5", "--seed", "1"],
        ],
    )
    def test_flag_the_handler_never_reads(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE


class TestOracleDisagreement:
    """A grid oracle that disagrees with the closed form fails the run but keeps its rows."""

    @pytest.mark.parametrize("shift", [-0.5, 1.0], ids=["below_closed_form", "far_above"])
    def test_exit_failure(self, shift, monkeypatch, capsys):
        def oracle(rho, alpha, resolution):
            return coherence_alpha(rho, alpha).value + shift, None

        monkeypatch.setattr(cli, "brute_force_min", oracle)
        argv = ["oracle-compare", "--dim", "2", "--states", "2", "--alpha", "1.5", "--seed", "0"]
        assert main(argv) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "oracle disagreement" in captured.err
        assert captured.out.split("\n")[0] == ",".join(ORACLE_COLUMNS)
        rows = parse_csv(captured.out)
        assert [r["state_index"] for r in rows] == ["0", "1"]
        assert all(float(r["abs_diff"]) == pytest.approx(abs(shift)) for r in rows)


def test_readme_cli_examples_parse():
    section = (REPO_ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("alphacoh ")]
    parser = cli._build_parser()
    for argv in examples:
        parser.parse_args(argv)  # exits 2 on an option the parser does not take
    subcommands = {"compute", "sweep", "verify", "search-violation", "replay", "oracle-compare"}
    assert {argv[0] for argv in examples} == subcommands
