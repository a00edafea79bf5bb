"""The shared closed form: small-alpha robustness, scalar/batched agreement, skew check."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import alphacoh.coherence
from alphacoh.cli import EXIT_USAGE, main
from alphacoh.coherence import (
    ALPHA_FLOOR,
    MEASURE_KINDS,
    AlphaBelowFloorError,
    DegenerateDiagonalError,
    SkewFormsDisagreeError,
    coherence_alpha,
    max_coherence,
    measure_value,
    measure_values,
    optimal_incoherent_state,
    skew_info_sum,
    tsallis_coherence,
)
from alphacoh.states import haar_unitary, random_density, save_state, substream

SRC = Path(__file__).resolve().parents[1] / "src"

# (0, 2] down to 1e-3, with the small-alpha end (where S underflows) drawn on its
# own. Further down, the ~1e-16 round-off in each a_j grows to ~1e-16/alpha in
# a_j^(1/alpha), a limit of double precision rather than of the closed form.
ALPHAS = st.one_of(
    st.floats(min_value=0.001, max_value=0.05),
    st.floats(min_value=0.001, max_value=2.0),
)


def assert_probability_vector(p):
    assert np.all(np.isfinite(p))
    assert p.min() >= 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 8), alpha=ALPHAS, data=st.data())
def test_whole_alpha_range_on_rank_deficient_states(seed, d, alpha, data):
    rank = data.draw(st.integers(1, d))
    rho = random_density(d, rank, substream(7101, seed))
    c = coherence_alpha(rho, alpha)
    t = tsallis_coherence(rho, alpha)
    delta = optimal_incoherent_state(rho, alpha)
    for result in (c, t):
        assert math.isfinite(result.value)
        assert_probability_vector(result.optimal_delta)
    assert_probability_vector(delta)
    bound = max_coherence(d, alpha)
    assert -1e-12 <= c.value <= bound + 1e-12 * max(1.0, bound)
    assert t.value >= -1e-12


def exact_family(lam, vecs, alpha):
    """(C_alpha, Ct_alpha, delta) of V diag(lam) V^dag at 50 digits, from the exact spectrum."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        weights = [[abs(mpmath.mpc(complex(z))) ** 2 for z in row] for row in vecs]
        powered = [mpmath.mpf(float(x)) ** a if x > 0 else mpmath.mpf(0) for x in lam]
        diag = [mpmath.fsum(w * p for w, p in zip(row, powered)) for row in weights]
        roots = [x ** (1 / a) for x in diag]
        s = mpmath.fsum(roots)
        return (s - 1) / (a - 1), (s**a - 1) / (a - 1), [r / s for r in roots]


@pytest.mark.parametrize(
    "d, lam",
    [
        (2, [0.0, 1.0]),
        (3, [0.0, 0.3, 0.7]),
        (4, [0.0, 0.0, 0.25, 0.75]),
        (8, [0.0] * 6 + [0.4, 0.6]),
    ],
)
@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.02, 0.05, 0.3, 1.5, 2.0])
def test_matches_fifty_digit_evaluation(d, lam, alpha):
    vecs = haar_unitary(d, substream(7102, d))
    lam = np.array(lam)
    rho = (vecs * lam) @ vecs.conj().T
    exact_c, exact_t, exact_delta = exact_family(lam, vecs, alpha)
    # the double-precision state carries relative round-off ~1e-16 in each a_j,
    # which the 1/alpha power scales up by 1/alpha
    rel = 1e-14 / alpha
    assert coherence_alpha(rho, alpha).value == pytest.approx(float(exact_c), rel=rel, abs=1e-15)
    assert tsallis_coherence(rho, alpha).value == pytest.approx(float(exact_t), rel=rel, abs=1e-15)
    assert_allclose(
        optimal_incoherent_state(rho, alpha), [float(x) for x in exact_delta], rtol=rel, atol=1e-300
    )


def test_plus_state_at_alpha_two_hundredths():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert coherence_alpha(plus, 0.02).value == pytest.approx((2.0**-49 - 1.0) / (0.02 - 1.0), rel=1e-15)
    assert_allclose(optimal_incoherent_state(plus, 0.02), [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("kind", MEASURE_KINDS)
@pytest.mark.parametrize("alpha", [0.02, 0.3, 1.0 - 5e-7, 1.0, 1.0 + 5e-7, 1.5, 2.0])
def test_batched_path_agrees_with_scalar_api(kind, alpha):
    gen = substream(7103, 0)
    for d in (2, 3, 4):
        states = np.array([random_density(d, 1 + i % d, gen) for i in range(12)])
        batched, refusals = measure_values(kind, states, alpha)
        assert refusals == {}
        scalar = [measure_value(kind, rho, alpha) for rho in states]
        assert_allclose(batched, scalar, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_batched_path_refuses_what_the_scalar_api_refuses(alpha):
    # a zero matrix, and above alpha 1 a state scaled under the 1e-14 peak, come back NaN and refused, without a warning
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1] = np.diag([0.5, 0.5])
    stack[2] = 3e-11 * random_density(2, 2, substream(7105))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, refusals = measure_values("tsallis", stack, alpha)
    assert list(refusals) == ([0, 2] if alpha > 1.0 else [0])
    assert np.isnan(values[list(refusals)]).all() and values[1] == pytest.approx(0.0, abs=1e-15)
    for t, refusal in refusals.items():
        with pytest.raises(DegenerateDiagonalError) as info:
            measure_value("tsallis", stack[t], alpha)
        assert type(refusal) is DegenerateDiagonalError and str(refusal) == str(info.value)


class TestAlphaFloor:
    # a full-rank qubit whose largest a_j rounds above 1: below the floor its
    # peak^(1/alpha) overflowed to C_alpha = -inf (alpha 4e-186, 1e-20) or to
    # -2.7e96 (alpha 1e-18), with only numpy's overflow warning
    RHO = random_density(2, 2, substream(7101, 1))

    @pytest.mark.parametrize("kind", ["alpha", "tsallis"])
    @pytest.mark.parametrize("alpha", [4e-186, 1e-20, 1e-18])
    def test_raises_below_floor_without_warning(self, kind, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlphaBelowFloorError, match="below"):
                measure_value(kind, self.RHO, alpha)

    def test_floor_itself_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [measure_value(kind, self.RHO, ALPHA_FLOOR) for kind in ("alpha", "tsallis")]
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("alpha", ["4e-186", "1e-20", "1e-18"])
    def test_cli_exits_with_usage_code(self, alpha, tmp_path, capsys):
        path = tmp_path / "state.json"
        save_state(path, self.RHO)
        assert main(["compute", str(path), "--kind", "alpha", "--alpha", alpha]) == EXIT_USAGE
        assert "below" in capsys.readouterr().err
        args = ["search-violation", "--dim", "3", "--trials", "10", "--alpha", alpha]
        assert main(args + ["--out-dir", str(tmp_path / "witness")]) == EXIT_USAGE
        assert "below" in capsys.readouterr().err


class TestSkewCheck:
    @pytest.fixture
    def off_root(self, monkeypatch):
        # a wrong square root makes the diagonal and commutator forms disagree
        true_power = alphacoh.coherence.spectrum_power
        monkeypatch.setattr(alphacoh.coherence, "spectrum_power", lambda lam, vecs, p: 0.9 * true_power(lam, vecs, p))

    def test_disagreement_raises_named_error(self, off_root):
        rho = random_density(3, 3, substream(7104, 0))
        with pytest.raises(SkewFormsDisagreeError, match="forms disagree"):
            skew_info_sum(rho)

    def test_cli_exits_with_usage_code(self, off_root, tmp_path, capsys):
        path = tmp_path / "state.json"
        save_state(path, random_density(3, 3, substream(7104, 1)))
        assert main(["compute", str(path), "--kind", "skew"]) == EXIT_USAGE
        assert "forms disagree" in capsys.readouterr().err

    def test_check_survives_optimized_mode(self):
        script = (
            "import alphacoh.coherence as c\n"
            "from alphacoh.states import random_density, substream\n"
            "power = c.spectrum_power\n"
            "c.spectrum_power = lambda lam, vecs, p: 0.9 * power(lam, vecs, p)\n"
            "try:\n"
            "    c.skew_info_sum(random_density(3, 3, substream(7104, 2)))\n"
            "except c.SkewFormsDisagreeError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"
