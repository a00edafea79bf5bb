"""Spectral helpers: decomposition and fractional powers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacoh.channels import KrausChannel
from alphacoh.cli import EXIT_OK, main
import alphacoh.coherence as coherence
from alphacoh.coherence import (
    MEASURE_KINDS,
    DegenerateDiagonalError,
    alpha_diagonal,
    closed_form,
    coherence_alpha,
    l1_coherence,
    measure_value,
    measure_values,
    optimal_incoherent_state,
    relative_entropy_coherence,
    skew_info_sum,
    tsallis_coherence,
)
from alphacoh.divergence import shannon_entropy, trace_functional, von_neumann_entropy
from alphacoh.linalg import (
    EIGENVALUE_CLAMP,
    DimMismatchError,
    NegativeEigenvalueError,
    NotHermitianError,
    as_hermitian,
    eigh_clamped,
    matrix_power,
    matrix_refusals,
    max_asymmetry,
    powered_eigenvalues,
    spectral_decompose,
    spectrum_memo,
    spectrum_power,
)
from alphacoh.states import random_density, save_state, validate_density
from conftest import random_hermitian

ROT = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


def test_spectral_decompose_reconstructs(rng):
    h = random_hermitian(4, rng(0))
    lam, vecs = spectral_decompose(h)
    rebuilt = (vecs * lam) @ vecs.conj().T
    np.testing.assert_allclose(rebuilt, h, atol=1e-12)
    assert np.all(np.diff(lam) >= 0.0)


def test_spectral_decompose_clamps_tiny_eigenvalues():
    h = np.diag([1.0, 1e-13])
    lam, _ = spectral_decompose(h)
    assert lam[0] == 0.0
    assert lam[1] == 1.0


def test_spectral_decompose_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError, match="exceeds"):
        spectral_decompose(bad)


def test_max_asymmetry_hand_value():
    mat = np.array([[1.0, 2.0], [2.5, 3.0]])
    assert max_asymmetry(mat) == pytest.approx(0.5)
    assert max_asymmetry(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        validate_density,
        lambda z: matrix_power(z, 0.5),
        lambda z: coherence_alpha(z, 0.5),
        l1_coherence,
        lambda z: trace_functional(z, z, 0.5),
        von_neumann_entropy,
        lambda z: KrausChannel(z[None]),
    ],
    ids=["validate_density", "matrix_power", "coherence_alpha", "l1_coherence", "trace_functional", "entropy", "kraus"],
)
def test_an_empty_operand_is_refused(call):
    # it crashed with an IndexError or a zero-size reduction, or scored a zero-dimensional "state" as 0
    with pytest.raises(DimMismatchError, match=r"nonempty square .*\(0, 0\)$"):
        call(np.zeros((0, 0)))


def test_matrix_refusals_are_the_as_hermitian_gate_per_matrix(rng):
    h = random_hermitian(3, rng(1))
    skew = h.copy()
    skew[0, 1] += 2e-10
    nan = h.copy()
    nan[2, 2] = np.nan
    inf = h.copy()
    inf[0, 2] = np.inf
    stack = np.stack([h, skew, nan, h + 6e-11j * np.eye(3), inf])
    raised = {}
    for t, mat in enumerate(stack):
        try:
            as_hermitian(mat)
        except ValueError as exc:
            raised[t] = exc
    refusals = matrix_refusals(stack)
    assert list(refusals) == list(raised) == [1, 2, 3, 4]
    for t, exc in raised.items():
        assert (type(refusals[t]), str(refusals[t])) == (type(exc), str(exc))
    assert isinstance(refusals[1], NotHermitianError) and str(refusals[2]) == "matrix: entries must be finite"
    assert max_asymmetry(stack[:2]).tolist() == [max_asymmetry(h), max_asymmetry(skew)]


class TestSpectrumMemo:
    """The scalar API reuses one validated spectrum; nothing a caller does can make it stale."""

    def test_a_state_edited_in_place_gets_its_new_value(self, rng):
        rho = random_density(3, 3, rng(20))
        other = random_density(3, 2, rng(21))
        before = measure_value("alpha", rho, 0.5)
        rho[...] = other
        fresh = eigh_clamped(other.copy())  # never through the memo
        assert measure_value("alpha", rho, 0.5) == float(measure_values("alpha", other.copy(), 0.5)[0]) != before
        np.testing.assert_array_equal(spectral_decompose(rho).eigenvalues, fresh.eigenvalues)
        assert von_neumann_entropy(rho) == float(shannon_entropy(np.clip(fresh.eigenvalues, 0.0, None)))

    def test_writing_into_spectral_decompose_changes_nothing_the_next_call_sees(self, rng):
        rho = random_density(3, 3, rng(22))
        expected = coherence_alpha(rho, 1.5).value
        lam, vecs = spectral_decompose(rho)
        reference = (lam.copy(), vecs.copy())
        lam[:] = 7.0
        vecs[:] = 0.0
        again = spectral_decompose(rho)
        np.testing.assert_array_equal(again.eigenvalues, reference[0])
        np.testing.assert_array_equal(again.eigenvectors, reference[1])
        assert coherence_alpha(rho, 1.5).value == expected

    def test_the_shared_arrays_are_read_only(self, rng):
        rho = random_density(2, 2, rng(23))
        for arr in spectrum_memo(rho).spectrum:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize(
        "bad, error",
        [([[np.nan, 0.0], [0.0, 1.0]], ValueError), ([[0.5, 0.4], [0.1, 0.5]], NotHermitianError)],
        ids=["nan", "non-hermitian"],
    )
    def test_a_refused_matrix_raises_on_every_call(self, bad, error):
        for _ in range(2):
            with pytest.raises(error):
                spectral_decompose(bad)
            with pytest.raises(error):
                measure_value("alpha", bad, 0.5)
            with pytest.raises(error):
                alpha_diagonal(bad, 0.5)

    @staticmethod
    def _count_eigh(monkeypatch) -> list:
        calls = []
        eigh = np.linalg.eigh

        def counting(mats):
            calls.append(np.shape(mats))
            return eigh(mats)

        spectral_decompose(np.eye(2))  # no state of the test below is the memo's entry
        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_compute_decomposes_a_loaded_state_once(self, rng, tmp_path, monkeypatch, capsys):
        # load_state's positivity gate reads the spectrum the measures of the state then reuse
        path = tmp_path / "state.json"
        save_state(path, random_density(3, 2, rng(26)))
        calls = self._count_eigh(monkeypatch)
        eigvalsh = np.linalg.eigvalsh  # the positivity gate's own call before it read the memo
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append("eigvalsh") or eigvalsh(mat))
        assert main(["compute", str(path), "--alpha", "0.5"]) == EXIT_OK  # every kind, skew's square root included
        assert len(capsys.readouterr().out.splitlines()) == 1 + len(MEASURE_KINDS)
        assert calls == [(3, 3)]

    def test_measure_value_of_every_kind_decomposes_a_state_once(self, rng, monkeypatch):
        rho = random_density(4, 3, rng(36))
        calls = self._count_eigh(monkeypatch)
        for kind in MEASURE_KINDS:
            measure_value(kind, rho, 0.5)
        optimal_incoherent_state(rho, 0.5), alpha_diagonal(rho, 1.5), skew_info_sum(rho)
        assert calls == [(4, 4)]

    def test_matrix_power_reads_the_memo(self, rng, monkeypatch):
        rho = random_density(3, 2, rng(37))
        expected = [spectrum_power(*eigh_clamped(rho.copy()), p) for p in (0.5, 0.0, 1.5)]  # before the count starts
        calls = self._count_eigh(monkeypatch)
        measure_value("alpha", rho, 0.5)
        powers = [matrix_power(rho, p) for p in (0.5, 0.0, 1.5)]
        assert calls == [(3, 3)]
        for power, value in zip(powers, expected):
            np.testing.assert_array_equal(power, value)

    def test_a_sweep_decomposes_its_state_once(self, rng, tmp_path, monkeypatch, capsys):
        path = tmp_path / "state.json"
        save_state(path, random_density(4, 3, rng(25)))
        calls = self._count_eigh(monkeypatch)
        assert main(["sweep", str(path), "--alpha-range", "0.05:2.0:0.05", "--emit-delta"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 40
        assert calls == [(4, 4)]

    def test_an_oracle_point_decomposes_its_state_once(self, monkeypatch, capsys):
        calls = self._count_eigh(monkeypatch)
        assert main(["oracle-compare", "--dim", "2", "--states", "2", "--alpha", "1.5", "--alpha", "0.5"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 2
        assert calls == [(2, 2), (2, 2)]

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_writing_into_a_returned_delta_changes_nothing_the_next_call_sees(self, alpha, rng):
        rho = random_density(3, 2, rng(27))
        first = coherence_alpha(rho, alpha).optimal_delta
        expected = first.copy()
        first[:] = 7.0
        again = [optimal_incoherent_state(rho, alpha), tsallis_coherence(rho, alpha).optimal_delta]
        for delta in again:
            np.testing.assert_array_equal(delta, expected)
            assert delta.flags.writeable and delta is not first
        assert again[0] is not again[1]

    def test_a_zero_matrix_raises_on_every_call(self):
        zero = np.zeros((3, 3))
        for _ in range(2):
            for call in (
                lambda: measure_value("alpha", zero, 0.5),
                lambda: measure_value("tsallis", zero, 0.5),
                lambda: coherence_alpha(zero, 0.5),
                lambda: optimal_incoherent_state(zero, 0.5),
            ):
                with pytest.raises(DegenerateDiagonalError):
                    call()
        assert 0.5 not in spectrum_memo(zero)[1]

    def test_a_state_edited_in_place_gets_fresh_terms(self, rng):
        rho = random_density(3, 3, rng(28))
        other = random_density(3, 2, rng(29))
        before = tsallis_coherence(rho, 0.5)
        rho[...] = other
        value, delta, _ = closed_form("tsallis", *eigh_clamped(other.copy()), 0.5)  # never through the memo
        after = tsallis_coherence(rho, 0.5)
        assert after.value == float(value) != before.value
        np.testing.assert_array_equal(after.optimal_delta, delta)

    def test_the_memo_holds_one_state(self, rng):
        first, second = random_density(3, 3, rng(30)), random_density(3, 3, rng(31))
        coherence_alpha(first, 0.5), coherence_alpha(first, 1.5)
        assert sorted(spectrum_memo(first)[1]) == [0.5, 1.5]
        measure_value("tsallis", second, 0.25)
        assert list(spectrum_memo(second)[1]) == [0.25]
        assert spectrum_memo(first)[1] == {}  # the first state's terms went with its spectrum

    def test_relent_is_the_alpha_one_member_bit_for_bit(self, rng):
        rho = random_density(4, 3, rng(32))
        relent = measure_value("relent", rho)
        spectral_decompose(np.eye(2))  # a fresh memo, so the families evaluate the limit themselves
        assert measure_value("alpha", rho, 1.0) == relent == measure_value("tsallis", rho, 1.0)
        assert relative_entropy_coherence(rho).value == relent == float(measure_values("relent", rho.copy())[0])

    @staticmethod
    def _count_power_means(monkeypatch) -> list:
        calls = []
        power_mean = coherence._power_mean

        def counting(weights, overlaps, alpha):
            calls.append(alpha)
            return power_mean(weights, overlaps, alpha)

        monkeypatch.setattr(coherence, "_power_mean", counting)
        return calls

    def test_a_sweep_evaluates_one_power_mean_per_alpha(self, rng, tmp_path, monkeypatch, capsys):
        # both families and their delta at each grid alpha read one evaluation
        path = tmp_path / "state.json"
        save_state(path, random_density(4, 3, rng(33)))
        calls = self._count_power_means(monkeypatch)
        assert main(["sweep", str(path), "--alpha-range", "0.05:2.0:0.05", "--emit-delta"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 40
        assert len(calls) == len(set(calls)) == 40

    def test_compute_evaluates_one_power_mean_per_alpha(self, rng, tmp_path, monkeypatch, capsys):
        # every kind: alpha and tsallis at four alphas, and relent, which is the alpha = 1 member
        path = tmp_path / "state.json"
        save_state(path, random_density(3, 2, rng(34)))
        calls = self._count_power_means(monkeypatch)
        argv = ["compute", str(path), "--alpha", "0.01", "--alpha", "0.5", "--alpha", "1.0", "--alpha", "2.0"]
        assert main(argv + ["--emit-delta"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 4 + 4
        assert calls == [0.01, 0.5, 1.0, 2.0]


class TestMatrixPower:
    def test_diagonal_square_root_exact(self):
        np.testing.assert_allclose(matrix_power(np.diag([1.0, 4.0]), 0.5), np.diag([1.0, 2.0]), atol=1e-15)

    def test_rotated_diagonal(self):
        # oracle: rotate eigenvalues through the same basis by hand
        h = ROT @ np.diag([2.0, 5.0]) @ ROT.T
        expected = ROT @ np.diag([2.0**0.3, 5.0**0.3]) @ ROT.T
        np.testing.assert_allclose(matrix_power(h, 0.3), expected, atol=1e-12)

    def test_zeroth_power_is_support_projector(self):
        out = matrix_power(np.diag([0.0, 0.5]), 0.0)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="p >= 0"):
            matrix_power(np.diag([4.0, 1.0]), -0.5)

    @pytest.mark.parametrize(
        "p, error, match",
        [
            (float("nan"), ValueError, "^matrix_power takes finite exponents p >= 0, got nan$"),
            (float("inf"), ValueError, "^matrix_power takes finite exponents p >= 0, got inf$"),
            (-0.5, ValueError, "^matrix_power takes finite exponents p >= 0, got -0.5$"),
            (True, TypeError, "^p must be a real number, got True$"),
            ("1", TypeError, "^p must be a real number, got '1'$"),
        ],
    )
    def test_one_exponent_gate(self, p, error, match):
        # NaN used to give an all-NaN matrix with no warning, True exponent 1, and "1" a comparison TypeError
        with pytest.raises(error, match=match):
            matrix_power(np.diag([0.25, 0.75]), p)

    def test_rejects_genuinely_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalueError):
            matrix_power(np.diag([-1.0, 1.0]), 0.5)

    def test_clamp_window_negative_is_accepted(self):
        out = matrix_power(np.diag([-1e-13, 1.0]), 0.5)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)


def test_powered_eigenvalues_zero_convention():
    lam = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(powered_eigenvalues(lam, 0.0), [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(powered_eigenvalues(lam, 0.5), [0.0, 0.5, 1.0])
    # negative exponents never see the zeros (callers guard divergence)
    np.testing.assert_array_equal(powered_eigenvalues(lam, -1.0), [0.0, 4.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_first_power_is_identity_map(seed, d):
    gen = np.random.default_rng(seed)
    h = random_hermitian(d, gen)
    np.testing.assert_allclose(matrix_power(h + 3.0 * d * np.eye(d), 1.0), h + 3.0 * d * np.eye(d), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_half_power_squares_back(seed, d):
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    psd = g @ g.conj().T
    root = matrix_power(psd, 0.5)
    np.testing.assert_allclose(root @ root, psd, atol=1e-9 * max(1.0, np.max(np.abs(psd))))
