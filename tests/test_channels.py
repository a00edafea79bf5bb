"""Channel construction, selective measurement, and the incoherent sampler."""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from alphacoh.channels import (
    KrausChannel,
    _cancel_merge_terms,
    _structurally_infeasible,
    apply_channel,
    branches,
    dephasing_channel,
    is_incoherent,
    load_channel,
    random_channel,
    random_incoherent_channel,
    save_channel,
    select,
)
from alphacoh.linalg import DimMismatchError
from alphacoh.states import (
    dephase,
    embed_diagonal,
    maximally_coherent,
    random_density,
    substream,
)

DATA = pathlib.Path(__file__).parent / "data"
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def completeness_deviation(ch: KrausChannel) -> float:
    total = sum(k.conj().T @ k for k in ch.kraus)
    return float(np.max(np.abs(total - np.eye(ch.dim))))


class TestKrausChannelConstruction:
    def test_accepts_unitary(self):
        ch = KrausChannel((HADAMARD,))
        assert ch.dim == 2
        assert ch.n_kraus == 1

    def test_operators_are_read_only(self):
        ch = KrausChannel((HADAMARD,))
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one Kraus"):
            KrausChannel(())

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="completeness violated"):
            KrausChannel((0.5 * np.eye(2, dtype=complex),))

    def test_rejects_shape_mismatch(self):
        half = np.eye(2, dtype=complex) / math.sqrt(2.0)
        third = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="square shape"):
            KrausChannel((half, third))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square shape"):
            KrausChannel((np.ones((2, 3), dtype=complex),))

    def test_rejects_non_finite(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            KrausChannel((bad,))


class TestStackedKraus:
    """Every constructor leaves one read-only complex (n, d, d) array on the channel."""

    @staticmethod
    def assert_stacked(ch, n, d):
        assert type(ch.kraus) is np.ndarray
        assert ch.kraus.dtype == complex and ch.kraus.shape == (n, d, d)
        assert not ch.kraus.flags.writeable
        # branches reads the stack as is, without a copy
        assert np.asarray(ch.kraus, dtype=complex) is ch.kraus

    def test_from_tuple(self):
        self.assert_stacked(KrausChannel((HADAMARD,)), 1, 2)

    def test_from_real_stack_without_aliasing_it(self):
        ops = np.stack([np.eye(3)])
        ch = KrausChannel(ops)
        self.assert_stacked(ch, 1, 3)
        assert ops.flags.writeable and ch.kraus is not ops

    def test_from_samplers(self, rng):
        self.assert_stacked(random_channel(3, 2, rng(70)), 2, 3)
        self.assert_stacked(random_incoherent_channel(4, 3, rng(71)), 3, 4)
        self.assert_stacked(dephasing_channel(3), 3, 3)

    def test_from_file(self, tmp_path, rng):
        path = tmp_path / "ch.json"
        save_channel(path, random_channel(2, 4, rng(72)))
        self.assert_stacked(load_channel(path), 4, 2)

    def test_is_incoherent_looks_at_every_operator(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / math.sqrt(2.0)
        assert is_incoherent(KrausChannel((np.eye(2) / math.sqrt(2.0), flip)))
        assert not is_incoherent(KrausChannel((np.eye(2) / math.sqrt(2.0), HADAMARD / math.sqrt(2.0))))
        assert type(is_incoherent(dephasing_channel(2))) is bool


class TestApplyAndSelect:
    def test_identity_channel_is_identity_map(self, rng):
        rho = random_density(3, 3, rng(50))
        ch = KrausChannel((np.eye(3, dtype=complex),))
        assert_allclose(apply_channel(ch, rho), rho, atol=1e-14)

    def test_dephasing_kills_off_diagonals(self, rng):
        rho = random_density(4, 4, rng(51))
        out = apply_channel(dephasing_channel(4), rho)
        assert_allclose(out, embed_diagonal(dephase(rho)), atol=1e-12)

    def test_select_probabilities_sum_to_one(self, rng):
        gen = rng(52)
        rho = random_density(3, 3, gen)
        ch = random_channel(3, 4, gen)
        outcomes, dropped = select(ch, rho)
        total = sum(o.prob for o in outcomes) + dropped
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_select_average_matches_apply(self, rng):
        gen = rng(53)
        rho = random_density(3, 3, gen)
        ch = random_channel(3, 3, gen)
        outcomes, dropped = select(ch, rho)
        assert dropped < 1e-10
        avg = sum(o.prob * o.post_state for o in outcomes)
        assert_allclose(avg, apply_channel(ch, rho), atol=1e-12)

    def test_select_posts_are_normalized(self, rng):
        gen = rng(54)
        rho = random_density(3, 3, gen)
        ch = random_channel(3, 2, gen)
        for o in select(ch, rho)[0]:
            assert float(o.post_state.trace().real) == pytest.approx(1.0, abs=1e-12)

    def test_select_drops_vanishing_branch(self):
        # second branch acts only on the |1> component, absent from rho
        k0 = np.diag([1.0, 0.0]).astype(complex)
        k1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        ch = KrausChannel((k0, k1))
        rho = np.diag([1.0, 0.0]).astype(complex)
        outcomes, dropped = select(ch, rho)
        assert [o.index for o in outcomes] == [0]
        assert dropped == pytest.approx(0.0, abs=1e-15)


    @pytest.mark.parametrize("act", [select, apply_channel], ids=["select", "apply_channel"])
    @pytest.mark.parametrize(
        "rho, error, match",
        [
            (np.full((3, 3), np.nan), ValueError, "^state: entries must be finite$"),
            (np.ones((3, 2)), DimMismatchError, r"^state: expected a square matrix, got shape \(3, 2\)$"),
            (np.eye(2) / 2, DimMismatchError, "^state: a 2-dimensional state on a 3-dimensional channel$"),
        ],
        ids=["nan", "non_square", "qubit_on_qutrit"],
    )
    def test_a_channel_gates_the_state_it_acts_on(self, act, rho, error, match):
        # a NaN state gave ([], nan) and a NaN image silently; a qubit on a qutrit channel reached numpy's matmul
        with pytest.raises(error, match=match):
            act(dephasing_channel(3), rho)

    def test_the_array_form_stays_ungated(self):
        # the stacks call apply_channel and branches on arrays; a NaN state passes through to its NaN image
        image = apply_channel(dephasing_channel(3).kraus, np.full((3, 3), np.nan))
        assert np.isnan(np.diag(image)).all()

    def test_branches_match_the_per_operator_loop_bit_for_bit(self, rng):
        # the stacked kernel must not reorder the arithmetic, for one state or a stack
        gen = rng(55)
        for d, n_kraus in [(2, 1), (3, 4), (4, 3)]:
            ch = random_channel(d, n_kraus, gen)
            rhos = np.array([random_density(d, 1 + i % d, gen) for i in range(5)])
            probs, products, kept = branches(ch.kraus, rhos)
            for b, rho in enumerate(rhos):
                loop = [k @ rho @ k.conj().T for k in ch.kraus]
                assert_array_equal(products[b], loop)
                assert_array_equal(probs[b], [m.trace().real for m in loop])
                assert_array_equal(branches(ch.kraus, rho)[1], products[b])
            assert_array_equal(kept, probs >= 1e-12)


class TestIncoherence:
    def test_dephasing_is_incoherent(self):
        assert is_incoherent(dephasing_channel(3))

    def test_hadamard_is_not(self):
        assert not is_incoherent(KrausChannel((HADAMARD,)))

    def test_permutation_with_phases_is_incoherent(self):
        op = np.array([[0.0, 1j], [1.0, 0.0]], dtype=complex)
        assert is_incoherent(KrausChannel((op,)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n_kraus", [1, 2, 4])
    def test_random_incoherent_channels(self, d, n_kraus, rng):
        gen = rng(55, d, n_kraus)
        for _ in range(20):
            ch = random_incoherent_channel(d, n_kraus, gen)
            assert ch.n_kraus == n_kraus
            assert is_incoherent(ch)
            assert completeness_deviation(ch) < 1e-9

    def test_single_operator_is_phased_permutation(self, rng):
        # with one operator every column must land in a distinct row
        gen = rng(56)
        for _ in range(10):
            ch = random_incoherent_channel(4, 1, gen)
            k = ch.kraus[0]
            assert_allclose(np.abs(k @ k.conj().T), np.eye(4), atol=1e-10)

    def test_single_operator_draws_until_feasible(self):
        # this stream needs more than 128 draws for its permutation at d = 5
        ch = random_incoherent_channel(5, 1, substream(11, 5, 45))
        assert is_incoherent(ch)
        assert_allclose(np.abs(ch.kraus[0] @ ch.kraus[0].conj().T), np.eye(5), atol=1e-10)

    def test_merges_do_occur(self, rng):
        # some operator mapping two columns to one row should appear quickly
        gen = rng(57)
        for _ in range(50):
            ch = random_incoherent_channel(3, 3, gen)
            for k in ch.kraus:
                occupied = (np.abs(k) > 1e-10).nonzero()[0]
                if len(occupied) != len(set(occupied)):
                    return
        pytest.fail("no column merge seen in 50 channels")

    def test_incoherent_channel_preserves_diagonality(self, rng):
        gen = rng(58)
        rho = np.diag(gen.dirichlet(np.ones(4))).astype(complex)
        ch = random_incoherent_channel(4, 3, gen)
        out = apply_channel(ch, rho)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(ValueError, match="d must be >= 1"):
            random_incoherent_channel(0, 1, rng(59))
        with pytest.raises(ValueError, match="n_kraus must be >= 1"):
            random_channel(2, 0, rng(59))

    @pytest.mark.parametrize(
        "sampler, args, name",
        [
            (random_incoherent_channel, (2.0, 1), "d"),
            (random_incoherent_channel, (True, 1), "d"),
            (random_incoherent_channel, (2, "1"), "n_kraus"),
            (random_channel, (2, 1.0), "n_kraus"),
            (random_channel, (None, 1), "d"),
            (random_density, (3, 1.5), "rank"),
            (random_density, (3.0, 2), "d"),
        ],
        ids=["incoherent-float-d", "incoherent-bool-d", "incoherent-str-n", "channel-float-n", "channel-none-d",
             "density-float-rank", "density-float-d"],
    )
    def test_a_non_integer_size_is_refused_by_name(self, sampler, args, name, rng):
        # numpy used to refuse these with a TypeError that named no argument, or read True as 1
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            sampler(*args, rng(59))


class TestSamplerStream:
    """The incoherent sampler's stream, pinned per (d, n_kraus, seed).

    tests/data/incoherent_sampler_sha256.json holds the sha256 of the Kraus
    stack of random_incoherent_channel(d, n_kraus, substream(seed, d, n_kraus))
    and the generator's next random() draw, which shows how many draws the
    redraw loop consumed. At d = 5 and 6 one operator takes about d^d/d! draws.
    """

    DIGESTS = json.loads((DATA / "incoherent_sampler_sha256.json").read_text())

    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_bytes_and_next_draw(self, key):
        d, n_kraus, seed = (int(part.split("=")[1]) for part in key.split())
        gen = substream(seed, d, n_kraus)
        ch = random_incoherent_channel(d, n_kraus, gen)
        seen = {"kraus": hashlib.sha256(ch.kraus.tobytes()).hexdigest(), "next": float(gen.random())}
        assert seen == self.DIGESTS[key]

    def test_every_cell_is_pinned(self):
        cells = {tuple(int(part.split("=")[1]) for part in key.split())[:2] for key in self.DIGESTS}
        assert cells == {(d, n) for d in range(2, 7) for n in range(1, 5)}


class TestFeasibilityRule:
    """The structural redraw rule only rejects row draws the projection would wipe out."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_kraus", [1, 2, 3, 4])
    def test_rejected_draws_are_infeasible(self, d, n_kraus):
        gen = substream(17, d, n_kraus)
        rejected = 0
        for _ in range(300):
            rows = gen.integers(0, d, size=(n_kraus, d))
            amplitudes = gen.standard_normal((n_kraus, d)) + 1j * gen.standard_normal((n_kraus, d))
            if _structurally_infeasible(rows):
                rejected += 1
                assert _cancel_merge_terms(rows, amplitudes) is None
        if n_kraus >= d:  # m_j <= j < d: the rule never fires
            assert rejected == 0
        else:
            assert rejected > 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_operator_passes_exactly_the_permutations(self, d):
        gen = substream(18, d)
        for _ in range(300):
            rows = gen.integers(0, d, size=(1, d))
            assert _structurally_infeasible(rows) == (len(set(rows[0].tolist())) < d)


@pytest.mark.parametrize(
    "d, error, match",
    [(0, ValueError, "^d must be >= 1, got 0$"), (2.0, TypeError, "^d must be an integer, got 2.0$"),
     (True, TypeError, "^d must be an integer, got True$")],
)
def test_dephasing_channel_takes_a_count(d, error, match):
    # these used to fail with messages that did not name d, or (True) as numpy's TypeError
    with pytest.raises(error, match=match):
        dephasing_channel(d)


class TestRandomChannel:
    @pytest.mark.parametrize("n_kraus", [1, 2, 5])
    def test_complete(self, n_kraus, rng):
        ch = random_channel(3, n_kraus, rng(60, n_kraus))
        assert completeness_deviation(ch) < 1e-12
        assert ch.n_kraus == n_kraus

    def test_generic_channel_creates_coherence_from_diagonal(self, rng):
        # distinguishes the arbitrary sampler from the incoherent one
        gen = rng(61)
        rho = np.diag([0.6, 0.4]).astype(complex)
        ch = random_channel(2, 2, gen)
        out = apply_channel(ch, rho)
        assert np.abs(out[0, 1]) > 1e-3


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path, rng):
        ch = random_channel(3, 2, rng(62))
        path = tmp_path / "ch.json"
        save_channel(path, ch)
        loaded = load_channel(path)
        assert loaded.n_kraus == ch.n_kraus
        for a, b in zip(loaded.kraus, ch.kraus):
            assert_array_equal(a, b)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2}\n')
        with pytest.raises(ValueError, match="needs 'd' and 'kraus'"):
            load_channel(path)

    def test_load_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2, "kraus": [[[1.0, 0.0]]]}\n')
        with pytest.raises(ValueError, match="expected 4"):
            load_channel(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"d": 2, "kraus": [[1, 0, 0, 1]]}', "shape"),
            ('{"d": 2, "kraus": 5}', "shape"),
            ('{"d": 1, "kraus": [[["x", 0]]]}', "malformed channel file"),
            ('{"d": 2, "kraus": [[[1, 0], [0, 0]], [[1, 0]]]}', "malformed channel file"),
            ('{"d": [2], "kraus": [[[1, 0]]]}', "malformed channel file"),
            ('{"d": -2, "kraus": [[[1, 0]]]}', "d >= 1"),
            ('{"d": 0, "kraus": []}', "d >= 1"),
            ('{"d": 2.5, "kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}', "malformed channel file"),
            ('{"d": true, "kraus": [[[1, 0]]]}', "malformed channel file"),
            ('{"d": "2", "kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}', "malformed channel file"),
        ],
    )
    def test_load_rejects_malformed_with_file_name(self, tmp_path, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text + "\n")
        with pytest.raises(ValueError, match=match) as info:
            load_channel(path)
        assert str(path) in str(info.value)

    def test_load_rejects_incomplete(self, tmp_path):
        path = tmp_path / "bad.json"
        flat = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        path.write_text('{"d": 2, "kraus": [%s]}\n' % flat)
        with pytest.raises(ValueError, match="completeness violated"):
            load_channel(path)


class TestDeterminism:
    def test_same_stream_same_channel(self):
        a = random_incoherent_channel(3, 2, substream(99, 1))
        b = random_incoherent_channel(3, 2, substream(99, 1))
        for ka, kb in zip(a.kraus, b.kraus):
            assert_array_equal(ka, kb)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 4), n=st.integers(1, 4))
def test_incoherent_sampler_always_valid(seed, d, n):
    ch = random_incoherent_channel(d, n, substream(7003, seed))
    assert is_incoherent(ch)
    assert completeness_deviation(ch) < 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_coherence_cannot_enter_through_incoherent_channel(seed):
    gen = substream(7004, seed)
    ch = random_incoherent_channel(3, 2, gen)
    rho = maximally_coherent(3)
    out = apply_channel(ch, rho)
    # off-diagonals may survive, but a diagonal input must stay diagonal
    diag_out = apply_channel(ch, embed_diagonal(dephase(rho)))
    assert np.max(np.abs(diag_out - np.diag(np.diag(diag_out)))) < 1e-12
    assert out.trace().real == pytest.approx(1.0, abs=1e-10)
