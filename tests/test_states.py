"""State constructors, validation gates, and the seeded stream contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacoh.linalg import DimMismatchError
from alphacoh.states import (
    BadRankError,
    BadWeightsError,
    dephase,
    embed_diagonal,
    ginibre,
    haar_from_ginibre,
    haar_unitary,
    load_state,
    maximally_coherent,
    random_density,
    random_pure,
    save_state,
    substream,
    validate_density,
    validate_probability_vector,
)


def numerical_rank(rho) -> int:
    return int(np.sum(np.linalg.eigvalsh(rho) > 1e-10))


class TestValidateDensity:
    def test_accepts_valid(self):
        rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        out = validate_density(rho)
        assert out.dtype == complex

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace violated"):
            validate_density(np.diag([0.7, 0.4]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermiticity violated"):
            validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positivity violated"):
            validate_density(np.array([[0.9, 0.5], [0.5, 0.1]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_density(np.ones((2, 3)))

    def test_name_appears_in_message(self):
        with pytest.raises(ValueError, match="input_rho"):
            validate_density(np.diag([2.0, 0.0]), name="input_rho")


def test_validate_probability_vector_gates():
    np.testing.assert_array_equal(validate_probability_vector([0.25, 0.75]), [0.25, 0.75])
    with pytest.raises(ValueError, match="nonnegativity"):
        validate_probability_vector([1.1, -0.1])
    with pytest.raises(ValueError, match="normalization"):
        validate_probability_vector([0.5, 0.6])
    with pytest.raises(ValueError, match="1-D"):
        validate_probability_vector([[0.5, 0.5]])


def test_embed_and_dephase_round_trip():
    probs = np.array([0.1, 0.2, 0.7])
    rho = embed_diagonal(probs)
    assert rho.shape == (3, 3)
    assert np.all(rho == np.diag(probs))
    np.testing.assert_allclose(dephase(rho), probs, atol=1e-15)


def test_dephase_strips_off_diagonals():
    rho = maximally_coherent(4)
    np.testing.assert_allclose(dephase(rho), np.full(4, 0.25), atol=1e-15)


def test_dephase_gates_its_input():
    with pytest.raises(DimMismatchError, match="expected a square matrix"):
        dephase(np.ones((2, 3)))
    with pytest.raises(ValueError, match="entries must be finite"):
        dephase([[np.nan, 0.0], [0.0, 1.0]])
    for no_weight in (np.zeros((2, 2)), [[-1.0, 0.0], [0.0, 0.0]]):  # a clamped diagonal of sum 0
        with pytest.raises(BadWeightsError, match="positive sum, got 0.0"):
            dephase(no_weight)


class TestMaximallyCoherent:
    def test_is_pure_uniform(self):
        rho = maximally_coherent(3)
        assert np.trace(rho).real == pytest.approx(1.0)
        np.testing.assert_allclose(rho, np.full((3, 3), 1 / 3), atol=1e-15)
        assert numerical_rank(rho) == 1

    def test_phases_affect_off_diagonals_only(self):
        rho = maximally_coherent(2, phases=[0.0, np.pi / 2])
        np.testing.assert_allclose(np.diag(rho), [0.5, 0.5], atol=1e-15)
        assert rho[0, 1] == pytest.approx(-0.5j)

    def test_phase_count_checked(self):
        with pytest.raises(ValueError, match="expected 3 phases"):
            maximally_coherent(3, phases=[0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_phases_refused(self, bad):
        with pytest.raises(ValueError, match="phases must be finite"):
            maximally_coherent(2, phases=[bad, 0.0])

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            maximally_coherent(0)


class TestRandomDensity:
    @pytest.mark.parametrize("d,rank", [(2, 1), (2, 2), (4, 2), (4, 4), (5, 3)])
    def test_valid_state_of_exact_rank(self, d, rank, rng):
        rho = random_density(d, rank, rng(d, rank))
        validate_density(rho)
        assert numerical_rank(rho) == rank

    def test_rank_gate(self, rng):
        with pytest.raises(BadRankError):
            random_density(3, 0, rng(0))
        with pytest.raises(BadRankError):
            random_density(3, 4, rng(0))
        with pytest.raises(BadRankError, match=r"^rank must lie in 1\.\.3, got -1$"):
            random_density(3, -1, rng(0))


def test_random_pure_and_incoherent(rng):
    pure = random_pure(4, rng(10))
    validate_density(pure)
    assert numerical_rank(pure) == 1


def test_random_pure_is_the_rank_one_random_density():
    np.testing.assert_array_equal(random_pure(5, substream(4, 1)), random_density(5, 1, substream(4, 1)))


def test_validate_probability_vector_raises_bad_weights():
    for bad in ([math.nan, 1.0], [math.inf, 0.0], [0.5, 0.6], [], [1.1, -0.1]):
        with pytest.raises(BadWeightsError):
            validate_probability_vector(bad)


def test_validate_probability_vector_refuses_imaginary_parts():
    for bad in ([0.5 + 0.3j, 0.5 - 0.3j], np.array([0.5 + 0.3j, 0.5 - 0.3j]), [1.0 + 1e-300j]):
        with pytest.raises(BadWeightsError, match="entries must be real"):
            validate_probability_vector(bad)
    vec = validate_probability_vector(np.array([0.25 + 0j, 0.75 + 0j]))
    assert vec.dtype == float
    np.testing.assert_array_equal(vec, [0.25, 0.75])


def test_haar_unitary_is_unitary(rng):
    u = haar_unitary(5, rng(12))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


@pytest.mark.parametrize(
    "d, error, match",
    [(0, ValueError, "^d must be >= 1, got 0$"), (2.0, TypeError, "^d must be an integer, got 2.0$"),
     (True, TypeError, "^d must be an integer, got True$")],
)
def test_haar_unitary_takes_a_count(d, error, match):
    # 0 gave a 0 x 0 array, and 2.0 and True numpy's TypeErrors, which did not name d
    with pytest.raises(error, match=match):
        haar_unitary(d, substream(14))


@pytest.mark.parametrize("d", range(1, 17))
def test_a_stacked_qr_has_the_bits_of_one_matrix_at_a_time(d):
    # the suite forms every Haar unitary of a cell and size in one call; sizes d * n_kraus reach 16
    g = ginibre((6, d, d), substream(13, d))
    q, r = np.linalg.qr(g)
    unitaries = haar_from_ginibre(g)
    for b in range(len(g)):
        q_b, r_b = np.linalg.qr(g[b])
        np.testing.assert_array_equal(q[b], q_b)
        np.testing.assert_array_equal(r[b], r_b)
        np.testing.assert_array_equal(unitaries[b], haar_from_ginibre(g[b]))


class TestStreams:
    def test_substream_reproducible(self):
        a = substream(7, 3, 1).standard_normal(5)
        b = substream(7, 3, 1).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_substream_keys_independent_of_open_order(self):
        # opening other streams first must not shift an existing key's draws
        first = substream(7, 0, 4).standard_normal(3)
        for k in range(20):
            substream(7, k, 0).standard_normal(1)
        np.testing.assert_array_equal(substream(7, 0, 4).standard_normal(3), first)

    def test_distinct_keys_differ(self):
        a = substream(7, 1).standard_normal(4)
        b = substream(7, 2).standard_normal(4)
        assert np.any(a != b)

    @pytest.mark.parametrize("args", [(1.7,), (1, 2.5), ("1",)])
    def test_refuses_a_seed_or_key_that_is_not_an_integer(self, args):
        # int() truncated 1.7 to seed 1's stream
        with pytest.raises(TypeError):
            substream(*args)

    def test_numpy_integers_are_the_same_stream(self):
        a = substream(np.int64(7), np.int32(3)).standard_normal(3)
        np.testing.assert_array_equal(a, substream(7, 3).standard_normal(3))


def test_state_file_round_trip_exact(tmp_path, rng):
    rho = random_density(3, 2, rng(20))
    path = tmp_path / "state.json"
    save_state(path, rho)
    loaded = load_state(path)
    np.testing.assert_array_equal(loaded, rho)


def test_load_state_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "entries": [[0.7, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7, 0.0]]}\n')
    with pytest.raises(ValueError, match="trace violated"):
        load_state(path)
    path.write_text('{"dim": 2, "entries": [[1.0, 0.0]]}\n')
    with pytest.raises(ValueError, match="expected 4 entries"):
        load_state(path)
    path.write_text('[1, 2]\n')
    with pytest.raises(ValueError, match="state file needs"):
        load_state(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ('{"dim": 2, "entries": [1, 0, 0, 0]}', "shape \\(4,\\)"),
        ('{"dim": 2, "entries": 5}', "shape \\(\\)"),
        ('{"dim": 1, "entries": [["x", 0]]}', "malformed state file"),
        ('{"dim": "two", "entries": [[1, 0]]}', "malformed state file"),
        ('{"dim": -2, "entries": [[1, 0]]}', "dim >= 1"),
        ('{"dim": 2.7, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "malformed state file"),
        ('{"dim": true, "entries": [[1, 0]]}', "malformed state file"),
        ('{"dim": "2", "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "malformed state file"),
    ],
)
def test_load_state_rejects_malformed_with_file_name(tmp_path, text, match):
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    with pytest.raises(ValueError, match=match) as info:
        load_state(path)
    assert str(path) in str(info.value)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_random_density_always_validates(seed, d, data):
    rank = data.draw(st.integers(min_value=1, max_value=d))
    rho = random_density(d, rank, np.random.default_rng(seed))
    validate_density(rho)
    assert abs(np.trace(rho) - 1.0) < 1e-12
