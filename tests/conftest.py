import numpy as np
import pytest

from alphacoh.states import substream


@pytest.fixture
def rng():
    # per-test stream named after the test, so reordering tests never
    # silently changes another test's draws
    def make(*key: int) -> np.random.Generator:
        return substream(2026, *key)

    return make


def random_hermitian(d: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def wiped_at_column_1(rows: np.ndarray, amplitudes: np.ndarray, t: int) -> None:
    """Make draw t of a (T, n_kraus >= 2, d >= 3) stack structurally feasible, with column 1 in its constraints' span.

    Operator 0 maps columns 0 and 1 to row 0 and every other operator is the
    identity map, so m_1 = 1 < n_kraus; column 1's vector (a, 0, ...) lies in
    the span of its one masked constraint (c, 0, ...), and its projection wipes it out.
    """
    d = rows.shape[-1]
    rows[t] = np.arange(d)
    rows[t, 0] = [0, *range(d - 1)]
    amplitudes[t, 1:, 1] = 0.0
