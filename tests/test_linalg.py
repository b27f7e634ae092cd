import numpy as np
import pytest

from twohilb.linalg import kron, max_abs


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 3), (4, 1)),
    ((1, 1), (3, 3)),
    ((3, 2), (2, 5)),
    ((2, 0), (3, 4)),
    ((0, 2), (3, 1)),
    ((2, 2), (0, 0)),
])
def test_kron_is_bitwise_np_kron(rng, shape_a, shape_b):
    a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
    b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
    got, want = kron(a, b), np.kron(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # a conjugate-transposed view, as the Fourier structure maps pass it
    assert np.array_equal(kron(a.conj().T, b), np.kron(a.conj().T, b))


def test_max_abs():
    assert max_abs(np.array([[3 - 4j, 1.0]])) == 5.0
    assert max_abs([[1.0, -2.0]]) == 2.0
    assert max_abs(np.zeros((0, 3))) == 0.0
    assert type(max_abs(np.ones(2))) is float
    assert np.isnan(max_abs(np.array([1.0, np.nan])))
