import numpy as np
import pytest

from scipy import linalg as scipy_linalg

from twohilb.linalg import block_diag, kron, max_abs


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


def test_kron_and_block_diag_broadcast_over_leading_axes(rng):
    """A stack of blocks gives the stack of the matrices that each slice gives."""
    stack = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
    mat = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    eye = np.eye(2)
    for got, want in [(kron(stack, eye), [np.kron(s, eye) for s in stack]),
                      (kron(eye, stack), [np.kron(eye, s) for s in stack]),
                      (block_diag([stack, mat, stack[:, :0]]),
                       [scipy_linalg.block_diag(s, mat, s[:0]) for s in stack])]:
        assert np.array_equal(got, np.array(want))
    assert block_diag([np.zeros((5, 0, 0))]).shape == (5, 0, 0)
    assert block_diag([]).shape == (0, 0)


def test_max_abs():
    assert max_abs(np.array([[3 - 4j, 1.0]])) == 5.0
    assert max_abs([[1.0, -2.0]]) == 2.0
    assert max_abs(np.zeros((0, 3))) == 0.0
    assert type(max_abs(np.ones(2))) is float
    assert np.isnan(max_abs(np.array([1.0, np.nan])))
