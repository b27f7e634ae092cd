import numpy as np
import pytest

from twohilb.errors import CompositionError
from twohilb.functors import FusionFunctor, adjoint_functor, apply_object, hom_dim
from twohilb.hstar import SpaceTable
from twohilb.sampling import random_fusion_functor, random_object, random_space


def two_spaces(rng):
    h = random_space(rng)
    k = random_space(rng)
    return h, k


def test_identity_functor_is_identity(rng):
    h = random_space(rng)
    f = FusionFunctor.make(h, h, np.eye(h.dim, dtype=int))
    x = random_object(rng, h)
    assert apply_object(f, x) == x


def test_apply_on_simple_row_vector():
    h = SpaceTable.make(["e"])
    k = SpaceTable.make(["a", "b"])
    f = FusionFunctor.make(h, k, [[1, 2]])
    img = apply_object(f, h.simple("e"))
    assert img.mults == (1, 2)
    # the matrix is built once and shared by every caller, so it is read-only
    assert f.matrix is f.matrix
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 3
    with pytest.raises(CompositionError):
        apply_object(f, k.simple("a"))


def test_adjoint_transpose_and_hom_dims():
    h = SpaceTable.make(["e"])
    k = SpaceTable.make(["a", "b"])
    f = FusionFunctor.make(h, k, [[1, 2]])
    fs = adjoint_functor(f)
    assert fs.mult == ((1,), (2,))
    e = h.simple("e")
    e2 = k.simple("b")
    assert hom_dim(apply_object(f, e), e2) == 2
    assert hom_dim(e, apply_object(fs, e2)) == 2


def test_double_adjoint(rng):
    h, k = two_spaces(rng)
    f = random_fusion_functor(rng, h, k)
    assert adjoint_functor(adjoint_functor(f)) == f


def test_adjoint_duality_exact_integer(rng):
    for _ in range(25):
        h, k = two_spaces(rng)
        f = random_fusion_functor(rng, h, k)
        fs = adjoint_functor(f)
        for lam in h.simples:
            for mu in k.simples:
                lhs = hom_dim(apply_object(f, h.simple(lam)), k.simple(mu))
                rhs = hom_dim(h.simple(lam), apply_object(fs, k.simple(mu)))
                assert lhs == rhs
