import numpy as np
import pytest

from twohilb.functors import (
    FusionFunctor,
    adjoint_functor,
    apply,
    apply_object,
    hom_dim,
    tensor_space,
)
from twohilb.hstar import (
    BlockMorphism,
    ObjectExpr,
    SpaceTable,
    compose,
    identity,
    morphism_dev,
    star,
)
from twohilb.sampling import (
    random_fusion_functor,
    random_morphism,
    random_object,
    random_space,
)

TOL = 1e-9


def two_spaces(rng):
    h = random_space(rng)
    k = random_space(rng)
    return h, k


def test_identity_functor_is_identity(rng):
    h = random_space(rng)
    f = FusionFunctor.make(h, h, np.eye(h.dim, dtype=int))
    x = random_object(rng, h)
    assert apply_object(f, x) == x
    m = random_morphism(rng, x, random_object(rng, h))
    assert morphism_dev(apply(f, m), m) < TOL


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


def test_apply_preserves_composition_and_star(rng):
    h, k = two_spaces(rng)
    f = random_fusion_functor(rng, h, k)
    x, y, z = (random_object(rng, h) for _ in range(3))
    a = random_morphism(rng, x, y)
    b = random_morphism(rng, y, z)
    lhs = apply(f, compose(a, b))
    rhs = compose(apply(f, a), apply(f, b))
    assert morphism_dev(lhs, rhs) < TOL
    assert morphism_dev(apply(f, star(a)), star(apply(f, a))) < TOL


def test_apply_preserves_direct_sums(rng):
    h, k = two_spaces(rng)
    f = random_fusion_functor(rng, h, k)
    x, y = (random_object(rng, h) for _ in range(2))
    # the biproduct z = x + y: x in the first rows of each block, y below it
    z = ObjectExpr.make(h, [a + b for a, b in zip(x.mults, y.mults)])
    pairs = list(zip(h.simples, x.mults, y.mults))
    ix = BlockMorphism(x, z, {s: np.eye(a + b, a) for s, a, b in pairs})
    iy = BlockMorphism(y, z, {s: np.eye(a + b, b, -a) for s, a, b in pairs})
    px, py = star(ix), star(iy)
    fz = apply_object(f, z)
    total = compose(apply(f, px), apply(f, ix)) + compose(apply(f, py), apply(f, iy))
    assert morphism_dev(total, identity(fz)) < TOL


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


def test_tensor_space_counts_and_weights():
    h = SpaceTable.make(["a", "b"], {"a": 1.0, "b": 2.0})
    k = SpaceTable.make(["u"], {"u": 3.0})
    t = tensor_space(h, k)
    assert t.table.dim == 2
    assert t.table.weight("(a,u)") == pytest.approx(3.0)
    assert t.table.weight("(b,u)") == pytest.approx(6.0)
    h3 = SpaceTable.make(["a", "b"])
    k3 = SpaceTable.make(["u", "v", "w"])
    assert tensor_space(h3, k3).table.dim == 6


def test_tensor_pairing_on_morphisms(rng):
    h, k = two_spaces(rng)
    t = tensor_space(h, k)
    x1, y1 = (random_object(rng, h) for _ in range(2))
    x2, y2 = (random_object(rng, k) for _ in range(2))
    f = random_morphism(rng, x1, y1)
    g = random_morphism(rng, x2, y2)
    fg = t.morphism_pair(f, g)
    assert fg.src == t.object_pair(x1, x2)
    assert fg.dst == t.object_pair(y1, y2)
    f2 = random_morphism(rng, y1, x1)
    g2 = random_morphism(rng, y2, x2)
    lhs = t.morphism_pair(compose(f, f2), compose(g, g2))
    rhs = compose(fg, t.morphism_pair(f2, g2))
    assert morphism_dev(lhs, rhs) < TOL