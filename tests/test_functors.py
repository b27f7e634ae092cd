import numpy as np
import pytest

from twohilb.errors import ValidationError
from twohilb.functors import (
    FusionFunctor,
    NatBlock,
    adjoint_functor,
    adjunction_dev,
    apply,
    apply_morphism,
    apply_object,
    braiding_functor,
    dual_space,
    equivalence_pair,
    funcomp,
    functor_tensor,
    hilb_table,
    hom_dim,
    hom_space,
    horizontal,
    involutor_composites,
    matrix_unit_adjunction,
    riesz_represent,
    tensor_space,
)
from twohilb.hstar import (
    ObjectExpr,
    SpaceTable,
    compose,
    direct_sum,
    morphism_dev,
    star,
)
from twohilb.sampling import (
    random_fusion_functor,
    random_invertible_natblock,
    random_morphism,
    random_natblock,
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
    f = FusionFunctor.identity_on(h)
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
    z, ix, iy, px, py = direct_sum(x, y)
    fz = apply_object(f, z)
    total = compose(apply(f, px), apply(f, ix)) + compose(apply(f, py), apply(f, iy))
    from twohilb.hstar import identity
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


def test_double_adjoint_and_composite_adjoint(rng):
    h, k = two_spaces(rng)
    l = random_space(rng)
    f = random_fusion_functor(rng, h, k)
    g = random_fusion_functor(rng, k, l)
    assert adjoint_functor(adjoint_functor(f)) == f
    assert adjoint_functor(funcomp(f, g)) == funcomp(adjoint_functor(g), adjoint_functor(f))


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


def test_hom_space_dimension_and_weights():
    h = SpaceTable.make(["a", "b", "c"])
    k = SpaceTable.make(["u", "v"], {"u": 2.0, "v": 5.0})
    hs = hom_space(h, k)
    assert hs.table.dim == 6
    assert hs.table.weight("a>v") == pytest.approx(5.0)
    assert dual_space(h).table.dim == 3


def test_hom_space_embedding_is_isometric(rng):
    h, k = two_spaces(rng)
    hs = hom_space(h, k)
    f = random_fusion_functor(rng, h, k)
    g = random_fusion_functor(rng, h, k)
    alpha = random_natblock(rng, f, g)
    beta = random_natblock(rng, f, g)
    from twohilb.hstar import inner_product
    assert alpha.inner(beta) == pytest.approx(
        inner_product(hs.embed_nat(alpha), hs.embed_nat(beta)))


def test_riesz_represent_examples():
    h = SpaceTable.make(["a", "b"])
    hs = dual_space(h)
    dual_basis = hs.unit_functor("b", "C")
    assert riesz_represent(dual_basis) == h.simple("b")
    zero = FusionFunctor.make(h, hilb_table(), [[0], [0]])
    assert riesz_represent(zero).is_zero
    f = FusionFunctor.make(h, hilb_table(), [[2], [1]])
    x = riesz_represent(f)
    assert x.mults == (2, 1)
    for lam in h.simples:
        assert hom_dim(x, h.simple(lam)) == apply_object(f, h.simple(lam)).total_dim


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


def test_double_braiding_is_identity_multiplicity(rng):
    h, k = two_spaces(rng)
    r = braiding_functor(h, k)
    r_back = braiding_functor(k, h)
    assert np.array_equal(funcomp(r, r_back).matrix, np.eye(h.dim * k.dim, dtype=int))


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


def test_tensorator_multiplicity_equality(rng):
    h, hp = two_spaces(rng)
    k, kp = two_spaces(rng)
    f = random_fusion_functor(rng, h, hp)
    g = random_fusion_functor(rng, k, kp)
    id_h = FusionFunctor.identity_on(h)
    id_hp = FusionFunctor.identity_on(hp)
    id_k = FusionFunctor.identity_on(k)
    id_kp = FusionFunctor.identity_on(kp)
    c1 = funcomp(functor_tensor(f, id_k), functor_tensor(id_hp, g))
    c2 = funcomp(functor_tensor(id_h, g), functor_tensor(f, id_kp))
    assert c1.mult == c2.mult
    witness = NatBlock.from_equal_multiplicities(c1, c2)
    assert witness.is_unitary()


def test_braiding_naturality_multiplicity_level(rng):
    h, hp = two_spaces(rng)
    k = random_space(rng)
    f = random_fusion_functor(rng, h, hp)
    id_k = FusionFunctor.identity_on(k)
    lhs = funcomp(functor_tensor(f, id_k), braiding_functor(hp, k))
    rhs = funcomp(braiding_functor(h, k), functor_tensor(id_k, f))
    assert lhs.mult == rhs.mult


def test_involutor_whiskered_composites_agree(rng):
    h, k = two_spaces(rng)
    first, second = involutor_composites(h, k)
    assert first.src.mult == second.src.mult
    assert first.dst.mult == second.dst.mult
    assert first.dev_from(second) < TOL


def test_hom_tensor_dimension_check(rng):
    h, hp = two_spaces(rng)
    k = random_space(rng)
    inner = hom_space(hp, k)
    lhs = hom_space(h, inner.table).table.dim
    rhs = hom_space(tensor_space(h, hp).table, k).table.dim
    assert lhs == rhs


def test_matrix_unit_adjunction_triangles(rng):
    for _ in range(8):
        h, k = two_spaces(rng)
        f = random_fusion_functor(rng, h, k, max_entry=2)
        unit, counit = matrix_unit_adjunction(f)
        g = adjoint_functor(f)
        assert adjunction_dev(f, g, unit, counit) < TOL


def test_adjunction_swap(rng):
    for _ in range(5):
        h, k = two_spaces(rng)
        f = random_fusion_functor(rng, h, k, max_entry=2)
        g = adjoint_functor(f)
        unit, counit = matrix_unit_adjunction(f)
        assert adjunction_dev(g, f, counit.dual(), unit.dual()) < TOL


def test_equivalence_exists_iff_same_dimension(rng):
    h = SpaceTable.make(["a", "b"], {"a": 1.0, "b": 2.0})
    k = SpaceTable.make(["u", "v"], {"u": 3.0, "v": 0.5})
    f, g, unit, counit = equivalence_pair(h, k)
    assert unit.is_unitary() and counit.is_unitary()
    assert adjunction_dev(f, g, unit, counit) < TOL
    bad = SpaceTable.make(["z"])
    with pytest.raises(ValidationError):
        equivalence_pair(h, bad)


def test_natblock_extension_is_natural(rng):
    h, k = two_spaces(rng)
    f = random_fusion_functor(rng, h, k)
    g = random_fusion_functor(rng, h, k)
    alpha = random_natblock(rng, f, g)
    x, y = (random_object(rng, h) for _ in range(2))
    m = random_morphism(rng, x, y)
    assert alpha.naturality_dev(m) < TOL


def test_natblock_polar(rng):
    h, k = two_spaces(rng)
    f = random_fusion_functor(rng, h, k)
    alpha = random_invertible_natblock(rng, f)
    beta, gamma = alpha.polar()
    assert beta.dev_from(beta.dual()) < 1e-8
    assert gamma.is_unitary(1e-8)
    assert beta.vertical(gamma).dev_from(alpha) < 1e-8


def test_vertical_dual_antihomomorphism(rng):
    h, k = two_spaces(rng)
    f, g, e = (random_fusion_functor(rng, h, k) for _ in range(3))
    a = random_natblock(rng, f, g)
    b = random_natblock(rng, g, e)
    lhs = a.vertical(b).dual()
    rhs = b.dual().vertical(a.dual())
    assert lhs.dev_from(rhs) < TOL


def test_horizontal_composite_functoriality(rng):
    h, k = two_spaces(rng)
    l = random_space(rng)
    f1 = random_fusion_functor(rng, h, k, max_entry=2)
    f2 = random_fusion_functor(rng, h, k, max_entry=2)
    g1 = random_fusion_functor(rng, k, l, max_entry=2)
    g2 = random_fusion_functor(rng, k, l, max_entry=2)
    a = random_natblock(rng, f1, f2)
    b = random_natblock(rng, g1, g2)
    comp = horizontal(a, b)
    assert comp.src.mult == funcomp(f1, g1).mult
    assert comp.dst.mult == funcomp(f2, g2).mult
    x = random_object(rng, h)
    m = random_morphism(rng, x, random_object(rng, h))
    assert comp.naturality_dev(m) < TOL


def test_functor_json_round_trip(rng):
    h, k = two_spaces(rng)
    f = random_fusion_functor(rng, h, k)
    assert FusionFunctor.from_json(f.to_json()) == f


def test_natblock_json_round_trip(rng):
    h, k = two_spaces(rng)
    f = random_fusion_functor(rng, h, k)
    g = random_fusion_functor(rng, h, k)
    alpha = random_natblock(rng, f, g)
    back = NatBlock.from_json(alpha.to_json())
    assert back.dev_from(alpha) < 1e-12
