import numpy as np
import pytest

from twohilb.errors import ValidationError
from twohilb.functors import FusionFunctor
from twohilb.groups import (
    FiniteSuperGroup,
    cyclic_group,
    product_group,
    quaternion_group,
    symmetric_group,
)
from twohilb.hstar import BlockMorphism, ObjectExpr, compose, identity, morphism_dev
from twohilb.linalg import dagger, max_dev
from twohilb.reps import Intertwiner, RepCategory
from twohilb.transforms import (
    FourierMap,
    SpectrumPoint,
    _product_table,
    conv_layout,
    convolution,
    convolution_tensor,
    dual_group,
    gelfand_hat,
    gelfand_hom_dim,
    graded_braiding,
    graded_space,
    hat_homomorphism_defect,
    tannaka_reconstruct,
    tautological_point,
)


def graded(group, fibers):
    return ObjectExpr.make(graded_space(group), fibers)


def delta(group, g, n=1):
    fibers = [0] * group.order
    fibers[g] = n
    return graded(group, fibers)


def test_convolution_of_deltas():
    g = cyclic_group(5)
    conv = convolution(g)
    for a in range(5):
        for b in range(5):
            prod = convolution_tensor(conv, delta(g, a), delta(g, b))
            assert prod == delta(g, g.mult(a, b))


def test_convolution_unit_law(rng):
    g = cyclic_group(6)
    conv = convolution(g)
    x = graded(g, [int(rng.integers(0, 4)) for _ in range(6)])
    unit = delta(g, g.identity)
    assert convolution_tensor(conv, unit, x) == x
    assert convolution_tensor(conv, x, unit) == x


def test_convolution_z2_count():
    g = cyclic_group(2)
    x = graded(g, [1, 1])
    assert convolution_tensor(convolution(g), x, x).mults == (2, 2)


def test_convolution_monoid_exact(rng):
    g = product_group(cyclic_group(2), cyclic_group(2))
    conv = convolution(g)
    for _ in range(10):
        x, y, z = (graded(g, [int(rng.integers(0, 3)) for _ in range(4)])
                   for _ in range(3))
        left = convolution_tensor(conv, convolution_tensor(conv, x, y), z)
        right = convolution_tensor(conv, x, convolution_tensor(conv, y, z))
        assert left == right


def test_dual_group_structure():
    z4 = RepCategory(cyclic_group(4))
    dual, chars = dual_group(z4)
    assert dual.order == 4 and dual.is_cyclic
    k4 = RepCategory(product_group(cyclic_group(2), cyclic_group(2)))
    dual_k4, _ = dual_group(k4)
    assert dual_k4.order == 4 and not dual_k4.is_cyclic
    with pytest.raises(ValidationError):
        dual_group(RepCategory(symmetric_group(3)))


def test_product_table_rejects_rows_that_do_not_close():
    # orthonormal unit-modulus rows: (i, -i)^2 = (-1, -1) is no row
    with pytest.raises(ValidationError, match="failed to close"):
        _product_table(np.array([[1, 1], [1j, -1j]]), "failed to close")
    z3 = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3)
    assert _product_table(z3, "failed to close").tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    # row 2 turned by opposite phases 5e-4 in two entries: products miss
    # their rows entrywise by up to 1e-3, while every overlap stays real
    # and within 4e-7 of 1
    z3[2, 1:] *= np.exp([5e-4j, -5e-4j])
    with pytest.raises(ValidationError, match="failed to close"):
        _product_table(z3, "failed to close")
    # a repeated row is hit twice by every product
    with pytest.raises(ValidationError, match="failed to close"):
        _product_table(np.ones((2, 2)), "failed to close")


def test_convolution_matches_the_dense_multiplicity_matrix():
    for g in (cyclic_group(4), symmetric_group(3)):
        conv = convolution(g)
        dense = np.zeros((g.order ** 2, g.order), dtype=int)
        dense[np.arange(g.order ** 2), g.matrix.ravel()] = 1
        assert conv == FusionFunctor.make(conv.src, conv.dst, dense)


def test_fourier_of_sign_character():
    cat = RepCategory(cyclic_group(2))
    fm = FourierMap(cat)
    assert fm.space == cat.skeleton()
    sgn = cat.irrep("1b")
    graded = fm.transform(sgn)
    idx_triv = fm.dual.element_names.index("1a")
    idx_sgn = fm.dual.element_names.index("1b")
    assert graded.mults[idx_sgn] == 1
    assert graded.mults[idx_triv] == 0


def test_fourier_of_regular_representation():
    for n in (2, 3, 4):
        cat = RepCategory(cyclic_group(n))
        fm = FourierMap(cat)
        reg = None
        for lab in cat.irrep_labels():
            x = cat.irrep(lab)
            reg = x if reg is None else cat.direct_sum(reg, x)
        graded = fm.transform(reg)
        assert graded.mults == (1,) * n


def test_fourier_monoidal_defect_small(rng):
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              product_group(cyclic_group(2), cyclic_group(2))]
    for g in groups:
        cat = RepCategory(g)
        fm = FourierMap(cat)
        x = cat.random_object(rng, max_dim=4)
        y = cat.random_object(rng, max_dim=4)
        f = cat.hom_basis(x, x, rng)[0]
        fp = cat.hom_basis(y, y, rng)[0]
        assert fm.monoidal_defect(x, y, f, fp) < 1e-9


def test_fourier_naturality_between_distinct_objects(rng):
    cat = RepCategory(cyclic_group(3))
    fm = FourierMap(cat)
    x = cat.random_object(rng, max_dim=3)
    y = cat.random_object(rng, max_dim=3)
    f = cat.hom_basis(x, cat.direct_sum(x, cat.irrep("1b")), rng)[0]
    fp = cat.hom_basis(y, cat.direct_sum(cat.irrep("1c"), y), rng)[0]
    assert fm.monoidal_defect(x, y, f, fp) < 1e-9


def test_fourier_of_the_zero_object():
    cat = RepCategory(cyclic_group(4))
    fm = FourierMap(cat)
    zero = fm.inverse(ObjectExpr.make(fm.space, [0] * 4))
    x = cat.irrep("1b")
    f = Intertwiner(zero, x, np.zeros((x.dim, 0)))
    blocks = fm.morphism(f)
    assert blocks.src.is_zero and blocks.dst == fm.transform(x) and not blocks.blocks
    assert fm.round_trip_defect(zero) == 0.0
    none = Intertwiner(zero, zero, np.zeros((0, 0)))
    assert fm.monoidal_defect(zero, x, none, Intertwiner(x, x, np.eye(1))) < 1e-12


def test_fourier_round_trip(rng):
    cat = RepCategory(cyclic_group(4))
    fm = FourierMap(cat)
    for _ in range(5):
        x = cat.random_object(rng, max_dim=5)
        f = cat.hom_basis(x, x, rng)[0]
        assert fm.round_trip_defect(x, f) < 1e-9


def test_fourier_rejects_nonabelian():
    with pytest.raises(ValidationError):
        FourierMap(RepCategory(symmetric_group(3)))


def test_graded_braiding_is_symmetry(rng):
    g = cyclic_group(3)
    x = graded(g, [1, 2, 0])
    y = graded(g, [2, 0, 1])
    b = graded_braiding(g, x, y)
    back = graded_braiding(g, y, x)
    assert b.src == convolution_tensor(convolution(g), x, y)
    round_trip = compose(b, back)
    assert morphism_dev(round_trip, identity(round_trip.src)) < 1e-12


def test_signed_graded_braiding_is_symmetry():
    g = cyclic_group(4)
    parity = [0, 1, 0, 1]
    x = graded(g, [1, 2, 0, 1])
    y = graded(g, [1, 1, 1, 0])
    b = graded_braiding(g, x, y, parity)
    plain = graded_braiding(g, x, y)
    round_trip = compose(b, graded_braiding(g, y, x, parity))
    assert morphism_dev(round_trip, identity(round_trip.src)) < 1e-12
    # odd (x) odd fibers sit at grades 1 + 1 = 1 + 3 = 2: their swap changes sign
    layout = {(g1, g2): (off, nx * ny) for g1, g2, off, nx, ny in conv_layout(g, x, y, 2)}
    off, size = layout[(1, 1)]
    label = g.element_name(2)
    block = b.block(label)[:, off:off + size]
    unsigned = plain.block(label)[:, off:off + size]
    assert max_dev(block, -unsigned) < 1e-12 and np.abs(unsigned).max() == 1.0


def test_fourier_monoidal_defect_graded():
    rng = np.random.default_rng(3)
    groups = [(cyclic_group(2), 1), (cyclic_group(4), 2),
              (product_group(cyclic_group(2), cyclic_group(2)), 1)]
    for g, z in groups:
        cat = RepCategory(FiniteSuperGroup.make(g, z))
        for category in (cat, cat.bosonized()):
            fm = FourierMap(category)
            for _ in range(3):
                x = category.random_object(rng, max_dim=4)
                y = category.random_object(rng, max_dim=4)
                f = category.hom_basis(x, x, rng)[0]
                fp = category.hom_basis(y, y, rng)[0]
                assert fm.monoidal_defect(x, y, f, fp) < 1e-12


def test_convolution_morphism_functorial(rng):
    g = cyclic_group(3)
    conv = convolution(g)
    x = graded(g, [1, 2, 1])
    y = graded(g, [2, 1, 0])

    def rand_endo(obj):
        return BlockMorphism(obj, obj, {lab: rng.standard_normal((n, n))
                                        + 1j * rng.standard_normal((n, n))
                                        for lab, n in zip(obj.space.simples, obj.mults)})
    f1, f2 = rand_endo(x), rand_endo(x)
    h1, h2 = rand_endo(y), rand_endo(y)
    lhs = convolution_tensor(conv, compose(f1, f2), compose(h1, h2))
    rhs = compose(convolution_tensor(conv, f1, h1), convolution_tensor(conv, f2, h2))
    assert morphism_dev(lhs, rhs) < 1e-9


def test_tautological_point_validates():
    for build in (lambda: RepCategory(symmetric_group(3)),
                  lambda: RepCategory(FiniteSuperGroup.make(quaternion_group(), 1))):
        cat = build()
        point = tautological_point(cat)
        assert point.validate() < 1e-8


def test_point_validation_decomposes_each_pair_once(monkeypatch):
    """validate reaches every ordered pair of simples through two structure
    maps and two fused layouts; each tensor is decomposed only once, and
    each structure map is built once per validation."""
    cat = RepCategory(symmetric_group(3))
    point = tautological_point(cat)
    computed, maps = [], []
    original = RepCategory.decompose
    original_map = SpectrumPoint.structure_map

    def counted(self, x):
        if x._isotypic is None:
            computed.append(x.name)
        return original(self, x)

    def counted_map(self, lam, mu):
        maps.append((lam, mu))
        return original_map(self, lam, mu)

    monkeypatch.setattr(RepCategory, "decompose", counted)
    monkeypatch.setattr(SpectrumPoint, "structure_map", counted_map)
    assert point.validate() < 1e-8
    assert len(computed) <= len(cat.irreps()) ** 2 == 9
    assert len(maps) <= 9
    assert point.validate() < 1e-8
    assert len(computed) <= 9


def test_wrongly_graded_point_rejected():
    cat = RepCategory(quaternion_group())  # even category
    values = {}
    for irr in cat.irreps():
        sign = -1.0 if irr.label == "2a" else 1.0
        values[irr.label] = (irr.degree, np.full(irr.degree, sign))
    point = SpectrumPoint(cat, values, name="wrong")
    with pytest.raises(ValidationError, match="balancing"):
        point.validate()


def test_gelfand_hat_values(rng):
    cat = RepCategory(symmetric_group(3))
    point = tautological_point(cat)
    hat = gelfand_hat(cat.unit(), [point])
    assert hat.dims() == {"tautological": 1}
    std = cat.irrep("2a")
    hat_std = gelfand_hat(std, [point], validate_points=False)
    assert hat_std.dims()["tautological"] == 2
    assert gelfand_hom_dim(point, std, std) == 1 == cat.hom_dim(std, std)
    for _ in range(3):
        x = cat.random_object(rng, max_dim=5)
        y = cat.random_object(rng, max_dim=5)
        assert gelfand_hom_dim(point, x, y) == cat.hom_dim(x, y)


def test_hat_is_multiplicative_and_additive(rng):
    cat = RepCategory(symmetric_group(3))
    point = tautological_point(cat)
    x = cat.random_object(rng, max_dim=4)
    y = cat.random_object(rng, max_dim=4)
    nx, _ = point.value_of(x)
    ny, _ = point.value_of(y)
    nxy, _ = point.value_of(cat.tensor(x, y))
    assert nxy == nx * ny
    nsum, _ = point.value_of(cat.direct_sum(x, y))
    assert nsum == nx + ny
    f = cat.hom_basis(x, x, rng)[0]
    assert max_dev(point.morphism_value(f.star()),
                   dagger(point.morphism_value(f))) < 1e-9


def test_morphism_value_rejects_maps_that_mix_simples():
    cat = RepCategory(symmetric_group(3))
    x = cat.direct_sum(cat.irrep("1a"), cat.irrep("1b"))
    swap = Intertwiner(x, x, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError, match="mixes distinct simples"):
        tautological_point(cat).morphism_value(swap)


def test_twisted_points_are_conjugate(rng):
    cat = RepCategory(symmetric_group(3))
    point = tautological_point(cat)
    twisted = point.twisted(rng)
    assert twisted.validate() < 1e-7
    x = cat.random_object(rng, max_dim=4)
    assert point.value_of(x)[0] == twisted.value_of(x)[0]


def test_double_dual_evaluation():
    # the double dual is identified with the group by evaluation
    for group in (cyclic_group(4), product_group(cyclic_group(2), cyclic_group(2))):
        cat = RepCategory(group)
        dual, chars = dual_group(cat)
        double, double_chars = dual_group(RepCategory(dual))
        assert double.order == group.order
        matched = set()
        for g in range(group.order):
            evaluation = chars[:, g]  # the value of each character at g
            hits = [k for k in range(double.order)
                    if np.max(np.abs(double_chars[k] - evaluation)) < 1e-6]
            assert len(hits) == 1
            matched.add(hits[0])
        assert len(matched) == group.order


def test_hat_homomorphism_defect(rng):
    cat = RepCategory(symmetric_group(3))
    point = tautological_point(cat)
    x = cat.random_object(rng, max_dim=4)
    y = cat.random_object(rng, max_dim=4)
    assert hat_homomorphism_defect(point, x, y, rng) < 1e-9


def test_tannaka_abelian():
    for group, want_order, want_cyclic in [
        (cyclic_group(2), 2, True),
        (cyclic_group(3), 3, True),
        (cyclic_group(4), 4, True),
        (product_group(cyclic_group(2), cyclic_group(2)), 4, False),
    ]:
        res = tannaka_reconstruct(RepCategory(group))
        assert res.order == want_order
        assert res.is_cyclic == want_cyclic
        assert res.injection_verified


def test_tannaka_nonabelian_injection():
    res = tannaka_reconstruct(RepCategory(symmetric_group(3)))
    assert res.order == 6
    assert res.injection_verified


def test_bosonization_compatible_with_transform(rng):
    z4 = cyclic_group(4)
    cat = RepCategory(FiniteSuperGroup.make(z4, 2))
    flat = cat.bosonized()
    fm = FourierMap(cat)
    fm_flat = FourierMap(flat)
    for _ in range(3):
        x = cat.random_object(rng, max_dim=4)
        assert fm.transform(x).mults == fm_flat.transform(x).mults


def test_graded_object_json_round_trip():
    g = cyclic_group(3)
    x = graded(g, [1, 0, 2])
    back = ObjectExpr.from_json(x.to_json())
    assert back == x
    assert back.space == graded_space(g)
