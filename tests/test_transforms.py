import numpy as np
import pytest

from twohilb.errors import ValidationError
from twohilb.groups import (
    FiniteSuperGroup,
    cyclic_group,
    product_group,
    quaternion_group,
    symmetric_group,
)
from twohilb.linalg import dagger, max_dev
from twohilb.reps import Intertwiner, RepCategory
from twohilb.transforms import (
    FourierMap,
    GradedMorphism,
    GradedObject,
    convolution_morphism,
    conv_layout,
    convolution_tensor,
    dual_group,
    gelfand_hat,
    gelfand_hom_dim,
    graded_braiding,
    hat_homomorphism_defect,
    tannaka_reconstruct,
    tautological_point,
    unit_graded,
)


def delta(group, g, n=1):
    fibers = [0] * group.order
    fibers[g] = n
    return GradedObject.make(group, fibers)


def test_convolution_of_deltas():
    g = cyclic_group(5)
    for a in range(5):
        for b in range(5):
            prod = convolution_tensor(delta(g, a), delta(g, b))
            assert prod.fibers == delta(g, g.mult(a, b)).fibers


def test_convolution_unit_law(rng):
    g = cyclic_group(6)
    x = GradedObject.make(g, [int(rng.integers(0, 4)) for _ in range(6)])
    assert convolution_tensor(unit_graded(g), x).fibers == x.fibers
    assert convolution_tensor(x, unit_graded(g)).fibers == x.fibers


def test_convolution_z2_count():
    g = cyclic_group(2)
    x = GradedObject.make(g, [1, 1])
    assert convolution_tensor(x, x).fibers == (2, 2)


def test_convolution_monoid_exact(rng):
    g = product_group(cyclic_group(2), cyclic_group(2))
    for _ in range(10):
        x, y, z = (GradedObject.make(g, [int(rng.integers(0, 3)) for _ in range(4)])
                   for _ in range(3))
        left = convolution_tensor(convolution_tensor(x, y), z)
        right = convolution_tensor(x, convolution_tensor(y, z))
        assert left.fibers == right.fibers


def test_dual_group_structure():
    z4 = RepCategory(cyclic_group(4))
    dual, chars = dual_group(z4)
    assert dual.order == 4 and dual.is_cyclic
    k4 = RepCategory(product_group(cyclic_group(2), cyclic_group(2)))
    dual_k4, _ = dual_group(k4)
    assert dual_k4.order == 4 and not dual_k4.is_cyclic
    with pytest.raises(ValidationError):
        dual_group(RepCategory(symmetric_group(3)))


def test_fourier_of_sign_character():
    cat = RepCategory(cyclic_group(2))
    fm = FourierMap(cat)
    sgn = cat.irrep("1b")
    graded = fm.transform(sgn)
    idx_triv = fm.dual.element_names.index("1a")
    idx_sgn = fm.dual.element_names.index("1b")
    assert graded.fiber(idx_sgn) == 1
    assert graded.fiber(idx_triv) == 0


def test_fourier_of_regular_representation():
    for n in (2, 3, 4):
        cat = RepCategory(cyclic_group(n))
        fm = FourierMap(cat)
        reg = None
        for lab in cat.irrep_labels():
            x = cat.irrep(lab)
            reg = x if reg is None else cat.direct_sum(reg, x)
        graded = fm.transform(reg)
        assert graded.fibers == (1,) * n


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
    x = GradedObject.make(g, [1, 2, 0])
    y = GradedObject.make(g, [2, 0, 1])
    b = graded_braiding(x, y)
    back = graded_braiding(y, x)
    round_trip = b.then(back)
    ident = GradedMorphism(round_trip.src, round_trip.src,
                           {g_: np.eye(round_trip.src.fiber(g_))
                            for g_ in range(3) if round_trip.src.fiber(g_)})
    assert round_trip.dev_from(ident) < 1e-12


def test_signed_graded_braiding_is_symmetry():
    g = cyclic_group(4)
    parity = [0, 1, 0, 1]
    x = GradedObject.make(g, [1, 2, 0, 1])
    y = GradedObject.make(g, [1, 1, 1, 0])
    b = graded_braiding(x, y, parity)
    plain = graded_braiding(x, y)
    round_trip = b.then(graded_braiding(y, x, parity))
    for h in range(4):
        n = round_trip.src.fiber(h)
        assert max_dev(round_trip.block(h), np.eye(n)) < 1e-12
    # odd (x) odd fibers sit at grades 1 + 1 = 1 + 3 = 2: their swap changes sign
    layout = {(g1, g2): (off, nx * ny) for g1, g2, off, nx, ny in conv_layout(x, y, 2)}
    off, size = layout[(1, 1)]
    block, unsigned = b.block(2)[:, off:off + size], plain.block(2)[:, off:off + size]
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
    x = GradedObject.make(g, [1, 2, 1])
    y = GradedObject.make(g, [2, 1, 0])
    def rand_endo(obj):
        return GradedMorphism(obj, obj, {k: np.asarray(
            rng.standard_normal((obj.fiber(k), obj.fiber(k)))
            + 1j * rng.standard_normal((obj.fiber(k), obj.fiber(k))))
            for k in range(3) if obj.fiber(k)})
    f1, f2 = rand_endo(x), rand_endo(x)
    h1, h2 = rand_endo(y), rand_endo(y)
    lhs = convolution_morphism(f1.then(f2), h1.then(h2))
    rhs = convolution_morphism(f1, h1).then(convolution_morphism(f2, h2))
    assert lhs.dev_from(rhs) < 1e-9


def test_tautological_point_validates():
    for build in (lambda: RepCategory(symmetric_group(3)),
                  lambda: RepCategory(FiniteSuperGroup.make(quaternion_group(), 1))):
        cat = build()
        point = tautological_point(cat)
        assert point.validate() < 1e-8


def test_point_validation_decomposes_each_pair_once(monkeypatch):
    """validate reaches every ordered pair of simples through two structure
    maps and two fused layouts; each tensor is decomposed only once."""
    cat = RepCategory(symmetric_group(3))
    point = tautological_point(cat)
    computed = []
    original = RepCategory.decompose

    def counted(self, x):
        if x._isotypic is None:
            computed.append(x.name)
        return original(self, x)

    monkeypatch.setattr(RepCategory, "decompose", counted)
    assert point.validate() < 1e-8
    assert len(computed) <= len(cat.irreps()) ** 2 == 9
    assert point.validate() < 1e-8
    assert len(computed) <= 9


def test_wrongly_graded_point_rejected():
    cat = RepCategory(quaternion_group())  # even category
    values = {}
    for irr in cat.irreps():
        sign = -1.0 if irr.label == "2a" else 1.0
        values[irr.label] = (irr.degree, np.full(irr.degree, sign))
    from twohilb.transforms import SpectrumPoint
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
        assert fm.transform(x).fibers == fm_flat.transform(x).fibers


def test_graded_object_json_round_trip():
    g = cyclic_group(3)
    x = GradedObject.make(g, [1, 0, 2])
    back = GradedObject.from_json(x.to_json())
    assert back.fibers == x.fibers
    assert back.group.table == g.table
