import numpy as np
import pytest

from twohilb.errors import CompositionError, ValidationError
from twohilb.groups import (
    FiniteSuperGroup,
    catalog_names,
    cyclic_group,
    dihedral_group,
    load_group,
    product_group,
    quaternion_group,
    symmetric_group,
)
from twohilb.hstar import BlockMorphism, ObjectExpr, SpaceTable, compose, identity, morphism_dev
from twohilb.linalg import dagger, max_dev
from twohilb.reps import Intertwiner, RepCategory, UnitaryIrrep
from twohilb.transforms import (
    FourierMap,
    conv_layout,
    convolution_tensor,
    dual_group,
    graded_braiding,
    tannaka_reconstruct,
)


def hilb(group):
    """Hilb^G: one simple of weight 1 per group element, in the group's order."""
    return SpaceTable.make([group.element_name(g) for g in range(group.order)])


def graded(group, fibers):
    return ObjectExpr.make(hilb(group), fibers)


def delta(group, g, n=1):
    fibers = [0] * group.order
    fibers[g] = n
    return graded(group, fibers)


def test_convolution_of_deltas():
    g = cyclic_group(5)
    for a in range(5):
        for b in range(5):
            prod = convolution_tensor(g, delta(g, a), delta(g, b))
            assert prod == delta(g, g.mult(a, b))


def test_convolution_unit_law(rng):
    g = cyclic_group(6)
    x = graded(g, [int(rng.integers(0, 4)) for _ in range(6)])
    unit = delta(g, g.identity)
    assert convolution_tensor(g, unit, x) == x
    assert convolution_tensor(g, x, unit) == x


def test_convolution_z2_count():
    g = cyclic_group(2)
    x = graded(g, [1, 1])
    assert convolution_tensor(g, x, x).mults == (2, 2)


def test_convolution_monoid_exact(rng):
    g = product_group(cyclic_group(2), cyclic_group(2))
    for _ in range(10):
        x, y, z = (graded(g, [int(rng.integers(0, 3)) for _ in range(4)])
                   for _ in range(3))
        left = convolution_tensor(g, convolution_tensor(g, x, y), z)
        right = convolution_tensor(g, x, convolution_tensor(g, y, z))
        assert left == right


def test_dual_group_structure():
    z4 = RepCategory(cyclic_group(4))
    dual = dual_group(z4)
    assert dual.order == 4 and dual.is_cyclic
    assert dual.element_names == tuple(z4.irrep_labels())
    k4 = RepCategory(product_group(cyclic_group(2), cyclic_group(2)))
    dual_k4 = dual_group(k4)
    assert dual_k4.order == 4 and not dual_k4.is_cyclic
    with pytest.raises(ValidationError):
        dual_group(RepCategory(symmetric_group(3)))


def _forged_dual(group, rows):
    """dual_group of a category of the group whose character table is rows."""
    cat = RepCategory(group)
    cat._shared["characters"] = np.asarray(rows, dtype=np.complex128)
    return dual_group(cat)


def test_dual_group_rejects_character_rows_that_do_not_close():
    # orthonormal unit-modulus rows: (i, -i)^2 = (-1, -1) is no row
    with pytest.raises(ValidationError):
        _forged_dual(cyclic_group(2), [[1, 1], [1j, -1j]])
    z3 = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3)
    assert np.array_equal(_forged_dual(cyclic_group(3), z3).table,
                          [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    # row 2 turned by opposite phases 5e-4 in two entries: products miss
    # their rows entrywise by up to 1e-3
    turned = z3.copy()
    turned[2, 1:] *= np.exp([5e-4j, -5e-4j])
    with pytest.raises(ValidationError):
        _forged_dual(cyclic_group(3), turned)
    # a repeated row is hit twice by every product
    with pytest.raises(ValidationError):
        _forged_dual(cyclic_group(2), np.ones((2, 2)))
    # phases of 7e-7: the fusion multiplicities round to the table of Z3,
    # and only the identity at every element sees products miss by 1.4e-6
    turned[2, 1:] = z3[2, 1:] * np.exp([7e-7j, -7e-7j])
    with pytest.raises(ValidationError, match="^character products are not sums of characters"):
        _forged_dual(cyclic_group(3), turned)


def test_convolution_matches_the_dense_multiplicity_matrix(rng):
    for g in (cyclic_group(4), symmetric_group(3)):
        # the pair (g1, g2) goes to the simple g1 g2
        dense = np.zeros((g.order ** 2, g.order), dtype=int)
        dense[np.arange(g.order ** 2), g.matrix.ravel()] = 1
        for _ in range(5):
            x, y = (graded(g, rng.integers(0, 4, g.order)) for _ in range(2))
            want = np.outer(x.mults, y.mults).ravel() @ dense
            assert convolution_tensor(g, x, y).mults == tuple(want.tolist())


def _random_graded_morphism(rng, src, dst, absent=()):
    """A complex block morphism; the blocks at the ``absent`` labels are zero."""
    return BlockMorphism(src, dst, {
        lab: rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        for lab, m, n in zip(src.space.simples, dst.mults, src.mults) if lab not in absent})


def test_convolution_morphism_blocks_are_the_np_kron_reference(rng):
    """Block g is blockdiag of np.kron(f_g1, h_g2) over g1 g2 = g in the order
    of g1, on an abelian and a non-abelian group, with fibers that are empty
    on one side only and blocks that are absent."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for g in (cyclic_group(3), symmetric_group(3)):
        labels = hilb(g).simples
        for _ in range(4):
            x, xp, y, yp = (graded(g, rng.integers(0, 3, g.order)) for _ in range(4))
            f = _random_graded_morphism(rng, x, xp, absent=labels[:1])
            h = _random_graded_morphism(rng, y, yp)
            fh = convolution_tensor(g, f, h)
            assert fh.src == convolution_tensor(g, x, y)
            assert fh.dst == convolution_tensor(g, xp, yp)
            for k, lab in enumerate(labels):
                want = scipy_linalg.block_diag(*[
                    np.kron(f.block(labels[g1]), h.block(labels[g.mult(g.inverse(g1), k)]))
                    for g1 in range(g.order)])
                assert np.array_equal(fh.block(lab), want)


def test_convolution_refuses_arguments_over_different_or_wrong_spaces():
    z3, s3 = cyclic_group(3), symmetric_group(3)
    x = graded(z3, [1, 0, 2])
    other = ObjectExpr.make(SpaceTable.make(["p", "q", "r"]), [1, 1, 1])
    with pytest.raises(CompositionError):
        convolution_tensor(z3, x, other)
    # three simples, but S3 has six elements
    with pytest.raises(CompositionError):
        convolution_tensor(s3, x, x)
    f = identity(x)
    with pytest.raises(CompositionError):
        convolution_tensor(z3, f, identity(other))
    with pytest.raises(CompositionError):
        convolution_tensor(s3, f, f)


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
        f = cat.random_intertwiner(x, x, rng)
        fp = cat.random_intertwiner(y, y, rng)
        assert fm.monoidal_defect(x, y, f, fp) < 1e-9


@pytest.mark.parametrize("group", [cyclic_group(4),
                                   product_group(cyclic_group(2), cyclic_group(2))],
                         ids=["Z4", "Z2xZ2"])
def test_structure_map_is_bitwise_the_np_kron_reference(group, rng):
    cat = RepCategory(group)
    fm = FourierMap(cat)
    x = cat.random_object(rng, max_dim=4)
    y = cat.random_object(rng, max_dim=4)
    xy = cat.tensor(x, y)
    phi = fm._structure_map(x, y, xy)
    ux, uy, uxy = fm.coisometries(x), fm.coisometries(y), fm.coisometries(xy)
    fx, fy = fm.transform(x), fm.transform(y)
    for g, label in enumerate(fm.space.simples):
        layout = conv_layout(fm.dual, fx, fy, g)
        if layout:
            want = uxy[g] @ np.hstack([np.kron(dagger(ux[g1]), dagger(uy[g2]))
                                       for g1, g2, *_ in layout])
            assert np.array_equal(phi.block(label), want)


def test_fourier_naturality_between_distinct_objects(rng):
    cat = RepCategory(cyclic_group(3))
    fm = FourierMap(cat)
    x = cat.random_object(rng, max_dim=3)
    y = cat.random_object(rng, max_dim=3)
    f = cat.random_intertwiner(x, cat.direct_sum(x, cat.irrep("1b")), rng)
    fp = cat.random_intertwiner(y, cat.direct_sum(cat.irrep("1c"), y), rng)
    assert fm.monoidal_defect(x, y, f, fp) < 1e-9


def test_monoidal_defect_decomposes_each_tensor_once(monkeypatch):
    """x (x) y, y (x) x and f.dst (x) fp.dst are each decomposed once per
    call (seven tensor decompositions before they were shared)."""
    cat = RepCategory(cyclic_group(4))
    fm = FourierMap(cat)
    rng = np.random.default_rng(1)
    x = cat.random_object(rng, max_dim=4)
    y = cat.random_object(rng, max_dim=4)
    f = cat.random_intertwiner(x, x, rng)
    fp = cat.random_intertwiner(y, y, rng)
    cat.decompose(x)
    cat.decompose(y)
    computed = []
    original = RepCategory.decompose

    def counted(self, obj):
        if obj._isotypic is None:
            computed.append(obj.name)
        return original(self, obj)

    monkeypatch.setattr(RepCategory, "decompose", counted)
    for _ in range(2):
        computed.clear()
        assert fm.monoidal_defect(x, y, f, fp) < 1e-9
        assert sorted(computed) == ["random*random"] * 3


def test_monoidal_defect_needs_morphisms_from_x_and_y(rng):
    cat = RepCategory(cyclic_group(3))
    fm = FourierMap(cat)
    x = cat.random_object(rng, max_dim=3)
    y = cat.random_object(rng, max_dim=3)
    f = cat.random_intertwiner(x, x, rng)
    with pytest.raises(CompositionError):
        fm.monoidal_defect(x, y, cat.identity_map(y), f)


def test_fourier_of_the_zero_object():
    cat = RepCategory(cyclic_group(4))
    fm = FourierMap(cat)
    zero = cat.realize(ObjectExpr.make(fm.space, [0] * 4))
    assert zero.matrices.shape == (4, 0, 0)
    x = cat.irrep("1b")
    f = Intertwiner(zero, x, np.zeros((x.dim, 0)))
    blocks = cat.to_blocks(f)
    assert not any(blocks.src.mults) and blocks.dst == fm.transform(x) and not blocks.blocks
    assert fm.round_trip_defect(zero) == 0.0
    none = Intertwiner(zero, zero, np.zeros((0, 0)))
    assert fm.monoidal_defect(zero, x, none, Intertwiner(x, x, np.eye(1))) < 1e-12


def test_fourier_round_trip(rng):
    cat = RepCategory(cyclic_group(4))
    fm = FourierMap(cat)
    for _ in range(5):
        x = cat.random_object(rng, max_dim=5)
        f = cat.random_intertwiner(x, x, rng)
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
    assert b.src == convolution_tensor(g, x, y)
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
                f = category.random_intertwiner(x, x, rng)
                fp = category.random_intertwiner(y, y, rng)
                assert fm.monoidal_defect(x, y, f, fp) < 1e-12


def test_convolution_morphism_functorial(rng):
    g = cyclic_group(3)
    x = graded(g, [1, 2, 1])
    y = graded(g, [2, 1, 0])
    f1, f2 = (_random_graded_morphism(rng, x, x) for _ in range(2))
    h1, h2 = (_random_graded_morphism(rng, y, y) for _ in range(2))
    lhs = convolution_tensor(g, compose(f1, f2), compose(h1, h2))
    rhs = compose(convolution_tensor(g, f1, h1), convolution_tensor(g, f2, h2))
    assert morphism_dev(lhs, rhs) < 1e-9


def test_morphism_value_rejects_maps_that_mix_simples():
    # the value of a morphism at the tuples (rho_lam(g))_lam is
    # realize(to_blocks(f)): the swap of two copies of one simple has one,
    # the swap of two distinct simples has none
    cat = RepCategory(symmetric_group(3))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    twice = cat.direct_sum(cat.irrep("1a"), cat.irrep("1a"))
    f = Intertwiner(twice, twice, swap)
    u = cat.coordinates(twice)
    assert max_dev(cat.realize(cat.to_blocks(f)), u @ swap @ dagger(u)) < 1e-12
    pair = cat.direct_sum(cat.irrep("1a"), cat.irrep("1b"))
    with pytest.raises(ValidationError, match="mixes distinct simples"):
        cat.to_blocks(Intertwiner(pair, pair, swap))


def test_double_dual_evaluation():
    # the double dual is identified with the group by evaluation
    for group in (cyclic_group(4), product_group(cyclic_group(2), cyclic_group(2))):
        cat = RepCategory(group)
        chars = cat.character_table()
        double_cat = RepCategory(dual_group(cat))
        double, double_chars = dual_group(double_cat), double_cat.character_table()
        assert double.order == group.order
        matched = set()
        for g in range(group.order):
            evaluation = chars[:, g]  # the value of each character at g
            hits = [k for k in range(double.order)
                    if np.max(np.abs(double_chars[k] - evaluation)) < 1e-6]
            assert len(hits) == 1
            matched.add(hits[0])
        assert len(matched) == group.order


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


def test_tannaka_nonabelian_injection():
    group = symmetric_group(3)
    res = tannaka_reconstruct(RepCategory(group))
    assert res.order == 6
    assert res.is_cyclic is False
    assert res.element_orders == (1, 2, 2, 2, 3, 3)


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_group_reconstructs_to_its_own_table(name):
    group = load_group(name)
    cat = RepCategory(group)
    res = tannaka_reconstruct(cat)
    assert res.deviation < 1e-6
    assert res.element_orders == tuple(sorted(cat.group.element_orders))
    assert {type(k) for k in res.element_orders} == {int}  # for the JSON output
    # kept on the group: a second category gets the same result
    assert tannaka_reconstruct(RepCategory(group)) is res


def test_tannaka_tells_d4_from_q8():
    d4, q8 = RepCategory(dihedral_group(4)), RepCategory(quaternion_group())
    # the fusion rules agree, and the reconstructed groups do not
    assert np.array_equal(d4.fusion_rules(), q8.fusion_rules())
    assert tannaka_reconstruct(d4).element_orders.count(2) == 5
    assert tannaka_reconstruct(q8).element_orders.count(2) == 1


def test_tannaka_rejects_an_anti_homomorphism():
    """Transposed 2a matrices stay unitary and keep every character, but
    g -> rho(g)^T reverses products, rho(b s) = rho(s) rho(b), and
    ``RepObject.validate``'s product check on the generators refuses it."""
    group = symmetric_group(3)
    cat = RepCategory(group)
    irreps = tuple(UnitaryIrrep(irr.label, irr.degree,
                                irr.matrices.transpose(0, 2, 1) if irr.label == "2a"
                                else irr.matrices, irr.parity)
                   for irr in cat.irreps())
    cat._shared["irreps"] = irreps
    rho, t = irreps[-1].matrices, group.matrix
    for s in group.generators:
        assert max_dev(rho[t[:, s]], rho[s] @ rho) < 1e-12
        assert max_dev(rho[t[:, s]], rho @ rho[s]) > 1.0
    with pytest.raises(ValidationError, match="group product"):
        tannaka_reconstruct(cat)


def test_tannaka_rejects_an_evaluation_that_is_not_injective():
    """1a and 1b alone are the irreducibles of S3/A3: unitary, monoidal and
    multiplicative, but every element of A3 goes to the identity tuple, so
    sum_lam d_lam chi_lam is 2 there, not 0."""
    cat = RepCategory(symmetric_group(3))
    cat._shared["irreps"] = cat.irreps()[:2]
    assert [irr.label for irr in cat.irreps()] == ["1a", "1b"]
    with pytest.raises(ValidationError, match="not an isomorphism"):
        tannaka_reconstruct(cat)


def test_bosonization_compatible_with_transform(rng):
    z4 = cyclic_group(4)
    cat = RepCategory(FiniteSuperGroup.make(z4, 2))
    flat = cat.bosonized()
    fm = FourierMap(cat)
    fm_flat = FourierMap(flat)
    for _ in range(3):
        x = cat.random_object(rng, max_dim=4)
        assert fm.transform(x).mults == fm_flat.transform(x).mults
