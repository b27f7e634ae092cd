"""Property tests for Rep(G) over random catalog groups and random objects."""
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twohilb.errors import CompositionError, ValidationError
from twohilb.groups import FiniteSuperGroup, catalog, quaternion_group
from twohilb.hstar import (
    BlockMorphism,
    ObjectExpr,
    SpaceTable,
    compose,
    inner_product,
    morphism_dev,
    star,
)
from twohilb.linalg import (
    block_diag,
    dagger,
    distance_to_unitary,
    kron,
    max_abs,
    max_dev,
    random_complex,
    random_unitary,
)
from twohilb.reps import Intertwiner, RepCategory, RepObject
from twohilb.sampling import random_morphism, random_object, random_space

TOL = 1e-9
_CATEGORIES = {}


def category(name):
    """Rep of a catalog (super)group, built once so its irreducibles are reused."""
    if name not in _CATEGORIES:
        _CATEGORIES[name] = RepCategory(catalog()[name]())
    return _CATEGORIES[name]


def random_map(cat, rng, x, y):
    """A unit-norm intertwiner x -> y; an example with none is dropped."""
    assume(cat.hom_dim(x, y) > 0)
    return cat.random_intertwiner(x, y, rng)


groups = st.sampled_from(sorted(catalog()))
seeds = st.integers(0, 2 ** 31)


@settings(max_examples=25, deadline=None)
@given(name=groups)
def test_schur_orthogonality_of_characters(name):
    cat = category(name)
    chars = np.array([irr.character for irr in cat.irreps()])
    order = cat.group.order
    # rows: (1/|G|) sum_g conj(chi_a(g)) chi_b(g) = delta_ab
    assert max_dev(np.conj(chars) @ chars.T / order, np.eye(len(chars))) < TOL
    # columns: sum_a conj(chi_a(g)) chi_a(h) = |C_G(g)| delta of the classes of g and h
    classes = cat.group.conjugacy_classes()
    same_class = np.zeros((order, order))
    for cls in classes:
        same_class[np.ix_(cls, cls)] = order / len(cls)
    assert max_dev(np.conj(chars).T @ chars, same_class) < TOL


@settings(max_examples=25, deadline=None)
@given(name=groups, seed=seeds)
def test_hom_basis_is_orthonormal_and_equivariant(name, seed):
    cat = category(name)
    rng = np.random.default_rng(seed)
    x = cat.random_object(rng, max_dim=6)
    y = cat.random_object(rng, max_dim=6)
    basis = cat.hom_basis(x, y, rng)
    assert len(basis) == cat.hom_dim(x, y)
    gram = np.array([[np.vdot(f.matrix, h.matrix) for h in basis] for f in basis])
    assert max_dev(gram, np.eye(len(basis))) < TOL
    for f in basis:
        assert f.equivariance_dev() < TOL


@settings(max_examples=25, deadline=None)
@given(name=groups, seed=seeds)
def test_decompose_coisometries_are_equivariant_and_resolve_identity(name, seed):
    cat = category(name)
    x = cat.random_object(np.random.default_rng(seed), max_dim=6)
    pieces = cat.decompose(x)
    for piece in pieces:
        u = piece.coisometry
        assert max_dev(u @ dagger(u), np.eye(u.shape[0])) < TOL
        standard = np.kron(piece.irrep.matrices, np.eye(piece.multiplicity))
        assert max_dev(u @ x.matrices @ dagger(u), standard) < TOL
    total = sum(dagger(p.coisometry) @ p.coisometry for p in pieces)
    assert max_dev(total, np.eye(x.dim)) < TOL


# -- the skeleton: intertwiners as block morphisms ------------------------------

_BRIDGE = {"S3": lambda: RepCategory(catalog()["S3"]()),
           "D4": lambda: RepCategory(catalog()["D4"]()),
           "SuperQ8": lambda: RepCategory(FiniteSuperGroup.make(quaternion_group(), 1))}
bridged = st.sampled_from(sorted(_BRIDGE))


def bridge_category(name):
    """Rep(S3), Rep(D4) or SuperRep(Q8, z=-1), built once."""
    if name not in _CATEGORIES:
        _CATEGORIES[name] = _BRIDGE[name]()
    return _CATEGORIES[name]


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds)
def test_to_blocks_carries_the_trace_pairing(name, seed):
    cat = bridge_category(name)
    rng = np.random.default_rng(seed)
    x = cat.random_object(rng, max_dim=6)
    y = cat.random_object(rng, max_dim=6)
    f = random_map(cat, rng, x, y)
    g = random_map(cat, rng, x, y)
    carrier = np.trace(dagger(f.matrix) @ g.matrix)
    assert abs(inner_product(cat.to_blocks(f), cat.to_blocks(g)) - carrier) < TOL


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds)
def test_to_blocks_commutes_with_composition_and_star(name, seed):
    cat = bridge_category(name)
    rng = np.random.default_rng(seed)
    x, y, z = (cat.random_object(rng, max_dim=6) for _ in range(3))
    f = random_map(cat, rng, x, y)
    g = random_map(cat, rng, y, z)
    blocks_f = cat.to_blocks(f)
    assert blocks_f.space == cat.skeleton()
    assert morphism_dev(cat.to_blocks(f.then(g)),
                        compose(blocks_f, cat.to_blocks(g))) < TOL
    assert morphism_dev(cat.to_blocks(f.star()), star(blocks_f)) < TOL


# -- the linear structure of the hom-sets ------------------------------------------

scalars = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, c=scalars)
def test_skeletal_hom_sets_are_linear_and_star_is_conjugate_linear(seed, c):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    x, y, z = (random_object(rng, space) for _ in range(3))
    f, g = random_morphism(rng, x, y), random_morphism(rng, x, y)
    h, k = random_morphism(rng, y, z), random_morphism(rng, z, x)
    assert morphism_dev(star(c * f + g), np.conj(c) * star(f) + star(g)) < TOL
    assert morphism_dev(compose(c * f + g, h), c * compose(f, h) + compose(g, h)) < TOL
    assert morphism_dev(compose(k, c * f + g), c * compose(k, f) + compose(k, g)) < TOL
    assert morphism_dev(f - g, f + (-g)) == 0.0
    assert morphism_dev(f - f, 0 * f) == 0.0


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds, c=scalars)
def test_rep_hom_sets_are_linear_and_star_is_conjugate_linear(name, seed, c):
    """On intertwiners, and through ``to_blocks`` on their skeletal images."""
    cat = bridge_category(name)
    rng = np.random.default_rng(seed)
    x, y, z = (cat.random_object(rng, max_dim=6) for _ in range(3))
    f, g = random_map(cat, rng, x, y), random_map(cat, rng, x, y)
    h, k = random_map(cat, rng, y, z), random_map(cat, rng, z, x)
    fg = c * f + g
    assert fg.equivariance_dev() < TOL
    assert max_dev(fg.star().matrix, (np.conj(c) * f.star() + g.star()).matrix) < TOL
    assert max_dev(fg.then(h).matrix, (c * f.then(h) + g.then(h)).matrix) < TOL
    assert max_dev(k.then(fg).matrix, (c * k.then(f) + k.then(g)).matrix) < TOL
    assert morphism_dev(cat.to_blocks(fg), c * cat.to_blocks(f) + cat.to_blocks(g)) < TOL


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds)
def test_to_blocks_rejects_non_intertwiners(name, seed):
    cat = bridge_category(name)
    rng = np.random.default_rng(seed)
    # a degree-2 summand leaves room for maps that are not equivariant
    x = cat.direct_sum(cat.random_object(rng, max_dim=4), cat.irrep("2a"))
    f = Intertwiner(x, x, random_complex(rng, (x.dim, x.dim)))
    with pytest.raises(ValidationError, match="not multiplicity-shaped"):
        cat.to_blocks(f)
    # the swap of two distinct one-dimensional simples has square
    # multiplicity-shaped blocks, and still no skeletal image
    pair = cat.direct_sum(cat.irrep("1a"), cat.irrep("1b"))
    swap = Intertwiner(pair, pair, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError, match="mixes distinct simples"):
        cat.to_blocks(swap)


@pytest.mark.parametrize("name", sorted(_BRIDGE))
def test_to_blocks_names_each_fault_by_its_own_mutant(name):
    """In isotypic coordinates, a map that acts on 2a + 2a by diag(1, 2) on
    the degree index has a non-scalar block; a map from 1a to 1b, and one
    that adds an entry from 1a into 2a to the identity of 1a + 2a, only mix
    distinct simples."""
    cat = bridge_category(name)
    two = cat.direct_sum(cat.irrep("2a"), cat.irrep("2a"))
    u = cat.coordinates(two)
    f = Intertwiner(two, two, dagger(u) @ kron(np.diag([1.0, 2.0]), np.eye(2)) @ u)
    with pytest.raises(ValidationError, match="not multiplicity-shaped"):
        cat.to_blocks(f)
    with pytest.raises(ValidationError, match="mixes distinct simples"):
        cat.to_blocks(Intertwiner(cat.irrep("1a"), cat.irrep("1b"), [[1.0]]))
    pair = cat.direct_sum(cat.irrep("1a"), cat.irrep("2a"))
    u = cat.coordinates(pair)
    mixed = np.eye(3)
    mixed[1, 0] = 0.5  # 1a comes first in isotypic coordinates
    with pytest.raises(ValidationError, match="mixes distinct simples"):
        cat.to_blocks(Intertwiner(pair, pair, dagger(u) @ mixed @ u))


def loop_to_blocks(cat, f):
    """to_blocks as an in-place loop: take each shared irreducible's block
    a of U_y f U_x^H, subtract kron(I_d, a) from its diagonal block, and
    require what is left to vanish within 1e-8."""
    mat = cat.coordinates(f.dst) @ f.matrix @ dagger(cat.coordinates(f.src))
    col_at, c = {}, 0
    for p in cat.decompose(f.src):
        col_at[p.irrep.label] = (c, p.multiplicity)
        c += p.irrep.degree * p.multiplicity
    blocks, r = {}, 0
    for p in cat.decompose(f.dst):
        d, m = p.irrep.degree, p.multiplicity
        if p.irrep.label in col_at:
            c, n = col_at[p.irrep.label]
            block = mat[r:r + d * m, c:c + d * n].reshape(d, m, d, n)  # a view
            a = blocks[p.irrep.label] = block[0, :, 0, :].copy()
            for j in range(d):
                block[j, :, j, :] -= a
        r += d * m
    assert max_abs(mat) <= 1e-8
    return BlockMorphism(cat.skeletal(f.src), cat.skeletal(f.dst), blocks)


@pytest.mark.parametrize("name", ["S3", "Q8", "SuperQ8", "Z4"])
def test_to_blocks_is_bitwise_the_in_place_loop(name):
    """On random intertwiners between rotated objects in which some
    irreducibles have multiplicity zero."""
    cat = any_category(name)
    rng = np.random.default_rng(34)
    k, checked = len(cat.irreps()), 0
    for _ in range(10):
        mults = rng.integers(0, 3, (2, k))
        mults[:, 0] += 1
        mults[:, -1] = 0
        x, y = (cat.realize(ObjectExpr.make(cat.skeleton(), m.tolist())) for m in mults)
        x, y = (RepObject(cat, u @ o.matrices @ dagger(u))
                for o, u in ((o, random_unitary(rng, o.dim)) for o in (x, y)))
        f = cat.random_intertwiner(x, y, rng)
        got, want = cat.to_blocks(f), loop_to_blocks(cat, f)
        assert got.src == want.src and got.dst == want.dst
        assert got.blocks.keys() == want.blocks.keys()
        assert all(np.array_equal(got.blocks[lab], want.blocks[lab]) for lab in got.blocks)
        checked += len(got.blocks)
    assert checked


# -- the equivalence: from_blocks inverts to_blocks ----------------------------------

def _twice_each(cat, rng):
    """Two copies of every irreducible on a randomly rotated carrier, so that
    every block of a map into a bigger object is at least 2 x 2."""
    x = reduce(cat.direct_sum, [cat.object_of_irrep(irr) for irr in cat.irreps()
                                for _ in range(2)])
    u = random_unitary(rng, x.dim)
    return RepObject(cat, u @ x.matrices @ dagger(u))


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "Q8", "Z12", "SuperQ8"])
def test_coordinates_join_an_object_with_its_realized_skeletal_image(name):
    """realize is the inverse of the skeleton functor up to the unitary
    natural isomorphism coordinates: U_x intertwines x with
    realize(skeletal(x)), and realize(to_blocks(f)) = U_y f U_x^H, whose
    blocks between copies of one irreducible are kron(I_d, b)."""
    cat = any_category(name)
    rng = np.random.default_rng(30)
    x = _twice_each(cat, rng)
    y = cat.direct_sum(cat.random_object(rng, max_dim=6), x)
    f = cat.random_intertwiner(x, y, rng)
    for obj in (x, y):
        u = cat.coordinates(obj)
        assert max_dev(u @ dagger(u), np.eye(obj.dim)) < 1e-12
        assert max_dev(dagger(u) @ u, np.eye(obj.dim)) < 1e-12
        eta = Intertwiner(obj, cat.realize(cat.skeletal(obj)), u)
        assert eta.equivariance_dev() < 1e-12
    want = cat.coordinates(y) @ f.matrix @ dagger(cat.coordinates(x))
    assert max_dev(cat.realize(cat.to_blocks(f)), want) < 1e-12
    zero = cat.realize(ObjectExpr.make(cat.skeleton(), [0] * len(cat.irreps())))
    assert zero.matrices.shape == (cat.group.order, 0, 0)
    with pytest.raises(CompositionError):
        cat.realize(ObjectExpr.make(SpaceTable.make(["a"]), [1]))


def loop_realize(cat, a):
    """realize by its definition: a kron with an identity for every
    irreducible, zero multiplicities and absent blocks included."""
    irreps = cat.irreps()
    if isinstance(a, ObjectExpr):
        return block_diag([kron(irr.matrices, np.eye(n)) for irr, n in zip(irreps, a.mults)])
    return block_diag([kron(np.eye(irr.degree), a.block(irr.label)) for irr in irreps])


@pytest.mark.parametrize("name, src, dst", [
    ("S3", (2, 0, 1), (1, 3, 2)),
    ("S3", (0, 0, 0), (1, 0, 2)),
    ("Q8", (1, 0, 2, 0, 1), (0, 1, 3, 0, 2)),
    ("Z4", (0, 2, 1, 0), (1, 1, 0, 3)),
    ("Z4", (0, 0, 0, 0), (0, 0, 0, 0))])
def test_realize_is_bitwise_its_definition(name, src, dst):
    """Skipping empty irreducibles and placing degree-1 blocks as they are
    gives the same bits as the kron of every block with an identity."""
    cat = category(name)
    src, dst = (ObjectExpr.make(cat.skeleton(), m) for m in (src, dst))
    for obj in (src, dst):
        assert np.array_equal(cat.realize(obj).matrices, loop_realize(cat, obj))
        assert cat.realize(obj).matrices.shape[1] == sum(
            i.degree * m for i, m in zip(cat.irreps(), obj.mults))
    f = random_morphism(np.random.default_rng(33), src, dst)
    assert np.array_equal(cat.realize(f), loop_realize(cat, f))


every = st.sampled_from(sorted(catalog()) + ["SuperQ8"])


@pytest.mark.parametrize("name", ["S3", "S4", "SuperQ8"])
def test_braidings_of_simples_round_trip_through_the_skeleton(name):
    """The braiding lam (x) mu -> mu (x) lam of two simples of a non-abelian
    group moves between the isotypic pieces of two different tensor objects:
    ``to_blocks`` reads it as blocks and ``from_blocks`` rebuilds it, for
    every ordered pair.  Criterion 8 checks braidings for abelian groups only."""
    cat = any_category(name)
    simples = [cat.object_of_irrep(irr) for irr in cat.irreps()]
    for lam in simples:
        for mu in simples:
            b = cat.braiding(lam, mu)
            back = cat.from_blocks(cat.to_blocks(b), b.src, b.dst)
            assert max_dev(back.matrix, b.matrix) < 1e-9


def any_category(name):
    """Rep of a catalog (super)group, or SuperRep(Q8, z=-1)."""
    return bridge_category(name) if name in _BRIDGE else category(name)


@settings(max_examples=25, deadline=None)
@given(name=every, seed=seeds)
def test_from_blocks_inverts_to_blocks(name, seed):
    cat = any_category(name)
    rng = np.random.default_rng(seed)
    x = cat.random_object(rng, max_dim=6)
    y = cat.random_object(rng, max_dim=6)
    f = random_map(cat, rng, x, y)
    back = cat.from_blocks(cat.to_blocks(f), x, y)
    assert back.src is x and back.dst is y
    assert max_dev(back.matrix, f.matrix) < 1e-12


@settings(max_examples=25, deadline=None)
@given(name=every, seed=seeds)
def test_to_blocks_inverts_from_blocks(name, seed):
    cat = any_category(name)
    rng = np.random.default_rng(seed)
    x = cat.random_object(rng, max_dim=6)
    y = cat.random_object(rng, max_dim=6)
    b = random_morphism(rng, cat.skeletal(x), cat.skeletal(y))
    f = cat.from_blocks(b, x, y)
    assert f.equivariance_dev() < TOL
    assert morphism_dev(cat.to_blocks(f), b) < 1e-12


@settings(max_examples=25, deadline=None)
@given(name=every, seed=seeds)
def test_from_blocks_rejects_endpoints_that_do_not_match(name, seed):
    cat = any_category(name)
    rng = np.random.default_rng(seed)
    x = cat.random_object(rng, max_dim=6)
    y = cat.random_object(rng, max_dim=6)
    b = random_morphism(rng, cat.skeletal(x), cat.skeletal(y))
    for src, dst in [(cat.direct_sum(x, cat.unit()), y), (x, cat.direct_sum(y, cat.unit()))]:
        with pytest.raises(CompositionError):
            cat.from_blocks(b, src, dst)
    space = random_space(rng)
    elsewhere = random_morphism(rng, random_object(rng, space), random_object(rng, space))
    with pytest.raises(CompositionError):
        cat.from_blocks(elsewhere, x, y)


@settings(max_examples=25, deadline=None)
@given(name=every, seed=seeds)
def test_hom_basis_without_a_common_irreducible_is_empty(name, seed):
    cat = any_category(name)
    rng = np.random.default_rng(seed)
    labels = list(rng.permutation(cat.irrep_labels()))
    cut = int(rng.integers(1, len(labels) + 1))
    x = reduce(cat.direct_sum, [cat.irrep(lab) for lab in labels[:cut]])
    y = reduce(cat.direct_sum, [cat.irrep(lab) for lab in labels[cut:]],
               RepObject(cat, np.zeros((cat.group.order, 0, 0))))
    assert cat.hom_basis(x, y) == [] and cat.hom_basis(y, x) == []


@settings(max_examples=25, deadline=None)
@given(name=every, seed=seeds)
def test_hom_basis_is_the_lift_of_the_weighted_matrix_units(name, seed):
    """Each basis map's skeletal image is one matrix unit over sqrt(degree)."""
    cat = any_category(name)
    rng = np.random.default_rng(seed)
    x = cat.random_object(rng, max_dim=6)
    y = cat.random_object(rng, max_dim=6)
    degree = {irr.label: irr.degree for irr in cat.irreps()}
    for f in cat.hom_basis(x, y):
        blocks = {lab: a for lab, a in cat.to_blocks(f).blocks.items() if max_abs(a) > TOL}
        [(lab, a)] = blocks.items()
        unit = np.zeros(a.shape)
        unit[np.unravel_index(np.argmax(np.abs(a)), a.shape)] = degree[lab] ** -0.5
        assert max_dev(a, unit) < TOL


# -- balancing laws and duality triangles ------------------------------------------

def dual_morphism(adj, f):
    """f*: x* -> x* for f: x -> x, (e (x) 1)(1 (x) f (x) 1)(1 (x) i) = (E f I)^T."""
    d, ds = adj.x.dim, adj.xstar.dim
    return (adj.e.matrix.reshape(ds, d) @ f @ adj.i.matrix.reshape(d, ds)).T


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds)
def test_balancing_is_natural(name, seed):
    cat = bridge_category(name)
    rng = np.random.default_rng(seed)
    x = cat.random_object(rng, max_dim=6)
    y = cat.random_object(rng, max_dim=6)
    f = random_map(cat, rng, x, y).matrix
    assert max_dev(cat.balancing(y).matrix @ f, f @ cat.balancing(x).matrix) < TOL


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds)
def test_balancing_of_a_tensor_product(name, seed):
    """beta_{x (x) y} = (beta_x (x) beta_y) B^2, with B^2 the braiding of x
    with y followed by the braiding of y with x."""
    cat = bridge_category(name)
    rng = np.random.default_rng(seed)
    x = cat.random_object(rng, max_dim=4)
    y = cat.random_object(rng, max_dim=4)
    double = cat.braiding(x, y).then(cat.braiding(y, x)).matrix
    want = np.kron(cat.balancing(x).matrix, cat.balancing(y).matrix) @ double
    assert max_dev(cat.balancing(cat.tensor(x, y)).matrix, want) < TOL


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds)
def test_balancing_of_the_dual_is_the_dual_balancing(name, seed):
    cat = bridge_category(name)
    x = cat.random_object(np.random.default_rng(seed), max_dim=6)
    adj = cat.well_balanced_adjunction(x)
    want = dual_morphism(adj, cat.balancing(x).matrix)
    assert max_dev(cat.balancing(adj.xstar).matrix, want) < TOL


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds, scale=st.floats(0.25, 4.0))
def test_triangle_identities(name, seed, scale):
    """(1 (x) e)(i (x) 1) = 1_x and (e (x) 1)(1 (x) i) = 1_{x*} as composites of
    Kronecker products, for the canonical duality and for its rescaling; the
    canonical one's balancing is unitary."""
    cat = bridge_category(name)
    x = cat.random_object(np.random.default_rng(seed), max_dim=4)
    canonical = cat.well_balanced_adjunction(x)
    for adj in (canonical, canonical.scaled(scale)):
        d, ds = x.dim, adj.xstar.dim
        i_m, e_m = adj.i.matrix, adj.e.matrix
        on_x = np.kron(np.eye(d), e_m) @ np.kron(i_m, np.eye(d))
        on_dual = np.kron(e_m, np.eye(ds)) @ np.kron(np.eye(ds), i_m)
        assert max_dev(on_x, np.eye(d)) < TOL
        assert max_dev(on_dual, np.eye(ds)) < TOL
        assert adj.triangle_dev() < TOL
    assert distance_to_unitary(cat.balancing(x).matrix) < 1e-8


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 8), seed=seeds, near=st.booleans(),
       eps=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1]))
def test_gram_defect_bounds_the_distance_to_unitary(d, seed, near, eps):
    """||a a^H - I||_F >= max |a - U| for the unitary polar factor U of a, the
    bound that lets a graded balancing be checked without an SVD."""
    rng = np.random.default_rng(seed)
    if near:
        a = random_unitary(rng, d) @ (np.eye(d) + eps * random_complex(rng, (d, d)))
    else:
        a = random_complex(rng, (d, d))
    gram = np.linalg.norm(a @ dagger(a) - np.eye(d))
    assert gram + 1e-13 >= distance_to_unitary(a)
