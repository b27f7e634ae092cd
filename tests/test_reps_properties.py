"""Property tests for Rep(G) over random catalog groups and random objects."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohilb.errors import ValidationError
from twohilb.groups import FiniteSuperGroup, catalog, quaternion_group
from twohilb.hstar import compose, inner_product, morphism_dev, star
from twohilb.linalg import dagger, max_dev, random_complex
from twohilb.reps import Intertwiner, RepCategory, _random_intertwiner

TOL = 1e-9
_CATEGORIES = {}


def category(name):
    """Rep of a catalog (super)group, built once so its irreducibles are reused."""
    if name not in _CATEGORIES:
        _CATEGORIES[name] = RepCategory(catalog()[name]())
    return _CATEGORIES[name]


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
    f = _random_intertwiner(cat, rng, x, y)
    g = _random_intertwiner(cat, rng, x, y)
    carrier = np.trace(dagger(f.matrix) @ g.matrix)
    assert abs(inner_product(cat.to_blocks(f), cat.to_blocks(g)) - carrier) < TOL


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds)
def test_to_blocks_commutes_with_composition_and_star(name, seed):
    cat = bridge_category(name)
    rng = np.random.default_rng(seed)
    x, y, z = (cat.random_object(rng, max_dim=6) for _ in range(3))
    f = _random_intertwiner(cat, rng, x, y)
    g = _random_intertwiner(cat, rng, y, z)
    blocks_f = cat.to_blocks(f)
    assert blocks_f.space == cat.skeleton()
    assert morphism_dev(cat.to_blocks(f.then(g)),
                        compose(blocks_f, cat.to_blocks(g))) < TOL
    assert morphism_dev(cat.to_blocks(f.star()), star(blocks_f)) < TOL


@settings(max_examples=25, deadline=None)
@given(name=bridged, seed=seeds)
def test_to_blocks_rejects_non_intertwiners(name, seed):
    cat = bridge_category(name)
    rng = np.random.default_rng(seed)
    # a degree-2 summand leaves room for maps that are not equivariant
    x = cat.direct_sum(cat.random_object(rng, max_dim=4), cat.irrep("2a"))
    f = Intertwiner(x, x, random_complex(rng, (x.dim, x.dim)))
    with pytest.raises(ValidationError, match="multiplicity-shaped|mixes distinct simples"):
        cat.to_blocks(f)
