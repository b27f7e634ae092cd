"""Property tests for Rep(G) over random catalog groups and random objects."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twohilb.groups import catalog
from twohilb.linalg import dagger, max_dev
from twohilb.reps import RepCategory

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
