"""The contracted duality diagrams against their Kronecker-operator definitions.

``RepCategory`` reads the balancing, traces and dagger transform of the
canonical duality in closed form, and ``Adjunction.triangle_dev`` contracts
the unit and counit as d x d matrices; ``tangles.evaluate`` evaluates the
twist of any other duality.  The ``ref_*`` functions below keep the diagrams
as products of ``np.kron`` operators on d^3-dimensional carriers, which is
how they are drawn; every contracted result must match them to 1e-12.
"""
import tracemalloc

import numpy as np
import pytest

from twohilb.groups import FiniteSuperGroup, quaternion_group, symmetric_group
from twohilb.linalg import dagger, max_dev, random_complex, random_unitary
from twohilb.reps import Adjunction, Intertwiner, RepCategory, RepObject
from twohilb.tangles import KINK_PLUS, EvalContext, evaluate, parse

TOL = 1e-12


# -- Kronecker-operator references -------------------------------------------------

def ref_braiding(cat, x, y):
    swap = np.zeros((x.dim * y.dim,) * 2, dtype=np.complex128)
    for i in range(x.dim):
        for j in range(y.dim):
            swap[j * x.dim + i, i * y.dim + j] = 1.0
    if cat.bosonic:
        return swap
    gx, gy = x.matrices[cat.z_index], y.matrices[cat.z_index]
    ex, ey = np.eye(x.dim), np.eye(y.dim)
    koszul = 0.5 * (np.kron(ex, ey) + np.kron(ex, gy) + np.kron(gx, ey) - np.kron(gx, gy))
    return swap @ koszul


def ref_balancing(cat, adj):
    x, y, e = adj.x, adj.xstar, adj.e.matrix
    return (np.kron(e, np.eye(x.dim))
            @ np.kron(np.eye(y.dim), ref_braiding(cat, x, x))
            @ np.kron(dagger(e), np.eye(x.dim)))


def ref_traces(adj, mat):
    """The loop closed with the counit, and the loop closed with the unit."""
    dy = adj.xstar.dim
    e, i = adj.e.matrix, adj.i.matrix
    val = e @ np.kron(np.eye(dy), mat) @ dagger(e)
    alt = dagger(i) @ np.kron(mat, np.eye(dy)) @ i
    return complex(val[0, 0]), complex(alt[0, 0])


def ref_triangles(adj):
    dx, dy = adj.x.dim, adj.xstar.dim
    i, e = adj.i.matrix, adj.e.matrix
    first = np.kron(np.eye(dx), e) @ np.kron(i, np.eye(dx))
    second = np.kron(e, np.eye(dy)) @ np.kron(np.eye(dy), i)
    return first, second


def ref_triangle_dev(adj):
    first, second = ref_triangles(adj)
    return max(max_dev(first, np.eye(adj.x.dim)), max_dev(second, np.eye(adj.xstar.dim)))


def ref_dagger_transform(adj, f):
    d = adj.x.dim
    i = adj.i.matrix
    step1 = np.kron(np.eye(d), i)
    step2 = np.kron(np.eye(d), np.kron(f, np.eye(d)))
    step3 = np.kron(dagger(i), np.eye(d))
    return step3 @ step2 @ step1


def ref_deform(adj, h):
    """Unit (1 (x) h) i and counit e (h^-1 (x) 1) for h acting on xstar."""
    d = adj.x.dim
    return (np.kron(np.eye(d), h) @ adj.i.matrix,
            adj.e.matrix @ np.kron(np.linalg.inv(h), np.eye(d)))


# -- fixtures -----------------------------------------------------------------------

def _q8_super():
    q8 = quaternion_group()
    return RepCategory(FiniteSuperGroup.make(q8, q8.element_names.index("-1")))


CATEGORIES = {"Rep(S3)": lambda: RepCategory(symmetric_group(3)),
              "Rep(S4)": lambda: RepCategory(symmetric_group(4)),
              "SuperRep(Q8)": _q8_super}


@pytest.fixture(scope="module", params=list(CATEGORIES))
def cat(request):
    return CATEGORIES[request.param]()


def random_objects(cat, seed, count=3, max_dim=7):
    rng = np.random.default_rng(seed)
    return [cat.random_object(rng, max_dim=max_dim) for _ in range(count)]


def adjunctions(cat, x):
    """The canonical duality, two rescalings and a per-summand deformation."""
    canonical = cat.well_balanced_adjunction(x)
    out = {"canonical": canonical,
           "scaled-phase": canonical.scaled(np.exp(0.7j)),
           "scaled": canonical.scaled(2.0 - 0.5j)}
    h = np.zeros((x.dim, x.dim), dtype=np.complex128)
    for k, piece in enumerate(cat.decompose(x)):
        h += (1.5 + k) * np.conj(dagger(piece.coisometry) @ piece.coisometry)
    i_m, e_m = ref_deform(canonical, h)
    out["deformed"] = Adjunction(x, canonical.xstar,
                                 Intertwiner(canonical.i.src, canonical.i.dst, i_m),
                                 Intertwiner(canonical.e.src, canonical.e.dst, e_m))
    return out


# -- the contracted diagrams ----------------------------------------------------------

def test_braiding_and_lazy_tensor_match_definitions(cat):
    x, y, _ = random_objects(cat, 1)
    assert max_dev(cat.braiding(x, y).matrix, ref_braiding(cat, x, y)) < TOL
    xy = cat.tensor(x, y)
    want = np.einsum("gij,gkl->gikjl", x.matrices, y.matrices).reshape(
        cat.group.order, xy.dim, xy.dim)
    grading = xy.grading  # read before the carrier is built
    assert max_dev(xy.matrices, want) < TOL
    if cat.z_index is not None:
        assert max_dev(grading, want[cat.z_index]) < TOL


def test_balancing_matches_kronecker_operators(cat):
    kink = parse(KINK_PLUS)
    for x in random_objects(cat, 2):
        for name, adj in adjunctions(cat, x).items():
            got = evaluate(kink, EvalContext(cat, x, adj)).matrix
            assert max_dev(got, ref_balancing(cat, adj)) < TOL, name
        canonical = ref_balancing(cat, cat.adjunction(x))
        assert max_dev(cat.balancing(x).matrix, canonical) < TOL


def test_traces_match_kronecker_operators(cat):
    """``trace`` closes the loop with the canonical duality; of the other
    dualities, the rescaled and the deformed ones close two loops that
    disagree, which is why they are not well balanced."""
    rng = np.random.default_rng(3)
    for x in random_objects(cat, 3):
        f = Intertwiner(x, x, random_complex(rng, (x.dim, x.dim)))
        for name, adj in adjunctions(cat, x).items():
            for quantum in (False, True):
                mat = f.matrix @ ref_balancing(cat, adj) if quantum else f.matrix
                val, alt = ref_traces(adj, mat)
                if name in ("scaled", "deformed"):
                    # the counit loop scales by |c|^2 and the unit loop by
                    # 1/|c|^2: the two evaluations must be seen to disagree
                    assert abs(val - alt) > 1e-3 * abs(val)
                else:
                    assert abs(val - alt) < 1e-9 * max(1.0, abs(val)), name
        for quantum in (False, True):
            adj = cat.adjunction(x)
            mat = f.matrix @ ref_balancing(cat, adj) if quantum else f.matrix
            val, _ = ref_traces(adj, mat)
            assert abs(cat.trace(f, quantum=quantum) - val) < TOL * max(1.0, abs(val))


def test_triangles_match_kronecker_operators(cat):
    rng = np.random.default_rng(4)
    for x in random_objects(cat, 4):
        adjs = adjunctions(cat, x)
        for name, adj in adjs.items():
            first, second = ref_triangles(adj)
            d, ds = x.dim, adj.xstar.dim
            i_m, e_m = adj.i.matrix.reshape(d, ds), adj.e.matrix.reshape(ds, d)
            assert max_dev(i_m @ e_m, first) < TOL, name
            assert max_dev((e_m @ i_m).T, second) < TOL, name
            assert abs(adj.triangle_dev() - ref_triangle_dev(adj)) < TOL, name
        # a unit and counit that are not a duality: large, equal deviations
        base = adjs["canonical"]
        broken = Adjunction(x, base.xstar,
                            Intertwiner(base.i.src, base.i.dst,
                                        random_complex(rng, base.i.matrix.shape)),
                            Intertwiner(base.e.src, base.e.dst,
                                        random_complex(rng, base.e.matrix.shape)))
        assert ref_triangle_dev(broken) > 0.1
        assert abs(broken.triangle_dev() - ref_triangle_dev(broken)) < TOL


def test_dagger_transform_matches_kronecker_operators(cat):
    rng = np.random.default_rng(5)
    for x in random_objects(cat, 5) + [cat.object_of_irrep(i) for i in cat.irreps()]:
        xstar = cat.conjugate(x)
        f = Intertwiner(x, xstar, random_complex(rng, (x.dim, x.dim)))
        adj = cat.well_balanced_adjunction(x)
        got = cat.dagger_transform(f).matrix
        assert max_dev(got, ref_dagger_transform(adj, f.matrix)) < TOL


# -- memory ------------------------------------------------------------------------

def _s4_object(cat, mults, seed):
    """A direct sum of S4 irreducibles with the given multiplicities,
    rotated by a random unitary."""
    blocks = []
    for irr in cat.irreps():
        blocks += [irr.matrices] * mults.get(irr.label, 0)
    d = sum(b.shape[1] for b in blocks)
    mats = np.zeros((cat.group.order, d, d), dtype=np.complex128)
    off = 0
    for b in blocks:
        mats[:, off:off + b.shape[1], off:off + b.shape[1]] = b
        off += b.shape[1]
    u = random_unitary(np.random.default_rng(seed), d)
    return RepObject(cat, u @ mats @ dagger(u), name=f"S4:{mults}")


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim, mults, budget_mb", [
    (12, {"1a": 1, "2a": 1, "3a": 1, "3b": 2}, 5.0),
    (24, {"1a": 2, "1b": 2, "2a": 4, "3a": 2, "3b": 2}, 50.0),
])
def test_balancing_and_qdim_memory(dim, mults, budget_mb):
    cat = RepCategory(symmetric_group(4))
    x = _s4_object(cat, mults, seed=8)
    assert x.dim == dim
    for fn in (lambda: cat.balancing(x), lambda: cat.qdim(x)):
        peak = _peak_mb(fn)
        assert peak < budget_mb, f"peak {peak:.1f} MB at d = {x.dim}"
    assert max_dev(cat.balancing(x).matrix, np.eye(x.dim)) < 1e-9
    assert abs(cat.qdim(x) - x.dim) < 1e-9


# -- balancing without the braiding ------------------------------------------------------

S4_D48 = {"1a": 2, "1b": 2, "2a": 4, "3a": 6, "3b": 6}


def _closed_form_objects():
    """A 48-dimensional object of Rep(S4) and a graded object of SuperRep(Q8)
    with even and odd summands, with their expected balancing (the grading)."""
    s4 = RepCategory(symmetric_group(4))
    q8 = _q8_super()
    # _s4_object only reads the category's irreducibles; 2a is the odd one of Q8
    return [(s4, _s4_object(s4, S4_D48, seed=9)),
            (q8, _s4_object(q8, {"1a": 2, "1b": 1, "1d": 1, "2a": 3}, seed=10))]


@pytest.mark.parametrize("index", [0, 1])
def test_duality_diagrams_never_build_the_braiding(index, monkeypatch):
    cat, x = _closed_form_objects()[index]
    grading = x.grading
    superdim = float(np.real(np.trace(grading)))
    f = Intertwiner(x, x, random_complex(np.random.default_rng(11), (x.dim, x.dim)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the braiding was built")

    monkeypatch.setattr(RepCategory, "braiding", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    assert max_dev(cat.balancing(x).matrix, grading) < 1e-9
    assert abs(cat.dim(x) - x.dim) < 1e-9
    assert abs(cat.qdim(x) - superdim) < 1e-9
    assert abs(cat.trace(f) - np.trace(f.matrix)) < 1e-9 * x.dim


def test_balancing_and_qdim_memory_d48():
    """O(d^2) memory, and no conjugate representation (|G| d^2 entries,
    0.9 MB here): the d^2 x d^2 braiding at d = 48 alone is 85 MB."""
    cat, x = _closed_form_objects()[0]
    assert x.dim == 48
    for fn in (lambda: cat.balancing(x), lambda: cat.qdim(x)):
        peak = _peak_mb(fn)
        assert peak < 0.5, f"peak {peak:.2f} MB at d = {x.dim}"
