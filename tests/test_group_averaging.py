"""Group tables and group averaging against their loop definitions.

``FiniteGroup`` derives its identity, inverses, element orders and
conjugacy classes once with whole-table operations; Z_n, D_n, Q8 and S_n
are built with integer array arithmetic; ``reps._average`` averages over
the group in one batched matmul; and the irreducibles are split off the
regular representation through its commutant, in a basis of their own.
The ``ref_*`` functions below keep the old definitions (2 x 2 quaternion
matrices, composition of permutation tuples, the dihedral and element-order
loops, per-element sums and the dense n x n x n regular representation) as
the reference; the irreducibles are compared with it up to a change of
basis.
"""
import time
import tracemalloc
from functools import cache
from itertools import permutations

import numpy as np
import pytest

from twohilb.groups import (
    FiniteSuperGroup,
    catalog,
    cyclic_group,
    dihedral_group,
    group_from_json,
    quaternion_group,
    symmetric_group,
)
from twohilb import reps
from twohilb.errors import ValidationError
from twohilb.linalg import (
    cluster_indices,
    dagger,
    max_abs,
    max_dev,
    random_complex,
)
from twohilb.reps import RepCategory, _average, _label_irreps
from twohilb.transforms import tannaka_reconstruct

TOL = 1e-12


# -- reference definitions ------------------------------------------------------

def random_hermitian(rng, n):
    a = random_complex(rng, (n, n))
    return (a + dagger(a)) / 2.0


def ref_q8_table():
    units = [np.eye(2, dtype=complex), np.array([[1j, 0], [0, -1j]]),
             np.array([[0, 1], [-1, 0]], dtype=complex), np.array([[0, 1j], [1j, 0]])]
    mats = [s * u for u in units for s in (1, -1)]
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            hits = [c for c in range(8) if np.allclose(mats[a] @ mats[b], mats[c])]
            assert len(hits) == 1
            table[a][b] = hits[0]
    return table


def ref_symmetric_table(n):
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[k]] for k in range(n))] for q in elems] for p in elems]


def ref_dihedral_table(n):
    def idx(a, b):
        return a + n * b
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(2):
            for c in range(n):
                for d in range(2):
                    # (r^a s^b)(r^c s^d) = r^(a + c*(-1)^b) s^(b+d)
                    aa = (a + (c if b == 0 else -c)) % n
                    table[idx(a, b)][idx(c, d)] = idx(aa, (b + d) % 2)
    return table


def ref_element_order(group, a):
    x, k = a, 1
    while x != group.identity:
        x = group.mult(x, a)
        k += 1
    return k


def ref_conjugacy_classes(group):
    seen, classes = set(), []
    for a in range(group.order):
        if a in seen:
            continue
        cls = sorted({group.mult(group.mult(g, a), group.inverse(g))
                      for g in range(group.order)})
        seen.update(cls)
        classes.append(cls)
    return classes


def ref_regular_representation(group):
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.complex128)
    for g in range(n):
        for h in range(n):
            mats[g, group.mult(g, h), h] = 1.0
    return mats


def ref_average(left, m, right):
    return sum(left[g] @ m @ dagger(right[g]) for g in range(left.shape[0])) / left.shape[0]


def ref_irreps(group, z_index, attempts=60):
    n = group.order
    reg = ref_regular_representation(group)
    rng = np.random.default_rng(1234)
    for _ in range(attempts):
        h0 = random_hermitian(rng, n)
        avg = sum(reg[g] @ h0 @ dagger(reg[g]) for g in range(n)) / n
        vals, vecs = np.linalg.eigh((avg + dagger(avg)) / 2.0)
        clusters = cluster_indices(vals, 1e-7 * max(vals[-1] - vals[0], 1.0))
        raw = []
        for cluster in clusters:
            basis = vecs[:, cluster]
            mats = dagger(basis) @ reg @ basis
            char = np.einsum("gii->g", mats)
            if abs(float(np.real(np.sum(np.abs(char) ** 2))) / n - 1.0) > 1e-6:
                break
            if max(max_dev(reg[g] @ basis, basis @ mats[g]) for g in range(n)) > 1e-7:
                break
            raw.append((char, mats))
        else:
            kept = []
            for char, mats in raw:
                if not any(max_abs(char - c2) < 1e-6 for c2, _ in kept):
                    kept.append((char, mats))
            if sum(m.shape[1] ** 2 for _, m in kept) == n:
                return _label_irreps(group, z_index, kept)
    raise AssertionError("reference failed to split the regular representation")


def ref_label_order(kept):
    """The (degree, label rank) sort key of each entry of kept, with the
    fingerprints rounded one Python float at a time."""
    keys = []
    for char, mats in kept:
        trivial = bool(np.allclose(char, np.ones(len(char))))
        fingerprint = tuple((round(float(c.real), 6), round(float(c.imag), 6))
                            for c in char)
        keys.append((mats.shape[1], not trivial, fingerprint))
    return sorted(range(len(kept)), key=lambda i: keys[i])


def _split(entry):
    return (entry.group, entry.z) if isinstance(entry, FiniteSuperGroup) else (entry, None)


CATALOG = {name: _split(build()) for name, build in catalog().items()}


# -- group tables -----------------------------------------------------------------

def test_q8_table_matches_matrix_products():
    assert np.array_equal(quaternion_group().table, ref_q8_table())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_group_matches_tuple_composition(n):
    assert np.array_equal(symmetric_group(n).table, ref_symmetric_table(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cyclic_and_dihedral_tables_match_loops(n):
    want = [[(a + b) % n for b in range(n)] for a in range(n)]
    assert np.array_equal(cyclic_group(n).table, want)
    assert np.array_equal(dihedral_group(n).table, ref_dihedral_table(n))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_derived_group_data_matches_loops(name):
    group = CATALOG[name][0]
    assert group.conjugacy_classes() == ref_conjugacy_classes(group)
    t = group.matrix
    e = group.identity
    assert np.array_equal(t[e], np.arange(group.order))
    assert all(t[a, group.inverses[a]] == e for a in range(group.order))
    orders = [ref_element_order(group, a) for a in range(group.order)]
    assert group.element_orders.tolist() == orders
    assert group.is_cyclic is (group.order in orders)


# -- averaging -----------------------------------------------------------------------

@pytest.mark.parametrize("group", [
    symmetric_group(3), symmetric_group(4), FiniteSuperGroup.make(quaternion_group(), 1)])
def test_average_matches_per_element_sum(group):
    cat = RepCategory(group)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = cat.random_object(rng, max_dim=6)
        y = cat.random_object(rng, max_dim=6)
        m = random_complex(rng, (y.dim, x.dim))
        assert max_dev(_average(y.matrices, m, x.matrices),
                       ref_average(y.matrices, m, x.matrices)) < TOL
        # the intertwiner sampler draws one matrix, averages it and
        # normalises it; it refuses a zero hom space
        if cat.hom_dim(x, y) == 0:
            with pytest.raises(ValidationError, match="hom"):
                cat.random_intertwiner(x, y, np.random.default_rng(9))
            continue
        f = cat.random_intertwiner(x, y, np.random.default_rng(9))
        m0 = random_complex(np.random.default_rng(9), (y.dim, x.dim))
        ref = ref_average(y.matrices, m0, x.matrices)
        assert max_dev(f.matrix, ref / np.linalg.norm(ref)) < TOL


def _group(name):
    if name in CATALOG:
        return CATALOG[name]
    return (symmetric_group(5) if name == "S5" else cyclic_group(int(name[1:]))), None


@cache
def _irreps_and_reference(name):
    group, z = _group(name)
    got = RepCategory(FiniteSuperGroup(group, z) if z is not None else group).irreps()
    return got, ref_irreps(group, z)


def _intertwining_unitary(a, b):
    """The unitary u with u a(g) u^H = b(g) for every g, for two irreducibles
    a and b: by Schur's lemma the group average of b(g) x a(g)^H is a
    multiple of it when they are equivalent and 0 otherwise (then None)."""
    x = random_complex(np.random.default_rng(3), a.shape[1:])
    m = _average(b, x, a)
    scale = np.sqrt(np.trace(m @ dagger(m)).real / len(m))  # 0 for inequivalent ones
    u = m / max(scale, 1e-6)
    return u if max_dev(u @ dagger(u), np.eye(len(m))) < TOL else None


SPLIT_GROUPS = sorted(CATALOG) + ["S5", "Z27", "Z60"]


@pytest.mark.parametrize("name", sorted(CATALOG) + ["S5"])
def test_irreps_match_dense_regular_representation(name):
    """Labels, degrees, parities and characters agree with the reference:
    the basis of each irreducible is the split's own."""
    got, want = _irreps_and_reference(name)
    assert [i.label for i in got] == [i.label for i in want]
    assert [i.degree for i in got] == [i.degree for i in want]
    assert [i.parity for i in got] == [i.parity for i in want]
    for a, b in zip(got, want):
        assert max_dev(a.character, b.character) < TOL


@pytest.mark.parametrize("name", SPLIT_GROUPS)
def test_irreps_are_unitarily_equivalent_to_the_dense_reference(name):
    """Each irreducible is a unitary representation, its character is the
    reference's within 1e-12, and one unitary carries its matrices onto the
    reference's (the walk over the Cayley graph builds every element's)."""
    got, want = _irreps_and_reference(name)
    assert [i.label for i in got] == [i.label for i in want]
    for a, b in zip(got, want):
        assert max_dev(a.character, b.character) < TOL
        assert max_dev(a.matrices @ np.conj(a.matrices.transpose(0, 2, 1)),
                       np.eye(a.degree)) < TOL
        u = _intertwining_unitary(a.matrices, b.matrices)
        assert u is not None and max_dev(u @ a.matrices @ dagger(u), b.matrices) < TOL
    # an inequivalent pair, 1b and the trivial 1a, has no intertwining unitary
    if len(got) > 1 and got[1].degree == 1:
        assert _intertwining_unitary(got[1].matrices, want[0].matrices) is None


def test_s5_irreps_memory():
    """The dense regular representation of S5 alone is 27.6 MB; splitting it
    through its commutant keeps the peak to O(n^2) arrays."""
    cat = RepCategory(symmetric_group(5))
    tracemalloc.start()
    try:
        irreps = cat.irreps()
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert [i.degree for i in irreps] == [1, 1, 4, 4, 5, 5, 6]
    assert peak_mb < 15.0, f"S5 irreps peaked at {peak_mb:.1f} MB"


def test_s6_irreps_and_tannaka():
    """S6 (n = 720) splits in under 2 s within 64 MB of traced memory, and
    its Tannaka check, on the generators, takes under 1 s.  The time is the
    faster of two fresh groups' splits, as the host's speed varies."""
    times = []
    for _ in range(2):
        cat = RepCategory(symmetric_group(6))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            irreps = cat.irreps()
            times.append(time.perf_counter() - start)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert [i.degree for i in irreps] == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
        assert peak_mb < 64.0, f"S6 irreps peaked at {peak_mb:.1f} MB"
    assert min(times) < 2.0, f"S6 irreps took {min(times):.2f} s"
    start = time.perf_counter()
    assert tannaka_reconstruct(cat).order == 720
    assert time.perf_counter() - start < 1.0


def test_split_refuses_merged_and_non_invariant_eigenspaces(monkeypatch):
    """c = 1 makes H the all-ones matrix, whose eigenspace at 0 holds every
    nontrivial copy: its character's norm is not 1, and the split draws
    again (and gives up when every draw is such)."""
    group = symmetric_group(3)
    want = [i.label for i in RepCategory(symmetric_group(3)).irreps()]
    draws = []

    def first_constant(rng, shape):
        draws.append(shape)
        return np.ones(shape) if len(draws) == 1 else random_complex(rng, shape)
    monkeypatch.setattr(reps, "random_complex", first_constant)
    assert [i.label for i in reps._compute_irreps(group, None)] == want
    assert len(draws) == 2
    monkeypatch.setattr(reps, "random_complex", lambda rng, shape: np.ones(shape))
    with pytest.raises(ValidationError, match="failed to separate"):
        reps._compute_irreps(group, None)
    # f = -1 on the 3-cycles and 1 elsewhere is a class function of norm 1
    # but no character, so its line passes the norm check and only the
    # generators refuse it; the sign character's line is kept
    orders = group.element_orders
    for f, kept in ((np.where(orders == 3, -1.0, 1.0), False),
                    (np.where(orders == 2, -1.0, 1.0), True)):
        vecs = np.linalg.qr(np.column_stack([f, np.eye(group.order)[:, 1:]]))[0]
        assert (reps._split_eigenspaces(group, vecs, [[0]]) is not None) == kept
    # the trivial and sign lines together span an invariant plane whose
    # character has norm 2: only the norm check refuses it
    lines = np.column_stack([np.ones(group.order), np.where(orders == 2, -1.0, 1.0)])
    vecs = np.linalg.qr(np.column_stack([lines, np.eye(group.order)[:, 2:]]))[0]
    assert reps._split_eigenspaces(group, vecs, [[0, 1]]) is None


@pytest.mark.parametrize("group", [cyclic_group(1), group_from_json({"table": [[0]]})])
def test_the_trivial_group_splits_and_reconstructs(group):
    """The trivial group has no generators: nothing to check or walk."""
    assert group.generators == () and group.walk == ()
    cat = RepCategory(group)
    [irrep] = cat.irreps()
    assert irrep.label == "1a" and irrep.matrices.tolist() == [[[1]]]
    assert tannaka_reconstruct(cat).order == 1


@pytest.mark.parametrize("name", SPLIT_GROUPS)
def test_labels_sort_like_rounded_python_floats(name):
    group, z = _group(name)
    irreps = RepCategory(FiniteSuperGroup(group, z) if z is not None else group).irreps()
    kept = [(irr.character, irr.matrices) for irr in irreps[::-1]]
    relabelled = _label_irreps(group, z, kept)
    assert [i.label for i in relabelled] == [i.label for i in irreps]
    order = ref_label_order(kept)
    assert all(np.shares_memory(relabelled[pos].matrices, kept[i][1])
               for pos, i in enumerate(order))
