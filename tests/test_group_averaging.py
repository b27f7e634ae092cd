"""Group tables and group averaging against their loop definitions.

``FiniteGroup`` derives its table array, identity, inverses and conjugacy
classes once with whole-table operations; Q8 and S_n are built with
integer arithmetic; ``reps._average`` averages over the group in one
batched matmul; and the irreducibles are split off the regular
representation by permuting rows and columns.  The ``ref_*`` functions
below keep the old definitions (2 x 2 quaternion matrices, composition of
permutation tuples, per-element sums and the dense n x n x n regular
representation) as the reference.
"""
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from twohilb.groups import FiniteSuperGroup, catalog, quaternion_group, symmetric_group
from twohilb.linalg import (
    cluster_indices,
    dagger,
    max_abs,
    max_dev,
    random_complex,
    random_hermitian,
)
from twohilb.reps import (
    RepCategory,
    _average,
    _label_irreps,
    _random_intertwiner,
)

TOL = 1e-12


# -- reference definitions ------------------------------------------------------

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


def _split(entry):
    return (entry.group, entry.z) if isinstance(entry, FiniteSuperGroup) else (entry, None)


CATALOG = {name: _split(build()) for name, build in catalog().items()}


# -- group tables -----------------------------------------------------------------

def test_q8_table_matches_matrix_products():
    assert quaternion_group().table == tuple(map(tuple, ref_q8_table()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_group_matches_tuple_composition(n):
    assert symmetric_group(n).table == tuple(map(tuple, ref_symmetric_table(n)))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_derived_group_data_matches_loops(name):
    group = CATALOG[name][0]
    assert group.conjugacy_classes() == ref_conjugacy_classes(group)
    t = group.matrix
    e = group.identity
    assert np.array_equal(t[e], np.arange(group.order))
    assert all(t[a, group.inverses[a]] == e for a in range(group.order))


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
        # the intertwiner helper draws one matrix and averages it
        f = _random_intertwiner(cat, np.random.default_rng(9), x, y)
        m0 = random_complex(np.random.default_rng(9), (y.dim, x.dim))
        assert max_dev(f.matrix, ref_average(y.matrices, m0, x.matrices)) < TOL


@pytest.mark.parametrize("name", sorted(CATALOG) + ["S5"])
def test_irreps_match_dense_regular_representation(name):
    group, z = CATALOG[name] if name in CATALOG else (symmetric_group(5), None)
    got = RepCategory(FiniteSuperGroup(group, z) if z is not None else group).irreps()
    want = ref_irreps(group, z)
    assert [i.label for i in got] == [i.label for i in want]
    assert [i.degree for i in got] == [i.degree for i in want]
    assert [i.parity for i in got] == [i.parity for i in want]
    for a, b in zip(got, want):
        assert max_dev(a.matrices, b.matrices) < TOL


def test_s5_irreps_memory():
    """The dense regular representation of S5 alone is 27.6 MB; splitting it by
    row and column permutations keeps the peak to O(n^2) arrays."""
    cat = RepCategory(symmetric_group(5))
    tracemalloc.start()
    try:
        irreps = cat.irreps()
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert [i.degree for i in irreps] == [1, 1, 4, 4, 5, 5, 6]
    assert peak_mb < 15.0, f"S5 irreps peaked at {peak_mb:.1f} MB"
