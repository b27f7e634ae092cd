"""Symmetrizers built from signed index permutations, against the Kronecker
reference that multiplies out every permutation as a word of braidings."""
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from twohilb.errors import ValidationError
from twohilb.groups import FiniteSuperGroup, quaternion_group, symmetric_group
from twohilb.linalg import dagger, max_dev
from twohilb.reps import RepCategory


def adjacent_word(perm) -> list[int]:
    """Adjacent-transposition word sorting the permutation (bubble sort)."""
    seq = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                word.append(i)
                changed = True
    return word


def symmetric_group_action(cat, x, n) -> dict:
    """Reference: braiding-built d^n x d^n operators for all permutations of
    n tensor factors, each with its sign."""
    d = x.dim
    b = cat.braiding(x, x).matrix
    adjacent = [np.kron(np.kron(np.eye(d ** pos), b), np.eye(d ** (n - 2 - pos)))
                for pos in range(n - 1)]
    ops = {}
    for perm in itertools.permutations(range(n)):
        word = adjacent_word(perm)
        op = np.eye(d ** n, dtype=np.complex128)
        for pos in word:
            op = adjacent[pos] @ op
        ops[perm] = (op, 1 if len(word) % 2 == 0 else -1)
    return ops


def reference_projectors(cat, x, n):
    ops = symmetric_group_action(cat, x, n)
    total = len(ops)
    p_s = sum(op for op, _ in ops.values()) / total
    p_a = sum(sgn * op for op, sgn in ops.values()) / total
    return p_s, p_a


def _super_q8():
    q8 = quaternion_group()
    return RepCategory(FiniteSuperGroup.make(q8, q8.element_names.index("-1")))


CATEGORIES = {
    "S3": lambda: RepCategory(symmetric_group(3)),
    "S4": lambda: RepCategory(symmetric_group(4)),
    "SuperQ8": _super_q8,
    "SuperQ8~bosonized": lambda: _super_q8().bosonized(),
}


@pytest.fixture(scope="module", params=sorted(CATEGORIES))
def cat(request):
    return CATEGORIES[request.param]()


def objects(cat, seed):
    """Two random objects and every irreducible of degree 2 or 3."""
    rng = np.random.default_rng(seed)
    picked = [cat.random_object(rng, max_dim=3) for _ in range(2)]
    return picked + [cat.object_of_irrep(i) for i in cat.irreps() if i.degree in (2, 3)]


def superdimension(cat, x) -> tuple[int, int]:
    if cat.bosonic:
        return x.dim, 0
    even = round(float(np.real(np.trace(x.grading) + x.dim)) / 2)
    return even, x.dim - even


def multisets(q: int, m: int) -> int:
    """Multisets of size m from q elements: C(q + m - 1, m)."""
    return math.comb(q + m - 1, m) if m else 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projectors_match_kronecker_reference(cat, n):
    for x in objects(cat, 10 + n):
        data = cat.symmetrizer_power(x, n)
        p_s, p_a = reference_projectors(cat, x, n)
        assert max_dev(data.symmetrizer.matrix, p_s) < 1e-12
        assert max_dev(data.antisymmetrizer.matrix, p_a) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_images_are_equivariant_isometries_onto_the_range(cat, n):
    for x in objects(cat, 20 + n):
        data = cat.symmetrizer_power(x, n)
        big = data.power.matrices
        for (image, u), proj in [(data.symmetric_part, data.symmetrizer.matrix),
                                 (data.alternating_part, data.antisymmetrizer.matrix)]:
            assert max_dev(dagger(u) @ u, proj) < 1e-12  # same range projector
            assert max_dev(u @ dagger(u), np.eye(u.shape[0])) < 1e-12
            assert max_dev(u @ big, image.matrices @ u) < 1e-12
            image.validate()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_superdimension_identities(cat, n):
    """tr P_a = sum_k C(p,k) C(q+n-k-1, n-k), tr P_s = sum_k C(p+k-1,k) C(q,n-k)
    on an object of superdimension (p|q), and the images have those dimensions."""
    for x in objects(cat, 30 + n):
        p, q = superdimension(cat, x)
        want_a = sum(math.comb(p, k) * multisets(q, n - k) for k in range(n + 1))
        want_s = sum(multisets(p, k) * math.comb(q, n - k) for k in range(n + 1))
        data = cat.symmetrizer_power(x, n)
        assert np.trace(data.antisymmetrizer.matrix) == pytest.approx(want_a, abs=1e-9)
        assert np.trace(data.symmetrizer.matrix) == pytest.approx(want_s, abs=1e-9)
        assert data.alternating_part[0].dim == want_a
        assert data.symmetric_part[0].dim == want_s


def test_purely_odd_plane():
    """Lambda^n of a purely odd 2-dimensional object has dimension n + 1; its
    third symmetric power vanishes."""
    cat = _super_q8()
    x = cat.irrep("2a")
    assert superdimension(cat, x) == (0, 2)
    for n in range(1, 6):
        data = cat.symmetrizer_power(x, n)
        assert data.alternating_part[0].dim == n + 1
        assert np.trace(data.antisymmetrizer.matrix) == pytest.approx(n + 1, abs=1e-9)
    assert cat.symmetrizer_power(x, 3).symmetric_part[0].dim == 0


def test_no_kronecker_products(monkeypatch):
    cats = [RepCategory(symmetric_group(3)), _super_q8()]
    xs = [c.direct_sum(c.irrep("2a"), c.irrep("1b")) for c in cats]

    def refuse(*args):
        raise AssertionError("np.kron on the symmetrizer path")

    monkeypatch.setattr(np, "kron", refuse)
    for c, x in zip(cats, xs):
        c.symmetrizer_power(x, 4)


def test_factor_count_is_validated():
    cat = RepCategory(symmetric_group(3))
    for n in (0, -1):
        with pytest.raises(ValidationError, match="at least one"):
            cat.symmetrizer_power(cat.unit(), n)


def test_memory_gate():
    """d = 4, n = 5: the Kronecker products peaked at 2.2 GB."""
    cat = RepCategory(symmetric_group(3))
    std = cat.irrep("2a")
    x = cat.direct_sum(std, std)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        data = cat.symmetrizer_power(x, 5)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB in {elapsed:.2f} s"
    assert data.symmetric_part[0].dim == math.comb(8, 5)
    assert data.alternating_part[0].dim == 0
