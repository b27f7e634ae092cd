import re
import time
import tracemalloc

import numpy as np
import pytest

import twohilb.ambrose as ambrose_module
from twohilb.ambrose import (
    HStarAlgebraData,
    ambrose_decompose,
    block_model,
    change_basis,
)
from twohilb.errors import ValidationError
from twohilb.groups import cyclic_group, dihedral_group, quaternion_group, symmetric_group
from twohilb.linalg import DEFAULT_TOL, dagger, max_dev, random_complex, random_unitary
from twohilb.reps import RepCategory


def group_algebra(group):
    """Convolution algebra of a finite group on the delta basis (an H*-algebra).

    The product is delta_g delta_h = delta_gh and the star delta_g* = delta_(g^-1).
    """
    n = group.order
    table = np.zeros((n, n, n), dtype=np.complex128)
    rows, cols = np.indices((n, n))
    table[rows, cols, group.matrix] = 1.0
    unit = np.zeros(n, dtype=np.complex128)
    unit[group.identity] = 1.0
    star = np.zeros((n, n), dtype=np.complex128)
    star[group.inverses, np.arange(n)] = 1.0
    return HStarAlgebraData(n, table, unit, star)


def test_block_model_validates():
    block_model([2, 1], [1.0, 2.0]).validate()
    block_model([3], [0.5]).validate()


def loop_block_model(sizes, weights):
    """block_model's arrays filled one matrix unit at a time."""
    n = sum(d * d for d in sizes)
    table = np.zeros((n, n, n), dtype=np.complex128)
    unit = np.zeros(n, dtype=np.complex128)
    star = np.zeros((n, n), dtype=np.complex128)
    offset = 0
    for d, k in zip(sizes, weights):
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    table[offset + a * d + b, offset + b * d + c, offset + a * d + c] = \
                        1.0 / np.sqrt(k)
                star[offset + a * d + b, offset + b * d + a] = 1.0
            unit[offset + a * d + a] = np.sqrt(k)
        offset += d * d
    return table, unit, star


@pytest.mark.parametrize("sizes, weights", [([1], [2.0]), ([2, 1], [1.0, 2.0]),
                                            ([3, 1, 2, 3], [0.7, 1.3, 0.5, 1.9])])
def test_block_model_matches_the_loop_definition(sizes, weights):
    alg = block_model(sizes, weights)
    table, unit, star = loop_block_model(sizes, weights)
    assert np.array_equal(alg.table, table)
    assert np.array_equal(alg.unit, unit)
    assert np.array_equal(alg.star_matrix, star)


def test_round_trip_of_constructed_input(rng):
    alg = block_model([2, 1], [1.0, 2.0])
    dec = ambrose_decompose(alg, rng=rng)
    assert dec.sizes == (1, 2)
    assert np.allclose(dec.weights, (2.0, 1.0))
    assert dec.recomposition_dev() < 1e-8


def test_round_trip_after_unitary_change_of_basis(rng):
    for sizes, weights in [([2, 1], [1.0, 2.0]), ([1, 1, 2], [0.5, 1.5, 1.0]), ([3], [2.0])]:
        alg = block_model(sizes, weights)
        u = random_unitary(rng, alg.dim)
        rotated = change_basis(alg, u)
        rotated.validate()
        dec = ambrose_decompose(rotated, rng=rng)
        assert sorted(dec.sizes) == sorted(sizes)
        got = sorted(zip(dec.sizes, dec.weights))
        want = sorted(zip(sizes, weights))
        for (ds, dw), (ws, ww) in zip(got, want):
            assert ds == ws
            assert abs(dw - ww) < 1e-7


def test_commutative_algebra_splits_into_lines(rng):
    n = 5
    alg = group_algebra(cyclic_group(n))
    alg.validate()
    dec = ambrose_decompose(alg, rng=rng)
    assert dec.sizes == (1,) * n
    assert np.allclose(dec.weights, 1.0 / n)
    # oracle: simultaneous diagonalization is the discrete Fourier transform
    omega = np.exp(2j * np.pi / n)
    oracle = []
    for k in range(n):
        chi = np.array([omega ** (k * g) for g in range(n)])
        oracle.append(np.conj(chi) / n)
    for want in oracle:
        assert min(np.max(np.abs(i.projection - want)) for i in dec.ideals) < 1e-8


def test_validation_catches_broken_associativity(rng):
    alg = block_model([2], [1.0])
    table = alg.table.copy()
    table[0, 1, 2] += 0.5
    broken = HStarAlgebraData(alg.dim, table, alg.unit, alg.star_matrix)
    with pytest.raises(ValidationError, match="associativity|unit|product"):
        broken.validate()


# -- reference definitions: one basis pair at a time ---------------------------

def loop_mult(alg, a, b):
    return np.einsum("i,j,ijk->k", a, b, alg.table)


def loop_left_mult_matrix(alg, a):
    return np.einsum("i,ijk->kj", a, alg.table)


def loop_right_mult_matrix(alg, a):
    return np.einsum("j,ijk->ki", a, alg.table)


def loop_validate(alg, tol=1e-7, slices=None):
    """The axioms on basis triples; with ``slices``, only for first factors e_i there."""
    n = alg.dim
    t = alg.table
    slices = list(range(n) if slices is None else slices)
    assoc = np.einsum("ijm,mkl->ijkl", t[slices], t) - np.einsum("jkm,iml->ijkl", t, t[slices])
    worst = float(np.max(np.abs(assoc)))
    if worst > tol:
        raise ValidationError(f"associativity fails (max violation {worst:.3e})",
                              violation=worst)
    lu = np.einsum("i,ijk->jk", alg.unit, t)
    ru = np.einsum("j,ijk->ik", alg.unit, t)
    worst = max(max_dev(lu, np.eye(n)), max_dev(ru, np.eye(n)))
    if worst > tol:
        raise ValidationError(f"unit fails (max violation {worst:.3e})", violation=worst)
    s = alg.star_matrix
    worst = max_dev(s @ np.conj(s), np.eye(n))
    if worst > tol:
        raise ValidationError(f"star is not an involution (max violation {worst:.3e})",
                              violation=worst)
    worst = 0.0
    e = np.eye(n, dtype=np.complex128)
    for i in slices:
        for j in range(n):
            a, b = e[i], e[j]
            ab = loop_mult(alg, a, b)
            ba = loop_mult(alg, alg.star(b), alg.star(a))
            worst = max(worst, max_dev(alg.star(ab), ba))
    if worst > tol:
        raise ValidationError(f"star is not an antihomomorphism (max violation {worst:.3e})",
                              violation=worst)
    worst = 0.0
    for i in slices:
        a = e[i]
        astar = alg.star(a)
        worst = max(worst, max_dev(dagger(loop_left_mult_matrix(alg, a)),
                                   loop_left_mult_matrix(alg, astar)))
        worst = max(worst, max_dev(dagger(loop_right_mult_matrix(alg, a)),
                                   loop_right_mult_matrix(alg, astar)))
    if worst > tol:
        raise ValidationError(f"product identities fail (max violation {worst:.3e})",
                              violation=worst)


def loop_change_basis_table(alg, u):
    n = alg.dim
    table = np.zeros((n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            table[i, j, :] = dagger(u) @ loop_mult(alg, u[:, i], u[:, j])
    return table


def loop_model_coords(ideal, v):
    d = ideal.size
    return np.array([[np.vdot(ideal.matrix_units[a, b], v) / ideal.weight
                      for b in range(d)] for a in range(d)])


def loop_from_model(ideal, m):
    return np.einsum("ab,abk->k", m, ideal.matrix_units)


def loop_recomposition_dev(dec):
    alg = dec.algebra
    worst = 0.0
    e = np.eye(alg.dim, dtype=np.complex128)
    for i in range(alg.dim):
        for j in range(alg.dim):
            a, b = e[i], e[j]
            rebuilt = np.zeros(alg.dim, dtype=np.complex128)
            for ideal in dec.ideals:
                m = loop_model_coords(ideal, a) @ loop_model_coords(ideal, b)
                rebuilt += loop_from_model(ideal, m)
            worst = max(worst, max_dev(loop_mult(alg, a, b), rebuilt))
    return worst


def validate_outcome(validate, alg):
    """(message, violation) of a failed validation, or None when it passes."""
    try:
        validate(alg)
    except ValidationError as err:
        return str(err).split(" (")[0], err.violation
    return None


def rotated_block_models(seed, count=8):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_ideals = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_ideals)]
        weights = [float(rng.uniform(0.5, 2.0)) for _ in range(n_ideals)]
        base = block_model(sizes, weights)
        yield base, random_unitary(rng, base.dim)


def broken_variants(alg):
    """The algebra with its table, unit or star disturbed, one at a time."""
    for index in [(0, 0, -1), (-1, -1, 0)]:
        table = alg.table.copy()
        table[index] += 0.3
        yield HStarAlgebraData(alg.dim, table, alg.unit, alg.star_matrix)
    yield HStarAlgebraData(alg.dim, alg.table, 1.5 * alg.unit, alg.star_matrix)
    yield HStarAlgebraData(alg.dim, alg.table, alg.unit, 1.1 * alg.star_matrix)
    yield HStarAlgebraData(alg.dim, alg.table, alg.unit, np.eye(alg.dim))
    # an involution that is not symmetric, unlike every valid star matrix
    skew = np.eye(alg.dim)
    skew[0, 1], skew[1, 1] = 1.0, -1.0
    yield HStarAlgebraData(alg.dim, alg.table, alg.unit, skew)


def test_table_forms_match_loop_definitions():
    rng = np.random.default_rng(41)
    algebras = [(change_basis(base, u), base, u) for base, u in rotated_block_models(17)]
    z5 = group_algebra(cyclic_group(5))
    algebras.append((z5, z5, np.eye(5)))
    base = block_model([3, 3, 3], [0.7, 1.2, 1.9])
    u = random_unitary(np.random.default_rng(27), base.dim)
    algebras.append((change_basis(base, u), base, u))
    for alg, base, u in algebras:
        n = alg.dim
        assert max_dev(alg.table, loop_change_basis_table(base, u)) < 1e-12
        a, b = random_complex(rng, n), random_complex(rng, n)
        assert max_dev(alg.mult(a, b), loop_mult(alg, a, b)) < 1e-12
        assert max_dev(alg.left_mult_matrix(a), loop_left_mult_matrix(alg, a)) < 1e-12
        for variant in [alg, *broken_variants(alg)]:
            got = validate_outcome(HStarAlgebraData.validate, variant)
            want = validate_outcome(loop_validate, variant)
            assert (got is None) == (want is None)
            if got is not None:
                # the message of the dense check, the violation on the generators
                on_gens = validate_outcome(
                    lambda x: loop_validate(x, slices=x.generators), variant)
                assert got[0] == want[0] == on_gens[0]
                assert abs(got[1] - on_gens[1]) < 1e-12


def test_recomposition_matches_loop_definition():
    rng = np.random.default_rng(43)
    algebras = [change_basis(base, u) for base, u in rotated_block_models(19, count=5)]
    algebras.append(group_algebra(cyclic_group(5)))
    for alg in algebras:
        dec = ambrose_decompose(alg, rng=rng)
        assert abs(dec.recomposition_dev() - loop_recomposition_dev(dec)) < 1e-12
        # a wrong weight makes both forms see the same large mismatch
        dec.ideals[0].weight *= 1.5
        got, want = dec.recomposition_dev(), loop_recomposition_dev(dec)
        assert want > 1e-3
        assert abs(got - want) < 1e-12


def test_validation_catches_broken_unit():
    alg = block_model([2, 1], [1.0, 2.0])
    broken = HStarAlgebraData(alg.dim, alg.table, 1.5 * alg.unit, alg.star_matrix)
    with pytest.raises(ValidationError, match="^unit fails"):
        broken.validate()


def test_validation_catches_star_that_is_no_involution():
    alg = block_model([2, 1], [1.0, 2.0])
    broken = HStarAlgebraData(alg.dim, alg.table, alg.unit, 1.1 * alg.star_matrix)
    with pytest.raises(ValidationError, match="star is not an involution"):
        broken.validate()


def test_validation_catches_star_that_is_no_antihomomorphism():
    # entrywise conjugation of 2 x 2 matrices is an involutive homomorphism
    alg = block_model([2], [1.0])
    broken = HStarAlgebraData(alg.dim, alg.table, alg.unit, np.eye(alg.dim))
    with pytest.raises(ValidationError, match="star is not an antihomomorphism"):
        broken.validate()


def test_validation_catches_broken_product_identities():
    # on the commutative Z/5 algebra, delta_g* = delta_g is an involutive
    # antihomomorphism but not the adjoint of multiplication
    alg = group_algebra(cyclic_group(5))
    broken = HStarAlgebraData(alg.dim, alg.table, alg.unit, np.eye(alg.dim))
    with pytest.raises(ValidationError, match="product identities fail"):
        broken.validate()


def test_matrix_unit_check_tests_every_relation(monkeypatch, rng):
    # with one minimal projection repeated, every e_ab is a multiple of it: each
    # relation e_ab e_bc = e_ac holds, but e_11 e_21 is not zero
    split = ambrose_module._minimal_projections

    def repeated(*args):
        groups, r = split(*args)
        return [qs[[0] * len(qs)] for qs in groups], r
    monkeypatch.setattr(ambrose_module, "_minimal_projections", repeated)
    with pytest.raises(ValidationError, match="^matrix unit relations violated"):
        ambrose_decompose(block_model([2], [1.0]), rng=rng)


def test_end_to_end_gates_hold_the_given_tolerance(monkeypatch, rng):
    # errors of about 1e-6, ten times the default tol, must not pass either gate
    alg = block_model([2, 1], [1.0, 2.0])
    split = ambrose_module._minimal_projections

    def perturbed(*args):
        groups, r = split(*args)
        return [qs + 1e-6 * alg.unit for qs in groups], r
    with monkeypatch.context() as patch:
        patch.setattr(ambrose_module, "_minimal_projections", perturbed)
        with pytest.raises(ValidationError, match="^matrix unit relations violated"):
            ambrose_decompose(alg, rng=rng)
    ideal = ambrose_module.AmbroseIdeal

    def misweighted(size, weight, **arrays):
        return ideal(size, weight * (1 + 1e-6), **arrays)
    monkeypatch.setattr(ambrose_module, "AmbroseIdeal", misweighted)
    with pytest.raises(ValidationError, match="^recomposition mismatch"):
        ambrose_decompose(alg, rng=rng)


@pytest.mark.parametrize("stage, message", [("split", "failed to split")])
def test_attempts_reach_every_retry_loop(monkeypatch, rng, stage, message):
    # zero draws of algebra elements make every attempt of the stage fail:
    # L(0) has one eigenvalue, whose cluster is the whole algebra
    alg = block_model([2], [1.0])
    state = {"zero_draws": 0}

    def zero(gen, shape):
        state["zero_draws"] += 1
        return np.zeros(shape, dtype=np.complex128)
    monkeypatch.setattr(ambrose_module, "random_complex", zero)
    monkeypatch.setattr(ambrose_module, "_ATTEMPTS", 3)
    with pytest.raises(ValidationError, match=message):
        ambrose_decompose(alg, rng=rng)
    assert state["zero_draws"] == 3


def test_split_takes_one_eigh_after_validation(monkeypatch):
    alg, _ = rotated_sum([2, 1, 3, 1], 4)
    calls = []
    validate = HStarAlgebraData.validate

    def counted(name):
        call = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)
        return wrapper

    def validate_then_count(self, tol):
        validate(self, tol)
        for name in ("eigh", "eigvalsh", "qr", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name))
    monkeypatch.setattr(HStarAlgebraData, "validate", validate_then_count)
    dec = ambrose_decompose(alg, rng=np.random.default_rng(0))
    assert sorted(dec.sizes) == [1, 1, 2, 3]
    assert calls == ["eigh"]


def test_decomposition_memory_is_cubic():
    # n = 48: one n^4 array would be 85 MB, the n^3 table is 1.8 MB
    base = block_model([4, 4, 4], [0.5, 1.0, 1.5])
    alg = change_basis(base, random_unitary(np.random.default_rng(48), base.dim))
    tracemalloc.start()
    try:
        dec = ambrose_decompose(alg, rng=np.random.default_rng(5))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert dec.sizes == (4, 4, 4)
    assert peak_mb < 16.0


def test_recomposition_compares_in_row_blocks(monkeypatch):
    base = block_model([4, 4, 4], [0.5, 1.0, 1.5])
    alg = change_basis(base, random_unitary(np.random.default_rng(48), base.dim))
    dec = ambrose_decompose(alg, rng=np.random.default_rng(5))
    whole = dec.recomposition_dev()
    n = alg.dim
    # four rows per block: 12 blocks, the last one where the table is changed
    monkeypatch.setattr(ambrose_module, "_BLOCK_ENTRIES", 4 * n * n)
    tracemalloc.start()
    try:
        blocked = dec.recomposition_dev()
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert whole < 1e-12 and blocked < 1e-12
    # the n^3 table is 1.7 MB; one block and its temporaries are a few 0.1 MB
    assert peak_mb < 0.6
    table = alg.table.copy()
    table[n - 1, 3, 7] += 1e-3
    bad = ambrose_module.AmbroseDecomposition(
        HStarAlgebraData(n, table, alg.unit, alg.star_matrix), dec.ideals)
    assert abs(bad.recomposition_dev() - 1e-3) < 1e-9
    table[n - 1, 3, 7] = np.nan
    bad = ambrose_module.AmbroseDecomposition(
        HStarAlgebraData(n, table, alg.unit, alg.star_matrix), dec.ideals)
    assert np.isnan(bad.recomposition_dev())


@pytest.mark.parametrize("group", [symmetric_group(4), quaternion_group(), dihedral_group(4)],
                         ids=lambda g: g.name)
def test_group_algebra_splits_into_the_irreducibles(group, rng):
    # the ideal of an irreducible of degree d is End(V) with weight d / |G|
    # (Peter-Weyl); the irreducibles come from Rep(G), an independent path
    degrees = [irr.degree for irr in RepCategory(group).irreps()]
    dec = ambrose_decompose(group_algebra(group), rng=rng)
    assert sorted(dec.sizes) == sorted(degrees)
    for size, weight in zip(dec.sizes, dec.weights):
        assert abs(weight - size / group.order) < 1e-8


# -- the generating set (Light's test) -------------------------------------------

def word_span_dim(alg, gens):
    """Dimension of the span of the words g1(g2(...gk)), grown one word length at a time.

    The rows keep their singular values, so that rounding noise in a small
    direction stays small and does not count as a word.
    """
    t = alg.table
    words = np.eye(alg.dim, dtype=np.complex128)[list(gens)]
    while True:
        _, s, vh = np.linalg.svd(np.concatenate([words] + [words @ t[g] for g in gens]),
                                 full_matrices=False)
        keep = s > 1e-9
        longer = s[keep, None] * vh[keep]
        if len(longer) == len(words):
            return len(words)
        words = longer


# many small ideals: one generic element generates at most a commutative
# subalgebra, so a closure that counts rounding noise as words finds too few
# generators, and too large a center
MANY_IDEALS = {"48xC": [1] * 48, "10xC+5xM2": [1] * 10 + [2] * 5, "12xM2": [2] * 12,
               "12xC+6xM2+3xM3": [1] * 12 + [2] * 6 + [3] * 3}


def rotated_sum(sizes, seed):
    """A direct sum of matrix algebras with random weights, in a random orthonormal basis."""
    rng = np.random.default_rng(seed)
    weights = [float(w) for w in rng.uniform(0.5, 2.0, len(sizes))]
    base = block_model(sizes, weights)
    return change_basis(base, random_unitary(rng, base.dim)), weights


def generator_test_algebras():
    for k, (base, u) in enumerate(rotated_block_models(23, count=6)):
        yield pytest.param(change_basis(base, u), id=f"rotated-{k}")
    for name in ["10xC+5xM2", "12xM2", "12xC+6xM2+3xM3"]:
        yield pytest.param(rotated_sum(MANY_IDEALS[name], 0)[0], id=name)
    for group in [cyclic_group(5), symmetric_group(3), symmetric_group(4)]:
        yield pytest.param(group_algebra(group), id=group.name)
    yield pytest.param(block_model([1], [2.0]), id="one-dimensional")


@pytest.mark.parametrize("alg", list(generator_test_algebras()))
def test_generators_span_every_basis_vector(alg):
    gens = alg.generators
    assert len(gens) >= 1 and len(set(gens)) == len(gens)
    assert word_span_dim(alg, gens) == alg.dim
    assert alg.generators is gens  # kept with the algebra


def loop_generators(alg):
    """The greedy generating set with an SVD of every block of products,
    however small its norm."""
    n, t = alg.dim, alg.table
    eye = np.eye(n)
    span = np.zeros((0, n), dtype=np.complex128)
    gens = []
    while len(span) < n:
        residual = np.linalg.norm(eye - dagger(span) @ span, axis=1)
        outside = np.flatnonzero(residual > 1e3 * DEFAULT_TOL).tolist()
        i = next((j for j in outside if max_dev(t[j], eye) > DEFAULT_TOL), outside[0])
        gens.append(i)
        left = t[gens]
        new = np.vstack([eye[i], span @ t[i]])
        while len(new) and len(span) < n:
            for _ in range(2):
                new = new - (new @ dagger(span)) @ span
            _, s, vh = np.linalg.svd(new, full_matrices=False)
            keep = s > DEFAULT_TOL
            span = np.vstack([span, vh[keep]])
            new = ((s[keep, None] * vh[keep]) @ left).reshape(-1, n)
    return tuple(gens)


def test_generators_skip_the_svd_of_negligible_products(monkeypatch):
    """A block of products whose Frobenius norm is at most DEFAULT_TOL has no
    singular value above the cut: skipping its SVD keeps the generators and
    takes fewer SVDs on algebras shaped like criterion 2's."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    counts = []
    models = [change_basis(base, u) for base, u in rotated_block_models(2, count=50)]
    for alg in models + [group_algebra(symmetric_group(4)), group_algebra(symmetric_group(5))]:
        calls.clear()
        want = loop_generators(alg)
        looped = len(calls)
        calls.clear()
        assert alg.generators == want
        counts.append((len(calls), looped))
    skipped, looped = np.sum(counts[:len(models)], axis=0)
    assert skipped < looped


@pytest.mark.parametrize("group", [symmetric_group(3), symmetric_group(4),
                                   symmetric_group(5), cyclic_group(12)],
                         ids=lambda g: g.name)
def test_group_unit_is_not_a_generator(group):
    # delta_e generates only itself; the other generators' words reach it
    alg = group_algebra(group)
    assert group.identity not in alg.generators
    assert word_span_dim(alg, alg.generators) == alg.dim


def test_one_dimensional_algebras_get_one_generator():
    assert block_model([1], [0.5]).generators == (0,)
    zero = HStarAlgebraData(1, np.zeros((1, 1, 1)), np.ones(1), np.ones((1, 1)))
    assert zero.generators == (0,)


def test_table_is_a_read_only_copy():
    alg = block_model([2], [1.0])
    table = alg.table.copy()
    copy = HStarAlgebraData(alg.dim, table, alg.unit, alg.star_matrix)
    gens = copy.generators
    table[:] = 0.0
    assert max_dev(copy.table, alg.table) == 0.0
    with pytest.raises(ValueError):
        copy.table[0, 0, 0] = 2.0
    with pytest.raises(AttributeError):
        copy.table = table
    assert copy.generators == gens


@pytest.mark.parametrize("alg", [block_model([2, 1], [1.0, 2.0]),
                                 group_algebra(cyclic_group(5)),
                                 group_algebra(symmetric_group(3))], ids=["M2+M1", "Z5", "S3"])
def test_associativity_broken_off_the_generators_still_fails(alg):
    # only products whose first factor is not a generator change, so every
    # associativity slice the check computes is a consequence of Light's test
    i = max(set(range(alg.dim)) - set(alg.generators))
    table = alg.table.copy()
    table[i, i, 0] += 0.3
    broken = HStarAlgebraData(alg.dim, table, alg.unit, alg.star_matrix)
    assert i not in broken.generators
    with pytest.raises(ValidationError, match="^associativity fails"):
        broken.validate()
    assert validate_outcome(loop_validate, broken)[0] == "associativity fails"


def dense_center_projector(alg):
    t, n = alg.table, alg.dim
    commutators = (t.transpose(1, 2, 0) - t.transpose(0, 2, 1)).reshape(n * n, n)
    _, s, vh = np.linalg.svd(commutators, full_matrices=False)  # vh is n x n either way
    basis = vh[int(np.sum(s > 1e-9 * max(1.0, s[0]))):].conj().T
    return basis @ dagger(basis)


@pytest.mark.parametrize("alg", list(generator_test_algebras()))
def test_center_on_generators_matches_the_dense_commutant(alg):
    # the split reads the center off an algebra checked on its generators
    # only; its central projections span the commutant of every basis vector
    dec = ambrose_decompose(alg, rng=np.random.default_rng(7))
    central, _ = np.linalg.qr(np.array([ideal.projection for ideal in dec.ideals]).T)
    assert central.shape[1] == len(dec.ideals)
    assert max_dev(central @ dagger(central), dense_center_projector(alg)) < 1e-10


def test_s5_group_algebra_splits_quickly():
    # 120-dimensional; the dense check of all n^3 triples took about 7 s
    alg = group_algebra(symmetric_group(5))
    start = time.perf_counter()
    dec = ambrose_decompose(alg, rng=np.random.default_rng(5))
    elapsed = time.perf_counter() - start
    assert dec.sizes == (1, 1, 4, 4, 5, 5, 6)
    for size, weight in zip(dec.sizes, dec.weights):
        assert abs(weight - size / 120) < 1e-8
    assert elapsed < 3.0


def test_s5_validate_compares_in_row_blocks():
    alg = group_algebra(symmetric_group(5))
    assert alg.generators  # the closure is not part of the bound
    tracemalloc.start()
    try:
        alg.validate()
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    # the table is 26.4 MB; a whole associativity slice and its temporary took
    # 54 MB, two row blocks of _BLOCK_ENTRIES entries take 32 MB
    assert peak_mb < 40.0


@pytest.mark.parametrize("name, index", [("table", (0, 1, 1)), ("unit", (3,)),
                                         ("star_matrix", (2, 1))])
def test_non_finite_entries_are_refused_before_any_svd(monkeypatch, name, index):
    alg = block_model([2, 1], [1.0, 2.0])
    arrays = {"table": alg.table.copy(), "unit": alg.unit, "star_matrix": alg.star_matrix}
    arrays[name] = arrays[name].copy()
    arrays[name][index] = np.nan
    broken = HStarAlgebraData(alg.dim, **arrays)

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran on non-finite data")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    message = f"^{name} has a non-finite entry at {re.escape(str(index))}$"
    with pytest.raises(ValidationError, match=message):
        broken.validate()
    with pytest.raises(ValidationError, match=message):
        ambrose_decompose(broken, rng=np.random.default_rng(0))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(MANY_IDEALS))
def test_many_small_ideals_split_after_rotation(name, seed):
    sizes = MANY_IDEALS[name]
    alg, weights = rotated_sum(sizes, seed)
    dec = ambrose_decompose(alg, rng=np.random.default_rng(seed))
    got = sorted(zip(dec.sizes, dec.weights))
    want = sorted(zip(sizes, weights))
    assert [g[0] for g in got] == [w[0] for w in want]
    assert max(abs(g[1] - w[1]) for g, w in zip(got, want)) < 1e-7


def test_projections_that_are_not_idempotent_are_refused(monkeypatch):
    # clusters that trade an eigenvector keep their sizes, but the unit's
    # projections onto them are not idempotent
    alg, _ = rotated_sum([2, 2], 3)
    split = ambrose_module.cluster_indices

    def traded(vals, gap):
        clusters = split(vals, gap)
        if len(clusters) >= 2:
            clusters[0][-1], clusters[1][0] = clusters[1][0], clusters[0][-1]
        return clusters
    monkeypatch.setattr(ambrose_module, "cluster_indices", traded)
    with pytest.raises(ValidationError, match="^spectral projections are not idempotent"):
        ambrose_decompose(alg, rng=np.random.default_rng(0))
