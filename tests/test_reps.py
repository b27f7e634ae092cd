import itertools
import math
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from twohilb.errors import CompositionError, ValidationError
from twohilb.groups import (
    FiniteSuperGroup,
    catalog,
    catalog_names,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from twohilb.linalg import dagger, distance_to_unitary, max_dev, random_unitary
from twohilb.reps import (
    Adjunction,
    Intertwiner,
    RepCategory,
    RepObject,
    frobenius_schur_indicator,
)
from twohilb.tangles import KINK_PLUS, EvalContext, evaluate


@pytest.fixture(scope="module")
def s3():
    return RepCategory(symmetric_group(3))


@pytest.fixture(scope="module")
def super_q8():
    return RepCategory(FiniteSuperGroup.make(quaternion_group(), 1))


@pytest.fixture(scope="module")
def superhilb():
    z2 = cyclic_group(2)
    return RepCategory(FiniteSuperGroup.make(z2, 1))


def test_irrep_degrees_cyclic():
    cat = RepCategory(cyclic_group(3))
    irs = cat.irreps()
    assert [i.degree for i in irs] == [1, 1, 1]
    omega = np.exp(2j * np.pi / 3)
    values = {complex(np.round(i.matrices[1, 0, 0], 6)) for i in irs}
    assert values == {complex(np.round(omega ** k, 6)) for k in range(3)}


def test_irrep_degrees_s3_and_q8(s3, super_q8):
    assert sorted(i.degree for i in s3.irreps()) == [1, 1, 2]
    assert sorted(i.degree for i in super_q8.irreps()) == [1, 1, 1, 1, 2]
    for cat in (s3, super_q8):
        assert sum(i.degree ** 2 for i in cat.irreps()) == cat.group.order
        for irr in cat.irreps():
            cat.object_of_irrep(irr).validate()


def test_q8_parities(super_q8):
    parities = {i.label: i.parity for i in super_q8.irreps()}
    assert parities["2a"] == 1
    assert all(p == 0 for lab, p in parities.items() if lab != "2a")


def test_fusion_s3_std_squared(s3):
    std = s3.irrep("2a")
    square = s3.tensor(std, std)
    mults = s3.skeletal(square).mults
    assert dict(zip(s3.irrep_labels(), mults)) == {"1a": 1, "1b": 1, "2a": 1}
    # oracle: character inner products
    group = s3.group
    chi = square.character
    for irr, mult in zip(s3.irreps(), mults):
        want = int(round(float(np.real(np.sum(np.conj(irr.character) * chi)))
                         / group.order))
        assert mult == want


def test_decompose_standard_form(s3, rng):
    x = s3.random_object(rng, max_dim=6)
    pieces = s3.decompose(x)
    total = sum(dagger(p.coisometry) @ p.coisometry for p in pieces)
    assert max_dev(total, np.eye(x.dim)) < 1e-9
    for p in pieces:
        for g in range(s3.group.order):
            got = p.coisometry @ x.matrices[g] @ dagger(p.coisometry)
            want = np.kron(p.irrep.matrices[g], np.eye(p.multiplicity))
            assert max_dev(got, want) < 1e-8


def test_decompose_draws_nothing_and_is_deterministic(s3, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("decompose drew a random matrix")

    two, one_a, one_b = s3.irrep("2a"), s3.irrep("1a"), s3.irrep("1b")
    x = reduce(s3.direct_sum, [two, two, two, one_a, one_b])
    u = random_unitary(np.random.default_rng(5), x.dim)
    mats = u @ x.matrices @ dagger(u)
    monkeypatch.setattr("twohilb.reps.random_complex", no_draws)
    first = s3.decompose(RepObject(s3, mats))
    second = s3.decompose(RepObject(s3, mats))
    assert [(p.irrep.label, p.multiplicity) for p in first] == [("1a", 1), ("1b", 1), ("2a", 3)]
    for p, q in zip(first, second):
        assert np.array_equal(p.coisometry, q.coisometry)
        for g in range(s3.group.order):
            got = p.coisometry @ mats[g] @ dagger(p.coisometry)
            assert max_dev(got, np.kron(p.irrep.matrices[g], np.eye(p.multiplicity))) < 1e-9


def test_hom_basis_draws_nothing_and_is_deterministic(s3, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("hom_basis drew a random matrix")

    two, one_a = s3.irrep("2a"), s3.irrep("1a")
    x = reduce(s3.direct_sum, [two, one_a, two])
    u = random_unitary(np.random.default_rng(3), x.dim)
    mats = u @ x.matrices @ dagger(u)
    y = reduce(s3.direct_sum, [two, two, two, s3.irrep("1b")])
    monkeypatch.setattr("twohilb.reps.random_complex", no_draws)
    first = s3.hom_basis(RepObject(s3, mats), y)
    # a positional generator is still accepted, and changes nothing
    second = s3.hom_basis(RepObject(s3, mats), y, np.random.default_rng(9))
    assert len(first) == len(second) == s3.hom_dim(x, y) == 6
    for f, g in zip(first, second):
        assert np.array_equal(f.matrix, g.matrix)
        assert f.equivariance_dev() < 1e-9


def test_unit_law_tensor(s3, rng):
    x = s3.random_object(rng, max_dim=5)
    one = s3.unit()
    left = s3.tensor(one, x)
    assert max_dev(left.matrices, x.matrices) < 1e-12
    assert s3.hom_dim(left, x) == s3.hom_dim(x, x)


def test_canonical_adjunction_well_balanced(s3, rng):
    x = s3.random_object(rng, max_dim=5)
    adj = s3.well_balanced_adjunction(x)
    assert adj.triangle_dev() < 1e-9
    b = s3.balancing(x)
    assert max_dev(b.matrix, np.eye(x.dim)) < 1e-9


def test_scaled_adjunction_is_not_well_balanced(s3, rng):
    x = s3.random_object(rng, max_dim=4)
    bad = s3.adjunction(x).scaled(2.0)
    assert bad.triangle_dev() < 1e-9  # still an adjunction
    b_bad = evaluate(KINK_PLUS, EvalContext(s3, x, bad))
    assert max_dev(b_bad.matrix, 4.0 * np.eye(x.dim)) < 1e-9
    assert distance_to_unitary(b_bad.matrix) > 1.0


def test_odd_object_balancing(superhilb):
    odd = superhilb.irrep("1b")
    b = superhilb.balancing(odd)
    assert b.matrix[0, 0] == pytest.approx(-1.0)
    assert superhilb.qdim(odd) == pytest.approx(-1.0)
    assert superhilb.dim(odd) == pytest.approx(1.0)


def test_graded_two_dim_irrep_balancing(super_q8):
    x = super_q8.irrep("2a")  # the grading involution acts by -1
    assert max_dev(x.grading, -np.eye(2)) < 1e-9
    b = super_q8.balancing(x)
    assert max_dev(b.matrix, -np.eye(2)) < 1e-9


def test_balancing_additive(super_q8, rng):
    for _ in range(5):
        x = super_q8.random_object(rng, max_dim=4)
        y = super_q8.random_object(rng, max_dim=4)
        bx = super_q8.balancing(x).matrix
        by = super_q8.balancing(y).matrix
        bxy = super_q8.balancing(super_q8.direct_sum(x, y)).matrix
        direct = np.zeros_like(bxy)
        direct[:x.dim, :x.dim] = bx
        direct[x.dim:, x.dim:] = by
        assert max_dev(bxy, direct) < 1e-9


def test_balancing_tensor_law(super_q8, rng):
    for _ in range(5):
        x = super_q8.random_object(rng, max_dim=3)
        y = super_q8.random_object(rng, max_dim=3)
        lhs = super_q8.balancing(super_q8.tensor(x, y)).matrix
        bxy = np.kron(super_q8.balancing(x).matrix, super_q8.balancing(y).matrix)
        swap_there = super_q8.braiding(x, y).matrix
        swap_back = super_q8.braiding(y, x).matrix
        rhs = swap_back @ swap_there @ bxy
        assert max_dev(lhs, rhs) < 1e-9


def test_adjunction_swap(s3, rng):
    x = s3.random_object(rng, max_dim=4)
    adj = s3.well_balanced_adjunction(x)
    swapped = Adjunction(adj.xstar, adj.x, adj.e.star(), adj.i.star())
    assert swapped.triangle_dev() < 1e-9


def test_braiding_axioms(super_q8, rng):
    x = super_q8.random_object(rng, max_dim=3)
    y = super_q8.random_object(rng, max_dim=3)
    z = super_q8.random_object(rng, max_dim=2)
    bxy = super_q8.braiding(x, y).matrix
    byx = super_q8.braiding(y, x).matrix
    assert max_dev(byx @ bxy, np.eye(x.dim * y.dim)) < 1e-9  # symmetry
    # hexagon: braiding past a tensor product in two steps
    b_x_yz = super_q8.braiding(x, super_q8.tensor(y, z)).matrix
    step = np.kron(np.eye(y.dim), super_q8.braiding(x, z).matrix) \
        @ np.kron(bxy, np.eye(z.dim))
    assert max_dev(b_x_yz, step) < 1e-9
    b_xy_z = super_q8.braiding(super_q8.tensor(x, y), z).matrix
    step2 = np.kron(super_q8.braiding(x, z).matrix, np.eye(y.dim)) \
        @ np.kron(np.eye(x.dim), super_q8.braiding(y, z).matrix)
    assert max_dev(b_xy_z, step2) < 1e-9
    one = super_q8.unit()
    assert max_dev(super_q8.braiding(one, x).matrix, np.eye(x.dim)) < 1e-12


def test_dim_properties(s3, rng):
    std = s3.irrep("2a")
    assert s3.dim(std) == pytest.approx(2.0)
    for _ in range(3):
        x = s3.random_object(rng, max_dim=4)
        y = s3.random_object(rng, max_dim=4)
        assert s3.dim(s3.tensor(x, y)) == pytest.approx(s3.dim(x) * s3.dim(y))
        assert s3.dim(s3.direct_sum(x, y)) == pytest.approx(s3.dim(x) + s3.dim(y))
        assert s3.dim(s3.conjugate(x)) == pytest.approx(s3.dim(x))


def test_dimension_spectrum_integrality(s3, super_q8, rng):
    for cat in (s3, super_q8):
        for irr in cat.irreps():
            d = cat.dim(cat.object_of_irrep(irr))
            assert abs(d - round(d)) < 1e-8 and d >= 0
        x = cat.random_object(rng, max_dim=5)
        d = cat.dim(x)
        assert abs(d - round(d)) < 1e-8


def test_symmetrizers_dim2(s3):
    std = s3.irrep("2a")
    data = s3.symmetrizer_power(std, 2)
    ps, pa = data.symmetrizer.matrix, data.antisymmetrizer.matrix
    assert max_dev(ps + pa, np.eye(4)) < 1e-9
    assert max_dev(ps @ ps, ps) < 1e-9
    assert max_dev(dagger(pa), pa) < 1e-9
    assert np.trace(pa) == pytest.approx(1.0)
    data3 = s3.symmetrizer_power(std, 3)
    assert np.trace(data3.antisymmetrizer.matrix) == pytest.approx(0.0, abs=1e-9)
    assert data3.alternating_part[0].dim == 0  # third exterior power vanishes


def test_falling_factorial_trace(s3):
    std = s3.irrep("2a")
    triv = s3.irrep("1a")
    for x, d in [(std, 2), (s3.direct_sum(std, triv), 3),
                 (s3.direct_sum(std, std), 4)]:
        for n in range(1, 5):
            data = s3.symmetrizer_power(x, n)
            got = float(np.real(np.trace(data.antisymmetrizer.matrix)))
            want = 1.0
            for k in range(n):
                want *= (d - k)
            want /= math.factorial(n)
            assert abs(got - want) < 1e-8


def test_symmetrizer_cap():
    cat = RepCategory(cyclic_group(2))
    with pytest.raises(ValidationError):
        cat.symmetrizer_power(cat.unit(), 7)


def test_random_object_needs_an_admissible_degree(s3):
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        s3.random_object(rng, max_dim=0)


def test_random_object_is_uniform(s3):
    """Copies of 1a, 1b, 2a with entries in 0..2 and degree in 1..3: ten
    vectors, each drawn with frequency 1/10 (chi-square, 9 degrees of
    freedom, below its 0.999 quantile 27.88)."""
    degrees = [i.degree for i in s3.irreps()]
    admissible = [c for c in itertools.product(range(3), repeat=3)
                  if 1 <= sum(a * b for a, b in zip(c, degrees)) <= 3]
    rng = np.random.default_rng(5)
    irreps = [s3.object_of_irrep(i) for i in s3.irreps()]
    draws = 3000
    counts = Counter()
    for _ in range(draws):
        x = s3.random_object(rng, max_dim=3)
        counts[tuple(s3.hom_dim(irr, x) for irr in irreps)] += 1
    assert set(counts) == set(admissible)
    expected = draws / len(admissible)
    chi2 = sum((counts[c] - expected) ** 2 / expected for c in admissible)
    assert chi2 < 27.88


def test_self_duality_classification(s3, super_q8):
    assert s3.classify_self_dual(s3.irrep("2a")).sign == 1
    assert super_q8.classify_self_dual(super_q8.irrep("2a")).sign == -1
    z3 = RepCategory(cyclic_group(3))
    for label in z3.irrep_labels():
        res = z3.classify_self_dual(z3.irrep(label))
        if label == "1a":
            assert res.sign == 1
        else:
            assert res.kind == "not-self-dual"


def test_self_duality_sign_is_cross_checked_against_frobenius_schur(monkeypatch):
    """A dagger transform that flips the sign makes S3's real 2a read as
    quaternionic; its Frobenius-Schur indicator is +1, so this raises."""
    cat = RepCategory(symmetric_group(3))
    monkeypatch.setattr(cat, "dagger_transform",
                        lambda f: Intertwiner(f.src, f.dst, -f.matrix.T))
    with pytest.raises(ValidationError, match="sign -1 disagrees with the "
                                              "Frobenius-Schur indicator 1.0000"):
        cat.classify_self_dual(cat.irrep("2a"))


def test_self_duality_matches_frobenius_schur(s3, super_q8):
    for cat in (s3, super_q8, RepCategory(dihedral_group(4))):
        for irr in cat.irreps():
            fs = frobenius_schur_indicator(cat.group, irr.character)
            res = cat.classify_self_dual(cat.object_of_irrep(irr))
            if round(fs) == 0:
                assert res.kind == "not-self-dual"
            else:
                assert res.sign == round(fs)


def test_bosonization(superhilb, super_q8, rng):
    odd = superhilb.irrep("1b")
    assert superhilb.braiding(odd, odd).matrix[0, 0] == pytest.approx(-1.0)
    flat = superhilb.bosonized()
    assert flat.braiding(odd, odd).matrix[0, 0] == pytest.approx(1.0)
    # general-object correction: flat braiding equals graded braiding
    # composed with the parity-sign operator (1 + gx + gy - gx gy) / 2,
    # which is -1 exactly where both factors are odd
    x = super_q8.random_object(rng, max_dim=4)
    y = super_q8.random_object(rng, max_dim=4)
    flat_q8 = super_q8.bosonized()
    graded = super_q8.braiding(x, y).matrix
    gx, gy, ex, ey = x.grading, y.grading, np.eye(x.dim), np.eye(y.dim)
    correction = 0.5 * (np.kron(ex, ey) + np.kron(ex, gy) + np.kron(gx, ey) - np.kron(gx, gy))
    assert max_dev(flat_q8.braiding(x, y).matrix, graded @ correction) < 1e-9
    # all balancings become the identity
    for irr in super_q8.irreps():
        b = flat_q8.balancing(flat_q8.object_of_irrep(irr)).matrix
        assert max_dev(b, np.eye(irr.degree)) < 1e-9


def test_even_pairs_unchanged_by_bosonization(super_q8):
    x = super_q8.irrep("1b")
    y = super_q8.irrep("1c")
    flat = super_q8.bosonized()
    assert max_dev(super_q8.braiding(x, y).matrix, flat.braiding(x, y).matrix) < 1e-12


def test_well_balanced_uniqueness(s3, rng):
    x = s3.random_object(rng, max_dim=4)
    first = s3.well_balanced_adjunction(x)
    phase = np.exp(0.7j)
    twisted = Adjunction(
        x, first.xstar,
        Intertwiner(first.i.src, first.i.dst, phase * first.i.matrix),
        Intertwiner(first.e.src, first.e.dst, first.e.matrix / phase))
    assert twisted.triangle_dev() < 1e-9
    twist = evaluate(KINK_PLUS, EvalContext(s3, x, twisted))
    assert distance_to_unitary(twist.matrix) < 1e-9
    # the comparison map (e (x) 1)(1 (x) i') = (E I')^T between the two duals
    d = x.dim
    e_first = first.e.matrix.reshape(d, d)
    i_twisted = twisted.i.matrix.reshape(d, d)
    u = Intertwiner(first.xstar, twisted.xstar, (e_first @ i_twisted).T)
    assert max_dev(u.matrix @ dagger(u.matrix), np.eye(u.matrix.shape[0])) < 1e-8
    assert u.equivariance_dev() < 1e-8


def test_trace_agreement_and_quantum(super_q8, rng):
    x = super_q8.random_object(rng, max_dim=4)
    f = super_q8.identity_map(x)
    assert super_q8.trace(f) == pytest.approx(x.dim)
    # quantum dimension counts parity with signs
    qd = super_q8.qdim(x)
    grading_trace = float(np.real(np.trace(x.grading)))
    assert qd == pytest.approx(grading_trace)


def test_then_refuses_mismatched_endpoints(s3):
    # both one-dimensional, so only the carriers tell 1a and 1b apart
    with pytest.raises(CompositionError):
        s3.identity_map(s3.irrep("1a")).then(s3.identity_map(s3.irrep("1b")))
    # equal carriers on distinct objects compose
    first, second = s3.irrep("2a"), s3.irrep("2a")
    assert first is not second
    composite = s3.identity_map(first).then(s3.identity_map(second))
    assert composite.src is first and composite.dst is second


def test_sum_refuses_mismatched_endpoints(s3):
    one_a, one_b = s3.irrep("1a"), s3.irrep("1b")
    with pytest.raises(CompositionError):
        s3.identity_map(one_a) + s3.identity_map(one_b)
    # equal carriers on distinct objects add
    first, second = s3.irrep("2a"), s3.irrep("2a")
    total = s3.identity_map(first) + Intertwiner(first, second, np.eye(2))
    assert max_dev(total.matrix, 2 * np.eye(2)) == 0.0
    # one tensor object is matched by identity: its carrier is not built
    xx = s3.tensor(first, first)
    s3.identity_map(xx) + s3.identity_map(xx)
    assert "matrices" not in vars(xx)


def test_trace_refuses_a_map_between_distinct_objects(s3):
    one_a, one_b = s3.irrep("1a"), s3.irrep("1b")
    with pytest.raises(CompositionError, match="endomorphism"):
        s3.trace(Intertwiner(one_a, one_b, np.eye(1)))
    assert s3.trace(s3.identity_map(one_b)) == pytest.approx(1.0)


def test_labels_past_26_irreducibles_of_one_degree():
    labels = RepCategory(cyclic_group(27)).irrep_labels()
    letters = "abcdefghijklmnopqrstuvwxyz"
    assert labels == [f"1{c}" for c in letters] + ["1aa"]
    z60 = RepCategory(cyclic_group(60)).irrep_labels()
    assert z60[:27] == labels
    assert z60[26:30] == ["1aa", "1ab", "1ac", "1ad"]
    assert z60[51:] == ["1az", "1ba", "1bb", "1bc", "1bd", "1be", "1bf", "1bg", "1bh"]


# k for each label in order: the irreducible labelled there has the character
# g -> exp(2 pi i k g / n); ties of the rounded real part at the generator
# are broken by the imaginary part
Z27_EXPONENTS = [0, 14, 13, 15, 12, 16, 11, 17, 10, 18, 9, 19, 8, 20, 7, 21, 6, 22, 5,
                 23, 4, 24, 3, 25, 2, 26, 1]
Z60_EXPONENTS = [0, 30, 31, 29, 32, 28, 33, 27, 34, 26, 35, 25, 36, 24, 37, 23, 38, 22,
                 39, 21, 40, 20, 41, 19, 42, 18, 43, 17, 44, 16, 45, 15, 46, 14, 47, 13,
                 48, 12, 49, 11, 50, 10, 51, 9, 52, 8, 53, 7, 54, 6, 55, 5, 56, 4, 57, 3,
                 58, 2, 59, 1]


@pytest.mark.parametrize("n, exponents", [(27, Z27_EXPONENTS), (60, Z60_EXPONENTS)])
def test_cyclic_labels_follow_their_characters(n, exponents):
    cat = RepCategory(cyclic_group(n))
    powers = np.arange(n)
    assert cat.irrep_labels()[:3] == ["1a", "1b", "1c"]
    for irr, k in zip(cat.irreps(), exponents, strict=True):
        assert max_dev(irr.character, np.exp(2j * np.pi * k * powers / n)) < 1e-9


def test_rep_object_validation_catches_errors(s3):
    mats = np.stack([np.eye(2)] * 6)
    mats[2] = np.array([[1.0, 1.0], [0.0, 1.0]])  # not unitary
    broken = RepObject(s3, mats)
    with pytest.raises(ValidationError, match="does not act unitarily") as err:
        broken.validate()
    assert err.value.violation == pytest.approx(1.0)
    assert s3.group.element_name(2) in str(err.value)
    mats = np.stack([np.eye(2)] * 6)
    mats[3] = -np.eye(2)  # unitary but not a homomorphism
    broken = RepObject(s3, mats)
    with pytest.raises(ValidationError, match="group product"):
        broken.validate()
    mats[3] = np.eye(2)
    mats[s3.group.identity] = -np.eye(2)
    with pytest.raises(ValidationError, match="identity does not act"):
        RepObject(s3, mats).validate()
    # the trivial group has no generators
    assert RepCategory(cyclic_group(1)).unit().validate() == 0.0


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_irreducible_is_a_unitary_representation(name):
    cat = RepCategory(catalog()[name]())
    for irr in cat.irreps():
        assert cat.object_of_irrep(irr).validate() < 1e-8


def test_decompose_rejects_non_integral_multiplicity(s3):
    # a sign on one transposition only is no representation: <chi, 1> = 2/3
    mats = np.ones((6, 1, 1), dtype=np.complex128)
    mats[1] = -1.0
    with pytest.raises(ValidationError, match="non-integral multiplicity"):
        s3.decompose(RepObject(s3, mats))


def test_balancing_dim_and_trace_build_no_adjunction(monkeypatch, super_q8):
    """balancing, dim, qdim and trace read the canonical duality in closed
    form: no adjunction and no conjugate representation is built, graded or
    bosonic."""
    s4 = RepCategory(symmetric_group(4))
    cases = [(super_q8, super_q8.irrep("2a")), (s4, s4.irrep("3a"))]

    def forbidden(*args, **kwargs):
        raise AssertionError("a duality was built")

    monkeypatch.setattr(RepCategory, "adjunction", forbidden)
    monkeypatch.setattr(RepCategory, "conjugate", forbidden)
    for cat, x in cases:
        grading = x.grading
        assert max_dev(cat.balancing(x).matrix, grading) < 1e-12
        assert cat.dim(x) == pytest.approx(x.dim)
        assert cat.qdim(x) == pytest.approx(np.trace(grading).real)
        f = cat.identity_map(x)
        assert cat.trace(f) == pytest.approx(x.dim)
        assert cat.trace(f, quantum=True) == pytest.approx(np.trace(grading).real)


def test_balancing_and_dims_of_a_tensor_product_leave_its_carrier_unbuilt(super_q8, s3):
    for cat, labels in ((super_q8, ("2a", "1b")), (s3, ("2a", "2a"))):
        x, y = (cat.irrep(label) for label in labels)
        xy = cat.tensor(x, y)
        want = np.kron(x.grading, y.grading)
        assert max_dev(cat.balancing(xy).matrix, want) < 1e-12
        assert cat.dim(xy) == pytest.approx(xy.dim)
        assert cat.qdim(xy) == pytest.approx(np.trace(want).real)
        assert "matrices" not in vars(xy)


def test_canonical_bosonic_duality_needs_no_svd(monkeypatch):
    cat = RepCategory(symmetric_group(4))
    x = cat.irrep("3a")

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert np.array_equal(cat.balancing(x).matrix, np.eye(3))
    assert cat.dim(x) == 3.0
    assert cat.qdim(x) == 3.0
    ctx = EvalContext.make(cat, x, ambient=4)
    assert ctx.adjunction.triangle_dev() == 0.0


def test_graded_balancing_that_is_not_unitary_raises(superhilb):
    # even + odd on a carrier rotated by a non-unitary change of basis: the
    # grading s diag(1, -1) s^-1, which is the balancing, is not unitary
    s = np.array([[1.0, 1.0], [0.0, 1.0]])
    mats = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    x = RepObject(superhilb, s @ mats @ np.linalg.inv(s))
    with pytest.raises(ValidationError, match="balancing is not unitary"):
        superhilb.balancing(x)
    with pytest.raises(ValidationError, match="balancing is not unitary"):
        superhilb.well_balanced_adjunction(x)


def test_graded_duality_needs_no_svd(monkeypatch, super_q8, superhilb):
    cases = [(super_q8, super_q8.irrep("2a")), (superhilb, superhilb.irrep("1b"))]

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for cat, x in cases:
        grading = x.grading
        assert max_dev(cat.balancing(x).matrix, grading) < 1e-12
        assert cat.dim(x) == pytest.approx(x.dim)
        assert cat.qdim(x) == pytest.approx(np.trace(grading).real)
        f = cat.identity_map(x)
        assert cat.trace(f) == pytest.approx(x.dim)
        assert cat.trace(f, quantum=True) == pytest.approx(np.trace(grading).real)
        assert EvalContext.make(cat, x, ambient=4).adjunction.triangle_dev() == 0.0


def _rotated_sum(cat, labels, seed):
    """The direct sum of the named irreducibles, rotated by a random unitary."""
    x = reduce(cat.direct_sum, [cat.irrep(label) for label in labels])
    u = random_unitary(np.random.default_rng(seed), x.dim)
    return RepObject(cat, u @ x.matrices @ dagger(u))


def _one_eigh_case(name, super_q8):
    if name == "S4":
        cat = RepCategory(symmetric_group(4))
        return cat, _rotated_sum(cat, ["1a", "2a", "3a", "3b", "3b"], 1)
    if name == "SuperQ8":
        return super_q8, _rotated_sum(super_q8, ["1a", "1b", "1c", "1d", "2a", "2a"], 2)
    cat = RepCategory(cyclic_group(12))
    x = cat.direct_sum(cat.irrep("1b"), cat.irrep("1c"))
    y = reduce(cat.direct_sum, [cat.irrep("1d"), cat.irrep("1e"), cat.irrep("1f")])
    return cat, cat.tensor(x, y)


@pytest.mark.parametrize("name, present", [("S4", 4), ("SuperQ8", 5), ("Z12-tensor", 5)])
def test_decompose_makes_one_eigh(monkeypatch, super_q8, name, present):
    cat, x = _one_eigh_case(name, super_q8)
    # the skeletal image of a copy: the irreducibles are split before counting
    # and x's own decomposition is not yet kept
    mults = cat.skeletal(RepObject(cat, x.matrices)).mults
    assert np.count_nonzero(mults) == present
    calls = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    pieces = cat.decompose(x)
    assert len(calls) == 1
    assert cat.skeletal(x).mults == mults
    for p in pieces:
        u = p.coisometry
        for g in range(cat.group.order):
            want = np.kron(p.irrep.matrices[g], np.eye(p.multiplicity))
            assert max_dev(u @ x.matrices[g] @ dagger(u), want) < 1e-9


def test_decompose_of_a_non_unitary_carrier_raises(s3):
    # 2a + 1a under a non-unitary change of basis: the characters, and so the
    # multiplicities, are unchanged, but the E_00 are no orthogonal projectors
    x = s3.direct_sum(s3.irrep("2a"), s3.irrep("1a"))
    s = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    y = RepObject(s3, s @ x.matrices @ np.linalg.inv(s))
    assert max_dev(y.character, x.character) < 1e-12
    assert s3.skeletal(x).mults == (1, 0, 1)
    with pytest.raises(ValidationError):
        s3.decompose(y)


class _CountedStack(np.ndarray):
    """A coefficient stack that records each product taken with it."""

    products: list = []

    def __matmul__(self, other):
        self.products.append(np.shape(other))
        return np.matmul(self.view(np.ndarray), other)


@pytest.mark.parametrize("name, present", [("S4", 4), ("SuperQ8", 5), ("Z12-tensor", 5)])
def test_decompose_makes_one_contraction_over_the_group(monkeypatch, super_q8, name, present):
    """One product of x's matrices with the category's coefficient stack,
    whatever the number of irreducibles present."""
    cat, x = _one_eigh_case(name, super_q8)
    stack, owner, level = cat._coefficients()
    assert stack.shape == (sum(i.degree for i in cat.irreps()), cat.group.order)
    assert cat._coefficients()[0] is stack
    monkeypatch.setattr(_CountedStack, "products", [])
    monkeypatch.setitem(cat._shared, "coefficients", (stack.view(_CountedStack), owner, level))
    pieces = cat.decompose(x)
    assert len(pieces) == present
    assert _CountedStack.products == [(cat.group.order, x.dim * x.dim)]


@pytest.mark.parametrize("name", ["S3", "D4", "SuperQ8"])
def test_decompose_of_the_zero_object(super_q8, name):
    cat = super_q8 if name == "SuperQ8" else RepCategory(catalog()[name]())
    zero = RepObject(cat, np.zeros((cat.group.order, 0, 0)))
    assert cat.decompose(zero) == []
    assert cat.coordinates(zero).shape == (0, 0)
    assert cat.skeletal(zero).mults == (0,) * len(cat.irreps())


@pytest.mark.parametrize("name", ["S4", "SuperQ8", "Z12-tensor"])
def test_coisometries_are_row_blocks_of_the_kept_coordinates(super_q8, name):
    """coordinates(x) is built once and kept read-only on x; each piece's
    co-isometry is a view of its rows, in irreducible order."""
    cat, x = _one_eigh_case(name, super_q8)
    u = cat.coordinates(x)
    assert cat.coordinates(x) is u and u.shape == (x.dim, x.dim)
    assert max_dev(dagger(u) @ u, np.eye(x.dim)) < 1e-12
    r = 0
    for p in cat.decompose(x):
        size = p.irrep.degree * p.multiplicity
        assert np.shares_memory(p.coisometry, u)
        assert np.array_equal(p.coisometry, u[r:r + size])
        r += size
    assert r == x.dim
    with pytest.raises(ValueError):
        u[0, 0] = 1.0
    with pytest.raises(ValueError):
        cat.decompose(x)[0].coisometry[0, 0] = 1.0


def test_decompose_refuses_a_wrong_multiplicity_vector(s3, monkeypatch):
    """An integral vector of the right total degree that is not x's, S3's
    2a + 1a claimed as three copies of 1a, does not fit the eigenvalue
    blocks: decompose names the irreducible instead of slicing."""
    x = s3.direct_sum(s3.irrep("2a"), s3.irrep("1a"))
    assert s3.skeletal(RepObject(s3, x.matrices)).mults == (1, 0, 1)
    monkeypatch.setattr(RepCategory, "_multiplicity_vector",
                        lambda self, obj: np.array([3, 0, 0]))
    with pytest.raises(ValidationError, match="multiplicity space of 1a has dimension 1, not 3"):
        s3.decompose(x)
    assert x._isotypic is None


def test_shared_arrays_are_read_only(s3):
    """The group table, the inverse array and the irreducible matrices are
    shared by every caller (object_of_irrep does not copy), so an in-place
    write must fail instead of corrupting them."""
    group = s3.group
    irr = s3.irreps()[0]
    x = s3.object_of_irrep(irr)
    shared = [group.matrix, group.inverses, irr.matrices, x.matrices]
    for arr in shared:
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_character_table_is_read_only(s3):
    """The category's character table is built once and shared by every
    multiplicity, fusion rule and dual group computed from it."""
    table = s3.character_table()
    assert table is s3.character_table() and table.shape == (3, 6)
    assert max_dev(table, [irr.character for irr in s3.irreps()]) == 0.0
    with pytest.raises(ValueError):
        table[0] = table[1]
    with pytest.raises(ValueError):
        table[1, 1] += 1.0


def test_categories_of_one_group_share_its_irreducibles():
    """The irreducibles, character table, fusion rules and skeleton are kept
    on the group, one immutable value per grading, and every category reads
    the same one."""
    q8 = quaternion_group()
    cat, other = RepCategory(q8), RepCategory(q8)
    irreps = cat.irreps()
    assert isinstance(irreps, tuple)
    assert other.irreps() is irreps
    assert other.character_table() is cat.character_table()
    assert other.fusion_rules() is cat.fusion_rules()
    assert other.skeleton() is cat.skeleton()
    with pytest.raises(TypeError):
        irreps[0] = irreps[1]
    with pytest.raises(ValueError):
        irreps[0].matrices[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        cat.fusion_rules()[0, 0, 0] = 2
    graded = RepCategory(FiniteSuperGroup.make(q8, 1))
    assert graded.irreps() is not irreps
    assert [i.parity for i in graded.irreps()] == [0, 0, 0, 0, 1]
    assert graded.bosonized().irreps() is graded.irreps()
    assert RepCategory(quaternion_group()).irreps() is not irreps  # a fresh group
