import json
import time
import tracemalloc

import numpy as np
import pytest

from twohilb.errors import ValidationError
from twohilb.groups import (
    FiniteGroup,
    FiniteSuperGroup,
    catalog,
    cyclic_group,
    dihedral_group,
    group_from_json,
    load_group,
    product_group,
    quaternion_group,
    symmetric_group,
)
from twohilb.reps import RepCategory


def test_catalog_groups_validate():
    for name, build in catalog().items():
        g = build()
        grp = g.group if isinstance(g, FiniteSuperGroup) else g
        assert grp.order >= 1
        grp.validate()


def test_cyclic_properties():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.is_abelian and g.is_cyclic
    assert g.element_orders[1] == 6
    assert g.inverse(2) == 4


def test_symmetric_group_s3():
    g = symmetric_group(3)
    assert g.order == 6
    assert not g.is_abelian
    assert len(g.conjugacy_classes()) == 3
    assert g.center() == [g.identity]


def test_dihedral_and_quaternion():
    d4 = dihedral_group(4)
    assert d4.order == 8
    assert len(d4.center()) == 2
    q8 = quaternion_group()
    assert q8.order == 8
    assert q8.central_involutions() == [1]
    assert q8.element_orders[2] == 4  # i has order 4


def test_product_group_klein():
    k4 = product_group(cyclic_group(2), cyclic_group(2))
    assert k4.order == 4
    assert k4.is_abelian and not k4.is_cyclic
    assert sorted(k4.element_orders) == [1, 2, 2, 2]


def test_supergroup_validation():
    q8 = quaternion_group()
    z = FiniteSuperGroup.make(q8, 1)
    assert z.z == 1
    with pytest.raises(ValidationError):
        FiniteSuperGroup.make(q8, 2)  # i is not an involution
    s3 = symmetric_group(3)
    with pytest.raises(ValidationError):
        FiniteSuperGroup.make(s3, 2)  # not central


def test_json_round_trip():
    g = dihedral_group(4)
    back = group_from_json(g.to_json())
    assert np.array_equal(back.table, g.table)
    q8 = quaternion_group()
    back = group_from_json({"name": "Q8", "table": q8.table.tolist(), "central_involution": 1})
    assert isinstance(back, FiniteSuperGroup)
    assert back.z == 1 and np.array_equal(back.group.table, q8.table)


def test_table_is_one_read_only_array():
    g = dihedral_group(4)
    assert isinstance(g.table, np.ndarray) and g.table.dtype == int
    assert g.matrix is g.table
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    # make keeps a read-only array that owns its data and copies any other
    assert FiniteGroup.make("D4", g.table).table is g.table
    table = g.table.copy()
    h = FiniteGroup.make("D4", table)
    table[0, 0] = 1
    assert h.table[0, 0] == 0 and not h.table.flags.writeable
    # the JSON form holds Python ints
    assert json.loads(json.dumps(g.to_json()))["table"] == g.table.tolist()


def test_groups_compare_by_name_element_names_and_table():
    assert symmetric_group(4) == symmetric_group(4)
    assert hash(symmetric_group(4)) == hash(symmetric_group(4))
    z4 = cyclic_group(4)
    assert FiniteGroup.make("Z4", z4.table) != z4  # no element names
    assert FiniteGroup.make("C4", z4.table, z4.element_names) != z4
    klein = product_group(cyclic_group(2), cyclic_group(2))
    assert FiniteGroup.make("G", klein.table) != FiniteGroup.make("G", z4.table)
    assert z4 != z4.table.tolist()


def test_s6_holds_one_table():
    """Building S6 (720 elements) keeps its 4 MB table and little else.  At
    the peak it holds the table, the permutation codes and validate's two
    gathers, but no copy of the table: ``make`` keeps the constructor's
    read-only array (4.2 tables when it copied it)."""
    tracemalloc.start()
    try:
        g = symmetric_group(6)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live <= 2 * g.table.nbytes, f"S6 holds {live / 2**20:.1f} MB"
    assert peak <= 3.5 * g.table.nbytes, f"S6 peaks at {peak / g.table.nbytes:.2f} tables"


def test_load_group_names(tmp_path):
    assert load_group("S3").order == 6
    path = tmp_path / "my.json"
    path.write_text('{"name": "Z2", "order": 2, "table": [[0, 1], [1, 0]]}')
    assert load_group(str(path)).order == 2
    with pytest.raises(ValidationError):
        load_group("NoSuchGroup")


def test_broken_table_rejected():
    with pytest.raises(ValidationError):
        FiniteGroup.make("bad", [[0, 1], [0, 1]])


@pytest.mark.parametrize("table", [5, [], [0, 1], [[[0]]]])
def test_a_table_that_is_not_two_dimensional_is_not_square(table):
    with pytest.raises(ValidationError, match="^multiplication table must be square$"):
        FiniteGroup.make("x", table)


@pytest.mark.parametrize("names", [["e"], ["e", "e"], ["e", "a", "a"]])
def test_element_names_must_match_the_table(names):
    with pytest.raises(ValidationError, match="one distinct name per element"):
        FiniteGroup.make("Z2", [[0, 1], [1, 0]], names)


@pytest.mark.parametrize("table, message", [
    ([[0, 0, 1], [1, 2, 0], [2, 0, 1]], "rows must be permutations"),
    # a Latin square: every row and column is a permutation, but no element
    # acts as the identity on both sides
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "no identity element"),
    # permutation rows and the two-sided identity 0, yet (1 1) 1 = 1 and 1 (1 1) = 0
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "multiplication table is not associative"),
])
def test_validate_rejections_keep_their_messages(table, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        FiniteGroup.make("bad", table)


# -- associativity -----------------------------------------------------------------

def ref_is_associative(t: np.ndarray) -> bool:
    """The O(n^3) reference: (ab)c = t[t][a, b, c] against a(bc) = t[:, t][a, b, c]
    for every triple, over blocks of rows a."""
    n = len(t)
    step = max(1, 2 ** 20 // (n * n))
    return all(np.array_equal(t[t[lo:lo + step]], t[lo:lo + step][:, t])
               for lo in range(0, n, step))


def random_loop(rng, n: int) -> np.ndarray:
    """A random Latin square with two-sided identity 0: row and column 0 are
    fixed, the other cells are filled by backtracking over shuffled values."""
    t = np.full((n, n), -1)
    t[0] = t[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        for v in rng.permutation(n):
            if v not in t[i] and v not in t[:, j]:
                t[i, j] = v
                if fill(k + 1):
                    return True
        t[i, j] = -1
        return False
    assert fill(0)
    return t


def relabelled(group: FiniteGroup, rng) -> np.ndarray:
    """An isomorphic copy of the table with the elements renamed at random."""
    sigma = rng.permutation(group.order)
    t = np.empty_like(group.matrix)
    t[np.ix_(sigma, sigma)] = sigma[group.matrix]
    return t


def test_light_test_agrees_with_the_triple_check():
    """Light's test over a greedy generating set accepts exactly the tables
    that the O(n^3) check accepts: random loops of orders 2-7 (mostly not
    associative from order 5 on) and relabelled groups."""
    rng = np.random.default_rng(11)
    tables = [random_loop(rng, n) for n in range(2, 8) for _ in range(25)]
    tables += [relabelled(g, rng) for g in (symmetric_group(3), dihedral_group(4),
                                            quaternion_group(), cyclic_group(6),
                                            symmetric_group(4)) for _ in range(4)]
    outcomes = set()
    for t in tables:
        want = ref_is_associative(t)
        outcomes.add(want)
        if want:
            FiniteGroup.make("loop", t)
        else:
            with pytest.raises(ValidationError,
                               match="^multiplication table is not associative$"):
                FiniteGroup.make("loop", t)
    assert outcomes == {True, False}


def test_generators_generate():
    """Every element is a product of the greedy generators, and a group of
    order n needs at most log2(n) of them.  The walk reaches every element
    but the identity once, from a parent reached before it."""
    for g in (symmetric_group(5), dihedral_group(6),
              product_group(cyclic_group(2), cyclic_group(4)), cyclic_group(1)):
        gens = g.generators
        seen = [g.identity]
        for s, parents, children in g.walk:
            assert s in gens and set(parents.tolist()) <= set(seen)
            assert children.tolist() == [g.mult(x, s) for x in parents.tolist()]
            seen += children.tolist()
        assert sorted(seen) == list(range(g.order))
        reached, frontier = {g.identity}, [g.identity]
        while frontier:
            frontier = [g.mult(x, s) for x in frontier for s in gens
                        if g.mult(x, s) not in reached]
            reached.update(frontier)
        assert reached == set(range(g.order))
        assert len(gens) <= np.log2(g.order)


def test_s6_validates_in_well_under_a_second():
    """The triple check took about 3.6 s on S6 (n = 720); Light's test makes
    two n x n gathers per generator."""
    g = symmetric_group(6)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        g.validate()
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5


# -- the shared catalog ------------------------------------------------------------

def test_catalog_groups_are_shared_and_constructors_fresh():
    assert load_group("S4") is catalog()["S4"]()
    assert load_group("SuperHilb") is catalog()["SuperHilb"]()
    assert symmetric_group(4) is not symmetric_group(4)
    assert symmetric_group(4) == load_group("S4")


def test_json_groups_are_read_on_every_call(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(cyclic_group(2).to_json()))
    first = load_group(str(path))
    assert load_group(str(path)) is not first
    path.write_text(json.dumps(cyclic_group(3).to_json()))
    assert load_group(str(path)).order == 3
    labels = [irr.label for irr in RepCategory(load_group(str(path))).irreps()]
    assert labels == ["1a", "1b", "1c"]
