import numpy as np
import pytest

from twohilb.errors import ValidationError
from twohilb.groups import (
    FiniteGroup,
    FiniteGroupoid,
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
    assert g.element_order(1) == 6
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
    assert q8.element_order(2) == 4  # i has order 4


def test_product_group_klein():
    k4 = product_group(cyclic_group(2), cyclic_group(2))
    assert k4.order == 4
    assert k4.is_abelian and not k4.is_cyclic
    assert sorted(k4.element_order(a) for a in range(4)) == [1, 2, 2, 2]


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
    assert back.table == g.table
    sup = FiniteSuperGroup.make(quaternion_group(), 1)
    back = group_from_json(sup.to_json())
    assert isinstance(back, FiniteSuperGroup)
    assert back.z == 1


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


def test_groupoid_from_components():
    gpd = FiniteGroupoid.from_components([
        (("a",), symmetric_group(3), None),
        (("b", "c"), cyclic_group(2), 1),
    ])
    assert gpd.n_components == 2
    assert not gpd.is_connected
    with pytest.raises(ValidationError):
        FiniteGroupoid.from_components([(("a",), cyclic_group(2), None),
                                        (("a",), cyclic_group(3), None)])


def test_groupoid_from_hom_data():
    # two isomorphic objects, trivial automorphisms
    morphisms = {"ia": ("A", "A"), "ib": ("B", "B"), "f": ("A", "B"), "g": ("B", "A")}
    comp = {("ia", "ia"): "ia", ("ib", "ib"): "ib",
            ("ia", "f"): "f", ("f", "ib"): "f",
            ("ib", "g"): "g", ("g", "ia"): "g",
            ("f", "g"): "ia", ("g", "f"): "ib"}
    gpd = FiniteGroupoid.from_hom_data(["A", "B"], morphisms, comp)
    assert gpd.is_connected
    assert gpd.components[0][1].order == 1


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
