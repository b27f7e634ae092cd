"""Fusion rules from the character table against tensor decompositions.

``RepCategory.fusion_rules`` contracts the character table once; the
reference below builds the carrier of every tensor product of two simples
and decomposes it (the co-isometries of ``decompose`` must resolve the
identity on that carrier, so a wrong multiplicity cannot pass).
"""
import json

import numpy as np
import pytest

from twohilb.cli import main
from twohilb.errors import ValidationError
from twohilb.groups import catalog
from twohilb.reps import RepCategory, _fusion_rules, _TensorObject

CATALOG = sorted(catalog())


def ref_fusion_rules(cat):
    """N[a, b, c] from the decomposition of the carrier of a (x) b."""
    labels = cat.irrep_labels()
    order = cat.group.order
    table = np.zeros((len(labels),) * 3, dtype=int)
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            square = cat.tensor(cat.irrep(la), cat.irrep(lb))
            chi = np.einsum("gii->g", square.matrices)  # from the carrier
            pieces = {p.irrep.label: p.multiplicity for p in cat.decompose(square)}
            for c, irr in enumerate(cat.irreps()):
                inner = np.sum(np.conj(irr.character) * chi) / order
                assert abs(inner - pieces.get(irr.label, 0)) < 1e-9
                table[a, b, c] = pieces.get(irr.label, 0)
    return table


def dual_indices(cat):
    """dual[a]: the irreducible whose character is the conjugate of a's."""
    chars = cat.character_table()
    return [int(np.argmin(np.max(np.abs(chars - np.conj(row)), axis=1))) for row in chars]


@pytest.mark.parametrize("name", CATALOG)
def test_fusion_rules_match_tensor_decompositions(name):
    cat = RepCategory(catalog()[name]())
    assert np.array_equal(cat.fusion_rules(), ref_fusion_rules(cat))


@pytest.mark.parametrize("name", CATALOG)
def test_fusion_rules_are_a_fusion_ring(name):
    cat = RepCategory(catalog()[name]())
    table = cat.fusion_rules()
    k = len(table)
    degrees = np.array([i.degree for i in cat.irreps()])
    unit = cat.irrep_labels().index("1a")
    assert np.allclose(cat.character_table()[unit], 1.0)
    assert np.array_equal(table, table.transpose(1, 0, 2))  # N_ab^c = N_ba^c
    assert np.array_equal(table[unit], np.eye(k, dtype=int))  # 1 (x) b = b
    dual = dual_indices(cat)
    want_unit = np.zeros((k, k), dtype=int)
    want_unit[np.arange(k), dual] = 1  # N_ab^1 = delta(b, a*)
    assert np.array_equal(table[:, :, unit], want_unit)
    assert np.array_equal(table @ degrees, np.outer(degrees, degrees))


def test_fusion_builds_no_tensor_product(monkeypatch, capsys):
    # the table the command prints is the skeletal image of each tensor product
    cat = RepCategory(catalog()["S4"]())
    table = cat.fusion_rules()
    for a, la in enumerate(cat.irrep_labels()):
        for b, lb in enumerate(cat.irrep_labels()):
            square = cat.tensor(cat.irrep(la), cat.irrep(lb))
            assert cat.skeletal(square).mults == tuple(table[a, b].tolist())
    want = {}
    for fmt in ("text", "json", "csv"):
        assert main(["fusion", "--group", "S4", "--format", fmt]) == 0
        want[fmt] = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("fusion built or decomposed a tensor product")

    monkeypatch.setattr(RepCategory, "decompose", refuse)
    monkeypatch.setattr(_TensorObject, "matrices", property(refuse))
    for name in ("S4", "Q8", "Z12", "SuperHilb"):
        for fmt in ("text", "json", "csv"):
            assert main(["fusion", "--group", name, "--format", fmt]) == 0
            out = capsys.readouterr().out
            if name == "S4":
                assert out == want[fmt]
    assert main(["fusion", "--group", "S3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {(r["left"], r["right"]): r["decomposition"] for r in rows}[("2a", "2a")] \
        == "1a + 1b + 2a"


def test_fusion_rejects_a_non_integral_character_table():
    cat = RepCategory(catalog()["S3"]())
    chars = np.array(cat.character_table())
    assert np.array_equal(_fusion_rules(chars), cat.fusion_rules())
    chars[2, 1] += 0.3
    with pytest.raises(ValidationError, match="non-integral fusion multiplicity"):
        _fusion_rules(chars)


def test_fusion_rejects_a_table_that_misses_the_dimension_count():
    cat = RepCategory(catalog()["S3"]())
    # without the sign character, 2a (x) 2a = 1a + 1b + 2a loses 1b
    chars = np.array(cat.character_table())[[0, 2]]
    with pytest.raises(ValidationError, match="not sums of characters"):
        _fusion_rules(chars)


def test_fusion_checks_the_character_identity_at_every_element():
    """Z3 with row 2 turned by phases 7e-7: the multiplicities round to the
    table of Z3, and the products miss their rows by 1.4e-6 away from e."""
    z3 = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3)
    assert np.array_equal(_fusion_rules(z3).argmax(axis=2), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    z3[2, 1:] *= np.exp([7e-7j, -7e-7j])
    with pytest.raises(ValidationError, match="not sums of characters") as err:
        _fusion_rules(z3)
    assert 1e-6 < err.value.violation < 2e-6


def test_fusion_rejects_a_negative_multiplicity():
    """Z2's rows (1, 1) and (i, -i) are orthonormal, and (i, -i)^2 = -(1, 1):
    the identity holds with N = -1."""
    with pytest.raises(ValidationError, match="negative fusion multiplicity -1"):
        _fusion_rules(np.array([[1, 1], [1j, -1j]]))
