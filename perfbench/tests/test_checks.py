"""Each checker accepts a right answer and rejects a wrong one.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import sys
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.workloads import parse_moves, parse_rows  # noqa: E402


def perm_table(n):
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[k]] for k in range(n))] for q in elems] for p in elems]


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


S3 = perm_table(3)
S3_LABELS = ["1a", "1b", "2a"]
S3_DEGREES = [1, 1, 2]


def s3_characters():
    """Characters of S3 on its own element order: trivial, sign, standard."""
    elems = sorted(permutations(range(3)))
    fixed = [sum(p[i] == i for i in range(3)) for p in elems]
    sign = [np.linalg.det(np.eye(3)[list(p)]) for p in elems]
    return np.array([[1.0] * 6, sign, [f - 1 for f in fixed]], dtype=complex)


def z3_characters():
    w = np.exp(2j * np.pi / 3)
    return np.array([[w ** (k * g) for g in range(3)] for k in range(3)])


# -- groups -----------------------------------------------------------------------

def test_conjugacy_class_count():
    assert checks.conjugacy_class_count(S3) == 3
    assert checks.conjugacy_class_count(perm_table(4)) == 5
    assert checks.conjugacy_class_count(cyclic_table(7)) == 7


def test_irreps_accepts_the_s3_table():
    assert checks.check_irreps(S3_LABELS, S3_DEGREES, S3, s3_characters()) == []


@pytest.mark.parametrize("labels,degrees", [
    (S3_LABELS, [1, 1, 1]),                # wrong degree: squares sum to 3
    (S3_LABELS[:2], [1, 1]),               # too few irreducibles
    (["1a", "1a", "2a"], S3_DEGREES),
])
def test_irreps_rejects_wrong_lists(labels, degrees):
    assert checks.check_irreps(labels, degrees, S3)


def test_irreps_rejects_characters_that_are_not_orthonormal():
    chars = s3_characters()
    chars[2] = chars[0] * 2
    assert checks.check_irreps(S3_LABELS, S3_DEGREES, S3, chars)


# -- fusion ---------------------------------------------------------------------------

S3_FUSION = {("1a", "1a"): "1a", ("1a", "1b"): "1b", ("1a", "2a"): "2a",
             ("1b", "1a"): "1b", ("1b", "1b"): "1a", ("1b", "2a"): "2a",
             ("2a", "1a"): "2a", ("2a", "1b"): "2a", ("2a", "2a"): "1a + 1b + 2a"}


def fusion_rows(table):
    return [{"left": a, "right": b, "decomposition": d} for (a, b), d in table.items()]


def test_duals_from_characters():
    assert checks.duals_from_characters(["1a", "1b", "1c"], z3_characters()) == \
        {"1a": "1a", "1b": "1c", "1c": "1b"}


def test_fusion_accepts_s3():
    degrees = dict(zip(S3_LABELS, S3_DEGREES))
    duals = checks.duals_from_characters(S3_LABELS, s3_characters())
    assert checks.check_fusion(fusion_rows(S3_FUSION), degrees, duals, "1a") == []


def test_fusion_rejects_a_wrong_multiplicity():
    degrees = dict(zip(S3_LABELS, S3_DEGREES))
    duals = {lab: lab for lab in S3_LABELS}
    wrong = dict(S3_FUSION)
    wrong[("2a", "2a")] = "1a + 2*2a"
    assert checks.check_fusion(fusion_rows(wrong), degrees, duals, "1a")
    missing = dict(S3_FUSION)
    del missing[("1b", "2a")]
    assert checks.check_fusion(fusion_rows(missing), degrees, duals, "1a")


def test_fusion_rejects_the_unit_in_a_non_dual_pair():
    degrees = {"1a": 1, "1b": 1, "1c": 1}
    duals = checks.duals_from_characters(["1a", "1b", "1c"], z3_characters())
    right = {("1a", b): b for b in degrees}
    right.update({("1b", "1a"): "1b", ("1b", "1b"): "1c", ("1b", "1c"): "1a",
                  ("1c", "1a"): "1c", ("1c", "1b"): "1a", ("1c", "1c"): "1b"})
    assert checks.check_fusion(fusion_rows(right), degrees, duals, "1a") == []
    wrong = dict(right)
    wrong[("1b", "1b")], wrong[("1b", "1c")] = "1a", "1c"
    assert checks.check_fusion(fusion_rows(wrong), degrees, duals, "1a")


def test_parse_decomposition():
    assert checks.parse_decomposition("2*2a + 1a") == {"2a": 2, "1a": 1}
    assert checks.parse_decomposition("") == {}


# -- report -------------------------------------------------------------------------------

def report_row(label, degree, dim=None, qdim=None, sign=1, phase="+1.000000", **extra):
    return {"label": label, "degree": degree, "dim": dim if dim is not None else degree,
            "qdim": qdim if qdim is not None else degree, "self_dual_sign": sign,
            "balancing_phase": phase, **extra}


def test_report_accepts_right_rows():
    rows = [report_row("1a", 1), report_row("2a", 2, sign=-1)]
    assert checks.check_report(rows, False, {"2a": -1}) == []
    graded = [report_row("1a", 1, parity="even"),
              report_row("2a", 2, qdim=-2, sign=-1, phase="-1.000000", parity="odd")]
    assert checks.check_report(graded, True, {"2a": -1}) == []


@pytest.mark.parametrize("row,graded", [
    (report_row("2a", 2, dim=3), False),
    (report_row("2a", 2, sign=-1), False),          # S3 2a is real: sign +1
    (report_row("2a", 2, phase="-1.000000"), False),
    (report_row("2a", 2, parity="odd"), True),      # odd: qdim must be -2
])
def test_report_rejects_wrong_rows(row, graded):
    assert checks.check_report([row], graded, {"2a": 1})


# -- tangles and transforms -------------------------------------------------------

def test_closed_value():
    assert checks.check_closed_value(complex(4.0000001), 4) == []
    assert checks.check_closed_value(complex(2.0), 4)


def moves(ambient, fail=None):
    ids = ["zigzag-plus", "zigzag-minus", "zigzag-star-plus", "zigzag-star-minus",
           "r2", "r2-mixed", "r3", "framed-r1-pair", "framed-r1", "crossing-symmetry"]
    return [{"id": i, "passed": i != fail,
             "required": i != "crossing-symmetry" or ambient == 4} for i in ids]


def test_moves():
    assert checks.check_moves(moves(3), 3) == []
    assert checks.check_moves(moves(4), 4) == []
    assert checks.check_moves(moves(3, fail="crossing-symmetry"), 3) == []
    assert checks.check_moves(moves(3, fail="r3"), 3)
    assert checks.check_moves(moves(3), 4)
    assert checks.check_moves(moves(3)[:-1], 3)


def test_moves_text_parser_reads_requirement():
    text = ("move suite for std of S3, ambient 3\n"
            "  r3                   PASS  dev=0.000e+00\n"
            "  crossing-symmetry    fail*  dev=2.0e+00 (not required in ambient 3)\n")
    assert parse_moves(text, "text") == [
        {"id": "r3", "passed": True, "required": True},
        {"id": "crossing-symmetry", "passed": False, "required": False}]


def test_fourier():
    rows = [{"irrep": "1a", "fibers": "1 0"}, {"irrep": "1b", "fibers": "0 1"},
            {"irrep": "(structure-map defect)", "fibers": "1e-16"},
            {"irrep": "(round-trip defect)", "fibers": "0"}]
    assert checks.check_fourier(rows, 2, 1e-9) == []
    not_one_hot = [dict(rows[0], fibers="1 1")] + rows[1:]
    assert checks.check_fourier(not_one_hot, 2, 1e-9)
    same_fiber = [rows[0], dict(rows[1], fibers="1 0")] + rows[2:]
    assert checks.check_fourier(same_fiber, 2, 1e-9)
    defect = rows[:2] + [dict(rows[2], fibers="1.899")] + rows[3:]
    assert checks.check_fourier(defect, 2, 1e-9)


def test_tannaka():
    assert checks.check_tannaka(120, 120) == []
    assert checks.check_tannaka(60, 120)


def test_text_rows_skip_the_title():
    text = "report for SuperRep(Q8, z=-1)\nlabel=2a  degree=2  decomposition=1a + 1b\n"
    assert parse_rows(text, "text") == [{"label": "2a", "degree": "2",
                                         "decomposition": "1a + 1b"}]


# -- dense carriers ------------------------------------------------------------------

Z2_1A = np.ones((2, 1, 1), dtype=complex)
Z2_1B = np.array([[[1]], [[-1]]], dtype=complex)


def z2_carrier(*blocks):
    """Per-element block-diagonal matrices of a direct sum of Z2 irreducibles."""
    return np.array([np.diag([b[g, 0, 0] for b in blocks]) for g in range(2)])


def test_dim_qdim_trace():
    grading = np.diag([1, 1, -1]).astype(complex)
    assert checks.check_dim(3.0, 3) == [] and checks.check_dim(2.0, 3)
    assert checks.check_qdim(1.0, grading) == [] and checks.check_qdim(3.0, grading)
    assert checks.check_trace(2 + 1j, 2 + 1j) == [] and checks.check_trace(2, 2 + 1j)


def test_balancing_rejects_a_non_unitary_answer():
    z = np.diag([1, -1]).astype(complex)
    assert checks.check_balancing(z.copy(), z) == []
    assert checks.check_balancing(2 * z, z)
    assert checks.check_balancing(np.eye(2), z)


def test_decompose():
    x = z2_carrier(Z2_1A, Z2_1B)
    a = SimpleNamespace(label="1a", matrices=Z2_1A)
    b = SimpleNamespace(label="1b", matrices=Z2_1B)
    right = [SimpleNamespace(irrep=a, multiplicity=1, coisometry=np.array([[1, 0]])),
             SimpleNamespace(irrep=b, multiplicity=1, coisometry=np.array([[0, 1]]))]
    assert checks.check_decompose(right, {"1a": 1, "1b": 1, "2a": 0}, x) == []
    assert checks.check_decompose(right, {"1a": 2, "1b": 1}, x)
    swapped = [SimpleNamespace(irrep=a, multiplicity=1, coisometry=np.array([[0, 1]])),
               SimpleNamespace(irrep=b, multiplicity=1, coisometry=np.array([[1, 0]]))]
    assert checks.check_decompose(swapped, {"1a": 1, "1b": 1}, x)


def test_hom_basis():
    x = z2_carrier(Z2_1A, Z2_1B)           # 1a + 1b
    y = z2_carrier(Z2_1A, Z2_1A, Z2_1B)    # 2*1a + 1b: 1*2 + 1*1 = 3 maps
    units = []
    for r, c in [(0, 0), (1, 0), (2, 1)]:
        m = np.zeros((3, 2), dtype=complex)
        m[r, c] = 1
        units.append(m)
    assert checks.check_hom_basis(units, x, y, 3) == []
    assert checks.check_hom_basis(units[:2], x, y, 3)
    assert checks.check_hom_basis([2 * u for u in units], x, y, 3)
    onto_1b = np.zeros((3, 2), dtype=complex)
    onto_1b[2, 0] = 1                       # orthonormal to the others, not equivariant
    assert checks.check_hom_basis(units[:2] + [onto_1b], x, y, 3)

