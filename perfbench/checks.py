"""Correctness checkers for the benchmark's outputs.

Each checker tests an output against a property it must have, or against a
value the benchmark computes on its own from the inputs (a group's
multiplication table, the multiplicities and matrices an object was built
from).  None compares with a stored copy of an earlier output.  Every
checker returns a list of problems, empty when the output is right.
"""
from __future__ import annotations

import re

import numpy as np

TOL = 1e-6


def _close(value, want, tol=TOL) -> bool:
    return abs(value - want) <= tol * max(1.0, abs(want))


def degree_of(label: str) -> int:
    """Irreducible labels are the degree followed by letters, as in '2a'."""
    match = re.match(r"(\d+)[a-z]+$", label)
    if match is None:
        raise ValueError(f"irreducible label {label!r} does not start with its degree")
    return int(match.group(1))


# -- groups --------------------------------------------------------------------

def conjugacy_class_count(table) -> int:
    """Number of conjugacy classes, from the multiplication table alone."""
    t = np.asarray(table, dtype=int)
    n = len(t)
    identity = next(e for e in range(n) if np.array_equal(t[e], np.arange(n)))
    inverse = np.argmax(t == identity, axis=1)
    seen = np.zeros(n, dtype=bool)
    count = 0
    for a in range(n):
        if not seen[a]:
            seen[t[t[:, a], inverse]] = True  # g a g^-1 for every g
            count += 1
    return count


def duals_from_characters(labels, chars) -> dict:
    """The dual of each irreducible is the one with the conjugate character."""
    chars = np.asarray(chars)
    out = {}
    for a, label in enumerate(labels):
        hits = [labels[b] for b in range(len(labels))
                if np.max(np.abs(chars[b] - np.conj(chars[a]))) < TOL]
        if len(hits) == 1:
            out[label] = hits[0]
    return out


def check_irreps(labels, degrees, table, chars=None) -> list[str]:
    """As many irreducibles as conjugacy classes, sum of squared degrees equal
    to the order, and (given characters) orthonormal characters whose value
    at the identity is the degree."""
    problems = []
    order = len(table)
    classes = conjugacy_class_count(table)
    if len(labels) != classes:
        problems.append(f"{len(labels)} irreducibles for {classes} conjugacy classes")
    if len(set(labels)) != len(labels):
        problems.append("irreducible labels repeat")
    if sum(d * d for d in degrees) != order:
        problems.append(f"sum of squared degrees {sum(d * d for d in degrees)} != {order}")
    if chars is not None:
        chars = np.asarray(chars, dtype=complex)
        t = np.asarray(table, dtype=int)
        identity = next(e for e in range(order) if np.array_equal(t[e], np.arange(order)))
        if np.max(np.abs(chars[:, identity] - np.asarray(degrees))) > TOL:
            problems.append("character at the identity is not the degree")
        gram = chars @ chars.conj().T / order
        if np.max(np.abs(gram - np.eye(len(chars)))) > TOL:
            problems.append("characters are not orthonormal")
    return problems


def parse_decomposition(text: str) -> dict:
    """'2*2a + 1a' -> {'2a': 2, '1a': 1}."""
    out = {}
    for piece in filter(None, (p.strip() for p in text.split("+"))):
        count, _, label = piece.rpartition("*")
        out[label] = out.get(label, 0) + (int(count) if count else 1)
    return out


def check_fusion(rows, degrees: dict, duals: dict, trivial: str) -> list[str]:
    """Every pair appears; sum of n * deg equals deg(a) deg(b); the trivial
    irreducible occurs in a (x) b once exactly when b is the dual of a."""
    problems = []
    pairs = {(r["left"], r["right"]) for r in rows}
    if pairs != {(a, b) for a in degrees for b in degrees}:
        problems.append("fusion table does not list every pair once")
    for row in rows:
        a, b = row["left"], row["right"]
        mults = parse_decomposition(row["decomposition"])
        total = sum(n * degrees.get(lab, 0) for lab, n in mults.items())
        if total != degrees[a] * degrees[b] or set(mults) - set(degrees):
            problems.append(f"{a}*{b} = {row['decomposition']} has the wrong dimension")
        if mults.get(trivial, 0) != (1 if duals.get(a) == b else 0):
            problems.append(f"{a}*{b} contains the unit {mults.get(trivial, 0)} times")
    return problems


def check_report(rows, graded: bool, signs: dict | None = None) -> list[str]:
    """dim is the degree; qdim and the balancing phase are the sign of z on
    the irreducible (+1 ungraded); known Frobenius-Schur signs hold."""
    problems = []
    for row in rows:
        label, degree = row["label"], int(row["degree"])
        parity = -1 if graded and row.get("parity") == "odd" else 1
        if not _close(float(row["dim"]), degree):
            problems.append(f"{label}: dim {row['dim']} != degree {degree}")
        if not _close(float(row["qdim"]), parity * degree):
            problems.append(f"{label}: qdim {row['qdim']} != {parity * degree}")
        if not _close(float(row["balancing_phase"]), parity):
            problems.append(f"{label}: balancing phase {row['balancing_phase']} != {parity}")
        if signs and label in signs and str(row["self_dual_sign"]) != str(signs[label]):
            problems.append(f"{label}: self-duality sign {row['self_dual_sign']} "
                            f"!= {signs[label]}")
    return problems


# -- tangles and transforms ----------------------------------------------------------

def check_closed_value(value: complex, want: float) -> list[str]:
    if _close(value, want):
        return []
    return [f"closed tangle evaluates to {value}, not {want}"]


def check_moves(entries, ambient: int) -> list[str]:
    """The full move list for ambient 3 or 4, each required move passing;
    crossing symmetry is required only in ambient 4."""
    problems = []
    if len(entries) != 10:
        problems.append(f"{len(entries)} moves, not 10")
    for e in entries:
        if e["required"] and not e["passed"]:
            problems.append(f"required move {e['id']} fails")
        if e["id"] == "crossing-symmetry" and e["required"] != (ambient == 4):
            problems.append("crossing symmetry required in the wrong ambient dimension")
    return problems


def check_fourier(rows, order: int, tol: float) -> list[str]:
    """Each irreducible of an abelian group sits in one fiber of dimension 1,
    the irreducibles fill the dual group once, and both defects are below
    the tolerance."""
    problems = []
    hit = []
    for row in rows:
        if row["irrep"].startswith("("):
            if not float(row["fibers"]) <= tol:
                problems.append(f"{row['irrep']} {row['fibers']} above {tol}")
            continue
        fibers = [int(v) for v in str(row["fibers"]).split()]
        if len(fibers) != order or sorted(fibers) != [0] * (order - 1) + [1]:
            problems.append(f"{row['irrep']}: fibers {fibers} are not one-hot")
        else:
            hit.append(fibers.index(1))
    if sorted(hit) != list(range(order)):
        problems.append("irreducibles do not fill the dual group once")
    return problems


def check_tannaka(order: int, group_order: int) -> list[str]:
    if order == group_order:
        return []
    return [f"reconstructed order {order} != {group_order}"]


# -- dense carriers -------------------------------------------------------------------

def check_dim(value: float, carrier_dim: int) -> list[str]:
    return [] if _close(value, carrier_dim) else [f"dim {value} != {carrier_dim}"]


def check_qdim(value: float, grading: np.ndarray) -> list[str]:
    want = float(np.real(np.trace(grading)))
    return [] if _close(value, want) else [f"qdim {value} != trace of grading {want}"]


def check_trace(value: complex, want: complex) -> list[str]:
    return [] if _close(value, want) else [f"trace {value} != {want}"]


def check_balancing(matrix: np.ndarray, z_action: np.ndarray) -> list[str]:
    """The balancing of an object is the action of z (the identity ungraded)."""
    dev = float(np.max(np.abs(matrix - z_action)))
    return [] if dev <= TOL else [f"balancing differs from the action of z by {dev:.3e}"]


def check_decompose(pieces, want_mults: dict, carrier: np.ndarray) -> list[str]:
    """Multiplicities are the ones the object was built from, and each
    coisometry u carries the carrier onto irrep (x) I_mult."""
    problems = []
    got = {p.irrep.label: p.multiplicity for p in pieces}
    want = {k: v for k, v in want_mults.items() if v}
    if got != want:
        problems.append(f"multiplicities {got} != {want}")
    total = np.zeros((carrier.shape[1],) * 2, dtype=complex)
    for p in pieces:
        u = p.coisometry
        total += u.conj().T @ u
        std = np.stack([np.kron(m, np.eye(p.multiplicity)) for m in p.irrep.matrices])
        if np.max(np.abs(u @ carrier @ u.conj().T - std)) > TOL:
            problems.append(f"coisometry of {p.irrep.label} is not equivariant")
    if np.max(np.abs(total - np.eye(len(total)))) > TOL:
        problems.append("isotypic projectors do not sum to the identity")
    return problems


def check_hom_basis(maps, src: np.ndarray, dst: np.ndarray, want_count: int) -> list[str]:
    """sum m_i n_i maps, orthonormal in the trace inner product, each
    intertwining the two carriers."""
    problems = []
    if len(maps) != want_count:
        problems.append(f"{len(maps)} basis maps, not {want_count}")
    if maps:
        flat = np.array([m.reshape(-1) for m in maps])
        if np.max(np.abs(flat.conj() @ flat.T - np.eye(len(maps)))) > TOL:
            problems.append("hom basis is not orthonormal")
        for m in maps:
            if np.max(np.abs(m @ src - dst @ m)) > TOL:
                problems.append("hom basis map is not equivariant")
                break
    return problems
