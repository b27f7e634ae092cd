"""Concrete H*-algebras given by structure constants, and their ideal decomposition.

An algebra is presented on an orthonormal basis: a complex 3-tensor of
structure constants, the coordinates of the unit, and the antilinear star
action.  Every such algebra splits into minimal two-sided ideals, each a
full matrix algebra with a rescaled trace inner product; the decomposition
is computed by diagonalizing a random self-adjoint central element.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import (
    DEFAULT_TOL,
    as_complex,
    cluster_indices,
    dagger,
    max_abs,
    max_dev,
    nullspace_basis,
    random_complex,
)

__all__ = ["HStarAlgebraData", "block_model", "change_basis",
           "endomorphism_algebra", "ambrose_decompose", "AmbroseIdeal",
           "AmbroseDecomposition"]


@dataclass
class HStarAlgebraData:
    """Structure constants of a finite-dimensional H*-algebra on an orthonormal basis.

    ``table[i, j, k]`` is the k-th coordinate of the product of basis vectors
    i and j; ``star_matrix`` acts antilinearly via ``S @ conj(v)``.
    """

    dim: int
    table: np.ndarray
    unit: np.ndarray
    star_matrix: np.ndarray

    def __post_init__(self):
        self.table = as_complex(self.table).reshape(self.dim, self.dim, self.dim)
        self.unit = as_complex(self.unit).reshape(self.dim)
        self.star_matrix = as_complex(self.star_matrix).reshape(self.dim, self.dim)

    def mult(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = self.dim
        return b @ (a @ self.table.reshape(n, n * n)).reshape(n, n)

    def star(self, a: np.ndarray) -> np.ndarray:
        return self.star_matrix @ np.conj(a)

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        n = self.dim
        return (a @ self.table.reshape(n, n * n)).reshape(n, n).T

    def right_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        return (a @ self.table).T

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        return complex(np.vdot(a, b))

    def basis(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.complex128)
        v[i] = 1.0
        return v

    def validate(self, tol: float = 1e-7) -> None:
        """Check associativity, the unit, the star axioms and the two product identities.

        Each identity is one contraction of the whole table: the worst check,
        associativity, is an n^2 x n by n x n^2 product (O(n^5) time, two
        n^4 arrays).
        """
        n = self.dim
        t = self.table
        # (e_i e_j) e_k minus e_i (e_j e_k), both indexed [i, j, k, l];
        # subtracted in place so that only two n^4 arrays are alive
        assoc = t.reshape(n * n, n) @ t.reshape(n, n * n)
        assoc -= np.matmul(t.reshape(n * n, n), t).reshape(n * n, n * n)
        worst = max_abs(assoc)
        if worst > tol:
            raise ValidationError(f"associativity fails (max violation {worst:.3e})",
                                  violation=worst)
        lu = np.tensordot(self.unit, t, axes=(0, 0))
        ru = np.tensordot(self.unit, t, axes=(0, 1))
        worst = max(max_dev(lu, np.eye(n)), max_dev(ru, np.eye(n)))
        if worst > tol:
            raise ValidationError(f"unit fails (max violation {worst:.3e})", violation=worst)
        s = self.star_matrix
        worst = max_dev(s @ np.conj(s), np.eye(n))
        if worst > tol:
            raise ValidationError(f"star is not an involution (max violation {worst:.3e})",
                                  violation=worst)
        # (e_i e_j)* against e_j* e_i*, with e_i* the i-th column of s
        star_left = np.tensordot(s, t, axes=(0, 0))  # [i, q, k] = (e_i* e_q)[k]
        worst = max_dev(np.conj(t) @ s.T, np.tensordot(s, star_left, axes=(0, 1)))
        if worst > tol:
            raise ValidationError(
                f"star is not an antihomomorphism (max violation {worst:.3e})",
                violation=worst)
        # <ab,c> = <b, a* c> and <ab,c> = <a, c b*> on basis triples: the
        # adjoint of left (right) multiplication by e_i is multiplication by e_i*.
        star_right = np.tensordot(s, t, axes=(0, 1))  # [i, p, k] = (e_p e_i*)[k]
        worst = max(max_dev(np.conj(t), star_left.transpose(0, 2, 1)),
                    max_dev(np.conj(t), star_right.transpose(2, 0, 1)))
        if worst > tol:
            raise ValidationError(
                f"product identities fail (max violation {worst:.3e})", violation=worst)

    def center_basis(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis (columns) of the center."""
        t = self.table
        n = self.dim
        # row (j, k), column i: (e_i e_j - e_j e_i)[k]
        commutators = (t.transpose(1, 2, 0) - t.transpose(0, 2, 1)).reshape(n * n, n)
        return nullspace_basis(commutators, tol)

    def to_json(self) -> dict:
        def enc(x):
            flat = [[float(z.real), float(z.imag)] for z in np.asarray(x).reshape(-1)]
            return flat
        return {"dim": self.dim,
                "table": enc(self.table),
                "unit": enc(self.unit),
                "star": enc(self.star_matrix)}

    @staticmethod
    def from_json(data: dict) -> "HStarAlgebraData":
        n = int(data["dim"])

        def dec(pairs, shape):
            flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
            return flat.reshape(shape)
        return HStarAlgebraData(n,
                                dec(data["table"], (n, n, n)),
                                dec(data["unit"], (n,)),
                                dec(data["star"], (n, n)))


def block_model(sizes, weights) -> HStarAlgebraData:
    """Direct sum of matrix algebras with trace inner products scaled by the weights.

    The orthonormal basis consists of the rescaled matrix units of each block.
    """
    sizes = [int(d) for d in sizes]
    weights = [float(k) for k in weights]
    if len(sizes) != len(weights) or any(d <= 0 for d in sizes) or any(k <= 0 for k in weights):
        raise ValidationError("need matching positive sizes and weights")
    n = sum(d * d for d in sizes)
    table = np.zeros((n, n, n), dtype=np.complex128)
    unit = np.zeros(n, dtype=np.complex128)
    star = np.zeros((n, n), dtype=np.complex128)
    offset = 0
    for d, k in zip(sizes, weights):
        def idx(a, b, base=offset, dd=d):
            return base + a * dd + b
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    # (E_ab/sqrt k)(E_bc/sqrt k) = (1/sqrt k)(E_ac/sqrt k)
                    table[idx(a, b), idx(b, c), idx(a, c)] = 1.0 / np.sqrt(k)
                star[idx(a, b), idx(b, a)] = 1.0
            unit[idx(a, a)] = np.sqrt(k)
        offset += d * d
    return HStarAlgebraData(n, table, unit, star)


def change_basis(alg: HStarAlgebraData, u: np.ndarray) -> HStarAlgebraData:
    """Re-express an algebra on the orthonormal basis given by the columns of a unitary."""
    u = as_complex(u)
    n = alg.dim
    # table[i, j, k] = sum_{p,q,r} u[p, i] u[q, j] t[p, q, r] conj(u[r, k])
    table = alg.table @ np.conj(u)
    table = (u.T @ table.reshape(n, n * n)).reshape(n, n, n)
    table = u.T @ table
    unit = dagger(u) @ alg.unit
    star = dagger(u) @ alg.star_matrix @ np.conj(u)
    return HStarAlgebraData(n, table, unit, star)


def endomorphism_algebra(x) -> HStarAlgebraData:
    """The endomorphism H*-algebra of an object of a skeletal 2-Hilbert space.

    The basis consists of the matrix units of each simple block, rescaled by
    the block weight so the basis is orthonormal.
    """
    sizes = [m for m in x.mults if m > 0]
    weights = [w for w, m in zip(x.space.weights, x.mults) if m > 0]
    if not sizes:
        raise ValidationError("the zero object has a zero endomorphism algebra")
    return block_model(sizes, weights)


@dataclass
class AmbroseIdeal:
    size: int
    weight: float
    projection: np.ndarray
    matrix_units: np.ndarray  # shape (size, size, dim): coordinates of e_{ab}

    def identification_unitary(self) -> np.ndarray:
        """Orthonormal columns identifying the ideal with its matrix model.

        Column (a, b) is the coordinate vector of the normalized matrix unit
        e_{ab} / sqrt(weight); the map is a unitary from the model onto the
        ideal subspace.
        """
        d = self.size
        return self.matrix_units.reshape(d * d, -1).T / np.sqrt(self.weight)

    def model_coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of the ideal component of v as a size x size matrix."""
        return np.conj(self.matrix_units) @ v / self.weight

    def from_model(self, m: np.ndarray) -> np.ndarray:
        return np.tensordot(as_complex(m), self.matrix_units, axes=2)


@dataclass
class AmbroseDecomposition:
    algebra: HStarAlgebraData
    ideals: list[AmbroseIdeal] = field(default_factory=list)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(i.size for i in self.ideals)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(i.weight for i in self.ideals)

    def recomposition_dev(self) -> float:
        """Deviation between the original product and the product rebuilt blockwise.

        On basis vectors, model_coords(e_i) is c[:, :, i] with
        c = conj(matrix_units) / weight; each ideal contributes
        from_model(c[:, :, i] @ c[:, :, j]) to the product e_i e_j.
        """
        alg = self.algebra
        rebuilt = np.zeros_like(alg.table)
        for ideal in self.ideals:
            c = np.conj(ideal.matrix_units) / ideal.weight
            pairs = np.einsum("abi,bcj->acij", c, c)
            rebuilt += np.tensordot(pairs, ideal.matrix_units, axes=([0, 1], [0, 1]))
        return max_dev(alg.table, rebuilt)


def _lagrange_projection(alg, element, eigenvalues, which, unit):
    p = unit.copy()
    lam = eigenvalues[which]
    for j, mu in enumerate(eigenvalues):
        if j == which:
            continue
        p = alg.mult(p, (element - mu * unit)) / (lam - mu)
    return p


def _minimal_projections(alg, p, d, rng, tol, attempts=40):
    """Split the central projection p of a size-d ideal into d minimal projections."""
    if d == 1:
        return [p]
    ideal_basis, _ = np.linalg.qr(alg.left_mult_matrix(p) @ random_complex(rng, (alg.dim, d * d)))
    for _ in range(attempts):
        raw = random_complex(rng, alg.dim)
        y = alg.mult(p, alg.mult(raw, p))
        y = (y + alg.star(y)) / 2.0
        ly = alg.left_mult_matrix(y)
        compressed = dagger(ideal_basis) @ ly @ ideal_basis
        vals = np.linalg.eigvalsh((compressed + dagger(compressed)) / 2.0)
        spread = max(vals[-1] - vals[0], 1.0)
        clusters = cluster_indices(vals, 1e-6 * spread)
        if len(clusters) != d or any(len(c) != d for c in clusters):
            continue
        mus = np.array([np.mean(vals[c]) for c in clusters])
        projs = [_lagrange_projection(alg, y, mus, a, p) for a in range(d)]
        ok = all(max_dev(alg.mult(q, q), q) < 1e3 * tol for q in projs)
        if ok:
            return projs
    raise ValidationError("failed to split an ideal into minimal projections")


def ambrose_decompose(alg: HStarAlgebraData, tol: float = 1e-7,
                      rng: np.random.Generator | None = None,
                      attempts: int = 40) -> AmbroseDecomposition:
    """Minimal two-sided ideal decomposition of a concrete H*-algebra.

    Central projections are found by diagonalizing a random self-adjoint
    central element (restarting if eigenvalues collide); each ideal is then
    identified with a matrix algebra by constructing matrix units, and the
    recomposed structure constants are checked against the input.
    """
    alg.validate(tol)
    rng = rng if rng is not None else np.random.default_rng(0)
    center = alg.center_basis()
    n_ideals = center.shape[1]

    projections = None
    for _ in range(attempts):
        z = center @ random_complex(rng, n_ideals)
        z = (z + alg.star(z)) / 2.0
        lz = alg.left_mult_matrix(z)
        vals = np.linalg.eigvalsh((lz + dagger(lz)) / 2.0)
        spread = max(vals[-1] - vals[0], 1.0)
        clusters = cluster_indices(vals, 1e-6 * spread)
        if len(clusters) != n_ideals:
            continue
        sizes2 = [len(c) for c in clusters]
        if any(round(np.sqrt(s)) ** 2 != s for s in sizes2):
            continue
        lams = np.array([np.mean(vals[c]) for c in clusters])
        projections = [
            (_lagrange_projection(alg, z, lams, i, alg.unit), int(round(np.sqrt(sizes2[i]))))
            for i in range(n_ideals)
        ]
        break
    if projections is None:
        raise ValidationError("failed to separate central projections; algebra data suspect")

    total = sum(p for p, _ in projections)
    worst = max_dev(total, alg.unit)
    if worst > 1e3 * tol:
        raise ValidationError(f"central projections do not sum to the unit ({worst:.3e})",
                              violation=worst)

    ideals = []
    for p, d in projections:
        weight = float(np.real(alg.inner(p, p)) / d)
        qs = _minimal_projections(alg, p, d, rng, tol)
        units = np.zeros((d, d, alg.dim), dtype=np.complex128)
        units[0, 0] = qs[0]
        row = [qs[0]]
        for a in range(1, d):
            for _ in range(40):
                w = alg.mult(qs[0], alg.mult(random_complex(rng, alg.dim), qs[a]))
                gamma = alg.inner(qs[0], alg.mult(w, alg.star(w))) / alg.inner(qs[0], qs[0])
                if abs(gamma) > 1e-8:
                    row.append(w / np.sqrt(np.real(gamma)))
                    break
            else:
                raise ValidationError("failed to link minimal projections inside an ideal")
        for a in range(d):
            e_a1 = alg.star(row[a]) if a else qs[0]
            for b in range(d):
                units[a, b] = alg.mult(e_a1, row[b]) if (a or b) else qs[0]
        ideal = AmbroseIdeal(size=d, weight=weight, projection=p, matrix_units=units)
        # matrix-unit sanity: e_ab e_cd = delta_bc e_ad within tolerance
        dev = 0.0
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    prod = alg.mult(units[a, b], units[b, c])
                    dev = max(dev, max_dev(prod, units[a, c]))
        if dev > 1e4 * tol:
            raise ValidationError(f"matrix unit relations violated ({dev:.3e})", violation=dev)
        ideals.append(ideal)

    ideals.sort(key=lambda i: (i.size, i.weight))
    result = AmbroseDecomposition(alg, ideals)
    dev = result.recomposition_dev()
    if dev > 1e4 * tol:
        raise ValidationError(f"recomposition mismatch ({dev:.3e})", violation=dev)
    return result
