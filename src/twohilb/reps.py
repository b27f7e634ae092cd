"""Representation categories of finite groups and supergroups.

A category holds one group (plus, for supergroups, the grading involution z)
and exposes the symmetric-monoidal structure on concrete unitary
representations: tensor products, the (possibly graded) braiding, duals
via conjugate representations, canonical adjunctions and their balancing,
traces and dimensions, symmetrizers, and the self-duality classification.

Irreducibles are computed numerically by decomposing the regular
representation with a randomly averaged equivariant Hermitian operator.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import CompositionError, ValidationError
from .groups import FiniteGroup, FiniteGroupoid, FiniteSuperGroup
from .hstar import BlockMorphism, ObjectExpr, SpaceTable
from .linalg import (
    DEFAULT_TOL,
    cluster_indices,
    dagger,
    distance_to_unitary,
    max_abs,
    max_dev,
    random_complex,
    random_hermitian,
    random_unitary,
)

__all__ = ["UnitaryIrrep", "RepObject", "Intertwiner", "Adjunction",
           "RepCategory", "GroupoidRepCategory", "RestrictionFunctor",
           "frobenius_schur_indicator"]


@dataclass(frozen=True)
class UnitaryIrrep:
    """One irreducible unitary representation with a deterministic label."""

    label: str
    degree: int
    matrices: np.ndarray  # (order, d, d), a read-only view
    parity: int  # 0 even, 1 odd; always 0 without a grading

    def __post_init__(self):
        # every object_of_irrep shares these matrices without copying them
        view = np.asarray(self.matrices).view()
        view.flags.writeable = False
        object.__setattr__(self, "matrices", view)

    @property
    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)


class RepObject:
    """A concrete unitary representation: one matrix per group element.

    For supergroup categories the grading involution is the action of z.
    """

    def __init__(self, cat: "RepCategory", matrices, name: str = ""):
        self.cat = cat
        mats = np.asarray(matrices, dtype=np.complex128)
        if mats.ndim != 3 or mats.shape[0] != cat.group.order:
            raise ValidationError("need one square matrix per group element")
        if mats.shape[1] != mats.shape[2]:
            raise ValidationError("representation matrices must be square")
        self.matrices = mats
        self.name = name
        self._isotypic = None

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]

    @property
    def grading(self) -> np.ndarray:
        """The grading involution (identity for purely even categories)."""
        if self.cat.z_index is None:
            return np.eye(self.dim, dtype=np.complex128)
        return self.matrices[self.cat.z_index]

    @property
    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)

    def validate(self, tol: float = 1e-8) -> None:
        g = self.cat.group
        eye = np.eye(self.dim)
        if max_dev(self.matrices[g.identity], eye) > tol:
            raise ValidationError("identity does not act as the identity")
        for a in range(g.order):
            if max_dev(self.matrices[a] @ dagger(self.matrices[a]), eye) > tol:
                raise ValidationError(f"element {a} does not act unitarily")
        for a in range(g.order):
            for b in range(g.order):
                prod = self.matrices[a] @ self.matrices[b]
                if max_dev(prod, self.matrices[g.mult(a, b)]) > tol:
                    raise ValidationError("matrices do not respect the group product")
        if self.cat.z_index is not None:
            z = self.grading
            if max_dev(z @ z, eye) > tol:
                raise ValidationError("grading does not square to the identity")

    def __repr__(self):
        return f"RepObject({self.name or self.dim}, dim={self.dim})"


class _TensorObject(RepObject):
    """x (x) y.  Its |G| d^4 carrier matrices are built on first read;
    duality and braiding data label their endpoints with it but only read
    the dimension and the grading, which come from the factors."""

    def __init__(self, cat: "RepCategory", x: RepObject, y: RepObject):
        self.cat = cat
        self.name = f"{x.name}*{y.name}"
        self._isotypic = None
        self._factors = (x, y)

    @cached_property
    def matrices(self) -> np.ndarray:
        x, y = self._factors
        d = x.dim * y.dim
        return np.einsum("gij,gkl->gikjl", x.matrices, y.matrices).reshape(
            len(x.matrices), d, d)

    @property
    def dim(self) -> int:
        x, y = self._factors
        return x.dim * y.dim

    @property
    def grading(self) -> np.ndarray:
        x, y = self._factors
        gx, gy = x.grading, y.grading
        return (gx[:, None, :, None] * gy[None, :, None, :]).reshape(self.dim, self.dim)


class Intertwiner:
    """An equivariant linear map between the carriers of two representations."""

    def __init__(self, src: RepObject, dst: RepObject, matrix):
        if src.cat is not dst.cat:
            raise CompositionError("intertwiners need a common category")
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.shape != (dst.dim, src.dim):
            raise ValidationError(f"matrix must be {dst.dim} x {src.dim}")
        self.src = src
        self.dst = dst
        self.matrix = mat

    def then(self, other: "Intertwiner") -> "Intertwiner":
        if other.src is not self.dst and not np.array_equal(other.src.matrices,
                                                            self.dst.matrices):
            raise CompositionError("endpoints do not match")
        return Intertwiner(self.src, other.dst, other.matrix @ self.matrix)

    def star(self) -> "Intertwiner":
        return Intertwiner(self.dst, self.src, dagger(self.matrix))

    def __add__(self, other):
        return Intertwiner(self.src, self.dst, self.matrix + other.matrix)

    def __rmul__(self, c):
        return Intertwiner(self.src, self.dst, c * self.matrix)

    def equivariance_dev(self) -> float:
        worst = 0.0
        for g in range(self.src.cat.group.order):
            lhs = self.matrix @ self.src.matrix(g)
            rhs = self.dst.matrix(g) @ self.matrix
            worst = max(worst, max_dev(lhs, rhs))
        return worst

    def __repr__(self):
        return f"Intertwiner({self.src.dim} -> {self.dst.dim})"


@dataclass
class Adjunction:
    """Duality data (x, xstar, unit i: 1 -> x (x) xstar, counit e: xstar (x) x -> 1)."""

    x: RepObject
    xstar: RepObject
    i: Intertwiner
    e: Intertwiner

    @property
    def unit_matrix(self) -> np.ndarray:
        """The unit as a dim(x) x dim(xstar) matrix I[a, p] = i[(a, p)]."""
        return self.i.matrix.reshape(self.x.dim, self.xstar.dim)

    @property
    def counit_matrix(self) -> np.ndarray:
        """The counit as a dim(xstar) x dim(x) matrix E[p, a] = e[(p, a)]."""
        return self.e.matrix.reshape(self.xstar.dim, self.x.dim)

    def triangle_dev(self) -> float:
        """Deviation of both zig-zags from the identity: (1 (x) e)(i (x) 1) = I E
        on x and (e (x) 1)(1 (x) i) = (E I)^T on xstar."""
        i_m, e_m = self.unit_matrix, self.counit_matrix
        return max(max_dev(i_m @ e_m, np.eye(self.x.dim)),
                   max_dev(e_m @ i_m, np.eye(self.xstar.dim)))

    def scaled(self, factor: complex) -> "Adjunction":
        """Rescale counit by the factor and unit by its inverse; still an adjunction."""
        return Adjunction(self.x, self.xstar,
                          Intertwiner(self.i.src, self.i.dst, self.i.matrix / factor),
                          Intertwiner(self.e.src, self.e.dst, self.e.matrix * factor))


def _swap_matrix(d_left: int, d_right: int) -> np.ndarray:
    """The swap a (x) b -> b (x) a: column (i, j) has its one in row (j, i)."""
    n = d_left * d_right
    cols = np.arange(n)
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[(cols % d_right) * d_left + cols // d_right, cols] = 1.0
    return mat


def _koszul(gx: np.ndarray, gy: np.ndarray, rows: str) -> np.ndarray:
    """P+[i, r] delta[j, b] + P-[i, r] gy[j, b] with P+- = (1 +- gx) / 2, as a
    matrix with rows (i, j) (rows="ijrb") or swapped to (j, i) (rows="jirb")
    and columns (r, b): the Koszul sign, alone or after the swap."""
    eye_x = np.eye(len(gx))
    signs = np.stack([(eye_x + gx) / 2.0, (eye_x - gx) / 2.0])
    factors = np.stack([np.eye(len(gy)), gy])
    n = len(gx) * len(gy)
    return np.einsum(f"sir,sjb->{rows}", signs, factors).reshape(n, n)


def frobenius_schur_indicator(group: FiniteGroup, character: np.ndarray) -> float:
    """Classical indicator (1/|G|) sum chi(g^2)."""
    total = sum(character[group.mult(g, g)] for g in range(group.order))
    return float(np.real(total)) / group.order


@dataclass(frozen=True)
class SelfDuality:
    kind: str  # "not-self-dual", "real", "quaternionic"
    sign: int | None
    witness: Intertwiner | None
    residual: float


class RepCategory:
    """Rep(G) for a finite group, or the graded Rep of a finite supergroup.

    ``bosonic=True`` replaces the graded braiding by the plain swap; this is
    the bosonization and makes every object even.
    """

    def __init__(self, group, bosonic: bool = False, _irreps=None):
        if isinstance(group, FiniteSuperGroup):
            self.group = group.group
            self.z_index = group.z
        elif isinstance(group, FiniteGroup):
            self.group = group
            self.z_index = None
        else:
            raise ValidationError("need a FiniteGroup or FiniteSuperGroup")
        self.bosonic = bosonic or self.z_index is None
        self._irreps = _irreps
        self._skeleton = None

    # -- basics ---------------------------------------------------------

    @property
    def name(self) -> str:
        base = f"Rep({self.group.name})"
        if self.z_index is not None:
            base = f"SuperRep({self.group.name}, z={self.group.element_name(self.z_index)})"
        if self.bosonic and self.z_index is not None:
            base += "~bosonized"
        return base

    @property
    def is_connected(self) -> bool:
        return True

    def bosonized(self) -> "RepCategory":
        cat = RepCategory.__new__(RepCategory)
        cat.group = self.group
        cat.z_index = self.z_index
        cat.bosonic = True
        cat._irreps = self._irreps
        cat._skeleton = self._skeleton
        return cat

    def unit(self) -> RepObject:
        mats = np.ones((self.group.order, 1, 1), dtype=np.complex128)
        return RepObject(self, mats, name="1")

    def object_of_irrep(self, irrep: UnitaryIrrep) -> RepObject:
        return RepObject(self, irrep.matrices, name=irrep.label)

    def irrep(self, label: str) -> RepObject:
        for irr in self.irreps():
            if irr.label == label:
                return self.object_of_irrep(irr)
        raise ValidationError(f"no irreducible labelled {label!r}; "
                              f"have {[i.label for i in self.irreps()]}")

    def direct_sum(self, x: RepObject, y: RepObject) -> RepObject:
        mats = np.zeros((self.group.order, x.dim + y.dim, x.dim + y.dim),
                        dtype=np.complex128)
        mats[:, :x.dim, :x.dim] = x.matrices
        mats[:, x.dim:, x.dim:] = y.matrices
        return RepObject(self, mats, name=f"{x.name}+{y.name}")

    def tensor(self, x: RepObject, y: RepObject) -> RepObject:
        return _TensorObject(self, x, y)

    def tensor_map(self, f: Intertwiner, g: Intertwiner) -> Intertwiner:
        return Intertwiner(self.tensor(f.src, g.src), self.tensor(f.dst, g.dst),
                           np.kron(f.matrix, g.matrix))

    def conjugate(self, x: RepObject) -> RepObject:
        return RepObject(self, np.conj(x.matrices), name=f"{x.name}*")

    def identity_map(self, x: RepObject) -> Intertwiner:
        return Intertwiner(x, x, np.eye(x.dim))

    def random_object(self, rng: np.random.Generator, max_copies: int = 2,
                      max_dim: int = 8) -> RepObject:
        """Random direct sum of irreducibles on a randomly rotated carrier.

        The copies of each irreducible are uniform over the vectors with
        entries in 0..max_copies and total degree in 1..max_dim."""
        irreps = self.irreps()
        copies = _uniform_copies(rng, [i.degree for i in irreps], max_copies, max_dim)
        x = reduce(self.direct_sum, [self.object_of_irrep(irr)
                                     for c, irr in zip(copies, irreps) for _ in range(c)])
        u = random_unitary(rng, x.dim)
        return RepObject(self, u @ x.matrices @ dagger(u), name="random")

    # -- irreducibles -----------------------------------------------------

    def irreps(self) -> list[UnitaryIrrep]:
        if self._irreps is None:
            self._irreps = _compute_irreps(self.group, self.z_index)
        return self._irreps

    def irrep_labels(self) -> list[str]:
        return [i.label for i in self.irreps()]

    def hom_dim(self, x: RepObject, y: RepObject) -> int:
        """Dimension of the intertwiner space, via character averaging."""
        chi = np.sum(np.conj(x.character) * y.character) / self.group.order
        val = float(np.real(chi))
        if abs(val - round(val)) > 1e-6:
            raise ValidationError(f"non-integral hom dimension {val}")
        return int(round(val))

    def hom_basis(self, x: RepObject, y: RepObject,
                  rng: np.random.Generator | None = None,
                  tol: float = 1e-8) -> list[Intertwiner]:
        """Orthonormal basis of hom(x, y) via the group-averaging projector."""
        rng = rng if rng is not None else np.random.default_rng(7)
        want = self.hom_dim(x, y)
        found: list[np.ndarray] = []
        guard = 0
        while len(found) < want:
            guard += 1
            if guard > 20 * want + 20:
                raise ValidationError("failed to span the intertwiner space")
            avg = _average(y.matrices, random_complex(rng, (y.dim, x.dim)), x.matrices)
            for prev in found:
                avg = avg - np.vdot(prev, avg) * prev
            nrm = np.linalg.norm(avg)
            if nrm > tol:
                found.append(avg / nrm)
        return [Intertwiner(x, y, m) for m in found]

    def is_simple(self, x: RepObject, tol: float = 1e-7) -> bool:
        norm2 = float(np.real(np.sum(np.abs(x.character) ** 2))) / self.group.order
        return abs(norm2 - 1.0) < tol

    # -- isotypic decomposition -------------------------------------------

    def decompose(self, x: RepObject) -> list["IsotypicPiece"]:
        """Per irreducible: multiplicity and a co-isometry onto standard form.

        The co-isometry u satisfies u rho_x(g) u^H = irrep(g) (x) I_mult and
        the pulled-back projectors u^H u sum to the identity on the carrier.

        It is built from the matrix-coefficient operators
        E_j0 = (d/|G|) sum_g conj(irrep(g)[j, 0]) rho_x(g), one contraction
        over the group per irreducible: E_00 is the Hermitian projector onto
        a multiplicity space, an orthonormal basis v_b of its range comes
        from one eigh, and column (j, b) of u^H is E_j0 v_b.  No random draw
        is made, so equal matrices give identical co-isometries.
        """
        if x._isotypic is not None:
            return x._isotypic
        pieces = []
        order = self.group.order
        for irr in self.irreps():
            val = float(np.real(np.sum(np.conj(irr.character) * x.character))) / order
            if abs(val - round(val)) > 1e-6:
                raise ValidationError(f"non-integral multiplicity {val} of {irr.label}")
            mult = int(round(val))
            if mult == 0:
                continue
            d = irr.degree
            coeffs = np.conj(irr.matrices[:, :, 0]).T * (d / order)  # (d, |G|)
            e = (coeffs @ x.matrices.reshape(order, -1)).reshape(d, x.dim, x.dim)
            _, vecs = np.linalg.eigh((e[0] + dagger(e[0])) / 2.0)
            u_cols = (e @ vecs[:, -mult:]).transpose(1, 0, 2).reshape(x.dim, d * mult)
            pieces.append(IsotypicPiece(irr, mult, dagger(u_cols)))
        worst = max_dev(sum(dagger(p.coisometry) @ p.coisometry for p in pieces),
                        np.eye(x.dim))
        if worst > 1e-7:
            raise ValidationError(f"isotypic projectors do not resolve the identity "
                                  f"({worst:.3e})", violation=worst)
        x._isotypic = pieces
        return pieces

    def multiplicities(self, x: RepObject) -> dict[str, int]:
        return {p.irrep.label: p.multiplicity for p in self.decompose(x)}

    # -- the skeleton -----------------------------------------------------

    def skeleton(self) -> SpaceTable:
        """The skeletal space of the category: one simple per irreducible,
        weighted by its degree, so that the weighted Hilbert-Schmidt pairing
        of block morphisms is the trace pairing of intertwiners."""
        if self._skeleton is None:
            irreps = self.irreps()
            self._skeleton = SpaceTable.make([i.label for i in irreps],
                                             {i.label: i.degree for i in irreps})
        return self._skeleton

    def to_blocks(self, f: Intertwiner, tol: float = 1e-8) -> BlockMorphism:
        """The intertwiner in the skeleton.

        In isotypic coordinates u_y f u_x^H is the direct sum over the
        irreducibles of kron(I_d, a_lam); the block morphism holds the a_lam.
        Raises when a block between two pieces of one simple is not of that
        form, or when a block between distinct simples does not vanish.
        """
        space = self.skeleton()
        rows, cols = self.decompose(f.dst), self.decompose(f.src)
        mat = _stacked(rows, f.dst.dim) @ f.matrix @ dagger(_stacked(cols, f.src.dim))
        col_at, c = {}, 0
        for p in cols:
            col_at[p.irrep.label] = (c, p.multiplicity)
            c += p.irrep.degree * p.multiplicity
        # subtract each kron(I_d, a) in place: what is left must vanish
        blocks, residuals, r = {}, [], 0
        for p in rows:
            d, m = p.irrep.degree, p.multiplicity
            if p.irrep.label in col_at:
                c, n = col_at[p.irrep.label]
                block = mat[r:r + d * m, c:c + d * n].reshape(d, m, d, n)  # a view
                a = blocks[p.irrep.label] = block[0, :, 0, :].copy()
                for j in range(d):
                    block[j, :, j, :] -= a
                residuals.append(block)
            r += d * m
        if max_abs(mat) > tol:
            if any(max_abs(b) > tol for b in residuals):
                raise ValidationError("block is not multiplicity-shaped")
            raise ValidationError("map mixes distinct simples")
        return BlockMorphism(_skeletal(space, cols), _skeletal(space, rows), blocks)

    # -- braiding and balancing -------------------------------------------

    def koszul_operator(self, x: RepObject, y: RepObject) -> np.ndarray:
        """(1 + gx + gy - gx gy) / 2 on x (x) y, written as P+ (x) 1 + P- (x) gy
        with P+- = (1 +- gx) / 2: -1 exactly where both factors are odd."""
        return _koszul(x.grading, y.grading, "ijrb")

    def braiding(self, x: RepObject, y: RepObject) -> Intertwiner:
        """The symmetry x (x) y -> y (x) x; sign-twisted unless bosonic."""
        if self.bosonic:
            mat = _swap_matrix(x.dim, y.dim)
        else:
            mat = _koszul(x.grading, y.grading, "jirb")
        return Intertwiner(self.tensor(x, y), self.tensor(y, x), mat)

    def adjunction(self, x: RepObject) -> Adjunction:
        """Canonical duality on the conjugate carrier with the coordinate pairing."""
        xstar = self.conjugate(x)
        d = x.dim
        one = self.unit()
        e_mat = np.eye(d, dtype=np.complex128).reshape(1, d * d)
        i_mat = np.eye(d, dtype=np.complex128).reshape(d * d, 1)
        e = Intertwiner(self.tensor(xstar, x), one, e_mat)
        i = Intertwiner(one, self.tensor(x, xstar), i_mat)
        return Adjunction(x, xstar, i, e)

    def balancing_of(self, adj: Adjunction) -> Intertwiner:
        """Evaluate the twist composite (e (x) 1)(1 (x) B)(e^H (x) 1) of an adjunction.

        With E the counit as a matrix, M = E^H E, g the grading of x and
        P+- = (1 +- g) / 2, the braiding of x with itself contracts to
        P+ M + P- M g = (M + M g + g (M - M g)) / 2, and to M for the plain
        swap: O(d^3) work and O(d^2) memory, the braiding is never built.
        """
        x = adj.x
        e_m = adj.counit_matrix
        mat = dagger(e_m) @ e_m
        if not self.bosonic:
            g = x.grading
            mg = mat @ g
            mat = (mat + mg + g @ (mat - mg)) / 2.0
        return Intertwiner(x, x, mat)

    def well_balanced_adjunction(self, x: RepObject,
                                 base: Adjunction | None = None,
                                 tol: float = DEFAULT_TOL) -> Adjunction:
        """A duality whose balancing is unitary.

        Without ``base`` this is the canonical adjunction (already well
        balanced).  Given a deformed adjunction, the unit and counit are
        rescaled per simple summand to restore unitarity.
        """
        return self._well_balanced(x, base, tol)[0]

    def _well_balanced(self, x: RepObject, base: Adjunction | None = None,
                       tol: float = DEFAULT_TOL) -> tuple[Adjunction, Intertwiner]:
        """``well_balanced_adjunction`` together with the balancing it checked."""
        if base is None:
            adj = self.adjunction(x)
        else:
            adj = self._rebalance(base, tol)
        b = self.balancing_of(adj)
        dev = distance_to_unitary(b.matrix)
        if dev > 1e3 * tol:
            raise ValidationError(f"balancing is not unitary ({dev:.3e})", violation=dev)
        if adj.triangle_dev() > 1e3 * tol:
            raise ValidationError("duality triangles fail")
        return adj, b

    def _rebalance(self, adj: Adjunction, tol: float) -> Adjunction:
        x = adj.x
        b = self.balancing_of(adj).matrix
        pieces = self.decompose(x)
        scale = np.zeros((x.dim, x.dim), dtype=np.complex128)
        for piece in pieces:
            u = piece.coisometry
            block = u @ b @ dagger(u)
            beta = np.trace(block) / block.shape[0]
            if max_dev(block, beta * np.eye(block.shape[0])) > 1e-6:
                raise ValidationError(
                    "balancing is not scalar per simple summand; cannot rescale")
            scale += np.sqrt(abs(beta)) * (dagger(u) @ u)
        f = np.conj(scale)  # acts on the conjugate carrier
        # unit (1 (x) f) i and counit e (f^-1 (x) 1), on the reshaped matrices
        i_new = (adj.unit_matrix @ f.T).reshape(-1, 1)
        e_new = (np.linalg.inv(f).T @ adj.counit_matrix).reshape(1, -1)
        return Adjunction(x, adj.xstar,
                          Intertwiner(adj.i.src, adj.i.dst, i_new),
                          Intertwiner(adj.e.src, adj.e.dst, e_new))

    def balancing(self, x: RepObject) -> Intertwiner:
        return self._well_balanced(x)[1]

    @staticmethod
    def comparison_isomorphism(first: Adjunction, second: Adjunction) -> Intertwiner:
        """The canonical map between the duals of two adjunctions on one object."""
        # (e (x) 1)(1 (x) i') = (E I')^T
        mat = (first.counit_matrix @ second.unit_matrix).T
        return Intertwiner(first.xstar, second.xstar, mat)

    # -- trace and dimension ------------------------------------------------

    def trace(self, f: Intertwiner, adj: Adjunction | None = None,
              quantum: bool = False) -> complex:
        """Loop trace of an endomorphism; the quantum variant twists by the balancing.

        The loop closed with the counit, e (1 (x) f) e^H = tr(E f E^H), is
        compared with the loop closed with the unit, i^H (f (x) 1) i = tr(I^H f I).
        """
        if f.src.dim != f.dst.dim:
            raise CompositionError("trace needs an endomorphism")
        x = f.src
        if adj is None:
            adj, b = self._well_balanced(x)
        elif quantum:
            b = self.balancing_of(adj)
        mat = f.matrix
        if quantum:
            mat = mat @ b.matrix
        e_m, i_m = adj.counit_matrix, adj.unit_matrix
        val = np.trace(e_m @ mat @ dagger(e_m))
        alt = np.trace(dagger(i_m) @ mat @ i_m)
        if abs(val - alt) > 1e-7 * max(1.0, abs(val)):
            raise ValidationError("the two trace evaluations disagree")
        return complex(val)

    def dim(self, x: RepObject) -> float:
        return float(np.real(self.trace(self.identity_map(x))))

    def qdim(self, x: RepObject) -> float:
        return float(np.real(self.trace(self.identity_map(x), quantum=True)))

    # -- symmetrizers ---------------------------------------------------------

    def symmetrizer_power(self, x: RepObject, n: int):
        """Complete (anti)symmetrizers on the n-th tensor power and their images.

        Each projector is u^H u for the isometry u onto its image, built in
        the eigenbasis of the grading; the image representation u rho^(x)n u^H
        applies rho one factor at a time, so the power's carrier is never built.
        """
        if n < 1:
            raise ValidationError("need at least one tensor factor")
        if n > 6:
            raise ValidationError("permutation enumeration capped at 6 factors")
        power = x
        for _ in range(n - 1):
            power = self.tensor(power, x)
        basis, odd = None, np.zeros(x.dim, dtype=bool)
        if not self.bosonic:
            vals, basis = np.linalg.eigh(x.grading)
            odd = vals < 0
        projectors, images = [], []
        for cols in _signed_permutation_sums(x.dim, n, odd):
            if basis is not None:
                cols = _power_apply(basis[None], cols, n)[0]
            image = dagger(cols) @ _power_apply(x.matrices, cols, n)
            projectors.append(Intertwiner(power, power, cols @ dagger(cols)))
            images.append((RepObject(self, image, name="image"), dagger(cols)))
        return SymmetrizerData(power, *projectors, *images)

    # -- self-duality -----------------------------------------------------------

    def dagger_transform(self, f: Intertwiner) -> Intertwiner:
        """For f: x -> xstar, the dual-side transform built from cups and caps.

        Inserting the unit, applying f to the middle factor and pairing the
        first two factors with the unit's adjoint,
        (i^H (x) 1)(1 (x) f (x) 1)(1 (x) i), is (conj(I) f I)^T.
        """
        i_m = self.well_balanced_adjunction(f.src).unit_matrix
        return Intertwiner(f.src, f.dst, (np.conj(i_m) @ f.matrix @ i_m).T)

    def classify_self_dual(self, x: RepObject,
                           rng: np.random.Generator | None = None) -> SelfDuality:
        """For simple x: not self-dual, or self-dual with a definite sign."""
        if not self.is_simple(x):
            raise ValidationError("self-duality classification needs a simple object")
        xstar = self.conjugate(x)
        if self.hom_dim(x, xstar) == 0:
            return SelfDuality("not-self-dual", None, None, 0.0)
        f = self.hom_basis(x, xstar, rng)[0]
        fd = self.dagger_transform(f)
        overlap = np.trace(dagger(f.matrix) @ fd.matrix) / \
            np.trace(dagger(f.matrix) @ f.matrix)
        sign = 1 if np.real(overlap) > 0 else -1
        residual = max_dev(fd.matrix, sign * f.matrix)
        if abs(overlap - sign) > 1e-6 or residual > 1e-6:
            raise ValidationError(f"self-duality sign is ambiguous "
                                  f"(overlap {overlap:.4f}, residual {residual:.2e})")
        return SelfDuality("real" if sign > 0 else "quaternionic", sign, f, residual)

    # -- invertibility ------------------------------------------------------------

    def invertibility_check(self, x: RepObject, tol: float = 1e-8) -> bool:
        """True iff dim(x) = 1 iff the unit and its star are mutually inverse."""
        adj = self.well_balanced_adjunction(x)
        dim_test = abs(self.dim(x) - 1.0) < tol
        i_m = adj.i.matrix
        left = dagger(i_m) @ i_m
        right = i_m @ dagger(i_m)
        inv_test = (max_dev(left, np.eye(1)) < tol
                    and max_dev(right, np.eye(right.shape[0])) < tol)
        if dim_test != inv_test:
            raise ValidationError("invertibility criteria disagree")
        return dim_test


@dataclass
class IsotypicPiece:
    irrep: UnitaryIrrep
    multiplicity: int
    coisometry: np.ndarray  # (degree * multiplicity, carrier_dim)


def _stacked(pieces, dim: int) -> np.ndarray:
    """The co-isometry onto the isotypic coordinates of an object of dimension
    ``dim``, from its pieces; a zero object has none and gets a 0 x dim one."""
    if not pieces:
        return np.zeros((0, dim), dtype=np.complex128)
    return np.concatenate([p.coisometry for p in pieces])


def _skeletal(space: SpaceTable, pieces) -> ObjectExpr:
    """The object of the skeleton with the multiplicities of the pieces."""
    mult = {p.irrep.label: p.multiplicity for p in pieces}
    return ObjectExpr(space, tuple(mult.get(s, 0) for s in space.simples))


@dataclass
class SymmetrizerData:
    power: RepObject
    symmetrizer: Intertwiner
    antisymmetrizer: Intertwiner
    symmetric_part: tuple[RepObject, np.ndarray]
    alternating_part: tuple[RepObject, np.ndarray]


def _uniform_copies(rng: np.random.Generator, degrees: list[int], max_copies: int,
                    max_dim: int) -> list[int]:
    """A uniform draw of copies c (0 <= c_i <= max_copies) with total degree
    sum c_i degrees[i] in 1..max_dim: the vector of a uniform rank >= 1 in
    the order that compares c_0 first (the zero vector has rank 0).  ways[i][r]
    counts the choices for irreducibles i, i+1, ... of total degree <= r.
    """
    ways = [[1] * (max_dim + 1)]
    for deg in reversed(degrees):
        ways.insert(0, [sum(ways[0][r - c * deg] for c in range(max_copies + 1)
                            if c * deg <= r) for r in range(max_dim + 1)])
    if max_dim < 1 or ways[0][max_dim] < 2:
        raise ValidationError(f"no direct sum of at most {max_copies} copies of each "
                              f"irreducible has a degree in 1..{max_dim}")
    rank = int(rng.integers(1, ways[0][max_dim]))
    copies, left = [], max_dim
    for i, deg in enumerate(degrees):
        c = 0
        while rank >= ways[i + 1][left - c * deg]:
            rank -= ways[i + 1][left - c * deg]
            c += 1
        copies.append(c)
        left -= c * deg
    return copies


def _signed_permutation_sums(d: int, n: int, odd: np.ndarray):
    """Isometries onto the images of the symmetrizer and the antisymmetrizer
    on the n-th tensor power of a d-dimensional carrier whose basis vector i
    is odd where odd[i].

    A permutation sends the basis vector with index tuple (i_1, ..., i_n) to
    the one with the permuted tuple, times -1 for each pair of odd indices
    it puts in the opposite order (the Koszul sign of the graded braiding);
    the antisymmetrizer also weighs it by its sign.  The projectors are the
    means over the n! permutations.  Their columns at sorted tuples lie on
    disjoint orbits and span their images, so the nonzero ones, normalised,
    are the isometries: one scatter-add of n! signs per sorted tuple.
    """
    slots = np.array(list(itertools.permutations(range(n))))  # slots[s, a]: new place of factor a
    tuples = np.indices((d,) * n).reshape(n, -1)
    tuples = tuples[:, np.all(tuples[:-1] <= tuples[1:], axis=0)]
    rows = (d ** (n - 1 - slots)) @ tuples  # rows[s, k]: image of the k-th sorted tuple
    flat = (rows * tuples.shape[1] + np.arange(tuples.shape[1])).ravel()
    crossed = (slots[:, :, None] > slots[:, None, :]) & np.triu(np.ones((n, n), bool), 1)
    sign = (-1.0) ** crossed.sum(axis=(1, 2))
    parity = odd[tuples].astype(float)
    koszul = (-1.0) ** np.sum((crossed @ parity) * parity, axis=1)  # over crossed odd pairs
    for weights in (koszul, sign[:, None] * koszul):
        cols = np.bincount(flat, weights.ravel(), minlength=d ** n * tuples.shape[1])
        cols = cols.reshape(d ** n, tuples.shape[1])
        norms = np.linalg.norm(cols, axis=0)  # integer entries: a nonzero norm is >= 1
        yield cols[:, norms > 0.5] / norms[norms > 0.5]


def _power_apply(mats: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    """mats[g]^(x)n @ t for each g, for t with d^n rows, one tensor factor at
    a time: no d^n x d^n Kronecker power is built."""
    order, d = mats.shape[:2]
    out = np.broadcast_to(t, (order,) + t.shape)
    for k in range(n):
        out = mats[:, None] @ out.reshape(order, d ** k, d, d ** (n - 1 - k) * t.shape[1])
    return out.reshape(order, d ** n, t.shape[1])


# -- irreducible computation ---------------------------------------------------

def _average(left: np.ndarray, m: np.ndarray, right: np.ndarray) -> np.ndarray:
    """mean over g of left[g] @ m @ right[g]^H, as one batched matmul: the
    projection of m onto the maps that intertwine right with left."""
    return (left @ m @ np.conj(right.transpose(0, 2, 1))).mean(axis=0)


def _compute_irreps(group: FiniteGroup, z_index, attempts: int = 60):
    """Split the regular representation reg (reg[g] e_h = e_{gh}) by the
    eigenspaces of a group-averaged random Hermitian operator.

    reg[g] permutes coordinates: (reg[g] v)[i] = v[p[i]] with p the row of
    the table at g^-1.  So reg[g] h0 reg[g]^H is h0[p][:, p] and reg[g] @ basis
    is basis[p]; nothing of size n^3 is built.
    """
    n = group.order
    perms = group.matrix[group.inverses]  # row g: the table row of g^-1
    rng = np.random.default_rng(1234)
    for _ in range(attempts):
        h0 = random_hermitian(rng, n)
        avg = np.zeros_like(h0)
        for p in perms:
            avg += h0[np.ix_(p, p)]
        avg /= n
        vals, vecs = np.linalg.eigh((avg + dagger(avg)) / 2.0)
        spread = max(vals[-1] - vals[0], 1.0)
        clusters = cluster_indices(vals, 1e-7 * spread)
        raw = []
        ok = True
        for cluster in clusters:
            basis = vecs[:, cluster]
            moved = basis[perms]  # moved[g] = reg[g] @ basis
            mats = dagger(basis) @ moved
            char = np.einsum("gii->g", mats)
            norm2 = float(np.real(np.sum(np.abs(char) ** 2))) / n
            if abs(norm2 - 1.0) > 1e-6:
                ok = False  # eigenvalue collision merged non-isotypic spaces
                break
            # invariance check of the eigenspace
            dev = max_dev(moved, basis @ mats)
            if dev > 1e-7:
                ok = False
                break
            raw.append((char, mats))
        if not ok:
            continue
        # dedupe by character
        kept = []
        for char, mats in raw:
            if any(max_abs(char - c2) < 1e-6 for c2, _ in kept):
                continue
            kept.append((char, mats))
        if sum(m.shape[1] ** 2 for _, m in kept) != n:
            continue
        return _label_irreps(group, z_index, kept)
    raise ValidationError("failed to separate the isotypic blocks of the "
                          "regular representation")


def _label_irreps(group: FiniteGroup, z_index, kept) -> list[UnitaryIrrep]:
    entries = []
    for char, mats in kept:
        degree = mats.shape[1]
        trivial = bool(np.allclose(char, np.ones(group.order)))
        fingerprint = tuple((round(float(c.real), 6), round(float(c.imag), 6))
                            for c in char)
        entries.append((degree, not trivial, fingerprint, mats))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    out = []
    counts = {}
    for degree, _, _, mats in entries:
        k = counts.get(degree, 0)
        counts[degree] = k + 1
        label = f"{degree}{_letter_suffix(k)}"
        parity = 0
        if z_index is not None:
            zval = np.trace(mats[z_index]) / degree
            parity = 0 if np.real(zval) > 0 else 1
            if abs(abs(zval) - 1.0) > 1e-6:
                raise ValidationError("grading does not act by a sign on an irreducible")
        out.append(UnitaryIrrep(label, degree, mats, parity))
    return out


def _letter_suffix(k: int) -> str:
    """a, ..., z, aa, ab, ..., zz, aaa, ...: the k-th label suffix (from 0)."""
    suffix = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        suffix = "abcdefghijklmnopqrstuvwxyz"[r] + suffix
    return suffix


# -- groupoids ----------------------------------------------------------------

class GroupoidRepCategory:
    """Product of the component categories of a finite groupoid.

    Objects assign one representation to each component; the endomorphisms
    of the unit form one copy of the scalars per component.
    """

    def __init__(self, groupoid: FiniteGroupoid):
        self.groupoid = groupoid
        self.components = []
        for objs, grp, z in groupoid.components:
            cat = RepCategory(FiniteSuperGroup.make(grp, z) if z is not None else grp)
            self.components.append((objs[0], cat))

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    def end_unit_dim(self) -> int:
        return len(self.components)

    def unit(self) -> dict:
        return {label: cat.unit() for label, cat in self.components}

    def random_object(self, rng) -> dict:
        return {label: cat.random_object(rng) for label, cat in self.components}

    def dim(self, x: dict) -> dict:
        return {label: cat.dim(x[label]) for label, cat in self.components}

    def hom_inner(self, alpha: dict, beta: dict) -> complex:
        """Inner product summing over one object per isomorphism class."""
        total = 0.0 + 0.0j
        for label, _ in self.components:
            total += np.trace(dagger(alpha[label].matrix) @ beta[label].matrix)
        return complex(total)


# -- homomorphisms -------------------------------------------------------------

class RestrictionFunctor:
    """Restriction along a group homomorphism phi: G -> G'.

    Sends a representation of G' to its pullback; the monoidal structure
    maps are identities on the level of carriers.
    """

    def __init__(self, src_cat: RepCategory, dst_cat: RepCategory, phi):
        self.src_cat = src_cat  # Rep(G'), the domain category
        self.dst_cat = dst_cat  # Rep(G)
        self.phi = list(phi)
        gp = src_cat.group
        g = dst_cat.group
        if len(self.phi) != g.order:
            raise ValidationError("need one image per group element")
        for a in range(g.order):
            for b in range(g.order):
                if gp.mult(self.phi[a], self.phi[b]) != self.phi[g.mult(a, b)]:
                    raise ValidationError("the map is not a homomorphism")
        if src_cat.z_index is not None or dst_cat.z_index is not None:
            if dst_cat.z_index is None or src_cat.z_index is None or \
               self.phi[dst_cat.z_index] != src_cat.z_index:
                raise ValidationError("grading involutions are not matched")

    def on_object(self, x: RepObject) -> RepObject:
        mats = np.array([x.matrices[p] for p in self.phi])
        return RepObject(self.dst_cat, mats, name=f"res({x.name})")

    def on_morphism(self, f: Intertwiner) -> Intertwiner:
        return Intertwiner(self.on_object(f.src), self.on_object(f.dst), f.matrix)

    def validate(self, rng: np.random.Generator, samples: int = 3,
                 tol: float = 1e-8) -> float:
        """Coherence checks: star, composition, tensor squares, braiding,
        balancing and dimension preservation.  Returns the worst deviation."""
        worst = 0.0
        for _ in range(samples):
            x = self.src_cat.random_object(rng, max_dim=4)
            y = self.src_cat.random_object(rng, max_dim=4)
            fx, fy = self.on_object(x), self.on_object(y)
            fx.validate()
            f = _random_intertwiner(self.src_cat, rng, x, y)
            g = _random_intertwiner(self.src_cat, rng, y, x)
            worst = max(worst, self.on_morphism(f).equivariance_dev())
            worst = max(worst, max_dev(self.on_morphism(f.then(g)).matrix,
                                       self.on_morphism(f).then(self.on_morphism(g)).matrix))
            worst = max(worst, max_dev(self.on_morphism(f.star()).matrix,
                                       self.on_morphism(f).star().matrix))
            # monoidal structure maps are identities: the braiding square
            b_src = self.src_cat.braiding(x, y).matrix
            b_dst = self.dst_cat.braiding(fx, fy).matrix
            worst = max(worst, max_dev(b_src, b_dst))
            # balancing and dimension preservation
            worst = max(worst, max_dev(self.src_cat.balancing(x).matrix,
                                       self.dst_cat.balancing(fx).matrix))
            worst = max(worst, abs(self.src_cat.dim(x) - self.dst_cat.dim(fx)))
        if worst > tol:
            raise ValidationError(f"homomorphism coherence fails ({worst:.3e})",
                                  violation=worst)
        return worst


def _random_intertwiner(cat: RepCategory, rng, x: RepObject, y: RepObject) -> Intertwiner:
    return Intertwiner(x, y, _average(y.matrices, random_complex(rng, (y.dim, x.dim)),
                                      x.matrices))
