"""Representation categories of finite groups and supergroups.

A category holds one group (plus, for supergroups, the grading involution z)
and exposes the symmetric-monoidal structure on concrete unitary
representations: tensor products, the (possibly graded) braiding, duals
via conjugate representations, canonical adjunctions and their balancing,
traces and dimensions, symmetrizers, and the self-duality classification.
It is the one module that knows the isotypic layout of an object and how
random intertwiners are drawn: other modules read them through
``decompose``, ``skeletal``, ``to_blocks`` and ``random_intertwiner``, and
``realize`` and ``coordinates`` state the equivalence with the skeleton.

Irreducibles are computed numerically by decomposing the regular
representation with a randomly averaged equivariant Hermitian operator.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CompositionError, ValidationError
from .groups import FiniteGroup, FiniteSuperGroup
from .hstar import BlockMorphism, ObjectExpr, SpaceTable
from .linalg import (
    DEFAULT_TOL,
    block_diag,
    cluster_indices,
    dagger,
    kron,
    max_abs,
    max_dev,
    random_complex,
    random_unitary,
    read_only,
    swap_matrix,
)

__all__ = ["UnitaryIrrep", "RepObject", "Intertwiner", "Adjunction",
           "RepCategory", "frobenius_schur_indicator"]


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

    @property
    def grading(self) -> np.ndarray:
        """The grading involution (identity for purely even categories)."""
        if self.cat.z_index is None:
            return np.eye(self.dim, dtype=np.complex128)
        return self.matrices[self.cat.z_index]

    @cached_property
    def character(self) -> np.ndarray:
        """The traces of the matrices, computed once (like the isotypic pieces)."""
        return read_only(np.einsum("gii->g", self.matrices))

    def validate(self, tol: float = 1e-8) -> float:
        """The worst residual of the representation axioms, or raises: the
        identity acts as I, every element unitarily, rho(a s) = rho(a) rho(s)
        for every a and each generator s (exact, by Light's test as in
        ``FiniteGroup.validate``), and the grading is an involution."""
        g, mats = self.cat.group, self.matrices
        eye = np.eye(self.dim)
        worst = max_dev(mats[g.identity], eye)
        if worst > tol:
            raise ValidationError("identity does not act as the identity", violation=worst)
        unitary = np.abs(mats @ mats.conj().swapaxes(1, 2) - eye).max(axis=(1, 2), initial=0.0)
        a = int(np.argmax(unitary))
        if unitary[a] > tol:
            raise ValidationError(f"element {g.element_name(a)} does not act unitarily",
                                  violation=float(unitary[a]))
        product = max((max_dev(mats[g.matrix[:, s]], mats @ mats[s]) for s in g.generators),
                      default=0.0)
        if product > tol:
            raise ValidationError("matrices do not respect the group product", violation=product)
        grading = max_dev(self.grading @ self.grading, eye)
        if grading > tol:
            raise ValidationError("grading does not square to the identity", violation=grading)
        return max(worst, float(unitary[a]), product, grading)

    def __repr__(self):
        return f"RepObject({self.name or self.dim}, dim={self.dim})"


class _TensorObject(RepObject):
    """x (x) y.  Its |G| d^4 carrier matrices are built on first read;
    duality and braiding data label their endpoints with it but only read
    the dimension, the grading and the character, which come from the
    factors."""

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

    @cached_property
    def character(self) -> np.ndarray:
        """chi_x chi_y: the carrier is not built."""
        x, y = self._factors
        return read_only(x.character * y.character)


def _same_object(x: RepObject, y: RepObject) -> bool:
    """The rule for matching endpoints: one object, or equal carrier matrices.
    ``is`` comes first, since reading a tensor object's ``matrices`` builds
    its |G| d^4 carrier."""
    return x is y or np.array_equal(x.matrices, y.matrices)


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
        if not _same_object(self.dst, other.src):
            raise CompositionError("endpoints do not match")
        return Intertwiner(self.src, other.dst, other.matrix @ self.matrix)

    def star(self) -> "Intertwiner":
        return Intertwiner(self.dst, self.src, dagger(self.matrix))

    def __add__(self, other):
        if not (_same_object(self.src, other.src) and _same_object(self.dst, other.dst)):
            raise CompositionError("a sum needs maps with the same endpoints")
        return Intertwiner(self.src, self.dst, self.matrix + other.matrix)

    def __rmul__(self, c):
        return Intertwiner(self.src, self.dst, c * self.matrix)

    def equivariance_dev(self) -> float:
        return max_dev(self.matrix @ self.src.matrices, self.dst.matrices @ self.matrix)

    def __repr__(self):
        return f"Intertwiner({self.src.dim} -> {self.dst.dim})"


@dataclass
class Adjunction:
    """Duality data (x, xstar, unit i: 1 -> x (x) xstar, counit e: xstar (x) x -> 1)."""

    x: RepObject
    xstar: RepObject
    i: Intertwiner
    e: Intertwiner

    def triangle_dev(self) -> float:
        """Deviation of both zig-zags from the identity: (1 (x) e)(i (x) 1) = I E
        on x and (e (x) 1)(1 (x) i) = (E I)^T on xstar, with I and E the unit
        and counit as dim(x) x dim(xstar) and dim(xstar) x dim(x) matrices."""
        i_m = self.i.matrix.reshape(self.x.dim, self.xstar.dim)
        e_m = self.e.matrix.reshape(self.xstar.dim, self.x.dim)
        return max(max_dev(i_m @ e_m, np.eye(self.x.dim)),
                   max_dev(e_m @ i_m, np.eye(self.xstar.dim)))

    def scaled(self, factor: complex) -> "Adjunction":
        """Rescale counit by the factor and unit by its inverse; still an adjunction."""
        return Adjunction(self.x, self.xstar,
                          Intertwiner(self.i.src, self.i.dst, self.i.matrix / factor),
                          Intertwiner(self.e.src, self.e.dst, self.e.matrix * factor))


def _koszul(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """P+[i, r] delta[j, b] + P-[i, r] gy[j, b] with P+- = (1 +- gx) / 2, as a
    matrix with rows (j, i) and columns (r, b): the swap after the Koszul
    sign, -1 exactly where both factors are odd."""
    eye_x = np.eye(len(gx))
    signs = np.stack([(eye_x + gx) / 2.0, (eye_x - gx) / 2.0])
    factors = np.stack([np.eye(len(gy)), gy])
    n = len(gx) * len(gy)
    return np.einsum("sir,sjb->jirb", signs, factors).reshape(n, n)


def frobenius_schur_indicator(group: FiniteGroup, character: np.ndarray) -> float:
    """Classical indicator (1/|G|) sum chi(g^2)."""
    total = character[np.diagonal(group.table)].sum()
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

    The irreducibles, the character table and the skeleton depend only on
    the group and the grading, so they are kept on the group (keyed by the
    grading element z) and every category of one group shares them.
    """

    def __init__(self, group, bosonic: bool = False):
        if isinstance(group, FiniteSuperGroup):
            self.group = group.group
            self.z_index = group.z
        elif isinstance(group, FiniteGroup):
            self.group = group
            self.z_index = None
        else:
            raise ValidationError("need a FiniteGroup or FiniteSuperGroup")
        self.bosonic = bosonic or self.z_index is None
        # the data of Rep(G) with this grading, one dict kept on the group
        self._shared = self.group._memo(f"_rep[z={self.z_index}]", dict)

    # -- basics ---------------------------------------------------------

    @property
    def name(self) -> str:
        base = f"Rep({self.group.name})"
        if self.z_index is not None:
            base = f"SuperRep({self.group.name}, z={self.group.element_name(self.z_index)})"
        if self.bosonic and self.z_index is not None:
            base += "~bosonized"
        return base

    def bosonized(self) -> "RepCategory":
        return RepCategory(FiniteSuperGroup(self.group, self.z_index)
                           if self.z_index is not None else self.group, bosonic=True)

    def _memo(self, name: str, build):
        """The value ``name`` of Rep(G) with this grading, built on first use
        by any category of the group."""
        if name not in self._shared:
            self._shared[name] = build()
        return self._shared[name]

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
        return RepObject(self, block_diag([x.matrices, y.matrices]),
                         name=f"{x.name}+{y.name}")

    def tensor(self, x: RepObject, y: RepObject) -> RepObject:
        return _TensorObject(self, x, y)

    def tensor_map(self, f: Intertwiner, g: Intertwiner) -> Intertwiner:
        return Intertwiner(self.tensor(f.src, g.src), self.tensor(f.dst, g.dst),
                           kron(f.matrix, g.matrix))

    def conjugate(self, x: RepObject) -> RepObject:
        return RepObject(self, np.conj(x.matrices), name=f"{x.name}*")

    def identity_map(self, x: RepObject) -> Intertwiner:
        return Intertwiner(x, x, np.eye(x.dim))

    def random_object(self, rng: np.random.Generator, max_dim: int = 8) -> RepObject:
        """Random direct sum of irreducibles on a randomly rotated carrier.

        The copies of each irreducible are uniform over the vectors with
        entries in 0..2 and total degree in 1..max_dim."""
        irreps = self.irreps()
        copies = _uniform_copies(rng, [i.degree for i in irreps], max_dim)
        mats = block_diag([irr.matrices for c, irr in zip(copies, irreps) for _ in range(c)])
        u = random_unitary(rng, mats.shape[1])
        return RepObject(self, u @ mats @ dagger(u), name="random")

    # -- irreducibles -----------------------------------------------------

    def irreps(self) -> tuple[UnitaryIrrep, ...]:
        """The irreducibles, computed once per group and grading."""
        return self._memo("irreps", lambda: _compute_irreps(self.group, self.z_index))

    def irrep_labels(self) -> list[str]:
        return [i.label for i in self.irreps()]

    def character_table(self) -> np.ndarray:
        """The k x |G| read-only table of the irreducibles' characters, row a
        for ``irreps()[a]``, built once per group and grading."""
        return self._memo("characters", lambda: read_only(
            np.array([i.character for i in self.irreps()])))

    def fusion_rules(self) -> np.ndarray:
        """N[a, b, c], the multiplicity of irreducible c in a (x) b (indices
        in ``irreps()`` order), from the character table: no tensor product
        is built or decomposed.  Read-only, built once per group and grading,
        like the character table."""
        return self._memo("fusion", lambda: read_only(
            _fusion_rules(self.character_table())))

    def hom_dim(self, x: RepObject, y: RepObject) -> int:
        """Dimension of the intertwiner space, via character averaging."""
        chi = np.sum(np.conj(x.character) * y.character) / self.group.order
        val = float(np.real(chi))
        if abs(val - round(val)) > 1e-6:
            raise ValidationError(f"non-integral hom dimension {val}")
        return int(round(val))

    def hom_basis(self, x: RepObject, y: RepObject,
                  rng: np.random.Generator | None = None) -> list[Intertwiner]:
        """Orthonormal basis of hom(x, y) from the isotypic decompositions: per
        irreducible of degree d in both, u_y^H kron(I_d, E_ij) u_x / sqrt(d) for
        every matrix unit E_ij, in one batched matmul.  Nothing is drawn, so
        equal inputs give identical bits; ``rng`` is accepted and unused."""
        basis = []
        for p, q in _shared(self.decompose(x), self.decompose(y)):
            d, m, n = p.irrep.degree, q.multiplicity, p.multiplicity
            rows = dagger(q.coisometry).reshape(y.dim, d, m).transpose(2, 0, 1)[:, None]
            maps = rows @ p.coisometry.reshape(d, n, x.dim).transpose(1, 0, 2) / np.sqrt(d)
            basis += [Intertwiner(x, y, f) for f in maps.reshape(m * n, y.dim, x.dim)]
        return basis

    def is_simple(self, x: RepObject) -> bool:
        return self.hom_dim(x, x) == 1

    def random_intertwiner(self, x: RepObject, y: RepObject,
                           rng: np.random.Generator) -> Intertwiner:
        """A unit-norm intertwiner x -> y: the group average of one random
        matrix, normalised.  Raises when hom(x, y) is zero."""
        if self.hom_dim(x, y) == 0:
            raise ValidationError("hom(x, y) is zero: no unit-norm intertwiner")
        avg = _average(y.matrices, random_complex(rng, (y.dim, x.dim)), x.matrices)
        return Intertwiner(x, y, avg / np.linalg.norm(avg))

    # -- isotypic decomposition -------------------------------------------

    def decompose(self, x: RepObject) -> list["IsotypicPiece"]:
        """Per irreducible: multiplicity and a co-isometry onto standard form.

        The co-isometry u satisfies u rho_x(g) u^H = irrep(g) (x) I_mult and
        the pulled-back projectors u^H u sum to the identity on the carrier.

        It is built from the matrix-coefficient operators
        E^a_j0 = (d_a/|G|) sum_g conj(rho_a(g)[j, 0]) rho_x(g) of every
        irreducible a present, in one contraction of x's matrices with the
        category's coefficient stack (``_coefficients``).  Each E^a_00 is the
        Hermitian projector onto a multiplicity space, and by Schur
        orthogonality the projectors of distinct irreducibles are mutually
        orthogonal, so one eigh of H = sum_a (a + 1) E^a_00 gives them all:
        its ascending eigenvalues are 0 on the kernel (of dimension
        n - sum m_a) and then a + 1, m_a times, for each a present in
        irreducible order, so each multiplicity space is one block of
        consecutive eigenvectors v_b, and column (j, b) of u^H is E^a_j0 v_b.
        One product E @ V gives every such column.  The stacked
        co-isometries are the unitary ``coordinates(x)``, kept read-only on
        x, and each piece's co-isometry is a row block of it.  No random draw
        is made, so equal matrices give identical co-isometries.  The
        multiplicities come from the character table; raises when an
        eigenspace is not of that size, or when the projectors do not resolve
        the identity (a carrier that is not unitary).
        """
        if x._isotypic is not None:
            return x._isotypic
        n, irreps = x.dim, self.irreps()
        mults = self._multiplicity_vector(x)
        if n == 0:
            x._isotypic, x._coordinates = [], read_only(np.zeros((0, 0), dtype=np.complex128))
            return x._isotypic
        coeffs, owner, level = self._coefficients()
        rows = mults[owner] > 0  # the rows (a, j) of the irreducibles present
        e = coeffs[rows] @ x.matrices.reshape(self.group.order, n * n)
        h = (level[rows] @ e).reshape(n, n)
        owner, e = owner[rows], e.reshape(-1, n, n)
        eigvals, vecs = np.linalg.eigh((h + dagger(h)) / 2.0)
        levels = np.rint(eigvals)
        kernel = n - int(mults.sum())
        if not np.array_equal(levels, np.repeat(np.arange(len(mults) + 1.0),
                                                [max(kernel, 0), *mults])):
            for a in np.flatnonzero(mults):
                found = np.count_nonzero(levels == a + 1)
                if found != mults[a]:
                    raise ValidationError(f"multiplicity space of {irreps[a].label} has "
                                          f"dimension {found}, not {mults[a]}")
            raise ValidationError(f"kernel of the isotypic operator has dimension "
                                  f"{np.count_nonzero(levels == 0)}, not {kernel}")
        # column c of V lies in the multiplicity space of irreducible levels[c] - 1;
        # row (a, j, b) of U is conj(E^a_j0 v_b) for the v_b of a
        same = owner[:, None] + 1.0 == levels[kernel:]
        u = read_only((e @ vecs[:, kernel:]).swapaxes(1, 2)[same].conj())
        worst = max_dev(dagger(u) @ u, np.eye(n))
        if worst > 1e-7:
            raise ValidationError(f"isotypic projectors do not resolve the identity "
                                  f"({worst:.3e})", violation=worst)
        pieces, r = [], 0
        for a in np.flatnonzero(mults).tolist():
            m = int(mults[a])
            size = irreps[a].degree * m
            pieces.append(IsotypicPiece(irreps[a], m, u[r:r + size]))
            r += size
        x._isotypic, x._coordinates = pieces, u
        return pieces

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (sum d_a) x |G| stack whose row (a, j) is
        (d_a/|G|) conj(rho_a(g)[j, 0]) over g, in irreducible order; the
        irreducible a of each row; and each row's level in ``decompose``'s
        H, a + 1 on the rows (a, 0) and 0 on the others.  Read-only, built
        once per group and grading."""
        def build():
            order, irreps = self.group.order, self.irreps()
            stack = np.concatenate([np.conj(irr.matrices[:, :, 0]).T * (irr.degree / order)
                                    for irr in irreps])
            degrees = [irr.degree for irr in irreps]
            owner = np.repeat(np.arange(len(irreps)), degrees)
            level = np.zeros(len(owner))
            level[np.cumsum(degrees) - degrees] = np.arange(1.0, len(irreps) + 1)
            return read_only(stack), read_only(owner), read_only(level)
        return self._memo("coefficients", build)

    def _multiplicity_vector(self, x: RepObject) -> np.ndarray:
        """<chi_a, chi_x> for every irreducible a, as one matvec against the
        character table; raises unless every one is an integer."""
        vals = np.real(self.character_table() @ np.conj(x.character)) / self.group.order
        return _integers(vals, "multiplicity", self.irrep_labels())

    # -- the skeleton -----------------------------------------------------

    def skeleton(self) -> SpaceTable:
        """The skeletal space of the category: one simple per irreducible,
        weighted by its degree, so that the weighted Hilbert-Schmidt pairing
        of block morphisms is the trace pairing of intertwiners."""
        return self._memo("skeleton", lambda: SpaceTable.make(
            self.irrep_labels(), {i.label: i.degree for i in self.irreps()}))

    def skeletal(self, x: RepObject) -> ObjectExpr:
        """The object of the skeleton with the multiplicities of x's isotypic pieces."""
        mult = {p.irrep.label: p.multiplicity for p in self.decompose(x)}
        space = self.skeleton()
        return ObjectExpr(space, tuple(mult.get(s, 0) for s in space.simples))

    def coordinates(self, x: RepObject) -> np.ndarray:
        """The unitary U_x onto x's isotypic coordinates: the co-isometries of
        ``decompose`` stacked in irreducible order, kept read-only on x (0 x 0
        for a zero object).  It intertwines x with ``realize(skeletal(x))``."""
        self.decompose(x)
        return x._coordinates

    def realize(self, a):
        """The inverse of the skeleton functor, in isotypic coordinates: a
        skeletal object n goes to the representation blockdiag of
        kron(rho_lam, I_{n_lam}), a block morphism b to the matrix blockdiag of
        kron(I_{d_lam}, b_lam).  Empty blocks are skipped, and a kron with I_1
        is its other factor, placed as it is.  Raises unless ``a`` lives over
        ``skeleton()``."""
        if a.space != self.skeleton():
            raise CompositionError("skeletal data lives over a different space")
        irreps = self.irreps()
        if isinstance(a, ObjectExpr):
            mats = [irr.matrices if n == 1 else kron(irr.matrices, np.eye(n))
                    for irr, n in zip(irreps, a.mults) if n]
            if not mats:
                return RepObject(self, np.zeros((self.group.order, 0, 0)), name="realized")
            return RepObject(self, block_diag(mats), name="realized")
        degrees = [irr.degree for irr in irreps]
        rows = np.cumsum([0, *(d * m for d, m in zip(degrees, a.dst.mults))])
        cols = np.cumsum([0, *(d * n for d, n in zip(degrees, a.src.mults))])
        out = np.zeros((rows[-1], cols[-1]), dtype=np.complex128)
        for label, b in a.blocks.items():
            i = a.space.simples.index(label)
            d = degrees[i]
            out[rows[i]:rows[i + 1], cols[i]:cols[i + 1]] = b if d == 1 else kron(np.eye(d), b)
        return out

    def to_blocks(self, f: Intertwiner, tol: float = 1e-8) -> BlockMorphism:
        """The intertwiner in the skeleton.

        In isotypic coordinates u_y f u_x^H is the direct sum over the
        irreducibles of kron(I_d, a_lam); the block morphism holds the a_lam.
        Raises when a block between two pieces of one simple is not of that
        form, or when a block between distinct simples does not vanish.
        """
        rows, cols = self.decompose(f.dst), self.decompose(f.src)
        mat = self.coordinates(f.dst) @ f.matrix @ dagger(self.coordinates(f.src))
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
        return BlockMorphism(self.skeletal(f.src), self.skeletal(f.dst), blocks)

    def from_blocks(self, b: BlockMorphism, x: RepObject, y: RepObject) -> Intertwiner:
        """The intertwiner x -> y with skeletal image b, the inverse of
        ``to_blocks``: U_y^H realize(b) U_x with U = ``coordinates``.
        Raises unless b runs between the skeletal images of x and y."""
        if b.src != self.skeletal(x) or b.dst != self.skeletal(y):
            raise CompositionError("block morphism endpoints are not the images of x and y")
        return Intertwiner(x, y, dagger(self.coordinates(y)) @ self.realize(b)
                           @ self.coordinates(x))

    # -- braiding and balancing -------------------------------------------

    def braiding(self, x: RepObject, y: RepObject) -> Intertwiner:
        """The symmetry x (x) y -> y (x) x; sign-twisted unless bosonic."""
        if self.bosonic:
            mat = swap_matrix(x.dim, y.dim)
        else:
            mat = _koszul(x.grading, y.grading)
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

    def well_balanced_adjunction(self, x: RepObject,
                                 tol: float = DEFAULT_TOL) -> Adjunction:
        """The canonical adjunction, whose balancing is unitary within ``tol``."""
        self.balancing(x, tol)
        return self.adjunction(x)

    def balancing(self, x: RepObject, tol: float = DEFAULT_TOL) -> Intertwiner:
        """The twist (e (x) 1)(1 (x) B)(e^H (x) 1) of the canonical duality.

        Its counit is the identity pairing, so E^H E = I and, with g the
        grading of x and P+- = (1 +- g) / 2, the braiding of x with itself
        contracts to P+ + P- g = (I + g + g (I - g)) / 2, and to I for the
        plain swap.  No adjunction, conjugate or tensor carrier is built;
        any other duality is evaluated by ``tangles.evaluate``.

        Unitarity is checked as ||b b^H - I||_F, one matmul and no SVD.  With
        the polar form b = U P it equals ||(P - I)(P + I)||_F >= ||P - I||_F =
        ||b - U||_F, which bounds every entry of b - U: the check is no weaker
        than the distance to the unitary polar factor at the same threshold.
        """
        eye = np.eye(x.dim, dtype=np.complex128)
        if self.bosonic:
            return Intertwiner(x, x, eye)
        g = x.grading
        b = (eye + g + g @ (eye - g)) / 2.0
        dev = float(np.linalg.norm(b @ dagger(b) - eye))
        if dev > 1e3 * tol:
            raise ValidationError(f"balancing is not unitary ({dev:.3e})", violation=dev)
        return Intertwiner(x, x, b)

    # -- trace and dimension ------------------------------------------------

    def trace(self, f: Intertwiner, quantum: bool = False) -> complex:
        """Loop trace of an endomorphism; the quantum variant twists by the balancing.

        Closed with the canonical counit, e (1 (x) f) e^H = tr(E f E^H) with
        E = I, the loop is tr(f), or tr(f b) = sum_ij f_ij b_ji for the
        balancing b, without the product f b; like ``dim`` and ``qdim`` it
        raises unless b is unitary.
        """
        if not _same_object(f.src, f.dst):
            raise CompositionError("trace needs an endomorphism")
        b = self.balancing(f.src)
        return complex(np.sum(f.matrix * b.matrix.T) if quantum else np.trace(f.matrix))

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
        (i^H (x) 1)(1 (x) f (x) 1)(1 (x) i), is (conj(I) f I)^T, which is f^T
        for the canonical unit I = identity.  Raises unless x is well balanced.
        """
        self.balancing(f.src)
        return Intertwiner(f.src, f.dst, f.matrix.T.copy())

    def classify_self_dual(self, x: RepObject,
                           rng: np.random.Generator | None = None) -> SelfDuality:
        """For simple x: not self-dual, or self-dual with a definite sign, which
        must be x's Frobenius-Schur indicator."""
        if not self.is_simple(x):
            raise ValidationError("self-duality classification needs a simple object")
        xstar = self.conjugate(x)
        if self.hom_dim(x, xstar) == 0:
            return SelfDuality("not-self-dual", None, None, 0.0)
        f = self.random_intertwiner(x, xstar, rng or np.random.default_rng(7))
        fd = self.dagger_transform(f)
        overlap = np.trace(dagger(f.matrix) @ fd.matrix) / \
            np.trace(dagger(f.matrix) @ f.matrix)
        sign = 1 if np.real(overlap) > 0 else -1
        residual = max_dev(fd.matrix, sign * f.matrix)
        if abs(overlap - sign) > 1e-6 or residual > 1e-6:
            raise ValidationError(f"self-duality sign is ambiguous "
                                  f"(overlap {overlap:.4f}, residual {residual:.2e})")
        indicator = frobenius_schur_indicator(self.group, x.character)
        if abs(indicator - sign) > 1e-6:
            raise ValidationError(f"self-duality sign {sign} disagrees with the "
                                  f"Frobenius-Schur indicator {indicator:.4f}")
        return SelfDuality("real" if sign > 0 else "quaternionic", sign, f, residual)


@dataclass
class IsotypicPiece:
    irrep: UnitaryIrrep
    multiplicity: int
    coisometry: np.ndarray  # (degree * multiplicity, carrier_dim)


def _shared(cols, rows) -> list[tuple[IsotypicPiece, IsotypicPiece]]:
    """(source piece, target piece) for each irreducible in both decompositions."""
    at = {p.irrep.label: p for p in cols}
    return [(at[q.irrep.label], q) for q in rows if q.irrep.label in at]


@dataclass
class SymmetrizerData:
    power: RepObject
    symmetrizer: Intertwiner
    antisymmetrizer: Intertwiner
    symmetric_part: tuple[RepObject, np.ndarray]
    alternating_part: tuple[RepObject, np.ndarray]


_MAX_COPIES = 2  # of each irreducible in a random object


@lru_cache(maxsize=64)
def _copy_counts(degrees: tuple[int, ...], max_dim: int) -> tuple[tuple[int, ...], ...]:
    """ways[i][r]: the choices of copies for irreducibles i, i+1, ... of
    total degree <= r, built once per (degrees, max_dim)."""
    ways = [(1,) * (max_dim + 1)]
    for deg in reversed(degrees):
        ways.insert(0, tuple(sum(ways[0][r - c * deg] for c in range(_MAX_COPIES + 1)
                                 if c * deg <= r) for r in range(max_dim + 1)))
    return tuple(ways)


def _uniform_copies(rng: np.random.Generator, degrees: list[int],
                    max_dim: int) -> list[int]:
    """A uniform draw of copies c (0 <= c_i <= _MAX_COPIES) with total degree
    sum c_i degrees[i] in 1..max_dim: the vector of a uniform rank >= 1 in
    the order that compares c_0 first (the zero vector has rank 0).
    """
    ways = _copy_counts(tuple(degrees), max_dim)
    if max_dim < 1 or ways[0][max_dim] < 2:
        raise ValidationError(f"no direct sum of at most {_MAX_COPIES} copies of each "
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


def _compute_irreps(group: FiniteGroup, z_index):
    """Split the regular representation reg (reg[g] e_h = e_{gh}) by the
    eigenspaces of a random Hermitian element of its commutant (Dixon,
    "Computing irreducible representations of groups", Math. Comp. 24, 1970).

    The commutant of reg is the right group algebra (Serre, Linear
    Representations of Finite Groups, 2.4 and 6.2): the matrices
    H[h, k] = c(h^-1 k), built by one gather of c.  With c(g^-1) = conj c(g),
    H is Hermitian, and each eigenspace of a generic one is a single copy of
    an irreducible.  An eigenvalue collision merges copies, which only the
    norm check of ``_split_eigenspaces`` catches; c is then drawn again.
    """
    n, t, inv = group.order, group.matrix, group.inverses
    quotients = t[inv]  # quotients[h, k] = h^-1 k
    rng = np.random.default_rng(1234)
    for _ in range(60):
        z = random_complex(rng, n)
        vals, vecs = np.linalg.eigh(((z + np.conj(z[inv])) / 2.0)[quotients])
        clusters = cluster_indices(vals, 1e-7 * max(vals[-1] - vals[0], 1.0))
        kept = _split_eigenspaces(group, vecs, clusters)
        if kept is not None and sum(m.shape[1] ** 2 for _, m in kept) == n:
            return _label_irreps(group, z_index, kept)
    raise ValidationError("failed to separate the isotypic blocks of the "
                          "regular representation")


def _split_eigenspaces(group: FiniteGroup, vecs: np.ndarray, clusters):
    """(character, matrices) of reg on the first eigenspace of each character,
    eigenspaces of one size together, or None when some eigenspace is not an
    irreducible invariant subspace.

    reg[s] permutes coordinates, (reg[s] B)[i] = B[s^-1 i], and invariance is
    checked on the generators s only: the g with reg[g] B in span B are
    closed under products, so this is exact (as Light's test is).  The
    projector P = B B^H of an invariant eigenspace commutes with reg, so
    P[h, k] = p(h^-1 k) with p = row e of P, and the character is
    chi(g) = sum_h p(h^-1 g h) = (n / |C_g|) sum_{k in C_g} p(k): O(n d).
    The matrices rho(g) = B^H reg[g] B of the kept eigenspaces are products
    rho(g s) = rho(g) rho(s) along the group's walk, one batched matmul per
    step and size."""
    n, e, gens = group.order, group.identity, group.generators
    classes = group.conjugacy_classes()
    sizes = np.array([len(c) for c in classes])
    members = np.concatenate(classes)
    starts = np.cumsum(sizes) - sizes
    moves = group.matrix[group.inverses[list(gens)]]
    kept = []
    for d, idx in itertools.groupby(sorted(clusters, key=len), key=len):
        bases = vecs[:, list(idx)].transpose(1, 0, 2).copy()  # (eigenspaces, n, d)
        adjoint = np.conj(bases.transpose(0, 2, 1))
        rhos = []
        for p in moves:
            moved = bases[:, p]
            rho = adjoint @ moved
            moved -= bases @ rho
            if max_abs(moved) > 1e-7:
                return None
            rhos.append(rho)
        row_e = (np.conj(bases) @ bases[:, e, :, None])[..., 0]  # p = P[e]
        chars = n * np.add.reduceat(row_e[:, members], starts, axis=1) / sizes
        # <chi_a, chi_b>: 1 on the diagonal for irreducibles, and then 1 for
        # equal characters and 0 for distinct ones
        inner = ((np.conj(chars) * sizes) @ chars.T).real / n
        if np.any(np.abs(np.diagonal(inner) - 1.0) > 1e-6):
            return None
        first = np.flatnonzero(np.argmax(inner > 0.5, axis=1) == np.arange(len(inner)))
        mats = np.empty((len(first), n, d, d), dtype=np.complex128)
        mats[:, e] = np.eye(d)
        steps = dict(zip(gens, (rho[first, None] for rho in rhos)))
        for s, parents, children in group.walk:
            mats[:, children] = mats[:, parents] @ steps[s]
        kept += zip(np.trace(mats, axis1=2, axis2=3), mats)
    return kept


def _label_irreps(group: FiniteGroup, z_index, kept) -> tuple[UnitaryIrrep, ...]:
    """Label the irreducibles of ``kept`` (a list of (character, matrices)):
    sorted by degree, the trivial one first, then by the characters
    rounded to 6 decimals, compared element by element (real part first)."""
    chars = np.array([char for char, _ in kept])
    degrees = [mats.shape[1] for _, mats in kept]
    nontrivial = ~np.all(np.isclose(chars, 1.0), axis=1)
    fingerprints = np.round(np.stack([chars.real, chars.imag], axis=2), 6)
    fingerprints = fingerprints.reshape(len(kept), -1).tolist()
    order = sorted(range(len(kept)),
                   key=lambda i: (degrees[i], bool(nontrivial[i]), fingerprints[i]))
    out = []
    counts = {}
    for i in order:
        degree, mats = degrees[i], kept[i][1]
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
    return tuple(out)


def _integers(vals: np.ndarray, what: str, labels=None) -> np.ndarray:
    """vals rounded to integers; raises unless each is within 1e-6 of one,
    naming the worst entry by its label or, without labels, its distance."""
    rounded = np.round(vals.real)
    off = np.abs(vals - rounded).ravel()
    i = int(np.argmax(off))
    if off[i] > 1e-6:
        where = f"{vals[i]} of {labels[i]}" if labels else f"(off by {off[i]:.3e})"
        raise ValidationError(f"non-integral {what} {where}", violation=float(off[i]))
    return rounded.astype(int)


def _fusion_rules(chars: np.ndarray) -> np.ndarray:
    """N[a, b, c] = (1/|G|) sum_g chi_a(g) chi_b(g) conj(chi_c(g)) for a k x |G|
    character table, as one contraction: O(k^3 |G|).  Raises unless every
    entry is a nonnegative integer and chi_a chi_b = sum_c N[a, b, c] chi_c
    at every g, within 1e-6: the rows are closed under products, which at
    g = e says sum_c N[a, b, c] d_c = d_a d_b."""
    k, order = chars.shape
    pairs = (chars[:, None, :] * chars[None, :, :]).reshape(k * k, order)
    table = _integers((pairs @ np.conj(chars).T).reshape(k, k, k) / order,
                      "fusion multiplicity")
    if table.min() < 0:
        raise ValidationError(f"negative fusion multiplicity {table.min()}")
    worst = max_dev(pairs, table.reshape(k * k, k) @ chars)
    if worst > 1e-6:
        raise ValidationError(f"character products are not sums of characters "
                              f"(off by {worst:.3e})", violation=worst)
    return table


def _letter_suffix(k: int) -> str:
    """a, ..., z, aa, ab, ..., zz, aaa, ...: the k-th label suffix (from 0)."""
    suffix = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        suffix = "abcdefghijklmnopqrstuvwxyz"[r] + suffix
    return suffix
