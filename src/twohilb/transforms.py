"""Categorified Fourier transform, graded convolution algebras, spectrum
points with the evaluation (Gelfand) transform, and Tannaka reconstruction
at finite scale.

For a finite abelian group T the dual group is materialized from the
character table; the Fourier transform sends a representation to its
isotypic grading over the dual and comes with explicit unitary structure
maps that are validated numerically.  Graded objects and morphisms are the
``hstar`` objects and block morphisms of ``graded_space``, with one simple
per group element, and the convolution product is a ``FusionFunctor``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CompositionError, ValidationError
from .functors import FusionFunctor, TensorSpace, apply, tensor_space
from .groups import FiniteGroup
from .hstar import (
    BlockMorphism,
    ObjectExpr,
    SpaceTable,
    compose,
    identity,
    morphism_dev,
    star,
)
from .linalg import block_diag, dagger, max_dev, random_unitary
from .reps import Intertwiner, RepCategory, RepObject, _skeletal, _stacked, _swap_matrix

__all__ = ["graded_space", "convolution", "convolution_tensor", "conv_layout",
           "graded_braiding", "dual_group", "FourierMap", "SpectrumPoint",
           "tautological_point", "gelfand_hat", "GelfandHat",
           "tannaka_reconstruct", "TannakaResult"]


# -- graded spaces and convolution ---------------------------------------------

def graded_space(group: FiniteGroup) -> SpaceTable:
    """Hilb^G as a skeletal space: one simple of weight 1 per group element."""
    return SpaceTable.make([group.element_name(g) for g in range(group.order)])


def convolution(group: FiniteGroup) -> FusionFunctor:
    """The convolution product of Hilb^G as a functor from S (x) S to S: the
    simple (g1, g2) goes to the simple g1 g2."""
    space = graded_space(group)
    # each row is a unit row; sharing the n distinct row tuples keeps the
    # n^2 x n multiplicity matrix at O(n^2) to build and to hold
    units = [tuple(row) for row in np.eye(group.order, dtype=int).tolist()]
    mult = tuple(units[c] for c in group.matrix.ravel().tolist())
    return FusionFunctor(tensor_space(space, space).table, space, mult)


def convolution_tensor(conv: FusionFunctor, x, y):
    """The convolution of two objects, or of two morphisms, of the graded space.

    The fiber at g has one block for each g1 g2 = g, in the order of g1."""
    pair = TensorSpace(conv.dst, conv.dst, conv.src)  # conv.src is the pair table already
    if isinstance(x, ObjectExpr):
        return apply(conv, pair.object_pair(x, y))
    return apply(conv, pair.morphism_pair(x, y))


def conv_layout(group: FiniteGroup, x: ObjectExpr, y: ObjectExpr, g: int):
    """Pair blocks (g1, g2, offset, nx, ny) of the convolution fiber at g."""
    layout = []
    offset = 0
    # g2 = g1^-1 g for every g1 at once
    for g1, g2 in enumerate(group.matrix[group.inverses, g].tolist()):
        nx, ny = x.mults[g1], y.mults[g2]
        if nx * ny:
            layout.append((g1, g2, offset, nx, ny))
            offset += nx * ny
    return layout


def graded_braiding(group: FiniteGroup, x: ObjectExpr, y: ObjectExpr,
                    parity=None) -> BlockMorphism:
    """The symmetry of the convolution product (abelian grading group).

    ``parity[g]`` is 1 for an odd grading element; the swap of fibers g1 and
    g2 then carries the Koszul sign -1 when both are odd.  Without it every
    element is even and the swap is unsigned.
    """
    if not group.is_abelian:
        raise ValidationError("the convolution braiding needs an abelian group")
    fibers, blocks = [], {}
    for g, label in enumerate(x.space.simples):
        dst_off = {(g1, g2): off for g1, g2, off, _, _ in conv_layout(group, y, x, g)}
        layout = conv_layout(group, x, y, g)
        n = sum(nx * ny for *_, nx, ny in layout)
        mat = np.zeros((n, n), dtype=np.complex128)
        for g1, g2, off, nx, ny in layout:
            doff = dst_off[(g2, g1)]
            sign = -1.0 if parity is not None and parity[g1] and parity[g2] else 1.0
            mat[doff:doff + nx * ny, off:off + nx * ny] = sign * _swap_matrix(nx, ny)
        fibers.append(n)
        blocks[label] = mat
    # over an abelian group both convolutions have the same fibers
    obj = ObjectExpr.make(x.space, fibers)
    return BlockMorphism(obj, obj, blocks)


# -- the dual group -----------------------------------------------------------

def dual_group(cat: RepCategory) -> tuple[FiniteGroup, np.ndarray]:
    """The character group of a finite abelian group, with its value table.

    Returns the dual as an explicit group (elements ordered like the
    irreducible labels) and the matrix of character values chars[k, g].
    """
    group = cat.group
    if not group.is_abelian:
        raise ValidationError("the dual group is only formed for abelian groups")
    irreps = cat.irreps()
    chars = np.array([irr.character for irr in irreps])
    table = _product_table(chars, "character products failed to close")
    names = [irr.label for irr in irreps]
    dual = FiniteGroup.make(f"dual({group.name})", table, names)
    return dual, chars


def _product_table(rows: np.ndarray, message: str) -> np.ndarray:
    """table[a, b] = c where rows[a] * rows[b] equals rows[c] entrywise within
    1e-6 for exactly one c; otherwise raises ``message``.

    The rows are orthonormal with unit-modulus values, so over the k columns
    the overlap sum_g r_a r_b conj(r_c) is near k at a hit and near 0
    elsewhere: one matmul per row a finds the candidates (overlap above
    k / 2), and only those are compared entrywise.
    """
    n, k = rows.shape
    table = np.empty((n, n), dtype=int)
    for a in range(n):
        prod = rows[a] * rows
        b, c = np.nonzero((prod @ dagger(rows)).real > k / 2)
        hit = np.max(np.abs(prod[b] - rows[c]), axis=1) < 1e-6
        b, c = b[hit], c[hit]
        if np.any(np.bincount(b, minlength=n) != 1):
            raise ValidationError(message)
        table[a, b] = c
    return table


# -- categorified Fourier transform -------------------------------------------

class FourierMap:
    """Isotypic-grading functor from representations of an abelian group.

    Lands on the skeleton of Rep(G): the dual group's element names are the
    irreducible labels, so its graded space is ``cat.skeleton()``.  Provides
    the graded image of objects and morphisms, the unitary monoidal
    structure maps, the inverse functor, and the round-trip natural
    isomorphism; all of them are concrete matrices.
    """

    def __init__(self, cat: RepCategory):
        self.cat = cat
        self.dual, self.chars = dual_group(cat)
        self.space = cat.skeleton()
        # a dual element is odd when its character is -1 at the central
        # involution z; the bosonic symmetry ignores the grading
        self._parity = None if cat.bosonic else [irr.parity for irr in cat.irreps()]

    @cached_property
    def conv(self) -> FusionFunctor:
        """The convolution of the graded space, built on first use: it has
        n^2 source simples, and only the structure maps need it."""
        return convolution(self.dual)

    def object_fibers(self, x: RepObject) -> ObjectExpr:
        return _skeletal(self.space, self.cat.decompose(x))

    def coisometries(self, x: RepObject) -> list[np.ndarray]:
        """Per dual element: the co-isometry onto the isotypic component."""
        pieces = {p.irrep.label: p for p in self.cat.decompose(x)}
        return [pieces[lab].coisometry if lab in pieces
                else np.zeros((0, x.dim), dtype=np.complex128)
                for lab in self.space.simples]

    def transform(self, x: RepObject) -> ObjectExpr:
        return self.object_fibers(x)

    def morphism(self, f: Intertwiner) -> BlockMorphism:
        return self.cat.to_blocks(f)

    def structure_map(self, x: RepObject, y: RepObject) -> BlockMorphism:
        """Unitary from the convolution of the images onto the image of the tensor."""
        xy = self.cat.tensor(x, y)
        ux = self.coisometries(x)
        uy = self.coisometries(y)
        uxy = self.coisometries(xy)
        fx, fy = self.object_fibers(x), self.object_fibers(y)
        blocks = {}
        for g, label in enumerate(self.space.simples):
            layout = conv_layout(self.dual, fx, fy, g)
            if layout:
                include = np.hstack([np.kron(dagger(ux[g1]), dagger(uy[g2]))
                                     for g1, g2, *_ in layout])
                blocks[label] = uxy[g] @ include
        return BlockMorphism(convolution_tensor(self.conv, fx, fy),
                             self.object_fibers(xy), blocks)

    def monoidal_defect(self, x: RepObject, y: RepObject,
                        f: Intertwiner | None = None,
                        fp: Intertwiner | None = None) -> float:
        """Worst coherence residual of the structure maps at (x, y).

        Checks unitarity, the braiding square against the convolution
        symmetry, star compatibility and (when morphisms are supplied)
        naturality.
        """
        phi = self.structure_map(x, y)
        if phi.src.mults != phi.dst.mults:
            raise ValidationError("structure map fiber is not square")
        phi_star = star(phi)
        worst = max(morphism_dev(compose(phi, phi_star), identity(phi.src)),
                    morphism_dev(compose(phi_star, phi), identity(phi.dst)))
        # braiding square
        phi_yx = self.structure_map(y, x)
        lhs = compose(phi, self.morphism(self.cat.braiding(x, y)))
        rhs = compose(graded_braiding(self.dual, self.object_fibers(x),
                                      self.object_fibers(y), self._parity), phi_yx)
        worst = max(worst, morphism_dev(lhs, rhs))
        if f is not None and fp is not None:
            ff = self.morphism(f)
            lhs = compose(convolution_tensor(self.conv, ff, self.morphism(fp)),
                          self.structure_map(f.dst, fp.dst))
            rhs = compose(phi, self.morphism(self.cat.tensor_map(f, fp)))
            worst = max(worst, morphism_dev(lhs, rhs))
            worst = max(worst, morphism_dev(self.morphism(f.star()), star(ff)))
        return worst

    def inverse(self, graded: ObjectExpr) -> RepObject:
        """Block-diagonal representation with each fiber transforming by its character."""
        if graded.space != self.space:
            raise CompositionError("graded object lives over a different dual group")
        diag = np.repeat(self.chars, graded.mults, axis=0).T  # (|G|, total)
        mats = diag[:, :, None] * np.eye(graded.total_dim)
        return RepObject(self.cat, mats, name="inverse-transform")

    def round_trip_iso(self, x: RepObject) -> Intertwiner:
        """Unitary natural isomorphism x -> inverse(transform(x))."""
        target = self.inverse(self.object_fibers(x))
        return Intertwiner(x, target, _stacked(self.cat.decompose(x), x.dim))

    def round_trip_defect(self, x: RepObject, f: Intertwiner | None = None) -> float:
        eta = self.round_trip_iso(x)
        worst = max_dev(eta.matrix @ dagger(eta.matrix), np.eye(x.dim))
        worst = max(worst, eta.equivariance_dev())
        if f is not None:
            eta_dst = self.round_trip_iso(f.dst)
            lhs = eta_dst.matrix @ f.matrix
            back = self.inverse_morphism(self.morphism(f))
            rhs = back @ eta.matrix
            worst = max(worst, max_dev(lhs, rhs))
        return worst

    def inverse_morphism(self, f: BlockMorphism) -> np.ndarray:
        """Matrix of the inverse-transformed morphism in the block-diagonal carriers."""
        return block_diag([f.block(lab) for lab in self.space.simples])


# -- spectrum points and the evaluation transform ------------------------------

class SpectrumPoint:
    """A concrete symmetric star-functor from a rep category to super vector spaces.

    Presented by per-simple values (dimension plus grading signs), unitary
    twists of the canonical carriers, and the induced structure maps.  The
    validator enforces fusion-dimension consistency, unitarity, the
    braiding square with the appropriate sign rule, and balancing
    preservation.
    """

    def __init__(self, cat: RepCategory, values: dict, twists: dict | None = None,
                 name: str = "point"):
        self.cat = cat
        self.name = name
        self.values = {}
        for irr in cat.irreps():
            if irr.label not in values:
                raise ValidationError(f"missing value for simple {irr.label!r}")
            dim, grading = values[irr.label]
            grading = np.asarray(grading, dtype=float).reshape(-1)
            if grading.shape != (dim,) or np.any(np.abs(np.abs(grading) - 1) > 0):
                raise ValidationError("grading must be a vector of signs")
            self.values[irr.label] = (int(dim), grading)
        self.twists = {}
        for irr in cat.irreps():
            twist = None if twists is None else twists.get(irr.label)
            if twist is None:
                twist = np.eye(self.values[irr.label][0], dtype=np.complex128)
            twist = np.asarray(twist, dtype=np.complex128)
            if twist.shape != (self.values[irr.label][0],) * 2:
                raise ValidationError("twist has the wrong shape")
            self.twists[irr.label] = twist
        self._tensors = {}

    def value_dim(self, label: str) -> int:
        return self.values[label][0]

    def value_grading(self, label: str) -> np.ndarray:
        return self.values[label][1]

    def _tensor(self, lam: str, mu: str) -> RepObject:
        """The tensor of two simples, built once per ordered pair and kept on
        the point: ``cat.irrep`` returns a fresh object each time, so a fresh
        tensor would miss its own decomposition cache."""
        if (lam, mu) not in self._tensors:
            cat = self.cat
            self._tensors[lam, mu] = cat.tensor(cat.irrep(lam), cat.irrep(mu))
        return self._tensors[lam, mu]

    def fused_layout(self, lam: str, mu: str) -> list:
        """The isotypic pieces of the tensor of two simples, in irreducible order."""
        return self.cat.decompose(self._tensor(lam, mu))

    def structure_map(self, lam: str, mu: str) -> np.ndarray:
        """Unitary from value(lam) (x) value(mu) onto the fused value layout."""
        layout = self.fused_layout(lam, mu)
        fused_dim = sum(self.value_dim(p.irrep.label) * p.multiplicity for p in layout)
        n_lam, n_mu = self.value_dim(lam), self.value_dim(mu)
        if fused_dim != n_lam * n_mu:
            raise ValidationError(
                f"fusion dimensions are inconsistent at ({lam}, {mu})")
        # canonical: the decomposition coisometry, twisted
        same_dims = all(self.value_dim(p.irrep.label) == p.irrep.degree for p in layout) \
            and n_lam == self.cat.irrep(lam).dim and n_mu == self.cat.irrep(mu).dim
        if not same_dims:
            raise ValidationError("value dimensions do not match any carrier "
                                  "presentation; no structure map available")
        twist_out = block_diag([np.kron(self.twists[p.irrep.label], np.eye(p.multiplicity))
                                for p in layout])
        return (twist_out @ _stacked(layout, self._tensor(lam, mu).dim)
                @ np.kron(dagger(self.twists[lam]), dagger(self.twists[mu])))

    def balancing_defect(self) -> float:
        """Deviation from F(beta_x) = b_F(x): gradings must match the parities."""
        worst = 0.0
        for irr in self.cat.irreps():
            beta = self.cat.balancing(self.cat.object_of_irrep(irr)).matrix
            sign = float(np.real(np.trace(beta))) / irr.degree
            grading = self.value_grading(irr.label)
            worst = max(worst, float(np.max(np.abs(grading - sign)))
                        if grading.size else 0.0)
        return worst

    def validate(self, tol: float = 1e-8) -> float:
        """Run all point checks; returns the worst deviation or raises."""
        cat = self.cat
        worst = self.balancing_defect()
        if worst > tol:
            raise ValidationError(
                f"point does not preserve the balancing (defect {worst:.3e})",
                violation=worst)
        labels = [i.label for i in cat.irreps()]
        phis = {(lam, mu): self.structure_map(lam, mu) for lam in labels for mu in labels}
        for (lam, mu), phi in phis.items():
            n = phi.shape[0]
            worst = max(worst, max_dev(phi @ dagger(phi), np.eye(n)))
            worst = max(worst, max_dev(dagger(phi) @ phi, np.eye(n)))
            # braiding square: phi then the transported braiding against the
            # graded swap of the values then phi, with the Koszul sign -1
            # exactly where both value gradings are odd
            b_rep = Intertwiner(self._tensor(lam, mu), self._tensor(mu, lam),
                                cat.braiding(cat.irrep(lam), cat.irrep(mu)).matrix)
            transported = self._inflate(cat.to_blocks(b_rep, tol))
            value_b = _swap_matrix(self.value_dim(lam), self.value_dim(mu))
            if not cat.bosonic:
                g_lam, g_mu = self.value_grading(lam), self.value_grading(mu)
                value_b = value_b * np.where(np.outer(g_lam < 0, g_mu < 0), -1.0, 1.0).ravel()
            worst = max(worst, max_dev(transported @ phi, phis[mu, lam] @ value_b))
        if worst > tol:
            raise ValidationError(f"point coherence fails ({worst:.3e})", violation=worst)
        return worst

    def value_of(self, x: RepObject):
        """Dimension and grading of the point applied to an arbitrary object."""
        pieces = self.cat.decompose(x)
        dim = 0
        grading = []
        for p in pieces:
            n = self.value_dim(p.irrep.label)
            dim += n * p.multiplicity
            grading.extend(list(self.value_grading(p.irrep.label)) * p.multiplicity)
        return dim, np.array(grading)

    def morphism_value(self, f: Intertwiner, tol: float = 1e-8) -> np.ndarray:
        """Transport of a morphism to the point's value coordinates.

        Raises unless f is block-shaped in isotypic coordinates: in particular
        a map that mixes distinct simples has no value."""
        return self._inflate(self.cat.to_blocks(f, tol))

    def _inflate(self, a: BlockMorphism) -> np.ndarray:
        """Value coordinates of a skeletal morphism: kron(I_n, a_lam) for the
        value dimension n of each simple, block-diagonally."""
        return block_diag([np.kron(np.eye(self.value_dim(lab)), a.block(lab))
                           for lab, m, k in zip(a.space.simples, a.dst.mults, a.src.mults)
                           if m or k])

    def twisted(self, rng: np.random.Generator) -> "SpectrumPoint":
        """An isomorphic point: the same values on randomly rotated carriers."""
        twists = {lab: random_unitary(rng, self.value_dim(lab))
                  for lab in self.values}
        # twists must preserve the grading decomposition
        for lab, u in twists.items():
            g = np.diag(self.value_grading(lab))
            twists[lab] = 0.5 * (u + g @ u @ g)  # project to grading-even part
            q, _ = np.linalg.qr(twists[lab])
            twists[lab] = q
        return SpectrumPoint(self.cat, {k: v for k, v in self.values.items()},
                             twists, name=self.name + "-twisted")


def tautological_point(cat: RepCategory) -> SpectrumPoint:
    """The forgetful functor: each simple goes to its carrier with its parity grading."""
    values = {}
    for irr in cat.irreps():
        sign = -1.0 if (irr.parity == 1 and not cat.bosonic) else 1.0
        values[irr.label] = (irr.degree, np.full(irr.degree, sign))
    return SpectrumPoint(cat, values, name="tautological")


@dataclass
class GelfandHat:
    """Evaluation of an object at a finite sample of spectrum points."""

    x: RepObject
    points: list[SpectrumPoint]
    values: dict  # point name -> (dim, grading)

    def dims(self) -> dict:
        return {name: v[0] for name, v in self.values.items()}


def gelfand_hat(x: RepObject, points: list[SpectrumPoint],
                validate_points: bool = True) -> GelfandHat:
    """The evaluation transform: x goes to its tuple of point values."""
    values = {}
    for point in points:
        if validate_points:
            point.validate()
        values[point.name] = point.value_of(x)
    return GelfandHat(x, list(points), values)


def hat_homomorphism_defect(point: SpectrumPoint, x: RepObject, y: RepObject,
                            rng: np.random.Generator) -> float:
    """Deviation of the evaluation transform from a star-homomorphism.

    Checks that point values multiply under tensor, add under direct sum,
    and that star transports to the adjoint on a sampled endomorphism.
    """
    cat = point.cat
    worst = 0.0
    nx, _ = point.value_of(x)
    ny, _ = point.value_of(y)
    nxy, _ = point.value_of(cat.tensor(x, y))
    worst = max(worst, abs(nxy - nx * ny))
    nsum, _ = point.value_of(cat.direct_sum(x, y))
    worst = max(worst, abs(nsum - nx - ny))
    f = cat.hom_basis(x, x, rng)[0]
    worst = max(worst, max_dev(point.morphism_value(f.star()),
                               dagger(point.morphism_value(f))))
    g = cat.hom_basis(x, x, rng)[0]
    worst = max(worst, max_dev(point.morphism_value(f.then(g)),
                               point.morphism_value(g) @ point.morphism_value(f)))
    return float(worst)


def gelfand_hom_dim(point: SpectrumPoint, x: RepObject, y: RepObject) -> int:
    """Intertwiner dimension between hat-values under the reconstructed symmetries.

    The reconstructed transformations are the tuples of irreducible actions;
    the commutant of their action on the value carriers is computed by
    group averaging and must match the source hom dimension.
    """
    cat = point.cat
    order = cat.group.order

    def action(g, obj):
        pieces = cat.decompose(obj)
        blocks = []
        for p in pieces:
            u = point.twists[p.irrep.label]
            mat = u @ p.irrep.matrices[g] @ dagger(u)
            blocks.append(np.kron(mat, np.eye(p.multiplicity)))
        return block_diag(blocks)

    # the averaging projector onto the commutant has trace
    # (1/|R|) sum over transformations of tr(a_y) conj(tr(a_x))
    total = sum(np.trace(action(g, y)) * np.conj(np.trace(action(g, x)))
                for g in range(order))
    dim = float(np.real(total)) / order
    if abs(dim - round(dim)) > 1e-6:
        raise ValidationError("non-integral hom dimension between hat values")
    return int(round(dim))


# -- Tannaka reconstruction ------------------------------------------------------

@dataclass
class TannakaResult:
    group: FiniteGroup | None
    order: int
    is_cyclic: bool | None
    element_orders: tuple[int, ...]
    injection_verified: bool


def tannaka_reconstruct(cat: RepCategory) -> TannakaResult:
    """Reconstruct the symmetry group from the fiber functor.

    Abelian case: enumerate the monoidal unitary endotransformations of the
    forgetful functor (one unit scalar per character, multiplicative) as
    the characters of the materialized dual group.  General case: verify
    that the group injects into the transformation tuples.
    """
    group = cat.group
    if group.is_abelian:
        dual, dual_chars = dual_group(cat)
        dual_cat = RepCategory(dual)
        transformations = []
        for irr in dual_cat.irreps():
            values = irr.character  # one scalar per dual element
            if np.max(np.abs(np.abs(values) - 1.0)) > 1e-8:
                raise ValidationError("transformation is not unitary")
            if max_dev(np.outer(values, values), values[dual.matrix]) > 1e-6:
                raise ValidationError("transformation is not monoidal")
            transformations.append(np.round(values, 8))
        # group law: pointwise multiplication of scalar tuples
        table = _product_table(np.array(transformations),
                               "transformations do not close under product")
        rec = FiniteGroup.make(f"tannaka({group.name})", table)
        orders = tuple(sorted(rec.element_order(a) for a in range(rec.order)))
        want = tuple(sorted(group.element_order(a) for a in range(group.order)))
        if orders != want:
            raise ValidationError("reconstructed group has wrong element orders")
        return TannakaResult(rec, rec.order, rec.is_cyclic, orders, True)
    # nonabelian: injection of the group into transformation tuples
    irreps = cat.irreps()
    seen = set()
    for g in range(group.order):
        fingerprint = tuple(np.round(irr.matrices[g], 6).tobytes() for irr in irreps)
        seen.add(fingerprint)
    injective = len(seen) == group.order
    if not injective:
        raise ValidationError("group does not inject into its transformations")
    orders = tuple(sorted(group.element_order(a) for a in range(group.order)))
    return TannakaResult(None, len(seen), None, orders, True)
