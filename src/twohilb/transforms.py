"""Categorified Fourier transform, graded convolution algebras, and Tannaka
reconstruction, which is the Gelfand transform, at finite scale.  Rep(G) is
read only through ``RepCategory``'s public methods.

For a finite abelian group T the dual group is materialized from the
character table; the Fourier transform is Rep(T)'s equivalence with its
skeleton (``RepCategory.skeletal`` and ``to_blocks``, inverted by
``realize``) graded by the dual, with explicit unitary structure maps that
are validated numerically.  Graded objects and morphisms are
``hstar`` objects and block morphisms over a space with one simple per group
element.  Their convolution reads the group table directly: ``conv_layout``
is the one place that orders the pairs g1 g2 = g of a fiber.

The points of Rep(G) are the tuples (rho_lam(g))_lam of the irreducibles'
matrices at the group elements; evaluating the category at them is its
Gelfand transform, and ``tannaka_reconstruct`` checks that it recovers G.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompositionError, ValidationError
from .groups import FiniteGroup
from .hstar import (
    BlockMorphism,
    ObjectExpr,
    compose,
    identity,
    morphism_dev,
    star,
)
from .linalg import dagger, kron, max_abs, max_dev, swap_matrix
from .reps import Intertwiner, RepCategory, RepObject

__all__ = ["convolution_tensor", "conv_layout", "graded_braiding", "dual_group",
           "FourierMap", "tannaka_reconstruct", "TannakaResult"]


# -- graded convolution ---------------------------------------------------------

def convolution_tensor(group: FiniteGroup, x, y):
    """The convolution of two objects, or of two morphisms, of Hilb^G.

    Both live over one space with a simple per element of the group, in the
    group's order.  The fiber at g is the sum of x[g1] y[g2] over g1 g2 = g;
    a morphism's block at g is blockdiag of kron(x_g1, y_g2) over those pairs,
    laid out by ``conv_layout``.
    """
    if x.space != y.space:
        raise CompositionError("convolution needs both arguments over one space")
    if x.space.dim != group.order:
        raise CompositionError("convolution needs one simple per group element")
    if isinstance(x, ObjectExpr):
        fibers = np.bincount(group.matrix.ravel(), np.outer(x.mults, y.mults).ravel(),
                             minlength=group.order)
        return ObjectExpr.make(x.space, fibers.astype(int).tolist())
    src = convolution_tensor(group, x.src, y.src)
    dst = convolution_tensor(group, x.dst, y.dst)
    labels = x.space.simples
    blocks = {}
    for g, label in enumerate(labels):
        # a pair missing from either layout has an empty kron block
        rows = {(g1, g2): off for g1, g2, off, *_ in conv_layout(group, x.dst, y.dst, g)}
        mat = np.zeros((dst.mults[g], src.mults[g]), dtype=np.complex128)
        for g1, g2, off, nx, ny in conv_layout(group, x.src, y.src, g):
            if (g1, g2) in rows:
                part = kron(x.block(labels[g1]), y.block(labels[g2]))
                row = rows[g1, g2]
                mat[row:row + part.shape[0], off:off + nx * ny] = part
        blocks[label] = mat
    return BlockMorphism(src, dst, blocks)


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
            mat[doff:doff + nx * ny, off:off + nx * ny] = sign * swap_matrix(nx, ny)
        fibers.append(n)
        blocks[label] = mat
    # over an abelian group both convolutions have the same fibers
    obj = ObjectExpr.make(x.space, fibers)
    return BlockMorphism(obj, obj, blocks)


# -- the dual group -----------------------------------------------------------

def dual_group(cat: RepCategory) -> FiniteGroup:
    """The character group of a finite abelian group, as an explicit group
    whose elements are the irreducibles, ordered and named by their labels.

    The product of two characters is the one character in their tensor
    product: ``fusion_rules`` are nonnegative integers with chi_a chi_b =
    sum_c N[a, b, c] chi_c, so on degree-1 irreducibles each N[a, b] has a
    single 1, which argmax reads.  Kept on the group, so the dual is built
    once per group and grading.
    """
    group = cat.group
    if not group.is_abelian:
        raise ValidationError("the dual group is only formed for abelian groups")
    return cat._memo("dual_group", lambda: FiniteGroup.make(
        f"dual({group.name})", cat.fusion_rules().argmax(axis=2), cat.irrep_labels()))


# -- categorified Fourier transform -------------------------------------------

class FourierMap:
    """Isotypic-grading functor from representations of an abelian group.

    Lands on the skeleton of Rep(G): the dual group's element names are the
    irreducible labels, so its graded space is ``cat.skeleton()``; the
    inverse functor is ``cat.realize``.  Provides the unitary monoidal
    structure maps and the checks of them and of the round trip; all of
    them are concrete matrices.
    """

    def __init__(self, cat: RepCategory):
        self.cat = cat
        self.dual = dual_group(cat)
        self.space = cat.skeleton()
        # a dual element is odd when its character is -1 at the central
        # involution z; the bosonic symmetry ignores the grading
        self._parity = None if cat.bosonic else [irr.parity for irr in cat.irreps()]

    def coisometries(self, x: RepObject) -> list[np.ndarray]:
        """Per dual element: the co-isometry onto the isotypic component."""
        pieces = {p.irrep.label: p for p in self.cat.decompose(x)}
        return [pieces[lab].coisometry if lab in pieces
                else np.zeros((0, x.dim), dtype=np.complex128)
                for lab in self.space.simples]

    def transform(self, x: RepObject) -> ObjectExpr:
        return self.cat.skeletal(x)

    def _structure_map(self, x: RepObject, y: RepObject, xy: RepObject) -> BlockMorphism:
        """Unitary from the convolution of the images of x and y onto the
        image of their tensor object xy, whose decomposition is computed once
        and kept on it."""
        ux = self.coisometries(x)
        uy = self.coisometries(y)
        uxy = self.coisometries(xy)
        fx, fy = self.cat.skeletal(x), self.cat.skeletal(y)
        blocks = {}
        for g, label in enumerate(self.space.simples):
            layout = conv_layout(self.dual, fx, fy, g)
            if layout:
                include = np.hstack([kron(dagger(ux[g1]), dagger(uy[g2]))
                                     for g1, g2, *_ in layout])
                blocks[label] = uxy[g] @ include
        return BlockMorphism(convolution_tensor(self.dual, fx, fy),
                             self.cat.skeletal(xy), blocks)

    def monoidal_defect(self, x: RepObject, y: RepObject,
                        f: Intertwiner | None = None,
                        fp: Intertwiner | None = None) -> float:
        """Worst coherence residual of the structure maps at (x, y).

        Checks unitarity, the braiding square against the convolution
        symmetry, star compatibility and (when morphisms f: x -> x' and
        fp: y -> y' are supplied) naturality.  The tensor objects x (x) y,
        y (x) x and x' (x) y' are built once and shared by the structure
        maps, the braiding and the tensor of f and fp, so each of them is
        decomposed once.
        """
        cat = self.cat
        xy, yx = cat.tensor(x, y), cat.tensor(y, x)
        phi = self._structure_map(x, y, xy)
        if phi.src.mults != phi.dst.mults:
            raise ValidationError("structure map fiber is not square")
        phi_star = star(phi)
        worst = max(morphism_dev(compose(phi, phi_star), identity(phi.src)),
                    morphism_dev(compose(phi_star, phi), identity(phi.dst)))
        # braiding square
        phi_yx = self._structure_map(y, x, yx)
        braiding = Intertwiner(xy, yx, cat.braiding(x, y).matrix)
        lhs = compose(phi, cat.to_blocks(braiding))
        rhs = compose(graded_braiding(self.dual, cat.skeletal(x), cat.skeletal(y),
                                      self._parity), phi_yx)
        worst = max(worst, morphism_dev(lhs, rhs))
        if f is not None and fp is not None:
            if f.src is not x or fp.src is not y:
                raise CompositionError("naturality needs f to start at x and fp at y")
            dst = cat.tensor(f.dst, fp.dst)
            ff = cat.to_blocks(f)
            lhs = compose(convolution_tensor(self.dual, ff, cat.to_blocks(fp)),
                          self._structure_map(f.dst, fp.dst, dst))
            tensor_map = Intertwiner(xy, dst, cat.tensor_map(f, fp).matrix)
            rhs = compose(phi, cat.to_blocks(tensor_map))
            worst = max(worst, morphism_dev(lhs, rhs))
            worst = max(worst, morphism_dev(cat.to_blocks(f.star()), star(ff)))
        return worst

    def round_trip_defect(self, x: RepObject, f: Intertwiner | None = None) -> float:
        """Worst residual of the unitary eta = ``coordinates(x)``: x ->
        realize(skeletal(x)), and of ``from_blocks(to_blocks(f))`` against f."""
        cat = self.cat
        eta = Intertwiner(x, cat.realize(cat.skeletal(x)), cat.coordinates(x))
        worst = max_dev(eta.matrix @ dagger(eta.matrix), np.eye(x.dim))
        worst = max(worst, eta.equivariance_dev())
        if f is not None:
            back = cat.from_blocks(cat.to_blocks(f), f.src, f.dst)
            worst = max(worst, max_dev(back.matrix, f.matrix))
        return worst


# -- Tannaka reconstruction ------------------------------------------------------

@dataclass
class TannakaResult:
    order: int
    is_cyclic: bool
    element_orders: tuple[int, ...]
    deviation: float  # the worst representation-axiom or injectivity residual


def tannaka_reconstruct(cat: RepCategory) -> TannakaResult:
    """Reconstruct the symmetry group from the fiber functor.

    Each group element g gives the tuple (rho_lam(g))_lam of the
    irreducibles' matrices: a point of Rep(G), and evaluation at these
    points is the paper's Gelfand transform.  ``RepObject.validate``
    checks that each irreducible is a unitary representation, so g ->
    tuple is a homomorphism into unitary tuples, and ``fusion_rules``
    checks that the tuples are monoidal on characters, chi_lam chi_mu =
    sum_nu N_lam,mu^nu chi_nu.  The evaluation is injective when sum_lam d_lam
    chi_lam = |G| delta_e, the character of the regular representation,
    since rho(g) = I for every lam gives |G| at g.

    The list is complete.  The monoidal unitary automorphisms are the
    characters of the commutative algebra of matrix coefficients, whose
    dimension is sum_lam d_lam^2 = |G|, so |G| distinct tuples are all of
    them.  The result is kept on the group, like the dual group.
    """
    group = cat.group

    def build():
        irreps = cat.irreps()
        worst = max(cat.object_of_irrep(irr).validate() for irr in irreps)
        cat.fusion_rules()  # monoidal, or raises
        # injective: sum_lam d_lam chi_lam is |G| at the identity and 0 elsewhere
        regular = np.array([irr.degree for irr in irreps]) @ cat.character_table()
        regular[group.identity] -= group.order
        worst = max(worst, max_abs(regular))
        if worst > 1e-6:
            raise ValidationError("evaluation at the group elements is not an "
                                  "isomorphism onto the reconstructed group")
        orders = tuple(sorted(group.element_orders.tolist()))
        return TannakaResult(group.order, group.is_cyclic, orders, worst)
    return cat._memo("tannaka", build)
