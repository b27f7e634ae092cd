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
is the one place that sorts the coordinates of x (x) y into fibers.

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
from .linalg import block_diag, dagger, max_abs, max_dev
from .reps import Intertwiner, RepCategory, RepObject

__all__ = ["convolution_tensor", "conv_layout", "graded_braiding", "dual_group",
           "FourierMap", "tannaka_reconstruct", "TannakaResult"]


# -- graded convolution ---------------------------------------------------------

def convolution_tensor(group: FiniteGroup, x, y):
    """The convolution of two objects, or of two morphisms, of Hilb^G.

    Both live over one space with a simple per element of the group, in the
    group's order.  The fiber at g is the sum of x[g1] y[g2] over g1 g2 = g;
    a morphism's block at g is the kron of the block-diagonal matrices of x
    and y at the fibers g of its endpoints, laid out by ``conv_layout``.
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
    mx, my = (block_diag([f.block(s) for s in x.space.simples]) for f in (x, y))
    rows, row_at = conv_layout(group, x.dst, y.dst)
    cols, col_at = conv_layout(group, x.src, y.src)
    # entry (r |y| + s, c |y'| + t) of kron(mx, my) is mx[r, c] my[s, t]
    r, s = np.divmod(rows, my.shape[0])
    c, t = np.divmod(cols, my.shape[1])
    blocks = {}
    for g, label in enumerate(x.space.simples):
        i, j = slice(row_at[g], row_at[g + 1]), slice(col_at[g], col_at[g + 1])
        if i.start < i.stop and j.start < j.stop:
            blocks[label] = mx[r[i, None], c[j]] * my[s[i, None], t[j]]
    return BlockMorphism(src, dst, blocks)


def conv_layout(group: FiniteGroup, x: ObjectExpr, y: ObjectExpr):
    """The kron positions k = r |y| + s of the coordinates r of x and s of y,
    sorted stably by their fiber g1 g2, with g1 and g2 the simples of r and
    s, and the |G| + 1 offsets of the fibers: blockdiag of kron(x_g1, y_g2)
    over the pairs g1 g2 = g, in increasing g1, is the fiber at g."""
    fiber = group.matrix[np.repeat(np.arange(group.order), x.mults)[:, None],
                         np.repeat(np.arange(group.order), y.mults)].ravel()
    sizes = np.bincount(fiber, minlength=group.order)
    return np.argsort(fiber, kind="stable"), np.concatenate(([0], np.cumsum(sizes)))


def graded_braiding(group: FiniteGroup, x: ObjectExpr, y: ObjectExpr,
                    parity=None) -> BlockMorphism:
    """The symmetry of the convolution product (abelian grading group).

    ``parity[g]`` is 1 for an odd grading element; the swap of fibers g1 and
    g2 then carries the Koszul sign -1 when both are odd.  Without it every
    element is even and the swap is unsigned.
    """
    if not group.is_abelian:
        raise ValidationError("the convolution braiding needs an abelian group")
    cols, at = conv_layout(group, x, y)
    # position r |y| + s of x (x) y goes to s |x| + r of y (x) x, in the same
    # fiber over an abelian group, and argsort of y (x) x's order finds its row
    r, s = np.divmod(cols, sum(y.mults))
    target = np.argsort(conv_layout(group, y, x)[0])[s * sum(x.mults) + r]
    odd = np.zeros(group.order, dtype=int) if parity is None else np.asarray(parity)
    signs = 1.0 - 2.0 * (np.repeat(odd, x.mults)[r] * np.repeat(odd, y.mults)[s])
    blocks = {}
    for g, label in enumerate(x.space.simples):
        k = slice(at[g], at[g + 1])
        mat = np.zeros((k.stop - k.start,) * 2, dtype=np.complex128)
        mat[target[k] - at[g], np.arange(len(mat))] = signs[k]
        blocks[label] = mat
    # over an abelian group both convolutions have the same fibers
    obj = ObjectExpr.make(x.space, np.diff(at).tolist())
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

    def transform(self, x: RepObject) -> ObjectExpr:
        return self.cat.skeletal(x)

    def _structure_map(self, x: RepObject, y: RepObject, xy: RepObject) -> BlockMorphism:
        """Unitary from the convolution of the images of x and y onto the
        image of their tensor object xy, whose decomposition is computed once
        and kept on it.  Every degree is 1, so ``coordinates`` has a row per
        skeletal coordinate, and the block at g takes U_xy's rows at g and
        the columns of kron(U_x^H, U_y^H) at ``conv_layout``'s fiber g."""
        cat = self.cat
        fx, fy, fxy = cat.skeletal(x), cat.skeletal(y), cat.skeletal(xy)
        ux, uy = dagger(cat.coordinates(x)), dagger(cat.coordinates(y))
        uxy = cat.coordinates(xy)
        cols, at = conv_layout(self.dual, fx, fy)
        r, s = np.divmod(cols, y.dim)
        include = (ux[:, None, r] * uy[None, :, s]).reshape(x.dim * y.dim, len(cols))
        rows = np.cumsum([0, *fxy.mults])
        blocks = {label: uxy[rows[g]:rows[g + 1]] @ include[:, at[g]:at[g + 1]]
                  for g, label in enumerate(self.space.simples) if at[g] < at[g + 1]}
        return BlockMorphism(convolution_tensor(self.dual, fx, fy), fxy, blocks)

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
