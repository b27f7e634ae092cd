"""Morphisms between skeletal 2-Hilbert spaces and their 2-morphisms.

A functor between two spaces is a nonnegative-integer multiplicity matrix
(rows indexed by source simples, columns by target simples).  A natural
transformation is stored by its components on the source simples; the
extension to arbitrary objects acts blockwise with the same coordinate
convention as functor application, so no extra data is needed.

Coordinate convention: ``apply(F, x)`` enumerates the image coordinates at
a target simple as (source simple, copy index, inflation index), in
lexicographic order.  Composite functors enumerate their inflation index
as (middle simple, first inflation, second inflation), lexicographically.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CompositionError, ValidationError
from .hstar import (
    BlockMorphism,
    ObjectExpr,
    SpaceTable,
    compose,
    identity,
    inner_product,
    morphism_dev,
    polar_decompose,
    star,
)
from .linalg import DEFAULT_TOL, block_diag

__all__ = [
    "FusionFunctor", "NatBlock", "hom_dim", "adjoint_functor", "funcomp",
    "functor_tensor", "hilb_table", "HomSpace", "hom_space", "dual_space",
    "riesz_represent", "TensorSpace", "tensor_space", "braiding_functor",
    "horizontal", "matrix_unit_adjunction", "adjunction_dev",
    "equivalence_pair", "involutor_composites",
]


def hom_dim(x: ObjectExpr, y: ObjectExpr) -> int:
    """Dimension of hom(x, y): the simples are mutually orthogonal."""
    if x.space != y.space:
        raise CompositionError("hom requires objects over one space")
    return int(sum(a * b for a, b in zip(x.mults, y.mults)))


@dataclass(frozen=True)
class FusionFunctor:
    """A 2-Hilbert-space morphism as a nonnegative-integer multiplicity matrix."""

    src: SpaceTable
    dst: SpaceTable
    mult: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(src: SpaceTable, dst: SpaceTable, mult) -> "FusionFunctor":
        arr = np.asarray(mult, dtype=int)
        if arr.shape != (src.dim, dst.dim):
            raise ValidationError(f"multiplicity matrix must be {src.dim} x {dst.dim}")
        if np.any(arr < 0):
            raise ValidationError("multiplicities must be nonnegative")
        return FusionFunctor(src, dst, tuple(map(tuple, arr.tolist())))

    @staticmethod
    def identity_on(space: SpaceTable) -> "FusionFunctor":
        return FusionFunctor.make(space, space, np.eye(space.dim, dtype=int))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The multiplicity matrix, built on first read and shared read-only."""
        arr = np.asarray(self.mult, dtype=int).reshape(self.src.dim, self.dst.dim)
        arr.flags.writeable = False
        return arr

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero multiplicities as (source index, target index, count)
        arrays, ordered by target and then by source."""
        cols, rows = np.nonzero(self.matrix.T)
        return rows, cols, self.matrix[rows, cols]

    @property
    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    def entry(self, src_label: str, dst_label: str) -> int:
        return self.matrix[self.src.simples.index(src_label),
                           self.dst.simples.index(dst_label)]

    def to_json(self) -> dict:
        return {"src": self.src.to_json(), "dst": self.dst.to_json(),
                "mult": [list(r) for r in self.mult]}

    @staticmethod
    def from_json(data: dict) -> "FusionFunctor":
        return FusionFunctor.make(SpaceTable.from_json(data["src"]),
                                  SpaceTable.from_json(data["dst"]),
                                  data["mult"])


def adjoint_functor(f: FusionFunctor) -> FusionFunctor:
    """Left-and-right adjoint: the transposed multiplicity matrix."""
    return FusionFunctor.make(f.dst, f.src, f.matrix.T)


def funcomp(f: FusionFunctor, g: FusionFunctor) -> FusionFunctor:
    """Composite "first f, then g" as a plain multiplicity matrix."""
    if f.dst != g.src:
        raise CompositionError("functor endpoints do not match")
    return FusionFunctor.make(f.src, g.dst, f.matrix @ g.matrix)


def apply_object(f: FusionFunctor, x: ObjectExpr) -> ObjectExpr:
    if x.space != f.src:
        raise CompositionError("object lives over the wrong space")
    rows, cols, counts = f.entries
    mults = np.bincount(cols, np.asarray(x.mults)[rows] * counts, minlength=f.dst.dim)
    return ObjectExpr.make(f.dst, mults.astype(int).tolist())


def apply_morphism(f: FusionFunctor, m: BlockMorphism) -> BlockMorphism:
    """Inflate each block: the image block at mu is blockdiag over lambda of m_lambda (x) I."""
    if m.space != f.src:
        raise CompositionError("morphism lives over the wrong space")
    src = apply_object(f, m.src)
    dst = apply_object(f, m.dst)
    rows, cols, counts = f.entries
    # a simple where m has no source and no target coordinate adds nothing
    keep = (np.asarray(m.src.mults) + np.asarray(m.dst.mults) > 0)[rows]
    pieces = {}
    for row, col, n in zip(rows[keep].tolist(), cols[keep].tolist(), counts[keep].tolist()):
        b = m.block(f.src.simples[row])
        pieces.setdefault(col, []).append(b if n == 1 else np.kron(b, np.eye(n)))
    blocks = {}
    for col, parts in pieces.items():
        total = block_diag(parts)
        if total.size:
            blocks[f.dst.simples[col]] = total
    return BlockMorphism(src, dst, blocks)


def apply(f: FusionFunctor, arg):
    """Apply a functor to an object or a morphism."""
    if isinstance(arg, ObjectExpr):
        return apply_object(f, arg)
    if isinstance(arg, BlockMorphism):
        return apply_morphism(f, arg)
    raise TypeError("expected an ObjectExpr or BlockMorphism")


class NatBlock:
    """A natural transformation between two functors, stored on source simples.

    ``components[lam]`` is a BlockMorphism over the target space from
    ``apply(src_functor, e_lam)`` to ``apply(dst_functor, e_lam)``.
    """

    def __init__(self, src: FusionFunctor, dst: FusionFunctor, components):
        if src.src != dst.src or src.dst != dst.dst:
            raise CompositionError("functor endpoints do not match")
        self.src = src
        self.dst = dst
        self.components = {}
        for lam in src.src.simples:
            e = src.src.simple(lam)
            want_src = apply_object(src, e)
            want_dst = apply_object(dst, e)
            comp = components.get(lam)
            if comp is None:
                comp = BlockMorphism(want_src, want_dst, {})
            if comp.src != want_src or comp.dst != want_dst:
                raise ValidationError(f"component at {lam!r} has wrong endpoints")
            self.components[lam] = comp

    @staticmethod
    def identity_on(f: FusionFunctor) -> "NatBlock":
        comps = {lam: identity(apply_object(f, f.src.simple(lam)))
                 for lam in f.src.simples}
        return NatBlock(f, f, comps)

    @staticmethod
    def from_equal_multiplicities(f: FusionFunctor, g: FusionFunctor) -> "NatBlock":
        """The identity-matrix witness between two functors with equal multiplicities."""
        if f.mult != g.mult:
            raise ValidationError("functors do not have equal multiplicity matrices")
        comps = {lam: identity(apply_object(f, f.src.simple(lam)))
                 for lam in f.src.simples}
        return NatBlock(f, g, comps)

    def component(self, lam: str) -> BlockMorphism:
        return self.components[lam]

    def at_object(self, x: ObjectExpr) -> BlockMorphism:
        """Blockwise extension to an arbitrary object of the source space."""
        if x.space != self.src.src:
            raise CompositionError("object lives over the wrong space")
        src_obj = apply_object(self.src, x)
        dst_obj = apply_object(self.dst, x)
        blocks = {}
        for col, mu in enumerate(self.src.dst.simples):
            pieces = []
            for row, lam in enumerate(self.src.src.simples):
                n = x.mults[row]
                if n == 0:
                    continue
                comp_block = self.components[lam].block(mu)
                pieces.append(np.kron(np.eye(n), comp_block))
            if pieces:
                total = block_diag(pieces)
                if total.size:
                    blocks[mu] = total
        return BlockMorphism(src_obj, dst_obj, blocks)

    def vertical(self, other: "NatBlock") -> "NatBlock":
        """First self, then other."""
        if self.dst.mult != other.src.mult or self.dst.src != other.src.src:
            raise CompositionError("vertical composition endpoints do not match")
        comps = {lam: compose(self.components[lam], other.components[lam])
                 for lam in self.components}
        return NatBlock(self.src, other.dst, comps)

    def dual(self) -> "NatBlock":
        return NatBlock(self.dst, self.src,
                        {lam: star(c) for lam, c in self.components.items()})

    def __add__(self, other: "NatBlock") -> "NatBlock":
        return NatBlock(self.src, self.dst,
                        {lam: self.components[lam] + other.components[lam]
                         for lam in self.components})

    def __rmul__(self, c: complex) -> "NatBlock":
        return NatBlock(self.src, self.dst,
                        {lam: c * comp for lam, comp in self.components.items()})

    def inner(self, other: "NatBlock") -> complex:
        """Sum of the target-space inner products of the components on simples."""
        if self.src.mult != other.src.mult or self.dst.mult != other.dst.mult:
            raise CompositionError("inner product requires equal endpoints")
        return complex(sum(inner_product(self.components[lam], other.components[lam])
                           for lam in self.components))

    def dev_from(self, other: "NatBlock") -> float:
        return max((morphism_dev(self.components[lam], other.components[lam])
                    for lam in self.components), default=0.0)

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        one_src = NatBlock.identity_on(self.src)
        one_dst = NatBlock.identity_on(self.dst)
        return (self.vertical(self.dual()).dev_from(one_src) <= tol
                and self.dual().vertical(self).dev_from(one_dst) <= tol)

    def naturality_dev(self, f: BlockMorphism) -> float:
        """Deviation of the naturality square at a morphism of the source space."""
        lhs = compose(apply_morphism(self.src, f), self.at_object(f.dst))
        rhs = compose(self.at_object(f.src), apply_morphism(self.dst, f))
        return morphism_dev(lhs, rhs)

    def polar(self) -> tuple["NatBlock", "NatBlock"]:
        """Factor an invertible transformation as self-adjoint then unitary, componentwise."""
        pos = {}
        uni = {}
        for lam, c in self.components.items():
            if c.src.total_dim == 0:
                pos[lam] = c
                uni[lam] = c
                continue
            a, u = polar_decompose(c)
            pos[lam] = a
            uni[lam] = u
        return NatBlock(self.src, self.src, pos), NatBlock(self.src, self.dst, uni)

    def to_json(self) -> dict:
        return {"src": self.src.to_json(), "dst": self.dst.to_json(),
                "components": {lam: c.to_json() for lam, c in self.components.items()}}

    @staticmethod
    def from_json(data: dict) -> "NatBlock":
        src = FusionFunctor.from_json(data["src"])
        dst = FusionFunctor.from_json(data["dst"])
        comps = {lam: BlockMorphism.from_json(c)
                 for lam, c in data["components"].items()}
        return NatBlock(src, dst, comps)


def horizontal(alpha: NatBlock, beta: NatBlock) -> NatBlock:
    """Horizontal composite of alpha: F => F' (A -> B) and beta: G => G' (B -> C)."""
    if alpha.src.dst != beta.src.src:
        raise CompositionError("horizontal composition endpoints do not match")
    f, fp = alpha.src, alpha.dst
    g, gp = beta.src, beta.dst
    comps = {}
    for lam in f.src.simples:
        step1 = apply_morphism(g, alpha.components[lam])
        step2 = beta.at_object(apply_object(fp, f.src.simple(lam)))
        comps[lam] = compose(step1, step2)
    return NatBlock(funcomp(f, g), funcomp(fp, gp), comps)


# -- adjunctions between functors -------------------------------------------

def _composite_labels(f: FusionFunctor, g: FusionFunctor, lam_idx: int, mu0_idx: int):
    """Enumeration (middle, i, r) of the inflation index of funcomp(f, g)."""
    fm, gm = f.matrix, g.matrix
    return [(mid, i, r)
            for mid in range(f.dst.dim)
            for i in range(fm[lam_idx, mid])
            for r in range(gm[mid, mu0_idx])]


def matrix_unit_adjunction(f: FusionFunctor) -> tuple[NatBlock, NatBlock]:
    """Canonical unit and counit exhibiting the transpose as a two-sided adjoint.

    Returns ``(unit, counit)`` with unit: Id => funcomp(f, f*) and counit:
    funcomp(f*, f) => Id, in the composite coordinate convention above.
    """
    g = adjoint_functor(f)
    h, k = f.src, f.dst
    p = funcomp(f, g)
    q = funcomp(g, f)
    unit_comps = {}
    for li, lam in enumerate(h.simples):
        e = h.simple(lam)
        target = apply_object(p, e)
        labels = _composite_labels(f, g, li, li)
        col = np.array([[1.0 if i == r else 0.0] for (_, i, r) in labels],
                       dtype=np.complex128)
        blocks = {lam: col} if col.size else {}
        unit_comps[lam] = BlockMorphism(e, target, blocks)
    counit_comps = {}
    for mi, mu in enumerate(k.simples):
        e = k.simple(mu)
        source = apply_object(q, e)
        labels = _composite_labels(g, f, mi, mi)
        row = np.array([[1.0 if s == r else 0.0 for (_, s, r) in labels]],
                       dtype=np.complex128)
        blocks = {mu: row} if row.size else {}
        counit_comps[mu] = BlockMorphism(source, e, blocks)
    unit = NatBlock(FusionFunctor.identity_on(h), p, unit_comps)
    counit = NatBlock(q, FusionFunctor.identity_on(k), counit_comps)
    return unit, counit


def _alignment_permutation(labels_from, labels_to) -> np.ndarray:
    index = {lab: pos for pos, lab in enumerate(labels_to)}
    n = len(labels_from)
    perm = np.zeros((n, n), dtype=np.complex128)
    for pos, lab in enumerate(labels_from):
        perm[index[lab], pos] = 1.0
    return perm


def adjunction_dev(f: FusionFunctor, g: FusionFunctor,
                   unit: NatBlock, counit: NatBlock) -> float:
    """Largest deviation of the two triangle identities for (f, g, unit, counit).

    ``unit``: Id => funcomp(f, g); ``counit``: funcomp(g, f) => Id.
    """
    h, k = f.src, f.dst
    fm, gm = f.matrix, g.matrix
    worst = 0.0
    # first triangle, one equation per simple of the source space
    for li, lam in enumerate(h.simples):
        e = h.simple(lam)
        z = apply_object(f, e)
        lhs1 = apply_morphism(f, unit.components[lam])
        step2 = counit.at_object(z)
        blocks = {}
        for mi0, mu0 in enumerate(k.simples):
            # apply(f, unit_lam) target labels at mu0: (nu, (mu, i, r), r0)
            from_labels = [(mu, i, nu, r, r0)
                           for nu in range(h.dim)
                           for (mu, i, r) in _composite_labels(f, g, li, nu)
                           for r0 in range(fm[nu, mi0])]
            # counit.at_object(z) source labels at mu0: (mu', a, (nu', s, r'))
            to_labels = [(mup, a, nup, s, rp)
                         for mup in range(k.dim)
                         for a in range(fm[li, mup])
                         for (nup, s, rp) in _composite_labels(g, f, mup, mi0)]
            if from_labels:
                blocks[mu0] = _alignment_permutation(from_labels, to_labels)
        align = BlockMorphism(lhs1.dst, step2.src, blocks)
        tri = compose(compose(lhs1, align), step2)
        worst = max(worst, morphism_dev(tri, identity(z)))
    # second triangle, one equation per simple of the target space
    for mi, mu in enumerate(k.simples):
        e = k.simple(mu)
        z = apply_object(g, e)
        lhs1 = unit.at_object(z)
        step2 = apply_morphism(g, counit.components[mu])
        blocks = {}
        for ni0, nu0 in enumerate(h.simples):
            # unit.at_object(z) target labels at nu0: (lam, a, (mu2, i, r))
            from_labels = [(lam2, a, mu2, i, r)
                           for lam2 in range(h.dim)
                           for a in range(gm[mi, lam2])
                           for (mu2, i, r) in _composite_labels(f, g, lam2, ni0)]
            # apply(g, counit_mu) source labels at nu0: (mu3, (nu', s, r'), r2)
            to_labels = [(nup, s, mu3, rp, r2)
                         for mu3 in range(k.dim)
                         for (nup, s, rp) in _composite_labels(g, f, mi, mu3)
                         for r2 in range(gm[mu3, ni0])]
            if from_labels:
                blocks[nu0] = _alignment_permutation(from_labels, to_labels)
        align = BlockMorphism(lhs1.dst, step2.src, blocks)
        tri = compose(compose(lhs1, align), step2)
        worst = max(worst, morphism_dev(tri, identity(z)))
    return worst


def equivalence_pair(h: SpaceTable, k: SpaceTable):
    """A unitary equivalence between two spaces of equal dimension.

    Pairs the simples in table order; returns (f, g, unit, counit) where the
    unit and counit are unitary.  Raises when the dimensions differ.
    """
    if h.dim != k.dim:
        raise ValidationError("spaces of different dimension are not equivalent")
    f = FusionFunctor.make(h, k, np.eye(h.dim, dtype=int))
    g = FusionFunctor.make(k, h, np.eye(h.dim, dtype=int))
    unit, counit = matrix_unit_adjunction(f)
    counit = NatBlock(funcomp(g, f), FusionFunctor.identity_on(k), counit.components)
    return f, g, unit, counit


# -- hom spaces, duals, Riesz ------------------------------------------------

def hilb_table() -> SpaceTable:
    """The one-simple space with weight 1: the coefficient 2-Hilbert space."""
    return SpaceTable.make(["C"], {"C": 1.0})


@dataclass(frozen=True)
class HomSpace:
    """The 2-Hilbert space of functors between two spaces.

    Simples are the matrix-unit functors, labelled "lam>mu"; the weight of
    "lam>mu" is the weight of mu in the target space.
    """

    src: SpaceTable
    dst: SpaceTable
    table: SpaceTable

    def unit_functor(self, lam: str, mu: str) -> FusionFunctor:
        mat = np.zeros((self.src.dim, self.dst.dim), dtype=int)
        mat[self.src.simples.index(lam), self.dst.simples.index(mu)] = 1
        return FusionFunctor.make(self.src, self.dst, mat)

    def embed_functor(self, f: FusionFunctor) -> ObjectExpr:
        if f.src != self.src or f.dst != self.dst:
            raise CompositionError("functor has the wrong endpoints")
        mults = {}
        for li, lam in enumerate(self.src.simples):
            for mi, mu in enumerate(self.dst.simples):
                n = f.matrix[li, mi]
                if n:
                    mults[f"{lam}>{mu}"] = n
        return ObjectExpr.make(self.table, mults)

    def embed_nat(self, alpha: NatBlock) -> BlockMorphism:
        src_obj = self.embed_functor(alpha.src)
        dst_obj = self.embed_functor(alpha.dst)
        blocks = {}
        for lam in self.src.simples:
            comp = alpha.components[lam]
            for mu in self.dst.simples:
                b = comp.block(mu)
                if b.size:
                    blocks[f"{lam}>{mu}"] = b
        return BlockMorphism(src_obj, dst_obj, blocks)


def hom_space(src: SpaceTable, dst: SpaceTable) -> HomSpace:
    labels = [f"{lam}>{mu}" for lam in src.simples for mu in dst.simples]
    weights = {f"{lam}>{mu}": dst.weight(mu)
               for lam in src.simples for mu in dst.simples}
    return HomSpace(src, dst, SpaceTable.make(labels, weights))


def dual_space(h: SpaceTable) -> HomSpace:
    return hom_space(h, hilb_table())


def riesz_represent(f: FusionFunctor) -> ObjectExpr:
    """The object x with hom(x, -) naturally isomorphic to a functor into the coefficients."""
    if f.dst.dim != 1:
        raise ValidationError("riesz representation needs a functor into the one-simple space")
    return ObjectExpr.make(f.src, tuple(int(v) for v in f.matrix[:, 0]))


# -- tensor products and braiding -------------------------------------------

@dataclass(frozen=True)
class TensorSpace:
    """Tensor product of two spaces: pair simples with product weights."""

    left: SpaceTable
    right: SpaceTable
    table: SpaceTable

    def pair_label(self, lam: str, mu: str) -> str:
        return f"({lam},{mu})"

    def object_pair(self, x: ObjectExpr, y: ObjectExpr) -> ObjectExpr:
        if x.space != self.left or y.space != self.right:
            raise CompositionError("objects live over the wrong factors")
        mults = {}
        for lam, a in zip(self.left.simples, x.mults):
            for mu, b in zip(self.right.simples, y.mults):
                if a * b:
                    mults[self.pair_label(lam, mu)] = a * b
        return ObjectExpr.make(self.table, mults)

    def morphism_pair(self, f: BlockMorphism, g: BlockMorphism) -> BlockMorphism:
        src = self.object_pair(f.src, g.src)
        dst = self.object_pair(f.dst, g.dst)
        # an absent block is zero, and so is its kron product with any block
        blocks = {self.pair_label(lam, mu): np.kron(fb, gb)
                  for lam, fb in f.blocks.items() for mu, gb in g.blocks.items()}
        return BlockMorphism(src, dst, blocks)


def tensor_space(left: SpaceTable, right: SpaceTable) -> TensorSpace:
    labels = []
    weights = {}
    for lam, wl in zip(left.simples, left.weights):
        for mu, wr in zip(right.simples, right.weights):
            lab = f"({lam},{mu})"
            labels.append(lab)
            weights[lab] = wl * wr
    return TensorSpace(left, right, SpaceTable.make(labels, weights))


def braiding_functor(left: SpaceTable, right: SpaceTable) -> FusionFunctor:
    """Pair-swap permutation functor from left (x) right to right (x) left."""
    src = tensor_space(left, right)
    dst = tensor_space(right, left)
    mat = np.zeros((src.table.dim, dst.table.dim), dtype=int)
    for li, lam in enumerate(left.simples):
        for mi, mu in enumerate(right.simples):
            mat[li * right.dim + mi, mi * left.dim + li] = 1
    return FusionFunctor.make(src.table, dst.table, mat)


def functor_tensor(f: FusionFunctor, g: FusionFunctor) -> FusionFunctor:
    """Tensor of two functors between the corresponding tensor spaces."""
    src = tensor_space(f.src, g.src)
    dst = tensor_space(f.dst, g.dst)
    return FusionFunctor.make(src.table, dst.table, np.kron(f.matrix, g.matrix))


def involutor_composites(left: SpaceTable, right: SpaceTable):
    """The two horizontal composites of the involutor with the braiding.

    The double swap has the identity multiplicity matrix, so the involutor
    is the equal-multiplicity witness; the two whiskered composites must
    agree componentwise.
    """
    r = braiding_functor(left, right)
    r_back = braiding_functor(right, left)
    double = funcomp(r, r_back)
    ident = FusionFunctor.identity_on(r.src)
    invol = NatBlock.from_equal_multiplicities(double, ident)
    double_back = funcomp(r_back, r)
    ident_back = FusionFunctor.identity_on(r_back.src)
    invol_back = NatBlock.from_equal_multiplicities(double_back, ident_back)
    one_r = NatBlock.identity_on(r)
    first = horizontal(invol, one_r)
    second = horizontal(one_r, invol_back)
    return first, second
