"""Morphisms between skeletal 2-Hilbert spaces, and their tensor product.

A functor between two spaces is a nonnegative-integer multiplicity matrix
(rows indexed by source simples, columns by target simples).  Its adjoint,
on both sides, is the transposed matrix.

Coordinate convention: ``apply(F, x)`` enumerates the image coordinates at
a target simple as (source simple, copy index, inflation index), in
lexicographic order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CompositionError, ValidationError
from .hstar import BlockMorphism, ObjectExpr, SpaceTable
from .linalg import block_diag

__all__ = ["FusionFunctor", "hom_dim", "adjoint_functor", "TensorSpace", "tensor_space"]


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


def adjoint_functor(f: FusionFunctor) -> FusionFunctor:
    """Left-and-right adjoint: the transposed multiplicity matrix."""
    return FusionFunctor.make(f.dst, f.src, f.matrix.T)


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
