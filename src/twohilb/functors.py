"""Morphisms between skeletal 2-Hilbert spaces.

A functor between two spaces is a nonnegative-integer multiplicity matrix
(rows indexed by source simples, columns by target simples).  It sends an
object's multiplicity vector v to v F, and its adjoint, on both sides, is
the transposed matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CompositionError, ValidationError
from .hstar import ObjectExpr, SpaceTable

__all__ = ["FusionFunctor", "hom_dim", "adjoint_functor"]


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


def adjoint_functor(f: FusionFunctor) -> FusionFunctor:
    """Left-and-right adjoint: the transposed multiplicity matrix."""
    return FusionFunctor.make(f.dst, f.src, f.matrix.T)


def apply_object(f: FusionFunctor, x: ObjectExpr) -> ObjectExpr:
    if x.space != f.src:
        raise CompositionError("object lives over the wrong space")
    return ObjectExpr.make(f.dst, (np.asarray(x.mults) @ f.matrix).tolist())
