"""Skeletal finite-dimensional 2-Hilbert spaces and their block morphisms.

A space is a finite ordered list of simple labels with positive weights.
Objects are multiplicity vectors over the simples; a morphism carries one
complex matrix per simple label, mapping source coordinates to target
coordinates.  ``compose(f, g)`` means "first f, then g", so the stored
matrices multiply as ``g_block @ f_block``.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import CompositionError, ValidationError
from .linalg import dagger, max_abs

__all__ = [
    "SpaceTable",
    "ObjectExpr",
    "BlockMorphism",
    "compose",
    "star",
    "inner_product",
    "identity",
    "morphism_dev",
]


@dataclass(frozen=True)
class SpaceTable:
    """Ordered simple labels with positive weights; the empty table is the zero space."""

    simples: tuple[str, ...]
    weights: tuple[float, ...]

    @staticmethod
    def make(simples: Iterable[str], weights: Mapping[str, float] | None = None) -> "SpaceTable":
        simples = tuple(str(s) for s in simples)
        if len(set(simples)) != len(simples):
            raise ValidationError("simple labels must be distinct")
        if weights is None:
            wt = tuple(1.0 for _ in simples)
        else:
            missing = [s for s in simples if s not in weights]
            if missing:
                raise ValidationError(f"missing weights for {missing}")
            wt = tuple(float(weights[s]) for s in simples)
        if any(w <= 0 for w in wt):
            raise ValidationError("weights must be strictly positive")
        return SpaceTable(simples, wt)

    @property
    def dim(self) -> int:
        return len(self.simples)

    def simple(self, label: str) -> "ObjectExpr":
        return ObjectExpr.make(self, {label: 1})


@dataclass(frozen=True)
class ObjectExpr:
    """Multiplicity vector over the simples of a space; all-zero is the zero object."""

    space: SpaceTable
    mults: tuple[int, ...]

    @staticmethod
    def make(space: SpaceTable, mult: Mapping[str, int] | Iterable[int]) -> "ObjectExpr":
        if isinstance(mult, Mapping):
            unknown = [k for k in mult if k not in space.simples]
            if unknown:
                raise ValidationError(f"labels {unknown} not in space")
            vec = tuple(int(mult.get(s, 0)) for s in space.simples)
        else:
            vec = tuple(int(m) for m in mult)
            if len(vec) != space.dim:
                raise ValidationError("multiplicity vector length mismatch")
        if any(m < 0 for m in vec):
            raise ValidationError("multiplicities must be nonnegative")
        return ObjectExpr(space, vec)


def _check_same_space(a: SpaceTable, b: SpaceTable) -> None:
    if a is not b and a != b:
        raise CompositionError("objects live over different space tables")


class BlockMorphism:
    """A morphism between two objects, stored as one complex block per simple.

    The block at the i-th simple has shape ``(dst.mults[i], src.mults[i])``
    and maps source coordinates to target coordinates.  Absent blocks are
    zero.  The blocks are read-only copies, kept in the space's simple
    order, so sums and composites do not depend on the order of the input.
    """

    def __init__(self, src: ObjectExpr, dst: ObjectExpr,
                 blocks: Mapping[str, np.ndarray] | None = None):
        _check_same_space(src.space, dst.space)
        self.src = src
        self.dst = dst
        store: dict[str, np.ndarray] = {}
        if blocks:
            simples = src.space.simples
            ordered, last = True, -1
            for label, mat in blocks.items():
                try:
                    i = simples.index(label)
                except ValueError:
                    raise ValidationError(f"block label {label!r} not in space") from None
                mat = np.array(mat, dtype=np.complex128)
                want = (dst.mults[i], src.mults[i])
                if mat.shape != want:
                    raise ValidationError(
                        f"block {label!r} has shape {mat.shape}, expected {want}")
                if mat.size == 0:
                    continue
                mat.flags.writeable = False
                store[label] = mat
                ordered, last = ordered and i > last, i
            if not ordered:
                store = {s: store[s] for s in simples if s in store}
        self.blocks = store

    @property
    def space(self) -> SpaceTable:
        return self.src.space

    def block(self, label: str) -> np.ndarray:
        """The block at ``label`` (materializing zeros for absent blocks)."""
        if label in self.blocks:
            return self.blocks[label]
        i = self.space.simples.index(label)
        return np.zeros((self.dst.mults[i], self.src.mults[i]), dtype=np.complex128)

    def __add__(self, other: "BlockMorphism") -> "BlockMorphism":
        if self.src != other.src or self.dst != other.dst:
            raise CompositionError("cannot add morphisms with different endpoints")
        a, b = self.blocks, other.blocks
        return BlockMorphism(self.src, self.dst,
                             {s: self.block(s) + other.block(s)
                              for s in self.space.simples if s in a or s in b})

    def __sub__(self, other: "BlockMorphism") -> "BlockMorphism":
        return self + (-1.0) * other

    def __rmul__(self, c: complex) -> "BlockMorphism":
        return BlockMorphism(self.src, self.dst,
                             {s: c * m for s, m in self.blocks.items()})

    def __neg__(self) -> "BlockMorphism":
        return (-1.0) * self

    def __repr__(self):
        sup = {s: self.block(s).shape for s in self.blocks}
        return f"BlockMorphism({sup})"


def identity(x: ObjectExpr) -> BlockMorphism:
    return BlockMorphism(x, x, {s: np.eye(m) for s, m in zip(x.space.simples, x.mults) if m})


def compose(first: BlockMorphism, second: BlockMorphism) -> BlockMorphism:
    """Composite "first, then second"; requires first.dst == second.src."""
    if first.space != second.space or first.dst != second.src:
        raise CompositionError("inner endpoints do not match")
    after = second.blocks
    blocks = {s: after[s] @ m for s, m in first.blocks.items() if s in after}
    return BlockMorphism(first.src, second.dst, blocks)


def star(f: BlockMorphism) -> BlockMorphism:
    """Blockwise conjugate transpose; swaps source and target."""
    return BlockMorphism(f.dst, f.src, {s: dagger(m) for s, m in f.blocks.items()})


def inner_product(f: BlockMorphism, g: BlockMorphism) -> complex:
    """Weighted Hilbert-Schmidt pairing sum_s k_s tr(f_s^* g_s), summed in the
    space's simple order; ``np.vdot`` of two blocks is the trace."""
    if f.src != g.src or f.dst != g.dst:
        raise CompositionError("inner product requires equal endpoints")
    total = 0.0 + 0.0j
    fb, gb = f.blocks, g.blocks
    for s, k in zip(f.space.simples, f.space.weights):
        if s in fb and s in gb:
            total += k * np.vdot(fb[s], gb[s])
    return complex(total)


def morphism_dev(f: BlockMorphism, g: BlockMorphism) -> float:
    """Largest entrywise deviation between two morphisms with equal endpoints."""
    if f.src != g.src or f.dst != g.dst:
        raise CompositionError("cannot compare morphisms with different endpoints")
    fb, gb = f.blocks, g.blocks
    return max_abs([max_abs(f.block(s) - g.block(s)) for s in f.space.simples
                    if s in fb or s in gb])
