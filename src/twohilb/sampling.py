"""Seeded random generators for spaces, objects and morphisms.

Used by the property-based tests and by the acceptance suite runner, which
must both be reproducible from a single seed.
"""
from __future__ import annotations

import numpy as np

from .functors import FusionFunctor
from .hstar import BlockMorphism, ObjectExpr, SpaceTable
from .linalg import random_complex

_LABELS = "abcdefghijklmnopqrstuvwxyz"


def random_space(rng: np.random.Generator) -> SpaceTable:
    """1 to 3 simples, with weights uniform in [0.25, 3)."""
    n = int(rng.integers(1, 4))
    labels = [_LABELS[i] for i in range(n)]
    weights = {s: float(rng.uniform(0.25, 3.0)) for s in labels}
    return SpaceTable.make(labels, weights)


def random_object(rng: np.random.Generator, space: SpaceTable) -> ObjectExpr:
    """A nonzero object with multiplicities 0 to 3, redrawn until one is nonzero."""
    while True:
        mults = tuple(int(rng.integers(0, 4)) for _ in space.simples)
        if any(mults):
            return ObjectExpr.make(space, mults)


def random_morphism(rng: np.random.Generator, src: ObjectExpr,
                    dst: ObjectExpr) -> BlockMorphism:
    blocks = {}
    for s, rows, cols in zip(src.space.simples, dst.mults, src.mults):
        if rows and cols:
            blocks[s] = random_complex(rng, (rows, cols))
    return BlockMorphism(src, dst, blocks)


def random_fusion_functor(rng: np.random.Generator, src: SpaceTable,
                          dst: SpaceTable) -> FusionFunctor:
    """A functor whose multiplicity matrix has entries 0 to 3."""
    mat = rng.integers(0, 4, size=(src.dim, dst.dim))
    return FusionFunctor.make(src, dst, mat)
