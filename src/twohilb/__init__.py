"""Executable finite-dimensional categorified linear algebra.

Skeletal 2-Hilbert spaces with block morphisms (composition, star and the
weighted inner product; kernels, biproducts and polar factors are per-block
matrix algebra), multiplicity-matrix functors between them with their action
on objects, adjoints and hom dimensions, representation categories of finite
groups and supergroups with their canonical well-balanced dualities, a
tangle-expression evaluator, the categorified Fourier transform with the
convolution of graded objects and morphisms read from the group table, and
Tannaka reconstruction, whose evaluation of Rep(G) at the tuples
(rho_lam(g))_lam is the Gelfand transform, at finite scale.
"""

from .ambrose import HStarAlgebraData, ambrose_decompose, block_model
from .functors import FusionFunctor, adjoint_functor
from .groups import (
    FiniteGroup,
    FiniteSuperGroup,
    catalog,
    load_group,
)
from .hstar import (
    BlockMorphism,
    ObjectExpr,
    SpaceTable,
    compose,
    identity,
    inner_product,
    star,
)
from .reps import Adjunction, Intertwiner, RepCategory, RepObject
from .tangles import EvalContext, evaluate, move_suite, parse
from .transforms import (
    FourierMap,
    convolution_tensor,
    tannaka_reconstruct,
)

__all__ = [
    "SpaceTable", "ObjectExpr", "BlockMorphism",
    "compose", "star", "inner_product", "identity",
    "HStarAlgebraData", "block_model", "ambrose_decompose",
    "FusionFunctor", "adjoint_functor",
    "FiniteGroup", "FiniteSuperGroup", "catalog", "load_group",
    "RepCategory", "RepObject", "Intertwiner", "Adjunction",
    "convolution_tensor", "FourierMap", "tannaka_reconstruct",
    "parse", "evaluate", "EvalContext", "move_suite",
]

__version__ = "0.1.0"
