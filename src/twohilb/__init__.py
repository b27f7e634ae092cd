"""Executable finite-dimensional categorified linear algebra.

Skeletal 2-Hilbert spaces with block morphisms, multiplicity-matrix functors
between them, representation categories of finite groups and supergroups,
a tangle-expression evaluator, and the categorified Fourier, Gelfand and
Tannaka constructions at finite scale.
"""

from .ambrose import HStarAlgebraData, ambrose_decompose, block_model
from .functors import (
    FusionFunctor,
    NatBlock,
    adjoint_functor,
    apply,
    dual_space,
    hom_space,
    riesz_represent,
    tensor_space,
)
from .groups import (
    FiniteGroup,
    FiniteGroupoid,
    FiniteSuperGroup,
    catalog,
    load_group,
)
from .hstar import (
    BlockMorphism,
    ObjectExpr,
    SpaceTable,
    cokernel,
    compose,
    direct_sum,
    identity,
    inner_product,
    kernel,
    polar_decompose,
    scalar_tensor,
    star,
    zero_morphism,
)
from .reps import Adjunction, Intertwiner, RepCategory, RepObject
from .tangles import EvalContext, evaluate, move_suite, parse
from .transforms import (
    FourierMap,
    convolution_tensor,
    gelfand_hat,
    graded_space,
    tannaka_reconstruct,
    tautological_point,
)

__all__ = [
    "SpaceTable", "ObjectExpr", "BlockMorphism",
    "compose", "star", "inner_product", "cokernel", "kernel",
    "polar_decompose", "direct_sum", "scalar_tensor", "identity",
    "zero_morphism",
    "HStarAlgebraData", "block_model", "ambrose_decompose",
    "FusionFunctor", "NatBlock", "apply", "adjoint_functor",
    "hom_space", "dual_space", "riesz_represent", "tensor_space",
    "FiniteGroup", "FiniteSuperGroup", "FiniteGroupoid", "catalog", "load_group",
    "RepCategory", "RepObject", "Intertwiner", "Adjunction",
    "graded_space", "convolution_tensor", "FourierMap",
    "tautological_point", "gelfand_hat", "tannaka_reconstruct",
    "parse", "evaluate", "EvalContext", "move_suite",
]

__version__ = "0.1.0"
