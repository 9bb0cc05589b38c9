"""Desk-scale laboratory for splitting analytic semigroup operators.

Given a semigroup T(.) on a finite probability space that maps L_p into L_2
at one time s, the splitter decomposes T(t) for 0 < t < s into a convex
combination (1-theta) T0 + theta T1, where T0 is small in L_p -> L_p norm and
T1 is bounded from L_p to L_2, and certifies the quantitative bounds.
"""

from .spaces import (
    FiniteProbabilitySpace,
    FunctionVector,
    OperatorMatrix,
    apply,
    compose,
    lp_norm,
)
from .semigroups import (
    ComplexTime,
    CubeNoiseSemigroup,
    DiagonalMultiplierSemigroup,
    evaluate,
    inverse_walsh_transform,
    semigroup_property_check,
    walsh_transform,
)
from .opnorm import NormEstimate, hypercontractive_time, opnorm_lower, opnorm_oracle
from .geometry import (
    BoundaryPoint,
    HarmonicMeasure,
    StripCoordinate,
    TriangleDomain,
    brownian_exit_theta,
    conformal_from_disk,
    conformal_to_disk,
    disk_to_strip,
    harmonic_measure,
    node_table,
    strip_coordinate,
    strip_damping,
    strip_to_disk,
    triangle_damping,
)
from .splitter import (
    NodeConstants,
    SplitCertificate,
    approximant,
    certificate_text,
    dimension_sweep,
    node_constants,
    split,
)
from .ideals import IdealNorm, generic_split, make_gamma2, make_schatten_like, measure_compatibility
from .subspaces import Subspace, build_projection, first_level_subspace, restricted_isomorphism_check

__all__ = [
    "FiniteProbabilitySpace",
    "FunctionVector",
    "OperatorMatrix",
    "apply",
    "compose",
    "lp_norm",
    "ComplexTime",
    "CubeNoiseSemigroup",
    "DiagonalMultiplierSemigroup",
    "evaluate",
    "walsh_transform",
    "inverse_walsh_transform",
    "semigroup_property_check",
    "NormEstimate",
    "opnorm_lower",
    "opnorm_oracle",
    "hypercontractive_time",
    "TriangleDomain",
    "BoundaryPoint",
    "HarmonicMeasure",
    "StripCoordinate",
    "harmonic_measure",
    "conformal_to_disk",
    "conformal_from_disk",
    "strip_coordinate",
    "strip_to_disk",
    "disk_to_strip",
    "strip_damping",
    "triangle_damping",
    "brownian_exit_theta",
    "node_table",
    "SplitCertificate",
    "NodeConstants",
    "node_constants",
    "split",
    "approximant",
    "dimension_sweep",
    "certificate_text",
    "IdealNorm",
    "make_gamma2",
    "make_schatten_like",
    "generic_split",
    "measure_compatibility",
    "Subspace",
    "restricted_isomorphism_check",
    "build_projection",
    "first_level_subspace",
]
