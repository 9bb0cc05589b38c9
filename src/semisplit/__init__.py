"""Desk-scale laboratory for splitting analytic semigroup operators.

Given a semigroup T(.) on a finite probability space that maps L_p into L_2
at one time s, the splitter decomposes T(t) for 0 < t < s into a convex
combination (1-theta) T0 + theta T1, where T0 is small in L_p -> L_p norm and
T1 is bounded from L_p to L_2, and certifies the quantitative bounds.
"""

from .spaces import *
from .semigroups import *
from .opnorm import *
from .geometry import *
from .splitter import *
from .ideals import *
from .subspaces import *

__all__ = (
    spaces.__all__
    + semigroups.__all__
    + opnorm.__all__
    + geometry.__all__
    + splitter.__all__
    + ideals.__all__
    + subspaces.__all__
)
