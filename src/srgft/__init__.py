"""Calculus of slice regular quaternionic power series with a
geometric-function-theory verification harness."""

from .errors import (DomainError, PreconditionError, QuaternionParseError,
                     SingularityError)
from .quat import (ImaginaryUnit, Quaternion, format_quaternion,
                   parse_quaternion)
from .series import (EvalDomain, PointBatch, QuotientSum, SliceSeries, StarQuotient,
                     compose_slice_preserving, integrate_radial, mobius,
                     mobius_quotient, quotient_transform,
                     regular_conjugate, slice_derivative, star_mul,
                     star_reciprocal, symmetrize)
from .classes import (ClassVerdict, FunctionUnderTest, SamplingGrid,
                      generate_caratheodory, generate_close_to_convex,
                      generate_starlike_small_coeff, is_caratheodory,
                      is_close_to_convex, is_one_slice, is_self_map,
                      is_slice_preserving, is_starlike, koebe, rogosinski_extremal)
from .checks import CheckReport, SUITES, SuiteConfig, run_suites

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "ClassVerdict", "DomainError", "EvalDomain",
    "FunctionUnderTest", "ImaginaryUnit", "PointBatch", "PreconditionError", "Quaternion",
    "QuaternionParseError", "QuotientSum", "SUITES", "SamplingGrid",
    "SingularityError", "SliceSeries", "StarQuotient", "SuiteConfig",
    "compose_slice_preserving", "format_quaternion", "generate_caratheodory",
    "generate_close_to_convex", "generate_starlike_small_coeff",
    "integrate_radial", "is_caratheodory", "is_close_to_convex",
    "is_one_slice", "is_self_map", "is_slice_preserving", "is_starlike", "koebe", "mobius",
    "mobius_quotient", "parse_quaternion", "quotient_transform",
    "regular_conjugate", "rogosinski_extremal", "run_suites",
    "slice_derivative", "star_mul", "star_reciprocal", "symmetrize",
]
