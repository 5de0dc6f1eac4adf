"""Exact root counting and location for real and complex polynomials.

Sturm chains compute Cauchy indices over the rationals; half of a Cauchy
index along each edge of a rectangle gives an algebraic winding number
that counts the complex roots inside.  On top of that sit a bisection
root isolator with Newton refinement, a Routh-type half-plane counter,
and a planar fixed-point search.  All arithmetic is exact.
"""

from .exact_arith import GaussianRational, Rational, gauss, modulus_bounds, rat, sign
from .cauchy_index import (
    HalfInt,
    cauchy_index,
    count_real_roots,
    descartes_bound,
    inversion_check,
    sign_changes,
    sign_var_diff,
)
from .poly import (
    ComplexPoly,
    RealPoly,
    SturmChain,
    SturmLink,
    complex_gcd,
    pseudo_div,
    real_gcd,
    square_free_part,
    sturm_chain,
)
from .winding import (
    PolyLoop,
    QuarterInt,
    Rectangle,
    VertexRootError,
    cauchy_radius,
    count_roots_in_rectangle,
    free_segment_index,
    global_index_check,
    loop_index,
    rectangle_index,
    segment_index,
)
from .isolate import (
    ApproximateRoot,
    Cell,
    IsolationState,
    deflate_vertex_root,
    isolate_roots,
    newton_step,
    newton_switch_ready,
    smale_check,
)
from .stability import HalfPlaneCount, half_plane_count, is_hurwitz_stable, routh_index
from .brouwer import BiPoly, FixedPointResult, PlaneMap, fixed_point_search

__all__ = [
    "ApproximateRoot",
    "BiPoly",
    "Cell",
    "ComplexPoly",
    "FixedPointResult",
    "GaussianRational",
    "HalfInt",
    "HalfPlaneCount",
    "IsolationState",
    "PlaneMap",
    "PolyLoop",
    "QuarterInt",
    "Rational",
    "RealPoly",
    "Rectangle",
    "SturmChain",
    "SturmLink",
    "VertexRootError",
    "cauchy_index",
    "cauchy_radius",
    "complex_gcd",
    "count_real_roots",
    "count_roots_in_rectangle",
    "deflate_vertex_root",
    "descartes_bound",
    "fixed_point_search",
    "free_segment_index",
    "gauss",
    "global_index_check",
    "half_plane_count",
    "inversion_check",
    "is_hurwitz_stable",
    "isolate_roots",
    "loop_index",
    "modulus_bounds",
    "newton_step",
    "newton_switch_ready",
    "pseudo_div",
    "rat",
    "real_gcd",
    "rectangle_index",
    "segment_index",
    "sign",
    "sign_changes",
    "sign_var_diff",
    "smale_check",
    "square_free_part",
    "sturm_chain",
]
