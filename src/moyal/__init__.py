"""Exact star products, generalized Moyal brackets, and kernel analysis.

The package works entirely over the field Q(i)(mu) of rational functions in
the formal deformation symbol mu (dictionary: mu = i*hbar/2, so [q, p] =
2*mu).  Phase-space symbols are sparse polynomials; star products, brackets,
ordering changes, and the operator correspondence are all exact and
terminate structurally on polynomials.

Main entry points:

  * scalars.Coefficient, poly.Poly, poly.DiffOp - the arithmetic substrate;
  * star.StarKernel, star.star, star.bracket, star.poisson,
    star.classical_limit, star.u_map - the product layer;
  * star.BiDiff - the bidifferential operator of a kernel polynomial, behind
    star products, brackets and one application of a bracket kernel (the
    centre checks and the coefficient table read DiffOp.from_sigma_poly);
  * operators.NCPoly, operators.nc_mul, operators.weyl_quantize,
    operators.weyl_symbol - the independent operator route;
  * cocycle.cocycle_check, cocycle.factorize, cocycle.center_basis -
    associativity analysis of raw kernel exponents;
  * lie.lie_axiom_check, lie.extract_omega, lie.classify_h,
    lie.theorem2_pipeline, lie.bidiff_coefficients - bracket-kernel
    analysis and classification;
  * cli.main - the `moyal` command.
"""

from . import scalars
from .cocycle import (
    CocycleViolation,
    Factorization,
    RawKernelExponent,
    center_basis,
    chi_extract,
    cocycle_check,
    extract_antisymmetric_form,
    factorize,
)
from .errors import (
    DegreeGuardError,
    DimensionMismatchError,
    ExpressionError,
    FactorizationError,
    MoyalError,
    NonterminatingSeriesError,
    PoleAtMuZeroError,
    SpaceMismatchError,
)
from .lie import (
    HClass,
    LieKernelError,
    RawLieKernel,
    StructuredLieKernel,
    Theorem2Report,
    bidiff_coefficients,
    classify_h,
    extract_omega,
    lie_axiom_check,
    theorem2_pipeline,
)
from .linalg import Matrix
from .operators import NCPoly, nc_mul, weyl_quantize, weyl_symbol
from .poly import (
    DiffOp,
    Poly,
    Space,
    degree_guard,
    pair_space,
    phase_space,
    sigma_space,
    triple_space,
)
from .scalars import Coefficient
from .star import StarKernel, bracket, classical_limit, poisson, star, u_map

__version__ = "0.1.0"
