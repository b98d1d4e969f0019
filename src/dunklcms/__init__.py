"""Exact symbolic checks for quantum CMS integrability.

The package verifies, with exact coefficients in the deformation parameters
(Laurent polynomials in k, polynomials in the others), the algebraic
identities behind the quantum Calogero-Moser-Sutherland systems of all four
families (rational and trigonometric A, rational B, trigonometric BC): Dunkl
operators in infinitely many variables, their finite-dimensional reductions,
the deformed quantum integrals, and the quantum Moser matrices with their Lax
identity.
"""

from .coeffs import ParamPoly, ParamRatio
from .powersums import Family, LambdaElem, LambdaXElem
from .dunkl_infinity import (
    InfDunkl,
    LambdaDiffOp,
    apply_closed_form_L2,
    closed_form_L2,
    commutator_on_basis,
    integral_L,
)
from .finite_cms import (
    Hom,
    MultiPoly,
    ParityData,
    deformed_integral,
    deformed_partial_r,
    diagram_check,
    finite_dunkl,
    heckman_integral,
)
from .weyl import (
    OpMatrix,
    RatFun,
    WeylOp,
    commute_check,
    commute_checks,
    gauge_conjugate,
    hamiltonian,
    lax_check,
    moser_L,
    moser_M,
    moser_integral,
)

__all__ = [
    "Family",
    "Hom",
    "InfDunkl",
    "LambdaDiffOp",
    "LambdaElem",
    "LambdaXElem",
    "MultiPoly",
    "OpMatrix",
    "ParamPoly",
    "ParamRatio",
    "ParityData",
    "RatFun",
    "WeylOp",
    "apply_closed_form_L2",
    "closed_form_L2",
    "commutator_on_basis",
    "commute_check",
    "commute_checks",
    "deformed_integral",
    "deformed_partial_r",
    "diagram_check",
    "finite_dunkl",
    "gauge_conjugate",
    "hamiltonian",
    "heckman_integral",
    "integral_L",
    "lax_check",
    "moser_L",
    "moser_M",
    "moser_integral",
]

__version__ = "0.1.0"
