"""Exact and numerical verification of analytic torsion, arithmetic heights
and invariant-form integrals on Hirzebruch surfaces.

The package computes the analytic torsion of the ruled surfaces over the
projective line by two independent exact routes (a direct determinant-line
computation and a fibration comparison), together with the arithmetic height
of the standard model, and re-derives every intermediate closed-form integral
by adaptive quadrature on the half-line.
"""

from .constants import ConstantAtom, ExactConstant, log_rational
from .radial import (
    DomainError,
    NonConvergence,
    QuadratureConfig,
    Radial,
    RadialFunction,
    VerificationEntry,
    compare_closed_form,
    integrate_halfline,
)
from .forms import Form11, Form22
from .chow import ChowClass, PipelineInconsistency
from .torsion import (
    NamedIntegral,
    TorsionResult,
    VerificationReport,
    height,
    main_theorem,
    named_integrals,
    tau_p1,
    tau_route_bb,
    tau_route_rr,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantAtom", "ExactConstant", "log_rational",
    "DomainError", "NonConvergence", "QuadratureConfig", "Radial", "RadialFunction",
    "VerificationEntry", "compare_closed_form", "integrate_halfline",
    "Form11", "Form22",
    "ChowClass", "PipelineInconsistency",
    "NamedIntegral", "TorsionResult", "VerificationReport",
    "height", "main_theorem", "named_integrals", "tau_p1",
    "tau_route_bb", "tau_route_rr", "verify_all",
    "__version__",
]
