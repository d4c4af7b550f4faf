"""Exact and numerical verification of analytic torsion, arithmetic heights
and invariant-form integrals on Hirzebruch surfaces.

The package computes the analytic torsion of the ruled surfaces over the
projective line by two independent exact routes (a direct determinant-line
computation and a fibration comparison), together with the arithmetic height
of the standard model, and re-derives every intermediate closed-form integral
by adaptive quadrature on the half-line.
"""

# Each export is imported from its module on first use (PEP 562), so that a
# process loads only the modules it runs.
_EXPORTS = {
    "ConstantAtom": "constants", "ExactConstant": "constants", "log_rational": "constants",
    "DomainError": "radial", "NonConvergence": "settings", "QuadratureConfig": "settings",
    "Radial": "radial", "VerificationEntry": "torsion", "integrate_halfline": "radial",
    "Form11": "forms", "Form22": "forms",
    "ChowClass": "chow", "PipelineInconsistency": "chow",
    "NamedIntegral": "torsion", "TorsionResult": "torsion", "VerificationReport": "torsion",
    "height": "chow", "main_theorem": "torsion", "named_integrals": "torsion",
    "tau_p1": "torsion", "tau_route_bb": "torsion", "tau_route_rr": "torsion",
    "Surface": "torsion", "verify_all": "torsion",
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
