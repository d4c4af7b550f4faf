"""Half-line quadrature: how every surface integral becomes 1-dimensional.

By unitary invariance, each integrand depends only on the single variable
u = |z|^2 |frame|^(2n), so integrals over the surface collapse to the
half-line.  The engine compactifies with u = t/(1-t) and integrates in
plain Python, by adaptive Gauss-Kronrod (QUADPACK's QAGS) or by tanh-sinh
(the double-exponential rule, halving its step level by level); this demo
walks the standard catalog and grades the results against their closed
forms, and shows the symbolic normal form, which carries its exact mass.
"""

import math
from fractions import Fraction

from hirzebruch_torsion import forms
from hirzebruch_torsion.constants import ExactConstant, log_rational
from hirzebruch_torsion.radial import (
    QuadratureConfig,
    RadialFunction,
    compare_closed_form,
    integrate_halfline,
)

cfg = QuadratureConfig()
print(f"quadrature: scheme={cfg.scheme}, target_tol={cfg.target_tol:g}\n")

print("The basic normalization integral, mass 1/2:")
f = RadialFunction(lambda u: 1 / (1 + u) ** 3, decay_order=3.0, key=("inv_cube",))
entry = compare_closed_form(f, ExactConstant.rational(Fraction(1, 2)), cfg)
print(f"  computed {entry.computed:.15f}, discrepancy {entry.abs_error:.2e}, "
      f"pass={entry.passed}")

print("\nThe closed family 1/(1+u)^k with mass 1/(k-1):")
for k in range(2, 7):
    g = RadialFunction(lambda u, k=k: 1 / (1 + u) ** k, decay_order=float(k),
                       key=("pow", k))
    print(f"  k={k}: {integrate_halfline(g, cfg):.15f}  (exact {1 / (k - 1):.15f})")

print("\nA logarithmic integrand (decay order 2):")
n = 1
h = RadialFunction(lambda u: math.log((1 + (n + 1) * u) / (1 + u)) / (1 + u) ** 2,
                   decay_order=2.0, key=("log_ratio",))
expected = log_rational(n + 1).scale(Fraction(n + 1, n)) - ExactConstant.rational(1)
entry = compare_closed_form(h, expected, cfg)
print(f"  closed form {expected} = {entry.expected_float:.15f}")
print(f"  quadrature  {entry.computed:.15f}, discrepancy {entry.abs_error:.2e}")

print("\nThe same integrand in symbolic normal form, with its exact mass:")
nf = forms.log_R(n) * forms.coeff_B()
print(f"  {nf} has mass {nf.mass}")
print(f"  quadrature of the normal form {integrate_halfline(nf, cfg):.15f}")

print("\ntanh-sinh scheme as an alternative, on the same scalar integrands:")
ts = QuadratureConfig(scheme="tanh_sinh")
print(f"  {integrate_halfline(h, ts):.15f} (tanh-sinh, opaque)")
print(f"  {integrate_halfline(nf, ts):.15f} (tanh-sinh, normal form)")
