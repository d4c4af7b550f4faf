"""Half-line quadrature: how every surface integral becomes 1-dimensional.

By unitary invariance, each integrand depends only on the single variable
u = |z|^2 |frame|^(2n), so integrals over the surface collapse to the
half-line.  Every integrand is a radial normal form, a sum of terms
c u^j (1+au)^-k log(1+bu)^e, which carries its exact mass.  The engine
compactifies with u = t/(1-t) and integrates in plain Python, by adaptive
Gauss-Kronrod (QUADPACK's QAGS) or by tanh-sinh (the double-exponential
rule, halving its step level by level); this demo walks the standard
catalog and sets the quadrature next to the exact mass and to a closed form
typed in by hand, which checks both.  It calls integrate_halfline directly;
the engine's checks reach it through one door, the per-n record
torsion.Surface.quadrature, which integrates each normal form once.
"""

import math
from fractions import Fraction

from hirzebruch_torsion import forms
from hirzebruch_torsion.constants import ExactConstant, log_rational
from hirzebruch_torsion.radial import QuadratureConfig, Radial, integrate_halfline
from hirzebruch_torsion.torsion import VerificationEntry

cfg = QuadratureConfig()
print(f"quadrature: scheme={cfg.scheme}, target_tol={cfg.target_tol:g}\n")

print("The basic normalization integral, mass 1/2:")
f = Radial.term(a=1, k=3)
entry = VerificationEntry("inv_cube", None, ExactConstant.rational(Fraction(1, 2)),
                          integrate_halfline(f, cfg), cfg.pass_tol)
print(f"  {f}: computed {entry.computed:.15f}, discrepancy {entry.abs_error:.2e}, "
      f"pass={entry.passed}")

print("\nThe closed family 1/(1+u)^k with mass 1/(k-1):")
for k in range(2, 7):
    g = Radial.term(a=1, k=k)
    print(f"  k={k}: {integrate_halfline(g, cfg):.15f}  (exact {1 / (k - 1):.15f}, "
          f"mass {g.mass})")

print("\nA logarithmic integrand, log((1+(n+1)u)/(1+u))/(1+u)^2 at n = 1:")
n = 1
h = forms.log_R(n) * forms.B
closed = (n + 1) / n * math.log(n + 1) - 1  # (n+1)/n log(n+1) - 1, typed in
print(f"  normal form {h}")
print(f"  closed form (n+1)/n log(n+1) - 1 = {closed:.15f}")
print(f"  exact mass  {h.mass} = {h.mass.to_float():.15f}")
expected = log_rational(n + 1).scale(Fraction(n + 1, n)) - ExactConstant.rational(1)
entry = VerificationEntry("log_ratio", n, expected, integrate_halfline(h, cfg), cfg.pass_tol)
print(f"  quadrature  {entry.computed:.15f}, discrepancy {entry.abs_error:.2e}, "
      f"pass={entry.passed}")
print(f"  the exact mass equals the closed form: {h.mass == expected}")

print("\ntanh-sinh scheme as an alternative, on the same scalar integrand:")
ts = QuadratureConfig(scheme="tanh_sinh")
print(f"  {integrate_halfline(h, ts):.15f} (tanh-sinh)")
