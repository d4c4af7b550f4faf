"""The invariant-form calculus: curvature, dd^c, wedge masses, Hodge data.

Forms on the ruled surface are stored as two radial coefficients against the
pulled-back base form and the normalized fiber element.  This demo builds the
named catalog, checks the dd^c chain rule against its expanded coefficients,
and computes the harmonic-generator norms: each is the exact mass of an L2
pairing density (the direct route derives its L2 covolumes from these) and
is re-derived by quadrature.
"""

from hirzebruch_torsion import forms
from hirzebruch_torsion.radial import QuadratureConfig, Radial, integrate_halfline

cfg = QuadratureConfig()
n = 2
print(f"ruling index n = {n}\n")

al = forms.alpha_form(n)
print("alpha at u = 1:", al.evaluate(1.0))
print("fiber mass of alpha (exact 1):", integrate_halfline(al.fphi, cfg))

print("\ndd^c of log(1+u) via the chain rule (base, fiber) at u = 1:")
d = forms.ddc(Radial.term(b=1), n)
print("  computed:", d.evaluate(1.0))
print("  expanded: (n*u/(1+u), 1/(1+u)^2) =", (n * 1 / 2, 1 / 4))

print("\nWedge masses (exact value derived from the normal form vs quadrature):")
pairs = [
    ("alpha ^ alpha", forms.wedge(al, al)),
    ("alpha ^ base", forms.wedge(al, forms.base_form(n))),
    ("relative-FS ^ alpha", forms.wedge(forms.omega_form(n), al)),
    ("c1 ^ c1", forms.wedge(forms.c1_total(n), forms.c1_total(n))),
    ("c1rel ^ c1rel", forms.wedge(forms.c1_rel(n), forms.c1_rel(n))),
]
for name, w in pairs:
    print(f"  {name:<22s} exact={str(w.total_integral):<6s} "
          f"quad={w.integrate(cfg): .12f}")

print("\nContraction against the reference metric:")
lam = forms.lambda_contract(forms.omega_H(n))
print(f"  (n+2) * contraction of the harmonic base class at u=0.3: "
      f"{(n + 2) * lam(0.3):.12f} (exact 2)")

print("\nHodge star and L2 norms (pairing densities, integrated by quadrature):")
print("  star(alpha) = alpha at u=2:",
      forms.hodge_star(al).evaluate(2.0), "vs", al.evaluate(2.0))
wh = forms.omega_H(n)
for label, density in (("|harmonic base class|^2", forms.l2_pairing(wh, wh)),
                       ("|alpha|^2", forms.l2_pairing(al, al)),
                       ("volume", forms.volume_form(n))):
    print(f"  {label:<22s} = {density.integrate(cfg):.12f} "
          f"(exact {density.total_integral})")
print(f"  integral of (harmonic base class)^2 = "
      f"{forms.wedge(wh, wh).integrate(cfg): .2e} (exact 0: the square is exact)")

print("\nQuotient metric from the adjoint formula, against the fiber part of alpha:")
q = forms.quotient_metric()
print(f"  quotient metric = {q}; equal to alpha.fphi as normal forms: {q == al.fphi}")
