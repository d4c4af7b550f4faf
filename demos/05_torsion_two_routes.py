"""Analytic torsion by two independent routes, cross-checked by quadrature.

Route one goes through the determinant-line identities and the pushed-forward
degree-3 Todd x character selection.  Route two compares the two natural
metrics on the determinant line through the ruling: the fibration torsion
form plus the secondary Todd transgression.  Both land on the same exact
constant, and the closed-form integrals they consume are re-derived
numerically.
"""

from hirzebruch_torsion import chow, torsion
from hirzebruch_torsion.radial import QuadratureConfig

cfg = QuadratureConfig()

print("Torsion of the base line (degree-one route):")
print("  tau =", torsion.tau_p1(), "=", torsion.tau_p1().to_float())

print("\nBoth routes for small ruling indices:")
for n in (0, 1, 2, 3, 5):
    res = torsion.main_theorem(n)
    print(f"  n={n}: tau = {res.tau_float:.15f}")
    print(f"        direct route    {res.tau_rr}")
    print(f"        fibration route {res.tau_bb}")
    print(f"        tau - log Vol   {res.main_theorem_value}")

print("\nThe fibration torsion form is the base-line torsion for every n:")
for n in (0, 4, 12):
    c1_relative = chow.arithmetic_chern_classes(n).c1_relative
    print(f"  n={n:<3d}: {chow.torsion_form(c1_relative)}")

print("\nQuadrature cross-check of the fibration route:")
for n in (1, 4):
    res = torsion.main_theorem(n)
    tors = chow.torsion_form(chow.arithmetic_chern_classes(n).c1_relative)
    quad = torsion.bb_quadrature_float(n, tors, cfg)
    print(f"  n={n}: exact {res.tau_float:.12f}  quadrature-assembled {quad:.12f}  "
          f"difference {abs(res.tau_float - quad):.2e}")

print("\nNamed integrals behind the routes (n = 2):")
for m in torsion.named_integrals(2, cfg):
    print(f"  {m.name:<28s} closed={m.closed_form.to_float(): .12f} "
          f"quad={m.quadrature_value: .12f} err={m.abs_error:.1e}")

print("\nSummary table:")
print(torsion.table_csv(torsion.table_rows([0, 1, 2, 3, 4], cfg)))
