"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for the one-line verdicts.
"""

import random
from fractions import Fraction

import pytest

from hirzebruch_torsion import chow, forms, torsion
from hirzebruch_torsion.constants import (
    ExactConstant,
    log_rational,
)
from hirzebruch_torsion.radial import (
    QuadratureConfig,
    RadialFunction,
    integrate_halfline,
    radial_add,
    radial_scale,
)

import oracles

CFG = QuadratureConfig(target_tol=1e-10)


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{label} failed {detail}"


def test_criterion_1_height_closed_form():
    ok = True
    for n in range(0, 51):
        want = Fraction(2 * n * n + 9 * n + 12, 4)
        ok = ok and torsion.height(n) == want
        ok = ok and torsion.height_via_polarization_cube(n) == want
    ok = ok and torsion.height(0) == 3 and torsion.height(1) == Fraction(23, 4)
    _verdict("1 (height, n=0..50 exact)", ok)


def test_criterion_2_main_theorem_both_routes():
    ok = True
    for n in range(0, 21):
        res = torsion.main_theorem(n)
        stated = torsion.log_np1(n).scale(Fraction(n, 24)) \
            + ExactConstant.rational(Fraction(-n, 6)) \
            + torsion.closed_tau_p1().scale(2)
        ok = ok and res.tau_rr == res.tau_bb
        ok = ok and res.main_theorem_value == stated
    _verdict("2 (main identity, n=0..20, routes exactly equal)", ok)


def test_criterion_3_base_line_torsion():
    got = torsion.tau_p1()
    ok = got == torsion.closed_tau_p1()
    _verdict("3 (base-line torsion from the degree-one route)", ok, str(got))


def test_criterion_4_quadrature_vs_closed_forms():
    tol = 1e-8
    wanted = ["halfline_inverse_cube", "c1_c1rel_log_ratio", "c1_bott_chern_c2",
              "bb_first_term", "bb_todd_total", "fiber_mass_relative_form",
              "relative_form_wedge_alpha", "surface_volume"]
    worst = 0.0
    ok = True
    for n in range(0, 11):
        table = {m.name: m for m in torsion.named_integrals(n, CFG)}
        closed = oracles.integral_closed_forms(n)
        for name in wanted:
            ok = ok and table[name].closed_form == closed[name]
            err = table[name].abs_error
            worst = max(worst, err)
            ok = ok and err <= tol
    _verdict("4 (named integrals vs quadrature, n=0..10, 1e-8)", ok,
             f"max discrepancy {worst:.3e}")


def test_criterion_5_torsion_form():
    ok = True
    for n in range(0, 21):
        cc = chow.arithmetic_chern_classes(n)
        ok = ok and chow.torsion_form(cc.c1_relative) == torsion.closed_tau_p1()
    _verdict("5 (fibration torsion form = base torsion, degree-2 part zero)", ok)


def test_criterion_6_contraction_identities():
    worst = 0.0
    ok = True
    for n in (0, 1, 2, 3, 5, 10):
        for e in torsion.appendix_checks(n):
            worst = max(worst, e.abs_error)
            ok = ok and e.passed and e.computed == e.abs_error == 0.0
    _verdict("6 (contraction/curvature identities, exact in the normal form)", ok,
             f"max deviation {worst:.3e}")


def test_criterion_7_hodge_l2_suite():
    tol = 1e-8
    ok = True
    worst = 0.0
    rng = random.Random(41)
    for n in (0, 1, 2, 5, 10):
        for e in torsion.hodge_l2_checks(n, CFG, tol):
            worst = max(worst, e.abs_error)
            ok = ok and e.passed
    # star is an involution on random forms, pointwise
    for _ in range(10):
        n = rng.choice([0, 1, 3, 7])
        probe = forms.combine(n, [
            (Fraction(rng.randint(-5, 5), rng.randint(1, 3)), forms.alpha_form(n)),
            (Fraction(rng.randint(-5, 5), rng.randint(1, 3)), forms.base_form(n)),
            (Fraction(rng.randint(-5, 5), rng.randint(1, 3)), forms.ddc_log_R(n)),
        ])
        twice = forms.hodge_star(forms.hodge_star(probe))
        for u in (0.05, 0.9, 3.0, 70.0):
            ok = ok and abs(twice.fx(u) - probe.fx(u)) <= 1e-10
            ok = ok and abs(twice.fphi(u) - probe.fphi(u)) <= 1e-10
    _verdict("7 (Hodge star and L2 norms, 1e-8)", ok, f"max deviation {worst:.3e}")


def test_criterion_8_quotient_metric_ratio():
    ok = True
    for n in (0, 1, 2, 5, 10):
        e = torsion._identity("quotient_metric_equals_alpha_fiber", n,
                              forms.quotient_metric(), forms.alpha_form(n).fphi)
        ok = ok and e.passed and e.computed == e.abs_error == 0.0
    _verdict("8 (quotient metric = alpha's fiber part, exact in the normal form)", ok)


def test_criterion_9_twisted_torsion():
    ok = True
    for n in (0, 1, 2, 5, 10, 20):
        tau, tau1, tau2 = torsion.tau_route_rr(chow.arithmetic_chern_classes(n))
        ok = ok and tau1 == ExactConstant.zero() and tau2 == -tau
    _verdict("9 (middle twist zero, top twist sign-flipped, exact)", ok)


def test_criterion_10_property_suites():
    rng = random.Random(1234)
    ok = True

    # vector-space laws, 100 cases
    from test_constants import random_constant
    for _ in range(100):
        a, b = random_constant(rng), random_constant(rng)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        ok = ok and a + b == b + a
        ok = ok and (a + b).scale(q) == a.scale(q) + b.scale(q)

    # log homomorphism, 100 cases
    for _ in range(100):
        p = Fraction(rng.randint(1, 300), rng.randint(1, 300))
        q = Fraction(rng.randint(1, 300), rng.randint(1, 300))
        ok = ok and log_rational(p * q) == log_rational(p) + log_rational(q)

    # reduction idempotence, 100 cases
    for _ in range(100):
        n = rng.choice([0, 1, 2, 5])
        poly = {(rng.randint(0, 2), rng.randint(0, 3)):
                ExactConstant.rational(rng.randint(-5, 5))
                for _ in range(rng.randint(1, 3))}
        poly = {m: c for m, c in poly.items() if sum(m) <= 3}
        c = chow.ChowClass(n, chow.SURFACE, poly,
                           [(ExactConstant.rational(rng.randint(-3, 3)),
                             forms.alpha_form(n))])
        once = chow.reduce(c)
        ok = ok and chow.reduce(once) == once

    # quadrature linearity, 100 cases
    pool = [RadialFunction(lambda u, k=k: 1 / (1 + u) ** k, decay_order=float(k),
                           key=("pow", k)) for k in (2, 3, 4)]
    masses = [integrate_halfline(f, CFG) for f in pool]
    for _ in range(100):
        i, j = rng.sample(range(len(pool)), 2)
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        combo = radial_add(radial_scale(a, pool[i]), radial_scale(b, pool[j]))
        lhs = integrate_halfline(combo, CFG)
        ok = ok and abs(lhs - (float(a) * masses[i] + float(b) * masses[j])) \
            <= 2 * CFG.target_tol
    _verdict("10 (randomized property suites, 100 cases each)", ok)
