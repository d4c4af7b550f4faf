"""Invariant-form calculus: coefficients, dd^c rule, wedge masses, Hodge data.

Every exact fiber/total mass of a catalog form is re-derived here by
quadrature, so the derived masses the ring engine consumes are themselves
under test.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from hirzebruch_torsion import forms
from hirzebruch_torsion.forms import (
    Form11,
    alpha_form,
    base_form,
    bott_chern_c2,
    c1_rel,
    c1_total,
    combine,
    ddc,
    ddc_log_R,
    hodge_star,
    l2_pairing,
    lambda_contract,
    degree2_relation_rhs,
    log_R,
    omega_H,
    omega_form,
    quotient_metric,
    ratio_R,
    ratio_base_form,
    reciprocal_R,
    volume_form,
    wedge,
)
from hirzebruch_torsion.radial import (
    RADIAL_ZERO,
    QuadratureConfig,
    Radial,
    integrate_halfline,
)

CFG = QuadratureConfig()
GRID = np.logspace(-3, 3, 40)


class TestAlphaForm:
    def test_split_case_has_constant_base_coefficient(self):
        al = alpha_form(0)
        for u in GRID:
            assert al.fx(u) == pytest.approx(1.0, abs=1e-15)
            assert al.fphi(u) == pytest.approx(1 / (1 + u) ** 2, rel=1e-15)

    def test_pointwise_values_n1(self):
        al = alpha_form(1)
        assert al.fx(1.0) == pytest.approx(1.5)
        assert al.fphi(1.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
    def test_unit_fiber_volume(self, n):
        assert integrate_halfline(alpha_form(n).fphi, CFG) == pytest.approx(1.0, abs=1e-10)
        assert alpha_form(n).fiber_integral == 1


class TestDdcPotential:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_log_shift_one(self, n):
        # dd^c log(1+u): base coefficient n*u/(1+u), fiber coefficient 1/(1+u)^2
        f = ddc(Radial.term(b=1), n)
        for u in GRID:
            assert f.fx(u) == pytest.approx(n * u / (1 + u), rel=1e-12)
            assert f.fphi(u) == pytest.approx(1 / (1 + u) ** 2, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_log_shift_n_plus_one(self, n):
        f = ddc(Radial.term(b=n + 1), n)
        for u in GRID:
            assert f.fx(u) == pytest.approx(n - n / (1 + (n + 1) * u), abs=1e-12)
            assert f.fphi(u) == pytest.approx((n + 1) / (1 + (n + 1) * u) ** 2,
                                              rel=1e-12)

    def test_constant_potential_gives_zero(self):
        assert ddc(RADIAL_ZERO, 4).is_zero_form

    @pytest.mark.parametrize("n", [1, 4])
    def test_derivatives_consistent_with_finite_differences(self, n):
        pot = log_R(n)
        dh = pot.derivative()
        d2h = dh.derivative()
        h = 1e-4
        for u in (0.3, 1.0, 4.0, 20.0):
            fd1 = (pot(u + h) - pot(u - h)) / (2 * h)
            fd2 = (pot(u + h) - 2 * pot(u) + pot(u - h)) / (h * h)
            assert dh(u) == pytest.approx(fd1, abs=1e-6)
            assert d2h(u) == pytest.approx(fd2, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_registered_fiber_masses(self, n):
        # boundary value of u h' is the exact fiber mass of dd^c h
        for pot in (log_R(n), Radial.term(b=1), Radial.term(b=n + 1), ratio_R(n)):
            form = ddc(pot, n)
            if form.is_zero_form:
                continue
            quad = integrate_halfline(form.fphi, CFG)
            assert quad == pytest.approx(float(form.fiber_integral), abs=1e-9)


class TestWedge:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_alpha_squared_mass(self, n):
        w = wedge(alpha_form(n), alpha_form(n))
        assert w.total_integral == n + 2
        assert integrate_halfline(w.g, CFG) == pytest.approx(n + 2, abs=1e-9)

    def test_base_wedge_base_vanishes(self):
        assert wedge(base_form(3), base_form(3)).is_zero_form

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_relative_form_wedge_alpha(self, n):
        # partial fractions: (1+(n+1)u)/(1+u)^3 integrates to (n+1) - n/2
        oracle = Fraction(n + 1) - Fraction(n, 2)
        w = wedge(omega_form(n), alpha_form(n))
        assert w.total_integral == oracle == Fraction(n + 2, 2)
        assert integrate_halfline(w.g, CFG) == pytest.approx(float(oracle), abs=1e-9)

    def test_mismatched_indices_rejected(self):
        with pytest.raises(ValueError):
            wedge(alpha_form(1), alpha_form(2))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_every_registered_total_against_quadrature(self, n):
        pairs = [
            (alpha_form(n), alpha_form(n)),
            (alpha_form(n), base_form(n)),
            (ratio_base_form(n), alpha_form(n)),
            (omega_form(n), alpha_form(n)),
            (degree2_relation_rhs(n), alpha_form(n)),
            (c1_total(n), c1_total(n)),
            (c1_total(n), c1_rel(n)),
            (c1_rel(n), c1_rel(n)),
            (c1_total(n), base_form(n)),
            (ddc_log_R(n), alpha_form(n)),
            (ddc_log_R(n), ddc_log_R(n)),
        ]
        for a, b in pairs:
            w = wedge(a, b)
            assert w.total_integral is not None, (a.key, b.key)
            assert integrate_halfline(w.g, CFG) == pytest.approx(float(w.total_integral),
                                                                 abs=1e-9), (a.key, b.key)

    @pytest.mark.parametrize("n", [1, 4])
    def test_degree2_relation_mass(self, n):
        # alpha - (n+1) base - R base against alpha: (n+2) - (n+1) - (n+2)/2
        oracle = Fraction(n + 2) - Fraction(n + 1) - Fraction(n + 2, 2)
        assert wedge(degree2_relation_rhs(n), alpha_form(n)).total_integral == oracle
        assert oracle == Fraction(-n, 2)


class TestPushforward:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_relative_form_pushes_to_one(self, n):
        om = omega_form(n)
        assert om.fx.is_zero
        assert integrate_halfline(om.fphi, CFG) == pytest.approx(1.0, abs=1e-10)

    def test_base_form_pushes_to_zero(self):
        assert integrate_halfline(base_form(4).fphi, CFG) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_alpha_squared_pushes_to_rank_degree(self, n):
        w = wedge(alpha_form(n), alpha_form(n))
        assert integrate_halfline(w.g, CFG) == pytest.approx(n + 2, abs=1e-9)


class TestCurvatureForms:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_tangent_form_expanded_coefficients(self, n):
        c1 = c1_total(n)
        for u in GRID:
            fx = n + 2 - 3 * n / (1 + u) + n / (1 + (n + 1) * u)
            fphi = 3 / (1 + u) ** 2 - (n + 1) / (1 + (n + 1) * u) ** 2
            assert c1.fx(u) == pytest.approx(fx, rel=1e-12, abs=1e-12)
            assert c1.fphi(u) == pytest.approx(fphi, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_relative_form_expanded_coefficients(self, n):
        c1r = c1_rel(n)
        for u in GRID:
            assert c1r.fx(u) == pytest.approx(n - 2 * n / (1 + u), abs=1e-12)
            assert c1r.fphi(u) == pytest.approx(2 / (1 + u) ** 2, rel=1e-12)

    def test_relative_values_at_origin(self):
        for n in (0, 1, 4):
            c1r = c1_rel(n)
            assert c1r.fx(0.0) == pytest.approx(-n)
            assert c1r.fphi(0.0) == pytest.approx(2.0)

    def test_split_case_tangent_equals_relative_plus_base(self):
        lhs = c1_total(0)
        rhs = combine(0, [(Fraction(1), c1_rel(0)), (Fraction(2), base_form(0))])
        for u in GRID:
            assert lhs.fx(u) == pytest.approx(rhs.fx(u), abs=1e-14)
            assert lhs.fphi(u) == pytest.approx(rhs.fphi(u), abs=1e-14)

    def test_secondary_class_values(self):
        bc = bott_chern_c2(1)
        assert bc.fx(1.0) == pytest.approx(1 / 3 - 1 / 2)
        assert bc.fphi(1.0) == 0.0
        assert bott_chern_c2(0).is_zero_form
        for n in (1, 2, 5):
            assert bott_chern_c2(n).fx(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_tangent_fphi_value(self):
        # 3/(1+u)^2 - (n+1)/(1+(n+1)u)^2 at n = 1, u = 1
        c1 = c1_total(1)
        assert c1.fphi(1.0) == pytest.approx(3 / 4 - 2 / 9)


class TestLambdaAndStar:
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_contraction_of_alpha_is_two(self, n):
        lam = lambda_contract(alpha_form(n))
        for u in GRID:
            assert lam(u) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 4])
    def test_contraction_of_base_form(self, n):
        lam = lambda_contract(base_form(n))
        for u in GRID:
            assert lam(u) == pytest.approx((1 + u) / (1 + (n + 1) * u), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 4])
    def test_contraction_of_ddc_log_ratio(self, n):
        lam = lambda_contract(ddc_log_R(n))
        for u in GRID:
            assert lam(u) == pytest.approx(n * (1 - u) / (1 + (n + 1) * u),
                                           abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_harmonic_combination_contracts_to_constant(self, n):
        lam = lambda_contract(omega_H(n))
        for u in GRID:
            assert (n + 2) * lam(u) == pytest.approx(2.0, abs=1e-10)

    def test_split_case_harmonic_class_is_the_base_form(self):
        # the correction potential vanishes identically at n = 0
        assert omega_H(0) == base_form(0)

    def test_star_fixes_alpha(self):
        for n in (0, 1, 5):
            st = hodge_star(alpha_form(n))
            for u in GRID:
                assert st.fx(u) == pytest.approx(alpha_form(n).fx(u), rel=1e-12)
                assert st.fphi(u) == pytest.approx(alpha_form(n).fphi(u), rel=1e-12)

    def test_star_involution_on_random_forms(self):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.choice([0, 1, 2, 6])
            a = combine(n, [
                (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), alpha_form(n)),
                (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), base_form(n)),
                (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), ddc_log_R(n)),
            ])
            dd = hodge_star(hodge_star(a))
            for u in (0.1, 1.0, 7.0, 100.0):
                assert dd.fx(u) == pytest.approx(a.fx(u), abs=1e-11)
                assert dd.fphi(u) == pytest.approx(a.fphi(u), abs=1e-11)

    @pytest.mark.parametrize("n", [1, 3])
    def test_star_of_harmonic_class(self, n):
        st = hodge_star(omega_H(n))
        for u in GRID:
            want_fx = 2 / (n + 2) * alpha_form(n).fx(u) - omega_H(n).fx(u)
            want_fphi = 2 / (n + 2) * alpha_form(n).fphi(u) - omega_H(n).fphi(u)
            assert st.fx(u) == pytest.approx(want_fx, abs=1e-12)
            assert st.fphi(u) == pytest.approx(want_fphi, abs=1e-12)


def random_combination(n: int, rng: random.Random) -> Form11:
    """A rational combination of the catalog forms of n."""
    return combine(n, [(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), form)
                       for form in forms.catalog(n).values()])


class TestStarSwap:
    """The star's coefficient swap against the definition it reduces to."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 400, 10**6])
    def test_star_matches_its_definition(self, n):
        rng = random.Random(n)
        cases = list(forms.catalog(n).values()) + [random_combination(n, rng)
                                                   for _ in range(6)]
        for a in cases:
            assert hodge_star(a) == oracles.hodge_star_by_contraction(a)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 400, 10**6])
    def test_ratios_are_the_products_they_replace(self, n):
        r_over_b, b_over_r = forms.star_ratios(n)
        assert r_over_b == ratio_R(n) * forms.B_INV
        assert b_over_r == forms.B * reciprocal_R(n)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 10**9), seed=st.integers(0, 2**32 - 1))
    def test_star_matches_its_definition_at_any_n(self, n, seed):
        a = random_combination(n, random.Random(seed))
        assert hodge_star(a) == oracles.hodge_star_by_contraction(a)


class TestL2:
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_norms(self, n):
        density = l2_pairing(alpha_form(n), alpha_form(n))
        assert integrate_halfline(density.g, CFG) == pytest.approx(n + 2, abs=1e-9)
        density = l2_pairing(omega_H(n), omega_H(n))
        assert integrate_halfline(density.g, CFG) == pytest.approx(2 / (n + 2), abs=1e-9)
        assert integrate_halfline(volume_form(n).g, CFG) == pytest.approx((n + 2) / 2, abs=1e-9)
        top = Fraction(1, n + 2) * wedge(alpha_form(n), alpha_form(n))
        density = l2_pairing(top, top)
        assert integrate_halfline(density.g, CFG) == pytest.approx(2 / (n + 2), abs=1e-9)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_harmonic_base_class_pairings(self, n):
        density = wedge(omega_H(n), alpha_form(n))
        assert integrate_halfline(density.g, CFG) == pytest.approx(1.0, abs=1e-9)
        density = wedge(omega_H(n), omega_H(n))
        assert integrate_halfline(density.g, CFG) == pytest.approx(0.0, abs=1e-9)
        primitive = combine(n, [(Fraction(1), omega_H(n)),
                                (Fraction(-1, n + 2), alpha_form(n))])
        density = l2_pairing(alpha_form(n), primitive)
        assert integrate_halfline(density.g, CFG) == pytest.approx(0.0, abs=1e-9)

    def test_star_isometry(self):
        n = 2
        a, b = alpha_form(n), omega_H(n)
        lhs = integrate_halfline(l2_pairing(hodge_star(a), hodge_star(b)).g, CFG)
        assert lhs == pytest.approx(integrate_halfline(l2_pairing(a, b).g, CFG), abs=2e-9)


class TestDegree2RelationPointwise:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
    def test_curvature_identity_on_grid(self, n):
        al = alpha_form(n)
        dh = ratio_R(n).derivative()
        d2h = dh.derivative()
        for u in GRID:
            lhs = 2 * al.fx(u) * al.fphi(u) - (n + 2) * al.fphi(u)
            rhs = -(dh(u) + u * d2h(u))
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert lhs == pytest.approx(n * (u - 1) / (1 + u) ** 3, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 4])
    def test_ddc_parts_match_relation_curvature(self, n):
        ddc_rhs = forms.ddc_form11(degree2_relation_rhs(n))
        for u in GRID:
            total = ddc_rhs.g(u)
            al = alpha_form(n)
            lhs = 2 * al.fx(u) * al.fphi(u) - (n + 2) * al.fphi(u)
            assert total == pytest.approx(lhs, abs=1e-11)


class TestQuotientMetric:
    @pytest.mark.parametrize("n", [0, 1, 3, 8, 10**6, 10**9])
    def test_ratio_is_two_pi(self, n):
        # alpha's fiber coefficient is taken against phi, which carries the
        # 1/(2*pi) between a metric and its form: the ratio of the quotient
        # metric to the metric of alpha is 2*pi exactly when the normal
        # forms are equal
        assert quotient_metric() == alpha_form(n).fphi

    def test_norm_matches_projective_metric(self):
        for u in (0.0, 0.7, 2.0, 50.0):
            assert quotient_metric()(u) == pytest.approx(1 / (1 + u) ** 2, rel=1e-12)


class TestCatalog:
    def test_catalog_names_stable(self):
        assert sorted(forms.catalog(3)) == [
            "alpha", "base_x", "bott_chern_c2", "c1_relative", "c1_tangent",
            "ddc_log_ratio", "degree2_relation_rhs", "omega_harmonic", "omega_rel"]

    def test_sample_rows(self):
        rows = forms.sample_catalog(1, [0.5, 2.0])
        assert len(rows) == 2 * len(forms.catalog(1))
        name, u, fx, fphi = rows[0]
        assert name == "alpha" and u == 0.5
