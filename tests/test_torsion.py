"""Pipelines end to end: both torsion routes, heights, integrals, reports."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hirzebruch_torsion import chow, forms, radial, torsion
from hirzebruch_torsion.chow import PipelineInconsistency
from hirzebruch_torsion.constants import (
    ExactConstant,
    ZETA_M1,
    ZETA_PRIME_M1,
    log_2pi,
    log_rational,
)
from hirzebruch_torsion.forms import Form22
from hirzebruch_torsion.radial import RADIAL_ZERO, NonConvergence, QuadratureConfig, Radial

import oracles

CFG = QuadratureConfig()


def genus_terms(n):
    """The direct route's additive-genus corrections of the three twists."""
    c1, products = torsion._todd_character_products(chow.arithmetic_chern_classes(n))
    c1_one = torsion._c1_times_one(c1)
    return tuple(torsion._genus_term(product, c1_one) for product in products)

# (1 + log 2pi)/3 - 4 zeta'(-1) - 2 zeta(-1) at 40-digit precision
TAU_P1_REFERENCE = 1.7743102636049188780


class TestTauP1:
    def test_exact_value(self):
        assert torsion.tau_p1() == torsion.closed_tau_p1()

    def test_float_value(self):
        assert torsion.tau_p1().to_float() == pytest.approx(TAU_P1_REFERENCE,
                                                            rel=1e-15)

    def test_atoms(self):
        t = torsion.tau_p1()
        assert t.rational_part == Fraction(1, 3)
        assert t.coefficient(ZETA_PRIME_M1) == -4
        assert t.coefficient(ZETA_M1) == -2


class TestClosedForms:
    def test_limit_values_at_zero(self):
        for fn in (oracles.closed_log_ratio_fiber_mass,
                   oracles.closed_c1_c1rel_log_ratio,
                   oracles.closed_c1_bott_chern,
                   oracles.closed_bb_first_term,
                   oracles.closed_c1_bott_chern_total,
                   oracles.closed_bb_todd_total):
            assert fn(0) == ExactConstant.zero()

    def test_total_is_sum_of_pieces(self):
        for n in (1, 2, 9):
            assert oracles.closed_c1_bott_chern_total(n) == \
                oracles.closed_c1_c1rel_log_ratio(n) + oracles.closed_c1_bott_chern(n)
            assert oracles.closed_bb_todd_total(n) == \
                (oracles.closed_bb_first_term(n)
                 + oracles.closed_c1_bott_chern_total(n)).scale(Fraction(1, 24))

    def test_spot_values_n1(self):
        assert oracles.closed_c1_c1rel_log_ratio(1) == \
            ExactConstant.rational(11) - log_rational(2).scale(13)
        assert oracles.closed_c1_bott_chern(1) == \
            ExactConstant.rational(-3) + log_rational(2).scale(4)

    def test_genus_pushforward_triple(self):
        base = ExactConstant.atom(ZETA_PRIME_M1, 8) + ExactConstant.atom(ZETA_M1, 4)
        assert oracles.r_genus_pushforward(0) == base
        assert oracles.r_genus_pushforward(1) == ExactConstant.zero()
        assert oracles.r_genus_pushforward(2) == -base
        for n in (0, 1, 7):  # the ring derives the same triple
            assert genus_terms(n) == tuple(
                oracles.r_genus_pushforward(p) for p in range(3))

    @pytest.mark.parametrize("n", [0, 1, 7, 10**6])
    def test_whole_products_match_the_graded_products(self, n):
        # Td ch multiplied as whole classes against the piecewise sum of the
        # graded pieces [Td]_i [ch]_{k-i}, in the two degrees the route reads
        _, products = torsion._todd_character_products(chow.arithmetic_chern_classes(n))
        td, chs = oracles.graded_todd_and_characters(n)
        for product, ch in zip(products, chs):
            for k in (3, 1):
                assert product.degree_part(k) == oracles.graded_product(td, ch, k)


class TestNamedIntegrals:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    def test_all_pass(self, n):
        for m in torsion.named_integrals(n, CFG):
            assert m.passed, (n, m.name, m.abs_error)

    def test_tanh_sinh_scheme_sweep(self):
        ts = QuadratureConfig(scheme="tanh_sinh", target_tol=1e-9)
        for m in torsion.named_integrals(2, ts):
            assert m.passed, ("tanh_sinh", m.name, m.abs_error)
        # at the default target, the n where scipy's tanhsinh was wrong
        ts = QuadratureConfig(scheme="tanh_sinh")
        for n in [57, 58, *range(60, 69)]:
            for e in (*torsion.named_integrals(n, ts), *torsion.hodge_l2_checks(n, ts),
                      *torsion.route_checks(n, ts)):
                assert e.passed, ("tanh_sinh", n, e.name, e.abs_error)

    def test_derived_masses_equal_the_closed_forms(self):
        # the exact mass of each integrand, derived from its normal form,
        # against its typed-in closed form
        for n in list(range(51)) + [10**3, 10**6]:
            closed = oracles.integral_closed_forms(n)
            table = torsion._integrand_table(n)
            assert [name for name, _ in table] == list(closed)
            for name, integrand in table:
                profile = integrand.g if isinstance(integrand, Form22) else integrand
                assert profile.mass == closed[name], (n, name)

    def test_names_stable(self):
        names = [m.name for m in torsion.named_integrals(1, CFG)]
        assert names == [
            "halfline_inverse_cube", "fiber_mass_relative_form",
            "relative_form_wedge_alpha", "alpha_wedge_base", "surface_volume",
            "c1_c1rel_log_ratio", "c1_bott_chern_c2", "bb_first_term",
            "c1_bott_chern_total", "bb_todd_total", "c1_squared",
            "c1rel_squared"]


class TestQuillenData:
    """The L2 covolumes of the harmonic generators, derived from exact
    pairings, against the typed values."""

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_exact_values(self, n):
        vol, gram, top_sq = oracles.l2_covolumes_sq(n)
        assert torsion._l2_covolumes_sq(n) == (vol, gram, top_sq)
        assert gram == 1
        al, w_h = forms.alpha_form(n), forms.omega_H(n)
        assert forms.l2_pairing(al, al).total_integral == n + 2
        assert forms.l2_pairing(w_h, w_h).total_integral == Fraction(2, n + 2)
        assert forms.l2_pairing(w_h, al).total_integral == 1
        assert forms.l2_pairing(al, w_h).total_integral == 1

    def test_quillen_log_norms(self):
        # log Vol - tau, the log Quillen norm upstairs, is minus the main value
        n = 3
        res = torsion.main_theorem(n)
        vol = oracles.l2_covolumes_sq(n)[0]
        assert res.vol == vol
        tau = torsion.tau_route_rr(chow.arithmetic_chern_classes(n))[0]
        assert log_rational(vol) - tau == -res.main_theorem_value

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 10**6))
    def test_derived_covolumes(self, n):
        assert torsion._l2_covolumes_sq(n) == oracles.l2_covolumes_sq(n)

    def test_a_pairing_that_is_not_rational_is_refused(self, monkeypatch):
        n = 3
        monkeypatch.setattr(forms, "l2_pairing",
                            lambda a, b: torsion.secondary_todd_parts(n)[0])
        with pytest.raises(PipelineInconsistency, match="not rational"):
            torsion._l2_covolumes_sq(n)


class TestRoutes:
    @pytest.mark.parametrize("n", range(0, 21))
    def test_equality_and_main_identity(self, n):
        res = torsion.main_theorem(n)
        assert res.tau_rr == res.tau_bb == res.tau_closed
        stated = torsion.log_np1(n).scale(Fraction(n, 24)) \
            + ExactConstant.rational(Fraction(-n, 6)) \
            + torsion.closed_tau_p1().scale(2)
        assert res.main_theorem_value == stated
        assert res.vol == Fraction(n + 2, 2)

    def test_exact_routes_at_large_n(self):
        # the exact path runs no quadrature, so no float tolerance can block it
        n = 10**4
        res = torsion.main_theorem(n)
        assert res.tau_rr == res.tau_bb == torsion.closed_tau(n)

    def test_duality(self):
        for n in (0, 1, 5, 12):
            tau, tau1, tau2 = torsion.tau_route_rr(chow.arithmetic_chern_classes(n))
            assert tau1 == ExactConstant.zero()
            assert tau2 == -tau

    def test_split_case_is_twice_the_base_torsion(self):
        res = torsion.main_theorem(0)
        assert res.main_theorem_value == torsion.closed_tau_p1().scale(2)
        assert res.tau_rr == torsion.closed_tau_p1().scale(2)  # log(2/2) = 0

    def test_spot_value_n1(self):
        res = torsion.main_theorem(1)
        assert res.main_theorem_value == \
            log_rational(2).scale(Fraction(1, 24)) \
            + ExactConstant.rational(Fraction(-1, 6)) \
            + torsion.closed_tau_p1().scale(2)

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_float_crosschecks(self, n):
        res = torsion.main_theorem(n)
        assert res.tau_rr.to_float() == res.tau_bb.to_float()
        tors = chow.torsion_form(chow.arithmetic_chern_classes(n).c1_relative)
        assert torsion.bb_quadrature_float(n, tors, CFG) == pytest.approx(
            res.tau_float, abs=1e-8)

    def test_route_check_entries_pass(self):
        for e in torsion.route_checks(2, CFG):
            assert e.passed, e

    def test_each_n_builds_its_chern_classes_once(self, monkeypatch):
        # main_theorem passes one build down to both routes; route_checks
        # builds one more for its c1*c2 row and its torsion form
        builds = []
        build = chow.arithmetic_chern_classes

        def counted(n):
            builds.append(n)
            return build(n)

        monkeypatch.setattr(chow, "arithmetic_chern_classes", counted)
        torsion.main_theorem(3)
        assert builds == [3]
        builds.clear()
        torsion.route_checks(3, CFG)
        assert 0 < len(builds) <= 2

    def test_route_checks_derive_the_torsion_form_twice(self, monkeypatch):
        # once in main_theorem's fibration route, once for the rows, whose
        # quadrature value reuses it
        derivations = []
        derive = chow.torsion_form

        def counted(c1_relative):
            derivations.append(c1_relative.n)
            return derive(c1_relative)

        monkeypatch.setattr(chow, "torsion_form", counted)
        torsion.route_checks(3, CFG)
        assert derivations == [3, 3]


class TestIndependence:
    """Neither exact route, nor the base torsion, nor the height, reads the
    package's stated closed forms."""

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_routes_without_the_closed_forms(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("a stated closed form was consulted")

        torsion.tau_p1.cache_clear()  # compute tau_p1 under the patch
        for name in ("closed_tau", "closed_tau_p1", "closed_height"):
            monkeypatch.setattr(torsion, name, refuse)
        want = oracles.tau_route_rr(n)
        cc = chow.arithmetic_chern_classes(n)
        assert torsion.tau_route_rr(cc) == want
        assert torsion.tau_route_bb(cc) == want[0]
        assert torsion.tau_p1() == oracles.tau_p1()
        assert torsion.height(n) == oracles.height(n)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 10**6))
    def test_derived_direct_route(self, n):
        genus = oracles.r_genus_pushforward(0)
        assert genus == torsion.R_GENUS_DEGREE1.scale(4)
        assert genus_terms(n) == (genus, ExactConstant.zero(), -genus)
        tau = oracles.tau_route_rr(n)[0]
        cc = chow.arithmetic_chern_classes(n)
        assert torsion.tau_route_rr(cc) == (tau, ExactConstant.zero(), -tau)


class TestHeights:
    @pytest.mark.parametrize("n,expected", [(0, 3), (1, Fraction(23, 4)),
                                            (10, Fraction(151, 2))])
    def test_spot_values(self, n, expected):
        assert torsion.height(n) == expected

    def test_range_against_closed_form(self):
        for n in range(0, 51):
            want = Fraction(2 * n * n + 9 * n + 12, 4)
            assert torsion.height(n) == want
            assert torsion.height_via_polarization_cube(n) == want


class TestGridAndHodgeSweeps:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_appendix_checks(self, n):
        for e in torsion.appendix_checks(n):
            assert e.passed, (n, e.name, e.abs_error)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 10**6))
    def test_identities_are_exact_for_every_n(self, n):
        for e in torsion.appendix_checks(n):
            assert e.passed and e.computed == e.abs_error == 0.0, (n, e.name)
        al, w_h = forms.alpha_form(n), forms.omega_H(n)
        assert forms.hodge_star(al) == al
        assert forms.hodge_star(w_h) == forms.combine(
            n, [(Fraction(2, n + 2), al), (Fraction(-1), w_h)])
        probe = forms.combine(n, [(Fraction(1, 3), al), (Fraction(-2), forms.base_form(n)),
                                  (Fraction(1, 7), forms.ddc_log_R(n))])
        assert forms.hodge_star(forms.hodge_star(probe)) == probe

    def test_exact_rows_keep_their_names_and_order(self):
        assert [e.name for e in torsion.appendix_checks(3)] == [
            "contraction_of_base_form", "contraction_of_ddc_log_ratio",
            "contraction_of_harmonic_combination", "degree2_relation_pointwise"]
        star_rows = torsion.hodge_l2_checks(3, CFG)[:3]
        assert [e.name for e in star_rows] == [
            "star_fixes_alpha", "star_of_harmonic_base_class", "star_is_an_involution"]
        assert all(e.passed and e.computed == e.abs_error == 0.0 for e in star_rows)

    def test_an_identity_is_not_decided_through_a_float(self):
        # a residual too small for a float still fails the identity
        tiny = Radial.term(Fraction(1, 10**400), a=1, k=2)
        e = torsion._identity("tiny", 0, tiny, RADIAL_ZERO)
        assert not e.passed and e.computed == 0.0
        e = torsion._identity("two_sides", 1, forms.alpha_form(1),
                              forms.alpha_form(1), forms.base_form(1))
        # alpha - base = (1 - 1/(1+u)) base + 1/(1+u)^2 phi: three unit weights
        assert not e.passed and e.abs_error == 3.0

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_hodge_checks(self, n):
        entries = torsion.hodge_l2_checks(n, CFG)
        for e in entries:
            assert e.passed, (n, e.name, e.abs_error)
        closed = oracles.hodge_l2_closed_forms(n)
        assert {e.name: e.expected for e in entries if e.name in closed} == closed

    def test_each_star_is_derived_once_per_form(self, monkeypatch):
        # 11 stars of 6 distinct forms: alpha, the harmonic base class and
        # its star, the probe and its star, and the primitive part
        contractions = []
        contract = forms.lambda_contract

        def counted(a):
            contractions.append(a)
            return contract(a)

        monkeypatch.setattr(forms, "lambda_contract", counted)
        torsion.hodge_l2_checks(3, CFG)
        assert len(contractions) == 6

    def test_quadratures_are_named(self, monkeypatch):
        # a quadrature that never meets its target names the check and n
        monkeypatch.setattr(radial, "_dqagse", lambda *args: (0.0, 1.0, 21, 0, 1))
        with pytest.raises(NonConvergence, match=r"^norm_sq_alpha, n=3: "):
            torsion.hodge_l2_checks(3, CFG)
        with pytest.raises(NonConvergence, match=r"^bb_first_term, n=3: "):
            torsion.bb_quadrature_float(3, torsion.tau_p1(), CFG)
        monkeypatch.setattr(torsion, "bb_quadrature_float", lambda n, tors, cfg: 0.0)
        with pytest.raises(NonConvergence, match=r"^c1c2_product_quadrature, n=3: "):
            torsion.route_checks(3, CFG)


class TestUntracedRunsRenderNothing:
    def test_no_normal_form_is_rendered(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a normal form was rendered")

        monkeypatch.setattr(Radial, "__str__", refuse)
        monkeypatch.setattr(Radial, "__repr__", refuse)
        torsion.tau_p1.cache_clear()
        try:
            assert torsion.main_theorem(3).tau_rr == torsion.closed_tau(3)
            assert torsion.height(3) == torsion.closed_height(3)
        finally:
            torsion.tau_p1.cache_clear()


class TestGrowthSanity:
    def test_sign_change_of_the_main_value(self):
        # tau - log Vol - 2 tau(base) = n log(n+1)/24 - n/6: negative while
        # log(n+1) < 4, positive after
        for n in range(1, 51):
            v = n * math.log(n + 1) / 24 - n / 6
            assert v < 0, n
        for n in range(56, 80):
            v = n * math.log(n + 1) / 24 - n / 6
            assert v > 0, n


class TestReports:
    def test_every_row_derives_its_error_from_an_exact_value(self):
        rep = torsion.verify_all([0, 1, 7], CFG)
        names = [e.name for e in rep.entries]
        assert names.count("quotient_metric_equals_alpha_fiber") == 3
        for e in rep.entries:
            assert isinstance(e.expected, ExactConstant), e.name
            assert e.expected_float == e.expected.to_float()
            assert e.abs_error == abs(e.computed - e.expected_float), e.name

    def test_a_failing_height_pipeline_shows_its_error(self, monkeypatch):
        monkeypatch.setattr(torsion, "height_via_polarization_cube",
                            lambda n: torsion.closed_height(n) + 1)
        rep = torsion.verify_all([], CFG, height_range=2)
        assert [e.name for e in rep.entries] == ["height_two_pipelines"] * 3
        for n, e in enumerate(rep.entries):
            assert e.n == n and not e.passed and e.abs_error == 1.0
            assert e.computed == float(torsion.closed_height(n) + 1)
        assert not rep.all_passed

    def test_verify_all_passes(self):
        rep = torsion.verify_all([1, 4], CFG, height_range=8)
        assert rep.all_passed
        assert rep.max_abs_error < 1e-8

    def test_json_round_trip(self):
        rep = torsion.verify_all([1], CFG, height_range=2)
        parsed = json.loads(rep.to_json_text())
        assert parsed["all_passed"] is True
        assert len(parsed["entries"]) == len(rep.entries)
        for row, entry in zip(parsed["entries"], rep.entries):
            assert row["name"] == entry.name
            assert row["computed"] == entry.computed  # exact float round-trip
            assert row["expected"] == entry.expected_float

    def test_csv_round_trip(self):
        rep = torsion.verify_all([1], CFG, height_range=2)
        lines = rep.to_csv_text().strip().splitlines()
        assert lines[0] == "name,n,expected,computed,abs_error,pass"
        for line, entry in zip(lines[1:], rep.entries):
            name, nfield, expected, computed, abs_error, passed = line.split(",")
            assert name == entry.name
            assert float(computed) == entry.computed
            assert float(expected) == entry.expected_float
            assert (passed == "true") == entry.passed

    def test_table_schema_and_round_trip(self):
        rows = torsion.table_rows([0, 1], CFG)
        text = torsion.table_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].split(",") == ["n", "height", "tau_float",
                                       "tau_minus_logvol_float",
                                       "route_discrepancy",
                                       "max_integral_discrepancy"]
        n, h, tauf, mainf, disc, maxdisc = lines[2].split(",")
        assert int(n) == 1
        assert Fraction(h) == rows[1]["height"]
        assert float(tauf) == rows[1]["tau_float"]
        assert float(disc) == 0.0
