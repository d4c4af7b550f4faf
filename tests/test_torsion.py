"""Pipelines end to end: both torsion routes, heights, integrals, reports."""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hirzebruch_torsion import chow, constants, forms, quadrature, radial, torsion
from hirzebruch_torsion.chow import PipelineInconsistency
from hirzebruch_torsion.constants import (
    ExactConstant,
    ZETA_M1,
    ZETA_PRIME_M1,
    log_2pi,
    log_rational,
)
from hirzebruch_torsion.radial import RADIAL_ZERO, NonConvergence, QuadratureConfig, Radial
from hirzebruch_torsion.settings import Value

import oracles

CFG = QuadratureConfig()
TS = QuadratureConfig(scheme="tanh_sinh")


def genus_terms(n):
    """The direct route's additive-genus corrections of the three twists."""
    c1, products = torsion._todd_character_products(torsion.Surface(n))
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
        _, products = torsion._todd_character_products(torsion.Surface(n))
        td, chs = oracles.graded_todd_and_characters(n)
        for product, ch in zip(products, chs):
            for k in (3, 1):
                assert product.degree_part(k) == oracles.graded_product(td, ch, k)


    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 10**9))
    @example(n=0)
    @example(n=1)
    @example(n=57)
    def test_middle_twist_by_linearity(self, n):
        # Td + Td e^-c1 + Td (c1 c2 / 2 - c2) against the whole-class product
        # Td ch(Lambda^1), in the two degrees the route reads
        _, products = torsion._todd_character_products(torsion.Surface(n))
        whole = oracles.whole_middle_twist_product(n)
        for k in (1, 3):
            assert products[1].degree_part(k) == whole.degree_part(k)


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

    def test_derived_masses_equal_the_closed_forms(self, monkeypatch):
        # the exact mass of each integrand, derived from its normal form,
        # against its typed-in closed form; no quadrature is run
        monkeypatch.setattr(torsion, "integrate_halfline", lambda f, cfg, name: 0.0)
        for n in list(range(51)) + [10**3, 10**6]:
            closed = oracles.integral_closed_forms(n)
            table = torsion.named_integrals(n, CFG)
            assert [m.name for m in table] == list(closed)
            for m in table:
                assert m.expected == closed[m.name], (n, m.name)

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
        assert torsion._l2_covolumes_sq(torsion.Surface(n)) == (vol, gram, top_sq)
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
        tau = torsion.tau_route_rr(n)[0]
        assert log_rational(vol) - tau == -res.main_theorem_value

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 10**6))
    def test_derived_covolumes(self, n):
        assert torsion._l2_covolumes_sq(torsion.Surface(n)) == oracles.l2_covolumes_sq(n)

    def test_a_pairing_that_is_not_rational_is_refused(self, monkeypatch):
        s = torsion.Surface(3)
        monkeypatch.setattr(forms, "l2_pairing", lambda a, b: s.secondary_todd_parts[0])
        with pytest.raises(PipelineInconsistency, match="not rational"):
            torsion._l2_covolumes_sq(s)


class TestRoutes:
    @pytest.mark.parametrize("n", range(0, 21))
    def test_equality_and_main_identity(self, n):
        res = torsion.main_theorem(n)
        assert res.tau_rr == res.tau_bb == res.tau_closed
        stated = log_rational(n + 1).scale(Fraction(n, 24)) \
            + ExactConstant.rational(Fraction(-n, 6)) \
            + torsion.closed_tau_p1().scale(2)
        assert res.main_theorem_value == stated
        assert res.vol == Fraction(n + 2, 2)

    def test_exact_routes_at_large_n(self):
        # the exact path runs no quadrature, so no float tolerance can block it
        n = 10**4
        res = torsion.main_theorem(n)
        assert res.tau_rr == res.tau_bb == torsion.closed_tau(n)

    def test_factored_primes_are_not_proven_again(self, monkeypatch):
        # n + 1 = 999999999989 is prime: _factor proves it by Miller-Rabin, and
        # the log(p) atoms built from its result take no second proof
        n, calls = 999999999988, []
        is_prime = constants._is_prime
        monkeypatch.setattr(constants, "_is_prime", lambda p: calls.append(p) or is_prime(p))
        res = torsion.main_theorem(n)
        assert res.tau_rr == res.tau_bb == torsion.closed_tau(n)
        assert calls.count(n + 1) == 0

    def test_each_integer_is_factored_once(self, monkeypatch):
        # the prime logs of each integer are kept, so one main_theorem factors
        # n + 1 and (n + 2)/2 = 3^2 * 5 * 21649 * 513239 once, though the
        # latter is the numerator of the volume and the denominator of the
        # top twist's covolume
        n, calls = 999999999988, []
        factor = constants._factor
        monkeypatch.setattr(constants, "_factor", lambda m: calls.append(m) or factor(m))
        constants._prime_logs.cache_clear()
        torsion.main_theorem(n)
        assert n + 1 in calls and (n + 2) // 2 in calls
        assert all(calls.count(m) == 1 for m in calls), sorted(calls)

    def test_duality(self):
        for n in (0, 1, 5, 12):
            tau, tau1, tau2 = torsion.tau_route_rr(n)
            assert tau1 == ExactConstant.zero()
            assert tau2 == -tau

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 10**18))
    @example(n=10**6)
    @example(n=10**9)
    @example(n=10**18)
    def test_main_theorem_checks_serre_duality(self, n):
        # an n whose n + 1 or n + 2 lies beyond the bounded factorization is
        # refused by name, before any check
        try:
            res = torsion.main_theorem(n)
        except constants.FactorizationLimit:
            assume(False)
        assert res.tau_omega1.is_zero and res.tau_omega2 == -res.tau_rr

    def test_a_duality_failure_is_refused(self, monkeypatch):
        route_rr = torsion.tau_route_rr
        for bend in (lambda t: (t[0], t[1] + log_2pi(), t[2]),
                     lambda t: (t[0], t[1], t[2] + log_2pi())):
            monkeypatch.setattr(torsion, "tau_route_rr", lambda s, b=bend: b(route_rr(s)))
            with pytest.raises(PipelineInconsistency, match="^Serre duality fails at n=3"):
                torsion.main_theorem(3)

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
        assert torsion.bb_quadrature_float(n, CFG) == pytest.approx(
            res.tau_float, abs=1e-8)

    def test_route_check_entries_pass(self):
        for e in torsion.route_checks(2, CFG):
            assert e.passed, e

    def test_each_n_builds_its_chern_classes_once(self, monkeypatch):
        # main_theorem passes one build down to both routes; route_checks
        # reads the same record for its c1*c2 row and its torsion form
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
        assert builds == [3]

    def test_route_checks_derive_the_torsion_form_once(self, monkeypatch):
        # in main_theorem's fibration route, and the rows read it from the
        # same record, their quadrature value included
        derivations = []
        derive = chow.torsion_form

        def counted(c1_relative):
            derivations.append(c1_relative.n)
            return derive(c1_relative)

        monkeypatch.setattr(chow, "torsion_form", counted)
        torsion.route_checks(3, CFG)
        assert derivations == [3]

    @pytest.mark.parametrize("n", [0, 7, 57])
    def test_verify_derives_each_n_once(self, n, monkeypatch):
        # every check of n reads one record: one build of the classes, the
        # torsion form, c1 and the harmonic base class; alpha is built 48
        # times when each check derives n again
        calls = []

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append(name) or fn(*args))

        for name in ("arithmetic_chern_classes", "torsion_form"):
            counted(chow, name)
        for name in ("c1_total", "omega_H", "alpha_form"):
            counted(forms, name)
        torsion.verify_all([n], CFG, height_range=0)
        for name in ("arithmetic_chern_classes", "torsion_form", "c1_total", "omega_H"):
            assert calls.count(name) == 1, (name, calls.count(name))
        assert calls.count("alpha_form") < 24

    def test_verify_takes_the_ring_products_of_main_theorem(self, monkeypatch):
        # the c1*c2 row reads the record's c1*c2, which the direct route
        # formed: the route checks of n take main_theorem's 12 ring products
        torsion.tau_p1()
        calls = []
        mul = chow.mul
        monkeypatch.setattr(chow, "mul", lambda *args, **kw: calls.append(1) or mul(*args, **kw))
        torsion.main_theorem(5)
        assert len(calls) == 12
        calls.clear()
        torsion.route_checks(5, CFG)
        assert len(calls) == 12


def counted_quadratures(monkeypatch):
    """The (normal form, configuration, name) of every integrate_halfline
    call that torsion, the one module of the engine that integrates, makes
    from now on."""
    calls = []
    integrate = torsion.integrate_halfline

    def counted(f, cfg, name=""):
        calls.append((f, cfg, name))
        return integrate(f, cfg, name)

    monkeypatch.setattr(torsion, "integrate_halfline", counted)
    return calls


def integrate_halfline_callers():
    """(module file, enclosing qualified name) of every call of
    integrate_halfline in the package source outside radial.py, read from
    the syntax tree."""
    found = []

    def visit(node, scope, path):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "integrate_halfline":
                found.append((path.name, ".".join(scope)))
        inner = (scope + [node.name] if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope)
        for child in ast.iter_child_nodes(node):
            visit(child, inner, path)

    for path in sorted(Path(torsion.__file__).parent.glob("*.py")):
        if path.name != "radial.py":
            visit(ast.parse(path.read_text()), [], path)
    return found


QUADRATURE_NAMES = {"integrate_halfline", "QuadratureConfig", "DEFAULT_CONFIG", "quadrature"}


class TestSingleIntegrator:
    """The engine integrates through one door: Surface.quadrature."""

    def test_the_record_is_the_only_caller(self):
        assert integrate_halfline_callers() == [("torsion.py", "Surface.quadrature")]

    @pytest.mark.parametrize("module", [forms, chow], ids=lambda m: m.__name__)
    def test_the_exact_layers_bind_no_quadrature_name(self, module):
        tree = ast.parse(Path(module.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add((node.asname or node.name).split(".")[0])
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & QUADRATURE_NAMES
        assert not QUADRATURE_NAMES & set(vars(module))


class TestRecordQuadrature:
    """Route 3 integrates through Surface.quadrature: each normal form once
    per record and configuration."""

    def test_one_quadrature_per_distinct_integrand(self, monkeypatch):
        # 15 distinct integrands of the named, L2 and fibration-route
        # checks, and the two distinct top forms of c1*c2, all through the
        # record
        calls = counted_quadratures(monkeypatch)
        torsion.verify_all([7], CFG, height_range=0)
        assert len(calls) == 17
        assert len({(f, cfg) for f, cfg, _ in calls}) == 17
        assert sum(name == "c1c2_product_quadrature, n=7" for _, _, name in calls) == 2

    def test_a_repeated_quadrature_hashes_no_fraction(self, monkeypatch):
        # the normal form keeps its hash, so a hit recomputes none of its
        # Fraction weights' hashes
        s = torsion.Surface(7)
        f = s.secondary_todd_parts[2].g
        assert any(type(c) is Fraction for _, c in f.terms)
        value = s.quadrature("c1_bott_chern_c2", f, CFG)
        calls = []
        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda q: calls.append(q) or fraction_hash(q))
        assert s.quadrature("c1_bott_chern_c2", f, CFG) == value
        assert calls == []
        hash(Fraction(1, 3))
        assert len(calls) == 1

    def test_a_record_integrates_under_each_configuration(self, monkeypatch):
        s = torsion.Surface(3)
        calls = counted_quadratures(monkeypatch)
        gk = torsion.named_integrals(s, CFG)
        ts = torsion.named_integrals(s, TS)
        schemes = [cfg.scheme for _, cfg, _ in calls]
        assert schemes == ["gauss_kronrod"] * 10 + ["tanh_sinh"] * 10
        assert gk == torsion.named_integrals(3, CFG)
        assert ts == torsion.named_integrals(3, TS)
        assert [m.computed for m in gk] != [m.computed for m in ts]

    def test_a_failed_quadrature_is_not_stored(self, monkeypatch):
        # the rule stalls on the volume alone: its first check raises, and
        # the second check of the same integrand integrates it again and
        # raises under its own name; what converged stays stored
        s = torsion.Surface(3)
        probe = radial._compactified(s.volume_form.g)([0.5])
        dqagse = quadrature._dqagse

        def stall_on_the_volume(g, *args):
            return (0.0, 1.0, 21, 0, 1) if g([0.5]) == probe else dqagse(g, *args)

        calls = counted_quadratures(monkeypatch)
        monkeypatch.setattr(quadrature, "_dqagse", stall_on_the_volume)
        with pytest.raises(NonConvergence, match=r"^relative_form_wedge_alpha, n=3: "):
            torsion.named_integrals(s, CFG)
        with pytest.raises(NonConvergence, match=r"^norm_sq_h0_generator, n=3: "):
            torsion.hodge_l2_checks(s, CFG)
        monkeypatch.setattr(quadrature, "_dqagse", dqagse)
        calls.clear()
        assert all(e.passed for e in torsion.hodge_l2_checks(s, CFG))
        assert [name for _, _, name in calls] == [
            f"{name}, n=3" for name in ("norm_sq_h0_generator", "norm_sq_top_generator",
                                        "harmonic_base_class_squared",
                                        "primitive_part_orthogonal_to_alpha")]

    @pytest.mark.parametrize("n", [1, 7])
    def test_rows_that_share_an_integrand_report_equal_values(self, n):
        rows = {e.name: e.computed for e in torsion.verify_all([n], CFG, height_range=0).entries}
        assert rows["fiber_mass_relative_form"] == rows["alpha_wedge_base"]
        assert (rows["relative_form_wedge_alpha"] == rows["surface_volume"]
                == rows["norm_sq_h0_generator"])


class TestIndependence:
    """Neither exact route, nor the base torsion, nor the height, reads the
    package's stated closed forms."""

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_routes_without_the_closed_forms(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("a stated closed form was consulted")

        torsion.tau_p1.cache_clear()  # compute tau_p1 under the patch
        for name in ("closed_tau", "closed_main_value", "closed_tau_p1", "closed_height"):
            monkeypatch.setattr(torsion, name, refuse)
        want = oracles.tau_route_rr(n)
        s = torsion.Surface(n)
        assert torsion.tau_route_rr(s) == want
        assert torsion.tau_route_bb(s) == want[0]
        assert torsion.tau_p1() == oracles.tau_p1()
        assert torsion.height(n) == oracles.height(n)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 10**6))
    def test_derived_direct_route(self, n):
        genus = oracles.r_genus_pushforward(0)
        assert genus == torsion.R_GENUS_DEGREE1.scale(4)
        assert genus_terms(n) == (genus, ExactConstant.zero(), -genus)
        tau = oracles.tau_route_rr(n)[0]
        assert torsion.tau_route_rr(n) == (tau, ExactConstant.zero(), -tau)


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
        assert (forms.l2_pairing(forms.hodge_star(al), forms.hodge_star(w_h))
                == forms.l2_pairing(al, w_h))

    @pytest.mark.parametrize("n", [0, 1, 7, 57, 10**6])
    def test_the_mixed_star_pair_is_decided_exactly(self, n, monkeypatch):
        # <*alpha, *w_H> = <alpha, w_H> holds pointwise, as densities: the
        # row grades with tol 0 and integrates nothing
        monkeypatch.setattr(quadrature, "gauss_kronrod", lambda g, target: (0.0, 0.0, ""))
        calls = counted_quadratures(monkeypatch)
        row = torsion.hodge_l2_checks(n, CFG)[-1]
        assert row.name == "star_isometry_on_mixed_pair"
        assert row.passed and row.tol == 0.0 and row.computed == row.abs_error == 0.0
        assert not any(name.startswith("star_") for _, _, name in calls)
        assert len(calls) == (3 if n == 0 else 6)

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

    def test_a_side_equal_to_the_first_builds_no_difference(self, monkeypatch):
        alpha, twin = forms.alpha_form(3), forms.alpha_form(3)
        made = []
        built = radial.built
        for module in (radial, forms):  # forms binds built by name
            monkeypatch.setattr(module, "built", lambda acc: made.append(acc) or built(acc))
        e = torsion._identity("equal_forms", 3, alpha, twin, alpha)
        assert e.passed and e.computed == 0.0
        e = torsion._identity("equal_radials", 3, alpha.fx, twin.fx)
        assert e.passed and e.computed == 0.0
        assert made == []
        # a failing identity keeps its residual, the differences of the
        # sides that are not equal to the first: alpha - base has three unit
        # weights and alpha - omega = R base has 2 + 1 at n = 1
        a = forms.alpha_form(1)
        e = torsion._identity("two_failing", 1, a, forms.base_form(1), a, forms.omega_form(1))
        assert not e.passed and e.computed == 6.0
        third = Radial.term(Fraction(1, 3), a=1, k=2)
        e = torsion._identity("one_failing", 4, third, Radial.term(a=5, k=3), third)
        assert not e.passed and e.computed == 1.3333333333333333

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_hodge_checks(self, n):
        entries = torsion.hodge_l2_checks(n, CFG)
        for e in entries:
            assert e.passed, (n, e.name, e.abs_error)
        closed = oracles.hodge_l2_closed_forms(n)
        assert {e.name: e.expected for e in entries if e.name in closed} == closed

    def test_each_star_is_derived_once_per_form(self, monkeypatch):
        # 11 stars of 6 distinct forms: alpha, the harmonic base class and
        # its star, the probe and its star, and the primitive part; each
        # derivation builds the star's two ratios once
        derivations = []
        ratios = forms.star_ratios

        def counted(n):
            derivations.append(n)
            return ratios(n)

        monkeypatch.setattr(forms, "star_ratios", counted)
        torsion.hodge_l2_checks(3, CFG)
        assert derivations == [3] * 6

    def test_quadratures_are_named(self, monkeypatch):
        # a quadrature that never meets its target names the check and n
        monkeypatch.setattr(quadrature, "_dqagse", lambda *args: (0.0, 1.0, 21, 0, 1))
        with pytest.raises(NonConvergence, match=r"^norm_sq_alpha, n=3: "):
            torsion.hodge_l2_checks(3, CFG)
        with pytest.raises(NonConvergence, match=r"^bb_first_term, n=3: "):
            torsion.bb_quadrature_float(3, CFG)
        monkeypatch.setattr(torsion, "bb_quadrature_float", lambda s, cfg: 0.0)
        with pytest.raises(NonConvergence, match=r"^c1c2_product_quadrature, n=3: "):
            torsion.route_checks(3, CFG)


def counted_fractions(monkeypatch) -> list:
    """The Fraction constructions, from now on, one entry each."""
    made, new = [], Fraction.__new__

    def counting(cls, *args, **kw):
        made.append(cls)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made


def counted_builders(monkeypatch) -> dict:
    """Calls, from now on, of the builders route 3's set-up goes through,
    by name."""
    calls: dict = {}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kw)
        return wrapper

    for name in ("alpha_form", "c1_total", "c1_rel", "omega_H"):
        monkeypatch.setattr(forms, name, counted(name, getattr(forms, name)))
    mul_into = counted("_mul_into", radial._mul_into)
    for module in (radial, forms):  # forms binds _mul_into by name
        monkeypatch.setattr(module, "_mul_into", mul_into)
    monkeypatch.setattr(Radial, "term", staticmethod(counted("term", Radial.term)))
    return calls


class TestSetUpBudget:
    """Route 3's set-up: each check's record derives only the forms that the
    check reads, and the star builds no alpha."""

    def test_quad_checks_item(self, monkeypatch):
        # both checks of n on records of their own, as each is called alone
        calls = counted_builders(monkeypatch)
        torsion.named_integrals(7, CFG)
        torsion.hodge_l2_checks(7, CFG)
        assert calls["alpha_form"] <= 4
        assert calls["term"] <= 21
        assert calls["_mul_into"] <= 50
        for name in ("c1_total", "c1_rel", "omega_H"):
            assert calls.get(name, 0) <= 1, name

    def test_fractions_per_quad_checks_item(self, monkeypatch):
        # the radial core runs on integer triples: a Fraction is made only at
        # its boundary, one per atom of each exact mass
        torsion.named_integrals(3, CFG)
        torsion.hodge_l2_checks(3, CFG)
        made = counted_fractions(monkeypatch)
        ns = range(20, 40)
        for n in ns:
            torsion.named_integrals(n, CFG)
            torsion.hodge_l2_checks(n, CFG)
        assert len(made) / len(ns) <= 50

    def test_star_ratios_are_built_once_per_n(self):
        # the 6 star derivations of a record pair share one R/B and B/R
        for n in range(20, 40):
            forms.star_ratios.cache_clear()
            torsion.named_integrals(n, CFG)
            torsion.hodge_l2_checks(n, CFG)
            assert forms.star_ratios.cache_info().misses == 1, n

    def test_hodge_checks_build_no_first_chern_form(self, monkeypatch):
        calls = counted_builders(monkeypatch)
        torsion.hodge_l2_checks(7, CFG)
        assert "c1_total" not in calls and "c1_rel" not in calls


class TestRingBudget:
    """The ring sums each slot once and builds it once, and holds one slot
    per ring constant, so a form under log 2pi or R1 is wedged once; a
    product rewrites its own monomials into its slot sums, so it reduces
    only its factors: the builds, reductions, wedges and catalog forms of
    one main_theorem, on average over n = 20..39."""

    def test_main_theorem(self, monkeypatch):
        torsion.main_theorem(3)  # the n-free tables are filled once per process
        calls: dict = {}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kw)
            return wrapper

        built = counted("built", radial.built)
        for module in (radial, forms):  # forms binds built by name
            monkeypatch.setattr(module, "built", built)
        monkeypatch.setattr(chow.ChowClass, "__init__",
                            counted("ChowClass", chow.ChowClass.__init__))
        for name in ("_assemble", "mul", "reduce", "_wedge_into"):
            monkeypatch.setattr(chow, name, counted(name, getattr(chow, name)))
        for name in ("alpha_form", "degree2_relation_rhs"):
            monkeypatch.setattr(forms, name, counted(name, getattr(forms, name)))
        ns = range(20, 40)
        for n in ns:
            torsion.main_theorem(n)
        per_call = {name: count / len(ns) for name, count in calls.items()}
        # Radial.term and derivative build through radial.built too (10 of the 124)
        assert per_call["built"] <= 124
        assert per_call["ChowClass"] <= 10
        assert per_call["_assemble"] <= 33
        assert per_call["reduce"] <= 33
        assert per_call["mul"] <= 12
        assert per_call["_wedge_into"] <= 85
        assert per_call["alpha_form"] <= 6
        assert per_call["degree2_relation_rhs"] <= 1

    def test_fractions_per_main_theorem(self, monkeypatch):
        # Fraction only at the radial core's boundary; the rest are the exact
        # constants' own
        torsion.main_theorem(3)
        made = counted_fractions(monkeypatch)
        ns = range(20, 40)
        for n in ns:
            torsion.main_theorem(n)
        assert len(made) / len(ns) <= 265

    def test_dd_c_is_derived_once_per_potential(self):
        # the products take dd^c of +-log R and +-log R / 2 only, each once
        for n in range(20, 40):
            forms.ddc.cache_clear()
            torsion.main_theorem(n)
            assert forms.ddc.cache_info().misses == 4, n

    def test_log_ratio_is_built_once_per_n(self):
        # the ring, ddc_log_R and the record's secondary Todd parts share one
        # log R, in main_theorem and in a route-3 record pair alike
        for n in range(20, 40):
            forms.log_R.cache_clear()
            torsion.main_theorem(n)
            assert forms.log_R.cache_info().misses == 1, n
            forms.log_R.cache_clear()
            torsion.named_integrals(n, CFG)
            torsion.hodge_l2_checks(n, CFG)
            assert forms.log_R.cache_info().misses == 1, n


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


class TestValueProtocol:
    """The value classes compare, hash and show by their fields, through
    settings.Value; the hashes and reprs are those they wrote out by hand."""

    def test_each_class_names_its_fields(self):
        for cls in (QuadratureConfig, forms.Form11, forms.Form22, torsion.VerificationEntry,
                    torsion.VerificationReport):
            assert issubclass(cls, Value)
            for method in ("__eq__", "__repr__"):
                assert method not in vars(cls), (cls, method)

    def test_a_subclass_with_equal_fields_is_unequal(self):
        fields = ("c1_squared", 2, ExactConstant.rational(8), 8.0, 1e-9)
        entry, named = torsion.VerificationEntry(*fields), torsion.NamedIntegral(*fields)
        assert entry == torsion.VerificationEntry(*fields)
        assert entry != named and named != entry
        assert hash(named) == hash(entry)

    def test_hashes(self):
        assert hash(QuadratureConfig()) == hash((1e-10, "gauss_kronrod"))
        assert hash(forms.base_form(2)) == hash((2, radial.RADIAL_ONE, RADIAL_ZERO))
        with pytest.raises(TypeError):
            hash(torsion.VerificationReport([]))

    def test_reprs(self):
        entry = torsion.VerificationEntry("x", None, ExactConstant.rational(1), 0.5, 1.0)
        assert repr(QuadratureConfig(1e-9, "tanh_sinh")) == \
            "QuadratureConfig(target_tol=1e-09, scheme='tanh_sinh')"
        assert repr(forms.omega_form(1)) == "Form11(n=1, fx=0, fphi=1/(1+u)^2)"
        assert repr(forms.Form22(0, forms.B)) == "Form22(n=0, g=1/(1+u)^2)"
        assert repr(entry) == ("VerificationEntry(name='x', n=None, expected=ExactConstant(1), "
                               "computed=0.5, tol=1.0, passed=True)")
        assert repr(torsion.VerificationReport([entry])) == \
            f"VerificationReport(entries=[{entry!r}])"


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
