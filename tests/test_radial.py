"""Radial functions: known masses, error paths, linearity properties.

Oracles: the closed family du/(1+u)^k -> 1/(k-1); partial fractions for the
rational integrands; an independent tanh-sinh integration with mpmath for the
logarithmic ones; Gauss-Kronrod quadrature for the exact masses of the
normal form.
"""

import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hirzebruch_torsion import forms, kernels, quadrature, radial, torsion
from hirzebruch_torsion.constants import ExactConstant, log_rational
from hirzebruch_torsion.radial import (
    RADIAL_ONE,
    RADIAL_ZERO,
    DomainError,
    NonConvergence,
    QuadratureConfig,
    Radial,
    integrate_halfline,
)
from hirzebruch_torsion.torsion import VerificationEntry

CFG = QuadratureConfig()
TS_CFG = QuadratureConfig(scheme="tanh_sinh")


def power_integrand(k: int) -> Radial:
    return Radial.term(a=1, k=k)


class TestKnownValues:
    def test_inverse_cube_is_one_half(self):
        assert integrate_halfline(power_integrand(3), CFG) == pytest.approx(
            0.5, abs=1e-12)

    def test_zero_function(self):
        assert integrate_halfline(RADIAL_ZERO, CFG) == 0.0

    def test_log_ratio_integrand(self):
        # log((1+2u)/(1+u))/(1+u)^2 has mass 2 log 2 - 1
        f = forms.log_R(1) * forms.B
        assert integrate_halfline(f, CFG) == pytest.approx(2 * math.log(2) - 1,
                                                           abs=1e-11)

    def test_closed_power_family(self):
        for k in range(2, 7):
            got = integrate_halfline(power_integrand(k), CFG)
            assert got == pytest.approx(1.0 / (k - 1), abs=1e-12), k

    @pytest.mark.parametrize("a", [2, 3, 7])
    def test_growing_log_integrand(self, a):
        # log(1+au)/(1+u)^2: by parts the mass is a log(a)/(a-1)
        f = Radial.term(b=a, a=1, k=2)
        assert integrate_halfline(f, CFG) == pytest.approx(
            a * math.log(a) / (a - 1), abs=1e-10)

    def test_against_independent_mpmath_quadrature(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        n = 3
        f = forms.log_R(n) * forms.B
        oracle = float(mp.quad(
            lambda u: mp.log((1 + (n + 1) * u) / (1 + u)) / (1 + u) ** 2,
            [0, 1, mp.inf]))
        assert integrate_halfline(f, CFG) == pytest.approx(oracle, abs=1e-11)

    def test_tanh_sinh_scheme_agrees(self):
        for k in (2, 3, 5):
            gk = integrate_halfline(power_integrand(k), CFG)
            ts = integrate_halfline(power_integrand(k), TS_CFG)
            assert ts == pytest.approx(gk, abs=1e-10)


class TestCompareClosedForm:
    """A closed form graded against quadrature as a VerificationEntry."""

    def test_inverse_cube_entry(self):
        entry = VerificationEntry("inverse_cube", None, ExactConstant.rational(Fraction(1, 2)),
                                  integrate_halfline(power_integrand(3), CFG), CFG.pass_tol)
        assert entry.passed and entry.abs_error < 1e-11

    def test_zero_entry(self):
        entry = VerificationEntry("zero", None, ExactConstant.zero(),
                                  integrate_halfline(RADIAL_ZERO, CFG), CFG.pass_tol)
        assert entry.passed and entry.abs_error == 0.0

    def test_partial_fraction_oracle(self):
        # (1+(n+1)u)/(1+u)^3 at n=2: split as (n+1)/(1+u)^2 - n/(1+u)^3,
        # so the mass is (n+1) - n/2 = 2 exactly.
        n = 2
        oracle = Fraction(n + 1) - Fraction(n, 2)
        assert oracle == 2
        f = Radial.term(a=1, k=3) + Radial.term(n + 1, j=1, a=1, k=3)
        entry = VerificationEntry("mixed", n, ExactConstant.rational(oracle),
                                  integrate_halfline(f, CFG), CFG.pass_tol)
        assert entry.passed

    def test_report_row_schema(self):
        row = VerificationEntry("p2", 4, ExactConstant.rational(1),
                                integrate_halfline(power_integrand(2), CFG),
                                CFG.pass_tol).as_report_row()
        assert set(row) == {"name", "n", "expected", "computed", "abs_error", "pass"}


class TestErrors:
    def test_domain_error_on_non_finite(self):
        # each term is finite, but their sum overflows near u = 0; the error
        # names the check, or the start of the integrand, as a stall does
        c = Fraction(3, 2) * 10**308
        f = Radial.term(c, a=1, k=2) + Radial.term(c, a=2, k=2)
        assert len(str(f)) > 300
        for scheme in radial.SCHEMES:
            cfg = QuadratureConfig(scheme=scheme)
            with pytest.raises(DomainError) as err:
                integrate_halfline(f, cfg)
            assert str(err.value).startswith(str(f)[:57] + "...: integrand not finite at u=")
            assert len(str(err.value)) < 120
            with pytest.raises(DomainError, match=r"^big_sum: integrand not finite at u="):
                integrate_halfline(f, cfg, name="big_sum")

    def test_declared_decay_must_be_integrable(self):
        # 1/(1+u) decays too slowly to be integrated
        with pytest.raises(DomainError):
            integrate_halfline(Radial.term(a=1, k=1), CFG)

    def test_not_integrable_names_the_check(self):
        # the growing logs leave a 1/u tail: the error names the check, as
        # the non-finite and stalled errors do, not the whole integrand
        f = forms.ratio_R(10**6) * forms.log_R(10**6) + forms.ratio_R(7)
        assert not f.integrable and len(str(f)) > 100
        with pytest.raises(DomainError) as err:
            integrate_halfline(f, CFG, name="check")
        assert str(err.value).startswith("check: ")
        assert len(str(err.value)) < 120

    def test_non_convergence_is_reported(self):
        # a target below what double precision reaches
        cfg = QuadratureConfig(target_tol=1e-17)
        with pytest.raises(NonConvergence, match="stalled at estimate 5.551e-15"):
            integrate_halfline(Radial.term(a=1, k=3), cfg)

    @pytest.mark.parametrize("scheme", ["gauss_kronrod", "tanh_sinh"])
    def test_a_failed_quadrature_is_not_retried(self, scheme, monkeypatch):
        passes = []  # one per QAGS call, or per tanh-sinh pass (its first panel holds t = 1/2)
        compactified = radial._compactified

        def failed_qags(*args):
            passes.append(args)
            return 0.5, 1.0, 1029, 1, 50

        def counted(f, name=""):
            g = compactified(f, name)

            def h(ts):
                if 0.5 in ts:
                    passes.append(ts)
                return g(ts)

            return h

        monkeypatch.setattr(quadrature, "_dqagse", failed_qags)
        monkeypatch.setattr(radial, "_compactified", counted)
        f = Radial.term(j=1, a=1, k=3)  # no tanh-sinh level meets the target
        with pytest.raises(NonConvergence, match="stalled at estimate"):
            integrate_halfline(f, QuadratureConfig(target_tol=1e-17, scheme=scheme))
        assert len(passes) == 1

    def test_config_validation(self):
        for tol in (0.0, -1e-10, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                QuadratureConfig(target_tol=tol)
        with pytest.raises(ValueError):
            QuadratureConfig(scheme="simpson")


def catalog_radials(n):
    """(name, radial function) of the catalog's form coefficients and of the
    route-3 integrands at n."""
    out = [(f"{name}.{part}", getattr(form, part))
           for name, form in forms.catalog(n).items() for part in ("fx", "fphi")]
    with mock.patch.object(torsion, "integrate_halfline",
                           lambda f, cfg, name: out.append((name, f)) or 0.0):
        torsion.named_integrals(n)
    return out


class TestKernels:
    """The generated kernels against the interpretive evaluator they replace."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**6))
    def test_kernels_match_the_interpretive_evaluator(self, data, n):
        name, f = data.draw(st.sampled_from(catalog_radials(n)))
        ts = [0.0, 1.0, 1.0 - 2.0**-53] + data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=21))
        g = oracles.interpretive_compactified(f, name)
        assert [v.hex() for v in radial._compactified(f, name)(ts)] == [g(t).hex() for t in ts]
        fn = oracles.interpretive_evaluator(f.terms)
        us = ts + [t / (1.0 - t) for t in ts if t < 1.0] + [math.inf]
        assert [f.fn(u).hex() for u in us] == [fn(u).hex() for u in us]

    @pytest.mark.parametrize("n", [0, 1, 7, 100, 10**6])
    def test_every_route3_integrand(self, n, monkeypatch):
        # each integrand that route 3 integrates at n, on a fixed panel of
        # nodes and on their u, bit for bit
        rng = random.Random(n)
        ts = [0.0, 1.0, 1.0 - 2.0**-53, 2.0**-40] + [i / 64 for i in range(1, 64)] \
            + [rng.random() for _ in range(64)]
        us = [t / (1.0 - t) for t in ts if t < 1.0] + [1e300, math.inf]
        integrands = route3_integrands(n, monkeypatch)
        assert len(integrands) == (5 if n == 0 else 16)
        for f, (_, name) in integrands.items():
            g = oracles.interpretive_compactified(f, name)
            assert [v.hex() for v in radial._compactified(f, name)(ts)] == \
                [g(t).hex() for t in ts], name
            fn = oracles.interpretive_evaluator(f.terms)
            assert [f.fn(u).hex() for u in us] == [fn(u).hex() for u in us], name

    def test_a_fresh_n_generates_no_kernel(self):
        # the kernels are keyed on the plan's shape, which n does not change
        kernels._binder.cache_clear()
        for n in range(101):
            torsion.named_integrals(n, CFG)
            torsion.hodge_l2_checks(n, CFG)
            torsion.route_checks(n, CFG)
        swept = kernels._binder.cache_info()
        torsion.named_integrals(250, CFG)
        torsion.hodge_l2_checks(250, CFG)
        torsion.route_checks(250, CFG)
        fresh = kernels._binder.cache_info()
        assert fresh.misses == swept.misses == swept.currsize <= 16
        assert fresh.hits > swept.hits
        assert fresh.currsize <= fresh.maxsize == kernels._KERNEL_SHAPES

    @pytest.mark.parametrize("scheme, u", [("gauss_kronrod", "0.013219203192174487"),
                                           ("tanh_sinh", "0.024922022305701886")])
    def test_the_first_non_finite_node_is_named(self, scheme, u):
        # the first node in evaluation order whose value overflows: a Gauss
        # node before the Kronrod nodes nearer u = 0, and the first pair of
        # tanh-sinh's first level
        c = Fraction(3, 2) * 10**308
        f = Radial.term(c, a=1, k=2) + Radial.term(c, a=2, k=2)
        cfg = QuadratureConfig(scheme=scheme)
        with pytest.raises(DomainError) as err:
            integrate_halfline(f, cfg, name="big_sum")
        assert str(err.value) == f"big_sum: integrand not finite at u={u}"
        rule = quadrature.tanh_sinh if scheme == "tanh_sinh" else quadrature.gauss_kronrod
        with pytest.raises(DomainError) as want:
            rule(panel(oracles.interpretive_compactified(f, "big_sum")), cfg.target_tol)
        assert str(want.value) == str(err.value)


class TestProperties:
    def test_linearity_100_cases(self):
        rng = random.Random(11)
        catalog = [power_integrand(2), power_integrand(3), power_integrand(4),
                   Radial.term(j=1, a=1, k=3)]
        masses = {f: integrate_halfline(f, CFG) for f in catalog}
        for _ in range(100):
            f, g = rng.sample(catalog, 2)
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            b = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            combo = a * f + b * g
            lhs = integrate_halfline(combo, CFG)
            rhs = float(a) * masses[f] + float(b) * masses[g]
            assert lhs == pytest.approx(rhs, abs=2 * CFG.target_tol)

    def test_substitution_invariance(self):
        # a f(a u) for f = 1/(1+u)^3
        rng = random.Random(13)
        f = power_integrand(3)
        for _ in range(20):
            a = rng.randint(2, 50)
            scaled = Radial.term(a, a=a, k=3)
            assert integrate_halfline(scaled, CFG) == pytest.approx(
                integrate_halfline(f, CFG), abs=2 * CFG.target_tol)


class TestNormalForm:
    """The symbolic normal form: canonical keys, exact mass."""

    def test_equal_functions_have_equal_keys(self):
        for n in (0, 1, 7):
            one = forms.ratio_R(n) * forms.reciprocal_R(n)
            assert one == RADIAL_ONE and hash(one) == hash(RADIAL_ONE)
        assert forms.log_R(0) == RADIAL_ZERO
        # u/(1+u)^2 in partial fractions
        assert Radial.term(j=1, a=1, k=2) == Radial.term(a=1, k=1) - Radial.term(a=1, k=2)

    def test_known_masses(self):
        assert Radial.term(a=1, k=3).mass == ExactConstant.rational(Fraction(1, 2))
        # log(1+2u)/(1+u)^2 has mass 2 log 2, log R/(1+u)^2 at n = 1 has 2 log 2 - 1
        assert Radial.term(a=1, k=2, b=2).mass == log_rational(2).scale(2)
        assert (forms.log_R(1) * forms.B).mass == \
            log_rational(2).scale(2) - ExactConstant.rational(1)

    def test_simple_pole_times_log_is_refused(self):
        n = 3
        with pytest.raises(DomainError, match="dilogarithm"):
            (forms.log_R(n) * Radial.term(a=1, k=1)).mass
        # integrable (the tails cancel) but its mass needs Li2; quadrature still works
        f = forms.log_R(n) * Radial.term(a=1, k=1) * Radial.term(a=n + 1, k=1)
        with pytest.raises(DomainError, match="dilogarithm"):
            f.mass
        assert math.isfinite(integrate_halfline(f, CFG))

    def test_divergent_sums_are_refused(self):
        with pytest.raises(DomainError):
            Radial.term(a=1, k=1).mass
        with pytest.raises(DomainError):
            forms.ratio_R(2).mass
        with pytest.raises(DomainError):
            integrate_halfline(Radial.term(a=1, k=1), CFG)

    def test_mass_is_derived_once_and_a_refusal_every_time(self):
        f = forms.log_R(1) * forms.B
        assert f.mass is f.mass
        g = Radial.term(a=1, k=1)
        for _ in range(2):
            with pytest.raises(DomainError):
                g.mass

    def test_the_constructor_sums_repeated_keys(self):
        key = (0, 0, 1, 2)
        assert Radial([(key, 1), (key, 2)]) == Radial({key: 3})
        assert Radial([(key, 1), (key, -1)]) == RADIAL_ZERO
        assert Radial([(key, Fraction(1, 2)), (key, Fraction(1, 2))]).terms == ((key, 1),)

    @pytest.mark.parametrize("key", [(0, 1, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0),
                                     (0, -1, 0, 0), (0, 0, -1, 1), (0, 0, 0), (0, 1.0, 0, 0)])
    def test_the_constructor_refuses_a_key_outside_the_normal_form(self, key):
        # u/(1+u) is (0, 1, 1, 1) before its split: Radial.term splits it
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            Radial({key: 1})
        assert Radial.term(j=1, a=1, k=1) == RADIAL_ONE - Radial.term(a=1, k=1)

    @pytest.mark.parametrize("c", [0.5, 1.0, "1", None, 1j])
    def test_the_constructor_refuses_a_weight_that_is_not_rational(self, c):
        with pytest.raises(TypeError, match=r"^the weight of \(0, 0, 0, 0\) is not an int or a "):
            Radial({(0, 0, 0, 0): c})


@st.composite
def integrands(draw, n):
    """Integrable normal forms: pole powers >= 2 (times u and a log at most)
    and a simple-pole pair whose 1/u tails cancel."""
    big = n + 1
    q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    f = Radial()
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.integers(0, 1))
        f = f + Radial.term(draw(q), j=j, a=draw(st.sampled_from((1, big))),
                            k=j + draw(st.integers(2, 4)), b=draw(st.sampled_from((0, 1, big))))
    return f + draw(q) * (Radial.term(a=1, k=1) - Radial.term(big, a=big, k=1))


class TestMassProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**6))
    def test_mass_is_linear(self, data, n):
        f, g = data.draw(integrands(n)), data.draw(integrands(n))
        p, q = (data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=7))
                for _ in range(2))
        assert (p * f + q * g).mass == f.mass.scale(p) + g.mass.scale(q)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 100))
    def test_mass_matches_quadrature(self, data, n):
        f = data.draw(integrands(n))
        g = radial._compactified(f)
        size = quadrature._dqagse(lambda ts: [abs(v) for v in g(ts)], 0.0, 1.0, 0.5e-6, 1e-13,
                                  50)[0]
        assert abs(f.mass.to_float() - integrate_halfline(f, CFG)) <= 1e-9 * max(1.0, size)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 1000))
    def test_tanh_sinh_matches_mass(self, data, n):
        f = data.draw(integrands(n))
        assert abs(integrate_halfline(f, TS_CFG) - f.mass.to_float()) <= TS_CFG.pass_tol


@st.composite
def catalog_forms(draw, n):
    """Sums of terms c u^j (1+au)^-k log(1+bu)^[b > 0] over the catalog's
    pole bases 1 and n+1 and log bases 0, 1 and n+1, j <= 3 and k <= 4, and
    at times a simple-pole pair whose 1/u tails cancel: some have a mass, the
    rest meet each refusal."""
    big = n + 1
    q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    f = Radial()
    for _ in range(draw(st.integers(0, 4))):
        f = f + Radial.term(draw(q), j=draw(st.integers(0, 3)),
                            a=draw(st.sampled_from((1, big))), k=draw(st.integers(0, 4)),
                            b=draw(st.sampled_from((0, 1, big))))
    if draw(st.booleans()):
        f = f + draw(q) * (Radial.term(a=1, k=1) - Radial.term(big, a=big, k=1))
    return f


def mass_or_refusal(derive, f):
    """The exact mass that derive gives f and its text, or the refusal's text."""
    try:
        value = derive(f)
    except DomainError as err:
        return "refused", str(err)
    return value, str(value)


def hexed(plan):
    """A plan with every float as its hex text, so that -0.0 differs from 0.0."""
    if isinstance(plan, float):
        return plan.hex()
    return tuple(hexed(x) for x in plan) if isinstance(plan, tuple) else plan


class TestIntegerDerivations:
    """The exact mass and the float plan, summed on integers, against the
    Fraction derivations they replace."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9))
    def test_mass_matches_the_fraction_derivation(self, data, n):
        f = data.draw(integrands(n))
        assert mass_or_refusal(lambda g: g.mass, f) == mass_or_refusal(oracles.fraction_mass, f)
        assert f.mass == oracles.fraction_mass(f)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9))
    def test_mass_and_refusals_match_the_fraction_derivation(self, data, n):
        f = data.draw(catalog_forms(n))
        assert mass_or_refusal(lambda g: g.mass, f) == mass_or_refusal(oracles.fraction_mass, f)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9))
    def test_plan_matches_the_fraction_derivation(self, data, n):
        f = data.draw(catalog_forms(n))
        assert hexed(f.plan) == hexed(oracles.fraction_plan(f))

    @pytest.mark.parametrize("f, text", [
        (Radial.term(10**400, j=1) + Radial.term(a=1, k=2), "int too large to convert to float"),
        (Radial.term(Fraction(10**400, 3), j=1), "integer division result too large for a float"),
        (Radial.term(Fraction(10**400, 3), a=1, k=3),
         "integer division result too large for a float"),
        (Radial.term(10**400, a=1, k=1) - Radial.term(10**400, a=2, k=1),
         "int too large to convert to float")])
    def test_an_overflow_keeps_its_text(self, f, text):
        # the CLI prints the OverflowError's text (exit 2)
        for plan in (lambda g: g.plan, oracles.fraction_plan):
            with pytest.raises(OverflowError) as err:
                plan(f)
            assert str(err.value) == text

    @pytest.mark.parametrize("n", [0, 1, 7, 100, 10**9])
    def test_catalog_plans_match_the_fraction_derivation(self, n):
        for _, f in catalog_radials(n):
            assert hexed(f.plan) == hexed(oracles.fraction_plan(f))

    @pytest.mark.parametrize("f, text", [
        (Radial.term(2, j=1), "2*u has no half-line mass (it does not decay)"),
        (Radial.term(a=1, k=1, b=3) + Radial.term(j=2),
         "u^2 has no half-line mass (it does not decay)"),
        (Radial.term(Fraction(1, 3), a=4, k=1, b=4) + Radial.term(a=1, k=2),
         "1/3*log(1+4u)/(1+4u): a simple pole times a log has no mass in the constant span "
         "(it needs a dilogarithm)"),
        (Radial.term(a=1, k=2) + Radial.term(-2, a=5, k=1),
         "1/(1+u)^2 - 2/(1+5u) decays like 1/u: its half-line integral diverges")])
    def test_each_refusal_keeps_its_text(self, f, text):
        assert mass_or_refusal(lambda g: g.mass, f) == ("refused", text)
        assert mass_or_refusal(oracles.fraction_mass, f) == ("refused", text)


def _reference_canon(j, poles):
    """u^j prod (1+au)^-k over the (a, k) of poles as canonical {(j, a, k):
    Fraction}, by the two identities of the normal form in plain Fractions:
    1 = (b (1+au) - a (1+bu)) / (b - a) and u = ((1+au) - 1) / a."""
    poles = {a: k for a, k in poles.items() if k}
    if not poles:
        return {(j, 0, 0): Fraction(1)}
    out = {}
    if len(poles) > 1:
        (a, k), (b, q) = sorted(poles.items())[:2]
        parts = ((Fraction(b, b - a), j, {**poles, a: k - 1}),
                 (Fraction(-a, b - a), j, {**poles, b: q - 1}))
    elif j:
        ((a, k),) = poles.items()
        parts = ((Fraction(1, a), j - 1, {a: k - 1}), (Fraction(-1, a), j - 1, {a: k}))
    else:
        ((a, k),) = poles.items()
        return {(0, a, k): Fraction(1)}
    for w, jj, pp in parts:
        for key, v in _reference_canon(jj, pp).items():
            out[key] = out.get(key, 0) + w * v
    return out


def _reference_terms(acc):
    return tuple(sorted((key, Fraction(c)) for key, c in acc.items() if c))


def _reference_product(f, g):
    acc = {}
    for (b1, j1, a1, k1), c1 in f.terms:
        for (b2, j2, a2, k2), c2 in g.terms:
            poles = {a1: k1}
            poles[a2] = poles.get(a2, 0) + k2
            for (j, a, k), w in _reference_canon(j1 + j2, poles).items():
                key = (b1 or b2, j, a, k)
                acc[key] = acc.get(key, 0) + Fraction(c1) * Fraction(c2) * w
    return _reference_terms(acc)


@st.composite
def normal_forms(draw, bases, logs):
    """Canonical sums with integral and fractional weights over the pole
    bases, and with log(1+bu) factors for b in logs."""
    weight = st.one_of(st.integers(-6, 6).map(Fraction),
                       st.fractions(min_value=-6, max_value=6, max_denominator=9))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        b = draw(st.sampled_from((0,) + logs))
        if draw(st.booleans()):
            key = (b, draw(st.integers(0, 3)), 0, 0)
        else:
            key = (b, 0, draw(st.sampled_from(bases)), draw(st.integers(1, 3)))
        terms[key] = draw(weight)
    return Radial(terms)


class TestIntegralWeights:
    """Sums, products and wedges hold integral weights as int, and equal the
    Fraction-only reference in terms and text, and in hash as a normal form."""

    @staticmethod
    def check(got, want):
        assert got.terms == want
        assert hash(got) == hash(Radial(want))  # equal normal forms hash equally
        text = " + ".join(radial._term_str(key, c) for key, c in want) or "0"
        assert str(got) == text.replace("+ -", "- ")
        for _, c in got.terms:
            assert type(c) is (int if c.denominator == 1 else Fraction), got.terms

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9), c=st.fractions(-4, 4, max_denominator=3))
    def test_against_fraction_reference(self, data, n, c):
        bases = (1, 2, n + 1)
        f = data.draw(normal_forms(bases, (1, n + 1)))
        g = data.draw(normal_forms(bases, ()))
        const = Radial({(0, 0, 0, 0): c})  # a one-term constant factor
        for x, y in ((f, g), (g, f), (f, const), (const, f), (g, g)):
            self.check(x * y, _reference_product(x, y))
            acc = {}
            for key, w in x.terms + y.terms:
                acc[key] = acc.get(key, 0) + Fraction(w)
            self.check(x + y, _reference_terms(acc))
        self.check(f * c, _reference_product(f, const))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9))
    def test_wedge_against_fraction_reference(self, data, n):
        # both products of fx * gphi + fphi * gx are summed in one map
        bases, logs = (1, 2, n + 1), (1, n + 1)
        f, g = (forms.Form11(n, data.draw(normal_forms(bases, logs)),
                             data.draw(normal_forms(bases, ()))) for _ in range(2))
        acc = {}
        for key, w in _reference_product(f.fx, g.fphi) + _reference_product(f.fphi, g.fx):
            acc[key] = acc.get(key, 0) + w
        self.check(forms.wedge(f, g).g, _reference_terms(acc))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9), c=st.fractions(-4, 4, max_denominator=3))
    def test_term_against_fraction_reference(self, data, n, c):
        # u^j (1+au)^-k with j, k >= 1: the power of u divided out alone
        j, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        a, b = data.draw(st.sampled_from((1, 2, n + 1))), data.draw(st.sampled_from((0, 1, n + 1)))
        want = {(b,) + key: c * w for key, w in _reference_canon(j, {a: k}).items()}
        self.check(Radial.term(c, j, a, k, b), _reference_terms(want))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9))
    def test_derivative_against_fraction_reference(self, data, n):
        # the product rule, with d log(1+bu) = b (1+bu)^-1 split by the reference
        bases, logs = (1, 2, n + 1), (1, n + 1)
        f = data.draw(normal_forms(bases, logs)) + data.draw(normal_forms(bases, logs))
        f = f + Radial.term(data.draw(st.integers(1, 6)), a=data.draw(st.sampled_from(bases)),
                            k=data.draw(st.integers(1, 3)), b=data.draw(st.sampled_from(logs)))
        acc = {}
        for (b, j, a, k), c in f.terms:
            c = Fraction(c)
            if k:
                acc[(b, 0, a, k + 1)] = acc.get((b, 0, a, k + 1), 0) - k * a * c
            elif j:
                acc[(b, j - 1, 0, 0)] = acc.get((b, j - 1, 0, 0), 0) + j * c
            if b:
                poles = {a: k}
                poles[b] = poles.get(b, 0) + 1
                for key, w in _reference_canon(j, poles).items():
                    acc[(0,) + key] = acc.get((0,) + key, 0) + b * c * w
        self.check(f.derivative(), _reference_terms(acc))


def assert_canonical(f: Radial) -> None:
    """Sorted, unique, canonical keys and reduced integer triples, which the
    constructor rebuilds from the terms view."""
    keys = [key for key, _, _ in f.triples]
    assert keys == sorted(set(keys)), f.triples
    for (b, j, a, k), p, d in f.triples:
        assert all(type(x) is int for x in (b, j, a, k, p, d)), f.triples
        assert b >= 0 and (a == k == 0 <= j or j == 0 and a >= 1 and k >= 1), f.triples
        assert p != 0 and d > 0 and math.gcd(p, d) == 1, f.triples
    assert Radial(f.terms) == f


class TestTriples:
    """Every operation builds its normal form as reduced triples."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9), q=st.fractions(-6, 6, max_denominator=9))
    def test_every_built_normal_form_is_canonical(self, data, n, q):
        bases, logs = (1, 2, n + 1), (1, n + 1)
        f, g = data.draw(normal_forms(bases, logs)), data.draw(normal_forms(bases, ()))
        j, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        a, b = data.draw(st.sampled_from(bases)), data.draw(st.sampled_from((0,) + logs))
        term = Radial.term(q, j, a, k, b)
        h = forms.Form11(n, g, f)
        for r in (f, g, term, f + g, f - g, f - f, -f, f * g, g * f, f * q, q * g, g * term,
                  f.derivative(), term.derivative(), radial.linear([(q, f), (-q, f), (1, g)]),
                  forms.wedge(h, h).g):
            assert_canonical(r)


class TestLinearArithmetic:
    """+, binary and unary -, scalar * and linear sum integer pairs; each
    equals the Fraction-dict oracle term for term: the same keys in the same
    order, no zero weight, and integral weights held as int."""

    @staticmethod
    def typed(f: Radial) -> list:
        return [(key, type(c), c) for key, c in f.terms]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**9), k=st.integers(-7, 7),
           q=st.fractions(-6, 6, max_denominator=9))
    def test_against_the_fraction_oracle(self, data, n, k, q):
        bases, logs = (1, 2, n + 1), (1, n + 1)
        f, g = (data.draw(normal_forms(bases, logs)) for _ in range(2))
        half = Fraction(1, 2)
        cases = [(f + g, [(1, f), (1, g)]), (f - g, [(1, f), (-1, g)]),
                 (f - f, [(1, f), (-1, f)]), (-f, [(-1, f)]),
                 (f * half + f * half, [(half, f), (half, f)])]
        for s in (0, 1, -1, k, q):
            cases += [(f * s, [(s, f)]), (s * f, [(s, f)])]
        pairs = [(q, f), (k, g), (-q, f), (half, g)]
        cases += [(radial.linear(pairs), pairs), (radial.linear([]), [])]
        for got, pairs in cases:
            assert self.typed(got) == self.typed(oracles.fraction_linear(pairs)), pairs


# ---------------------------------------------------------------------------
# The QAGS port against scipy's quad, the test oracle
# ---------------------------------------------------------------------------

# scipy's quad names its flag ier by the start of its message
SCIPY_FLAGS = {"The maximum number of subdivisions": 1,
               "The occurrence of roundoff error": 2,
               "Extremely bad integrand behavior": 3,
               "The algorithm does not converge": 4,
               "The integral is probably divergent": 5}


def panel(g):
    """The panel function of a scalar g."""
    return lambda ts: [g(t) for t in ts]


def scipy_qags(g, a, b, epsabs, limit):
    """scipy's quad of the panel function g, one node a panel, as (value,
    abserr, neval, ier, last) and its message up to the first comma or full
    stop."""
    from scipy import integrate

    out = integrate.quad(lambda t: g([t])[0], a, b, epsabs=epsabs, epsrel=1e-13, limit=limit,
                         full_output=1)
    reason = " ".join(out[3].split()).split(",")[0].split(".")[0] if len(out) > 3 else ""
    ier = next((i for start, i in SCIPY_FLAGS.items() if reason.startswith(start)), 0)
    return (out[0], out[1], out[2]["neval"], ier, out[2]["last"]), reason


def assert_qags_matches_scipy(g, a=0.0, b=1.0, epsabs=5e-11, limit=50) -> int:
    """On the panel function g, the port's five results equal scipy's bit
    for bit, and its reason text (which names the limit) is scipy's; returns
    ier."""
    got = quadrature._dqagse(g, a, b, epsabs, 1e-13, limit)
    want, reason = scipy_qags(g, a, b, epsabs, limit)
    assert got == want
    assert quadrature._QAGS_REASONS[got[3]].replace("(50)", f"({limit})") == reason
    return got[3]


def route3_integrands(n, monkeypatch):
    """The compactified integrand and first name of every normal form that
    route 3 integrates at n under Gauss-Kronrod (named integrals, L2 checks,
    both route checks), keyed by the normal form."""
    seen = {}
    compactified = radial._compactified

    def record(f, name=""):
        g = compactified(f, name)
        seen.setdefault(f, (g, name))
        return g

    with monkeypatch.context() as m:
        m.setattr(radial, "_compactified", record)
        m.setattr(quadrature, "gauss_kronrod", lambda g, target: (0.0, 0.0, ""))
        torsion.named_integrals(n, CFG)
        torsion.hodge_l2_checks(n, CFG)
        torsion.route_checks(n, CFG)
    return seen


class TestQagsMatchesScipy:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 57, 58, 100, 266, 300, 400, 1000, 10**6])
    def test_route3_integrands(self, n, monkeypatch):
        # each distinct integrand of route 3, where many coincide at n = 0;
        # the mixed star pair's density is decided exactly, not integrated
        seen = route3_integrands(n, monkeypatch)
        assert len(seen) == (5 if n == 0 else 16)
        for g, name in seen.values():
            for target in (1e-6, 1e-10, 1e-13):
                assert_qags_matches_scipy(g, epsabs=target * 0.5), (name, target)

    @pytest.mark.parametrize("g,a,b,epsabs,limit,ier", [
        (lambda t: math.sin(1.0 / t) if t else 0.0, 0.0, 1.0, 5e-11, 50, 1),
        (lambda t: math.sin(1.0 / t) if t else 0.0, -1.0, 1.0, 5e-16, 20, 2),
        (lambda t: 1.0 if t > 1e15 + 3.3 else 0.0, 1e15, 1e15 + 8.0, 5e-11, 20, 3),
        (lambda t: 1.0 / ((t - 0.5) ** 2 + 1e-12), -1.0, 1.0, 5e-11, 50, 4),
        (lambda t: math.cos(1000.0 * t * t), 0.0, 1.0, 5e-11, 30, 5),
        (lambda t: math.log(t) if t else 0.0, 0.0, 1.0, 5e-11, 50, 0),
        (lambda t: 0.0, 0.0, 1.0, 5e-11, 50, 0),
    ], ids=["limit", "roundoff", "bad_point", "extrapolation", "divergent",
            "extrapolated", "zero"])
    def test_hostile_integrands(self, g, a, b, epsabs, limit, ier):
        assert assert_qags_matches_scipy(panel(g), a, b, epsabs, limit) == ier

    @pytest.mark.parametrize("limit", [1, 2, 3, 7, 20])
    def test_small_limits(self, limit):
        for g in (lambda t: math.sin(1.0 / t) if t else 0.0,
                  lambda t: 1.0 / math.sqrt(t) if t else 0.0):
            assert_qags_matches_scipy(panel(g), limit=limit)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 10**6),
           target=st.sampled_from((1e-6, 1e-10, 1e-13)))
    def test_catalog_normal_forms(self, data, n, target):
        f = data.draw(integrands(n))
        assert_qags_matches_scipy(radial._compactified(f), epsabs=target * 0.5)
