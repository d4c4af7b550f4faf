"""Ring engine: rewriting, products, pushforwards, characteristic pipelines."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hirzebruch_torsion import chow, forms, torsion
from hirzebruch_torsion.chow import (
    BASE,
    SURFACE,
    ChowClass,
    IncompleteReduction,
    PipelineInconsistency,
    a_class,
    add,
    arithmetic_chern_classes,
    euler_sequence_chern,
    gen_alpha,
    gen_x,
    mul,
    pushforward_base,
    pushforward_deg,
    reduce,
    scale,
    segre_classes,
    sub,
    top_slots,
    torsion_form,
    unit,
    zero_class,
)
from hirzebruch_torsion.constants import (LOG_PI, ONE, ZETA_M1, ZETA_PRIME_M1, ExactConstant,
                                          NonRationalProduct, log_2pi, log_prime_atom,
                                          log_rational)
from hirzebruch_torsion.radial import (
    RADIAL_ONE,
    DomainError,
    QuadratureConfig,
    Radial,
    integrate_halfline,
)

import oracles

CFG = QuadratureConfig()


def ec(x):
    return ExactConstant.rational(x)


def quadrature_degree(c, cfg=CFG):
    """Half the numerically integrated mass of a top-degree class, folded
    left to right over its top slots."""
    total = 0.0
    for (_, atom), form in top_slots(c):
        total += atom.value() * integrate_halfline(form.g, cfg)
    return 0.5 * total


class TestReduce:
    def test_x_squared_on_base(self):
        c = ChowClass(0, BASE, {(2, 0): ec(1)})
        r = reduce(c)
        assert not r.poly
        assert len(r.analytic) == 1
        coeff, form = r.analytic[0]
        assert coeff == ec(1) and form.total_integral == 1
        assert pushforward_deg(c) == ec(Fraction(1, 2))

    def test_x_cubed_vanishes_on_base(self):
        c = ChowClass(0, BASE, {(3, 0): ec(1)})
        assert reduce(c).is_zero
        assert c.is_zero

    def test_a_class_equals_its_normal_form(self):
        c = ChowClass(2, SURFACE, {(0, 2): ec(1)})
        assert c == reduce(c)
        assert c != reduce(ChowClass(2, SURFACE, {(1, 1): ec(1)}))

    def test_alpha_x_squared_degree(self):
        n = 4
        c = ChowClass(n, SURFACE, {(2, 1): ec(1)})
        assert pushforward_deg(c) == ec(Fraction(1, 2))

    def test_alpha_squared_x_reduces_to_analytic(self):
        for n in (0, 1, 3, 7):
            c = ChowClass(n, SURFACE, {(1, 2): ec(1)})
            r = reduce(c)
            assert not r.poly
            assert pushforward_deg(c) == ec(Fraction(n + 3, 2))

    def test_idempotence_100_random_classes(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.choice([0, 1, 2, 5])
            poly = {(rng.randint(0, 2), rng.randint(0, 2)):
                    ec(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                    for _ in range(rng.randint(0, 3))}
            poly = {m: c for m, c in poly.items() if sum(m) <= 3}
            analytic = []
            if rng.random() < 0.6:
                analytic.append((log_2pi().scale(rng.randint(-3, 3)), RADIAL_ONE))
            if rng.random() < 0.6:
                analytic.append((ec(rng.randint(-3, 3)), forms.alpha_form(n)))
            if rng.random() < 0.4:
                analytic.append((ec(rng.randint(-3, 3)),
                                 forms.wedge(forms.alpha_form(n), forms.alpha_form(n))))
            c = ChowClass(n, SURFACE, poly, analytic)
            once = reduce(c)
            assert reduce(once) == once

    def test_a_normal_form_is_returned_as_it_is(self):
        n = 3
        c = ChowClass(n, SURFACE, {(1, 1): ec(2), (0, 1): ec(-1), (1, 0): ec(5)},
                      [(log_2pi(), RADIAL_ONE), (ec(1), forms.alpha_form(n))])
        trace = []
        assert reduce(c, trace) is c
        assert trace == []
        line = ChowClass(n, BASE, {(1, 0): ec(1)}, [(ec(1), chow.base_top_form(n))])
        assert reduce(line, trace) is line
        assert trace == []

    def test_trace_records_rewrites(self):
        trace = []
        reduce(ChowClass(2, SURFACE, {(1, 2): ec(1)}), trace)
        rules = {t["rule"] for t in trace}
        assert "alpha_square" in rules and "x_square" in rules
        for t in trace:
            assert set(t) == {"rule", "before", "after"}
        json.dumps(trace)  # serializable for the audit stream


class TestMul:
    def test_x_times_a_x_vanishes_on_base(self):
        n = 0
        x = gen_x(n, BASE)
        ax = a_class(n, 1, chow.base_top_form(n), BASE)
        assert mul(x, ax).is_zero

    def test_alpha_times_a_x(self):
        n = 2
        out = mul(gen_alpha(n), a_class(n, 1, forms.base_form(n)))
        assert not out.poly
        assert len(out.analytic) == 1
        coeff, form = out.analytic[0]
        assert coeff == ec(1)
        assert form.total_integral == 1  # alpha ^ base has unit mass

    def test_constant_weight_passes_through(self):
        n = 1
        out = mul(a_class(n, log_2pi(), RADIAL_ONE), gen_alpha(n))
        assert len(out.analytic) == 1
        coeff, form = out.analytic[0]
        assert coeff == log_2pi()
        assert form == forms.alpha_form(n)

    def test_ddc_is_taken_once_per_form(self, monkeypatch):
        n = 2
        calls = []
        ddc = forms.ddc
        monkeypatch.setattr(forms, "ddc", lambda h, m: calls.append(h) or ddc(h, m))
        a = a_class(n, 1, forms.log_R(n))
        b = ChowClass(n, SURFACE, analytic=[(ec(1), forms.log_R(n)),
                                            (log_rational(3), Radial.term(a=1, k=1))])
        assert not mul(a, b).is_zero
        assert len(calls) == 3  # one per 0-form of a and b, not two per pair

    def test_a_square_equals_the_product_of_equal_classes(self, monkeypatch):
        for n in (0, 1, 7):
            cc = arithmetic_chern_classes(n)
            for c in (*cc[1:], ChowClass(n, SURFACE, {(0, 2): ec(1), (1, 0): ec(3)},
                                         [(ec(1), forms.log_R(n))])):
                twin = ChowClass(n, SURFACE, c.poly, c.analytic)
                assert twin is not c and twin == c
                assert mul(c, c) == mul(c, twin)
        # a square takes dd^c once per 0-form, and none of a constant
        calls = []
        ddc = forms.ddc
        monkeypatch.setattr(forms, "ddc", lambda h, m: calls.append(h) or ddc(h, m))
        c = ChowClass(2, SURFACE, analytic=[(ec(1), forms.log_R(2)), (log_2pi(), RADIAL_ONE)])
        assert not mul(c, c).is_zero
        assert calls == [forms.log_R(2)]

    def test_commutative_on_catalog_classes(self):
        rng = random.Random(23)
        n = 2
        pool = [
            gen_x(n), gen_alpha(n), unit(n),
            a_class(n, log_2pi(), RADIAL_ONE),
            a_class(n, ec(3), forms.alpha_form(n)),
            a_class(n, ec(-2), forms.log_R(n)),
            a_class(n, ec(1), forms.ratio_R(n)),
            arithmetic_chern_classes(n).c1_tangent,
        ]
        for _ in range(40):
            a, b = rng.choice(pool), rng.choice(pool)
            assert mul(a, b) == mul(b, a)

    def test_associative_when_curvatures_are_cataloged(self):
        rng = random.Random(29)
        n = 3
        pool = [
            gen_x(n), gen_alpha(n),
            add(gen_x(n), a_class(n, log_2pi(), RADIAL_ONE)),
            add(scale(2, gen_alpha(n)), scale(-n, gen_x(n))),
        ]
        for _ in range(25):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_products_above_the_top_degree_vanish(self):
        n = 1
        quad = ChowClass(n, SURFACE, {(2, 2): ec(1)})
        assert mul(quad, gen_x(n)).is_zero
        x, x_sq = gen_x(n, BASE), ChowClass(n, BASE, {(2, 0): ec(1)})
        assert mul(x_sq, x).is_zero
        assert mul(x_sq, x_sq).is_zero


RULING_INDICES = [0, 1, 7, 57, 10**6, 10**9]


def in_degrees(c, degrees):
    """The sum of the degree parts of c in the given degrees."""
    out = zero_class(c.n, c.variety)
    for k in degrees:
        out = add(out, c.degree_part(k))
    return out


@st.composite
def mixed_classes(draw, n, transcendental=False, transcendental_poly=False):
    """A surface class with monomials of degree 0 to 3 and analytic terms of
    every degree, not necessarily in normal form; its analytic terms carry
    log 2pi when transcendental, and its monomials log 3 or log 2pi when
    transcendental_poly (the span is linear in such atoms, so only one
    factor of a product may)."""
    al = forms.alpha_form(n)
    pool = [RADIAL_ONE, forms.log_R(n), forms.ratio_R(n), al,
            forms.bott_chern_c2(n), forms.wedge(al, forms.base_form(n))]
    coeffs = st.fractions(-6, 6, max_denominator=4).map(ec)
    monos = st.sampled_from([(i, j) for i in range(4) for j in range(4) if i + j <= 3])
    poly_coeffs = coeffs
    if transcendental_poly:
        logs = st.builds(lambda q, c: c.scale(q), st.fractions(-6, 6, max_denominator=4),
                         st.sampled_from([log_rational(3), log_2pi()]))
        poly_coeffs = st.one_of(coeffs, logs)
    poly = draw(st.dictionaries(monos, poly_coeffs, max_size=4))
    if transcendental:
        coeffs = st.one_of(coeffs, st.just(log_2pi()))
    analytic = draw(st.lists(st.tuples(coeffs, st.sampled_from(pool)), max_size=4))
    return ChowClass(n, SURFACE, poly, analytic)


class TestMulInDegrees:
    @pytest.mark.parametrize("n", RULING_INDICES)
    def test_twist_products_in_degrees_one_and_three(self, n):
        # the two products of the direct route: Td e^-c1 and Td (c1 c2 / 2 - c2)
        cc = arithmetic_chern_classes(n)
        td_pieces, (_, _, exp_pieces) = oracles.graded_todd_and_characters(n)
        td, exp_minus_c1 = (add(add(p[0], p[1]), add(p[2], p[3]))
                            for p in (td_pieces, exp_pieces))
        middle = sub(scale(Fraction(1, 2), mul(cc.c1_tangent, cc.c2_tangent)), cc.c2_tangent)
        for factor in (exp_minus_c1, middle):
            assert mul(td, factor, degrees=(1, 3)) == in_degrees(mul(td, factor), (1, 3))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.sampled_from(RULING_INDICES),
           degrees=st.sets(st.integers(0, 3)))
    def test_mixed_degree_pairs(self, data, n, degrees):
        a, b = data.draw(mixed_classes(n, transcendental=True)), data.draw(mixed_classes(n))
        assert mul(a, b, degrees=degrees) == in_degrees(mul(a, b), degrees)
        assert mul(a, b, degrees=(1, 3)) == in_degrees(mul(a, b), (1, 3))


@st.composite
def chern_factors(draw):
    """Two of c1, c2, the Todd class and e^-c1 of the tangent bundle of S_n,
    for a random n <= 10^9."""
    cc = arithmetic_chern_classes(draw(st.integers(0, 10**9)))
    c1, c2 = cc.c1_tangent, cc.c2_tangent
    c1sq = mul(c1, c1)
    one, half = unit(cc.n), Fraction(1, 2)
    td = add(add(one, scale(half, c1)), add(scale(Fraction(1, 12), add(c1sq, c2)),
                                           scale(Fraction(1, 24), mul(c1, c2))))
    exp_minus_c1 = add(sub(one, c1), sub(scale(half, c1sq), scale(Fraction(1, 6), mul(c1sq, c1))))
    pool = (c1, c2, td, exp_minus_c1)
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


class TestMulSlots:
    """chow.mul sums every product of a slot in one map of integer pairs; it
    must give, slot by slot, the forms of the products formed one at a time."""

    @staticmethod
    def check(got, want):
        assert got.poly == want.poly
        assert got.forms == want.forms
        assert list(got.forms) == list(want.forms)

    @settings(max_examples=12, deadline=None)
    @given(pair=chern_factors())
    def test_all_degrees(self, pair):
        a, b = pair
        self.check(mul(a, b), oracles.mul(a, b))

    @settings(max_examples=12, deadline=None)
    @given(pair=chern_factors())
    def test_degrees_one_and_three(self, pair):
        a, b = pair
        self.check(mul(a, b, degrees=(1, 3)), oracles.mul(a, b, degrees=(1, 3)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.sampled_from(RULING_INDICES),
           degrees=st.sampled_from([None, (1, 3), (2,)]))
    def test_transcendental_monomials(self, data, n, degrees):
        # each monomial's image is wedged with the rational weight of each
        # atom of its coefficient
        a = data.draw(mixed_classes(n, transcendental=True, transcendental_poly=True))
        b = data.draw(mixed_classes(n))
        self.check(mul(a, b, degrees), oracles.mul(a, b, degrees))
        self.check(mul(b, a, degrees), oracles.mul(b, a, degrees))

    @pytest.mark.parametrize("n", [0, 3])
    def test_two_transcendental_factors_of_a_vanishing_form(self, n):
        log3_x = ChowClass(n, SURFACE, {(1, 0): log_rational(3)})
        base = a_class(n, log_2pi(), forms.base_form(n))  # base ^ base = 0
        assert mul(log3_x, base).is_zero and mul(base, log3_x).is_zero
        # a constant 0-form has no dd^c, and two 0-forms need both
        constant, log_r = a_class(n, log_2pi(), RADIAL_ONE), forms.log_R(n)
        assert mul(constant, a_class(n, log_rational(3), log_r)).is_zero

    @pytest.mark.parametrize("n", [0, 3])
    def test_two_transcendental_factors_of_a_nonzero_form(self, n):
        log3_x = ChowClass(n, SURFACE, {(1, 0): log_rational(3)})
        with pytest.raises(NonRationalProduct):
            mul(log3_x, a_class(n, log_2pi(), forms.alpha_form(n)))
        with pytest.raises(NonRationalProduct):
            mul(a_class(n, log_2pi(), forms.omega_form(n)), log3_x)
        with pytest.raises(NonRationalProduct):  # a(log 2) x = a(log 2 base)
            mul(a_class(n, log_rational(2), RADIAL_ONE), log3_x)
        if n:  # log R and its dd^c vanish at n = 0
            log_r = forms.log_R(n)
            with pytest.raises(NonRationalProduct):
                mul(a_class(n, log_2pi(), log_r), a_class(n, log_rational(3), log_r))


def linear_inputs(n):
    """The (q, class) pairs of the direct route's linear combinations at n:
    the Todd class, e^-c1, the middle twist's factor and the middle twist."""
    cc = arithmetic_chern_classes(n)
    c1, c2 = cc.c1_tangent, cc.c2_tangent
    c1sq = mul(c1, c1)
    c13, c1c2, one = mul(c1sq, c1), mul(c1, c2), unit(n)
    half, twelfth = Fraction(1, 2), Fraction(1, 12)
    td = [(1, one), (half, c1), (twelfth, c1sq), (twelfth, c2), (Fraction(1, 24), c1c2)]
    exp_minus_c1 = [(1, one), (-1, c1), (half, c1sq), (Fraction(-1, 6), c13)]
    factor = [(half, c1c2), (-1, c2)]
    td_class = chow.linear(td)
    top = mul(td_class, chow.linear(exp_minus_c1), degrees=(1, 3))
    twist = mul(td_class, chow.linear(factor), degrees=(1, 3))
    return [td, exp_minus_c1, factor, [(1, td_class), (1, top), (1, twist)]]


class TestLinear:
    """chow.linear sums each slot once; it must give the class that the
    scale-and-add fold gave, in its slot and monomial order."""

    @staticmethod
    def check(pairs):
        got, want = chow.linear(pairs), oracles.linear_by_chain(pairs)
        assert (got.n, got.variety) == (want.n, want.variety)
        assert got.poly == want.poly and list(got.poly) == list(want.poly)
        assert got.forms == want.forms and list(got.forms) == list(want.forms)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 400, 10**6])
    def test_direct_route_inputs(self, n):
        for pairs in linear_inputs(n):
            self.check(pairs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.sampled_from(RULING_INDICES))
    def test_mixed_classes(self, data, n):
        qs = st.one_of(st.just(1), st.fractions(-6, 6, max_denominator=4))
        pairs = data.draw(st.lists(st.tuples(qs, mixed_classes(n, transcendental=True,
                                                              transcendental_poly=True)),
                                   min_size=1, max_size=5))
        self.check(pairs)

    def test_a_slot_filled_once_keeps_its_form(self):
        n = 3
        a = a_class(n, 1, forms.alpha_form(n))
        b = a_class(n, log_2pi(), forms.bott_chern_c2(n))
        got = chow.linear([(1, a), (2, b)])
        assert got.forms[(2, ONE)] is a.forms[(2, ONE)]
        assert got.forms[(2, LOG_PI)] == Fraction(2) * b.forms[(2, LOG_PI)]

    def test_incompatible_classes_are_refused(self):
        with pytest.raises(chow.ChowError, match="incompatible classes"):
            chow.linear([(1, unit(1)), (1, unit(2))])
        with pytest.raises(chow.ChowError, match="incompatible classes"):
            chow.linear([(1, unit(1)), (1, unit(1, BASE))])


class TestRingBasis:
    """The ring keys its slots by the constants the pipelines attach forms
    to: log 2pi under LOG_PI and R1 = 2 zeta'(-1) + zeta(-1) under
    ZETA_PRIME_M1; a class still gives back the constants it was made of."""

    ATOMS = [ONE, LOG_PI, log_prime_atom(2), log_prime_atom(3), ZETA_PRIME_M1, ZETA_M1]

    @staticmethod
    def pool(n):
        al = forms.alpha_form(n)
        return [RADIAL_ONE, forms.log_R(n), forms.ratio_R(n), al, forms.bott_chern_c2(n),
                forms.wedge(al, forms.base_form(n))]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([0, 1, 7, 10**6]))
    def test_round_trip(self, data, n):
        qs = data.draw(st.lists(st.fractions(-6, 6, max_denominator=4),
                                min_size=len(self.ATOMS), max_size=len(self.ATOMS)))
        c = ExactConstant(dict(zip(self.ATOMS, qs)))
        form = data.draw(st.sampled_from(self.pool(n)))
        got = ChowClass(n, SURFACE, analytic=[(c, form)]).analytic
        assert oracles.per_atom_forms(got) == oracles.per_atom_forms([(c, form)])

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_one_slot_per_constant(self, n):
        al = forms.alpha_form(n)
        for const, key in ((log_2pi(), LOG_PI), (chow.R_GENUS_DEGREE1, ZETA_PRIME_M1)):
            c = ChowClass(n, SURFACE, analytic=[
                (const, RADIAL_ONE), (const.scale(3), al),
                (const, forms.wedge(al, forms.base_form(n)))])
            assert list(c.forms) == [(1, key), (2, key), (3, key)]
        s = torsion.Surface(n)
        assert [key for _, key in s.chern_classes.c1_tangent.forms] == [ONE, LOG_PI][n == 0:]
        assert [key for _, key in s.c1c2.forms] == [ONE, LOG_PI]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 57, 400, 10**6])
    def test_top_slots_are_the_prime_atom_items(self, n):
        c1c2 = torsion.Surface(n).c1c2
        got, want = list(top_slots(c1c2)), oracles.prime_top_slots(c1c2)
        assert [slot for slot, _ in got] == [slot for slot, _ in want]
        assert got == want
        total = ExactConstant.zero()
        for (_, atom), form in want:
            total = total + ExactConstant.atom(atom) * form.total_integral
        assert pushforward_deg(c1c2) == total.scale(Fraction(1, 2))


class TestPushforwardDeg:
    def test_masses_are_derived(self):
        # every top form carries its exact mass; one outside the constant
        # span (a simple pole times log R needs a dilogarithm) is refused
        n = 2
        unit_mass = forms.Form22(n, forms.B)
        assert pushforward_deg(a_class(n, 1, unit_mass)) == ec(Fraction(1, 2))
        dilog = forms.Form22(n, forms.log_R(n) * Radial.term(a=1, k=1)
                             * Radial.term(a=n + 1, k=1))
        with pytest.raises(DomainError):
            pushforward_deg(a_class(n, 1, dilog))

    def test_rejects_mixed_degrees(self):
        n = 1
        for degree_map in (pushforward_deg, top_slots):
            with pytest.raises(chow.ChowError):
                degree_map(add(gen_x(n), ChowClass(n, SURFACE, {(1, 2): ec(1)})))

    def test_numeric_route_matches_exact(self):
        n = 3
        c = ChowClass(n, SURFACE, {(1, 2): ec(8), (2, 1): ec(-8 * (n + 1))})
        exact = pushforward_deg(c)
        assert quadrature_degree(c) == pytest.approx(exact.to_float(), abs=1e-9)

    def test_numeric_route_integrates_each_form_once(self, monkeypatch):
        # c1*c2 carries one top form under two atoms, and one more form; the
        # c1*c2 row integrates each through the record once
        n = 3
        s = torsion.Surface(n)
        c1c2 = s.c1c2
        tops = [form for _, form in top_slots(c1c2)]
        calls = []
        integrate = torsion.integrate_halfline
        monkeypatch.setattr(torsion, "integrate_halfline",
                            lambda f, cfg, name="": calls.append(f) or integrate(f, cfg, name))
        value = torsion._degree_by_quadrature(s, "c1c2_product_quadrature", c1c2, CFG)
        assert len(tops) == 3 and len(set(tops)) == len(calls) == 2
        assert value == pytest.approx(pushforward_deg(c1c2).to_float(), abs=1e-9)


class TestScale:
    def test_rational_scalars(self):
        n = 2
        c = add(gen_x(n), a_class(n, log_2pi(), forms.alpha_form(n)))
        assert scale(Fraction(3, 2), c) == scale(ec(Fraction(3, 2)), c)
        assert sub(scale(3, c), c) == add(c, c)
        assert scale(0, c).is_zero

    def test_a_transcendental_scalar_is_refused_by_name(self):
        # scaling atom by atom would move each analytic slot to other atoms;
        # the constant is named, and nothing is dropped silently
        n = 2
        c = add(gen_x(n), a_class(n, 1, forms.alpha_form(n)))
        for q in (log_2pi(), ec(1) + log_rational(n + 1)):
            with pytest.raises(chow.ChowError, match="rational scalar") as info:
                scale(q, c)
            assert str(q) in str(info.value)


class TestPushforwardBase:
    def test_todd_degree_one_projects_to_unit(self):
        n = 2
        c = add(add(gen_alpha(n), scale(Fraction(-(n + 2), 2), gen_x(n))),
                a_class(n, log_2pi().scale(Fraction(1, 2)), RADIAL_ONE))
        out = pushforward_base(c)
        assert out == unit(n, BASE)

    def test_alpha_x_projects_to_x(self):
        n = 1
        out = pushforward_base(ChowClass(n, SURFACE, {(1, 1): ec(5)}))
        assert out == scale(5, gen_x(n, BASE))

    def test_form_terms_use_fiber_masses(self):
        n = 3
        out = pushforward_base(a_class(n, ec(7), forms.alpha_form(n)))
        assert len(out.analytic) == 1
        coeff, form = out.analytic[0]
        assert coeff == ec(7) and form.const_value == 1


class TestOmegaCompatibility:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_degree2_relation_images_agree(self, n):
        lhs = sub(ChowClass(n, SURFACE, {(0, 2): ec(1)}),
                  scale(n + 2, ChowClass(n, SURFACE, {(1, 1): ec(1)})))
        rhs = a_class(n, 1, forms.degree2_relation_rhs(n))
        lhs_forms = oracles.omega_image(lhs)
        rhs_forms = oracles.omega_image(rhs)

        def eval_22(terms, u):
            total = 0.0
            for coeff, form in terms:
                total += coeff.to_float() * form.g(u)
            return total

        for u in (0.05, 0.5, 1.0, 3.0, 40.0):
            assert eval_22(lhs_forms, u) == pytest.approx(eval_22(rhs_forms, u),
                                                          abs=1e-12)


class TestChernClasses:
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_polynomial_parts(self, n):
        cc = arithmetic_chern_classes(n)
        def nonzero(d):
            return {m: ec(c) for m, c in d.items() if c}
        assert cc.c1_tangent.poly == nonzero({(0, 1): 2, (1, 0): -n})
        # c2 is derived as a ring product, so it is in normal form: the typed
        # class's -2(n+2) x^2 is there the analytic term a(-2(n+2) base form)
        assert cc.c2_tangent.poly == nonzero({(1, 1): 4})
        assert cc.c2_tangent == reduce(oracles.c2_tangent(n))
        assert cc.c1_relative.poly == nonzero({(0, 1): 2, (1, 0): -(n + 2)})

    @pytest.mark.parametrize("n", [0, 2])
    def test_relative_class_at_split_value(self, n):
        cc = arithmetic_chern_classes(n)
        analytic = dict((form, coeff) for coeff, form in cc.c1_relative.analytic)
        assert analytic[RADIAL_ONE] == log_2pi()

    @pytest.mark.parametrize("n", [1, 3, 10**6, 10**9])
    def test_whitney_product_reproduces_the_tangent_classes(self, n):
        # total class of the two factor bundles, minus the secondary correction,
        # must reproduce the tangent classes degree by degree; each degree also
        # against the typed class, since the package derives c1 as the sum of
        # the factors and c2 as their product minus the secondary class
        cc = arithmetic_chern_classes(n)
        secondary = a_class(n, ec(1), forms.bott_chern_c2(n))
        product = mul(add(unit(n), cc.c1_relative), add(unit(n), cc.c1_base))
        assert product.degree_part(1) == reduce(oracles.c1_tangent(n))
        assert reduce(cc.c1_tangent) == reduce(oracles.c1_tangent(n))
        assert product.degree_part(2) == reduce(add(cc.c2_tangent, secondary))
        assert reduce(cc.c2_tangent) == reduce(oracles.c2_tangent(n))

    def test_euler_sequence_total_class(self):
        n = 3
        c1, c2 = euler_sequence_chern(n)
        assert c1 == scale(n + 2, gen_x(n, BASE))
        r = reduce(c2)
        assert not r.poly and len(r.analytic) == 1
        coeff, form = r.analytic[0]
        assert coeff == ec(n + 1) and form.total_integral == 1


class TestSegreAndHeight:
    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_first_class(self, n):
        s1, _ = segre_classes(n)
        expected = add(scale(n + 2, gen_x(n, BASE)),
                       a_class(n, ec(1), RADIAL_ONE, BASE))
        assert s1 == reduce(expected)

    @pytest.mark.parametrize("n,coeff", [(0, 6), (1, Fraction(23, 2)),
                                         (10, Fraction(302, 2))])
    def test_second_class_coefficient(self, n, coeff):
        _, s2 = segre_classes(n)
        assert not s2.poly
        assert len(s2.analytic) == 1
        got, form = s2.analytic[0]
        assert got == ec(Fraction(2 * n * n + 9 * n + 12, 2))
        assert ec(coeff) == got

    @pytest.mark.parametrize("n", range(0, 21, 4))
    def test_height_routes_agree(self, n):
        direct = pushforward_deg(segre_classes(n)[1])
        cube = pushforward_deg(chow.height_class(n))
        assert direct == cube == ec(Fraction(2 * n * n + 9 * n + 12, 4))

    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_ruling_pushforward_of_tautological_powers(self, n):
        # pushing the squared and cubed tautological class down the ruling
        # must reproduce the two pushforward classes assembled on the base
        s1, s2 = segre_classes(n)
        sq = pushforward_base(ChowClass(n, SURFACE, {(0, 2): ec(1)}))
        cube = pushforward_base(ChowClass(n, SURFACE, {(0, 3): ec(1)}))
        assert sq == s1
        assert cube == s2


class TestC1C2:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_closed_form(self, n):
        got = oracles.c1c2_pushforward(n)
        cc = arithmetic_chern_classes(n)
        assert got == pushforward_deg(mul(cc.c1_tangent, cc.c2_tangent))
        expected = (log_rational(n + 1).scale(n) + ec(-4 * n + 16)
                    + log_2pi().scale(16)).scale(Fraction(1, 2))
        assert got == expected

    def test_split_case_limit(self):
        assert oracles.c1c2_pushforward(0) == (ec(16) + log_2pi().scale(16)).scale(
            Fraction(1, 2))

    def test_example_value_n1(self):
        # (log 2 - 4 + 16 + 16 log 2pi)/2
        got = oracles.c1c2_pushforward(1)
        expected = (log_rational(2) + ec(12) + log_2pi().scale(16)).scale(
            Fraction(1, 2))
        assert got == expected

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_generic_product_quadrature_crosscheck(self, n):
        exact = oracles.c1c2_pushforward(n).to_float()
        cc = arithmetic_chern_classes(n)
        numeric = quadrature_degree(mul(cc.c1_tangent, cc.c2_tangent))
        assert numeric == pytest.approx(exact, abs=1e-8)


class TestTorsionForm:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
    def test_value_is_n_independent(self, n):
        from hirzebruch_torsion.constants import ZETA_M1, ZETA_PRIME_M1
        got = torsion_form(arithmetic_chern_classes(n).c1_relative)
        expected = (ec(1) + log_2pi()).scale(Fraction(1, 3)) \
            - ExactConstant.atom(ZETA_PRIME_M1, 4) - ExactConstant.atom(ZETA_M1, 2)
        assert got == expected

    def test_relative_form_is_built_once(self, monkeypatch):
        calls = []
        c1_rel = forms.c1_rel
        monkeypatch.setattr(forms, "c1_rel", lambda n: calls.append(n) or c1_rel(n))
        torsion_form(arithmetic_chern_classes(3).c1_relative)
        assert calls == [3]

    def test_genus_contribution(self):
        from hirzebruch_torsion.torsion import R_GENUS_DEGREE1
        assert R_GENUS_DEGREE1.scale(2).to_float() == pytest.approx(
            4 * -0.16542114370045093 + 2 * (-1 / 12), rel=1e-12)
