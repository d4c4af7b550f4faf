"""End-to-end pipelines: torsion values, named integrals, reports.

Two independent routes produce the analytic torsion of the ruled surface:

  * the direct route solves, for each twist p, the determinant-line identity
    tau_p = L2_p + 2 deg([Td ch_p]_3) - R1 * mass of omega([Td ch_p]_1 c1):
    the log of the squared L2 covolume of the harmonic generators (the
    volume, a Gram determinant and a top-degree norm, each the exact mass
    of an L2 pairing density), the degree of the degree-3 Todd x
    Chern-character selection, and the
    additive-genus correction, whose mass is that of the curvature image in
    the ring (the base line is the same formula one degree lower), and

  * the fibration route compares the two determinant-line metrics through
    the fibration: the higher torsion form of the ruling plus the secondary
    Todd transgression of the two fibration metrics.

Both land on exact constants and must agree coefficient-by-coefficient;
neither reads a stated closed form (closed_tau, closed_main_value,
closed_tau_p1 and closed_height are the headline identities they are checked
against).  Every named integral's exact mass, derived from its normal form,
is re-derived by half-line quadrature through Surface.quadrature; a report
row records name, exact value, quadrature value, discrepancy and verdict.
The height pipelines live in chow, which the height command loads without
this module; height is bound here by import.  Each check takes n or its
Surface record, and the checks of one n share one record and its quadratures.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from . import chow, forms
from .chow import (
    R_GENUS_DEGREE1,
    ChernClasses,
    ChowClass,
    PipelineInconsistency,
    _rational,
    height,
    height_via_polarization_cube,
)
from .constants import (
    ExactConstant,
    ZETA_M1,
    ZETA_PRIME_M1,
    log_2pi,
    log_rational,
)
from .forms import Form11, Form22
from .radial import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    RADIAL_ONE,
    Radial,
    _fmt,
    integrate_halfline,
)


def _rat(q) -> ExactConstant:
    return ExactConstant.rational(q)


def closed_height(n: int) -> Fraction:
    return Fraction(2 * n * n + 9 * n + 12, 4)


class Surface:
    """What the checks of one ruling index n read, each derived once: alpha
    and the base form on construction; the other forms, the top generator
    alpha^2/(n+2), the volume (the squared L2 norm of 1), the classes, the
    product c1*c2, the torsion form, the secondary Todd parts and each
    quadrature on first use.  No record outlives its call."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.alpha = forms.alpha_form(n)
        self.base = forms.base_form(n)
        self._quadratures: dict = {}

    @cached_property
    def omega_h(self) -> Form11:
        return forms.omega_H(self.n)

    @cached_property
    def c1(self) -> Form11:
        return forms.c1_total(self.n)

    @cached_property
    def c1_rel(self) -> Form11:
        return forms.c1_rel(self.n)

    @cached_property
    def ddc_log_r(self) -> Form11:
        return forms.ddc_log_R(self.n)

    @cached_property
    def volume_form(self) -> Form22:
        return Fraction(1, 2) * forms.wedge(self.alpha, self.alpha)

    @cached_property
    def top(self) -> Form22:
        return Fraction(2, self.n + 2) * self.volume_form

    @cached_property
    def vol(self) -> Fraction:
        return _rational(self.volume_form.total_integral, "the volume", self.n)

    @cached_property
    def chern_classes(self) -> ChernClasses:
        return chow.arithmetic_chern_classes(self.n)

    @cached_property
    def c1c2(self) -> ChowClass:
        """c1 * c2 of the tangent bundle: a factor of the direct route's Todd
        class and the class of the c1*c2 row."""
        return chow.mul(self.chern_classes.c1_tangent, self.chern_classes.c2_tangent)

    @cached_property
    def torsion_form(self) -> ExactConstant:
        return chow.torsion_form(self.chern_classes.c1_relative)

    @cached_property
    def secondary_todd_parts(self) -> Tuple[Form22, Form22, Form22]:
        """The three integrands of the secondary Todd class of the two
        fibration metrics: 4 log R alpha ^ base, c1 ^ (log R c1_rel) and
        c1 ^ (secondary class); the secondary Todd form is their sum over 24."""
        log_ratio = forms.log_R(self.n)
        return (4 * log_ratio * forms.wedge(self.alpha, self.base),
                log_ratio * forms.wedge(self.c1, self.c1_rel),
                forms.wedge(self.c1, forms.bott_chern_c2(self.n)))

    def quadrature(self, name: str, f: Radial, cfg: QuadratureConfig) -> float:
        """The half-line integral of f under cfg, once per record and keyed by
        the normal form; a failure is not stored, so each check that meets it
        raises under its own label, "name, n=...".  Every quadrature of the
        checks goes through here."""
        key = f, cfg
        value = self._quadratures.get(key)
        if value is None:
            value = self._quadratures[key] = integrate_halfline(f, cfg, name=f"{name}, n={self.n}")
        return value


def _surface(n: Union[int, Surface]) -> Surface:
    return n if isinstance(n, Surface) else Surface(n)


# ---------------------------------------------------------------------------
# Checks and named integrals
# ---------------------------------------------------------------------------


class VerificationEntry:
    """One graded check of computed against an exact value; its float
    expected value and error are derived, and by default it passes within
    tol.  Immutable."""

    def __init__(self, name: str, n: Optional[int], expected: ExactConstant,
                 computed: float, tol: float, passed: Optional[bool] = None) -> None:
        self.name = name
        self.n = n
        self.expected = expected
        self.computed = computed
        self.tol = tol
        self.passed = self.abs_error <= tol if passed is None else passed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.n, self.expected, self.computed, self.tol, self.passed)
                == (other.name, other.n, other.expected, other.computed, other.tol,
                    other.passed))

    def __hash__(self) -> int:
        return hash((self.name, self.n, self.expected, self.computed, self.tol, self.passed))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, n={self.n!r}, "
                f"expected={self.expected!r}, computed={self.computed!r}, "
                f"tol={self.tol!r}, passed={self.passed!r})")

    @property
    def expected_float(self) -> float:
        return self.expected.to_float()

    @property
    def abs_error(self) -> float:
        return abs(self.computed - self.expected_float)

    def as_report_row(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "expected": self.expected_float,
            "computed": self.computed,
            "abs_error": self.abs_error,
            "pass": self.passed,
        }


class NamedIntegral(VerificationEntry):
    """A displayed integral graded against the exact mass derived from its
    normal form."""

    @property
    def closed_form(self) -> ExactConstant:
        return self.expected

    @property
    def quadrature_value(self) -> float:
        return self.computed


def named_integrals(n: Union[int, Surface],
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> List[NamedIntegral]:
    """Quadrature every displayed integral against its exact mass."""
    s = _surface(n)
    n, al = s.n, s.alpha
    bb_first, c1_c1r_logR, c1_bc = s.secondary_todd_parts
    c1_bc_total = c1_bc + c1_c1r_logR
    out = []
    for name, integrand in (
            ("halfline_inverse_cube", Radial.term(a=1, k=3)),
            ("fiber_mass_relative_form", forms.omega_form(n).fphi),
            ("relative_form_wedge_alpha", forms.wedge(forms.omega_form(n), al).g),
            ("alpha_wedge_base", forms.wedge(al, s.base).g),
            ("surface_volume", s.volume_form.g),
            ("c1_c1rel_log_ratio", c1_c1r_logR.g),
            ("c1_bott_chern_c2", c1_bc.g),
            ("bb_first_term", bb_first.g),
            ("c1_bott_chern_total", c1_bc_total.g),
            ("bb_todd_total", Fraction(1, 24) * (bb_first + c1_bc_total).g),
            ("c1_squared", forms.wedge(s.c1, s.c1).g),
            ("c1rel_squared", forms.wedge(s.c1_rel, s.c1_rel).g)):
        value = s.quadrature(name, integrand, cfg)
        out.append(NamedIntegral(name, n, integrand.mass, value, cfg.pass_tol))
    return out


# ---------------------------------------------------------------------------
# The direct route
# ---------------------------------------------------------------------------


def _c1_times_one(c1: ChowClass) -> ChowClass:
    """c1 * a(1), which is a(curvature image of c1)."""
    return chow.mul(c1, chow.a_class(c1.n, 1, RADIAL_ONE, c1.variety))


def _genus_term(product: ChowClass, c1_one: ChowClass) -> ExactConstant:
    """The additive-genus correction: R1 times the mass of the curvature
    image of [Td ch]_{top-2} * c1, read in the ring as twice the degree of
    [Td ch]_{top-2} * (c1 * a(1)), since a class times a(1) is a(its image);
    product is Td ch and c1_one is c1 * a(1)."""
    lower = product.degree_part(chow.top_degree(product.variety) - 2)
    return R_GENUS_DEGREE1 * chow.pushforward_deg(chow.mul(lower, c1_one)).scale(2)


def _direct_tau(l2: ExactConstant, product: ChowClass,
                c1_one: ChowClass) -> ExactConstant:
    """The determinant-line identity solved for the torsion:
    tau = L2 + 2 deg([Td ch]_top) - genus correction, where L2 is the log of
    the squared L2 covolume of the harmonic generators, product is Td ch and
    c1_one is c1 * a(1)."""
    top_part = product.degree_part(chow.top_degree(product.variety))
    return l2 + chow.pushforward_deg(top_part).scale(2) - _genus_term(product, c1_one)


@cache
def tau_p1() -> ExactConstant:
    """Torsion of the projective line: the direct route on the base model,
    whose metrized tangent class is 2*xhat + a(log 2pi), with L2 term 0 and
    the untwisted character ch = 1, so that Td ch is Td."""
    n = 0  # the base model carries no ruling index; 0 is a neutral tag
    c1 = chow.add(chow.scale(2, chow.gen_x(n, chow.BASE)),
                  chow.a_class(n, log_2pi(), RADIAL_ONE, chow.BASE))
    return _direct_tau(ExactConstant.zero(), chow.todd(c1), _c1_times_one(c1))


@cache
def closed_tau_p1() -> ExactConstant:
    """(1 + log 2pi)/3 - 4 zeta'(-1) - 2 zeta(-1), stated closed form."""
    return (_rat(1) + log_2pi()).scale(Fraction(1, 3)) \
        - ExactConstant.atom(ZETA_PRIME_M1, 4) - ExactConstant.atom(ZETA_M1, 2)


def _l2_covolumes_sq(s: Surface) -> Tuple[Fraction, Fraction, Fraction]:
    """Squared L2 covolumes of the harmonic generators of the three twists,
    each from exact L2 pairings: the volume, the Gram determinant of
    (harmonic base class, alpha), and the norm of alpha^2/(n+2)."""
    al, w_h = s.alpha, s.omega_h

    def pairing(a, b, what: str) -> Fraction:
        return _rational(forms.l2_pairing(a, b).total_integral, f"L2 pairing {what}", s.n)

    gram = pairing(w_h, w_h, "<w_H, w_H>") * pairing(al, al, "<alpha, alpha>") \
        - pairing(w_h, al, "<w_H, alpha>") ** 2
    return s.vol, gram, pairing(s.top, s.top, "<alpha^2/(n+2), alpha^2/(n+2)>")


# ---------------------------------------------------------------------------
# The two torsion routes
# ---------------------------------------------------------------------------


def _todd_character_products(s: Surface) -> Tuple[ChowClass, List[ChowClass]]:
    """c1 of the tangent bundle and the products Td ch(Lambda^p T*) of the
    three twists, exact in degrees 1 and 3, the two the direct route reads
    (top - 2 and top); c1^2 and c1^3 are built once, and c1*c2 is the
    record's.

    ch(Lambda^0) = 1, ch(Lambda^2) = e^-c1 and ch(Lambda^1) = 1 + e^-c1 - c2
    + c1 c2 / 2, truncated at the arithmetic dimension.  The untwisted
    product is Td itself.  The twisted ones multiply only in degrees 1 and
    3, and the middle one keeps Td's other degrees, which are not read.  The
    product is bilinear, so the middle twist is Td + Td e^-c1 + Td (c1 c2 / 2
    - c2): it reuses the top twist's product, and its own factor starts in
    degree 2.
    """
    c1, c2, c1c2 = s.chern_classes.c1_tangent, s.chern_classes.c2_tangent, s.c1c2
    c1sq = chow.mul(c1, c1)
    c13 = chow.mul(c1sq, c1)
    half, twelfth, one = Fraction(1, 2), Fraction(1, 12), chow.unit(s.n)
    td = chow.linear([(1, one), (half, c1), (twelfth, c1sq), (twelfth, c2),
                      (Fraction(1, 24), c1c2)])
    exp_minus_c1 = chow.linear([(1, one), (-1, c1), (half, c1sq), (Fraction(-1, 6), c13)])
    top = chow.mul(td, exp_minus_c1, degrees=(1, 3))
    twist = chow.mul(td, chow.linear([(half, c1c2), (-1, c2)]), degrees=(1, 3))
    return c1, [td, chow.linear([(1, td), (1, top), (1, twist)]), top]


def tau_route_rr(n: Union[int, Surface]) -> Tuple[ExactConstant, ExactConstant, ExactConstant]:
    """Torsion triple (untwisted, middle twist, top twist) via the direct
    route, from the Chern classes and the volume of one ruling index.

    Each twist solves its determinant-line identity against its own L2
    covolume, the degree of its degree-3 selection and its genus correction.
    The selections are checked as well: the middle one vanishes and the top
    one is the negative of the untwisted one.
    """
    s = _surface(n)
    c1, products = _todd_character_products(s)
    sel0, sel1, sel2 = (p.degree_part(3) for p in products)
    if not sel1.is_zero:
        raise PipelineInconsistency(
            f"degree-3 selection of the middle twist did not vanish: {sel1!r}")
    if not chow.add(sel2, sel0).is_zero:
        raise PipelineInconsistency(
            "top-twist selection is not the negative of the untwisted one")
    c1_one = _c1_times_one(c1)
    return tuple(_direct_tau(log_rational(q), product, c1_one)
                 for q, product in zip(_l2_covolumes_sq(s), products))


def tau_route_bb(n: Union[int, Surface]) -> ExactConstant:
    """Torsion via the fibration route, from the fibration torsion form and
    the volume of one ruling index: compare the two determinant-line
    metrics through the ruling.

    log |sigma|^2 = tau(base) - tau(surface) + log Vol equals minus the
    fibration torsion form (times the base Todd mass 1) plus the secondary
    Todd total, the exact mass of the secondary Todd form; solve for the
    surface torsion.
    """
    s = _surface(n)
    base_todd_mass = _rat(1)
    first, second, third = s.secondary_todd_parts
    bc_total = (first + second + third).total_integral.scale(Fraction(1, 24))
    return tau_p1() + log_rational(s.vol) + s.torsion_form * base_todd_mass - bc_total


def bb_quadrature_float(n: Union[int, Surface],
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The fibration-route value with its two integrals done by quadrature."""
    s = _surface(n)
    first, c1_c1r_logR, c1_bc = s.secondary_todd_parts
    bc_total = (s.quadrature("bb_first_term", first.g, cfg)
                + s.quadrature("c1_bott_chern_total", (c1_bc + c1_c1r_logR).g, cfg)) / 24.0
    return tau_p1().to_float() + math.log(s.vol) + s.torsion_form.to_float() - bc_total


# ---------------------------------------------------------------------------
# Main theorem assembly
# ---------------------------------------------------------------------------


class TorsionResult(NamedTuple):
    n: int
    tau_closed: ExactConstant
    tau_rr: ExactConstant
    tau_bb: ExactConstant
    tau_omega1: ExactConstant
    tau_omega2: ExactConstant
    tau_float: float
    vol: Fraction
    main_theorem_value: ExactConstant  # tau - log Vol


def closed_main_value(n: int) -> ExactConstant:
    """tau - log Vol = n log(n+1)/24 - n/6 + 2 tau(base line), the stated
    main identity."""
    return log_rational(n + 1).scale(Fraction(n, 24)) + _rat(Fraction(-n, 6)) \
        + closed_tau_p1().scale(2)


def closed_tau(n: int) -> ExactConstant:
    """n log(n+1)/24 - n/6 + log((n+2)/2) + 2 tau(base line): the main
    identity plus log Vol, with Vol = (n+2)/2."""
    return closed_main_value(n) + log_rational(Fraction(n + 2, 2))


def main_theorem(n: Union[int, Surface]) -> TorsionResult:
    """Both routes from one record, so from one build of the Chern classes
    and one volume, exact equality asserted, plus the stated main identity."""
    s = _surface(n)
    n = s.n
    tau_rr, tau1, tau2 = tau_route_rr(s)
    tau_bb = tau_route_bb(s)
    if tau_rr != tau_bb:
        raise PipelineInconsistency(
            f"routes disagree at n={n}: direct {tau_rr} vs fibration {tau_bb}")
    tau_closed = closed_tau(n)
    if tau_rr != tau_closed:
        raise PipelineInconsistency(
            f"torsion at n={n} differs from its closed form: {tau_rr}")
    main_value = tau_rr - log_rational(s.vol)
    if main_value != closed_main_value(n):
        raise PipelineInconsistency(f"main identity failed at n={n}")
    return TorsionResult(n=n, tau_closed=tau_closed, tau_rr=tau_rr,
                         tau_bb=tau_bb, tau_omega1=tau1, tau_omega2=tau2,
                         tau_float=tau_rr.to_float(), vol=s.vol,
                         main_theorem_value=main_value)


# ---------------------------------------------------------------------------
# Invariant sweeps (appendix identities, Hodge/L2 suite)
# ---------------------------------------------------------------------------


def _identity(name: str, n: int, *sides) -> VerificationEntry:
    """An identity of normal forms (Radial or Form11), decided exactly: it
    holds when every side equals the first.  The residual reported is the
    total absolute weight of the differences' terms, 0 exactly when it holds."""
    lhs, *rest = sides
    residual = Fraction(0)
    for rhs in rest:
        diff = lhs + (-1) * rhs
        for f in (diff.fx, diff.fphi) if isinstance(diff, Form11) else (diff,):
            residual += sum(abs(c) for _, c in f.terms)
    return VerificationEntry(name, n, ExactConstant.zero(), float(residual), 0.0,
                             passed=all(lhs == rhs for rhs in rest))


def appendix_checks(n: Union[int, Surface]) -> List[VerificationEntry]:
    """The contraction and curvature identities, as equalities of normal forms."""
    s = _surface(n)
    n, al = s.n, s.alpha
    u = Radial.term(j=1)
    dh = al.fx.derivative()
    return [
        _identity("contraction_of_base_form", n,
                  forms.lambda_contract(s.base),
                  Radial.term(a=n + 1, k=1) + Radial.term(j=1, a=n + 1, k=1)),
        _identity("contraction_of_ddc_log_ratio", n,
                  forms.lambda_contract(s.ddc_log_r),
                  Radial.term(n, a=n + 1, k=1) - Radial.term(n, j=1, a=n + 1, k=1)),
        _identity("contraction_of_harmonic_combination", n,
                  (n + 2) * forms.lambda_contract(s.omega_h), Radial.term(2)),
        _identity("degree2_relation_pointwise", n,
                  2 * al.fx * al.fphi - (n + 2) * al.fphi,
                  -(dh + u * dh.derivative()),
                  Radial.term(n, a=1, k=2) - Radial.term(2 * n, a=1, k=3)),
    ]


def hodge_l2_checks(n: Union[int, Surface], cfg: QuadratureConfig = DEFAULT_CONFIG,
                    tol: float = 1e-8) -> List[VerificationEntry]:
    """Star identities, decided exactly (the isometry on the mixed pair is
    one of densities), and harmonic-generator norms against exact values."""
    s = _surface(n)
    n, al, w_h = s.n, s.alpha, s.omega_h
    probe = forms.combine(n, [(Fraction(1, 3), al), (Fraction(-2), s.base),
                              (Fraction(1, 7), s.ddc_log_r)])
    entries = [
        _identity("star_fixes_alpha", n, forms.hodge_star(al), al),
        _identity("star_of_harmonic_base_class", n, forms.hodge_star(w_h),
                  forms.combine(n, [(Fraction(2, n + 2), al), (Fraction(-1), w_h)])),
        _identity("star_is_an_involution", n,
                  forms.hodge_star(forms.hodge_star(probe)), probe),
    ]

    primitive = forms.combine(n, [(Fraction(1), w_h), (Fraction(-1, n + 2), al)])
    for name, density in (
            ("norm_sq_alpha", forms.l2_pairing(al, al)),
            ("norm_sq_harmonic_base_class", forms.l2_pairing(w_h, w_h)),
            ("norm_sq_h0_generator", s.volume_form),
            ("norm_sq_top_generator", forms.l2_pairing(s.top, s.top)),
            ("harmonic_base_class_squared", forms.wedge(w_h, w_h)),
            ("primitive_part_orthogonal_to_alpha", forms.l2_pairing(al, primitive))):
        entries.append(VerificationEntry(name, n, density.total_integral,
                                         s.quadrature(name, density.g, cfg), tol))
    entries.append(_identity("star_isometry_on_mixed_pair", n,
                             forms.l2_pairing(forms.hodge_star(al), forms.hodge_star(w_h)).g,
                             forms.l2_pairing(al, w_h).g))
    return entries


def _degree_by_quadrature(s: Surface, name: str, c: ChowClass,
                          cfg: QuadratureConfig) -> float:
    """The degree of the top-degree class c with each form's mass integrated
    through the record under name: half the sum over chow.top_slots, in the
    slot order of chow.pushforward_deg."""
    total = 0.0  # a plain left fold: sum() compensates floats from 3.12
    for (_, atom), form in chow.top_slots(c):
        total += atom.value() * s.quadrature(name, form.g, cfg)
    return 0.5 * total


def route_checks(n: Union[int, Surface], cfg: QuadratureConfig = DEFAULT_CONFIG,
                 tol: float = 1e-8) -> List[VerificationEntry]:
    """Exact route agreement plus the numeric cross-checks of both pipelines,
    from the record that main_theorem reads: its c1*c2 serves the c1*c2 row,
    and its torsion form the exact row and the quadrature row."""
    s = _surface(n)
    n, res, tors = s.n, main_theorem(s), s.torsion_form
    h = height(n)
    return [
        VerificationEntry("route_equality_exact", n, res.tau_rr, res.tau_bb.to_float(),
                          0.0, passed=res.tau_rr == res.tau_bb),
        VerificationEntry("fibration_route_quadrature", n, res.tau_bb,
                          bb_quadrature_float(s, cfg), tol),
        VerificationEntry("c1c2_product_quadrature", n, chow.pushforward_deg(s.c1c2),
                          _degree_by_quadrature(s, "c1c2_product_quadrature", s.c1c2, cfg),
                          tol),
        VerificationEntry("torsion_form_equals_base_torsion", n, tau_p1(),
                          tors.to_float(), 0.0, passed=tors == tau_p1()),
        VerificationEntry("height_closed_form", n, _rat(closed_height(n)), float(h),
                          0.0, passed=h == closed_height(n)),
    ]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class VerificationReport:
    def __init__(self, entries: List[VerificationEntry]) -> None:
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"VerificationReport(entries={self.entries!r})"

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_abs_error(self) -> float:
        return max((e.abs_error for e in self.entries), default=0.0)

    def rows(self) -> List[dict]:
        return [e.as_report_row() for e in self.entries]

    def to_json_text(self) -> str:
        import json

        return json.dumps({"all_passed": self.all_passed, "entries": self.rows()},
                          indent=2)

    def to_csv_text(self) -> str:
        lines = ["name,n,expected,computed,abs_error,pass"]
        for e in self.entries:
            nfield = "" if e.n is None else str(e.n)
            lines.append(",".join([
                e.name, nfield, _fmt(e.expected_float), _fmt(e.computed),
                _fmt(e.abs_error), str(e.passed).lower()]))
        return "\n".join(lines) + "\n"


def verify_all(ns: Sequence[int], cfg: QuadratureConfig = DEFAULT_CONFIG,
               tol: float = 1e-8, height_range: int = 20) -> VerificationReport:
    """The full invariant suite over a list of ruling indices, one record each."""
    entries: List[VerificationEntry] = []
    for n in ns:
        s = Surface(n)
        entries.extend(named_integrals(s, cfg))
        entries.extend(appendix_checks(s))
        entries.extend(hodge_l2_checks(s, cfg, tol))
        entries.append(_identity("quotient_metric_equals_alpha_fiber", n,
                                 forms.quotient_metric(), s.alpha.fphi))
        entries.extend(route_checks(s, cfg, tol))
    for n in range(height_range + 1):
        target = closed_height(n)
        # the pipeline farther from the target (the first on a tie) is shown
        worst = max(height(n), height_via_polarization_cube(n),
                    key=lambda h: abs(h - target))
        entries.append(VerificationEntry("height_two_pipelines", n, _rat(target),
                                         float(worst), 0.0, passed=worst == target))
    return VerificationReport(entries)


# ---------------------------------------------------------------------------
# Summary table
# ---------------------------------------------------------------------------


def table_rows(ns: Sequence[int], cfg: QuadratureConfig = DEFAULT_CONFIG) -> List[dict]:
    """One row per ruling index: height, torsion, main value, discrepancies."""
    rows = []
    for n in ns:
        s = Surface(n)
        res = main_theorem(s)
        integrals = named_integrals(s, cfg)
        rows.append({
            "n": n,
            "height": height(n),
            "tau_float": res.tau_float,
            "tau_minus_logvol_float": res.main_theorem_value.to_float(),
            "route_discrepancy": abs(res.tau_rr.to_float() - res.tau_bb.to_float()),
            "max_integral_discrepancy": max(m.abs_error for m in integrals),
        })
    return rows


def table_csv(rows: List[dict]) -> str:
    lines = ["n,height,tau_float,tau_minus_logvol_float,"
             "route_discrepancy,max_integral_discrepancy"]
    for r in rows:
        lines.append(",".join([
            str(r["n"]), str(r["height"]), _fmt(r["tau_float"]),
            _fmt(r["tau_minus_logvol_float"]), _fmt(r["route_discrepancy"]),
            _fmt(r["max_integral_discrepancy"])]))
    return "\n".join(lines) + "\n"
