"""End-to-end pipelines: torsion values, heights, named integrals, reports.

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
neither reads a stated closed form (closed_tau, closed_tau_p1 and
closed_height are the headline identities they are checked against).  Every
named integral's exact mass, derived from its normal form, is re-derived by
half-line quadrature; the report machinery records name, exact value,
quadrature value, discrepancy, and verdict for each.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import List, Optional, Sequence, Tuple, Union

from . import chow, forms
from .chow import R_GENUS_DEGREE1, ChernClasses, ChowClass, PipelineInconsistency
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
    VerificationEntry,
    integrate_halfline,
)


def _rat(q) -> ExactConstant:
    return ExactConstant.rational(q)


def _rational(value: ExactConstant, what: str, n: int) -> Fraction:
    if not value.is_rational:
        raise PipelineInconsistency(f"{what} at n={n} is not rational: {value}")
    return value.rational_part


def log_np1(n: int) -> ExactConstant:
    return log_rational(n + 1)


def closed_height(n: int) -> Fraction:
    return Fraction(2 * n * n + 9 * n + 12, 4)


# ---------------------------------------------------------------------------
# Named integrals
# ---------------------------------------------------------------------------


class NamedIntegral(VerificationEntry):
    """A displayed integral graded against the exact mass derived from its
    normal form."""

    @property
    def closed_form(self) -> ExactConstant:
        return self.expected

    @property
    def quadrature_value(self) -> float:
        return self.computed


def secondary_todd_parts(n: int) -> Tuple[Form22, Form22, Form22]:
    """The three integrands of the secondary Todd class of the two fibration
    metrics: 4 log R alpha ^ base, c1 ^ (log R c1_rel) and c1 ^ (secondary
    class); the secondary Todd form is their sum over 24."""
    log_ratio = forms.log_R(n)
    c1 = forms.c1_total(n)
    return (4 * log_ratio * forms.wedge(forms.alpha_form(n), forms.base_form(n)),
            log_ratio * forms.wedge(c1, forms.c1_rel(n)),
            forms.wedge(c1, forms.bott_chern_c2(n)))


def _integrand_table(n: int) -> List[Tuple[str, Union[Form22, Radial]]]:
    al = forms.alpha_form(n)
    c1 = forms.c1_total(n)
    bb_first, c1_c1r_logR, c1_bc = secondary_todd_parts(n)
    c1_bc_total = c1_bc + c1_c1r_logR
    return [
        ("halfline_inverse_cube", Radial.term(a=1, k=3)),
        ("fiber_mass_relative_form", forms.omega_form(n).fphi),
        ("relative_form_wedge_alpha", forms.wedge(forms.omega_form(n), al)),
        ("alpha_wedge_base", forms.wedge(al, forms.base_form(n))),
        ("surface_volume", forms.volume_form(n)),
        ("c1_c1rel_log_ratio", c1_c1r_logR),
        ("c1_bott_chern_c2", c1_bc),
        ("bb_first_term", bb_first),
        ("c1_bott_chern_total", c1_bc_total),
        ("bb_todd_total", Fraction(1, 24) * (bb_first + c1_bc_total)),
        ("c1_squared", forms.wedge(c1, c1)),
        ("c1rel_squared", forms.wedge(forms.c1_rel(n), forms.c1_rel(n))),
    ]


def named_integrals(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> List[NamedIntegral]:
    """Quadrature every displayed integral against its exact mass."""
    out = []
    for name, integrand in _integrand_table(n):
        profile = integrand.g if isinstance(integrand, Form22) else integrand
        value = integrate_halfline(profile, cfg, name=f"{name}, n={n}")
        out.append(NamedIntegral(name, n, profile.mass, value, cfg.pass_tol))
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


def closed_tau_p1() -> ExactConstant:
    """(1 + log 2pi)/3 - 4 zeta'(-1) - 2 zeta(-1), stated closed form."""
    return (_rat(1) + log_2pi()).scale(Fraction(1, 3)) \
        - ExactConstant.atom(ZETA_PRIME_M1, 4) - ExactConstant.atom(ZETA_M1, 2)


# ---------------------------------------------------------------------------
# L2 covolumes of the harmonic generators
# ---------------------------------------------------------------------------


def _volume(n: int) -> Fraction:
    """The volume of the surface, the squared L2 norm of the function 1."""
    return _rational(forms.volume_form(n).total_integral, "the volume", n)


def _l2_covolumes_sq(n: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Squared L2 covolumes of the harmonic generators of the three twists,
    each from exact L2 pairings: the volume, the Gram determinant of
    (harmonic base class, alpha), and the norm of alpha^2/(n+2)."""
    al, w_h = forms.alpha_form(n), forms.omega_H(n)
    top = Fraction(1, n + 2) * forms.wedge(al, al)

    def pairing(a, b, what: str) -> Fraction:
        return _rational(forms.l2_pairing(a, b).total_integral, f"L2 pairing {what}", n)

    gram = pairing(w_h, w_h, "<w_H, w_H>") * pairing(al, al, "<alpha, alpha>") \
        - pairing(w_h, al, "<w_H, alpha>") ** 2
    return _volume(n), gram, pairing(top, top, "<alpha^2/(n+2), alpha^2/(n+2)>")


# ---------------------------------------------------------------------------
# The two torsion routes
# ---------------------------------------------------------------------------


def _todd_character_products(cc: ChernClasses) -> Tuple[ChowClass, List[ChowClass]]:
    """c1 of the tangent bundle and the products Td ch(Lambda^p T*) of the
    three twists, each one whole class; c1^2, c1^3 and c1*c2 are built once.

    ch(Lambda^0) = 1, ch(Lambda^2) = e^-c1 and ch(Lambda^1) = 1 + e^-c1 - c2
    + c1 c2 / 2, truncated at the arithmetic dimension.
    """
    c1, c2 = cc.c1_tangent, cc.c2_tangent
    c1sq = chow.mul(c1, c1)
    c13 = chow.mul(c1sq, c1)
    c1c2 = chow.mul(c1, c2)
    half, one = Fraction(1, 2), chow.unit(cc.n)
    td = chow.add(chow.add(one, chow.scale(half, c1)),
                  chow.add(chow.scale(Fraction(1, 12), chow.add(c1sq, c2)),
                           chow.scale(Fraction(1, 24), c1c2)))
    exp_minus_c1 = chow.add(chow.sub(one, c1),
                            chow.sub(chow.scale(half, c1sq), chow.scale(Fraction(1, 6), c13)))
    ch1 = chow.add(chow.add(one, exp_minus_c1), chow.sub(chow.scale(half, c1c2), c2))
    return c1, [td, chow.mul(td, ch1), chow.mul(td, exp_minus_c1)]


def tau_route_rr(cc: ChernClasses) -> Tuple[ExactConstant, ExactConstant, ExactConstant]:
    """Torsion triple (untwisted, middle twist, top twist) via the direct
    route, from the Chern classes cc of one ruling index.

    Each twist solves its determinant-line identity against its own L2
    covolume, the degree of its degree-3 selection and its genus correction.
    The selections are checked as well: the middle one vanishes and the top
    one is the negative of the untwisted one.
    """
    c1, products = _todd_character_products(cc)
    sel0, sel1, sel2 = (p.degree_part(3) for p in products)
    if not sel1.is_zero:
        raise PipelineInconsistency(
            f"degree-3 selection of the middle twist did not vanish: {sel1!r}")
    if sel2 != chow.scale(-1, sel0):
        raise PipelineInconsistency(
            "top-twist selection is not the negative of the untwisted one")
    c1_one = _c1_times_one(c1)
    return tuple(_direct_tau(log_rational(q), product, c1_one)
                 for q, product in zip(_l2_covolumes_sq(cc.n), products))


def tau_route_bb(cc: ChernClasses) -> ExactConstant:
    """Torsion via the fibration route, from the Chern classes cc of one
    ruling index: compare the two determinant-line metrics through the ruling.

    log |sigma|^2 = tau(base) - tau(surface) + log Vol equals minus the
    fibration torsion form (times the base Todd mass 1) plus the secondary
    Todd total, the exact mass of the secondary Todd form; solve for the
    surface torsion.
    """
    n = cc.n
    tors = chow.torsion_form(cc.c1_relative)
    base_todd_mass = _rat(1)
    first, second, third = secondary_todd_parts(n)
    bc_total = (first + second + third).total_integral.scale(Fraction(1, 24))
    return tau_p1() + log_rational(_volume(n)) + tors * base_todd_mass - bc_total


def bb_quadrature_float(n: int, tors: ExactConstant,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The fibration-route value from the fibration torsion form tors of the
    ruling index n, with its two integrals done by quadrature."""
    first, c1_c1r_logR, c1_bc = secondary_todd_parts(n)
    bc_total = (integrate_halfline(first.g, cfg, name=f"bb_first_term, n={n}")
                + integrate_halfline((c1_bc + c1_c1r_logR).g, cfg,
                                     name=f"c1_bott_chern_total, n={n}")) / 24.0
    return tau_p1().to_float() + math.log(_volume(n)) + tors.to_float() - bc_total


# ---------------------------------------------------------------------------
# Height
# ---------------------------------------------------------------------------


def height(n: int, trace: Optional[list] = None) -> Fraction:
    """Arithmetic height of the polarized surface model, as an exact rational;
    the rewrite steps are appended to trace when one is given."""
    _, s2 = chow.segre_classes(n, trace)
    return _rational(chow.pushforward_deg(s2, trace), "the height", n)


def height_via_polarization_cube(n: int) -> Fraction:
    """Independent route: degree of the cube of the polarization class."""
    return _rational(chow.pushforward_deg(chow.height_class(n)), "the height", n)


# ---------------------------------------------------------------------------
# Main theorem assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionResult:
    n: int
    tau_closed: ExactConstant
    tau_rr: ExactConstant
    tau_bb: ExactConstant
    tau_omega1: ExactConstant
    tau_omega2: ExactConstant
    tau_float: float
    vol: Fraction
    main_theorem_value: ExactConstant  # tau - log Vol


def closed_tau(n: int) -> ExactConstant:
    """n log(n+1)/24 - n/6 + log((n+2)/2) + 2 tau(base line)."""
    return log_np1(n).scale(Fraction(n, 24)) + _rat(Fraction(-n, 6)) \
        + log_rational(Fraction(n + 2, 2)) + closed_tau_p1().scale(2)


def main_theorem(n: int) -> TorsionResult:
    """Both routes from one build of the Chern classes, exact equality
    asserted, plus the stated main identity."""
    cc = chow.arithmetic_chern_classes(n)
    tau_rr, tau1, tau2 = tau_route_rr(cc)
    tau_bb = tau_route_bb(cc)
    if tau_rr != tau_bb:
        raise PipelineInconsistency(
            f"routes disagree at n={n}: direct {tau_rr} vs fibration {tau_bb}")
    tau_closed = closed_tau(n)
    if tau_rr != tau_closed:
        raise PipelineInconsistency(
            f"torsion at n={n} differs from its closed form: {tau_rr}")
    vol = _volume(n)
    main_value = tau_rr - log_rational(vol)
    stated = log_np1(n).scale(Fraction(n, 24)) + _rat(Fraction(-n, 6)) \
        + closed_tau_p1().scale(2)
    if main_value != stated:
        raise PipelineInconsistency(f"main identity failed at n={n}")
    return TorsionResult(n=n, tau_closed=tau_closed, tau_rr=tau_rr,
                         tau_bb=tau_bb, tau_omega1=tau1, tau_omega2=tau2,
                         tau_float=tau_rr.to_float(), vol=vol,
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


def appendix_checks(n: int) -> List[VerificationEntry]:
    """The contraction and curvature identities, as equalities of normal forms."""
    u = Radial.term(j=1)
    dh = forms.ratio_R(n).derivative()
    al = forms.alpha_form(n)
    return [
        _identity("contraction_of_base_form", n,
                  forms.lambda_contract(forms.base_form(n)),
                  Radial.term(a=n + 1, k=1) + Radial.term(j=1, a=n + 1, k=1)),
        _identity("contraction_of_ddc_log_ratio", n,
                  forms.lambda_contract(forms.ddc_log_R(n)),
                  Radial.term(n, a=n + 1, k=1) - Radial.term(n, j=1, a=n + 1, k=1)),
        _identity("contraction_of_harmonic_combination", n,
                  (n + 2) * forms.lambda_contract(forms.omega_H(n)), Radial.term(2)),
        _identity("degree2_relation_pointwise", n,
                  2 * al.fx * al.fphi - (n + 2) * al.fphi,
                  -(dh + u * dh.derivative()),
                  Radial.term(n, a=1, k=2) - Radial.term(2 * n, a=1, k=3)),
    ]


def hodge_l2_checks(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
                    tol: float = 1e-8) -> List[VerificationEntry]:
    """Star identities, decided exactly, and harmonic-generator norms against
    their exact values."""
    al = forms.alpha_form(n)
    w_h = forms.omega_H(n)
    probe = forms.combine(n, [(Fraction(1, 3), al), (Fraction(-2), forms.base_form(n)),
                              (Fraction(1, 7), forms.ddc_log_R(n))])
    entries = [
        _identity("star_fixes_alpha", n, forms.hodge_star(al), al),
        _identity("star_of_harmonic_base_class", n, forms.hodge_star(w_h),
                  forms.combine(n, [(Fraction(2, n + 2), al), (Fraction(-1), w_h)])),
        _identity("star_is_an_involution", n,
                  forms.hodge_star(forms.hodge_star(probe)), probe),
    ]

    def quadrature(name: str, density: Form22) -> float:
        return integrate_halfline(density.g, cfg, name=f"{name}, n={n}")

    top = Fraction(1, n + 2) * forms.wedge(al, al)
    primitive = forms.combine(n, [(Fraction(1), w_h), (Fraction(-1, n + 2), al)])
    for name, density in (
            ("norm_sq_alpha", forms.l2_pairing(al, al)),
            ("norm_sq_harmonic_base_class", forms.l2_pairing(w_h, w_h)),
            ("norm_sq_h0_generator", forms.volume_form(n)),
            ("norm_sq_top_generator", forms.l2_pairing(top, top)),
            ("harmonic_base_class_squared", forms.wedge(w_h, w_h)),
            ("primitive_part_orthogonal_to_alpha", forms.l2_pairing(al, primitive))):
        entries.append(VerificationEntry(name, n, density.total_integral,
                                         quadrature(name, density), tol))
    name = "star_isometry_on_mixed_pair"
    starred = forms.l2_pairing(forms.hodge_star(al), forms.hodge_star(w_h))
    plain = forms.l2_pairing(al, w_h)
    entries.append(VerificationEntry(
        name, n, starred.total_integral - plain.total_integral,
        quadrature(name, starred) - quadrature(name, plain), tol))
    return entries


def route_checks(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
                 tol: float = 1e-8) -> List[VerificationEntry]:
    """Exact route agreement plus the numeric cross-checks of both pipelines;
    main_theorem builds its own Chern classes and the rows below one more,
    whose torsion form serves both its exact row and the quadrature row."""
    res = main_theorem(n)
    cc = chow.arithmetic_chern_classes(n)
    tors = chow.torsion_form(cc.c1_relative)
    h = height(n)
    c1c2 = chow.mul(cc.c1_tangent, cc.c2_tangent)
    return [
        VerificationEntry("route_equality_exact", n, res.tau_rr, res.tau_bb.to_float(),
                          0.0, passed=res.tau_rr == res.tau_bb),
        VerificationEntry("fibration_route_quadrature", n, res.tau_bb,
                          bb_quadrature_float(n, tors, cfg), tol),
        VerificationEntry("c1c2_product_quadrature", n, chow.pushforward_deg(c1c2),
                          chow.pushforward_deg_numeric(
                              c1c2, cfg, name=f"c1c2_product_quadrature, n={n}"),
                          tol),
        VerificationEntry("torsion_form_equals_base_torsion", n, tau_p1(),
                          tors.to_float(), 0.0, passed=tors == tau_p1()),
        VerificationEntry("height_closed_form", n, _rat(closed_height(n)), float(h),
                          0.0, passed=h == closed_height(n)),
    ]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".17g")


@dataclass
class VerificationReport:
    entries: List[VerificationEntry]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_abs_error(self) -> float:
        return max((e.abs_error for e in self.entries), default=0.0)

    def rows(self) -> List[dict]:
        return [e.as_report_row() for e in self.entries]

    def to_json_text(self) -> str:
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
    """The full invariant suite over a list of ruling indices."""
    entries: List[VerificationEntry] = []
    for n in ns:
        entries.extend(named_integrals(n, cfg))
        entries.extend(appendix_checks(n))
        entries.extend(hodge_l2_checks(n, cfg, tol))
        entries.append(_identity("quotient_metric_equals_alpha_fiber", n,
                                 forms.quotient_metric(), forms.alpha_form(n).fphi))
        entries.extend(route_checks(n, cfg, tol))
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
        res = main_theorem(n)
        integrals = named_integrals(n, cfg)
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
