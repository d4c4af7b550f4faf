"""Invariant (1,1)- and (2,2)-form calculus on the ruled surface S_n.

All forms in play are invariant under the unitary symmetry of the base and
fiber metrics, so at a normal-frame point they are determined by two radial
coefficients in the invariant u = |z|^2 * |frame|^(2n):

    form = fx(u) * (pullback of the base Fubini-Study form)
         + fphi(u) * phi,

where phi is the normalized fiber area element (i/2pi)|dz + ...|^2.  Top
forms are fx-free multiples of base ^ phi, and every global integral reduces
to a half-line integral of the remaining radial coefficient (the base form
has total mass 1).

dd^c of a radial potential h(u) is the closed chain rule

    dd^c h = (n u h'(u)) * base + (h'(u) + u h''(u)) * phi,

which reproduces both catalog derivative formulas exactly; it is the single
rule from which all curvature forms here are assembled.  The Hodge star is
the coefficient swap that its definition (Lambda a) * alpha - a reduces to:
fphi * R/B on the base and fx * B/R on the fiber, where alpha = (R, B).

Every coefficient is a Radial normal form.  So forms are equal exactly when
their coefficients are, and the exact fiber and total integrals are derived
properties (the exact mass of a coefficient).  This module integrates
nothing numerically: the torsion module's record re-derives the same numbers
by quadrature of the same coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple, Union

from .constants import ExactConstant
from .radial import RADIAL_ONE, RADIAL_ZERO, Radial, _mul_into, _split, built, linear
from .settings import Value

U = Radial.term(j=1)
B = Radial.term(a=1, k=2)  # the fiber coefficient 1/(1+u)^2, of unit half-line mass
B_INV = RADIAL_ONE + 2 * U + Radial.term(j=2)  # (1 + u)^2


# ---------------------------------------------------------------------------
# Radial building blocks
# ---------------------------------------------------------------------------


def ratio_R(n: int) -> Radial:
    """Quotient-metric ratio R(u) = (1 + (n+1)u)/(1 + u), the base coefficient
    of alpha; identically 1 in the split case n = 0."""
    return Radial({(0, 0, 0, 0): n + 1, (0, 0, 1, 1): -n})


def reciprocal_R(n: int) -> Radial:
    """1/R(u) = (1 + u)/(1 + (n+1)u)."""
    return Radial({(0, 0, 0, 0): Fraction(1, n + 1), (0, 0, n + 1, 1): Fraction(n, n + 1)})


@lru_cache(maxsize=4)
def star_ratios(n: int) -> Tuple[Radial, Radial]:
    """The factors of the Hodge star: R/B = (1 + u)(1 + (n+1)u) as its
    polynomial, and B/R = 1/((1 + u)(1 + (n+1)u)) in partial fractions,
    which merge to (1 + u)^-2 at n = 0.  Built once per n among the last 4."""
    return (Radial({(0, 0, 0, 0): 1, (0, 1, 0, 0): n + 2, (0, 2, 0, 0): n + 1}),
            built({(0,) + key: (p, d) for key, p, d in _split(0, 1, 1, n + 1, 1)}))


@lru_cache(maxsize=4)
def log_R(n: int) -> Radial:
    """log of the quotient-metric ratio; identically 0 in the split case n = 0.
    Built once per n among the last 4, and shared by every caller."""
    return Radial.term(b=n + 1) - Radial.term(b=1)


# ---------------------------------------------------------------------------
# (1,1)-forms
# ---------------------------------------------------------------------------


class Form11(Value):
    """Invariant (1,1)-form: fx * base + fphi * phi at a normal-frame point.
    Immutable."""

    fields = ("n", "fx", "fphi")

    def __init__(self, n: int, fx: Radial, fphi: Radial) -> None:
        self.n = n
        self.fx = fx
        self.fphi = fphi

    @property
    def fiber_integral(self) -> ExactConstant:
        """Exact fiber pushforward: the half-line mass of fphi."""
        return self.fphi.mass

    @property
    def is_zero_form(self) -> bool:
        return not (self.fx or self.fphi)

    def __bool__(self) -> bool:
        return not self.is_zero_form

    def __add__(self, other: "Form11") -> "Form11":
        if self.n != other.n:
            raise ValueError("mixed ruling indices in linear combination")
        return Form11(self.n, self.fx + other.fx, self.fphi + other.fphi)

    def __rmul__(self, c) -> "Form11":
        """Product with a rational or a radial 0-form."""
        return Form11(self.n, c * self.fx, c * self.fphi)

    def evaluate(self, u: float) -> Tuple[float, float]:
        return self.fx(u), self.fphi(u)

    @cached_property
    def star(self) -> "Form11":
        """Hodge star on real invariant (1,1)-forms, derived once per object:
        (Lambda a) * alpha - a, with Lambda a = fx/R + fphi/B and alpha = (R, B),
        is the coefficient swap (fphi * R/B) * base + (fx * B/R) * phi."""
        r_over_b, b_over_r = star_ratios(self.n)
        return Form11(self.n, self.fphi * r_over_b, self.fx * b_over_r)


def combine(n: int, weighted: Sequence[Tuple[Fraction, Form11]]) -> Form11:
    """Rational linear combination of (1,1)-forms."""
    if any(form.n != n for _, form in weighted):
        raise ValueError("mixed ruling indices in linear combination")
    return Form11(n, linear((c, f.fx) for c, f in weighted),
                  linear((c, f.fphi) for c, f in weighted))


# -- named constructors ------------------------------------------------------


def alpha_form(n: int) -> Form11:
    """Curvature of the tautological bundle: fx = (1+(n+1)u)/(1+u), fphi = 1/(1+u)^2."""
    if n < 0:
        raise ValueError("ruling index must be >= 0")
    return Form11(n, ratio_R(n), B)


def base_form(n: int) -> Form11:
    """Pullback of the base Fubini-Study form (unit base mass, no fiber part)."""
    return Form11(n, RADIAL_ONE, RADIAL_ZERO)


def ratio_base_form(n: int) -> Form11:
    """R(u) * base: the curvature bracket term of the degree-2 relation."""
    return Form11(n, ratio_R(n), RADIAL_ZERO)


def omega_form(n: int) -> Form11:
    """Relative Fubini-Study form: the pure fiber form (0, 1/(1+u)^2), equal to
    alpha minus R(u) * base, with fiber pushforward 1."""
    return Form11(n, RADIAL_ZERO, B)


@lru_cache(maxsize=32)
def ddc(h: Radial, n: int) -> Form11:
    """dd^c of a radial 0-form by the normal-frame chain rule, derived once
    per (normal form, n) among the last 32: the ring takes dd^c of the same
    few potentials (+-log R, +-log R / 2) in each product, and a Form11 is
    immutable, so the callers share it."""
    u_dh = U * h.derivative()
    return Form11(n, n * u_dh, u_dh.derivative())


def ddc_log_R(n: int) -> Form11:
    return ddc(log_R(n), n)


def ddc_form11(form: Form11) -> "Form22":
    """dd^c of an invariant (1,1)-form, as a top form.

    With k = fphi (1+u)^2 the form is (fx - k R) base + k alpha, and base and
    alpha are closed, so dd^c form = dd^c(fx - k R) ^ base + dd^c k ^ alpha.
    """
    n = form.n
    k = form.fphi * B_INV
    return Form22(n, ddc(form.fx - k * ratio_R(n), n).fphi
                  + wedge(ddc(k, n), alpha_form(n)).g)


def bott_chern_c2(n: int) -> Form11:
    """Secondary class of the two fibration metrics: pure base form, no fiber part."""
    return Form11(n, Radial([((0, 0, n + 1, 1), n), ((0, 0, 1, 1), -n)]), RADIAL_ZERO)


def c1_rel(n: int) -> Form11:
    """First Chern form of the relative tangent bundle: 2*alpha - (n+2)*base."""
    return combine(n, [(Fraction(2), alpha_form(n)), (Fraction(-(n + 2)), base_form(n))])


def c1_total(n: int) -> Form11:
    """First Chern form of the full tangent bundle: 2*alpha - n*base - dd^c log R."""
    return combine(n, [(Fraction(2), alpha_form(n)), (Fraction(-n), base_form(n)),
                       (Fraction(-1), ddc_log_R(n))])


def degree2_relation_rhs(n: int) -> Form11:
    """Analytic side of the degree-2 ring relation: alpha - (n+1)*base - R*base."""
    return combine(n, [(Fraction(1), alpha_form(n)),
                       (Fraction(-(n + 1)), base_form(n)),
                       (Fraction(-1), ratio_base_form(n))])


def omega_H(n: int) -> Form11:
    """Harmonic representative of the pulled-back base class."""
    return combine(n, [(Fraction(1), base_form(n)),
                       (Fraction(-1, n + 2), ddc_log_R(n))])


# ---------------------------------------------------------------------------
# (2,2)-forms and wedges
# ---------------------------------------------------------------------------


class Form22(Value):
    """Invariant top form g(u) * base ^ phi; total integral = half-line mass of g.
    Immutable."""

    fields = ("n", "g")

    def __init__(self, n: int, g: Radial) -> None:
        self.n = n
        self.g = g

    @property
    def total_integral(self) -> ExactConstant:
        return self.g.mass

    @property
    def is_zero_form(self) -> bool:
        return not self.g

    def __bool__(self) -> bool:
        return bool(self.g)

    def __add__(self, other: "Form22") -> "Form22":
        if self.n != other.n:
            raise ValueError("mixed ruling indices")
        return Form22(self.n, self.g + other.g)

    def __rmul__(self, c) -> "Form22":
        """Product with a rational or a radial 0-form."""
        return Form22(self.n, c * self.g)


def wedge_into(acc: dict, a: Form11, b: Form11, q=1) -> dict:
    """acc += q * g of a ^ b, g = a.fx*b.fphi + a.fphi*b.fx, as _mul_into pairs."""
    _mul_into(acc, a.fx.triples, b.fphi.triples, q)
    return _mul_into(acc, a.fphi.triples, b.fx.triples, q)


def wedge(a: Form11, b: Form11) -> Form22:
    """Wedge of invariant (1,1)-forms, both products summed in one map."""
    if a.n != b.n:
        raise ValueError(f"wedge of forms with different ruling indices {a.n} != {b.n}")
    return Form22(a.n, built(wedge_into({}, a, b)))


def volume_form(n: int) -> Form22:
    """Volume form alpha^2 / 2; total (n+2)/2."""
    return Fraction(1, 2) * wedge(alpha_form(n), alpha_form(n))


# ---------------------------------------------------------------------------
# Contraction, Hodge star, L2 pairings
# ---------------------------------------------------------------------------


def lambda_contract(a: Form11) -> Radial:
    """Trace against the reference metric: fx/A + fphi/B pointwise."""
    return a.fx * reciprocal_R(a.n) + a.fphi * B_INV


def hodge_star(a: Form11) -> Form11:
    """Star on real invariant (1,1)-forms: (Lambda a) * alpha - a, which is
    (fphi * R/B) * base + (fx * B/R) * phi, since alpha = (R, B)."""
    return a.star


def l2_pairing(a: Union[Form11, Form22], b: Union[Form11, Form22]) -> Form22:
    """L2 pairing density of two (1,1)-forms, a ^ star(b), or of two top
    forms: star of g * dV is the scalar g, so the density is
    a.g * b.g / (R * B).  Its total integral is the exact pairing."""
    if a.n != b.n:
        raise ValueError("mixed ruling indices in inner product")
    if isinstance(a, Form11):
        return wedge(a, hodge_star(b))
    return Form22(a.n, a.g * b.g * reciprocal_R(a.n) * B_INV)


# ---------------------------------------------------------------------------
# Quotient metric
# ---------------------------------------------------------------------------


def quotient_metric() -> Radial:
    """Squared norm of the adjoint image of d/dz in the fiber direction.

    Assembled from the adjoint formula at a normal-frame point with
    |z|^2 = u: the vector (-conj(z) e1 + e2)/(1+|z|^2), of squared norm
    (u + 1)/(1+u)^2, tensored with the dual of the defining point e1 + z e2,
    of squared norm 1/(1+u).  It equals the fiber coefficient of alpha, since
    phi carries the 1/(2*pi) that relates the metric to its form.
    """
    return (U + RADIAL_ONE) * Radial.term(a=1, k=2) * Radial.term(a=1, k=1)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def catalog(n: int) -> Dict[str, Form11]:
    """The named invariant (1,1)-forms, keyed for reporting and the CLI dump."""
    return {
        "alpha": alpha_form(n),
        "base_x": base_form(n),
        "omega_rel": omega_form(n),
        "ddc_log_ratio": ddc_log_R(n),
        "c1_tangent": c1_total(n),
        "c1_relative": c1_rel(n),
        "bott_chern_c2": bott_chern_c2(n),
        "omega_harmonic": omega_H(n),
        "degree2_relation_rhs": degree2_relation_rhs(n),
    }


def sample_catalog(n: int, u_values: Sequence[float]) -> List[Tuple[str, float, float, float]]:
    """Rows (form, u, fx, fphi) over a u-grid, in deterministic order."""
    rows = []
    for name, form in catalog(n).items():
        for u in u_values:
            fx, fphi = form.evaluate(u)
            rows.append((name, u, fx, fphi))
    return rows
