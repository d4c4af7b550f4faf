"""Typed-in closed forms, kept as test oracles.

The package derives each of these values: the integral masses from the
radial normal form, the tangent classes c1 and c2 from the relative tangent
sequence, the genus corrections and the c1*c2 degree from the intersection
ring, the direct-route torsion from its determinant-line identities, and the
L2 norms and covolumes from exact L2 pairings.  The functions below are the
hand-written values the package used before it derived them; the tests check
the derivations against them.
They call no `closed_*` function of the package.  The curvature image of a
class, which only the tests read, lives here too, and so do the ring
product formed one product at a time and the linear combination folded one
class at a time, which the slot sums of the ring must reproduce, the
top slots folded one atom at a time, which top_slots must reproduce, the
Fraction sum of radial functions that the integer-pair sums must reproduce
and the Fraction derivations of a normal form's exact mass and float plan
that the integer ones must reproduce, and the Hodge star by its definition,
which the coefficient swap must reproduce.

The interpretive evaluator at the end is the loop that read a radial
function's float plan term by term before the package generated a kernel
per plan shape; the generated kernels must return its floats, bit for bit.
"""

import math
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from hirzebruch_torsion import chow, forms
from hirzebruch_torsion.chow import R_GENUS_DEGREE1, ChowClass, PipelineInconsistency
from hirzebruch_torsion.constants import ExactConstant, log_2pi, log_rational
from hirzebruch_torsion.forms import Form11, Form22
from hirzebruch_torsion.radial import (RADIAL_ONE, DomainError, Radial, _label, _split,
                                       _term_str)


def _rat(q) -> ExactConstant:
    return ExactConstant.rational(q)


def log_np1(n: int) -> ExactConstant:
    return log_rational(n + 1)


# ---------------------------------------------------------------------------
# Closed forms of the displayed integrals (limit values at n = 0)
# ---------------------------------------------------------------------------


def closed_log_ratio_fiber_mass(n: int) -> ExactConstant:
    """Mass of log R against the fiber area: (1 + 1/n) log(n+1) - 1."""
    if n == 0:
        return ExactConstant.zero()
    return log_np1(n).scale(Fraction(n + 1, n)) - _rat(1)


def closed_c1_c1rel_log_ratio(n: int) -> ExactConstant:
    """Total of c1 ^ c1_rel weighted by log R: 5n+6 - (n+6+6/n) log(n+1)."""
    if n == 0:
        return ExactConstant.zero()
    return _rat(5 * n + 6) - log_np1(n).scale(Fraction(n * n + 6 * n + 6, n))


def closed_c1_bott_chern(n: int) -> ExactConstant:
    """Total of c1 ^ (secondary class of the two fibration metrics)."""
    if n == 0:
        return ExactConstant.zero()
    return _rat(-n - 2) + log_np1(n).scale(Fraction(2 * n + 2, n))


def closed_bb_first_term(n: int) -> ExactConstant:
    """First transgression term: (4 + 4/n) log(n+1) - 4."""
    if n == 0:
        return ExactConstant.zero()
    return log_np1(n).scale(Fraction(4 * n + 4, n)) - _rat(4)


def closed_c1_bott_chern_total(n: int) -> ExactConstant:
    """c1 ^ full secondary class: 4n+4 - (n+4+4/n) log(n+1)."""
    if n == 0:
        return ExactConstant.zero()
    return _rat(4 * n + 4) - log_np1(n).scale(Fraction(n * n + 4 * n + 4, n))


def closed_bb_todd_total(n: int) -> ExactConstant:
    """Full secondary Todd mass: n/6 - n log(n+1)/24."""
    return _rat(Fraction(n, 6)) - log_np1(n).scale(Fraction(n, 24))


def integral_closed_forms(n: int) -> Dict[str, ExactConstant]:
    """The typed expected value of each named integral, by name."""
    return {
        "halfline_inverse_cube": _rat(Fraction(1, 2)),
        "fiber_mass_relative_form": _rat(1),
        "relative_form_wedge_alpha": _rat(Fraction(n + 2, 2)),
        "alpha_wedge_base": _rat(1),
        "surface_volume": _rat(Fraction(n + 2, 2)),
        "c1_c1rel_log_ratio": closed_c1_c1rel_log_ratio(n),
        "c1_bott_chern_c2": closed_c1_bott_chern(n),
        "bb_first_term": closed_bb_first_term(n),
        "c1_bott_chern_total": closed_c1_bott_chern_total(n),
        "bb_todd_total": closed_bb_todd_total(n),
        "c1_squared": _rat(8),
        "c1rel_squared": ExactConstant.zero(),
    }


# ---------------------------------------------------------------------------
# The direct route as it was assembled by hand
# ---------------------------------------------------------------------------


def r_genus_pushforward(p: int) -> ExactConstant:
    """Additive-genus corrections of the three twisted pipelines.

    The p = 0 value is (degree-1 genus coefficient)/2 times the total of
    c1^2, which is 8; the middle twist vanishes and the top twist flips sign.
    """
    base = R_GENUS_DEGREE1.scale(4)  # (2 zeta'(-1) + zeta(-1))/2 * 8
    return {0: base, 1: ExactConstant.zero(), 2: -base}[p]


def c1_tangent(n: int) -> ChowClass:
    """The first Chern class of the tangent bundle as it was typed in:
    2 alpha - n x + a(-log R) + a(2 log 2pi)."""
    alpha, x = chow.gen_alpha(n), chow.gen_x(n)
    return chow.add(chow.sub(chow.scale(2, alpha), chow.scale(n, x)),
                    ChowClass(n, chow.SURFACE, analytic=[(_rat(-1), forms.log_R(n)),
                                                         (log_2pi().scale(2), RADIAL_ONE)]))


def c2_tangent(n: int) -> ChowClass:
    """The second Chern class of the tangent bundle as it was typed in:
    4 alpha x - 2(n+2) x^2 + a(2 log 2pi base) - a(log R c1_rel)
    + a(log 2pi c1_rel) - a(bott_chern_c2)."""
    l2pi = log_2pi()
    return ChowClass(
        n, chow.SURFACE,
        poly={(1, 1): _rat(4), (2, 0): _rat(-2 * (n + 2))},
        analytic=[
            (l2pi.scale(2), forms.base_form(n)),
            (_rat(-1), forms.log_R(n) * forms.c1_rel(n)),
            (l2pi, forms.c1_rel(n)),
            (_rat(-1), forms.bott_chern_c2(n)),
        ])


def c1c2_pushforward(n: int) -> ExactConstant:
    """Exact degree of the ring product c1*c2, checked against its closed form
    (n log(n+1) + 16 - 4n + 16 log 2pi)/2 before being returned.

    Its masses exist in the constant span because every top-degree term of
    the product has only double and triple poles on its log R part (checked
    with sympy at n = 3), so no dilogarithm appears.
    """
    cc = chow.arithmetic_chern_classes(n)
    value = chow.pushforward_deg(chow.mul(cc.c1_tangent, cc.c2_tangent))
    expected = (log_rational(n + 1).scale(n) + _rat(16 - 4 * n)
                + log_2pi().scale(16)).scale(Fraction(1, 2))
    if value != expected:
        raise PipelineInconsistency(
            f"c1*c2 degree {value} differs from its closed form {expected}")
    return value


def tau_p1() -> ExactConstant:
    """Torsion of the projective line: the quadratic Todd coefficient of the
    metrized tangent class 2*xhat + a(log 2pi), pushed to the degree map,
    minus the additive-genus correction on the base's curvature mass 2."""
    n = 0
    c1 = chow.add(chow.scale(2, chow.gen_x(n, chow.BASE)),
                  chow.a_class(n, log_2pi(), RADIAL_ONE, chow.BASE))
    td2 = chow.scale(Fraction(1, 12), chow.mul(c1, c1))
    deg = chow.pushforward_deg(td2)
    base_c1_mass = 2  # total curvature mass of the base tangent bundle
    r_term = R_GENUS_DEGREE1.scale(base_c1_mass)
    return deg.scale(2) - r_term


def tau_route_rr(n: int) -> Tuple[ExactConstant, ExactConstant, ExactConstant]:
    """Torsion triple (untwisted, middle twist, top twist): log Vol plus the
    c1*c2 pushforward over 12 minus the genus correction, with the middle
    twist typed in as 0 and the top twist as the sign flip."""
    c12 = c1c2_pushforward(n)
    tau = log_rational(Fraction(n + 2, 2)) + c12.scale(Fraction(1, 12)) \
        - r_genus_pushforward(0)
    tau_mid = ExactConstant.zero()
    tau_top = -tau
    return tau, tau_mid, tau_top


def graded_todd_and_characters(n: int) -> Tuple[List[ChowClass], List[List[ChowClass]]]:
    """The graded pieces [Td]_0..3 of the surface Todd class and [ch]_0..3 of
    the characters of Lambda^0, Lambda^1 and Lambda^2 of the cotangent
    bundle, each piece typed from the Chern classes."""
    cc = chow.arithmetic_chern_classes(n)
    c1, c2 = cc.c1_tangent, cc.c2_tangent
    c1sq = chow.mul(c1, c1)
    c13 = chow.mul(c1sq, c1)
    c1c2 = chow.mul(c1, c2)
    unit, zero = chow.unit(n), ChowClass(n, chow.SURFACE)
    td = [unit, chow.scale(Fraction(1, 2), c1),
          chow.scale(Fraction(1, 12), chow.add(c1sq, c2)),
          chow.scale(Fraction(1, 24), c1c2)]
    ch0 = [unit, zero, zero, zero]
    ch1 = [chow.scale(2, unit), chow.scale(-1, c1),
           chow.sub(chow.scale(Fraction(1, 2), c1sq), c2),
           chow.add(chow.scale(Fraction(-1, 6), c13), chow.scale(Fraction(1, 2), c1c2))]
    ch2 = [unit, chow.scale(-1, c1), chow.scale(Fraction(1, 2), c1sq),
           chow.scale(Fraction(-1, 6), c13)]
    return td, [ch0, ch1, ch2]


def whole_middle_twist_product(n: int) -> ChowClass:
    """Td ch(Lambda^1 T*) as one product of whole classes, the Todd class
    times 1 + e^-c1 - c2 + c1 c2 / 2."""
    cc = chow.arithmetic_chern_classes(n)
    c1, c2 = cc.c1_tangent, cc.c2_tangent
    c1sq = chow.mul(c1, c1)
    c13 = chow.mul(c1sq, c1)
    c1c2 = chow.mul(c1, c2)
    half, one = Fraction(1, 2), chow.unit(n)
    td = chow.add(chow.add(one, chow.scale(half, c1)),
                  chow.add(chow.scale(Fraction(1, 12), chow.add(c1sq, c2)),
                           chow.scale(Fraction(1, 24), c1c2)))
    exp_minus_c1 = chow.add(chow.sub(one, c1),
                            chow.sub(chow.scale(half, c1sq), chow.scale(Fraction(1, 6), c13)))
    ch1 = chow.add(chow.add(one, exp_minus_c1), chow.sub(chow.scale(half, c1c2), c2))
    return chow.mul(td, ch1)


def graded_product(td: Sequence[ChowClass], ch: Sequence[ChowClass], k: int) -> ChowClass:
    """[Td ch]_k as the sum of the piecewise products [Td]_i [ch]_{k-i}."""
    out = ChowClass(td[0].n, td[0].variety)
    for i in range(k + 1):
        out = chow.add(out, chow.mul(td[i], ch[k - i]))
    return out


def height(n: int) -> Fraction:
    return Fraction(2 * n * n + 9 * n + 12, 4)


# ---------------------------------------------------------------------------
# Curvature images
# ---------------------------------------------------------------------------


def _ddc(form: chow.FormT, n: int, variety: str):
    """dd^c of an analytic term's form by the general rule: of a 0-form h
    (None for a constant; on the base line the top form h' + u h''), of a
    (1,1)-form (a top form), and None for a top form.  chow.mul only ever
    meets 0-forms."""
    if isinstance(form, Radial):
        if form.const_value is not None:
            return None
        if variety == chow.BASE:
            dh = form.derivative()
            return Form22(n, dh + Radial.term(j=1) * dh.derivative())
        return forms.ddc(form, n)
    if isinstance(form, Form11):
        return forms.ddc_form11(form)
    return None


def omega_image(c: ChowClass) -> List[Tuple[ExactConstant, chow.FormT]]:
    """Curvature image of a class: generator curvatures plus dd^c of a-parts."""
    out: List[Tuple[ExactConstant, chow.FormT]] = []
    for mono, coeff in c.poly.items():
        form = chow._mono_curvature(c.n, c.variety, mono)
        if form is not None:
            out.append((coeff, form))
    for (_, key), form in c.forms.items():
        d = _ddc(form, c.n, c.variety)
        if d:
            out.append((chow._key_constant(key), d))
    return out


# ---------------------------------------------------------------------------
# The ring product, one product at a time
# ---------------------------------------------------------------------------


def _curvature(n: int, variety: str, mono) -> chow.FormT:
    """Curvature image of a reduced monomial, wedged from the catalog forms."""
    i, j = mono
    if variety == chow.BASE:
        return (RADIAL_ONE, chow.base_top_form(n))[i]
    factors = [forms.base_form(n)] * i + [forms.alpha_form(n)] * j
    return forms.wedge(*factors) if len(factors) == 2 else (factors or [RADIAL_ONE])[0]


def _wedge(f: chow.FormT, g: chow.FormT):
    """f ^ g by Radial and forms arithmetic; None above the top degree."""
    if isinstance(g, Radial):
        f, g = g, f
    if isinstance(f, Radial):
        return f * g
    return forms.wedge(f, g) if isinstance(f, Form11) and isinstance(g, Form11) else None


def mul(a: ChowClass, b: ChowClass, degrees=None) -> ChowClass:
    """The ring product as a sum of products formed one at a time.

    Each product of a form by a monomial's curvature image, and each
    a(f) * a(g) = a(dd^c f ^ g) (dd^c on the lower-degree factor, the mean
    of both placements for two 0-forms), is a form of its own, made by
    Radial and forms arithmetic and added to its slot; chow.mul instead sums
    each slot in one map of integer pairs.
    """
    a, b = chow.reduce(a), chow.reduce(b)
    n, variety = a.n, a.variety
    top = chow.top_degree(variety)
    keep = range(top + 1) if degrees is None else tuple(degrees)
    poly = {}
    for (i1, j1), c1 in a.poly.items():
        for (i2, j2), c2 in b.poly.items():
            if i1 + j1 + i2 + j2 in keep:
                mono = (i1 + i2, j1 + j2)
                poly[mono] = poly[mono] + c1 * c2 if mono in poly else c1 * c2
    analytic = []

    def add(degree, atom, coeff, form):
        if degree in keep and form:
            analytic.append((chow._key_constant(atom) * coeff, form))

    for left, right in ((a, b), (b, a)):
        for (degree, atom), form in left.forms.items():
            for mono, coeff in right.poly.items():
                add(degree + sum(mono), atom, coeff, _wedge(form, _curvature(n, variety, mono)))
    for (d1, atom1), f1 in a.forms.items():
        for (d2, atom2), f2 in b.forms.items():
            (dl, fl), (dh, fh) = sorted(((d1, f1), (d2, f2)), key=lambda p: p[0])
            ddc_l = _ddc(fl, n, variety) if dl + dh <= top else None
            if not ddc_l:
                continue
            if dl < dh:
                w = _wedge(ddc_l, fh)
            else:
                ddc_h = _ddc(fh, n, variety)
                if not ddc_h:
                    continue
                w = Fraction(1, 2) * (_wedge(ddc_l, fh) + _wedge(ddc_h, fl))
            add(dl + dh, atom1, chow._key_constant(atom2), w)
    return chow.reduce(ChowClass(n, variety, poly, analytic))


def linear_by_chain(pairs) -> ChowClass:
    """sum q * c over (q, class) pairs as the ring folded it before
    chow.linear: each class scaled on its own, then added left to right,
    every step a class of its own whose forms are made by Radial and forms
    arithmetic."""
    acc = None
    for q, c in pairs:
        poly = {m: coeff.scale(q) for m, coeff in c.poly.items()}
        slots = {s: q * f for s, f in c.forms.items()}
        if acc is not None:
            if (acc.n, acc.variety) != (c.n, c.variety):
                raise chow.ChowError("incompatible classes")
            summed = dict(acc.poly)
            for m, coeff in poly.items():
                summed[m] = summed.get(m, _rat(0)) + coeff
            poly = summed
            summed = dict(acc.forms)
            for s, f in slots.items():
                summed[s] = summed[s] + f if s in summed else f
            slots = summed
        acc = chow._assemble(c.n, c.variety, poly, slots)
    return acc


def per_atom_forms(pairs) -> Dict:
    """The (constant, form) pairs of one degree folded by atom: the form of
    each atom is the sum of q * form over the pairs whose constant carries
    it with weight q, by Radial and forms arithmetic; vanishing sums are
    dropped, and the atoms come in atom order."""
    out: Dict = {}
    for coeff, form in pairs:
        for atom, q in coeff.items():
            term = q * form
            out[atom] = out[atom] + term if atom in out else term
    return {a: out[a] for a in sorted(out, key=lambda a: a.sort_key()) if out[a]}


def prime_top_slots(c: ChowClass) -> List[Tuple[chow.SlotT, chow.FormT]]:
    """The top-degree (slot, form) items of c as the ring held them when it
    kept one slot per atom: the analytic pairs of the reduced class folded
    by atom, in atom order."""
    c = chow.reduce(c)
    top = chow.top_degree(c.variety)
    return [((top, atom), form) for atom, form in per_atom_forms(c.analytic).items()]


# ---------------------------------------------------------------------------
# L2 data of the harmonic generators
# ---------------------------------------------------------------------------


def l2_covolumes_sq(n: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Squared L2 covolumes of the harmonic generators of the three twists:
    the norm of the function 1 (the volume), the Gram determinant of
    (harmonic base class, alpha) with entries <b,b> = 2/(n+2), <b,alpha> = 1,
    <alpha,alpha> = n+2, and the norm of alpha^2/(n+2)."""
    w_h = Fraction(2, n + 2)
    return Fraction(n + 2, 2), w_h * (n + 2) - 1, Fraction(2, n + 2)


def hodge_l2_closed_forms(n: int) -> Dict[str, ExactConstant]:
    """The typed expected value of each L2 row of hodge_l2_checks, by name."""
    zero = ExactConstant.zero()
    return {
        "norm_sq_alpha": _rat(n + 2),
        "norm_sq_harmonic_base_class": _rat(Fraction(2, n + 2)),
        "norm_sq_h0_generator": _rat(Fraction(n + 2, 2)),
        "norm_sq_top_generator": _rat(Fraction(2, n + 2)),
        "harmonic_base_class_squared": zero,
        "primitive_part_orthogonal_to_alpha": zero,
        "star_isometry_on_mixed_pair": zero,
    }


# ---------------------------------------------------------------------------
# The Hodge star by its definition
# ---------------------------------------------------------------------------


def hodge_star_by_contraction(a: Form11) -> Form11:
    """(Lambda a) * alpha - a, as the package derived the star before it
    swapped the coefficients."""
    return forms.combine(a.n, [(1, forms.lambda_contract(a) * forms.alpha_form(a.n)), (-1, a)])


# ---------------------------------------------------------------------------
# Radial sums in Fraction weights
# ---------------------------------------------------------------------------


def fraction_linear(pairs) -> Radial:
    """sum q * f over (q, f) pairs as the package added radial functions
    before it summed integer pairs: Fraction weights in one dict, then the
    Radial constructor, which drops the zero weights and holds the integral
    ones as int."""
    acc: dict = {}
    for q, f in pairs:
        for key, c in f.terms:
            acc[key] = acc.get(key, 0) + q * Fraction(c)
    return Radial(acc)


# ---------------------------------------------------------------------------
# A normal form's exact mass and float plan in Fraction arithmetic
# ---------------------------------------------------------------------------


def _add_to(acc: dict, key, weight) -> None:
    acc[key] = acc[key] + weight if key in acc else weight


def fraction_mass(f: Radial) -> ExactConstant:
    """The exact half-line mass of f as Radial.mass derived it in Fractions,
    with its refusals: no decay, a simple pole times a log, a 1/u tail."""
    rational: Dict[Tuple[int, int], Fraction] = {}
    for key, c in f.terms:
        b, _, a, k = key
        if not k:
            raise DomainError(f"{_term_str(key, c)} has no half-line mass (it does not decay)")
        if not b:
            _add_to(rational, (a, k), c)
        elif k == 1:
            raise DomainError(f"{_term_str(key, c)}: a simple pole times a log has no "
                              "mass in the constant span (it needs a dilogarithm)")
        else:
            for (_, aa, kk), p, d in _split(0, a, k - 1, b, 1):
                _add_to(rational, (aa, kk), c * Fraction(p * b, d * a * (k - 1)))
    value, logs = Fraction(0), {}
    for (a, k), c in rational.items():
        if k == 1:
            logs[a] = Fraction(c, a)
        else:
            value += Fraction(c, a * (k - 1))
    if sum(logs.values()):
        raise DomainError(f"{f} decays like 1/u: its half-line integral diverges")
    out = ExactConstant.rational(value)
    for a, w in logs.items():
        out = out + log_rational(a).scale(w)
    return out


def fraction_plan(f: Radial) -> tuple:
    """The float plan of f as Radial.plan derived it: each log group's
    numerator over prod (1+au) as a product of Radials."""
    groups: Dict[int, Dict[int, Dict[int, Fraction]]] = {}
    for (b, j, a, k), c in f.terms:
        groups.setdefault(b, {}).setdefault(a, {})[k or j] = c
    bases = sorted({a for g in groups.values() for a in g if a})
    plan = []
    for b, g in sorted(groups.items()):
        simple = [a for a in bases if 1 in g.get(a, {})]
        numerator = Radial({**{(0, j, 0, 0): c for j, c in g.get(0, {}).items()},
                            **{(0, 0, a, 1): g[a][1] for a in simple}})
        for a in simple:  # times prod (1 + au): a polynomial
            numerator = numerator * Radial({(0, 0, 0, 0): 1, (0, 1, 0, 0): a})
        higher = tuple((bases.index(a),
                        tuple(_horner({k: c for k, c in g[a].items() if k > 1}, 2)))
                       for a in bases if max(g.get(a, {0: 0})) > 1)
        plan.append((float(b), tuple(_horner({j: c for (_, j, _, _), c in numerator.terms}, 0)),
                     tuple(bases.index(a) for a in simple), higher))
    return tuple(float(a) for a in bases), tuple(plan)


# ---------------------------------------------------------------------------
# The interpretive evaluator of a radial function
# ---------------------------------------------------------------------------


def _horner(weights: Dict[int, Fraction], low: int) -> list:
    """Float coefficients of the powers low..max, highest first."""
    top = max(weights, default=low - 1)
    return [float(weights.get(p, 0)) for p in range(top, low - 1, -1)]


def interpretive_evaluator(terms) -> Callable[[float], float]:
    """Per log factor b: the powers of u and the simple poles over their
    common denominator prod (1+au), and a Horner sum in each 1/(1+au) for the
    higher poles, read by a loop at every point."""
    groups: Dict[int, Dict[int, Dict[int, Fraction]]] = {}
    for (b, j, a, k), c in terms:
        groups.setdefault(b, {}).setdefault(a, {})[k or j] = c
    bases = sorted({a for g in groups.values() for a in g if a})
    plan = []
    for b, g in sorted(groups.items()):
        simple = [a for a in bases if 1 in g.get(a, {})]
        numerator = Radial({**{(0, j, 0, 0): c for j, c in g.get(0, {}).items()},
                            **{(0, 0, a, 1): g[a][1] for a in simple}})
        for a in simple:  # times prod (1 + au): a polynomial
            numerator = numerator * Radial({(0, 0, 0, 0): 1, (0, 1, 0, 0): a})
        plan.append((b, _horner({j: c for (_, j, _, _), c in numerator.terms}, 0),
                     [bases.index(a) for a in simple],
                     [(bases.index(a), _horner({k: c for k, c in g[a].items() if k > 1}, 2))
                      for a in bases if max(g.get(a, {0: 0})) > 1]))

    def fn(u: float) -> float:
        xs = [1.0 / (1.0 + a * u) for a in bases]
        total = 0.0
        for b, numerator, simple, higher in plan:
            v = 0.0
            for c in numerator:
                v = v * u + c
            for i in simple:
                v = v * xs[i]
            for i, cs in higher:
                x, h = xs[i], 0.0
                for c in cs:
                    h = h * x + c
                v = v + h * x * x
            total = total + (v * math.log1p(b * u) if b else v)
        return total

    return fn


def interpretive_compactified(f: Radial, name: str = "") -> Callable[[float], float]:
    """The half-line integrand of f after u = t / (1 - t), one node t at a
    time, with the message of a non-finite value."""
    fn = interpretive_evaluator(f.terms)

    def g(t: float) -> float:
        s = 1.0 - t
        if s <= 0.0:
            return 0.0
        u = t / s
        v = fn(u)
        if not math.isfinite(v):
            raise DomainError(f"{_label(f, name)}: integrand not finite at u={u!r}")
        return v / (s * s)

    return g
