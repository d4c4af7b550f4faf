"""Graded arithmetic intersection classes for the ruled-surface model.

A class is a polynomial in the two arithmetic generators

    xhat   (base hyperplane, curvature the base Fubini-Study form)
    ahat   (tautological class, curvature alpha)

plus an analytic part: a sum of terms a(constant * form), where the form is a
radial 0-form, an invariant (1,1)-form, or a top form.  Classes live either
on the surface model (arithmetic dimension 3) or on the base projective-line
model (arithmetic dimension 2).

The analytic part is held as one form per degree and ring constant, summed
in the normal form of the coefficients, so equally assembled classes have
equal parts whatever the order of assembly.  The ring constants are the
atoms with log(2 pi) for log(pi) and R1 = 2 zeta'(-1) + zeta(-1) for
zeta'(-1), keyed by the atoms they replace: the pipelines attach forms to no
other constants, so each such form is wedged and built once.  Each slot is
summed in integer (numerator, denominator) pairs and built once: a product
sums its wedges and curvature images in radial._mul_into's maps and rewrites
its own xhat^2 and ahat^2 monomials into them (_normalised, shared with
reduce); a rewrite and linear (which add, sub and scale call) sum in
radial._add_into's pairs.  A slot that one form fills alone, with weight 1,
keeps that form.  In top degree a(g) depends only on the mass of g (every
exact form integrates to 0), so top-degree parts compare by their exact
mass.  Classes compare, and test for zero, by their normal forms.

The rewrite system reduces every polynomial to the normal form with
exponents at most 1 in each generator:

    xhat^2            -> a(base form)
    ahat^2            -> (n+2) xhat ahat + a(alpha - (n+1) base - R * base)

with the analytic remainder wedged against the curvature image of whatever
monomial multiplies the relation.  Products of analytic terms use
a(eta) * a(eta') = a(dd^c eta ^ eta') with dd^c on the lower-degree factor
(representatives differ by im d' + im d'', which every degree map kills).
Analytic terms have degree at least 1, so within the arithmetic dimension
that lower factor is always a 0-form: dd^c is taken of 0-forms only (on
the base line, a top form), and a constant has none, so its products with
analytic terms vanish.  Two 0-forms take the average of both placements;
in top degree only the mass counts, which by Stokes does not depend on the
placement.  The ring is truncated at the arithmetic dimension: a product
above it vanishes, so mixed-degree classes such as Todd classes and Chern
characters multiply as whole classes, and a product can be asked for in
chosen degrees only.

The degree map halves the exact total mass of the top-degree analytic part,
summed over the ring's slots (the ring is exact and integrates nothing; a
check that wants the same degree by quadrature folds over top_slots); no
finite-place contributions are modeled, because every class produced by
the pipelines reduces to archimedean terms.  The height is such a degree,
by two pipelines: of the second Segre class, and of the polarization cube.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from . import forms, radial
from .constants import (LOG_PI, ONE, ZETA_M1, ZETA_PRIME_M1, ConstantAtom, ExactConstant,
                        log_2pi, log_prime_atom)
from .forms import Form11, Form22
from .radial import RADIAL_ONE, Radial

SURFACE = "S_n"
BASE = "P1"

# Degree-1 coefficient of the additive genus with zeta-derivative values; both
# torsion routes correct by it.
R_GENUS_DEGREE1 = ExactConstant.atom(ZETA_PRIME_M1, 2) + ExactConstant.atom(ZETA_M1)

# The constants of the slot keys that _key_constant does not build from the atom.
_KEY_CONSTANT = {ONE: ExactConstant.rational(1), LOG_PI: log_2pi(), ZETA_PRIME_M1: R_GENUS_DEGREE1}

MonoT = Tuple[int, int]  # exponents of (xhat, ahat)
SlotT = Tuple[int, ConstantAtom]  # (degree, ring constant key) of an analytic part


class ChowError(Exception):
    """Base error for the intersection engine."""


class IncompleteReduction(ChowError):
    """A top-degree class kept a non-analytic monomial after rewriting."""


class PipelineInconsistency(ChowError):
    """An internal identity of the pipelines failed to hold exactly."""


def base_top_form(n: int) -> Form22:
    """The base Fubini-Study form as a top form of the base model, in the
    line's own radial variable: g = 1/(1+u)^2, of unit mass."""
    return Form22(n, forms.B)


FormT = Union[Radial, Form11, Form22]


def top_degree(variety: str) -> int:
    """The arithmetic dimension of a model: 3 on the surface, 2 on the base."""
    return 3 if variety == SURFACE else 2


def _form_degree(form: FormT, variety: str) -> int:
    """Arithmetic degree of a(form): 0-forms 1, (1,1)-forms 2, top forms the
    top degree of their model."""
    if isinstance(form, Radial):
        return 1
    return 2 if isinstance(form, Form11) else top_degree(variety)


def _ec(value) -> ExactConstant:
    if isinstance(value, ExactConstant):
        return value
    return ExactConstant.rational(value)


def _render_mono(mono: MonoT) -> str:
    i, j = mono
    bits = []
    if i:
        bits.append("xhat" + (f"^{i}" if i > 1 else ""))
    if j:
        bits.append("ahat" + (f"^{j}" if j > 1 else ""))
    return "*".join(bits) or "1"


def _parts(form: FormT) -> tuple:
    """The radial coefficients of a form."""
    return ((form,) if isinstance(form, Radial) else (form.fx, form.fphi)
            if isinstance(form, Form11) else (form.g,))


def _ring_items(coeff: ExactConstant):
    """The (key, q) pairs of coeff in the ring constants, by the triangular
    change log(pi) = log(2 pi) - log(2), zeta'(-1) = (R1 - zeta(-1)) / 2."""
    c = coeff.coeffs
    if LOG_PI in c or ZETA_PRIME_M1 in c:
        lp, zp = c.get(LOG_PI, 0), Fraction(c.get(ZETA_PRIME_M1, 0), 2)
        coeff -= ExactConstant({log_prime_atom(2): lp, ZETA_PRIME_M1: zp, ZETA_M1: zp})
    return coeff.items()


def _key_constant(key: ConstantAtom, q=1) -> ExactConstant:
    """q times the constant that key stands for: log(2 pi), R1 or the atom."""
    c = _KEY_CONSTANT.get(key)
    return ExactConstant.atom(key, q) if c is None else c.scale(q)


def _fill(fills: dict, coeff: ExactConstant, form, variety: str) -> None:
    """fills += a(coeff * form): one (q, form) fill of the slot (degree, key)
    per ring constant of coeff; a vanishing form fills nothing."""
    if form:
        degree = _form_degree(form, variety)
        for key, q in _ring_items(coeff):
            fills.setdefault((degree, key), []).append((q, form))


def _built(n: int, kind, maps) -> FormT:
    parts = [radial.built(m) for m in maps]
    return parts[0] if kind is Radial else kind(n, *parts)


def _summed(n: int, fills: dict) -> Dict[SlotT, FormT]:
    """The form of each slot, the sum of q * form over its fills, summed in
    the integer pairs of radial._add_into and built once; a form that fills
    its slot alone with q = 1 is kept as it is."""
    out: Dict[SlotT, FormT] = {}
    for slot, items in fills.items():
        q, form = items[0]
        if len(items) == 1 and q == 1:
            out[slot] = form
            continue
        maps = [{} for _ in _parts(form)]
        for q, form in items:
            for m, part in zip(maps, _parts(form)):
                radial._add_into(m, part.triples, q)
        out[slot] = _built(n, type(form), maps)
    return out


# ---------------------------------------------------------------------------
# The class type
# ---------------------------------------------------------------------------


class ChowClass:
    """Immutable normalized class: polynomial part plus analytic a(...) terms."""

    __slots__ = ("n", "variety", "poly", "forms")

    def __init__(self, n: int, variety: str,
                 poly: Optional[Dict[MonoT, ExactConstant]] = None,
                 analytic: Optional[Iterable[Tuple[ExactConstant, FormT]]] = None):
        if variety not in (SURFACE, BASE):
            raise ValueError(f"unknown variety tag {variety!r}")
        poly = {m: _ec(coeff) for m, coeff in (poly or {}).items()}
        if variety == BASE and any(j for _, j in poly):
            raise ValueError("the base model has no tautological generator")
        self.n, self.variety = n, variety
        self.poly = {m: poly[m] for m in sorted(poly) if not poly[m].is_zero}
        fills: dict = {}
        for coeff, form in analytic or ():
            _fill(fills, _ec(coeff), form, variety)
        self.forms = _clean(_summed(n, fills)) if fills else {}

    # -- inspection ---------------------------------------------------------

    def _canonical(self) -> Dict[SlotT, object]:
        """The analytic part with each top-degree form replaced by its mass."""
        top = top_degree(self.variety)
        out: Dict[SlotT, object] = {}
        for slot, form in self.forms.items():
            if slot[0] != top:
                out[slot] = form
            elif not form.total_integral.is_zero:
                out[slot] = form.total_integral
        return out

    @property
    def is_zero(self) -> bool:
        r = reduce(self)
        return not r.poly and not r._canonical()

    @property
    def analytic(self) -> Tuple[Tuple[ExactConstant, FormT], ...]:
        """The analytic part as (constant, form) pairs, one per distinct form,
        the constant collecting every ring constant that carries the form (so
        log(2 pi) and R1 show as such); a constant 0-form, or a top form of
        nonzero rational mass, is shown as that value times the unit form."""
        merged: Dict[FormT, ExactConstant] = {}
        for (_, key), form in self.forms.items():
            q = _content(form)
            form = form if q == 1 else (1 / q) * form
            c = _key_constant(key, q)
            merged[form] = merged[form] + c if form in merged else c
        return tuple((c, f) for f, c in merged.items() if not c.is_zero)

    def degree_part(self, k: int) -> "ChowClass":
        return _assemble(self.n, self.variety,
                         {m: c for m, c in self.poly.items() if sum(m) == k},
                         {s: f for s, f in self.forms.items() if s[0] == k})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        if (self.n, self.variety) != (other.n, other.variety):
            return False
        a, b = reduce(self), reduce(other)
        return a.poly == b.poly and a._canonical() == b._canonical()

    def __repr__(self) -> str:
        poly = " + ".join(f"({c})*{_render_mono(m)}" for m, c in self.poly.items())
        ana = " + ".join(f"a(({c})*{f!r})" for c, f in self.analytic)
        body = " + ".join(p for p in (poly, ana) if p) or "0"
        return f"ChowClass[{self.variety}, n={self.n}]({body})"


def _content(form: FormT) -> Fraction:
    if isinstance(form, Radial):
        value = form.const_value
    elif isinstance(form, Form22):
        mass = form.total_integral
        value = mass.rational_part if mass.is_rational else None
    else:
        value = None
    return value or Fraction(1)


def _clean(slots: Dict[SlotT, FormT]) -> Dict[SlotT, FormT]:
    return {s: slots[s] for s in sorted(slots, key=lambda s: (s[0], s[1].sort_key()))
            if slots[s]}


def _assemble(n: int, variety: str, poly: Dict[MonoT, ExactConstant],
              slots: Dict[SlotT, FormT]) -> ChowClass:
    """The class of summed parts, made directly: monomials sorted, zeros dropped."""
    out = ChowClass.__new__(ChowClass)
    out.n, out.variety = n, variety
    out.poly = {m: poly[m] for m in sorted(poly) if not poly[m].is_zero}
    out.forms = _clean(slots)
    return out


# -- builders ----------------------------------------------------------------


def unit(n: int, variety: str = SURFACE) -> ChowClass:
    return ChowClass(n, variety, {(0, 0): _ec(1)})


def gen_x(n: int, variety: str = SURFACE) -> ChowClass:
    return ChowClass(n, variety, {(1, 0): _ec(1)})


def gen_alpha(n: int) -> ChowClass:
    return ChowClass(n, SURFACE, {(0, 1): _ec(1)})


def a_class(n: int, coeff, form: FormT, variety: str = SURFACE) -> ChowClass:
    return ChowClass(n, variety, analytic=[(_ec(coeff), form)])


def linear(pairs: Iterable[Tuple[Union[int, Fraction], ChowClass]]) -> ChowClass:
    """The rational linear combination sum q * c over (q, class) pairs, at
    least one, in one pass: each coefficient is summed once and each slot is
    built once, and a slot that one pair alone fills, with q = 1, keeps its
    form."""
    pairs = list(pairs)
    first = pairs[0][1]
    poly: Dict[MonoT, ExactConstant] = {}
    fills: dict = {}
    for q, c in pairs:
        _check_compatible(first, c)
        for m, coeff in c.poly.items():
            coeff = coeff.scale(q)
            poly[m] = poly[m] + coeff if m in poly else coeff
        for slot, form in c.forms.items():
            fills.setdefault(slot, []).append((q, form))
    return _assemble(first.n, first.variety, poly, _summed(first.n, fills))


def add(a: ChowClass, b: ChowClass) -> ChowClass:
    return linear([(1, a), (1, b)])


def scale(q, a: ChowClass) -> ChowClass:
    """q * a for a rational q; a constant with atoms is refused."""
    q = _ec(q)
    if not q.is_rational:
        raise ChowError(f"scale takes a rational scalar, not {q}")
    return linear([(q.rational_part, a)])


def sub(a: ChowClass, b: ChowClass) -> ChowClass:
    return linear([(1, a), (-1, b)])


def _check_compatible(a: ChowClass, b: ChowClass) -> None:
    if a.n != b.n or a.variety != b.variety:
        raise ChowError(f"incompatible classes: ({a.n},{a.variety}) vs ({b.n},{b.variety})")


# ---------------------------------------------------------------------------
# Curvature images and form products
# ---------------------------------------------------------------------------


def _wedge_into(sums: dict, slot, f: FormT, g: FormT, q) -> None:
    """sums[slot] += q * (f ^ g) within the top degree (see mul for sums)."""
    if isinstance(g, Radial):
        f, g = g, f
    if isinstance(f, Form11) and isinstance(g, Form11):
        forms.wedge_into(sums.setdefault(slot, (Form22, [{}]))[1][0], f, g, q)
    elif isinstance(f, Radial):
        parts = _parts(g)
        for m, part in zip(sums.setdefault(slot, (type(g), [{} for _ in parts]))[1], parts):
            radial._mul_into(m, f.triples, part.triples, q)


def _product(n: int, f: FormT, g: FormT) -> Optional[FormT]:
    """The form f ^ g, or None when it vanishes."""
    sums: dict = {}
    _wedge_into(sums, None, f, g, 1)
    return (sums and _built(n, *sums[None])) or None


@lru_cache(maxsize=16)
def _mono_curvature(n: int, variety: str, mono: MonoT) -> Optional[FormT]:
    """Curvature image of a generator monomial (None when it vanishes); a
    product of generators wedges the image of one factor less with the
    generator's own entry."""
    i, j = mono
    if variety == BASE:
        return (RADIAL_ONE, base_top_form(n), None)[min(i, 2)]
    if i + j <= 1:
        return forms.base_form(n) if i else forms.alpha_form(n) if j else RADIAL_ONE
    rest, last = ((i - 1, j), (1, 0)) if i else ((0, j - 1), (0, 1))
    rest = _mono_curvature(n, variety, rest)
    return rest and _product(n, rest, _mono_curvature(n, variety, last))


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _relation_image(n: int, mono: MonoT) -> Optional[FormT]:
    """The analytic side of the degree-2 relation times the curvature image
    of mono."""
    if mono == (0, 0):
        return forms.degree2_relation_rhs(n)
    rest = _mono_curvature(n, SURFACE, mono)
    return rest and _product(n, _relation_image(n, (0, 0)), rest)


def _trace_step(trace: list, rule: str, before: str, after: str) -> None:
    """Record a rewrite step; callers render its strings only when a trace is kept."""
    trace.append({"rule": rule, "before": before, "after": after})


def reduce(c: ChowClass, trace: Optional[list] = None) -> ChowClass:
    """Normal form: exponents at most 1, relations pushed into analytic terms.
    A class already in normal form is returned as it is (classes are
    immutable), with nothing added to the trace."""
    if all(i <= 1 and j <= 1 for i, j in c.poly):
        return c
    return _normalised(c.n, c.variety, c.poly, dict(c.forms), {}, trace)


def _normalised(n: int, variety: str, poly: Dict[MonoT, ExactConstant],
                slots: Dict[SlotT, FormT], sums: dict, trace: Optional[list] = None) -> ChowClass:
    """The class of poly, built slots and a product's sums (see mul), each monomial
    with an exponent above 1 rewritten into the sums' pair maps or a slot's form."""
    out_poly: Dict[MonoT, ExactConstant] = {}
    fills: dict = {}
    stack: List[Tuple[MonoT, ExactConstant]] = list(poly.items())
    while stack:
        (i, j), coeff = stack.pop()
        if coeff.is_zero:
            continue
        if variety == SURFACE and j >= 2:
            stack.append(((i + 1, j - 1), coeff * Fraction(n + 2)))
            _fill(fills, coeff, _relation_image(n, (i, j - 2)), variety)
            if trace is not None:
                _trace_step(trace, "alpha_square", _render_mono((i, j)),
                            f"({n}+2)*{_render_mono((i + 1, j - 1))} "
                            f"+ a(relation_rhs*{_render_mono((i, j - 2))})")
        elif i >= 2:
            # a(base form ^ the image of x^(i-2) a^j), the image of x^(i-1) a^j
            _fill(fills, coeff, _mono_curvature(n, variety, (i - 1, j)), variety)
            if trace is not None:
                _trace_step(trace, "x_square", _render_mono((i, j)),
                            f"a(base*{_render_mono((i - 2, j))})")
        else:
            prev = out_poly.get((i, j))
            out_poly[(i, j)] = coeff + prev if prev else coeff
    for slot, items in fills.items():
        if slot in slots:  # only the slots that rewriting filled are rebuilt
            items.append((1, slots[slot]))
    for slot, (kind, maps) in sums.items():
        if len(slot) == 2:
            for q, form in fills.pop(slot, ()):
                for m, part in zip(maps, _parts(form)):
                    radial._add_into(m, part.triples, q)
            slots[slot] = _built(n, kind, maps)
        elif any(p for m in maps for p, _ in m.values()):
            _key_constant(slot[1]) * _key_constant(slot[2])  # raises NonRationalProduct
    slots.update(_summed(n, fills))
    return _assemble(n, variety, out_poly, slots)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def mul(a: ChowClass, b: ChowClass,
        degrees: Optional[Iterable[int]] = None) -> ChowClass:
    """Intersection product in the given degrees, reduced to normal form.

    degrees defaults to every degree up to the arithmetic dimension (3 on the
    surface, 2 on the base line), above which everything vanishes.  Only the
    parts of the asked degrees are formed: monomials by the sum of their
    exponents, a form times a curvature image, and two analytic terms, by the
    degree of the result.  Reduction keeps degrees, so the product equals
    those degree parts of the whole product; it rewrites into the same maps,
    so each slot is built once.  A square mul(c, c) reduces c and takes its
    dd^c once.
    """
    _check_compatible(a, b)
    same = a is b
    a = reduce(a)
    b = a if same else reduce(b)
    n, variety = a.n, a.variety
    top = top_degree(variety)
    keep = range(top + 1) if degrees is None else tuple(degrees)
    poly: Dict[MonoT, ExactConstant] = {}
    for (i1, j1), c1 in a.poly.items():
        for (i2, j2), c2 in b.poly.items():
            if i1 + j1 + i2 + j2 not in keep:
                continue
            mono = (i1 + i2, j1 + j2)
            coeff = c1 * c2
            prev = poly.get(mono)
            poly[mono] = coeff + prev if prev else coeff
    # sums: the slot of _pair_slot -> (form type, one radial._mul_into map
    # per radial coefficient); each monomial's curvature image is wedged
    # with the weight of each ring constant of its coefficient
    sums: dict = {}
    for left, right in ((a, b), (b, a)):
        images = [(sum(mono), _mono_curvature(n, variety, mono), _ring_items(coeff))
                  for mono, coeff in right.poly.items()]
        for (deg_f, key_f), form in left.forms.items():
            for deg_c, image, ring_items in images:
                if image and deg_f + deg_c in keep:
                    for key_c, q in ring_items:
                        _wedge_into(sums, _pair_slot(deg_f + deg_c, key_f, key_c),
                                    form, image, q)
    ddc_a = _zero_form_ddcs(a)
    ddc_b = ddc_a if same else _zero_form_ddcs(b)
    for slot1, f1 in a.forms.items():
        for slot2, f2 in b.forms.items():
            d1, d2 = slot1[0], slot2[0]
            if d1 + d2 not in keep:
                continue
            slot = _pair_slot(d1 + d2, slot1[1], slot2[1])
            df, dg = ddc_a.get(slot1), ddc_b.get(slot2)
            if d1 == d2 and df and dg:
                _wedge_into(sums, slot, df, f2, Fraction(1, 2))
                _wedge_into(sums, slot, dg, f1, Fraction(1, 2))
            elif d1 < d2 and df:
                _wedge_into(sums, slot, df, f2, 1)
            elif d1 > d2 and dg:
                _wedge_into(sums, slot, dg, f1, 1)
    return _normalised(n, variety, poly, {}, sums)


def _zero_form_ddcs(c: ChowClass) -> dict:
    """dd^c of each non-constant 0-form of c, by slot: the chain rule's (1,1)-form
    on the surface, its phi part h' + u h'' (the line's own) as a base top form."""
    out = {s: forms.ddc(f, c.n) for s, f in c.forms.items() if s[0] == 1 and f.const_value is None}
    return out if c.variety == SURFACE else {s: Form22(c.n, d.fphi) for s, d in out.items()}


def _pair_slot(degree: int, a: ConstantAtom, b: ConstantAtom) -> tuple:
    """The slot of a product of terms of atoms a and b: (degree, a * b) when
    one atom is 1, else (degree, a, b), whose sum must vanish, for a product
    of two transcendental atoms lies outside the span."""
    return (degree, b) if a is ONE else (degree, a) if b is ONE else (degree, a, b)


# ---------------------------------------------------------------------------
# Pushforwards and the degree map
# ---------------------------------------------------------------------------


def pushforward_base(c: ChowClass) -> ChowClass:
    """Pushforward along the ruling, from the surface model to the base model."""
    if c.variety != SURFACE:
        raise ChowError("pushforward_base expects a surface class")
    c = reduce(c)
    # pullback monomials push to zero; by the projection formula x^i a goes
    # to x^i (alpha has fiber degree 1), one monomial each in normal form
    poly = {(i, 0): coeff for (i, j), coeff in c.poly.items() if j}
    fills: dict = {}
    for (degree, key), form in c.forms.items():
        # 0-forms push to degree -2; the rest by their exact fiber masses
        if degree == 2:
            _fill(fills, _key_constant(key) * form.fiber_integral, RADIAL_ONE, BASE)
        elif degree == 3:
            _fill(fills, _key_constant(key) * form.total_integral,
                  base_top_form(c.n), BASE)
    return _assemble(c.n, BASE, poly, _summed(c.n, fills))


def _top_forms(c: ChowClass, trace: Optional[list]):
    """The ring's items of the reduced class, refused unless all of top degree."""
    c = reduce(c, trace)
    top = top_degree(c.variety)
    if any(sum(m) != top for m in c.poly) or any(d != top for d, _ in c.forms):
        raise ChowError("pushforward_deg expects a homogeneous top-degree class")
    if c.poly:
        raise IncompleteReduction(
            f"non-analytic monomials {list(c.poly)} survived reduction")
    return c.forms.items()


def top_slots(c: ChowClass):
    """The items of _top_forms with one slot per atom, in atom order, each form
    re-summed exactly; a check by quadrature of the degree folds over these."""
    fills: dict = {}
    for (degree, key), form in _top_forms(c, None):
        for atom, q in _key_constant(key).items():
            fills.setdefault((degree, atom), []).append((q, form))
    return _clean(_summed(c.n, fills)).items()


def pushforward_deg(c: ChowClass, trace: Optional[list] = None) -> ExactConstant:
    """Arithmetic degree of a top-degree class: half the exact total mass,
    summed over the ring's own slots."""
    total = ExactConstant.zero()
    for (_, key), form in _top_forms(c, trace):
        total = total + _key_constant(key) * form.total_integral
    return total.scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Characteristic classes and pipelines
# ---------------------------------------------------------------------------


class ChernClasses(NamedTuple):
    """Arithmetic Chern classes of the metrized tangent bundles."""

    n: int
    c1_relative: ChowClass     # relative tangent bundle, curvature metric
    c1_base: ChowClass         # pulled-back base tangent bundle
    c1_tangent: ChowClass      # full tangent bundle: the sum of the two above
    c2_tangent: ChowClass      # Whitney: c1_relative * c1_base - a(bott_chern_c2)


def arithmetic_chern_classes(n: int) -> ChernClasses:
    """The classes of 0 -> T_rel -> T S_n -> pi^* T_P1 -> 0: c1 and c2 of the
    tangent bundle by the Whitney formula, corrected by the Bott-Chern class
    of the two metrics."""
    l2pi = log_2pi()
    c1rel = ChowClass(n, SURFACE, {(0, 1): _ec(2), (1, 0): _ec(-(n + 2))},
                      [(l2pi, RADIAL_ONE)])
    c1base = ChowClass(n, SURFACE, {(1, 0): _ec(2)},
                       [(_ec(-1), forms.log_R(n)), (l2pi, RADIAL_ONE)])
    c2tan = linear([(1, mul(c1rel, c1base)), (-1, a_class(n, 1, forms.bott_chern_c2(n)))])
    return ChernClasses(n, c1rel, c1base, linear([(1, c1rel), (1, c1base)]), c2tan)


def euler_sequence_chern(n: int) -> Tuple[ChowClass, ChowClass]:
    """Chern classes of the rank-2 bundle on the base: (1+x)(1+(n+1)x) split."""
    c1 = ChowClass(n, BASE, {(1, 0): _ec(n + 2)})
    c2 = ChowClass(n, BASE, {(2, 0): _ec(n + 1)})
    return c1, c2


def segre_classes(n: int, trace: Optional[list] = None) -> Tuple[ChowClass, ChowClass]:
    """Pushforward Segre classes of the twisted rank-2 bundle, on the base model.

    The polynomial parts are those of the inverse of the Euler-sequence
    Chern class, s1 = c1 and s2 = c1^2 - c2, read off its coefficients.  The
    analytic parts come from the pushed-forward degree-2 relation, with the
    two secondary-form masses derived from the forms catalog:
    s1 = -(fiber mass of the relative Fubini-Study form) = -1, and the
    degree-2 mass  -(total of omega_rel ^ alpha) = -(n+2)/2.
    """
    s1_mass = -forms.omega_form(n).fiber_integral
    if s1_mass != _ec(-1):
        raise PipelineInconsistency("fiber mass of the relative form must be 1")
    s2_mass = -forms.wedge(forms.omega_form(n), forms.alpha_form(n)).total_integral
    c1, c2 = euler_sequence_chern(n)
    c1_x = c1.poly[(1, 0)]
    s1p = ChowClass(n, BASE, c1.poly, analytic=[(-s1_mass, RADIAL_ONE)])
    s2p = ChowClass(
        n, BASE,
        poly={(2, 0): c1_x * c1_x - c2.poly[(2, 0)]},
        analytic=[
            (-s1_mass * c1_x, base_top_form(n)),  # -c1 a(x * s1)
            (-s2_mass, base_top_form(n)),         # -a(s2 mass * x)
        ])
    return reduce(s1p, trace), reduce(s2p, trace)


def height_class(n: int, trace: Optional[list] = None) -> ChowClass:
    """alpha-hat cubed, the polarization cube whose degree is the height."""
    return reduce(ChowClass(n, SURFACE, {(0, 3): _ec(1)}), trace)


def _rational(value: ExactConstant, what: str, n: int) -> Fraction:
    if not value.is_rational:
        raise PipelineInconsistency(f"{what} at n={n} is not rational: {value}")
    return value.rational_part


def height(n: int, trace: Optional[list] = None) -> Fraction:
    """Arithmetic height of the polarized surface model, as an exact rational;
    the rewrite steps are appended to trace when one is given."""
    _, s2 = segre_classes(n, trace)
    return _rational(pushforward_deg(s2, trace), "the height", n)


def height_via_polarization_cube(n: int) -> Fraction:
    """Independent route: degree of the cube of the polarization class."""
    return _rational(pushforward_deg(height_class(n)), "the height", n)


def todd(c1: ChowClass) -> ChowClass:
    """Arithmetic Todd class of a metrized line bundle with first Chern class
    c1: 1 + c1/2 + c1^2/12 (the cubic coefficient of x/(1-e^-x) is 0, and
    higher powers vanish above the arithmetic dimension)."""
    return linear([(1, unit(c1.n, c1.variety)), (Fraction(1, 2), c1),
                   (Fraction(1, 12), mul(c1, c1))])


def torsion_form(c1_relative: ChowClass) -> ExactConstant:
    """Degree-0 part of the fibration torsion form, through the Todd
    pushforward of the relative class c1_relative; raises unless the degree-2
    part and the mass of the squared relative class vanish exactly."""
    n = c1_relative.n
    td = todd(c1_relative)
    pushed = pushforward_base(td)

    rel = forms.c1_rel(n)
    r_class = a_class(n, R_GENUS_DEGREE1, rel)
    r_pushed = pushforward_base(mul(td, r_class))

    result = linear([(1, pushed), (-1, r_pushed), (-1, unit(n, BASE))])
    if result.poly:
        raise PipelineInconsistency(
            f"torsion form kept polynomial terms {list(result.poly)}")
    degree2 = result.degree_part(2)
    if not degree2.is_zero:
        raise PipelineInconsistency(
            f"degree-2 part of the torsion form did not vanish: {degree2}")
    rel_sq = forms.wedge(rel, rel).total_integral
    if not rel_sq.is_zero:
        raise PipelineInconsistency(
            f"the squared relative class has mass {rel_sq}, not 0")
    value = ExactConstant.zero()
    for (degree, key), form in result.forms.items():
        if degree == 1:
            if form.const_value is None:
                raise PipelineInconsistency("degree-1 part is not a constant multiple")
            value = value + _key_constant(key, form.const_value)
    return value
