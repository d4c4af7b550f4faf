"""Radial functions and their half-line integrals.

Every integral over the surface or over a fiber reduces, by unitary
invariance and the substitution u = |z|^2 * |frame|^(2n), to an integral
over u in [0, inf).  Every coefficient of the form calculus is a finite sum

    c * u^j * (1 + a u)^-k * log(1 + b u)^e,        e in {0, 1},

with rational c and positive integers a, b (1 and n+1 in the catalog).
Radial holds such a sum in its unique partial-fraction form, so one object
evaluates a float, is its own hashable key, and has an exact half-line mass
in the constant span.  One rule, _split, puts every term, product,
derivative and by-parts integrand in that form; partial fractions then
integrate the rational part, and one integration by parts turns
log(1+bu)/(1+au)^k into a rational integrand.  A simple pole times a log
would need a dilogarithm and is refused.

Sums, differences, scalar multiples and linear combinations add unreduced
integer (numerator, denominator) pairs per key in _add_into, and products in
_mul_into, which shares its pair update; built then makes the Radial once,
one gcd per key.  The exact mass sums the same pairs and makes one Fraction
per atom of the constant span, and the float plan builds its numerators as
coefficient lists; Fraction stays in the terms and the partial-fraction rule.

A Radial evaluates floats through its plan, the exact-to-float set-up of
Horner sums per log factor, which the kernels module compiles into a
kernel: straight-line Python generated once per shape of plan.  The kernel
evaluates a panel, a list of points, in one call; Radial.fn is a one-point
panel.

integrate_halfline integrates a Radial numerically after the compactifying
substitution u = t / (1 - t), which maps the half-line onto (0, 1).  In the t
variable an integrand of decay order d behaves like (1-t)^(d-2) near 1, so
adaptive Gauss-Kronrod (and tanh-sinh as an alternative) need no special
endpoint treatment; each rule hands the kernel its nodes a panel at a time.
The pole of (1+(n+1)u)^-k sits at t = -1/n, so its features shrink as n
grows: some integral of verify stalls from n = 400 under Gauss-Kronrod, and
at n = 10^6 under tanh-sinh.  The rules live in the quadrature module,
imported on the first integration, and the kernels in the kernels module,
imported on the first float evaluation, so a process that only computes
exactly compiles neither; this module decides whether a result passed or
stalled under the settings module's configuration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .constants import ONE, ExactConstant, _prime_logs
from .settings import (DEFAULT_CONFIG, PASS_TOL_FACTOR, SCHEMES,  # noqa: F401 (re-exported)
                       NonConvergence, QuadratureConfig, _fmt)

TermKey = Tuple[int, int, int, int]  # (b, j, a, k): u^j (1+au)^-k log(1+bu)^[b > 0]
_CONST: TermKey = (0, 0, 0, 0)


class DomainError(ValueError):
    """Integrand is not finite on the domain, or not integrable as declared."""


# ---------------------------------------------------------------------------
# The partial-fraction rule
# ---------------------------------------------------------------------------


def _add_to(acc: dict, key, weight) -> None:
    if key in acc:
        acc[key] += weight
    else:
        acc[key] = weight


def _weighted(pairs) -> tuple:
    """(key, weight) pairs without the zero weights, integral ones as int."""
    return tuple((key, w.numerator if w.denominator == 1 else w) for key, w in pairs if w)


@lru_cache(maxsize=256)
def _split(j: int, a: int, k: int, b: int = 0, q: int = 0) -> tuple:
    """u^j (1+au)^-k (1+bu)^-q as canonical ((j, a, k), weight) pairs.

    Equal bases merge; while two distinct poles remain, one exponent drops
    by 1 = (b (1+au) - a (1+bu)) / (b - a); then j drops by
    u = ((1+au) - 1) / a."""
    if q and (not k or a == b):
        a, k, q = b, k + q, 0
    if q:
        parts = ((Fraction(b, b - a), (j, a, k - 1, b, q)),
                 (Fraction(-a, b - a), (j, a, k, b, q - 1)))
    elif j and k:
        parts = ((Fraction(1, a), (j - 1, a, k - 1)), (Fraction(-1, a), (j - 1, a, k)))
    else:
        return (((j, a, k) if k else (j, 0, 0), 1),)
    acc: dict = {}
    for w, args in parts:
        for key, v in _split(*args):
            _add_to(acc, key, w * v)
    return _weighted(acc.items())


# ---------------------------------------------------------------------------
# The normal form
# ---------------------------------------------------------------------------


def _lin(a: int) -> str:
    return "u" if a == 1 else f"{a}u"


def _term_str(key: TermKey, c) -> str:
    b, j, a, k = key
    num = "*".join(s for s in ("u" if j == 1 else f"u^{j}" if j else "",
                                f"log(1+{_lin(b)})" if b else "") if s)
    den = "" if not k else f"/(1+{_lin(a)})" + (f"^{k}" if k > 1 else "")
    if not num:
        return f"{c}{den}"
    return ("" if c == 1 else "-" if c == -1 else f"{c}*") + num + den


class Radial:
    """A radial function in normal form: a sum of weighted terms
    u^j (1+au)^-k log(1+bu)^[b > 0], keyed by (b, j, a, k).

    Canonical: rational weights, none zero, the integral ones held as int;
    every term is a power of u (k = 0, stored with a = 0) or a pole power
    (j = 0, k >= 1); b = 0 means no log factor.  Partial fractions over distinct pole bases are unique,
    so equal functions have equal terms, and the terms are the key.
    """

    def __init__(self, terms=()):
        """terms: a mapping or pairs from canonical keys to weights."""
        items = terms.items() if isinstance(terms, dict) else terms
        self.terms: Tuple[Tuple[TermKey, Fraction], ...] = tuple(sorted(_weighted(items)))

    @staticmethod
    def term(c=1, j: int = 0, a: int = 0, k: int = 0, b: int = 0) -> "Radial":
        """The single term c u^j (1+au)^-k log(1+bu)^[b > 0] (a > 0 when k > 0)."""
        return Radial({(b,) + key: c * w for key, w in _split(j, a, k)})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def const_value(self) -> Optional[Fraction]:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][0] == _CONST:
            c = self.terms[0][1]
            return c if type(c) is Fraction else Fraction(c)
        return None

    @property
    def integrable(self) -> bool:
        """Decays like u^-2 (times at most a log): no powers of u, and the 1/u
        tails of the simple poles cancel within each log factor."""
        tails: dict = {}  # the integer pairs of _add_pair, per log factor b
        for (b, _, a, k), c in self.terms:
            if not k:
                return False
            if k == 1:
                _add_pair(tails, b, c.numerator, c.denominator * a)
        return not any(p for p, _ in tails.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Radial) and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        text = " + ".join(_term_str(key, c) for key, c in self.terms) or "0"
        return text.replace("+ -", "- ")

    __repr__ = __str__

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Radial") -> "Radial":
        if not isinstance(other, Radial):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return built(_add_into(_add_into({}, self.terms), other.terms))

    def __neg__(self) -> "Radial":
        return built(_add_into({}, self.terms, -1))

    def __sub__(self, other: "Radial") -> "Radial":
        if not isinstance(other, Radial):
            return NotImplemented
        return built(_add_into(_add_into({}, self.terms), other.terms, -1))

    def __mul__(self, other):
        """Product with a rational or with another normal form; a constant
        normal form multiplies as its rational."""
        if isinstance(other, Radial):
            if len(other.terms) == 1 and other.terms[0][0] == _CONST:
                other = other.terms[0][1]
            elif len(self.terms) == 1 and self.terms[0][0] == _CONST:
                self, other = other, self.terms[0][1]
        if isinstance(other, (int, Fraction)):
            return self if other == 1 else built(_add_into({}, self.terms, other))
        if not isinstance(other, Radial):
            return NotImplemented
        return built(_mul_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    def derivative(self) -> "Radial":
        acc: dict = {}
        for (b, j, a, k), c in self.terms:
            if k:
                _add_to(acc, (b, 0, a, k + 1), -k * a * c)
            elif j:
                _add_to(acc, (b, j - 1, 0, 0), j * c)
            if b:  # d log(1+bu) = b (1+bu)^-1
                for (jj, aa, kk), w in _split(j, a, k, b, 1):
                    _add_to(acc, (0, jj, aa, kk), b * c * w)
        return Radial(acc)

    # -- exact mass ---------------------------------------------------------

    @cached_property
    def mass(self) -> ExactConstant:
        """Exact integral over [0, inf), derived once per object.

        Pole powers k >= 2 give 1/(a(k-1)); simple poles give sum (c/a) log a
        once their 1/u tails c/a cancel; by parts,
        int log(1+bu) (1+au)^-k = b/(a(k-1)) int (1+bu)^-1 (1+au)^(1-k).
        """
        acc: dict = {}  # integer pairs: key 0 the rational part, a the coefficient of log a
        for key, c in self.terms:
            b, _, a, k = key
            if not k:
                raise DomainError(f"{_term_str(key, c)} has no half-line mass (it does not decay)")
            if b and k == 1:
                raise DomainError(f"{_term_str(key, c)}: a simple pole times a log has no "
                                  "mass in the constant span (it needs a dilogarithm)")
            p, d, parts = c.numerator, c.denominator, (((0, a, k), 1),)
            if b:
                p, d, parts = p * b, d * a * (k - 1), _split(0, a, k - 1, b, 1)
            for (_, aa, kk), w in parts:
                _add_pair(acc, aa if kk == 1 else 0, p * w.numerator,
                          d * w.denominator * aa * (kk - 1 or 1))
        den = math.prod(d for a, (_, d) in acc.items() if a)
        if sum(p * (den // d) for a, (p, d) in acc.items() if a):
            raise DomainError(f"{self} decays like 1/u: its half-line integral diverges")
        atoms: dict = {}
        for a, (p, d) in acc.items():
            for atom, e in _prime_logs(a) if a else ((ONE, 1),):
                _add_pair(atoms, atom, p * e, d)
        return ExactConstant({atom: Fraction(p, d) for atom, (p, d) in atoms.items() if p})

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def plan(self) -> tuple:
        """The float plan of evaluation, (bases, groups), as kernels.kernel
        reads it.  Per log factor b: the powers of u and the simple poles over
        their common denominator prod (1+au), and a Horner sum in each
        1/(1+au) for the higher poles.  Cancellations that are exact in the
        terms (a zero at u = 0, tails that cancel at large u) then stay exact
        in floating point."""
        groups: Dict[int, Dict[int, Dict[int, Fraction]]] = {}
        for (b, j, a, k), c in self.terms:
            groups.setdefault(b, {}).setdefault(a, {})[k or j] = c
        bases = sorted({a for g in groups.values() for a in g if a})
        plan = []
        for b, g in sorted(groups.items()):
            simple = [a for a in bases if 1 in g.get(a, {})]
            d = math.prod(c.denominator for w in g.values() for c in w.values())
            powers = g.get(0, {0: 0})  # d times the powers, then numerator/prod + c/(1+au)
            numerator, prod = [_whole(powers.get(j, 0), d) for j in range(max(powers) + 1)], [1]
            for a in simple:
                numerator = _plus(_times_linear(numerator, a), _whole(g[a][1], d), prod)
                prod = _times_linear(prod, a)
            higher = tuple((bases.index(a), _horner({k: c for k, c in g[a].items() if k > 1}, 2))
                           for a in bases if max(g.get(a, {0: 0})) > 1)
            plan.append((float(b), _horner({j: c // d if not c % d else Fraction(c, d)
                                            for j, c in enumerate(numerator) if c}, 0),  # as built
                         tuple(bases.index(a) for a in simple), higher))
        return tuple(float(a) for a in bases), tuple(plan)

    @cached_property
    def fn(self) -> Callable[[float], float]:
        """Evaluator of a float u: a one-point panel of the kernel."""
        from . import kernels

        kernel = kernels.kernel(self.plan)
        return lambda u: kernel((u,), None)[0]

    def __call__(self, u):
        return self.fn(u)


def _horner(weights: Dict[int, Fraction], low: int) -> tuple:
    """Float coefficients of the powers low..max, highest first."""
    top = max(weights, default=low - 1)
    return tuple(float(weights.get(p, 0)) for p in range(top, low - 1, -1))


def _whole(c, den: int) -> int:
    """The integer c * den of a rational c whose denominator divides den."""
    return c.numerator * (den // c.denominator)


def _times_linear(p: list, a: int) -> list:
    """The coefficients of p(u) (1 + au), lowest power first as in p."""
    return [x + a * y for x, y in zip(p + [0], [0] + p)]


def _plus(p: list, c, q: list) -> list:
    """The coefficients of p + c q, lowest power first (len(q) <= len(p))."""
    return [x + c * y for x, y in zip(p, q)] + p[len(q):]


def _add_pair(acc: dict, key, p: int, d: int) -> None:
    """acc[key] += p/d on an unreduced integer (numerator, denominator) pair."""
    p0, d0 = acc.get(key, (0, d))
    acc[key] = (p0 + p, d) if d0 == d else (p0 * d + p * d0, d0 * d)


def _add_into(acc: dict, terms, q=1) -> dict:
    """acc += q * terms, on the pairs of _mul_into."""
    qn, qd = q.numerator, q.denominator
    for key, c in terms:
        _add_pair(acc, key, c.numerator * qn, c.denominator * qd)
    return acc


def _mul_into(acc: dict, terms1, terms2, q=1) -> dict:
    """acc += q * (terms1 x terms2), acc mapping normal-form keys to integer
    (numerator, denominator) pairs that nothing reduces until built(acc)."""
    qn, qd = q.numerator, q.denominator
    right = [(key, c.numerator * qn, c.denominator * qd) for key, c in terms2]
    for (b1, j1, a1, k1), c1 in terms1:
        n1, d1 = c1.numerator, c1.denominator
        for (b2, j2, a2, k2), n2, d2 in right:
            if b1 and b2:
                raise DomainError(f"log(1+{_lin(b1)})*log(1+{_lin(b2)}) lies outside "
                                  "the normal form (one log factor at most)")
            b, num, den = b1 or b2, n1 * n2, d1 * d2
            for (j, a, k), w in _split(j1 + j2, a1, k1, a2, k2):
                p, d = (num, den) if w == 1 else (num * w.numerator, den * w.denominator)
                _add_pair(acc, (b, j, a, k), p, d)
    return acc


def built(acc: dict) -> Radial:
    """The Radial of a map that _add_into or _mul_into filled; its terms are
    canonical as built."""
    out = Radial.__new__(Radial)
    out.terms = tuple(sorted((key, p // d if not p % d else Fraction(p, d))
                             for key, (p, d) in acc.items() if p))
    return out


RADIAL_ZERO = Radial()
RADIAL_ONE = Radial.term()


def linear(pairs) -> Radial:
    """Rational linear combination sum q * f over (q, f) pairs."""
    acc: dict = {}
    for q, f in pairs:
        _add_into(acc, f.terms, q)
    return built(acc)


# ---------------------------------------------------------------------------
# Quadrature: the compactified integrand and the verdict
# ---------------------------------------------------------------------------

def _compactified(f: Radial, name: str = "") -> Callable[[Sequence[float]], List[float]]:
    """The integrand of f after u = t / (1 - t), on a panel of nodes t: the
    exact endpoint t = 1 (u = inf) carries no quadrature weight, for the
    transformed integrand tends to 0 for decay > 2 and stays bounded
    (integrably log-singular at worst) at decay 2."""
    from . import kernels

    kernel = kernels.kernel(f.plan)

    def bad(u: float) -> DomainError:
        return DomainError(f"{_label(f, name)}: integrand not finite at u={u!r}")

    return lambda ts: kernel(ts, bad)


def integrate_halfline(f: Radial, cfg: QuadratureConfig = DEFAULT_CONFIG,
                       name: str = "") -> float:
    """Integral of f over [0, inf) to within cfg.target_tol (estimated);
    name labels f in the message of a DomainError or NonConvergence."""
    if f.is_zero:
        return 0.0
    if not f.integrable:
        raise DomainError(f"{_label(f, name)}: not an integrable half-line function "
                          "(it must decay faster than 1/u)")
    from . import quadrature  # the rules, compiled only by a process that integrates

    rule = quadrature.tanh_sinh if cfg.scheme == "tanh_sinh" else quadrature.gauss_kronrod
    value, estimate, reason = rule(_compactified(f, name), cfg.target_tol)
    if estimate <= cfg.target_tol and not reason:
        return value
    raise _stalled(f, name, value, estimate, cfg, reason)


def _label(f: Radial, name: str) -> str:
    """The label of f in an error message: name, or the start of f."""
    if name:
        return name
    text = str(f)
    return text if len(text) <= 60 else text[:57] + "..."


def _stalled(f: Radial, name: str, value: float, estimate: float, cfg: QuadratureConfig,
             reason: str) -> NonConvergence:
    """The error of a quadrature that never returned a value; when the error
    estimate met the target, the integrator's own flag is the reason."""
    if estimate <= cfg.target_tol:
        why = f"{reason} (estimate {estimate:.1e} met the target)"
    else:
        why = f"stalled at estimate {estimate:.3e} (target {cfg.target_tol:.1e})"
    return NonConvergence(f"{_label(f, name)}: {why}", value, estimate)
