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

The arithmetic runs on integers (see the constants module): a Radial is a
constants.Combination of reduced (key, p, d) triples, which gives its sums,
differences, negation and rational multiples, and _split's one table holds
partial fractions as triples too.  _add_into (linear combinations) and
_mul_into (products) add unreduced integer pairs per key, each times an
integer weight pair, and built makes the Radial once, one gcd per key; the
exact mass sums the same pairs into an ExactConstant, and the plan builds
integer numerators.  Fraction stays at the boundary: the weights given to
the constructor and Radial.term, the terms view, const_value and the texts.

A Radial evaluates floats through its plan, the exact-to-float set-up of
Horner sums per log factor, made in one pass over the sorted terms, each
float a correctly rounded integer division.  The kernels module compiles
the plan into a kernel: straight-line Python generated once per shape of
plan.  The kernel evaluates a panel, a list of points, in one call;
Radial.fn is a one-point panel.

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

from .constants import ONE, Combination, ExactConstant, _add_pair, _pair, _prime_logs, _reduced
from .settings import (DEFAULT_CONFIG, PASS_TOL_FACTOR, SCHEMES,  # noqa: F401 (re-exported)
                       NonConvergence, QuadratureConfig, _fmt)

TermKey = Tuple[int, int, int, int]  # (b, j, a, k): u^j (1+au)^-k log(1+bu)^[b > 0]
_CONST: TermKey = (0, 0, 0, 0)


class DomainError(ValueError):
    """Integrand is not finite on the domain, or not integrable as declared."""


# ---------------------------------------------------------------------------
# The partial-fraction rule
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _split(j: int, a: int, k: int, b: int = 0, q: int = 0) -> tuple:
    """u^j (1+au)^-k (1+bu)^-q as canonical triples ((j, a, k), p, d).

    Equal bases merge; while two distinct poles a < b remain, one exponent
    drops by 1 = (b (1+au) - a (1+bu)) / (b - a); then j drops by
    u = ((1+au) - 1) / a."""
    if q and (not k or a == b):
        a, k, q = b, k + q, 0
    if q:
        if a > b:
            a, k, b, q = b, q, a, k
        parts = ((b, b - a, (j, a, k - 1, b, q)), (-a, b - a, (j, a, k, b, q - 1)))
    elif j and k:
        parts = ((1, a, (j - 1, a, k - 1)), (-1, a, (j - 1, a, k)))
    else:
        return (((j, a, k) if k else (j, 0, 0), 1, 1),)
    acc: dict = {}
    for wp, wd, args in parts:
        for key, p, d in _split(*args):
            _add_pair(acc, key, wp * p, wd * d)
    return _reduced(acc)


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


def _weight(p: int, d: int):
    """The rational p/d of a reduced pair, an integral one as int."""
    return p if d == 1 else Fraction(p, d)


def _checked(key, c) -> Tuple[int, int]:
    """The integer pair of the weight c of key.  A key that is not a canonical
    (b, j, a, k) of integers, b >= 0 and a power of u (a = k = 0 <= j) or a
    pole power (j = 0, a >= 1, k >= 1), raises ValueError; a weight that is
    not an int or Fraction raises TypeError."""
    if not (isinstance(key, tuple) and len(key) == 4 and all(type(x) is int for x in key)
            and key[0] >= 0 and (key[2] == key[3] == 0 <= key[1] or key[1] == 0 < min(key[2:]))):
        raise ValueError(f"{key!r} is not a key (b, j, a, k) of the normal form")
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"the weight of {key!r} is not an int or a Fraction: {c!r}")
    return c.numerator, c.denominator


class Radial(Combination):
    """A radial function in normal form: a sum of weighted terms
    u^j (1+au)^-k log(1+bu)^[b > 0], keyed by (b, j, a, k).

    Canonical: every term is a power of u (k = 0, stored with a = 0) or a
    pole power (j = 0, k >= 1); b = 0 means no log factor.  The weights are
    held as triples (key, p, d) sorted by key, as a constants.Combination
    holds them, which also gives the sums, differences and rational
    multiples.  Partial fractions over distinct pole bases are unique, so
    equal functions have equal triples, and the triples are the key.

    The constructor takes a mapping or pairs from canonical keys to int or
    Fraction weights, summed per key.  A key outside the normal form raises
    ValueError (Radial.term splits into it), any other weight TypeError.
    """

    _checked = staticmethod(_checked)

    @staticmethod
    def _made(acc: dict) -> "Radial":
        return built(acc)  # by its module name, where the budget tests count builds

    @staticmethod
    def term(c=1, j: int = 0, a: int = 0, k: int = 0, b: int = 0) -> "Radial":
        """The single term c u^j (1+au)^-k log(1+bu)^[b > 0] (a > 0 when k > 0),
        checked as the constructor checks its keys (b, 0, a, k) and (b, j, 0, 0)."""
        if k:
            _checked((b, 0, a, k), c)
        cn, cd = _checked((b, j, 0, 0), c)
        return built({(b,) + key: (cn * p, cd * d) for key, p, d in _split(j, a, k)})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The (key, weight) pairs, integral weights as int, made on each read."""
        return tuple((key, _weight(p, d)) for key, p, d in self.triples)

    def __bool__(self) -> bool:
        return bool(self.triples)

    @property
    def const_value(self) -> Optional[Fraction]:
        if not self.triples:
            return Fraction(0)
        if len(self.triples) == 1 and self.triples[0][0] == _CONST:
            return Fraction(*self.triples[0][1:])
        return None

    @property
    def integrable(self) -> bool:
        """Decays like u^-2 (times at most a log): no powers of u, and the 1/u
        tails of the simple poles cancel within each log factor."""
        tails: dict = {}  # integer pairs per log factor b
        for (b, _, a, k), p, d in self.triples:
            if not k:
                return False
            if k == 1:
                _add_pair(tails, b, p, d * a)
        return not any(p for p, _ in tails.values())

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.triples)

    def __str__(self) -> str:
        text = " + ".join(_term_str(key, c) for key, c in self.terms) or "0"
        return text.replace("+ -", "- ")

    __repr__ = __str__

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        """Product with a rational or with another normal form; a constant
        normal form multiplies as its rational."""
        if isinstance(other, (int, Fraction)):
            p, d = other.numerator, other.denominator
        elif not isinstance(other, Radial):
            return NotImplemented
        elif len(other.triples) == 1 and other.triples[0][0] == _CONST:
            _, p, d = other.triples[0]
        elif len(self.triples) == 1 and self.triples[0][0] == _CONST:
            self, (_, p, d) = other, self.triples[0]
        else:
            return built(_mul_into({}, self.triples, other.triples))
        return self._scaled(p, d)

    __rmul__ = __mul__

    def derivative(self) -> "Radial":
        acc: dict = {}
        for (b, j, a, k), p, d in self.triples:
            if k:
                _add_pair(acc, (b, 0, a, k + 1), -k * a * p, d)
            elif j:
                _add_pair(acc, (b, j - 1, 0, 0), j * p, d)
            if b:  # d log(1+bu) = b (1+bu)^-1
                for (jj, aa, kk), wp, wd in _split(j, a, k, b, 1):
                    _add_pair(acc, (0, jj, aa, kk), b * p * wp, d * wd)
        return built(acc)

    # -- exact mass ---------------------------------------------------------

    @cached_property
    def mass(self) -> ExactConstant:
        """Exact integral over [0, inf), derived once per object.

        Pole powers k >= 2 give 1/(a(k-1)); simple poles give sum (c/a) log a
        once their 1/u tails c/a cancel; by parts,
        int log(1+bu) (1+au)^-k = b/(a(k-1)) int (1+bu)^-1 (1+au)^(1-k).
        """
        acc: dict = {}  # integer pairs: key 0 the rational part, a the coefficient of log a
        for key, p, d in self.triples:
            b, _, a, k = key
            if not k:
                raise DomainError(f"{_term_str(key, _weight(p, d))} has no half-line mass "
                                  "(it does not decay)")
            if b and k == 1:
                raise DomainError(f"{_term_str(key, _weight(p, d))}: a simple pole times a log "
                                  "has no mass in the constant span (it needs a dilogarithm)")
            parts = (((0, a, k), 1, 1),)
            if b:
                p, d, parts = p * b, d * a * (k - 1), _split(0, a, k - 1, b, 1)
            for (_, aa, kk), wp, wd in parts:
                _add_pair(acc, aa if kk == 1 else 0, p * wp, d * wd * aa * (kk - 1 or 1))
        den = math.prod(d for a, (_, d) in acc.items() if a)
        if sum(p * (den // d) for a, (p, d) in acc.items() if a):
            raise DomainError(f"{self} decays like 1/u: its half-line integral diverges")
        atoms: dict = {}
        for a, (p, d) in acc.items():
            for atom, e in _prime_logs(a) if a else ((ONE, 1),):
                _add_pair(atoms, atom, p * e, d)
        return ExactConstant._made(atoms)

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def plan(self) -> tuple:
        """The float plan of evaluation, (bases, groups), as kernels.kernel
        reads it.  Per log factor b: the powers of u and the simple poles over
        their common denominator prod (1+au), and a Horner sum in each
        1/(1+au) for the higher poles.  Cancellations that are exact in the
        terms (a zero at u = 0, tails that cancel at large u) then stay exact
        in floating point.

        One pass over the triples, sorted by (b, j, a, k), gathers each log
        group in order; each numerator float is one correctly rounded
        integer division by den, the product of the group's denominators."""
        bases = sorted({key[2] for key, _, _ in self.triples if key[2]})
        groups: list = []  # per log factor: [b, den, {j: pair}, [(a, p, d)], {a: {k: pair}}]
        for (b, j, a, k), p, d in self.triples:
            if not groups or groups[-1][0] != b:
                groups.append([b, 1, {}, [], {}])
            group = groups[-1]
            group[1] *= d
            if not k:
                group[2][j] = p, d
            elif k == 1:
                group[3].append((a, p, d))
            else:
                group[4].setdefault(a, {})[k] = p, d
        plan = []
        for b, den, powers, simple, higher in groups:
            numerator = [p * (den // d) for p, d in
                         (powers.get(j, (0, 1)) for j in range(max(powers, default=0) + 1))]
            prod = [1]
            for a, p, d in simple:  # numerator/prod + (p/d)/(1+au)
                numerator = _plus(_times_linear(numerator, a), p * (den // d), prod)
                prod = _times_linear(prod, a)
            while numerator and not numerator[-1]:
                numerator.pop()
            higher = tuple((bases.index(a), _horner(ks, 2)) for a, ks in higher.items())
            # an exact quotient converts as an int: the same float, and on
            # overflow the same OverflowError text, which the CLI prints
            plan.append((float(b), tuple(c / den if c % den else float(c // den)
                                         for c in reversed(numerator)),
                         tuple(bases.index(a) for a, _, _ in simple), higher))
        return tuple(float(a) for a in bases), tuple(plan)

    @cached_property
    def fn(self) -> Callable[[float], float]:
        """Evaluator of a float u: a one-point panel of the kernel."""
        from . import kernels

        kernel = kernels.kernel(self.plan)
        return lambda u: kernel((u,), None)[0]

    def __call__(self, u):
        return self.fn(u)


def _horner(weights: Dict[int, Tuple[int, int]], low: int) -> tuple:
    """Float coefficients of the powers low..max of reduced pairs, highest first."""
    top = max(weights, default=low - 1)
    return tuple((float(p) if d == 1 else p / d) for p, d in
                 (weights.get(e, (0, 1)) for e in range(top, low - 1, -1)))


def _times_linear(p: list, a: int) -> list:
    """The coefficients of p(u) (1 + au), lowest power first as in p."""
    return [x + a * y for x, y in zip(p + [0], [0] + p)]


def _plus(p: list, c, q: list) -> list:
    """The coefficients of p + c q, lowest power first (len(q) <= len(p))."""
    return [x + c * y for x, y in zip(p, q)] + p[len(q):]


def _add_into(acc: dict, triples, qn: int = 1, qd: int = 1) -> dict:
    """acc += qn/qd * triples, for integers qn and qd > 0, on the pairs of _mul_into."""
    for key, p, d in triples:
        _add_pair(acc, key, p * qn, d * qd)
    return acc


def _mul_into(acc: dict, triples1, triples2, qn: int = 1, qd: int = 1) -> dict:
    """acc += qn/qd * (triples1 x triples2), for integers qn and qd > 0, acc
    mapping normal-form keys to integer (numerator, denominator) pairs that
    nothing reduces until built(acc)."""
    if qn != qd:
        triples2 = [(key, p * qn, d * qd) for key, p, d in triples2]
    for (b1, j1, a1, k1), p1, d1 in triples1:
        for (b2, j2, a2, k2), p2, d2 in triples2:
            if b1 and b2:
                raise DomainError(f"log(1+{_lin(b1)})*log(1+{_lin(b2)}) lies outside "
                                  "the normal form (one log factor at most)")
            b, num, den = b1 or b2, p1 * p2, d1 * d2
            for (j, a, k), wp, wd in _split(j1 + j2, a1, k1, a2, k2):
                _add_pair(acc, (b, j, a, k), num * wp, den * wd)
    return acc


def built(acc: dict) -> Radial:
    """The Radial of a map that _add_into or _mul_into filled, with one gcd
    per key; its triples are canonical as built."""
    return Radial._normal(_reduced(acc))


RADIAL_ZERO = Radial()
RADIAL_ONE = Radial.term()


def linear(pairs) -> Radial:
    """Rational linear combination sum q * f over (q, f) pairs, int or
    Fraction weights q."""
    acc: dict = {}
    for q, f in pairs:
        _add_into(acc, f.triples, *_pair(q, "the weight"))
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
