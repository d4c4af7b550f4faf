"""Radial functions and their half-line integrals.

Every integral over the surface or over a fiber reduces, by unitary
invariance and the substitution u = |z|^2 * |frame|^(2n), to an integral
over u in [0, inf).  Every coefficient of the form calculus is a finite sum

    c * u^j * (1 + a u)^-k * log(1 + b u)^e,        e in {0, 1},

with rational c and positive integers a, b (1 and n+1 in the catalog).
Radial holds such a sum in its unique partial-fraction form, so one object
evaluates a float, is its own hashable key, and has an exact half-line mass
in the constant span: partial fractions integrate the rational part, and one
integration by parts turns log(1+bu)/(1+au)^k into a rational integrand.  A
simple pole times a log would need a dilogarithm and is refused.

A Radial is integrated numerically after the compactifying substitution
u = t / (1 - t), which maps the half-line onto (0, 1).  In the t variable an
integrand of decay order d behaves like (1-t)^(d-2) near 1, so adaptive
Gauss-Kronrod (and tanh-sinh as an alternative) resolve the whole catalog
without special endpoint treatment.

Both schemes are plain Python on the same scalar integrand.  Gauss-Kronrod
is QUADPACK's QAGS, ported here: it returns the same floats as
scipy.integrate.quad, bit for bit.  Tanh-sinh is the double-exponential rule
of Takahashi and Mori.  The package imports neither numpy nor scipy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Dict, Optional, Tuple

from .constants import ExactConstant, log_rational

TermKey = Tuple[int, int, int, int]  # (b, j, a, k): u^j (1+au)^-k log(1+bu)^[b > 0]
_CONST: TermKey = (0, 0, 0, 0)


class DomainError(ValueError):
    """Integrand is not finite on the domain, or not integrable as declared."""


class NonConvergence(RuntimeError):
    """Error estimate still above the target, or flagged by the integrator."""

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


# ---------------------------------------------------------------------------
# Partial fractions of products of basis terms
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
def _poles(a: int, k: int, b: int, q: int) -> tuple:
    """(1+au)^-k (1+bu)^-q for a != b as ((base, power), weight) pairs,
    from 1 = (b (1+au) - a (1+bu)) / (b - a)."""
    if k == 0:
        return (((b, q), 1),)
    if q == 0:
        return (((a, k), 1),)
    acc: dict = {}
    for key, w in _poles(a, k - 1, b, q):
        _add_to(acc, key, w * Fraction(b, b - a))
    for key, w in _poles(a, k, b, q - 1):
        _add_to(acc, key, w * Fraction(-a, b - a))
    return _weighted(acc.items())


@lru_cache(maxsize=256)
def _u_pole(j: int, a: int, k: int) -> tuple:
    """u^j (1+au)^-k as canonical ((j, a, k), weight) pairs, from
    u = ((1+au) - 1) / a."""
    if k == 0:
        return (((j, 0, 0), 1),)
    if j == 0:
        return (((0, a, k), 1),)
    acc: dict = {}
    for key, w in _u_pole(j - 1, a, k - 1):
        _add_to(acc, key, Fraction(w) / a)
    for key, w in _u_pole(j - 1, a, k):
        _add_to(acc, key, -Fraction(w) / a)
    return _weighted(acc.items())


@lru_cache(maxsize=256)
def _times(t1: Tuple[int, int, int], t2: Tuple[int, int, int]) -> tuple:
    """Product of two canonical rational terms (j, a, k) as canonical terms."""
    (j1, a1, k1), (j2, a2, k2) = t1, t2
    if not k1 or not k2:
        poles = (((a1 or a2, k1 or k2), 1),)
    elif a1 == a2:
        poles = (((a1, k1 + k2), 1),)
    else:
        poles = _poles(a1, k1, a2, k2)
    acc: dict = {}
    for (a, k), w in poles:
        for key, v in _u_pole(j1 + j2, a, k):
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
        return Radial({(b,) + key: c * w for key, w in _u_pole(j, a, k)})

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
            return Fraction(self.terms[0][1])
        return None

    @property
    def integrable(self) -> bool:
        """Decays like u^-2 (times at most a log): no powers of u, and the 1/u
        tails of the simple poles cancel within each log factor."""
        tails: Dict[int, Fraction] = {}
        for (b, _, a, k), c in self.terms:
            if not k:
                return False
            if k == 1:
                _add_to(tails, b, Fraction(c, a))
        return not any(tails.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Radial) and self.terms == other.terms

    def __hash__(self) -> int:
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
        acc = dict(self.terms)
        for key, c in other.terms:
            _add_to(acc, key, c)
        return Radial(acc)

    def __neg__(self) -> "Radial":
        return Radial((key, -c) for key, c in self.terms)

    def __sub__(self, other: "Radial") -> "Radial":
        return self + (-other)

    def __mul__(self, other):
        """Product with a rational or with another normal form; a constant
        normal form multiplies as its rational."""
        if isinstance(other, Radial):
            if len(other.terms) == 1 and other.terms[0][0] == _CONST:
                other = other.terms[0][1]
            elif len(self.terms) == 1 and self.terms[0][0] == _CONST:
                self, other = other, self.terms[0][1]
        if isinstance(other, (int, Fraction)):
            return self if other == 1 else Radial((key, c * other) for key, c in self.terms)
        if not isinstance(other, Radial):
            return NotImplemented
        acc: dict = {}
        for (b1, j1, a1, k1), c1 in self.terms:
            for (b2, j2, a2, k2), c2 in other.terms:
                if b1 and b2:
                    raise DomainError(f"log(1+{_lin(b1)})*log(1+{_lin(b2)}) lies outside "
                                      "the normal form (one log factor at most)")
                b, c = b1 or b2, c1 * c2
                for (j, a, k), w in _times((j1, a1, k1), (j2, a2, k2)):
                    key, v = (b, j, a, k), c if w == 1 else c * w
                    acc[key] = acc[key] + v if key in acc else v
        return Radial(acc)

    __rmul__ = __mul__

    def derivative(self) -> "Radial":
        acc: dict = {}
        for (b, j, a, k), c in self.terms:
            if k:
                _add_to(acc, (b, 0, a, k + 1), -k * a * c)
            elif j:
                _add_to(acc, (b, j - 1, 0, 0), j * c)
            if b:  # d log(1+bu) = b (1+bu)^-1
                for (jj, aa, kk), w in _times((j, a, k), (0, b, 1)):
                    _add_to(acc, (0, jj, aa, kk), b * c * w)
        return Radial(acc)

    # -- exact mass ---------------------------------------------------------

    @cached_property
    def mass(self) -> ExactConstant:
        """Exact integral over [0, inf), derived once per object.

        Pole powers k >= 2 give 1/(a(k-1)); simple poles give sum (c/a) log a
        once their 1/u tails cancel; by parts,
        int log(1+bu) (1+au)^-k = b/(a(k-1)) int (1+bu)^-1 (1+au)^(1-k).
        """
        rational: Dict[Tuple[int, int], Fraction] = {}
        for key, c in self.terms:
            b, _, a, k = key
            if not k:
                raise DomainError(f"{_term_str(key, c)} has no half-line mass (it does not decay)")
            if not b:
                _add_to(rational, (a, k), c)
            elif k == 1:
                raise DomainError(f"{_term_str(key, c)}: a simple pole times a log has no "
                                  "mass in the constant span (it needs a dilogarithm)")
            else:
                for (_, aa, kk), w in _times((0, b, 1), (0, a, k - 1)):
                    _add_to(rational, (aa, kk), c * w * Fraction(b, a * (k - 1)))
        value, logs = Fraction(0), {}
        for (a, k), c in rational.items():
            if k == 1:
                logs[a] = Fraction(c, a)
            else:
                value += Fraction(c, a * (k - 1))
        if sum(logs.values()):
            raise DomainError(f"{self} decays like 1/u: its half-line integral diverges")
        out = ExactConstant.rational(value)
        for a, w in logs.items():
            out = out + log_rational(a).scale(w)
        return out

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def fn(self) -> Callable[[float], float]:
        """Evaluator of a float u."""
        return _evaluator(self.terms)

    def __call__(self, u):
        return self.fn(u)


def _horner(weights: Dict[int, Fraction], low: int) -> list:
    """Float coefficients of the powers low..max, highest first."""
    top = max(weights, default=low - 1)
    return [float(weights.get(p, 0)) for p in range(top, low - 1, -1)]


def _evaluator(terms) -> Callable:
    """Per log factor b: the powers of u and the simple poles over their
    common denominator prod (1+au), and a Horner sum in each 1/(1+au) for the
    higher poles.  Cancellations that are exact in the terms (a zero at
    u = 0, tails that cancel at large u) then stay exact in floating point."""
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


RADIAL_ZERO = Radial()
RADIAL_ONE = Radial.term()


def linear(pairs) -> Radial:
    """Rational linear combination sum q * f over (q, f) pairs."""
    acc: dict = {}
    for q, f in pairs:
        for key, c in f.terms:
            _add_to(acc, key, q * c)
    return Radial(acc)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

SCHEMES = ("gauss_kronrod", "tanh_sinh")
PASS_TOL_FACTOR = 10.0  # a quadrature passes within this multiple of its target


class QuadratureConfig:
    """Target tolerance and scheme of a half-line quadrature.  Immutable."""

    def __init__(self, target_tol: float = 1e-10, scheme: str = "gauss_kronrod") -> None:
        if not 0 < target_tol < math.inf:  # nan fails too
            raise ValueError("target_tol must be positive and finite")
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        self.target_tol = target_tol
        self.scheme = scheme

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.target_tol, self.scheme) == (other.target_tol, other.scheme)

    def __hash__(self) -> int:
        return hash((self.target_tol, self.scheme))

    def __repr__(self) -> str:
        return f"QuadratureConfig(target_tol={self.target_tol!r}, scheme={self.scheme!r})"

    @property
    def pass_tol(self) -> float:
        return self.target_tol * PASS_TOL_FACTOR


DEFAULT_CONFIG = QuadratureConfig()


def _compactified(f: Radial, name: str = "") -> Callable[[float], float]:
    fn = f.fn

    def g(t: float) -> float:
        s = 1.0 - t
        if s <= 0.0:
            # the exact endpoint u = inf carries no quadrature weight; the
            # transformed integrand tends to 0 for decay > 2 and stays
            # bounded (integrably log-singular at worst) at decay 2
            return 0.0
        u = t / s
        v = fn(u)
        if not math.isfinite(v):
            raise DomainError(f"{_label(f, name)}: integrand not finite at u={u!r}")
        return v / (s * s)

    return g


def integrate_halfline(f: Radial, cfg: QuadratureConfig = DEFAULT_CONFIG,
                       name: str = "") -> float:
    """Integral of f over [0, inf) to within cfg.target_tol (estimated);
    name labels f in the message of a DomainError or NonConvergence."""
    if f.is_zero:
        return 0.0
    if not f.integrable:
        raise DomainError(f"{f} is not an integrable half-line function "
                          "(it must decay faster than 1/u)")
    rule = _tanh_sinh if cfg.scheme == "tanh_sinh" else _gauss_kronrod
    return rule(_compactified(f, name), f, cfg, name)


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


def _gauss_kronrod(g, f, cfg: QuadratureConfig, name: str) -> float:
    """One QAGS call on [0, 1]: absolute tolerance half the target, relative
    1e-13, at most 50 subintervals.  A flag (ier != 0) fails the check even
    when the estimate met the target."""
    value, estimate, _, ier, _ = _dqagse(g, 0.0, 1.0, cfg.target_tol * 0.5, 1e-13, 50)
    if estimate <= cfg.target_tol and not ier:
        return value
    raise _stalled(f, name, value, estimate, cfg, f"qags: {_QAGS_REASONS[ier]}")


@lru_cache(maxsize=None)
def _ts_nodes(level: int) -> tuple:
    """The (t, weight) pairs that a level adds to the tanh-sinh grid
    tau = j h, h = 2^-level, |tau| <= 3.5: every j at level 0, odd j after.
    At tau = 3.5, 1 - t is 3e-23, below float resolution next to t = 1."""
    h = 2.0 ** -level
    nodes = []
    for j in range(0 if level == 0 else 1, int(3.5 / h) + 1, 1 if level == 0 else 2):
        c = 1.0 / (1.0 + math.exp(math.pi * math.sinh(j * h)))  # t at -jh, 1 - t at jh
        w = math.pi * math.cosh(j * h) * c * (1.0 - c)  # dt/dtau
        nodes += [(c, w), (1.0 - c, w)] if j else [(c, w)]
    return tuple(nodes)


def _tanh_sinh(g, f, cfg: QuadratureConfig, name: str) -> float:
    """Tanh-sinh (Takahashi and Mori, Publ. RIMS 1974) on [0, 1]: the
    trapezoidal rule in tau after t = 1 / (1 + exp(-pi sinh tau)), with the
    step h halved from 1 up to level 10.  The error estimate is the change
    from the previous level; as for Gauss-Kronrod, half the target ends it."""
    total, value = 0.0, math.inf
    for level in range(11):
        previous = value
        total += sum(w * g(t) for t, w in _ts_nodes(level))
        value = total * 2.0 ** -level
        estimate = abs(value - previous)
        if estimate <= cfg.target_tol * 0.5:
            return value
    raise _stalled(f, name, value, estimate, cfg, "tanh-sinh: level 10 reached")


def _fmt(x: float) -> str:
    """A float as report text: 17 significant digits, which round-trip."""
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# QUADPACK's QAGS, ported
# ---------------------------------------------------------------------------
#
# dqagse with dqk21, dqpsrt and dqelg from QUADPACK (Piessens, de Doncker-
# Kapenga, Ueberhuber and Kahaner, Springer 1983; public domain), the
# algorithm behind scipy.integrate.quad on a finite interval.  The port keeps
# QUADPACK's operation order exactly, so it returns scipy's floats bit for
# bit; its lists are 0-based, while `last` and the extrapolation table's
# length keep their 1-based meaning as counts.

_EPMACH = 2.220446049250313e-16    # d1mach(4)
_UFLOW = 2.2250738585072014e-308   # d1mach(1)
_OFLOW = 1.7976931348623157e+308   # d1mach(2)

# 21-point Kronrod abscissae (odd 0-based indices are the 10-point Gauss
# nodes) and weights, and the Gauss weights
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

# scipy's message for each flag, up to its first comma or full stop
_QAGS_REASONS = ("",
                 "The maximum number of subdivisions (50) has been achieved",
                 "The occurrence of roundoff error is detected",
                 "Extremely bad integrand behavior occurs at some points of the "
                 "integration interval",
                 "The algorithm does not converge",
                 "The integral is probably divergent")


def _dqk21(f, a: float, b: float) -> Tuple[float, float, float, float]:
    """21-point Gauss-Kronrod rule on [a, b]: (result, abserr, resabs,
    resasc), the last two the integrals of |f| and of |f - mean|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(5):  # the Gauss nodes, whose sums also enter the Kronrod sums
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for jtwm1 in range(0, 10, 2):
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
            nrmax: int) -> Tuple[int, float, int]:
    """Keep iord, the intervals by descending error, sorted after the
    interval maxerr was bisected into maxerr and last - 1; return the next
    interval to bisect, its error, and its position nrmax in iord."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        # a bisection that raised the error moves maxerr up past nrmax
        errmax = elist[maxerr]
        for _ in range(nrmax):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the jupbn largest errors are kept in order: no more can be
        # bisected within limit
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last - 1]
        jbnd = jupbn - 2
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # then errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last - 1
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last - 1
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn - 1] = last - 1
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int) -> Tuple[int, float, float, int]:
    """Wynn's epsilon algorithm on the n entries of epstab (the table of
    partial results, updated in place); return the new n, the extrapolated
    value, its error estimate and the count nres of calls."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n - 1]
    if n >= 3:
        limexp = 50
        epstab[n + 1] = epstab[n - 1]
        newelm = (n - 1) // 2
        epstab[n - 1] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 1]
            e0 = epstab[k1 - 3]
            e1 = epstab[k1 - 2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3 = epstab[k1 - 1]
            epstab[k1 - 1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two close elements: drop the rest of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if abs(ss * e1) <= 1e-4:
                n = i + i - 1  # irregular behaviour: drop the rest of the table
                break
            res = e1 + 1.0 / ss
            epstab[k1 - 1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 0 if num % 2 else 1  # shift the table
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n
            for i in range(n):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres - 1] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[2]) + abs(result - res3la[1])
                      + abs(result - res3la[0]))
            res3la[0], res3la[1], res3la[2] = res3la[1], res3la[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _dqagse(f, a: float, b: float, epsabs: float, epsrel: float,
            limit: int) -> Tuple[float, float, int, int, int]:
    """QAGS: globally adaptive bisection of [a, b] with the 21-point rule and
    Wynn's epsilon extrapolation (epsabs > 0, limit >= 1).

    Returns (result, abserr, neval, ier, last), last the number of
    subintervals; ier 0 is success and 1-5 are scipy's flags (limit reached,
    roundoff, bad integrand behaviour, extrapolation roundoff, divergence).
    """
    ier = ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier, last

    alist, blist, rlist, elist = [a], [b], [result], [abserr]
    iord = [0] * limit
    rlist2 = [0.0] * 52  # the extrapolation table
    rlist2[0] = result
    res3la = [0.0] * 3
    errmax = abserr
    maxerr = 0
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = nres = ktmin = 0
    numrl2 = 2
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    exit_sum = False  # the result is the sum of the subinterval results
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _dqk21(f, a1, b1)
        area2, error2, _, defab2 = _dqk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if (abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12)
                    and erro12 >= 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last - 1] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            exit_sum = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[1] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the next interval to bisect is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before
            # extrapolating, bisect the larger intervals among the largest
            # errors (erlarg sums their errors)
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(jupbnd - nrmax):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # keep the extrapolated result, fall back to the sum, or test divergence
    divergence_test = False
    if not exit_sum:
        if abserr == _OFLOW:
            exit_sum = True
        elif ier + ierro == 0:
            divergence_test = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                exit_sum = abserr / abs(result) > errsum / abs(area)
                divergence_test = not exit_sum
            else:
                exit_sum = abserr > errsum
                divergence_test = not exit_sum and area != 0.0
    if exit_sum:
        result = 0.0
        for k in range(last):
            result = result + rlist[k]
        abserr = errsum
    elif divergence_test and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # over area = 0, QUADPACK's ratio is infinite (nan when result = 0)
        in_range = 0.01 <= result / area <= 100.0 if area else result == 0.0
        if not in_range or errsum > abs(area):
            ier = 6
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier, last
