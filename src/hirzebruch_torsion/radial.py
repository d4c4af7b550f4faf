"""Radial functions and their half-line integrals.

Every integral over the surface or over a fiber reduces, by unitary
invariance and the substitution u = |z|^2 * |frame|^(2n), to an integral
over u in [0, inf).  Every coefficient of the form calculus is a finite sum

    c * u^j * (1 + a u)^-k * log(1 + b u)^e,        e in {0, 1},

with rational c and positive integers a, b (1 and n+1 in the catalog).
Radial holds such a sum in its unique partial-fraction form, so one object
evaluates a float or a numpy array (by the same code), is its own hashable
key, and has an exact half-line mass in the constant span: partial fractions
integrate the rational part, and one integration by parts turns
log(1+bu)/(1+au)^k into a rational integrand.  A simple pole times a log
would need a dilogarithm and is refused.

RadialFunction is the opaque alternative for ad-hoc integrands: an evaluable
map with a declared decay order, which can only be integrated numerically.

Both are integrated numerically after the compactifying substitution
u = t / (1 - t), which maps the half-line onto (0, 1).  In the t variable an
integrand of decay order d behaves like (1-t)^(d-2) near 1, so adaptive
Gauss-Kronrod (and tanh-sinh as an alternative) resolve the whole catalog
without special endpoint treatment.

numpy and scipy load only where they are used: scipy.integrate when a
quadrature runs, numpy when an array is evaluated or integrated.  The exact
path (normal forms, masses, float evaluation) imports neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Dict, Optional, Tuple

from .constants import ExactConstant, log_rational

KeyT = Tuple
TermKey = Tuple[int, int, int, int]  # (b, j, a, k): u^j (1+au)^-k log(1+bu)^[b > 0]


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


@lru_cache(maxsize=256)
def _poles(a: int, k: int, b: int, q: int) -> tuple:
    """(1+au)^-k (1+bu)^-q for a != b as ((base, power), weight) pairs,
    from 1 = (b (1+au) - a (1+bu)) / (b - a)."""
    if k == 0:
        return (((b, q), Fraction(1)),)
    if q == 0:
        return (((a, k), Fraction(1)),)
    acc: dict = {}
    for key, w in _poles(a, k - 1, b, q):
        _add_to(acc, key, w * Fraction(b, b - a))
    for key, w in _poles(a, k, b, q - 1):
        _add_to(acc, key, w * Fraction(-a, b - a))
    return tuple((key, w) for key, w in acc.items() if w)


@lru_cache(maxsize=256)
def _u_pole(j: int, a: int, k: int) -> tuple:
    """u^j (1+au)^-k as canonical ((j, a, k), weight) pairs, from
    u = ((1+au) - 1) / a."""
    if k == 0:
        return (((j, 0, 0), Fraction(1)),)
    if j == 0:
        return (((0, a, k), Fraction(1)),)
    acc: dict = {}
    for key, w in _u_pole(j - 1, a, k - 1):
        _add_to(acc, key, w / a)
    for key, w in _u_pole(j - 1, a, k):
        _add_to(acc, key, -w / a)
    return tuple((key, w) for key, w in acc.items() if w)


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
    return tuple((key, w) for key, w in acc.items() if w)


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

    Canonical: rational weights, none zero; every term is a power of u
    (k = 0, stored with a = 0) or a pole power (j = 0, k >= 1); b = 0 means
    no log factor.  Partial fractions over distinct pole bases are unique,
    so equal functions have equal terms, and the terms are the key.
    """

    def __init__(self, terms=()):
        """terms: a mapping or pairs from canonical keys to weights."""
        items = terms.items() if isinstance(terms, dict) else terms
        self.terms: Tuple[Tuple[TermKey, Fraction], ...] = tuple(
            sorted((key, c) for key, c in items if c))

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
        if len(self.terms) == 1 and self.terms[0][0] == (0, 0, 0, 0):
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
        """Product with a rational or with another normal form."""
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
                    _add_to(acc, (b, j, a, k), c if w == 1 else c * w)
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
    def fn(self) -> Callable:
        """Evaluator of a float or a numpy array of u values (same code);
        numpy is imported only when an array is passed."""
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

    def fn(u):
        if isinstance(u, (int, float)):  # np.float64 is a float
            log1p = math.log1p
        else:
            import numpy as np
            log1p = np.log1p if isinstance(u, np.ndarray) else math.log1p
        xs = [1.0 / (1.0 + a * u) for a in bases]
        total = 0.0 * u
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
            total = total + (v * log1p(b * u) if b else v)
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
# Opaque radial functions (quadrature only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialFunction:
    """Evaluable map u in [0, inf) -> R with declared decay at infinity.

    decay_order d means eval(u) = O(u^-d) as u -> inf.  const_value is set
    when the function is a known constant (enables structural zero detection
    downstream).
    """

    fn: Callable[[float], float]
    decay_order: float
    key: KeyT = ("anon",)
    const_value: Optional[Fraction] = None

    def __call__(self, u: float) -> float:
        return self.fn(u)

    def __str__(self) -> str:
        return repr(self.key)

    @property
    def is_zero(self) -> bool:
        return self.const_value == 0

    @property
    def integrable(self) -> bool:
        return self.is_zero or self.decay_order > 1


def radial_const(q) -> RadialFunction:
    q = Fraction(q)
    c = float(q)
    return RadialFunction(lambda u: c, decay_order=0.0, key=("const", str(q)), const_value=q)


def radial_scale(q, f: RadialFunction) -> RadialFunction:
    q = Fraction(q)
    if q == 0 or f.is_zero:
        return radial_const(0)
    if q == 1:
        return f
    if f.const_value is not None:
        return radial_const(q * f.const_value)
    c = float(q)
    g = f.fn
    return RadialFunction(lambda u: c * g(u), f.decay_order, key=("scale", str(q), f.key))


def radial_add(a: RadialFunction, b: RadialFunction) -> RadialFunction:
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.const_value is not None and b.const_value is not None:
        return radial_const(a.const_value + b.const_value)
    fa, fb = a.fn, b.fn
    return RadialFunction(lambda u: fa(u) + fb(u),
                          min(a.decay_order, b.decay_order),
                          key=("add", a.key, b.key))


def radial_mul(a: RadialFunction, b: RadialFunction) -> RadialFunction:
    if a.is_zero or b.is_zero:
        return radial_const(0)
    if a.const_value is not None:
        return radial_scale(a.const_value, b)
    if b.const_value is not None:
        return radial_scale(b.const_value, a)
    fa, fb = a.fn, b.fn
    return RadialFunction(lambda u: fa(u) * fb(u),
                          a.decay_order + b.decay_order,
                          key=("mul", a.key, b.key))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

SCHEMES = ("gauss_kronrod", "tanh_sinh")
PASS_TOL_FACTOR = 10.0  # a quadrature passes within this multiple of its target


@dataclass(frozen=True)
class QuadratureConfig:
    target_tol: float = 1e-10
    scheme: str = "gauss_kronrod"

    def __post_init__(self) -> None:
        if self.target_tol <= 0:
            raise ValueError("target_tol must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")

    @property
    def pass_tol(self) -> float:
        return self.target_tol * PASS_TOL_FACTOR


DEFAULT_CONFIG = QuadratureConfig()


def _compactified(f) -> Callable[[float], float]:
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
            raise DomainError(f"integrand {f} not finite at u={u!r}")
        return v / (s * s)

    return g


def _compactified_array(f) -> Callable:
    """The same transform on arrays: one call of f.fn for all points."""
    import numpy as np

    fn = f.fn

    def g(t):
        t = np.asarray(t, dtype=float)
        s = 1.0 - t
        inside = s > 0.0
        s = np.where(inside, s, 1.0)
        u = np.asarray(np.where(inside, t, 0.0) / s)
        v = fn(u)
        bad = ~np.isfinite(v)
        if bad.any():
            raise DomainError(f"integrand {f} not finite at u={u[bad].flat[0]!r}")
        return np.where(inside, v / (s * s), 0.0)

    return g


def integrate_halfline(f, cfg: QuadratureConfig = DEFAULT_CONFIG, name: str = "") -> float:
    """Integral of f (a Radial or a RadialFunction) over [0, inf) to within
    cfg.target_tol (estimated); name labels f in a NonConvergence message."""
    if f.is_zero:
        return 0.0
    if not f.integrable:
        raise DomainError(f"{f} is not an integrable half-line function "
                          "(it must decay faster than 1/u)")
    if cfg.scheme == "tanh_sinh":
        return _tanh_sinh(f, cfg, name)
    return _gauss_kronrod(_compactified(f), f, cfg, name)


def _stalled(f, name: str, value: float, estimate: float, cfg: QuadratureConfig,
             reason: str) -> NonConvergence:
    """The error of a quadrature that never returned a value, labelled by
    name or by the start of f; when the error estimate met the target, the
    integrator's own flag is the reason."""
    text = str(f)
    label = name or (text if len(text) <= 60 else text[:57] + "...")
    if estimate <= cfg.target_tol:
        why = f"{reason} (estimate {estimate:.1e} met the target)"
    else:
        why = f"stalled at estimate {estimate:.3e} (target {cfg.target_tol:.1e})"
    return NonConvergence(f"{label}: {why}", value, estimate)


def _gauss_kronrod(g, f, cfg: QuadratureConfig, name: str) -> float:
    from scipy import integrate

    out = integrate.quad(g, 0.0, 1.0, epsabs=cfg.target_tol * 0.5, epsrel=1e-13,
                         limit=50, full_output=1)
    if out[1] <= cfg.target_tol and len(out) == 3:  # a fourth item means ier != 0
        return out[0]
    # scipy's message up to its first comma or full stop
    reason = " ".join(out[3].split()).split(",")[0].split(".")[0] if len(out) > 3 else ""
    raise _stalled(f, name, out[0], out[1], cfg, f"scipy quad: {reason}")


def _tanh_sinh(f, cfg: QuadratureConfig, name: str) -> float:
    from scipy import integrate

    if isinstance(f, Radial):
        gv = _compactified_array(f)
    else:  # an opaque integrand takes one point at a time
        import numpy as np

        gv = np.vectorize(_compactified(f), otypes=[float])
    res = integrate.tanhsinh(gv, 0.0, 1.0, atol=cfg.target_tol * 0.5, maxlevel=10)
    if res.success and float(res.error) <= cfg.target_tol:
        return float(res.integral)
    raise _stalled(f, name, float(res.integral), float(res.error), cfg,
                   f"scipy tanhsinh status {int(res.status)}")


# ---------------------------------------------------------------------------
# Closed form vs quadrature comparison records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationEntry:
    """One graded check.  expected is None when the exact value lies outside
    the constant span (the 2*pi of the quotient-metric check); the grade
    then uses expected_float alone."""

    name: str
    n: Optional[int]
    expected: Optional[ExactConstant]
    expected_float: float
    computed: float
    abs_error: float
    passed: bool
    tol: float

    def as_report_row(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "expected": self.expected_float,
            "computed": self.computed,
            "abs_error": self.abs_error,
            "pass": self.passed,
        }


def graded(name: str, n: Optional[int], expected: ExactConstant, computed: float,
           tol: float, passed: Optional[bool] = None) -> VerificationEntry:
    """A check of computed against an exact value; by default it passes
    within tol."""
    target = expected.to_float()
    err = abs(computed - target)
    return VerificationEntry(name=name, n=n, expected=expected, expected_float=target,
                             computed=computed, abs_error=err,
                             passed=err <= tol if passed is None else passed, tol=tol)


def compare_closed_form(f, expected: ExactConstant,
                        cfg: QuadratureConfig = DEFAULT_CONFIG,
                        name: str = "", n: Optional[int] = None) -> VerificationEntry:
    """Quadrature f over the half-line and grade it against an exact value."""
    computed = integrate_halfline(f, cfg, name=name)
    return graded(name or str(f), n, expected, computed, cfg.pass_tol)
