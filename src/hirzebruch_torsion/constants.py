"""Exact arithmetic in the Q-span of the transcendental constants of the engine.

Every symbolic quantity produced by the pipelines (torsion values, heights,
closed-form integrals) is a Q-linear combination of a fixed basis of atoms:

    1,  log(pi),  log(p) for primes p,  zeta'(-1),  zeta(-1).

Working in this basis makes equality of differently derived expressions
decidable by normal form: log(2*pi), log(n+1), log((n+2)/2) all reduce to
prime logarithms plus log(pi).  zeta(-1) is kept as an atom for display even
though it equals -1/12; numerical evaluation substitutes the exact rational.

Values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
import threading
import weakref
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Tuple, Union

RationalLike = Union[int, Fraction]

# Reference values, >= 20 significant digits (float() rounds correctly).
LOG_PI_REFERENCE = "1.144729885849400174143427351353058711647"
ZETA_PRIME_M1_REFERENCE = "-0.165421143700450929213919660242780642764"
ZETA_M1_RATIONAL = Fraction(-1, 12)


class NonRationalProduct(ArithmeticError):
    """Product of two non-rational exact constants: a pipeline bug by contract."""


class FactorizationLimit(ArithmeticError):
    """An integer whose prime factors lie beyond the bounded factorization."""


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

# Miller-Rabin to the bases 2..41 decides primality of every integer below
# _MR_PROVEN (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981
# Trial division stops here: on its own it settles every integer below 2^40.
_TRIAL_BOUND = 1 << 20


def _strong_probable_prime(m: int) -> bool:
    """Miller-Rabin to every base of _MR_BASES, for an odd m > 41."""
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _is_prime(p: int) -> bool:
    """Whether p is prime; raises FactorizationLimit for a p of _MR_PROVEN or
    more that passes every Miller-Rabin base, which no test here settles."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if not _strong_probable_prime(p):
        return False
    if p < _MR_PROVEN:
        return True
    raise FactorizationLimit(f"cannot prove a {p.bit_length()}-bit integer prime")


def _factor(m: int) -> Dict[int, int]:
    """Prime factorization of m >= 1.  After the primes 2..41, trial division
    goes on until the cofactor is 1, has no divisor up to its square root, or
    is proven prime by Miller-Rabin (tried each time it changes); a cofactor
    with no divisor up to _TRIAL_BOUND that none of these settles raises
    FactorizationLimit."""
    out: Dict[int, int] = {}
    whole = m
    for p in _MR_BASES:
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
    d = _MR_BASES[-1] + 2
    while m > 1:
        if d * d > m or (m < _MR_PROVEN and _strong_probable_prime(m)):
            out[m] = 1
            break
        while m % d:
            d += 2
            if d > _TRIAL_BOUND:
                raise FactorizationLimit(
                    f"cannot factor a {whole.bit_length()}-bit integer: its "
                    f"{m.bit_length()}-bit cofactor has no prime factor up to "
                    f"{_TRIAL_BOUND} and is not proven prime")
        while m % d == 0:
            m //= d
            out[d] = out.get(d, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

_KIND_RANK = {"one": 0, "log_pi": 1, "log_prime": 2, "zeta_prime_m1": 3, "zeta_m1": 4}
_ATOMS = weakref.WeakValueDictionary()  # (kind, prime) -> the live atom
_ATOMS_LOCK = threading.Lock()


def _interned(kind: str, prime: int) -> ConstantAtom:
    """The live atom of a valid (kind, prime), made and entered in the table
    when there is none."""
    with _ATOMS_LOCK:
        atom = _ATOMS.get((kind, prime))
        if atom is None:
            atom = object.__new__(ConstantAtom)
            atom.kind, atom.prime = kind, prime
            _ATOMS[(kind, prime)] = atom
        return atom


class ConstantAtom:
    """One basis element: the rational unit, log(pi), log(p), zeta'(-1) or zeta(-1).

    Immutable and interned: the constructor returns the one live atom of each
    (kind, prime), held by a weak table that is filled under a lock, so atoms
    compare and hash by identity (in C) and an atom no longer referenced
    leaves the table.  Copies and pickles resolve to the same atom."""

    __slots__ = ("kind", "prime", "__weakref__")

    def __new__(cls, kind: str, prime: int = 0) -> ConstantAtom:
        atom = _ATOMS.get((kind, prime))
        if atom is not None:
            return atom
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown atom kind {kind!r}")
        if kind == "log_prime":
            if not _is_prime(prime):
                raise ValueError(f"log_prime atom needs a prime argument, got {prime}")
        elif prime:
            raise ValueError(f"{kind} atom carries no prime")
        return _interned(kind, prime)

    def __reduce__(self):
        return ConstantAtom, (self.kind, self.prime)

    def __repr__(self) -> str:
        return f"ConstantAtom(kind={self.kind!r}, prime={self.prime!r})"

    def sort_key(self) -> Tuple[int, int]:
        return (_KIND_RANK[self.kind], self.prime)

    def value(self) -> float:
        if self.kind == "one":
            return 1.0
        if self.kind == "log_pi":
            return float(LOG_PI_REFERENCE)
        if self.kind == "log_prime":
            return math.log(self.prime)
        if self.kind == "zeta_prime_m1":
            return float(ZETA_PRIME_M1_REFERENCE)
        return float(ZETA_M1_RATIONAL)

    def label(self) -> str:
        return {
            "one": "1",
            "log_pi": "log(pi)",
            "log_prime": f"log({self.prime})",
            "zeta_prime_m1": "zeta'(-1)",
            "zeta_m1": "zeta(-1)",
        }[self.kind]


ONE = ConstantAtom("one")
LOG_PI = ConstantAtom("log_pi")
ZETA_PRIME_M1 = ConstantAtom("zeta_prime_m1")
ZETA_M1 = ConstantAtom("zeta_m1")
_NO_COEFFICIENT = Fraction(0)  # immutable, so every miss returns this one


def log_prime_atom(p: int) -> ConstantAtom:
    return ConstantAtom("log_prime", p)


def _factored_log_prime(p: int) -> ConstantAtom:
    """log(p) for a p that _factor returned, so proven prime already."""
    return _ATOMS.get(("log_prime", p)) or _interned("log_prime", p)


# ---------------------------------------------------------------------------
# ExactConstant
# ---------------------------------------------------------------------------


class ExactConstant:
    """A finite Q-linear combination of atoms, stored in normal form.

    Normal form: no zero coefficients, atoms canonically ordered.  Equality is
    coefficient-wise, sound under the working assumption that the atoms are
    Q-linearly independent.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[ConstantAtom, RationalLike] | None = None):
        norm = {atom: c if type(c) is Fraction else Fraction(c)
                for atom, c in (coeffs or {}).items() if c}
        if len(norm) > 1:
            norm = dict(sorted(norm.items(), key=_atom_order))
        self._coeffs: Dict[ConstantAtom, Fraction] = norm

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExactConstant":
        return ExactConstant()

    @staticmethod
    def rational(q: RationalLike) -> "ExactConstant":
        return ExactConstant({ONE: Fraction(q)})

    @staticmethod
    def atom(a: ConstantAtom, q: RationalLike = 1) -> "ExactConstant":
        return ExactConstant({a: Fraction(q)})

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> Dict[ConstantAtom, Fraction]:
        return dict(self._coeffs)

    def items(self):
        """The (atom, coefficient) pairs in atom order, a view without a copy."""
        return self._coeffs.items()

    def coefficient(self, a: ConstantAtom) -> Fraction:
        return self._coeffs.get(a, _NO_COEFFICIENT)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_rational(self) -> bool:
        return all(a == ONE for a in self._coeffs)

    @property
    def rational_part(self) -> Fraction:
        return self._coeffs.get(ONE, _NO_COEFFICIENT)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactConstant") -> "ExactConstant":
        return self._plus(other, False)

    def __neg__(self) -> "ExactConstant":
        return _normal({a: -q for a, q in self._coeffs.items()})

    def __sub__(self, other: "ExactConstant") -> "ExactConstant":
        return self._plus(other, True)

    def _plus(self, other: "ExactConstant", negate: bool) -> "ExactConstant":
        """self + other, or self - other: the normal form is kept, so only a
        new atom makes a sort."""
        if not other._coeffs:
            return self
        if not self._coeffs and not negate:
            return other
        merged = dict(self._coeffs)
        grown = False
        for a, q in other._coeffs.items():
            c = merged.get(a)
            if c is None:
                merged[a] = -q if negate else q
                grown = True
            else:
                c = c - q if negate else c + q
                if c:
                    merged[a] = c
                else:
                    del merged[a]
        if grown and len(merged) > 1:
            merged = dict(sorted(merged.items(), key=_atom_order))
        return _normal(merged)

    def scale(self, q: RationalLike) -> "ExactConstant":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        if q == 1:
            return self
        if not q:
            return _normal({})
        return _normal({a: c * q for a, c in self._coeffs.items()})

    def __mul__(self, other: Union["ExactConstant", RationalLike]) -> "ExactConstant":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.is_rational:
            return other.scale(self.rational_part)
        if other.is_rational:
            return self.scale(other.rational_part)
        raise NonRationalProduct(
            f"product of non-rational constants ({self}) * ({other}); "
            "results of the pipelines are linear in transcendental atoms"
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.rational_part == other
        return isinstance(other, ExactConstant) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.rational_part)  # equal rationals hash alike
        return hash(tuple(self._coeffs.items()))

    # -- evaluation / io ----------------------------------------------------

    def to_float(self) -> float:
        return math.fsum(float(q) * a.value() for a, q in self._coeffs.items())

    __float__ = to_float

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for a, q in self._coeffs.items():
            mag = abs(q)
            if a == ONE:
                body = str(mag)
            elif mag == 1:
                body = a.label()
            else:
                body = f"{mag}*{a.label()}"
            parts.append(("- " if q < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"ExactConstant({self})"

    def to_json_dict(self) -> dict:
        log_atoms: Dict[str, str] = {}
        for a, q in self._coeffs.items():
            if a.kind == "log_pi":
                log_atoms["pi"] = str(q)
            elif a.kind == "log_prime":
                log_atoms[str(a.prime)] = str(q)
        return {
            "rational": str(self.rational_part),
            "log_atoms": log_atoms,
            "zeta_prime_m1": str(self.coefficient(ZETA_PRIME_M1)),
            "zeta_m1": str(self.coefficient(ZETA_M1)),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ExactConstant":
        coeffs: Dict[ConstantAtom, Fraction] = {ONE: Fraction(d["rational"])}
        for key, q in d.get("log_atoms", {}).items():
            atom = LOG_PI if key == "pi" else log_prime_atom(int(key))
            coeffs[atom] = Fraction(q)
        coeffs[ZETA_PRIME_M1] = Fraction(d.get("zeta_prime_m1", 0))
        coeffs[ZETA_M1] = Fraction(d.get("zeta_m1", 0))
        return ExactConstant(coeffs)


def _atom_order(item: Tuple[ConstantAtom, Fraction]) -> Tuple[int, int]:
    return item[0].sort_key()


def _normal(coeffs: Dict[ConstantAtom, Fraction]) -> ExactConstant:
    """The ExactConstant of coeffs, which are in normal form already."""
    out = ExactConstant.__new__(ExactConstant)
    out._coeffs = coeffs
    return out


# ---------------------------------------------------------------------------
# Logarithms of rationals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _prime_logs(m: int) -> Tuple[Tuple[ConstantAtom, int], ...]:
    """log(m) for an integer m >= 1 as (log(p), exponent) pairs; each m is
    factored once while it stays among the recent ones."""
    return tuple((_factored_log_prime(p), e) for p, e in _factor(m).items())


def log_rational(q: RationalLike) -> ExactConstant:
    """Decompose log(q) for q > 0 into prime-log atoms."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"log_rational needs a positive rational, got {q}")
    # numerator and denominator are coprime: no prime is in both
    coeffs = dict(_prime_logs(q.numerator))
    coeffs.update((atom, -e) for atom, e in _prime_logs(q.denominator))
    return ExactConstant(coeffs)


def log_2pi() -> ExactConstant:
    return log_rational(2) + ExactConstant.atom(LOG_PI)


def atom_table() -> Iterable[Tuple[str, str]]:
    """(label, reference value) rows for the named atoms, for reporting."""
    return [
        ("1", "1"),
        ("log(pi)", LOG_PI_REFERENCE),
        ("log(p)", "math.log(p) per prime p"),
        ("zeta'(-1)", ZETA_PRIME_M1_REFERENCE),
        ("zeta(-1)", f"{ZETA_M1_RATIONAL} (exact)"),
    ]
