"""Independent oracles for the paper's headline identities.

Exact values live in the Q-span of the atoms 1, log(pi), log(p) for primes p,
zeta'(-1) and zeta(-1).  Here a value is a plain dict mapping an atom key
(kind, prime) to a nonzero Fraction, built from the paper's formulas alone:
nothing in this module calls the program, and program results are compared
coefficient by coefficient after reading them through ExactConstant.coeffs.

The module also parses the CLI's text output, so that the same oracles check
subprocess runs, and it holds the checks shared by the benchmark's processes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Tuple

Atom = Tuple[str, int]
Value = Dict[Atom, Fraction]

ONE: Atom = ("one", 0)
LOG_PI: Atom = ("log_pi", 0)
ZETA_PRIME_M1: Atom = ("zeta_prime_m1", 0)
ZETA_M1: Atom = ("zeta_m1", 0)

ZETA_PRIME_M1_FLOAT = -0.16542114370045092921391966024278064276
ATOM_FLOATS = {"one": 1.0, "log_pi": math.log(math.pi),
               "zeta_prime_m1": ZETA_PRIME_M1_FLOAT, "zeta_m1": -1.0 / 12.0}
PASS_TOL = 1e-9     # the CLI's pass tolerance: target 1e-10 times safety factor 10
HEIGHT_RANGE = 20   # `verify` prints a height row for each n in 0..HEIGHT_RANGE


def combine(*terms: Tuple[object, Value]) -> Value:
    """Sum of q * value over (q, value) pairs, with zero coefficients dropped."""
    out: Value = {}
    for q, value in terms:
        for atom, c in value.items():
            out[atom] = out.get(atom, Fraction(0)) + Fraction(q) * c
    return {a: c for a, c in out.items() if c}


def atom(a: Atom) -> Value:
    return {a: Fraction(1)}


def rational(q) -> Value:
    q = Fraction(q)
    return {ONE: q} if q else {}


def log_q(q) -> Value:
    """log of a positive rational as prime-log atoms."""
    q = Fraction(q)
    out: Value = {}
    for m, sign in ((q.numerator, 1), (q.denominator, -1)):
        p = 2
        while p * p <= m:
            while m % p == 0:
                out[("log_prime", p)] = out.get(("log_prime", p), Fraction(0)) + sign
                m //= p
            p += 1
        if m > 1:
            out[("log_prime", m)] = out.get(("log_prime", m), Fraction(0)) + sign
    return {a: c for a, c in out.items() if c}


def to_float(value: Value) -> float:
    return math.fsum(float(c) * (math.log(a[1]) if a[0] == "log_prime" else ATOM_FLOATS[a[0]])
                     for a, c in value.items())


def coeffs_of(exact) -> Value:
    """A program ExactConstant as an oracle value."""
    return {(a.kind, a.prime): Fraction(q) for a, q in exact.coeffs.items() if q}


def close(x: float, y: float, tol: float = PASS_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


# ---------------------------------------------------------------------------
# Headline identities
# ---------------------------------------------------------------------------


def tau_p1() -> Value:
    """(1 + log 2pi)/3 - 4 zeta'(-1) - 2 zeta(-1)."""
    third = Fraction(1, 3)
    return combine((third, rational(1)), (third, log_q(2)), (third, atom(LOG_PI)),
                   (-4, atom(ZETA_PRIME_M1)), (-2, atom(ZETA_M1)))


def main_value(n: int) -> Value:
    """tau - log Vol = n log(n+1)/24 - n/6 + 2 tau(P^1)."""
    return combine((Fraction(n, 24), log_q(n + 1)), (1, rational(Fraction(-n, 6))),
                   (2, tau_p1()))


def volume(n: int) -> Fraction:
    return Fraction(n + 2, 2)


def tau(n: int) -> Value:
    return combine((1, main_value(n)), (1, log_q(volume(n))))


def height(n: int) -> Fraction:
    return Fraction(2 * n * n + 9 * n + 12, 4)


def _log_np1_over_n(n: int, lead, tail_num) -> Value:
    """lead + (tail_num / n) log(n+1), which is 0 at n = 0 by the limit convention."""
    if n == 0:
        return {}
    return combine((1, rational(lead)), (Fraction(tail_num, n), log_q(n + 1)))


def named_integrals(n: int) -> List[Tuple[str, Value]]:
    """Closed forms of the displayed integrals, in the program's report order."""
    return [
        ("halfline_inverse_cube", rational(Fraction(1, 2))),
        ("fiber_mass_relative_form", rational(1)),
        ("relative_form_wedge_alpha", rational(volume(n))),
        ("alpha_wedge_base", rational(1)),
        ("surface_volume", rational(volume(n))),
        ("c1_c1rel_log_ratio", _log_np1_over_n(n, 5 * n + 6, -(n * n + 6 * n + 6))),
        ("c1_bott_chern_c2", _log_np1_over_n(n, -n - 2, 2 * n + 2)),
        ("bb_first_term", _log_np1_over_n(n, -4, 4 * n + 4)),
        ("c1_bott_chern_total", _log_np1_over_n(n, 4 * n + 4, -(n * n + 4 * n + 4))),
        ("bb_todd_total", combine((1, rational(Fraction(n, 6))),
                                  (Fraction(-n, 24), log_q(n + 1)))),
        ("c1_squared", rational(8)),
        ("c1rel_squared", {}),
    ]


def hodge_l2(n: int) -> List[Tuple[str, Value]]:
    """Exact values of the star and L2-norm checks, in the program's order."""
    return [
        ("star_fixes_alpha", {}),
        ("star_of_harmonic_base_class", {}),
        ("star_is_an_involution", {}),
        ("norm_sq_alpha", rational(n + 2)),
        ("norm_sq_harmonic_base_class", rational(Fraction(2, n + 2))),
        ("norm_sq_h0_generator", rational(volume(n))),
        ("norm_sq_top_generator", rational(Fraction(2, n + 2))),
        ("harmonic_base_class_squared", {}),
        ("primitive_part_orthogonal_to_alpha", {}),
        ("star_isometry_on_mixed_pair", {}),
    ]


# ---------------------------------------------------------------------------
# Checks of API results.  Each returns (wrong, failed): lists of messages for
# outputs that contradict the oracle, and for checks the program itself
# reports as not passed.
# ---------------------------------------------------------------------------


def check_main_theorem(n: int, res) -> List[str]:
    t = tau(n)
    wrong = []
    for name, expected in (("tau_rr", t), ("tau_bb", t), ("tau_closed", t),
                           ("tau_omega1", {}), ("tau_omega2", combine((-1, t))),
                           ("main_theorem_value", main_value(n))):
        if coeffs_of(getattr(res, name)) != expected:
            wrong.append(f"main_theorem({n}).{name} = {getattr(res, name)}")
    if res.vol != volume(n):
        wrong.append(f"main_theorem({n}).vol = {res.vol}")
    if not close(res.tau_float, to_float(t)):
        wrong.append(f"main_theorem({n}).tau_float = {res.tau_float!r}")
    return wrong


def check_height(n: int, h) -> List[str]:
    return [] if h == height(n) else [f"height({n}) = {h}"]


def check_entries(n: int, label: str, rows, expected: List[Tuple[str, Value]]):
    """rows: (name, exact value or None, computed float, passed, tol) per check.

    A check the program passes must sit within its tolerance of the oracle;
    one it fails is a failed check, not a wrong output.
    """
    wrong, failed = [], []
    names = [r[0] for r in rows]
    if names != [e[0] for e in expected]:
        return [f"{label}({n}) check names {names}"], failed
    for (name, exact, computed, passed, tol), (_, value) in zip(rows, expected):
        if exact is not None and coeffs_of(exact) != value:
            wrong.append(f"{label}({n}) {name} closed form {exact}")
        target = to_float(value)
        if not passed:
            failed.append(f"{label}({n}) {name} err {abs(computed - target):.3e} > {tol:.1e}")
        elif abs(computed - target) > tol + 1e-12 * max(1.0, abs(target)):
            wrong.append(f"{label}({n}) {name} passed at {computed!r}, oracle {target!r}")
    return wrong, failed


# ---------------------------------------------------------------------------
# CLI text output
# ---------------------------------------------------------------------------

_LABELS = {"1": rational(1), "log(pi)": atom(LOG_PI), "zeta'(-1)": atom(ZETA_PRIME_M1),
           "zeta(-1)": atom(ZETA_M1), "tau_P1": tau_p1()}
_LOG_PRIME = re.compile(r"log\((\d+)\)")
_RATIONAL = re.compile(r"\d+(?:/\d+)?")


def parse_exact(text: str) -> Value:
    """Parse a printed exact constant, e.g. '-7/6 - 1/8*log(2) + 2*tau_P1'."""
    text = text.strip()
    if text == "0":
        return {}
    words = (("- " + text[1:]) if text.startswith("-") else ("+ " + text)).split(" ")
    if len(words) % 2 or any(s not in "+-" for s in words[::2]):
        raise ValueError(f"unparsable exact constant {text!r}")
    terms = []
    for sign, term in zip(words[::2], words[1::2]):
        coef, _, label = term.rpartition("*")
        if not coef and _RATIONAL.fullmatch(label):
            coef, label = label, "1"
        m = _LOG_PRIME.fullmatch(label)
        if m:
            value = atom(("log_prime", int(m.group(1))))
        elif label in _LABELS:
            value = _LABELS[label]
        else:
            raise ValueError(f"unknown atom {label!r} in {text!r}")
        q = Fraction(coef or 1)
        terms.append((-q if sign == "-" else q, value))
    return combine(*terms)


def check_height_text(argv: List[str], out: str) -> List[str]:
    if "--n-max" in argv:
        top = int(argv[argv.index("--n-max") + 1])
        expected = "n,height\n" + "".join(f"{n},{height(n)}\n" for n in range(top + 1))
    else:
        expected = f"{height(int(argv[argv.index('--n') + 1]))}\n"
    return [] if out == expected else [f"{' '.join(argv)}: height output differs"]


def check_constants_text(out: str) -> List[str]:
    rows = dict(line.split(None, 1) for line in out.splitlines())
    ok = (close(float(rows.get("log(pi)", "nan")), ATOM_FLOATS["log_pi"], 1e-15)
          and close(float(rows.get("zeta'(-1)", "nan")), ZETA_PRIME_M1_FLOAT, 1e-15))
    return [] if ok else ["constants: reference values differ"]


def check_torsion_text(n: int, out: str) -> List[str]:
    t, m = tau(n), main_value(n)
    expected = [(f"tau[{r:6s}]", t, True) for r in ("rr", "bb", "closed")] + [
        ("tau(middle twist)", {}, False), ("tau(top twist)", combine((-1, t)), False),
        ("tau - log Vol", m, True)]
    lines = out.splitlines()
    if len(lines) != 7 or lines[0] != f"n = {n}  (volume {volume(n)})":
        return [f"torsion --n {n}: unexpected layout"]
    wrong = []
    for line, (label, value, with_float) in zip(lines[1:], expected):
        head, _, rest = line.strip().partition(" = ")
        exact, _, number = rest.partition("  = ")
        if head.strip() != label or parse_exact(exact) != value or bool(number) != with_float \
                or (number and not close(float(number), to_float(value))):
            wrong.append(f"torsion --n {n}: {line.strip()}")
    return wrong


_INTEGRAL_ROW = re.compile(r"(PASS|FAIL)  n=(\d+) +(\S+) +closed=(.*?) +quad=(\S+) err=(\S+)")


def check_integrals_text(n: int, out: str) -> List[str]:
    rows = [_INTEGRAL_ROW.fullmatch(line) for line in out.splitlines()]
    expected = named_integrals(n)
    if len(rows) != len(expected) or not all(rows):
        return [f"integrals --n {n}: unexpected layout"]
    wrong = []
    for row, (name, value) in zip(rows, expected):
        mark, rn, rname, exact, quad, _ = row.groups()
        target = to_float(value)
        if (mark != "PASS" or int(rn) != n or rname != name or parse_exact(exact) != value
                or abs(float(quad) - target) > PASS_TOL + 1e-12 * max(1.0, abs(target))):
            wrong.append(f"integrals --n {n}: {row.group(0)}")
    return wrong


def check_verify_text(n: int, out: str) -> List[str]:
    """Every row PASS, the summary agrees, and the rows with exact meaning
    (heights, exact route agreement, named integrals) match the oracles."""
    lines = out.splitlines()
    rows = [line.split() for line in lines[:-1]]
    if not lines or not lines[-1].startswith(f"{len(rows)} checks, all passed,"):
        return [f"verify --n {n}: summary {lines[-1] if lines else ''!r}"]
    floats = {name: to_float(v) for name, v in named_integrals(n)}
    floats["route_equality_exact"] = to_float(tau(n))
    floats["torsion_form_equals_base_torsion"] = to_float(tau_p1())
    floats["height_closed_form"] = float(height(n))
    heights = []
    wrong = []
    for row in rows:
        if len(row) != 5 or row[0] != "PASS" or not row[3].startswith("computed="):
            wrong.append(f"verify --n {n}: {' '.join(row)}")
            continue
        name, computed = row[1], float(row[3][len("computed="):])
        if name == "height_two_pipelines":
            m = int(row[2][len("n="):])
            heights.append(m)
            target, tol = float(height(m)), 0.0
        elif name in floats:
            target, tol = floats[name], PASS_TOL
        else:
            continue
        if abs(computed - target) > tol * max(1.0, abs(target)):
            wrong.append(f"verify --n {n}: {' '.join(row)}")
    if heights != list(range(HEIGHT_RANGE + 1)):
        wrong.append(f"verify --n {n}: height rows for {heights}")
    return wrong
