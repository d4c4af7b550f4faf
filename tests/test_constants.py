"""Exact-constant arithmetic: normal forms, evaluation, serialization, laws."""

import random
from fractions import Fraction

import pytest

from hirzebruch_torsion import constants as C
from hirzebruch_torsion.constants import (
    ExactConstant,
    LOG_PI,
    NonRationalProduct,
    ONE,
    ZETA_M1,
    ZETA_PRIME_M1,
    log_2pi,
    log_prime_atom,
    log_rational,
)

# Independent reference: (1 + log 2pi)/3 - 4 zeta'(-1) - 2 zeta(-1), evaluated
# with 40-digit arithmetic out of band.
TAU_P1_REFERENCE = 1.7743102636049188780


def tau_p1_constant() -> ExactConstant:
    return (ExactConstant.rational(1) + log_2pi()).scale(Fraction(1, 3)) \
        - ExactConstant.atom(ZETA_PRIME_M1, 4) - ExactConstant.atom(ZETA_M1, 2)


def random_constant(rng: random.Random) -> ExactConstant:
    atoms = [ONE, LOG_PI, log_prime_atom(2), log_prime_atom(3), log_prime_atom(5),
             ZETA_PRIME_M1, ZETA_M1]
    picked = rng.sample(atoms, rng.randint(0, len(atoms)))
    return ExactConstant({a: Fraction(rng.randint(-12, 12), rng.randint(1, 9))
                          for a in picked})


class TestAtoms:
    def test_log_prime_rejects_composites(self):
        with pytest.raises(ValueError):
            log_prime_atom(6)
        with pytest.raises(ValueError):
            log_prime_atom(1)

    def test_atoms_are_totally_ordered(self):
        atoms = [ZETA_M1, log_prime_atom(5), ONE, log_prime_atom(2), LOG_PI]
        keys = [a.sort_key() for a in sorted(atoms, key=lambda a: a.sort_key())]
        assert keys == sorted(keys)


class TestAdd:
    def test_doubling_a_log(self):
        l2 = log_rational(2)
        assert l2 + l2 == log_rational(2).scale(2)

    def test_doubling_the_base_torsion(self):
        t = tau_p1_constant()
        doubled = t + t
        assert doubled.coefficient(ZETA_PRIME_M1) == -8
        assert doubled.coefficient(ZETA_M1) == -4
        assert doubled.rational_part == Fraction(2, 3)
        assert doubled.coefficient(LOG_PI) == Fraction(2, 3)

    def test_log2pi_minus_logpi_is_log2(self):
        assert log_2pi() - ExactConstant.atom(LOG_PI) == log_rational(2)


class TestScale:
    def test_scale_by_zero(self):
        assert tau_p1_constant().scale(0) == ExactConstant.zero()

    def test_rational_log_laws(self):
        # (1/24) * (3 log 4) = (1/4) log 2, through the prime decomposition
        val = log_rational(4).scale(3).scale(Fraction(1, 24))
        assert val == log_rational(2).scale(Fraction(1, 4))

    def test_halving_a_mixed_value(self):
        v = ExactConstant.rational(16) + log_2pi().scale(16)
        half = v.scale(Fraction(1, 2))
        assert half.rational_part == 8
        assert half.coefficient(log_prime_atom(2)) == 8
        assert half.coefficient(LOG_PI) == 8


class TestMul:
    def test_rational_times_log(self):
        assert ExactConstant.rational(2) * log_rational(3) == log_rational(3).scale(2)

    def test_two_transcendentals_fail(self):
        with pytest.raises(NonRationalProduct):
            log_rational(2) * log_rational(3)

    def test_zero_times_anything(self):
        z = ExactConstant.zero()
        assert z * ExactConstant.atom(ZETA_PRIME_M1) == z


class TestNormalFormArithmetic:
    """+, -, neg, scale and rational * build their normal form directly; it
    equals what ExactConstant(dict) makes of the same value: the same atoms in
    the same order, with Fraction coefficients."""

    @staticmethod
    def same(got: ExactConstant, coeffs: dict) -> None:
        want = ExactConstant(coeffs)
        assert [(a, type(q), q) for a, q in got._coeffs.items()] \
            == [(a, type(q), q) for a, q in want._coeffs.items()]

    def check(self, a: ExactConstant, b: ExactConstant, q) -> None:
        x, y = a._coeffs, b._coeffs
        self.same(a + b, {**x, **{t: x.get(t, 0) + c for t, c in y.items()}})
        self.same(a - b, {**x, **{t: x.get(t, 0) - c for t, c in y.items()}})
        self.same(-a, {t: -c for t, c in x.items()})
        for s in (q, 0, 1, -1, 3):
            scaled = {t: c * s for t, c in x.items()}
            self.same(a.scale(s), scaled)
            self.same(a * s, scaled)
            self.same(s * a, scaled)
            self.same(ExactConstant.rational(s) * a, scaled)

    def test_200_random_cases(self):
        rng = random.Random(23)
        for _ in range(200):
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            self.check(random_constant(rng), random_constant(rng), q)

    def test_a_new_atom_enters_in_order(self):
        # log(pi) sorts before log(2), and zeta'(-1) after it
        a = log_rational(2)
        for b in (ExactConstant.atom(LOG_PI), ExactConstant.atom(ZETA_PRIME_M1, -3),
                  ExactConstant.rational(Fraction(1, 3))):
            self.check(a, b, Fraction(2, 5))
            self.check(b, a, Fraction(2, 5))

    def test_cancellation_to_zero(self):
        t = tau_p1_constant()
        self.check(t, t, Fraction(-1, 2))
        self.check(t, -t, Fraction(-1, 2))
        assert (t - t).is_zero and (t + (-t)).is_zero
        self.same(log_2pi() - ExactConstant.atom(LOG_PI), log_rational(2)._coeffs)

    def test_scaling_by_zero_and_one(self):
        t = tau_p1_constant()
        assert t.scale(1) is t and t.scale(Fraction(1)) is t
        assert t.scale(0).is_zero and t.scale(Fraction(0)).is_zero
        self.check(ExactConstant.zero(), t, 0)


class TestLogRational:
    def test_log_one(self):
        assert log_rational(1) == ExactConstant.zero()

    def test_log_three_halves(self):
        v = log_rational(Fraction(3, 2))
        assert v.coefficient(log_prime_atom(3)) == 1
        assert v.coefficient(log_prime_atom(2)) == -1

    def test_log_four(self):
        assert log_rational(4) == log_rational(2).scale(2)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_rational(0)
        with pytest.raises(ValueError):
            log_rational(Fraction(-3, 2))


def trial_division(m: int) -> dict:
    """Prime factorization by plain trial division, the reference of _factor."""
    out, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


class TestFactorization:
    def test_matches_trial_division_up_to_1e9(self):
        rng = random.Random(11)
        top = [p for p in range(31623, 31400, -1) if trial_division(p) == {p: 1}][:3]
        ms = (list(range(1, 3000)) + [rng.randint(1, 10**9 + 2) for _ in range(60)]
              + [p * q for p in top for q in top] + [10**9 + 1, 10**9 + 2, 999999937])
        for m in ms:
            assert C._factor(m) == trial_division(m), m

    @pytest.mark.parametrize("m,expected", [
        (999999999989, {999999999989: 1}),               # prime, about 10^12
        (2**61 - 1, {2**61 - 1: 1}),                     # prime beyond trial division
        (3 * 1009**10 * (2**61 - 1), {3: 1, 1009: 10, 2**61 - 1: 1}),
        (1048573 * 1048571, {1048571: 1, 1048573: 1}),   # two primes near the bound
    ])
    def test_large_factors_are_proven(self, m, expected):
        assert C._factor(m) == expected

    @pytest.mark.parametrize("m", [10**400 + 1, (2**89 - 1) * 2,
                                   10670053 * 32010157 * 3],
                             ids=["huge", "unproven_prime", "two_large_primes"])
    def test_what_the_bound_cannot_settle_is_refused(self, m):
        with pytest.raises(C.FactorizationLimit, match="cannot factor"):
            C._factor(m)
        with pytest.raises(C.FactorizationLimit):
            log_rational(m)

    def test_strong_pseudoprimes_are_composite(self):
        # each is a strong pseudoprime to the first few of the bases 2..41
        for c in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 318665857834031151167461):
            assert not C._is_prime(c), c
        assert C._is_prime(999999999989) and C._is_prime(2**61 - 1)
        with pytest.raises(C.FactorizationLimit):
            C._is_prime(2**89 - 1)

    def test_public_atoms_are_still_checked(self):
        assert log_prime_atom(999999999989).prime == 999999999989
        with pytest.raises(ValueError):
            log_prime_atom(999999999987)

    def test_factored_atoms_equal_public_ones(self):
        for p in (2, 3, 41, 43, 999999999989):
            atom = C._factored_log_prime(p)
            assert atom == log_prime_atom(p) and hash(atom) == hash(log_prime_atom(p))


class TestToFloat:
    def test_zero(self):
        assert ExactConstant.zero().to_float() == 0.0

    def test_zeta_m1_is_the_exact_rational(self):
        assert ExactConstant.atom(ZETA_M1).to_float() == -1.0 / 12.0

    def test_base_torsion_value(self):
        assert tau_p1_constant().to_float() == pytest.approx(TAU_P1_REFERENCE,
                                                             rel=1e-15)

    def test_reference_digits_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        assert float(C.LOG_PI_REFERENCE) == pytest.approx(float(mp.log(mp.pi)),
                                                          rel=1e-16)
        assert float(C.ZETA_PRIME_M1_REFERENCE) == pytest.approx(
            float(mp.zeta(-1, derivative=1)), rel=1e-16)

    def test_additivity(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = random_constant(rng), random_constant(rng)
            lhs = (a + b).to_float()
            rhs = a.to_float() + b.to_float()
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


class TestVectorSpaceLaws:
    def test_100_random_cases(self):
        rng = random.Random(2024)
        for _ in range(100):
            a, b, c = (random_constant(rng) for _ in range(3))
            p = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert (a + b).scale(p) == a.scale(p) + b.scale(p)
            assert a.scale(p + q) == a.scale(p) + a.scale(q)
            assert a.scale(p).scale(q) == a.scale(p * q)
            assert a + ExactConstant.zero() == a
            assert a - a == ExactConstant.zero()

    def test_log_rational_homomorphism_100_cases(self):
        rng = random.Random(99)
        for _ in range(100):
            p = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            q = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            assert log_rational(p * q) == log_rational(p) + log_rational(q)


class TestSerialization:
    def test_schema_fields(self):
        d = tau_p1_constant().to_json_dict()
        assert set(d) == {"rational", "log_atoms", "zeta_prime_m1", "zeta_m1"}
        assert d["rational"] == "1/3"
        assert d["log_atoms"] == {"pi": "1/3", "2": "1/3"}
        assert d["zeta_prime_m1"] == "-4"
        assert d["zeta_m1"] == "-2"

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_constant(rng)
            assert ExactConstant.from_json_dict(a.to_json_dict()) == a
