import cmath
import random
from fractions import Fraction
from math import gcd, sqrt

import pytest

from primpair.charsums import (
    CycloSum,
    MultChar,
    PairCountEvaluator,
    char_orbit_sum,
    chi_f,
    cyclotomic_poly,
    exact_root_sum,
    rho_u,
    weil_bound_check,
)
from primpair.ffcore import factorize
from primpair.polyrat import Poly, RationalFunc


def direct_pair_count(ctx, f, l1, l2):
    """Independent oracle: count alpha with alpha l1-free and f(alpha) l2-free,
    via gcds of discrete logs (no characters anywhere)."""
    rad1 = ctx.rad_of_divisor(l1)
    rad2 = ctx.rad_of_divisor(l2)
    n = 0
    for a in range(1, ctx.q):
        den = f.den.eval(a)
        if den == 0:
            continue
        val = ctx.div(f.num.eval(a), den)
        if val == 0:
            continue
        if gcd(ctx.dlog_of(a), rad1) == 1 and gcd(ctx.dlog_of(val), rad2) == 1:
            n += 1
    return n


class TestCyclotomic:
    def test_small_polys(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_exact_root_sum_full_cycle(self):
        # sum of all m-th roots of unity is 0 for m > 1
        for m in (2, 3, 6, 12, 30):
            assert exact_root_sum([1] * m, m) == 0
        assert exact_root_sum([5], 1) == 5

    def test_exact_root_sum_rejects_irrational(self):
        with pytest.raises(ArithmeticError):
            exact_root_sum([0, 1], 3)  # zeta_3 alone is irrational

    def test_orbit_sum_equals_moebius_phi_form(self):
        # sum over characters of exact order d is the classical
        # mu(d/g) * phi(d) / phi(d/g) with g = gcd(d, t)
        for d in (1, 2, 3, 4, 6, 10, 12, 30, 105):
            fd = factorize(d)
            for t in range(d):
                g = gcd(d, t) if t else d
                fq = factorize(d // g)
                expected = fq.mobius * fd.euler_phi // fq.euler_phi
                assert char_orbit_sum(d, t) == expected, (d, t)

    def test_orbit_sum_gcd_reduction(self):
        # the cached path keys on gcd(t, d); direct accumulation at the raw t
        # must agree for every argument
        for d in (2, 3, 4, 6, 12, 18, 30, 60, 84, 210):
            for t in range(d):
                counts = [0] * d
                for k in range(d):
                    if gcd(k, d) == 1:
                        counts[k * t % d] += 1
                assert exact_root_sum(counts, d) == char_orbit_sum(d, t), (d, t)


class TestMultChar:
    def test_validation(self, field):
        F7 = field(7, 1)
        with pytest.raises(ValueError):
            MultChar(F7, 4)  # 4 does not divide 6
        with pytest.raises(ValueError):
            MultChar(F7, 3, 3)

    def test_exact_order(self, field):
        F13 = field(13, 1)
        assert MultChar(F13, 12, 1).exact_order == 12
        assert MultChar(F13, 12, 8).exact_order == 3
        assert MultChar(F13, 12, 0).exact_order == 1

    def test_multiplicativity(self, field):
        rng = random.Random(0)
        for p, k in ((13, 1), (3, 2), (2, 4)):
            ctx = field(p, k)
            for d in ctx.qm1.divisors():
                chi = MultChar(ctx, d, rng.randrange(d) if d > 1 else 0)
                for _ in range(50):
                    a = rng.randrange(1, ctx.q)
                    b = rng.randrange(1, ctx.q)
                    ea = chi.exponent(a)
                    eb = chi.exponent(b)
                    assert chi.exponent(ctx.mul(a, b)) == (ea + eb) % d

    def test_orthogonality(self, field, prime_powers):
        sample = [pk for pk in prime_powers(3, 128)] + [(997, 1, 997), (3, 6, 729)]
        for p, k, q in sample:
            ctx = field(p, k)
            for d in ctx.qm1.divisors():
                if d == 1:
                    continue
                chi = MultChar(ctx, d, 1)
                counts = [0] * d
                for t in range(q - 1):
                    counts[t % d] += 1
                total = sum(c * cmath.exp(2j * cmath.pi * i / d)
                            for i, c in enumerate(counts))
                assert abs(total) < 1e-9
                # same thing through the exact accumulator
                assert exact_root_sum(counts, d) == 0


class TestCycloSum:
    def test_float_matches_exact_reevaluation(self, field):
        rng = random.Random(2)
        F13 = field(13, 1)
        for _ in range(50):
            f = RationalFunc(
                Poly(F13, [rng.randrange(13) for _ in range(2)] + [rng.randrange(1, 13)]),
                Poly(F13, [rng.randrange(13), 1]))
            s = chi_f(MultChar(F13, 12, 1), MultChar(F13, 12, 5), f)
            assert all(c >= 0 for c in s.counts)
            # high-precision re-evaluation with sorted Kahan-style summation
            terms = sorted(
                (c * cmath.exp(2j * cmath.pi * t / s.modulus)
                 for t, c in enumerate(s.counts) if c),
                key=abs)
            hp = sum(terms, start=0j)
            assert abs(s.value() - hp) < 1e-9


class TestChiF:
    def test_orthogonality_example(self, field):
        F7 = field(7, 1)
        s = chi_f(MultChar(F7, 2, 1), MultChar(F7, 1, 0),
                  RationalFunc.from_coeffs(F7, (0, 1)))
        assert s.exact_int() == 0
        assert s.num_summands == 6

    def test_trivial_trivial_counts_summands(self, field):
        F7 = field(7, 1)
        # f = (x^2+1)/(x+2): pole at 5, no zeros over F_7, alpha = 0 excluded
        f = RationalFunc.from_coeffs(F7, (1, 0, 1), (2, 1))
        s = chi_f(MultChar(F7, 1, 0), MultChar(F7, 1, 0), f)
        assert s.exact_int() == s.num_summands == 7 - 1 - 1 - 0

    def test_quadratic_example_bound(self, field):
        F13 = field(13, 1)
        f = RationalFunc.from_coeffs(F13, (1, 0, 1), (0, 1))
        s = chi_f(MultChar(F13, 2, 1), MultChar(F13, 2, 1), f)
        assert abs(s.value()) <= 2 * sqrt(13) + 1e-9

    def test_mismatched_fields(self, field):
        with pytest.raises(ValueError):
            chi_f(MultChar(field(7, 1), 2, 1), MultChar(field(13, 1), 2, 1),
                  RationalFunc.from_coeffs(field(13, 1), (1, 1)))


class TestRhoU:
    def test_examples(self, field):
        F7 = field(7, 1)
        assert rho_u(F7, 3, 6) == 1
        assert rho_u(F7, 2, 6) == 0
        for a in range(1, 7):
            assert rho_u(F7, a, 1) == 1

    def test_zero_rejected(self, field):
        with pytest.raises(ValueError):
            rho_u(field(7, 1), 0, 6)

    def test_bad_divisor(self, field):
        with pytest.raises(ValueError):
            rho_u(field(7, 1), 3, 5)

    def test_integrality_and_sum(self, field, prime_powers):
        for p, k, q in prime_powers(3, 1000):
            ctx = field(p, k)
            total = Fraction(0)
            for a in range(1, q):
                v = rho_u(ctx, a, q - 1)
                assert v in (0, 1)
                total += v
            assert total == ctx.qm1.euler_phi


class TestPairCountFormula:
    def test_linear_example(self, field):
        F7 = field(7, 1)
        f = RationalFunc.from_coeffs(F7, (1, 1))
        assert PairCountEvaluator(f).count(6, 6) == direct_pair_count(F7, f, 6, 6)

    def test_trivial_orders(self, field):
        F7 = field(7, 1)
        f = RationalFunc.from_coeffs(F7, (1, 0, 1), (0, 1))
        # l1 = l2 = 1 counts the valid summands
        assert PairCountEvaluator(f).count(1, 1) == direct_pair_count(F7, f, 1, 1) == 6

    def test_quadratic_over_pole_all_orders(self, field):
        F13 = field(13, 1)
        f = RationalFunc.from_coeffs(F13, (1, 0, 1), (0, 1))
        ev = PairCountEvaluator(f)
        for l1 in F13.qm1.divisors():
            for l2 in F13.qm1.divisors():
                assert ev.count(l1, l2) == direct_pair_count(F13, f, l1, l2)

    def test_exceptional_rejected(self, field):
        F7 = field(7, 1)
        f = RationalFunc.from_coeffs(F7, (0, 0, 5))
        with pytest.raises(ValueError):
            PairCountEvaluator(f).count(6, 6)

    def test_extension_field(self, field):
        F9 = field(3, 2)
        f = RationalFunc.from_coeffs(F9, (1, 1), (2, 1))
        ev = PairCountEvaluator(f)
        for l1 in F9.qm1.divisors():
            for l2 in F9.qm1.divisors():
                assert ev.count(l1, l2) == direct_pair_count(F9, f, l1, l2)


class TestWeilBound:
    def test_linear_with_zero_convention(self, field):
        F7 = field(7, 1)
        r = weil_bound_check(MultChar(F7, 2, 1), RationalFunc.from_coeffs(F7, (0, 1)))
        assert r.total.exact_int() == 0
        assert r.bound == 0.0
        assert r.ok

    def test_quadratic_example(self, field):
        F13 = field(13, 1)
        r = weil_bound_check(MultChar(F13, 2, 1),
                             RationalFunc.from_coeffs(F13, (1, 0, 1), (0, 1)))
        assert r.bound == pytest.approx(2 * sqrt(13))
        assert r.ok

    def test_forbidden_forms(self, field):
        F7 = field(7, 1)
        sq = Poly(F7, (1, 1)) * Poly(F7, (1, 1))
        with pytest.raises(ValueError, match="inapplicable"):
            weil_bound_check(MultChar(F7, 2, 1), RationalFunc(sq.scale(3), Poly(F7, (1,))))
        with pytest.raises(ValueError):
            weil_bound_check(MultChar(F7, 2, 1), RationalFunc.from_coeffs(F7, (3,)))

    def test_character_validation(self, field):
        F13 = field(13, 1)
        f = RationalFunc.from_coeffs(F13, (1, 1))
        with pytest.raises(ValueError):
            weil_bound_check(MultChar(F13, 1, 0), f)  # trivial character
        with pytest.raises(ValueError):
            weil_bound_check(MultChar(F13, 4, 1), f)  # 4 is not square-free
        with pytest.raises(ValueError):
            weil_bound_check(MultChar(F13, 6, 2), f)  # exact order 3, not 6

    def test_applicable_when_x_power_breaks_dth_power(self, field):
        # F = x * (x+1)^2 is not c*G^2 because of the lone power of x
        F7 = field(7, 1)
        F = RationalFunc(Poly(F7, (0, 1)) * Poly(F7, (1, 1)) * Poly(F7, (1, 1)),
                         Poly(F7, (1,)))
        r = weil_bound_check(MultChar(F7, 2, 1), F)
        assert r.ok
        assert r.bound == pytest.approx((2 - 1) * sqrt(7))
