import random
from math import isqrt, prod

import numpy as np
import pytest

from primpair import ffcore
from primpair.ffcore import (
    Factorization,
    _find_modulus,
    _rmod,
    _rmul,
    _rpowmod,
    _rtrim,
    factorize,
    field_make,
    higher_prime_powers,
    is_prime,
    multiplicative_order,
    prime_power_iter,
    segment_prime_powers,
    sieve_primes,
)


def trial_division(m):
    """Independent factorization oracle: plain trial division."""
    out = []
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def per_element_tables(p, k):
    """Oracle for field_make: (modulus, g, exp, dlog) with the least generator
    found by trial and exp filled one power of g at a time."""
    q = p**k
    m = q - 1
    cofactors = [m // r for r in factorize(m).primes] if q > 2 else []
    exp = np.ones(m, dtype=np.int64)
    if k == 1:
        modulus = None
        g = next(c for c in range(1, p) if all(pow(c, e, p) != 1 for e in cofactors))
        acc = 1
        for t in range(1, m):
            acc = acc * g % p
            exp[t] = acc
    else:
        modulus = _find_modulus(p, k)
        mod_list = list(modulus)
        pow_p = [p**i for i in range(k)]

        def unpack(v):
            return _rtrim([(v // pe) % p for pe in pow_p])

        def pack(c):
            return sum(ci * pe for ci, pe in zip(c, pow_p))

        g = next(c for c in range(2, q) if all(
            pack(_rpowmod(unpack(c), e, mod_list, p)) != 1 for e in cofactors))
        gpoly = unpack(g)
        acc_poly = [1]
        for t in range(1, m):
            acc_poly = _rmod(_rmul(acc_poly, gpoly, p), mod_list, p)
            exp[t] = pack(acc_poly)
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[exp] = np.arange(m, dtype=np.int64)
    return modulus, g, exp, dlog


class TestFactorize:
    def test_330(self):
        f = factorize(330)
        assert f.factors == ((2, 1), (3, 1), (5, 1), (11, 1))
        assert f.omega == 4
        assert f.num_squarefree_divisors == 16

    def test_unit(self):
        f = factorize(1)
        assert f.factors == ()
        assert f.omega == 0
        assert f.num_squarefree_divisors == 1
        assert f.euler_phi == 1
        assert f.radical == 1
        assert f.mobius == 1

    def test_largest_scan_survivor_predecessor(self):
        f = factorize(33093060)
        assert f.factors == trial_division(33093060)
        assert all(is_prime(p) for p in f.primes)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(2**63 + 1)

    def test_recompose_small(self):
        for m in range(1, 1_000_001):
            f = factorize(m)
            assert prod(p**e for p, e in f.factors) == m
        assert factorize(999_983).factors == ((999_983, 1),)

    def test_recompose_random_large(self):
        rng = random.Random(1)
        for _ in range(10_000):
            m = rng.randrange(1, 10**12)
            f = factorize(m)
            assert prod(p**e for p, e in f.factors) == m
            assert all(is_prime(p) for p in f.primes)
            assert list(f.primes) == sorted(f.primes)

    def test_derived_quantities(self):
        f = factorize(360)  # 2^3 * 3^2 * 5
        assert f.euler_phi == 96
        assert f.radical == 30
        assert f.mobius == 0
        assert factorize(30).mobius == -1
        assert factorize(6).mobius == 1
        assert f.divisors()[:5] == [1, 2, 3, 4, 5]
        assert len(f.divisors()) == 24
        assert f.squarefree_divisors() == [1, 2, 3, 5, 6, 10, 15, 30]


class TestFieldMake:
    def test_f7(self, field):
        ctx = field(7, 1)
        assert ctx.g == 3  # least primitive root mod 7
        assert ctx.dlog_of(3) == 1
        # powers of 3 mod 7: 3,2,6,4,5,1
        assert [ctx.exp_of(t) for t in range(6)] == [1, 3, 2, 6, 4, 5]

    def test_f16_modulus(self, field):
        ctx = field(2, 4)
        assert ctx.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1, first in packed order

    def test_not_prime(self):
        with pytest.raises(ValueError):
            field_make(4, 1)

    def test_table_cap(self):
        with pytest.raises(ValueError, match="table cap 16777216"):
            field_make(2, 30)
        with pytest.raises(ValueError, match="multiplicative_order"):
            field_make(2, 25)
        # the one cap stays where the float64 build is still exact
        assert ffcore.DEFAULT_TABLE_CAP <= 1 << 26

    def test_tables_match_per_element_oracle(self, prime_powers):
        # the fields include q = 2, 3 and 4, and many q with q - 1 not a power
        # of two, whose last doubling step fills only part of exp
        fields = [(2, 1)] + [(p, k) for p, k, _ in prime_powers(3, 2000)] + [
            (2, 14), (3, 8), (5, 6), (7, 5), (11, 4), (23, 3),
            (999_983, 1), (1_000_003, 1)]
        for p, k in fields:
            ctx = field_make(p, k)
            modulus, g, exp, dlog = per_element_tables(p, k)
            assert (ctx.modulus, ctx.g) == (modulus, g), (p, k)
            assert ctx.exp.dtype == np.int64 and ctx.dlog.dtype == np.int64
            assert np.array_equal(ctx.exp, exp), (p, k)
            assert np.array_equal(ctx.dlog, dlog), (p, k)

    def test_2_20_table_is_a_bijection(self):
        ctx = field_make(2, 20)
        m = ctx.q - 1
        assert np.array_equal(np.sort(ctx.exp), np.arange(1, ctx.q))
        assert np.array_equal(ctx.dlog[ctx.exp], np.arange(m))
        # spot powers of g against repeated squaring mod the modulus
        g = [(ctx.g >> i) & 1 for i in range(20)]
        for t in random.Random(5).sample(range(m), 50):
            power = _rpowmod(_rtrim(g[:]), t, list(ctx.modulus), 2)
            assert int(ctx.exp[t]) == sum(c << i for i, c in enumerate(power))

    def test_corrupted_step_trips_self_check(self, monkeypatch):
        # Zeroing every step after the first leaves exp = [1, g, 0, 0, ...], so
        # dlog[1] == 0 and dlog[g] == 1 still hold; only the check that every
        # nonzero element received a log can catch it.
        real = ffcore._step_matrix
        calls = []

        def corrupted(*args):
            calls.append(None)
            return real(*args) * (len(calls) == 1)

        monkeypatch.setattr(ffcore, "_step_matrix", corrupted)
        for p, k in ((2, 4), (13, 1)):
            calls.clear()
            with pytest.raises(ArithmeticError, match="self-check"):
                field_make(p, k)

    def test_dlog_bijection(self, field):
        for p, k in ((5, 1), (13, 1), (3, 3), (2, 5)):
            ctx = field(p, k)
            assert ctx.dlog_of(1) == 0
            assert ctx.dlog_of(ctx.g) == 1
            seen = {ctx.exp_of(t) for t in range(ctx.q - 1)}
            assert len(seen) == ctx.q - 1
            assert 0 not in seen

    def test_dlog_homomorphism(self, field, prime_powers):
        rng = random.Random(7)
        for p, k, q in prime_powers(3, 200):
            ctx = field(p, k)
            m = q - 1
            for _ in range(1000):
                a = rng.randrange(1, q)
                b = rng.randrange(1, q)
                assert (ctx.dlog_of(ctx.mul(a, b))
                        == (ctx.dlog_of(a) + ctx.dlog_of(b)) % m)

    def test_add_vec_broadcasts(self, field):
        # an (R, 1) column against a (1, P) row gives the R x P table of sums
        for p, k in ((2, 3), (3, 2), (7, 1)):
            ctx = field(p, k)
            rows = np.arange(ctx.q, dtype=np.int64)
            cols = np.arange(1, ctx.q, 2, dtype=np.int64)
            table = ctx.add_vec(cols, rows[:, None])
            assert table.shape == (rows.size, cols.size)
            for i, b in enumerate(rows.tolist()):
                assert table[i].tolist() == ctx.add_vec(cols, b).tolist()
                assert table[i].tolist() == [ctx.add(a, b) for a in cols.tolist()]

    def test_primitivity_count(self, field, prime_powers):
        fields = list(prime_powers(3, 512)) + [(1009, 1, 1009), (2, 11, 2048),
                                               (5, 5, 3125), (2, 12, 4096),
                                               (3, 8, 6561)]
        for p, k, q in fields:
            ctx = field(p, k)
            count = sum(ctx.is_primitive(a) for a in range(q))
            assert count == ctx.qm1.euler_phi, q


class TestUFree:
    def test_examples(self, field):
        ctx = field(7, 1)
        assert ctx.is_ufree(3, 6)
        assert not ctx.is_ufree(2, 6)  # 2 = 3^2 is a square
        for a in range(1, 7):
            assert ctx.is_ufree(a, 1)
        assert not ctx.is_ufree(0, 6)

    def test_bad_divisor(self, field):
        with pytest.raises(ValueError):
            field(7, 1).is_ufree(3, 4)

    def test_against_power_oracle(self, field, prime_powers):
        # independent oracle: a is u-free iff no prime r | u has a = v^r
        for p, k, q in prime_powers(3, 200) + [(997, 1, 997), (3, 6, 729),
                                               (5, 4, 625)]:
            ctx = field(p, k)
            for u in ctx.qm1.divisors():
                rs = [r for r in factorize(u).primes]
                power_sets = {r: {ctx.pow(v, r) for v in range(1, q)} for r in rs}
                expected_count = 0
                for a in range(1, q):
                    oracle = all(a not in power_sets[r] for r in rs)
                    assert ctx.is_ufree(a, u) == oracle, (q, a, u)
                    expected_count += oracle
                rad_u = ctx.rad_of_divisor(u)
                assert expected_count == factorize(rad_u).euler_phi * (q - 1) // rad_u

    def test_primitive_iff_qm1_free(self, field, prime_powers):
        for p, k, q in prime_powers(3, 128):
            ctx = field(p, k)
            for a in range(q):
                assert ctx.is_primitive(a) == ctx.is_ufree(a, q - 1)


class TestPrimePowerIter:
    def test_examples(self):
        assert [q for _, _, q in prime_power_iter(3, 16)] == [3, 4, 5, 7, 8, 9, 11, 13, 16]
        assert [q for _, _, q in prime_power_iter(25, 27)] == [25, 27]

    def test_floor(self):
        with pytest.raises(ValueError):
            list(prime_power_iter(2, 10))

    def test_empty(self):
        assert list(prime_power_iter(5, 4)) == []

    def test_strictly_increasing_and_correct(self):
        got = list(prime_power_iter(3, 3000))
        qs = [q for _, _, q in got]
        assert qs == sorted(qs) and len(set(qs)) == len(qs)
        for p, k, q in got:
            assert is_prime(p) and p**k == q
        expected = [q for q in range(3, 3001)
                    if len(trial_division(q)) == 1]
        assert qs == expected

    @pytest.mark.parametrize("size", [1, 2, 7, 64, 1000])
    def test_segment_marker_matches_trial_division(self, size):
        # segment edges on, before and after primes and higher prime powers
        hi = 5000
        base = sieve_primes(isqrt(hi))
        higher = higher_prime_powers(2, hi, base)
        got = []
        for lo in range(2, hi + 1, size):
            q, p, k = segment_prime_powers(lo, min(lo + size, hi + 1), base, higher)
            assert q.dtype == p.dtype == k.dtype == np.int64
            got += zip(q.tolist(), p.tolist(), k.tolist())
        expected = []
        for q in range(2, hi + 1):
            fac = trial_division(q)
            if len(fac) == 1:
                expected.append((q, fac[0][0], fac[0][1]))
        assert got == expected

    def test_segment_size_below_one_refused(self):
        with pytest.raises(ValueError, match="segment_size must be >= 1"):
            list(prime_power_iter(3, 100, segment_size=0))

    def test_count_against_prime_counting_oracle(self):
        import sympy

        hi = 58_600_000  # the full reproduction-scan range
        count_k1 = 0
        count_higher = 0
        for p, k, q in prime_power_iter(3, hi):
            if k == 1:
                count_k1 += 1
            else:
                count_higher += 1
        assert count_k1 == sympy.primepi(hi) - 1  # the prime 2 is below the floor
        expected_higher = sum(
            1 for p in sieve_primes(isqrt(hi)).tolist()
            for e in range(2, 40) if 3 <= p**e <= hi)
        assert count_higher == expected_higher


class TestPacked:
    def test_element_range_checks(self, field):
        F9 = field(3, 2)
        with pytest.raises(ValueError):
            F9.packed(9)
        with pytest.raises(ValueError):
            F9.packed((1, 1, 1))
        assert F9.packed((1, 1)) == 4
        F7 = field(7, 1)
        for v in (12, np.int64(12)):  # prime fields reduce mod p
            out = F7.packed(v)
            assert out == 5 and type(out) is int


def test_multiplicative_order():
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 2**31 - 1) == 31
    with pytest.raises(ValueError):
        multiplicative_order(5, 10)
