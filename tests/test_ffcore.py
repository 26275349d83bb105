import random
from math import gcd, isqrt, prod

import numpy as np
import pytest

from primpair import ffcore
from primpair.ffcore import (
    MAX_SEGMENT,
    Factorization,
    SegmentKernel,
    _find_modulus,
    _rmod,
    _rmul,
    _rpowmod,
    _rtrim,
    factorize,
    field_make,
    is_prime,
    multiplicative_order,
    prime_power_iter,
    prime_power_segments,
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

    def test_primality_test_only_past_trial_division(self, monkeypatch):
        # trial division that stops on p^2 > m leaves 1 or a prime, which
        # needs no Miller-Rabin; a cofactor left after every prime below
        # 1000 still takes Miller-Rabin and rho
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(ffcore, "is_prime", counting)
        assert factorize(2 * 104729).factors == ((2, 1), (104729, 1))
        assert calls == []
        assert factorize(1009 * 1013).factors == ((1009, 1), (1013, 1))
        assert calls[0] == 1009 * 1013 and sorted(calls[1:]) == [1009, 1013]

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
        # of two, whose last doubling step fills only part of exp; in F_137^2
        # and F_139^2 the least generator (145, 143) lies beyond the first
        # block of candidates. Prime fields are searched one candidate at a
        # time, so F_23209 walks no blocks; its generator 31 is still the
        # least one past _GEN_BLOCK candidates
        fields = [(2, 1)] + [(p, k) for p, k, _ in prime_powers(3, 2000)] + [
            (2, 14), (3, 8), (5, 6), (7, 5), (11, 4), (23, 3), (137, 2), (139, 2),
            (23_209, 1), (999_983, 1), (1_000_003, 1)]
        generators = {}
        for p, k in fields:
            ctx = field_make(p, k)
            modulus, g, exp, dlog = per_element_tables(p, k)
            assert (ctx.modulus, ctx.g) == (modulus, g), (p, k)
            assert ctx.exp.dtype == np.int64 and ctx.dlog.dtype == np.int64
            assert np.array_equal(ctx.exp, exp), (p, k)
            assert np.array_equal(ctx.dlog, dlog), (p, k)
            generators[p, k] = g
        assert generators[137, 2] == 145 and generators[139, 2] == 143
        assert generators[23_209, 1] == 31 > ffcore._GEN_BLOCK

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
        # Zeroing every step after the first (t = 2) leaves exp = [1, g, g^2,
        # g^3, 0, 0, ...], so dlog[1] == 0 and dlog[g] == 1 still hold; only the
        # check that every nonzero element received a log can catch it. The
        # steps come from _doubling_steps, which carries g^t: an int in a prime
        # field, the matrix of v -> v*g^t in an extension field. field_make
        # builds no table; reading dlog builds both.
        real = ffcore._doubling_steps

        def corrupted(*args):
            for i, (t, s, step) in enumerate(real(*args)):
                yield t, s, step * (i == 0)

        monkeypatch.setattr(ffcore, "_doubling_steps", corrupted)
        for p, k in ((2, 4), (13, 1)):
            with pytest.raises(ArithmeticError, match="self-check"):
                field_make(p, k).dlog

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


class TestTableFree:
    """Prime-field scalar operations read no table: each is checked against
    the tables of a second context of the same field."""

    @staticmethod
    def _agree(fresh, table, elements):
        m = fresh.q - 1
        divisors = fresh.qm1.divisors()
        for a in elements:
            t = int(table.dlog[a])
            assert fresh.dlog_of(a) == t, (fresh.q, a)
            assert fresh.is_primitive(a) == (gcd(t, m) == 1), (fresh.q, a)
            assert fresh.order_of(a) == m // gcd(t, m), (fresh.q, a)
            assert fresh.exp_of(t) == a and fresh.inv(a) == int(table.exp[-t % m])
            for u in divisors:
                assert fresh.is_ufree(a, u) == (gcd(t, fresh.rad_of_divisor(u)) == 1), \
                    (fresh.q, a, u)
        assert "exp" not in fresh.__dict__ and "dlog" not in fresh.__dict__

    @pytest.mark.parametrize("p", [2, 3, 13, 257, 1019, 65537])
    def test_every_element(self, field, p):
        # q - 1 = 2^8 and 2^16 give Pohlig-Hellman 8 and 16 base-2 digits;
        # 1018 = 2 * 509 leaves a baby-step giant-step in order 509
        elements = range(1, p) if p < 1000 else random.Random(p).sample(range(1, p), 300)
        self._agree(field_make(p, 1), field(p, 1), elements)
        if p >= 1000:  # the dlogs alone, on every element
            fresh, dlog = field_make(p, 1), field(p, 1).dlog
            assert [fresh.dlog_of(a) for a in range(1, p)] == dlog[1:].tolist()
            assert "dlog" not in fresh.__dict__

    @pytest.mark.parametrize("p", [999_983, 1_000_003, 8_388_593])
    def test_random_elements_of_large_fields(self, p):
        fresh, table = field_make(p, 1), field_make(p, 1)
        self._agree(fresh, table, random.Random(p).sample(range(1, p), 200))

    @pytest.mark.parametrize("p", [199, 211])
    def test_is_primitive_before_and_after_tables(self, p):
        # a fresh prime field tests a^((q-1)/l) != 1 and builds no table;
        # once its tables are built it tests gcd(dlog a, q - 1) = 1, which
        # the emptied cofactors show: the power test would now pass every a
        ctx = field_make(p, 1)
        powers = [ctx.is_primitive(a) for a in range(p)]
        assert "exp" not in ctx.__dict__ and "dlog" not in ctx.__dict__
        dlog = ctx.dlog
        ctx._cofactors = ()
        logs = [ctx.is_primitive(a) for a in range(p)]
        assert logs == powers
        assert logs == [a > 0 and gcd(int(dlog[a]), p - 1) == 1 for a in range(p)]
        assert sum(logs) == ctx.qm1.euler_phi

    def test_tables_are_built_on_first_use(self):
        ctx = field_make(101, 1)
        assert "exp" not in ctx.__dict__ and "dlog" not in ctx.__dict__
        dlog = ctx.dlog
        assert ctx.__dict__["exp"] is ctx.exp and ctx.__dict__["dlog"] is dlog
        assert ctx.dlog_of(ctx.g) == 1 and int(dlog[ctx.exp[7]]) == 7


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
        # the walk takes q = 2, the least prime power; below it is refused
        assert list(prime_power_iter(2, 10))[:2] == [(2, 1, 2), (3, 1, 3)]
        with pytest.raises(ValueError, match="starts at 2"):
            list(prime_power_iter(1, 10))

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
    def test_segment_marker_matches_trial_division(self, size, skipped_segment):
        # segment edges on, before and after primes and higher prime powers,
        # from lo = 2; a skip keeps the same rows as the full call
        hi = 5000
        kernel = SegmentKernel(prime_power_segments(2, hi, size))
        got = []
        for lo in range(2, hi + 1, size):
            segment = lo, min(lo + size, hi + 1)
            q, p, k, primes, exps, omega = skipped_segment(kernel, segment)
            assert q.dtype == p.dtype == k.dtype == np.int64
            assert all((a == b).all() for a, b in zip((q, p, k), kernel.prime_powers(*segment)))
            got += zip(q.tolist(), p.tolist(), k.tolist())
            for qi, row, e, w in zip(q.tolist(), primes.tolist(), exps.tolist(), omega.tolist()):
                assert tuple(zip(row[:w], e[:w])) == trial_division(qi - 1), qi
                assert not any(row[w:]) and not any(e[w:]), qi
        expected = []
        for q in range(2, hi + 1):
            fac = trial_division(q)
            if len(fac) == 1:
                expected.append((q, fac[0][0], fac[0][1]))
        assert got == expected

    def test_workspace_keeps_nothing_between_segments(self):
        # shuffled segments of one plan, its short last one and segments of
        # one integer (on 2^16, the prime 65537, 257^2 and a composite) give
        # the arrays of a fresh workspace per segment
        lo, hi = 2**16 - 500, 257**2 + 500
        plan = prime_power_segments(lo, hi, 97)
        segments = list(plan)
        assert segments[-1][1] - segments[-1][0] < 97
        segments += [(65536, 65537), (65537, 65538), (66049, 66050), (66050, 66051)]
        random.Random(7).shuffle(segments)
        reused = SegmentKernel(plan)
        for segment in segments:
            got = reused.segment(*segment)
            fresh = SegmentKernel(plan).segment(*segment)
            for a, b in zip(got, fresh):
                assert a.shape == b.shape and (a == b).all(), segment
            q, p, k, primes, exps, omega = got
            assert q.tolist() == [v for v in range(*segment) if len(trial_division(v)) == 1]
            for qi, pi, ki, row, e, w in zip(q.tolist(), p.tolist(), k.tolist(),
                                             primes.tolist(), exps.tolist(), omega.tolist()):
                assert trial_division(qi) == ((pi, ki),)
                assert tuple(zip(row[:w], e[:w])) == factorize(qi - 1).factors, qi

    def test_segment_dropping_every_row_marks_nothing(self, monkeypatch):
        # a table that drops every row, from the small base primes and the
        # higher powers on [2, 2000] to a band of 5 * 10^7, ends each
        # segment before any large prime's multiples are built; the arrays
        # are empty, with one column per prime the largest omega allows
        calls = []
        real = SegmentKernel._multiples

        def spy(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(SegmentKernel, "_multiples", spy)
        for lo, hi, width in ((2, 2000, 4), (5 * 10**7, 5 * 10**7 + 10**5, 8)):
            plan = prime_power_segments(lo, hi, 1 << 16)
            kernel = SegmentKernel(plan)
            drop_all = np.zeros(1 << kernel.cut, dtype=np.int64)
            for segment in plan:
                q, p, k, primes, exps, omega = kernel.segment(*segment, lambda m: drop_all)
                assert q.shape == p.shape == k.shape == omega.shape == (0,), segment
                assert primes.shape == exps.shape == (0, width), segment
            assert not calls
            assert kernel.segment(*segment)[0].size and calls  # the spy sees a full call
            calls.clear()

    def test_ceilings_that_drop_nothing_keep_every_row(self):
        # q = 2, the primes 3..31 and the powers 2^k and 3^k have a nonzero
        # code of q, so they come from the small base primes and the higher
        # powers, not from the rows of code 0; all come out as in the full
        # call, on [2, 10^5]
        plan = prime_power_segments(2, 10**5, 1 << 16)
        kernel = SegmentKernel(plan)
        keep_all = np.full(1 << kernel.cut, 2**63 - 1, dtype=np.int64)
        rows = []
        for segment in plan:
            full = [a.copy() for a in kernel.segment(*segment)]
            kept = kernel.segment(*segment, lambda m: keep_all)
            for a, b in zip(kept, full):
                assert a.shape == b.shape and (a == b).all(), segment
            rows += kept[0].tolist()
        assert rows == [q for _, _, q in prime_power_iter(2, 10**5)]
        assert {2, *sieve_primes(31).tolist(), *(2**e for e in range(2, 17)),
                *(3**e for e in range(2, 11))} <= set(rows)

    def test_segment_size_below_one_refused(self):
        with pytest.raises(ValueError, match="segment_size must be >= 1"):
            prime_power_segments(3, 100, 0)

    def test_segment_outside_plan_refused(self):
        # the higher prime powers 4, 8, 9, ..., 81 below the plan's lo are
        # not in its list, so a segment there is refused, not walked
        # without them; so is one past hi or longer than the plan's size
        kernel = SegmentKernel(prime_power_segments(100, 1000, 200))
        for segment in ((2, 100), (99, 101), (901, 1002), (100, 301)):
            with pytest.raises(ValueError, match="outside the kernel's plan"):
                kernel.prime_powers(*segment)
            with pytest.raises(ValueError, match="outside the kernel's plan"):
                kernel.segment(*segment)
        q = kernel.prime_powers(100, 300)[0].tolist()
        assert q[:8] == [101, 103, 107, 109, 113, 121, 125, 127]
        assert kernel.prime_powers(801, 1001)[0][-1] == 997

    def test_segment_above_limit_refused(self):
        # the largest actual segment decides, not the segment size asked for
        with pytest.raises(ValueError, match=f"above the limit of {MAX_SEGMENT}"):
            prime_power_segments(3, 200_000_000_000, 200_000_000_000)
        with pytest.raises(ValueError, match="MAX_SEGMENT"):
            prime_power_segments(3, MAX_SEGMENT + 3, MAX_SEGMENT + 1)
        assert prime_power_segments(3, MAX_SEGMENT + 2, MAX_SEGMENT + 1).size == MAX_SEGMENT
        plan = prime_power_segments(3, 100, 200_000_000_000)
        assert plan.size == 98 and list(plan) == [(3, 101)]
        assert list(prime_power_segments(5, 4, 200_000_000_000)) == []

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
