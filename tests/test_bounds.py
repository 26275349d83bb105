from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import prod
from operator import mul

import numpy as np
import pytest

from primpair.bounds import (
    GENERIC_CN_TARGETS,
    InapplicableCriterion,
    OMEGA_MAX,
    PASS_TARGETS,
    SieveParams,
    best_prefix,
    best_sieve,
    c_m,
    c_m_supremum,
    check_pass_target,
    generic_cn,
    generic_cn_ok,
    CodeThresholds,
    code_thresholds,
    omega_thresholds,
    sieve_check,
    sieve_pass_prefix,
    direct_criterion_check,
    wm_bound_check,
    worst_case_pass,
)
from primpair.ffcore import Factorization, factorize, prime_power_iter, sieve_primes
from primpair.search import SCAN_HI_MAX


class TestDirectCriterion:
    def test_fermat_prime(self):
        assert direct_criterion_check(2, 65537, factorize(65536))

    def test_small_fail(self):
        assert not direct_criterion_check(2, 41, factorize(40))  # 41 < 4 * 256

    def test_many_primes_chain(self):
        # omega(q-1) >= 17 forces q - 1 >= product of the first 17 primes
        primorial17 = prod(int(p) for p in sieve_primes(59))
        assert primorial17 > 1.9e21
        assert direct_criterion_check(2, primorial17 + 1, 2**17)

    def test_boundary_exact(self):
        # q must strictly exceed n^2 W^4
        w = 2
        n = 2
        edge = n * n * w**4
        assert not direct_criterion_check(n, edge, w)
        assert direct_criterion_check(n, edge + 1, w)


class TestCm:
    def test_universal_supremum(self):
        sup = c_m_supremum()
        assert sup == pytest.approx(37.4688, abs=5e-4)
        assert sup < 37.469

    def test_odd_supremum(self):
        sup = c_m_supremum(odd_only=True)
        assert sup == pytest.approx(21.028, abs=5e-3)
        assert sup < 21.029

    def test_single_prime(self):
        assert c_m(2) == pytest.approx(2 / 2 ** (1 / 6))

    def test_no_small_primes(self):
        assert c_m(67 * 71) == 1.0

    def test_adding_small_primes_only_grows(self):
        assert c_m(2) < c_m(6) < c_m(30) < c_m(210)


class TestWmBound:
    def test_exhaustive_to_1e6(self):
        # W(m) <= c_m * m^(1/6) as exact integers: W^6 * P <= 2^(6s) * m
        spf = np.zeros(1_000_001, dtype=np.int64)
        for p in sieve_primes(1000).tolist():
            sl = spf[p * p :: p]
            sl[sl == 0] = p
            spf[p::p][spf[p::p] == 0] = p  # smallest prime factor sieve
        spf_list = spf.tolist()
        for m in range(1, 1_000_001):
            v = m
            omega = 0
            small = 1
            count_small = 0
            while v > 1:
                p = spf_list[v] or v
                omega += 1
                if p < 64:
                    small *= p
                    count_small += 1
                while v % p == 0:
                    v //= p
            assert (1 << (6 * omega)) * small <= (1 << (6 * count_small)) * m, m

    def test_near_tight(self):
        primes = [int(p) for p in sieve_primes(59)]
        m = Factorization(prod(primes), tuple((p, 1) for p in primes))
        assert wm_bound_check(m)

    def test_unit(self):
        assert wm_bound_check(1)


class TestSieveParams:
    def test_spec_example_331(self):
        qm1 = factorize(330)
        params = SieveParams.from_core(331, qm1, (2, 3, 5))
        assert params.sieved == (11,)
        assert params.delta == Fraction(9, 11)
        assert params.big_delta == Fraction(29, 9)
        assert params.threshold(2) == Fraction(3712, 9)
        passed, margin = sieve_check(params, 2)
        assert not passed
        assert margin == pytest.approx(331**0.5 - 3712 / 9)

    def test_full_core_is_direct_criterion(self):
        qm1 = factorize(330)
        params = SieveParams.from_core(331, qm1, (2, 3, 5, 11))
        assert params.big_delta == 1
        assert params.passes(2) == direct_criterion_check(2, 331, qm1)

    def test_inapplicable(self):
        qm1 = factorize(330)
        params = SieveParams.from_core(331, qm1, ())
        assert not params.applicable
        with pytest.raises(InapplicableCriterion):
            sieve_check(params, 2)

    def test_core_must_divide(self):
        with pytest.raises(ValueError):
            SieveParams.from_core(331, factorize(330), (7,))

    def test_direct_equals_full_core_everywhere(self, prime_powers):
        for p, k, q in prime_powers(3, 1_000_000):
            qm1 = factorize(q - 1)
            full = SieveParams.from_core(q, qm1, qm1.primes)
            assert full.passes(2) == direct_criterion_check(2, q, qm1), q


class TestBestSieve:
    def test_largest_survivor(self):
        passed, best = best_sieve(33093061, 2)
        assert not passed

    def test_fermat_prime(self):
        passed, best = best_sieve(65537, 2)
        assert passed
        assert best.core == (2,)

    def test_tiny(self):
        passed, _ = best_sieve(3, 2)
        assert not passed

    def test_pass_implies_params_pass(self, prime_powers):
        for p, k, q in prime_powers(3, 2000):
            passed, best = best_sieve(q, 2)
            assert best.applicable
            ok, _ = sieve_check(best, 2)
            assert ok == passed, q

    def test_best_subset_is_best_prefix(self, prime_powers):
        # per core size, the least-primes core minimizes the threshold, so the
        # prefix sweep and the exhaustive subset search always agree, on the
        # verdict and on the best core
        for p, k, q in prime_powers(3, 2000):
            qm1 = factorize(q - 1)
            primes = list(qm1.primes)
            for n in (2, 3, 5):
                verdict, r, thr_num, thr_den = best_prefix(q, primes, n)
                passed, best = best_sieve(q, n, qm1)
                assert (verdict != "candidate") == passed, (q, n)
                assert (verdict == "pass_thm31") == direct_criterion_check(n, q, qm1), (q, n)
                assert tuple(primes[:r]) == best.core, (q, n)
                assert Fraction(thr_num, thr_den) == best.threshold(n), (q, n)


class TestSievePassPrefix:
    def test_matches_fraction_oracle_on_every_prefix(self, prime_powers):
        for p, k, q in prime_powers(3, 3000):
            qm1 = factorize(q - 1)
            primes = list(qm1.primes)
            for r in range(len(primes) + 1):
                params = SieveParams.from_core(q, qm1, primes[:r])
                res = sieve_pass_prefix(q, primes, r, 3)
                if not params.applicable:
                    assert res is None, (q, r)
                    continue
                passes, thr_num, thr_den = res
                assert passes == params.passes(3), (q, r)
                assert Fraction(thr_num, thr_den) == params.threshold(3), (q, r)

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError, match="n must be >= 2"):
            sieve_pass_prefix(331, [2, 3, 5, 11], 4, 1)
        with pytest.raises(ValueError, match="n must be >= 2"):
            best_prefix(331, [2, 3, 5, 11], 1)

    @pytest.mark.parametrize("q, verdict, core_size, sign", [
        (202291, "pass_sieve", 2, 1),     # clears its threshold by 0.033%
        (1699111, "pass_sieve", 2, 1),    # by 0.045%
        (110923, "candidate", 2, -1),     # misses by 0.0066%
        (140869, "candidate", 2, -1),     # by 0.00067%
        (5292211, "candidate", 3, -1)])   # by 0.014%
    def test_near_boundary_fields(self, q, verdict, core_size, sign):
        # the n = 2 fields nearest their best threshold; counting the two
        # narrow passes as survivors would give 3939 (see the README)
        primes = list(factorize(q - 1).primes)
        got, r, num, den = best_prefix(q, primes, 2)
        assert (got, r) == (verdict, core_size)
        diff = q * den * den - num * num
        assert (diff > 0) - (diff < 0) == sign


class TestWorstCasePass:
    def test_all_pinned_rows(self):
        for target in PASS_TARGETS:
            row = check_pass_target(target)
            assert row["ok"], row

    def test_row_count(self):
        assert len(PASS_TARGETS) == 13  # four degree-2 passes, nine grid rows

    def test_sieved_prime_window(self):
        # with the 5 least of 16 primes in the core, 13..53 are sieved and W(l) = 32
        delta, big_delta, threshold = worst_case_pass(2, 5, 16, 5)
        sieved = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
        assert delta == 1 - 2 * sum(Fraction(1, p) for p in sieved)
        assert big_delta == Fraction(2 * len(sieved) - 1) / delta + 2
        assert threshold == 2 * big_delta * 32**2

    def test_no_sieved_primes(self):
        _, big_delta, threshold = worst_case_pass(2, 3, 3, 3)
        assert big_delta == 1
        assert threshold == 2 * 64

    def test_inapplicable(self):
        with pytest.raises(InapplicableCriterion):
            worst_case_pass(2, 0, 5, 0)  # sieving 2,3,5,7,11 kills delta

    @pytest.mark.parametrize("spec", [(t.n, t.min_omega, t.max_omega, t.core_size)
                                      for t in PASS_TARGETS]
                             + [(2, 0, 5, 0), (3, 1, 6, 1), (2, 3, 3, 3)])
    def test_matches_fraction_oracle(self, spec):
        # the grid row is the criterion of a q - 1 whose primes are the first
        # max_omega primes, with the least core_size of them as core
        n, _, max_omega, core_size = spec
        primes = tuple(int(p) for p in sieve_primes(300)[:max_omega])
        qm1 = Factorization(prod(primes), tuple((p, 1) for p in primes))
        params = SieveParams.from_core(qm1.value + 1, qm1, primes[:core_size])
        if not params.applicable:
            with pytest.raises(InapplicableCriterion):
                worst_case_pass(*spec)
            return
        assert worst_case_pass(*spec) == (params.delta, params.big_delta,
                                          params.threshold(n))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            worst_case_pass(2, 3, 2, 4)
        with pytest.raises(ValueError):
            worst_case_pass(1, 3, 8, 3)


class TestOmegaThresholds:
    @staticmethod
    def _oracle(n, omega):
        # the floor of the least threshold^2 over the applicable cores made
        # of the least primes of a q - 1 whose primes are the first omega
        primes = tuple(int(p) for p in sieve_primes(300)[:omega])
        qm1 = Factorization(prod(primes), tuple((p, 1) for p in primes))
        thresholds = []
        for r in range(omega + 1):
            params = SieveParams.from_core(qm1.value + 1, qm1, primes[:r])
            if params.applicable:
                thresholds.append(params.threshold(n))
        thr = min(thresholds)
        return min(thr.numerator**2 // thr.denominator**2, 2**63 - 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10**6])
    def test_matches_fraction_oracle(self, n):
        table = omega_thresholds(n)
        assert table.dtype == np.int64 and table.size == OMEGA_MAX + 1
        assert not table.flags.writeable
        assert table.tolist() == [self._oracle(n, w) for w in range(OMEGA_MAX + 1)]
        # never decreasing, so an upper bound on omega is enough to skip a
        # row; never above the direct bound n^2 * 16^omega
        assert (np.diff(table) >= 0).all()
        assert all(t <= n * n * 16**w for w, t in enumerate(table.tolist()))

    def test_huge_degree_clips(self):
        # n^2 * 16^omega and every sieved threshold^2 pass 2^63 for n = 10^6
        table = omega_thresholds(10**6)
        assert table[0] == 10**12 and table[-1] == 2**63 - 1
        assert not (np.array([2**63 - 1]) > table[OMEGA_MAX]).any()

    @pytest.mark.parametrize("n, omega, ceiling", [
        (2, 8, 58_588_517), (3, 9, 442_496_199), (4, 9, 786_659_909),
        (5, 9, 1_229_156_107)])
    def test_binding_entries_are_scan_ceilings(self, n, omega, ceiling):
        # the entry that binds each n's scan ceiling, the largest threshold^2
        # above the least q with that many primes, is one below it
        table = omega_thresholds(n)
        assert table[omega] == ceiling - 1
        assert (np.array([ceiling - 1, ceiling]) > table[omega]).tolist() == [False, True]


def _code_primes(code: int, cut: int) -> list[int]:
    return [p for j, p in enumerate(sieve_primes(200)[:cut].tolist()) if code >> j & 1]


_BELOW_32 = sieve_primes(31).tolist()
_PAST_32 = list(accumulate(sieve_primes(200)[11:].tolist(), mul))


def _code_bound(q: int) -> tuple[int, int]:
    """(code, w) for q - 1 as `CodeThresholds.passes` should read them, off
    factorize: the set S of its primes below 32 as bits, and |S| + the most
    primes from 37 on whose product is at most (q - 1) // prod(S)."""
    s = [p for p in factorize(q - 1).primes if p < 32]
    left = (q - 1) // prod(s)
    return (sum(1 << _BELOW_32.index(p) for p in s),
            len(s) + sum(1 for v in _PAST_32 if v <= left))


@lru_cache(maxsize=None)
def _code_bounds_below(hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, code, w) of `_code_bound` for every prime power q <= hi."""
    q = [v for _, _, v in prime_power_iter(2, hi)]
    return np.array(q), *(np.array(a) for a in zip(*map(_code_bound, q)))


class TestCodeThresholds:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_monotone_and_bounded_by_omega_table(self, n):
        # every entry of the 11-prime code (primes below 32): never
        # decreasing in w, at most the omega table's entry, and equal to it
        # at the code of the first w primes
        thresholds = CodeThresholds(n, 11)
        omega_table = omega_thresholds(n).tolist()
        for code in range(1 << 11):
            size = bin(code).count("1")
            ws = np.arange(size, OMEGA_MAX + 1)
            row = thresholds(np.full(ws.size, code), ws).tolist()
            assert row == sorted(row), code
            assert all(t <= omega_table[w] for w, t in zip(ws.tolist(), row)), code
        for w in range(OMEGA_MAX + 1):
            assert thresholds(np.array([(1 << w) - 1]), np.array([w]))[0] == omega_table[w]

    @pytest.mark.parametrize("cut", [0, 4, 8, 11])
    def test_matches_fraction_oracle(self, cut):
        # the floor of the least threshold^2 over the applicable prefix cores
        # of S and the least primes past the code's cut-th prime, exact in
        # Fraction arithmetic, for n = 2 and 5; cut < 11 is the code of a
        # scan with hi < 961
        primes = sieve_primes(200).tolist()
        rng = np.random.default_rng(cut)
        codes = rng.integers(0, 1 << cut, size=40)
        for n in (2, 5):
            thresholds = CodeThresholds(n, cut)
            for code in codes.tolist():
                s = _code_primes(code, cut)
                for w in range(len(s), OMEGA_MAX + 1):
                    ps = tuple(s + primes[cut:cut + w - len(s)])
                    qm1 = Factorization(prod(ps), tuple((p, 1) for p in ps))
                    thrs = [params.threshold(n) for r in range(w + 1)
                            if (params := SieveParams.from_core(qm1.value + 1, qm1,
                                                                ps[:r])).applicable]
                    thr = min(thrs)
                    expected = min(thr.numerator**2 // thr.denominator**2, 2**63 - 1)
                    assert thresholds(np.array([code]), np.array([w]))[0] == expected

    def test_filled_on_first_use(self):
        # only the entries asked for are filled, and a w below the code's
        # own count of primes is refused
        thresholds = CodeThresholds(3, 11)
        assert (thresholds.table < 0).all()
        got = thresholds(np.array([0b101, 0b101, 1]), np.array([2, 4, 1]))
        assert (got > 0).all() and (thresholds.table >= 0).sum() == 3
        with pytest.raises(ValueError, match="below"):
            thresholds(np.array([0b111]), np.array([2]))
        assert code_thresholds(3, 11) is code_thresholds(3, 11)
        assert code_thresholds(3, 11) is not code_thresholds(3, 8)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ceilings_read_w_off_m(self, n):
        # for every prime power q <= 10^6, ceilings(q - 1)[code] is T_c at
        # the w that _code_bound reads off factorize
        q, code, w = _code_bounds_below(10**6)
        thresholds = CodeThresholds(n, 11)
        got = np.array([thresholds.ceilings(m)[c] for m, c in zip((q - 1).tolist(),
                                                                   code.tolist())])
        assert (got == thresholds(code, w)).all()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rows_above_ceilings_pass(self, n):
        # every prime power q above ceilings(m)[code] with q - 1 <= m passes
        # the exact kernel, for a few m, and some q are above
        q, code, _ = _code_bounds_below(10**6)
        thresholds = CodeThresholds(n, 11)
        for m in (5_000, 54_321, 10**6 - 1):
            above = (q - 1 <= m) & (q > thresholds.ceilings(m)[code])
            assert above.any(), m
            for qi in q[above].tolist():
                assert best_prefix(qi, list(factorize(qi - 1).primes), n)[0] != "candidate", qi

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ceilings_monotone_and_impossible_codes(self, n):
        # a code with prod(S) > m reads 2^63 - 1; from the least m where it
        # is possible, each code's entry never decreases as m grows, up to
        # the scan ceiling, where no w passes OMEGA_MAX and every code but
        # that of the 11 primes below 32, whose product is past SCAN_HI_MAX,
        # is possible
        thresholds = CodeThresholds(n, 11)
        steps = [v for v in thresholds.steps if v < SCAN_HI_MAX][::25]
        ms = sorted({*np.geomspace(1, SCAN_HI_MAX - 1, 300).astype(np.int64).tolist(),
                     *steps, *(v - 1 for v in steps), SCAN_HI_MAX - 1})
        earlier = None
        for m in ms:
            table = thresholds.ceilings(m)
            possible = thresholds.prod <= m
            assert ((table == 2**63 - 1) == ~possible).all(), m
            if earlier is not None:
                assert (table[was] >= earlier[was]).all(), m
            earlier, was = table, possible
        assert possible[:-1].all() and not possible[-1]

    def test_huge_degree_clips(self):
        # n^2 * 16^w passes 2^63 for n = 10^6; entries are clipped there and
        # the comparison stays exact in int64
        thresholds = CodeThresholds(10**6, 11)
        code, w = np.array([0, (1 << 10) - 1]), np.array([0, OMEGA_MAX])
        assert thresholds(code, w).tolist() == [10**12, 2**63 - 1]
        assert not (np.array([2**63 - 1]) > thresholds(code, w)[1:]).any()
        # q - 1 = 6 * 10^17 has room for 2, 3 and the 9 primes from 37 to
        # 71: 11 primes, above OMEGA_MAX, where the table has no entry
        with pytest.raises(ValueError, match="OMEGA_MAX"):
            thresholds.ceilings(6 * 10**17)
        with pytest.raises(ValueError, match="OMEGA_MAX"):
            thresholds(np.array([0]), np.array([OMEGA_MAX + 1]))


class TestGenericCn:
    def test_pinned_values_4_sigfigs(self):
        for n, pinned in GENERIC_CN_TARGETS.items():
            value = generic_cn(n)
            ulp4 = 10.0 ** (np.floor(np.log10(value)) - 3)
            assert abs(value - pinned) <= ulp4, (n, value, pinned)
            assert pinned >= value  # published values round upward
            assert generic_cn_ok(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            generic_cn(1)
