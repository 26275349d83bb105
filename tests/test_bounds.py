from fractions import Fraction
from math import prod

import numpy as np
import pytest

from primpair.bounds import (
    GENERIC_CN_TARGETS,
    InapplicableCriterion,
    PASS_TARGETS,
    PassSpec,
    SieveParams,
    best_prefix,
    best_sieve,
    c_m,
    c_m_supremum,
    check_all_pass_targets,
    generic_cn,
    generic_cn_ok,
    sieve_check,
    sieve_pass_prefix,
    direct_criterion_check,
    wm_bound_check,
    worst_case_pass,
)
from primpair.ffcore import Factorization, factorize, sieve_primes


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


class TestWorstCasePass:
    def test_all_pinned_rows(self):
        for chk in check_all_pass_targets():
            assert chk.delta_ok, chk.target
            assert chk.big_delta_ok, chk.target
            assert chk.threshold_ok, chk.target

    def test_row_count(self):
        assert len(PASS_TARGETS) == 13  # four degree-2 passes, nine grid rows

    def test_sieved_prime_window(self):
        report = worst_case_pass(PassSpec(2, 5, 16, 5))
        assert report.sieved_primes == (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
        assert report.w_l == 32

    def test_no_sieved_primes(self):
        report = worst_case_pass(PassSpec(2, 3, 3, 3))
        assert report.big_delta_max == 1
        assert report.threshold == 2 * 64

    def test_inapplicable(self):
        with pytest.raises(InapplicableCriterion):
            worst_case_pass(PassSpec(2, 0, 5, 0))  # sieving 2,3,5,7,11 kills delta

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            worst_case_pass(PassSpec(2, 3, 2, 4))
        with pytest.raises(ValueError):
            worst_case_pass(PassSpec(1, 3, 8, 3))


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
