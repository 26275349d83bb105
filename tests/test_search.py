import dataclasses
import functools
import json
import multiprocessing
from math import gcd, isqrt

import numpy as np
import pytest

from primpair import bounds, polyrat, search
from primpair.bounds import best_prefix, certain_prefix_pass
from primpair.ffcore import (factorize, field_make, higher_prime_powers,
                             segment_prime_powers, sieve_primes)
from primpair.polyrat import Poly, RationalFunc, enumerate_family, is_exceptional
from primpair.search import (
    CSV_HEADER,
    SCAN_HI_MAX,
    ExceptionalFunctionError,
    ScanConfig,
    classify_true_exceptions,
    exception_scan,
    naive_membership,
    pair_exists,
    q_in_Q,
    run_scan,
)

CASE_1_1 = [3, 4, 5, 7, 9, 11, 13, 16, 19, 23, 25, 29, 31, 37, 41, 43, 49, 61,
            67, 71, 73, 79, 103, 121, 139, 151, 211, 331]
CASE_2_0 = [3, 4, 5, 7, 11, 13, 19, 25, 31, 37, 41, 43, 61, 67, 71, 73, 79,
            121, 151, 211]
SPLIT_ONLY_2_0 = [9, 16, 23, 29, 49, 127]


class TestPairExists:
    def test_linear_over_f13(self, field):
        ctx = field(13, 1)
        w = pair_exists(ctx, RationalFunc.from_coeffs(ctx, (1, 1)))
        assert w.found
        assert (w.alpha, w.value) == (6, 7)  # first alpha in ascending dlog order
        assert ctx.is_primitive(w.alpha) and ctx.is_primitive(w.value)

    def test_iteration_order_is_ascending_dlog(self, field):
        ctx = field(13, 1)
        w = pair_exists(ctx, RationalFunc.from_coeffs(ctx, (1, 1)))
        earlier = [t for t in range(1, w.alpha_dlog)
                   if ctx.is_primitive(ctx.exp_of(t))]
        for t in earlier:
            a = ctx.exp_of(t)
            v = ctx.exp_of(ctx.dlog_of(ctx.add(a, 1)))
            assert not ctx.is_primitive(v)

    def test_absence_certificate(self, field):
        # q = 13 is a (1,1) true exception: some a(x+b)/(x+c) has no pair
        ctx = field(13, 1)
        res = q_in_Q(ctx, 1, 1)
        assert not res.member
        w = pair_exists(ctx, res.failing)
        assert not w.found
        assert w.examined == ctx.qm1.euler_phi
        back = search._pair_walk(ctx, res.failing, "desc")
        assert not back.found and back.examined == ctx.qm1.euler_phi

    def test_exceptional_rejected(self, field):
        ctx = field(7, 1)
        with pytest.raises(ExceptionalFunctionError):
            pair_exists(ctx, RationalFunc.from_coeffs(ctx, (0, 0, 5)))

    def test_degenerate_field(self):
        ctx = field_make(2, 1)
        with pytest.raises(ValueError):
            pair_exists(ctx, RationalFunc.from_coeffs(ctx, (1, 1)))

    def test_witnesses_reverify(self, field, prime_powers):
        for p, k, q in prime_powers(3, 32):
            ctx = field(p, k)
            for f in enumerate_family(ctx, 1, 1):
                w = pair_exists(ctx, f)
                if w.found:
                    assert ctx.is_primitive(w.alpha)
                    assert ctx.is_primitive(w.value)
                    assert f.eval(w.alpha) == w.value
                else:
                    assert w.examined == ctx.qm1.euler_phi


class TestQInQ:
    def test_known_verdicts(self, field):
        assert not q_in_Q(field(331, 1), 1, 1).member
        assert q_in_Q(field(337, 1), 1, 1).member
        assert not q_in_Q(field(211, 1), 2, 0).member
        assert not q_in_Q(field(2, 2), 1, 1).member

    def test_bulk_matches_naive(self, field, prime_powers):
        for p, k, q in prime_powers(3, 32):
            ctx = field(p, k)
            for fam in ((1, 1), (2, 0)):
                rb = q_in_Q(ctx, *fam)
                rn = naive_membership(ctx, *fam)
                assert rb.member == rn.member, (q, fam)
                assert rb.num_failing == rn.num_failing, (q, fam)
                assert rb.failing == rn.failing, (q, fam)

    def test_bulk_matches_naive_irreducible_scope(self, field, prime_powers):
        for p, k, q in prime_powers(3, 30):
            ctx = field(p, k)
            rb = q_in_Q(ctx, 2, 0, quadratic_scope="irreducible")
            rn = naive_membership(ctx, 2, 0, irreducible=True)
            assert (rb.member, rb.num_failing, rb.failing) == \
                   (rn.member, rn.num_failing, rn.failing), q

    def test_quadratic_scope_split_only_fields(self, field):
        # these fields fail the full quadratic family only through split
        # quadratics; the irreducible scope admits them
        for q, (p, k) in ((9, (3, 2)), (16, (2, 4)), (23, (23, 1)),
                          (29, (29, 1)), (127, (127, 1))):
            ctx = field(p, k)
            assert not q_in_Q(ctx, 2, 0, quadratic_scope="all").member, q
            assert q_in_Q(ctx, 2, 0, quadratic_scope="irreducible").member, q

    def test_failing_function_is_enumeration_first(self, field):
        for p, k in ((13, 1), (11, 1), (3, 2)):
            ctx = field(p, k)
            res = q_in_Q(ctx, 1, 1)
            assert not res.member
            for f in enumerate_family(ctx, 1, 1):
                found = pair_exists(ctx, f).found
                if f == res.failing:
                    assert not found
                    break
                assert found, (p, k, f)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            q_in_Q(field_make(2, 1), 1, 1)

    @pytest.mark.parametrize("p, k, fam", [(5, 1, (2, 1)), (2, 2, (3, 0)),
                                           (7, 1, (1, 1)), (7, 1, (2, 0))])
    def test_naive_walk_adds_no_exceptionality_test(self, field, monkeypatch, p, k, fam):
        # the enumerators yield only non-exceptional functions, so the walk
        # over them tests none again: each function is tested at most once,
        # by the enumerator
        calls = [0]

        def counted(f):
            calls[0] += 1
            return is_exceptional(f)

        ctx = field(p, k)
        monkeypatch.setattr(polyrat, "is_exceptional", counted)
        monkeypatch.setattr(search, "is_exceptional", counted)
        list(enumerate_family(ctx, *fam))
        by_enumerator, calls[0] = calls[0], 0
        naive_membership(ctx, *fam)
        assert calls[0] == by_enumerator, (ctx.q, fam)


@functools.lru_cache(maxsize=None)
def _failing_one_shift(m, d):
    return frozenset(x for x in range(m) if gcd((x + d) % m, m) > 1)


def _oracle_failing_scales(m, shifts):
    """Scale dlogs x for which every (x + d) mod m shares a factor with m."""
    failing = set(range(m))
    for d in shifts:
        failing &= _failing_one_shift(m, d)
        if not failing:
            break
    return sorted(failing)


def _oracle_tables(ctx):
    """Primitive elements, the addition table and the dlog list, all built
    from scalar field arithmetic."""
    m = ctx.q - 1
    prim = [ctx.exp_of(t) for t in range(m) if gcd(t, m) == 1]
    add = [[ctx.add(u, v) for v in range(ctx.q)] for u in range(ctx.q)]
    dlog = [None] + [ctx.dlog_of(v) for v in range(1, ctx.q)]
    return prim, add, dlog


def _oracle_triples_1_1(ctx):
    """Failing (a, b, c) of a(x+b)/(x+c), b < c, as orbit representatives,
    deciding each shape on its own."""
    m = ctx.q - 1
    prim, add, dlog = _oracle_tables(ctx)
    out = []
    for c in range(1, ctx.q):
        for b in range(1, c):
            shifts = {(dlog[add[al][b]] - dlog[add[al][c]]) % m for al in prim
                      if add[al][b] and add[al][c]}
            for x in _oracle_failing_scales(m, shifts):
                a = ctx.exp_of(x)
                out.append(min((a, b, c), (ctx.inv(a), c, b)))
    return sorted(out)


def _oracle_triples_2_0(ctx):
    """Failing (a, b, c) of a*x^2 + b*x + c with b^2 != 4ac, deciding each
    shape x^2 + b0*x + c0 on its own."""
    m = ctx.q - 1
    prim, add, dlog = _oracle_tables(ctx)
    four = add[add[1][1]][add[1][1]]
    out = []
    for b0 in range(ctx.q):
        base = [add[ctx.mul(al, al)][ctx.mul(b0, al)] for al in prim]
        for c0 in range(ctx.q):
            if ctx.mul(b0, b0) == ctx.mul(four, c0):
                continue
            shifts = {dlog[add[v][c0]] for v in base if add[v][c0]}
            for x in _oracle_failing_scales(m, shifts):
                a = ctx.exp_of(x)
                out.append((a, ctx.mul(a, b0), ctx.mul(a, c0)))
    return sorted(out)


def _has_root(ctx, a, b, c):
    quadratic = Poly(ctx, (c, b, a))
    return any(quadratic.eval(x) == 0 for x in range(ctx.q))


class TestMembershipEngine:
    def test_triples_match_oracle(self, field, prime_powers):
        # every failing triple, not only the first and the count
        for p, k, q in prime_powers(3, 128):
            ctx = field(p, k)
            assert search._failing_triples_1_1(ctx) == _oracle_triples_1_1(ctx), q
            every = _oracle_triples_2_0(ctx)
            assert search._failing_triples_2_0(ctx) == every, q
            irreducible = [t for t in every if not _has_root(ctx, *t)]
            assert search._failing_triples_2_0(ctx, irreducible=True) == irreducible, q

    @pytest.mark.parametrize("cells", [1, 100])
    def test_small_blocks_match_one_block(self, field, monkeypatch, cells):
        # rows cut into blocks of one or a few shapes give the same triples
        # as whole rows in one block
        def triples(ctx):
            return (search._failing_triples_1_1(ctx),
                    search._failing_triples_2_0(ctx),
                    search._failing_triples_2_0(ctx, irreducible=True))

        ctxs = [field(p, k) for p, k in ((31, 1), (61, 1), (2, 6), (3, 4), (5, 2))]
        whole = [triples(ctx) for ctx in ctxs]
        monkeypatch.setattr(search, "_BLOCK_CELLS", cells)
        for ctx, expected in zip(ctxs, whole):
            assert triples(ctx) == expected, ctx.q

    @pytest.mark.parametrize("p, k", [(151, 1), (13, 2)])
    def test_triples_match_oracle_with_rho_powers(self, field, p, k):
        # past the oracle sweep above: F_151 (q - 1 = 2 * 3 * 5^2) fails both
        # families and F_169 neither, and the engine decides one shape in 5
        # and in 4 there
        ctx = field(p, k)
        assert search._failing_triples_1_1(ctx) == _oracle_triples_1_1(ctx)
        every = _oracle_triples_2_0(ctx)
        assert search._failing_triples_2_0(ctx) == every
        irreducible = [t for t in every if not _has_root(ctx, *t)]
        assert search._failing_triples_2_0(ctx, irreducible=True) == irreducible

    @pytest.mark.parametrize("p, k, sizes", [
        (163, 1, (0, 0, 0)), (193, 1, (0, 0, 0)), (197, 1, (0, 0, 0)),
        (13, 2, (0, 0, 0)), (151, 1, (50, 25, 25)), (11, 2, (128, 64, 32)),
        (7, 2, (128, 256, 0)), (73, 1, (144, 72, 72))])
    def test_triples_closed_under_rho_powers(self, field, p, k, sizes):
        # u = g^rad(q-1) maps primitive elements onto primitive elements, so
        # it maps failing functions onto failing functions: a(x+b)/(x+c) to
        # a(x+bu)/(x+cu), and A*x^2 + B*x + C to A*u^2*x^2 + B*u*x + C
        ctx = field(p, k)
        u = ctx.exp_of(ctx.qm1.radical)
        mul, inv = ctx.mul, ctx.inv
        t11 = search._failing_triples_1_1(ctx)
        t20 = search._failing_triples_2_0(ctx)
        t20i = search._failing_triples_2_0(ctx, irreducible=True)
        assert (len(t11), len(t20), len(t20i)) == sizes
        assert {min((a, mul(b, u), mul(c, u)), (inv(a), mul(c, u), mul(b, u)))
                for a, b, c in t11} == set(t11)
        for triples in (t20, t20i):
            assert {(mul(a, mul(u, u)), mul(b, u), c) for a, b, c in triples} == set(triples)

    @pytest.mark.parametrize("p, k, size", [
        (163, 1, 0), (193, 1, 0), (197, 1, 0), (13, 2, 0), (151, 1, 50),
        (11, 2, 128), (7, 2, 128), (73, 1, 144), (131, 1, 0), (2, 6, 0),
        (211, 1, 127), (103, 1, 291)])
    def test_triples_closed_under_inversion(self, field, p, k, size):
        # 1/alpha is primitive exactly when alpha is, and f(1/alpha) =
        # (ab/c)(alpha + 1/b)/(alpha + 1/c) for f = a(x+b)/(x+c), so that map
        # sends failing functions onto failing functions. F_131, F_211 and
        # F_103 have square-free q - 1, so H is trivial there.
        ctx = field(p, k)
        mul, inv = ctx.mul, ctx.inv

        def canonical(a, b, c):
            return min((a, b, c), (inv(a), c, b))

        t11 = search._failing_triples_1_1(ctx)
        assert len(t11) == size
        assert {canonical(mul(mul(a, b), inv(c)), inv(b), inv(c))
                for a, b, c in t11} == set(t11)

    def test_verdicts_pinned_beyond_oracle(self, field):
        # num_failing and the first failing function, as the engine gave them
        # when it decided every shape on its own
        def verdict(q, fam, scope="all"):
            res = q_in_Q(field(q, 1), *fam, quadratic_scope=scope)
            return res.num_failing, (res.failing and (res.failing.num.coeffs,
                                                      res.failing.den.coeffs))

        assert verdict(193, (1, 1)) == (0, None)
        assert verdict(197, (1, 1)) == (0, None)
        assert verdict(331, (1, 1)) == (1, ((330, 126), (205, 1)))
        assert verdict(211, (2, 0)) == (10, ((154, 198, 90), (1,)))
        assert verdict(211, (2, 0), "irreducible") == (6, ((178, 64, 125), (1,)))

    def test_table_cap_refused_before_building(self, field, monkeypatch):
        # F_65537 has q * phi(q - 1) = 65537 * 32768 entries, past the cap
        def no_table(*args):
            raise AssertionError("built a table past the cap")

        monkeypatch.setattr(search, "_translate_table", no_table)
        monkeypatch.setattr(search, "_UnitGrid", no_table)
        ctx = field(65537, 1)
        for fam in ((1, 1), (2, 0)):
            with pytest.raises(ValueError, match="limit of 16777216"):
                q_in_Q(ctx, *fam)
        # F_2003, with 2003 * 720 entries, is still decided
        monkeypatch.setattr(search, "_failing_triples_1_1", lambda ctx: [])
        assert q_in_Q(field(2003, 1), 1, 1).member


class TestExceptionScan:
    def test_small_range_contains_true_exceptions(self):
        cands = {r.q for r in exception_scan(3, 10_000, 2)}
        assert set(CASE_1_1) - {33093061} <= cands | {q for q in CASE_1_1 if q > 10_000}
        assert all(q in cands for q in CASE_1_1 if q <= 10_000)
        assert all(q in cands for q in CASE_2_0 if q <= 10_000)

    def test_fermat_prime_passes(self):
        assert list(exception_scan(65537, 65537, 2)) == []
        recs = list(exception_scan(65537, 65537, 2, emit="all"))
        assert len(recs) == 1 and recs[0].verdict == "pass_thm31"

    def test_matches_prime_power_iter(self, prime_powers):
        recs = list(exception_scan(3, 100_000, 2, emit="all"))
        assert [r.q for r in recs] == [q for _, _, q in prime_powers(3, 100_000)]
        for r in recs[:200]:
            assert r.p**r.k == r.q
            fac = factorize(r.q - 1)
            assert r.factors == fac.factors
            assert r.omega == fac.omega

    def test_verdicts_match_best_sieve(self):
        from primpair.bounds import best_sieve, direct_criterion_check

        for rec in exception_scan(3, 3000, 2, emit="all"):
            qm1 = factorize(rec.q - 1)
            direct = direct_criterion_check(2, rec.q, qm1)
            sieve_pass, best = best_sieve(rec.q, 2, qm1)
            expected = ("pass_thm31" if direct else
                        "pass_sieve" if sieve_pass else "candidate")
            assert rec.verdict == expected, rec
            assert rec.best_core == best.core, rec

    def test_faithful_mode_prepends_degenerate_field(self):
        # the modes share one criterion, so every record but q = 2 matches
        for emit in ("candidates", "all"):
            exact = list(exception_scan(3, 30_000, 2, emit=emit))
            faithful = list(exception_scan(3, 30_000, 2, mode="faithful", emit=emit))
            assert faithful[0].q == 2 and faithful[1:] == exact

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            list(exception_scan(1, 100, 2))

    def test_ceiling_validation(self):
        # one past the last q whose factor rows fit the 10-column buffer
        with pytest.raises(ValueError, match="at most at 200560490129"):
            list(exception_scan(SCAN_HI_MAX + 1, SCAN_HI_MAX + 1))
        with pytest.raises(ValueError, match="at most"):
            run_scan(3, SCAN_HI_MAX + 1)
        assert list(exception_scan(SCAN_HI_MAX, SCAN_HI_MAX, emit="all")) == []

    def test_segment_just_below_ceiling(self):
        # the factor buffer is as wide as the largest omega below hi: 10
        # columns at the ceiling, 9 just below the first 10-prime value
        records = list(exception_scan(SCAN_HI_MAX - 3000, SCAN_HI_MAX, emit="all"))
        assert records and all(r.q <= SCAN_HI_MAX for r in records)
        for r in records:
            assert r.factors == factorize(r.q - 1).factors
            assert r.omega == len(r.factors)
        base = sieve_primes(isqrt(SCAN_HI_MAX))
        qm1 = np.array([r.q - 1 for r in records], dtype=np.int64)
        buf, _ = search._factor_rows(qm1, base)
        assert buf.shape == (len(records), 10)
        # no q - 1 lies near 2 * 3 * ... * 29, so these rows go in directly
        primorial_10 = 6469693230
        buf, cnt = search._factor_rows(
            np.arange(primorial_10 - 5, primorial_10 + 1, dtype=np.int64), base)
        assert buf.shape == (6, 10)
        assert buf[5].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        buf, cnt = search._factor_rows(
            np.arange(primorial_10 - 5, primorial_10, dtype=np.int64), base)
        assert buf.shape == (5, 9)
        for i, m in enumerate(range(primorial_10 - 5, primorial_10)):
            assert buf[i, :cnt[i]].tolist() == list(factorize(m).primes)

    def test_huge_degree_keeps_direct_bound_exact(self, prime_powers):
        # n^2 * 16^omega passes 2^63 for n = 10^6; no q <= 10^5 can pass, so
        # every prime power must come out as a candidate
        n = 10**6
        expected = [_oracle_record(q, p, k, n) for p, k, q in prime_powers(3, 100_000)]
        assert all(r.verdict == "candidate" for r in expected)
        for emit in ("candidates", "all"):
            assert list(exception_scan(3, 100_000, n, emit=emit)) == expected

    def test_degree_validation(self):
        with pytest.raises(ValueError, match="n must be >= 2"):
            list(exception_scan(3, 100, 1))
        with pytest.raises(ValueError, match="n must be >= 2"):
            run_scan(3, 100, 1)

    def test_csv_format(self):
        rec = next(exception_scan(3, 100, 2, emit="all"))
        line = rec.csv_line()
        assert line == "3,3,1,1,2^1,candidate,2"
        assert CSV_HEADER.count(",") == line.count(",")
        # q = 128 passes with the empty core (sieving the lone odd prime 127)
        rec128 = next(r for r in exception_scan(127, 128, 2, emit="all") if r.q == 128)
        assert rec128.csv_line() == "128,2,7,1,127^1,pass_thm31,"


def _oracle_record(q: int, p: int, k: int, n: int) -> search.ScanRecord:
    fac = factorize(q - 1)
    verdict, r, _, _ = best_prefix(q, list(fac.primes), n)
    return search.ScanRecord(q, p, k, fac.omega, fac.factors, verdict, fac.primes[:r])


class TestScanSieve:
    """The segment marker, the row factoriser and the float64 prefix sweep."""

    @pytest.mark.parametrize("lo", [2**16 - 300, 2**31 - 300, 2**33 - 300,
                                    251**2 - 300, 257**2 - 300, 7919**2 - 300,
                                    65521**2 - 300])
    def test_factor_rows_match_factorize(self, lo):
        # windows around 2^k and p^2, for p on both sides of the window span
        # (strided views and the gather), whole and as the sparse rows of
        # every fifth m
        base = sieve_primes(isqrt(lo + 600))
        whole = np.arange(lo, lo + 600, dtype=np.int64)
        for m in (whole, whole[3::5]):
            buf, cnt = search._factor_rows(m, base)
            for i, v in enumerate(m.tolist()):
                assert buf[i, :cnt[i]].tolist() == list(factorize(v).primes), v

    @pytest.mark.parametrize("segment", [1, 97, 1000])
    def test_rows_across_segment_edges(self, segment, prime_powers):
        # segment edges fall on and around 2^16 and 257^2 = 66049
        recs = list(exception_scan(2**16 - 2000, 257**2 + 2000, 2, emit="all",
                                   segment_size=segment))
        assert [r.q for r in recs] == [q for _, _, q in prime_powers(2**16 - 2000,
                                                                     257**2 + 2000)]
        for r in recs:
            assert r == _oracle_record(r.q, r.p, r.k, 2)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_float_sweep_certifies_only_passes(self, n):
        # every prime power q <= 10^6 the sweep lets skip the exact kernel
        # really passes
        hi = 10**6
        base = sieve_primes(isqrt(hi))
        q, _, _ = segment_prime_powers(3, hi + 1, base, higher_prime_powers(3, hi, base))
        buf, cnt = search._factor_rows(q - 1, base)
        sure = certain_prefix_pass(q, buf, cnt, n)
        assert 0 < sure.sum() < q.size
        for qi, omega, row in zip(q[sure].tolist(), cnt[sure].tolist(), buf[sure].tolist()):
            assert best_prefix(qi, row[:omega], n)[0] != "candidate", qi

    def test_wide_margin_sends_every_row_to_exact_kernel(self, monkeypatch, prime_powers):
        calls = [0]
        real = search.best_prefix

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(search, "best_prefix", counting)
        default = list(exception_scan(3, 300_000, 2, segment_size=1 << 15))
        default_calls, calls[0] = calls[0], 0
        monkeypatch.setattr(bounds, "SWEEP_MARGIN", 1e9)
        wide = list(exception_scan(3, 300_000, 2, segment_size=1 << 15))
        assert wide == default
        # every row at or below the direct bound n^2 * 16^omega
        past_direct = sum(1 for _, _, q in prime_powers(3, 300_000)
                          if q <= 4 * 16 ** factorize(q - 1).omega)
        assert calls[0] == past_direct
        assert len(default) <= default_calls < past_direct


class TestRunScan:
    def test_single_vs_multi_worker_bytes(self, tmp_path):
        a = tmp_path / "w1.csv"
        b = tmp_path / "w4.csv"
        run_scan(3, 200_000, 2, workers=1, csv_path=str(a), segment_size=1 << 16)
        run_scan(3, 200_000, 2, workers=4, csv_path=str(b), segment_size=1 << 16)
        assert a.read_bytes() == b.read_bytes()

    def test_segment_size_invariance(self, tmp_path):
        a = tmp_path / "s1.csv"
        b = tmp_path / "s2.csv"
        run_scan(3, 150_000, 2, csv_path=str(a), segment_size=1 << 20)
        run_scan(3, 150_000, 2, csv_path=str(b), segment_size=7_001)
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_resume_identical(self, tmp_path):
        full = tmp_path / "full.csv"
        whole, _ = run_scan(3, 150_000, 2, csv_path=str(full), segment_size=1 << 15)

        part = tmp_path / "part.csv"
        ck = tmp_path / "ck.json"

        class Stop(Exception):
            pass

        count = [0]

        def bail(seg_end, hi, emitted):
            count[0] += 1
            if count[0] == 2:
                raise Stop

        with pytest.raises(Stop):
            run_scan(3, 150_000, 2, csv_path=str(part), segment_size=1 << 15,
                     checkpoint_path=str(ck), progress=bail)
        state = json.loads(ck.read_text())
        assert state["next_q"] < 150_000
        resumed, _ = run_scan(3, 150_000, 2, csv_path=str(part), segment_size=1 << 15,
                              checkpoint_path=str(ck), resume=True)
        assert part.read_bytes() == full.read_bytes()
        # the summary covers the segments before the checkpoint too
        assert resumed == dataclasses.replace(whole, csv_path=str(part))

    def test_resume_from_checkpoint_with_lo_hi(self, tmp_path):
        # checkpoints of the earlier format, which also stored lo and hi,
        # still resume; the state written after the resume drops those keys
        full = tmp_path / "full.csv"
        whole, _ = run_scan(3, 150_000, 2, csv_path=str(full), segment_size=1 << 15)
        part = tmp_path / "part.csv"
        ck = tmp_path / "ck.json"

        class Stop(Exception):
            pass

        def bail(seg_end, hi, emitted):
            raise Stop

        with pytest.raises(Stop):
            run_scan(3, 150_000, 2, csv_path=str(part), segment_size=1 << 15,
                     checkpoint_path=str(ck), progress=bail)
        state = json.loads(ck.read_text())
        assert isinstance(state["csv_offset"], int)
        ck.write_text(json.dumps({"lo": 3, "hi": 150_000, **state}))
        resumed, _ = run_scan(3, 150_000, 2, csv_path=str(part), segment_size=1 << 15,
                              checkpoint_path=str(ck), resume=True)
        assert part.read_bytes() == full.read_bytes()
        assert resumed == dataclasses.replace(whole, csv_path=str(part))
        assert json.loads(ck.read_text()).keys() == state.keys()

    def _checkpointed_scan(self, tmp_path):
        csv = tmp_path / "scan.csv"
        ck = tmp_path / "ck.json"
        run_scan(3, 10_000, 2, csv_path=str(csv), checkpoint_path=str(ck),
                 segment_size=1 << 12)
        return csv, ck

    def test_resume_refuses_checkpoint_without_summary(self, tmp_path):
        csv, ck = self._checkpointed_scan(tmp_path)
        state = json.loads(ck.read_text())
        del state["num_candidates"], state["max_candidate"]
        ck.write_text(json.dumps(state))
        with pytest.raises(ValueError,
                           match="missing or invalid num_candidates, max_candidate"):
            run_scan(3, 10_000, 2, csv_path=str(csv), checkpoint_path=str(ck),
                     segment_size=1 << 12, resume=True)

    def test_resume_refuses_checkpoint_without_csv_offset(self, tmp_path):
        csv, ck = self._checkpointed_scan(tmp_path)
        state = json.loads(ck.read_text())
        del state["csv_offset"]
        # no key, and the null that checkpoints written without a CSV held
        for broken in (state, {**state, "csv_offset": None}):
            ck.write_text(json.dumps(broken))
            with pytest.raises(ValueError, match="missing or invalid csv_offset"):
                run_scan(3, 10_000, 2, csv_path=str(csv), checkpoint_path=str(ck),
                         segment_size=1 << 12, resume=True)

    def test_resume_refuses_short_csv(self, tmp_path):
        # a CSV cut below the checkpoint's offset would be padded with NUL
        # bytes up to it and the records in the gap lost
        csv, ck = self._checkpointed_scan(tmp_path)
        offset = json.loads(ck.read_text())["csv_offset"]
        assert offset > 100
        csv.write_bytes(csv.read_bytes()[:100])
        with pytest.raises(ValueError, match=f"bookmarks byte {offset} of .*100 bytes"):
            run_scan(3, 10_000, 2, csv_path=str(csv), checkpoint_path=str(ck),
                     segment_size=1 << 12, resume=True)
        assert csv.stat().st_size == 100

    def test_resume_refuses_missing_csv(self, tmp_path):
        # a checkpoint is a bookmark in the CSV: without one, the records
        # before it would be lost, so the scan is refused before any file
        # is written
        ck = tmp_path / "ck.json"
        for resume in (False, True):
            with pytest.raises(ValueError, match="needs the CSV"):
                run_scan(3, 10_000, 2, checkpoint_path=str(ck), segment_size=1 << 12,
                         resume=resume)
        with pytest.raises(ValueError, match="needs the CSV"):
            run_scan(3, 10_000, 2, resume=True)
        assert list(tmp_path.iterdir()) == []

    def test_resume_after_fault_between_csv_and_checkpoint(self, tmp_path, monkeypatch):
        # segment 3's lines reach the CSV but its checkpoint write fails; the
        # resume cuts them off again instead of writing them twice
        full = tmp_path / "full.csv"
        whole, _ = run_scan(3, 400_000, 2, csv_path=str(full), segment_size=100_000)

        part = tmp_path / "part.csv"
        ck = tmp_path / "ck.json"
        real_write = search._checkpoint_write
        writes = [0]

        def write_then_fail(path, payload):
            writes[0] += 1
            if writes[0] == 3:
                raise OSError("injected fault")
            real_write(path, payload)

        monkeypatch.setattr(search, "_checkpoint_write", write_then_fail)
        with pytest.raises(OSError, match="injected fault.*checkpointed at"):
            run_scan(3, 400_000, 2, csv_path=str(part), checkpoint_path=str(ck),
                     segment_size=100_000)
        monkeypatch.undo()
        assert json.loads(ck.read_text())["next_q"] == 200_003
        resumed, _ = run_scan(3, 400_000, 2, csv_path=str(part), checkpoint_path=str(ck),
                              segment_size=100_000, resume=True)
        assert part.read_bytes() == full.read_bytes()
        assert resumed == dataclasses.replace(whole, csv_path=str(part))

    def test_resume_with_other_segment_size(self, tmp_path):
        # the resume starts its segments at the checkpoint's next q, so the
        # q before the next segment start counted from lo are scanned too
        full = tmp_path / "full.csv"
        whole, _ = run_scan(3, 400_000, 2, emit="all", csv_path=str(full),
                            segment_size=100_000)
        part = tmp_path / "part.csv"
        ck = tmp_path / "ck.json"

        class Stop(Exception):
            pass

        def bail(seg_end, hi, emitted):
            if seg_end >= 200_000:
                raise Stop

        with pytest.raises(Stop):
            run_scan(3, 400_000, 2, emit="all", csv_path=str(part),
                     checkpoint_path=str(ck), segment_size=100_000, progress=bail)
        assert json.loads(ck.read_text())["next_q"] == 200_003
        resumed, _ = run_scan(3, 400_000, 2, emit="all", csv_path=str(part),
                              checkpoint_path=str(ck), segment_size=300_000, resume=True)
        assert part.read_bytes() == full.read_bytes()
        assert resumed == dataclasses.replace(whole, csv_path=str(part))

    @pytest.mark.parametrize("size", [0, -1])
    def test_segment_size_below_one_refused(self, size, tmp_path):
        csv = tmp_path / "scan.csv"
        with pytest.raises(ValueError, match="segment_size must be >= 1"):
            run_scan(3, 1000, 2, csv_path=str(csv), segment_size=size)
        assert not csv.exists()
        with pytest.raises(ValueError, match="segment_size must be >= 1"):
            list(exception_scan(3, 1000, 2, segment_size=size))

    @pytest.mark.parametrize("mode", ["exact", "faithful"])
    @pytest.mark.parametrize("emit", ["candidates", "all"])
    @pytest.mark.parametrize("lo, hi, segment", [
        (3, 2, 1 << 20), (3, 3, 1 << 20), (65537, 65537, 1 << 20), (3, 40_000, 7_001)])
    def test_exception_scan_matches_run_scan(self, lo, hi, segment, mode, emit):
        # one driver: the streamed records are the ones run_scan collects,
        # the q = 2 record of a faithful scan from 3 included
        streamed = list(exception_scan(lo, hi, 2, mode=mode, emit=emit,
                                       segment_size=segment))
        _, collected = run_scan(lo, hi, 2, mode=mode, emit=emit, segment_size=segment)
        assert streamed == collected
        assert [r.q for r in streamed if r.q == 2] == (
            [2] if mode == "faithful" and lo == 3 else [])

    def test_stopped_pool_is_terminated(self):
        class Stop(Exception):
            pass

        def bail(seg_end, hi, emitted):
            if seg_end > 3:
                raise Stop

        with pytest.raises(Stop):
            run_scan(3, 200_000, 2, mode="faithful", workers=2, segment_size=1 << 14,
                     progress=bail)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_refused(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_scan(3, 1000, 2, workers=workers)

    def test_faithful_resume_after_degenerate_record(self, tmp_path):
        # the q = 2 record gets its own checkpoint; a resume from it must not
        # count or write that record again
        full = tmp_path / "full.csv"
        whole, _ = run_scan(3, 50_000, 2, mode="faithful", csv_path=str(full),
                            segment_size=1 << 14)
        part = tmp_path / "part.csv"
        ck = tmp_path / "ck.json"

        class Stop(Exception):
            pass

        def bail(seg_end, hi, emitted):
            raise Stop

        with pytest.raises(Stop):
            run_scan(3, 50_000, 2, mode="faithful", csv_path=str(part),
                     checkpoint_path=str(ck), segment_size=1 << 14, progress=bail)
        assert json.loads(ck.read_text())["next_q"] == 3
        resumed, _ = run_scan(3, 50_000, 2, mode="faithful", csv_path=str(part),
                              checkpoint_path=str(ck), segment_size=1 << 14, resume=True)
        assert part.read_bytes() == full.read_bytes()
        assert resumed == dataclasses.replace(whole, csv_path=str(part))

    def test_resume_rejects_other_config(self, tmp_path):
        csv = tmp_path / "scan.csv"
        ck = tmp_path / "ck.json"
        run_scan(3, 10_000, 2, csv_path=str(csv), checkpoint_path=str(ck))
        with pytest.raises(ValueError, match="configuration"):
            run_scan(3, 20_000, 2, csv_path=str(csv), checkpoint_path=str(ck),
                     resume=True)
        ck.write_text("[]")  # JSON, but not a checkpoint
        with pytest.raises(ValueError, match="configuration"):
            run_scan(3, 10_000, 2, csv_path=str(csv), checkpoint_path=str(ck),
                     resume=True)

    def test_config_validates_mode_and_emit(self):
        with pytest.raises(ValueError, match="unknown scan mode"):
            ScanConfig(3, 100, 2, mode="fast")
        with pytest.raises(ValueError, match="unknown emit"):
            ScanConfig(3, 100, 2, emit="some")

    def test_config_hash_ignores_workers(self):
        assert (ScanConfig(3, 100, 2).config_hash()
                == ScanConfig(3, 100, 2).config_hash())
        assert (ScanConfig(3, 100, 2).config_hash()
                != ScanConfig(3, 101, 2).config_hash())


class TestClassify:
    def test_case_1_1_to_150(self):
        res = classify_true_exceptions(150, (1, 1))
        assert res.q_list == [q for q in CASE_1_1 if q <= 150]
        assert res.complete

    def test_case_2_0_to_150(self):
        res = classify_true_exceptions(150, (2, 0))
        assert res.q_list == [q for q in CASE_2_0 if q <= 150]

    def test_full_quadratic_scope_superset(self):
        res = classify_true_exceptions(130, (2, 0), quadratic_scope="all")
        expected = sorted([q for q in CASE_2_0 if q <= 130]
                          + [q for q in SPLIT_ONLY_2_0 if q <= 130])
        assert res.q_list == expected

    def test_scan_floor(self):
        assert classify_true_exceptions(2, (1, 1)).q_list == []

    def test_budget_high_water(self, monkeypatch):
        monkeypatch.setattr(search, "CLASSIFY_LONG_QMAX", 50)
        res = classify_true_exceptions(200, (1, 1))
        assert not res.complete
        assert res.high_water == 50
        assert res.q_list == [q for q in CASE_1_1 if q <= 50]

    def test_default_budget_stops_at_long_limit(self, monkeypatch):
        asked = []

        def member(ctx, n1, n2, quadratic_scope="all"):
            asked.append(ctx.q)
            return search.QMembership(ctx.q, (n1, n2), True, None, 0)

        monkeypatch.setattr(search, "q_in_Q", member)
        res = classify_true_exceptions(1500, (1, 1))
        assert search.CLASSIFY_LONG_QMAX == 1000
        assert not res.complete
        assert res.high_water == 1000
        assert asked and max(asked) <= 1000

    def test_bad_family(self):
        with pytest.raises(ValueError):
            classify_true_exceptions(100, (3, 1))

    @pytest.mark.parametrize("family", [(1, 1), (2, 0)])
    def test_progress_once_per_candidate(self, family):
        seen = []
        res = classify_true_exceptions(
            120, family, progress=lambda q, member: seen.append((q, member)))
        candidates = [r.q for r in exception_scan(3, 120, 2)]
        assert [q for q, _ in seen] == candidates == sorted(candidates)
        assert [q for q, member in seen if not member] == res.q_list

    def test_witness_report(self, tmp_path):
        out = tmp_path / "w.jsonl"
        res = classify_true_exceptions(20, (1, 1), jsonl_path=str(out))
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert [e["q"] for e in lines] == res.q_list
        for e in lines:
            assert e["family"] == [1, 1]
            assert e["witness"] is None
            assert set(e["f"]) == {"num", "den"}
