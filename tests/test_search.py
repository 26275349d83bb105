import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
from itertools import zip_longest
from math import gcd, prod

import numpy as np
import pytest

from primpair import ffcore, polyrat, search
from primpair.bounds import best_prefix, code_thresholds, omega_thresholds
from primpair.ffcore import SegmentKernel, factorize, field_make, prime_power_segments
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

    @pytest.mark.parametrize("q", [999_983, 1_000_003])
    def test_prime_field_walk_builds_no_table(self, q):
        ctx = field_make(q, 1)
        for num, den in (((1, 1), (2, 1)), ((3, 0, 1), (1,)), ((5, 7), (0, 1))):
            w = pair_exists(ctx, RationalFunc.from_coeffs(ctx, num, den))
            assert w.found and w.examined >= 1
            assert ctx.exp_of(w.alpha_dlog) == w.alpha
            assert ctx.exp_of(w.value_dlog) == w.value
            assert ctx.is_primitive(w.alpha) and ctx.is_primitive(w.value)
        assert "exp" not in ctx.__dict__ and "dlog" not in ctx.__dict__


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

    def test_triple_lists_pinned_beyond_oracle(self, field, prime_powers):
        # every failing triple past the oracle sweep, 128 <= q <= 256: the
        # (1,1), (2,0) and irreducible (2,0) lists of each field, in order,
        # as the engine gave them when this test was written
        digest = hashlib.sha256()
        for p, k, q in prime_powers(128, 256):
            ctx = field(p, k)
            for triples in (search._failing_triples_1_1(ctx),
                            search._failing_triples_2_0(ctx),
                            search._failing_triples_2_0(ctx, irreducible=True)):
                digest.update(json.dumps([q, triples]).encode())
        assert digest.hexdigest() == (
            "63de7dd060e60e48a7b2c8dd34951b17bb0f338771fc41962e4508196fe38548")

    def test_triple_lists_pinned_to_400(self, field, prime_powers):
        # the same pin for 256 < q <= 400, as the engine gave the lists when
        # this test was written
        digest = hashlib.sha256()
        for p, k, q in prime_powers(257, 400):
            ctx = field(p, k)
            for triples in (search._failing_triples_1_1(ctx),
                            search._failing_triples_2_0(ctx),
                            search._failing_triples_2_0(ctx, irreducible=True)):
                digest.update(json.dumps([q, triples]).encode())
        assert digest.hexdigest() == (
            "41c1f9ada6d2dfaa910da06b29a206c1217fb7bf569ba2886440082acffd9c1b")

    @pytest.mark.parametrize("cells, firsts", [pytest.param(1, (16,), id="1"),
                                               pytest.param(100, (1, 3, 16), id="100")])
    def test_small_blocks_match_one_block(self, field, monkeypatch, cells, firsts):
        # rows cut into blocks of one or a few shapes give the same triples as
        # whole rows in one block: 1-cell blocks AND one column at a time,
        # whatever the first chunk's width, and 100-cell blocks start with
        # one, three or 16 columns and widen within their 100 cells
        def triples(ctx):
            return (search._failing_triples_1_1(ctx),
                    search._failing_triples_2_0(ctx),
                    search._failing_triples_2_0(ctx, irreducible=True))

        ctxs = [field(p, k) for p, k in ((31, 1), (61, 1), (2, 6), (3, 4), (5, 2))]
        whole = [triples(ctx) for ctx in ctxs]
        monkeypatch.setattr(search, "_BLOCK_CELLS", cells)
        for first in firsts:
            monkeypatch.setattr(search, "_FIRST_COLUMNS", first)
            for ctx, expected in zip(ctxs, whole):
                assert triples(ctx) == expected, (ctx.q, first)

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
        # F_65537 has q * phi(q - 1) = 65537 * 32768 entries, past the cap of
        # the (1,1) translate table, which is refused before the engine builds
        # its mask table; F_32771 has rho = 32770, so its mask table would
        # hold 32771 * 513 words, just past the cap, and the engine refuses
        # it before building anything
        def no_table(*args):
            raise AssertionError("built a mask table")

        monkeypatch.setattr(search, "_mask_table", no_table)
        ctx = field(65537, 1)
        with pytest.raises(ValueError, match="limit of 16777216"):
            q_in_Q(ctx, 1, 1)
        # rho = 2: one word a row
        with pytest.raises(AssertionError, match="built a mask table"):
            q_in_Q(ctx, 2, 0)
        # F_2003, with 2003 * 720 entries, reaches the engine
        with pytest.raises(AssertionError, match="built a mask table"):
            q_in_Q(field(2003, 1), 1, 1)
        assert 32771 * 513 > ffcore.DEFAULT_TABLE_CAP
        with pytest.raises(ValueError, match="mask table of .* = 16811523 words.*"
                                             "limit of 16777216"):
            q_in_Q(field(32771, 1), 2, 0)

    def test_member_keeps_no_blocks(self, field, monkeypatch):
        # F_12289 is a member of irreducible (2,0), decided in many blocks;
        # no block adds to kept, which holds only its empty seed entry
        engines = []

        class Recorded(search._Engine):
            def __init__(self, ctx):
                super().__init__(ctx)
                engines.append(self)

        monkeypatch.setattr(search, "_Engine", Recorded)
        assert q_in_Q(field(12289, 1), 2, 0, quadratic_scope="irreducible").member
        (engine,) = engines
        assert len(engine.kept) == 1 and engine.kept[0].shape == (3, 0)

    @pytest.mark.parametrize("p, k", [(67, 1), (5, 3), (131, 1)])
    def test_mask_table_matches_gcd(self, field, p, k):
        # rho = 66, 62 and 130 for F_67, F_125 and F_131: rows that cross a
        # 64-bit word boundary and end inside a word
        ctx = field(p, k)
        rho = ctx.qm1.radical
        masks = search._mask_table(rho, ctx.qm1.primes)
        words = -(-rho // 64)
        assert masks.shape == (rho + 1, words) and masks.dtype == np.uint64
        bits = (masks[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        bits = bits.reshape(rho + 1, 64 * words).astype(bool)
        expected = [[gcd(x + s, rho) > 1 for x in range(rho)] for s in range(rho)]
        assert (bits[:rho, :rho] == np.array(expected)).all()
        assert not bits[:, rho:].any()  # padding
        assert bits[rho, :rho].all()  # the zero/pole row


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
        # a scan from 2 is the scan from 3 plus F_2's record, which the kernel
        # and the criterion decide: q - 1 = 1 has no primes and no passing core
        for emit in ("candidates", "all"):
            exact = list(exception_scan(3, 30_000, 2, emit=emit))
            faithful = list(exception_scan(2, 30_000, 2, emit=emit))
            assert faithful[0].q == 2 and faithful[1:] == exact
            for n in range(2, 6):
                first = next(exception_scan(2, 100, n, emit=emit))
                assert first == search.ScanRecord(2, 2, 1, 0, (), "candidate", ()), n

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

    def test_segment_just_below_ceiling(self, skipped_segment):
        # the factor buffer is as wide as the largest omega below the
        # segment's top: 10 columns at the ceiling, 9 just below the first
        # 10-prime value; a skip keeps the same rows as the full call
        records = list(exception_scan(SCAN_HI_MAX - 3000, SCAN_HI_MAX, emit="all"))
        assert records and all(r.q <= SCAN_HI_MAX for r in records)
        for r in records:
            assert r.factors == factorize(r.q - 1).factors
            assert r.omega == len(r.factors)
        segment = SCAN_HI_MAX - 3000, SCAN_HI_MAX + 1
        plan = prime_power_segments(segment[0], SCAN_HI_MAX, 3001)
        q, _, _, buf, exps, cnt = skipped_segment(SegmentKernel(plan), segment)
        assert q.tolist() == [r.q for r in records]
        assert buf.shape == exps.shape == (len(records), 10)
        for i, r in enumerate(records):
            assert tuple(zip(buf[i, :cnt[i]].tolist(), exps[i, :cnt[i]].tolist())) == r.factors
        # the prime q = 11 * (2 * 3 * ... * 29) + 1 has omega(q - 1) = 10
        q10 = 71166625531
        segment = q10 - 5, q10 + 1
        q, _, _, buf, exps, cnt = skipped_segment(
            SegmentKernel(prime_power_segments(q10 - 5, q10, 6)), segment)
        assert q[-1] == q10 and buf.shape[1] == 10 and cnt[-1] == 10
        assert buf[-1].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert exps[-1].tolist() == [1] * 4 + [2] + [1] * 5
        # every q - 1 below 2 * 3 * ... * 29 fits 9 columns
        primorial_10 = 6469693230
        segment = primorial_10 - 3000, primorial_10 + 1
        plan = prime_power_segments(segment[0], primorial_10, 3001)
        q, _, _, buf, exps, cnt = SegmentKernel(plan).segment(*segment)
        assert q.size and buf.shape == exps.shape == (q.size, 9)
        for i, v in enumerate(q.tolist()):
            assert (tuple(zip(buf[i, :cnt[i]].tolist(), exps[i, :cnt[i]].tolist()))
                    == factorize(v - 1).factors)

    def test_huge_degree_keeps_direct_bound_exact(self, prime_powers):
        # the omega table passes 2^63 for n = 10^6 and is clipped there; no
        # q <= 10^5 can pass, so every prime power must come out a candidate
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


@functools.lru_cache(maxsize=None)
def _factors(m: int):
    return factorize(m)


_BELOW_32 = [int(p) for p in ffcore.sieve_primes(31)]


def _code(q: int) -> int:
    """The code of q - 1 as the scan kernel's skip should see it, read off
    factorize: the set of its primes below 32 as bits."""
    return sum(1 << _BELOW_32.index(p) for p in _factors(q - 1).primes if p < 32)


def _oracle_record(q: int, p: int, k: int, n: int) -> search.ScanRecord:
    fac = _factors(q - 1)
    verdict, r, _, _ = best_prefix(q, list(fac.primes), n)
    return search.ScanRecord(q, p, k, fac.omega, fac.factors, verdict, fac.primes[:r])


class TestScanSieve:
    """The segment kernel and the scan's skip on the code table."""

    @pytest.mark.parametrize("lo", [2**16 - 300, 2**31 - 300, 2**33 - 300,
                                    251**2 - 300, 257**2 - 300, 7919**2 - 300,
                                    65521**2 - 300])
    def test_factor_rows_match_factorize(self, lo, skipped_segment):
        # segments whose q - 1 lie in windows around 2^k and p^2, for p on
        # both sides of the segment's span (several multiples in a segment,
        # or at most one), as one segment and as segments of 7, primes and
        # exponents; a skip keeps the same rows as the full call
        for size in (600, 7):
            plan = prime_power_segments(lo + 1, lo + 600, size)
            kernel = SegmentKernel(plan)
            rows = 0
            for segment in plan:
                q, _, _, buf, exps, cnt = skipped_segment(kernel, segment)
                rows += q.size
                for i, v in enumerate(q.tolist()):
                    assert (tuple(zip(buf[i, :cnt[i]].tolist(), exps[i, :cnt[i]].tolist()))
                            == factorize(v - 1).factors), v
            assert rows

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
    def test_code_table_certifies_only_passes(self, n, prime_powers):
        # the kernel reads, for every prime power q <= 10^6, the code that
        # _code reads off factorize; the table of ceilings(m_max), asked for
        # once with m_max >= 10^6 - 1, keeps exactly the q at or below their
        # code's entry, and every q above it really passes
        q = np.array([v for _, _, v in prime_powers(2, 10**6)])
        code = np.array([_code(v) for v in q.tolist()])
        kernel = SegmentKernel(prime_power_segments(2, 10**6, 10**6))
        thresholds = code_thresholds(n, kernel.cut)
        seen = []

        def ceilings(m_max):
            seen.append(m_max)
            return thresholds.ceilings(m_max)

        kept = kernel.segment(2, 10**6 + 1, ceilings)[0]
        assert (kernel.bits[q - 2] == code).all()
        assert len(seen) == 1 and seen[0] >= 10**6 - 1
        passed = q > thresholds.ceilings(seen[0])[code]
        assert kept.tolist() == q[~passed].tolist()
        assert 0 < passed.sum() < q.size
        for qi in q[passed].tolist():
            assert best_prefix(qi, list(_factors(qi - 1).primes), n)[0] != "candidate", qi

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_direct_bound_edge_is_exact(self, n):
        # q = T_c[code, w] sits on the table's bound and fails it, q + 1
        # passes, at codes where (q - 1) // prod(S) < 37 leaves no room for a
        # prime past 31, so that ceilings(q) reads w = |S| back: the empty
        # code, 31 alone, and the first omega primes at the omega where the
        # scan ceiling binds, whose entry is the omega table's
        omega = {2: 8, 3: 9, 5: 9}[n]
        code, w = np.array([0, 1 << 10, (1 << omega) - 1]), np.array([0, 1, omega])
        thresholds = code_thresholds(n, 11)
        edge = thresholds(code, w)
        assert edge[2] == omega_thresholds(n)[omega]
        assert (edge // [1, 31, prod(_BELOW_32[:omega])] < 37).all()
        for c, e in zip(code.tolist(), edge.tolist()):
            table = thresholds.ceilings(e)  # q - 1 <= e for q = e and e + 1
            assert table[c] == e
            assert (np.array([e, e + 1]) > table[c]).tolist() == [False, True]

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("lo, hi", [(2, 10**6), (5 * 10**7, 5 * 10**7 + 10**5),
                                        (4 * 10**8, 4 * 10**8 + 10**5)])
    def test_direct_skip_drops_only_sure_rows(self, n, lo, hi):
        # every row that the code table drops passes the exact kernel, and
        # the rows left are the rest. Below 10^6 rows are left; the kept
        # counts are pinned. From 5 * 10^7 on the code table drops every
        # row for n = 2, 3 and 5 alike.
        plan = prime_power_segments(lo, hi, hi - lo + 1)
        kernel = SegmentKernel(plan)
        q, _, _, buf, _, cnt = (a.copy() for a in kernel.segment(lo, hi + 1))
        code = kernel.bits[q - lo].copy()
        thresholds = code_thresholds(n, kernel.cut)
        tables = []

        def ceilings(m_max):
            tables.append(thresholds.ceilings(m_max))
            return tables[-1]

        kept = kernel.segment(lo, hi + 1, ceilings)[0]
        assert len(tables) == 1
        gone = q > tables[0][code]
        for qi, omega, row in zip(q[gone].tolist(), cnt[gone].tolist(), buf[gone].tolist()):
            assert best_prefix(qi, row[:omega], n)[0] != "candidate", qi
        assert kept.tolist() == q[~gone].tolist()
        assert kept.size == {2: 7862, 3: 14075, 5: 28625}[n] if lo == 2 else not kept.size

    def test_exact_kernel_sees_only_rows_the_table_keeps(self, monkeypatch, prime_powers):
        # best_prefix is called once per row the code table keeps, on its
        # code read off factorize and the table of its segment's top; it
        # keeps every row at or below T_c at the true omega(q - 1), and the
        # scan's output is the same
        calls = [0]
        real = search.best_prefix

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(search, "best_prefix", counting)
        hi, size = 300_000, 1 << 15
        got = list(exception_scan(3, hi, 2, segment_size=size))
        assert got == [r for r in (_oracle_record(q, p, k, 2) for p, k, q in prime_powers(3, hi))
                       if r.verdict == "candidate"]
        q = np.array([v for _, _, v in prime_powers(3, hi)])
        code = np.array([_code(v) for v in q.tolist()])
        omega = np.array([_factors(v - 1).omega for v in q.tolist()])
        thresholds = code_thresholds(2, 11)
        seg_hi = np.minimum(3 + (q - 3) // size * size + size, hi + 1)
        ceiling = np.array([thresholds.ceilings(t - 2)[c]
                            for t, c in zip(seg_hi.tolist(), code.tolist())])
        keep = int((q <= ceiling).sum())
        at_omega = int((q <= thresholds(code, omega)).sum())
        assert calls[0] == keep
        assert len(got) <= at_omega <= keep

    @pytest.mark.parametrize("hi", [500, 960])
    def test_scans_below_31_squared(self, hi, prime_powers):
        # below 961 the plan's base primes stop short of 31, so the code
        # holds fewer than the 11 primes below 32 and the table's worst-case
        # primes start past the last of them
        plan = prime_power_segments(2, hi, hi)
        assert SegmentKernel(plan).cut < 11
        for n in (2, 3, 5):
            expected = [_oracle_record(q, p, k, n) for p, k, q in prime_powers(2, hi)]
            assert list(exception_scan(2, hi, n, emit="all")) == expected
            assert list(exception_scan(2, hi, n)) == [r for r in expected
                                                      if r.verdict == "candidate"]

    def test_segments_at_powers_of_two(self):
        # q = 2^k has an odd q - 1, whose large primes come from the odd
        # multiples of the base primes, as the composites do; every other
        # q - 1 is even. Windows around 2^k for k = 2..37
        for k in range(2, 38):
            lo, hi = max(2, 2**k - 40), 2**k + 40
            expected = [_oracle_record(v, *_factors(v).factors[0], 2) for v in range(lo, hi + 1)
                        if _factors(v).omega == 1]
            assert 2**k in [r.q for r in expected]
            assert list(exception_scan(lo, hi, 2, emit="all")) == expected, k
            assert list(exception_scan(lo, hi, 2)) == [r for r in expected
                                                       if r.verdict == "candidate"], k


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
        # resume cuts them off again instead of writing them twice. With no
        # interval the scan checkpoints after every segment, so the failing
        # write is the 4th: the one at the start, then one per segment.
        full = tmp_path / "full.csv"
        whole, _ = run_scan(3, 400_000, 2, csv_path=str(full), segment_size=100_000)

        part = tmp_path / "part.csv"
        ck = tmp_path / "ck.json"
        real_write = search._checkpoint_write
        writes = [0]

        def write_then_fail(path, payload):
            writes[0] += 1
            if writes[0] == 4:
                raise OSError("injected fault")
            real_write(path, payload)

        monkeypatch.setattr(search, "CHECKPOINT_EVERY_S", 0)
        monkeypatch.setattr(search, "_checkpoint_write", write_then_fail)
        with pytest.raises(OSError, match="injected fault.*checkpointed at"):
            run_scan(3, 400_000, 2, csv_path=str(part), checkpoint_path=str(ck),
                     segment_size=100_000)
        assert writes[0] == 4  # the failed write is not retried at the exit
        monkeypatch.undo()
        assert json.loads(ck.read_text())["next_q"] == 200_003
        resumed, _ = run_scan(3, 400_000, 2, csv_path=str(part), checkpoint_path=str(ck),
                              segment_size=100_000, resume=True)
        assert part.read_bytes() == full.read_bytes()
        assert resumed == dataclasses.replace(whole, csv_path=str(part))

    def test_checkpoint_writes_on_a_clock(self, tmp_path, monkeypatch):
        # a scan inside one interval writes at its start and at its end only;
        # with no interval, after every segment too, and at the end no more,
        # since the file already holds the last segment's state
        csv, ck = tmp_path / "scan.csv", tmp_path / "ck.json"
        real_write, payloads, ends = search._checkpoint_write, [], []

        def spy(path, payload):
            payloads.append(dict(payload))
            real_write(path, payload)

        for every in (3600, 0):
            monkeypatch.setattr(search, "CHECKPOINT_EVERY_S", every)
            monkeypatch.setattr(search, "_checkpoint_write", spy)
            payloads.clear()
            ends.clear()
            result, _ = run_scan(3, 200_000, 2, csv_path=str(csv), checkpoint_path=str(ck),
                                 segment_size=1 << 11,
                                 progress=lambda seg_end, hi, emitted: ends.append(seg_end))
            assert len(ends) >= 50
            if every:
                assert len(payloads) <= 3
            else:
                assert [p["next_q"] for p in payloads] == [3] + ends
            start, last = payloads[0], payloads[-1]
            assert start == {"next_q": 3, "records_emitted": 0, "num_candidates": 0,
                             "max_candidate": None, "csv_offset": len(CSV_HEADER) + 1,
                             "config_hash": result.config.config_hash()}
            assert last == {"next_q": ends[-1], "records_emitted": result.records_emitted,
                            "num_candidates": result.num_candidates,
                            "max_candidate": result.max_candidate,
                            "csv_offset": csv.stat().st_size,
                            "config_hash": start["config_hash"]}
            assert json.loads(ck.read_text()) == last
            monkeypatch.undo()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_from_stale_checkpoint(self, workers, tmp_path, monkeypatch):
        # every checkpoint a scan writes is a bookmark: after the scan has run
        # to its end, a resume from the one written at its start, or from one
        # copied in a progress callback mid-run, cuts the CSV back to it and
        # gives the bytes and summary of the uninterrupted scan
        full = tmp_path / "full.csv"
        whole, _ = run_scan(3, 150_000, 2, csv_path=str(full), segment_size=1 << 13)
        part, ck = tmp_path / "part.csv", tmp_path / "ck.json"
        for every, pick in ((3600, 0), (0, 8)):
            monkeypatch.setattr(search, "CHECKPOINT_EVERY_S", every)
            copies, ends = [], []

            def copy(seg_end, hi, emitted):
                copies.append(ck.read_text())
                ends.append(seg_end)

            run_scan(3, 150_000, 2, csv_path=str(part), checkpoint_path=str(ck),
                     workers=workers, segment_size=1 << 13, progress=copy)
            assert part.read_bytes() == full.read_bytes()
            stale = json.loads(copies[pick])
            if every:
                assert (stale["next_q"], stale["csv_offset"]) == (3, len(CSV_HEADER) + 1)
            else:
                assert stale["next_q"] == ends[pick] < 150_000
            ck.write_text(copies[pick])
            resumed, _ = run_scan(3, 150_000, 2, csv_path=str(part), checkpoint_path=str(ck),
                                  workers=workers, segment_size=1 << 13, resume=True)
            assert part.read_bytes() == full.read_bytes()
            assert resumed == dataclasses.replace(whole, csv_path=str(part))

    def test_csv_fault_leaves_the_last_segment_bookmarked(self, tmp_path, monkeypatch):
        # no interval passes, so the checkpoint at the segment before the
        # fault is the one written when the scan stops
        full = tmp_path / "full.csv"
        whole, _ = run_scan(3, 400_000, 2, csv_path=str(full), segment_size=100_000)
        part, ck = tmp_path / "part.csv", tmp_path / "ck.json"
        real_line = search.ScanRecord.csv_line

        def line_then_fail(rec):
            if rec.q > 250_000:
                raise OSError("injected fault")
            return real_line(rec)

        monkeypatch.setattr(search, "CHECKPOINT_EVERY_S", 3600)
        monkeypatch.setattr(search.ScanRecord, "csv_line", line_then_fail)
        with pytest.raises(OSError, match=f"injected fault.*checkpointed at {ck} up to "
                                          "q=200003; rerun with resume=True"):
            run_scan(3, 400_000, 2, csv_path=str(part), checkpoint_path=str(ck),
                     segment_size=100_000)
        monkeypatch.undo()
        assert json.loads(ck.read_text())["next_q"] == 200_003
        resumed, _ = run_scan(3, 400_000, 2, csv_path=str(part), checkpoint_path=str(ck),
                              segment_size=100_000, resume=True)
        assert part.read_bytes() == full.read_bytes()
        assert resumed == dataclasses.replace(whole, csv_path=str(part))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk_at_the_header_writes_no_checkpoint(self, tmp_path):
        # the header never reached the CSV, so no state is a bookmark yet
        ck = tmp_path / "ck.json"
        with pytest.raises(OSError, match="No space left.*It is not checkpointed"):
            run_scan(3, 10_000, 2, csv_path="/dev/full", checkpoint_path=str(ck))
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_exists_at_every_progress_call(self, tmp_path):
        # the write at the start comes before the first segment, so a
        # callback always finds a checkpoint, at or before its segment's end
        csv, ck = tmp_path / "scan.csv", tmp_path / "ck.json"
        seen = []

        def check(seg_end, hi, emitted):
            seen.append(seg_end)
            assert json.loads(ck.read_text())["next_q"] <= seg_end

        run_scan(3, 100_000, 2, csv_path=str(csv), checkpoint_path=str(ck),
                 segment_size=1 << 12, progress=check)
        assert len(seen) > 20

    def test_failed_checkpoint_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck.json"
        ck.write_text("{}")

        def fail(src, dst):
            raise OSError("injected fault")

        monkeypatch.setattr(search.os, "replace", fail)
        with pytest.raises(OSError, match="injected fault"):
            search._checkpoint_write(str(ck), {"next_q": 3})
        monkeypatch.undo()
        with pytest.raises(FileNotFoundError):
            search._checkpoint_write(str(tmp_path / "nodir" / "ck.json"), {"next_q": 3})
        assert [f.name for f in tmp_path.iterdir()] == ["ck.json"]
        assert ck.read_text() == "{}"

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
        # one driver: the streamed records are the ones run_scan collects;
        # run_scan's mode="faithful" from 3 is its older spelling of lo = 2
        start = 2 if mode == "faithful" and lo == 3 else lo
        streamed = list(exception_scan(start, hi, 2, emit=emit, segment_size=segment))
        _, collected = run_scan(lo, hi, 2, mode=mode, emit=emit, segment_size=segment)
        assert streamed == collected
        assert [r.q for r in streamed if r.q == 2] == ([2] if start == 2 else [])

    def test_interleaved_scans_keep_their_own_workspace(self):
        # two scans with other plans, advanced item by item in one thread
        first = dict(lo=3, hi=200_000, n=2, emit="all", segment_size=1 << 12)
        second = dict(lo=2, hi=1_100_000, n=3, segment_size=3001)
        alone = [list(exception_scan(**first)), list(exception_scan(**second))]
        together = [[], []]
        for pair in zip_longest(exception_scan(**first), exception_scan(**second)):
            for got, rec in zip(together, pair):
                if rec is not None:
                    got.append(rec)
        assert together == alone

    def test_stopped_pool_is_terminated(self):
        class Stop(Exception):
            pass

        def bail(seg_end, hi, emitted):
            if seg_end > 3:
                raise Stop

        with pytest.raises(Stop):
            run_scan(2, 200_000, 2, workers=2, segment_size=1 << 14,
                     progress=bail)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_refused(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_scan(3, 1000, 2, workers=workers)

    def test_faithful_resume_after_degenerate_record(self, tmp_path):
        # the first checkpoint follows the segment [2, 2 + 2^14), which holds
        # the q = 2 record; a resume from it must not count or write that
        # record again
        full = tmp_path / "full.csv"
        whole, _ = run_scan(2, 50_000, 2, csv_path=str(full),
                            segment_size=1 << 14)
        part = tmp_path / "part.csv"
        ck = tmp_path / "ck.json"

        class Stop(Exception):
            pass

        def bail(seg_end, hi, emitted):
            raise Stop

        with pytest.raises(Stop):
            run_scan(2, 50_000, 2, csv_path=str(part),
                     checkpoint_path=str(ck), segment_size=1 << 14, progress=bail)
        assert json.loads(ck.read_text())["next_q"] == 2 + (1 << 14)
        resumed, _ = run_scan(2, 50_000, 2, csv_path=str(part),
                              checkpoint_path=str(ck), segment_size=1 << 14, resume=True)
        assert part.read_bytes() == full.read_bytes()
        assert resumed == dataclasses.replace(whole, csv_path=str(part))

    def test_faithful_resume_from_checkpoint_after_q2_alone(self, tmp_path):
        # faithful scans once wrote the q = 2 record as a segment of its own
        # and checkpointed right after it, at next_q = 3; such a checkpoint
        # still resumes to the bytes and summary of an uninterrupted scan
        full = tmp_path / "full.csv"
        whole, _ = run_scan(2, 50_000, 2, csv_path=str(full),
                            segment_size=1 << 14)
        head = f"{CSV_HEADER}\n2,2,1,0,,candidate,\n"
        part = tmp_path / "part.csv"
        part.write_text(head)
        # a scan from 2 hashes as the faithful scan from 3 that wrote it
        config_hash = ScanConfig(2, 50_000, 2).config_hash()
        assert config_hash == "e7515a2796dcbf84"
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps({
            "next_q": 3, "records_emitted": 1, "num_candidates": 1, "max_candidate": 2,
            "csv_offset": len(head), "config_hash": config_hash}))
        resumed, _ = run_scan(2, 50_000, 2, csv_path=str(part),
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
            run_scan(3, 100, 2, mode="fast")
        with pytest.raises(ValueError, match="unknown emit"):
            ScanConfig(3, 100, 2, emit="some")

    def test_config_hash_keeps_older_checkpoints(self):
        # the hashes that scans from 3 and faithful scans from 3 (now lo = 2)
        # wrote into their checkpoints
        assert ScanConfig(3, 50_000, 2).config_hash() == "7de872d729371603"
        assert ScanConfig(2, 50_000, 2).config_hash() == "e7515a2796dcbf84"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_faithful_alias_is_a_scan_from_2(self, workers, tmp_path):
        # run_scan's mode="faithful" from 3 gives the bytes and summary of a
        # scan from 2, uninterrupted, and resumed under the other spelling
        spellings = {"alias": dict(lo=3, mode="faithful"), "lo2": dict(lo=2)}
        whole = {}
        for name, spelling in spellings.items():
            csv = tmp_path / f"{name}.csv"
            result, _ = run_scan(hi=50_000, csv_path=str(csv), workers=workers,
                                 segment_size=1 << 13, **spelling)
            whole[name] = dataclasses.replace(result, csv_path=None), csv.read_bytes()
        assert whole["alias"] == whole["lo2"]

        class Stop(Exception):
            pass

        def bail(seg_end, hi, emitted):
            if seg_end > 20_000:
                raise Stop

        for first, then in (("alias", "lo2"), ("lo2", "alias")):
            part, ck = tmp_path / f"{first}-part.csv", tmp_path / f"{first}-ck.json"
            with pytest.raises(Stop):
                run_scan(hi=50_000, csv_path=str(part), checkpoint_path=str(ck),
                         workers=workers, segment_size=1 << 13, progress=bail,
                         **spellings[first])
            resumed, _ = run_scan(hi=50_000, csv_path=str(part), checkpoint_path=str(ck),
                                  workers=workers, segment_size=1 << 13, resume=True,
                                  **spellings[then])
            assert (dataclasses.replace(resumed, csv_path=None), part.read_bytes()) == whole["lo2"]

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
        monkeypatch.setattr(search, "CLASSIFY_QMAX", 50)
        res = classify_true_exceptions(200, (1, 1))
        assert not res.complete
        assert res.high_water == 50
        assert res.q_list == [q for q in CASE_1_1 if q <= 50]

    def test_default_budget_stops_at_classify_qmax(self, monkeypatch):
        asked = []

        def member(ctx, n1, n2, quadratic_scope="all"):
            asked.append(ctx.q)
            return search.QMembership(ctx.q, (n1, n2), True, None, 0)

        monkeypatch.setattr(search, "q_in_Q", member)
        res = classify_true_exceptions(1500, (1, 1))
        assert search.CLASSIFY_QMAX == 1000
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
