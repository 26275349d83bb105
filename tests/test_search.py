import dataclasses
import json

import pytest

from primpair.ffcore import factorize, field_make
from primpair.polyrat import RationalFunc, enumerate_family
from primpair.search import (
    CSV_HEADER,
    SCAN_HI_MAX,
    ExceptionalFunctionError,
    ScanConfig,
    classify_true_exceptions,
    exception_scan,
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
        back = pair_exists(ctx, res.failing, order="desc")
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
                rb = q_in_Q(ctx, *fam, method="bulk")
                rn = q_in_Q(ctx, *fam, method="naive")
                assert rb.member == rn.member, (q, fam)
                assert rb.num_failing == rn.num_failing, (q, fam)
                assert rb.failing == rn.failing, (q, fam)

    def test_bulk_matches_naive_irreducible_scope(self, field, prime_powers):
        for p, k, q in prime_powers(3, 30):
            ctx = field(p, k)
            rb = q_in_Q(ctx, 2, 0, method="bulk", quadratic_scope="irreducible")
            rn = q_in_Q(ctx, 2, 0, method="naive", quadratic_scope="irreducible")
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

    def test_resume_refuses_checkpoint_without_summary(self, tmp_path):
        ck = tmp_path / "ck.json"
        run_scan(3, 10_000, 2, checkpoint_path=str(ck), segment_size=1 << 12)
        state = json.loads(ck.read_text())
        del state["num_candidates"], state["max_candidate"]
        ck.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="no candidate summary"):
            run_scan(3, 10_000, 2, checkpoint_path=str(ck), segment_size=1 << 12,
                     resume=True)

    def test_resume_rejects_other_config(self, tmp_path):
        ck = tmp_path / "ck.json"
        run_scan(3, 10_000, 2, checkpoint_path=str(ck))
        with pytest.raises(ValueError, match="configuration"):
            run_scan(3, 20_000, 2, checkpoint_path=str(ck), resume=True)

    def test_checkpoint_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PRIMPAIR_CHECKPOINT_DIR", str(tmp_path))
        result, _ = run_scan(3, 5_000, 2)
        files = list(tmp_path.glob("scan_*.json"))
        assert len(files) == 1
        state = json.loads(files[0].read_text())
        assert state["config_hash"] == result.config.config_hash()

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

    def test_budget_high_water(self):
        res = classify_true_exceptions(200, (1, 1), budget_qmax=50)
        assert not res.complete
        assert res.high_water == 50
        assert res.q_list == [q for q in CASE_1_1 if q <= 50]

    def test_bad_family(self):
        with pytest.raises(ValueError):
            classify_true_exceptions(100, (3, 1))

    def test_witness_report(self, tmp_path):
        out = tmp_path / "w.jsonl"
        res = classify_true_exceptions(20, (1, 1), jsonl_path=str(out))
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert [e["q"] for e in lines] == res.q_list
        for e in lines:
            assert e["family"] == [1, 1]
            assert e["witness"] is None
            assert set(e["f"]) == {"num", "den"}
