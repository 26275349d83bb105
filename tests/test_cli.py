import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import primpair
from primpair import bounds, ffcore, polyrat, search
from primpair.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheckBound:
    def test_candidate(self, capsys):
        code, out, _ = run(capsys, "--no-timestamp", "check-bound", "--q", "331", "--n", "2")
        assert code == 1
        assert "candidate" in out

    def test_pass(self, capsys):
        code, out, _ = run(capsys, "--no-timestamp", "check-bound", "--q", "65537")
        assert code == 0
        assert "verdict: pass" in out

    def test_not_prime_power(self, capsys):
        code, _, err = run(capsys, "check-bound", "--q", "12")
        assert code == 2
        assert "not a prime power" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "check-bound", "--q", "331")
        payload = json.loads(out)
        assert payload["verdict"] == "candidate"
        assert payload["W"] == 16
        assert payload["delta"] == [23, 55]  # exact rational, best core {2,3}

    def test_exact_rationals_echoed(self, capsys):
        _, out, _ = run(capsys, "--no-timestamp", "check-bound", "--q", "331")
        assert "23/55" in out  # delta as an exact fraction alongside decimals

    def test_degree_below_two_is_usage_error(self, capsys):
        code, out, err = run(capsys, "check-bound", "--q", "331", "--n", "1")
        assert code == 2
        assert out == ""
        assert "n must be >= 2" in err

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_kernel_values_match_fraction_oracle(self, capsys, prime_powers, n):
        # delta, Delta and the margin come from the kernel's integers; the
        # Fraction oracle rebuilds them from the reported core
        qs = [q for _, _, q in prime_powers(3, 3000)] + [65537, 33093061, 2**31 - 1]
        for q in qs:
            _, out, _ = run(capsys, "--format", "json", "check-bound",
                            "--q", str(q), "--n", str(n))
            payload = json.loads(out)
            params = bounds.SieveParams.from_core(q, ffcore.factorize(q - 1),
                                                  payload["best_core"])
            delta, big_delta = params.delta, params.big_delta
            assert payload["delta"] == [delta.numerator, delta.denominator], q
            assert payload["big_delta"] == [big_delta.numerator, big_delta.denominator], q
            assert payload["margin"] == q**0.5 - float(params.threshold(n)), q


class TestTables:
    def test_all_reproduce(self, capsys):
        code, out, _ = run(capsys, "--no-timestamp", "tables")
        assert code == 0
        assert "all rows reproduce" in out
        assert out.count("[ok]") == 13 + 4

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "tables")
        payload = json.loads(out)
        assert payload["ok"]
        assert len(payload["rows"]) == 13
        assert len(payload["general_bounds"]) == 4


class TestScan:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "--no-timestamp", "scan", "--hi", "1000")
        assert code == 0
        lines = out.splitlines()
        header = lines.index("q,p,k,omega,q_minus_1_factors,verdict,best_core")
        assert lines[header + 1].startswith("3,3,1,")

    def test_csv_file(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "--format", "json", "scan", "--hi", "10000",
                           "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["candidates"] == 780
        body = out_path.read_text().splitlines()
        assert len(body) == 781  # header + one line per candidate

    def test_lo_2_adds_f2(self, capsys):
        summaries = []
        for lo in ("2", "3"):
            code, out, _ = run(capsys, "--format", "json", "scan", "--lo", lo,
                               "--hi", "1000")
            assert code == 0
            summaries.append(json.loads(out))
        from2, from3 = summaries
        assert "mode" not in from2
        assert from2["candidates"] == from3["candidates"] + 1
        assert from2["max_candidate"] == from3["max_candidate"]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "scan", "--lo", "1", "--hi", "10")
        assert code == 2
        assert "starts at" in err

    def test_hi_below_lo(self, capsys, tmp_path):
        # refused before any CSV is written, not scanned as an empty range
        out_csv = tmp_path / "empty.csv"
        code, out, err = run(capsys, "scan", "--lo", "100", "--hi", "99",
                             "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --hi must be >= --lo")
        assert not out_csv.exists()

    def test_range_above_ceiling(self, capsys):
        code, _, err = run(capsys, "scan", "--lo", "200560490130", "--hi", "200560490130")
        assert code == 2
        assert "at most at 200560490129" in err

    def test_degree_below_two_is_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--hi", "100", "--n", "1")
        assert code == 2
        assert out == ""
        assert "n must be >= 2" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--segment", "-5", "segment_size must be >= 1"),
        ("--segment", "0", "segment_size must be >= 1"),
        ("--workers", "0", "workers must be >= 1"),
        ("--workers", "-3", "workers must be >= 1"),
    ])
    def test_segment_or_workers_below_one_is_usage_error(self, capsys, flag, value,
                                                         message):
        code, out, err = run(capsys, "scan", "--hi", "1000", flag, value)
        assert code == 2
        assert out == ""
        assert message in err

    def test_segment_above_limit_is_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--lo", "3", "--hi", "200000000000",
                             "--segment", "200000000000")
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert f"above the limit of {ffcore.MAX_SEGMENT}" in err
        # a segment size past the limit over a shorter range runs
        code, out, _ = run(capsys, "--format", "json", "scan", "--hi", "1000",
                           "--segment", "200000000000")
        assert code == 0 and json.loads(out)["candidates"] > 0

    def test_resume_without_out_is_usage_error(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        code, _, _ = run(capsys, "scan", "--hi", "10000", "--segment", "4096",
                         "--out", str(tmp_path / "scan.csv"), "--checkpoint", str(ck))
        assert code == 0
        code, out, err = run(capsys, "scan", "--hi", "10000", "--segment", "4096",
                             "--checkpoint", str(ck), "--resume")
        assert code == 2
        assert out == ""
        assert "needs the CSV" in err

    def test_checkpoint_without_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "scan", "--hi", "100",
                             "--checkpoint", str(tmp_path / "ck.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "needs the CSV" in err
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_in_missing_directory_is_usage_error(self, capsys, tmp_path):
        # the first checkpoint write fails, so no checkpoint exists to resume
        code, out, err = run(capsys, "scan", "--hi", "100000", "--out",
                             str(tmp_path / "scan.csv"), "--checkpoint",
                             str(tmp_path / "nodir" / "ck.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "No such file or directory" in err
        assert "not checkpointed" in err
        assert "--resume" not in err

    def test_ctrl_c_says_how_far_the_scan_got(self, capsys, tmp_path, monkeypatch):
        # Ctrl-C in the third segment: one error line naming the bookmark
        # after the second, exit 130, and --resume gives the whole CSV
        argv = ["scan", "--hi", "100000", "--segment", "4096"]
        full = tmp_path / "full.csv"
        assert run(capsys, *argv, "--out", str(full))[0] == 0
        second_end = [end for _, end in ffcore.prime_power_segments(3, 100_000, 4096)][1]
        real_segment, calls = search._scan_segment, [0]

        def interrupt_third(*args):
            calls[0] += 1
            if calls[0] == 3:
                raise KeyboardInterrupt
            return real_segment(*args)

        monkeypatch.setattr(search, "_scan_segment", interrupt_third)
        csv, ck = tmp_path / "scan.csv", tmp_path / "ck.json"
        scan = [*argv, "--out", str(csv), "--checkpoint", str(ck)]
        code, out, err = run(capsys, *scan)
        assert code == 130
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"checkpointed at {ck} up to q={second_end};" in err
        assert "--resume" in err
        assert json.loads(ck.read_text())["next_q"] == second_end

        calls[0] = 0
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "bare.csv"))
        assert code == 130
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not checkpointed" in err and "--resume" not in err

        monkeypatch.undo()
        assert run(capsys, *scan, "--resume")[0] == 0
        assert csv.read_bytes() == full.read_bytes()


class TestClassify:
    def test_case1_prefix(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "classify",
                           "--family", "1,1", "--qmax", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["true_exceptions"] == [3, 4, 5, 7, 9, 11, 13, 16, 19, 23,
                                              25, 29, 31, 37, 41, 43, 49]

    @pytest.fixture
    def never_classify(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("classification ran past the budget")

        monkeypatch.setattr(search, "classify_true_exceptions", never)

    def test_budget_refusal(self, capsys, never_classify):
        code, _, err = run(capsys, "classify", "--family", "1,1", "--qmax", "5000")
        assert code == 3
        assert "exceeds the budget 1000" in err

    def test_hard_budget(self, capsys, never_classify):
        code, _, err = run(capsys, "classify", "--family", "2,0", "--qmax", "20000")
        assert code == 3
        assert "exceeds the budget" in err

    def test_budget_refused_before_computing(self, capsys, never_classify):
        code, _, err = run(capsys, "classify", "--family", "1,1", "--qmax", "1001")
        assert code == 3
        assert "exceeds the budget 1000" in err
        assert "q * rad(q-1) * ceil(rad(q-1)/64) words per shift" in err

    def test_bad_family(self, capsys):
        code, out, err = run(capsys, "classify", "--family", "3,3", "--qmax", "10")
        assert code == 2
        assert out == ""
        assert err == "error: classification supports families 1,1 and 2,0\n"
        # a usage error comes before the budget refusal
        code, _, _ = run(capsys, "classify", "--family", "3,3", "--qmax", "5000")
        assert code == 2
        code, _, err = run(capsys, "classify", "--family", "one,one", "--qmax", "10")
        assert code == 2
        assert err == "error: cannot parse family 'one,one'\n"

    def test_witness_file(self, capsys, tmp_path):
        out_path = tmp_path / "w.jsonl"
        code, _, _ = run(capsys, "--format", "json", "classify",
                         "--family", "2,0", "--qmax", "20", "--out", str(out_path))
        assert code == 0
        entries = [json.loads(s) for s in out_path.read_text().splitlines()]
        assert [e["q"] for e in entries] == [3, 4, 5, 7, 11, 13, 19]

    @pytest.mark.parametrize("family, qmax, lines, digest", [
        ("1,1", "350", 28,
         "b998b66ab0121397e0bcf4258bd17bd424b3a22bbfad1ccf441070a89e18f5ef"),
        ("2,0", "250", 20,
         "3a09c39036782e0e2a6530a1c8df1c4b9fe16c83ed2d824712d8d6d5a1182fce")])
    def test_witness_file_pinned(self, capsys, tmp_path, family, qmax, lines, digest):
        # every byte of the report: the first failing function of each true
        # exception, whose absence pair_exists re-verifies
        out_path = tmp_path / "w.jsonl"
        code, _, _ = run(capsys, "classify", "--family", family, "--qmax", qmax,
                         "--out", str(out_path))
        assert code == 0
        data = out_path.read_bytes()
        assert data.count(b"\n") == lines
        assert hashlib.sha256(data).hexdigest() == digest


class TestPair:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "pair", "--q", "13",
                           "--num", "1,1", "--den", "2,1")
        assert code == 0
        payload = json.loads(out)
        assert not payload["exceptional"]
        assert payload["witness"] is not None

    def test_exceptional(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "pair", "--q", "7",
                           "--num", "0,0,5")
        assert code == 1
        assert json.loads(out)["exceptional"]

    def test_absent(self, capsys):
        # first failing function over F_13 from the membership engine
        from primpair.ffcore import field_make
        from primpair.search import q_in_Q

        res = q_in_Q(field_make(13, 1), 1, 1)
        num = ",".join(str(v) for v in res.failing.num.coeffs)
        den = ",".join(str(v) for v in res.failing.den.coeffs)
        code, out, _ = run(capsys, "--format", "json", "pair", "--q", "13",
                           "--num", num, "--den", den)
        assert code == 1
        payload = json.loads(out)
        assert payload["witness"] is None
        assert payload["examined"] == 4  # phi(12)

    def test_extension_field_brackets(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "pair", "--q", "9",
                           "--num", "[1,1],1", "--den", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["f"]["num"] == [4, 1]  # 1 + x packs to 4 in F_9

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "pair", "--q", "13", "--num", "1,[2")
        assert code == 2

    @pytest.mark.parametrize("num", ["1,,2", "[1,,0],1", "1,2,", "+1,1", "01,1",
                                     "true,1", "1.5,1", "[1,[2]]"])
    def test_malformed_coefficients_refused(self, capsys, num):
        # an empty entry is not skipped: 1,,2 is not 1 + 2x
        code, out, err = run(capsys, "pair", "--q", "13", "--num", num)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_denominator(self, capsys):
        code, _, err = run(capsys, "pair", "--q", "13", "--num", "1,1", "--den", "0")
        assert code == 2

    def test_field_of_two_is_usage_error(self, capsys):
        code, out, err = run(capsys, "pair", "--q", "2", "--num", "1,1")
        assert code == 2
        assert out == ""
        assert err == "error: the multiplicative group of F_2 is trivial; no pairs exist\n"

    def test_field_of_two_monomial_is_usage_error(self, capsys):
        # F_2 is refused before f is tested, monomial or not
        code, out, err = run(capsys, "pair", "--q", "2", "--num", "0,1")
        assert (code, out) == (2, "")
        assert err == "error: the multiplicative group of F_2 is trivial; no pairs exist\n"

    @pytest.mark.parametrize("q, num, den, code", [
        ("13", "1,1", "2,1", 0), ("7", "0,0,5", "1", 1)])
    def test_one_exceptionality_test(self, capsys, monkeypatch, q, num, den, code):
        # the search's own test decides the exceptional branch too
        calls, real = [0], polyrat.is_exceptional

        def counted(f):
            calls[0] += 1
            return real(f)

        monkeypatch.setattr(search, "is_exceptional", counted)
        monkeypatch.setattr(polyrat, "is_exceptional", counted)
        assert run(capsys, "pair", "--q", q, "--num", num, "--den", den)[0] == code
        assert calls[0] == 1


class TestQMember:
    def test_member(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "qmember", "--q", "337",
                           "--n1", "1", "--n2", "1")
        assert code == 0
        assert json.loads(out)["member"]

    def test_non_member(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "qmember", "--q", "331",
                           "--n1", "1", "--n2", "1")
        assert code == 1
        payload = json.loads(out)
        assert not payload["member"]
        assert payload["failing"] is not None

    def test_quadratic_scope(self, capsys):
        code, _, _ = run(capsys, "--format", "json", "qmember", "--q", "127",
                         "--n1", "2", "--n2", "0")
        assert code == 1
        code, _, _ = run(capsys, "--format", "json", "qmember", "--q", "127",
                         "--n1", "2", "--n2", "0", "--quadratic-scope", "irreducible")
        assert code == 0

    def test_table_cap_exits_usage(self, capsys):
        code, out, err = run(capsys, "--format", "json", "qmember", "--q", "65537",
                             "--n1", "1", "--n2", "1")
        assert code == 2 and out == ""
        assert "limit of 16777216" in err

    def test_mask_table_cap_exits_usage(self, capsys):
        # F_32771, rho = 32770: the (2,0) engine's mask table is past the cap
        code, out, err = run(capsys, "--format", "json", "qmember", "--q", "32771",
                             "--n1", "2", "--n2", "0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "mask table" in err and "limit of 16777216" in err

    @pytest.mark.parametrize("n1", ["-1", "2"])
    def test_negative_degree_is_usage_error(self, capsys, n1):
        code, out, err = run(capsys, "qmember", "--q", "3", "--n1", n1, "--n2", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "n1 >= n2 >= 0" in err

    def test_empty_family_is_usage_error(self, capsys):
        # the (0, 0) family holds no function: refused, not answered "member"
        code, out, err = run(capsys, "qmember", "--q", "7", "--n1", "0", "--n2", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "n1 + n2 >= 1" in err

    @pytest.fixture
    def never_walk(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a naive family walk started")

        monkeypatch.setattr(search, "naive_membership", never)
        monkeypatch.setattr(search, "enumerate_family", never)

    @pytest.mark.parametrize("q, n1, n2", [("1009", "2", "1"), ("19", "2", "1"),
                                           ("1000003", "1000000000", "1")])
    def test_naive_walk_budget(self, capsys, never_walk, q, n1, n2):
        code, out, err = run(capsys, "--format", "json", "qmember", "--q", q,
                             "--n1", n1, "--n2", n2)
        assert (code, out) == (3, "")
        assert "exceeds the budget 100000" in err
        assert f"holds {q}^{int(n1) + int(n2)}*{int(q) - 1} coefficient tuples" in err

    def test_naive_walk_budget_allows_small_fields(self, capsys, never_walk):
        # the walks of F_3 and F_7 stay allowed: they reach the walk, which
        # the fixture stops; the engine families never walk
        for q, n1, n2 in (("3", "2", "1"), ("3", "3", "0"), ("7", "1", "0")):
            with pytest.raises(AssertionError, match="naive family walk"):
                run(capsys, "qmember", "--q", q, "--n1", n1, "--n2", n2)
        code, _, _ = run(capsys, "qmember", "--q", "1009", "--n1", "1", "--n2", "1")
        assert code in (0, 1)

    def test_general_family_naive(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "qmember", "--q", "7",
                           "--n1", "1", "--n2", "0")
        assert code == 1  # 7 lacks pairs even for some linear polynomial


class TestWeilAudit:
    def test_seeded_run(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "weil-audit",
                           "--count", "40", "--seed", "3", "--qmax", "49")
        assert code == 0
        assert out == '{"failures": [], "seed": 3, "tested": 40}\n'

    def test_one_build_per_field(self, capsys, monkeypatch):
        real = ffcore.field_make
        builds = Counter()

        def counted(p, k):
            builds[p, k] += 1
            return real(p, k)

        monkeypatch.setattr(ffcore, "field_make", counted)
        code, _, _ = run(capsys, "--format", "json", "weil-audit",
                         "--count", "200", "--seed", "3", "--qmax", "49")
        assert code == 0
        assert len(builds) > 1
        assert set(builds.values()) == {1}

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "--format", "json", "weil-audit", "--count", "25")
        _, out2, _ = run(capsys, "--format", "json", "weil-audit", "--count", "25")
        assert out1 == out2

    def test_pinned_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "weil-audit",
                           "--seed", "0", "--count", "20")
        assert code == 0
        assert out == '{"failures": [], "seed": 0, "tested": 20}\n'

    @pytest.mark.parametrize("flag, value, message", [
        ("--qmax", "2", "--qmax must be >= 3"),
        ("--qmax", str(ffcore.DEFAULT_TABLE_CAP + 1), "--qmax must be <= 16777216"),
        ("--qmax", str(10**10), "--qmax must be <= 16777216"),
        ("--degmax", "0", "--degmax must be >= 1"),
        ("--count", "-1", "--count must be >= 0"),
    ])
    def test_out_of_range_is_usage_error(self, capsys, monkeypatch, flag, value, message):
        def never(*args, **kwargs):
            raise AssertionError("weil-audit listed or built a field before refusing")

        monkeypatch.setattr(ffcore, "field_make", never)
        monkeypatch.setattr(ffcore, "prime_power_iter", never)
        code, out, err = run(capsys, "weil-audit", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message)


def test_timestamp_suppression(capsys):
    _, out, _ = run(capsys, "--no-timestamp", "tables")
    assert not out.startswith("#")
    _, out, _ = run(capsys, "tables")
    assert out.startswith("#")


class TestParserReuse:
    """One parser serves every main call of a process; no call may see
    another's options."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_out_is_not_carried_over(self, capsys, tmp_path):
        out_path = tmp_path / "w.jsonl"
        code, out, _ = run(capsys, "--no-timestamp", "pair", "--q", "13",
                           "--num", "1,1", "--den", "2,1", "--out", str(out_path))
        assert code == 0
        assert "witness line written" in out
        out_path.unlink()
        code, out, _ = run(capsys, "--no-timestamp", "pair", "--q", "13",
                           "--num", "1,1", "--den", "2,1")
        assert code == 0
        assert "witness line written" not in out
        assert list(tmp_path.iterdir()) == []

    def test_format_is_not_carried_over(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "check-bound", "--q", "331")
        assert json.loads(out)["verdict"] == "candidate"
        _, out, _ = run(capsys, "check-bound", "--q", "331")
        assert out.startswith("# ")
        assert "verdict: candidate" in out

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--q", "13"])  # --num is required
        assert exc.value.code == 2
        assert "--num" in capsys.readouterr().err
        code, out, _ = run(capsys, "--no-timestamp", "check-bound", "--q", "65537")
        assert code == 0
        assert "verdict: pass" in out


def test_import_is_lean():
    # a query process imports neither the worker pool nor the character sums
    src = os.path.dirname(os.path.dirname(primpair.__file__))
    probe = ("import sys, primpair.cli; "
             "print(sorted({'multiprocessing', 'primpair.charsums'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"
