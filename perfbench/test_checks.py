"""Each output check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

The correct outputs are built here from the reference arithmetic, in the
formats primpair prints, so these tests need no primpair.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference as ref  # noqa: E402


def _best_core(primes):
    best = ref.best_threshold(primes)
    for core, sieved in ref._splits(primes):
        if ref.threshold(core, sieved, 2) == best:
            return core


def _csv_rows(survivors):
    rows = []
    for q, p, k in survivors:
        fac = ref.factor(q - 1)
        core = _best_core([r for r, _ in fac])
        rows.append(f"{q},{p},{k},{len(fac)},{';'.join(f'{r}^{e}' for r, e in fac)},"
                    f"candidate,{';'.join(map(str, core))}\n")
    return rows


def _summary(n, max_q):
    return {"num_candidates": n, "max_candidate": max_q, "records_emitted": n}


def _failing_1_1(field):
    """The first (1,1)-function a(x+b)/(x+c) of a field without a primitive pair."""
    for a in range(1, field.q):
        for b in range(1, field.q):
            for c in range(1, field.q):
                if b != c:
                    num, den = [field.mul(a, b), a], [c, 1]
                    if not field.has_primitive_pair(num, den):
                        return num, den
    return None


@pytest.fixture(scope="module")
def faithful_small():
    survivors, _ = ref.scan_survivors(3, 3000)
    return survivors, [checks.DEGENERATE_ROW + "\n"] + _csv_rows(survivors)


def test_faithful_scan_accepts_the_reference(faithful_small):
    survivors, rows = faithful_small
    out = {"csv": "".join(rows), "summary": _summary(len(rows), survivors[-1][0])}
    assert checks.check_scan_faithful(out, survivors) == ([], 0)


def test_faithful_scan_rejects_a_dropped_survivor(faithful_small):
    survivors, rows = faithful_small
    dropped = rows[:5] + rows[6:]
    out = {"csv": "".join(dropped), "summary": _summary(len(rows), survivors[-1][0])}
    problems, _ = checks.check_scan_faithful(out, survivors)
    assert any("survivor list differs" in p for p in problems)


def test_faithful_scan_rejects_a_missing_degenerate_record(faithful_small):
    survivors, rows = faithful_small
    out = {"csv": "".join(rows[1:]), "summary": _summary(len(rows), survivors[-1][0])}
    assert checks.check_scan_faithful(out, survivors)[0]


def test_scan_rejects_a_certified_q(faithful_small):
    survivors, rows = faithful_small
    q = 1_000_003  # prime; the criterion certifies it
    fac = ref.factor(q - 1)
    extra = f"{q},{q},1,{len(fac)},{';'.join(f'{r}^{e}' for r, e in fac)},candidate,\n"
    out = {"csv": "".join(rows) + extra, "summary": _summary(len(rows) + 1, q)}
    problems, _ = checks.check_scan_faithful(out, survivors)
    assert any("certifies" in p for p in problems)


@pytest.fixture(scope="module")
def band():
    survivors, _ = ref.scan_survivors(33_000_000, 33_200_000)
    assert survivors == [(ref.LARGEST_SURVIVOR, ref.LARGEST_SURVIVOR, 1)]
    return survivors, checks.CSV_HEADER + "\n" + "".join(_csv_rows(survivors))


def test_band_counts_a_wrong_resumed_summary_as_failed(band):
    survivors, text = band
    whole = _summary(1, ref.LARGEST_SURVIVOR)
    assert checks.check_scan_band({"csv": text, "summary": whole}, survivors) == ([], 0)
    resumed = _summary(0, None)
    assert checks.check_scan_band({"csv": text, "summary": resumed}, survivors) == ([], 1)


def test_band_rejects_a_dropped_survivor(band):
    survivors, text = band
    out = {"csv": checks.CSV_HEADER + "\n", "summary": _summary(0, None)}
    problems, _ = checks.check_scan_band(out, survivors)
    assert any("largest survivor" in p for p in problems)


def _pair(q, num, den):
    field = ref.Field(q)
    prim = field.primitive_set()
    alpha = min(a for a in prim if field.eval_rational(num, den, a) in prim)
    value = field.eval_rational(num, den, alpha)
    query = {"kind": "pair", "q": q, "num": num, "den": den, "argv": []}
    payload = {"q": q, "exceptional": False, "witness": {"alpha": alpha, "f_alpha": value}}
    return field, query, payload


@pytest.mark.parametrize("q,num,den", [(101, [1, 1], [2, 1]), (16, [3, 1], [2, 1]),
                                       (125, [7, 0, 1], [1])])
def test_pair_witness_checked(q, num, den):
    field, query, payload = _pair(q, num, den)
    stream = [query]
    assert checks.check_queries([[0, json.dumps(payload)]], stream) == ([], 0)

    not_primitive = next(a for a in range(1, q) if not field.is_primitive(a))
    bad_alpha = dict(payload, witness=dict(payload["witness"], alpha=not_primitive))
    wrong_value = dict(payload, witness=dict(payload["witness"],
                                             f_alpha=(payload["witness"]["f_alpha"] + 1) % q))
    for bad in (bad_alpha, wrong_value):
        problems, _ = checks.check_queries([[0, json.dumps(bad)]], stream)
        assert problems


def test_qmember_rejects_a_flipped_membership():
    field = ref.Field(13)
    num, den = _failing_1_1(field)
    query = {"kind": "qmember", "q": 13, "family": [1, 1], "scope": "irreducible", "argv": []}
    payload = {"q": 13, "member": False, "num_failing": 1,
               "failing": {"num": num, "den": den}}
    assert checks.check_queries([[1, json.dumps(payload)]], [query]) == ([], 0)
    flipped = {"q": 13, "member": True, "num_failing": 0, "failing": None}
    assert checks.check_queries([[0, json.dumps(flipped)]], [query])[0]

    # 17 is not an exception: a claimed failing function must really fail
    query17 = dict(query, q=17)
    flipped17 = {"q": 17, "member": False, "num_failing": 1,
                 "failing": {"num": [1, 1], "den": [2, 1]}}
    problems, _ = checks.check_queries([[1, json.dumps(flipped17)]], [query17])
    assert any("published" in p for p in problems)
    assert any("has a primitive pair" in p for p in problems)


def test_check_bound_rejects_a_flipped_verdict():
    rep = ref.criterion_report(331)
    core = _best_core(rep["primes"])
    payload = {"q": 331, "omega": rep["omega"], "W": rep["W"], "direct_pass": rep["direct_pass"],
               "verdict": rep["verdict"], "best_core": list(core)}
    query = {"kind": "check-bound", "q": 331, "n": 2, "argv": []}
    rc = 0 if rep["verdict"] == "pass" else 1
    assert checks.check_queries([[rc, json.dumps(payload)]], [query]) == ([], 0)
    flipped = dict(payload, verdict="pass")
    assert checks.check_queries([[0, json.dumps(flipped)]], [query])[0]


def test_classify_rejects_a_flipped_membership():
    qmax = 13
    survivors, _ = ref.scan_survivors(3, qmax)
    published = [q for q in ref.TRUE_EXCEPTIONS[(1, 1)] if q <= qmax]
    exceptions = []
    for q in published:
        p, k = ref.prime_power(q)
        num, den = _failing_1_1(ref.Field(q))
        exceptions.append([q, p, k, num, den])
    job = {"family": [1, 1], "qmax": qmax, "complete": True, "q_list": published,
           "candidates": [[q, q not in published] for q, _, _ in survivors],
           "exceptions": exceptions}
    assert checks.check_classify([job], {qmax: survivors}) == ([], 0)

    flipped = dict(job, candidates=[[q, not m] if q == 13 else [q, m]
                                    for q, m in job["candidates"]])
    assert checks.check_classify([flipped], {qmax: survivors})[0]
    bogus = dict(job, exceptions=exceptions[:-1] + [[13, 13, 1, [1, 1], [2, 1]]])
    problems, _ = checks.check_classify([bogus], {qmax: survivors})
    assert any("has a primitive pair" in p for p in problems)
