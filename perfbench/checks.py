"""Checks of each workload's outputs against the reference arithmetic.

Each check returns (problems, failed): `problems` lists wrong outputs (any
one makes the run incorrect), `failed` counts the operations of one round
that failed without giving a wrong answer to check. Imports nothing from
primpair.
"""

from __future__ import annotations

import json

import reference as ref

CSV_HEADER = "q,p,k,omega,q_minus_1_factors,verdict,best_core"
DEGENERATE_ROW = "2,2,1,0,,candidate,"


def _check_csv(text: str, survivors, faithful: bool) -> tuple[list[str], list[int]]:
    """Every row is a survivor with the right fields, and none is missing."""
    problems = []
    lines = text.splitlines()
    if faithful:
        if not lines or lines[0] != DEGENERATE_ROW:
            problems.append("the q = 2 record is missing")
        else:
            lines = lines[1:]
    qs = []
    for line in lines:
        cols = line.split(",")
        if len(cols) != 7:
            problems.append(f"malformed record {line!r}")
            continue
        q, p, k, omega = (int(c) for c in cols[:4])
        qs.append(q)
        fac = ref.factor(q - 1)
        primes = [r for r, _ in fac]
        if (p, k) != ref.prime_power(q):
            problems.append(f"q={q}: p, k = {p}, {k}")
        if omega != len(fac) or cols[4] != ";".join(f"{r}^{e}" for r, e in fac):
            problems.append(f"q={q}: factors {omega} {cols[4]!r}")
        if cols[5] != "candidate":
            problems.append(f"q={q}: verdict {cols[5]!r}")
        if ref.certifies(q, primes):
            problems.append(f"q={q} is reported but a core subset certifies it")
        core = tuple(int(c) for c in cols[6].split(";") if c)
        if not set(core) <= set(primes):
            problems.append(f"q={q}: best core {core} does not divide q-1")
        elif ref.threshold(core, [r for r in primes if r not in core], 2) != ref.best_threshold(primes):
            problems.append(f"q={q}: best core {core} does not have the least threshold")
    expected = [q for q, _, _ in survivors]
    if qs != expected:
        missing = sorted(set(expected) - set(qs))
        extra = sorted(set(qs) - set(expected))
        problems.append(f"survivor list differs: missing {missing[:5]}, extra {extra[:5]}, "
                        f"{len(qs)} rows for {len(expected)} survivors")
    return problems, qs


def check_scan_band(output: dict, survivors) -> tuple[list[str], int]:
    text = output["csv"]
    if not text.startswith(CSV_HEADER + "\n"):
        return ["CSV header missing"], 0
    problems, qs = _check_csv(text[len(CSV_HEADER) + 1:], survivors, faithful=False)
    if not qs or max(qs) != ref.LARGEST_SURVIVOR:
        problems.append(f"largest survivor {max(qs) if qs else None}, "
                        f"expected {ref.LARGEST_SURVIVOR}")
    # The resumed scan's summary must describe the whole band.
    summary = output["summary"]
    whole = {"num_candidates": len(survivors),
             "max_candidate": survivors[-1][0] if survivors else None,
             "records_emitted": len(survivors)}
    return problems, 0 if summary == whole else 1


def check_scan_faithful(output: dict, survivors) -> tuple[list[str], int]:
    problems, _ = _check_csv(output["csv"], survivors, faithful=True)
    summary = output["summary"]
    whole = {"num_candidates": len(survivors) + 1,
             "max_candidate": survivors[-1][0] if survivors else 2,
             "records_emitted": len(survivors) + 1}
    if summary != whole:
        problems.append(f"summary {summary}, expected {whole}")
    return problems, 0


def _check_failing(field: ref.Field, num, den, family) -> list[str]:
    """A reported failing function has the family's degrees and no primitive pair."""
    n1, n2 = family
    problems = []
    if len(num) != n1 + 1 or len(den) != n2 + 1 or num[-1] == 0 or den[-1] != 1:
        problems.append(f"q={field.q}: failing function {num}/{den} is not a {family}-function")
    elif family == (2, 0) and field.has_root(num):
        problems.append(f"q={field.q}: failing quadratic {num} is reducible")
    elif field.has_primitive_pair(num, den):
        problems.append(f"q={field.q}: failing function {num}/{den} has a primitive pair")
    return problems


def check_classify(output: list, survivors_by_qmax) -> tuple[list[str], int]:
    problems = []
    for job in output:
        family, qmax = tuple(job["family"]), job["qmax"]
        published = [q for q in ref.TRUE_EXCEPTIONS[family] if q <= qmax]
        cands = [q for q, _, _ in survivors_by_qmax[qmax]]
        if [q for q, _ in job["candidates"]] != cands:
            problems.append(f"{family}: candidate fields differ from the reference scan")
        wrong = [q for q, member in job["candidates"] if member != (q not in published)]
        if wrong:
            problems.append(f"{family}: membership wrong at q={wrong[:5]}")
        if job["q_list"] != published or not job["complete"]:
            problems.append(f"{family}: exceptions {job['q_list']}, published {published}")
        for q, p, k, num, den in job["exceptions"]:
            if (p, k) != ref.prime_power(q):
                problems.append(f"{family}: q={q} reported as {p}^{k}")
                continue
            problems += _check_failing(ref.Field(q), num, den, family)
    return problems, 0


def _check_bound(payload: dict, rc: int, q: int, n: int) -> list[str]:
    rep = ref.criterion_report(q, n)
    problems = []
    for key in ("omega", "W", "direct_pass", "verdict"):
        if payload.get(key) != rep[key]:
            problems.append(f"check-bound q={q}: {key} {payload.get(key)!r}, expected {rep[key]!r}")
    core = tuple(payload.get("best_core", ()))
    if ref.threshold(core, [r for r in rep["primes"] if r not in core], n) != rep["best"]:
        problems.append(f"check-bound q={q}: best core {core} does not have the least threshold")
    if (rc == 0) != (rep["verdict"] == "pass"):
        problems.append(f"check-bound q={q}: exit code {rc}")
    return problems


def _check_pair(payload: dict, rc: int, q: int, num, den) -> list[str]:
    field = ref.Field(q)
    w = payload.get("witness")
    if payload.get("exceptional") is not False:
        return [f"pair q={q}: reported exceptional"]
    if w is None:
        if rc != 1 or field.has_primitive_pair(num, den):
            return [f"pair q={q}: reported absent, but a primitive pair exists"]
        return []
    alpha, value = w["alpha"], w["f_alpha"]
    problems = []
    if not field.is_primitive(alpha):
        problems.append(f"pair q={q}: alpha={alpha} is not primitive")
    if field.eval_rational(num, den, alpha) != value:
        problems.append(f"pair q={q}: f({alpha}) is not {value}")
    if not field.is_primitive(value):
        problems.append(f"pair q={q}: f(alpha)={value} is not primitive")
    if rc != 0:
        problems.append(f"pair q={q}: exit code {rc} with a witness")
    return problems


def _check_qmember(payload: dict, rc: int, q: int, family, scope) -> list[str]:
    problems = []
    member = payload.get("member")
    if (rc == 0) != bool(member):
        problems.append(f"qmember q={q}: exit code {rc}, member {member}")
    published_scope = family == (1, 1) or scope == "irreducible"
    if (family in ref.TRUE_EXCEPTIONS and published_scope
            and q <= ref.PUBLISHED_QMAX[family]
            and member != (q not in ref.TRUE_EXCEPTIONS[family])):
        problems.append(f"qmember q={q} {family}: member={member} contradicts the published list")
    if not member:
        f = payload.get("failing") or {}
        problems += _check_failing(ref.Field(q), f.get("num", []), f.get("den", []), family)
    return problems


def check_queries(output: list, stream: list) -> tuple[list[str], int]:
    problems = []
    failed = 0
    for query, (rc, text) in zip(stream, output):
        if rc not in (0, 1):
            failed += 1
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            problems.append(f"{query['argv']}: output is not JSON")
            continue
        kind, q = query["kind"], query["q"]
        if payload.get("q") != q:
            problems.append(f"{query['argv']}: answered for q={payload.get('q')}")
        elif kind == "check-bound":
            problems += _check_bound(payload, rc, q, query["n"])
        elif kind == "pair":
            problems += _check_pair(payload, rc, q, query["num"], query["den"])
        else:
            problems += _check_qmember(payload, rc, q, tuple(query["family"]), query["scope"])
    if len(output) != len(stream):
        problems.append(f"{len(output)} answers for {len(stream)} queries")
    return problems, failed
