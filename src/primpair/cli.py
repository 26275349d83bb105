"""Command-line front end.

Subcommands cover every library capability: criterion checks for single
fields, the reference constant grid, range scans with checkpoints, true-
exception classification, single-function pair searches, family membership,
and a seeded audit of the character-sum machinery.

Exit codes: 0 success, 1 negative verdict (candidate, absent pair,
non-member, failed audit), 2 usage error, 3 compute-budget refusal, 130 a
command stopped by Ctrl-C.
Inputs are refused in one place: `main` turns a ValueError (the library's
refusals), a ZeroDivisionError (a zero denominator) or an OSError (a
missing checkpoint, or a file that cannot be read or written, such as one
in a missing directory) from any subcommand into an `error:` line on stderr
and exit code 2, and a KeyboardInterrupt, which a scan words itself (see
`search.run_scan`), into one and exit code 130.

The argument parser is built once per process, on the first `main` call,
and reused by every later call; parsing makes a fresh namespace each time,
so no call sees another's options.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from functools import cache
from math import gcd

from . import bounds, ffcore, polyrat, search

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = ffcore.factorize(q)
    if fac.omega != 1:
        raise ValueError(f"{q} is not a prime power (factors: {fac})")
    return fac.factors[0]


def _parse_coeffs(text: str) -> list:
    """Comma-separated coefficients, constant term first.

    Prime-field elements are plain integers; extension-field elements are
    bracketed coefficient tuples like [1,0,2] (low degree first). The text
    is read as the items of one JSON array, so an empty entry, a float or
    `true` is refused.
    """
    try:
        values = json.loads("[" + text + "]")
    except json.JSONDecodeError:
        raise ValueError(f"cannot parse coefficients {text!r}") from None
    out = []
    for v in values:
        if type(v) is list and all(type(c) is int for c in v):
            v = tuple(v)
        elif type(v) is not int:
            raise ValueError(f"coefficient {json.dumps(v)} in {text!r} is neither "
                             "an integer nor a list of integers")
        out.append(v)
    if not out:
        raise ValueError("empty coefficient list")
    return out


def _emit(args, payload: dict, human_lines: list[str]):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        if not args.no_timestamp:
            print(f"# {time.strftime('%Y-%m-%d %H:%M:%S')}")
        for line in human_lines:
            print(line)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator} ({float(x):.7f})"


def cmd_check_bound(args) -> int:
    p, k = _prime_power(args.q)
    q = args.q
    qm1 = ffcore.factorize(q - 1)
    primes = list(qm1.primes)
    verdict, r, _, _ = bounds.best_prefix(q, primes, args.n)
    core, sieved = primes[:r], primes[r:]
    delta, big_delta, threshold = bounds.prefix_terms(primes, r, args.n)
    margin = q**0.5 - float(threshold)
    direct = verdict == "pass_thm31"
    passed = verdict != "candidate"
    payload = {
        "q": q, "p": p, "k": k, "n": args.n,
        "omega": qm1.omega, "W": qm1.num_squarefree_divisors,
        "direct_pass": direct,
        "sieve_pass": passed,
        "best_core": core,
        "delta": [delta.numerator, delta.denominator],
        "big_delta": [big_delta.numerator, big_delta.denominator],
        "margin": margin,
        "verdict": "pass" if passed else "candidate",
    }
    lines = [
        f"q = {q} = {p}^{k}, q-1 = {qm1}",
        f"direct criterion (sqrt(q) > {args.n}*W^2): {'pass' if direct else 'fail'}"
        f"  [W(q-1) = {qm1.num_squarefree_divisors}]",
        f"best sieve core: {{{', '.join(map(str, core))}}}"
        f"  sieved: {{{', '.join(map(str, sieved))}}}",
        f"  delta = {_frac_str(delta)}",
        f"  Delta = {_frac_str(big_delta)}",
        f"  threshold {args.n}*Delta*W(l)^2 = {float(threshold):.4f},"
        f" sqrt(q) = {q ** 0.5:.4f}, margin = {margin:.4f}",
        f"verdict: {payload['verdict']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if payload["verdict"] == "pass" else EXIT_NEGATIVE


def cmd_tables(args) -> int:
    rows = [bounds.check_pass_target(t) for t in bounds.PASS_TARGETS]
    cn_rows = [{"n": n, "value": bounds.generic_cn(n), "pinned": pinned,
                "ok": bounds.generic_cn_ok(n)}
               for n, pinned in sorted(bounds.GENERIC_CN_TARGETS.items())]
    all_ok = all(row["ok"] for row in rows + cn_rows)
    lines = ["worst-case pass grid:"]
    for row in rows:
        lines.append(
            f"  n={row['n']} {row['min_omega']}<=omega<={row['max_omega']} W(l)={row['W_l']}:"
            f" delta={row['delta']:.7f} (pin {row['delta_pinned']})"
            f" Delta={row['big_delta']:.7f} (pin {row['big_delta_pinned']})"
            f" threshold={row['threshold']:.3f} < {row['threshold_pinned']}"
            f" [{'ok' if row['ok'] else 'MISMATCH'}]")
    lines.append("general bounds n^6 * c^12:")
    for row in cn_rows:
        lines.append(f"  n={row['n']}: {row['value']:.4e} (pin {row['pinned']:.4e})"
                     f" [{'ok' if row['ok'] else 'MISMATCH'}]")
    lines.append("all rows reproduce" if all_ok else "MISMATCH detected")
    _emit(args, {"rows": rows, "general_bounds": cn_rows, "ok": all_ok}, lines)
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def cmd_scan(args) -> int:
    if args.hi < args.lo:
        raise ValueError(f"--hi must be >= --lo, got --lo {args.lo} --hi {args.hi}")
    result, records = search.run_scan(
        args.lo, args.hi, args.n, emit=args.emit,
        workers=args.workers, csv_path=args.out,
        checkpoint_path=args.checkpoint, resume=args.resume,
        segment_size=args.segment)
    payload = {
        "lo": args.lo, "hi": args.hi, "n": args.n,
        "emit": args.emit, "workers": args.workers,
        "config_hash": result.config.config_hash(),
        "records_emitted": result.records_emitted,
        "candidates": result.num_candidates,
        "max_candidate": result.max_candidate,
        "csv": args.out,
    }
    lines = [
        f"scan [{args.lo}, {args.hi}] n={args.n}"
        f" (config {result.config.config_hash()})",
        f"records emitted: {result.records_emitted}",
        f"candidates: {result.num_candidates}"
        + (f", largest {result.max_candidate}" if result.max_candidate else ""),
    ]
    if args.out:
        lines.append(f"csv written to {args.out}")
    _emit(args, payload, lines)
    if not args.out and args.format != "json":
        print(search.CSV_HEADER)
        for rec in records:
            print(rec.csv_line())
    return EXIT_OK


def cmd_classify(args) -> int:
    try:
        family = tuple(int(v) for v in args.family.split(","))
    except ValueError:
        raise ValueError(f"cannot parse family {args.family!r}") from None
    if family not in search.ENGINE_FAMILIES:  # a usage error, before the budget
        raise ValueError("classification supports families 1,1 and 2,0")
    if args.qmax < 3:
        raise ValueError(f"--qmax must be >= 3, the smallest field classified; got {args.qmax}")
    cost = ("the exhaustive step ANDs about q * rad(q-1) * ceil(rad(q-1)/64) "
            "words per shift, 16 to 48 shifts, for each surviving field q, "
            "half that for 1,1")
    if args.qmax > search.CLASSIFY_QMAX:
        print(f"refusing: qmax {args.qmax} exceeds the budget "
              f"{search.CLASSIFY_QMAX} ({cost})", file=sys.stderr)
        return EXIT_BUDGET
    res = search.classify_true_exceptions(
        args.qmax, family, quadratic_scope=args.quadratic_scope,
        jsonl_path=args.out)
    payload = {
        "family": list(family), "qmax": args.qmax,
        "quadratic_scope": args.quadratic_scope,
        "true_exceptions": res.q_list,
        "count": len(res.exceptions),
        "complete": res.complete, "high_water": res.high_water,
    }
    lines = [
        f"family ({family[0]},{family[1]}), q <= {args.qmax}"
        + ("" if family != (2, 0) else f", quadratic scope: {args.quadratic_scope}"),
        f"true exceptions ({len(res.exceptions)}): "
        + ", ".join(str(q) for q in res.q_list),
    ]
    if args.out:
        lines.append(f"witness report written to {args.out}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_pair(args) -> int:
    p, k = _prime_power(args.q)
    ctx = ffcore.field_make(p, k)
    f = polyrat.RationalFunc.from_coeffs(
        ctx, _parse_coeffs(args.num), _parse_coeffs(args.den))
    try:
        w = search.pair_exists(ctx, f)
    except search.ExceptionalFunctionError:
        w = None
    bad = w is None
    payload = {
        "q": args.q,
        "f": search.coeffs_json(f.num.coeffs, f.den.coeffs),
        "degrees": [f.n1, f.n2],
        "exceptional": bad,
    }
    lines = [f"f = {f.num.coeffs}/{f.den.coeffs} over F_{args.q},"
             f" an ({f.n1},{f.n2})-function",
             f"exceptional: {bad}"]
    if bad:
        payload["witness"] = None
        lines.append("no pair search: exceptional functions are excluded")
        _emit(args, payload, lines)
        return EXIT_NEGATIVE
    payload["witness"] = (
        {"alpha": w.alpha, "f_alpha": w.value,
         "alpha_dlog": w.alpha_dlog, "f_alpha_dlog": w.value_dlog}
        if w.found else None)
    payload["examined"] = w.examined
    if w.found:
        lines.append(f"primitive pair: alpha = {w.alpha} (dlog {w.alpha_dlog}),"
                     f" f(alpha) = {w.value} (dlog {w.value_dlog})")
    else:
        lines.append(f"ABSENT: all {w.examined} primitive elements exhausted")
    if args.out:
        search.write_witness_jsonl(args.out, [search.witness_entry(
            args.q, (f.n1, f.n2), f.num.coeffs, f.den.coeffs, w)])
        lines.append(f"witness line written to {args.out}")
    _emit(args, payload, lines)
    return EXIT_OK if w.found else EXIT_NEGATIVE


def cmd_qmember(args) -> int:
    p, k = _prime_power(args.q)
    polyrat.check_family(args.n1, args.n2)
    if (args.n1, args.n2) not in search.ENGINE_FAMILIES:
        walk = args.q - 1  # times q^(n1+n2), as far as the budget needs: q >= 2
        for _ in range(args.n1 + args.n2):
            walk *= args.q
            if walk > search.NAIVE_WALK_MAX:
                print(f"refusing: the ({args.n1},{args.n2}) family over F_{args.q} holds "
                      f"{args.q}^{args.n1 + args.n2}*{args.q - 1} coefficient tuples, which "
                      f"exceeds the budget {search.NAIVE_WALK_MAX} (families other than "
                      "1,1 and 2,0 are walked one function at a time, one primitive-pair "
                      "search each)", file=sys.stderr)
                return EXIT_BUDGET
    ctx = ffcore.field_make(p, k)
    res = search.q_in_Q(ctx, args.n1, args.n2, quadratic_scope=args.quadratic_scope)
    payload = {
        "q": args.q, "family": [args.n1, args.n2], "member": res.member,
        "num_failing": res.num_failing,
        "failing": (None if res.failing is None else
                    search.coeffs_json(res.failing.num.coeffs, res.failing.den.coeffs)),
    }
    lines = [f"q = {args.q}, family ({args.n1},{args.n2}):"
             f" {'member' if res.member else 'NOT a member'}"]
    if not res.member:
        lines.append(f"failing functions: {res.num_failing}; first:"
                     f" {res.failing.num.coeffs}/{res.failing.den.coeffs}")
    _emit(args, payload, lines)
    return EXIT_OK if res.member else EXIT_NEGATIVE


def cmd_weil_audit(args) -> int:
    if args.qmax < 3:
        raise ValueError(f"--qmax must be >= 3, the smallest field audited; got {args.qmax}")
    if args.qmax > ffcore.DEFAULT_TABLE_CAP:
        raise ValueError(f"--qmax must be <= {ffcore.DEFAULT_TABLE_CAP} "
                         f"(ffcore.DEFAULT_TABLE_CAP), the largest field built; got {args.qmax}")
    if args.degmax < 1:
        raise ValueError(f"--degmax must be >= 1, got {args.degmax}")
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    from . import charsums  # only this subcommand needs it
    rng = random.Random(args.seed)
    fields = [(p, kk) for p, kk, q in ffcore.prime_power_iter(3, args.qmax)]
    ctxs = {}
    failures = []
    tested = 0
    attempts = 0
    while tested < args.count and attempts < args.count * 50:
        attempts += 1
        p, k = rng.choice(fields)
        ctx = ctxs.get((p, k))
        if ctx is None:
            ctx = ctxs[p, k] = ffcore.field_make(p, k)
        sf_divs = [d for d in ctx.qm1.squarefree_divisors() if d > 1]
        if not sf_divs:
            continue
        d = rng.choice(sf_divs)
        idx = rng.choice([i for i in range(1, d) if gcd(i, d) == 1])
        chi = charsums.MultChar(ctx, d, idx)
        deg_num = rng.randint(1, args.degmax)
        deg_den = rng.randint(0, args.degmax - deg_num) if deg_num < args.degmax else 0
        num = [rng.randrange(ctx.q) for _ in range(deg_num)] + [rng.randrange(1, ctx.q)]
        den = [rng.randrange(ctx.q) for _ in range(deg_den)] + [1]
        try:
            F = polyrat.RationalFunc.from_coeffs(ctx, num, den)
            report = charsums.weil_bound_check(chi, F)
        except (ValueError, ZeroDivisionError):
            continue
        tested += 1
        if not report.ok:
            failures.append({"q": ctx.q, "d": d, "index": idx,
                             "num": num, "den": den,
                             "sum": abs(report.total.value()),
                             "bound": report.bound})
    payload = {"seed": args.seed, "tested": tested, "failures": failures}
    lines = [f"weil audit: {tested} instances, seed {args.seed},"
             f" q <= {args.qmax}, deg <= {args.degmax}",
             f"violations: {len(failures)}"
             + ("" if not failures else f" (BUG INDICATOR): {failures[:3]}")]
    _emit(args, payload, lines)
    return EXIT_OK if not failures else EXIT_NEGATIVE


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first `main` call."""
    ap = argparse.ArgumentParser(
        prog="primpair",
        description="Primitive pairs (alpha, f(alpha)) in finite fields: "
                    "criteria, scans, and exhaustive verification.")
    ap.add_argument("--format", choices=("human", "json"), default="human")
    ap.add_argument("--no-timestamp", action="store_true",
                    help="suppress the timestamp header on human output")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-bound", help="criteria verdict for one q")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=int, default=2)
    s.set_defaults(func=cmd_check_bound)

    s = sub.add_parser("tables", help="recompute the reference constant grid")
    s.set_defaults(func=cmd_tables)

    s = sub.add_parser("scan", help="scan a range for criterion survivors")
    s.add_argument("--lo", type=int, default=3,
                   help="2 includes F_2, as the paper's count of 3937 does")
    s.add_argument("--hi", type=int, required=True)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--emit", choices=("candidates", "all"), default="candidates")
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out", help="write records to this CSV file")
    s.add_argument("--checkpoint", help="checkpoint JSON path; needs --out, "
                   "whose byte offset it records")
    s.add_argument("--resume", action="store_true")
    s.add_argument("--segment", type=int, default=search.DEFAULT_SEGMENT)
    s.set_defaults(func=cmd_scan)

    s = sub.add_parser("classify", help="find the true exceptions of a family")
    s.add_argument("--family", required=True, help="1,1 or 2,0")
    s.add_argument("--qmax", type=int, required=True)
    s.add_argument("--quadratic-scope", choices=("irreducible", "all"),
                   default="irreducible",
                   help="for 2,0: which failing quadratics count (default follows "
                        "the established classification)")
    s.add_argument("--out", help="write the witness report (JSON lines) here")
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("pair", help="search a primitive pair for one function")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--num", required=True, help="coefficients, constant first")
    s.add_argument("--den", default="1")
    s.add_argument("--out", help="write the witness line (JSON) to this file")
    s.set_defaults(func=cmd_pair)

    s = sub.add_parser("qmember", help="family membership of one field")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n1", type=int, required=True)
    s.add_argument("--n2", type=int, required=True)
    s.add_argument("--quadratic-scope", choices=("irreducible", "all"), default="all")
    s.set_defaults(func=cmd_qmember)

    s = sub.add_parser("weil-audit", help="seeded random audit of the bound")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--qmax", type=int, default=121)
    s.add_argument("--degmax", type=int, default=5)
    s.set_defaults(func=cmd_weil_audit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt as e:  # a scan's interrupt says how far it got
        print(f"error: {str(e) or 'interrupted'}", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
