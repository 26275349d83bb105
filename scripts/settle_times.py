"""Time q_in_Q on named fields, one process per input, back to back.

    python scripts/settle_times.py [--src DIR] [INPUT ...]

An INPUT is q:n1,n2 or q:n1,n2:scope, for instance 2003:1,1 or
729:2,0:irreducible; the scope (all or irreducible) applies to (2,0) and
defaults to all. With no INPUT the script times the (1,1), irreducible (2,0)
and all-scope (2,0) families on F_2003, F_2311, F_2^10, F_2^12, F_3^6 and
F_5^5. primpair is imported from DIR, by default the src directory of the
checkout that holds this script, so two checkouts can be timed with one
script. A malformed INPUT exits 2 before any field is timed.

Each input runs in a fresh Python process, which builds the field and its
exp/dlog tables, then times one q_in_Q call with time.perf_counter. The
script prints one JSON line per input, as it finishes: q, family, scope,
seconds, member, num_failing and peak_rss_mb, the process's maximum
resident set size from getrusage. A refused input prints its error
instead of the verdict.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

DEFAULT_FIELDS = (2003, 2311, 2**10, 2**12, 3**6, 5**5)
DEFAULT_FAMILIES = ("1,1", "2,0:irreducible", "2,0:all")


def parse(text: str):
    """(p, k, (n1, n2), scope) of an input q:n1,n2[:scope]."""
    q, family, *scope = text.split(":")
    q, (n1, n2) = int(q), (int(v) for v in family.split(","))
    if len(scope) > 1 or (scope and scope[0] not in ("all", "irreducible")):
        raise ValueError(f"bad input {text!r}: want q:n1,n2 or q:n1,n2:all|irreducible")
    p = next((p for p in range(2, q + 1) if q % p == 0), None)
    k = 1
    while p and p**k < q:
        k += 1
    if p is None or p**k != q:
        raise ValueError(f"bad input {text!r}: {q} is not a prime power")
    return p, k, (n1, n2), scope[0] if scope else "all"


def time_one(text: str) -> dict:
    from primpair import ffcore, search
    p, k, family, scope = parse(text)
    entry = {"q": p**k, "family": list(family), "scope": scope}
    ctx = ffcore.field_make(p, k)
    ctx.dlog  # the tables, built before the clock starts
    t0 = perf_counter()
    try:
        res = search.q_in_Q(ctx, *family, quadratic_scope=scope)
    except ValueError as e:
        entry["error"] = str(e)
    else:
        entry.update(seconds=round(perf_counter() - t0, 4), member=res.member,
                     num_failing=res.num_failing)
    entry["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return entry


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="directory that holds the primpair package")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("inputs", nargs="*")
    args = parser.parse_args(argv)
    if args.one:
        sys.path.insert(0, args.src)
        print(json.dumps(time_one(args.inputs[0])))
        return 0
    inputs = args.inputs or [f"{q}:{fam}" for q in DEFAULT_FIELDS for fam in DEFAULT_FAMILIES]
    for text in inputs:  # refuse a malformed input before any child runs
        try:
            parse(text)
        except ValueError as e:
            parser.error(str(e))
    for text in inputs:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--one",
                        "--src", os.path.abspath(args.src), text], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
