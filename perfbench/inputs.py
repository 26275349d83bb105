"""Each workload's inputs, made from the seed.

The scans and the classification have fixed inputs: their work must not
change with the seed, and the resumed-scan summary must fail the same way in
every run. The seed drives the query stream: which fields, which functions
and the order of the calls. The stream's make-up is fixed so that a round
costs about the same for every seed:

  38 check-bound  prime powers in [3, 10^6], n = 2 or 3
  40 pair         prime fields in [20000, 24000], a (1,1) or (2,0) function
  16 pair         extension fields 2^12 .. 2^14 and the like, two per field
   2 pair         the prime fields 999983 and 1000003
   4 qmember      (1,1) on 121 and 131, (2,0) on 79 and 81 (irreducible scope)
   1 qmember      (2,1) or (3,0) on F_3
"""

from __future__ import annotations

import random

import reference as ref

SCAN_BAND = {"lo": 32_000_000, "hi": 42_000_000, "segment": 1 << 16, "stop_at": 37_000_000}
SCAN_FAITHFUL = {"hi": 3_000_000, "segment": 1 << 15}
CLASSIFY = {"jobs": [{"family": [1, 1], "qmax": 200}, {"family": [2, 0], "qmax": 150}]}

EXTENSION_FIELDS = (2 ** 12, 2 ** 13, 2 ** 14, 3 ** 8, 5 ** 6, 7 ** 5, 11 ** 4, 23 ** 3)
# Fixed, not drawn: a pair query on a field this large sets the process's
# peak memory, which then follows phi(q - 1) and not the program.
LARGE_PRIMES = (999_983, 1_000_003)
QMEMBER_BULK = (((1, 1), 121), ((1, 1), 131), ((2, 0), 79), ((2, 0), 81))


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        q = rng.randrange(lo, hi)
        if ref.is_prime(q):
            return q


def _random_prime_power(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        q = rng.randrange(lo, hi)
        if ref.prime_power(q) is not None:
            return q


def _coeff_text(field: ref.Field, v: int) -> str:
    if field.k == 1:
        return str(v)
    return "[" + ",".join(str(c) for c in field.unpack(v)) + "]"


def _pair_query(rng: random.Random, q: int) -> dict:
    """A random non-exceptional function: u + v x over c + x with
    u != v c, or a x^2 + b x + c with nonzero discriminant."""
    field = ref.Field(q)
    nonzero = lambda: rng.randrange(1, q)
    if rng.random() < 0.5:
        while True:
            u, v, c = rng.randrange(q), nonzero(), rng.randrange(q)
            if u != field.mul(v, c):
                break
        num, den = [u, v], [c, 1]
    else:
        four = field.add(field.add(1, 1), field.add(1, 1))
        while True:
            a, b, c = nonzero(), rng.randrange(q), rng.randrange(q)
            if field.mul(b, b) != field.mul(four, field.mul(a, c)):
                break
        num, den = [c, b, a], [1]
    argv = ["--format", "json", "pair", "--q", str(q),
            "--num", ",".join(_coeff_text(field, v) for v in num),
            "--den", ",".join(_coeff_text(field, v) for v in den)]
    return {"kind": "pair", "q": q, "num": num, "den": den, "argv": argv}


def _qmember_query(q: int, family, scope: str = "irreducible") -> dict:
    argv = ["--format", "json", "qmember", "--q", str(q),
            "--n1", str(family[0]), "--n2", str(family[1]), "--quadratic-scope", scope]
    return {"kind": "qmember", "q": q, "family": list(family), "scope": scope, "argv": argv}


def query_stream(seed: int) -> list[dict]:
    rng = random.Random(seed)
    stream = []
    for _ in range(38):
        q = _random_prime_power(rng, 3, 1_000_001)
        n = rng.choice((2, 2, 3))
        stream.append({"kind": "check-bound", "q": q, "n": n,
                       "argv": ["--format", "json", "check-bound", "--q", str(q), "--n", str(n)]})
    for _ in range(40):
        stream.append(_pair_query(rng, _random_prime(rng, 20_000, 24_000)))
    for q in EXTENSION_FIELDS * 2:
        stream.append(_pair_query(rng, q))
    for q in LARGE_PRIMES:
        stream.append(_pair_query(rng, q))
    for family, q in QMEMBER_BULK:
        stream.append(_qmember_query(q, family))
    stream.append(_qmember_query(3, rng.choice(((2, 1), (3, 0)))))
    rng.shuffle(stream)
    return stream


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "scan_band":
        return {"workload": workload, **SCAN_BAND}
    if workload == "scan_faithful":
        return {"workload": workload, **SCAN_FAITHFUL}
    if workload == "classify":
        return {"workload": workload, **CLASSIFY}
    if workload == "queries":
        return {"workload": workload, "stream": query_stream(seed)}
    raise ValueError(f"unknown workload {workload!r}")
