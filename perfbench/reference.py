"""Reference arithmetic for checking benchmark outputs.

Everything here is computed apart from primpair and imports nothing from
it: factorizations come from sympy, prime powers and omega(q-1) from a
chunked sieve written for this file, the certification criterion is
evaluated over every core subset in exact rationals, and finite-field
arithmetic is done on coefficient lists modulo the first monic irreducible
polynomial (ascending packed order of the non-leading coefficients, the
convention primpair documents for its fields).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, log

import numpy as np
import sympy

# The published true-exception lists for degree 2: (1,1) up to 350 and
# irreducible-scope (2,0) up to 250.
TRUE_EXCEPTIONS = {
    (1, 1): (3, 4, 5, 7, 9, 11, 13, 16, 19, 23, 25, 29, 31, 37, 41, 43, 49, 61,
             67, 71, 73, 79, 103, 121, 139, 151, 211, 331),
    (2, 0): (3, 4, 5, 7, 11, 13, 19, 25, 31, 37, 41, 43, 61, 67, 71, 73, 79,
             121, 151, 211),
}
PUBLISHED_QMAX = {(1, 1): 350, (2, 0): 250}
LARGEST_SURVIVOR = 33_093_061


def factor(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as ascending (prime, exponent) pairs."""
    return sorted(sympy.factorint(m).items())


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k, or None when q is not a prime power."""
    fac = factor(q) if q > 1 else []
    return fac[0] if len(fac) == 1 else None


def is_prime(n: int) -> bool:
    return bool(sympy.isprime(n))


# ---------------------------------------------------------------------------
# The certification criterion over every core subset.
# ---------------------------------------------------------------------------


def _threshold_terms(core_size: int, sieved, n: int) -> tuple[int, int] | None:
    """n * Delta * W(l)^2 as (numerator, denominator), or None when the sieve
    hypothesis delta > 0 fails. With P the product of the s sieved primes
    and A = P * delta = P - 2 * sum(P / p), Delta = ((2s - 1) P + 2A) / A."""
    w2 = 4 ** core_size
    if not sieved:
        return n * w2, 1
    big_p = 1
    for p in sieved:
        big_p *= p
    a = big_p - 2 * sum(big_p // p for p in sieved)
    if a <= 0:
        return None
    return n * w2 * ((2 * len(sieved) - 1) * big_p + 2 * a), a


def threshold(core, sieved, n: int) -> Fraction | None:
    """n * Delta * W(l)^2 for a split of the primes of q-1, or None when the
    sieve hypothesis delta > 0 fails."""
    terms = _threshold_terms(len(core), sieved, n)
    return None if terms is None else Fraction(*terms)


def _splits(primes):
    """Every (core, sieved) split; prefix cores (least primes) come first so a
    passing split is usually met at once."""
    primes = tuple(primes)
    seen = set()
    for r in range(len(primes), -1, -1):
        seen.add(primes[:r])
        yield primes[:r], primes[r:]
    for size in range(len(primes) + 1):
        for core in combinations(primes, size):
            if core not in seen:
                yield core, tuple(p for p in primes if p not in core)


def certifies(q: int, primes, n: int = 2) -> bool:
    """True when some core subset of the primes of q-1 certifies q:
    sqrt(q) > n * Delta * W(l)^2, decided on cleared denominators."""
    for core, sieved in _splits(primes):
        terms = _threshold_terms(len(core), sieved, n)
        if terms is not None and q * terms[1] ** 2 > terms[0] ** 2:
            return True
    return False


def best_threshold(primes, n: int = 2) -> Fraction:
    """The least threshold over all applicable core subsets."""
    best = None
    for core, sieved in _splits(primes):
        thr = threshold(core, sieved, n)
        if thr is not None and (best is None or thr < best):
            best = thr
    return best


def criterion_report(q: int, n: int = 2) -> dict:
    """What check-bound should say about q: omega, W, the direct test, the
    overall verdict and the least threshold."""
    primes = [p for p, _ in factor(q - 1)]
    omega = len(primes)
    direct = q > n * n * 16 ** omega
    return {"omega": omega, "W": 1 << omega, "direct_pass": direct,
            "verdict": "pass" if certifies(q, primes, n) else "candidate",
            "best": best_threshold(primes, n), "primes": primes}


# ---------------------------------------------------------------------------
# Prime powers and omega(q - 1) over a range.
# ---------------------------------------------------------------------------

_CHUNK = 1 << 21


def _small_primes(limit: int) -> list[int]:
    return [int(p) for p in sympy.primerange(2, limit + 1)]


def prime_powers_with_omega(lo: int, hi: int):
    """(q, p, k, omega(q-1)) for every prime power q in [lo, hi], ascending.

    Primes come from a segmented sieve of Eratosthenes. omega(m) for
    m = q - 1 counts the primes below sqrt(hi) that divide m, plus one when
    m has a cofactor above sqrt(hi): the logs of all small prime-power
    divisors are summed, and a gap of at least log 2 to log(m) shows the
    cofactor.
    """
    if lo < 3:
        raise ValueError("ranges start at 3")
    base = _small_primes(isqrt(hi) + 1)
    out = []
    for c_lo in range(lo, hi + 1, _CHUNK):
        c_hi = min(c_lo + _CHUNK, hi + 1)
        size = c_hi - c_lo
        prime = np.ones(size, dtype=bool)
        count = np.zeros(size, dtype=np.int16)   # index i holds m = c_lo - 1 + i
        logs = np.zeros(size, dtype=np.float64)
        for p in base:
            start = max(p * p, -(-c_lo // p) * p)
            if start < c_hi:
                prime[start - c_lo::p] = False
            lp = log(p)
            pe = p
            first = True
            while pe <= c_hi - 1:
                start = -(-(c_lo - 1) // pe) * pe
                if start < c_hi - 1:
                    if first:
                        count[start - (c_lo - 1)::pe] += 1
                    logs[start - (c_lo - 1)::pe] += lp
                first = False
                pe *= p
        qs = np.flatnonzero(prime) + c_lo
        idx = qs - c_lo
        m = (qs - 1).astype(np.float64)
        omega = count[idx].astype(np.int64) + (np.log(m) - logs[idx] > 0.5)
        for q, w in zip(qs.tolist(), omega.tolist()):
            out.append((q, q, 1, w))
    for p in base:
        pe, k = p * p, 2
        while pe <= hi:
            if pe >= lo:
                out.append((pe, p, k, len(factor(pe - 1))))
            pe *= p
            k += 1
    out.sort()
    return out


def scan_survivors(lo: int, hi: int, n: int = 2) -> tuple[list[tuple[int, int, int]], int]:
    """Every prime power in [lo, hi] that no core subset certifies, as
    (q, p, k), together with the number of prime powers examined.

    The full core (nothing sieved) is one of the subsets, so q > n^2 W^4
    certifies q at once; the rest are factored and tried subset by subset.
    """
    survivors = []
    rows = prime_powers_with_omega(lo, hi)
    for q, p, k, omega in rows:
        if q > n * n * 16 ** omega:
            continue
        primes = [r for r, _ in factor(q - 1)]
        if len(primes) != omega:
            raise AssertionError(f"omega sieve disagrees with factorint at q={q}")
        if not certifies(q, primes, n):
            survivors.append((q, p, k))
    return survivors, len(rows)


# ---------------------------------------------------------------------------
# Finite fields on coefficient lists.
# ---------------------------------------------------------------------------


def _poly_irreducible(coeffs_low_first, p: int) -> bool:
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coeffs_low_first)), x, modulus=p).is_irreducible


@lru_cache(maxsize=None)
def first_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_p, low coefficient first,
    in ascending packed order of its non-leading coefficients."""
    for packed in range(p ** k):
        coeffs = [(packed // p ** i) % p for i in range(k)]
        if coeffs[0] == 0:
            continue
        if _poly_irreducible(coeffs + [1], p):
            return tuple(coeffs + [1])
    raise ArithmeticError(f"no irreducible of degree {k} over F_{p}")


class Field:
    """F_q with elements packed as c_0 + c_1 p + ... + c_{k-1} p^{k-1}."""

    def __init__(self, q: int):
        pk = prime_power(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        self.modulus = first_irreducible(self.p, self.k) if self.k > 1 else None
        self.qm1_primes = [r for r, _ in factor(q - 1)] if q > 2 else []

    def unpack(self, v: int) -> list[int]:
        return [(v // self.p ** i) % self.p for i in range(self.k)]

    def pack(self, c) -> int:
        return sum((ci % self.p) * self.p ** i for i, ci in enumerate(c))

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self.pack([x + y for x, y in zip(self.unpack(a), self.unpack(b))])

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return a * b % p
        x, y = self.unpack(a), self.unpack(b)
        prod_ = [0] * (2 * self.k - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod_[i + j] = (prod_[i + j] + xi * yj) % p
        mod = self.modulus
        for top in range(len(prod_) - 1, self.k - 1, -1):
            c = prod_[top]
            if c:
                for i, mi in enumerate(mod):
                    prod_[top - self.k + i] = (prod_[top - self.k + i] - c * mi) % p
        return self.pack(prod_[:self.k])

    def pow(self, a: int, e: int) -> int:
        if self.k == 1:
            return pow(a, e, self.p)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def is_primitive(self, a: int) -> bool:
        m = self.q - 1
        return a != 0 and all(self.pow(a, m // r) != 1 for r in self.qm1_primes)

    def eval_poly(self, coeffs, x: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def eval_rational(self, num, den, x: int) -> int | None:
        """num(x)/den(x), or None at a pole."""
        d = self.eval_poly(den, x)
        if d == 0:
            return None
        return self.mul(self.eval_poly(num, x), self.inv(d))

    def primitive_set(self) -> set[int]:
        """All primitive elements: powers g^t with gcd(t, q-1) = 1 of the
        first primitive element g."""
        m = self.q - 1
        g = next(a for a in range(1, self.q) if self.is_primitive(a))
        out, acc = set(), 1
        for t in range(m):
            if gcd(t, m) == 1:
                out.add(acc)
            acc = self.mul(acc, g)
        return out

    def has_primitive_pair(self, num, den) -> bool:
        """Brute force: some primitive alpha, not a pole, has f(alpha) primitive."""
        prim = self.primitive_set()
        return any(self.eval_rational(num, den, a) in prim for a in prim)

    def has_root(self, coeffs) -> bool:
        return any(self.eval_poly(coeffs, x) == 0 for x in range(self.q))
