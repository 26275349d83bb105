"""Finite fields F_q with discrete-log tables, plus exact integer arithmetic.

Everything downstream (character sums, sieve criteria, exhaustive searches)
sits on two primitives built here:

 - ``Factorization``: exact prime factorizations with the derived arithmetic
   functions (number of distinct primes, square-free divisor count, Euler phi,
   Moebius, radical).
 - ``FieldCtx``: a fully materialized field F_{p^k} with a deterministic
   primitive root and complete exp/dlog tables, built by doubling in
   ceil(log2(q-1)) numpy steps, so primitivity and u-freeness reduce to gcd
   tests on exponents.

Elements are packed integers: the coefficient vector (c_0, ..., c_{k-1}) of a
residue mod the field modulus is stored as c_0 + c_1*p + ... + c_{k-1}*p^{k-1}.
There is no element wrapper type: every FieldCtx operation takes and returns
plain ints (or int64 arrays of them), and ``FieldCtx.packed`` is the one place
a value from outside, an integer or a coefficient vector, becomes one.
Ascending packed value is the fixed enumeration order used everywhere a
"least" or "lexicographically first" choice is made.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, isqrt, prod

import numpy as np

# The largest q field_make builds tables for. It must stay <= 2^26, where
# q^2 <= 2^52 keeps field_make's float64 build exact.
DEFAULT_TABLE_CAP = 1 << 24
_BUILD_CELLS = 1 << 14  # digit cells per step product in field_make

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24;
# everything in range here is far below 2^63.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_FACTOR_INPUT = 1 << 63


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


_SMALL_PRIMES = sieve_primes(1000)
_SMALL_PRIMES_LIST = [int(p) for p in _SMALL_PRIMES]


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n, found deterministically.

    Brent's cycle variant of the rho method; the polynomial increment c is
    swept 1, 2, 3, ... so repeated runs on the same n give the same factor.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, r, q = 2, 1, 1
        g, x, ys = 1, y, y
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for composite n


@dataclass(frozen=True)
class Factorization:
    """Exact factorization of a positive integer, primes ascending."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def num_squarefree_divisors(self) -> int:
        """2^omega: how many square-free divisors the value has."""
        return 1 << len(self.factors)

    @property
    def euler_phi(self) -> int:
        phi = 1
        for p, e in self.factors:
            phi *= (p - 1) * p ** (e - 1)
        return phi

    @property
    def radical(self) -> int:
        return prod(self.primes) if self.factors else 1

    @property
    def mobius(self) -> int:
        if any(e > 1 for _, e in self.factors):
            return 0
        return -1 if len(self.factors) % 2 else 1

    def divisors(self) -> list[int]:
        """All divisors, sorted ascending."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)

    def squarefree_divisors(self) -> list[int]:
        divs = [1]
        for p in self.primes:
            divs += [d * p for d in divs]
        return sorted(divs)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def factorize(m: int) -> Factorization:
    """Exact prime factorization of m, 1 <= m <= 2^63.

    Trial division by primes below 1000 strips small factors; remaining
    cofactors fall to deterministic Miller-Rabin plus Brent's rho method.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"expected an integer, got {type(m).__name__}")
    if m < 1 or m > MAX_FACTOR_INPUT:
        raise ValueError(f"factorize: m must satisfy 1 <= m <= 2^63, got {m}")
    value = m
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES_LIST:
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            found[n] = found.get(n, 0) + 1
            continue
        d = _pollard_brent(n)
        stack.append(d)
        stack.append(n // d)
    return Factorization(value, tuple(sorted(found.items())))


def multiplicative_order(a: int, p: int) -> int:
    """Order of a mod prime p, via the factorization of p - 1.

    Table-free fallback for prime fields too large for a FieldCtx table.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a %= p
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    order = p - 1
    for q, _ in factorize(p - 1).factors:
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def higher_prime_powers(lo: int, hi: int, base=None) -> list[tuple[int, int, int]]:
    """(q, p, k) for every q = p^k in [lo, hi] with k >= 2, ascending in q;
    `base`, if given, holds the primes up to isqrt(hi) already sieved."""
    base = sieve_primes(isqrt(max(hi, 0))) if base is None else base
    out = []
    for p in base.tolist():
        v, k = p * p, 2
        while v <= hi:
            if v >= lo:
                out.append((v, p, k))
            v *= p
            k += 1
    out.sort()
    return out


def segment_prime_powers(lo: int, hi: int, base: np.ndarray, higher):
    """Every prime power q = p^k in [lo, hi), ascending, as int64 arrays (q, p, k).

    A segmented sieve of Eratosthenes marks the primes with one strided slice
    per base prime; `base` holds at least the primes up to isqrt(hi - 1) and
    `higher` is a `higher_prime_powers` list covering the segment, whose
    entries in [lo, hi) are merged in. Needs lo >= 2.
    """
    flags = np.ones(max(hi - lo, 0), dtype=bool)
    base = base[:np.searchsorted(base, isqrt(max(hi - 1, 0)), side="right")]
    starts = np.maximum(base * base, (lo + base - 1) // base * base) - lo
    for start, p in zip(starts.tolist(), base.tolist()):
        flags[start::p] = False
    primes = np.flatnonzero(flags) + lo
    powers = higher[bisect_left(higher, (lo,)):bisect_left(higher, (hi,))]
    pw = np.array(powers, dtype=np.int64).reshape(-1, 3)
    q = np.concatenate((primes, pw[:, 0]))
    order = np.argsort(q, kind="stable")
    return (q[order], np.concatenate((primes, pw[:, 1]))[order],
            np.concatenate((np.ones_like(primes), pw[:, 2]))[order])


def prime_power_iter(lo: int, hi: int, segment_size: int = 1 << 20):
    """Yield every prime power q = p^k in [lo, hi], ascending, as (p, k, q).

    One `segment_prime_powers` call per segment. Empty when hi < lo.
    """
    if lo < 3:
        raise ValueError(f"prime power enumeration starts at 3, got lo={lo}")
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    if hi < lo:
        return
    base = sieve_primes(isqrt(hi))
    higher = higher_prime_powers(lo, hi, base)
    for seg_lo in range(lo, hi + 1, segment_size):
        q, p, k = segment_prime_powers(
            seg_lo, min(seg_lo + segment_size, hi + 1), base, higher)
        yield from zip(p.tolist(), k.tolist(), q.tolist())


# ---------------------------------------------------------------------------
# Raw polynomial arithmetic over Z_p (coefficient lists, low degree first).
# Only used while constructing extension fields, before tables exist.
# ---------------------------------------------------------------------------


def _rtrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _rmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _rtrim(out)


def _rmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        coef = a[-1] * inv_lead % p
        if coef:
            shift = len(a) - len(m)
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - coef * mi) % p
        a.pop()
    return _rtrim(a)


def _rgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _rmod(a, b, p)
    return a


def _rpowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _rmod(base, m, p)
    while e:
        if e & 1:
            result = _rmod(_rmul(result, base, p), m, p)
        base = _rmod(_rmul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Monic poly over Z_p has no irreducible factor of degree <= deg/2."""
    k = len(poly) - 1
    x = [0, 1]
    xq = x
    for _ in range(k // 2):
        xq = _rpowmod(xq, p, poly, p)  # iterated Frobenius: x^(p^i) mod poly
        diff = _rtrim([(a - b) % p for a, b in zip(xq + [0] * 2, x + [0] * len(xq))])
        if len(_rgcd(poly, diff, p)) != 1:
            return False
    return True


class FieldCtx:
    """A materialized finite field F_{p^k} with full exp/dlog tables.

    Immutable after construction; safe to share across threads/processes.
    Use :func:`field_make` to build one.
    """

    def __init__(self, p: int, k: int, modulus, g: int, exp: np.ndarray,
                 dlog: np.ndarray, qm1: Factorization):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # coeff tuple, low first, monic; None for k == 1
        self.g = g
        self.exp = exp
        self.dlog = dlog
        self.qm1 = qm1
        self._pow_p = tuple(p**i for i in range(k))

    # -- element plumbing ---------------------------------------------------

    def packed(self, v) -> int:
        """The packed int of a value from outside the field: a coefficient
        vector (tuple or list, low degree first) or an integer, numpy integers
        included. Integers are reduced mod p in a prime field; a value out of
        range for F_q raises ValueError."""
        v = operator.index(self.from_coeffs(v) if isinstance(v, (tuple, list)) else v)
        if self.k == 1:
            v %= self.p
        if not 0 <= v < self.q:
            raise ValueError(f"packed value {v} out of range for F_{self.q}")
        return v

    def coeffs_of(self, v: int) -> tuple[int, ...]:
        return tuple((v // pe) % self.p for pe in self._pow_p)

    def from_coeffs(self, coeffs) -> int:
        if len(coeffs) > self.k:
            raise ValueError(f"coefficient vector longer than degree {self.k}")
        return sum((c % self.p) * pe for c, pe in zip(coeffs, self._pow_p))

    # -- scalar arithmetic on packed values ---------------------------------

    def add(self, a, b):
        """a + b for packed ints, or elementwise for int64 arrays of packed
        values, which broadcast against each other as in numpy."""
        if self.k == 1:
            return (a + b) % self.p
        total = 0
        for pe in self._pow_p:
            total += ((a // pe + b // pe) % self.p) * pe
        return total

    def neg(self, a) -> int:
        if self.k == 1:
            return -a % self.p
        total = 0
        for pe in self._pow_p:
            total += (-(a // pe) % self.p) * pe
        return total

    def sub(self, a, b) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a, b) -> int:
        if a == 0 or b == 0:
            return 0
        if self.k == 1:
            return a * b % self.p
        m = self.q - 1
        return int(self.exp[(int(self.dlog[a]) + int(self.dlog[b])) % m])

    def inv(self, a) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        m = self.q - 1
        return int(self.exp[(m - int(self.dlog[a])) % m])

    def div(self, a, b) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0 if e else 1
        m = self.q - 1
        return int(self.exp[(int(self.dlog[a]) * e) % m])

    # -- discrete logs and derived predicates --------------------------------

    def dlog_of(self, a) -> int:
        if a == 0:
            raise ValueError("0 has no discrete log")
        return int(self.dlog[a])

    def exp_of(self, t: int) -> int:
        return int(self.exp[t % (self.q - 1)])

    def order_of(self, a) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        t = int(self.dlog[a])
        return (self.q - 1) // gcd(t, self.q - 1)

    def is_primitive(self, a) -> bool:
        """True iff a generates the multiplicative group."""
        if a == 0:
            return False
        return gcd(int(self.dlog[a]), self.q - 1) == 1

    def rad_of_divisor(self, u: int) -> int:
        """Product of the distinct primes dividing u, for u | q - 1."""
        if u < 1 or (self.q - 1) % u != 0:
            raise ValueError(f"u={u} does not divide q-1={self.q - 1}")
        r = 1
        for p in self.qm1.primes:
            if u % p == 0:
                r *= p
        return r

    def is_ufree(self, a, u: int) -> bool:
        """True iff a is nonzero and is not a d-th power for any d | u, d > 1.

        Equivalent to gcd(dlog a, rad u) == 1; the brute-force power test is
        kept in the test suite as the independent oracle.
        """
        r = self.rad_of_divisor(u)
        if a == 0:
            return False
        return gcd(int(self.dlog[a]), r) == 1

    def primitive_elements(self) -> np.ndarray:
        """Packed values of all primitive elements, in ascending dlog order."""
        m = self.q - 1
        ts = np.flatnonzero(np.gcd(np.arange(m, dtype=np.int64), m) == 1)
        return self.exp[ts]

    # -- vectorized arithmetic on int64 arrays of packed values -------------

    add_vec = add  # array call sites use this name, so a trace counts them apart

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return a * b % self.p
        m = self.q - 1
        out = np.zeros_like(a)
        nz = (a != 0) & (b != 0)
        out[nz] = self.exp[(self.dlog[a[nz]] + self.dlog[b[nz]]) % m]
        return out

    def __repr__(self):
        if self.k == 1:
            return f"FieldCtx(F_{self.q})"
        return f"FieldCtx(F_{self.p}^{self.k})"


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible x^k + ... in ascending packed-coefficient order."""
    for packed in range(p**k):
        poly = [packed // p**i % p for i in range(k)] + [1]
        if poly[0] != 0 and _is_irreducible(poly, p):  # poly[0] == 0: x | poly
            return tuple(poly)
    raise ArithmeticError(f"no irreducible polynomial of degree {k} over F_{p}")


def _step_matrix(c: list[int], mod_list: list[int], p: int, k: int) -> np.ndarray:
    """A with A @ [floor(v / p^i) for i = 0..k] = the digits of v*c before
    reduction mod p. Column i of M, the matrix of v -> v*c, holds x^i*c and
    digit i of v is floor(v / p^i) - p*floor(v / p^(i+1)): A = [M|0] - p[0|M]."""
    cols = [_rmod(_rmul([0] * i + [1], c, p), mod_list, p) for i in range(k)]
    mat = np.array([col + [0] * (k - len(col)) for col in cols] + [[0] * k],
                   dtype=np.float64).T
    mat[:, 1:] -= p * mat[:, :-1]
    return mat


def field_make(p: int, k: int) -> FieldCtx:
    """Construct F_{p^k} with tables, primitive root, and q-1 factorization.

    The primitive root is the least element (packed order) of order q - 1 and
    the modulus is the first monic irreducible of degree k, so two runs always
    build the identical field. exp is built by doubling in ceil(log2(q-1))
    steps, exp[t:t+s] = exp[:s] * g^t with s = min(t, q-1-t). Multiplying by
    g^t is F_p-linear: a k x k matrix product on the base-p digits (1 x 1 for
    k == 1, where F_p = F_p[x]/(x)).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    q = p**k
    if q > DEFAULT_TABLE_CAP:
        raise ValueError(
            f"q = {q} exceeds the table cap {DEFAULT_TABLE_CAP}; tables this large are "
            "refused for memory safety. For order checks in large prime fields "
            "use multiplicative_order(a, p), which needs no table."
        )
    qm1 = factorize(q - 1) if q > 2 else Factorization(1, ())
    m = q - 1
    modulus = _find_modulus(p, k) if k > 1 else None
    mod_list = list(modulus) if k > 1 else [0, 1]

    def unpack(v: int) -> list[int]:
        return _rtrim([v // p**i % p for i in range(k)])

    def is_one(v: int, e: int) -> bool:  # v^e == 1
        return (pow(v, e, p) == 1 if k == 1
                else _rpowmod(unpack(v), e, mod_list, p) == [1])

    cofactors = [m // r for r in qm1.primes]
    g = next((cand for cand in range(1, q)
              if not any(is_one(cand, e) for e in cofactors)), None)
    if g is None:
        raise ArithmeticError(f"no generator found for F_{q}")  # unreachable

    # Every step is exact in float64: floor(a / b) is exact for integers with
    # a + b < 2^53, and each partial sum of a product is below k*(p-1)*q <=
    # q^2 <= 2^52 in size. Blocks of _BUILD_CELLS cells stay in cache and
    # below the size at which BLAS starts threads.
    exp = np.ones(m, dtype=np.int64)
    pow_p = np.array([p**i for i in range(k + 1)], dtype=np.float64)[:, None]
    width, pack = _BUILD_CELLS // k, pow_p[:-1, 0]
    c, t = unpack(g), 1
    while t < m:
        s = min(t, m - t)
        mat = _step_matrix(c, mod_list, p, k)
        for lo in range(0, s, width):
            hi = min(lo + width, s)
            sums = mat @ np.floor(exp[lo:hi] / pow_p)
            sums -= p * np.floor(sums / p)
            exp[t + lo:t + hi] = pack @ sums
        c, t = _rmod(_rmul(c, c, p), mod_list, p), 2 * t

    dlog = np.full(q, -1, dtype=np.int64)
    dlog[exp] = np.arange(m, dtype=np.int64)
    if int(dlog[1]) != 0 or (m > 1 and int(dlog[g]) != 1) or (dlog[1:] < 0).any():
        raise ArithmeticError("discrete log table failed self-check")
    return FieldCtx(p, k, modulus, g, exp, dlog, qm1)
