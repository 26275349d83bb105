"""Finite fields F_q with discrete-log tables, plus exact integer arithmetic.

Everything downstream (character sums, sieve criteria, exhaustive searches)
sits on three primitives built here:

 - ``Factorization``: exact prime factorizations with the derived arithmetic
   functions (number of distinct primes, square-free divisor count, Euler phi,
   Moebius, radical).
 - ``FieldCtx``: a field F_{p^k} with a deterministic primitive root and
   exp/dlog tables that are built on first use, by a vector operation or by
   a scalar operation of an extension field, which reduce primitivity and
   u-freeness to gcd tests on exponents. A prime field's scalar operations
   never build the tables: they use Python `pow`, test a^((q-1)/l) != 1
   on the primes l of q - 1 (gcd(dlog a, q - 1) = 1 once something else
   has built them), and solve a discrete log by Pohlig-Hellman.
   The tables are filled from [1, g] by doubling,
   with g^t carried from step to step and squared mod p. A prime field is
   built as Z/p: its generator is found by scalar `pow` tests, and each
   doubling step is one int64 product and remainder mod p, in place. An
   extension field is built in numpy on base-p digits: the generator
   candidates are tested a block at a time, each as its k x k
   multiplication matrix raised to every cofactor (q-1)/l at once, and each
   doubling step is a k x k matrix product over F_p.
 - ``SegmentKernel``: the walk over the prime powers of a range, one segment
   at a time, that `prime_power_segments` plans. One call per segment gives
   each integer its set of primes below ``_SMALL_CUT`` as a bit code, drops
   the q above a caller's ceiling for the code of q - 1, and only then
   sieves the prime powers among the rest and factors their q - 1. All of
   it runs in numpy with no Python loop over the base primes above
   ``_SMALL_CUT``, in arrays allocated once per walk and reused for every
   segment.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, isqrt, prod

import numpy as np

# The largest q field_make builds tables for. It must stay <= 2^26, where,
# for k > 1, q^2 <= 2^52 keeps field_make's float64 build exact. For k = 1
# the int64 step needs (p-1)^2 < 2^63; at this cap it stays below 2^48.
DEFAULT_TABLE_CAP = 1 << 24
_BUILD_CELLS = 1 << 14  # digit cells per step product in field_make
_GEN_BLOCK = 16  # generator candidates in field_make's first block

# Integers per segment of a prime-power walk. The full n = 2 scan runs
# fastest at this size of 2^15..2^20, and in the least memory.
DEFAULT_SEGMENT = 1 << 16
# The most integers one segment may hold. Near the scan ceiling a segment's
# workspace takes about 21 bytes per integer for the odd and even multiples
# of the base primes above _SMALL_CUT (0.64 entries per half, 33 bytes per
# entry of both halves) and 9 for the codes, the wheel table, the flags and
# the row map, beside the factor rows: one segment at this limit peaks near
# 240 MB there when every row is factored (max RSS of one process), 136 MB
# when a table of ceilings drops every row before any large prime is marked.
MAX_SEGMENT = 1 << 22
# Base primes below this divide most factor rows, and their multiples would
# be most of a segment's index array: instead, the sieve ORs bit j of each
# integer's code for the j-th of them, so a row's code is its set of small
# primes. There are at most 11, so a code fits a uint16 and a table of
# 2^11 rows maps it to its primes.
_SMALL_CUT = 32
# The codes of the leading small primes whose product is at most this repeat
# with that period, and are copied into a window from one table.
_WHEEL = 30030
# Primorials 2, 2*3, 2*3*5, ... below 2^63: an m <= n has at most
# bisect_right(_PRIMORIALS, n) distinct prime factors.
_PRIMORIALS = tuple(accumulate((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47),
                               operator.mul))

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
        return prod(self.primes)

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

    Trial division by primes below 1000 strips small factors. Once it stops
    on p^2 > m, the cofactor m is 1 or a prime; a cofactor left after every
    prime below 1000 falls to deterministic Miller-Rabin plus Brent's rho.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"expected an integer, got {type(m).__name__}")
    if m < 1 or m > MAX_FACTOR_INPUT:
        raise ValueError(f"factorize: m must satisfy 1 <= m <= 2^63, got {m}")
    value = m
    found: dict[int, int] = {}
    stack = []
    for p in _SMALL_PRIMES_LIST:
        if p * p > m:
            if m > 1:
                found[m] = 1  # no prime below p divides it
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    else:
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

    For prime fields past field_make's table cap; FieldCtx.order_of makes
    the same table-free test in a prime field.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a %= p
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    return _order_mod(a, p, factorize(p - 1).primes)


def _order_mod(a: int, p: int, primes) -> int:
    """Order of a != 0 mod prime p, with primes those of p - 1."""
    order = p - 1
    for r in primes:
        while order % r == 0 and pow(a, order // r, p) == 1:
            order //= r
    return order


def higher_prime_powers(lo: int, hi: int, base: np.ndarray) -> list[tuple[int, int, int]]:
    """(q, p, k) for every q = p^k in [lo, hi] with k >= 2, ascending in q;
    `base` holds the primes up to isqrt(hi)."""
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


@dataclass(frozen=True, eq=False)
class SegmentPlan:
    """A walk over the prime powers in [lo, hi], ascending, in segments
    [seg_lo, seg_hi) of `size` integers, the last one shorter; iterating it
    gives the (seg_lo, seg_hi) of each, and len() their count. `base` holds
    the primes up to isqrt(hi) and `higher` is the `higher_prime_powers`
    list of [lo, hi]; every segment shares both. size is the largest actual
    segment, 0 for an empty walk."""

    lo: int
    hi: int
    size: int
    base: np.ndarray
    higher: list

    def __iter__(self):
        for seg_lo in range(self.lo, self.hi + 1, max(self.size, 1)):
            yield seg_lo, min(seg_lo + self.size, self.hi + 1)

    def __len__(self):
        return len(range(self.lo, self.hi + 1, max(self.size, 1)))


def prime_power_segments(lo: int, hi: int, segment_size: int) -> SegmentPlan:
    """The plan of a walk over the prime powers in [lo, hi] in segments of
    at most segment_size integers. Refused when lo < 2, segment_size < 1,
    or the largest actual segment, min(segment_size, hi - lo + 1), is above
    MAX_SEGMENT; a larger segment_size over a shorter range is fine."""
    if lo < 2:
        raise ValueError(f"prime power enumeration starts at 2, got lo={lo}")
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    size = max(min(segment_size, hi - lo + 1), 0)
    if size > MAX_SEGMENT:
        raise ValueError(
            f"a segment of {size} integers is above the limit of {MAX_SEGMENT} "
            "(ffcore.MAX_SEGMENT), which keeps a segment's workspace in memory; "
            "use a smaller segment size (CLI: --segment)")
    base = sieve_primes(isqrt(hi) if size else 0)
    return SegmentPlan(lo, hi, size, base, higher_prime_powers(lo, hi, base))


class SegmentKernel:
    """The prime powers q of a segment and the factorization of each q - 1,
    in a workspace allocated once per plan and reused for every segment.

    A segment [seg_lo, seg_hi) works on the window [seg_lo - 1, seg_hi), which
    holds every q and every q - 1. The plan's base primes are split at
    _SMALL_CUT:
     - below it, the j-th prime ORs bit j into the code of each of its
       multiples, by one strided slice (the leading primes up to _WHEEL by
       one copy from a periodic table), and an integer with code 0 has no
       prime below the cut; a row m = q - 1 reads its small primes off its
       code;
     - above it, two index arrays hold the window offsets of the odd and of
       the even multiples of every such prime p: one stride pattern of
       j * 2p, built once for the plan's largest segment, plus the segment's
       first odd or even multiple. The odd half marks the composites of
       code 0, which are all odd. The even half gathers, through a
       map from window offset to row, the rows each prime divides: every
       m = q - 1 is even but for q = 2^k, whose odd m reads the odd half.
       Offsets past the window land in padding that is never read, so no
       entry is dropped.
    Marking multiples >= 2p is correct with any base prime, so the plan's
    primes up to isqrt(hi) serve every segment; base primes inside the window
    are set back to prime.

    A caller's table of ceilings, one per code, drops the candidate q above
    the entry of their q - 1's code before either half is built (see
    `prime_powers`); a segment with no row left is done. Only the rows kept
    are marked and gathered, the even half only if some m is even.

    Every prime of m < hi is a base prime but at most one, P > isqrt(hi):
    two such would make m > hi. One sort of the keys
    row * len(base) + prime index lists each row's primes ascending, the
    power of 2 in m is m & -m, and the powers of the odd primes grow by one
    loop, which counts their exponents. What is left of a row once the
    powers of its base primes are divided out is 1 or P.

    The factor rows `segment` returns are a view of the workspace, valid
    until its next call. Segments may come in any order, inside the plan's [lo, hi].
    """

    def __init__(self, plan: SegmentPlan):
        base, size = plan.base, plan.size
        self.plan, self.base, self.higher, self.size = plan, base, plan.higher, size
        self.cut = int(np.searchsorted(base, _SMALL_CUT))
        small = base[:self.cut].tolist()
        # a code's primes as a row of cut flags
        codes = np.arange(1 << self.cut)
        self.code_cols = (codes[:, None] >> np.arange(self.cut) & 1).astype(bool)
        self.code_prod = np.where(self.code_cols, small, 1).prod(axis=1)  # of its primes
        self.large = large = base[self.cut:]
        self.stride = 2 * large
        reach = -(-(size + 1) // self.stride)  # the most multiples of 2p a window holds
        self.owner = np.repeat(np.arange(large.size), reach)  # intp, for take
        self.odd = np.empty(self.owner.size, dtype=np.int64)
        self.even = np.empty(self.owner.size, dtype=np.int64)
        # pattern[i] = j * 2p for the j-th entry of p = large[owner[i]],
        # built through odd so that no other array of that length is made
        self.pattern = np.arange(self.owner.size, dtype=np.int32)
        self.pattern -= np.take(np.cumsum(reach) - reach, self.owner, out=self.odd)
        self.pattern *= np.take(self.stride, self.owner, out=self.odd)
        self.first = np.empty(large.size, dtype=np.int64)
        self.gathered = np.empty(self.owner.size, dtype=np.int32)
        self.hit = np.empty(self.owner.size, dtype=bool)
        window = size + 1 + (2 * int(large[-1]) if large.size else 0)  # and padding
        self.bits = np.empty(size + 1, dtype=np.uint16)
        # the codes of 0, 1, 2, ... over the spokes, the leading small primes
        # whose product, the wheel, is at most _WHEEL: bits[i] of a window
        # from start is wheel_codes[start % wheel + i]
        self.spokes = bisect_right(list(accumulate(small, operator.mul)), _WHEEL)
        self.wheel = prod(small[:self.spokes])
        self.wheel_codes = np.zeros(self.wheel + size + 1, dtype=np.uint16)
        for j, p in enumerate(small[:self.spokes]):
            self.wheel_codes[::p] |= 1 << j
        self.flags = np.empty(window, dtype=bool)
        self.row_of = np.full(window, -1, dtype=np.int32)
        # a segment of size integers holds at most (size + 1) // 2 odd ones
        # and size.bit_length() + 1 powers of 2
        rows = (size + 1) // 2 + size.bit_length() + 1
        width = bisect_right(_PRIMORIALS, max(plan.hi - 1, 1))
        self.buf = np.empty((rows, width), dtype=np.int64)
        self.exps = np.empty((rows, width), dtype=np.int8)
        self.powers_of_2 = 1 << np.arange(63, dtype=np.int64)  # searchsorted: exponent

    def prime_powers(self, seg_lo: int, seg_hi: int, ceilings=None):
        """Every prime power q = p^k in [seg_lo, seg_hi), ascending, as int64
        arrays (q, p, k), and the codes of the window in self.bits: bit j
        of bits[q - seg_lo] is set when the j-th base prime divides q - 1,
        for the first `cut`.

        With ceilings, only the q at or below table[code of q - 1] are
        kept, for the int64 table = ceilings(seg_hi - 2), one entry per
        code. The candidates are the small base primes, the higher powers
        and the q of code 0 whose q - 1 the primes shared by every live code
        (entry >= seg_lo, product of primes <= seg_hi - 2) divide: 1 in
        30030 in the n = 2 scan past 3.2e7. When none is kept, the large
        primes are never touched."""
        if seg_lo < self.plan.lo or seg_hi - seg_lo > self.size or seg_hi > self.plan.hi + 1:
            raise ValueError(f"segment [{seg_lo}, {seg_hi}) is outside the kernel's plan")
        start, span = seg_lo - 1, seg_hi - seg_lo + 1
        flags, base, bits = self.flags, self.base, self.bits[:span]
        turn = start % self.wheel
        bits[:] = self.wheel_codes[turn:turn + span]
        for j, p in enumerate(base[self.spokes:self.cut].tolist(), self.spokes):
            bits[-start % p::p] |= 1 << j
        step = 1  # the q - 1 of every candidate of code 0 is a multiple of step
        if ceilings is not None:
            table = ceilings(seg_hi - 2)
            live = np.flatnonzero((table >= seg_lo) & (self.code_prod <= seg_hi - 2))
            if not live.size:
                return (np.zeros(0, dtype=np.int64),) * 3
            step = int(self.code_prod[np.bitwise_and.reduce(live)])
        # code 0: primes past the cut, their powers and their composites
        offset = -start % step
        q = np.flatnonzero(bits[offset + 1::step] == 0) * step + (seg_lo + offset)
        first, last = np.searchsorted(base, (seg_lo, seg_hi))  # base primes inside
        sure = [(v, v, 1) for v in base[min(first, self.cut):min(last, self.cut)].tolist()]
        sure = np.array(sure + self.higher[bisect_left(self.higher, (seg_lo,)):
                                           bisect_left(self.higher, (seg_hi,))],
                        dtype=np.int64).reshape(-1, 3).T
        if ceilings is not None:
            q = q[q <= table[bits[q - seg_lo]]]
            sure = sure[:, sure[0] <= table[bits[sure[0] - seg_lo]]]
            if not q.size and not sure.shape[1]:
                return q, q, q
        flags[q - start] = True
        self._multiples(self.large - start, self.odd)
        flags[self.odd] = False  # offsets past the window land in the padding
        flags[base[first:last] - start] = True
        q = q[flags[q - start]]
        qpk = np.concatenate((np.stack((q, q, np.ones_like(q))), sure), axis=1)
        q, p, k = qpk[:, np.argsort(qpk[0])]
        return q, p, k

    def _multiples(self, shift, out: np.ndarray):
        """Fill out with the window offsets shift mod 2p + j * 2p of each large
        prime p: shift = p - start gives its odd multiples and -start its
        even ones, for a window from start."""
        np.remainder(shift, self.stride, out=self.first)
        np.take(self.first, self.owner, out=out, mode="clip")
        np.add(out, self.pattern, out=out)

    def _gather(self, index: np.ndarray):
        """(i, row) for each entry i of index, a multiple of large[owner[i]],
        that lands on a row."""
        np.take(self.row_of, index, out=self.gathered, mode="clip")
        np.greater_equal(self.gathered, 0, out=self.hit)
        hit = np.flatnonzero(self.hit)
        return hit, self.gathered[hit]

    def segment(self, seg_lo: int, seg_hi: int, ceilings=None):
        """(q, p, k, primes, exps, omega) for the kept prime powers of the
        segment [seg_lo, seg_hi): q, p, k as in `prime_powers`, and
        primes[i, :omega[i]] the distinct primes of q[i] - 1, ascending, with
        their exponents in exps[i, :omega[i]] (int8), 0 past them. primes and
        exps have one column per prime the largest omega below seg_hi - 1
        allows. Needs hi < 2^42, so that each p times a power of p dividing
        m stays below 2^63.

        ceilings, called once, drops rows as in `prime_powers`; with None
        every row is kept."""
        q, p, k = self.prime_powers(seg_lo, seg_hi, ceilings)
        base = self.base
        width = bisect_right(_PRIMORIALS, max(seg_hi - 2, 1))
        code = self.bits[q - seg_lo]  # q - 1's offset in the window from seg_lo - 1
        m, n = q - 1, q.size
        if not n:
            return q, p, k, self.buf[:0, :width], self.exps[:0, :width], np.zeros(0, np.intp)
        offsets = q - seg_lo
        self.row_of[offsets] = np.arange(n, dtype=np.int32)
        hits = []
        odd_m = m & 1
        if not odd_m.all():
            self._multiples(1 - seg_lo, self.even)
            hits.append(self._gather(self.even))
        if odd_m.any():
            hits.append(self._gather(self.odd))
        self.row_of[offsets] = -1
        hit, hit_rows = (np.concatenate(a) for a in zip(*hits))
        flat = np.flatnonzero(self.code_cols[code])  # row * cut + index of a small prime
        keys = np.concatenate((flat + flat // self.cut * (base.size - self.cut),
                               hit_rows.astype(np.int64) * base.size
                               + (self.owner[hit] + self.cut)))
        keys.sort()
        rows = keys // base.size
        which = keys - rows * base.size
        ps = base[which]
        buf, exps = self.buf[:n], self.exps[:n]
        buf.fill(0)
        exps.fill(0)
        cnt = np.bincount(rows, minlength=n)
        row_start = np.cumsum(cnt) - cnt
        cols = np.arange(rows.size) - row_start[rows]
        buf[rows, cols] = ps
        power = ps.copy()  # grows to the largest power of p dividing the row's m
        e = np.ones(ps.size, dtype=np.int8)
        mult = m[rows]
        even = np.flatnonzero(which == 0)  # base[0] = 2: its power is m & -m
        power[even] = mult[even] & -mult[even]
        e[even] = np.searchsorted(self.powers_of_2, power[even])
        sub = np.flatnonzero(which)
        while sub.size:
            sub = sub[mult[sub] % (power[sub] * ps[sub]) == 0]
            power[sub] *= ps[sub]
            e[sub] += 1
        exps[rows, cols] = e
        rem = m.copy()
        factored = np.flatnonzero(cnt)
        if factored.size:
            rem[factored] //= np.multiply.reduceat(power, row_start[factored])
        left = np.flatnonzero(rem > 1)
        buf[left, cnt[left]] = rem[left]
        exps[left, cnt[left]] = 1
        cnt[left] += 1
        return q, p, k, buf[:, :width], exps[:, :width], cnt


def prime_power_iter(lo: int, hi: int):
    """Yield every prime power q = p^k in [lo, hi], ascending, as (p, k, q)."""
    plan = prime_power_segments(lo, hi, DEFAULT_SEGMENT)
    kernel = SegmentKernel(plan)
    for segment in plan:
        q, p, k = kernel.prime_powers(*segment)
        yield from zip(p.tolist(), k.tolist(), q.tolist())


# ---------------------------------------------------------------------------
# Raw polynomial arithmetic over Z_p (coefficient lists, low degree first).
# Only used to find an extension field's modulus, before tables exist.
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


class _Table:
    """A FieldCtx table, exp or dlog: the first read of either builds both
    and sets them on the context, where later reads find them first, with
    dlog also as `_logs`, which scalar operations read to learn whether the
    tables exist without building them.

    Unlike functools.cached_property, it sets them with plain attribute
    assignment and leaves the instance __dict__ alone: CPython 3.11 reads
    every attribute of an object about 30% slower once its __dict__ is
    asked for, self.p and self.k in each scalar operation included (`mul`
    on F_199: 93 ns, 123 ns after a cached_property table was read).
    A `__getattr__` hook in its place slows every FieldCtx attribute load:
    `mul` went from 84 to 195 ns on F_199, and from 531 to 685 ns on F_3^5.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return self
        ctx.exp, ctx.dlog = _build_tables(ctx.p, ctx.k, ctx.g, ctx._gen_matrix)
        ctx._logs = ctx.dlog
        return getattr(ctx, self.name)


class FieldCtx:
    """A finite field F_{p^k}: its generator g, the factorization of q - 1
    and, built on first use, the exp/dlog tables.

    `exp` and `dlog` are built together by `_build_tables` the first time
    either is read: by a vector operation or by a scalar operation of an
    extension field. Scalar operations of a prime field build no table:
    they use Python `pow`, and `dlog_of` solves by Pohlig-Hellman; only
    `is_primitive` reads dlog once something else has built the tables.
    Nothing else changes after construction. A FieldCtx may
    be shared across threads: two threads that first read a table at the
    same time may each build it, and both builds are equal.
    Use :func:`field_make` to build one.
    """

    def __init__(self, p: int, k: int, modulus, g: int, qm1: Factorization,
                 gen_matrix: np.ndarray | None = None):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # coeff tuple, low first, monic; None for k == 1
        self.g = g
        self.qm1 = qm1
        self._gen_matrix = gen_matrix  # matrix of v -> v*g, float64; None for k == 1
        self._cofactors = tuple((self.q - 1) // r for r in qm1.primes)
        self._pow_p = tuple(p**i for i in range(k))
        self._logs = None  # dlog once the tables are built, read without building them

    exp = _Table()  # exp[t] = g^t for 0 <= t < q - 1
    dlog = _Table()  # dlog[a] = t with g^t = a for a != 0, dlog[0] = -1

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
        if self.k == 1:
            return pow(int(a), -1, self.p)
        m = self.q - 1
        return int(self.exp[(m - int(self.dlog[a])) % m])

    def div(self, a, b) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0 if e else 1
        if self.k == 1:
            return pow(int(a), e, self.p)
        m = self.q - 1
        return int(self.exp[(int(self.dlog[a]) * e) % m])

    # -- discrete logs and derived predicates --------------------------------

    def dlog_of(self, a) -> int:
        if a == 0:
            raise ValueError("0 has no discrete log")
        if self.k == 1:
            return _pohlig_hellman(int(a), self.g, self.p, self.qm1.factors)
        return int(self.dlog[a])

    def exp_of(self, t: int) -> int:
        if self.k == 1:
            return pow(self.g, t, self.p)
        return int(self.exp[t % (self.q - 1)])

    def order_of(self, a) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        if self.k == 1:
            return _order_mod(int(a), self.p, self.qm1.primes)
        t = int(self.dlog[a])
        return (self.q - 1) // gcd(t, self.q - 1)

    def is_primitive(self, a) -> bool:
        """True iff a generates the multiplicative group: gcd(dlog a, q - 1)
        = 1 once the tables are built, which a prime field does not ask for;
        until then a^((q-1)/l) != 1 for every prime l of q - 1."""
        if a == 0:
            return False
        logs = self._logs
        if logs is None:
            if self.k == 1:
                a = int(a)
                return all(pow(a, c, self.p) != 1 for c in self._cofactors)
            logs = self.dlog
        return gcd(int(logs[a]), self.q - 1) == 1

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

        Equivalent to gcd(dlog a, rad u) == 1, and in a prime field to
        a^((q-1)/r) != 1 for every prime r | u; the brute-force power test is
        kept in the test suite as the independent oracle.
        """
        r = self.rad_of_divisor(u)
        if a == 0:
            return False
        if self.k == 1:
            a, m = int(a), self.q - 1
            return all(pow(a, m // s, self.p) != 1 for s in self.qm1.primes if r % s == 0)
        return gcd(int(self.dlog[a]), r) == 1

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


def _least_generator(p: int, k: int, modulus: tuple[int, ...],
                     cofactors: list[int]) -> tuple[int, np.ndarray]:
    """The least packed value g >= 1 of F_{p^k}, k > 1, with g^e != 1 for
    every e in cofactors, and the k x k matrix of v -> v*g, whose column i
    holds the digits of x^i*g.

    Candidates are tested in blocks of _GEN_BLOCK,
    2*_GEN_BLOCK, ... values. Each candidate c becomes its matrix,
    sum_i c_i*X^i with X the companion matrix of the modulus. One stack
    holds, for every candidate of a block, the k columns of the matrix of
    c^(2^j) and, for every cofactor e, the digits of c^(e mod 2^j). One
    product of the matrix with the whole stack per bit j squares the matrix
    and multiplies c^(2^j) into the columns of the cofactors that have bit j
    set. Entries stay below p, so every sum of products is below k*p^2 and
    exact in int64. The matrix of g is returned as float64, for field_make's
    float64 doubling step.
    """
    comp = np.eye(k, k, -1, dtype=np.int64)  # x * x^i = x^(i+1) for i < k-1
    comp[:, -1] = [-c % p for c in modulus[:-1]]
    xpow = np.empty((k, k, k), dtype=np.int64)  # xpow[i]: the matrix of x^i
    xpow[0] = np.eye(k)
    for i in range(1, k):
        xpow[i] = xpow[i - 1] @ comp % p
    xpow = xpow.reshape(k, k * k)
    pow_p = p ** np.arange(k, dtype=np.int64)
    # bit j: the k matrix columns square, cofactor column k + i multiplies
    exps = np.array(cofactors, dtype=np.int64)
    bits = np.ones((max(cofactors, default=0).bit_length(), 1, k + len(exps)), dtype=bool)
    bits[:, 0, k:] = exps >> np.arange(len(bits))[:, None] & 1
    lo, size = 1, _GEN_BLOCK
    while lo < p**k:
        cand = np.arange(lo, min(lo + size, p**k), dtype=np.int64)
        mats = (cand[:, None] // pow_p % p @ xpow).reshape(-1, k, k) % p
        stack = np.zeros((len(cand), k, k + len(exps)), dtype=np.int64)
        stack[:, :, :k] = mats
        stack[:, 0, k:] = 1  # the digits of c^0 = 1
        for row in bits:
            np.remainder(stack[:, :, :k] @ stack, p, out=stack, where=row)
        hit = np.flatnonzero((pow_p @ stack[:, :, k:] != 1).all(axis=1))
        if hit.size:
            return int(cand[hit[0]]), mats[hit[0]].astype(np.float64)
        lo, size = lo + size, 2 * size
    raise ArithmeticError(f"no generator found for F_{p**k}")  # unreachable


def _doubling_steps(gt, square, m: int):
    """Yield (t, s, g^t) for each doubling step exp[t:t+s] = exp[:s] * g^t of
    field_make, t = 2, 4, 8, ... < m and s = min(t, m - t); exp[:2] = [1, g]
    needs no step. g^t starts at g and is carried from step to step by
    square, which takes g^t to g^(2t): in a prime field g^t is an int and
    square is v * v % p, in an extension field it is the matrix of v -> v*g^t
    and square is a @ a % p.
    """
    t = 2
    while t < m:
        gt = square(gt)
        yield t, min(t, m - t), gt
        t *= 2


def field_make(p: int, k: int) -> FieldCtx:
    """Construct F_{p^k} with its primitive root and q-1 factorization; its
    exp/dlog tables are built on first use, by `_build_tables`.

    The primitive root is the least element (packed order) of order q - 1 and
    the modulus is the first monic irreducible of degree k, so two runs always
    build the identical field. A prime field finds g by scalar `pow` tests,
    an extension field by `_least_generator`, a block of candidates at a time
    in numpy, which also gives the matrix of v -> v*g that the table build
    needs. q above DEFAULT_TABLE_CAP is refused here, before any table is
    asked for.
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
    qm1 = factorize(q - 1)
    cofactors = [(q - 1) // r for r in qm1.primes]
    if k == 1:
        # F_2 gets g = 1: with no cofactor to test, the first candidate wins.
        g = next(c for c in range(1, p) if all(pow(c, e, p) != 1 for e in cofactors))
        return FieldCtx(p, k, None, g, qm1)
    modulus = _find_modulus(p, k)
    g, mat = _least_generator(p, k, modulus, cofactors)
    return FieldCtx(p, k, modulus, g, qm1, mat)


def _build_tables(p: int, k: int, g: int, mat: np.ndarray | None):
    """The (exp, dlog) tables of F_{p^k} with generator g; mat is the matrix
    of v -> v*g for k > 1, None for k = 1.

    exp = [1, g, ...] is filled by doubling, exp[t:t+s] = exp[:s] * g^t for
    t = 2, 4, 8, ... < q-1 and s = min(t, q-1-t), with g^t carried from step
    to step and squared mod p. In F_p a step is one int64 product and one
    remainder mod p, in place. In F_{p^k}, k > 1, multiplying by g^t is
    F_p-linear: a k x k matrix product on the base-p digits. No step loops
    over elements or polynomials in Python. dlog inverts exp, with -1 at 0,
    and is checked to cover every nonzero element.
    """
    q = p**k
    m = q - 1
    exp = np.ones(m, dtype=np.int64)
    if k == 1:
        exp[1:2] = g  # exp[1] = g^1, absent when q = 2
        # exp[:s] and g^t are below p, so each product is at most (p-1)^2
        # and exact in int64.
        for t, s, gt in _doubling_steps(g, lambda v: v * v % p, m):
            step = exp[t:t + s]
            np.multiply(exp[:s], gt, out=step)
            np.remainder(step, p, out=step)
    else:
        exp[1] = g
        # A step is exact in float64: floor(a / b) is exact for integers with
        # a + b < 2^53, each partial sum of a product is below k*(p-1)*q <=
        # q^2 <= 2^52 in size, and squaring the carried matrix sums k products
        # below p^2 each. With M the matrix of g^t, digit i of v is
        # floor(v / p^i) - p*floor(v / p^(i+1)), so A = [M|0] - p[0|M] takes
        # [floor(v / p^i) for i = 0..k] to the digits of v*g^t before
        # reduction mod p. Blocks of _BUILD_CELLS cells stay in cache and
        # below the size at which BLAS starts threads.
        digits = np.eye(k, k + 1) - p * np.eye(k, k + 1, 1)  # [I|0] - p[0|I]
        pow_p = np.array([p**i for i in range(k + 1)], dtype=np.float64)[:, None]
        width, pack = _BUILD_CELLS // k, pow_p[:-1, 0]
        for t, s, gt in _doubling_steps(mat, lambda a: a @ a % p, m):
            step = gt @ digits
            for lo in range(0, s, width):
                hi = min(lo + width, s)
                sums = step @ np.floor(exp[lo:hi] / pow_p)
                sums -= p * np.floor(sums / p)
                exp[t + lo:t + hi] = pack @ sums

    dlog = np.full(q, -1, dtype=np.int64)
    dlog[exp] = np.arange(m, dtype=np.int64)
    if int(dlog[1]) != 0 or (m > 1 and int(dlog[g]) != 1) or (dlog[1:] < 0).any():
        raise ArithmeticError("discrete log table failed self-check")
    return exp, dlog


def _pohlig_hellman(a: int, g: int, p: int, factors) -> int:
    """The t in [0, p-1) with g^t = a mod p, for a in [1, p), g a generator
    of F_p* and factors the (prime, exponent) pairs of p - 1; no table.

    Pohlig and Hellman (1978): t is found mod each prime power r^e of p - 1,
    one base-r digit at a time, and the residues are joined by the Chinese
    remainder theorem. Digit i of t mod r^e is the log of
    (a * g^-x)^((p-1)/r^(i+1)), x = t mod r^i, to the base g^((p-1)/r), an
    element of order r. Shanks' baby-step giant-step finds it in at most
    2 * ceil(sqrt(r)) products.
    """
    m, g_inv = p - 1, pow(g, -1, p)
    t, mod = 0, 1
    for r, e in factors:
        n = isqrt(r - 1) + 1  # n * n >= r: digit = i * n + j, i, j < n
        gr = pow(g, m // r, p)
        baby, v = {}, 1
        for j in range(n):
            baby[v] = j
            v = v * gr % p
        giant = pow(gr, -n, p)
        x, re = 0, 1  # x = t mod re, re = r^i
        for _ in range(e):
            h = pow(a * pow(g_inv, x, p) % p, m // (re * r), p)
            i = 0
            while h not in baby:
                h, i = h * giant % p, i + 1
            x += (i * n + baby[h]) * re
            re *= r
        t += mod * ((x - t) * pow(mod, -1, re) % re)
        mod *= re
    return t
