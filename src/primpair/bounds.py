"""Closed-form certification criteria for primitive-pair existence.

Two tests certify q for degree-n rational functions:

 - the direct condition sqrt(q) > n * W(q-1)^2, and
 - its sieve refinement: pick a divisor l of q-1, sieve the remaining primes
   p_1..p_s of q-1, and require sqrt(q) > n * D * W(l)^2 where
   delta = 1 - 2*sum(1/p_i) > 0 and D = (2s-1)/delta + 2.

Everything that decides a certification is exact: delta and D are rationals
and the square-root comparison is done on cleared denominators, so a float
can never flip a verdict at a boundary. Floats appear only in reports.

One integer kernel decides the criterion for a core made of the least
primes of q-1: `sieve_pass_prefix` on one core size, `best_prefix` on every
size in one sweep, and `prefix_terms` reads delta, Delta and the threshold
off it. Scans, `check-bound` and the worst-case grid hold no other copy of
the criterion. `omega_thresholds` gives the least worst-case threshold^2 for
each omega(q-1), and `code_thresholds` the same once the primes of q-1 below
a cut are known; its `ceilings` bounds omega(q-1) from a bound on q - 1 and
those primes alone, one entry per code, and a scan drops the rows above
their code's entry, in int64, before it sieves out their primality. No float
takes part in a scan.
`SieveParams` and the all-subsets `best_sieve` are the kernel's Fraction oracle.

The module also carries the worst-case passes that the `tables` subcommand
reproduces. A pass assumes a range for omega(q-1) and puts the least primes
of q-1 into the core, so its sieved primes are at worst the next primes
overall; `worst_case_pass` is `prefix_terms` on the first max_omega primes.
One `PassTarget` per pass holds its arguments and published constants, and
`check_pass_target` sets the computed values beside them. Last comes the
W(m) <= c_m * m^(1/6) machinery that turns the direct condition into
explicit general bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, takewhile
from math import prod, sqrt
from operator import mul

import numpy as np

from .ffcore import Factorization, factorize, sieve_primes

# Primes below 64: the support of the c_m coefficient. Adding any of them to
# the support multiplies c_m by 2/p^(1/6) > 1, so the full set is the maximum.
PRIMES_BELOW_64 = tuple(int(p) for p in sieve_primes(63))

_FIRST_PRIMES = tuple(int(p) for p in sieve_primes(200))  # plenty for omega <= 46

BEST_SIEVE_OMEGA_CAP = 20
OMEGA_MAX = 10  # a scanned q - 1 has at most 10 primes: 11 multiply past the scan ceiling


class InapplicableCriterion(ValueError):
    """The sieve hypothesis delta > 0 fails: no verdict, not a failure."""


def direct_criterion_check(n: int, q: int, qm1: Factorization | int) -> bool:
    """Exact test of sqrt(q) > n * W(q-1)^2, i.e. q > n^2 * W^4."""
    if n < 2:
        raise ValueError("degree n must be >= 2")
    w = qm1.num_squarefree_divisors if isinstance(qm1, Factorization) else int(qm1)
    return q > n * n * w**4


def c_m(m: Factorization | int) -> float:
    """The coefficient 2^s / (p_1*...*p_s)^(1/6) over the primes < 64 dividing m."""
    if isinstance(m, int):
        m = factorize(m)
    ps = [p for p in m.primes if p < 64]
    return 2.0 ** len(ps) / prod(ps) ** (1.0 / 6.0) if ps else 1.0


def c_m_supremum(odd_only: bool = False) -> float:
    """Largest possible c_m: all primes < 64 in the support (odd ones only if asked)."""
    ps = [p for p in PRIMES_BELOW_64 if not (odd_only and p == 2)]
    return 2.0 ** len(ps) / prod(ps) ** (1.0 / 6.0)


def wm_bound_check(m: Factorization | int) -> bool:
    """Verify W(m) <= c_m * m^(1/6), as an exact integer inequality.

    Raising both sides to the sixth power gives W^6 * (p_1*...*p_s) <= 2^(6s) * m.
    """
    if isinstance(m, int):
        m = factorize(m)
    ps = [p for p in m.primes if p < 64]
    lhs = m.num_squarefree_divisors ** 6 * prod(ps)
    return lhs <= (1 << (6 * len(ps))) * m.value


@dataclass(frozen=True)
class SieveParams:
    """A sieve configuration for one q: core primes define l, the rest are sieved.

    Only the set of core primes matters (W(l) = 2^|core| and delta depend on
    nothing else), so l is represented by its radical.
    """

    q: int
    qm1: Factorization
    core: tuple[int, ...]
    sieved: tuple[int, ...]

    @classmethod
    def from_core(cls, q: int, qm1: Factorization, core) -> "SieveParams":
        core = tuple(sorted(core))
        if any(p not in qm1.primes for p in core):
            raise ValueError("core primes must divide q-1")
        sieved = tuple(p for p in qm1.primes if p not in core)
        return cls(q, qm1, core, sieved)

    @property
    def num_sieved(self) -> int:
        return len(self.sieved)

    @property
    def w_l(self) -> int:
        """W(l) = number of square-free divisors of the core product."""
        return 1 << len(self.core)

    @property
    def delta(self) -> Fraction:
        return 1 - 2 * sum(Fraction(1, p) for p in self.sieved)

    @property
    def applicable(self) -> bool:
        return self.num_sieved == 0 or self.delta > 0

    @property
    def big_delta(self) -> Fraction:
        """(2s-1)/delta + 2, hard-coded to 1 when nothing is sieved."""
        if self.num_sieved == 0:
            return Fraction(1)
        d = self.delta
        if d <= 0:
            raise InapplicableCriterion(f"delta = {d} <= 0 for core {self.core}")
        return Fraction(2 * self.num_sieved - 1) / d + 2

    def threshold(self, n: int) -> Fraction:
        """n * bigDelta * W(l)^2; the criterion is sqrt(q) > this."""
        return n * self.big_delta * self.w_l**2

    def passes(self, n: int) -> bool:
        """Exact q > threshold^2 on cleared denominators."""
        thr = self.threshold(n)
        return self.q * thr.denominator**2 > thr.numerator**2


def sieve_check(params: SieveParams, n: int) -> tuple[bool, float]:
    """Apply the sieve criterion; returns (passed, float margin sqrt(q) - threshold).

    Raises InapplicableCriterion when delta <= 0 (distinct from failing).
    """
    if n < 2:
        raise ValueError("degree n must be >= 2")
    if not params.applicable:
        raise InapplicableCriterion(
            f"delta = {params.delta} <= 0 for core {params.core} (q={params.q})")
    margin = sqrt(params.q) - float(params.threshold(n))
    return params.passes(n), margin


def best_sieve(q: int, n: int, qm1: Factorization | None = None) -> tuple[bool, SieveParams]:
    """Try every core subset of the primes of q-1; return the best configuration.

    The exhaustive Fraction oracle for `best_prefix`; nothing in production
    calls it.

    Best = smallest exact threshold (largest margin); ties go to the
    lexicographically smallest core. Inapplicable subsets (delta <= 0) are
    skipped; the full core is always applicable so a best always exists.
    """
    if qm1 is None:
        qm1 = factorize(q - 1)
    if qm1.omega > BEST_SIEVE_OMEGA_CAP:
        raise ValueError(f"omega(q-1) = {qm1.omega} exceeds subset cap {BEST_SIEVE_OMEGA_CAP}")
    best: SieveParams | None = None
    best_thr: Fraction | None = None
    for size in range(qm1.omega + 1):
        for core in combinations(qm1.primes, size):
            params = SieveParams.from_core(q, qm1, core)
            if not params.applicable:
                continue
            thr = params.threshold(n)
            if best_thr is None or thr < best_thr or (thr == best_thr and core < best.core):
                best, best_thr = params, thr
    return best.passes(n), best


def _prefix_threshold(n: int, core_size: int, s: int, big_p: int,
                      tail: int) -> tuple[int, int] | None:
    """(thr_num, thr_den) with n * Delta * W(l)^2 = thr_num / thr_den for a
    core of core_size primes and s sieved ones, whose product is big_p and
    tail = sum(big_p // p) over them; None when delta <= 0.

    With A = big_p * delta = big_p - 2 * tail, Delta = ((2s-1) * big_p + 2A) / A;
    sieving nothing gives Delta = 1, the direct criterion.
    """
    if s == 0:
        a = b = 1
    else:
        a = big_p - 2 * tail
        if a <= 0:
            return None
        b = (2 * s - 1) * big_p + 2 * a
    return n * (1 << (2 * core_size)) * b, a


def sieve_pass_prefix(q: int, primes: list[int], core_size: int,
                      n: int) -> tuple[bool, int, int] | None:
    """The criterion with the core_size least primes of q-1 (ascending) as core.

    None when delta <= 0 (inapplicable), else (passes, thr_num, thr_den) with
    n * Delta * W(l)^2 = thr_num / thr_den (see `_prefix_threshold`); passes
    is q * thr_den^2 > thr_num^2.
    """
    if n < 2:
        raise ValueError("degree n must be >= 2")
    sieved = primes[core_size:]
    big_p = prod(sieved)
    res = _prefix_threshold(n, core_size, len(sieved), big_p,
                            sum(big_p // p for p in sieved))
    if res is None:
        return None
    num, den = res
    return q * den * den > num * num, num, den


def best_prefix(q: int, primes: list[int], n: int) -> tuple[str, int, int, int]:
    """(verdict, core_size, thr_num, thr_den) for q over every prefix core.

    The best core is the applicable prefix with the smallest threshold, ties
    going to the shorter one. Per size the least-primes core maximizes delta,
    so this agrees with the all-subsets `best_sieve` in verdict and best core.
    verdict: pass_thm31 if the full core (direct criterion) passes, else
    pass_sieve if any prefix passes, else candidate.

    One sweep from core size omega down to 0 carries the sieved primes'
    product and its `_prefix_threshold` tail: adding p to the sieved primes
    takes (P, tail) to (P * p, tail * p + P). delta only falls as the core
    shrinks, so the sweep stops at the first inapplicable size.
    """
    if n < 2:
        raise ValueError("degree n must be >= 2")
    omega = len(primes)
    big_p, tail = 1, 0
    best, verdict = None, "candidate"
    for r in range(omega, -1, -1):
        if r < omega:
            big_p, tail = big_p * primes[r], tail * primes[r] + big_p
        res = _prefix_threshold(n, r, omega - r, big_p, tail)
        if res is None:
            break
        num, den = res
        if best is None or num * best[2] <= best[1] * den:
            best = (r, num, den)
        if verdict == "candidate" and q * den * den > num * num:
            verdict = "pass_thm31" if r == omega else "pass_sieve"
    return (verdict, *best)


def prefix_terms(primes, core_size: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(delta, Delta, n * Delta * W(l)^2) for the core_size least primes as
    core, off the kernel's integers (thr_den = delta * the sieved primes'
    product); q plays no part. InapplicableCriterion when delta <= 0."""
    res = sieve_pass_prefix(0, primes, core_size, n)
    if res is None:
        raise InapplicableCriterion(f"delta <= 0 when sieving {tuple(primes[core_size:])}")
    threshold = Fraction(res[1], res[2])
    return (Fraction(res[2], prod(primes[core_size:])),
            threshold / (n << 2 * core_size), threshold)


def _least_threshold_sq(primes, n: int) -> int:
    """The floor of the least threshold^2 that `best_prefix` finds on primes,
    clipped at 2^63 - 1 so that it fits int64."""
    num, den = best_prefix(0, list(primes), n)[2:]
    return min(num * num // (den * den), 2**63 - 1)


@lru_cache(maxsize=None)
def omega_thresholds(n: int) -> np.ndarray:
    """T[w] for w = 0..OMEGA_MAX, read-only int64: the floor of the least
    threshold^2 that `best_prefix` finds on the first w primes, the least of
    `worst_case_pass(n, w, w, r)` over r, clipped at 2^63 - 1.

    T[w] is the `CodeThresholds` entry of the code of the first w primes
    (for any cut >= w), and at least every entry for w, so the proofs there
    hold for it: an integer q > T[w] with omega(q - 1) <= w passes, whatever
    its primes, and T never decreases. r = w sieves nothing, so T[w] <=
    n^2 * 16^w, the direct bound.
    """
    table = np.array([_least_threshold_sq(_FIRST_PRIMES[:w], n)
                      for w in range(OMEGA_MAX + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table


class CodeThresholds:
    """T_c[code, w] for a code over the first `cut` primes, filled on first
    use: the floor of the least threshold^2 that `best_prefix` finds on S
    united with the w - |S| least primes past the cut-th prime, S the set
    of primes whose bits the code sets, clipped at 2^63 - 1. w runs from
    |S| to OMEGA_MAX. `ceilings` reads w off a bound on q - 1 and the code.

    Dominance. Let q - 1 have exactly the primes S among the first cut
    primes, and omega(q - 1) = w. Its other primes x_1 < ... < x_j,
    j = w - |S|, are past the cut-th prime and distinct, so x_i is at least
    the i-th prime past it, y_i. Lowering each x_i to y_i lowers no order
    statistic, so the i-th least prime of q - 1 is at least the i-th of
    L = S + (y_1, ..., y_j), sorted. With r the core size that attains
    T_c[code, w] on L, q - 1 has the same number of sieved primes, each at
    least its counterpart in L: delta >= delta_L > 0 and Delta <= Delta_L,
    while W(l) = 2^r is the same. So q > T_c[code, w] (an integer above the
    floor of threshold_L^2) gives sqrt(q) > threshold_L >= q's threshold for
    core r: q passes.

    Monotonicity. T_c[code, w + 1] >= T_c[code, w]: L grows by y_{j+1},
    which is past every prime of L, so for each core size r <= w the core is
    the same and the sieved primes gain y_{j+1}, lowering delta (or making
    it <= 0) and raising Delta, and core size w + 1 sieves nothing with a
    core one prime longer, 16 times the threshold^2 of core size w. Floor
    and clip keep the order. So any w >= omega(q - 1) will do.

    The bound on omega. The product x_1 * ... * x_j divides (q - 1) / prod(S),
    and is at least y_1 * ... * y_j, so j <= l(q - 1), where l(m) is the
    most primes past the cut-th whose product is at most m // prod(S). l
    never decreases in m, so for any m_max >= q - 1,
    w = |S| + l(m_max) >= omega(q - 1), and by monotonicity q above
    T_c[code, w] passes. A code with prod(S) > m_max belongs to no q - 1 up
    to m_max.

    Any w primes, sorted, are at least the first w primes, one by one, so by
    the same dominance T_c[code, w] <= omega_thresholds(n)[w], with equality
    at the code of the first w primes, where L is those primes.
    """

    def __init__(self, n: int, cut: int):
        self.n = n
        self.code_primes, self.past = _FIRST_PRIMES[:cut], _FIRST_PRIMES[cut:]
        self.table = np.full((1 << cut, OMEGA_MAX + 1), -1, dtype=np.int64)
        # each code's |S| and prod(S)
        cols = np.arange(1 << cut)[:, None] >> np.arange(cut) & 1
        self.size = cols.sum(axis=1)
        self.prod = np.where(cols, self.code_primes, 1).prod(axis=1)
        # a code's w is |S| from m = prod(S) on and steps up at prod(S) times
        # each past product: the steps below 2^63, ascending, with their codes
        times = np.array([1, *takewhile(lambda v: v < 1 << 63, accumulate(self.past, mul))])
        fits = times <= (2**63 - 1) // self.prod[:, None]
        steps = (self.prod[:, None] * np.where(fits, times, 0))[fits]
        order = np.argsort(steps, kind="stable")
        self.steps, self.step_codes = steps[order].tolist(), np.nonzero(fits)[0][order]
        # a `ceilings` state: steps passed, each code's w (|S| - 1 before its
        # first step) and the table; before the first step no code is possible
        none = np.full(1 << cut, 2**63 - 1, dtype=np.int64)
        none.flags.writeable = False
        self.first = self.last = 0, self.size - 1, none

    def __call__(self, code: np.ndarray, w: np.ndarray) -> np.ndarray:
        """T_c[code[i], w[i]] for each i, filling the entries not yet met.
        ValueError for a w above OMEGA_MAX or below the code's primes."""
        if (w > OMEGA_MAX).any():
            raise ValueError(f"w = {w.max()} is above OMEGA_MAX = {OMEGA_MAX}")
        got = self.table[code, w]
        missing = np.flatnonzero(got < 0)
        if missing.size:
            for c, v in set(zip(code[missing].tolist(), w[missing].tolist())):
                primes = [p for j, p in enumerate(self.code_primes) if c >> j & 1]
                if v < len(primes):
                    raise ValueError(f"w = {v} is below the {len(primes)} primes of code {c}")
                self.table[c, v] = _least_threshold_sq(primes + list(self.past[:v - len(primes)]),
                                                       self.n)
            got = self.table[code, w]
        return got

    def ceilings(self, m_max: int) -> np.ndarray:
        """One int64 per code: T_c[code, |S| + l(m_max)], so that a q above
        the entry of its code passes when q - 1 <= m_max has exactly the
        code's primes among the first cut; 2^63 - 1, which passes no q, for
        a code with prod(S) > m_max. ValueError where that w is above
        OMEGA_MAX. The table is read-only and shared by every m_max between
        two steps; from the last call's on, only codes with a step between
        are read again."""
        at = bisect_right(self.steps, m_max)
        done, w, out = self.last
        if at != done:
            if at < done:
                done, w, out = self.first
            passed = np.bincount(self.step_codes[done:at], minlength=w.size)
            w = w + passed
            changed = np.flatnonzero(passed)
            out = out.copy()
            out[changed] = self(changed, w[changed])
            out.flags.writeable = False
            self.last = at, w, out
        return out


@lru_cache(maxsize=None)
def code_thresholds(n: int, cut: int) -> CodeThresholds:
    """The `CodeThresholds` of degree n over the first cut primes, one per
    (n, cut) and process."""
    return CodeThresholds(n, cut)


def worst_case_pass(n: int, min_omega: int, max_omega: int,
                    core_size: int) -> tuple[Fraction, Fraction, Fraction]:
    """(delta, Delta, threshold) at worst when min_omega <= omega(q-1) <=
    max_omega and the core_size least primes of q-1 form the core: the
    sieved primes are then at worst the (core_size+1)-th through
    max_omega-th primes overall, so this is `prefix_terms` on the first
    max_omega primes."""
    if not (max_omega >= min_omega >= core_size >= 0):
        raise ValueError("need max_omega >= min_omega >= core_size >= 0, got "
                         f"({min_omega}, {max_omega}, {core_size})")
    return prefix_terms(_FIRST_PRIMES[:max_omega], core_size, n)


def generic_cn(n: int) -> float:
    """The all-q bound n^6 * c^12 with c the universal c_m supremum constant.

    Reporting only; certification always goes through the exact criteria.
    """
    if n < 2:
        raise ValueError("degree n must be >= 2")
    return n**6 * 37.469**12


@dataclass(frozen=True)
class PassTarget:
    """A worst-case pass (`worst_case_pass`'s arguments) with its published
    constants, for regression checks.

    delta_lb / big_delta_ub are the printed truncations (delta from below,
    Delta from above); threshold_ub is the printed integer strict upper bound
    for n * Delta * W(l)^2.
    """

    n: int
    min_omega: int
    max_omega: int
    core_size: int
    delta_lb: str
    big_delta_ub: str
    threshold_ub: int


# The degree-2 narrative passes followed by the degree-3/4/5 grid rows.
PASS_TARGETS = (
    PassTarget(2, 5, 16, 5, "0.173170", "123.267943", 252453),
    PassTarget(2, 4, 10, 4, "0.2855034", "40.5284367", 20751),
    PassTarget(2, 4, 9, 4, "0.3544689", "27.3900959", 14024),
    PassTarget(2, 3, 8, 3, "0.1557111", "59.7993247", 7655),
    PassTarget(3, 5, 17, 5, "0.1392719", "167.1445296", 513468),
    PassTarget(3, 4, 11, 4, "0.2209872", "60.8269154", 46716),
    PassTarget(3, 4, 9, 4, "0.3544689", "27.3900959", 21036),
    PassTarget(4, 5, 17, 5, "0.1392719", "167.1445296", 684624),
    PassTarget(4, 4, 11, 4, "0.2209872", "60.8269154", 62287),
    PassTarget(4, 4, 9, 4, "0.3544689", "27.3900959", 28048),
    PassTarget(5, 5, 18, 5, "0.1064850", "236.7747170", 1212287),
    PassTarget(5, 4, 11, 4, "0.2209872", "60.8269154", 77859),
    PassTarget(5, 4, 9, 4, "0.3544689", "27.3900959", 35060),
)

DELTA_TOL = 1e-5
BIG_DELTA_TOL = 1e-3

# Published general bounds reproduced by generic_cn, 4 significant figures
# rounded upward (they are upper bounds, so the 4th digit rounds up).
GENERIC_CN_TARGETS = {2: 4.901e20, 3: 5.583e21, 4: 3.137e22, 5: 1.197e23}


def check_pass_target(row: PassTarget) -> dict:
    """Recompute one grid row: the dict `tables` prints, the computed values
    beside the pins and ok.

    ok needs delta within DELTA_TOL, Delta within BIG_DELTA_TOL, and the
    integer threshold to be the exact ceiling of the computed n * Delta * W(l)^2.
    """
    delta, big_delta, thr = worst_case_pass(row.n, row.min_omega, row.max_omega,
                                            row.core_size)
    # ceiling of an exact rational, then exact match with the printed bound
    ceil_thr = -(-thr.numerator // thr.denominator)
    ok = (abs(float(delta) - float(row.delta_lb)) <= DELTA_TOL
          and abs(float(big_delta) - float(row.big_delta_ub)) <= BIG_DELTA_TOL
          and ceil_thr == row.threshold_ub and thr < row.threshold_ub)
    return {"n": row.n, "min_omega": row.min_omega, "max_omega": row.max_omega,
            "W_l": 1 << row.core_size,
            "delta": float(delta), "delta_pinned": float(row.delta_lb),
            "big_delta": float(big_delta), "big_delta_pinned": float(row.big_delta_ub),
            "threshold": float(thr), "threshold_pinned": row.threshold_ub,
            "ok": ok}


def generic_cn_ok(n: int) -> bool:
    """Does generic_cn(n) reproduce its published GENERIC_CN_TARGETS value to
    one unit in the 4th significant digit?"""
    value = generic_cn(n)
    return abs(GENERIC_CN_TARGETS[n] - value) <= 10.0 ** (len(f"{int(value):d}") - 4)
