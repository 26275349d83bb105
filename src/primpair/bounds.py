"""Closed-form certification criteria for primitive-pair existence.

Two tests certify q for degree-n rational functions:

 - the direct condition sqrt(q) > n * W(q-1)^2, and
 - its sieve refinement: pick a divisor l of q-1, sieve the remaining primes
   p_1..p_s of q-1, and require sqrt(q) > n * D * W(l)^2 where
   delta = 1 - 2*sum(1/p_i) > 0 and D = (2s-1)/delta + 2.

Everything that decides a certification is exact: delta and D are rationals
and the square-root comparison is done on cleared denominators, so a float
can never flip a verdict at a boundary. Floats appear only in reports.

One integer kernel, `sieve_pass_prefix`, decides the criterion for a core
made of the least primes of q-1, and `best_prefix` sweeps it over every core
size; scans and `check-bound` both go through them. `SieveParams` and the
all-subsets `best_sieve` compute the same criterion in Fractions and serve
as the test oracle for the kernel. `certain_prefix_pass` is the same sweep
in float64 over a whole factor table at once; a scan uses it only to skip
rows that pass by a wide margin, never to emit a verdict.

The module also carries the worst-case analysis grid (smallest possible
sieved primes for an assumed range of omega(q-1)) whose constants the
`tables` subcommand reproduces, and the W(m) <= c_m * m^(1/6) machinery that
turns the direct condition into explicit general bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod, sqrt

import numpy as np

from .ffcore import Factorization, factorize, sieve_primes

# Primes below 64: the support of the c_m coefficient. Adding any of them to
# the support multiplies c_m by 2/p^(1/6) > 1, so the full set is the maximum.
PRIMES_BELOW_64 = tuple(int(p) for p in sieve_primes(63))

_FIRST_PRIMES = tuple(int(p) for p in sieve_primes(200))  # plenty for omega <= 46

BEST_SIEVE_OMEGA_CAP = 20


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


def sieve_pass_prefix(q: int, primes: list[int], core_size: int,
                      n: int) -> tuple[bool, int, int] | None:
    """The criterion with the core_size least primes of q-1 (ascending) as core.

    None when delta <= 0 (inapplicable), else (passes, thr_num, thr_den) with
    n * Delta * W(l)^2 = thr_num / thr_den. With P the sieved primes' product
    and A = P * delta, Delta = ((2s-1) * P + 2A) / A; sieving nothing gives
    Delta = 1, the direct criterion. passes is q * thr_den^2 > thr_num^2.
    """
    if n < 2:
        raise ValueError("degree n must be >= 2")
    sieved = primes[core_size:]
    s = len(sieved)
    if s == 0:
        a = b = 1
    else:
        big_p = prod(sieved)
        a = big_p - 2 * sum(big_p // p for p in sieved)
        if a <= 0:
            return None
        b = (2 * s - 1) * big_p + 2 * a
    thr_num = n * (1 << (2 * core_size)) * b
    return q * a * a > thr_num * thr_num, thr_num, a


def best_prefix(q: int, primes: list[int], n: int) -> tuple[str, int, int, int]:
    """(verdict, core_size, thr_num, thr_den) for q over every prefix core.

    The best core is the applicable prefix with the smallest threshold, ties
    going to the shorter one. Per size the least-primes core maximizes delta,
    so this agrees with the all-subsets `best_sieve` in verdict and best core.
    verdict: pass_thm31 if the full core (direct criterion) passes, else
    pass_sieve if any prefix passes, else candidate.
    """
    omega = len(primes)
    best = None
    passed_sieve = False
    for r in range(omega + 1):
        res = sieve_pass_prefix(q, primes, r, n)
        if res is None:
            continue
        passes, num, den = res
        if best is None or num * best[2] < best[1] * den:
            best = (r, num, den)
        if passes and r < omega:
            passed_sieve = True
    # the last res is the full core: sieving nothing is always applicable
    verdict = ("pass_thm31" if res[0] else
               "pass_sieve" if passed_sieve else "candidate")
    return (verdict, *best)


# Relative room by which sqrt(q) must clear a threshold in the float64 sweep.
# The sweep's own error is far smaller. Below the scan ceiling a row has at
# most 10 primes, so a suffix sum of 1/p is off by under 10 * 2^-53 < 1.2e-15.
# A core that passes there has 2 * Delta <= n * Delta * W(l)^2 < sqrt(q)
# < 4.5e5 and Delta >= 1/delta, so delta > 4.4e-6: delta, Delta and the
# threshold are then within a relative 1e-9 of their exact values.
SWEEP_MARGIN = 1e-6


def certain_prefix_pass(q: np.ndarray, primes: np.ndarray, omega: np.ndarray,
                        n: int) -> np.ndarray:
    """Rows that some prefix core passes with SWEEP_MARGIN to spare.

    The float64 sweep of `best_prefix` over every row at once: row i has
    q[i] and the primes primes[i, :omega[i]] of q[i]-1, ascending (later
    columns are ignored). With the r least primes as core, the sieved tail
    sums 1/p by a suffix sum along the row. True means q certainly passes
    (its verdict is pass_thm31 or pass_sieve); False decides nothing, and
    only `best_prefix` may give such a row a verdict.
    """
    width = primes.shape[1]
    cols = np.arange(width)
    inv = np.where(cols < omega[:, None], 1.0 / np.maximum(primes, 1), 0.0)
    tail = np.zeros((q.size, width + 1))  # tail[:, r]: sum of 1/p over primes[r:]
    tail[:, :width] = np.cumsum(inv[:, ::-1], axis=1)[:, ::-1]
    r = np.arange(width + 1)
    s = omega[:, None] - r  # sieved count; negative past the row's omega
    delta = 1.0 - 2.0 * tail
    with np.errstate(divide="ignore"):
        big_delta = np.where(s > 0, (2 * s - 1) / delta + 2, 1.0)
    thr = n * big_delta * 4.0 ** r
    passes = (s >= 0) & (delta > 0)  # delta is 1 when nothing is sieved
    passes &= np.sqrt(q.astype(np.float64))[:, None] > thr * (1 + SWEEP_MARGIN)
    return passes.any(axis=1)


@dataclass(frozen=True)
class PassSpec:
    """Worst-case pass: assume min_omega <= omega(q-1) <= max_omega and put the
    core_size least primes of q-1 into l; the sieved primes are then at worst
    the (core_size+1)-th through max_omega-th primes overall."""

    n: int
    min_omega: int
    max_omega: int
    core_size: int


@dataclass(frozen=True)
class PassReport:
    spec: PassSpec
    sieved_primes: tuple[int, ...]
    delta_min: Fraction
    big_delta_max: Fraction
    threshold: Fraction

    @property
    def w_l(self) -> int:
        return 1 << self.spec.core_size


def worst_case_pass(spec: PassSpec) -> PassReport:
    """Fill in the worst-case delta, Delta and threshold."""
    if not (spec.max_omega >= spec.min_omega >= spec.core_size >= 0):
        raise ValueError(f"need max_omega >= min_omega >= core_size >= 0, got {spec}")
    if spec.n < 2:
        raise ValueError("degree n must be >= 2")
    sieved = _FIRST_PRIMES[spec.core_size:spec.max_omega]
    s = len(sieved)
    delta = 1 - 2 * sum(Fraction(1, p) for p in sieved)
    if s == 0:
        big_delta = Fraction(1)
    else:
        if delta <= 0:
            raise InapplicableCriterion(f"worst-case delta = {delta} <= 0 for {spec}")
        big_delta = Fraction(2 * s - 1) / delta + 2
    threshold = spec.n * big_delta * Fraction(4) ** spec.core_size
    return PassReport(spec, sieved, delta, big_delta, threshold)


def generic_cn(n: int) -> float:
    """The all-q bound n^6 * c^12 with c the universal c_m supremum constant.

    Reporting only; certification always goes through the exact criteria.
    """
    if n < 2:
        raise ValueError("degree n must be >= 2")
    return n**6 * 37.469**12


@dataclass(frozen=True)
class PassTarget:
    """A worst-case pass with its published constants, for regression checks.

    delta_lb / big_delta_ub are the printed truncations (delta from below,
    Delta from above); threshold_ub is the printed integer strict upper bound
    for n * Delta * W(l)^2.
    """

    spec: PassSpec
    delta_lb: str
    big_delta_ub: str
    threshold_ub: int


# The degree-2 narrative passes followed by the degree-3/4/5 grid rows.
PASS_TARGETS = (
    PassTarget(PassSpec(2, 5, 16, 5), "0.173170", "123.267943", 252453),
    PassTarget(PassSpec(2, 4, 10, 4), "0.2855034", "40.5284367", 20751),
    PassTarget(PassSpec(2, 4, 9, 4), "0.3544689", "27.3900959", 14024),
    PassTarget(PassSpec(2, 3, 8, 3), "0.1557111", "59.7993247", 7655),
    PassTarget(PassSpec(3, 5, 17, 5), "0.1392719", "167.1445296", 513468),
    PassTarget(PassSpec(3, 4, 11, 4), "0.2209872", "60.8269154", 46716),
    PassTarget(PassSpec(3, 4, 9, 4), "0.3544689", "27.3900959", 21036),
    PassTarget(PassSpec(4, 5, 17, 5), "0.1392719", "167.1445296", 684624),
    PassTarget(PassSpec(4, 4, 11, 4), "0.2209872", "60.8269154", 62287),
    PassTarget(PassSpec(4, 4, 9, 4), "0.3544689", "27.3900959", 28048),
    PassTarget(PassSpec(5, 5, 18, 5), "0.1064850", "236.7747170", 1212287),
    PassTarget(PassSpec(5, 4, 11, 4), "0.2209872", "60.8269154", 77859),
    PassTarget(PassSpec(5, 4, 9, 4), "0.3544689", "27.3900959", 35060),
)

DELTA_TOL = 1e-5
BIG_DELTA_TOL = 1e-3

# Published general bounds reproduced by generic_cn, 4 significant figures
# rounded upward (they are upper bounds, so the 4th digit rounds up).
GENERIC_CN_TARGETS = {2: 4.901e20, 3: 5.583e21, 4: 3.137e22, 5: 1.197e23}


@dataclass(frozen=True)
class PassCheck:
    target: PassTarget
    report: PassReport
    delta_ok: bool
    big_delta_ok: bool
    threshold_ok: bool

    @property
    def ok(self) -> bool:
        return self.delta_ok and self.big_delta_ok and self.threshold_ok


def check_pass_target(target: PassTarget) -> PassCheck:
    """Recompute one grid row and compare against its pinned constants.

    delta within 1e-5, Delta within 1e-3, and the integer threshold must be
    the exact ceiling of the computed n * Delta * W(l)^2.
    """
    report = worst_case_pass(target.spec)
    delta_ok = abs(float(report.delta_min) - float(target.delta_lb)) <= DELTA_TOL
    bd_ok = abs(float(report.big_delta_max) - float(target.big_delta_ub)) <= BIG_DELTA_TOL
    thr = report.threshold
    # ceiling of an exact rational, then exact match with the printed bound
    ceil_thr = -(-thr.numerator // thr.denominator)
    thr_ok = ceil_thr == target.threshold_ub and thr < target.threshold_ub
    return PassCheck(target, report, delta_ok, bd_ok, thr_ok)


def check_all_pass_targets() -> list[PassCheck]:
    return [check_pass_target(t) for t in PASS_TARGETS]


def generic_cn_ok(n: int) -> bool:
    """Does generic_cn(n) reproduce its published GENERIC_CN_TARGETS value to
    one unit in the 4th significant digit?"""
    value = generic_cn(n)
    return abs(GENERIC_CN_TARGETS[n] - value) <= 10.0 ** (len(f"{int(value):d}") - 4)
