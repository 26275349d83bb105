"""Multiplicative characters of F_q* and exact evaluation of their sums.

A character of order d sends g^t to zeta_d^(k*t). Sums of such values are
held as integer count vectors over residues mod d (or an lcm) and evaluated
exactly by reduction modulo the d-th cyclotomic polynomial, so every quantity
that the theory promises to be a rational integer is produced as one; floats
appear only in reporting. The convention chi(0) = 0 applies to every
character, including the trivial one, which keeps the u-free characteristic
function supported on F_q*.

The sums over a rational function f (`chi_f`, `PairCountEvaluator` and
`weil_bound_check`) share one walk of f over F_q, `_walk`, which evaluates f
once per point and returns the discrete logs of alpha and f(alpha).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, sqrt

import numpy as np

from .ffcore import FieldCtx, factorize
from .polyrat import RationalFunc, is_exceptional


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Integer coefficients (low first) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _exact_polydiv(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _exact_polydiv(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic up to sign)."""
    out = [0] * (len(num) - len(den) + 1)
    num = num[:]
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1] // den[-1]
        out[shift] = c
        if c:
            for i, b in enumerate(den):
                num[shift + i] -= c * b
    assert all(v == 0 for v in num), "non-exact cyclotomic division"
    return out


def exact_root_sum(counts, m: int) -> int:
    """Evaluate sum of counts[j] * zeta_m^j exactly, given it is an integer.

    Reduces the count polynomial modulo the m-th cyclotomic polynomial; a
    non-constant remainder means the sum is irrational and raises.
    """
    rem = [int(c) for c in counts]
    phi_m = cyclotomic_poly(m)
    deg = len(phi_m) - 1
    for shift in range(len(rem) - deg - 1, -1, -1):
        c = rem[shift + deg]
        if c:
            for i, b in enumerate(phi_m):
                rem[shift + i] -= c * b
    rem = rem[:deg]
    if any(v != 0 for v in rem[1:]):
        raise ArithmeticError("root-of-unity sum is not a rational integer")
    return rem[0] if rem else 0


@lru_cache(maxsize=None)
def _orbit_sum_accumulated(d: int, t: int) -> int:
    counts = [0] * d
    for k in range(d):
        if gcd(k, d) == 1:
            counts[k * t % d] += 1
    return exact_root_sum(counts, d)


def char_orbit_sum(d: int, t: int) -> int:
    """Sum of chi(g^t) over the phi(d) characters chi of precise order d.

    Accumulated as root-of-unity counts and reduced exactly. The value
    depends on t only through gcd(t, d) (the units permute the residues
    k*t within one class), so the accumulation runs once per divisor class;
    the test suite checks both that reduction and the classical Moebius/phi
    closed form against direct accumulation.
    """
    return _orbit_sum_accumulated(d, gcd(t % d, d) % d)


@dataclass(frozen=True)
class CycloSum:
    """Exact accumulator for a sum of m-th roots of unity.

    counts[t] is how many summands equal zeta_m^t; for character sums the
    counts are nonnegative and total the number of (nonzero) summands.
    """

    modulus: int
    counts: tuple[int, ...]

    @property
    def num_summands(self) -> int:
        return sum(self.counts)

    def value(self) -> complex:
        m = self.modulus
        return sum(c * cmath.exp(2j * cmath.pi * t / m)
                   for t, c in enumerate(self.counts) if c)

    def abs(self) -> float:
        return abs(self.value())

    def exact_int(self) -> int:
        return exact_root_sum(self.counts, self.modulus)

    def __repr__(self):
        return f"CycloSum(mod {self.modulus}, {self.num_summands} summands, ~{self.value():.6g})"


class MultChar:
    """The multiplicative character g^t -> zeta_d^(k*t) of F_q*.

    Has precise order d exactly when gcd(k, d) = 1; chi(0) is 0 by the
    extension convention, so sums silently drop zero arguments.
    """

    __slots__ = ("ctx", "order", "index")

    def __init__(self, ctx: FieldCtx, order: int, index: int = 1):
        if order < 1 or (ctx.q - 1) % order != 0:
            raise ValueError(f"character order {order} does not divide q-1={ctx.q - 1}")
        if not 0 <= index < order:
            raise ValueError(f"character index must lie in [0, {order})")
        self.ctx = ctx
        self.order = order
        self.index = index

    @property
    def exact_order(self) -> int:
        return self.order // gcd(self.index, self.order)

    def exponent(self, a) -> int | None:
        """k * dlog(a) mod order, or None when a = 0 (the chi(0) = 0 case)."""
        if a == 0:
            return None
        return self.index * self.ctx.dlog_of(a) % self.order

    def value(self, a) -> complex:
        e = self.exponent(a)
        if e is None:
            return 0j
        return cmath.exp(2j * cmath.pi * e / self.order)

    def __repr__(self):
        return f"MultChar(order={self.order}, index={self.index}, F_{self.ctx.q})"


def _walk(f: RationalFunc) -> tuple[np.ndarray, np.ndarray]:
    """Dlogs of alpha and of f(alpha) for every alpha in F_q that is neither a
    pole nor a zero of f, as two int64 arrays; alpha = 0 has dlog -1."""
    ctx = f.ctx
    alphas, values = [], []
    for a in range(ctx.q):
        den = f.den.eval(a)
        if den == 0:
            continue
        val = ctx.div(f.num.eval(a), den)
        if val:
            alphas.append(a)
            values.append(val)
    return (ctx.dlog[np.array(alphas, dtype=np.int64)],
            ctx.dlog[np.array(values, dtype=np.int64)])


def chi_f(chi1: MultChar, chi2: MultChar, f: RationalFunc) -> CycloSum:
    """The exact sum of chi1(alpha) * chi2(f(alpha)) over non-pole alpha.

    Terms with alpha = 0 or f(alpha) = 0 vanish under chi(0) = 0 and are not
    counted as summands.
    """
    if chi1.ctx is not f.ctx or chi2.ctx is not f.ctx:
        raise ValueError("characters and function must share one field")
    m = lcm(chi1.order, chi2.order)
    t1, t2 = _walk(f)
    keep = t1 >= 0
    e1 = chi1.index * t1[keep] % chi1.order * (m // chi1.order)
    e2 = chi2.index * t2[keep] % chi2.order * (m // chi2.order)
    return CycloSum(m, tuple(np.bincount((e1 + e2) % m, minlength=m).tolist()))


@lru_cache(maxsize=None)
def _moebius_weights(rad: int) -> tuple[tuple[int, Fraction], ...]:
    """(d, mu(d)/phi(d)) for every square-free divisor d of the radical."""
    out = []
    for d in factorize(rad).squarefree_divisors():
        fd = factorize(d)
        out.append((d, Fraction(fd.mobius, fd.euler_phi)))
    return tuple(out)


@lru_cache(maxsize=None)
def _theta(u: int) -> Fraction:
    return Fraction(factorize(u).euler_phi, u)


def rho_u(ctx: FieldCtx, alpha, u: int) -> Fraction:
    """The u-free characteristic function, evaluated from its definition.

    Computes theta(u) * sum over d | u of mu(d)/phi(d) times the sum of
    chi(alpha) over characters of precise order d; non-square-free d drop out
    through the Moebius factor, and the inner sums come from exact cyclotomic
    accumulation. The result is the rational 0 or 1 agreeing with
    FieldCtx.is_ufree.
    """
    if alpha == 0:
        raise ValueError("the u-free characteristic function is defined on F_q* only")
    rad_u = ctx.rad_of_divisor(u)
    t = ctx.dlog_of(alpha)
    total = Fraction(0)
    for d, weight in _moebius_weights(rad_u):
        total += weight * char_orbit_sum(d, t)
    return _theta(u) * total


class PairCountEvaluator:
    """Character-expansion evaluation of N_f(l1, l2) with per-function caching.

    N_f(l1, l2) counts alpha (not a pole) with alpha l1-free and f(alpha)
    l2-free. The expansion runs over square-free divisor pairs (d1, d2) with
    Moebius/phi weights; inner double character sums factor per alpha into a
    product of two exact orbit sums, accumulated as integers.
    """

    def __init__(self, f: RationalFunc):
        bad, _ = is_exceptional(f)
        if bad:
            raise ValueError("character expansion requires a non-exceptional function")
        self.f = f
        self.ctx = f.ctx
        t1, t2 = _walk(f)
        keep = t1 >= 0
        self._t1, self._t2 = t1[keep], t2[keep]
        self._orbit1: dict[int, np.ndarray] = {}
        self._orbit2: dict[int, np.ndarray] = {}
        self._core: dict[tuple[int, int], Fraction] = {}

    def _orbit_values(self, d: int, which: int) -> np.ndarray:
        cache = self._orbit1 if which == 1 else self._orbit2
        if d not in cache:
            table = np.array([char_orbit_sum(d, r) for r in range(d)], dtype=np.int64)
            ts = self._t1 if which == 1 else self._t2
            cache[d] = table[ts % d]
        return cache[d]

    def _core_sum(self, rad1: int, rad2: int) -> Fraction:
        key = (rad1, rad2)
        if key not in self._core:
            total = Fraction(0)
            for d1, w1 in _moebius_weights(rad1):
                o1 = self._orbit_values(d1, 1)
                for d2, w2 in _moebius_weights(rad2):
                    total += w1 * w2 * int(np.dot(o1, self._orbit_values(d2, 2)))
            self._core[key] = total
        return self._core[key]

    def count(self, l1: int, l2: int) -> int:
        ctx = self.ctx
        core = self._core_sum(ctx.rad_of_divisor(l1), ctx.rad_of_divisor(l2))
        n = _theta(l1) * _theta(l2) * core
        if n.denominator != 1:
            raise ArithmeticError(f"expansion gave non-integer {n} for N_f({l1},{l2})")
        return int(n)


@dataclass(frozen=True)
class WeilReport:
    total: CycloSum
    bound: float
    ok: bool


def weil_bound_check(chi: MultChar, F: RationalFunc) -> WeilReport:
    """Empirically validate |sum of chi(F(alpha))| <= (deg rad(F) - 1) sqrt(q).

    chi must have precise square-free order d > 1, and F must not be a d-th
    power up to a constant (checked via the multiplicity profile, including
    the power of x). The bound is assumed true; a violation flags a bug.
    """
    ctx = F.ctx
    if chi.ctx is not ctx:
        raise ValueError("character and function must share one field")
    d = chi.order
    if d <= 1 or gcd(chi.index, d) != 1:
        raise ValueError("need a character of precise order d > 1")
    if factorize(d).mobius == 0:
        raise ValueError("need square-free character order")

    _, witness = is_exceptional(F)
    mults = [m for _, m in witness.layers]
    if witness.x_power != 0:
        mults.append(abs(witness.x_power))
    if not mults or all(m % d == 0 for m in mults):
        raise ValueError("inapplicable: F is a d-th power up to a constant")

    _, values = _walk(F)
    total = CycloSum(d, tuple(np.bincount(chi.index * values % d, minlength=d).tolist()))
    rad_deg = sum(deg for deg, _ in witness.layers) + (1 if witness.x_power != 0 else 0)
    bound = (rad_deg - 1) * sqrt(ctx.q)
    return WeilReport(total, bound, total.abs() <= bound + 1e-6)
