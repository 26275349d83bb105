"""Exhaustive verification: pair existence, family membership, range scans.

Three layers:

 - `pair_exists`: the reference search for one rational function, walking
   primitive alpha in ascending discrete-log order so witnesses are
   deterministic and absence comes with an exhaustion count.
 - `q_in_Q`: membership of a field in the good set for a whole (n1, n2)
   family. For the (1,1) and (2,0) families a batched engine decides every
   scale factor a of a block of shapes at once: for fixed shape h(x), the
   failing a are the dlogs x with no shift d of h making x + d a unit mod
   q-1, found by counting rescuing shifts in exact integers on the CRT grid
   of rho = rad(q-1). Each shift is counted at the cell of -d, so every
   per-prime pass is a sum minus the grid, with no reflection. Multiplying
   by u in H = <g^rho> permutes the primitive elements, so the engine
   decides one shape per orbit of H (rows of rho shapes, the (1,1) shifts
   read from a table of translate dlogs) and expands the failing ones back
   over H. In (1,1), alpha -> 1/alpha pairs each orbit (beta, d) with
   (-beta-d mod rho, d), and failing scale class r with d - r, so only one
   orbit of each pair is decided. `naive_membership` walks any other family
   one function at a time and is the engine's test oracle.
 - `exception_scan` / `run_scan` / `classify_true_exceptions`: segmented scan
   of all prime powers in a range against the certification criteria (a
   segment sieve marks the prime powers, a row factoriser sieves only their
   q-1, and a float64 sweep spares the exact kernel the rows that pass by a
   wide margin), then full exhaustive classification of the survivors. One
   driver, `_scan_segments`, walks the segments that
   `ffcore.prime_power_segments` plans, for all three, in one process or a
   worker pool. In faithful mode it yields the q = 2 record first, as its
   own segment ending at the scan's lo.

Scans are deterministic: records are emitted in increasing q, worker
partitioning never changes output bytes, and checkpoints allow byte-identical
resumption.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import gcd, isqrt
from multiprocessing import Pool
from operator import mul

import numpy as np

from .bounds import best_prefix, certain_prefix_pass
from .ffcore import (DEFAULT_SEGMENT, DEFAULT_TABLE_CAP, FieldCtx, field_make,
                     prime_power_segments, segment_prime_powers)
from .polyrat import Poly, RationalFunc, enumerate_family, is_exceptional

SCAN_FLOOR = 3  # F_2* is trivial; every scan and classification starts here

# The row factoriser gives q - 1 one column per distinct prime. Every m below
# 2*3*5*...*31 = 200560490130 has at most 10, so the limit keeps q - 1 within
# 10 columns. That primorial is no prime power, and the next prime power,
# the prime 200560490131, is the first whose q - 1 would need an 11th.
SCAN_HI_MAX = 200_560_490_129
# Primorials 2, 2*3, 2*3*5, ...: an m <= n has at most
# bisect_right(_PRIMORIALS, n) distinct prime factors.
_PRIMORIALS = tuple(accumulate((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), mul))

# The largest q a classification decides, and the CLI's --long limit: one
# field costs about q * rad(q-1)^2 * omega(q-1) per family, half that for
# (1,1), which decides one shape of each inversion pair. Up to 1000 that is
# about 33 s for (1,1) and 89 s for (2,0) on one core.
CLASSIFY_LONG_QMAX = 1_000

# The families the batched engine decides, and so the ones a classification
# covers; every other family goes through naive_membership.
ENGINE_FAMILIES = ((1, 1), (2, 0))

CSV_HEADER = "q,p,k,omega,q_minus_1_factors,verdict,best_core"


class ExceptionalFunctionError(ValueError):
    """Raised when a search is asked about an exceptional rational function."""


@dataclass(frozen=True)
class PairWitness:
    """Outcome of a primitive-pair search for one rational function.

    When found, (alpha, value) are packed elements, both primitive; when
    absent, `examined` equals phi(q-1): every primitive alpha was tried.
    """

    found: bool
    alpha: int | None
    value: int | None
    alpha_dlog: int | None
    value_dlog: int | None
    examined: int


def pair_exists(ctx: FieldCtx, f: RationalFunc) -> PairWitness:
    """Search primitive alpha, ascending dlog, for one with f(alpha)
    primitive. Poles and zeros of f are skipped."""
    if ctx.q <= 2:
        raise ValueError("the multiplicative group of F_2 is trivial; no pairs exist")
    if f.ctx is not ctx:
        raise ValueError("function belongs to a different field")
    bad, _ = is_exceptional(f)
    if bad:
        raise ExceptionalFunctionError(
            "exceptional functions are excluded from pair searches")
    return _pair_walk(ctx, f)


def _pair_walk(ctx: FieldCtx, f: RationalFunc, order: str = "asc") -> PairWitness:
    """pair_exists without its checks, for a non-exceptional f over ctx, q > 2,
    such as the family enumerators and the membership engine give; order
    "desc" walks backwards, to re-verify an absence."""
    m = ctx.q - 1
    ts = range(1, m) if order == "asc" else range(m - 1, 0, -1)
    examined = 0
    for t in ts:
        if gcd(t, m) != 1:
            continue
        examined += 1
        alpha = ctx.exp_of(t)
        den = f.den.eval(alpha)
        if den == 0:
            continue
        val = ctx.div(f.num.eval(alpha), den)
        if val == 0:
            continue
        tv = ctx.dlog_of(val)
        if gcd(tv, m) == 1:
            return PairWitness(True, alpha, val, t, tv, examined)
    return PairWitness(False, None, None, None, None, examined)


# ---------------------------------------------------------------------------
# Batched membership engine, one shape per orbit of the rad(q-1)-th powers.
# ---------------------------------------------------------------------------

# The most cells (shapes times q - 1) one block of the engine holds. Shapes are
# cut into blocks of this size, so no working array grows with the number of
# shapes; a block holds at least one shape. Blocks this small stay in cache.
_BLOCK_CELLS = 1 << 15


class _UnitGrid:
    """Finds, for a block of shapes, the scale dlogs that no shift rescues.

    Scale dlog x fails a shape when x + d is a non-unit mod m = q - 1 for
    every kept shift d of the shape. Unit-ness depends only on the residue
    mod rho = rad(m), and on the CRT grid Z/rho = prod Z/l the number of
    rescuing shifts,

        count(x) = sum_d prod_l (1 - [x + d = 0 mod l]),

    factors into one pass per prime l. Each shift is counted at the cell of
    -d, so the pass along axis l is the sum along it minus the grid itself,
    with no reflection. Every count is an exact integer.
    """

    def __init__(self, ctx: FieldCtx):
        m = ctx.q - 1
        self.primes = ctx.qm1.primes
        self.rho = ctx.qm1.radical
        t = np.arange(m, dtype=np.int64)
        cell = np.zeros(m, dtype=np.int64)
        for ell in self.primes:
            cell = cell * ell + -t % ell
        self.residue = np.empty(self.rho, dtype=np.int64)
        self.residue[cell[-t[:self.rho]]] = t[:self.rho]
        # Flat (C-order) grid cell of -s for each shift s in (-m, m), indexed
        # from the end for s < 0. A shift with m < |s| <= 2m marks a zero or
        # pole; it lands in cell rho, one past the grid, and is not counted.
        self.cell = np.concatenate((cell, np.full(2 * m, self.rho), cell))

    def failing(self, shifts: np.ndarray):
        """Every failing (row, x mod rho) of a block, as two int64 arrays.

        shifts is the shapes x points matrix of dlog shifts, in (-m, m) for
        the points counted and m < |s| <= 2m for the zeros and poles of a
        shape. A failing class r stands for the scales x = r + j*rho, j < m /
        rho. The grid keeps the rows as its last, contiguous axis.
        """
        nrows = shifts.shape[0]
        cells = self.cell[shifts] * nrows + np.arange(nrows)[:, None]
        counts = np.bincount(cells.ravel(), minlength=(self.rho + 1) * nrows)
        grid = counts[:self.rho * nrows].reshape(self.primes + (nrows,))
        for axis in range(len(self.primes)):
            np.subtract(grid.sum(axis=axis, keepdims=True), grid, out=grid)
        cells, rows = np.divmod(np.flatnonzero(grid == 0), nrows)
        return rows, self.residue[cells]


def _blocks(count: int, width: int):
    """Cut count items of width cells each into slices of at most _BLOCK_CELLS
    cells, and at least one item."""
    step = max(1, _BLOCK_CELLS // width)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _shift_dlog(ctx: FieldCtx) -> np.ndarray:
    """The dlog table with 2(q-1) in place of the -1 at zero, so that a zero
    or pole yields a shift _UnitGrid does not count."""
    dlog = ctx.dlog.copy()
    dlog[0] = 2 * (ctx.q - 1)
    return dlog


def _translate_table(ctx: FieldCtx) -> np.ndarray:
    """T[t, i] = dlog(g^t + prim[i]), with 2(q-1) where the sum is zero: the
    dlogs of every nonzero translate of the primitive elements, m x phi(m).
    It is filled in blocks, so the sums never take a second table's memory."""
    dlog, exp, prim = _shift_dlog(ctx), ctx.exp, ctx.primitive_elements()
    table = np.empty((exp.size, prim.size), dtype=np.int64)
    for blk in _blocks(exp.size, prim.size):
        table[blk] = dlog[ctx.add_vec(exp[blk, None], prim)]
    return table


def _sorted_triples(a: np.ndarray, b: np.ndarray, c: np.ndarray
                    ) -> list[tuple[int, int, int]]:
    """The distinct (a, b, c) of three parallel arrays, ascending."""
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    order = np.lexsort((c, b, a))
    a, b, c = a[order], b[order], c[order]
    new = np.ones(a.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (c[1:] != c[:-1])
    return list(zip(a[new].tolist(), b[new].tolist(), c[new].tolist()))


def _failing_triples_1_1(ctx: FieldCtx) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a(x+b)/(x+c) lacking a primitive pair, b != c both
    nonzero, as canonical orbit representatives min((a, b, c), (a^-1, c, b)).

    For u in H = <g^rho>, rho = rad(q-1), u*alpha is primitive exactly when
    alpha is, so the shape (b, c) fails at the same scales as (u*b, u*c).
    The orbits are the shapes b = g^beta, c = g^(beta+d) for beta < rho and
    d in [1, m/2]. Every unordered {b, c} has such an orientation, and both
    orientations when d = m/2, which the final dedupe absorbs.

    1/alpha is primitive exactly when alpha is, and f(1/alpha) is
    (ab/c)(alpha + 1/b)/(alpha + 1/c); taking 1/f of that, the shape
    (beta, d) fails at scale class r exactly when (beta*, d) fails at class
    d - r, where beta* = -beta - d mod rho. So only the shapes with beta <=
    beta* are decided, and each failing (beta, d, r) with beta* != beta also
    gives (beta*, d, d - r mod rho). Each failing class r mod rho is then
    expanded over H on both sides: a = g^(r + i*rho), b = g^(beta + j*rho),
    c = b*g^d.
    """
    m = ctx.q - 1
    grid = _UnitGrid(ctx)
    rho = grid.rho
    table = _translate_table(ctx)
    # The shapes kept for shift d, with s = -d mod rho, are beta in [0, s/2]
    # and then in (s, (s+rho)/2], numbered from start[d-1] on.
    shift = np.arange(1, m // 2 + 1)
    s = -shift % rho
    head = s // 2 + 1
    count = head + (s + rho) // 2 - s
    start = np.cumsum(count) - count
    found = [np.zeros((3, 0), dtype=np.int64)]
    for blk in _blocks(int(count.sum()), m):
        i = np.arange(blk.start, blk.stop)
        k = np.searchsorted(start, i, side="right") - 1
        beta = i - start[k]
        beta += np.where(beta < head[k], 0, s[k] + 1 - head[k])
        d = shift[k]
        rows, r = grid.failing(table[beta] - table[(beta + d) % m])
        found.append(np.stack((beta[rows], d[rows], r)))
    beta, d, r = np.concatenate(found, axis=1)
    partner = (-beta - d) % rho
    other = partner != beta
    beta, d, r = (np.concatenate(v)[:, None, None] for v in (
        (beta, partner[other]), (d, d[other]), (r, (d - r)[other] % rho)))
    lift = np.arange(0, m, rho)
    ta = r + lift[:, None]  # (reps, i, 1)
    tb = beta + lift  # (reps, 1, j)
    exp = ctx.exp
    a, a_inv = exp[ta], exp[-ta]
    b, c = exp[tb], exp[(tb + d) % m]
    swap = (a_inv < a) | ((a_inv == a) & (c < b))
    return _sorted_triples(np.where(swap, a_inv, a), np.where(swap, c, b),
                           np.where(swap, b, c))


def _failing_triples_2_0(ctx: FieldCtx, irreducible: bool = False
                         ) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a*x^2 + b*x + c (b^2 != 4ac) lacking a primitive pair;
    with irreducible=True only those with no root in F_q.

    A row b0 holds every shape x^2 + b0*x + c0 with b0^2 != 4*c0. The shape
    and a times it share their roots, and x^2 + b0*x + c0 has one iff c0 =
    -(x^2 + b0*x) for some x, so a whole row is masked at once. For u in
    H = <g^rho>, a*x^2 + b*x + c fails exactly when a*u^2*x^2 + b*u*x + c
    does, and shapes keep their roots under it. So the rows decided are b0 =
    0 and b0 = g^beta for beta < rho, and a failing class r mod rho of row b0
    expands to (a*u^2, a*b0*u, a*c0) for a = g^(r + i*rho) and u in H. Row 0
    holds every c0 already, and its expansion only repeats triples, which
    the final dedupe drops.
    """
    q, m = ctx.q, ctx.q - 1
    grid = _UnitGrid(ctx)
    rho = grid.rho
    prim = ctx.primitive_elements()
    dlog, exp = _shift_dlog(ctx), ctx.exp
    elems = np.arange(q, dtype=np.int64)
    squares = ctx.mul_vec(elems, elems)
    negated = ctx.mul_vec(elems, np.full_like(elems, ctx.neg(1)))
    four = ctx.add(ctx.add(1, 1), ctx.add(1, 1))
    four_c = ctx.mul_vec(np.full_like(elems, four), elems)
    row_b0 = np.concatenate(([0], exp[:rho]))
    found = [np.zeros((3, 0), dtype=np.int64)]
    for grp in _blocks(rho + 1, q):
        b0, x = np.broadcast_arrays(row_b0[grp, None], elems)
        values = ctx.add_vec(squares, ctx.mul_vec(b0, x))  # x^2 + b0*x
        shape = four_c != ctx.mul_vec(b0[:, :1], b0[:, :1])  # nonzero discriminant
        if irreducible:
            shape[np.arange(shape.shape[0])[:, None], negated[values]] = False
        base = values[:, prim]
        kept = np.flatnonzero(shape)
        for blk in _blocks(kept.size, m):
            row, c0 = np.divmod(kept[blk], q)
            vals = ctx.add_vec(base[row], c0[:, None])
            rows, r = grid.failing(dlog[vals])
            found.append(np.stack((row[rows] + grp.start, c0[rows], r)))
    row, c0, r = (v[:, None, None] for v in np.concatenate(found, axis=1))
    lift = np.arange(0, m, rho)
    ta = r + lift[:, None]  # (reps, i, 1)
    a, au, au2, b0, c0 = np.broadcast_arrays(exp[ta], exp[(ta + lift) % m],
                                             exp[(ta + 2 * lift) % m], row_b0[row], c0)
    return _sorted_triples(au2, ctx.mul_vec(au, b0), ctx.mul_vec(a, c0))


@dataclass(frozen=True)
class QMembership:
    q: int
    family: tuple[int, int]
    member: bool
    failing: RationalFunc | None
    num_failing: int


def naive_membership(ctx: FieldCtx, n1: int, n2: int,
                     irreducible: bool = False) -> QMembership:
    """q_in_Q by walking the family through the pair search, one function at a
    time; the path for families without a row engine and the tests' oracle
    for the (1,1) and (2,0) engine. irreducible=True keeps, in the (2, 0)
    family, only quadratics with no root in F_q. Needs q >= 3, which q_in_Q
    checks."""
    fam = (n1, n2)
    num_failing = 0
    first = None
    for f in enumerate_family(ctx, n1, n2):
        if fam == (2, 0) and irreducible and any(
                f.num.eval(x) == 0 for x in range(ctx.q)):
            continue
        if not _pair_walk(ctx, f).found:
            num_failing += 1
            if first is None:
                first = f
    return QMembership(ctx.q, fam, first is None, first, num_failing)


def q_in_Q(ctx: FieldCtx, n1: int, n2: int,
           quadratic_scope: str = "all") -> QMembership:
    """Does every function in the (n1, n2) family admit a primitive pair?

    On failure the reported function is the first failing one in canonical
    enumeration order. The (1,1) and (2,0) families go through the
    batched engine; every other family is walked by naive_membership.
    The engine refuses, with ValueError, a field where q * phi(q-1) exceeds
    ffcore.DEFAULT_TABLE_CAP: the (1,1) translate table holds about that
    many entries, and one (2,0) row of q shapes spans that many points.

    quadratic_scope applies to the (2, 0) family only: "all" keeps every
    a*x^2+b*x+c with nonzero discriminant, while "irreducible" restricts to
    quadratics with no root in F_q. The established classification of
    quadratic true exceptions uses the irreducible scope; the full family has
    six further small fields (q = 9, 16, 23, 29, 49, 127) whose only failing
    quadratics split into distinct linear factors.
    """
    if ctx.q <= 2:
        raise ValueError("membership is defined for q >= 3")
    if quadratic_scope not in ("all", "irreducible"):
        raise ValueError(f"unknown quadratic_scope {quadratic_scope!r}")
    fam = (n1, n2)
    if fam in ENGINE_FAMILIES:
        cells = ctx.q * ctx.qm1.euler_phi
        if cells > DEFAULT_TABLE_CAP:
            raise ValueError(
                f"the ({n1},{n2}) engine of F_{ctx.q} needs tables of q * phi(q-1) = "
                f"{cells} entries, above the limit of {DEFAULT_TABLE_CAP} "
                "(ffcore.DEFAULT_TABLE_CAP)")
    if fam == (1, 1):
        triples = _failing_triples_1_1(ctx)
        make = lambda a, b, c: RationalFunc(
            Poly(ctx, (ctx.mul(a, b), a)), Poly(ctx, (c, 1)))
    elif fam == (2, 0):
        triples = _failing_triples_2_0(ctx, quadratic_scope == "irreducible")
        make = lambda a, b, c: RationalFunc(
            Poly(ctx, (c, b, a)), Poly(ctx, (1,)))
    else:
        return naive_membership(ctx, n1, n2, quadratic_scope == "irreducible")
    if not triples:
        return QMembership(ctx.q, fam, True, None, 0)
    a, b, c = triples[0]
    return QMembership(ctx.q, fam, False, make(a, b, c), len(triples))


# ---------------------------------------------------------------------------
# Range scan.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters that define the output (worker count never does).

    Every verdict comes from the one exact kernel, `bounds.best_prefix`,
    which sweeps every core size 0..omega with the least primes of q-1 in
    the core and agrees with the all-subsets search (a test oracle only).
    The two modes differ in one record: "faithful" from lo = SCAN_FLOOR is
    "exact" plus the degenerate field F_2 (which the criterion rejects
    trivially, sqrt(2) is not > 2). The published survivor count of 3937 includes it, while
    "exact" starts at the q = 3 floor and finds the 3936-element subset.

    Building a config refuses lo below SCAN_FLOOR, hi above SCAN_HI_MAX
    (where the row factoriser's 10 columns would not do), n < 2 and
    unknown modes or emit values.
    """

    lo: int = SCAN_FLOOR
    hi: int = 58_600_000
    n: int = 2
    mode: str = "exact"
    emit: str = "candidates"

    def __post_init__(self):
        if self.lo < SCAN_FLOOR:
            raise ValueError(f"scan range starts at {SCAN_FLOOR}")
        if self.hi > SCAN_HI_MAX:
            raise ValueError(f"scan range ends at most at {SCAN_HI_MAX}, got hi={self.hi}")
        if self.n < 2:
            raise ValueError("degree n must be >= 2")
        if self.mode not in ("exact", "faithful"):
            raise ValueError(f"unknown scan mode {self.mode!r}")
        if self.emit not in ("candidates", "all"):
            raise ValueError(f"unknown emit value {self.emit!r}")

    def config_hash(self) -> str:
        blob = json.dumps(
            {"lo": self.lo, "hi": self.hi, "n": self.n,
             "mode": self.mode, "emit": self.emit},
            sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ScanRecord:
    q: int
    p: int
    k: int
    omega: int
    factors: tuple[tuple[int, int], ...]
    verdict: str  # pass_thm31 | pass_sieve | candidate
    best_core: tuple[int, ...]

    def csv_line(self) -> str:
        facs = ";".join(f"{p}^{e}" for p, e in self.factors)
        core = ";".join(str(p) for p in self.best_core)
        return f"{self.q},{self.p},{self.k},{self.omega},{facs},{self.verdict},{core}"


def _factor_rows(m: np.ndarray, base: np.ndarray):
    """Distinct prime factors of each m[i], for an ascending int64 array m >= 1
    that spans about a segment.

    An offset-to-row map `pos` over the window [m[0], m[-1]] finds the rows
    each base prime p divides at the offsets (-m[0]) % p + j*p: a strided view
    pos[(-m[0]) % p :: p] for p below the window's span, one gather for the
    larger p, which have at most one multiple there. Each multiple costs one
    int32 entry of `rows` and no further temporary, so a segment allocates
    little fresh memory. `base` holds at least the primes up to isqrt(m[-1]).
    What is left of m[i] once their powers are divided out is 1 or one more
    prime, above every base prime used. Returns (buf, cnt): buf[i, :cnt[i]]
    lists the primes of m[i] ascending; buf has one column per prime the
    largest omega up to m[-1] allows.
    """
    size = m.size
    if not size:
        return np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    m0, top = int(m[0]), int(m[-1])
    buf = np.zeros((size, bisect_right(_PRIMORIALS, top)), dtype=np.int64)
    span = top - m0 + 1
    pos = np.full(span, -1, dtype=np.int32)
    pos[m - m0] = np.arange(size, dtype=np.int32)
    base = base[:np.searchsorted(base, isqrt(top), side="right")]
    first = (-m0) % base
    # rows[ends[i-1]:ends[i]] are the rows at the multiples of base[i]
    ends = np.cumsum((span - 1 - first) // base + 1)
    few = np.searchsorted(base, span)
    views = [pos[f::p] for f, p in zip(first[:few].tolist(), base[:few].tolist())]
    once = first[few:]
    rows = np.concatenate(views + [pos[once[once < span]]])
    hit = np.flatnonzero(rows >= 0)
    hit = hit[np.argsort(rows[hit], kind="stable")]  # keeps p ascending in a row
    rows, ps = rows[hit], base[np.searchsorted(ends, hit, side="right")]
    cnt = np.bincount(rows, minlength=size)
    row_start = np.cumsum(cnt) - cnt
    buf[rows, np.arange(rows.size) - row_start[rows]] = ps
    power = ps.copy()  # grows to the largest power of p dividing the row's m
    mult = m[rows]
    sub = np.flatnonzero(mult % (power * ps) == 0)
    while sub.size:
        power[sub] *= ps[sub]
        sub = sub[mult[sub] % (power[sub] * ps[sub]) == 0]
    rem = m.copy()
    factored = np.flatnonzero(cnt)
    if factored.size:
        rem[factored] //= np.multiply.reduceat(power, row_start[factored])
    left = np.flatnonzero(rem > 1)
    buf[left, cnt[left]] = rem[left]
    cnt[left] += 1
    return buf, cnt


def _exponents_of(m: int, primes: list[int]) -> tuple[tuple[int, int], ...]:
    out = []
    for p in primes:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def _scan_segment(cfg: ScanConfig, segment: tuple) -> list[ScanRecord]:
    """The records of the prime powers q in one `prime_power_segments`
    segment [seg_lo, seg_hi), ascending.

    Only the q - 1 of prime powers are factored. With emit="candidates" a row
    is dropped, as a certain pass, when q is above the direct bound
    n^2 * W(q-1)^4 (exact in int64) or when the float64 prefix sweep clears
    it by SWEEP_MARGIN; every other row, and every row under emit="all",
    gets its verdict from the exact kernel `best_prefix`.
    """
    q, p, k = segment_prime_powers(*segment)
    buf, cnt = _factor_rows(q - 1, segment[2])  # the segment's base primes
    n = cfg.n
    if cfg.emit == "candidates":
        # clipped above every q a scan reaches, so no entry overflows
        direct = np.array([min(n * n << 4 * w, SCAN_HI_MAX + 1)
                           for w in range(buf.shape[1] + 1)], dtype=np.int64)
        rows = np.flatnonzero(q <= direct[cnt])
        rows = rows[~certain_prefix_pass(q[rows], buf[rows], cnt[rows], n)]
    else:
        rows = np.arange(q.size)
    records = []
    for qi, pi, ki, omega, row in zip(q[rows].tolist(), p[rows].tolist(), k[rows].tolist(),
                                      cnt[rows].tolist(), buf[rows].tolist()):
        primes = row[:omega]
        verdict, r, _, _ = best_prefix(qi, primes, n)
        if cfg.emit == "candidates" and verdict != "candidate":
            continue
        records.append(ScanRecord(
            qi, pi, ki, omega, _exponents_of(qi - 1, primes), verdict, tuple(primes[:r])))
    return records


def _checkpoint_write(path: str, payload: dict):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _checkpoint_read(path: str | None, fresh: dict, csv_path: str) -> dict:
    """The state a resume continues from: the checkpoint at path, refused
    unless it belongs to the scan of fresh (its config hash), holds every key
    of fresh with an integer csv_offset, and bookmarks a byte of the CSV at
    csv_path that the file still holds. Keys outside fresh are dropped."""
    if not path or not os.path.exists(path):
        raise FileNotFoundError("resume requested but no checkpoint found")
    with open(path) as fh:
        ck = json.load(fh)
    if not isinstance(ck, dict) or ck.get("config_hash") != fresh["config_hash"]:
        raise ValueError(f"checkpoint {path} belongs to another scan configuration")
    bad = [key for key in fresh if key not in ck
           or key == "csv_offset" and type(ck[key]) is not int]
    if bad:
        raise ValueError(f"checkpoint {path} cannot resume a scan: missing or invalid "
                         f"{', '.join(bad)}; rerun the scan without resume")
    size = os.path.getsize(csv_path)
    if not 0 <= ck["csv_offset"] <= size:
        raise ValueError(
            f"checkpoint {path} bookmarks byte {ck['csv_offset']} of {csv_path}, "
            f"which holds {size} bytes; rerun the scan without resume")
    return {key: ck[key] for key in fresh}


@dataclass
class ScanResult:
    config: ScanConfig
    num_candidates: int
    max_candidate: int | None
    records_emitted: int
    csv_path: str | None


def _scan_segments(cfg: ScanConfig, plan: list[tuple], workers: int = 1,
                   resumed: bool = False):
    """The one scan driver: yield (end, records) per segment, in range order,
    where records are those of every q below end not yielded before.

    The q = 2 record of a faithful scan from SCAN_FLOOR comes first, as its
    own segment ending at cfg.lo; a resumed scan is past it. Then one segment
    per `prime_power_segments` entry of plan, decided by `_scan_segment`
    through map, or through the imap of a pool of workers processes, which
    is terminated when the generator finishes or is closed.
    """
    if cfg.mode == "faithful" and cfg.lo == SCAN_FLOOR and not resumed:
        yield cfg.lo, [ScanRecord(2, 2, 1, 0, (), "candidate", ())]
    with (Pool(workers) if workers > 1 else nullcontext()) as pool:
        decided = (pool.imap if pool else map)(partial(_scan_segment, cfg), plan)
        for segment, records in zip(plan, decided):
            yield segment[1], records


def exception_scan(lo: int, hi: int, n: int = 2, *, mode: str = "exact",
                   emit: str = "candidates", segment_size: int = DEFAULT_SEGMENT):
    """Stream ScanRecords for every prime power in [lo, hi], ascending q,
    with the q = 2 record first in faithful mode from lo = SCAN_FLOOR.

    The sequential path through the same driver as `run_scan`, without CSV
    output or checkpoints. The range must lie within [SCAN_FLOOR,
    SCAN_HI_MAX] = [3, 200560490129].
    """
    cfg = ScanConfig(lo, hi, n, mode, emit)
    for _, records in _scan_segments(cfg, prime_power_segments(lo, hi, segment_size)):
        yield from records


def run_scan(lo: int, hi: int, n: int = 2, *, mode: str = "exact",
             emit: str = "candidates", workers: int = 1,
             csv_path: str | None = None, checkpoint_path: str | None = None,
             resume: bool = False, segment_size: int = DEFAULT_SEGMENT,
             progress=None) -> tuple[ScanResult, list[ScanRecord]]:
    """Run a scan with optional parallelism, CSV output, and checkpoints.

    Output is byte-identical for any worker count: segments are disjoint,
    processed independently, and written in range order. A checkpoint is a
    bookmark in the scan's CSV, so it needs csv_path: after every completed
    segment, the atomic unit of resumable work, the q = 2 record of a
    faithful scan included, it stores the scan's state (the next q, the
    records and candidates so far, the largest candidate, the CSV's byte
    offset and the config hash). A resume continues at the checkpoint's next
    q, in segments of this call's size (which may differ from the
    interrupted run's), from the checkpoint's counters. It cuts the CSV back
    to the stored byte offset, so lines written after the last checkpoint
    are not written twice. The range must lie within
    [SCAN_FLOOR, SCAN_HI_MAX] = [3, 200560490129].
    """
    cfg = ScanConfig(lo, hi, n, mode, emit)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (checkpoint_path or resume) and not csv_path:
        raise ValueError(
            "a checkpoint needs the CSV of its scan (CLI: --out): it records the "
            "CSV's byte offset, and a resume continues that file")
    state = {"next_q": lo, "records_emitted": 0, "num_candidates": 0,
             "max_candidate": None, "csv_offset": 0, "config_hash": cfg.config_hash()}
    if resume:
        state = _checkpoint_read(checkpoint_path, state, csv_path)
    # segments start at the resume point, so their size never changes output
    plan = prime_power_segments(state["next_q"], hi, segment_size)

    all_records: list[ScanRecord] = []
    saved = resume  # a checkpoint exists to resume from
    out = open(csv_path, "r+" if resume else "w") if csv_path else None
    segments = _scan_segments(cfg, plan, workers, resume)
    try:
        if resume:
            out.seek(state["csv_offset"])
            out.truncate()
        elif out:
            out.write(CSV_HEADER + "\n")
        for seg_end, seg_records in segments:
            try:
                for rec in seg_records:
                    if out:
                        out.write(rec.csv_line() + "\n")
                    if rec.verdict == "candidate":
                        state["num_candidates"] += 1
                        state["max_candidate"] = rec.q  # records ascend
                state["records_emitted"] += len(seg_records)
                if out:
                    out.flush()
                else:
                    all_records.extend(seg_records)
                if checkpoint_path:
                    _checkpoint_write(checkpoint_path, {
                        **state, "next_q": seg_end, "csv_offset": out.tell()})
                    saved = True
            except OSError as e:
                raise OSError(
                    f"{e}; scan interrupted before q={seg_end}. Completed segments are "
                    + (f"checkpointed at {checkpoint_path}; rerun with resume=True "
                       f"(CLI: --resume) to continue." if saved else
                       "not checkpointed; rerun the scan, with a writable checkpoint "
                       "path to make it resumable.")) from e
            if progress:
                progress(seg_end, hi, state["records_emitted"])
    finally:
        # closing the driver terminates its worker pool; lines past the last
        # checkpoint may reach the file here, and a resume cuts them off at
        # the checkpoint's CSV offset
        segments.close()
        if out:
            out.close()
    result = ScanResult(cfg, state["num_candidates"], state["max_candidate"],
                        state["records_emitted"], csv_path)
    return result, all_records


# ---------------------------------------------------------------------------
# True-exception classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedException:
    q: int
    p: int
    k: int
    family: tuple[int, int]
    failing_num: tuple[int, ...]
    failing_den: tuple[int, ...]


@dataclass
class ClassificationResult:
    family: tuple[int, int]
    q_max: int
    exceptions: list[ClassifiedException]
    high_water: int
    complete: bool

    @property
    def q_list(self) -> list[int]:
        return [e.q for e in self.exceptions]


def classify_true_exceptions(q_max: int, family: tuple[int, int], *,
                             quadratic_scope: str = "irreducible",
                             jsonl_path: str | None = None,
                             progress=None) -> ClassificationResult:
    """Find every q <= q_max whose (n1, n2) family truly lacks a primitive pair.

    Candidates failing the certification criteria for degree n1 + n2 are
    verified exhaustively; progress, if given, is called with (q, member)
    after each, in ascending q. Each true exception carries its first
    failing function, re-verified by a reversed-order search. Work stops at
    CLASSIFY_LONG_QMAX with an explicit high-water mark when q_max exceeds
    it.

    For the (2, 0) family the default scope counts only irreducible failing
    quadratics, matching the established classification; pass
    quadratic_scope="all" for the full-family superset (see q_in_Q).
    """
    if family not in ENGINE_FAMILIES:
        raise ValueError(f"classification supports families (1,1) and (2,0), got {family}")
    high_water = min(q_max, CLASSIFY_LONG_QMAX)
    exceptions: list[ClassifiedException] = []
    entries = []
    for rec in exception_scan(SCAN_FLOOR, high_water, sum(family)):
        ctx = field_make(rec.p, rec.k)
        res = q_in_Q(ctx, *family, quadratic_scope=quadratic_scope)
        if progress:
            progress(rec.q, res.member)
        if res.member:
            continue
        f = res.failing
        confirm = _pair_walk(ctx, f, order="desc")
        if confirm.found:
            raise AssertionError(f"witness disagreement at q={rec.q}")
        exceptions.append(ClassifiedException(
            rec.q, rec.p, rec.k, family, f.num.coeffs, f.den.coeffs))
        entries.append(witness_entry(ctx, f, family, confirm))
    if jsonl_path:
        write_witness_jsonl(jsonl_path, entries)
    return ClassificationResult(family, q_max, exceptions, high_water,
                                complete=q_max <= CLASSIFY_LONG_QMAX)


def write_witness_jsonl(path: str, entries: list[dict]):
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")


def witness_entry(ctx: FieldCtx, f: RationalFunc, family: tuple[int, int],
                  witness: PairWitness) -> dict:
    return {
        "q": ctx.q,
        "family": list(family),
        "f": {"num": list(f.num.coeffs), "den": list(f.den.coeffs)},
        "witness": (None if not witness.found else
                    {"alpha_dlog": witness.alpha_dlog,
                     "falpha_dlog": witness.value_dlog}),
    }
