"""Exhaustive verification: pair existence, family membership, range scans.

Three layers:

 - `pair_exists`: the reference search for one rational function, walking
   primitive alpha in ascending discrete-log order so witnesses are
   deterministic and absence comes with an exhaustion count.
 - `q_in_Q`: membership of a field in the good set for a whole (n1, n2)
   family. For the (1,1) and (2,0) families a row-batched engine decides
   every scale factor a of a whole row of shapes at once: for fixed shape
   h(x), the failing a are the dlogs x with no shift d of h making x + d a
   unit mod q-1, found by counting rescuing shifts in exact integers on the
   CRT grid of rad(q-1), one pass per prime. `naive_membership` walks any
   other family one function at a time and is the engine's test oracle.
 - `exception_scan` / `classify_true_exceptions`: segmented scan of all prime
   powers in a range against the certification criteria (a segment sieve
   marks the prime powers, a row factoriser sieves only their q-1, and a
   float64 sweep spares the exact kernel the rows that pass by a wide
   margin), then full exhaustive classification of the survivors.

Scans are deterministic: records are emitted in increasing q, worker
partitioning never changes output bytes, and checkpoints allow byte-identical
resumption.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, isqrt
from multiprocessing import Pool
from operator import mul

import numpy as np

from .bounds import best_prefix, certain_prefix_pass
from .ffcore import (FieldCtx, field_make, higher_prime_powers, segment_prime_powers,
                     sieve_primes)
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

DEFAULT_SEGMENT = 1 << 20
# The row factoriser takes one strided view per base prime below this; the
# larger primes, with few multiples in a segment each, share one gather.
_STRIDED_BELOW = 256

# The largest q a classification decides, and the CLI's --long limit: one
# field costs about q^2 * rad(q-1) * omega(q-1), so 10^4 would take weeks.
CLASSIFY_LONG_QMAX = 1_000

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


def pair_exists(ctx: FieldCtx, f: RationalFunc, order: str = "asc") -> PairWitness:
    """Search primitive alpha (ascending dlog; "desc" re-verifies backwards)
    for one with f(alpha) primitive. Poles and zeros of f are skipped."""
    if ctx.q <= 2:
        raise ValueError("the multiplicative group of F_2 is trivial; no pairs exist")
    if f.ctx is not ctx:
        raise ValueError("function belongs to a different field")
    bad, _ = is_exceptional(f)
    if bad:
        raise ExceptionalFunctionError(
            "exceptional functions are excluded from pair searches")
    m = ctx.q - 1
    if order == "asc":
        ts = range(1, m)
    elif order == "desc":
        ts = range(m - 1, 0, -1)
    else:
        raise ValueError(f"order must be 'asc' or 'desc', got {order!r}")
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
# Row-batched membership engine.
# ---------------------------------------------------------------------------

# The most cells (shapes times q - 1) one block of the engine holds. Rows of
# shapes are cut into blocks of this size, so no working array grows with the
# number of shapes in a row; a block holds at least one shape.
_BLOCK_CELLS = 1 << 20


class _UnitGrid:
    """Finds, for a block of shapes, the scale dlogs that no shift rescues.

    Scale dlog x fails a shape when x + d is a non-unit mod m = q - 1 for
    every kept shift d of the shape. Unit-ness depends only on the residue
    mod rho = rad(m), and on the CRT grid Z/rho = prod Z/l the number of
    rescuing shifts,

        count(x) = sum_d prod_l (1 - [x + d = 0 mod l]),

    factors into one pass per prime l: the sum along axis l minus the grid
    reflected y -> -y along it. Every count is an exact integer.
    """

    def __init__(self, ctx: FieldCtx):
        m = ctx.q - 1
        self.primes = ctx.qm1.primes
        self.rho = ctx.qm1.radical
        t = np.arange(m, dtype=np.int64)
        cell = np.zeros(m, dtype=np.int64)
        for ell in self.primes:
            cell = cell * ell + t % ell
        self.cell = cell  # flat (C-order) grid cell of each residue mod m
        self.residue = np.empty(self.rho, dtype=np.int64)
        self.residue[cell[:self.rho]] = t[:self.rho]
        self.reflect = [-np.arange(ell) % ell for ell in self.primes]
        self.lift = np.arange(0, m, self.rho, dtype=np.int64)

    def failing(self, shifts: np.ndarray, keep: np.ndarray):
        """Every failing (row, x) of a block, as two parallel int64 arrays.

        shifts is the shapes x points matrix of dlog shifts in [0, m) and keep
        masks the points that are zeros or poles of a shape.
        """
        nrows = shifts.shape[0]
        rows = np.broadcast_to(np.arange(nrows)[:, None], shifts.shape)[keep]
        counts = np.bincount(rows * self.rho + self.cell[shifts[keep]],
                             minlength=nrows * self.rho)
        grid = counts.reshape((nrows,) + self.primes)
        for axis, reflect in enumerate(self.reflect, start=1):
            grid = grid.sum(axis=axis, keepdims=True) - np.take(grid, reflect, axis=axis)
        rows, cells = np.nonzero(grid.reshape(nrows, self.rho) == 0)
        xs = self.residue[cells][:, None] + self.lift
        return np.repeat(rows, self.lift.size), xs.ravel()


def _blocks(row: np.ndarray, m: int):
    """Cut a row of shape parameters into blocks of at most _BLOCK_CELLS cells."""
    step = max(1, _BLOCK_CELLS // m)
    for lo in range(0, row.size, step):
        yield row[lo:lo + step]


def _failing_triples_1_1(ctx: FieldCtx) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a(x+b)/(x+c) lacking a primitive pair, as canonical
    orbit representatives under (a, b, c) ~ (a^-1, c, b).

    One row per c holds every shape x+b over x+c with b < c, one unordered
    {b, c} per orbit; the orbit representative is the lesser of the two.
    """
    m = ctx.q - 1
    grid = _UnitGrid(ctx)
    prim = ctx.primitive_elements()
    dlog, exp = ctx.dlog, ctx.exp
    failing = []
    for c in range(2, ctx.q):
        den = ctx.add_vec(prim, c)
        ok_den = den != 0
        dden = dlog[den]
        for bs in _blocks(np.arange(1, c, dtype=np.int64), m):
            num = ctx.add_vec(prim, bs[:, None])
            rows, xs = grid.failing((dlog[num] - dden) % m, ok_den & (num != 0))
            for b, x in zip(bs[rows].tolist(), xs.tolist()):
                a, a_inv = int(exp[x]), int(exp[-x % m])
                failing.append((a, b, c) if a <= a_inv else (a_inv, c, b))
    return sorted(failing)


def _failing_triples_2_0(ctx: FieldCtx, irreducible: bool = False
                         ) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a*x^2 + b*x + c (b^2 != 4ac) lacking a primitive pair;
    with irreducible=True only those with no root in F_q.

    One row per b0 holds every shape x^2 + b0*x + c0 with b0^2 != 4*c0. The
    shape and a times it share their roots, and x^2 + b0*x + c0 has one iff
    c0 = -(x^2 + b0*x) for some x, so a whole row is masked at once.
    """
    m = ctx.q - 1
    grid = _UnitGrid(ctx)
    prim = ctx.primitive_elements()
    dlog, exp = ctx.dlog, ctx.exp
    elems = np.arange(ctx.q, dtype=np.int64)
    squares = ctx.mul_vec(elems, elems)
    negated = ctx.mul_vec(elems, np.full_like(elems, ctx.neg(1)))
    four = ctx.add(ctx.add(1, 1), ctx.add(1, 1))
    four_c = ctx.mul_vec(np.full_like(elems, four), elems)
    failing = []
    for b0 in range(ctx.q):
        values = ctx.add_vec(squares, ctx.mul_vec(elems, np.full_like(elems, b0)))
        shape = four_c != ctx.mul(b0, b0)  # nonzero discriminant
        if irreducible:
            shape[negated[values]] = False
        base = values[prim]
        for c0s in _blocks(np.flatnonzero(shape), m):
            vals = ctx.add_vec(base, c0s[:, None])
            rows, xs = grid.failing(dlog[vals], vals != 0)
            for c0, x in zip(c0s[rows].tolist(), xs.tolist()):
                a = int(exp[x])
                failing.append((a, ctx.mul(a, b0), ctx.mul(a, c0)))
    return sorted(failing)


@dataclass(frozen=True)
class QMembership:
    q: int
    family: tuple[int, int]
    member: bool
    failing: RationalFunc | None
    num_failing: int


def quadratic_has_root(ctx: FieldCtx, a: int, b: int, c: int) -> bool:
    return any(
        ctx.add(ctx.add(ctx.mul(a, ctx.mul(x, x)), ctx.mul(b, x)), c) == 0
        for x in range(ctx.q))


def naive_membership(ctx: FieldCtx, n1: int, n2: int,
                     irreducible: bool = False) -> QMembership:
    """q_in_Q by walking the family through pair_exists, one function at a
    time; the path for families without a row engine and the tests' oracle
    for the (1,1) and (2,0) engine. irreducible=True keeps, in the (2, 0)
    family, only quadratics with no root in F_q."""
    fam = (n1, n2)
    num_failing = 0
    first = None
    for f in enumerate_family(ctx, n1, n2):
        if fam == (2, 0) and irreducible:
            c0, b0, a0 = (f.num.coeffs + (0, 0, 0))[:3]
            if quadratic_has_root(ctx, a0, b0, c0):
                continue
        if not pair_exists(ctx, f).found:
            num_failing += 1
            if first is None:
                first = f
    return QMembership(ctx.q, fam, first is None, first, num_failing)


def q_in_Q(ctx: FieldCtx, n1: int, n2: int,
           quadratic_scope: str = "all") -> QMembership:
    """Does every function in the (n1, n2) family admit a primitive pair?

    On failure the reported function is the first failing one in canonical
    enumeration order. The (1,1) and (2,0) families go through the
    row-batched engine; every other family is walked by naive_membership.

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
    The two modes differ in one record: "faithful" is "exact" plus the
    degenerate field F_2 (which the criterion rejects trivially, sqrt(2) is
    not > 2). The published survivor count of 3937 includes it, while
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

    def include_degenerate(self) -> bool:
        return self.mode == "faithful" and self.lo <= 3

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
    pos[(-m[0]) % p :: p] for p below _STRIDED_BELOW, one gather for all the
    larger p. `base` holds at least the primes up to isqrt(m[-1]). What is
    left of m[i] once their powers are divided out is 1 or one more prime,
    above every base prime used. Returns (buf, cnt): buf[i, :cnt[i]] lists
    the primes of m[i] ascending; buf has one column per prime the largest
    omega up to m[-1] allows.
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
    small, large = base[base < _STRIDED_BELOW], base[base >= _STRIDED_BELOW]
    views = [pos[(-m0) % p :: p] for p in small.tolist()]
    first = (-m0) % large
    count = (span - 1 - first) // large + 1  # multiples of p in the window
    k = np.repeat(np.arange(large.size), count)  # index in `large` of each
    j = np.arange(k.size) - (np.cumsum(count) - count)[k]
    rows = np.concatenate(views + [pos[first[k] + j * large[k]]])
    ps = np.concatenate([np.full(v.size, p) for p, v in zip(small.tolist(), views)]
                        + [large[k]])
    hit = np.flatnonzero(rows >= 0)
    hit = hit[np.argsort(rows[hit], kind="stable")]  # keeps p ascending in a row
    rows, ps = rows[hit], ps[hit]
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


def _scan_segment(args) -> list[ScanRecord]:
    """The records of the prime powers q in [seg_lo, seg_hi), ascending.

    Only the q - 1 of prime powers are factored. With emit="candidates" a row
    is dropped, as a certain pass, when q is above the direct bound
    n^2 * W(q-1)^4 (exact in int64) or when the float64 prefix sweep clears
    it by SWEEP_MARGIN; every other row, and every row under emit="all",
    gets its verdict from the exact kernel `best_prefix`.
    """
    seg_lo, seg_hi, cfg, base, higher = args
    q, p, k = segment_prime_powers(seg_lo, seg_hi, base, higher)
    buf, cnt = _factor_rows(q - 1, base)
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


def checkpoint_dir() -> str | None:
    return os.environ.get("PRIMPAIR_CHECKPOINT_DIR")


def _checkpoint_write(path: str, payload: dict):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


@dataclass
class ScanResult:
    config: ScanConfig
    num_candidates: int
    max_candidate: int | None
    records_emitted: int
    csv_path: str | None


def exception_scan(lo: int, hi: int, n: int = 2, *, mode: str = "exact",
                   emit: str = "candidates", segment_size: int = DEFAULT_SEGMENT):
    """Stream ScanRecords for every prime power in [lo, hi], ascending q.

    The sequential reference path; `run_scan` adds workers, CSV output and
    checkpoints on top of the same per-segment function. The range must lie
    within [SCAN_FLOOR, SCAN_HI_MAX] = [3, 200560490129].
    """
    cfg = ScanConfig(lo, hi, n, mode, emit)
    _check_segment_size(segment_size)
    if hi < lo:
        return
    if cfg.include_degenerate():
        yield _degenerate_record()
    for task in _segment_tasks(cfg, lo, segment_size):
        yield from _scan_segment(task)


def _check_segment_size(segment_size: int):
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")


def _segment_tasks(cfg: ScanConfig, start: int, segment_size: int) -> list[tuple]:
    """One _scan_segment task per segment of [start, cfg.hi], all sharing a
    single sieve of the base primes up to isqrt(hi)."""
    base = sieve_primes(isqrt(cfg.hi))
    higher = higher_prime_powers(cfg.lo, cfg.hi, base)
    return [(s, min(s + segment_size, cfg.hi + 1), cfg, base, higher)
            for s in range(start, cfg.hi + 1, segment_size)]


def _degenerate_record() -> ScanRecord:
    return ScanRecord(2, 2, 1, 0, (), "candidate", ())


def run_scan(lo: int, hi: int, n: int = 2, *, mode: str = "exact",
             emit: str = "candidates", workers: int = 1,
             csv_path: str | None = None, checkpoint_path: str | None = None,
             resume: bool = False, segment_size: int = DEFAULT_SEGMENT,
             progress=None) -> tuple[ScanResult, list[ScanRecord]]:
    """Run a scan with optional parallelism, CSV output, and checkpoints.

    Output is byte-identical for any worker count: segments are disjoint,
    processed independently, and written in range order. Checkpoints land
    after every completed segment (the atomic unit of resumable work, far
    more often than the nominal 1e5-record cadence); resuming continues at
    the checkpoint's next q, in segments of this call's size (which may
    differ from the interrupted run's), with the candidate count and maximum
    restored from the checkpoint. A resume needs the CSV of the interrupted
    scan: the earlier records live only there. It cuts the CSV back to the
    byte offset the checkpoint stored, so lines written after the last
    checkpoint are not written twice. The range must lie within
    [SCAN_FLOOR, SCAN_HI_MAX] = [3, 200560490129].
    """
    cfg = ScanConfig(lo, hi, n, mode, emit)
    _check_segment_size(segment_size)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if checkpoint_path is None and checkpoint_dir():
        checkpoint_path = os.path.join(
            checkpoint_dir(), f"scan_{cfg.config_hash()}.json")

    start = lo
    emitted = 0
    num_cand = 0
    max_cand = None
    if resume:
        if not checkpoint_path or not os.path.exists(checkpoint_path):
            raise FileNotFoundError("resume requested but no checkpoint found")
        with open(checkpoint_path) as fh:
            ck = json.load(fh)
        if ck["config_hash"] != cfg.config_hash():
            raise ValueError("checkpoint belongs to a different scan configuration")
        if "num_candidates" not in ck or "max_candidate" not in ck:
            raise ValueError(
                f"checkpoint {checkpoint_path} has no candidate summary, so a resumed "
                "scan could not report its candidates; rerun the scan without resume")
        if not csv_path:
            raise ValueError(
                "resume needs the CSV of the interrupted scan (CLI: --out), which "
                "holds the records before the checkpoint")
        if ck.get("csv_offset") is None:
            raise ValueError(
                f"checkpoint {checkpoint_path} has no CSV byte offset, so the CSV "
                "could not be cut back to it; rerun the scan without resume")
        start = ck["next_q"]
        emitted = ck["records_emitted"]
        num_cand = ck["num_candidates"]
        max_cand = ck["max_candidate"]

    # segments start at the resume point, so their size never changes output
    tasks = _segment_tasks(cfg, start, segment_size)

    out = None
    if csv_path:
        if resume:
            out = open(csv_path, "r+")
            out.seek(ck["csv_offset"])
            out.truncate()
        else:
            out = open(csv_path, "w")
            out.write(CSV_HEADER + "\n")

    all_records: list[ScanRecord] = []
    # any checkpoint comes after the degenerate record
    pending_degenerate = cfg.include_degenerate() and not resume

    def _consume(seg_records, seg_end):
        nonlocal emitted, num_cand, max_cand
        try:
            for rec in seg_records:
                if out:
                    out.write(rec.csv_line() + "\n")
                else:
                    all_records.append(rec)
                emitted += 1
                if rec.verdict == "candidate":
                    num_cand += 1
                    max_cand = rec.q if max_cand is None or rec.q > max_cand else max_cand
            if out:
                out.flush()
            if checkpoint_path:
                _checkpoint_write(checkpoint_path, {
                    "lo": lo, "hi": hi, "next_q": seg_end,
                    "records_emitted": emitted, "num_candidates": num_cand,
                    "max_candidate": max_cand,
                    "csv_offset": out.tell() if out else None,
                    "config_hash": cfg.config_hash()})
        except OSError as e:
            raise OSError(
                f"{e}; scan interrupted before q={seg_end}. Completed segments are "
                + (f"checkpointed at {checkpoint_path}; rerun with resume=True "
                   f"(CLI: --resume) to continue." if checkpoint_path else
                   "not checkpointed; rerun with a checkpoint path to make the "
                   "scan resumable.")) from e
        if progress:
            progress(seg_end, hi, emitted)

    try:
        if pending_degenerate:
            _consume([_degenerate_record()], lo)
        if workers == 1:
            for task in tasks:
                _consume(_scan_segment(task), task[1])
        else:
            with Pool(workers) as pool:
                for task, seg_records in zip(tasks, pool.imap(_scan_segment, tasks)):
                    _consume(seg_records, task[1])
    finally:
        # lines past the last checkpoint may reach the file here; a resume
        # cuts them off at the checkpoint's CSV offset
        if out:
            out.close()
    result = ScanResult(cfg, num_cand, max_cand, emitted, csv_path)
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
                             budget_qmax: int = CLASSIFY_LONG_QMAX,
                             jsonl_path: str | None = None,
                             progress=None) -> ClassificationResult:
    """Find every q <= q_max whose (n1, n2) family truly lacks a primitive pair.

    Candidates failing the certification criteria are verified exhaustively;
    each true exception carries its first failing function, re-verified by a
    reversed-order search. Work stops at budget_qmax (CLASSIFY_LONG_QMAX by
    default) with an explicit high-water mark when q_max exceeds it.

    For the (2, 0) family the default scope counts only irreducible failing
    quadratics, matching the established classification; pass
    quadratic_scope="all" for the full-family superset (see q_in_Q).
    """
    if family not in ((1, 1), (2, 0)):
        raise ValueError(f"classification supports families (1,1) and (2,0), got {family}")
    effective = min(q_max, budget_qmax)
    exceptions: list[ClassifiedException] = []
    entries = []
    high_water = effective
    if effective >= SCAN_FLOOR:
        for rec in exception_scan(SCAN_FLOOR, effective, 2):
            if rec.verdict != "candidate":
                continue
            ctx = field_make(rec.p, rec.k)
            res = q_in_Q(ctx, *family, quadratic_scope=quadratic_scope)
            if progress:
                progress(rec.q, res.member)
            if res.member:
                continue
            f = res.failing
            confirm = pair_exists(ctx, f, order="desc")
            if confirm.found:
                raise AssertionError(f"witness disagreement at q={rec.q}")
            exceptions.append(ClassifiedException(
                rec.q, rec.p, rec.k, family, f.num.coeffs, f.den.coeffs))
            entries.append({
                "q": rec.q, "family": list(family),
                "f": {"num": list(f.num.coeffs), "den": list(f.den.coeffs)},
                "witness": None,
            })
    if jsonl_path:
        write_witness_jsonl(jsonl_path, entries)
    return ClassificationResult(family, q_max, exceptions, high_water,
                                complete=q_max <= budget_qmax)


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
