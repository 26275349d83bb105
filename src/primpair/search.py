"""Exhaustive verification: pair existence, family membership, range scans.

Three layers:

 - `pair_exists`: the reference search for one rational function, walking
   primitive alpha in ascending discrete-log order so witnesses are
   deterministic and absence comes with an exhaustion count.
 - `q_in_Q`: membership of a field in the good set for a whole (n1, n2)
   family. The (1,1) and (2,0) families, listed in `ENGINE_FAMILIES` with
   what their triples mean, share one engine per field, `_Engine`: for a
   fixed shape h(x), the failing scale dlogs x are those with no shift d of
   h making x + d a unit mod q-1. Mod rho = rad(q-1) they are the AND of one
   packed row of non-unit bits per shift, which the engine takes for a block
   of shapes at once, a chunk of shifts at a time, dropping each shape as
   soon as a shift rescues its last scale. Every shift is read in the dlog
   domain from one table of Zech logarithms, dlog(1 + g^n), so no field
   arithmetic runs per shift. Multiplying by u in H = <g^rho> permutes the
   primitive elements, so each family generates one shape per orbit of H
   ((1,1) the pairs b = g^beta, c = b*g^d, (2,0) the rows of
   x^2 + b0*x + c0), the engine keeps the failing classes, and the family
   expands them back over H. In (1,1), alpha -> 1/alpha pairs each orbit
   (beta, d) with (-beta-d mod rho, d), and failing scale class r with
   d - r, so only one orbit of each pair is decided. `naive_membership`
   walks any other family one function at a time and is the engine's test
   oracle.
 - `exception_scan` / `run_scan` / `classify_true_exceptions`: segmented scan
   of all prime powers in a range against the certification criteria (one
   `ffcore.SegmentKernel` call per segment drops the q above the
   `bounds.code_thresholds` ceiling of q-1's primes below 32, read off the
   sieve's codes, before its large primes sieve out the composites, and
   factors the q-1 of the rest alone; `bounds.best_prefix` decides them),
   then full exhaustive classification of the survivors.
   One driver, `_scan_segments`, walks the segments that
   `ffcore.prime_power_segments` plans, for all three, in one process or a
   worker pool, with one kernel workspace per scan and process.
   A scan's range is [lo, hi] with lo >= SCAN_FLOOR = 2, and from lo = 2 the
   kernel and the criterion decide F_2's record like every other.

Scans are deterministic: records are emitted in increasing q, worker
partitioning never changes output bytes, and a resume from any checkpoint a
scan writes (at its start, at most once per CHECKPOINT_EVERY_S seconds, and
when it ends or stops) gives the bytes of an uninterrupted scan. `run_scan`
alone writes a stopped scan's last bookmark and says how far it got.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from functools import partial
from math import gcd
from time import monotonic

import numpy as np

from .bounds import best_prefix, code_thresholds
from .ffcore import (DEFAULT_SEGMENT, DEFAULT_TABLE_CAP, FieldCtx, SegmentKernel,
                     field_make, prime_power_segments)
from .polyrat import Poly, RationalFunc, enumerate_family, is_exceptional

# The least q a scan takes. F_2* is trivial and the criterion rejects F_2
# (sqrt(2) is not > n), but the paper's count of 3937 includes it.
SCAN_FLOOR = 2

# The segment kernel gives q - 1 one column per distinct prime. Every m below
# 2*3*5*...*31 = 200560490130 has at most 10, so the limit keeps q - 1 within
# 10 columns. That primorial is no prime power, and the next prime power,
# the prime 200560490131, is the first whose q - 1 would need an 11th.
SCAN_HI_MAX = 200_560_490_129

# The largest q a classification decides; the CLI refuses a larger qmax. One
# field decides about q * rad(q-1) shapes per family, half that for (1,1),
# which decides one shape of each inversion pair, and a shape costs
# ceil(rad(q-1) / 64) words per shift ANDed, each shift two gathers in O(q)
# tables: 16 shifts, or 48 where q - 1 has many primes and few units. The
# README gives the measured times.
CLASSIFY_QMAX = 1_000

# The most coefficient tuples, q^(n1+n2) * (q-1) for the (n1, n2) family over
# F_q, that the CLI's qmember walks through naive_membership, one pair search
# each. A tuple took 90-160 us on 2 cores (Python 3.11): F_17 (2,1), 78,608
# tuples, 9.0 s; F_16 (3,0), 61,440 tuples, 9.9 s. So the walk stays under
# about 16 s.
NAIVE_WALK_MAX = 100_000

CSV_HEADER = "q,p,k,omega,q_minus_1_factors,verdict,best_core"

# The least time, in seconds, between two checkpoints a scan writes after a
# completed segment (see run_scan). A write, with its os.replace, costs about
# 0.1 ms on ext4, more than a segment that keeps no row; on that clock a kill
# loses at most about this much work.
CHECKPOINT_EVERY_S = 1.0


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


def _pair_walk(ctx: FieldCtx, f: RationalFunc) -> PairWitness:
    """pair_exists without its checks, for a non-exceptional f over ctx, q > 2,
    such as the family enumerators and the membership engine give."""
    m = ctx.q - 1
    examined = 0
    for t in range(1, m):
        if gcd(t, m) != 1:
            continue
        examined += 1
        alpha = ctx.exp_of(t)
        den = f.den.eval(alpha)
        if den == 0:
            continue
        val = ctx.div(f.num.eval(alpha), den)
        if ctx.is_primitive(val):
            return PairWitness(True, alpha, val, t, ctx.dlog_of(val), examined)
    return PairWitness(False, None, None, None, None, examined)


# ---------------------------------------------------------------------------
# Batched membership engine, one shape per orbit of the rad(q-1)-th powers.
# ---------------------------------------------------------------------------

# The most cells one block holds: field rows times elements where a family
# builds its tables, and shapes times columns times mask words in the engine,
# whose blocks are as many shapes as fill it with their first chunk of
# columns. A block holds at least one shape and a chunk at least one column.
_BLOCK_CELLS = 1 << 17

# The shift columns the engine ANDs for every shape of a block before it drops
# the rescued shapes; each later chunk is twice as wide.
_FIRST_COLUMNS = 16


def _mask_table(rho: int, primes: tuple[int, ...]) -> np.ndarray:
    """The (rho + 1) x ceil(rho / 64) uint64 table whose row s, s < rho, has
    bit x set iff gcd(x + s, rho) > 1, and whose row rho is all ones; bits
    from rho on are zero. Row s is row 0 rotated by s, so word w of it is the
    64 non-unit flags from t = s + 64*w on. Those windows are packed for
    every t at once, by doubling their width six times; no rho x rho array
    is made."""
    words = -(-rho // 64)
    t = np.arange(rho + 64 * words - 1)
    window = np.zeros(t.size, dtype=np.uint64)
    for ell in primes:
        window |= t % ell == 0
    for j in range(6):
        window = window[:-(1 << j)] | window[1 << j:] << np.uint64(1 << j)
    masks = np.empty((rho + 1, words), dtype=np.uint64)
    masks[:rho] = window[np.arange(rho)[:, None] + 64 * np.arange(words)]
    masks[rho] = ~np.uint64(0)
    masks[:, -1] &= np.uint64((1 << (rho - 64 * (words - 1))) - 1)
    return masks


class _Engine:
    """The membership engine of one field: it decides blocks of shapes and
    keeps their failing scale classes, all in the dlog domain.

    Scale dlog x fails a shape when x + d is a non-unit mod m = q - 1 for
    every kept shift d of the shape. Unit-ness depends only on the residue
    mod rho = rad(m), so the failing classes x mod rho are the AND, over the
    shifts, of the packed rows `masks[d mod rho]`, where bit x of row s is
    set iff gcd(x + s, rho) > 1. A zero or pole of the shape rescues no scale
    and reads row rho, which is all ones. `decide` ANDs the shifts of a block
    in chunks of columns, the first _FIRST_COLUMNS wide and each next one
    twice as wide, and after each chunk drops the shapes with no failing
    class left; a family gives the mask rows of the shapes still live only.

    The shifts come from one table of Zech logarithms, z[n] = dlog(1 + g^n)
    for n mod m (Lidl and Niederreiter, Finite Fields), built with one
    add_vec. The identity: for nonzero a and c, a + c = c * (1 + a/c) and
    a/c = g^(dlog a - dlog c), so dlog(a + c) = dlog c + z[dlog a - dlog c]
    mod m. 1 + g^n is zero exactly when g^n = -1: at n = m/2 for odd q,
    where -1 is the one element of order 2 and g^(m/2) has order 2, and at
    n = 0 for even q, where -1 = 1. There `zech` holds `zero` = -3m - 1, and
    a + c = 0 exactly when the index is that n. So every column of every
    shape is integer sums and gathers in tables of O(m) entries, whatever
    k is.

    `row[n]` is the mask row a family reads for a dlog offset n, so that
    its columns need no reduction mod m or rho:
      - n in [-m, m): z[n mod m] mod rho, and rho where z is zero;
      - n in [m, 2m): n mod rho;
      - n in [2m, 3m]: 0;
      - n in [3m + 1, 4m]: rho.
    Negative n read the last m entries, as numpy indexes from the end. So
    e - zech[i] for e in [0, m) reads rho when zech[i] is `zero`.
    """

    def __init__(self, ctx: FieldCtx):
        m, rho = ctx.q - 1, ctx.qm1.radical
        self.m, self.rho, self.words = m, rho, -(-rho // 64)
        cells = (rho + 1) * self.words
        if cells > DEFAULT_TABLE_CAP:
            raise ValueError(
                f"the membership engine of F_{ctx.q} needs a mask table of "
                f"(rho + 1) * ceil(rho / 64) = {cells} words, rho = rad(q-1), "
                f"above the limit of {DEFAULT_TABLE_CAP} (ffcore.DEFAULT_TABLE_CAP)")
        self.masks = _mask_table(rho, ctx.qm1.primes)
        self.zero = -3 * m - 1
        zech = ctx.dlog[ctx.add_vec(1, ctx.exp)]
        self.zech = np.where(zech < 0, self.zero, zech).astype(np.int32)
        reduced = np.where(zech < 0, rho, zech % rho)
        self.row = np.concatenate((reduced, np.arange(m) % rho, np.zeros(m + 1, np.intp),
                                   np.full(m, rho), reduced))
        self.prim = np.flatnonzero(np.gcd(np.arange(m), m) == 1)  # dlogs of the columns
        self.lift = np.arange(0, m, rho)  # the dlogs of H
        self.kept = [np.zeros((3, 0), dtype=np.int64)]  # (u, v, r) per block
        # the mask rows of a chunk, in one buffer for the engine's life: a
        # fresh array per chunk faults in fresh pages whenever glibc serves
        # it by mmap, which depends on what the process freed before
        self.rows = np.empty(max(_BLOCK_CELLS, self.words), dtype=np.uint64)

    def blocks(self, count: int):
        """Cut count shapes into the engine's blocks."""
        return _blocks(count, _FIRST_COLUMNS * self.words)

    def decide(self, u: np.ndarray, v: np.ndarray, shifts):
        """Keep (u[row], v[row], r) for every failing (row, x mod rho) of a
        block, if it has any.

        shifts(live, cols) gives the mask rows of the block rows live at the
        primitive elements whose dlogs are prim[cols], cols a slice of
        range(phi(m)), as a live x cols array; u and v name the rows. A
        failing class r stands for the scales x = r + j*rho, j < m / rho.
        """
        live = np.arange(u.size)
        acc = self.masks[self.rho]
        lo, step, points = 0, _FIRST_COLUMNS, self.prim.size
        while live.size and lo < points:
            step = min(step, max(1, _BLOCK_CELLS // (live.size * self.words)))
            cols = slice(lo, min(lo + step, points))
            index = shifts(live, cols).T
            rows = self.rows[:index.size * self.words].reshape(*index.shape, self.words)
            np.take(self.masks, index, axis=0, out=rows, mode="clip")
            acc = np.bitwise_and.reduce(rows, axis=0) & acc
            alive = acc.any(axis=1)
            live, acc = live[alive], acc[alive]
            lo, step = cols.stop, 2 * step
        if live.size:
            bits = acc[:, :, None] >> np.arange(64, dtype=np.uint64) & np.uint64(1)
            rows, r = np.nonzero(bits.reshape(live.size, -1))
            self.kept.append(np.stack((u[live[rows]], v[live[rows]], r)))


def _blocks(count: int, width: int):
    """Cut count items of width cells each into slices of at most _BLOCK_CELLS
    cells, and at least one item."""
    step = max(1, _BLOCK_CELLS // width)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _sorted_triples(a: np.ndarray, b: np.ndarray, c: np.ndarray
                    ) -> list[tuple[int, int, int]]:
    """The distinct (a, b, c) of three parallel arrays, ascending."""
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    order = np.lexsort((c, b, a))
    a, b, c = a[order], b[order], c[order]
    new = np.ones(a.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (c[1:] != c[:-1])
    return list(zip(a[new].tolist(), b[new].tolist(), c[new].tolist()))


def _minus_one(ctx: FieldCtx) -> int:
    """dlog(-1): m/2 for odd q, 0 for even q."""
    return (ctx.q - 1) // 2 if ctx.p > 2 else 0


def _failing_triples_1_1(ctx: FieldCtx) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a(x+b)/(x+c) lacking a primitive pair, b != c both
    nonzero, as canonical orbit representatives min((a, b, c), (a^-1, c, b)).

    For u in H = <g^rho>, rho = rad(q-1), u*alpha is primitive exactly when
    alpha is, so the shape (b, c) fails at the same scales as (u*b, u*c).
    The orbits are the shapes b = g^beta, c = g^(beta+d) = g^gamma for beta
    < rho and d in [1, m/2]. Every unordered {b, c} has such an orientation,
    and both orientations when d = m/2, which the final dedupe absorbs.

    At alpha = g^t the shift of a shape is dlog((alpha + b)/(alpha + c)).
    With alpha + b = (alpha + c) + (b - c), it is z[dlog(b - c) - dlog(alpha
    + c)], and dlog(alpha + c) = gamma + z[t - gamma]. As b - c = g^beta *
    (1 - g^d), dlog(b - c) - gamma = z[d + dlog(-1)] - d, which no shape's
    beta enters (see _Engine). So the column reads the mask row
    row[e_d - zech[t - gamma]], e_d = z[d + dlog(-1)] - d mod m: row rho at
    the pole alpha = -c, where zech reads `zero`, and at the zero alpha = -b,
    where the index is dlog(-1) mod m.

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
    engine = _Engine(ctx)
    rho, zech, row, prim = engine.rho, engine.zech, engine.row, engine.prim
    # The shapes kept for shift d, with s = -d mod rho, are beta in [0, s/2]
    # and then in (s, (s+rho)/2], numbered from start[d-1] on.
    shift = np.arange(1, m // 2 + 1)
    lead = (zech[(shift + _minus_one(ctx)) % m] - shift) % m
    s = -shift % rho
    head = s // 2 + 1
    count = head + (s + rho) // 2 - s
    start = np.cumsum(count) - count
    for blk in engine.blocks(int(count.sum())):
        i = np.arange(blk.start, blk.stop)
        k = np.searchsorted(start, i, side="right") - 1
        beta = i - start[k]
        beta += np.where(beta < head[k], 0, s[k] + 1 - head[k])
        d, e = shift[k], lead[k]
        gamma = (beta + d) % m
        engine.decide(beta, d, lambda live, cols: row[
            e[live, None] - zech[prim[cols] - gamma[live, None]]])
    if len(engine.kept) == 1:
        return []
    beta, d, r = np.concatenate(engine.kept, axis=1)
    partner = (-beta - d) % rho
    other = partner != beta
    beta, d, r = (np.concatenate(v)[:, None, None] for v in (
        (beta, partner[other]), (d, d[other]), (r, (d - r)[other] % rho)))
    exp = ctx.exp
    ta = r + engine.lift[:, None]  # (reps, i, 1)
    tb = beta + engine.lift  # (reps, 1, j)
    a, a_inv = exp[ta], exp[-ta]
    b, c = exp[tb], exp[(tb + d) % m]
    swap = (a_inv < a) | ((a_inv == a) & (c < b))
    return _sorted_triples(np.where(swap, a_inv, a), np.where(swap, c, b),
                           np.where(swap, b, c))


def _quadratic_logs(engine: _Engine, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """dlog(x(x + b0)) at x = g^t, t in [0, m), for each row b0 of rows, as a
    rows x t array: 2t for row 0, where b0 = 0, and t + beta + z[t - beta]
    mod m for row 1 + beta, where b0 = g^beta; 3m at x = -b0."""
    m = engine.m
    beta = np.maximum(rows - 1, 0)[:, None]
    logs = t + beta + engine.zech[t - beta]
    logs = np.where(logs < 0, 3 * m, logs % m)
    logs[rows == 0] = 2 * t % m
    return logs


def _quadratic_shapes(ctx: FieldCtx, engine: _Engine, rows: np.ndarray,
                      irreducible: bool) -> np.ndarray:
    """The shapes x^2 + b0*x + c0 of rows that (2,0) decides: a rows x (m + 1)
    mask whose column j < m stands for c0 = g^j and column m for c0 = 0.

    b0^2 = 4*c0 drops c0 = g^(2*beta - dlog 4) from row 1 + beta of an odd
    field, where dlog 4 = 2*z[0], and c0 = 0 from row 0; in an even field
    4 = 0, and the rule drops row 0 whole. With irreducible=True a shape
    with a root x goes too: c0 = 0 (x = 0) and c0 = -x(x + b0), whose dlog
    is dlog(-1) plus `_quadratic_logs` at x."""
    m = engine.m
    keep = np.ones((rows.size, m + 1), dtype=bool)
    if ctx.p == 2:
        keep[rows == 0] = False
    else:
        keep[rows == 0, m] = False
        linear = rows > 0
        keep[linear, (2 * (rows[linear] - 1) - 2 * int(engine.zech[0])) % m] = False
    if irreducible:
        logs = _quadratic_logs(engine, rows, np.arange(m))
        root = np.where(logs == 3 * m, m, (logs + _minus_one(ctx)) % m)
        keep[np.arange(rows.size)[:, None], root] = False
        keep[:, m] = False
    return keep


def _failing_triples_2_0(ctx: FieldCtx, irreducible: bool = False
                         ) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a*x^2 + b*x + c (b^2 != 4ac) lacking a primitive pair;
    with irreducible=True only those with no root in F_q. For even q the rule
    reads b != 0, which also drops a*x^2 + c, c != 0 (see enumerate_family).

    Row 0 holds the shapes x^2 + c0 and row 1 + beta the shapes x^2 +
    g^beta*x + c0, those that `_quadratic_shapes` keeps. For u in H =
    <g^rho>, a*x^2 + b*x + c fails exactly when a*u^2*x^2 + b*u*x + c does,
    and shapes keep their roots under it, so these rows stand for every
    quadratic. A failing class r mod rho of the shape (row, c0) expands to
    (a*u^2, a*b0*u, a*c0) for a = g^(r + i*rho) and u in H. Row 0 holds every
    c0 already, and its expansion only repeats triples, which the final
    dedupe drops.

    At alpha = g^t the value is c0 + x(x + b0) at x = alpha, whose dlog L is
    `_quadratic_logs`. For c0 = g^lam it is lam + z[L - lam] (see _Engine),
    and the engine decides the scales y = x + lam on the mask rows
    row[L - lam], whose class r is y - lam: row 0 when L is 3m, where the
    value is c0, and row rho at a root. For c0 = 0, lam stands as -m: the
    row is L mod rho, or rho when L is 3m, and r = y.
    """
    m = ctx.q - 1
    engine = _Engine(ctx)
    rho, row = engine.rho, engine.row
    for grp in _blocks(rho + 1, m + 1):
        rows = np.arange(grp.start, grp.stop)
        logs = _quadratic_logs(engine, rows, engine.prim)
        kept = np.flatnonzero(_quadratic_shapes(ctx, engine, rows, irreducible))
        for blk in engine.blocks(kept.size):
            shape, j = np.divmod(kept[blk], m + 1)
            lam = np.where(j == m, -m, j)[:, None]
            engine.decide(shape + grp.start, j, lambda live, cols: row[
                logs[shape[live], cols] - lam[live]])
    if len(engine.kept) == 1:
        return []
    rows, j, y = (v[:, None, None] for v in np.concatenate(engine.kept, axis=1))
    exp, lift = ctx.exp, engine.lift
    ta = (y - j) % rho + lift[:, None]  # (reps, i, 1): rho divides m, so c0 = 0 gives y
    tu = ta + lift  # a*u
    au2 = exp[(tu + lift) % m]
    b = np.where(rows == 0, 0, exp[(tu + rows - 1) % m])
    c = np.where(j == m, 0, exp[(ta + j) % m])
    return _sorted_triples(*np.broadcast_arrays(au2, b, c))


# The families the engine decides, and so the ones a classification covers:
# each with its failing-triple finder, called as find(ctx, irreducible), and
# the function a triple (a, b, c) stands for. Every other family goes
# through naive_membership.
ENGINE_FAMILIES = {
    (1, 1): (lambda ctx, irreducible: _failing_triples_1_1(ctx),
             lambda ctx, a, b, c: RationalFunc(Poly(ctx, (ctx.mul(a, b), a)),
                                               Poly(ctx, (c, 1)))),
    (2, 0): (_failing_triples_2_0,
             lambda ctx, a, b, c: RationalFunc(Poly(ctx, (c, b, a)), Poly(ctx, (1,)))),
}


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
    The engine refuses, with ValueError, a field whose mask table, (rho + 1)
    * ceil(rho / 64) words for rho = rad(q-1), exceeds
    ffcore.DEFAULT_TABLE_CAP. Its other tables hold O(q) entries, it works
    in blocks of at most _BLOCK_CELLS cells, and a shape costs only the
    shifts it takes to rescue every scale.

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
    fam, irreducible = (n1, n2), quadratic_scope == "irreducible"
    if fam not in ENGINE_FAMILIES:
        return naive_membership(ctx, n1, n2, irreducible)
    find, make = ENGINE_FAMILIES[fam]
    triples = find(ctx, irreducible)
    if not triples:
        return QMembership(ctx.q, fam, True, None, 0)
    return QMembership(ctx.q, fam, False, make(ctx, *triples[0]), len(triples))


# ---------------------------------------------------------------------------
# Range scan.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters that define the output (worker count never does).

    Every verdict comes from the one exact kernel, `bounds.best_prefix`,
    which sweeps every core size 0..omega with the least primes of q-1 in
    the core and agrees with the all-subsets search (a test oracle only).
    The scan takes every prime power in [lo, hi]. From lo = 2 it includes
    the degenerate field F_2, which the criterion rejects, and finds the
    paper's 3937 survivors; from lo = 3, the CLI's default, it finds the
    3936-element subset.

    Building a config refuses lo below SCAN_FLOOR, hi above SCAN_HI_MAX
    (where the segment kernel's 10 columns would not do), n < 2 and
    unknown emit values.
    """

    lo: int
    hi: int
    n: int
    emit: str = "candidates"

    def __post_init__(self):
        if self.lo < SCAN_FLOOR:
            raise ValueError(f"scan range starts at {SCAN_FLOOR}")
        if self.hi > SCAN_HI_MAX:
            raise ValueError(f"scan range ends at most at {SCAN_HI_MAX}, got hi={self.hi}")
        if self.n < 2:
            raise ValueError("degree n must be >= 2")
        if self.emit not in ("candidates", "all"):
            raise ValueError(f"unknown emit value {self.emit!r}")

    def config_hash(self) -> str:
        # Scans from 2 were once spelled {lo: 3, mode: "faithful"} and every
        # other scan {mode: "exact"}; hashing them so keeps those checkpoints
        # resumable. A faithful scan from lo > 3 (always equal to the exact
        # one) hashed "faithful", so its checkpoint is refused, not resumed.
        lo, mode = (3, "faithful") if self.lo == 2 else (self.lo, "exact")
        blob = json.dumps(
            {"lo": lo, "hi": self.hi, "n": self.n, "mode": mode, "emit": self.emit},
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


def _scan_segment(cfg: ScanConfig, kernel: SegmentKernel,
                  segment: tuple[int, int]) -> list[ScanRecord]:
    """The records of the prime powers q in one segment [seg_lo, seg_hi)
    of the kernel's plan, ascending.

    Only the q - 1 of prime powers are factored. With emit="candidates" the
    kernel drops a row, before any large prime is marked or gathered, when
    q is above the `bounds.code_thresholds` ceiling of q - 1's primes below
    the cut. That drops only rows whose verdict is a pass. Every other row,
    and every row under emit="all", gets its verdict from `best_prefix`.
    """
    n = cfg.n
    ceilings = code_thresholds(n, kernel.cut).ceilings if cfg.emit == "candidates" else None
    q, p, k, primes, exps, cnt = kernel.segment(*segment, ceilings)
    if not q.size:
        return []
    records = []
    for qi, pi, ki, omega, row, erow in zip(q.tolist(), p.tolist(), k.tolist(), cnt.tolist(),
                                            primes.tolist(), exps.tolist()):
        row = row[:omega]
        verdict, r, _, _ = best_prefix(qi, row, n)
        if cfg.emit == "candidates" and verdict != "candidate":
            continue
        records.append(ScanRecord(qi, pi, ki, omega, tuple(zip(row, erow)), verdict,
                                  tuple(row[:r])))
    return records


def _checkpoint_write(path: str, payload: dict):
    """Replace the checkpoint at path with payload, atomically: through a
    .tmp file beside it, which a failed write or replace removes again."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _checkpoint_read(path: str | None, fresh: dict, hi: int, csv_path: str) -> dict:
    """The state a resume continues from: the checkpoint at path, refused
    unless it belongs to the scan of fresh (its config hash) over [lo, hi],
    lo = fresh's next q, holds every key of fresh, each valid, and bookmarks
    a byte of the CSV at csv_path that the file still holds. Keys outside
    fresh are dropped.

    Valid means: every counter is an int (not a bool), lo <= next_q <= hi + 1,
    0 <= num_candidates <= records_emitted, and max_candidate is None or an
    int in [lo, next_q)."""
    if not path or not os.path.exists(path):
        raise FileNotFoundError("resume requested but no checkpoint found")
    with open(path) as fh:
        ck = json.load(fh)
    if not isinstance(ck, dict) or ck.get("config_hash") != fresh["config_hash"]:
        raise ValueError(f"checkpoint {path} belongs to another scan configuration")
    lo = fresh["next_q"]
    nq, emitted, cands, top = (ck.get(key) for key in (
        "next_q", "records_emitted", "num_candidates", "max_candidate"))

    def ints(*values):
        return all(type(v) is int for v in values)

    valid = {"next_q": ints(nq) and lo <= nq <= hi + 1,
             "records_emitted": ints(emitted) and emitted >= 0,
             "num_candidates": ints(cands, emitted) and 0 <= cands <= emitted,
             "max_candidate": top is None or ints(top, nq) and lo <= top < nq,
             "csv_offset": ints(ck.get("csv_offset"))}
    bad = [key for key in fresh if key not in ck or not valid.get(key, True)]
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


# The config and segment kernel of a scan's worker process, set when the
# pool starts it, so that a task carries only its segment's bounds.
_WORKER: tuple[ScanConfig, SegmentKernel] | None = None


def _worker_start(cfg: ScanConfig, plan):
    # Ctrl-C reaches the whole process group: the parent stops the scan and
    # terminates the pool, so a worker does not print a traceback of its own
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _WORKER
    _WORKER = cfg, SegmentKernel(plan)


def _worker_segment(segment: tuple[int, int]) -> list[ScanRecord]:
    return _scan_segment(*_WORKER, segment)


def _scan_segments(cfg: ScanConfig, plan, workers: int = 1):
    """The one scan driver: yield (seg_hi, records) for each (seg_lo, seg_hi)
    of the `prime_power_segments` plan, in range order, where records are
    those of every q in the segment.

    Each segment is decided by `_scan_segment` through map, with one segment
    kernel for the whole scan, or through the imap of a pool of workers
    processes, each with its own kernel. The pool is terminated when the
    generator finishes or is closed.
    """
    if workers > 1:
        from multiprocessing import Pool  # imported only by a parallel scan
    with (Pool(workers, _worker_start, (cfg, plan)) if workers > 1
          else nullcontext()) as pool:
        # one segment per task costs more in messages than a segment that
        # keeps no row; a task of about 1/8 of each worker's share does not
        chunk = max(1, len(plan) // (8 * workers))
        decided = (pool.imap(_worker_segment, plan, chunk) if pool else
                   map(partial(_scan_segment, cfg, SegmentKernel(plan)), plan))
        for (_, seg_end), records in zip(plan, decided):
            yield seg_end, records


def exception_scan(lo: int, hi: int, n: int = 2, *, emit: str = "candidates",
                   segment_size: int = DEFAULT_SEGMENT):
    """Stream ScanRecords for every prime power in [lo, hi], ascending q.

    The sequential path through the same driver as `run_scan`, without CSV
    output or checkpoints. The range must lie within [SCAN_FLOOR,
    SCAN_HI_MAX] = [2, 200560490129].
    """
    cfg = ScanConfig(lo, hi, n, emit)
    plan = prime_power_segments(lo, hi, segment_size)
    for _, records in _scan_segments(cfg, plan):
        yield from records


def run_scan(lo: int, hi: int, n: int = 2, *, mode: str = "exact",
             emit: str = "candidates", workers: int = 1,
             csv_path: str | None = None, checkpoint_path: str | None = None,
             resume: bool = False, segment_size: int = DEFAULT_SEGMENT,
             progress=None) -> tuple[ScanResult, list[ScanRecord]]:
    """Run a scan with optional parallelism, CSV output, and checkpoints.

    Output is byte-identical for any worker count: segments are disjoint,
    processed independently, and written in range order. A checkpoint is a
    bookmark in the scan's CSV, so it needs csv_path. It stores the scan's
    state after a completed segment, the atomic unit of resumable work: the
    next q, the records and candidates so far, the largest candidate, the
    CSV's byte offset and the config hash. The CSV is flushed up to that
    offset before any checkpoint names it, so every checkpoint the scan
    writes is a valid bookmark. It is written in three cases only: when a
    fresh scan starts (next q = lo, the offset just past the header); after
    a completed segment, at most once per CHECKPOINT_EVERY_S seconds; and
    when the call ends, by return or by any exception, with the state of
    the last completed segment if the file holds an older one. Nothing is
    written before the CSV holds its header, a failed checkpoint write is
    not retried, and a failed write at the end never hides the exception in
    flight. So an exception or a Ctrl-C leaves the exact bookmark, and a
    kill loses at most about one interval of work. A checkpoint path that
    is, or whose .tmp file is, the CSV itself is refused before any file is
    opened.

    A scan starts at lo, a resume at the checkpoint's next q, in segments of
    this call's size (which may differ from the interrupted run's), from the
    checkpoint's counters, which are each checked before the CSV is opened
    (see _checkpoint_read). It cuts the CSV back to the stored byte offset,
    so lines written after the last checkpoint are not written twice. The
    range must lie within [SCAN_FLOOR, SCAN_HI_MAX] = [2, 200560490129]. An
    OSError or a KeyboardInterrupt that stops the scan comes back as one of
    its kind that says how far the scan got and whether it can resume.

    mode is the older spelling of a scan from 2, kept because the benchmark
    harness (perfbench/workloads.py) still passes it: "faithful" with lo = 3
    scans from 2, and any other lo, or "exact", is taken as given.
    """
    if mode not in ("exact", "faithful"):
        raise ValueError(f"unknown scan mode {mode!r}")
    cfg = ScanConfig(2 if mode == "faithful" and lo == 3 else lo, hi, n, emit)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (checkpoint_path or resume) and not csv_path:
        raise ValueError(
            "a checkpoint needs the CSV of its scan (CLI: --out): it records the "
            "CSV's byte offset, and a resume continues that file")
    if checkpoint_path and os.path.realpath(csv_path) in (
            os.path.realpath(checkpoint_path), os.path.realpath(checkpoint_path + ".tmp")):
        raise ValueError(
            f"checkpoint {checkpoint_path} would overwrite the CSV {csv_path}, through "
            "itself or its .tmp file; give the checkpoint a path of its own")
    fresh = {"next_q": cfg.lo, "records_emitted": 0, "num_candidates": 0,
             "max_candidate": None, "csv_offset": 0, "config_hash": cfg.config_hash()}
    state = _checkpoint_read(checkpoint_path, fresh, hi, csv_path) if resume else fresh
    # segments start at the resume point, so their size never changes output
    plan = prime_power_segments(state["next_q"], hi, segment_size)

    # state is the snapshot after the last completed segment, replaced, never
    # changed, by the next one; saved is the snapshot the checkpoint holds,
    # and fresh, whose offset 0 no CSV holds, stands for no bookmark at all
    saved = state
    write_failed = False

    def bookmark():
        nonlocal saved, write_failed
        write_failed = True  # until the write returns
        _checkpoint_write(checkpoint_path, state)
        saved, write_failed = state, False

    all_records: list[ScanRecord] = []
    out = open(csv_path, "r+" if resume else "w") if csv_path else None
    segments = _scan_segments(cfg, plan, workers)
    stop = None
    try:
        if resume:
            out.seek(state["csv_offset"])
            out.truncate()
        elif out:
            out.write(CSV_HEADER + "\n")
            out.flush()
            state = {**state, "csv_offset": out.tell()}
            if checkpoint_path:
                bookmark()
        due = monotonic() + CHECKPOINT_EVERY_S
        for seg_end, seg_records in segments:
            offset = state["csv_offset"]
            if not out:
                all_records.extend(seg_records)
            elif seg_records:
                out.write("".join(rec.csv_line() + "\n" for rec in seg_records))
                out.flush()
                offset = out.tell()
            found = [rec.q for rec in seg_records if rec.verdict == "candidate"]
            state = {**state, "next_q": seg_end,
                     "records_emitted": state["records_emitted"] + len(seg_records),
                     "num_candidates": state["num_candidates"] + len(found),
                     "max_candidate": found[-1] if found else state["max_candidate"],
                     "csv_offset": offset}
            if checkpoint_path and monotonic() >= due:
                bookmark()
                due = monotonic() + CHECKPOINT_EVERY_S
            if progress:
                progress(seg_end, hi, state["records_emitted"])
        if out:
            out.close()
    except BaseException as e:
        stop = e
    # closing the driver terminates its worker pool; a resume cuts off any
    # lines past the last checkpoint, so a failed close after a stop loses nothing
    segments.close()
    if out:
        with suppress(OSError):
            out.close()
    # the one exit bookmark: its failure stops a scan that ran to the end,
    # and never hides the exception that stopped one
    if checkpoint_path and state is not saved and not write_failed:
        try:
            bookmark()
        except (OSError, KeyboardInterrupt) as e:
            stop = stop or e
    if isinstance(stop, (OSError, KeyboardInterrupt)):
        kind = OSError if isinstance(stop, OSError) else KeyboardInterrupt
        raise kind(
            f"{str(stop) or 'interrupted'}; the scan stopped with every q below "
            f"{state['next_q']} done. "
            + (f"It is checkpointed at {checkpoint_path} up to q={saved['next_q']}; "
               "rerun with resume=True (CLI: --resume) to continue." if saved is not fresh
               else "It is not checkpointed; rerun the scan, with a writable checkpoint "
               "path to make it resumable.")) from stop
    if stop:
        raise stop
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
    failing function, re-verified by `pair_exists`, which walks every
    primitive alpha and checks that f is non-exceptional. Work stops at
    CLASSIFY_QMAX with an explicit high-water mark when q_max exceeds
    it.

    jsonl_path, if given, is opened before any field is decided, so a path
    that cannot be written is refused at once; each exception's
    `witness_entry` line is written and flushed as soon as it is verified.

    For the (2, 0) family the default scope counts only irreducible failing
    quadratics, matching the established classification; pass
    quadratic_scope="all" for the full-family superset (see q_in_Q).
    """
    if family not in ENGINE_FAMILIES:
        raise ValueError(f"classification supports families (1,1) and (2,0), got {family}")
    high_water = min(q_max, CLASSIFY_QMAX)
    exceptions: list[ClassifiedException] = []
    with open(jsonl_path, "w") if jsonl_path else nullcontext() as report:
        # from 3, not SCAN_FLOOR: q_in_Q refuses q <= 2, where F_2* is trivial
        for rec in exception_scan(3, high_water, sum(family)):
            ctx = field_make(rec.p, rec.k)
            res = q_in_Q(ctx, *family, quadratic_scope=quadratic_scope)
            if progress:
                progress(rec.q, res.member)
            if res.member:
                continue
            f = res.failing
            if pair_exists(ctx, f).found:
                raise AssertionError(f"witness disagreement at q={rec.q}")
            exceptions.append(ClassifiedException(
                rec.q, rec.p, rec.k, family, f.num.coeffs, f.den.coeffs))
            if report:
                report.write(json.dumps(witness_entry(
                    rec.q, family, f.num.coeffs, f.den.coeffs)) + "\n")
                report.flush()
    return ClassificationResult(family, q_max, exceptions, high_water,
                                complete=q_max <= CLASSIFY_QMAX)


def write_witness_jsonl(path: str, entries: list[dict]):
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")


def coeffs_json(num, den) -> dict:
    """The {"num", "den"} object of f's coefficients, constant term first."""
    return {"num": list(num), "den": list(den)}


def witness_entry(q: int, family: tuple[int, int], num, den,
                  witness: PairWitness | None = None) -> dict:
    """One witness-report line: f = num/den over F_q and its pair, if any."""
    return {"q": q, "family": list(family), "f": coeffs_json(num, den),
            "witness": (None if witness is None or not witness.found else
                        {"alpha_dlog": witness.alpha_dlog,
                         "falpha_dlog": witness.value_dlog})}
