import functools

import numpy as np
import pytest

from primpair.ffcore import field_make, prime_power_iter


@functools.lru_cache(maxsize=None)
def _field(p: int, k: int):
    return field_make(p, k)


@pytest.fixture(scope="session")
def field():
    """Session-cached field constructor: field(p, k) -> FieldCtx."""
    return _field


@pytest.fixture(scope="session")
def prime_powers():
    """prime_powers(lo, hi) -> list of (p, k, q)."""
    @functools.lru_cache(maxsize=None)
    def _pps(lo, hi):
        return list(prime_power_iter(lo, hi))
    return _pps


@pytest.fixture(scope="session")
def skipped_segment():
    """skipped_segment(kernel, segment) -> the kernel's (q, p, k, primes,
    exps, omega) for segment with no ceilings, copied, after checking a call
    with ceilings against it. Each row's code in the kernel's bits is the set
    of its q - 1's primes among the kernel's first `cut` base primes. Two
    calls with ceilings follow, each calling it once, with an m_max of at
    least seg_hi - 2. The first table keeps some rows of the segment and
    drops others; the second keeps the same rows among those whose q - 1 is
    a multiple of 6 and drops every other row. The rows kept come out as
    the rows of the full call with q <= table[code]."""
    def _check(kernel, segment):
        full = [a.copy() for a in kernel.segment(*segment)]
        seg_lo, seg_hi = segment
        small = kernel.base[:kernel.cut].tolist()
        code = np.array([sum(1 << j for j, ell in enumerate(small) if (qi - 1) % ell == 0)
                         for qi in full[0].tolist()], dtype=np.int64)
        assert (kernel.bits[full[0] - seg_lo] == code).all(), segment
        codes = np.arange(1 << kernel.cut)
        mixed = seg_lo + 7919 * codes % (seg_hi - seg_lo)
        six = (codes & 3) == (3 & codes[-1])  # 2 and 3, as far as the cut holds them
        for table in (mixed, np.where(six, mixed, seg_lo - 1)):
            seen = []

            def ceilings(m_max):
                seen.append(m_max)
                return table

            kept = kernel.segment(*segment, ceilings)
            assert len(seen) == 1 and seen[0] >= seg_hi - 2, segment
            keep = full[0] <= table[code]
            for a, b in zip(kept, full):
                assert a.shape == b[keep].shape and (a == b[keep]).all(), segment
        return full
    return _check
