import functools

import numpy as np
import pytest

from primpair.ffcore import factorize, field_make, prime_power_iter


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
    omega) for segment with no skip, copied, after checking a call with a
    skip against it: the skip sees every row with factorize's omega(q - 1)
    <= omega_upper <= min(omega(q - 1) + 1, the number of columns), and the
    rows it keeps, every other one, come out as the same rows of the full
    call."""
    def _check(kernel, segment):
        full = [a.copy() for a in kernel.segment(*segment)]
        seen = []

        def skip(q, omega_upper):
            seen.append((q.tolist(), omega_upper.tolist()))
            return np.arange(q.size) % 2 == 1

        kept = kernel.segment(*segment, skip)
        (qs, upper), = seen
        assert qs == full[0].tolist()
        width = full[3].shape[1]
        for q, w in zip(qs, upper):
            omega = factorize(q - 1).omega
            assert omega <= w <= min(omega + 1, width), q
        for a, b in zip(kept, full):
            assert a.shape == b[::2].shape and (a == b[::2]).all(), segment
        return full
    return _check
