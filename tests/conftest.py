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
    exps, omega) for segment with no skip, copied, after checking a call
    with a skip against it. The skip is called once, on every row, with
    the code of each row's q - 1 over the kernel's first `cut` base primes.
    It drops every third row, and the rows kept come out as the same rows
    of the full call."""
    def _check(kernel, segment):
        full = [a.copy() for a in kernel.segment(*segment)]
        position = {q: i for i, q in enumerate(full[0].tolist())}
        seen = []

        def skip(q, code):
            seen.append(q.tolist())
            for qi, c in zip(q.tolist(), code.tolist()):
                assert c == sum(1 << j for j, ell in enumerate(kernel.base[:kernel.cut].tolist())
                                if (qi - 1) % ell == 0), qi
            return np.array([position[qi] % 3 == 1 for qi in q.tolist()], dtype=bool)

        kept = kernel.segment(*segment, skip)
        assert seen == [full[0].tolist()]
        for a, b in zip(kept, full):
            keep = np.arange(len(b)) % 3 != 1
            assert a.shape == b[keep].shape and (a == b[keep]).all(), segment
        return full
    return _check
