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
    exps, omega) for segment with no skip, copied, after checking a call
    with a skip against it. The skip sees every row first, then the rows it
    kept; each time with the code of the row's q - 1 over the kernel's first
    `cut` base primes and a w >= factorize's omega(q - 1), within the
    columns, and the second time with w <= min(omega(q - 1) + 1, the first
    w). It drops every third row at each stage, and the rows kept come out as
    the same rows of the full call."""
    def _check(kernel, segment):
        full = [a.copy() for a in kernel.segment(*segment)]
        width = full[3].shape[1]
        position = {q: i for i, q in enumerate(full[0].tolist())}
        seen = []

        def skip(q, code, w):
            stage = len(seen)
            seen.append(q.tolist())
            for qi, c, wi in zip(q.tolist(), code.tolist(), w.tolist()):
                omega = factorize(qi - 1).omega
                assert c == sum(1 << j for j, ell in enumerate(kernel.base[:kernel.cut].tolist())
                                if (qi - 1) % ell == 0), qi
                assert omega <= wi <= width, qi
                if stage:
                    assert wi <= min(omega + 1, first_w[qi]), qi
                else:
                    first_w[qi] = wi
            return np.array([position[qi] % 3 == 1 + stage for qi in q.tolist()], dtype=bool)

        first_w = {}
        kept = kernel.segment(*segment, skip)
        assert seen[0] == full[0].tolist()
        assert seen[1:] == ([[v for v in seen[0] if position[v] % 3 != 1]] if kept[0].size
                            else [])
        for a, b in zip(kept, full):
            assert a.shape == b[::3].shape and (a == b[::3]).all(), segment
        return full
    return _check
