"""
Scanning a range for criterion survivors
========================================

Every prime power in a range is tested against the certification criteria
with the exact factorization of q - 1; the survivors ("candidates") are the
only fields that could possibly lack a primitive pair for some function of
the degree. The full reproduction run scans [2, 5.86e7] and finds 3937
survivors (largest 33093061), F_2 included; here we scan a small range.
"""

import collections

from primpair.search import exception_scan, run_scan

# Stream records for a small range; only survivors are emitted by default.
survivors = [rec.q for rec in exception_scan(3, 20_000, 2)]
print(f"[3, 20000]: {len(survivors)} survivors")
print("first 20:", survivors[:20])
print("last 5  :", survivors[-5:])

# Verdict distribution when every record is emitted.
counts = collections.Counter(
    rec.verdict for rec in exception_scan(3, 20_000, 2, emit="all"))
print("\nverdicts:", dict(counts))

# The runner adds workers, CSV output, and checkpoints; output bytes do not
# depend on the worker count.
result, records = run_scan(3, 2_000_000, 2, workers=4)
print(f"\n[3, 2e6]: {result.num_candidates} survivors,"
      f" largest {result.max_candidate}")

# Survivors thin out fast: the criterion wins once q clears the worst-case
# threshold for its omega(q-1).
by_magnitude = collections.Counter(len(str(rec.q)) for rec in records)
print("survivors by decimal length:", dict(sorted(by_magnitude.items())))
