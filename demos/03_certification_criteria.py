"""
Certification criteria: the direct test and its sieve refinement
================================================================

A field is certified for degree n once sqrt(q) > n * W(q-1)^2, and the sieve
variant relaxes W(q-1) to W(l) for a divisor l of q-1 at the price of the
factor Delta. All comparisons are exact; the printed decimals are cosmetic.

Scans and `check-bound` decide with one integer kernel over the least-primes
cores (`sieve_pass_prefix`, swept by `best_prefix`, with `prefix_terms`
reading delta, Delta and the threshold off it); the all-subsets search in
Fractions (`best_sieve`, `SieveParams`) is kept as its oracle, and both are
shown side by side below.
"""

from primpair.bounds import (
    PASS_TARGETS,
    SieveParams,
    best_prefix,
    best_sieve,
    check_pass_target,
    generic_cn,
    direct_criterion_check,
    prefix_terms,
    sieve_pass_prefix,
)
from primpair.ffcore import factorize

# The direct criterion is hopeless for 331 (q - 1 has four prime factors)...
q = 331
qm1 = factorize(q - 1)
print(f"q = {q}, q-1 = {qm1}, W = {qm1.num_squarefree_divisors}")
print("direct criterion:", direct_criterion_check(2, q, qm1))

# ...and sieving does not save it: every core fails, so 331 is a survivor
# (in fact a true exception: some a(x+b)/(x+c) over F_331 has no pair).
passed, best = best_sieve(q, 2)
print(f"oracle, all {2**qm1.omega} cores: best {best.core}, delta = {best.delta},"
      f" Delta = {best.big_delta}, threshold = {best.threshold(2)}, passes = {passed}")

# The kernel only tries the least-primes cores {}, {2}, {2,3}, ... and lands
# on the same best core and the same threshold, in plain integers.
primes = list(qm1.primes)
verdict, r, _, _ = best_prefix(q, primes, 2)
delta, big_delta, threshold = prefix_terms(primes, r, 2)
print(f"kernel, {len(primes) + 1} prefixes: best {tuple(primes[:r])}, delta = {delta},"
      f" Delta = {big_delta}, threshold = {threshold}, verdict = {verdict}")
for r in range(len(primes) + 1):
    res = sieve_pass_prefix(q, primes, r, 2)
    shown = "inapplicable (delta <= 0)" if res is None else f"threshold {res[1]}/{res[2]}"
    print(f"  core {tuple(primes[:r])}: {shown}")

# A hand-picked configuration shows the exact rationals at work.
params = SieveParams.from_core(331, qm1, (2, 3, 5))
print(f"core (2,3,5): delta = {params.delta} = {float(params.delta):.4f},"
      f" Delta = {params.big_delta} = {float(params.big_delta):.4f},"
      f" threshold = {float(params.threshold(2)):.2f} vs sqrt(q) = {q**0.5:.2f}")

# 65537 = 2^16 + 1 sails through: W(q-1) = 2.
print("\nq = 65537:", best_prefix(65537, [2], 2)[0],
      "(oracle:", "pass)" if best_sieve(65537, 2)[0] else "fail)")

# The worst-case pass grid: assume a range for omega(q-1), put the least
# primes into the core, and bound the threshold no matter what q is.
print("\nworst-case pass grid (degree, omega range, W(l), threshold bound):")
for target in PASS_TARGETS:
    row = check_pass_target(target)
    print(f"  n={target.n} {target.min_omega:2d}..{target.max_omega:2d}"
          f" W(l)=2^{target.core_size}: threshold < {target.threshold_ub:>8d}"
          f" (computed {row['threshold']:.3f}) ok={row['ok']}")

# And the fully general bound: q > n^6 * c^12 certifies any q for degree n.
for n in (2, 3, 4, 5):
    print(f"degree {n}: every q > {generic_cn(n):.4e} is certified")
