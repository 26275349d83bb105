"""Primitive pairs (alpha, f(alpha)) in finite fields.

Library layout:

 - :mod:`primpair.ffcore`   -- fields, discrete logs, integer arithmetic
 - :mod:`primpair.polyrat`  -- polynomials and rational functions over F_q
 - :mod:`primpair.charsums` -- multiplicative characters and exact sums
 - :mod:`primpair.bounds`   -- certification criteria and their constants
 - :mod:`primpair.search`   -- exhaustive searches, scans, classification
 - :mod:`primpair.cli`      -- command-line front end
"""

from .ffcore import (
    Factorization,
    FieldCtx,
    factorize,
    field_make,
    is_prime,
    prime_power_iter,
)

__all__ = [
    "Factorization",
    "FieldCtx",
    "factorize",
    "field_make",
    "is_prime",
    "prime_power_iter",
]

__version__ = "0.1.0"
