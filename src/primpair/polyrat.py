"""Polynomials and rational functions over a FieldCtx.

Coefficients are packed field values (plain ints), stored low degree first
with no trailing zeros; the zero polynomial has degree -inf. A Poly takes its
coefficients through FieldCtx.packed, so integers and coefficient vectors from
outside are accepted there and nowhere else; Poly arithmetic and the family
enumerators build their results with Poly._of, from values already packed
and in range. Rational functions are
kept in lowest terms with a monic denominator. The module also houses the
square-free decomposition in characteristic p (the multiplicity data behind
the exceptionality test), the reciprocal reduction f(x) -> f(1/x), and the
canonical enumeration of rational-function families.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf

from .ffcore import FieldCtx

NEG_INF = -inf


class Poly:
    """Univariate polynomial over a FieldCtx, packed coefficients low-first."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self._assign(ctx, [ctx.packed(c) for c in coeffs])

    @classmethod
    def _of(cls, ctx: FieldCtx, vals) -> "Poly":
        """A Poly of packed values already in range, such as FieldCtx
        arithmetic returns; they skip the ctx.packed check."""
        poly = cls.__new__(cls)
        poly._assign(ctx, list(vals))
        return poly

    def _assign(self, ctx: FieldCtx, vals: list):
        while vals and vals[-1] == 0:
            vals.pop()
        self.ctx = ctx
        self.coeffs = tuple(vals)

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _same_field(self, other: "Poly"):
        if self.ctx is not other.ctx:
            raise ValueError("polynomials over different fields")

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ctx is other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly._of(ctx, out)

    def __neg__(self) -> "Poly":
        return Poly._of(self.ctx, [self.ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        ctx = self.ctx
        if self.is_zero() or other.is_zero():
            return Poly._of(ctx, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
        return Poly._of(ctx, out)

    def scale(self, c) -> "Poly":
        return Poly._of(self.ctx, [self.ctx.mul(a, c) for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly._of(ctx, []), self
        quot = [0] * (dq + 1)
        inv_lead = ctx.inv(other.coeffs[-1])
        for shift in range(dq, -1, -1):
            c = ctx.mul(rem[shift + len(other.coeffs) - 1], inv_lead)
            if c:
                quot[shift] = c
                for i, b in enumerate(other.coeffs):
                    rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(c, b))
        return Poly._of(ctx, quot), Poly._of(ctx, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.ctx.inv(self.coeffs[-1]))

    def derivative(self) -> "Poly":
        ctx = self.ctx
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            mult = i % ctx.p
            out.append(ctx.mul(c, mult) if mult else 0)
        return Poly._of(ctx, out)

    def eval(self, x) -> int:
        """Horner evaluation; returns a packed value."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.ctx.add(self.ctx.mul(acc, x), c)
        return acc

    def x_valuation(self) -> int:
        """Largest j with x^j dividing the polynomial (0 for nonzero constant)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError

    def pth_root(self) -> "Poly":
        """For f with zero derivative, the g with g^p = f.

        Takes every p-th coefficient and inverts Frobenius on it (c -> c^(p^(k-1))).
        """
        ctx = self.ctx
        p = ctx.p
        root_exp = p ** (ctx.k - 1)
        out = [ctx.pow(c, root_exp) for c in self.coeffs[::p]]
        return Poly._of(ctx, out)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + f" over F_{self.ctx.q})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_decomp(f: Poly) -> list[tuple[Poly, int]]:
    """Write f = c * prod a_i^{m_i} with the a_i monic, square-free, coprime.

    Returns the (a_i, m_i) pairs; the constant c is lead(f). Handles the
    characteristic-p collapse: when f' vanishes identically, f = g^p for the
    p-th root polynomial g, so the decomposition of g is scaled by p.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no square-free decomposition")
    f = f.monic()
    if f.is_constant():
        return []
    d = f.derivative()
    if d.is_zero():
        return [(a, f.ctx.p * m) for a, m in squarefree_decomp(f.pth_root())]
    g = poly_gcd(f, d)
    w = f // g
    out = []
    i = 1
    while not w.is_constant():
        y = poly_gcd(w, g)
        z = w // y
        if not z.is_constant():
            out.append((z, i))
        w = y
        g = g // y
        i += 1
    if not g.is_constant():
        # leftover carries only multiplicities divisible by p
        out.extend((a, f.ctx.p * m) for a, m in squarefree_decomp(g.pth_root()))
    out.sort(key=lambda am: (am[1], am[0].coeffs))
    return out


class RationalFunc:
    """f1/f2 in lowest terms over a FieldCtx, denominator monic, f1 nonzero."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, num: Poly, den: Poly):
        if num.ctx is not den.ctx:
            raise ValueError("numerator and denominator over different fields")
        if num.is_zero() or den.is_zero():
            raise ValueError("rational function needs nonzero numerator and denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        if not den.is_monic():
            c = den.ctx.inv(den.lead)
            num, den = num.scale(c), den.scale(c)
        self.ctx = num.ctx
        self.num = num
        self.den = den

    @classmethod
    def from_coeffs(cls, ctx: FieldCtx, num, den=(1,)) -> "RationalFunc":
        return cls(Poly(ctx, num), Poly(ctx, den))

    @property
    def n1(self) -> int:
        return int(self.num.degree)

    @property
    def n2(self) -> int:
        return int(self.den.degree)

    @property
    def degree(self) -> int:
        return self.n1 + self.n2

    def __eq__(self, other):
        return (isinstance(other, RationalFunc) and self.ctx is other.ctx
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((id(self.ctx), self.num.coeffs, self.den.coeffs))

    def eval(self, x) -> int:
        """Value at a non-pole x, packed."""
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"{x} is a pole")
        return self.ctx.div(self.num.eval(x), d)

    def inverse(self) -> "RationalFunc":
        """1/f, renormalized (monic denominator)."""
        return RationalFunc(self.den, self.num)

    def __repr__(self):
        return f"RationalFunc({self.num.coeffs}/{self.den.coeffs} over F_{self.ctx.q})"


@dataclass(frozen=True)
class ExceptionalityWitness:
    """Why a rational function is (or is not) exceptional over its field.

    ``power_divisor`` is a prime d > 1 dividing q-1 that divides every listed
    multiplicity, present only when the function is exceptional and not a pure
    monomial. ``layers`` lists (degree, multiplicity) for the square-free
    layers of the non-x content of numerator and denominator.
    """

    x_power: int
    is_monomial: bool
    power_divisor: int | None
    layers: tuple[tuple[int, int], ...]


def _strip_x(poly: Poly) -> tuple[int, Poly]:
    v = poly.x_valuation()
    return v, Poly._of(poly.ctx, poly.coeffs[v:])


def is_exceptional(f: RationalFunc) -> tuple[bool, ExceptionalityWitness]:
    """Decide whether f = c * x^j * g(x)^d for some d > 1 dividing q - 1.

    Monomials c*x^j count as exceptional (g constant works for any prime
    d | q-1), and the test is field-dependent: d must divide q - 1. For the
    non-monomial case it suffices to check prime d dividing the multiplicity
    of every square-free layer of both numerator and denominator once powers
    of x are pulled out. For deg f <= 2 `_low_degree_layers` reads the layers
    off the coefficients; otherwise `_squarefree_layers` decomposes.
    """
    ctx = f.ctx
    v1, num0 = _strip_x(f.num)
    v2, den0 = _strip_x(f.den)
    x_power = v1 - v2
    if num0.is_constant() and den0.is_constant():
        d = ctx.qm1.primes[0] if ctx.qm1.primes else None
        return True, ExceptionalityWitness(x_power, True, d, ())
    layers = (_low_degree_layers if f.degree <= 2 else _squarefree_layers)(num0, den0)
    shared = gcd(ctx.q - 1, *(m for _, m in layers))
    if shared > 1:
        d = min(p for p in ctx.qm1.primes if shared % p == 0)
        return True, ExceptionalityWitness(x_power, False, d, layers)
    return False, ExceptionalityWitness(x_power, False, None, layers)


def _squarefree_layers(num0: Poly, den0: Poly) -> tuple[tuple[int, int], ...]:
    """(degree, multiplicity) of every square-free layer of the non-constant
    parts among num0 and den0, numerator first."""
    return tuple((int(a.degree), m) for part in (num0, den0) if not part.is_constant()
                 for a, m in squarefree_decomp(part))


def _low_degree_layers(num0: Poly, den0: Poly) -> tuple[tuple[int, int], ...]:
    """`_squarefree_layers` for parts of total degree <= 2 and nonzero
    constant terms, read off the coefficients. A linear part is one layer
    (1, 1). A quadratic c + b*x + a*x^2 is a square (x + r)^2, layer (1, 2),
    when b^2 = 4ac in odd characteristic and when b = 0 in characteristic 2;
    otherwise it is square-free, layer (2, 1)."""
    layers = []
    for part in (num0, den0):
        if part.degree == 1:
            layers.append((1, 1))
        elif part.degree == 2:
            ctx = part.ctx
            c, b, a = part.coeffs
            if ctx.p == 2:
                square = b == 0
            else:
                square = ctx.mul(b, b) == ctx.mul(4 % ctx.p, ctx.mul(a, c))
            layers.append((1, 2) if square else (2, 1))
    return tuple(layers)


def reciprocal_reduce(f: RationalFunc) -> RationalFunc:
    """Return f*(x) = f(1/x) in lowest terms; defined when n1 = n2 and x
    divides exactly one of numerator, denominator, so deg f* < deg f.

    For nonzero alpha with f(1/alpha) defined, f*(alpha) = f(1/alpha), and a
    primitive pair for f* at alpha yields one for f at 1/alpha.
    """
    if f.n1 != f.n2:
        raise ValueError("reciprocal reduction needs equal numerator/denominator degree")
    v1 = f.num.x_valuation()
    v2 = f.den.x_valuation()
    if (v1 > 0) == (v2 > 0):
        raise ValueError("exactly one of numerator, denominator must be divisible by x")
    rev_num = Poly._of(f.ctx, f.num.coeffs[::-1])
    rev_den = Poly._of(f.ctx, f.den.coeffs[::-1])
    out = RationalFunc(rev_num, rev_den)
    assert out.degree < f.degree
    return out


def check_family(n1: int, n2: int):
    """Refuse, with ValueError, degrees that name no (n1, n2) family."""
    if not n1 >= n2 >= 0 or n1 + n2 == 0:
        raise ValueError(f"family needs n1 >= n2 >= 0 and n1 + n2 >= 1, got ({n1}, {n2})")


def enumerate_family(ctx: FieldCtx, n1: int, n2: int):
    """Yield one canonical representative per function in the (n1, n2) family.

    (1,1) and (2,0) use their closed-form parametrizations:
      - (1,1): f = a(x+b)/(x+c) with a, b, c nonzero and b != c, one
        representative per orbit of the involution f <-> 1/f, i.e. of
        (a, b, c) ~ (a^-1, c, b).
      - (2,0): f = a x^2 + b x + c with a != 0 and b^2 != 4ac. For even q
        that reads b != 0, so it also drops a x^2 + c, c != 0, the square
        (sqrt(a) x + sqrt(c))^2 that is_exceptional keeps (2 does not divide
        q - 1). No verdict changes: to q = 1024 only two such f lack a
        primitive pair, in F_4, which fails (2,0) anyway; all of them split.

    The general path walks coefficient tuples in ascending packed order
    (denominator monic, numerator leading coefficient nonzero, coprime,
    non-exceptional, so monomials c*x^j are excluded; equal-degree families
    also need both constant terms nonzero so the reciprocal reduction
    applies). The (0, 0) family, constants only, holds no function and is
    refused.
    """
    check_family(n1, n2)
    if (n1, n2) == (1, 1):
        yield from _family_1_1(ctx)
        return
    if (n1, n2) == (2, 0):
        yield from _family_2_0(ctx)
        return
    yield from _family_general(ctx, n1, n2)


def _family_1_1(ctx: FieldCtx):
    for a in range(1, ctx.q):
        inv_a = ctx.inv(a)
        for b in range(1, ctx.q):
            for c in range(1, ctx.q):
                if b == c:
                    continue
                if (inv_a, c, b) < (a, b, c):
                    continue  # the orbit twin was (or will be) yielded
                yield RationalFunc(
                    Poly._of(ctx, (ctx.mul(a, b), a)), Poly._of(ctx, (c, 1)))


def _family_2_0(ctx: FieldCtx):
    four = ctx.add(ctx.add(1, 1), ctx.add(1, 1))
    for a in range(1, ctx.q):
        for b in range(ctx.q):
            b2 = ctx.mul(b, b)
            four_a = ctx.mul(four, a)
            for c in range(ctx.q):
                if b2 == ctx.mul(four_a, c):
                    continue  # perfect-square quadratic
                yield RationalFunc(Poly._of(ctx, (c, b, a)), Poly._of(ctx, (1,)))


def _tuples(ctx: FieldCtx, length: int):
    if length == 0:
        yield ()
        return
    for head in _tuples(ctx, length - 1):
        for v in range(ctx.q):
            yield head + (v,)


def _family_general(ctx: FieldCtx, n1: int, n2: int):
    for den_tail in _tuples(ctx, n2):
        den = Poly._of(ctx, den_tail + (1,))
        for num_low in _tuples(ctx, n1):
            for lead in range(1, ctx.q):
                num = Poly._of(ctx, num_low + (lead,))
                if n1 == n2 and (num.coeffs[0] == 0 or den.coeffs[0] == 0):
                    continue
                if poly_gcd(num, den).degree > 0:
                    continue
                f = RationalFunc(num, den)
                bad, _ = is_exceptional(f)
                if bad:
                    continue
                yield f
