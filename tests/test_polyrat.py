import random
from math import inf

import pytest

from primpair.ffcore import factorize
from primpair.polyrat import (
    Poly,
    RationalFunc,
    enumerate_family,
    is_exceptional,
    poly_gcd,
    reciprocal_reduce,
    squarefree_decomp,
)
from primpair.search import pair_exists


def random_poly(rng, ctx, degree, monic=False):
    coeffs = [rng.randrange(ctx.q) for _ in range(degree)]
    coeffs.append(1 if monic else rng.randrange(1, ctx.q))
    return Poly(ctx, coeffs)


class TestPolyArith:
    def test_gcd_monic(self, field):
        F7 = field(7, 1)
        g = poly_gcd(Poly(F7, (6, 0, 1)), Poly(F7, (6, 1)))  # x^2-1, x-1
        assert g.coeffs == (6, 1)
        assert g.is_monic()

    def test_derivative_char_p(self, field):
        F7 = field(7, 1)
        d = Poly(F7, (0, 1, 0, 0, 0, 0, 0, 1)).derivative()  # x^7 + x
        assert d.coeffs == (1,)

    def test_eval(self, field):
        F13 = field(13, 1)
        assert Poly(F13, (1, 0, 1)).eval(5) == 0  # 25 + 1 = 26 = 0 mod 13

    def test_divmod_contract(self, field):
        rng = random.Random(3)
        for p, k in ((5, 1), (2, 3), (3, 2)):
            ctx = field(p, k)
            for _ in range(200):
                a = random_poly(rng, ctx, rng.randrange(0, 6))
                b = random_poly(rng, ctx, rng.randrange(0, 4))
                quot, rem = divmod(a, b)
                assert quot * b + rem == a
                assert rem.degree < b.degree

    def test_division_by_zero(self, field):
        F7 = field(7, 1)
        with pytest.raises(ZeroDivisionError):
            divmod(Poly(F7, (1, 1)), Poly(F7))

    def test_zero_degree_marker(self, field):
        F7 = field(7, 1)
        assert Poly(F7).degree == -inf
        assert Poly(F7, (0, 0)).degree == -inf
        assert Poly(F7, (4,)).degree == 0


class TestSquarefreeDecomp:
    def test_constructed(self, field):
        F7 = field(7, 1)
        f = Poly(F7, (1, 1)) * Poly(F7, (1, 1)) * Poly(F7, (2, 1))
        assert [(a.coeffs, m) for a, m in squarefree_decomp(f)] == [
            ((2, 1), 1), ((1, 1), 2)]

    def test_frobenius_identity(self, field):
        F7 = field(7, 1)
        f = Poly(F7, (1, 0, 0, 0, 0, 0, 0, 1))  # x^7 + 1 = (x+1)^7
        assert [(a.coeffs, m) for a, m in squarefree_decomp(f)] == [((1, 1), 7)]

    def test_zero_rejected(self, field):
        with pytest.raises(ValueError):
            squarefree_decomp(Poly(field(7, 1)))

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2)])
    def test_recompose_random(self, field, p, k):
        ctx = field(p, k)
        rng = random.Random(100 * p + k)
        for _ in range(150):
            f = random_poly(rng, ctx, rng.randrange(1, 9), monic=True)
            layers = squarefree_decomp(f)
            prod = Poly(ctx, (1,))
            for a, m in layers:
                assert a.is_monic() and not a.is_constant()
                # square-free: gcd(a, a') = 1
                assert poly_gcd(a, a.derivative()).degree <= 0
                for _ in range(m):
                    prod = prod * a
            assert prod == f
            # layers pairwise coprime
            for i in range(len(layers)):
                for j in range(i + 1, len(layers)):
                    assert poly_gcd(layers[i][0], layers[j][0]).is_constant()

    def test_derivative_zero_inputs(self, field):
        # h(x^p) shapes, where the naive loop stalls without the Frobenius step
        for p, k in ((2, 2), (3, 1), (5, 1), (3, 2)):
            ctx = field(p, k)
            rng = random.Random(p * 31 + k)
            for _ in range(60):
                h = random_poly(rng, ctx, rng.randrange(1, 4), monic=True)
                f_coeffs = [0] * (p * h.degree + 1)
                for i, c in enumerate(h.coeffs):
                    f_coeffs[p * i] = c
                f = Poly(ctx, f_coeffs)
                assert f.derivative().is_zero()
                layers = squarefree_decomp(f)
                prod = Poly(ctx, (1,))
                for a, m in layers:
                    for _ in range(m):
                        prod = prod * a
                assert prod == f.monic()


class TestRationalFunc:
    def test_lowest_terms_and_monic(self, field):
        F7 = field(7, 1)
        f = RationalFunc(Poly(F7, (1, 1)) * Poly(F7, (2, 1)),
                         Poly(F7, (2, 1)) * Poly(F7, (3, 2)))
        assert poly_gcd(f.num, f.den).degree == 0
        assert f.den.is_monic()
        assert f.eval(1) == F7.div(2, 5)  # reduced to (x+1)/(2x+3)

    def test_degenerate_rejected(self, field):
        F7 = field(7, 1)
        with pytest.raises(ValueError):
            RationalFunc(Poly(F7), Poly(F7, (1,)))
        with pytest.raises(ValueError):
            RationalFunc(Poly(F7, (1,)), Poly(F7))

    def test_normalization_idempotent(self, field):
        rng = random.Random(11)
        for p, k in ((5, 1), (13, 1), (3, 2)):
            ctx = field(p, k)
            for _ in range(100):
                f = RationalFunc(random_poly(rng, ctx, rng.randrange(0, 4)),
                                 random_poly(rng, ctx, rng.randrange(0, 4)))
                g = RationalFunc(f.num, f.den)
                assert f == g


class TestExceptionality:
    def test_square_over_pole(self, field):
        F7 = field(7, 1)
        f = RationalFunc((Poly(F7, (1, 1)) * Poly(F7, (1, 1))).scale(3),
                         Poly(F7, (0, 1)))
        bad, w = is_exceptional(f)
        assert bad and w.power_divisor == 2 and not w.is_monomial

    def test_split_quadratic_over_x(self, field):
        F13 = field(13, 1)
        bad, _ = is_exceptional(RationalFunc.from_coeffs(F13, (1, 0, 1), (0, 1)))
        assert not bad

    def test_monomial(self, field):
        F7 = field(7, 1)
        bad, w = is_exceptional(RationalFunc.from_coeffs(F7, (0, 0, 5)))
        assert bad and w.is_monomial and w.x_power == 2

    def test_field_dependence(self, field):
        # (x+1)^3 has multiplicity 3: exceptional iff 3 | q - 1
        for p, expect in ((7, True), (5, False)):
            ctx = field(p, 1)
            cube = Poly(ctx, (1, 1)) * Poly(ctx, (1, 1)) * Poly(ctx, (1, 1))
            bad, w = is_exceptional(RationalFunc(cube, Poly(ctx, (1,))))
            assert bad == expect
            if expect:
                assert w.power_divisor == 3

    def test_witness_against_factor_oracle(self, field, prime_powers):
        import warnings

        import sympy

        rng = random.Random(5)
        x = sympy.symbols("x")

        def mults_via_sympy(part, p):
            out = []
            expr = sum(int(c) * x**i for i, c in enumerate(part.coeffs))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sympy sorts modular ints
                _, factors = sympy.factor_list(sympy.Poly(expr, x, modulus=p))
            for base, mult in factors:
                base = sympy.Poly(base, x, modulus=p)
                if base.degree() == 0 or base.all_coeffs() == [1, 0]:
                    continue  # constants and the factor x
                out.append(mult)
            return out

        checked = 0
        for p, k, q in prime_powers(3, 31):
            if k != 1:
                continue  # the modular factor oracle covers prime fields
            ctx = field(p, 1)
            for _ in range(150):
                # biased constructions so exceptional f actually occur
                g = random_poly(rng, ctx, rng.randrange(1, 3))
                d = rng.choice([e for e in factorize(q - 1).primes] or [1])
                c = rng.randrange(1, q)
                shape = rng.randrange(3)
                if shape == 0:
                    num = random_poly(rng, ctx, rng.randrange(0, 5))
                    den = random_poly(rng, ctx, rng.randrange(0, 3), monic=True)
                elif shape == 1:
                    num = Poly(ctx, (c,))
                    for _ in range(d):
                        num = num * g
                    den = Poly(ctx, (0, 1)) if rng.random() < 0.5 else Poly(ctx, (1,))
                else:
                    num = Poly(ctx, (0, c))
                    den = Poly(ctx, (1,))
                    for _ in range(d):
                        den = den * g
                if num.is_zero() or den.is_zero():
                    continue
                f = RationalFunc(num, den)
                bad, w = is_exceptional(f)
                if shape in (1, 2) and num.degree + den.degree <= 6:
                    assert bad, (q, f)  # constructed c*x^j*g^d must be flagged
                if not bad or w.is_monomial:
                    continue
                dd = w.power_divisor
                assert dd > 1 and (q - 1) % dd == 0
                for part in (f.num, f.den):
                    if part.is_constant():
                        continue
                    for mult in mults_via_sympy(part, p):
                        assert mult % dd == 0, (q, f, dd)
                checked += 1
        assert checked > 100


    def test_constructed_powers_flagged_extension_fields(self, field):
        rng = random.Random(17)
        for p, k in ((2, 3), (3, 2), (5, 2)):
            ctx = field(p, k)
            for d in factorize(ctx.q - 1).primes:
                for _ in range(20):
                    g = random_poly(rng, ctx, rng.randrange(1, 3))
                    power = Poly(ctx, (rng.randrange(1, ctx.q),))
                    for _ in range(d):
                        power = power * g
                    f = RationalFunc(power, Poly(ctx, (0, 1)) if rng.random() < 0.5
                                     else Poly(ctx, (1,)))
                    bad, w = is_exceptional(f)
                    assert bad, (ctx.q, d, f)
                    assert w.is_monomial or (ctx.q - 1) % w.power_divisor == 0


class TestReciprocalReduce:
    def test_linear_over_x(self, field):
        # a(x+b)/x -> ab(x + 1/b)
        F7 = field(7, 1)
        a, b = 2, 3
        f = RationalFunc(Poly(F7, (F7.mul(a, b), a)), Poly(F7, (0, 1)))
        g = reciprocal_reduce(f)
        ab = F7.mul(a, b)
        assert g.den.coeffs == (1,)
        assert g.num.coeffs == (F7.mul(ab, F7.inv(b)), ab)
        assert g.degree < f.degree

    def test_precondition(self, field):
        F7 = field(7, 1)
        with pytest.raises(ValueError):
            reciprocal_reduce(RationalFunc.from_coeffs(F7, (1, 1), (2, 1)))
        with pytest.raises(ValueError):
            reciprocal_reduce(RationalFunc.from_coeffs(F7, (1, 1)))

    def test_eval_identity_exhaustive(self, field, prime_powers):
        for p, k, q in prime_powers(3, 31):
            ctx = field(p, k)
            for a in range(1, q):
                for b in range(1, q):
                    f = RationalFunc(Poly(ctx, (ctx.mul(a, b), a)), Poly(ctx, (0, 1)))
                    g = reciprocal_reduce(f)
                    for alpha in range(1, q):
                        inv = ctx.inv(alpha)
                        if f.den.eval(inv) == 0:
                            continue
                        assert g.eval(alpha) == f.eval(inv), (q, a, b, alpha)

    def test_degree_2_case(self, field):
        F13 = field(13, 1)
        f = RationalFunc.from_coeffs(F13, (0, 1, 1), (1, 0, 1))  # (x^2+x)/(x^2+1)
        g = reciprocal_reduce(f)
        assert g.degree < 4
        for alpha in range(1, 13):
            inv = F13.inv(alpha)
            if f.den.eval(inv) == 0 or g.den.eval(alpha) == 0:
                continue
            assert g.eval(alpha) == f.eval(inv)


class TestEnumerateFamily:
    def test_1_1_orbit_count(self, field):
        F5 = field(5, 1)
        fam = list(enumerate_family(F5, 1, 1))
        assert len(fam) == 4 * 4 * 3 // 2  # no fixed points: b != c
        assert len(set(fam)) == len(fam)

    def test_2_0_count(self, field):
        F5 = field(5, 1)
        fam = list(enumerate_family(F5, 2, 0))
        brute = [(a, b, c) for a in range(1, 5) for b in range(5) for c in range(5)
                 if (b * b - 4 * a * c) % 5 != 0]
        assert len(fam) == len(brute) == 4 * (25 - 5)

    def test_order_error(self, field):
        with pytest.raises(ValueError):
            list(enumerate_family(field(5, 1), 0, 1))
        # a negative degree is refused, not walked as a tuple of negative length
        for n1, n2 in [(-1, -1), (2, -1)]:
            with pytest.raises(ValueError, match="n1 >= n2 >= 0"):
                list(enumerate_family(field(3, 1), n1, n2))

    def test_1_1_verdicts_cover_orbits(self, field):
        # pair verdicts agree across each orbit, so one representative suffices
        F7 = field(7, 1)
        reps = list(enumerate_family(F7, 1, 1))
        for f in reps:
            inv = f.inverse()
            assert pair_exists(F7, f).found == pair_exists(F7, inv).found

    def test_closed_form_1_1_is_orbit_transversal(self, field):
        # one representative per (a,b,c) ~ (a^-1,c,b) orbit, chosen as the
        # smaller parameter tuple in packed element order
        F5 = field(5, 1)
        general = set(enumerate_family(F5, 1, 1))
        raw = set()
        for a in range(1, 5):
            for b in range(1, 5):
                for c in range(1, 5):
                    if b == c:
                        continue
                    rep = min((a, b, c), (F5.inv(a), c, b))
                    raw.add(RationalFunc(
                        Poly(F5, (F5.mul(rep[0], rep[1]), rep[0])),
                        Poly(F5, (rep[2], 1))))
        assert general == raw

    def test_pair_inverse_equivalence_exhaustive(self, field, prime_powers):
        for p, k, q in prime_powers(3, 31):
            ctx = field(p, k)
            for f in enumerate_family(ctx, 1, 1):
                assert (pair_exists(ctx, f).found
                        == pair_exists(ctx, f.inverse()).found), (q, f)

    def test_pair_inverse_equivalence_per_alpha(self, field, prime_powers):
        # the pair property transfers pointwise: (alpha, f(alpha)) is primitive
        # exactly when (alpha, (1/f)(alpha)) is
        for p, k, q in prime_powers(3, 13):
            ctx = field(p, k)
            for f in enumerate_family(ctx, 1, 1):
                g = f.inverse()
                for alpha in range(1, q):
                    if f.den.eval(alpha) == 0 or f.num.eval(alpha) == 0:
                        continue
                    lhs = ctx.is_primitive(alpha) and ctx.is_primitive(f.eval(alpha))
                    rhs = ctx.is_primitive(alpha) and ctx.is_primitive(g.eval(alpha))
                    assert lhs == rhs

    def test_general_family_excludes_monomials(self, field):
        F5 = field(5, 1)
        family = set(enumerate_family(F5, 3, 0))
        assert family
        for a in range(1, 5):
            assert RationalFunc.from_coeffs(F5, (0, 0, 0, a)) not in family
