"""Exact scalar arithmetic: rationals, rational functions, quadratic fields."""

import math
import random
from fractions import Fraction

import pytest

from ncproj.dsl import parse_upoly
from ncproj.fields import (QQ, QQ_Q, FieldMismatchError, QuadExt, RatFunc,
                           UPoly, field_by_name, quad_field, squarefree_part)

rng = random.Random(20240817)


def rand_fraction():
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def rand_ratfunc():
    num = UPoly([rand_fraction() for _ in range(rng.randint(1, 3))])
    den = UPoly([rand_fraction() for _ in range(rng.randint(1, 3))])
    if den.is_zero():
        den = UPoly((Fraction(1),))
    return RatFunc(num, den)


def rand_quad(D=5):
    return QuadExt(rng.randint(-15, 15), rng.randint(-15, 15),
                   rng.randint(1, 10), D)


@pytest.mark.parametrize("make", [rand_fraction, rand_ratfunc, rand_quad])
def test_field_axioms(make):
    """Commutativity, associativity, distributivity, inverses; 1000 cases."""
    for _ in range(1000 // 3):
        a, b, c = make(), make(), make()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == a - a
        if b:
            inv = 1 / b if isinstance(b, Fraction) else b.inverse()
            assert b * inv == b / b


def test_upoly_divmod_and_gcd():
    f = UPoly([Fraction(x) for x in (2, 0, -3, 1)])   # x^3 - 3x^2 + 2
    g = UPoly([Fraction(x) for x in (-1, 1)])         # x - 1
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree() < g.degree()
    d = f.gcd(g)
    assert f.divmod(d)[1].is_zero() and g.divmod(d)[1].is_zero()


def test_upoly_eval_and_pow():
    f = UPoly([Fraction(1), Fraction(2), Fraction(1)])   # (x+1)^2
    assert f(Fraction(3)) == 16
    assert f ** 2 == f * f
    assert (f ** 0) == UPoly((Fraction(1),))


def test_ratfunc_normalization():
    # (x^2 - 1)/(x - 1) reduces to x + 1
    num = UPoly([Fraction(-1), Fraction(0), Fraction(1)])
    den = UPoly([Fraction(-1), Fraction(1)])
    r = RatFunc(num, den)
    assert r == RatFunc(UPoly([Fraction(1), Fraction(1)]))
    # denominator kept monic: 1/(2x) == (1/2)/x
    assert RatFunc(UPoly((Fraction(1),)), UPoly([Fraction(0), Fraction(2)])) == \
        RatFunc(UPoly((Fraction(1, 2),)), UPoly([Fraction(0), Fraction(1)]))


def gcd_normalized(num, den):
    """(num, den) divided by their gcd, the denominator made monic."""
    g = num.gcd(den)
    if g.degree() > 0:
        num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.coeffs[-1]
    return num.scale(1 / lead), den.scale(1 / lead)


def rand_nonzero_fraction():
    return rng.choice([-1, 1]) * Fraction(rng.randint(1, 20), rng.randint(1, 12))


def rand_monomial():
    """c q^k, k = 0 included, c of either sign and rarely 1."""
    return UPoly([Fraction(0)] * rng.randint(0, 6) + [rand_nonzero_fraction()])


def rand_upoly(max_degree=5):
    """A random polynomial, zero coefficients (low ones too) included."""
    cs = [rand_fraction() if rng.random() < 0.6 else Fraction(0)
          for _ in range(rng.randint(0, max_degree + 1))]
    return UPoly(cs)


def test_ratfunc_monomial_fast_path_matches_gcd_normalization():
    """A monomial over or under anything reduces as the general gcd does."""
    for case in range(3000):
        mono = rand_monomial()
        other = rand_monomial() if case % 5 == 0 else rand_upoly()
        if other.is_zero():
            continue
        for num, den in ((mono, other), (other, mono)):
            r = RatFunc(num, den)
            want_num, want_den = gcd_normalized(num, den)
            assert (r.num, r.den) == (want_num, want_den), (num, den)
            assert r.den.coeffs[-1] == 1


def schoolbook(a, b):
    if a.is_zero() or b.is_zero():
        return UPoly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return UPoly(out)


def test_upoly_mul_matches_schoolbook():
    makers = [rand_monomial, rand_upoly, lambda: UPoly()]
    for _ in range(3000):
        a, b = rng.choice(makers)(), rng.choice(makers)()
        assert a * b == schoolbook(a, b), (a, b)
        assert b * a == schoolbook(a, b), (a, b)


def test_ratfunc_q_renders():
    q = RatFunc.q()
    assert str(q) == "q"
    assert str(q * q - 1) in ("q^2 - 1", "-1 + q^2")


def test_squarefree_part():
    assert squarefree_part(12) == (3, 2)
    assert squarefree_part(5) == (5, 1)
    assert squarefree_part(49) == (1, 7)


def test_squarefree_part_matches_definition():
    for n in range(1, 10 ** 4 + 1):
        f = max(k for k in range(1, math.isqrt(n) + 1) if n % (k * k) == 0)
        assert squarefree_part(n) == (n // (f * f), f), n


def test_squarefree_part_large_radicands():
    p, q = 999983, 1000003
    assert squarefree_part(p * q) == (p * q, 1)
    assert squarefree_part(p * p) == (1, p)
    assert squarefree_part(12 * p * p * q) == (3 * q, 2 * p)
    # a prime near 10^20: trial division up to its square root would hang
    assert squarefree_part(100000000000000000039) == (100000000000000000039, 1)


def test_quadext_normalization():
    # (2 + 2*sqrt(5))/4 == (1 + sqrt(5))/2
    assert QuadExt(2, 2, 4, 5) == QuadExt(1, 1, 2, 5)
    # D = 12 is rewritten over sqrt(3)
    x = QuadExt(0, 1, 1, 12)
    assert x.D == 3 and x.s == 2


def test_quadext_exact_comparisons():
    phi = QuadExt(1, 1, 2, 5)       # golden ratio, ~1.618
    assert QuadExt.from_rational(Fraction(8, 5), 5) < phi
    assert phi < QuadExt.from_rational(Fraction(13, 8), 5)
    # conjugate comparisons must not use floats: near-tie case
    a = QuadExt(0, 1, 1, 2)         # sqrt(2)
    b = QuadExt(1414213562, 0, 10 ** 9, 2)
    assert b < a


def test_quadext_floor():
    for _ in range(300):
        x = rand_quad(rng.choice([2, 3, 5, 7]))
        n = x.floor()
        assert QuadExt.from_rational(n, x.D) <= x
        assert x < QuadExt.from_rational(n + 1, x.D)


@pytest.mark.parametrize("x", [QuadExt(10 ** 25 + 1, 1, 3, 2),
                               QuadExt(10 ** 45 + 1, 1, 3, 2),
                               QuadExt(-10 ** 400, -7, 3, 2),
                               QuadExt(5, -10 ** 30, 7, 3)])
def test_quadext_floor_beyond_float_range(x):
    n = x.floor()
    assert QuadExt.from_rational(n, x.D) <= x < QuadExt.from_rational(n + 1, x.D)


def test_upoly_render_parenthesizes_composite_coefficients():
    q = RatFunc.q()
    p = UPoly((RatFunc(2), q + 2, q, RatFunc(1) / q, -q + 1))
    text = p.render("u")
    assert text == "(-q + 1)*u^4 + (1/q)*u^3 + q*u^2 + (q + 2)*u + 2"
    assert parse_upoly(text, QQ_Q) == p


def test_quadext_sign_and_inverse():
    x = QuadExt(-1, 1, 2, 5)        # ~0.618
    assert x.sign() == 1
    assert (x * x.inverse()) == QuadExt.from_rational(1, 5)
    assert (-x).sign() == -1
    assert QuadExt(0, 0, 1, 5).sign() == 0


def test_quadext_rational_detection():
    assert QuadExt(3, 0, 2, 5).is_rational()
    assert QuadExt(3, 0, 2, 5).to_fraction() == Fraction(3, 2)
    assert not QuadExt(0, 1, 1, 2).is_rational()


def test_field_tags():
    assert field_by_name("Q") is QQ
    assert field_by_name("Q(q)") is QQ_Q
    with pytest.raises(ValueError):
        field_by_name("GF(7)")
    k = quad_field(8)
    assert k.name == "Q(sqrt(2))"
    assert k.coerce(Fraction(1, 2)) == QuadExt(1, 0, 2, 2)


def test_mixed_radicand_rejected():
    with pytest.raises(FieldMismatchError):
        QuadExt(0, 1, 1, 2) + QuadExt(0, 1, 1, 3)
