"""Exact scalar arithmetic: rationals, rational functions, quadratic fields."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncproj.dsl import parse_theta, parse_upoly
from ncproj.fields import (QQ_Q, FieldMismatchError, QuadExt, RatFunc,
                           UPoly, squarefree_part)

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
    q, r = euclid_divmod(f, g)
    assert q * g + r == f
    assert r.degree() < g.degree()
    d = f.gcd(g)
    assert euclid_divmod(f, d)[1].is_zero() and euclid_divmod(g, d)[1].is_zero()
    # over Z[q] the gcd keeps its content and a positive leading coefficient
    assert UPoly((-4, 0, 6, -2)).gcd(UPoly((6, -6))) == UPoly((-2, 2))
    assert UPoly((3,)).gcd(UPoly((0, -6))) == UPoly((3,))


def test_ratfunc_normalization():
    # (x^2 - 1)/(x - 1) reduces to x + 1
    num = UPoly([Fraction(-1), Fraction(0), Fraction(1)])
    den = UPoly([Fraction(-1), Fraction(1)])
    r = RatFunc(num, den)
    assert r == RatFunc(UPoly([Fraction(1), Fraction(1)]))
    # denominator kept monic: 1/(2x) == (1/2)/x
    assert RatFunc(UPoly((Fraction(1),)), UPoly([Fraction(0), Fraction(2)])) == \
        RatFunc(UPoly((Fraction(1, 2),)), UPoly([Fraction(0), Fraction(1)]))
    # integer coefficients are read as rationals, never divided as floats
    r = RatFunc(UPoly((1, 3)), UPoly((2,)))
    assert str(r) == "3/2*q + 1/2"
    assert r == RatFunc(UPoly((Fraction(1, 2), Fraction(3, 2))))


def gcd_normalized(num, den):
    """(num, den) divided by their gcd, the denominator made monic."""
    g = euclid_gcd(num, den)
    if g.degree() > 0:
        num, den = euclid_divmod(num, g)[0], euclid_divmod(den, g)[0]
    lead = den.coeffs[-1]
    return num.scale(1 / lead), den.scale(1 / lead)


def euclid_divmod(a, b):
    """Euclidean division over Q, b != 0: the reference's own division."""
    rem = list(a.coeffs)
    lead, db = b.coeffs[-1], b.degree()
    quo = [Fraction(0)] * max(len(rem) - db, 0)
    while rem and len(rem) - 1 >= db:
        c = rem[-1] / lead
        k = len(rem) - 1 - db
        quo[k] += c
        for i, x in enumerate(b.coeffs):
            rem[k + i] -= c * x
        while rem and not rem[-1]:
            rem.pop()
    return UPoly(quo), UPoly(rem)


def euclid_gcd(a, b):
    """Euclid's remainder sequence over Q, made monic: the reference for the
    remainder sequence over Z[q] in UPoly.gcd."""
    while b.coeffs:
        a, b = b, euclid_divmod(a, b)[1]
    if not a.coeffs:
        return a
    lead = a.coeffs[-1]
    return UPoly(tuple(c / lead for c in a.coeffs))


class RefRatFunc:
    """Q(q) as a reduced fraction num/den of dense polynomials with a monic
    denominator, reduced by Euclid's gcd over Q: the representation that
    q^e n/d replaced, kept as the reference for RatFunc."""

    def __init__(self, num, den=None):
        num = num if isinstance(num, UPoly) else UPoly((Fraction(num),))
        den = UPoly((Fraction(1),)) if den is None else den
        if den.is_zero():
            raise ZeroDivisionError
        if num.is_zero():
            den = UPoly((Fraction(1),))
        else:
            g = euclid_gcd(num, den)
            num, den = euclid_divmod(num, g)[0], euclid_divmod(den, g)[0]
        lead = den.coeffs[-1]
        self.num, self.den = num.scale(1 / lead), den.scale(1 / lead)

    def _coerce(self, other):
        return other if isinstance(other, RefRatFunc) else RefRatFunc(other)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        other = self._coerce(other)
        return RefRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RefRatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RefRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError
        return RefRatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return RefRatFunc(self.den, self.num)

    def is_composite(self):
        return self.den.degree() > 0 or sum(1 for c in self.num.coeffs if c) > 1

    def __str__(self):
        if self.den.degree() == 0:
            return self.num.render()
        n, d = self.num.render(), self.den.render()
        if sum(1 for c in self.num.coeffs if c) > 1:
            n = f"({n})"
        if sum(1 for c in self.den.coeffs if c) > 1:
            d = f"({d})"
        return f"{n}/{d}"


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
nonzero_small_rationals = small_rationals.filter(bool)


@st.composite
def qpolys(draw, max_degree=3, nonzero=False):
    """Q[q] polynomials with some zero coefficients, low ones included."""
    cs = draw(st.lists(st.one_of(st.just(Fraction(0)), small_rationals),
                       max_size=max_degree + 1))
    p = UPoly(cs)
    if nonzero and p.is_zero():
        p = UPoly([Fraction(0)] * draw(st.integers(0, max_degree))
                  + [draw(nonzero_small_rationals)])
    return p


@st.composite
def qq_pairs(draw):
    """(num, den) of a Q(q) scalar: zero, c q^k (k in [-3, 3]), a polynomial
    or a general fraction, whose sides may share a factor."""
    kind = draw(st.sampled_from(["zero", "monomial", "monomial", "poly", "fraction"]))
    one = UPoly((Fraction(1),))
    if kind == "zero":
        return UPoly(), one
    if kind == "monomial":
        c, k = draw(nonzero_small_rationals), draw(st.integers(-3, 3))
        q_k = UPoly([Fraction(0)] * abs(k) + [Fraction(1)])
        return (UPoly((c,)) * q_k, one) if k >= 0 else (UPoly((c,)), q_k)
    num = draw(qpolys())
    if kind == "poly":
        return num, one
    shared = draw(qpolys(max_degree=2, nonzero=True))
    return num * shared, draw(qpolys(nonzero=True)) * shared


def assert_normal_form(x):
    """q^e N/D over Z[q]: N and D tuples of ints, N(0) != 0 != D(0), coprime
    in Z[q] (coprime over Q, content gcd 1), D's leading coefficient
    positive; zero only as (0, (), (1,)), a constant D for a monomial."""
    e, n, d = x.e, x.n, x.d
    assert type(e) is int and type(n) is tuple and type(d) is tuple
    assert all(type(c) is int for c in n + d)
    assert d and d[0] and d[-1] > 0
    if not n:
        assert (e, d) == (0, (1,))
        return
    assert n[0] and n[-1]
    assert math.gcd(*n, *d) == 1
    assert euclid_gcd(UPoly([Fraction(c) for c in n]), UPoly([Fraction(c) for c in d])).degree() == 0


def assert_same(new, ref):
    """A RatFunc and a RefRatFunc agree on everything visible."""
    assert (new.num, new.den) == (ref.num, ref.den)
    assert new.den.coeffs[-1] == 1
    assert str(new) == str(ref)
    assert repr(new) == f"RatFunc({ref})"
    assert new.is_composite() == ref.is_composite()
    assert bool(new) == bool(ref.num)
    assert_normal_form(new)
    # equal values hash equal: equal RatFuncs, and a constant with its Fraction
    assert new == RatFunc(ref.num, ref.den)
    assert hash(new) == hash(RatFunc(ref.num, ref.den))
    if ref.den.degree() == 0 and ref.num.degree() <= 0:
        c = ref.num.coeffs[0] if ref.num.coeffs else Fraction(0)
        assert new == c and hash(new) == hash(c)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(qq_pairs(), qq_pairs(), st.integers(-3, 3))
def test_ratfunc_matches_reference(a, b, k):
    """+, -, *, / (both orders, with ints as well), ==, hash, str,
    is_composite, num and den of RatFunc against the dense reference."""
    x, y = RatFunc(*a), RatFunc(*b)
    rx, ry = RefRatFunc(*a), RefRatFunc(*b)
    assert_same(x, rx)
    assert_same(y, ry)
    assert (x == y) == (rx == ry)
    assert (x == k) == (rx == k)
    for new, ref in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                     (-x, -rx), (x + k, rx + k), (k - x, k - rx), (x * k, rx * k),
                     (x - x, rx - rx), (x + -x, rx + -rx), (x * y + -(y * x), rx * ry - ry * rx),
                     (x + y - y, rx), (x * y - y * x, rx * ry - ry * rx)):
        assert_same(new, ref)
    if y:
        assert_same(x / y, rx / ry)
        assert_same(y.inverse(), ry.inverse())
        assert_same(x / y * y, rx)
    if k:
        assert_same(x / k, rx / k)
    if x:
        assert_same(k / x, k / rx)


@st.composite
def zpolys(draw):
    """A nonzero h in Z[q]: a power of q times a content of either sign
    times integer coefficients."""
    cs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any))
    c = draw(st.sampled_from([-6, -2, -1, 1, 3]))
    return UPoly([0] * draw(st.integers(0, 2)) + [c * x for x in cs])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(qq_pairs(), zpolys())
def test_ratfunc_form_is_unique(pair, h):
    """N h over D h has the (e, n, d) of N over D: the stored form is
    unique, whatever common factor, content or sign the input carries."""
    num, den = pair
    x, y = RatFunc(num, den), RatFunc(num * h, den * h)
    assert_normal_form(x)
    assert (y.e, y.n, y.d) == (x.e, x.n, x.d)


def test_ratfunc_cancellation_is_zero():
    """Sums that cancel are the zero of RatFunc(0), exponent and hash too."""
    q, zero = RatFunc.q(), RatFunc(0)
    for z in (q - q, 2 * q * q.inverse() - 2, q * q / q - q, (q + 1) / (q - 1) - (q + 1) / (q - 1),
              -q + q, q / (q * q + 1) - q / (q * q + 1), RatFunc(UPoly()) * q):
        assert z == zero and hash(z) == hash(zero) and not z
        assert (z.e, z.n, z.d) == (0, (), (1,))
        assert str(z) == "0"


def test_equal_scalars_of_every_type_are_one_dict_key():
    """An int, a Fraction and a RatFunc of one value hash alike, so a dict
    or set keyed by a mix of them holds one entry per value."""
    q = RatFunc.q()
    keys = {}
    for k in (2, Fraction(2), RatFunc(2), 2 * q / q, Fraction(1, 3), RatFunc(Fraction(1, 3)),
              q / (3 * q), 0, RatFunc(0), q - q, q, q * q / q, (q + 1) / (q - 1),
              (2 * q + 2) / (2 * q - 2), -1, RatFunc(-1), Fraction(-2, 2)):
        keys[k] = keys.get(k, 0) + 1
    assert sorted(keys.values()) == [2, 2, 3, 3, 3, 4]
    assert {RatFunc(5), 5, Fraction(10, 2)} == {5}


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(qpolys(max_degree=4), qpolys(max_degree=4), qpolys(max_degree=3, nonzero=True))
def test_upoly_gcd_matches_euclid(f, g, h):
    """The Z[q] remainder sequence and Euclid over Q give one monic gcd."""
    for a, b in ((f, g), (f * h, g * h), (g * h, f * h)):
        want = euclid_gcd(a, b)
        assert a.gcd(b) == want
        if not want.is_zero():
            assert a.gcd(b).coeffs[-1] == 1


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


def rand_wide_upoly(max_degree=8):
    """Zeros inside, negatives, and denominators up to 10^40."""
    cs = [Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** rng.randint(0, 40)))
          if rng.random() < 0.7 else Fraction(0) for _ in range(rng.randint(1, max_degree + 1))]
    return UPoly(cs)


def test_upoly_mul_matches_schoolbook():
    """The product over Q, fraction-free on integer numerators, against
    the pairwise Fraction product."""
    makers = [rand_monomial, rand_upoly, rand_wide_upoly, lambda: UPoly(),
              lambda: UPoly((rand_nonzero_fraction(),))]
    for _ in range(3000):
        a, b = rng.choice(makers)(), rng.choice(makers)()
        want = schoolbook(a, b)
        for got in (a * b, b * a):
            assert got == want, (a, b)
            assert all(type(c) is Fraction for c in got.coeffs), (a, b)


def test_ratfunc_q_renders():
    q = RatFunc.q()
    assert str(q) == "q"
    assert str(q * q - 1) in ("q^2 - 1", "-1 + q^2")


def render_by_num_and_den(x):
    """RatFunc's text as num and den render it: their Fraction UPolys,
    q^e N / lead(D) over the monic q^-e D / lead(D)."""
    n = x.num.render()
    if x.e >= 0 and len(x.d) == 1:
        return n
    d = x.den.render()
    if len(x.n) > 1:
        n = f"({n})"
    if len(x.d) > 1:
        d = f"({d})"
    return f"{n}/{d}"


def test_ratfunc_renders_its_num_and_den_without_them(monkeypatch):
    """str reads N and D as stored and builds no UPoly; over a grid of
    numerators, denominators with lead 1 and not, constant and not, and
    exponents -3..3, its text is that of num and den."""
    sides = [(1,), (-1,), (3,), (-4,), (2, 1), (-1, 0, 1), (-3, 0, 5), (1, 2, 1), (7, -4),
             (Fraction(1, 2), 0, 0, 1)]
    values = []
    for N in [(), *sides]:
        for D in sides:
            for e in range(-3, 4):
                num, den = UPoly((0,) * max(e, 0) + N), UPoly((0,) * max(-e, 0) + D)
                values.append(RatFunc(num, den))
    assert {x.d[-1] == 1 for x in values} == {True, False}
    want = [render_by_num_and_den(x) for x in values]
    made = []
    init = UPoly.__init__
    monkeypatch.setattr(UPoly, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    assert [str(x) for x in values] == want and made == []
    for num, den, text in [((0, 0, 2, 1), (3,), "1/3*q^3 + 2/3*q^2"),
                           ((2, 1), (0, 3, -4), "(-1/4*q - 1/2)/(q^2 - 3/4*q)"),
                           ((1,), (Fraction(1, 2), 0, 0, 1), "1/(q^3 + 1/2)"),
                           ((1, 2, 1), (-1, 0, 1), "(q + 1)/(q - 1)")]:
        assert str(RatFunc(UPoly(num), UPoly(den))) == text


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


def test_radicands_with_a_square_product_name_one_field():
    """Trial division stops at 10^6, so sqrt(p^2 r) keeps p^2 r as its
    radicand for primes p, r above that; it still equals p sqrt(r), in
    value and in hash."""
    p, r = 1000000000039, 10000019
    big, small = QuadExt.sqrt(p * p * r), QuadExt(0, p, 1, r)
    assert big.D == p * p * r and small.D == r
    assert big - small == 0 and big == small and hash(big) == hash(small)
    assert big * small == p * p * r
    assert parse_theta(f"sqrt({p * p * r}) - {p}*sqrt({r})") == 0
    with pytest.raises(FieldMismatchError):
        QuadExt.sqrt(2) + QuadExt.sqrt(3)


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
    assert not QuadExt(0, 1, 1, 2).is_rational()


def test_mixed_radicand_rejected():
    with pytest.raises(FieldMismatchError):
        QuadExt(0, 1, 1, 2) + QuadExt(0, 1, 1, 3)
