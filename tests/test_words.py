"""Words, the monomial order, noncommutative polynomials, endomorphisms."""

import random
from fractions import Fraction

import pytest

from ncproj.dsl import parse_presentation
from ncproj.fields import QQ, QQ_Q, RatFunc
from ncproj.words import Alphabet, GradedEndomorphism, NcPoly

rng = random.Random(411)
AB = Alphabet(["x", "y"])


def rand_word(maxlen=6):
    return tuple(rng.randrange(2) for _ in range(rng.randint(0, maxlen)))


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(["x", "x"])
    with pytest.raises(ValueError):
        Alphabet(["x"], [0])
    w = Alphabet(["x", "y"], [1, 2])
    assert w.degree((0, 1, 1)) == 5
    assert not w.all_unit_weight()


def test_order_trichotomy_and_compatibility():
    for _ in range(500):
        a, b, c = rand_word(), rand_word(), rand_word()
        ka, kb = AB.key(a), AB.key(b)
        assert [ka < kb, ka == kb, ka > kb].count(True) == 1
        assert (ka == kb) == (a == b)
        if ka > kb:
            # compatible with concatenation on both sides
            assert AB.key(c + a) > AB.key(c + b)
            assert AB.key(a + c) > AB.key(b + c)


def test_order_deglex():
    # degree dominates; ties break by declaration order (x before y)
    assert AB.key((0, 0, 0)) > AB.key((1, 1))
    assert AB.key((0, 1)) < AB.key((1, 0))
    assert AB.key(()) < AB.key((0,))
    # declaring y first orders y before x
    p = parse_presentation("algebra A over Q { gens: y, x; rels: x*y - y*x; }")
    x, y = p.alphabet.index["x"], p.alphabet.index["y"]
    assert p.alphabet.key((x, y)) > p.alphabet.key((y, x))
    assert p.relations[0].render() == "x*y - y*x"


def test_poly_ring_axioms():
    def rand_poly():
        return NcPoly(AB, QQ, [(rand_word(4), Fraction(rng.randint(-5, 5)))
                               for _ in range(rng.randint(0, 4))])
    for _ in range(200):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f - f).is_zero()


def test_poly_noncommutative():
    x, y = NcPoly.gen(AB, QQ, 0), NcPoly.gen(AB, QQ, 1)
    assert x * y != y * x


def test_homogeneity():
    x, y = NcPoly.gen(AB, QQ, 0), NcPoly.gen(AB, QQ, 1)
    f = x * y - y * x
    assert f.is_homogeneous() and f.degree() == 2
    g = x + x * y
    assert not g.is_homogeneous()
    with pytest.raises(ValueError):
        g.degree()


def test_render_canonical():
    x, y = NcPoly.gen(AB, QQ, 0), NcPoly.gen(AB, QQ, 1)
    assert (y * x - x * y).render() == "y*x - x*y"
    assert (x * x * x).render() == "x^3"
    assert (x * y * y * x).render() == "x*y^2*x"
    assert NcPoly.zero(AB, QQ).render() == "0"
    half = NcPoly(AB, QQ, [(((0,)), Fraction(1, 2))])
    assert half.render() == "1/2*x"
    q = RatFunc.q()
    qp = NcPoly(AB, QQ_Q, [((1, 0), QQ_Q.one), ((0, 1), -q)])
    assert qp.render() == "y*x - q*x*y"


def test_endomorphism_apply_multiplicative():
    sigma = GradedEndomorphism(AB, QQ, [[1, 1], [0, 1]])
    for _ in range(100):
        f = NcPoly(AB, QQ, [(rand_word(3), Fraction(rng.randint(-3, 3)))
                            for _ in range(3)])
        g = NcPoly(AB, QQ, [(rand_word(3), Fraction(rng.randint(-3, 3)))
                            for _ in range(3)])
        assert sigma.apply(f * g) == sigma.apply(f) * sigma.apply(g)
        assert sigma.apply(f + g) == sigma.apply(f) + sigma.apply(g)


def test_endomorphism_compose_matches_matrices():
    a = GradedEndomorphism(AB, QQ, [[1, 2], [3, 4]])
    b = GradedEndomorphism(AB, QQ, [[0, 1], [1, 1]])
    x = NcPoly.gen(AB, QQ, 0)
    assert a.compose(b).apply(x) == a.apply(b.apply(x))
    assert a.power(3).matrix == a.compose(a).compose(a).matrix


def test_endomorphism_inverse():
    a = GradedEndomorphism(AB, QQ, [[1, 1], [0, 1]])
    assert a.is_invertible()
    singular = GradedEndomorphism(AB, QQ, [[1, 1], [1, 1]])
    assert not singular.is_invertible()


def test_endomorphism_weight_restriction():
    w = Alphabet(["x", "y"], [1, 2])
    with pytest.raises(ValueError):
        GradedEndomorphism(w, QQ, [[1, 0], [0, 1]])
