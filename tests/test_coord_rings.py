"""Twisted homogeneous coordinate rings of the projective line."""

import random
from fractions import Fraction

import pytest

from ncproj.coord_rings import (P1Automorphism, Section, gamma_multiply,
                                section_space_dim, section_twist,
                                thcr_multiply, thcr_presentation,
                                two_point_hilbert)
from ncproj.fields import QQ, QQ_Q, RatFunc, UPoly
from ncproj.presentations import build
from ncproj.rewriting import hilbert_function


def scaling_q():
    return P1Automorphism.scaling(QQ_Q, RatFunc.q())


def upoly(field, *coeffs):
    return UPoly(tuple(field.coerce(c) for c in coeffs))


def test_automorphism_validation_and_compose():
    with pytest.raises(ValueError):
        P1Automorphism(QQ, 1, 1, 1, 1)
    s = P1Automorphism(QQ, 1, 1, 0, 1)        # u -> u + 1
    t = P1Automorphism(QQ, 2, 0, 0, 1)        # u -> 2u
    st = s.compose(t)
    assert (st.a, st.b, st.c, st.d) == (Fraction(2), Fraction(1), Fraction(0), Fraction(1))
    s3 = s.power(3)
    assert (s3.a, s3.b, s3.c, s3.d) == (Fraction(1), Fraction(3), Fraction(0), Fraction(1))


def test_section_level_bound():
    with pytest.raises(ValueError):
        Section(upoly(QQ, 0, 0, 1), 1)        # u^2 is not a level-1 section
    Section(upoly(QQ, 0, 0, 1), 2)


def test_section_twist_scaling():
    s = scaling_q()
    y = Section(upoly(QQ_Q, 0, 1), 1)         # u at level 1
    assert section_twist(y, s).poly == upoly(QQ_Q, 0, RatFunc.q())


def test_section_twist_inversion_rehomogenizes():
    # u -> 1/u sends the level-2 section u^2 to the constant polynomial 1
    inv = P1Automorphism(QQ, 0, 1, 1, 0)
    g = Section(upoly(QQ, 0, 0, 1), 2)
    assert section_twist(g, inv).poly == upoly(QQ, 1)


def test_thcr_product_convention():
    s = scaling_q()
    x = Section(upoly(QQ_Q, 1), 1)
    y = Section(upoly(QQ_Q, 0, 1), 1)
    q = RatFunc.q()
    # x.y twists y by sigma: q*u; y.x leaves u alone
    assert thcr_multiply(x, y, s).poly == upoly(QQ_Q, 0, q)
    assert thcr_multiply(y, x, s).poly == upoly(QQ_Q, 0, 1)
    # so x.y - q.(y.x) = 0 is the quadratic relation
    diff = thcr_multiply(x, y, s).poly - thcr_multiply(y, x, s).poly.scale(q)
    assert diff.is_zero()


def test_thcr_associative():
    s = P1Automorphism(QQ, 1, 1, 0, 1)
    a = Section(upoly(QQ, 1, 2), 1)
    b = Section(upoly(QQ, 0, 1), 1)
    c = Section(upoly(QQ, 3, 1), 1)
    lhs = thcr_multiply(thcr_multiply(a, b, s), c, s)
    rhs = thcr_multiply(a, thcr_multiply(b, c, s), s)
    assert lhs.poly == rhs.poly and lhs.level == 3


def test_gamma_is_opposite_product():
    s = scaling_q()
    a = Section(upoly(QQ_Q, 1, 1), 1)
    b = Section(upoly(QQ_Q, 0, 1), 1)
    assert gamma_multiply(a, b, s).poly == thcr_multiply(b, a, s).poly


def test_gamma_twists_the_left_factor():
    """gamma_multiply(f, g) is f twisted by sigma^level(g), times g."""
    rng = random.Random(7)
    sigmas = [P1Automorphism(QQ, 1, 1, 0, 1), P1Automorphism(QQ, 2, 1, 1, 3),
              P1Automorphism(QQ, 0, -1, 1, 0), scaling_q(),
              P1Automorphism(QQ_Q, RatFunc.q(), 1, 0, 1)]

    def section(field):
        level = rng.randint(0, 3)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(rng.randint(0, level + 1))]
        return Section(upoly(field, *coeffs), level)

    for _ in range(60):
        s = rng.choice(sigmas)
        f, g = section(s.field), section(s.field)
        prod = gamma_multiply(f, g, s)
        assert prod.poly == section_twist(f, s.power(g.level)).poly * g.poly
        assert prod.level == f.level + g.level


def test_thcr_presentation_quantum():
    p = thcr_presentation(scaling_q(), 6)
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert rel.degree() == 2
    # the relation spans x*y - q*y*x: normalize on the y*x coefficient
    q = RatFunc.q()
    xy, yx = (0, 1), (1, 0)
    assert set(rel.terms) == {xy, yx}
    assert rel.terms[xy] / rel.terms[yx] == -QQ_Q.one / q
    # graded dims follow the section-space count
    dims = hilbert_function(build(p, 8), 8)
    assert dims == [section_space_dim(n) for n in range(9)]


def test_thcr_presentation_identity_is_commutative_plane():
    p = thcr_presentation(P1Automorphism.identity(QQ), 5)
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert set(rel.terms) == {(0, 1), (1, 0)}
    assert rel.terms[(0, 1)] + rel.terms[(1, 0)] == QQ.zero


def test_thcr_presentation_translation():
    # u -> u + 1 gives a Jordan-type quadratic relation and polynomial growth
    p = thcr_presentation(P1Automorphism(QQ, 1, 1, 0, 1), 5)
    assert len(p.relations) == 1 and p.relations[0].degree() == 2
    dims = hilbert_function(build(p, 8), 8)
    assert dims == list(range(1, 10))


def test_two_point_hilbert():
    assert two_point_hilbert(1, 0, 6) == [1, 0, 1, 0, 1, 0, 1]
    assert two_point_hilbert(1, 1, 5) == [2, 2, 2, 2, 2, 2]
    assert two_point_hilbert(2, 1, 4) == [5, 4, 5, 4, 5]
    with pytest.raises(ValueError):
        two_point_hilbert(0, 0, 4)
    with pytest.raises(ValueError):
        two_point_hilbert(-1, 2, 4)
