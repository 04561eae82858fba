"""Twisted homogeneous coordinate rings of the projective line, and the
two-point triple.

Level-n sections of O(1) are polynomials of degree <= n in the affine
coordinate u; twisting by a fractional-linear automorphism multiplies by the
homogenizing prefactor (c*u + d)^n, the unique choice keeping twisted
sections polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import UPoly
from .presentations import AlgebraPresentation, present
from .words import Alphabet


class P1Automorphism:
    """u |-> (a*u + b)/(c*u + d) with ad - bc != 0, over an exact field."""

    def __init__(self, field, a, b, c, d):
        a, b, c, d = (field.coerce(x) for x in (a, b, c, d))
        if not (a * d - b * c):
            raise ValueError("degenerate fractional-linear map (zero determinant)")
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def identity(field):
        return P1Automorphism(field, field.one, field.zero, field.zero, field.one)

    @staticmethod
    def scaling(field, q):
        return P1Automorphism(field, q, field.zero, field.zero, field.one)

    def compose(self, other):
        """Matrix product; composition of the point actions."""
        return P1Automorphism(
            self.field,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def power(self, n):
        out = P1Automorphism.identity(self.field)
        for _ in range(n):
            out = out.compose(self)
        return out

    def __repr__(self):
        return f"P1Automorphism({self.a}, {self.b}, {self.c}, {self.d})"


@dataclass(frozen=True)
class Section:
    """A level-n section of O(1) on the projective line."""
    poly: UPoly
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"section level {self.level} is negative")
        if self.poly.degree() > self.level:
            raise ValueError("polynomial degree exceeds the section level bound")

    def render(self):
        return self.poly.render("u")


def section_space_dim(n):
    return n + 1


def section_twist(g, sigma):
    """Pull a level-n section back along sigma, rehomogenized to level n."""
    field = sigma.field
    m = g.level
    num = UPoly((sigma.b, sigma.a))   # a*u + b
    den = UPoly((sigma.d, sigma.c))   # c*u + d
    acc = UPoly()
    num_pows = [UPoly((field.one,))]
    den_pows = [UPoly((field.one,))]
    for _ in range(m):
        num_pows.append(num_pows[-1] * num)
        den_pows.append(den_pows[-1] * den)
    for j, coeff in enumerate(g.poly.coeffs):
        if coeff:
            acc = acc + (num_pows[j] * den_pows[m - j]).scale(coeff)
    return Section(acc, g.level)


def thcr_multiply(f, g, sigma):
    """Section product f . (g twisted by sigma^level(f)); level-additive."""
    tw = section_twist(g, sigma.power(f.level))
    return Section(f.poly * tw.poly, f.level + g.level)


def gamma_multiply(f, g, sigma):
    """The abstract section-ring rule: twist the left factor by the right level.

    This is the opposite multiplication to thcr_multiply.
    """
    return thcr_multiply(g, f, sigma)


def thcr_presentation(sigma, d_max):
    """Presentation of the twisted homogeneous coordinate ring B(P^1, O(1), sigma).

    Generators are the level-1 sections x = 1 and y = u; relations in
    degrees 2..d_max are those ``present`` finds for the evaluation of
    words as thcr_multiply products, as polynomial coefficients.  A word's
    section is that of its prefix times its last letter twisted by
    sigma^level(prefix).
    """
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    field = sigma.field
    gens = [Section(UPoly((field.one,)), 1), Section(UPoly((field.zero, field.one)), 1)]
    alphabet = Alphabet(["x", "y"])
    # twisted[k][i] is gens[i] twisted by sigma^k
    twisted, tau = [], P1Automorphism.identity(field)
    for _ in range(d_max):
        twisted.append([section_twist(g, tau).poly for g in gens])
        tau = tau.compose(sigma)
    relations = present(alphabet, field, UPoly((field.one,)),
                        lambda poly, k, i: poly * twisted[k][i],
                        lambda poly: {t: c for t, c in enumerate(poly.coeffs) if c}, d_max)
    return AlgebraPresentation("B", field, alphabet, relations)


def two_point_hilbert(r1, r2, n_max):
    """Hilbert function of the section ring of the two-point triple.

    dims alternate between r1^2 + r2^2 (even degrees) and 2 r1 r2 (odd).
    """
    if r1 < 0 or r2 < 0 or r1 + r2 < 1:
        raise ValueError("need nonnegative multiplicities, not both zero")
    even, odd = r1 * r1 + r2 * r2, 2 * r1 * r2
    return [even if n % 2 == 0 else odd for n in range(n_max + 1)]
