"""Twisted homogeneous coordinate rings of the projective line, and the
two-point triple.

Level-n sections of O(k) are polynomials of degree <= n*k in the affine
coordinate u; twisting by a fractional-linear automorphism multiplies by the
homogenizing prefactor (c*u + d)^(n*k), the unique choice keeping twisted
sections polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import UPoly
from .presentations import AlgebraPresentation, present
from .words import Alphabet, MonomialOrder


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

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"P1Automorphism({self.a}, {self.b}, {self.c}, {self.d})"


@dataclass(frozen=True)
class Section:
    """A level-n section of O(k) on the projective line."""
    poly: UPoly
    level: int
    bundle: int = 1

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"section level {self.level} is negative")
        if self.poly.degree() > self.level * self.bundle:
            raise ValueError("polynomial degree exceeds the section level bound")

    def render(self):
        return self.poly.render("u")


def section_space_dim(n, bundle=1):
    return n * bundle + 1


def section_twist(g, sigma):
    """Pull a level-n section back along sigma, rehomogenized to level n."""
    field = sigma.field
    m = g.level * g.bundle
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
    return Section(acc, g.level, g.bundle)


def thcr_multiply(f, g, sigma):
    """Section product f . (g twisted by sigma^level(f)); level-additive."""
    if f.bundle != g.bundle:
        raise ValueError("sections of different line bundles")
    tw = section_twist(g, sigma.power(f.level))
    return Section(f.poly * tw.poly, f.level + g.level, f.bundle)


def gamma_multiply(f, g, sigma):
    """The abstract section-ring rule: twist the left factor by the right level.

    This is the opposite multiplication to thcr_multiply:
    gamma_multiply(f, g) == thcr_multiply(g, f).
    """
    if f.bundle != g.bundle:
        raise ValueError("sections of different line bundles")
    tw = section_twist(f, sigma.power(g.level))
    return Section(tw.poly * g.poly, f.level + g.level, f.bundle)


def _level_one_basis(field, bundle):
    gens = []
    for j in range(bundle + 1):
        coeffs = [field.zero] * j + [field.one]
        gens.append(Section(UPoly(coeffs), 1, bundle))
    return gens


def thcr_presentation(sigma, d_max, bundle=1, name="B"):
    """Presentation of the twisted homogeneous coordinate ring of the triple.

    Generators are the level-1 section basis (x = 1, y = u when bundle = 1);
    relations in degrees 2..d_max are those ``present`` finds for the
    evaluation of words as thcr_multiply products, as polynomial coefficients.
    Each word is evaluated once, from the section of its prefix.
    """
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    field = sigma.field
    gens = _level_one_basis(field, bundle)
    if bundle == 1:
        symbols = ["x", "y"]
    else:
        symbols = [f"x{j}" for j in range(bundle + 1)]
    alphabet = Alphabet(symbols)
    order = MonomialOrder(alphabet)

    # the section of a word is that of its prefix times its last generator
    # twisted by sigma^level(prefix); twisted[k][i] is gens[i] twisted by sigma^k
    twisted, tau = [], P1Automorphism.identity(field)
    for _ in range(d_max):
        twisted.append([section_twist(g, tau).poly for g in gens])
        tau = tau.compose(sigma)
    sections = {(i,): g.poly for i, g in enumerate(gens)}

    def section(word):
        poly = sections.get(word)
        if poly is None:
            poly = sections[word] = section(word[:-1]) * twisted[len(word) - 1][word[-1]]
        return poly

    def evaluate(word):
        return {t: c for t, c in enumerate(section(word).coeffs) if c}

    relations = present(order, field, evaluate, d_max)
    return AlgebraPresentation(name, field, alphabet, relations, order)


def two_point_hilbert(r1, r2, n_max):
    """Hilbert function of the section ring of the two-point triple.

    dims alternate between r1^2 + r2^2 (even degrees) and 2 r1 r2 (odd).
    """
    if r1 < 0 or r2 < 0 or r1 + r2 < 1:
        raise ValueError("need nonnegative multiplicities, not both zero")
    even, odd = r1 * r1 + r2 * r2, 2 * r1 * r2
    return [even if n % 2 == 0 else odd for n in range(n_max + 1)]
