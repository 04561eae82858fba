"""Charge-level model of coherent sheaves on an elliptic curve.

Objects are multisets of semistable charge factors (rank, degree,
multiplicity).  Slopes, Harder-Narasimhan layers, the torsion pair at theta,
Hom-vanishing certificates and stable-pair dimension counts all reduce to
exact comparisons of rational (or quadratic-irrational) numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .fields import QuadExt

CERTAIN_ZERO = "CERTAIN_ZERO"
UNKNOWN = "UNKNOWN"
EMPTY = "EMPTY"


@dataclass(frozen=True)
class Charge:
    """(rank, degree) of a class; torsion classes have rank 0 and degree > 0."""
    rank: int
    deg: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if self.rank == 0 and self.deg <= 0:
            raise ValueError("torsion classes must have positive length")

    def render(self):
        return f"{self.rank}:{self.deg}"


class Slope:
    """deg/rank, or +infinity for torsion classes (rank 0, deg > 0).

    The pair (deg, rank) is kept as it is and compared by cross-multiplying,
    as hom_dim_stable compares charges: rank >= 0 and deg > 0 when rank is 0,
    so deg1 * rank2 < deg2 * rank1 is the order of the slopes, infinity
    included, and no Fraction is built to compare two slopes.
    """

    __slots__ = ("deg", "rank")
    INF = object()

    def __init__(self, deg, rank):
        self.deg = deg
        self.rank = rank

    @staticmethod
    def of(z):
        return Slope(z.deg, z.rank)

    @property
    def value(self):
        """The slope as a Fraction, or INF."""
        return Slope.INF if self.is_infinite() else Fraction(self.deg, self.rank)

    def is_infinite(self):
        return self.rank == 0

    def __eq__(self, other):
        if not isinstance(other, Slope):
            return NotImplemented
        return self.deg * other.rank == other.deg * self.rank

    def __hash__(self):
        g = gcd(self.deg, self.rank)
        return hash((self.deg // g, self.rank // g))

    def __lt__(self, other):
        return self.deg * other.rank < other.deg * self.rank

    def __le__(self, other):
        return not other < self

    def __gt__(self, other):
        return other < self

    def __ge__(self, other):
        return not self < other

    def exceeds(self, theta):
        """Exact comparison slope > theta; theta rational or quadratic."""
        if isinstance(theta, QuadExt):
            return theta * self.rank < self.deg
        theta = Fraction(theta)
        return self.deg * theta.denominator > theta.numerator * self.rank

    def render(self):
        return "inf" if self.is_infinite() else str(self.value)

    def __repr__(self):
        return f"Slope({self.render()})"


class SheafClass:
    """Multiset of semistable charge factors with multiplicities."""

    def __init__(self, factors):
        fmap = {}
        for item in factors:
            if isinstance(item, Charge):
                z, m = item, 1
            else:
                z, m = item
            if m < 1:
                raise ValueError("multiplicities must be positive")
            fmap[z] = fmap.get(z, 0) + m
        if not fmap:
            raise ValueError("a nonzero object needs at least one factor")
        self.factors = dict(sorted(fmap.items(),
                                   key=lambda kv: (kv[0].rank, kv[0].deg)))

    def items(self):
        return list(self.factors.items())

    def __eq__(self, other):
        return isinstance(other, SheafClass) and self.factors == other.factors

    def __repr__(self):
        inner = ", ".join(z.render() if m == 1 else f"{z.render()}*{m}"
                          for z, m in self.factors.items())
        return f"[{inner}]"

    def render(self):
        return repr(self)


@dataclass
class HNFiltration:
    """Layers (slope, factors) with strictly increasing slope."""
    layers: list

    def mu_min(self):
        return self.layers[0][0]

    def mu_max(self):
        return self.layers[-1][0]

    def to_dict(self):
        return {"layers": [{"slope": s.render(),
                            "factors": [[z.render(), m] for z, m in facs]}
                           for s, facs in self.layers]}


def hn(F):
    """Group factors by slope; layers ascend strictly.  Unique by construction."""
    buckets = {}
    for z, m in F.items():
        s = Slope.of(z)
        buckets.setdefault(s, []).append((z, m))
    layers = sorted(buckets.items(), key=lambda kv: kv[0])
    return HNFiltration([(s, sorted(f, key=lambda zm: (zm[0].rank, zm[0].deg)))
                         for s, f in layers])


def mu_min(F):
    return hn(F).mu_min()


def mu_max(F):
    return hn(F).mu_max()


def torsion_split(F, theta):
    """(t, q): factors with slope > theta, and the rest."""
    above = [(z, m) for z, m in F.items() if Slope.of(z).exceeds(theta)]
    below = [(z, m) for z, m in F.items() if not Slope.of(z).exceeds(theta)]
    t = SheafClass(above) if above else EMPTY
    q = SheafClass(below) if below else EMPTY
    return t, q


def hom_vanishes(F, G):
    """CERTAIN_ZERO when every factor of F strictly out-slopes every factor of G."""
    if mu_min(F) > mu_max(G):
        return CERTAIN_ZERO
    return UNKNOWN


def euler_pairing(z1, z2):
    """chi(z1, z2) = rank1*deg2 - deg1*rank2; antisymmetric and bilinear."""
    return z1.rank * z2.deg - z1.deg * z2.rank


def stable_p(z):
    """Coprime charges and the point-sheaf class are the stable ones."""
    if z.rank == 0:
        return z.deg == 1
    return gcd(z.rank, z.deg) == 1


def hom_dim_stable(z1, z2):
    """(hom, ext1) between stable classes; always hom - ext1 = chi(z1, z2).

    Dimensions follow from slope vanishing plus the dimension-level
    Calabi-Yau duality ext1(a, b) = hom(b, a).  Distinct stable classes have
    distinct slopes, and slope(z1) < slope(z2) exactly when chi(z1, z2) > 0,
    torsion included (its rank is 0 and its degree positive), so the sign
    of chi decides which of hom and ext1 vanishes.
    """
    if not stable_p(z1) or not stable_p(z2):
        raise ValueError("both charges must be stable")
    if z1 == z2:
        return (1, 1)
    chi = euler_pairing(z1, z2)
    return (chi, 0) if chi > 0 else (0, -chi)
