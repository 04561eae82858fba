"""Quadratic irrationals, continued fractions, SL(2,Z) and real multiplication.

The fixing matrix of a quadratic irrational is read off the period of its
continued fraction; squaring when needed forces determinant 1 and positive
eigenvalues.  The orbit of a stable charge under the fixing matrix yields
the Hilbert function of the associated section algebra through the Euler
pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fields import QuadExt
from .heart import Charge, Slope, hom_dim_stable, stable_p


@dataclass(frozen=True)
class SL2Matrix:
    """Integer matrix [[a, b], [c, d]] with determinant 1."""
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    @staticmethod
    def identity():
        return SL2Matrix(1, 0, 0, 1)

    def __mul__(self, other):
        return SL2Matrix(self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d)

    def inverse(self):
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = SL2Matrix.identity()
        for _ in range(n):
            out = out * self
        return out

    def trace(self):
        return self.a + self.d

    def entries(self):
        return [[self.a, self.b], [self.c, self.d]]

    def charge_action(self, z):
        """Action on the column (deg, rank); matches the action on slopes."""
        deg = self.a * z.deg + self.b * z.rank
        rank = self.c * z.deg + self.d * z.rank
        return Charge(rank, deg)


def mobius_act(g, theta):
    """(a*theta + b)/(c*theta + d), exact; a left group action."""
    if isinstance(theta, (int, Fraction)):
        theta = QuadExt.from_rational(theta)
    num = theta * g.a + g.b
    den = theta * g.c + g.d
    if den.is_zero():
        raise ZeroDivisionError("fractional-linear action hits the pole")
    return num / den


@dataclass
class CFExpansion:
    preperiod: list
    period: list
    window: int

    def to_dict(self):
        return {"period": self.period, "preperiod": self.preperiod,
                "window": self.window}


def cf_expand(theta, max_terms=60):
    """Partial quotients by exact floor-and-invert; the period is detected at
    the first exact repeat of the surd state (Lagrange guarantees one).

    max_terms may be math.inf: the expansion then always finds the period.
    """
    if theta.is_rational():
        raise ValueError("continued-fraction periodicity needs an irrational input")
    seen = {}
    quotients = []
    state = theta
    k = 0
    while k < max_terms:
        key = (state.p, state.s, state.q, state.D)
        if key in seen:
            start = seen[key]
            return CFExpansion(quotients[:start], quotients[start:], k)
        seen[key] = k
        a = state.floor()
        quotients.append(a)
        state = (state - a).inverse()
        k += 1
    return CFExpansion(quotients, [], max_terms)


def cf_value(preperiod, period, D):
    """Exact value of an eventually periodic continued fraction in Q(sqrt(D))."""
    if not period:
        raise ValueError("need a nonempty period for an exact value")
    # tail value x is the attracting fixed point x = (a x + b)/(c x + d)
    # of the period matrix, i.e. the larger root of c x^2 + (d - a) x - b = 0
    a, b, c, d = _word_matrix(period)
    disc = (d - a) * (d - a) + 4 * c * b
    x = QuadExt(a - d, 1, 2 * c, disc)
    for q in reversed(preperiod):
        x = x.inverse() + q
    return x


def _mul(m, n):
    """Product of 2x2 integer matrices given as (a, b, c, d) row by row."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _word_matrix(quotients):
    """Product of [[a_i, 1], [1, 0]]; returns (a, b, c, d)."""
    m = (1, 0, 0, 1)
    for q in quotients:
        m = _mul(m, (q, 1, 1, 0))
    return m


def morita_reduce(theta):
    """Translate theta into (0,1); the word is a power of the translation."""
    if theta.is_rational():
        raise ValueError("theta must be irrational")
    n = theta.floor()
    return theta - n, [("g", -n)] if n else []


def apply_word(word, theta):
    out = theta
    for sym, e in word:
        if sym != "g":
            raise ValueError(f"unknown generator {sym!r}")
        out = mobius_act(SL2Matrix(1, e, 0, 1), out)
    return out


def fixing_matrix(theta):
    """Hyperbolic g in SL(2,Z) fixing theta, with trace > 2.

    Built from one continued-fraction period, squared when its determinant
    is -1, and conjugated back through the preperiod.  Every period quotient
    is at least 1, so the trace is at least 3: a period of two or more
    quotients has trace at least 3, squaring a determinant -1 matrix of
    trace t gives trace t^2 + 2, and conjugation keeps the trace.
    """
    if theta.is_rational():
        raise ValueError("theta must be a quadratic irrational")
    cf = cf_expand(theta, math.inf)
    pa, pb, pc, pd = m = _word_matrix(cf.period)
    if pa * pd - pb * pc == -1:
        m = _mul(m, m)
    # conjugate by the preperiod word: theta = W(tail) => g = W M W^{-1}
    wa, wb, wc, wd = w = _word_matrix(cf.preperiod)
    wdet = wa * wd - wb * wc
    # W^{-1} = adj(W)/det(W); det is +-1 so entries stay integral
    w_inv = (wd * wdet, -wb * wdet, -wc * wdet, wa * wdet)
    g = SL2Matrix(*_mul(_mul(w, m), w_inv))
    if mobius_act(g, theta) != theta:
        raise ValueError("fixing-matrix construction failed to fix theta")
    return g


@dataclass
class RmAlgebraReport:
    F: SL2Matrix
    G_charge: Charge
    theta: QuadExt
    dims: list
    slopes: list
    recurrence_checked: bool

    def to_dict(self):
        return {
            "F": self.F.entries(),
            "G": self.G_charge.render(),
            "dims": self.dims,
            "recurrence_checked": self.recurrence_checked,
            "slopes": [s.render() for s in self.slopes],
            "theta": str(self.theta),
        }


def rm_hilbert(F, G, theta, n_max):
    """Hilbert data of the real-multiplication algebra for (F, G, theta).

    Orbit charges z_n = F^n G must be stable with slopes strictly monotone
    on one side of theta; dims[n] = hom(z_0, z_n), and the Cayley-Hamilton
    trace recurrence is verified on chi(z_0, z_n), which is 0 at n = 0 and
    the dims from n = 1 on.
    """
    if not stable_p(G):
        raise ValueError("G must be a stable charge")
    if mobius_act(F, theta) != theta:
        raise ValueError("F does not fix theta")
    if F.trace() <= 2:
        raise ValueError("F must be hyperbolic with positive eigenvalues (trace > 2)")
    orbit = [G]
    for _ in range(n_max):
        orbit.append(F.charge_action(orbit[-1]))
    slopes = []
    for z in orbit:
        if not stable_p(z):
            raise ValueError(f"orbit charge {z.render()} is not stable")
        s = Slope.of(z)
        if s.is_infinite():
            raise ValueError("orbit hit a torsion charge")
        slopes.append(s)
    increasing = all(slopes[i] < slopes[i + 1] for i in range(len(slopes) - 1))
    decreasing = all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))
    if not (increasing or decreasing):
        raise ValueError("orbit slopes are not monotone; not an ample-type orbit")
    sides = {s.exceeds(theta) for s in slopes}
    if len(sides) != 1:
        raise ValueError("orbit slopes cross theta; heart consistency fails")
    dims = []
    for n in range(1, n_max + 1):
        hom, ext1 = hom_dim_stable(orbit[0], orbit[n])
        if ext1 != 0 or hom <= 0:
            raise ValueError("slope ordering does not concentrate Hom in degree 0")
        dims.append(hom)
    t = F.trace()
    chi = [0] + dims
    recurrence = all(chi[n + 1] == t * chi[n] - chi[n - 1] for n in range(1, len(dims)))
    return RmAlgebraReport(F, G, theta, dims, slopes[1:], recurrence)
