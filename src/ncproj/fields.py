"""Exact coefficient arithmetic: rationals, rational functions in q, quadratic fields.

Every scalar used anywhere in the package is one of

* ``fractions.Fraction`` -- the field Q,
* ``RatFunc``            -- the field Q(q) of univariate rational functions,
  normalized as q^e n(q)/d(q), so a monomial c q^e carries no coefficient
  list and general gcds run as primitive remainder sequences over Z[q],
* ``QuadExt``            -- a real quadratic field Q(sqrt(D)).

All three support ``+ - * /``, equality and ``bool`` (nonzero test), so the
generic linear algebra in :mod:`ncproj.linalg` works over any of them.
No floating point enters any computation.  Bare integers stand for
scalars only inside ``rewriting._reduce``, which works fraction-free on
numerators over one common denominator: Python ints over an int for Q, and
integer Laurent polynomials (valuation, list of ints) over a denominator in
Z[q] for Q(q).  They never leave it: every Q scalar it returns is a
``Fraction`` and every Q(q) scalar a ``RatFunc``.  The integer coefficient
lists of Z[q] (low degree first) also carry ``UPoly`` products over Q and
the remainder sequence behind ``UPoly.gcd``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


class FieldMismatchError(TypeError):
    """Raised when scalars from different coefficient fields are combined."""


# ---------------------------------------------------------------------------
# generic dense univariate polynomials
# ---------------------------------------------------------------------------

class UPoly:
    """Dense univariate polynomial; coefficients are any exact scalars.

    Coefficients are stored low degree first with trailing zeros stripped.
    The zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return UPoly((c,)) if c else UPoly()

    @staticmethod
    def var():
        return UPoly((Fraction(0), Fraction(1)))

    def degree(self):
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(out)

    def __neg__(self):
        return UPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return UPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return UPoly()
        # c q^k times a polynomial shifts it by the k zeros below c and
        # multiplies only its nonzero coefficients
        a_nz = [(i, c) for i, c in enumerate(self.coeffs) if c]
        if len(a_nz) == 1:
            i, a = a_nz[0]
            return UPoly(self.coeffs[:i] + tuple(b * a if b else b for b in other.coeffs))
        b_nz = [(j, c) for j, c in enumerate(other.coeffs) if c]
        if len(b_nz) == 1:
            j, b = b_nz[0]
            return UPoly(other.coeffs[:j] + tuple(a * b if a else a for a in self.coeffs))
        if all(c.__class__ is Fraction for c in self.coeffs + other.coeffs):
            # over Q, fraction-free: integer numerators over the product of
            # the two common denominators, one Fraction per coefficient
            m, a = _over_lcm(self.coeffs)
            n, b = _over_lcm(other.coeffs)
            m *= n
            return UPoly(tuple(Fraction(c, m) for c in _zmul(a, b)))
        zero = self.coeffs[-1] * 0
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in a_nz:
            for j, b in b_nz:
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    def scale(self, c):
        return UPoly(tuple(x * c for x in self.coeffs))

    def divmod(self, other):
        """Euclidean division; requires an invertible leading coefficient."""
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dd = other.degree()
        quo = [dlead * 0] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and rem:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < dd or not rem:
                break
            c = rem[-1] / dlead
            k = len(rem) - 1 - dd
            quo[k] = quo[k] + c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
        return UPoly(quo), UPoly(rem)

    def gcd(self, other):
        """Monic gcd over Q of two polynomials with rational coefficients.

        A primitive remainder sequence over Z[q] (Collins 1967; Brown and
        Traub 1971): both sides are cleared of denominators and contents,
        and every pseudo-remainder is divided by its content, so the
        integers grow no further than the gcd needs, where Euclid over Q
        swells.  The last nonzero remainder is made monic over Q.
        """
        a = _zgcd(_primitive(self.coeffs), _primitive(other.coeffs))
        if not a:
            return UPoly()
        lead = a[-1]
        return UPoly(tuple(Fraction(c, lead) for c in a))

    def render(self, sym="q"):
        if not self.coeffs:
            return "0"
        return render_terms((c, None if i == 0 else sym if i == 1 else f"{sym}^{i}")
                            for i, c in reversed(list(enumerate(self.coeffs))) if c)

    def __repr__(self):
        return f"UPoly({self.render()})"


# ---------------------------------------------------------------------------
# Z[q]: integer coefficient lists, low degree first
# ---------------------------------------------------------------------------

def _over_lcm(cs):
    """(m, ns): the least common denominator m of the rationals (or
    integers) cs, and their numerators ns over it."""
    m = math.lcm(*(c.denominator for c in cs))
    return m, [c.numerator * (m // c.denominator) for c in cs]


def _zmul(a, b):
    """The product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _primitive(cs):
    """The primitive integer coefficient list proportional to the rational
    (or integer) coefficients cs, low degree first."""
    if not cs:
        return []
    ints = _over_lcm(cs)[1]
    g = math.gcd(*ints)
    return ints if g == 1 else [c // g for c in ints]


def _pseudo_remainder(a, b):
    """A remainder of a by b != 0 over Z[q] up to a nonzero integer factor:
    each leading term of a is cancelled by an integer combination with a
    shift of b, the two multipliers divided by their gcd."""
    r = list(a)
    lb, db = b[-1], len(b) - 1
    while len(r) > db:
        lr = r[-1]
        g = math.gcd(lr, lb)
        s, t = lb // g, lr // g
        k = len(r) - 1 - db
        if s != 1:
            r = [s * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= t * c
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _zquo(a, b):
    """The quotient a / b of integer coefficient lists, b dividing a in Z[q]."""
    r, lb, db = list(a), b[-1], len(b) - 1
    out = [0] * (len(a) - db)
    for k in reversed(range(len(out))):
        c = out[k] = r[k + db] // lb
        if c:
            for i, y in enumerate(b, k):
                r[i] -= c * y
    return out


def _zgcd(a, b):
    """The gcd of two primitive integer coefficient lists, primitive and up
    to sign, by the remainder sequence of UPoly.gcd; [] when both are zero."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


# ---------------------------------------------------------------------------
# Q(q): rational functions
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_QONE = UPoly((Fraction(1),))


def _valuation(p):
    """The q-adic valuation of a nonzero polynomial: its lowest degree."""
    return next(i for i, c in enumerate(p.coeffs) if c)


def _shifted(p, k):
    """q^k p, for k >= 0."""
    return UPoly((_ZERO,) * k + p.coeffs) if k else p


def _as_qpoly(x):
    if isinstance(x, UPoly):
        if all(type(c) is Fraction for c in x.coeffs):
            return x
        if all(isinstance(c, (int, Fraction)) for c in x.coeffs):
            return UPoly(tuple(Fraction(c) for c in x.coeffs))
    elif isinstance(x, (int, Fraction)):
        return UPoly.const(Fraction(x))
    raise FieldMismatchError(f"cannot coerce {x!r} into Q[q]")


def _cancel(num, den):
    """num and den divided by their monic gcd, which is taken only when both
    have positive degree."""
    if len(num.coeffs) > 1 and len(den.coeffs) > 1:
        g = num.gcd(den)
        if len(g.coeffs) > 1:
            return num.divmod(g)[0], den.divmod(g)[0]
    return num, den


def _normal(e, num, den):
    """(e', n, d) with q^e num/den = q^e' n/d in RatFunc's normal form, for
    nonzero polynomials num and den over Q that are coprime but for powers
    of q: the valuations go into e', and d is made monic."""
    vn, vd = _valuation(num), _valuation(den)
    if vn:
        num = UPoly(num.coeffs[vn:])
    if vd:
        den = UPoly(den.coeffs[vd:])
    lead = den.coeffs[-1]
    if lead != 1:
        num = num.scale(1 / lead)
        den = den.scale(1 / lead)
    return (e + vn - vd, num.coeffs[0] if len(num.coeffs) == 1 else num,
            None if len(den.coeffs) == 1 else den)


class RatFunc:
    """Element of Q(q), normalized as q^e n(q)/d(q).

    e is an integer, n(0) != 0 != d(0), n and d are coprime and d is monic;
    zero is e = 0, n = 0.  A constant n is kept as its Fraction and any
    other n as a UPoly; d is None when it is 1, else a UPoly.  A monomial
    c q^e is thus the pair (c, e) with no coefficient list: the product or
    quotient of two monomials, and the sum of two with one exponent, is one
    Fraction operation.  Otherwise gcds are taken only where factors can
    cancel, each by the remainder sequence over Z[q] of UPoly.gcd.  `num`
    and `den` give the reduced fraction as dense polynomials, the
    denominator monic.
    """

    __slots__ = ("e", "n", "d")

    def __init__(self, num, den=None):
        if den is None and isinstance(num, (int, Fraction)):
            self.e, self.n, self.d = 0, Fraction(num), None
            return
        num = _as_qpoly(num)
        den = _QONE if den is None else _as_qpoly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(q)")
        if num.is_zero():
            self.e, self.n, self.d = 0, _ZERO, None
        else:
            self.e, self.n, self.d = _normal(0, *_cancel(num, den))

    @staticmethod
    def _raw(e, n, d):
        """Trusted constructor: (e, n, d) already in normal form."""
        out = RatFunc.__new__(RatFunc)
        out.e = e
        out.n = n
        out.d = d
        return out

    @staticmethod
    def q():
        return RatFunc(UPoly.var())

    @property
    def num(self):
        """The numerator of the reduced fraction: q^e n, or n when e < 0."""
        n = self.n if self.n.__class__ is UPoly else UPoly.const(self.n)
        return _shifted(n, self.e) if self.e > 0 else n

    @property
    def den(self):
        """The monic denominator of the reduced fraction: d, or q^-e d when e < 0."""
        d = _QONE if self.d is None else self.d
        return _shifted(d, -self.e) if self.e < 0 else d

    def _polys(self):
        """(e, n, d) with n and d as polynomials."""
        n = self.n
        return (self.e, n if n.__class__ is UPoly else UPoly((n,)),
                _QONE if self.d is None else self.d)

    def __bool__(self):
        return bool(self.n)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, UPoly)):
            return RatFunc(other)
        raise FieldMismatchError(f"cannot mix {other!r} with Q(q) scalar")

    def __eq__(self, other):
        if other.__class__ is not RatFunc:
            try:
                other = self._coerce(other)
            except FieldMismatchError:
                return NotImplemented
        return self.e == other.e and self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if other.__class__ is not RatFunc:
            other = self._coerce(other)
        a, b = self.n, other.n
        if (self.e == other.e and self.d is None and other.d is None
                and a.__class__ is Fraction and b.__class__ is Fraction):
            c = a + b
            return RatFunc._raw(self.e if c else 0, c, None)
        if not a:
            return other
        if not b:
            return self
        e1, n1, d1 = self._polys()
        e2, n2, d2 = other._polys()
        e = min(e1, e2)
        n1, n2 = _shifted(n1, e1 - e), _shifted(n2, e2 - e)
        if d1 == d2:
            num, den = _cancel(n1 + n2, d1)
        else:
            # over the lcm of d1 and d2, only g = gcd(d1, d2) can share a
            # factor with the numerator (Henrici; Knuth, TAOCP vol. 2, 4.5.1)
            g = d1.gcd(d2) if len(d1.coeffs) > 1 and len(d2.coeffs) > 1 else _QONE
            if len(g.coeffs) == 1:
                num, den = n1 * d2 + n2 * d1, d1 * d2
            else:
                c1, c2 = d1.divmod(g)[0], d2.divmod(g)[0]
                num, g = _cancel(n1 * c2 + n2 * c1, g)
                den = c1 * c2 * g
        if not num:
            return RatFunc._raw(0, _ZERO, None)
        return RatFunc._raw(*_normal(e, num, den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(self.e, -self.n, self.d)

    def __sub__(self, other):
        if other.__class__ is not RatFunc:
            other = self._coerce(other)
        a, b = self.n, other.n
        if (self.e == other.e and self.d is None and other.d is None
                and a.__class__ is Fraction and b.__class__ is Fraction):
            c = a - b
            return RatFunc._raw(self.e if c else 0, c, None)
        return self + -other

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not RatFunc:
            other = self._coerce(other)
        a, b = self, other
        if b.d is None and b.n.__class__ is Fraction:
            a, b = b, a
        c = a.n
        if a.d is None and c.__class__ is Fraction:
            # c q^e times anything: scale its numerator, add the exponents
            n = b.n
            if not c or not n:
                return RatFunc._raw(0, _ZERO, None)
            return RatFunc._raw(a.e + b.e, n * c if c != 1 else n, b.d)
        e1, n1, d1 = a._polys()
        e2, n2, d2 = b._polys()
        # n1/d1 and n2/d2 are reduced: only the crosswise pairs can cancel
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return RatFunc._raw(*_normal(e1 + e2, n1 * n2, d1 * d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not RatFunc:
            other = self._coerce(other)
        c = other.n
        if not c:
            raise ZeroDivisionError("division by zero in Q(q)")
        if other.d is None and c.__class__ is Fraction:
            n = self.n
            if not n:
                return self
            return RatFunc._raw(self.e - other.e, n / c if n.__class__ is Fraction
                                else n if c == 1 else n.scale(1 / c), self.d)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        n, d = self.n, self.d
        if not n:
            raise ZeroDivisionError("division by zero in Q(q)")
        if n.__class__ is Fraction:
            inv = 1 / n
            return RatFunc._raw(-self.e, inv if d is None else d.scale(inv), None)
        inv = 1 / n.coeffs[-1]
        return RatFunc._raw(-self.e, inv if d is None else d.scale(inv), n.scale(inv))

    def is_composite(self):
        """True when rendering needs parentheses as a coefficient: the
        denominator has positive degree or the numerator two terms."""
        return self.d is not None or self.e < 0 or self.n.__class__ is UPoly

    def __str__(self):
        num, den = self.num, self.den
        if den.degree() == 0:
            return num.render()
        n = num.render()
        d = den.render()
        if sum(1 for c in num.coeffs if c) > 1:
            n = f"({n})"
        if sum(1 for c in den.coeffs if c) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"RatFunc({self})"


def _laurent_numerators(cs):
    """(S, ns) with cs[i] = q^v N(q) / S(q) for (v, N) = ns[i], for nonzero
    RatFuncs cs: S and every N are integer coefficient lists with nonzero
    constant terms, S the least common integer denominator times the
    product of the distinct primitive polynomial denominators."""
    # letter tables read normal forms of one word at a time, so the common
    # case of monomials c q^e costs one pass and one int each
    m = 1
    for c in cs:
        if c.d is not None or c.n.__class__ is UPoly:
            break
        m = math.lcm(m, c.n.denominator)
    else:
        return [m], [(c.e, [c.n.numerator * (m // c.n.denominator)]) for c in cs]
    cs = [(c.e, c.n.coeffs if c.n.__class__ is UPoly else (c.n,), c.d) for c in cs]
    m = math.lcm(*(x.denominator for _, n, _ in cs for x in n))
    ns = [(e, [x.numerator * (m // x.denominator) for x in n]) for e, n, _ in cs]
    primitive = {d: tuple(_primitive(d.coeffs)) for _, _, d in cs if d is not None}
    if not primitive:
        return [m], ns
    # n / d = n lead(D) / D for the primitive D of the monic d; over the
    # product of the distinct D, its numerator takes the other D's
    dens = dict.fromkeys(primitive.values())
    cofactor = {D: functools.reduce(_zmul, (E for E in dens if E != D), [1])
                for D in [None, *dens]}
    for i, (_, _, d) in enumerate(cs):
        D = primitive.get(d)
        e, N = ns[i]
        if D is not None:
            N = [x * D[-1] for x in N]
        if D is None or len(dens) > 1:
            N = _zmul(N, cofactor[D])
        ns[i] = e, N
    return [m * x for x in cofactor[None]], ns


def _ratfunc_over(v, N, S):
    """The RatFunc q^v N(q) / S(q), for nonzero integer coefficient lists N
    and S with nonzero constant terms: exact Fractions and the trusted
    constructor when S is a constant, else the normalizing one."""
    if len(S) == 1:
        s = S[0]
        if len(N) == 1:
            return RatFunc._raw(v, Fraction(N[0], s), None)
        return RatFunc._raw(v, UPoly(tuple(Fraction(x, s) for x in N)), None)
    out = RatFunc(UPoly(N), UPoly(S))
    out.e += v          # N / S has valuation 0
    return out


# ---------------------------------------------------------------------------
# real quadratic fields Q(sqrt(D))
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def squarefree_part(n):
    """Write n = f^2 * d; return (d, f), with d squarefree when n <= 10^18.

    Trial division runs only while p^3 <= m and p <= 10^6.  When the cube
    bound stops it, every prime factor of what is left is at least p, so
    it is 1, a prime, a product of two distinct primes or the square of a
    prime, and an exact integer square root tells the square apart.  Past
    10^6 what is left is folded only when it is a square: d is 1 exactly
    when n is a square, but the square of a large prime may stay in d.
    """
    if n <= 0:
        raise ValueError("expected a positive integer")
    d, f, m = 1, 1, n
    p = 2
    while p <= 10 ** 6 and p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e % 2:
                d *= p
            f *= p ** (e // 2)
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        f *= r
    else:
        d *= m
    return d, f


class QuadExt:
    """Exact element (p + s*sqrt(D))/q of a real quadratic field.

    Normalized so that gcd(p, s, q) = 1, q > 0 and D is the d of
    squarefree_part, never a square.  Rational numbers are represented with
    s = 0 (D retained for coercion).  Radicands D, D' whose product is a
    square r^2 name one field: sqrt(D') = (r/D) sqrt(D).
    """

    __slots__ = ("p", "s", "q", "D")

    def __init__(self, p, s, q, D):
        if q == 0:
            raise ZeroDivisionError("zero denominator in quadratic field element")
        if D <= 0:
            raise ValueError("D must be positive")
        d0, f = squarefree_part(D)
        if d0 == 1:
            # sqrt(D) is an integer; fold it into the rational part
            p, s, D = p + s * f, 0, 5
        else:
            s, D = s * f, d0
        if q < 0:
            p, s, q = -p, -s, -q
        g = math.gcd(math.gcd(abs(p), abs(s)), q)
        if g > 1:
            p, s, q = p // g, s // g, q // g
        self.p, self.s, self.q, self.D = p, s, q, D

    @staticmethod
    def from_rational(r, D=5):
        r = Fraction(r)
        return QuadExt(r.numerator, 0, r.denominator, D)

    @staticmethod
    def sqrt(D):
        return QuadExt(0, 1, 1, D)

    def is_rational(self):
        return self.s == 0

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.s and self.s and other.D != self.D:
                r = math.isqrt(self.D * other.D)
                if r * r != self.D * other.D:
                    raise FieldMismatchError(
                        f"cannot mix Q(sqrt({self.D})) with Q(sqrt({other.D}))")
                D = self.D
                return QuadExt(other.p * D, other.s * r, other.q * D, D)
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt.from_rational(other, self.D)
        raise FieldMismatchError(f"cannot mix {other!r} with quadratic scalar")

    def _pair_D(self, other):
        return self.D if self.s else other.D

    def is_zero(self):
        return self.p == 0 and self.s == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except FieldMismatchError:
            return NotImplemented
        return (self.p, self.s, self.q) == (other.p, other.s, other.q) and \
            (self.s == 0 or self.D == other.D)

    def __hash__(self):
        # sqrt(D) is irrational, so equal elements share their rational part
        return hash(Fraction(self.p, self.q))

    def __add__(self, other):
        other = self._coerce(other)
        D = self._pair_D(other)
        return QuadExt(self.p * other.q + other.p * self.q,
                       self.s * other.q + other.s * self.q,
                       self.q * other.q, D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.p, -self.s, self.q, self.D)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        D = self._pair_D(other)
        return QuadExt(self.p * other.p + self.s * other.s * D,
                       self.p * other.s + self.s * other.p,
                       self.q * other.q, D)

    __rmul__ = __mul__

    def inverse(self):
        # 1/((p + s sqrt(D))/q) = q (p - s sqrt(D)) / (p^2 - s^2 D)
        n = self.p * self.p - self.s * self.s * self.D
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return QuadExt(self.q * self.p, -self.q * self.s, n, self.D)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def sign(self):
        """Exact sign of the real value."""
        p, s, D = self.p, self.s, self.D
        if s == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (s > 0) - (s < 0)
        if p > 0 and s > 0:
            return 1
        if p < 0 and s < 0:
            return -1
        # p and s of opposite sign: compare p^2 with s^2 D
        lhs, rhs = p * p, s * s * D
        if p > 0:  # s < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def _cmp(self, other):
        return (self - self._coerce(other)).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def floor(self):
        r = math.isqrt(self.s * self.s * self.D)      # floor(|s| sqrt(D))
        if self.s < 0:
            r = -r - 1                                # s^2 D is not a square
        return (self.p + r) // self.q

    def __str__(self):
        if self.s == 0:
            return str(Fraction(self.p, self.q))
        core = f"{self.p} + {self.s}*sqrt({self.D})"
        if self.s < 0:
            core = f"{self.p} - {-self.s}*sqrt({self.D})"
        return f"({core})/{self.q}"

    def __repr__(self):
        return f"QuadExt({self})"


# ---------------------------------------------------------------------------
# field tags
# ---------------------------------------------------------------------------

class FieldTag:
    """Identifies the coefficient field of a presentation or computation."""

    def __init__(self, name, zero, one, coerce):
        self.name = name
        self.zero = zero
        self.one = one
        self.coerce = coerce

    def __eq__(self, other):
        return isinstance(other, FieldTag) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"FieldTag({self.name})"


QQ = FieldTag("Q", Fraction(0), Fraction(1), lambda x: Fraction(x))
QQ_Q = FieldTag("Q(q)", RatFunc(0), RatFunc(1),
                lambda x: x if isinstance(x, RatFunc) else RatFunc(x))


def render_terms(terms):
    """Text of a sum of (coefficient, monomial text or None) terms, in order.

    A composite Q(q) coefficient is parenthesized; a coefficient 1 in front
    of a monomial is omitted.
    """
    parts = []
    for c, mono in terms:
        cs = str(c)
        neg = False
        if isinstance(c, RatFunc) and c.is_composite():
            cs = f"({cs})"
        elif cs.startswith("-"):
            neg, cs = True, cs[1:]
        body = cs if mono is None else mono if cs == "1" else f"{cs}*{mono}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
