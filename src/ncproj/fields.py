"""Exact coefficient arithmetic: rationals, rational functions in q, quadratic fields.

Every scalar used anywhere in the package is one of

* ``fractions.Fraction`` -- the field Q,
* ``RatFunc``            -- the field Q(q) of univariate rational functions,
  stored over Z[q] as q^e N(q)/D(q) with N and D coprime tuples of ints,
* ``QuadExt``            -- a real quadratic field Q(sqrt(D)).

All three support ``+ - * /``, equality and ``bool`` (nonzero test), so the
generic linear algebra in :mod:`ncproj.linalg` works over any of them.
No floating point enters any computation.

Z[q], as integer coefficient sequences low degree first, has one kernel
here: product, Laurent sum, exact quotient and "make coprime", whose gcd of
two polynomials of positive degree is the primitive remainder sequence of
``UPoly.gcd``.  ``RatFunc`` arithmetic runs on it, and so does
``rewriting._walk``, the normal-form walk, which works fraction-free on
numerators over one common denominator: Python ints over an int for Q, and
integer Laurent polynomials (valuation, tuple of ints) over a denominator
in Z[q] for Q(q), kept as its factors, read off each ``RatFunc``'s
(e, N, D) as it is stored.  Each rewrite rule reads its rhs into that form
once, and S-polynomials are built from those forms, so no ``RatFunc`` is
made between two rules and their S-polynomial.  Bare integers leave the
walk only for completion's span over Q, whose rows are integer rows
anyway: every Q scalar ``rewriting._reduce`` returns is a ``Fraction`` and
every Q(q) scalar a ``RatFunc``, made coprime with the denominator one
factor at a time.  ``UPoly`` products over Q also run on the kernel's
product, on integer numerators over a common denominator.
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

    def gcd(self, other):
        """The gcd of two polynomials in its unit-normal form: in Z[q] when
        every coefficient of both is an int, content included and with a
        positive leading coefficient; otherwise in Q[q], monic.

        A primitive remainder sequence over Z[q] (Collins 1967; Brown and
        Traub 1971): both sides are cleared of denominators and contents,
        and every pseudo-remainder is divided by its content, so the
        integers grow no further than the gcd needs, where Euclid over Q
        swells.
        """
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        if not a:
            return UPoly()
        cs = self.coeffs + other.coeffs
        if all(c.__class__ is int for c in cs):
            c = math.gcd(*cs) if a[-1] > 0 else -math.gcd(*cs)
            return UPoly(tuple(x * c for x in a))
        lead = a[-1]
        return UPoly(tuple(Fraction(c, lead) for c in a))

    def render(self, sym="q"):
        return _render_powers(self.coeffs, sym)

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


# The Z[q] kernel of RatFunc and of rewriting._walk.  Its operands are
# nonzero integer coefficient lists, low degree first, with a nonzero last
# entry; a Laurent polynomial q^v N(q) is the pair (v, N) with N(0) != 0.
# Results are tuples.

def _neg(a):
    """-a."""
    return (-a[0],) if len(a) == 1 else tuple([-x for x in a])


def _zmul(a, b):
    """The product a b; a constant factor scales the other."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return tuple(b) if c == 1 else tuple([x * c for x in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _zquo(a, b):
    """The quotient a / b, b dividing a in Z[q]."""
    lb, db = b[-1], len(b) - 1
    if not db:
        return tuple(a) if lb == 1 else tuple([x // lb for x in a])
    r = list(a)
    out = [0] * (len(a) - db)
    for k in reversed(range(len(out))):
        c = out[k] = r[k + db] // lb
        if c:
            for i, y in enumerate(b, k):
                r[i] -= c * y
    return tuple(out)


def _zgcd(a, b):
    """The gcd of a and b in Z[q], content included, with a positive
    leading coefficient; that of two polynomials of positive degree is
    UPoly.gcd's."""
    if len(a) == 1 or len(b) == 1:
        return (math.gcd(*a, *b),)
    return UPoly(a).gcd(UPoly(b)).coeffs


def _coprime(a, b):
    """(a / g, b / g) for the gcd g of a and b in Z[q], content included,
    signed so that b / g has a positive leading coefficient."""
    g = _zgcd(a, b)
    if b[-1] < 0:
        g = _neg(g)
    return _zquo(a, g), _zquo(b, g)


def _laurent_sum(x, y):
    """x + y for Laurent polynomials (v, N); 0 when the sum vanishes."""
    (e, A), (f, B) = (x, y) if x[0] <= y[0] else (y, x)
    k = f - e
    out = list(A)
    out += [0] * (k + len(B) - len(A))
    for i, b in enumerate(B, k):
        out[i] += b
    while out and not out[-1]:
        out.pop()
    if not out:
        return 0
    i = 0
    while not out[i]:
        i += 1
    return e + i, tuple(out[i:] if i else out)


# ---------------------------------------------------------------------------
# Q(q): rational functions
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = (1,)


class RatFunc:
    """Element of Q(q), stored over Z[q] as q^e N(q)/D(q).

    N and D are tuples of ints, low degree first, with N(0) != 0 != D(0);
    they are coprime in Z[q], contents included, and D's leading
    coefficient is positive.  Zero is e = 0, N = (), D = (1,), and a
    monomial (a/b) q^e, a/b in lowest terms, is N = (a,), D = (b,).  The
    form is unique, so equality compares (e, N, D).  The arithmetic runs on
    the Z[q] kernel above.  A product or quotient with a monomial, and the
    sum of two monomials with one exponent, is integer arithmetic on
    contents; elsewhere gcds are taken only where factors can cancel, a gcd
    of two polynomials of positive degree through UPoly.gcd.  `num` and
    `den` give the reduced fraction over Q as dense polynomials, the
    denominator monic.
    """

    __slots__ = ("e", "n", "d")

    def __init__(self, num, den=None):
        if den is None and isinstance(num, (int, Fraction)):
            self.e, self.n, self.d = 0, (num.numerator,) if num else (), (num.denominator,)
            return
        m, N = _integer_numerators(num)
        k, D = _integer_numerators(1 if den is None else den)
        if not D:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not N:
            self.e, self.n, self.d = 0, (), _ONE
            return
        vn = next(i for i, x in enumerate(N) if x)
        vd = next(i for i, x in enumerate(D) if x)
        self.e = vn - vd
        self.n, self.d = _coprime(_zmul(N[vn:], (k,)), _zmul(D[vd:], (m,)))

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
        return RatFunc._raw(1, _ONE, _ONE)

    @property
    def num(self):
        """The numerator of the reduced fraction: q^e N / lead(D), or
        N / lead(D) when e < 0."""
        return _shifted_over(self.n, self.d[-1], self.e)

    @property
    def den(self):
        """The monic denominator of the reduced fraction: D / lead(D), or
        q^-e D / lead(D) when e < 0."""
        return _shifted_over(self.d, self.d[-1], -self.e)

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
        # a constant equals its Fraction and int, so it hashes as they do
        if self.e == 0 and len(self.n) <= 1 and len(self.d) == 1:
            return hash(Fraction(self.n[0], self.d[0])) if self.n else 0
        return hash((self.e, self.n, self.d))

    def __add__(self, other):
        if other.__class__ is not RatFunc:
            other = self._coerce(other)
        return _sum(self, other.e, other.n, other.d)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(self.e, _neg(self.n), self.d)

    def __sub__(self, other):
        if other.__class__ is not RatFunc:
            other = self._coerce(other)
        return _sum(self, other.e, _neg(other.n), other.d)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not RatFunc:
            other = self._coerce(other)
        return _product(self, other.e, other.n, other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not RatFunc:
            other = self._coerce(other)
        return _product(self, *other._inverted())

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return RatFunc._raw(*self._inverted())

    def _inverted(self):
        """(-e, D, N), the parts of the inverse, signed so that N's leading
        coefficient is positive."""
        n, d = self.n, self.d
        if not n:
            raise ZeroDivisionError("division by zero in Q(q)")
        return (-self.e, d, n) if n[-1] > 0 else (-self.e, _neg(d), _neg(n))

    def is_composite(self):
        """True when rendering needs parentheses as a coefficient: the
        denominator has positive degree or the numerator two terms."""
        return len(self.d) > 1 or self.e < 0 or len(self.n) > 1

    def __str__(self):
        # num and den's text, read from N and D over lead(D); each has
        # nonzero ends, so a side of length > 1 has two terms
        lead = self.d[-1]
        n, d = (_render_powers(cs if lead == 1 else [Fraction(c, lead) for c in cs], "q", k)
                for cs, k in ((self.n, self.e), (self.d, -self.e)))
        if self.e >= 0 and len(self.d) == 1:
            return n
        if len(self.n) > 1:
            n = f"({n})"
        if len(self.d) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"RatFunc({self})"


_RZERO = RatFunc._raw(0, (), _ONE)


def _shifted_over(cs, lead, k):
    """q^k cs / lead as a UPoly over Q, or cs / lead when k < 0."""
    cs = map(Fraction, cs) if lead == 1 else [Fraction(x, lead) for x in cs]
    return UPoly((_ZERO,) * max(k, 0) + tuple(cs))


def _integer_numerators(x):
    """(m, N) with x = N(q) / m, N a list of ints, for an int, a Fraction or
    a UPoly of them."""
    if isinstance(x, (int, Fraction)):
        return x.denominator, [x.numerator] if x else []
    if isinstance(x, UPoly) and all(isinstance(c, (int, Fraction)) for c in x.coeffs):
        return _over_lcm(x.coeffs)
    raise FieldMismatchError(f"cannot coerce {x!r} into Q[q]")


def _sum(x, f, B, E):
    """x + q^f B/E, for RatFuncs x and q^f B/E in normal form."""
    e, A, D = x.e, x.n, x.d
    if not B:
        return x
    if not A:
        return RatFunc._raw(f, B, E)
    if e == f and len(A) == 1 == len(B) and len(D) == 1 == len(E):
        # a/b + c/d as Fraction adds them: only gcd(b, d) can cancel
        a, b, c, d = A[0], D[0], B[0], E[0]
        g = math.gcd(b, d)
        if g == 1:
            n, m = a * d + b * c, b * d
        else:
            s = b // g
            n = a * (d // g) + c * s
            g = math.gcd(n, g)
            n, m = n // g, s * (d // g)
        return RatFunc._raw(e, (n,), (m,)) if n else _RZERO
    # over the lcm of D and E, only g = gcd(D, E) can share a factor with
    # the numerator (Henrici; Knuth, TAOCP vol. 2, 4.5.1)
    g = D if D == E else _zgcd(D, E)
    c1, c2 = _zquo(D, g), _zquo(E, g)
    s = _laurent_sum((e, _zmul(A, c2)), (f, _zmul(B, c1)))
    if not s:
        return _RZERO
    e, N = s
    if g != _ONE:
        N, g = _coprime(N, g)
    return RatFunc._raw(e, N, _zmul(_zmul(c1, c2), g))


def _product(x, f, B, E):
    """x q^f B/E, for a RatFunc x and q^f B/E in normal form."""
    e, A, D = x.e, x.n, x.d
    if not A or not B:
        return _RZERO
    if len(A) == 1 == len(D):
        # a monomial factor goes second
        e, A, D, f, B, E = f, B, E, e, A, D
    if len(B) == 1 == len(E):
        # times the monomial (b/c) q^f: only contents can cancel
        b, c = B[0], E[0]
        g, h = math.gcd(b, *D), math.gcd(c, *A)
        b //= g
        c //= h
        if len(A) == 1 == len(D):
            return RatFunc._raw(e + f, (A[0] // h * b,), (D[0] // g * c,))
        return RatFunc._raw(e + f, tuple([x // h * b for x in A]),
                            tuple([x // g * c for x in D]))
    # A/D and B/E are in lowest terms: only the crosswise pairs can cancel
    A, E = _coprime(A, E)
    B, D = _coprime(B, D)
    return RatFunc._raw(e + f, _zmul(A, B), _zmul(D, E))


def _laurent_numerators(cs):
    """(S, ns) with cs[i] = q^v N(q) / S(q) for (v, N) = ns[i], for nonzero
    RatFuncs cs: S is the least common multiple of their denominators'
    contents times the product of their distinct primitive parts."""
    # letter tables read normal forms of one word at a time, so the common
    # case of integer denominators costs one lcm and one scale each
    if all(len(c.d) == 1 for c in cs):
        m = math.lcm(*(c.d[0] for c in cs))
        return (m,), [(c.e, _zmul(c.n, (m // c.d[0],))) for c in cs]
    contents = [math.gcd(*c.d) for c in cs]
    m = math.lcm(*contents)
    parts = [_zquo(c.d, (g,)) for c, g in zip(cs, contents)]
    dens = dict.fromkeys(P for P in parts if P != _ONE)
    cofactor = {P: functools.reduce(_zmul, (E for E in dens if E != P), _ONE)
                for P in [_ONE, *dens]}
    return _zmul(cofactor[_ONE], (m,)), [
        (c.e, _zmul(_zmul(c.n, (m // g,)), cofactor[P]))
        for c, g, P in zip(cs, contents, parts)]


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


def _render_powers(cs, sym, low=0):
    """Text of the sum of cs[i] sym^(low + i), low < 0 read as 0."""
    return render_terms((c, None if i == 0 else sym if i == 1 else f"{sym}^{i}")
                        for i, c in reversed(list(enumerate(cs, max(low, 0)))) if c) or "0"


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
