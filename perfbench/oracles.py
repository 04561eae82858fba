"""Independent answers and properties that the benchmark checks outputs against.

Nothing here imports ncproj.  Every expected value is either a closed formula
from the mathematics (Koszul Betti numbers, Gaussian binomials, the
Artin-Tate-Van den Bergh dimensions, Serre duality on P^1) or is recomputed
with plain integer and Fraction arithmetic written for the benchmark.
A failed check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output disagrees with the independent computation."""


class KnownFault(RuntimeError):
    """An operation ended with the documented symptom of a known program fault."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------

def koszul_betti(n):
    """Betti shifts of the Koszul resolution of k over k[x_1..x_n]."""
    return [[i] * math.comb(n, i) for i in range(n + 1)]


def sklyanin_dims(N):
    """dim A_d = binomial(d+2, 2): Hilbert series 1/(1-t)^3."""
    return [math.comb(d + 2, 2) for d in range(N + 1)]


def braid_dims(N):
    """Hilbert series 1/(1 - 2t + t^3): a_n = 2a_{n-1} - a_{n-3}."""
    a = []
    for n in range(N + 1):
        v = 1 if n == 0 else 2 * a[n - 1] - (a[n - 3] if n >= 3 else 0)
        a.append(v)
    return a


def gaussian_binomial(n, k):
    """Integer coefficients of [n choose k]_q, lowest degree first.

    Pascal's q-identity [n, k] = [n-1, k-1] + q^k [n-1, k].
    """
    table = {(0, 0): [1]}
    for m in range(1, n + 1):
        for j in range(0, min(m, k) + 1):
            left = table.get((m - 1, j - 1), [])
            right = [0] * j + table.get((m - 1, j), [])
            size = max(len(left), len(right))
            table[(m, j)] = [(left[i] if i < len(left) else 0) +
                             (right[i] if i < len(right) else 0)
                             for i in range(size)]
    out = table.get((n, k), [])
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_scale(coeffs, c):
    return [c * x for x in coeffs]


def trimmed(coeffs):
    out = [Fraction(x) for x in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def two_point_dims(r1, r2, n):
    return [r1 * r1 + r2 * r2 if k % 2 == 0 else 2 * r1 * r2
            for k in range(n + 1)]


def growth_estimate(dims):
    """Least-squares slope of log(sum of dims) against log(n) on [N/2, N]."""
    N = len(dims) - 1
    filt, acc = [], 0
    for d in dims:
        acc += d
        filt.append(acc)
    lo = max(1, N // 2)
    xs = [math.log(n) for n in range(lo, N + 1)]
    ys = [math.log(filt[n]) for n in range(lo, N + 1)]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den, filt, (lo, N)


def avoiding_word_counts(nletters, forbidden, N):
    """Number of words of each length <= N avoiding every forbidden subword."""
    keep = max((len(w) for w in forbidden), default=1) - 1
    states = {(): 1}
    out = [1]
    for _ in range(N):
        nxt = {}
        for suffix, count in states.items():
            for a in range(nletters):
                w = suffix + (a,)
                if any(len(f) <= len(w) and w[len(w) - len(f):] == f
                       for f in forbidden):
                    continue
                key = w[len(w) - keep:] if keep else ()
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
        out.append(sum(states.values()))
    return out


# ---------------------------------------------------------------------------
# noncommutative polynomials over Q, parsed from rendered text
# ---------------------------------------------------------------------------

def _tokens(text):
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("INT", int(text[i:j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("NAME", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            out.append((ch, ch))
            i += 1
        else:
            raise CheckFailed(f"unexpected character {ch!r} in {text!r}")
    out.append(("END", None))
    return out


def padd(a, b, sign=1):
    out = dict(a)
    for w, c in b.items():
        v = out.get(w, 0) + sign * c
        if v:
            out[w] = v
        else:
            out.pop(w, None)
    return out


def pmul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            v = out.get(w, 0) + c1 * c2
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def parse_poly(text, gens, q=None):
    """Parse a rendered polynomial into {word tuple: Fraction}.

    Generators become letters (their index in gens); the parameter q, when
    given, is specialised to that rational value.  Division is by nonzero
    scalars only.
    """
    toks = _tokens(text)
    pos = [0]

    def peek():
        return toks[pos[0]][0]

    def take():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def expr():
        acc = term()
        while peek() in "+-":
            op = take()[0]
            acc = padd(acc, term(), 1 if op == "+" else -1)
        return acc

    def term():
        acc = factor()
        while peek() in ("*", "/"):
            op = take()[0]
            rhs = factor()
            if op == "*":
                acc = pmul(acc, rhs)
            else:
                expect(list(rhs) == [()] and rhs[()] != 0,
                       f"division by a non-scalar in {text!r}")
                acc = {w: c / rhs[()] for w, c in acc.items()}
        return acc

    def factor():
        if peek() == "-":
            take()
            return {w: -c for w, c in factor().items()}
        base = atom()
        if peek() == "^":
            take()
            kind, e = take()
            expect(kind == "INT", f"bad exponent in {text!r}")
            acc = {(): Fraction(1)}
            for _ in range(e):
                acc = pmul(acc, base)
            return acc
        return base

    def atom():
        kind, val = take()
        if kind == "INT":
            return {(): Fraction(val)} if val else {}
        if kind == "NAME":
            if val in gens:
                return {(gens.index(val),): Fraction(1)}
            if val == "q" and q is not None:
                return {(): Fraction(q)}
            raise CheckFailed(f"unknown symbol {val!r} in {text!r}")
        if kind == "(":
            inner = expr()
            expect(take()[0] == ")", f"unbalanced parentheses in {text!r}")
            return inner
        raise CheckFailed(f"unexpected token {val!r} in {text!r}")

    out = expr()
    expect(peek() == "END", f"trailing input in {text!r}")
    return out


def rank_q(vectors):
    """Rank of a list of Fraction vectors, by plain Gaussian elimination."""
    rows = [list(v) for v in vectors if any(v)]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


# ---------------------------------------------------------------------------
# real quadratic numbers (P + S*sqrt(D))/Q, in integers
# ---------------------------------------------------------------------------

def squarefree(n):
    """n = f^2 * d with d squarefree; returns (d, f)."""
    d, f, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            f *= p
        if n % p == 0:
            n //= p
            d *= p
        p += 1
    return d * n, f


def greater_than_surd(x, y, D):
    """Exact test x > y*sqrt(D) for integers x, y and D > 0 not a square."""
    if y >= 0:
        return x > 0 and x * x > y * y * D
    return x >= 0 or x * x < y * y * D


class Surd:
    """r + s*sqrt(D) with Fraction r, s and squarefree D (a value type)."""

    def __init__(self, r, s, D):
        self.r, self.s, self.D = Fraction(r), Fraction(s), D

    @staticmethod
    def of(P, S, Q, D):
        d, f = squarefree(D)
        return Surd(Fraction(P, Q), Fraction(S * f, Q), d)

    def __add__(self, o):
        return Surd(self.r + o.r, self.s + o.s, self.D)

    def __sub__(self, o):
        return Surd(self.r - o.r, self.s - o.s, self.D)

    def __mul__(self, o):
        return Surd(self.r * o.r + self.s * o.s * self.D,
                    self.r * o.s + self.s * o.r, self.D)

    def __eq__(self, o):
        return (self.r, self.s) == (o.r, o.s) and (self.D == o.D or self.s == 0)

    def positive(self):
        """self > 0, exactly."""
        den = self.r.denominator * self.s.denominator
        x = int(self.r * den)
        y = int(-self.s * den)
        return greater_than_surd(x, y, self.D)

    def __repr__(self):
        return f"Surd({self.r} + {self.s}*sqrt({self.D}))"


def parse_surd(text):
    """A rendered theta: '(p + s*sqrt(D))/q', '(p - s*sqrt(D))/q' or 'a/b'."""
    text = text.strip()
    if "sqrt" not in text:
        return Surd(Fraction(text), 0, 1)
    head, _, q = text.rpartition(")/")
    expect(head.startswith("(") and q.isdigit(), f"unexpected theta {text!r}")
    body = head[1:]
    for sep, sign in ((" + ", 1), (" - ", -1)):
        if sep in body:
            p, rest = body.split(sep, 1)
            break
    else:
        raise CheckFailed(f"unexpected theta {text!r}")
    s_text, _, d_text = rest.partition("*sqrt(")
    return Surd.of(int(p), sign * int(s_text), int(q), int(d_text.rstrip(")")))


def cf_expand_surd(P, S, Q, D, limit):
    """Partial quotients of (P + S*sqrt(D))/Q by the integer (P, Q) recurrence.

    Returns (preperiod, period); period is empty when no state repeats within
    `limit` steps.
    """
    if S < 0:
        P, S, Q = -P, -S, -Q
    # rewrite as (P' + sqrt(d))/Q' with Q' | d - P'^2
    d = S * S * D * Q * Q
    P, Q = P * abs(Q), Q * abs(Q)
    r = math.isqrt(d)
    seen, quots = {}, []
    for k in range(limit):
        if (P, Q) in seen:
            start = seen[(P, Q)]
            return quots[:start], quots[start:]
        seen[(P, Q)] = k
        a = (P + r) // Q if Q > 0 else (P + r + 1) // Q
        quots.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
    return quots, []


def cf_value_matches(preperiod, period, theta):
    """Does [preperiod; (period)] evaluate exactly to theta (a Surd)?

    The tail x = [period; x] is the positive root of c x^2 + (d - a) x - b,
    with [[a, b], [c, d]] the product of [[a_i, 1], [1, 0]]; then theta must
    equal W(x) for the preperiod word W, i.e. (theta*wc - wa) x = wb - theta*wd.
    """
    def word(qs):
        a, b, c, d = 1, 0, 0, 1
        for t in qs:
            a, b, c, d = a * t + b, a, c * t + d, c
        return a, b, c, d

    a, b, c, d = word(period)
    disc = (d - a) ** 2 + 4 * b * c
    D = theta.D
    k2 = Fraction(disc, D)
    k = math.isqrt(k2.numerator) if k2.denominator == 1 else -1
    if k < 0 or k * k != k2:
        return False
    x = Surd(Fraction(a - d, 2 * c), Fraction(k, 2 * c), D)
    wa, wb, wc, wd = word(preperiod)
    lhs = (theta * Surd(wc, 0, D) - Surd(wa, 0, D)) * x
    rhs = Surd(wb, 0, D) - theta * Surd(wd, 0, D)
    return lhs == rhs


# ---------------------------------------------------------------------------
# charges and slopes, compared by cross-multiplication
# ---------------------------------------------------------------------------

def slope_cmp(z1, z2):
    """-1, 0, 1 comparing deg/rank; rank 0 is +infinity."""
    (r1, d1), (r2, d2) = z1, z2
    if r1 == 0 or r2 == 0:
        return (r1 == 0) - (r2 == 0)
    lhs, rhs = d1 * r2, d2 * r1
    return (lhs > rhs) - (lhs < rhs)


def slope_text(z):
    r, d = z
    return "inf" if r == 0 else str(Fraction(d, r))


def slope_exceeds(z, theta):
    """deg/rank > theta, theta a Surd (s = 0 for rationals)."""
    r, d = z
    if r == 0:
        return True
    return (Surd(Fraction(d, r), 0, theta.D) - theta).positive()


def parse_multiset(text):
    """'[1:0, 2:1*3]' -> {(rank, deg): multiplicity}."""
    text = text.strip()
    expect(text.startswith("[") and text.endswith("]"), f"bad multiset {text!r}")
    out = {}
    for part in text[1:-1].split(","):
        part = part.strip()
        if not part:
            continue
        charge, _, mult = part.partition("*")
        r, _, d = charge.partition(":")
        key = (int(r), int(d))
        out[key] = out.get(key, 0) + (int(mult) if mult else 1)
    return out


def euler(z1, z2):
    return z1[0] * z2[1] - z2[0] * z1[1]
