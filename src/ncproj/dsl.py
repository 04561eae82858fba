"""Text formats: the presentation DSL and the small literal grammars.

The presentation grammar is

    algebra <name> over Q | Q(q) { gens: x:1, y:1; rels: y*x - q*x*y; }

whitespace-insensitive, weights defaulting to 1, expressions over
``+ - * / ^ ( )`` with integer and fraction literals (and the parameter q
over Q(q)).  Parse errors carry a (line, column) span.  The same expression
grammar reads scalars (over the empty alphabet) and section polynomials
(over the one-letter alphabet of their variable); the same tokenizer backs
the theta, charge, multiset and matrix literals used on the command line.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import UPoly, QuadExt, field_by_name, RatFunc
from .heart import Charge, SheafClass
from .words import Alphabet, NcPoly
from .presentations import AlgebraPresentation


class ParseError(ValueError):
    """Malformed input, with a 1-based (line, column) source span."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


_PUNCT = set("{}():;,^*+-/[]")


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind, what=None):
        t = self.peek()
        if t.kind != kind:
            want = what or f"{kind!r}"
            got = repr(t.text) if t.kind != "EOF" else "end of input"
            raise ParseError(f"expected {want}, found {got}", t.line, t.col)
        return self.next()

    def expect_name(self, word):
        t = self.peek()
        if t.kind != "NAME" or t.text != word:
            got = repr(t.text) if t.kind != "EOF" else "end of input"
            raise ParseError(f"expected {word!r}, found {got}", t.line, t.col)
        return self.next()

    def error(self, message):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


def _parse_all(text, rule, what):
    """rule(ts) over the tokens of text, which must end where rule stops.

    Nesting deeper than the interpreter's recursion limit is a parse error
    at the token where the descent stopped, not a traceback.
    """
    ts = TokenStream(tokenize(text))
    try:
        value = rule(ts)
    except RecursionError:
        t = ts.peek()
        raise ParseError("expression nested too deeply", t.line, t.col) from None
    ts.expect("EOF", what)
    return value


# ---------------------------------------------------------------------------
# presentation DSL
# ---------------------------------------------------------------------------

def parse_presentation(text):
    """Parse the presentation DSL into an AlgebraPresentation."""
    name, field, alphabet, relations = _parse_all(text, _presentation, "end of input")
    try:
        return AlgebraPresentation(name, field, alphabet, relations)
    except ValueError as e:
        raise ParseError(str(e), 1, 1)


def _presentation(ts):
    ts.expect_name("algebra")
    name = ts.expect("NAME", "an algebra name").text
    ts.expect_name("over")
    field = _parse_field(ts)
    ts.expect("{")
    ts.expect_name("gens")
    ts.expect(":")
    symbols, weights = [], []
    while True:
        symbols.append(ts.expect("NAME", "a generator symbol").text)
        if ts.peek().kind == ":":
            ts.next()
            weights.append(int(ts.expect("INT", "a weight").text))
        else:
            weights.append(1)
        if ts.peek().kind == ",":
            ts.next()
            continue
        break
    ts.expect(";")
    if symbols[-1] in ("rels",):
        ts.error("generator list ran into the rels block")
    alphabet = Alphabet(symbols, weights)
    ts.expect_name("rels")
    ts.expect(":")
    relations = []
    while ts.peek().kind not in ("}", "EOF"):
        rel = _parse_expr(ts, alphabet, field)
        ts.expect(";", "';' after a relation")
        relations.append(rel)
    ts.expect("}")
    return name, field, alphabet, relations


def _parse_field(ts):
    t = ts.expect("NAME", "a field name")
    if t.text != "Q":
        raise ParseError(f"unknown field {t.text!r}", t.line, t.col)
    if ts.peek().kind == "(":
        ts.next()
        p = ts.expect("NAME", "the parameter q")
        if p.text != "q":
            raise ParseError(f"unknown field parameter {p.text!r}", p.line, p.col)
        ts.expect(")")
        return field_by_name("Q(q)")
    return field_by_name("Q")


def _parse_expr(ts, alphabet, field):
    acc = _parse_term(ts, alphabet, field)
    while ts.peek().kind in ("+", "-"):
        op = ts.next().kind
        rhs = _parse_term(ts, alphabet, field)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _parse_term(ts, alphabet, field):
    acc = _parse_factor(ts, alphabet, field)
    while ts.peek().kind in ("*", "/"):
        op = ts.next().kind
        rhs = _parse_factor(ts, alphabet, field)
        if op == "*":
            acc = acc * rhs
        else:
            acc = acc * _invert_constant(ts, rhs)
    return acc


def _invert_constant(ts, p):
    if list(p.terms) != [()]:
        ts.error("division is only defined by nonzero scalars")
    return NcPoly(p.alphabet, p.field, [((), p.field.one / p.terms[()])])


def _parse_factor(ts, alphabet, field):
    base = _parse_atom(ts, alphabet, field)
    if ts.peek().kind == "^":
        ts.next()
        e = int(ts.expect("INT", "an exponent").text)
        acc = NcPoly.one(alphabet, field)
        while e:                        # square and multiply
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc
    return base


def _parse_atom(ts, alphabet, field):
    t = ts.peek()
    if t.kind == "-":
        ts.next()
        return -_parse_factor(ts, alphabet, field)
    if t.kind == "INT":
        ts.next()
        return NcPoly(alphabet, field, [((), field.coerce(int(t.text)))])
    if t.kind == "NAME":
        ts.next()
        if t.text in alphabet.index:
            return NcPoly.gen(alphabet, field, alphabet.index[t.text])
        if t.text == "q" and field.name == "Q(q)":
            return NcPoly(alphabet, field, [((), RatFunc.q())])
        raise ParseError(f"unknown symbol {t.text!r}", t.line, t.col)
    if t.kind == "(":
        ts.next()
        inner = _parse_expr(ts, alphabet, field)
        ts.expect(")")
        return inner
    ts.error(f"expected a term, found {t.text!r}" if t.kind != "EOF"
             else "unexpected end of input")


# ---------------------------------------------------------------------------
# scalar, theta, section-polynomial literals
# ---------------------------------------------------------------------------

def parse_scalar(text, field):
    """A single coefficient (rational, or rational function of q over Q(q))."""
    p = _parse_all(text, lambda ts: _parse_expr(ts, Alphabet([]), field),
                   "end of the scalar")
    return p.terms.get((), field.zero)


def parse_upoly(text, field):
    """Polynomial in the one commuting variable u, used for section literals.

    One grammar reads algebras, scalars and sections: this is the
    presentation's expression grammar over the one-letter alphabet {u}.
    Its words u^k commute, so the coefficient of u^k is the coefficient of
    the word of length k.
    """
    p = _parse_all(text, lambda ts: _parse_expr(ts, Alphabet(["u"]), field),
                   "end of the polynomial")
    coeffs = [field.zero] * (max(map(len, p.terms), default=-1) + 1)
    for w, c in p.terms.items():
        coeffs[len(w)] = c
    return UPoly(coeffs)


def parse_theta(text):
    """Exact theta literal: a rational, or an expression in sqrt(D).

    Examples: ``3/4``, ``sqrt(2)``, ``(-1+1*sqrt(5))/2``.  Returns a
    Fraction for rational input and a QuadExt otherwise; a Fraction meets a
    QuadExt through the QuadExt's reflected operators, which coerce it.
    """
    return _parse_all(text, _theta_expr, "end of the theta literal")


def _theta_expr(ts):
    acc = _theta_term(ts)
    while ts.peek().kind in ("+", "-"):
        op = ts.next().kind
        rhs = _theta_term(ts)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _theta_term(ts):
    acc = _theta_factor(ts)
    while ts.peek().kind in ("*", "/"):
        op = ts.next().kind
        rhs = _theta_factor(ts)
        if op == "*":
            acc = acc * rhs
        elif not rhs:
            ts.error("division by zero in theta literal")
        else:
            acc = acc / rhs
    return acc


def _theta_factor(ts):
    t = ts.peek()
    if t.kind == "-":
        ts.next()
        return -_theta_factor(ts)
    if t.kind == "INT":
        ts.next()
        return Fraction(int(t.text))
    if t.kind == "NAME" and t.text == "sqrt":
        ts.next()
        ts.expect("(")
        d = int(ts.expect("INT", "a radicand").text)
        ts.expect(")")
        if d <= 0:
            raise ParseError("radicand must be positive", t.line, t.col)
        return QuadExt.sqrt(d)
    if t.kind == "(":
        ts.next()
        inner = _theta_expr(ts)
        ts.expect(")")
        return inner
    ts.error("expected a number, sqrt(D), or a parenthesized expression")


# ---------------------------------------------------------------------------
# charge / multiset / matrix literals
# ---------------------------------------------------------------------------

def parse_charge(text):
    """Charge literal ``r:d`` (rank:degree)."""
    return _parse_all(text, _parse_charge_at, "end of the charge")


def _signed_int(ts, what):
    neg = False
    while ts.peek().kind == "-":
        ts.next()
        neg = not neg
    t = ts.expect("INT", what)
    v = int(t.text)
    return -v if neg else v


def _parse_charge_at(ts):
    t = ts.peek()
    r = _signed_int(ts, "a rank")
    ts.expect(":")
    d = _signed_int(ts, "a degree")
    try:
        return Charge(r, d)
    except ValueError as e:
        raise ParseError(str(e), t.line, t.col)


def parse_multiset(text):
    """Multiset literal ``[1:0, 2:1*3]`` of charges with multiplicities."""
    t0, factors = _parse_all(text, _multiset, "end of the multiset")
    try:
        return SheafClass(factors)
    except ValueError as e:
        raise ParseError(str(e), t0.line, t0.col)


def _multiset(ts):
    ts.expect("[")
    factors = []
    t0 = ts.peek()
    while ts.peek().kind != "]":
        z = _parse_charge_at(ts)
        m = 1
        if ts.peek().kind == "*":
            ts.next()
            m = _signed_int(ts, "a multiplicity")
        factors.append((z, m))
        if ts.peek().kind == ",":
            ts.next()
            continue
        break
    ts.expect("]")
    return t0, factors


def parse_int_matrix(text):
    """Comma-separated row-major integer entries; must form a square matrix."""
    return _square([_parse_all(p.strip(), lambda ts: _signed_int(ts, "an integer entry"),
                               "end of the entry") for p in text.split(",")])


def parse_scalar_matrix(text, field):
    """Comma-separated row-major scalar entries over the given field."""
    return _square([parse_scalar(p.strip(), field) for p in text.split(",")])


def _square(entries):
    n = math.isqrt(len(entries))
    if n * n != len(entries):
        raise ParseError(f"{len(entries)} entries do not form a square matrix", 1, 1)
    return [entries[i * n:(i + 1) * n] for i in range(n)]
