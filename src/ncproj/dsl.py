"""Text formats: the presentation DSL and the small literal grammars.

The presentation grammar is

    algebra <name> over Q | Q(q) { gens: x:1, y:1; rels: y*x - q*x*y; }

whitespace-insensitive, weights defaulting to 1, expressions over
``+ - * / ^ ( )`` with integer and fraction literals (and the parameter q
over Q(q)).  Parse errors carry a (line, column) span.  One expression
grammar reads every literal, each straight into its own value through a
target: relations into ``NcPoly``, scalars into the field's elements,
section polynomials in u into ``UPoly``, and thetas, which read sqrt(D) and
take no ``^``, into ``Fraction`` or ``QuadExt``.  The same tokenizer backs
the charge, multiset and matrix literals used on the command line.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .fields import QQ, QQ_Q, UPoly, QuadExt, RatFunc
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


def _parse_all(text, rule, what, *args):
    """rule(ts, *args) over the tokens of text, which must end where rule stops.

    Nesting deeper than the interpreter's recursion limit is a parse error
    at the token where the descent stopped, not a traceback.
    """
    ts = TokenStream(tokenize(text))
    try:
        value = rule(ts, *args)
    except RecursionError:
        t = ts.peek()
        raise ParseError("expression nested too deeply", t.line, t.col) from None
    ts.expect("EOF", what)
    return value


# ---------------------------------------------------------------------------
# the expression grammar and its targets
# ---------------------------------------------------------------------------

# What the expression grammar reads into: leaf(ts) reads a number or a name
# at the next token and reports anything else, divide(ts, a, b) is a / b or
# a ParseError at the token after b, and a power a^e starts from one; a
# target whose one is None takes no ``^``.
_Target = namedtuple("_Target", "leaf divide one")
_Q = RatFunc.q()


def _parse_expr(ts, target):
    acc = _parse_term(ts, target)
    while ts.peek().kind in ("+", "-"):
        op = ts.next().kind
        rhs = _parse_term(ts, target)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _parse_term(ts, target):
    acc = _parse_factor(ts, target)
    while ts.peek().kind in ("*", "/"):
        op = ts.next().kind
        rhs = _parse_factor(ts, target)
        acc = acc * rhs if op == "*" else target.divide(ts, acc, rhs)
    return acc


def _parse_factor(ts, target):
    # the atom is read here, not in a rule of its own, so that each level of
    # parentheses costs three frames
    t = ts.peek()
    if t.kind == "-":
        # the negated factor has read its own power: -u^2 is -(u^2), and a
        # second ^ is left to the caller, as after u^2
        ts.next()
        return -_parse_factor(ts, target)
    if t.kind == "(":
        ts.next()
        base = _parse_expr(ts, target)
        ts.expect(")")
    else:
        base = target.leaf(ts)
    if target.one is None or ts.peek().kind != "^":
        return base
    ts.next()
    e = int(ts.expect("INT", "an exponent").text)
    acc = target.one
    for bit in f"{e:b}":            # square and multiply from the top bit:
        acc = acc * acc             # every product but the squares is by the
        if bit == "1":              # base itself, the smallest factor
            acc = acc * base
    return acc


def _field_target(field, const, names, scalar_of):
    """The target of relations, scalars or sections over field.

    const(c) is the value of a scalar c, names maps each variable to its
    value (q over Q(q) unless a variable is called q), and scalar_of(v) is
    the scalar of a nonzero constant v, else None: only those divide.
    """
    if field == QQ_Q:
        names = {"q": const(_Q), **names}

    def leaf(ts):
        t = ts.next()
        if t.kind == "INT":
            return const(field.coerce(int(t.text)))
        if t.kind != "NAME":
            raise ParseError(f"expected a term, found {t.text!r}" if t.kind != "EOF"
                             else "unexpected end of input", t.line, t.col)
        if t.text not in names:
            raise ParseError(f"unknown symbol {t.text!r}", t.line, t.col)
        return names[t.text]

    def divide(ts, a, b):
        c = scalar_of(b)
        if c is None:
            ts.error("division is only defined by nonzero scalars")
        return a * const(field.one / c)

    return _Target(leaf, divide, const(field.one))


def _theta_leaf(ts):
    t = ts.next()
    if t.kind == "INT":
        return Fraction(int(t.text))
    if t.kind != "NAME" or t.text != "sqrt":
        raise ParseError("expected a number, sqrt(D), or a parenthesized expression",
                         t.line, t.col)
    ts.expect("(")
    d = int(ts.expect("INT", "a radicand").text)
    ts.expect(")")
    if d <= 0:
        raise ParseError("radicand must be positive", t.line, t.col)
    return QuadExt.sqrt(d)


def _theta_divide(ts, a, b):
    if not b:
        ts.error("division by zero in theta literal")
    return a / b


_THETA = _Target(_theta_leaf, _theta_divide, None)


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
        t = ts.expect("NAME", "a generator symbol")
        if t.text in symbols:
            raise ParseError("generator symbols must be distinct", t.line, t.col)
        symbols.append(t.text)
        if ts.peek().kind == ":":
            ts.next()
            t = ts.expect("INT", "a weight")
            if int(t.text) < 1:
                raise ParseError("weights must be positive (connected convention)",
                                 t.line, t.col)
            weights.append(int(t.text))
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
    target = _field_target(field, lambda c: NcPoly(alphabet, field, [((), c)]),
                           {s: NcPoly.gen(alphabet, field, i) for s, i in alphabet.index.items()},
                           lambda p: p.terms[()] if list(p.terms) == [()] else None)
    relations = []
    while ts.peek().kind not in ("}", "EOF"):
        rel = _parse_expr(ts, target)
        ts.expect(";", "';' after a relation")
        relations.append(rel)
    ts.expect("}")
    return name, field, alphabet, relations


def _parse_field(ts):
    t = ts.expect("NAME", "a field name")
    if t.text != "Q":
        raise ParseError(f"unknown field {t.text!r}", t.line, t.col)
    if ts.peek().kind != "(":
        return QQ
    ts.next()
    p = ts.expect("NAME", "the parameter q")
    if p.text != "q":
        raise ParseError(f"unknown field parameter {p.text!r}", p.line, p.col)
    ts.expect(")")
    return QQ_Q


# ---------------------------------------------------------------------------
# scalar, section-polynomial and theta literals
# ---------------------------------------------------------------------------

def parse_scalar(text, field):
    """A single coefficient (rational, or rational function of q over Q(q))."""
    target = _field_target(field, lambda c: c, {}, lambda c: c or None)
    return _parse_all(text, _parse_expr, "end of the scalar", target)


def parse_upoly(text, field):
    """Polynomial in the one commuting variable u, used for section literals."""
    target = _field_target(field, lambda c: UPoly((c,)), {"u": UPoly((field.zero, field.one))},
                           lambda f: f.coeffs[0] if len(f.coeffs) == 1 else None)
    return _parse_all(text, _parse_expr, "end of the polynomial", target)


def parse_theta(text):
    """Exact theta literal: a rational, or an expression in sqrt(D).

    Examples: ``3/4``, ``sqrt(2)``, ``(-1+1*sqrt(5))/2``.  Returns a
    Fraction for rational input and a QuadExt otherwise; a Fraction meets a
    QuadExt through the QuadExt's reflected operators, which coerce it.
    """
    return _parse_all(text, _parse_expr, "end of the theta literal", _THETA)


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
    return _square([_parse_all(p.strip(), _signed_int, "end of the entry", "an integer entry")
                    for p in text.split(",")])


def parse_scalar_matrix(text, field):
    """Comma-separated row-major scalar entries over the given field."""
    return _square([parse_scalar(p.strip(), field) for p in text.split(",")])


def _square(entries):
    n = math.isqrt(len(entries))
    if n * n != len(entries):
        raise ParseError(f"{len(entries)} entries do not form a square matrix", 1, 1)
    return [entries[i * n:(i + 1) * n] for i in range(n)]
