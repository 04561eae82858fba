"""Presentation DSL and literal grammars."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncproj.dsl import (ParseError, TokenStream, parse_charge, parse_int_matrix,
                        parse_multiset, parse_presentation, parse_scalar,
                        parse_scalar_matrix, parse_theta, parse_upoly, tokenize)
from ncproj.fields import QQ, QQ_Q, QuadExt, RatFunc, UPoly
from ncproj.heart import Charge, SheafClass
from ncproj.words import NcPoly

QP = "algebra QP over Q(q) { gens: x:1, y:1; rels: y*x - q*x*y; }"


def test_parse_quantum_plane():
    p = parse_presentation(QP)
    assert p.name == "QP" and p.field is QQ_Q
    assert p.alphabet.symbols == ("x", "y")
    assert len(p.relations) == 1
    assert p.relations[0].render() == "y*x - q*x*y"


def test_roundtrip_corpus():
    corpus = [
        QP,
        "algebra P over Q { gens: x, y; rels: y*x - x*y; }",
        "algebra F over Q { gens: x, y, z; rels: }",
        "algebra J over Q { gens: x, y; rels: x^2 + x*y - y*x; }",
        "algebra W over Q { gens: x:1, y:2; rels: y*x - x*y; }",
        "algebra H over Q { gens: x, y; rels: 1/2*x*y - 2*y*x; }",
    ]
    for text in corpus:
        p = parse_presentation(text)
        printed = p.render()
        assert parse_presentation(printed).render() == printed


def test_empty_rels_is_free():
    p = parse_presentation("algebra F over Q { gens: x, y; rels: }")
    assert p.relations == []


def test_default_weights():
    p = parse_presentation("algebra A over Q { gens: x, y:3; rels: }")
    assert p.alphabet.weights == (1, 3)


def test_missing_semicolon_span():
    text = "algebra A over Q { gens: x, y;\n rels: y*x - x*y }"
    with pytest.raises(ParseError) as e:
        parse_presentation(text)
    assert e.value.line == 2
    assert e.value.col == 18


def test_unknown_symbol_span():
    with pytest.raises(ParseError) as e:
        parse_presentation("algebra A over Q { gens: x; rels: x*w; }")
    assert "w" in str(e.value) and e.value.col == 37


@pytest.mark.parametrize("gens, message, line, col", [
    ("x:0", "weights must be positive", 1, 28),
    ("x, y:2,\n  z:0", "weights must be positive", 2, 5),
    ("x, x", "generator symbols must be distinct", 1, 29),
    ("x:2,\n y:1, x:1", "generator symbols must be distinct", 2, 7),
], ids=["zero-weight", "zero-weight-line-2", "repeated", "repeated-line-2"])
def test_bad_generator_list_span(gens, message, line, col):
    with pytest.raises(ParseError, match=message) as e:
        parse_presentation("algebra A over Q { gens: %s; rels: x*x; }" % gens)
    assert (e.value.line, e.value.col) == (line, col)


def test_q_only_over_ratfunc_field():
    with pytest.raises(ParseError):
        parse_presentation("algebra A over Q { gens: x, y; rels: y*x - q*x*y; }")


def test_inhomogeneous_relation_rejected():
    with pytest.raises(ParseError):
        parse_presentation("algebra A over Q { gens: x, y; rels: x*y - x; }")


def test_parentheses_and_powers():
    p = parse_presentation("algebra A over Q { gens: x, y; rels: (x + y)^2 - x^2 - y^2; }")
    r = p.relations[0]
    assert set(r.terms) == {(0, 1), (1, 0)}


def _power(one, base, e):
    """base^e as e successive products."""
    acc = one
    for _ in range(e):
        acc = acc * base
    return acc


@pytest.mark.parametrize("e", [0, 1, 2, 3, 5, 8, 13, 40])
def test_scalar_powers_match_repeated_products(e):
    base = QQ_Q.coerce(Fraction(2, 3)) - RatFunc.q()
    assert parse_scalar(f"(2/3 - q)^{e}", QQ_Q) == _power(QQ_Q.one, base, e)
    assert parse_scalar(f"(-5/7)^{e}", QQ) == _power(QQ.one, Fraction(-5, 7), e)
    one, u = UPoly((Fraction(1),)), UPoly((Fraction(0), Fraction(1)))
    assert parse_upoly(f"(1 + u)^{e}", QQ) == _power(one, one + u, e)


@pytest.mark.parametrize("field", [QQ, QQ_Q])
@pytest.mark.parametrize("e", [1, 2, 3, 5, 8])
def test_noncommutative_powers_match_repeated_products(e, field):
    c = "q" if field is QQ_Q else "3"
    p = parse_presentation("algebra A over %s { gens: x, y; rels: (x - %s*y)^%d; }"
                           % (field.name, c, e))
    x, y = (NcPoly.gen(p.alphabet, field, i) for i in range(2))
    base = x - y.scale(parse_scalar(c, field))
    assert p.relations[0] == _power(NcPoly.one(p.alphabet, field), base, e)


def test_parse_scalar():
    assert parse_scalar("-3/2", QQ) == Fraction(-3, 2)
    q = RatFunc.q()
    assert parse_scalar("q^2 - 1", QQ_Q) == q * q - 1
    with pytest.raises(ParseError):
        parse_scalar("q", QQ)


def test_parse_theta():
    assert parse_theta("3/4") == Fraction(3, 4)
    assert parse_theta("-2") == Fraction(-2)
    phi = parse_theta("(-1+1*sqrt(5))/2")
    assert phi == QuadExt(-1, 1, 2, 5)
    assert parse_theta("sqrt(2)") == QuadExt.sqrt(2)
    assert parse_theta("1 + sqrt(2)") == QuadExt(1, 1, 1, 2)
    assert parse_theta("1/sqrt(2)") == QuadExt(0, 1, 2, 2)
    with pytest.raises(ParseError):
        parse_theta("sqrt(-3)")
    with pytest.raises(ParseError):
        parse_theta("1 +")


def test_parse_upoly():
    f = parse_upoly("u^2 - 2*u + 1", QQ)
    assert f.render("u") == "u^2 - 2*u + 1"
    g = parse_upoly("q*u", QQ_Q)
    assert g.coeffs[1] == RatFunc.q()
    with pytest.raises(ParseError):
        parse_upoly("u/u", QQ)


def test_parse_charge_and_multiset():
    assert parse_charge("2:1") == Charge(2, 1)
    assert parse_charge("1:-3") == Charge(1, -3)
    with pytest.raises(ParseError):
        parse_charge("0:0")
    F = parse_multiset("[1:0, 2:1*3]")
    assert F == SheafClass([(Charge(1, 0), 1), (Charge(2, 1), 3)])
    with pytest.raises(ParseError):
        parse_multiset("[]")
    with pytest.raises(ParseError):
        parse_multiset("[1:0")


def test_parse_matrices():
    assert parse_int_matrix("1,1,1,2") == [[1, 1], [1, 2]]
    assert parse_int_matrix("1, -1, 0, 1") == [[1, -1], [0, 1]]
    with pytest.raises(ParseError):
        parse_int_matrix("1,2,3")
    m = parse_scalar_matrix("q,0,0,1", QQ_Q)
    assert m[0][0] == RatFunc.q() and m[1][1] == QQ_Q.one


def test_new_section_forms():
    # the presentation grammar also reads powers of numbers, which the
    # former section grammar rejected; a power takes one exponent, negated
    # or not, and a negation binds looser than its power
    assert parse_upoly("2^3", QQ) == UPoly((Fraction(8),))
    assert parse_upoly("-u^2", QQ).render("u") == "-u^2"
    assert parse_upoly("-2^2", QQ) == UPoly((Fraction(-4),))
    for text, col in [("u^2^3", 4), ("-u^2^3", 5)]:
        with pytest.raises(ParseError, match="expected end of the polynomial, found '\\^'") as err:
            parse_upoly(text, QQ)
        assert (err.value.line, err.value.col) == (1, col)


@pytest.mark.parametrize("parse", [
    lambda t: parse_presentation("algebra A over Q { gens: x; rels: %s*x; }" % t),
    lambda t: parse_upoly(t, QQ),
    lambda t: parse_theta(t),
])
def test_deep_nesting_is_a_parse_error(parse):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * 3000 + "1" + ")" * 3000)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("-" * 5000 + "1")


def test_nesting_within_the_recursion_limit_parses():
    # each level of parentheses costs the grammar three frames (expression,
    # term, factor); a fourth would stop these short of the default limit
    assert parse_theta("(" * 280 + "sqrt(5)" + ")" * 280) == QuadExt.sqrt(5)
    p = parse_presentation("algebra A over Q { gens: x; rels: %s*x; }"
                           % ("(" * 240 + "x" + ")" * 240))
    assert p.relations[0].render() == "x^2"


# ---------------------------------------------------------------------------
# the former section and theta grammars, kept as the reference of a
# differential test of the grammar that replaced them
# ---------------------------------------------------------------------------

def _ref_upoly(text, field, var="u"):
    ts = TokenStream(tokenize(text))
    p = _upoly_expr(ts, field, var)
    ts.expect("EOF", "end of the polynomial")
    return p


def _upoly_expr(ts, field, var):
    acc = _upoly_term(ts, field, var)
    while ts.peek().kind in ("+", "-"):
        op = ts.next().kind
        rhs = _upoly_term(ts, field, var)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _upoly_term(ts, field, var):
    acc = _upoly_factor(ts, field, var)
    while ts.peek().kind in ("*", "/"):
        op = ts.next().kind
        rhs = _upoly_factor(ts, field, var)
        if op == "*":
            acc = acc * rhs
        else:
            if rhs.degree() > 0 or rhs.is_zero():
                ts.error("division is only defined by nonzero scalars")
            acc = acc.scale(rhs.coeffs[0].inverse() if hasattr(rhs.coeffs[0], "inverse")
                            else 1 / rhs.coeffs[0])
    return acc


def _upoly_factor(ts, field, var):
    t = ts.peek()
    if t.kind == "-":
        ts.next()
        return -_upoly_factor(ts, field, var)
    if t.kind == "INT":
        ts.next()
        return UPoly((field.coerce(int(t.text)),))
    if t.kind == "NAME":
        ts.next()
        if t.text == var:
            base = UPoly((field.zero, field.one))
        elif t.text == "q" and field.name == "Q(q)":
            base = UPoly((RatFunc.q(),))
        else:
            raise ParseError(f"unknown symbol {t.text!r}", t.line, t.col)
        return _upoly_maybe_power(ts, base, field)
    if t.kind == "(":
        ts.next()
        inner = _upoly_expr(ts, field, var)
        ts.expect(")")
        return _upoly_maybe_power(ts, inner, field)
    ts.error("expected a polynomial term")


def _upoly_maybe_power(ts, base, field):
    if ts.peek().kind == "^":
        ts.next()
        e = int(ts.expect("INT", "an exponent").text)
        acc = UPoly((field.one,))
        for _ in range(e):
            acc = acc * base
        return acc
    return base


def _ref_theta(text):
    ts = TokenStream(tokenize(text))
    v = _theta_expr(ts)
    ts.expect("EOF", "end of the theta literal")
    return v


def _theta_expr(ts):
    acc = _theta_term(ts)
    while ts.peek().kind in ("+", "-"):
        op = ts.next().kind
        rhs = _theta_term(ts)
        acc = _theta_add(acc, rhs) if op == "+" else _theta_add(acc, _theta_neg(rhs))
    return acc


def _theta_term(ts):
    acc = _theta_factor(ts)
    while ts.peek().kind in ("*", "/"):
        op = ts.next().kind
        rhs = _theta_factor(ts)
        acc = _theta_mul(acc, rhs) if op == "*" else _theta_div(ts, acc, rhs)
    return acc


def _theta_factor(ts):
    t = ts.peek()
    if t.kind == "-":
        ts.next()
        return _theta_neg(_theta_factor(ts))
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


def _theta_pair(a, b):
    if isinstance(a, QuadExt) and not isinstance(b, QuadExt):
        b = QuadExt.from_rational(b, a.D)
    elif isinstance(b, QuadExt) and not isinstance(a, QuadExt):
        a = QuadExt.from_rational(a, b.D)
    return a, b


def _theta_add(a, b):
    a, b = _theta_pair(a, b)
    return a + b


def _theta_mul(a, b):
    a, b = _theta_pair(a, b)
    return a * b


def _theta_neg(a):
    return -a


def _theta_div(ts, a, b):
    a, b = _theta_pair(a, b)
    if not b:
        ts.error("division by zero in theta literal")
    return a / b


def _outcome(parse, text):
    """("ok", value) or ("error", exception type, message)."""
    try:
        return ("ok", parse(text))
    except Exception as e:  # the comparison covers the failures too
        return ("error", type(e), str(e))


def _expr_texts(leaves, powers):
    """Expressions over + - * / ( ), unary minus and, if powers, ^ with the
    given leaves.

    Exponents are one digit below 6 and apply to parenthesized expressions
    only, a position the former section grammar allowed.
    """
    def extend(inner):
        rules = [
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " - ", "+-"]), inner)
            .map("".join),
            inner.map(lambda e: f"({e})"),
            inner.map(lambda e: f"-{e}")]
        if powers:
            rules.append(st.tuples(inner, st.integers(0, 5)).map(lambda t: f"({t[0]})^{t[1]}"))
        return st.one_of(rules)
    return st.recursive(leaves, extend, max_leaves=8)


_SECTION_LEAVES = st.one_of(
    st.integers(0, 12).map(str), st.sampled_from(["u", "q", "u^2", "q^3", "u^0", "x"]))


def _same_upoly(a, b):
    assert a == b
    assert a.render("u") == b.render("u") and str(a) == str(b)
    assert [type(c) for c in a.coeffs] == [type(c) for c in b.coeffs]


# derandomized: the same examples on every run, so the suite's time is stable
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(text=_expr_texts(_SECTION_LEAVES, powers=True), field=st.sampled_from([QQ, QQ_Q]))
def test_section_parser_matches_former_grammar(text, field):
    old = _outcome(lambda t: _ref_upoly(t, field), text)
    new = _outcome(lambda t: parse_upoly(t, field), text)
    assert old[0] == new[0] or old[1] is ParseError, (text, old, new)
    if old[0] == "ok":
        _same_upoly(old[1], new[1])
    elif new[0] == "error":
        assert new[1:] == old[1:], text


_TOKENS = ["u", "q", "x", "0", "1", "2", "7", "+", "-", "*", "/", "^", "(", ")",
           "sqrt", ":", ",", " "]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(text=st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
       field=st.sampled_from([QQ, QQ_Q]))
def test_section_parser_on_malformed_input(text, field):
    # the new grammar accepts all the former one did (with the same value),
    # and what it rejects the former one rejected too, both as ParseError
    old = _outcome(lambda t: _ref_upoly(t, field), text)
    new = _outcome(lambda t: parse_upoly(t, field), text)
    assert old[0] == "ok" or old[1] is ParseError, (text, old)
    assert new[0] == "ok" or new[1] is ParseError, (text, new)
    if old[0] == "ok":
        _same_upoly(old[1], new[1])
    if new[0] == "error":
        assert old[0] == "error", text


_THETA_LEAVES = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from([2, 3, 5, 8, 12, 4, 1, 0]).map(lambda d: f"sqrt({d})"))


def _same_theta(a, b):
    assert type(a) is type(b)
    assert a == b and str(a) == str(b)
    if isinstance(a, QuadExt):
        assert (a.p, a.s, a.q, a.D) == (b.p, b.s, b.q, b.D)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(text=st.one_of(_expr_texts(_THETA_LEAVES, powers=False),
                      st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)))
def test_theta_parser_matches_former_wrappers(text):
    old, new = _outcome(_ref_theta, text), _outcome(parse_theta, text)
    assert old[0] == new[0], (text, old, new)
    if old[0] == "ok":
        _same_theta(old[1], new[1])
    else:
        assert new[1:] == old[1:], text
