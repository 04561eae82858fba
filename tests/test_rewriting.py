"""Truncated completion, normal forms, Hilbert functions, growth."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from ncproj.dsl import parse_scalar
from ncproj.fields import QQ, QQ_Q, RatFunc, UPoly
from ncproj import rewriting
from ncproj.rewriting import (INFINITE, CutoffExceededError, NormalWordAutomaton,
                              RewriteRule, RewriteSystem, _over, _overlaps, _pairs, _reduce,
                              _spoly, _walk, complete_truncated, complete_truncated_over,
                              gk_estimate, hilbert_function, letter_table, normal_form,
                              normal_words)
from ncproj.words import Alphabet, NcPoly

AB = Alphabet(["x", "y"])
rng = random.Random(9920)


def _reduce_spoly(r1, r2, a, c, automaton):
    """The normal form of the S-polynomial of the overlap lead1.c = a.lead2,
    as an NcPoly, from _spoly's walk input through the walk and _over as
    completion runs them."""
    alphabet, field = r1.rhs.alphabet, r1.rhs.field
    S, terms = _walk(*_spoly(r1, r2, a, c, alphabet, field), automaton, alphabet.weights)
    out = NcPoly.zero(alphabet, field)
    out.terms = _over(S, terms)
    return out


def confluence_audit(R):
    """All overlap ambiguities of degree <= cutoff must reduce to zero."""
    return all(_reduce_spoly(r1, r2, a, c, R.cache.automaton).is_zero()
               for r1, r2 in _pairs(R.rules, [])
               for _, a, c, _ in _overlaps(r1, r2, R.alphabet, R.cutoff))


def gens(field):
    return NcPoly.gen(AB, field, 0), NcPoly.gen(AB, field, 1)


def commutator(field):
    x, y = gens(field)
    return y * x - x * y


def quantum_relation():
    x, y = gens(QQ_Q)
    return y * x - (x * y).scale(RatFunc.q())


def test_quantum_plane_single_rule():
    R = complete_truncated([quantum_relation()], 10)
    assert len(R.rules) == 1
    assert R.rules[0].lead == (1, 0)
    assert confluence_audit(R)
    assert hilbert_function(R, 10) == list(range(1, 12))


def test_polynomial_ring_three_vars():
    abc = Alphabet(["x", "y", "z"])
    g = [NcPoly.gen(abc, QQ, i) for i in range(3)]
    rels = [g[j] * g[i] - g[i] * g[j] for i in range(3) for j in range(i + 1, 3)]
    R = complete_truncated(rels, 8)
    assert confluence_audit(R)
    assert hilbert_function(R, 8) == [(d + 1) * (d + 2) // 2 for d in range(9)]


def test_free_algebra_counts():
    R = RewriteSystem([], 12, AB, QQ)
    assert hilbert_function(R, 12) == [2 ** d for d in range(13)]
    assert len(normal_words(R, 3)) == 8


def test_completion_adds_rules():
    # y^2 -> xy overlaps itself at yyy and spawns higher-degree rules
    x, y = gens(QQ)
    R = complete_truncated([y * y - x * y], 8)
    assert len(R.rules) >= 2
    assert confluence_audit(R)


def test_normal_form_is_idempotent_and_linear():
    R = complete_truncated([commutator(QQ)], 10)
    x, y = gens(QQ)
    for _ in range(50):
        f = NcPoly(AB, QQ, [(tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))),
                             Fraction(rng.randint(-4, 4))) for _ in range(4)])
        g = NcPoly(AB, QQ, [(tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))),
                             Fraction(rng.randint(-4, 4))) for _ in range(4)])
        nf = normal_form(f, R)
        assert normal_form(nf, R) == nf
        assert normal_form(f + g, R) == nf + normal_form(g, R)
    assert normal_form(y * x * x - x * x * y, R).is_zero()
    assert not normal_form(x * y, R).is_zero()


def test_normal_words_basis_count_matches_hilbert():
    R = complete_truncated([commutator(QQ)], 9)
    dims = hilbert_function(R, 9)
    for d in range(10):
        assert len(normal_words(R, d)) == dims[d]


def test_weighted_hilbert():
    w = Alphabet(["x", "y"], [1, 2])
    R = RewriteSystem([], 8, w, QQ)
    dims = hilbert_function(R, 8)
    # dims satisfy the free weighted recursion a_d = a_{d-1} + a_{d-2}
    assert dims[0] == 1 and dims[1] == 1
    for d in range(2, 9):
        assert dims[d] == dims[d - 1] + dims[d - 2]


def test_cutoff_enforced():
    R = complete_truncated([commutator(QQ)], 5)
    with pytest.raises(CutoffExceededError):
        hilbert_function(R, 6)
    with pytest.raises(CutoffExceededError):
        normal_words(R, 6)
    with pytest.raises(ValueError):
        complete_truncated([commutator(QQ)], 1)


def test_inhomogeneous_rejected():
    x, y = gens(QQ)
    with pytest.raises(ValueError):
        complete_truncated([x * y - x], 5)


def test_constant_relation_rejected():
    # 1 = 0 makes the algebra zero; the empty word must not become a lead
    with pytest.raises(ValueError, match="degree 0"):
        complete_truncated([NcPoly.one(AB, QQ)], 3)


def test_gk_estimates():
    one = Alphabet(["x"])
    line = RewriteSystem([], 60, one, QQ)
    est = gk_estimate(line)
    assert abs(float(est.gk_estimate) - 1) < 0.15
    assert not est.low_confidence

    plane = complete_truncated([commutator(QQ)], 60)
    est2 = gk_estimate(plane)
    assert abs(float(est2.gk_estimate) - 2) < 0.15

    free = RewriteSystem([], 60, AB, QQ)
    assert gk_estimate(free).gk_estimate == INFINITE


def test_gk_report_serializes():
    one = Alphabet(["x"])
    d = gk_estimate(RewriteSystem([], 20, one, QQ)).to_dict()
    assert d["cutoff"] == 20 and d["window"] == [10, 20]
    assert isinstance(d["gk_estimate"], str)


def _all_words(alphabet, d):
    """Every word of weighted degree d, by brute force over lengths."""
    return [w for n in range(d + 1)
            for w in itertools.product(range(len(alphabet)), repeat=n)
            if alphabet.degree(w) == d]


def _is_normal(w, R):
    return not any(w[i:i + len(r.lead)] == r.lead
                   for r in R.rules for i in range(len(w) - len(r.lead) + 1))


def _systems():
    x, y = gens(QQ)
    xyz = Alphabet(["x", "y", "z"])
    X, Y, Z = (NcPoly.gen(xyz, QQ, i) for i in range(3))
    weighted = Alphabet(["x", "y", "z"], [1, 2, 3])
    wx, wy, wz = (NcPoly.gen(weighted, QQ, i) for i in range(3))
    return [
        pytest.param(complete_truncated([commutator(QQ)], 8), id="plane"),
        pytest.param(complete_truncated([quantum_relation()], 8), id="quantum plane"),
        pytest.param(complete_truncated([Y * Z - Z * Y, Z * X - X * Z, X * Y - Y * X], 7),
                     id="C3"),
        pytest.param(complete_truncated([y * x * x - x * x * y, y * y * x - x * y * y], 9),
                     id="braid"),
        pytest.param(complete_truncated([wy * wx - wx * wy, wz * wx - wx * wz], 9),
                     id="weighted"),
        pytest.param(RewriteSystem([], 9, weighted, QQ), id="weighted free"),
    ]


@pytest.mark.parametrize("R", _systems())
def test_normal_words_match_brute_force(R):
    dims = hilbert_function(R, R.cutoff)
    for d in range(R.cutoff + 1):
        want = sorted((w for w in _all_words(R.alphabet, d) if _is_normal(w, R)),
                      key=R.alphabet.key)
        assert normal_words(R, d) == want, d
        assert dims[d] == len(want), d


def _reduce_restarting(p, rules, alphabet):
    """Reference normal form: after every single rewrite, start again from
    the largest word that contains a lead, rewriting it by the first rule in
    list order at its leftmost occurrence."""
    while True:
        for w in sorted(p.terms, key=alphabet.key, reverse=True):
            hits = ((rule, i) for rule in rules for i in range(len(w))
                    if w[i:i + len(rule.lead)] == rule.lead)
            rule, i = next(hits, (None, None))
            if rule is not None:
                break
        else:
            return p
        c = p.terms[w]
        pre = NcPoly.word(p.alphabet, p.field, w[:i], c)
        post = NcPoly.word(p.alphabet, p.field, w[i + len(rule.lead):])
        p = p - NcPoly.word(p.alphabet, p.field, w, c) + pre * rule.rhs * post


def _relations():
    """name -> (alphabet, relations) for the differential test of _reduce."""
    x, y = gens(QQ)
    qx, qy = gens(QQ_Q)
    xyz = Alphabet(["x", "y", "z"])
    X, Y, Z = (NcPoly.gen(xyz, QQ, i) for i in range(3))
    heavy = Alphabet(["x", "y"], [1, 2])
    hx, hy = (NcPoly.gen(heavy, QQ, i) for i in range(2))
    return {
        "plane": (AB, [y * x - x * y]),
        "QP": (AB, [qy * qx - (qx * qy).scale(RatFunc.q())]),
        "C3": (xyz, [Y * Z - Z * Y, Z * X - X * Z, X * Y - Y * X]),
        "Sklyanin": (xyz, [Y * Z + 2 * Z * Y + 3 * X * X,
                           Z * X + 2 * X * Z + 3 * Y * Y,
                           X * Y + 2 * Y * X + 3 * Z * Z]),
        # y and x*x have equal weighted degree and different lengths
        "weighted x:1 y:2": (heavy, [hy * hx - hx * hy - 2 * hx * hx * hx,
                                     hy * hy - hx * hy * hx + hx * hx * hy]),
        # the raw lists below keep the leads as they are, so the first rule
        # in list order and its leftmost occurrence decide between them
        "lead inside a lead": (AB, [x * y * y * x - x * y * x * y + 2 * x * x * y * y,
                                    y * y - x * y]),
        "lead ends a lead": (AB, [y * x * y - y * x * x + x * y * x, x * y - x * x]),
        "duplicated lead": (AB, [y * x - x * y, y * x - 2 * x * x, 3 * y * x + x * y]),
    }


def _random_poly(alphabet, field, rnd, max_degree, num=5, den=3):
    """Up to 6 random words with coefficients a / b, |a| <= num, 1 <= b <= den."""
    terms = []
    for _ in range(rnd.randint(1, 6)):
        w, degree = (), rnd.randint(0, max_degree)
        while alphabet.degree(w) < degree:
            w += (rnd.randrange(len(alphabet)),)
        terms.append((w, Fraction(rnd.randint(-num, num), rnd.randint(1, den))))
    return NcPoly(alphabet, field, terms)


def _make_rule(p, alphabet):
    """The rule lead -> rhs of p, with lead its largest word."""
    lead = max(p.terms, key=alphabet.key)
    c = p.terms[lead]
    rest = p - NcPoly.word(p.alphabet, p.field, lead, c)
    return RewriteRule(lead, (-rest).scale(p.field.one / c))


def _rule_lists(alphabet, rels):
    raw = [_make_rule(r, alphabet) for r in rels]
    yield "completed", list(complete_truncated(rels, 7).rules)
    yield "raw", raw
    yield "raw reversed", raw[::-1]


@pytest.mark.parametrize("name", list(_relations()))
def test_reduce_matches_restarting_reference(name):
    alphabet, rels = _relations()[name]
    rnd = random.Random(f"reduce {name}")
    for kind, rules in _rule_lists(alphabet, rels):
        for _ in range(25):
            p = _random_poly(alphabet, rels[0].field, rnd, 7)
            got = _reduce(p, NormalWordAutomaton(rules, len(alphabet)))
            assert got == _reduce_restarting(p, rules, alphabet), kind
            # the walk settles words from the largest down, across degrees too
            keys = [alphabet.key(w) for w in got.terms]
            assert keys == sorted(keys, reverse=True), kind
    if name == "Sklyanin":
        # rule denominators D of about 244 bits and inputs with 40-digit
        # numerators and denominators: gcd(c, D) != D, so _reduce rescales
        rules = list(complete_truncated(rels, 8).rules)
        automaton = NormalWordAutomaton(rules, len(alphabet))
        assert max(r.form[0] for r in rules).bit_length() > 200
        for _ in range(10):
            p = _random_poly(alphabet, QQ, rnd, 8, 10 ** 40, 10 ** 40)
            assert _reduce(p, automaton) == _reduce_restarting(p, rules, alphabet)


def _qq_relations():
    """name -> (alphabet, relations over Q(q)) for the differential test of
    _reduce over Q(q): monomial, polynomial-numerator and polynomial-
    denominator rules."""
    x, y = gens(QQ_Q)
    q = RatFunc.q()
    xyz = Alphabet(["x", "y", "z"])
    X, Y, Z = (NcPoly.gen(xyz, QQ_Q, i) for i in range(3))

    def s(text):
        return parse_scalar(text, QQ_Q)

    return {
        "QP": (AB, [y * x - (x * y).scale(q)]),
        "cyclic": (xyz, [Y * Z - (Z * Y).scale(q) + X * X,
                         Z * X - (X * Z).scale(q) + Y * Y,
                         X * Y - (Y * X).scale(q) + Z * Z]),
        "polynomial numerators": (AB, [2 * y * x - (x * y).scale(s("1 + q^2"))
                                       - (x * x).scale(s("q - 3")),
                                       3 * y * y * y - (x * y * y).scale(s("q^2 - q"))]),
        "polynomial denominators": (AB, [(y * x).scale(s("1 + q")) - x * y,
                                         y * y - (x * y).scale(s("(q^2 - 2)/(q + 3)"))]),
    }


def _q_power(k):
    out, q = QQ_Q.one, RatFunc.q()
    for _ in range(abs(k)):
        out = out * q if k > 0 else out / q
    return out


def _random_qq(rnd):
    """c q^k with k in [-3, 3], a dense polynomial times q^k, or a quotient
    of two dense polynomials times q^k."""
    def dense():
        return UPoly([Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                      for _ in range(rnd.randint(1, 3))]
                     + [Fraction(rnd.choice([-3, -1, 1, 2]), rnd.randint(1, 3))])

    kind = rnd.randrange(3)
    c = (RatFunc(Fraction(rnd.choice([-3, -2, -1, 1, 2, 5]), rnd.randint(1, 4))) if kind == 0
         else RatFunc(dense()) if kind == 1 else RatFunc(dense(), dense()))
    return c * _q_power(rnd.randint(-3, 3))


def _random_qq_poly(alphabet, rules, rnd, max_degree):
    """Random words with _random_qq coefficients, or c.u.(lead - rhs).v for
    a rule, which a confluent system reduces to zero."""
    if rnd.random() < 0.7:
        p = _random_poly(alphabet, QQ_Q, rnd, max_degree)
        return NcPoly(alphabet, QQ_Q, [(w, _random_qq(rnd)) for w in p.terms])
    r = rnd.choice(rules)
    side = [(), (rnd.randrange(len(alphabet)),)]
    u, v = rnd.choice(side), rnd.choice(side)
    return (NcPoly.word(alphabet, QQ_Q, u, _random_qq(rnd))
            * (NcPoly.word(alphabet, QQ_Q, r.lead) - r.rhs) * NcPoly.word(alphabet, QQ_Q, v))


def _internal_form(p):
    """Each coefficient's (e, n, d), after checking its form: n and d tuples
    of ints with nonzero constant terms, d's leading coefficient positive
    and the two contents coprime."""
    for c in p.terms.values():
        assert type(c) is RatFunc
        n, d = c.n, c.d
        assert type(n) is tuple and type(d) is tuple and all(type(a) is int for a in n + d)
        assert n[0] and n[-1] and d[0] and d[-1] > 0 and math.gcd(*n, *d) == 1
    return {w: (c.e, c.n, c.d) for w, c in p.terms.items()}


@pytest.mark.parametrize("name", list(_qq_relations()))
def test_reduce_over_qq_matches_restarting_reference(name):
    """Over Q(q) _reduce walks integer Laurent polynomials over one
    denominator; the restarting reference adds and multiplies RatFuncs."""
    alphabet, rels = _qq_relations()[name]
    rnd = random.Random(f"reduce over Q(q) {name}")
    zeros = 0
    for kind, rules in _rule_lists(alphabet, rels):
        automaton = NormalWordAutomaton(rules, len(alphabet))
        for _ in range(30):
            p = _random_qq_poly(alphabet, rules, rnd, 6)
            got = _reduce(p, automaton)
            assert _internal_form(got) == _internal_form(
                _reduce_restarting(p, rules, alphabet)), (kind, p)
            zeros += kind == "completed" and not got
    assert zeros > 0


def test_normal_form_over_qq_makes_one_ratfunc_per_settled_word(monkeypatch):
    made = []
    raw, init = RatFunc._raw, RatFunc.__init__

    def counting_raw(*args):
        made.append(1)
        return raw(*args)

    def counting_init(self, *args):
        made.append(1)
        init(self, *args)

    rnd = random.Random("one RatFunc per word")
    for name in ("cyclic", "polynomial denominators"):
        alphabet, rels = _qq_relations()[name]
        R = complete_truncated(rels, 6)
        for _ in range(10):
            p = _random_qq_poly(alphabet, R.rules, rnd, 6)
            with monkeypatch.context() as m:
                m.setattr(RatFunc, "_raw", staticmethod(counting_raw))
                m.setattr(RatFunc, "__init__", counting_init)
                made.clear()
                nf = normal_form(p, R)
                count = len(made)
            assert count == len(nf.terms), (name, p)


def _coefficients(R):
    """The coefficients _reduce, normal_form, letter_table and the rules of
    R hand out, on seeded random inputs."""
    rnd = random.Random(f"coefficients {R}")
    yield from (c for r in R.rules for c in r.rhs.terms.values())
    for _ in range(20):
        p = _random_poly(R.alphabet, QQ, rnd, R.cutoff, 10 ** 6, 10 ** 6)
        p = NcPoly(R.alphabet, R.field, [(w, R.field.coerce(c)) for w, c in p.terms.items()])
        yield from _reduce(p, R.cache.automaton).terms.values()
        yield from normal_form(p, R).terms.values()
    for x in range(len(R.alphabet)):
        for d in range(R.cutoff):
            yield from (c for entry in letter_table(R, x, d) for _, c in entry)


@pytest.mark.parametrize("name, cutoff, kind", [("plane", 8, Fraction),
                                                ("Sklyanin", 6, Fraction),
                                                ("QP", 8, RatFunc)])
def test_coefficients_stay_in_their_field(name, cutoff, kind):
    """Over Q and Q(q), _reduce works on ints; none of them may leave it."""
    alphabet, rels = _relations()[name]
    R = complete_truncated(rels, cutoff)
    assert {type(c) for c in _coefficients(R)} == {kind}


def _gaussian_binomials(n):
    """[n choose k]_q for k = 0..n as integer coefficient lists, by the
    q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    row = [[1]]
    for m in range(1, n + 1):
        nxt = []
        for k in range(m + 1):
            left = row[k - 1] if k > 0 else []
            right = [0] * k + row[k] if k < m else []
            nxt.append([a + b for a, b in itertools.zip_longest(left, right, fillvalue=0)])
        row = nxt
    return row


def test_quantum_plane_binomial_powers():
    R = complete_truncated([quantum_relation()], 12)
    x, y = gens(QQ_Q)
    power = NcPoly.one(AB, QQ_Q)
    for n in range(1, 13):
        power = power * (x + y)
        want = NcPoly(AB, QQ_Q, [((0,) * k + (1,) * (n - k),
                                  RatFunc(UPoly([Fraction(c) for c in coeffs])))
                                 for k, coeffs in enumerate(_gaussian_binomials(n))])
        assert normal_form(power, R) == want, n


def _interreduce(rules, alphabet):
    """Reference interreduction: rewrite one rule by the others, restart."""
    changed = True
    while changed:
        changed = False
        for i in range(len(rules)):
            others = rules[:i] + rules[i + 1:]
            r = rules[i]
            p = _reduce(NcPoly.word(r.rhs.alphabet, r.rhs.field, r.lead) - r.rhs,
                        NormalWordAutomaton(others, len(alphabet)))
            if p.is_zero():
                rules = others
                changed = True
                break
            newr = _make_rule(p, alphabet)
            if newr != rules[i]:
                rules = others + [newr]
                changed = True
                break
    return sorted(rules, key=lambda r: alphabet.key(r.lead))


def _complete_restarting(relations, cutoff, alphabet, field):
    """Reference completion: after every new rule, rebuild and sort the whole
    overlap queue, reduce it again from the lowest degree, and interreduce
    every rule from scratch."""
    rules = _interreduce([_make_rule(r, alphabet) for r in relations], alphabet)
    while True:
        pending = []
        for r1 in rules:
            for r2 in rules:
                for d, a, c, w in _overlaps(r1, r2, alphabet, cutoff):
                    pending.append((d, alphabet.key(w), r1, r2, a, c))
        pending.sort(key=lambda t: (t[0], t[1]))
        new_rule = None
        for _, _, r1, r2, a, c in pending:
            s = _reduce_spoly(r1, r2, a, c, NormalWordAutomaton(rules, len(alphabet)))
            if not s.is_zero():
                new_rule = _make_rule(s, alphabet)
                break
        if new_rule is None:
            break
        rules = _interreduce(rules + [new_rule], alphabet)
    return RewriteSystem(rules, cutoff, alphabet, field)


def _completion_cases():
    """name -> (alphabet, relations, cutoff, field) for the completion test."""
    x, y = gens(QQ)
    qx, qy = gens(QQ_Q)
    q = RatFunc.q()
    xyz = Alphabet(["x", "y", "z"])
    X, Y, Z = (NcPoly.gen(xyz, QQ, i) for i in range(3))
    qX, qY, qZ = (NcPoly.gen(xyz, QQ_Q, i) for i in range(3))
    weighted = Alphabet(["x", "y", "z"], [1, 2, 3])
    wx, wy, wz = (NcPoly.gen(weighted, QQ, i) for i in range(3))
    heavy = Alphabet(["x", "y"], [1, 2])
    hx, hy = (NcPoly.gen(heavy, QQ, i) for i in range(2))
    c3 = [Y * Z - Z * Y, Z * X - X * Z, X * Y - Y * X]

    def s(text):
        return parse_scalar(text, QQ_Q)

    return {
        "plane": (AB, [y * x - x * y], 10, QQ),
        "quantum plane": (AB, [qy * qx - (qx * qy).scale(q)], 10, QQ_Q),
        "C3": (xyz, c3, 8, QQ),
        "Sklyanin": (xyz, [Y * Z + 2 * Z * Y + 3 * X * X,
                           Z * X + 2 * X * Z + 3 * Y * Y,
                           X * Y + 2 * Y * X + 3 * Z * Z], 7, QQ),
        "braid": (AB, [x * y * x - y * x * y], 16, QQ),
        "cyclic": (xyz, [qY * qZ - (qZ * qY).scale(q) + qX * qX,
                         qZ * qX - (qX * qZ).scale(q) + qY * qY,
                         qX * qY - (qY * qX).scale(q) + qZ * qZ], 6, QQ_Q),
        "weighted": (weighted, [wy * wx - wx * wy, wz * wx - wx * wz], 10, QQ),
        "weighted x:1 y:2": (heavy, [hy * hx - hx * hy - 2 * hx * hx * hx,
                                     hy * hy - hx * hy * hx + hx * hx * hy],
                             10, QQ),
        "cubic": (AB, [y * x * x - x * x * y, y * y * x - x * y * y], 12, QQ),
        "free": (AB, [], 8, QQ),
        "duplicated": (AB, [y * x - x * y, y * x - x * y, (x * y - y * x).scale(QQ.coerce(3))],
                       8, QQ),
        "dependent": (xyz, c3 + [c3[0] + 2 * c3[1] - c3[2]], 7, QQ),
        # the cubic is in the ideal of the quadric, the quartic is not
        "mixed degree": (AB, [y * x * x - x * x * y, y * y - x * y,
                              x * x * x * y - y * x * y * x + x * x * x * x], 10, QQ),
        "linear and quadratic": (xyz, [X - Z, Y * Y - X * Y, Z * Y * X], 7, QQ),
        # 12 rules with denominators in Z[q] of degree up to 20, so the
        # S-polynomials are built from forms with polynomial denominators
        "polynomial denominators": (xyz, [qY * qZ - (qZ * qY).scale(s("(q+1)/(q+2)")) + qX * qX,
                                          qZ * qX - (qX * qZ).scale(s("(q^2+1)/(q+3)"))
                                          + qY * qY,
                                          qX * qY - (qY * qX).scale(q) + qZ * qZ], 4, QQ_Q),
    }


@pytest.mark.parametrize("name", list(_completion_cases()))
def test_completion_matches_restarting_reference(name):
    alphabet, rels, cutoff, field = _completion_cases()[name]
    got = complete_truncated_over(rels, cutoff, alphabet, field)
    want = _complete_restarting(rels, cutoff, alphabet, field)
    assert [(r.lead, r.rhs.terms) for r in got.rules] == \
        [(r.lead, r.rhs.terms) for r in want.rules]
    assert [r.render() for r in got.rules] == [r.render() for r in want.rules]
    assert confluence_audit(got)


def _recording_spoly(monkeypatch):
    """The list that records (lead1, lead2, a, c) of each S-polynomial
    completion builds, in the order it builds them."""
    built = []

    def recording_spoly(r1, r2, a, c, alphabet, field):
        built.append((r1.lead, r2.lead, a, c))
        return _spoly(r1, r2, a, c, alphabet, field)

    monkeypatch.setattr(rewriting, "_spoly", recording_spoly)
    return built


def _final_overlaps(R):
    """(lead1, lead2, a, c) -> (rule1, rule2, overlap word), for every
    overlap of R's rules up to its cutoff."""
    return {(r1.lead, r2.lead, a, c): (r1, r2, w) for r1, r2 in _pairs(R.rules, [])
            for _, a, c, w in _overlaps(r1, r2, R.alphabet, R.cutoff)}


def test_sklyanin_reduces_each_overlap_once(monkeypatch):
    built = _recording_spoly(monkeypatch)
    xyz = Alphabet(["x", "y", "z"])
    X, Y, Z = (NcPoly.gen(xyz, QQ, i) for i in range(3))
    R = complete_truncated([Y * Z + 2 * Z * Y + 3 * X * X, Z * X + 2 * X * Z + 3 * Y * Y,
                            X * Y + 2 * Y * X + 3 * Z * Z], 9)
    overlaps = _final_overlaps(R)
    assert len(R.rules) == 26
    assert len(overlaps) == 126
    assert len(built) == len(set(built)) == 89
    assert set(built) <= overlaps.keys()
    interior = {key for key, (_, _, w) in overlaps.items() if not _is_normal(w[1:-1], R)}
    assert overlaps.keys() - set(built) == interior and len(interior) == 37


def _benchmark_systems():
    """name -> (alphabet, relations, cutoff, field, rule count, sha256 of the
    rendered rules joined by newlines), for the three completions of the
    rewrite-cold benchmark workload.  The digests were recorded before the
    automaton took over rule finding in _reduce; Sklyanin's rules carry
    denominators of about 130 digits, so the text is pinned by its hash."""
    x, y = gens(QQ)
    q = RatFunc.q()
    xyz = Alphabet(["x", "y", "z"])
    X, Y, Z = (NcPoly.gen(xyz, QQ, i) for i in range(3))
    qX, qY, qZ = (NcPoly.gen(xyz, QQ_Q, i) for i in range(3))
    return {
        "Sklyanin": (xyz, [Y * Z + 2 * Z * Y + 3 * X * X,
                           Z * X + 2 * X * Z + 3 * Y * Y,
                           X * Y + 2 * Y * X + 3 * Z * Z], 9, QQ, 26,
                     "121c333d954f390e13de166353a9e73e61b2194d2e0dac473d75d289325c696b"),
        "cyclic": (xyz, [qY * qZ - (qZ * qY).scale(q) + qX * qX,
                         qZ * qX - (qX * qZ).scale(q) + qY * qY,
                         qX * qY - (qY * qX).scale(q) + qZ * qZ], 7, QQ_Q, 18,
                   "5e3c7938bed83288d7c9efeba474ba853eb4c8db61d2a4884a1957702ad92eb9"),
        "braid": (AB, [x * y * x - y * x * y], 40, QQ, 37,
                  "68f2dc4a1122f0318e5ff32571ca434e7d0f2ff21a1cefa91466b4e7386222b2"),
    }


@pytest.mark.parametrize("name", list(_benchmark_systems()))
def test_benchmark_systems_pinned(name):
    alphabet, rels, cutoff, field, count, digest = _benchmark_systems()[name]
    R = complete_truncated_over(rels, cutoff, alphabet, field)
    text = "\n".join(r.render() for r in R.rules)
    assert (len(R.rules), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)
    assert confluence_audit(R)


@pytest.mark.parametrize("name", ["Sklyanin", "cyclic", "polynomial denominators"])
def test_spoly_is_the_overlap_difference(name):
    """_spoly's walk input, written back from key space over its S, is
    rhs1.c - a.rhs2 by NcPoly arithmetic, for every overlap of the rules."""
    alphabet, rels, cutoff, field = _completion_cases()[name]
    R = complete_truncated_over(rels, cutoff, alphabet, field)
    m = len(alphabet) - 1
    for (_, _, a, c), (r1, r2, _) in _final_overlaps(R).items():
        S, numerators = _spoly(r1, r2, a, c, alphabet, field)
        terms = {tuple(m - b for b in key): x for key, x in numerators.items() if x}
        got = NcPoly(alphabet, field, _over(S if field == QQ else [S], terms))
        want = (r1.rhs * NcPoly.word(alphabet, field, c)
                - NcPoly.word(alphabet, field, a) * r2.rhs)
        assert got == want, (r1.lead, r2.lead, a, c)


def test_pinned_sklyanin_makes_each_integer_form_once(monkeypatch):
    """Each rule's walk form is made once, cached on the rule, and each input
    relation's once: no automaton and no S-polynomial makes one again."""
    alphabet, rels, cutoff, field = _benchmark_systems()["Sklyanin"][:4]
    made = []
    integer_form = rewriting._integer_form

    def counting_integer_form(p):
        made.append(p)
        return integer_form(p)

    monkeypatch.setattr(rewriting, "_integer_form", counting_integer_form)
    R = complete_truncated_over(rels, cutoff, alphabet, field)
    assert 0 < len(made) <= len(R.rules) + len(rels)


def _criterion_cases():
    """name -> (alphabet, relations, cutoff, field): every completion case
    and the three pinned benchmark systems."""
    cases = _completion_cases()
    cases.update((f"pinned {name}", case[:4]) for name, case in _benchmark_systems().items())
    return cases


@pytest.mark.parametrize("name", list(_criterion_cases()))
def test_completion_builds_the_overlaps_with_no_interior_lead(monkeypatch, name):
    """The chain criterion: exactly the overlaps of the final rules whose
    word holds no lead strictly inside are built, each once, and each one
    left out reduces to zero by the final rules."""
    alphabet, rels, cutoff, field = _criterion_cases()[name]
    built = _recording_spoly(monkeypatch)
    R = complete_truncated_over(rels, cutoff, alphabet, field)
    overlaps = _final_overlaps(R)
    assert sorted(built) == sorted(key for key, (_, _, w) in overlaps.items()
                                   if _is_normal(w[1:-1], R))
    for key in overlaps.keys() - set(built):
        r1, r2, _ = overlaps[key]
        assert _reduce_spoly(r1, r2, *key[2:], R.cache.automaton).is_zero()


def _random_presentation(rnd):
    """2 or 3 letters, weighted about one time in three with x of weight 1,
    and 1 to 3 relations of degree 2 or 3 over Q with small integer
    coefficients on 2 or 3 distinct words."""
    n = rnd.choice([2, 3])
    weights = [1] + [rnd.choice([1, 2]) for _ in range(n - 1)] if rnd.random() < 0.3 else None
    alphabet = Alphabet(["x", "y", "z"][:n], weights)
    rels = []
    for _ in range(rnd.randint(1, 3)):
        words = _all_words(alphabet, rnd.randint(2, 3))
        picked = rnd.sample(words, min(len(words), rnd.randint(2, 3)))
        rels.append(NcPoly(alphabet, QQ, [(w, Fraction(rnd.choice([-3, -2, -1, 1, 2, 3])))
                                          for w in picked]))
    return alphabet, rels, rnd.randint(6, 7)


def test_completion_matches_restarting_reference_on_random_presentations(monkeypatch):
    rnd = random.Random("chain criterion")
    built = _recording_spoly(monkeypatch)
    skipped = 0
    for _ in range(25):
        alphabet, rels, cutoff = _random_presentation(rnd)
        built.clear()
        got = complete_truncated_over(rels, cutoff, alphabet, QQ)
        want = _complete_restarting(rels, cutoff, alphabet, QQ)
        assert [(r.lead, r.rhs.terms) for r in got.rules] == \
            [(r.lead, r.rhs.terms) for r in want.rules], [r.render() for r in rels]
        skipped += len(_final_overlaps(got)) - len(built)
    assert skipped > 0
