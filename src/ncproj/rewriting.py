"""Degree-truncated two-sided Groebner completion in free algebras.

The completion closes one degree at a time, lowest first, in the batched
manner of Faugere's F4: the input relations and the S-polynomials of the
overlap ambiguities of degree d are reduced against the rules found so far,
and the reduced row echelon form of the results gives the new degree-d rules
in one step.  An overlap whose word holds a lead strictly inside is left
out unbuilt: by the chain criterion it resolves through two shorter
overlaps, which lower degrees have already resolved.  It stops at the
degree cutoff.  A completed system is confluent for all words of degree
<= cutoff, so normal forms, normal-word bases and Hilbert functions are
exact in that range.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from fractions import Fraction

from .fields import (QQ, RatFunc, _ONE, _coprime, _laurent_numerators, _laurent_sum, _over_lcm,
                     _zmul)
from .linalg import SpanTracker
from .words import NcPoly

INFINITE = "INFINITE"


class CutoffExceededError(ValueError):
    """A degree beyond the completion cutoff was requested."""


@dataclass(frozen=True)
class RewriteRule:
    """lead -> rhs, with lead the order-maximal word of the homogeneous rule."""
    lead: tuple
    rhs: NcPoly

    @cached_property
    def degree(self):
        return self.rhs.alphabet.degree(self.lead)

    def render(self):
        lead = NcPoly.word(self.rhs.alphabet, self.rhs.field, self.lead)
        return f"{lead.render()} -> {self.rhs.render()}"


class NormalWordAutomaton:
    """Aho-Corasick automaton over the rule leads: Ufnarovski's graph.

    State 0 is the empty word and every other state a prefix of a lead.
    For the state s of a word w, goto[s][a] is the state of wa, the longest
    suffix of wa that is a state, and rule[s] is the index of the first
    rule in list order whose lead ends w (len(rules) if none does).  step
    is goto on normal words: step[s][a] is None when wa is not normal.

    forms[i] is the rhs of rules[i] as _walk uses it, (D, N) with N its
    (word, numerator) pairs, so that rhs = N / D: over Q, D is the least
    common denominator of its coefficients and each numerator an int; over
    Q(q), D is in Z[q] with D(0) != 0, a tuple of ints, and each numerator
    an integer Laurent polynomial (v, tuple of ints): a coefficient's
    stored q^v N times D over its stored denominator, so that a rewrite by
    q^v c is a shift and an integer scale.
    """

    def __init__(self, rules, nletters):
        self.rules = rules = tuple(rules)
        self.forms = [_integer_form(r.rhs) for r in rules]
        children = [{}]
        rule = [len(rules)]
        for i, r in enumerate(rules):
            s = 0
            for a in r.lead:
                if a not in children[s]:
                    children[s][a] = len(children)
                    children.append({})
                    rule.append(len(rules))
                s = children[s][a]
            rule[s] = min(rule[s], i)
        goto = [None] * len(children)
        goto[0] = [children[0].get(a, 0) for a in range(nletters)]
        queue = deque((t, 0) for t in children[0].values())
        while queue:
            s, fail = queue.popleft()
            rule[s] = min(rule[s], rule[fail])
            goto[s] = [children[s].get(a, goto[fail][a]) for a in range(nletters)]
            queue.extend((t, goto[fail][a]) for a, t in children[s].items())
        self.goto, self.rule = goto, rule
        self.step = [[None if rule[t] < len(rules) else t for t in row] for row in goto]


def _integer_form(p):
    """(S, numerators) with p = numerators / S, for _walk: over Q, S an
    int and each coefficient of p an int over it; over Q(q), S in Z[q] and
    each coefficient an integer Laurent polynomial (v, N) over it, read
    from its RatFunc's (e, N, D); the numerators as (word, numerator)
    pairs."""
    S, ns = (_over_lcm if p.field == QQ else _laurent_numerators)(p.terms.values())
    return S, tuple(zip(p.terms, ns))


class RewriteCache:
    """What a rewrite system derives from its fixed rules, filled on first use.

    words[d], states[d]: the sorted degree-d normal words and the automaton
    state each one ends in; position[d]: normal word -> its index in
    words[d]; dims: the longest Hilbert function computed; letters[(x, d)]:
    the letter table of x in degree d (see letter_table), the structure
    constants of A in the normal-word basis.  Kept by the homology layer:
    slices[(shifts, d)], the degree-d basis of the free module
    ⊕_i A(-shifts[i]) and its index, and letter_maps[(shifts, x, d)],
    multiplication by x on it; resolutions: n -> the one minimal
    resolution of A/A_{>=n} built so far, which minimal_resolution reads
    and fills, only as deep as the deepest degree bound read and continued
    upward when a deeper one is read;
    A_{>=n} is generated by the normal words of degrees n .. n + (largest
    letter weight) - 1, and the trivial module k is A/A_{>=1}.
    """

    def __init__(self, rules, nletters):
        self.automaton = NormalWordAutomaton(rules, nletters)
        self.words = [[()]]
        self.states = [[0]]
        self.position = {}
        self.dims = []
        self.letters = {}
        self.slices = {}
        self.letter_maps = {}
        self.resolutions = {}


class RewriteSystem:
    """Interreduced rewrite rules, confluent up to the degree cutoff."""

    def __init__(self, rules, cutoff, alphabet, field, relation_degree=0):
        self.rules = tuple(rules)
        self.cutoff = cutoff
        self.alphabet = alphabet
        self.field = field
        self.relation_degree = relation_degree     # the top degree of the relations completed
        self.cache = RewriteCache(self.rules, len(self.alphabet))

    def __repr__(self):
        return f"RewriteSystem({len(self.rules)} rules, cutoff={self.cutoff})"


def _reduce(p, automaton):
    """Full normal form of p by the automaton's rules: the result of _walk,
    each settled numerator over the common denominator S made a field
    element, as an NcPoly."""
    S, terms = _walk(p, automaton)
    out = NcPoly.zero(p.alphabet, p.field)
    out.terms = _over(S, terms)
    return out


def _over(S, terms):
    """The coefficients {word: c / S} of a walk's numerators over S: over Q
    a Fraction per word; over Q(q) for each word one RatFunc q^v N / S made
    coprime by the Z[q] kernel of ncproj.fields and built by RatFunc._raw."""
    if S.__class__ is tuple:
        return {w: RatFunc._raw(e, *_coprime(C, S)) for w, (e, C) in terms.items()}
    return {w: Fraction(c, S) for w, c in terms.items()}


def _walk(p, automaton):
    """(S, numerators): the normal form of p by the automaton's rules, in one
    top-down pass, as the numerators {settled word: c} over one common
    denominator S.

    Pending words are settled from the largest down.  A popped word is
    walked once through the automaton, which names the first rule ending at
    each position.  A word that meets no lead is settled; any other is
    rewritten once, by the first rule in list order at its leftmost
    occurrence, into words that are strictly smaller, because every rhs
    word is smaller than its lead and the order is compatible with
    concatenation.  So when a word is popped, every contribution to its
    coefficient has already arrived, and each word is settled once.

    The walk is fraction-free in the manner of Bareiss: every pending and
    settled coefficient is a numerator over one common denominator S.  Over
    Q the numerators are Python ints and S is an int; over Q(q) they are
    integer Laurent polynomials (v, N), q^v N(q) with N a tuple of ints,
    N(0) != 0, and S is in Z[q].  A word with numerator c rewritten by a
    rule rhs N / D adds (c / g) N, with g = gcd(c, D), after every
    numerator and S are multiplied by D / g; over Q(q), the product, the
    Laurent sum and the gcd (the content gcd when D is a constant, else
    the gcd in Z[q] by UPoly.gcd) are the Z[q] kernel of ncproj.fields
    that RatFunc arithmetic runs on.  So a rewrite by q^e c is a shift and
    an integer scale.  The walk builds no fraction: _reduce makes the
    numerators field elements, and completion over Q hands them to its
    span as they are, since a residue times S spans the same row.
    """
    rules, forms, goto, first = automaton.rules, automaton.forms, automaton.goto, automaton.rule
    weight = [-a for a in p.alphabet.weights]
    rank = [-a for a in range(len(weight))]

    def entry(w):
        # alphabet.key negated, then w itself.  Words of equal weighted degree
        # are never prefixes of one another (weights are positive), so two
        # entries differ before either runs out of letters: w is never compared.
        return (sum(map(weight.__getitem__, w)), *map(rank.__getitem__, w), w)

    S, pending = _integer_form(p)
    pending = dict(pending)
    laurent = S.__class__ is tuple
    heap = [entry(w) for w in pending]
    heapq.heapify(heap)
    terms = {}
    while heap:
        w = heapq.heappop(heap)[-1]
        c = pending.pop(w)
        if not c:
            continue
        s, best, end = 0, first[0], 0
        for i, a in enumerate(w, 1):
            s = goto[s][a]
            if first[s] < best:
                best, end = first[s], i
        if best == len(rules):
            terms[w] = c
            continue
        D, rhs = forms[best]
        pre, post = w[:end - len(rules[best].lead)], w[end:]
        if laurent:
            e, C = c
            if D != _ONE:
                C, k = _coprime(C, D)
                if k != _ONE:
                    S = _zmul(S, k)
                    # a pending sum that cancelled stays 0
                    pending = {v: x and (x[0], _zmul(x[1], k)) for v, x in pending.items()}
                    terms = {v: (f, _zmul(N, k)) for v, (f, N) in terms.items()}
            for u, (f, A) in rhs:
                v = pre + u + post
                x = (e + f, _zmul(C, A))
                old = pending.get(v)
                if old is None:
                    heapq.heappush(heap, entry(v))
                    pending[v] = x
                else:
                    pending[v] = _laurent_sum(old, x) if old else x
            continue
        g = math.gcd(c, D)
        if g != D:
            k = D // g
            S *= k
            pending = {v: x * k for v, x in pending.items()}
            terms = {v: x * k for v, x in terms.items()}
        c //= g
        for u, a in rhs:
            v = pre + u + post
            old = pending.get(v)
            if old is None:
                heapq.heappush(heap, entry(v))
            pending[v] = c * a if old is None else old + c * a
    return S, terms


def _overlaps(r1, r2, alphabet, cutoff):
    """Proper overlap ambiguities lead1 = A B, lead2 = B C (B nonempty).

    Yields (degree, A, C, w) with w = lead1 + C = A + lead2, restricted to
    degree <= cutoff; a shift past the cutoff is dropped before any slice.
    """
    l1, l2, n1 = r1.lead, r2.lead, len(r1.lead)
    weights = alphabet.weights
    d = r1.degree + r2.degree
    for k in range(1, min(n1, len(l2))):
        d -= weights[l2[k - 1]]
        if d <= cutoff and l1[n1 - k] == l2[0] and l1[n1 - k:] == l2[:k]:
            c = l2[k:]
            yield d, l1[:n1 - k], c, l1 + c


def _pairs(new, old):
    """Each ordered pair of rules with at least one of them in new, once."""
    for r1 in new:
        for r2 in old:
            yield r1, r2
            yield r2, r1
        for r2 in new:
            yield r1, r2


def _spoly(rule1, rule2, a, c, alphabet, field):
    """rhs1.c - a.rhs2, for the overlap word lead1.c = a.lead2."""
    return NcPoly(alphabet, field, [(u + c, x) for u, x in rule1.rhs.terms.items()]
                  + [(a + u, -x) for u, x in rule2.rhs.terms.items()])


def _holds_lead(word, step):
    """Whether a rule lead occurs in word, walked through the automaton's step."""
    s = 0
    for a in word:
        s = step[s][a]
        if s is None:
            return True
    return False


def complete_truncated(relations, cutoff):
    """Complete homogeneous relations to a confluent system up to the cutoff."""
    if not relations:
        raise ValueError("need the alphabet and coefficient field; pass at least one "
                         "relation or use RewriteSystem([], cutoff, alphabet, field) directly")
    return complete_truncated_over(relations, cutoff, relations[0].alphabet, relations[0].field)


def complete_truncated_over(relations, cutoff, alphabet, field):
    """The reduced Groebner basis of the relations, truncated at the cutoff.

    Degree by degree, lowest first.  Relations are homogeneous and a proper
    overlap has a degree above both of its rules, so when degree d is
    reached every rule that feeds a degree-d S-polynomial is final: a new
    degree-d lead neither divides an older lead nor occurs in an older rhs.
    Degree d reduces its input relations and the S-polynomials of its queued
    overlaps against the rules, once each, and spans the results over
    their words in descending order.  Each row of the span's reduced form is
    then a new rule, its pivot the lead with coefficient one, and the rows are
    already reduced against one another and against the older leads.  Each
    ordered pair of rules is queued once, when the later of the two is made.

    An overlap is queued as (r1, r2, a, c, w), and its S-polynomial is built
    only if no lead of degree < d occurs in w[1:-1] (the chain criterion).
    The leads are interreduced, so a lead k inside w lies strictly inside,
    at [s, e) with 0 < s and e < |w|; then S(r1, r2) = S(r1, k).w[e:] +
    w[:s].S(k, r2), two overlaps of proper subwords of w, already resolved.

    The reduced Groebner basis is unique, so the rules do not depend on the
    order of the work; they come out sorted by alphabet.key of their leads,
    because the degrees ascend and each degree's pivots are taken from the
    smallest word up.
    """
    relations_of = {}              # degree -> input relations
    overlaps_of = {}               # degree -> queued overlaps (r1, r2, a, c, w)
    for rel in relations:
        if rel.is_zero():
            raise ValueError("zero relation")
        if not rel.is_homogeneous():
            raise ValueError(f"inhomogeneous relation: {rel.render()}")
        if rel.degree() == 0:
            raise ValueError("relation of degree 0: the algebra would be zero")
        if rel.field != field:
            raise ValueError("relations over mixed coefficient fields")
        if rel.degree() > cutoff:
            raise ValueError("cutoff smaller than a relation degree")
        relations_of.setdefault(rel.degree(), []).append(rel)

    top, rules = max(relations_of, default=0), []
    while relations_of or overlaps_of:
        d = min(relations_of.keys() | overlaps_of.keys())
        automaton = NormalWordAutomaton(rules, len(alphabet))
        batch = relations_of.pop(d, [])
        batch += [_spoly(r1, r2, a, c, alphabet, field)
                  for r1, r2, a, c, w in overlaps_of.pop(d, ())
                  if not _holds_lead(w[1:-1], automaton.step)]
        # over Q the walk's integer numerators are the rows: times S, a
        # residue spans the same line
        residues = [terms if S.__class__ is int else _over(S, terms)
                    for S, terms in (_walk(p, automaton) for p in batch)]
        words = sorted({w for terms in residues for w in terms}, key=alphabet.key, reverse=True)
        column = {w: j for j, w in enumerate(words)}
        span = SpanTracker(len(words), field)
        for terms in residues:
            span.add({column[w]: c for w, c in terms.items()})
        new = []
        for pivot, row in span.reduced().items():
            rhs = NcPoly(alphabet, field, [(words[j], -row[j]) for j in sorted(row) if j != pivot])
            new.append(RewriteRule(words[pivot], rhs))
        for r1, r2 in _pairs(new, rules):
            for e, *overlap in _overlaps(r1, r2, alphabet, cutoff):
                overlaps_of.setdefault(e, []).append((r1, r2, *overlap))
        rules.extend(new)

    return RewriteSystem(rules, cutoff, alphabet, field, top)


def normal_form(p, R):
    if p.max_degree() > R.cutoff:
        raise CutoffExceededError(
            f"degree {p.max_degree()} exceeds cutoff {R.cutoff}")
    return _reduce(p, R.cache.automaton)


def normal_words(R, d):
    """Degree-d words avoiding every rule lead as a subword, sorted.

    Built degree by degree through the normal-word automaton: every normal
    word is a shorter normal word followed by one letter.
    """
    if d > R.cutoff:
        raise CutoffExceededError(f"degree {d} exceeds cutoff {R.cutoff}")
    if d < 0:
        return []
    cache = R.cache
    step = cache.automaton.step
    weights = R.alphabet.weights
    key = R.alphabet.key
    while len(cache.words) <= d:
        e = len(cache.words)
        found = []
        for a, wa in enumerate(weights):
            if wa <= e:
                for w, s in zip(cache.words[e - wa], cache.states[e - wa]):
                    t = step[s][a]
                    if t is not None:
                        found.append((w + (a,), t))
        found.sort(key=lambda ws: key(ws[0]))
        cache.words.append([w for w, _ in found])
        cache.states.append([t for _, t in found])
    return cache.words[d]


def letter_table(R, x, d):
    """Multiplication by the letter x from A_d to A_{d+w(x)}, normal-word bases.

    Entry k is the normal form of x.u, u = normal_words(R, d)[k], as a tuple
    of (index in normal_words(R, d + w(x)), coefficient) pairs.  As u is
    normal, a rule lead in x.u can only start at x: either x.u is a normal
    word, or one normal_form call reduces it.  Every coefficient equal to
    one is the field's one object itself, so a product can skip it by
    identity.  The normal form of any word a.u is then a chain of table
    lookups, one letter of a at a time from the right.
    """
    cache = R.cache
    table = cache.letters.get((x, d))
    if table is None:
        e = d + R.alphabet.weights[x]
        position = cache.position.get(e)
        if position is None:
            position = cache.position[e] = {w: k for k, w in enumerate(normal_words(R, e))}
        one = R.field.one
        table = []
        for u in normal_words(R, d):
            k = position.get((x,) + u)
            if k is not None:
                table.append(((k, one),))
            else:
                nf = normal_form(NcPoly.word(R.alphabet, R.field, (x,) + u), R)
                table.append(tuple((position[v], one if c == one else c)
                                   for v, c in nf.terms.items()))
        cache.letters[(x, d)] = table
    return table


def hilbert_function(R, N):
    """dims[d] = number of degree-d normal words, for 0 <= d <= N."""
    if N > R.cutoff:
        raise CutoffExceededError(f"degree {N} exceeds cutoff {R.cutoff}")
    cache = R.cache
    if len(cache.dims) <= N:
        step = cache.automaton.step
        weights = R.alphabet.weights
        counts = [dict() for _ in range(N + 1)]
        counts[0][0] = 1
        dims = []
        for d in range(N + 1):
            dims.append(sum(counts[d].values()))
            for s, c in counts[d].items():
                for a, wa in enumerate(weights):
                    if d + wa <= N:
                        t = step[s][a]
                        if t is not None:
                            counts[d + wa][t] = counts[d + wa].get(t, 0) + c
        cache.dims = dims
    return cache.dims[:N + 1]


@dataclass
class GrowthReport:
    """Hilbert data plus a windowed GK-dimension estimate."""
    dims: list
    filtration_dims: list
    gk_estimate: object          # Fraction or the INFINITE flag
    window: tuple
    cutoff: int
    low_confidence: bool = dc_field(default=False)

    def to_dict(self):
        est = self.gk_estimate if self.gk_estimate == INFINITE \
            else str(self.gk_estimate)
        return {
            "cutoff": self.cutoff,
            "dims": self.dims,
            "filtration_dims": self.filtration_dims,
            "gk_estimate": est,
            "low_confidence": self.low_confidence,
            "window": list(self.window),
        }


def gk_estimate(R):
    """Least-squares growth exponent over the window [N/2, N].

    Exponential growth (every consecutive ratio >= 3/2 across the window)
    is reported as INFINITE.  Estimates inside (1.15, 1.85) carry a
    low-confidence flag: the integer gap between GK dimensions 1 and 2
    admits no honest finite-sample classification there.
    """
    N = R.cutoff
    dims = hilbert_function(R, N)
    filt = []
    acc = 0
    for d in dims:
        acc += d
        filt.append(acc)
    lo = max(1, N // 2)
    window = (lo, N)

    ratios_exponential = all(
        dims[d] > 0 and Fraction(dims[d + 1], dims[d]) >= Fraction(3, 2)
        for d in range(lo, N))
    if ratios_exponential and N > lo:
        return GrowthReport(dims, filt, INFINITE, window, N)

    xs = [math.log(n) for n in range(lo, N + 1)]
    ys = [math.log(filt[n]) for n in range(lo, N + 1)]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom if denom else 0.0
    est = Fraction(slope).limit_denominator(10 ** 9)
    low = Fraction(115, 100) < est < Fraction(185, 100)
    return GrowthReport(dims, filt, est, window, N, low)
