"""Letter tables against normal_form, which stays the reference.

A letter table holds nf(x.u) for each letter x and normal word u; the
normal form of any word is then a chain of table lookups.  Both that chain
and the relation spans that homology builds from the tables, degree by
degree, are compared here with products re-expanded through normal_form
word by word.
"""

import itertools
import random

import pytest

from ncproj.dsl import parse_presentation
from ncproj.homology import (GradedModulePresentation, _ext_k_A, _hom_rank,
                             global_dimension, gorenstein_check,
                             minimal_resolution, proj_cohomology)
from ncproj.linalg import SpanTracker
from ncproj.presentations import build
from ncproj.rewriting import hilbert_function, letter_table, normal_form, normal_words
from ncproj.words import NcPoly

CUTOFF = 8
ALGEBRAS = {
    "plane": "algebra P over Q { gens: x, y; rels: y*x - x*y; }",
    "QP": "algebra QP over Q(q) { gens: x, y; rels: y*x - q*x*y; }",
    "C3": "algebra C3 over Q { gens: x, y, z; rels: y*z - z*y; z*x - x*z; x*y - y*x; }",
    "Sklyanin": ("algebra S over Q { gens: x, y, z; "
                 "rels: y*z + 2*z*y + 3*x*x; z*x + 2*x*z + 3*y*y; x*y + 2*y*x + 3*z*z; }"),
    "weighted plane": "algebra W over Q { gens: x:1, y:2; rels: y*x - x*y; }",
    "cubic": "algebra Cu over Q { gens: x, y; rels: y*x*x - x*x*y; y*y*x - x*y*y; }",
}
# normal_form of all 6 561 Sklyanin words of degree 8 takes about 45 s, so
# above degree 6 a seeded sample of its words is checked
SAMPLED = {"Sklyanin": (6, 150)}


def system(name):
    return build(parse_presentation(ALGEBRAS[name]), CUTOFF)


def _quotient_resolution(R, n, p, N):
    """The resolution of A/A_{>=n} that R keeps, read to P^p at N."""
    return minimal_resolution(GradedModulePresentation.quotient_truncation(R, n), p, N)


def all_words(weights, d):
    return [w for n in range(d + 1) for w in itertools.product(range(len(weights)), repeat=n)
            if sum(weights[i] for i in w) == d]


def table_normal_form(R, w):
    """nf(w) through the letter tables, one letter at a time from the right."""
    weights = R.alphabet.weights
    v, d = {0: R.field.one}, 0
    for x in reversed(w):
        out = {}
        for k, c in v.items():
            for t, a in letter_table(R, x, d)[k]:
                out[t] = out.get(t, R.field.zero) + c * a
        v, d = {t: c for t, c in out.items() if c}, d + weights[x]
    words = normal_words(R, d)
    return {words[k]: c for k, c in v.items()}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_letter_tables_match_normal_form(name):
    R = system(name)
    rng = random.Random(7)
    top, sample = SAMPLED.get(name, (CUTOFF, None))
    for d in range(CUTOFF + 1):
        words = all_words(R.alphabet.weights, d)
        if d > top:
            words = rng.sample(words, sample)
        for w in words:
            want = normal_form(NcPoly.word(R.alphabet, R.field, w), R).terms
            assert table_normal_form(R, w) == want, w


@pytest.mark.parametrize("name", ["plane", "QP", "C3", "Sklyanin"])
def test_unit_table_coefficients_are_the_fields_one(name):
    """A coefficient equal to one is the field's one object, so products skip
    it by identity; some of them come from normal_form, not from normal words."""
    R = system(name)
    one = R.field.one
    reduced = 0
    for d in range(CUTOFF):
        for x in range(len(R.alphabet.weights)):
            normal = set(normal_words(R, d + R.alphabet.weights[x]))
            for u, entry in zip(normal_words(R, d), letter_table(R, x, d)):
                assert all(c is one for _, c in entry if c == one), (x, u)
                reduced += (x,) + u not in normal and any(c == one for _, c in entry)
    # in QP every reduced product y.x^a.y^b carries a power of q
    assert reduced or name == "QP"


def residue_route(P, vec, d):
    """Quotient coordinates through the residue and the free-column positions."""
    position = P._free_columns(d)
    return {position[c]: x for c, x in P.submodule_span(d).residue(vec).items()}


@pytest.mark.parametrize("name", ["plane", "QP"])
def test_quotient_coords_match_the_residue_route(name):
    R = system(name)
    rng = random.Random(3)
    zero, one = R.field.zero, R.field.one
    for P in (GradedModulePresentation.free(R, [0]), GradedModulePresentation.free(R, [0, 1]),
              GradedModulePresentation.quotient_truncation(R, 2)):
        for d in range(7):
            n = len(P.free_basis(d))
            vectors = [{c: one} for c in range(n)]
            vectors += [{c: one * rng.randint(-3, 3) for c in rng.sample(range(n), min(n, 3))}
                        for _ in range(5)]
            vectors.append({c: zero for c in range(n)})
            for vec in vectors:
                assert P.quotient_coords(vec, d) == residue_route(P, vec, d), (d, vec)


def span_word_by_word(M, d):
    """The degree-d relation span of M from a.row for every relation row and
    every normal word a, each product expanded through normal_form."""
    R = M.ambient
    index = {bw: k for k, bw in enumerate(M.free_basis(d))}
    span = SpanTracker(len(index), R.field)
    for D, row in M.rows:
        if D <= d:
            for a in normal_words(R, d - D):
                v = {}
                for i, p in enumerate(row):
                    product = NcPoly.word(R.alphabet, R.field, a) * p
                    for w, c in normal_form(product, R).terms.items():
                        k = index[(i, w)]
                        v[k] = v.get(k, R.field.zero) + c
                span.add(v)
    return span


def truncation(R, n):
    """A_{>=n}, presented by the tail P^1 <- P^2 of the minimal resolution
    of A/A_{>=n}: its minimal generators and their relations, none when
    P^2 = 0."""
    rep = _quotient_resolution(R, n, 2, R.cutoff)
    rows = rep.differentials[1] if len(rep.differentials) > 1 else []
    return GradedModulePresentation(R, rep.betti[1], rows)


def generator_words(R, n):
    """The normal words P^1 of the resolution of A/A_{>=n} lists, in the
    order of its summands."""
    rep = _quotient_resolution(R, n, 2, R.cutoff)
    return [next(iter(row[0].terms)) for row in rep.differentials[0]]


def truncation_words(R, n):
    """The normal words of degrees n .. n + w - 1, w the largest letter
    weight: every normal word of degree >= n ends in one of them."""
    return [u for d in range(n, n + max(R.alphabet.weights)) for u in normal_words(R, d)]


def modules(R):
    a, f = R.alphabet, R.field
    x, y = NcPoly.gen(a, f, 0), NcPoly.gen(a, f, 1)
    yield GradedModulePresentation.trivial(R)
    yield GradedModulePresentation.quotient_truncation(R, 3)
    yield truncation(R, 2)
    # two summands, A and A(-w(x)), and relations in two degrees
    wx, wy = a.weights[0], a.weights[1]
    yield GradedModulePresentation(R, [0, wx], [[y * x, NcPoly.zero(a, f) - y],
                                                [x * x * y, y * x]])
    if wx == wy:
        yield GradedModulePresentation(R, [0], [[x * y - y * y]])


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_spans_degree_by_degree_match_word_by_word(name):
    R = system(name)
    for M in modules(R):
        for d in range(CUTOFF):
            got, want = M.submodule_span(d), span_word_by_word(M, d)
            assert got.reduced() == want.reduced(), (M, d)


def truncation_cover(R, gens):
    """The free module with one summand A(-|g|) for each word g of gens,
    which evaluates onto A_{>=n} when gens generate it."""
    return GradedModulePresentation.free(R, [R.alphabet.degree(g) for g in gens])


def kernel_span_word_by_word(R, gens, d):
    """The degree-d kernel of the evaluation of truncation_cover(R, gens)
    onto A_{>=n}, every image a.g expanded through normal_form."""
    basis = truncation_cover(R, gens).free_basis(d)
    index = {w: k for k, w in enumerate(normal_words(R, d))}
    rows = {}
    for k, (j, a) in enumerate(basis):
        image = normal_form(NcPoly.word(R.alphabet, R.field, a + gens[j]), R)
        for w, c in image.terms.items():
            rows.setdefault(index[w], {})[k] = c
    image_span = SpanTracker(len(basis), R.field)
    for row in rows.values():
        image_span.add(row)
    span = SpanTracker(len(basis), R.field)
    for v in image_span.kernel():
        span.add(v)
    return span


# with letters of weights 1, 1, 2 the image A_{d-1}.A_1 is not all of A_d:
# the word y has no suffix of degree 1
TRUNCATED = dict(ALGEBRAS, **{
    "weighted C3": "algebra T over Q { gens: x, z, y:2; rels: z*x - x*z; y*x - x*y; y*z - z*y; }",
    "weighted x, z, y:2": "algebra T over Q { gens: x, z, y:2; rels: z*x - x*z; x*y; }",
})


@pytest.mark.parametrize("name", list(TRUNCATED))
def test_truncation_relations_span_the_evaluation_kernel(name):
    R = build(parse_presentation(TRUNCATED[name]), CUTOFF)
    for n in (1, 2):
        T, gens = truncation(R, n), generator_words(R, n)
        for d in range(n, CUTOFF + 1):
            got, want = T.submodule_span(d), kernel_span_word_by_word(R, gens, d)
            assert got.reduced() == want.reduced(), (n, d)


def kernel_presentation(R, n, top):
    """A_{>=n} on the cover by truncation_words(R, n), its rows the
    evaluation-kernel vectors of degree <= top, each found word by word,
    that the rows of lower degree do not generate: no letter table, no
    resolution.  Hom out of it does not depend on the choice of cover."""
    gens = truncation_words(R, n)
    cover = truncation_cover(R, gens)
    rows = []
    for e in range(n, top + 1):
        basis = cover.free_basis(e)
        below = span_word_by_word(GradedModulePresentation(R, cover.shifts, rows), e)
        for v in kernel_span_word_by_word(R, gens, e).rows.values():
            if below.add(v):
                terms = [{} for _ in cover.shifts]
                for k, c in v.items():
                    j, a = basis[k]
                    terms[j][a] = c
                rows.append([NcPoly(R.alphabet, R.field, t) for t in terms])
    return GradedModulePresentation(R, cover.shifts, rows)


def hom_dim(M, P, d):
    """dim of the degree-0 module maps M -> P[d]: the images of the cover
    generators, less the rank of their precomposition with the rows of M."""
    return sum(P.dim(l + d) for l in M.shifts) - _hom_rank(P, M.shifts, M.rows, d)


@pytest.mark.parametrize("name", list(TRUNCATED))
def test_proj_h0_matches_hom_from_the_evaluation_kernel(name):
    """Each H^0 value Hom(A_{>=n}, A[d]), read off the resolution of
    A/A_{>=n}, against hom_dim on the kernel rows found word by
    word; Hom into A[d] reads the rows of degree <= cutoff - d.  The
    cutoff is the depth n_max - 1 + T + d of d = 2, with T <= 3 here."""
    cutoff = 7
    R = build(parse_presentation(TRUNCATED[name]), cutoff)
    A = GradedModulePresentation.algebra(R)
    for d in range(3):
        values = proj_cohomology(R, A, 0, d, 3).values
        for n in range(4):
            T = kernel_presentation(R, n, cutoff - d)
            assert values[n] == hom_dim(T, A, d), (n, d)


@pytest.mark.parametrize("name", ["plane", "QP", "C3", "Sklyanin", "weighted C3",
                                  "weighted x, z, y:2"])
def test_resolutions_satisfy_the_euler_characteristic(name):
    """An exact resolution P of M has sum_i (-1)^i dim P^i_d = dim M_d, and
    dim P^i_d = sum of dim A_{d-l} over the shifts l of betti[i]: an oracle
    that reads only the Betti numbers, the Hilbert function and the module."""
    R = build(parse_presentation(TRUNCATED[name]), CUTOFF)
    dims = hilbert_function(R, CUTOFF)
    modules = [(GradedModulePresentation.quotient_truncation(R, n),
                _quotient_resolution(R, n, 6, CUTOFF))
               for n in range(5)]
    k = GradedModulePresentation.trivial(R)
    modules.append((k, minimal_resolution(k, 6, CUTOFF)))
    for M, rep in modules:
        assert rep.terminated, M
        for d in range(CUTOFF + 1):
            chi = sum((-1) ** i * sum(dims[d - l] for l in shifts if l <= d)
                      for i, shifts in enumerate(rep.betti))
            assert chi == M.dim(d), (M, d)


@pytest.mark.parametrize("name", ["weighted plane", "weighted C3", "weighted x, z, y:2"])
def test_quotient_truncation_is_a_mod_a_at_least_n(name):
    """A/A_{>=n} has the dims of A below n and none from n on; presenting
    it by the degree-n words alone gives A/A.A_n, which is larger when a
    letter has weight above 1."""
    R = build(parse_presentation(TRUNCATED[name]), CUTOFF)
    dims = hilbert_function(R, CUTOFF)
    for n in range(4):
        Q = GradedModulePresentation.quotient_truncation(R, n)
        assert [Q.dim(d) for d in range(CUTOFF + 1)] == \
            [dims[d] if d < n else 0 for d in range(CUTOFF + 1)], n


def test_weighted_projective_line_serre_duality():
    """On P(1, 2), the Proj of the weighted plane, H^0(O(d)) = dim A_d for
    d >= 0 and, by Serre duality with omega = O(-3), H^1(O(-3 - d)) =
    dim A_d: an oracle that reads only the Hilbert function."""
    n_max = 5
    # k's resolution is A(-3) -> A(-1) + A(-2) -> A, so T = 3 for j = 0, 1
    R = build(parse_presentation(TRUNCATED["weighted plane"]), n_max - 1 + 3 + 3)
    A = GradedModulePresentation.algebra(R)
    dims = hilbert_function(R, 3)
    for d in range(4):
        assert proj_cohomology(R, A, 0, d, n_max).stabilized_dim == dims[d], d
    for d in range(3):
        assert proj_cohomology(R, A, 1, -3 - d, n_max).stabilized_dim == dims[d], d


def plain(rep):
    return (rep.betti, [[[p.terms for p in row] for row in rows] for rows in rep.differentials],
            rep.length)


@pytest.mark.parametrize("name", list(TRUNCATED))
def test_trivial_module_is_the_first_truncation(name):
    """k presented by one relation row per letter and k = A/A_{>=1} have
    one and the same minimal resolution."""
    R = build(parse_presentation(TRUNCATED[name]), CUTOFF)
    letters = [[NcPoly.gen(R.alphabet, R.field, i)] for i in range(len(R.alphabet))]
    explicit = GradedModulePresentation(R, [0], letters)
    for p in (2, 4):
        for N in (6, 8):
            want = plain(minimal_resolution(explicit, p, N))
            assert plain(minimal_resolution(GradedModulePresentation.trivial(R), p, N)) == want


K_FUNCTIONS = [
    lambda R, N: global_dimension(R, 4, N),
    lambda R, N: gorenstein_check(R, N, 5),
    lambda R, N: _ext_k_A(_quotient_resolution(R, 1, 4, N),
                          GradedModulePresentation.algebra(R), 2, N),
]


@pytest.mark.parametrize("name", ["plane", "QP", "cubic", "weighted plane",
                                  "weighted x, z, y:2"])
def test_resolution_of_k_is_shared_with_proj_cohomology(name):
    """After proj_cohomology has filled the resolution cache of a rewrite
    system, each function reading the resolution of k returns what it
    returns on a fresh system, at the cutoff and below it."""
    def fresh():
        return build(parse_presentation(TRUNCATED[name]), CUTOFF)

    R = fresh()
    proj_cohomology(R, GradedModulePresentation.algebra(R), 1, -1, 3)
    for N in (CUTOFF, CUTOFF - 2):
        for k, f in enumerate(K_FUNCTIONS):
            assert f(R, N) == f(fresh(), N), (N, k)
