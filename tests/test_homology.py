"""Resolutions, graded Hom/Ext, Gorenstein checks, Proj cohomology."""

import gc
import weakref
from dataclasses import replace

import pytest

from ncproj import homology
from ncproj.fields import QQ, QQ_Q, RatFunc
from ncproj.homology import (AtLeast, GradedModulePresentation, UNSTABLE,
                             cd_estimate,
                             global_dimension, gorenstein_check, minimal_resolution,
                             proj_cohomology, proj_depth, _ext_dims_from_resolution,
                             _ext_k_A, _stabilize)
from ncproj.cli import _built_for_proj
from ncproj.dsl import parse_presentation
from ncproj.linalg import SpanTracker
from ncproj.presentations import build
from ncproj.rewriting import (CutoffExceededError, RewriteSystem, complete_truncated,
                              hilbert_function, normal_words)
from ncproj.words import Alphabet, NcPoly
from test_letter_tables import TRUNCATED, _quotient_resolution, hom_dim

AB1 = Alphabet(["x"])
AB2 = Alphabet(["x", "y"])
AB3 = Alphabet(["x", "y", "z"])


def line(cutoff=12):
    return RewriteSystem([], cutoff, AB1, QQ)


def plane(cutoff=12):
    x, y = NcPoly.gen(AB2, QQ, 0), NcPoly.gen(AB2, QQ, 1)
    return complete_truncated([y * x - x * y], cutoff)


def quantum_plane(cutoff=12):
    x, y = NcPoly.gen(AB2, QQ_Q, 0), NcPoly.gen(AB2, QQ_Q, 1)
    return complete_truncated([y * x - (x * y).scale(RatFunc.q())], cutoff)


def space(cutoff=10):
    g = [NcPoly.gen(AB3, QQ, i) for i in range(3)]
    rels = [g[j] * g[i] - g[i] * g[j]
            for i in range(3) for j in range(i + 1, 3)]
    return complete_truncated(rels, cutoff)


def dual_numbers(cutoff=10):
    x = NcPoly.gen(AB1, QQ, 0)
    return complete_truncated([x * x], cutoff)


def test_module_dims():
    R = plane()
    A = GradedModulePresentation.algebra(R)
    assert [A.dim(d) for d in range(5)] == [1, 2, 3, 4, 5]
    k = GradedModulePresentation.trivial(R)
    assert [k.dim(d) for d in range(4)] == [1, 0, 0, 0]
    F = GradedModulePresentation.free(R, [0, 2])
    assert F.dim(2) == 3 + 1
    Q = GradedModulePresentation.quotient_truncation(R, 3)
    assert [Q.dim(d) for d in range(5)] == [1, 2, 3, 0, 0]
    # A_{>=2}, presented by the tail P^1 <- P^2 of the resolution of A/A_{>=2}
    rep = _quotient_resolution(R, 2, 2, R.cutoff)
    T = GradedModulePresentation(R, rep.betti[1], rep.differentials[1])
    assert [T.dim(d) for d in range(2, 6)] == [3, 4, 5, 6]
    assert T.dim(1) == 0


def test_koszul_resolutions():
    for R, shape, gd in [
        (line(), [[0], [1]], 1),
        (plane(), [[0], [1, 1], [2]], 2),
        (quantum_plane(), [[0], [1, 1], [2]], 2),
        (space(), [[0], [1, 1, 1], [2, 2, 2], [3]], 3),
    ]:
        rep = minimal_resolution(GradedModulePresentation.trivial(R), 6, R.cutoff)
        assert rep.betti == shape
        assert rep.minimal and rep.terminated and rep.length == gd
        assert global_dimension(R, 6, R.cutoff) == gd


def test_global_dimension_unbounded():
    gd = global_dimension(dual_numbers(), 4, 8)
    assert isinstance(gd, AtLeast) and gd.bound == 4


def test_graded_hom_dims():
    R = plane()
    A = GradedModulePresentation.algebra(R)
    for d in range(4):
        assert hom_dim(A, A, d) == A.dim(d)
    k = GradedModulePresentation.trivial(R)
    assert hom_dim(k, k, 0) == 1
    assert hom_dim(k, A, 0) == 0
    # cyclic quotient A/(x): identity map survives
    x = NcPoly.gen(AB2, QQ, 0)
    M = GradedModulePresentation(R, [0], [[x]])
    assert hom_dim(M, M, 0) >= 1
    assert [M.dim(d) for d in range(4)] == [1, 1, 1, 1]


def test_ext0_does_not_depend_on_the_order_of_summands():
    """A/(x) + A(-1) over the plane, given with shifts [0, 1] and [1, 0]:
    Ext^0 into A from the resolution is Hom into A, whose dims are those of
    A_{d+1}, 2, 3, 4 in degrees 0-2; betti[0] and the columns of the first
    differential list the summands in one order."""
    R = plane()
    A = GradedModulePresentation.algebra(R)
    x, zero = NcPoly.gen(AB2, QQ, 0), NcPoly.zero(AB2, QQ)
    for shifts, row in (([0, 1], [x, zero]), ([1, 0], [zero, x])):
        M = GradedModulePresentation(R, shifts, [row])
        rep = minimal_resolution(M, 2, 6)
        assert rep.betti == [[0, 1], [1]] and rep.terminated
        assert rep.differentials[0] == [[x, zero]]
        assert [_ext_dims_from_resolution(rep, A, d, 0) for d in range(3)] == \
            [hom_dim(M, A, d) for d in range(3)] == [2, 3, 4]


def ext_k_A(R, i, N):
    return _ext_k_A(_quotient_resolution(R, 1, i + 2, N),
                    GradedModulePresentation.algebra(R), i, N)


def test_ext_of_trivial_module():
    R = line()
    assert ext_k_A(R, 0, 10) == {}
    assert ext_k_A(R, 1, 10) == {-1: 1}
    R2 = plane()
    assert ext_k_A(R2, 1, 10) == {}
    assert ext_k_A(R2, 2, 10) == {-2: 1}


def test_gorenstein_suite():
    assert gorenstein_check(line(), 10) == {"passes": True, "d": 1}
    assert gorenstein_check(quantum_plane(), 10) == {"passes": True, "d": 2}
    assert gorenstein_check(space(), 9) == {"passes": True, "d": 3}
    free = RewriteSystem([], 6, AB2, QQ)
    rep = gorenstein_check(free, 6)
    assert not rep["passes"]
    assert not gorenstein_check(dual_numbers(), 8, p_max=4)["passes"]


def test_resolution_exactness_audit():
    """Euler characteristic of each graded slice of the resolution is zero.

    For the commutative plane the complex 0 -> A(-2) -> A(-1)^2 -> A -> k -> 0
    must have vanishing alternating dimension sum in every degree > 0.
    """
    R = plane()
    rep = minimal_resolution(GradedModulePresentation.trivial(R), 4, 10)
    A = GradedModulePresentation.algebra(R)
    for d in range(1, 8):
        total = 0
        sign = 1
        for shifts in rep.betti:
            total += sign * sum(A.dim(d - l) for l in shifts)
            sign = -sign
        assert total == 0


def test_stabilize_tail_plateau():
    assert _stabilize([0, 0, 0, 3, 3, 3, 3, 3]) == (3, 3)
    assert _stabilize([0, 1, 2, 3, 4]) == (UNSTABLE, -1)
    assert _stabilize([2, 2]) == (UNSTABLE, -1)
    assert _stabilize([5, 5, 5]) == (0, 0) or _stabilize([5, 5, 5]) == (5, 0)


def test_proj_cohomology_plane():
    R = plane(18)
    A = GradedModulePresentation.algebra(R)
    for d in range(4):
        rep = proj_cohomology(R, A, 0, d, 8)
        assert rep.stabilized_dim == d + 1
    for d in (2, 3, 4):
        rep = proj_cohomology(R, A, 1, -d, 8)
        assert rep.stabilized_dim == d - 1
        assert rep.stabilization_n <= d + 3
    assert proj_cohomology(R, A, 1, 0, 8).stabilized_dim == 0


def test_proj_cohomology_reports():
    R = plane(16)
    A = GradedModulePresentation.algebra(R)
    d = proj_cohomology(R, A, 1, -2, 6).to_dict()
    assert d["dim"] == 1 and d["j"] == 1 and len(d["values"]) == 7
    short = proj_cohomology(R, A, 0, 0, 1)
    assert short.stabilized_dim == UNSTABLE


def test_proj_cohomology_refuses_a_cutoff_below_its_depth(monkeypatch):
    """Y4's k has P^2 = A(-5), so T = 5 for H^0: its H^0(O(2)) to n_max 8
    reads k at B = 8 - 1 + 5 = 12 and, for d = 2 > 0, A in the Hom step
    to 14.  An R completed to 13 is refused up front, naming 14, before any
    A/A_{>=n} with n >= 2 is resolved; so is one completed to 11 for
    H^0(O(-3)), below B itself.  One completed to the depth answers."""
    y4 = parse_presentation(Y4)
    calls = resolved(monkeypatch)
    for cutoff, d, depth in ((13, 2, 14), (11, -3, 12)):
        R = build(y4, cutoff)
        with pytest.raises(CutoffExceededError, match=f"need {depth}$"):
            proj_cohomology(R, GradedModulePresentation.algebra(R), 0, d, 8)
        assert {n for n, _ in calls} <= {1}
        assert proj_depth(R, 8, 0, d) == depth
        R = build(y4, depth)
        assert proj_depth(R, 8, 0, d) == depth
        assert proj_cohomology(R, GradedModulePresentation.algebra(R), 0, d, 8).values == \
            [1 if d == 2 else 0] * 9
        del calls[:]


def fresh_resolution(Q, p, N):
    """Q's resolution built afresh, past the cache its rewrite system keeps."""
    return homology._Syzygies.start(Q).report(Q.ambient, p, N)


@pytest.mark.parametrize("system, cutoff", [(plane, 8), (quantum_plane, 8), (space, 7)],
                         ids=["plane", "QP", "C3"])
def test_a_resumed_resolution_equals_a_fresh_one(system, cutoff):
    """The cached resolution of A/A_{>=n}, built on from p_max 2 to 3 to 4
    and then asked for p_max 2 again, reports what a fresh one does."""
    R = system(cutoff)
    for n in range(5):
        Q = GradedModulePresentation.quotient_truncation(R, n)
        for p in (2, 3, 4, 2):
            got = _quotient_resolution(R, n, p, R.cutoff)
            want = fresh_resolution(Q, p, R.cutoff)
            assert got.betti == want.betti, (n, p)
            assert got.differentials == want.differentials, (n, p)
            assert (got.terminated, got.length) == (want.terminated, want.length), (n, p)


# k over x^2 = yxy = 0 has P^3 generators in degrees 3 and 5 and P^4 ones in
# degrees 4 and 7: read at N = 4, the row of the degree-4 generator of P^4
# must lose its entry on the degree-5 generator of P^3
ORACLE = dict(TRUNCATED, **{"x^2, yxy": "algebra M over Q { gens: x, y; rels: x*x; y*x*y; }"})


@pytest.mark.parametrize("name", list(ORACLE))
def test_a_resolution_read_below_the_cutoff_equals_one_built_there(name):
    """The cached resolution of A/A_{>=n}, built to the cutoff C and read at
    a degree bound N, reports what a build on the system completed to N
    does.  Deep and shallow requests, at C and below it, are interleaved, so
    levels are also built on while a view below C has ended."""
    text = ORACLE[name]
    C = 8 if name == "Sklyanin" else 10
    R = build(parse_presentation(text), C)
    systems, fresh = {}, {}    # N -> the system built at N; (n, p_max, N) -> its resolution

    def built_at(n, p, N):
        if (n, p, N) not in fresh:
            if N not in systems:
                systems[N] = build(parse_presentation(text), N)
            Q = GradedModulePresentation.quotient_truncation(systems[N], n)
            fresh[n, p, N] = fresh_resolution(Q, p, N)
        return fresh[n, p, N]

    requests = [(2, C)] + [r for N in range(3, C + 1) for r in ((4, N), (3, C), (2, N))]
    for n in range(4):
        for p, N in requests:
            assert _quotient_resolution(R, n, p, N) == built_at(n, p, N), (n, p, N)


@pytest.mark.parametrize("name", list(ORACLE))
def test_a_resolution_continued_upward_equals_one_built_there(name):
    """The cached resolution of A/A_{>=n}, asked for degree bounds that
    climb before the resolution is read deep, is continued upward from the
    degree it was built to and reports what a build on the system completed
    to N does.  Over x^2, yxy, P^4 of k is empty at N = 3 and gains its
    first generator, of degree 4, on a continuation."""
    text = ORACLE[name]
    C = 8 if name == "Sklyanin" else 10
    R = build(parse_presentation(text), C)
    systems = {}
    requests = [(2, 3), (4, 3), (3, 5), (2, 4), (4, 6), (2, 7), (4, C)]
    for n in range(4):
        for p, N in requests:
            if N not in systems:
                systems[N] = build(parse_presentation(text), N)
            Q = GradedModulePresentation.quotient_truncation(systems[N], n)
            assert _quotient_resolution(R, n, p, N) == fresh_resolution(Q, p, N), (n, p, N)
        assert R.cache.resolutions[n].built == C


def without_truncation(Q):
    """The rows of Q on a presentation not marked as a truncation, whose
    resolution takes the generic route to P^1 in every degree."""
    generic = GradedModulePresentation.free(Q.ambient, Q.shifts)
    generic.rows = list(Q.rows)
    return generic


@pytest.mark.parametrize("name", list(ORACLE))
def test_a_truncation_resolves_as_its_rows_do(name):
    """P^1 of A/A_{>=n} takes its ranks above degree n + w - 1, w the
    largest letter weight, from the Hilbert function and keeps no span
    there.  The resolution equals that of the same rows not marked as a
    truncation, read below, at and above n + w - 1 and continued from a
    shallow bound to a deep one; over the weighted algebras w = 2, so the
    generic route still runs in degree n + 1."""
    R = build(parse_presentation(ORACLE[name]), 7 if name == "Sklyanin" else 9)
    C, w = R.cutoff, max(R.alphabet.weights)
    k = GradedModulePresentation.trivial(R)
    assert k.truncation == 1 and without_truncation(k).truncation is None
    for N in range(C + 1):
        assert minimal_resolution(k, 4, N) == minimal_resolution(without_truncation(k), 4, N), N
    for n in range(6):
        Q = GradedModulePresentation.quotient_truncation(R, n)
        assert Q.truncation == n
        generic = without_truncation(Q)
        bounds = sorted({N for N in (n + w - 2, n + w - 1, n + w, C) if 0 <= N <= C})
        for N in bounds:
            assert minimal_resolution(Q, 4, N) == minimal_resolution(generic, 4, N), (n, N)
        closed, open_ = homology._Syzygies.start(Q), homology._Syzygies.start(generic)
        for N in (bounds[0], C):
            assert closed.report(R, 4, N) == open_.report(R, 4, N), (n, N)
            assert closed.levels[0].ranks == open_.levels[0].ranks, (n, N)
        assert not any(D > n + w - 1 for D in closed.levels[0].spans), n


def test_the_top_degree_of_each_level_is_resolved():
    """k over k[x]/(x^3) has its P^2 generator exactly at degree 3 and its
    P^3 one at degree 4: each level built to N takes degree N itself,
    whether fresh, cached or continued from N = 3 to N = 4."""
    text = "algebra D over Q { gens: x; rels: x*x*x; }"
    want = {3: [[0], [1], [3]], 4: [[0], [1], [3], [4]]}
    continued = build(parse_presentation(text), 4)
    for N, betti in want.items():
        R = build(parse_presentation(text), 4)
        assert minimal_resolution(GradedModulePresentation.trivial(R), 4, N).betti == betti, N
        assert _quotient_resolution(R, 1, 4, N).betti == betti, N
        assert _quotient_resolution(continued, 1, 4, N).betti == betti, N


def times_column_by_column(P, poly, v, d):
    """poly . v for a sparse degree-d cover vector v: each word of poly acts
    through the letter maps of the free cover, which the rewrite system
    keeps, one letter at a time from the right, on v alone."""
    R = P.ambient
    one = R.field.one
    cover = GradedModulePresentation.free(R, P.shifts)
    out = {}
    for w, c in poly.terms.items():
        u, e = v, d
        for x in reversed(w):
            u = homology._apply(cover._letter_map(x, e), u, one)
            e += R.alphabet.weights[x]
        if c != one:
            u = {t: y * c for t, y in u.items()}
        for t, y in u.items():
            out[t] = out[t] + y if t in out else y
    return out


def hom_rank_column_by_column(P, shifts, rows, d):
    """_hom_rank with each image row[i] . e_c made one free column at a time."""
    offsets, ncols = [], 0
    for D, _ in rows:
        offsets.append(ncols)
        ncols += P.dim(D + d)
    span = SpanTracker(ncols, P.ambient.field)
    for i, l in enumerate(shifts):
        for c in P._free_columns(l + d):
            v = {}
            for offset, (D, row) in zip(offsets, rows):
                if row[i]:
                    image = times_column_by_column(P, row[i], {c: P.ambient.field.one}, l + d)
                    v.update((offset + t, x) for t, x in P.quotient_coords(image, D + d).items())
            span.add(v)
    return span.dim()


@pytest.mark.parametrize("name", ["plane", "QP", "C3", "weighted C3"])
def test_hom_ranks_equal_the_column_by_column_route(name):
    """_hom_rank makes row[i] . e_c for every free column c at once; its
    ranks equal those of one free column at a time, over Q and Q(q), into
    modules with relations (so quotient coordinates are not the cover's),
    for the differentials of A/A_{>=3}, whose P^1 -> P^0 entries are the
    words of degree 3 (of length 2 or 3 when y has weight 2), and for the
    rows of the modules themselves.  The row x*y + y*y (x*y + z*y when y
    has weight 2) has two normal words with one last letter, so the second
    word's image starts from the suffix image the first one made."""
    R = build(parse_presentation(ORACLE[name]), 8)
    gen = {s: NcPoly.gen(R.alphabet, R.field, i) for s, i in R.alphabet.index.items()}
    x, y = gen["x"], gen["y"]
    first = gen["z"] if name == "weighted C3" else y
    shared = GradedModulePresentation(R, [0], [[(x + first) * y]])
    words = shared.rows[0][1][0].terms
    assert len(words) == 2 and {w[-1] for w in words} == {R.alphabet.index["y"]}
    tail = _quotient_resolution(R, 2, 2, R.cutoff)
    modules = [GradedModulePresentation.algebra(R), GradedModulePresentation.trivial(R),
               GradedModulePresentation(R, [0], [[x]]),
               GradedModulePresentation.quotient_truncation(R, 3),
               GradedModulePresentation(R, tail.betti[1], tail.differentials[1]), shared]
    rep = _quotient_resolution(R, 3, 3, 6)
    assert min(len(w) for row in rep.differentials[0] for w in row[0].terms) >= 2
    maps = [(rep.betti[i], list(zip(rep.betti[i + 1], rep.differentials[i])))
            for i in range(len(rep.differentials))]
    ranks = []
    for P in modules:
        for shifts, rows in maps + [(M.shifts, M.rows) for M in modules if M.rows]:
            for d in range(-4, 2):
                if max(D for D, _ in rows) + d <= R.cutoff:
                    got = homology._hom_rank(P, shifts, rows, d)
                    assert got == hom_rank_column_by_column(P, shifts, rows, d)
                    ranks.append(got)
    assert any(ranks)


# the degree each cached resolution of A/A_{>=n} is built to, by n, after
# the queries of the test below: k (n = 1) is read at B = n_max - 1 + T for
# each query, A/A_{>=n} at n - 1 + T only where the exact sequence of k does
# not decide value n, and A/A_{>=0} never
RESOLVED = {"plane": {1: 6, 2: 5}, "QP": {1: 6, 2: 5}, "C3": {1: 6},
            "Sklyanin": {1: 6}, "weighted plane": {1: 6}, "cubic": {1: 6},
            "weighted C3": {1: 6}, "weighted x, z, y:2": {1: 6, 2: 5, 3: 6}}


@pytest.mark.parametrize("name", list(TRUNCATED))
def test_proj_cohomology_read_at_its_depth_equals_the_cutoff_route(name):
    """Value n of H^j(A[d]) is read off a resolution built only to
    n - 1 + T, or decided by the exact sequence of k; it equals the value
    read off one built to the cutoff of a second system, through the same
    Ext assembly."""
    text = TRUNCATED[name]
    C = 7 if name == "Sklyanin" else 10
    R, deep = build(parse_presentation(text), C), build(parse_presentation(text), C)
    A, A_deep = GradedModulePresentation.algebra(R), GradedModulePresentation.algebra(deep)
    for j in range(3):
        for d in (-3, -1, 0, 2):
            if proj_depth(R, 3, j, d) > C:
                continue
            want = []
            for n in range(4):
                rep = _quotient_resolution(deep, n, j + 2, deep.cutoff)
                tail = replace(rep, betti=rep.betti[1:], differentials=rep.differentials[1:])
                want.append(_ext_dims_from_resolution(tail, A_deep, d, j))
            assert proj_cohomology(R, A, j, d, 3).values == want, (j, d)
    assert {n: res.built for n, res in R.cache.resolutions.items()} == RESOLVED[name]


def test_global_dimension_reads_the_resolution_proj_cohomology_built(monkeypatch):
    """On P^1 at cutoff 17, H^2(O(-3)) to n_max 6 resolves A/A_{>=n} only
    for n = 2, only as deep as its value reads, 2 - 1 + T with T = 4, and
    reads k = A/A_{>=1} once, at B = 6 - 1 + 4 = 9.  Global dimension at
    degree bound 8 reads that one without building on it; at 15 it
    continues it from degree 10, without adding a key or starting afresh."""
    R = plane(17)
    assert proj_cohomology(R, GradedModulePresentation.algebra(R), 2, -3, 6).stabilized_dim == 0
    assert {n: res.built for n, res in R.cache.resolutions.items()} == {1: 9, 2: 5}
    k = R.cache.resolutions[1]
    degrees = []
    minimal_generators = homology._minimal_generators
    monkeypatch.setattr(homology, "_minimal_generators",
                        lambda ds, *rest: degrees.extend(ds) or minimal_generators(ds, *rest))
    assert global_dimension(R, 4, 8) == 2
    assert R.cache.resolutions[1] is k and k.built == 9 and not degrees
    assert global_dimension(R, 4, 15) == 2
    assert list(R.cache.resolutions) == [1, 2]
    assert R.cache.resolutions[1] is k and k.built == 15
    assert degrees and min(degrees) == 10 and max(degrees) == 15


def test_readers_of_k_start_one_resolution(monkeypatch):
    """On k[x, y, z] at cutoff 9, the Gorenstein check and then a resolution
    of k to P^5 start one resolution of k, whose report equals a fresh one;
    a module that is not a truncation is started afresh on every read."""
    R = space(9)
    starts = []
    start = homology._Syzygies.start
    monkeypatch.setattr(homology._Syzygies, "start",
                        staticmethod(lambda M: starts.append(M.truncation) or start(M)))
    assert gorenstein_check(R, 9) == {"passes": True, "d": 3}
    k = GradedModulePresentation.trivial(R)
    rep = minimal_resolution(k, 5, 9)
    assert starts == [1]
    assert rep == fresh_resolution(k, 5, 9)
    M = GradedModulePresentation(R, [0], [[NcPoly.gen(AB3, QQ, 0)]])
    del starts[:]
    assert minimal_resolution(M, 2, 6) == minimal_resolution(M, 2, 6)
    assert starts == [None, None]


def proj_cohomology_n_by_n(R, M, j, d, n_max, deeper=0):
    """proj_cohomology with every value n read off the resolution of
    A/A_{>=n} at n - 1 + T + deeper, T as proj_cohomology finds it: no value
    is carried over from n - 1."""
    T = homology._read_k(R, j, n_max)[0] + deeper
    values = []
    for n in range(n_max + 1):
        rep = _quotient_resolution(R, n, j + 2, n - 1 + T)
        tail = replace(rep, betti=rep.betti[1:], differentials=rep.differentials[1:])
        values.append(_ext_dims_from_resolution(tail, M, d, j))
    return homology.CohomologyReport(j, d, *_stabilize(values), values)


Y4 = "algebra Y4 over Q { gens: x, y:4; rels: y*x - x*y; }"
X5 = "algebra X5 over Q { gens: x, y; rels: x*x*x*x*x - y*y*y*y*y; }"
# k's P^2 and P^3 reach degrees 4 and 5, above j + 2 for H^0 and H^1
Y3C3 = "algebra T over Q { gens: x, z, y:3; rels: z*x - x*z; y*x - x*y; y*z - z*y; }"
PROJ_GRID = dict(ORACLE, Y4=Y4, X5=X5, **{"weighted C3 y:3": Y3C3})


@pytest.mark.parametrize("name", list(PROJ_GRID))
def test_proj_cohomology_equals_the_route_that_reads_every_n(name):
    """Every report of H^j(A[d]), j = 0..3, d = -4..2 and n_max 5 (d <= 1
    and n_max 3 on Sklyanin, whose every-n route takes seconds per query
    there), decided by the exact sequence of k where it applies, equals the
    one that reads every A/A_{>=n} at the same depth, on a second system,
    each completed as the CLI completes it for those j and twists."""
    p = parse_presentation(PROJ_GRID[name])
    n_max, twists = (3, range(-4, 2)) if name == "Sklyanin" else (5, range(-4, 3))
    R, every_n = (_built_for_proj(p, n_max, range(4), max(twists)) for _ in range(2))
    A, A_every_n = (GradedModulePresentation.algebra(S) for S in (R, every_n))
    for j in range(4):
        for d in twists:
            assert proj_cohomology(R, A, j, d, n_max) == \
                proj_cohomology_n_by_n(every_n, A_every_n, j, d, n_max), (j, d)


def resolved(monkeypatch):
    """The (truncation, N) of every minimal_resolution read, in order."""
    calls = []
    resolution = homology.minimal_resolution
    monkeypatch.setattr(homology, "minimal_resolution",
                        lambda M, p, N: calls.append((M.truncation, N)) or resolution(M, p, N))
    return calls


def test_a_step_the_exact_sequence_does_not_carry_resolves_its_truncation(monkeypatch):
    """The plane's H^1(O(-3)) moves at the step 1 -> 2, where Ext^1(k, A[-2])
    is 0 and Ext^2(k, A[-2]) is k: past k's length 2, value 2 is 0 + dim A_1
    . 1 = 2, and every step reads only k, once, at B = 4 - 1 + T with T =
    3.  Its H^2(O(-3)) has Ext^2(k, A[-2]) != 0 at that step, which the
    exact sequence does not decide: value 2 is read off A/A_{>=2}, at 2 - 1
    + T with T = 4."""
    R = plane(12)
    A = GradedModulePresentation.algebra(R)
    calls = resolved(monkeypatch)
    assert proj_cohomology(R, A, 1, -3, 4).values == [0, 0, 2, 2, 2]
    assert calls == [(1, 6)]
    del calls[:]
    assert proj_cohomology(R, A, 2, -3, 4).values == [0, 0, 0, 0, 0]
    assert calls == [(1, 7), (2, 5)]


def test_y4_values_meet_their_oracles():
    """Y4 = k[x, y], y of weight 4, is AS-regular with Gorenstein parameter
    5, so H^0(O(m)) = dim A_m and H^1(O(m)) = dim A_{-m-5}.  Its k has P^2
    = A(-5), so T = 5: a value read at n + j + 2 + |d| missed it, and H^0
    at m = -1, 0, 1 read [0, 2, 2, 2, 2, 6], [1, 1, 3, 3, 4, 4] and [1, 3,
    3, 4, 4, 7] to n_max 5."""
    p = parse_presentation(Y4)
    R = _built_for_proj(p, 8, [0, 1], 3)
    A = GradedModulePresentation.algebra(R)
    assert _quotient_resolution(R, 1, 2, R.cutoff).betti == [[0], [1, 4], [5]]
    dims = hilbert_function(R, 5)
    for m in range(-1, 4):
        assert proj_cohomology(R, A, 0, m, 5).values == [dims[m] if m >= 0 else 0] * 6, m
    for m in range(-10, -3):
        assert proj_cohomology(R, A, 1, m, 8).stabilized_dim == \
            (dims[-m - 5] if -m - 5 >= 0 else 0), m


X3Y7 = "algebra G over Q { gens: x, y:7; rels: x^3; }"
# the reports that changed when every value came to be read at n - 1 + T,
# n_max 5, as the CLI completes for them: (algebra, j, d, values)
MENDED = [("Y4", 0, -1, [0] * 6), ("Y4", 0, 0, [1] * 6), ("Y4", 0, 1, [1] * 6),
          ("X5", 0, -1, [0] * 6), ("X5", 0, 0, [1] * 6), ("X5", 0, 1, [2] * 6),
          ("X5", 1, 0, [0, 28, 136, 552, 2152, 8328]),
          ("weighted C3 y:3", 0, 0, [1] * 6), ("weighted C3 y:3", 1, 0, [0] * 6),
          ("x^2, yxy", 3, 0, [0, 4, 12, 16, 16, 16]),
          # k's P^1 = A(-1) + A(-7) lies above T = 6, and its Hom columns, which
          # no row of P^2 reaches, are not read: this stopped with "degree 12
          # exceeds cutoff 11"
          ("x^3, y:7", 2, 1, [0] * 6)]


@pytest.mark.parametrize("name, j, d, values", MENDED,
                         ids=[f"{name}-j{j}-d{d}" for name, j, d, _ in MENDED])
def test_a_value_read_at_its_depth_equals_one_read_deeper(name, j, d, values):
    """Each report equals the route that reads every A/A_{>=n} 3 degrees
    deeper, on a system completed 3 degrees deeper."""
    p = parse_presentation(PROJ_GRID.get(name, X3Y7))
    R = _built_for_proj(p, 5, [j], d)
    deep = build(p, R.cutoff + 3)
    got = proj_cohomology(R, GradedModulePresentation.algebra(R), j, d, 5)
    assert got.values == values
    assert got == proj_cohomology_n_by_n(deep, GradedModulePresentation.algebra(deep),
                                         j, d, 5, deeper=3)


@pytest.mark.parametrize("name", ["plane", "QP", "C3"])
def test_a_gorenstein_query_resolves_only_where_k_does_not_decide(name, monkeypatch):
    """Over the plane, QP and C3, no H^j(A[d]) with j = 0..2 and d = -5..3
    resolves A/A_{>=n} for n != 1, except at a step where Ext^j(k,
    A[n-1+d]) != 0, which the exact sequence of k does not decide; the
    plane's and QP's H^2 at d <= -3 take such a step, C3 never does."""
    p = parse_presentation(ORACLE[name])
    R = _built_for_proj(p, 4, range(3), 3)
    A = GradedModulePresentation.algebra(R)
    k = _quotient_resolution(R, 1, 4, R.cutoff)
    calls = resolved(monkeypatch)
    steps = set()
    for j in range(3):
        for d in range(-5, 4):
            del calls[:]
            proj_cohomology(R, A, j, d, 4)
            steps.update((j, d, n) for n, _ in calls if n != 1)
    assert all(_ext_dims_from_resolution(k, A, n - 1 + d, j) for j, d, n in steps)
    assert steps == (set() if name == "C3" else {(2, d, -1 - d) for d in range(-5, -2)})


def test_cd_estimate_plane():
    R = plane(16)
    assert cd_estimate(R, 2, range(-3, 2), 8) == 1


def test_cd_estimate_rejects_an_empty_window():
    # no twist is read, so no dimension is estimated: not a cd of 0
    with pytest.raises(ValueError, match="no twist"):
        cd_estimate(plane(16), 2, range(2, -2), 8)


def test_letter_tables_hold_each_normal_word_once():
    R = quantum_plane(17)
    A = GradedModulePresentation.algebra(R)
    assert proj_cohomology(R, A, 0, 1, 4).stabilized_dim == 2
    assert proj_cohomology(R, A, 1, -2, 5).stabilized_dim == 1
    cache = R.cache
    assert cache.letters
    for (x, d), table in cache.letters.items():
        # one entry per normal word u of degree d, in the order of the basis,
        # holding indices of normal words of degree d + 1 and no word itself
        assert len(table) == len(normal_words(R, d))
        for entry in table:
            assert type(entry) is tuple and entry
            for k, c in entry:
                assert type(k) is int and 0 <= k < len(normal_words(R, d + 1))
                assert c and not isinstance(c, tuple)
    # each normal word is one object, kept by its degree's basis and
    # shared by the index of that basis
    stored = {}
    for words in cache.words:
        for w in words:
            assert stored.setdefault(w, w) is w
    for d, position in cache.position.items():
        assert len(position) == len(cache.words[d])
        for w, k in position.items():
            assert cache.words[d][k] is w


@pytest.mark.parametrize("text, cutoff, gldim, ell", [
    ("algebra C3 over Q { gens: x, y, z; rels: y*z - z*y; z*x - x*z; x*y - y*x; }",
     7, 3, 3),
    ("algebra QP over Q(q) { gens: x, y; rels: y*x - q*x*y; }", 8, 2, 2),
    ("algebra S over Q { gens: x, y, z; "
     "rels: y*z + 2*z*y + 3*x*x; z*x + 2*x*z + 3*y*y; x*y + 2*y*x + 3*z*z; }", 6, 3, 3),
    ("algebra Cu over Q { gens: x, y; rels: y*x*x - x*x*y; y*y*x - x*y*y; }", 8, 3, 4),
    ("algebra W over Q { gens: x:1, y:2; rels: y*x - x*y; }", 8, 2, 3),
])
def test_as_regular_betti_tables_are_symmetric(text, cutoff, gldim, ell):
    """The resolution of k over an AS-regular algebra is self-dual: the
    shifts of betti[i] are ell minus those of betti[gldim - i]."""
    R = build(parse_presentation(text), cutoff)
    rep = minimal_resolution(GradedModulePresentation.trivial(R), gldim + 1, cutoff)
    assert rep.terminated and rep.length == gldim
    assert rep.betti[gldim] == [ell]
    for i in range(gldim + 1):
        assert rep.betti[i] == sorted(ell - s for s in rep.betti[gldim - i])


def test_a_rewrite_system_is_freed_without_the_cycle_collector():
    """R, its caches and the modules over it hold no reference cycle: with
    the cycle collector off, R is freed as soon as the last name goes.  A
    cycle would keep every cached system alive until a collection runs."""
    gc.disable()
    try:
        R = plane(10)
        ref = weakref.ref(R)
        A = GradedModulePresentation.algebra(R)
        k = GradedModulePresentation.trivial(R)
        assert proj_cohomology(R, A, 0, 1, 3).stabilized_dim == 2
        assert gorenstein_check(R, 7, 4) == {"passes": True, "d": 2}
        assert minimal_resolution(k, 3, 7).length == 2
        del R, A, k
        assert ref() is None
    finally:
        gc.enable()


SKLYANIN = ("algebra S over Q { gens: x, y, z; "
            "rels: y*z + 2*z*y + 3*x*x; z*x + 2*x*z + 3*y*y; x*y + 2*y*x + 3*z*z; }")


@pytest.fixture(scope="module")
def sklyanin():
    """The (1,2,3) Sklyanin algebra, AS-regular of dimension 3, at cutoff 10."""
    return build(parse_presentation(SKLYANIN), 10)


def test_sklyanin_has_the_hilbert_series_of_a_polynomial_ring(sklyanin):
    A = GradedModulePresentation.algebra(sklyanin)
    assert [A.dim(d) for d in range(11)] == [(d + 1) * (d + 2) // 2 for d in range(11)]


def test_sklyanin_proj_cohomology(sklyanin):
    A = GradedModulePresentation.algebra(sklyanin)
    # H^0(O(1)) = A_1
    assert proj_cohomology(sklyanin, A, 0, 1, 3).stabilized_dim == 3
    # H^2(O(-3)) is dual to H^0(O) = A_0: Serre duality with omega = O(-3)
    assert proj_cohomology(sklyanin, A, 2, -3, 3).stabilized_dim == 1


def test_sklyanin_proj_cohomology_to_deep_truncations():
    """Carried across truncations by the exact sequence of k, H^0(O(1))
    stays dim A_1 = 3 up to n_max 5, and H^2(O(-3)) stays dim A_0 = 1
    (Serre duality with omega = O(-3)) up to n_max 4."""
    p = parse_presentation(SKLYANIN)
    R = build(p, 7)
    assert proj_depth(R, 5, 0, 1) == proj_depth(R, 4, 2, -3) == 7
    A = GradedModulePresentation.algebra(R)
    assert proj_cohomology(R, A, 0, 1, 5).values == [3] * 6
    assert proj_cohomology(R, A, 2, -3, 4).values == [0, 1, 1, 1, 1]


def test_sklyanin_is_gorenstein(sklyanin):
    assert gorenstein_check(sklyanin, 7, 4) == {"passes": True, "d": 3}


def test_a_resolution_read_below_the_cutoff_builds_no_deeper(monkeypatch):
    """The resolution of k on Sklyanin at cutoff 10, read at degree bound 6,
    takes no letter table into a degree above 6.  The letter maps are kept
    on the rewrite system, so a fresh one reads every table it needs."""
    sklyanin = build(parse_presentation(SKLYANIN), 10)
    read = []
    table = homology.letter_table
    monkeypatch.setattr(homology, "letter_table",
                        lambda R, x, d: read.append(d + R.alphabet.weights[x]) or table(R, x, d))
    rep = minimal_resolution(GradedModulePresentation.trivial(sklyanin), 4, 6)
    assert rep.betti == [[0], [1, 1, 1], [2, 2, 2], [3]] and rep.terminated
    assert read and max(read) <= 6


def test_each_letter_map_is_built_once_per_rewrite_system(monkeypatch):
    """The P^1 jobs of the proj-colimit benchmark on one R (H^0(O(d)) for
    d = 0..5 at n_max = d + 3, H^1(O(-d)) for d = 2..5, cd and global
    dimension) build one letter map per (shifts, letter, degree): every
    continuation of a resolution and every module with those shifts reads
    the same map object."""
    R = plane(17)
    built = {}
    letter_map = GradedModulePresentation._letter_map

    def spy(self, x, d):
        m = letter_map(self, x, d)
        built.setdefault((self.shifts, x, d), {})[id(m)] = m
        return m

    monkeypatch.setattr(GradedModulePresentation, "_letter_map", spy)
    A = GradedModulePresentation.algebra(R)
    assert [proj_cohomology(R, A, 0, d, d + 3).stabilized_dim for d in range(6)] == \
        [1, 2, 3, 4, 5, 6]
    assert [proj_cohomology(R, A, 1, -d, d + 3).stabilized_dim for d in range(2, 6)] == \
        [1, 2, 3, 4]
    assert cd_estimate(R, 2, range(-3, 2), 6) == 1
    assert global_dimension(R, 4, 10) == 2
    builds = sum(map(len, built.values()))
    assert built and builds == len(built), (builds, len(built))
    F, G = GradedModulePresentation.free(R, [0, 1]), GradedModulePresentation.free(R, [0, 1])
    assert F._letter_map(1, 3) is G._letter_map(1, 3)


def count_hom_ranks(monkeypatch):
    calls = []
    hom_rank = homology._hom_rank
    monkeypatch.setattr(homology, "_hom_rank",
                        lambda *args: calls.append(args) or hom_rank(*args))
    return calls


def test_each_ext_rank_is_computed_once(monkeypatch):
    """gorenstein_check computes the rank of each d_i^* at each twist once,
    where reading Ext^{i-1} and Ext^i would compute it twice: the algebra it
    reads into keeps each rank.  The report is that of the uncounted call,
    on a module of its own."""
    R = space(9)
    want = gorenstein_check(R, 9)
    calls = count_hom_ranks(monkeypatch)
    assert gorenstein_check(R, 9) == want == {"passes": True, "d": 3}
    assert len(calls) == 30


def test_queries_on_one_module_share_its_hom_ranks(monkeypatch):
    """The P^1 jobs of the proj-colimit benchmark on one A (H^0(O(d)) for
    d = 0..5 at n_max = d + 3, then H^1(O(-d)) for d = 2..5) compute 29 Hom
    ranks, where a memo per query computed 102, and cd_estimate over the
    twists -3..1 computes 13 on its own A, where it computed 38.  Each
    report equals the one read on a fresh module per query, on a second
    system: proj_cohomology_n_by_n reads through the same ranks, so it
    cannot check them."""
    queries = [(0, d, d + 3) for d in range(6)] + [(1, -d, d + 3) for d in range(2, 6)]
    S = plane(17)
    want = [proj_cohomology(S, GradedModulePresentation.algebra(S), *q).to_dict()
            for q in queries]
    R = plane(17)
    A = GradedModulePresentation.algebra(R)
    calls = count_hom_ranks(monkeypatch)
    assert [proj_cohomology(R, A, *q).to_dict() for q in queries] == want
    assert len(calls) == 29
    del calls[:]
    assert cd_estimate(R, 2, range(-3, 2), 6) == 1
    assert len(calls) == 13


def test_a_hom_rank_is_kept_under_the_rows_of_its_map():
    """A/Ax and A/Ay over the plane resolve with one Betti table, [[0], [1]],
    and differ only in their rows, x and y.  Read into one M = A/Ax = k[y],
    in either order, Ext^0 and Ext^1 at d = 0..3 are 1 and 1 from A/Ax (x
    acts on M as 0) and 0 and 0 from A/Ay (y acts injectively), as on fresh
    modules: M keeps each rank under the rows of its map, not its shifts."""
    R = plane()
    x, y = NcPoly.gen(AB2, QQ, 0), NcPoly.gen(AB2, QQ, 1)
    reps = {g: minimal_resolution(GradedModulePresentation(R, [0], [[g]]), 2, 6)
            for g in (x, y)}
    assert [(rep.betti, rep.differentials) for rep in reps.values()] == \
        [([[0], [1]], [[[x]]]), ([[0], [1]], [[[y]]])]

    def exts(g, M):
        return [[_ext_dims_from_resolution(reps[g], M, d, i) for d in range(4)]
                for i in (0, 1)]

    want = {x: [[1] * 4] * 2, y: [[0] * 4] * 2}
    for order in ((x, y), (y, x)):
        M = GradedModulePresentation(R, [0], [[x]])
        for g in order:
            assert exts(g, M) == exts(g, GradedModulePresentation(R, [0], [[x]])) == want[g]
