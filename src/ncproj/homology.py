"""Degreewise exact homological algebra for graded left modules.

Everything reduces to linear algebra over the coefficient field against
normal-word bases: minimal free resolutions, graded Hom/Ext dimensions,
AS-Gorenstein checks, and Proj cohomology through truncation colimits.  No
spectral machinery; each graded piece is computed exactly.

Every product goes through the letter tables (rewriting.letter_table): a.v
for a normal word a = x.a' is x times a'.v, so spans, kernels and Hom maps
are built one degree at a time from the degrees below, each rank in the one
SpanTracker.  P^1 of a truncation A/A_{>=n} is A_{>=n}, whose rank in each
degree is read off the Hilbert function once its generators are found.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

from . import linalg
from .rewriting import (CutoffExceededError, hilbert_function, letter_table, normal_form,
                        normal_words)
from .words import NcPoly

UNSTABLE = "UNSTABLE"


@dataclass(frozen=True)
class AtLeast:
    """Lower bound returned when a resolution does not terminate in bounds."""
    bound: int

    def __repr__(self):
        return f"AT_LEAST({self.bound})"


def _apply(images, v, one):
    """The sparse sum of s * images[c] over the entries c: s of v, where
    images[c] lists (coordinate, coefficient) pairs; one is never a factor."""
    out = {}
    for c, s in v.items():
        for t, a in images[c]:
            y = s if a is one else a if s is one else s * a
            out[t] = out[t] + y if t in out else y
    return {t: y for t, y in out.items() if y}


def _minimal_generators(degrees, field, candidates, grow, spans):
    """Minimal generators, degree by degree, over a range of degrees.

    candidates(d) returns (ncols, total, find): the length of the degree-d
    vectors, the dimension of the degree-d part of the whole submodule when
    known up front (else ncols), and find() -> (vectors, make): the sparse
    degree-d candidates and make(k), the generator vectors[k] stands for.
    grow(spans, d) lists degree-d vectors spanning what the spans of the
    degrees done so far generate in degree d.  A candidate is kept when it
    is outside that and the candidates kept before it.  A span of dimension
    total is the whole degree-d part: growing stops, and find is not called.
    Fills spans[d] for each degree d; returns the kept (degree, generator) pairs.
    """
    gens = []
    for d in degrees:
        ncols, total, find = candidates(d)
        span = linalg.SpanTracker(ncols, field)
        for v in grow(spans, d):
            if span.dim() == total:
                break
            span.add(v)
        if span.dim() != total:
            vectors, make = find()
            for k, v in enumerate(vectors):
                if span.add(v):
                    gens.append((d, make(k)))
                    if span.dim() == total:
                        break
        spans[d] = span
    return gens


def _relation_candidates(cover, rows):
    """The candidates (see _minimal_generators) of the submodule of the free
    module cover that the rows (degree, row) generate: the degree-d rows."""
    def candidates(d):
        here = [row for D, row in rows if D == d]
        ncols = len(cover.free_basis(d))
        return ncols, ncols, lambda: (
            [cover._expand(row, d) for row in here], here.__getitem__)
    return candidates


class GradedModulePresentation:
    """Left module presented as the cokernel of rows mapping into a free cover.

    The free cover is ⊕_i A(-shifts[i]); each row is a homogeneous vector
    (one NcPoly per cover summand) and the module is the cokernel of the
    submodule those rows generate.  truncation is n for A/A_{>=n} made by
    quotient_truncation, else None.  The module keeps what its rows decide:
    per degree its relation span and free columns, and each Hom rank into it.
    """

    def __init__(self, ambient, shifts, rows):
        self.ambient = ambient
        self.shifts = tuple(shifts)
        self.rows = []
        for row in rows:
            row = [p if p.is_zero() else normal_form(p, ambient) for p in row]
            degs = {p.degree() + self.shifts[i]
                    for i, p in enumerate(row) if not p.is_zero()}
            if len(degs) > 1:
                raise ValueError("relation row is not homogeneous w.r.t. the shifts")
            if degs:
                self.rows.append((degs.pop(), row))
        self.truncation = None
        self._span_cache = {}
        self._free_cache = {}
        self._rank_cache = {}

    # -- canonical constructors --------------------------------------------

    @staticmethod
    def free(R, shifts):
        return GradedModulePresentation(R, shifts, [])

    @staticmethod
    def algebra(R):
        return GradedModulePresentation(R, [0], [])

    @staticmethod
    def trivial(R):
        """The trivial module k = A/A_{>=1}."""
        return GradedModulePresentation.quotient_truncation(R, 1)

    @staticmethod
    def quotient_truncation(R, n):
        """A/A_{>=n}, presented by the normal words of degrees n .. n + w - 1
        (at most the cutoff), w the largest letter weight: every longer normal
        word ends in one of them, so they generate A_{>=n}.  The rows are
        already in normal form: no normal form is taken again."""
        module = GradedModulePresentation.free(R, [0])
        top = min(n + max(R.alphabet.weights) - 1, R.cutoff)
        module.rows = [(d, [NcPoly.word(R.alphabet, R.field, w)])
                       for d in range(n, top + 1) for w in normal_words(R, d)]
        module.truncation = n
        return module

    # -- graded slices ------------------------------------------------------

    def free_basis(self, d):
        return self._slice(d)[0]

    def _slice(self, d):
        """The degree-d basis (summand, word) of the free cover and its index,
        kept on the rewrite system under the shifts."""
        slices, key = self.ambient.cache.slices, (self.shifts, d)
        if (hit := slices.get(key)) is None:
            basis = [(i, w) for i, l in enumerate(self.shifts) if d - l >= 0
                     for w in normal_words(self.ambient, d - l)]
            hit = slices[key] = (basis, {bw: k for k, bw in enumerate(basis)})
        return hit

    def _expand(self, vec_polys, d):
        """Vector of NcPolys (one per summand) -> sparse coordinates in degree d."""
        index = self._slice(d)[1]
        return {index[(i, w)]: c for i, p in enumerate(vec_polys)
                for w, c in p.terms.items()}

    def _letter_map(self, x, d):
        """Multiplication by the letter x from cover degree d to d + w(x), kept
        on the rewrite system under the shifts: per column, the letter table
        entry of its word, offset to its summand (shared as is at offset 0)."""
        R, key = self.ambient, (self.shifts, x, d)
        if (hit := R.cache.letter_maps.get(key)) is None:
            hit, offset = [], 0        # offset: the summand's first column in degree d + w(x)
            for l in self.shifts:
                if d >= l:
                    table = letter_table(R, x, d - l)
                    hit.extend(table if not offset else
                               (tuple((offset + k, a) for k, a in entry) for entry in table))
                offset += len(normal_words(R, d + R.alphabet.weights[x] - l))
            R.cache.letter_maps[key] = hit
        return hit

    def _grow(self, spans, d):
        """x . row for every letter x and every row of spans[d - w(x)]:
        they span the degree-d part of the submodule the spans generate."""
        one = self.ambient.field.one
        for x, wx in enumerate(self.ambient.alphabet.weights):
            span = spans.get(d - wx)
            if span is not None:
                images = self._letter_map(x, d - wx)
                for row in span.rows.values():
                    yield _apply(images, row, one)

    def submodule_span(self, d):
        """Row space of the relation submodule in internal degree d, filled
        degree by degree: the letters times the spans below, plus the rows."""
        spans = self._span_cache
        if d not in spans:
            low = min([D for D, _ in self.rows if D < d], default=d)
            _minimal_generators([e for e in range(low, d + 1) if e not in spans],
                                self.ambient.field, _relation_candidates(self, self.rows),
                                self._grow, spans)
        return spans[d]

    def dim(self, d):
        if d < min(self.shifts, default=0):
            return 0
        return len(self.free_basis(d)) - self.submodule_span(d).dim()

    def _free_columns(self, d):
        """The free-cover columns of degree d that are not relation pivots,
        in order, each mapped to its position among them: the basis of the
        quotient module slice."""
        hit = self._free_cache.get(d)
        if hit is None:
            rows = self.submodule_span(d).rows
            free = (c for c in range(len(self.free_basis(d))) if c not in rows)
            hit = {c: k for k, c in enumerate(free)}
            self._free_cache[d] = hit
        return hit

    def quotient_coords(self, vec, d):
        """Sparse coordinates {position: scalar} of a sparse free-cover
        vector in the quotient module slice."""
        span = self.submodule_span(d)
        if not span.rows:
            # no relations in degree d: the slice is the free cover's
            return {c: x for c, x in vec.items() if x}
        position = self._free_columns(d)
        # the residue is zero at every pivot, so each of its columns is free
        return {position[c]: x for c, x in span.residue(vec).items()}

    def _free_products(self, poly, d):
        """poly . e_c for each free column c of degree d (see _free_columns),
        in order, as sparse cover vectors: each word of poly acts through the
        whole letter maps, one letter at a time from the right, and the
        images of each word suffix are made once.  Entries may be zero."""
        R = self.ambient
        one, weights = R.field.one, R.alphabet.weights
        images = {(): [{c: one} for c in self._free_columns(d)]}
        terms = []
        for w, a in poly.terms.items():
            k, e = len(w), d
            while k and w[k - 1:] in images:
                k -= 1
                e += weights[w[k]]
            for k in range(k - 1, -1, -1):
                m = self._letter_map(w[k], e)
                images[w[k:]] = [_apply(m, u, one) for u in images[w[k + 1:]]]
                e += weights[w[k]]
            terms.append((images[w], a if a != one else one))
        if len(terms) == 1 and terms[0][1] is one:
            return terms[0][0]
        out = [{} for _ in images[()]]
        for us, a in terms:
            for v, u in zip(out, us):
                for t, y in u.items():
                    if a is not one:
                        y = y * a
                    v[t] = v[t] + y if t in v else y
        return out

    def __repr__(self):
        return f"Module({self.shifts}, {len(self.rows)} rows)"


# ---------------------------------------------------------------------------
# minimal resolutions
# ---------------------------------------------------------------------------

def _vector_to_row(vec, dom_basis, dom_shifts, R):
    """Sparse kernel vector over a free-module basis -> row of NcPoly entries."""
    terms = [{} for _ in dom_shifts]
    for k, x in sorted(vec.items()):
        j, a = dom_basis[k]
        terms[j][a] = x
    return [NcPoly(R.alphabet, R.field, t) for t in terms]


@dataclass
class _Level:
    """One level of a minimal resolution as far as it is built, as plain data.

    gens lists the minimal generators (degree, row) of P^{i+1} in ascending
    degree, each row its image in P^i; ranks[d] is the dimension in degree
    d of the submodule of P^i they generate (0 when absent), and spans[d]
    its SpanTracker.  done is the last degree done (None before the first).
    Going on upward reads only the top max-weight degrees done: spans keeps
    those, and images the images in P^{i-1} of the basis of P^i there (for
    i >= 1).
    """
    gens: list = dc_field(default_factory=list)
    ranks: dict = dc_field(default_factory=dict)
    spans: dict = dc_field(default_factory=dict)
    images: dict = dc_field(default_factory=dict)
    done: object = None


def _continue_level(level, degrees, R, candidates, grow):
    """Continue the level over the degrees above level.done, through the
    one _minimal_generators on its spans; the spans below the top
    max-weight degrees are read no more and are dropped."""
    level.gens += _minimal_generators(degrees, R.field, candidates, grow, level.spans)
    level.ranks.update((d, level.spans[d].dim()) for d in degrees)
    level.done = degrees[-1]
    for d in [d for d in level.spans if d <= level.done - max(R.alphabet.weights)]:
        del level.spans[d]


def _first_syzygy(R, shifts, relations, truncation, level, N):
    """Continue P^1, the minimal generators of the submodule of free(shifts)
    that the relations generate, to degree N.

    For A/A_{>=n} (truncation n) that submodule is A_{>=n}, so its rank in
    each degree d >= n is dim A_d; above n + w - 1, w the largest letter
    weight, a normal word is a letter times a normal word of degree >= n,
    so no generator lies there.  Those degrees take their ranks from the
    Hilbert function and keep no span: _next_syzygy reads only the
    generators and the ranks.
    """
    if level.done is None:
        start = min((D for D, _ in relations), default=N + 1)
    else:
        start = level.done + 1
    top = N if truncation is None else min(N, truncation + max(R.alphabet.weights) - 1)
    if start <= top:
        cover = GradedModulePresentation.free(R, shifts)
        _continue_level(level, range(start, top + 1), R,
                        _relation_candidates(cover, relations), cover._grow)
    if top < N:
        dims = hilbert_function(R, N)
        level.ranks.update((d, dims[d]) for d in range(max(start, top + 1), N + 1))
        level.spans.clear()
        level.done = N


def _next_syzygy(R, shifts, below, level, N):
    """Continue the next step of a minimal resolution to degree N.

    below.gens lists the generators (degree, row) of P^i, each row its image
    in P^{i-1} = free(shifts), and below.ranks[d] is the dimension of that
    image in degree d; below is built to N.  The level gains the minimal
    generators of the kernel, degree by degree, and their ranks in P^i.
    The image of a.e_j, a = x.a' normal, is x times that of a'.e_j, w(x)
    degrees below; a kernel basis is computed only where the lower
    generators fall short.  The kernel in degree d has dimension
    sum_j dim A_{d - D_j} - below.ranks[d], so degrees are done only up to
    the last one where that is positive; absent ranks above it are the
    correct zeros, and a later continuation starts after the last degree
    done, so it still finds the images of the degrees skipped.
    """
    dom_shifts = [D for D, _ in below.gens]
    low = dom_shifts[0]
    start = low if level.done is None else level.done + 1
    dims = hilbert_function(R, max(N - low, 0))
    top = max((d for d in range(start, N + 1)
               if sum(dims[d - l] for l in dom_shifts if l <= d) > below.ranks.get(d, 0)),
              default=None)
    if top is None:
        return
    domain = GradedModulePresentation.free(R, dom_shifts)
    codomain = GradedModulePresentation.free(R, shifts)
    weights = R.alphabet.weights
    images = level.images      # degree -> the images of the domain basis

    def candidates(d):
        # the domain basis lists (j, a) by j, then by the normal words a
        out = []
        for j, l in enumerate(dom_shifts):
            if l == d:
                out.append(codomain._expand(below.gens[j][1], d))
            elif l < d:
                for a in normal_words(R, d - l):
                    e = d - weights[a[0]]
                    image = images[e][domain._slice(e)[1][(j, a[1:])]]
                    out.append(_apply(codomain._letter_map(a[0], e), image, R.field.one))
        images[d] = out
        images.pop(d - max(weights), None)

        def find():
            kernel = linalg.evaluation_kernel(out, R.field)
            return kernel, lambda k: _vector_to_row(
                kernel[k], domain.free_basis(d), dom_shifts, R)

        return len(out), len(out) - below.ranks.get(d, 0), find

    _continue_level(level, range(start, top + 1), R, candidates, domain._grow)


@dataclass
class ResolutionReport:
    """Betti shifts and differentials of a minimal free resolution."""
    betti: list                    # betti[i] = sorted list of internal shifts
    differentials: list            # differentials[i]: rows of P^{i+1} -> P^i
    minimal: bool
    terminated: bool
    length: object                 # int when terminated, else AtLeast(p_max)


@dataclass
class _Syzygies:
    """A minimal free resolution as far as it is built, as plain data.

    shifts are those of P^0, relations the rows (degree, row) of the module
    and truncation its own (see GradedModulePresentation); levels[i] is the
    _Level of P^{i+1}.  Every level is built to the degree built, the
    deepest bound read so far, and goes on upward when a deeper one is
    read.  Nothing here refers to the rewrite system or to a module, so it
    can be cached on one.
    """
    shifts: list
    relations: list
    truncation: object
    levels: list
    built: int

    @staticmethod
    def start(module):
        """Nothing built yet: every generator has degree >= min(shifts)."""
        return _Syzygies(list(module.shifts), list(module.rows), module.truncation,
                         [_Level()], min(module.shifts, default=0) - 1)

    def _build(self, R, i, N):
        """Level i continued to N; the levels below it are built to N."""
        if i == 0:
            _first_syzygy(R, self.shifts, self.relations, self.truncation,
                          self.levels[0], N)
        else:
            shifts = self.shifts if i == 1 else [D for D, _ in self.levels[i - 2].gens]
            _next_syzygy(R, shifts, self.levels[i - 1], self.levels[i], N)

    def report(self, R, p_max, N):
        """The resolution to homological degree p_max at the degree bound N.

        An N above built first continues every level, in order, from built
        + 1 to N; then levels are built on, to built, while fewer than p_max
        are built and the last is not empty at N.  The report is what a
        build at N gives: degree-d generators and rows depend only on the
        levels in degrees <= d.  So each level keeps its generators of
        degree <= N, a prefix, each row fitted to the kept generators below
        (the entries cut or padded are zero by degree; a row made before
        the level below went on upward is shorter), and the first level
        empty at N ends the resolution."""
        if N > R.cutoff:
            raise CutoffExceededError(f"internal degree bound {N} exceeds cutoff {R.cutoff}")
        levels = self.levels
        if N > self.built:
            for i in range(len(levels)):
                self._build(R, i, N)
            self.built = N
        while len(levels) < p_max and levels[-1].gens and levels[-1].gens[0][0] <= N:
            levels.append(_Level())
            self._build(R, len(levels) - 1, self.built)
        # an empty level up to p_max ends the resolution; P^1 is always read
        view = []
        for level in levels[:max(p_max, 1)]:
            g = level.gens
            if g and g[-1][0] > N:
                g = [(D, row) for D, row in g if D <= N]
            if view and any(len(row) != len(view[-1]) for _, row in g):
                m, zero = len(view[-1]), NcPoly.zero(R.alphabet, R.field)
                g = [(D, (row + [zero] * m)[:m]) for D, row in g]
            view.append(g)
            if not g:
                break
        terminated = not view[-1]
        levels = view[:-1] if terminated else view[:p_max]
        # betti[0] lists the summands of P^0 by shift, so the columns of the
        # first differential are put in that order
        order = sorted(range(len(self.shifts)), key=self.shifts.__getitem__)
        betti = [[self.shifts[i] for i in order]] + [sorted(D for D, _ in g) for g in levels]
        diffs = [[row for _, row in g] for g in levels]
        if diffs:
            diffs[0] = [[row[i] for i in order] for row in diffs[0]]
        return ResolutionReport(betti, diffs, _minimality_audit(diffs),
                                terminated, len(levels) if terminated else AtLeast(p_max))


def minimal_resolution(module, p_max, N):
    """Minimal free resolution of the module, to homological degree p_max,
    read at the degree bound N (see _Syzygies.report): an empty kernel in
    every degree <= N is reported as termination.

    That of a truncation A/A_{>=n} (for n = 1, of k) is cached on the
    rewrite system as plain data, one per n, built only as deep as read: a
    new one is built to N, a deeper N than any before continues every level
    upward and a larger p_max builds on from the last level, so one
    resolution serves every twist and degree bound.  Any other module's is
    built afresh."""
    if (n := module.truncation) is None:
        return _Syzygies.start(module).report(module.ambient, p_max, N)
    cache = module.ambient.cache.resolutions
    if n not in cache:
        cache[n] = _Syzygies.start(module)
    return cache[n].report(module.ambient, p_max, N)


def _minimality_audit(diffs):
    """No differential entry has a constant term."""
    return not any(() in p.terms for rows in diffs for row in rows for p in row)


def global_dimension(R, p_max, N):
    """Projective dimension of the trivial module, or AT_LEAST(p_max)."""
    return minimal_resolution(GradedModulePresentation.trivial(R), p_max, N).length


# ---------------------------------------------------------------------------
# graded Hom and Ext
# ---------------------------------------------------------------------------

def _hom_rank(P, shifts, rows, d):
    """Rank of Hom(F, P[d]) -> Hom(G, P[d]), the precomposition with rows.

    F = ⊕_i A(-shifts[i]); G has one summand A(-D) for each (D, row) in
    rows, sent to row.  Sending e_i to one quotient basis element of
    P_{shifts[i]+d} gives, over all rows, the sparse vector of the images
    row[i] . element side by side in the slices P_{D+d}; the images of
    every element of P_{shifts[i]+d} under row[i] are made at once.  A
    summand no row reaches adds nothing, and P is not read for it.
    """
    offsets, ncols = [], 0
    for D, _ in rows:
        offsets.append(ncols)
        ncols += P.dim(D + d)
    span = linalg.SpanTracker(ncols, P.ambient.field)
    for i, l in enumerate(shifts):
        hits = [(offset, D + d, P._free_products(row[i], l + d))
                for offset, (D, row) in zip(offsets, rows) if row[i]]
        for k in range(len(P._free_columns(l + d)) if hits else 0):
            v = {}
            for offset, e, images in hits:
                v.update((offset + t, x) for t, x in P.quotient_coords(images[k], e).items())
            span.add(v)
    return span.dim()


def _ext_dims_from_resolution(rep, M, d, i):
    """dim Ext^i at twist d, from a minimal free resolution of length >= i+1.

    The homology at Hom(P^i, M[d]) of the complex Hom(P^., M[d]); the
    differential P^{i+1} -> P^i has the rows rep.differentials[i], of
    degrees rep.betti[i+1].  M keeps each rank of a d_i^*, keyed by the map's content.
    """
    betti, diffs = rep.betti, rep.differentials
    hom_i = sum(M.dim(l + d) for l in betti[i]) if i < len(betti) else 0
    if hom_i == 0:
        return 0

    def rank(i):               # of d_i^*: Hom(P^{i-1}, M[d]) -> Hom(P^i, M[d])
        if not 1 <= i < len(betti):
            return 0
        rows = list(zip(betti[i], diffs[i - 1]))
        key = (tuple(betti[i - 1]), tuple((D, tuple(row)) for D, row in rows), d)
        if (hit := M._rank_cache.get(key)) is None:
            hit = M._rank_cache[key] = _hom_rank(M, betti[i - 1], rows, d)
        return hit

    return hom_i - rank(i + 1) - rank(i)


def _ext_k_A(rep, A, i, N):
    """Nonzero graded dims of Ext^i(k, A) over the exactly computable degree
    window, read off the resolution rep of k; A, the algebra as a module,
    keeps the ranks.  It is read for i up to the length of a terminated rep,
    so betti[i] is not empty."""
    involved = [s for b in rep.betti[max(i - 1, 0):i + 2] for s in b]
    lo = -max(rep.betti[i])
    return {e: dim for e in range(lo, N - max(involved) + 1)
            if (dim := _ext_dims_from_resolution(rep, A, e, i))}


def gorenstein_check(R, N, p_max=8):
    """AS-Gorenstein test: Ext^i(k, A) vanishes except in degree d, where it is k."""
    rep = minimal_resolution(GradedModulePresentation.trivial(R), p_max, N)
    if not rep.terminated:
        return {"passes": False, "d": None,
                "reason": f"global dimension not finite within p_max={p_max}"}
    gd = rep.length
    A = GradedModulePresentation.algebra(R)
    for i in range(gd + 1):
        total = sum(_ext_k_A(rep, A, i, N).values())
        if i != gd and total != 0:
            return {"passes": False, "d": gd,
                    "reason": f"Ext^{i}(k, A) is nonzero"}
        if i == gd and total != 1:
            return {"passes": False, "d": gd,
                    "reason": f"Ext^{gd}(k, A) has total dimension {total}"}
    return {"passes": True, "d": gd}


# ---------------------------------------------------------------------------
# Proj cohomology via truncation colimits
# ---------------------------------------------------------------------------

@dataclass
class CohomologyReport:
    j: int
    d: int
    stabilized_dim: object         # int or UNSTABLE
    stabilization_n: int
    values: list = dc_field(default_factory=list)

    def to_dict(self):
        return {"d": self.d, "dim": self.stabilized_dim, "j": self.j,
                "stabilized_at": self.stabilization_n, "values": self.values}


def _stabilize(values):
    """Value of the tail plateau (length >= 3) and where it starts."""
    start = len(values)
    while start and values[start - 1] == values[-1]:
        start -= 1
    return (values[-1], start) if len(values) - start >= 3 else (UNSTABLE, -1)


def _read_k(R, j, n_max):
    """(T, k): k's resolution to P^{j+2} read at B = n_max - 1 + T, T the
    top generator degree of its P^j..P^{j+2} there and at least max(j + 2,
    R.relation_degree): a fixed point, read at the B of each T until no
    generator lies in degrees T+1..B.  k is None when B passes the cutoff."""
    T, trivial = max(j + 2, R.relation_degree), GradedModulePresentation.trivial(R)
    while n_max - 1 + T <= R.cutoff:
        k = minimal_resolution(trivial, j + 2, n_max - 1 + T)
        top = max([T, *(D for b in k.betti[j:j + 3] for D in b)])
        if top == T:
            return T, k
        T = top
    return T, None


def proj_depth(R, n_max, j, d):
    """The degree H^j(A[d]) to truncation n_max reads: n_max - 1 + T +
    max(d, 0); over an R completed below it, the depth known so far."""
    return n_max - 1 + _read_k(R, j, n_max)[0] + max(d, 0)


def proj_cohomology(R, M, j, d, n_max):
    """Stabilized dim of H^j(M[d]) over the truncation filtration.

    H^j(M[d]) is read as Ext^j(A_{>=n}, M[d]) for n <= n_max.  A/A_{>=n} is
    filtered by copies of k(-m), m < n, so by the horseshoe lemma its P^i
    has generators in degrees <= n - 1 + t_i, t_i the top generator degree
    of k's P^i.  Value n reads P^j..P^{j+2}: k is read to P^{j+2} at B =
    n_max - 1 + T (see _read_k), A/A_{>=n} at n - 1 + T, and M to B +
    max(d, 0) in the Hom step.  The certificate is that k has no generator
    of P^j..P^{j+2} in degrees T+1..B.  A cutoff below B + max(d, 0) is
    refused, naming it, before any A/A_{>=n} with n >= 2 is resolved.

    Value 0 is Ext^j(A, M[d]): dim M_d for j = 0, else 0.  With e = n - 1 +
    d, where Ext^j(k, M[e]) = 0 the long exact sequence of 0 -> A_{>=n} ->
    A_{>=n-1} -> k(-(n-1))^{dim A_{n-1}} -> 0 gives value n = value n-1 +
    dim A_{n-1} . dim Ext^{j+1}(k, M[e]) when that Ext is 0 or k's
    resolution ends with length <= j + 1 (then pd(A_{>=n-1}) <= pd(k) - 1
    <= j, so Ext^{j+1}(A_{>=n-1}, M[d]) = 0).  Any other value n is read off
    the tail P^1 <- P^2 <- ... of A/A_{>=n}'s resolution, one of A_{>=n}.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    T, k = _read_k(R, j, n_max)
    if (needed := n_max - 1 + T + max(d, 0)) > R.cutoff:
        raise CutoffExceededError(
            f"cutoff {R.cutoff} insufficient for (j={j}, d={d}, n_max={n_max}); "
            f"need {needed}")
    values = [M.dim(d) if j == 0 else 0]
    for n in range(1, n_max + 1):
        e = n - 1 + d
        if not _ext_dims_from_resolution(k, M, e, j):
            up = _ext_dims_from_resolution(k, M, e, j + 1)
            if not up or k.terminated:          # read to P^{j+2}: pd <= j + 1
                values.append(values[-1] + len(normal_words(R, n - 1)) * up)
                continue
        rep = minimal_resolution(GradedModulePresentation.quotient_truncation(R, n),
                                 j + 2, n - 1 + T)
        tail = replace(rep, betti=rep.betti[1:], differentials=rep.differentials[1:])
        values.append(_ext_dims_from_resolution(tail, M, d, j))
    dim, at = _stabilize(values)
    return CohomologyReport(j, d, dim, at, values)


def cd_estimate(R, j_max, d_range, n_max):
    """Largest j with a nonzero stabilized H^j(R[d]) over the scanned twists."""
    if not d_range:
        raise ValueError("no twist to scan: the window of twists is empty")
    A = GradedModulePresentation.algebra(R)
    for j in range(j_max, -1, -1):
        for d in d_range:
            rep = proj_cohomology(R, A, j, d, n_max)
            if rep.stabilized_dim == UNSTABLE:
                raise ValueError(
                    f"H^{j}(R[{d}]) did not stabilize before n_max={n_max}")
            if rep.stabilized_dim:
                return j
    return 0
