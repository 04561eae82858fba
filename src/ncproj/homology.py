"""Degreewise exact homological algebra for graded left modules.

Everything reduces to linear algebra over the coefficient field against
normal-word bases: minimal free resolutions, graded Hom/Ext dimensions,
AS-Gorenstein checks, chi-condition probes, and Proj cohomology through
truncation colimits.  No spectral machinery; each graded piece is computed
exactly and independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .rewriting import CutoffExceededError, normal_form, normal_words
from .words import NcPoly

UNSTABLE = "UNSTABLE"


@dataclass(frozen=True)
class AtLeast:
    """Lower bound returned when a resolution does not terminate in bounds."""
    bound: int

    def __repr__(self):
        return f"AT_LEAST({self.bound})"


def _nf_word(R, w):
    """Normal form of the word w as a tuple of (normal word, coefficient).

    Cached on the rewrite system, which keeps one copy of each normal word
    and of each coefficient (R.cache.interned).  A normal word is its own
    normal form, and its key is that copy too.
    """
    cache = R.cache
    hit = cache.word_nf.get(w)
    if hit is None:
        intern = cache.interned.setdefault
        terms = normal_form(NcPoly.word(R.alphabet, R.field, w), R).terms
        hit = tuple((intern(u, u), intern(c, c)) for u, c in terms.items())
        cache.word_nf[intern(w, w) if w in terms else w] = hit
    return hit


def _add_word_nf(v, index, R, i, w, s):
    """v += s * (normal form of w in summand i), v sparse over index."""
    for u, c in _nf_word(R, w):
        k = index[(i, u)]
        x = v.get(k)
        if x is None:
            v[k] = c * s
        else:
            x = x + c * s
            if x:
                v[k] = x
            else:
                del v[k]


def _evaluation_kernel(images, field):
    """Kernel of the linear map sending the k-th basis vector to images[k].

    images are sparse {coordinate: scalar} vectors; the kernel basis is a
    list of sparse {k: scalar} vectors, one per free column, ascending.
    """
    rows = {}
    for k, image in enumerate(images):
        for t, x in image.items():
            rows.setdefault(t, {})[k] = x
    span = linalg.SpanTracker(len(images), field)
    for row in rows.values():
        span.add(row)
    return span.kernel()


def _minimal_generators(degrees, field, candidates, multiples):
    """Minimal generators, degree by degree, in ascending degrees.

    candidates(d) returns (ncols, vectors, make): the length of the
    degree-d vectors, the degree-d candidate vectors (sparse) and make(k),
    the generator that vectors[k] stands for.  multiples(g, e, d) lists the
    degree-d vectors of the multiples of a generator g kept in degree e.  A
    candidate is kept when it is outside the span of those multiples and of
    the candidates kept before it.  Returns the kept (degree, generator)
    pairs.
    """
    gens = []
    for d in degrees:
        ncols, vectors, make = candidates(d)
        if not vectors:
            continue
        span = linalg.SpanTracker(ncols, field)
        for e, g in gens:
            for v in multiples(g, e, d):
                span.add(v)
        for k, v in enumerate(vectors):
            if span.add(v):
                gens.append((d, make(k)))
    return gens


class GradedModulePresentation:
    """Left module presented as the cokernel of rows mapping into a free cover.

    The free cover is ⊕_i A(-shifts[i]); each row is a homogeneous vector
    (one NcPoly per cover summand) and the module is the cokernel of the
    submodule those rows generate.
    """

    def __init__(self, ambient, shifts, rows, side="left", name=""):
        if side != "left":
            raise ValueError("only left modules are implemented")
        self.ambient = ambient
        self.shifts = tuple(shifts)
        self.side = side
        self.name = name
        self.rows = []
        for row in rows:
            row = [normal_form(p, ambient) for p in row]
            degs = {p.degree() + self.shifts[i]
                    for i, p in enumerate(row) if not p.is_zero()}
            if len(degs) > 1:
                raise ValueError("relation row is not homogeneous w.r.t. the shifts")
            if degs:
                self.rows.append((degs.pop(), row))
        self._slice_cache = {}
        self._span_cache = {}

    # -- canonical constructors --------------------------------------------

    @staticmethod
    def free(R, shifts, name=""):
        return GradedModulePresentation(R, shifts, [], name=name)

    @staticmethod
    def algebra(R):
        return GradedModulePresentation(R, [0], [], name="A")

    @staticmethod
    def trivial(R):
        """The trivial module k = A/A_+."""
        alphabet, fld = R.alphabet, R.field
        rows = [[NcPoly.gen(alphabet, fld, i)] for i in range(len(alphabet))]
        return GradedModulePresentation(R, [0], rows, name="k")

    @staticmethod
    def quotient_truncation(R, n):
        """A/A_{>=n}, presented by the degree-n normal words."""
        alphabet, fld = R.alphabet, R.field
        rows = [[NcPoly.word(alphabet, fld, w)] for w in normal_words(R, n)]
        return GradedModulePresentation(R, [0], rows, name=f"A/A>={n}")

    @staticmethod
    def truncation(R, n, rel_bound=None):
        """A_{>=n}: generated by the degree-n normal words.

        Relations are the minimal generators of the kernel of the evaluation
        onto the ideal, computed up to rel_bound (a truncation surrogate;
        defaults to n + 3).
        """
        if rel_bound is None:
            rel_bound = n + 3
        alphabet, fld = R.alphabet, R.field
        gens = normal_words(R, n)
        shifts = [n] * len(gens)
        ev_rows = [[NcPoly.word(alphabet, fld, w)] for w in gens]
        target = GradedModulePresentation.free(R, [0])
        kernel_rows = _kernel_generators(R, shifts, ev_rows, target, rel_bound)
        return GradedModulePresentation(R, shifts, [r for _, r in kernel_rows],
                                        name=f"A>={n}")

    # -- graded slices ------------------------------------------------------

    def free_basis(self, d):
        return self._slice(d)[0]

    def _slice(self, d):
        """The degree-d basis (summand, word) of the free cover and its index."""
        hit = self._slice_cache.get(d)
        if hit is None:
            basis = [(i, w) for i, l in enumerate(self.shifts) if d - l >= 0
                     for w in normal_words(self.ambient, d - l)]
            hit = (basis, {bw: k for k, bw in enumerate(basis)})
            self._slice_cache[d] = hit
        return hit

    def _expand(self, vec_polys, d):
        """Vector of NcPolys (one per summand) -> sparse coordinates in degree d."""
        index = self._slice(d)[1]
        return {index[(i, w)]: c for i, p in enumerate(vec_polys)
                for w, c in p.terms.items()}

    def _multiples(self, row, e, d):
        """Sparse degree-d coordinates of a . row for every normal word a of degree d - e.

        row is a degree-e cover vector, one NcPoly per summand; the products
        go through the cached normal forms of single words.
        """
        R = self.ambient
        index = self._slice(d)[1]
        out = []
        for a in normal_words(R, d - e):
            v = {}
            for i, p in enumerate(row):
                for w, c in p.terms.items():
                    _add_word_nf(v, index, R, i, a + w, c)
            out.append(v)
        return out

    def submodule_span(self, d):
        """Row space of the relation submodule in internal degree d."""
        hit = self._span_cache.get(d)
        if hit is not None:
            return hit
        span = linalg.SpanTracker(len(self.free_basis(d)), self.ambient.field)
        for D, row in self.rows:
            if D <= d:
                for v in self._multiples(row, D, d):
                    span.add(v)
        self._span_cache[d] = span
        return span

    def dim(self, d):
        if d < min(self.shifts, default=0):
            return 0
        return len(self.free_basis(d)) - self.submodule_span(d).dim()

    def _free_columns(self, d):
        """The free-cover columns of degree d that are not relation pivots."""
        rows = self.submodule_span(d).rows
        return [c for c in range(len(self.free_basis(d))) if c not in rows]

    def quotient_coords(self, vec, d):
        """Coordinates of a sparse free-cover vector in the quotient module slice."""
        res = self.submodule_span(d).residue(vec)
        zero = self.ambient.field.zero
        return [res.get(c, zero) for c in self._free_columns(d)]

    def lift_coords(self, coords, d):
        """A sparse free-cover representative of quotient coordinates."""
        return {c: x for c, x in zip(self._free_columns(d), coords) if x}

    def act(self, poly, coords, d):
        """Left action of a homogeneous algebra element on a quotient element."""
        R = self.ambient
        if poly.is_zero():
            return [R.field.zero] * self.dim(d)
        e = d + poly.degree()
        basis = self.free_basis(d)
        index = self._slice(e)[1]
        v = {}
        for k, x in self.lift_coords(coords, d).items():
            i, w = basis[k]
            for pw, pc in poly.terms.items():
                _add_word_nf(v, index, R, i, pw + w, pc * x)
        return self.quotient_coords(v, e)

    def __repr__(self):
        return f"Module({self.name or self.shifts}, {len(self.rows)} rows)"


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


def _kernel_generators(R, dom_shifts, rows, codomain, N):
    """Minimal generators (degree, row) of ker(free(dom_shifts) -> codomain cover).

    The map sends e_j to rows[j] regarded inside the codomain free cover;
    generators are collected degree by degree up to N.
    """
    domain = GradedModulePresentation.free(R, dom_shifts)

    def candidates(d):
        # the domain basis lists (j, a) by j, then by the normal words a
        images = [v for j, l in enumerate(dom_shifts) if l <= d
                  for v in codomain._multiples(rows[j], l, d)]
        kernel = _evaluation_kernel(images, R.field)
        return len(images), kernel, lambda k: _vector_to_row(
            kernel[k], domain.free_basis(d), dom_shifts, R)

    return _minimal_generators(range(min(dom_shifts, default=0), N + 1), R.field,
                               candidates, domain._multiples)


@dataclass
class ResolutionReport:
    """Betti shifts and differentials of a minimal free resolution."""
    betti: list                    # betti[i] = sorted list of internal shifts
    differentials: list            # differentials[i]: rows of P^{i+1} -> P^i
    truncated_at: tuple            # (p_max, N)
    minimal: bool
    terminated: bool
    length: object                 # int when terminated, else AtLeast(p_max)

    def to_dict(self):
        return {
            "betti": [list(b) for b in self.betti],
            "length": self.length if isinstance(self.length, int) else repr(self.length),
            "minimal": self.minimal,
            "terminated": self.terminated,
            "truncated_at": list(self.truncated_at),
        }


def minimal_resolution(module, p_max, N):
    """Minimal free resolution of the module, to homological degree p_max.

    Kernels are scanned in internal degrees <= N; an empty kernel across the
    whole degree window is reported as termination.
    """
    R = module.ambient
    if N > R.cutoff:
        raise CutoffExceededError(f"internal degree bound {N} exceeds cutoff {R.cutoff}")
    betti = [sorted(module.shifts)]
    diffs = []
    shifts = list(module.shifts)
    gens = _minimize_rows(module, N)
    terminated = False
    length = None
    for hom_deg in range(1, p_max + 1):
        if not gens:
            terminated = True
            length = hom_deg - 1
            break
        betti.append(sorted(D for D, _ in gens))
        diffs.append([row for _, row in gens])
        new_shifts = [D for D, _ in gens]
        codomain = GradedModulePresentation.free(R, shifts)
        if hom_deg < p_max:
            gens = _kernel_generators(R, new_shifts, [r for _, r in gens], codomain, N)
        else:
            gens = None
        shifts = new_shifts
    if not terminated and gens == []:
        terminated = True
        length = p_max
    minimal = _minimality_audit(diffs)
    return ResolutionReport(betti, diffs, (p_max, N), minimal, terminated,
                            length if terminated else AtLeast(p_max))


def _minimize_rows(module, N):
    """Minimal generators of the relation submodule of a presentation."""
    by_degree = {}
    for D, row in module.rows:
        by_degree.setdefault(D, []).append(row)

    def candidates(d):
        rows = by_degree[d]
        return (len(module.free_basis(d)), [module._expand(row, d) for row in rows],
                rows.__getitem__)

    return _minimal_generators([d for d in sorted(by_degree) if d <= N],
                               module.ambient.field, candidates, module._multiples)


def _minimality_audit(diffs):
    """No differential entry has a constant term."""
    return not any(() in p.terms for rows in diffs for row in rows for p in row)


def global_dimension(R, p_max, N):
    """Projective dimension of the trivial module, or AT_LEAST(p_max)."""
    rep = minimal_resolution(GradedModulePresentation.trivial(R), p_max, N)
    return rep.length if rep.terminated else AtLeast(p_max)


# ---------------------------------------------------------------------------
# graded Hom and Ext
# ---------------------------------------------------------------------------

def graded_hom_dim(M, P, d):
    """dim of degree-0 module maps M -> P[d].

    A map is a choice of images of the free-cover generators annihilating
    every relation row, which is a finite exact linear system.
    """
    if M.ambient is not P.ambient and M.ambient != P.ambient:
        raise ValueError("modules over different ambient systems")
    R = M.ambient
    fld = R.field
    gen_dims = [P.dim(l + d) for l in M.shifts]
    offsets = [0]
    for g in gen_dims:
        offsets.append(offsets[-1] + g)
    nvars = offsets[-1]
    if nvars == 0:
        return 0
    constraints = []
    for D, row in M.rows:
        target_dim = P.dim(D + d)
        block = [[fld.zero] * nvars for _ in range(target_dim)]
        for i, p in enumerate(row):
            if p.is_zero() or gen_dims[i] == 0:
                continue
            src = M.shifts[i] + d
            for k in range(gen_dims[i]):
                unit = [fld.one if t == k else fld.zero for t in range(gen_dims[i])]
                img = P.act(p, unit, src)
                for t in range(target_dim):
                    block[t][offsets[i] + k] = block[t][offsets[i] + k] + img[t]
        constraints.extend(block)
    if not constraints:
        return nvars
    return nvars - linalg.rank(constraints, fld)


def _ext_dims_from_resolution(rep, M, d, i):
    """dim Ext^i at twist d, from a minimal free resolution of length >= i+1."""
    R = M.ambient
    fld = R.field

    def delta_matrix(step):
        """Matrix of Hom(P^{step-1}, M[d]) -> Hom(P^step, M[d])."""
        dom_shifts = rep.betti[step - 1]
        cod_shifts = rep.betti[step]
        rows = rep.differentials[step - 1]
        dom_dims = [M.dim(l + d) for l in dom_shifts]
        cod_dims = [M.dim(l + d) for l in cod_shifts]
        dom_off = [0]
        for g in dom_dims:
            dom_off.append(dom_off[-1] + g)
        cod_off = [0]
        for g in cod_dims:
            cod_off.append(cod_off[-1] + g)
        mat = [[fld.zero] * dom_off[-1] for _ in range(cod_off[-1])]
        for jj, row in enumerate(rows):
            for ii, p in enumerate(row):
                if p.is_zero() or dom_dims[ii] == 0:
                    continue
                src = dom_shifts[ii] + d
                for k in range(dom_dims[ii]):
                    unit = [fld.one if t == k else fld.zero
                            for t in range(dom_dims[ii])]
                    img = M.act(p, unit, src)
                    for t in range(len(img)):
                        mat[cod_off[jj] + t][dom_off[ii] + k] = \
                            mat[cod_off[jj] + t][dom_off[ii] + k] + img[t]
        return mat, dom_off[-1], cod_off[-1]

    hom_i = sum(M.dim(l + d) for l in rep.betti[i]) if i < len(rep.betti) else 0
    if hom_i == 0:
        return 0
    if i + 1 < len(rep.betti):
        mat_out, _, _ = delta_matrix(i + 1)
        r_out = linalg.rank(mat_out, fld) if mat_out else 0
        ker_dim = hom_i - r_out
    else:
        ker_dim = hom_i
    if i >= 1:
        mat_in, _, _ = delta_matrix(i)
        r_in = linalg.rank(mat_in, fld) if mat_in else 0
    else:
        r_in = 0
    return ker_dim - r_in


def ext_k_A(R, i, N, p_max=None):
    """Graded dims of Ext^i(k, A) over the exactly computable degree window."""
    if p_max is None:
        p_max = i + 2
    rep = minimal_resolution(GradedModulePresentation.trivial(R), p_max, N)
    return _ext_k_A_dims(R, rep, i, N)


def _ext_k_A_dims(R, rep, i, N):
    """Nonzero graded dims of Ext^i(k, A) from a resolution rep of k."""
    involved = []
    for level in (i - 1, i, i + 1):
        if 0 <= level < len(rep.betti):
            involved.extend(rep.betti[level])
    if not involved:
        return {}
    A = GradedModulePresentation.algebra(R)
    lo = -max(rep.betti[i]) if i < len(rep.betti) else 0
    hi = N - max(involved)
    out = {}
    for e in range(lo, hi + 1):
        dim = _ext_dims_from_resolution(rep, A, e, i)
        if dim:
            out[e] = dim
    return out


def gorenstein_check(R, N, p_max=8):
    """AS-Gorenstein test: Ext^i(k, A) vanishes except in degree d, where it is k."""
    rep = minimal_resolution(GradedModulePresentation.trivial(R), p_max, N)
    if not rep.terminated:
        return {"passes": False, "d": None,
                "reason": f"global dimension not finite within p_max={p_max}"}
    gd = rep.length
    for i in range(gd + 1):
        total = sum(_ext_k_A_dims(R, rep, i, N).values())
        if i != gd and total != 0:
            return {"passes": False, "d": gd,
                    "reason": f"Ext^{i}(k, A) is nonzero"}
        if i == gd and total != 1:
            return {"passes": False, "d": gd,
                    "reason": f"Ext^{gd}(k, A) has total dimension {total}"}
    return {"passes": True, "d": gd}


@dataclass
class ChiProbeReport:
    j_max: int
    per_degree_dims: dict          # (j, internal degree) -> dim
    right_bounded_up_to_cutoff: bool
    window: tuple

    def to_dict(self):
        return {
            "j_max": self.j_max,
            "per_degree_dims": {f"{j},{e}": v
                                for (j, e), v in sorted(self.per_degree_dims.items())},
            "right_bounded_up_to_cutoff": self.right_bounded_up_to_cutoff,
            "window": list(self.window),
        }


def chi_probe(R, M, j_max, N):
    """Per-degree dims of Ext^j(A/A_+, M) for j <= j_max.

    The right-boundedness flag refers only to the computed window: it is set
    when the top quarter of the window carries no nonzero entry.
    """
    rep = minimal_resolution(GradedModulePresentation.trivial(R), j_max + 1, N)
    table = {}
    max_shift = max((max(b) for b in rep.betti if b), default=0)
    lo = -max_shift
    hi = N - max_shift
    for j in range(j_max + 1):
        if j >= len(rep.betti):
            break
        for e in range(lo, hi + 1):
            dim = _ext_dims_from_resolution(rep, M, e, j)
            if dim:
                table[(j, e)] = dim
    top_quarter = hi - max(1, (hi - lo) // 4)
    right_bounded = all(e <= top_quarter for (_, e) in table)
    return ChiProbeReport(j_max, table, right_bounded, (lo, hi))


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
    if len(values) < 3:
        return UNSTABLE, -1
    tail = values[-1]
    start = len(values)
    while start > 0 and values[start - 1] == tail:
        start -= 1
    if len(values) - start >= 3:
        return tail, start
    return UNSTABLE, -1


def _quotient_resolution(R, n, p_max):
    """Minimal resolution of A/A_{>=n}, cached on the rewrite system.

    Computed over the full degree window of R so one resolution serves
    every twist; deepened in place when a larger p_max is requested.
    """
    cache = R.cache.resolutions
    hit = cache.get(n)
    if hit is not None and hit[0] >= p_max:
        return hit[1]
    Q = GradedModulePresentation.quotient_truncation(R, n)
    rep = minimal_resolution(Q, p_max, R.cutoff)
    cache[n] = (p_max, rep)
    return rep


def proj_cohomology(R, M, j, d, n_max):
    """Stabilized dim of H^j(M[d]) over the truncation filtration.

    j = 0 uses Hom(R_{>=n}, M[d]); j >= 1 uses the degree shift
    Ext^j(R_{>=n}, -) = Ext^{j+1}(R/R_{>=n}, -).
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    values = []
    if j == 0:
        for n in range(n_max + 1):
            T = GradedModulePresentation.truncation(R, n)
            values.append(graded_hom_dim(T, M, d))
    else:
        needed = n_max + j + 2 + max(0, -d)
        if needed > R.cutoff:
            raise CutoffExceededError(
                f"cutoff {R.cutoff} insufficient for (j={j}, d={d}, n_max={n_max}); "
                f"need about {needed}")
        for n in range(n_max + 1):
            rep = _quotient_resolution(R, n, j + 2)
            values.append(_ext_dims_from_resolution(rep, M, d, j + 1))
    dim, at = _stabilize(values)
    return CohomologyReport(j, d, dim, at, values)


def cd_estimate(R, j_max, d_range, n_max):
    """Largest j with a nonzero stabilized H^j(R[d]) over the scanned twists."""
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
