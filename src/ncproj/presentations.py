"""Graded algebra presentations, twists, and the dimension-3 regularity shapes.

A presentation is generators-with-weights plus homogeneous relations.  The
twist of a presentation by a graded automorphism is recovered by exact
kernel computation against the twisted product, degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .homology import _evaluation_kernel, _minimal_generators
from .rewriting import (RewriteSystem, complete_truncated_over, hilbert_function,
                        normal_form, normal_words)
from .words import Alphabet, MonomialOrder, NcPoly

NOT_APPLICABLE = "NOT_APPLICABLE"
AMBIGUOUS = "AMBIGUOUS"
ABSENT = "ABSENT"


@dataclass
class AlgebraPresentation:
    name: str
    field: object
    alphabet: Alphabet
    relations: list
    order: MonomialOrder = None

    def __post_init__(self):
        if self.order is None:
            self.order = MonomialOrder(self.alphabet)
        for rel in self.relations:
            if rel.is_zero():
                raise ValueError("zero relation in presentation")
            if not rel.is_homogeneous():
                raise ValueError("relations must be homogeneous")

    def generators(self):
        return list(zip(self.alphabet.symbols, self.alphabet.weights))

    def gen_poly(self, i):
        return NcPoly.gen(self.alphabet, self.field, i)

    def max_relation_degree(self):
        return max((r.degree() for r in self.relations), default=0)

    def render(self):
        gens = ", ".join(f"{s}:{w}" for s, w in self.generators())
        rels = " ".join(f"{r.render(self.order)};" for r in self.relations)
        body = f"gens: {gens}; rels: {rels}".rstrip()
        return f"algebra {self.name} over {self.field.name} {{ {body} }}"

    def __eq__(self, other):
        return isinstance(other, AlgebraPresentation) and \
            self.name == other.name and self.field == other.field and \
            self.alphabet == other.alphabet and self.relations == other.relations

    def __repr__(self):
        return self.render()


def build(p, cutoff):
    """Completed truncated rewrite system for the relation ideal."""
    return complete_truncated_over(p.relations, cutoff, p.order, p.field)


def check_automorphism(p, sigma, N):
    """Does sigma descend to the quotient algebra (checked in degrees <= N)?"""
    return _descends(p, sigma, N)[0]


def _descends(p, sigma, N):
    """(whether sigma descends, the completed system it was checked against)."""
    if not p.alphabet.all_unit_weight():
        raise ValueError("automorphism support requires weight-1 generators")
    if not sigma.is_invertible():
        raise ValueError("matrix is singular")
    R = build(p, N)
    return all(normal_form(sigma.apply(rel), R).is_zero() for rel in p.relations), R


def _free_system(p, cutoff):
    """The rule-free system on p's generators: every word is normal, and the
    normal words of a degree come in generator-index order."""
    return RewriteSystem([], cutoff, MonomialOrder(p.alphabet), p.field)


def _twisted_eval(word, R, sigma_powers):
    """Evaluate a free word in the twisted algebra, left to right.

    The star product is a * b = a . sigma^deg(a)(b), computed via normal
    forms in the untwisted algebra.
    """
    alphabet, fld = R.alphabet, R.field
    acc = NcPoly.one(alphabet, fld)
    deg = 0
    for letter in word:
        factor = sigma_powers[deg].image_of_gen(letter)
        acc = normal_form(acc * factor, R)
        deg += 1
    return acc


def _coeff_vector(p, basis_words, fld):
    index = {w: i for i, w in enumerate(basis_words)}
    v = [fld.zero] * len(basis_words)
    for w, c in p.terms.items():
        v[index[w]] = c
    return v


def twist(p, sigma, N, s_max=None):
    """Presentation of the twisted algebra A^sigma on the same generators.

    Relations are minimal generators of the kernel of the twisted evaluation
    map in each degree <= s_max: kernel elements already generated by
    lower-degree twisted relations are dropped.
    """
    if s_max is None:
        s_max = p.max_relation_degree() + 1
    descends, R = _descends(p, sigma, N)
    if not descends:
        raise ValueError("matrix does not define an automorphism of the algebra")
    fld = p.field
    sigma_powers = [sigma.power(k) for k in range(s_max)]
    free = _free_system(p, s_max)

    def candidates(s):
        words = normal_words(free, s)
        index = {w: i for i, w in enumerate(normal_words(R, s))}
        kernel = _evaluation_kernel(
            [{index[u]: c for u, c in _twisted_eval(w, R, sigma_powers).terms.items()}
             for w in words], fld)
        # the kernel is an ideal: it contains all that lower relations generate
        return len(words), len(kernel), lambda: (kernel, lambda k: NcPoly(
            p.alphabet, fld, [(words[j], c) for j, c in sorted(kernel[k].items())]))

    def grow(spans, s):
        # the ideal is two-sided: x * row and row * x for the rows below
        index = {w: i for i, w in enumerate(normal_words(free, s))}
        for x, wx in enumerate(p.alphabet.weights):
            if s - wx in spans:
                words = normal_words(free, s - wx)
                for row in spans[s - wx].rows.values():
                    yield {index[(x,) + words[k]]: c for k, c in row.items()}
                    yield {index[words[k] + (x,)]: c for k, c in row.items()}

    relations = [g for _, g in _minimal_generators(range(2, s_max + 1), fld,
                                                   candidates, grow)[0]]
    return AlgebraPresentation(f"{p.name}_twist", fld, p.alphabet, relations, p.order)


@dataclass
class StandardCheckReport:
    status: str                    # "OK" | NOT_APPLICABLE | AMBIGUOUS
    r: int = 0
    s: int = 0
    M: list = None                 # r x r matrix of NcPoly entries
    Q: object = ABSENT             # r x r scalar matrix when determined
    is_standard: bool = False
    relation_order: list = None
    reason: str = ""

    def to_dict(self, order=None):
        d = {"status": self.status, "is_standard": self.is_standard,
             "r": self.r, "s": self.s, "reason": self.reason}
        if self.M is not None:
            d["M"] = [[e.render(order) for e in row] for row in self.M]
        d["Q"] = self.Q if self.Q == ABSENT else \
            [[str(x) for x in row] for row in self.Q]
        if self.relation_order is not None:
            d["relation_order"] = self.relation_order
        return d


def right_generator_decomposition(f, alphabet, fld):
    """Unique decomposition f = sum_k m_k . x_k by rightmost letters."""
    n = len(alphabet)
    parts = [NcPoly.zero(alphabet, fld) for _ in range(n)]
    for w, c in f.terms.items():
        if not w:
            raise ValueError("constant term has no rightmost generator")
        parts[w[-1]] = parts[w[-1]] + NcPoly.word(alphabet, fld, w[:-1], c)
    return parts


def standard_check(p):
    """Solve (x^t M)^t = Q f exactly; decide the standard-algebra condition."""
    fld = p.field
    r = len(p.alphabet)
    if not p.alphabet.all_unit_weight():
        return StandardCheckReport(NOT_APPLICABLE, reason="generators must have weight 1")
    if len(p.relations) != r:
        return StandardCheckReport(
            NOT_APPLICABLE, reason=f"{r} generators but {len(p.relations)} relations")
    degs = {rel.degree() for rel in p.relations}
    if len(degs) != 1:
        return StandardCheckReport(NOT_APPLICABLE, reason="relations of mixed degree")
    s = degs.pop()
    if (r, s) not in {(2, 3), (3, 2)}:
        return StandardCheckReport(
            NOT_APPLICABLE, r=r, s=s, reason=f"(r, s) = ({r}, {s}) not in {{(2,3), (3,2)}}")

    # M: row j holds the decomposition of relation f_j by rightmost letters
    M = [right_generator_decomposition(f, p.alphabet, fld) for f in p.relations]
    # g_j = sum_i x_i m_ij  (transpose of x^t M)
    gens = [p.gen_poly(i) for i in range(r)]
    g = []
    for j in range(r):
        acc = NcPoly.zero(p.alphabet, fld)
        for i in range(r):
            acc = acc + gens[i] * M[i][j]
        g.append(acc)

    words = normal_words(_free_system(p, s), s)
    fvecs = [_coeff_vector(f, words, fld) for f in p.relations]
    fmat = list(zip(*fvecs))               # columns are the f_l
    frank = linalg.rank(fvecs, fld)
    report = StandardCheckReport(
        "OK", r=r, s=s, M=M,
        relation_order=[rel.render(p.order) for rel in p.relations])

    Q = []
    for j in range(r):
        gv = _coeff_vector(g[j], words, fld)
        sol = linalg.solve(fmat, gv, fld)
        if sol is None:
            report.is_standard = False
            report.reason = f"g_{j + 1} is not a combination of the relations"
            return report
        Q.append(sol)

    if frank < r:
        # solution space is positive-dimensional; sample for invertible points
        report.status = AMBIGUOUS
        report.reason = "Q is underdetermined (relations linearly dependent)"
        report.is_standard = _det_nonzero(Q, fld)
        if report.is_standard:
            report.Q = Q
        return report

    if _det_nonzero(Q, fld):
        report.is_standard = True
        report.Q = Q
    else:
        report.reason = "unique Q exists but is singular"
    return report


def _det_nonzero(Q, fld):
    return linalg.invert_matrix(Q, fld) is not None


def resolution_shape_check(p, r, s, N):
    """Euler-characteristic test H(t) (1 - r t + r t^s - t^(s+1)) = 1 mod t^(N+1)."""
    dims = hilbert_function(build(p, N), N)
    factor = [0] * (N + 1)
    factor[0] = 1
    if 1 <= N:
        factor[1] -= r
    if s <= N:
        factor[s] += r
    if s + 1 <= N:
        factor[s + 1] -= 1
    prod = [0] * (N + 1)
    for i, h in enumerate(dims):
        for j, f in enumerate(factor):
            if i + j <= N and f:
                prod[i + j] += h * f
    return prod == [1] + [0] * N
