"""Graded algebra presentations, twists, and the dimension-3 regularity shapes.

A presentation is generators-with-weights plus homogeneous relations.  An
algebra known only through an evaluation of its words (the twist of a
presentation by a graded automorphism, a twisted coordinate ring) is
presented by ``present``: exact kernels of the evaluation, degree by degree,
each word's value the product of its prefix's value and its last letter.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .rewriting import (CutoffExceededError, RewriteSystem, complete_truncated_over,
                        hilbert_function, normal_form, normal_words)
from .words import Alphabet, NcPoly

NOT_APPLICABLE = "NOT_APPLICABLE"
AMBIGUOUS = "AMBIGUOUS"
ABSENT = "ABSENT"


@dataclass
class AlgebraPresentation:
    name: str
    field: object
    alphabet: Alphabet
    relations: list

    def __post_init__(self):
        for rel in self.relations:
            if rel.is_zero():
                raise ValueError("zero relation in presentation")
            if not rel.is_homogeneous():
                raise ValueError("relations must be homogeneous")
            if rel.degree() == 0:
                raise ValueError("relation of degree 0 in presentation: the algebra would be zero")

    def generators(self):
        return list(zip(self.alphabet.symbols, self.alphabet.weights))

    def gen_poly(self, i):
        return NcPoly.gen(self.alphabet, self.field, i)

    def max_relation_degree(self):
        return max((r.degree() for r in self.relations), default=0)

    def render(self):
        gens = ", ".join(f"{s}:{w}" for s, w in self.generators())
        rels = " ".join(f"{r.render()};" for r in self.relations)
        body = f"gens: {gens}; rels: {rels}".rstrip()
        return f"algebra {self.name} over {self.field.name} {{ {body} }}"

    def __repr__(self):
        return self.render()


def build(p, cutoff):
    """Completed truncated rewrite system for the relation ideal."""
    return complete_truncated_over(p.relations, cutoff, p.alphabet, p.field)


def _descends(p, sigma, N):
    """(whether sigma descends, the completed system it was checked against)."""
    if not p.alphabet.all_unit_weight():
        raise ValueError("automorphism support requires weight-1 generators")
    if not sigma.is_invertible():
        raise ValueError("matrix is singular")
    R = build(p, N)
    return all(normal_form(sigma.apply(rel), R).is_zero() for rel in p.relations), R


def present(alphabet, field, one, times, coords, d_max):
    """Minimal relations, in degrees 2..d_max, of the algebra the words evaluate in.

    Every prefix of a normal word is normal, so each normal word is
    evaluated once, from the value of its prefix: value(()) = one and
    value(w) = times(value(w[:-1]), len(w) - 1, w[-1]).  coords(value) is a
    value as a sparse {coordinate: scalar} dict, the values of one degree
    in one space.  The normal words of the relations found below
    degree d span a complement of what those relations generate in degree
    d, so the kernel of the evaluation on those words is a basis of the new
    minimal relations of degree d.  After each degree that adds relations,
    the system is completed again up to d_max.
    """
    relations = []
    R = RewriteSystem([], d_max, alphabet, field)
    value = {(): one}
    for d in range(1, d_max + 1):
        words = normal_words(R, d)
        for w in words:
            value[w] = times(value[w[:-1]], len(w) - 1, w[-1])
        if d < 2:
            continue
        kernel = linalg.evaluation_kernel([coords(value[w]) for w in words], field)
        if kernel:
            relations.extend(NcPoly(alphabet, field,
                                    [(words[k], c) for k, c in sorted(v.items())])
                             for v in kernel)
            R = complete_truncated_over(relations, d_max, alphabet, field)
    return relations


def twist(p, sigma, N, s_max=None):
    """Presentation of the twisted algebra A^sigma on the same generators.

    Relations are the minimal relations, in degrees <= s_max (default: one
    more than the highest relation degree of p), that ``present`` finds for
    the twisted product in A, a * x_i = a . sigma^deg(a)(x_i), taken as a
    normal form.  The descent check and the evaluation take normal forms
    only in degrees <= max(s_max, the highest relation degree), so p is
    completed up to that degree.  An N below max(s_max, the highest
    relation degree) is refused, naming both, before anything is completed.
    """
    if s_max is None:
        s_max = p.max_relation_degree() + 1
    top = max(s_max, p.max_relation_degree())
    if top > N:
        raise CutoffExceededError(f"cutoff {N} insufficient for s_max={s_max}; need {top}")
    descends, R = _descends(p, sigma, top)
    if not descends:
        raise ValueError("matrix does not define an automorphism of the algebra")
    images = [[sigma.power(k).image_of_gen(i) for i in range(len(p.alphabet))]
              for k in range(s_max)]
    relations = present(p.alphabet, p.field, NcPoly.one(p.alphabet, p.field),
                        lambda a, k, i: normal_form(a * images[k][i], R),
                        lambda a: a.terms, s_max)
    return AlgebraPresentation(f"{p.name}_twist", p.field, p.alphabet, relations)


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

    def to_dict(self):
        d = {"status": self.status, "is_standard": self.is_standard,
             "r": self.r, "s": self.s, "reason": self.reason}
        if self.M is not None:
            d["M"] = [[e.render() for e in row] for row in self.M]
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
    """Solve (x^t M)^t = Q f exactly; decide the standard-algebra condition.

    Q is read off one kernel: that of the map sending column l to f_{l+1}
    for l < r and column r+j to g_{j+1}, with the words as coordinates.  A
    kernel vector's free column is its largest key, and a column is free
    exactly when its image is a combination of the images before it.  So
    the first g_{j+1} that is not a combination of the relations is the
    first column from r on that is not free, and the relations are
    dependent when a column below r is free.  Row j of Q is minus the
    entries at columns 0..r-1 of the vector of free column r+j: the
    solution that is zero at every free relation column, unique as the
    rref is.
    """
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

    kernel = linalg.evaluation_kernel([f.terms for f in p.relations + g], fld)
    free = {max(v): v for v in kernel}
    report = StandardCheckReport(
        "OK", r=r, s=s, M=M,
        relation_order=[rel.render() for rel in p.relations])
    for j in range(r):
        if r + j not in free:
            report.reason = f"g_{j + 1} is not a combination of the relations"
            return report

    if any(c < r for c in free):
        # every Q_j is zero at a free relation column: Q has a zero column and is singular
        report.status = AMBIGUOUS
        report.reason = "Q is underdetermined (relations linearly dependent)"
        return report

    Q = [[-free[r + j].get(i, fld.zero) for i in range(r)] for j in range(r)]
    if linalg.rank(Q, fld) == r:
        report.is_standard = True
        report.Q = Q
    else:
        report.reason = "unique Q exists but is singular"
    return report


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
