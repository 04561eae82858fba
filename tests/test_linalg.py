"""Exact generic linear algebra over field tags."""

import heapq
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncproj import linalg
from ncproj.fields import QQ, QQ_Q, RatFunc, UPoly

rng = random.Random(7011)


def rand_matrix(m, n):
    return [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]


def mat_vec(A, v):
    return [sum((A[i][j] * v[j] for j in range(len(v))), Fraction(0))
            for i in range(len(A))]


def span_of(rows, ncols, field=QQ):
    span = linalg.SpanTracker(ncols, field)
    for r in rows:
        span.add(r)
    return span


def dense(vec, ncols, field):
    return [vec.get(j, field.zero) for j in range(ncols)]


def test_rref_idempotent_and_rank():
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(m, n)
        red = span_of(A, n).reduced()
        assert span_of(list(red.values()), n).reduced() == red
        assert linalg.rank(A, QQ) == len(red)


def test_kernel_basis_is_kernel():
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = rand_matrix(m, n)
        ker = [dense(v, n, QQ) for v in span_of(A, n).kernel()]
        assert len(ker) == n - linalg.rank(A, QQ)
        for v in ker:
            assert all(x == 0 for x in mat_vec(A, v))
        # kernel vectors are independent
        assert linalg.rank(ker, QQ) == len(ker) if ker else True


def test_row_space_contains():
    A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert span_of(A, 2).contains([Fraction(3), Fraction(-2)])
    B = [[Fraction(1), Fraction(1)]]
    assert not span_of(B, 2).contains([Fraction(1), Fraction(0)])


def test_span_tracker_matches_rank():
    for _ in range(60):
        n = rng.randint(1, 6)
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(rng.randint(0, 8))]
        span = linalg.SpanTracker(n, QQ)
        added = 0
        for v in vecs:
            if span.add(v):
                added += 1
        assert added == linalg.rank(vecs, QQ)
        for v in vecs:
            assert span.contains(v)


def test_span_tracker_residue():
    span = linalg.SpanTracker(2, QQ)
    span.add([Fraction(1), Fraction(1)])
    assert span.residue([Fraction(2), Fraction(3)]) == {1: Fraction(1)}
    assert span.residue({0: Fraction(2), 1: Fraction(2)}) == {}
    span.add([Fraction(0), Fraction(1)])
    assert span.contains([Fraction(5), Fraction(-7)])


def test_over_rational_functions():
    q = RatFunc.q()
    A = [[q, QQ_Q.one], [QQ_Q.one, q]]
    assert linalg.rank(A, QQ_Q) == 2
    # singular at the level of rational functions
    B = [[q, q], [QQ_Q.one, QQ_Q.one]]
    assert linalg.rank(B, QQ_Q) == 1


# ---------------------------------------------------------------------------
# differential test: the sparse eliminator against dense Gauss-Jordan
# ---------------------------------------------------------------------------

def dense_rref(rows, field):
    """Column by column dense elimination, every row kept: the reference."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = prow = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_kernel_basis(rows, ncols, field):
    """One kernel vector per free column of dense_rref, ascending."""
    red, pivots = dense_rref(rows, field)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


nonzero_rationals = st.fractions(min_value=-9, max_value=9,
                                 max_denominator=6).filter(bool)


@st.composite
def qq_monomials(draw):
    """c q^k with k in {-1, 0, 1}: a monomial numerator or denominator."""
    c, k = draw(nonzero_rationals), draw(st.integers(-1, 1))
    q = UPoly([Fraction(0), Fraction(1)])
    return RatFunc(UPoly((c,)) * q) if k == 1 else RatFunc(UPoly((c,)), q if k else None)


def q_general():
    q = RatFunc.q()
    return [q + 1, q * q - 2, (q - 1) / (q + 2), (q * q + q + 1) / (q - 3)]


@st.composite
def sparse_matrices(draw, entries, field, general=()):
    """Up to 12 x 12 with 10-40% nonzeros, some rows combinations of others.

    At most two nonzeros are multiplied by a scalar from general: random
    general rational functions make exact elimination swell, and a few
    already exercise the gcd path.
    """
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    lo = max(1, -(-m * n // 10))
    count = draw(st.integers(lo, max(lo, 2 * m * n // 5)))
    cells = draw(st.permutations([(i, j) for i in range(m) for j in range(n)]))
    A = [[field.zero] * n for _ in range(m)]
    for i, j in cells[:count]:
        A[i][j] = draw(entries)
    if general:
        for i, j in cells[:draw(st.integers(0, 2))]:
            A[i][j] = A[i][j] * draw(st.sampled_from(general))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = field.coerce(draw(nonzero_rationals))
        A.append([x + c * y for x, y in zip(A[a], A[b])])
    draw(st.randoms()).shuffle(A)
    return A


def test_reduced_form_drops_an_entry_that_back_substitution_cancels():
    span = linalg.SpanTracker(3, QQ)
    span.add([Fraction(1), Fraction(1), Fraction(1)])
    # pivot 1 is cleared from row 0, and with it the entry at column 2
    span.add({1: Fraction(2), 2: Fraction(2)})
    assert span.reduced() == {0: {0: Fraction(1)}, 1: {1: Fraction(1), 2: Fraction(1)}}
    assert span.kernel() == [{1: Fraction(-1), 2: Fraction(1)}]


def test_unit_pivot_rows_are_stored_unscaled():
    """Over Q(q), a residue whose pivot entry is one keeps its entries as
    they are; any other is scaled to one at its pivot."""
    field = QQ_Q
    two = field.one + field.one
    span = linalg.SpanTracker(3, field)
    span.add({1: field.coerce(1), 2: two})
    assert span.rows[1][1] is field.one and span.rows[1][2] is two
    span.add({0: two, 2: two})
    assert span.rows[0] == {0: field.one, 2: field.one}
    assert span.rows[0][0] is field.one


def is_primitive_row(row, c):
    """An int row over Q: no common factor, a positive entry at its pivot c
    and nothing left of it."""
    return (all(type(x) is int and x for x in row.values()) and row.get(c, 0) > 0
            and min(row) == c and math.gcd(*row.values()) == 1)


def test_rows_over_Q_are_primitive_integer_vectors():
    """Over Q a residue is stored as a primitive int vector, positive at its
    pivot: its content is divided out and its sign fixed once."""
    span = linalg.SpanTracker(4, QQ)
    span.add({1: Fraction(-2, 3), 2: Fraction(4, 9), 3: Fraction(0)})
    assert span.rows == {1: {1: 3, 2: -2}}
    span.add([Fraction(6), Fraction(2), Fraction(0), Fraction(6)])
    # cleared at column 1 as 3 v - 2 row = (18, 0, 4, 18), then over its content 2
    assert span.rows[0] == {0: 9, 2: 2, 3: 9}
    assert span.residue({0: Fraction(1), 1: Fraction(1)}) == \
        {2: Fraction(4, 9), 3: Fraction(-1)}
    assert span.reduced() == {1: {1: QQ.one, 2: Fraction(-2, 3)},
                              0: {0: QQ.one, 2: Fraction(2, 9), 3: Fraction(1)}}
    assert all(row[c] is QQ.one for c, row in span.reduced().items())


def check_against_dense(A, field):
    m, n = len(A), len(A[0])
    red, pivots = dense_rref(A, field)
    assert linalg.rank(A, field) == len(pivots)
    kernel = dense_kernel_basis(A, n, field)
    # row i enlarges the span of the rows before it exactly when column i
    # of the transpose is a pivot column
    transpose = [list(col) for col in zip(*A)]
    t_pivots = dense_rref(transpose, field)[1]
    sparse_rows = [{j: x for j, x in enumerate(r) if x} for r in A]
    # random vectors, and one in the row space, for the residue oracle
    pick = random.Random(str(A))
    vectors = [[field.coerce(pick.randint(-3, 3)) for _ in range(n)] for _ in range(3)]
    vectors.append([sum((r[j] for r in A), field.zero) for j in range(n)])
    for rows in (A, sparse_rows):
        span = linalg.SpanTracker(n, field)
        added = [span.add(r) for r in rows]
        assert added == [i in t_pivots for i in range(m)]
        # over Q each echelon row is a primitive int vector, positive at its
        # pivot; over Q(q) it holds the field's one there; nothing left of it
        if field == QQ:
            assert all(is_primitive_row(row, c) for c, row in span.rows.items())
        else:
            assert all(row[c] is field.one and min(row) == c for c, row in span.rows.items())
        reduced = span.reduced()
        assert sorted(reduced) == pivots
        assert [dense(reduced[c], n, field) for c in pivots] == red[:len(pivots)]
        assert [dense(v, n, field) for v in span.kernel()] == kernel
        assert all(span.contains(r) for r in rows)
        for v in vectors:
            # the residue is v minus v[c] times the rref row of c, over the pivots c
            want = list(v)
            for c, row in zip(pivots, red):
                want = [x - v[c] * y for x, y in zip(want, row)]
            got = span.residue(v)
            assert not set(got) & set(pivots)
            assert dense(got, n, field) == want
    # the kernel of the transpose, through the sparse evaluation entry
    assert [dense(v, m, field) for v in linalg.evaluation_kernel(sparse_rows, field)] == \
        dense_kernel_basis(transpose, m, field)


# derandomized: the same examples on every run, so the suite's time is stable
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(sparse_matrices(nonzero_rationals, QQ))
def test_eliminator_matches_dense_over_Q(A):
    check_against_dense(A, QQ)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(sparse_matrices(qq_monomials(), QQ_Q, q_general()))
def test_eliminator_matches_dense_over_Qq(A):
    check_against_dense(A, QQ_Q)


# ---------------------------------------------------------------------------
# differential test: integer rows over Q against the Fraction eliminator
# ---------------------------------------------------------------------------

class FractionSpan:
    """The eliminator as it was over Q, the reference: sparse Fraction rows
    with one at the pivot, each pivot of a vector cleared by its value."""

    def __init__(self, ncols):
        self.ncols, self.rows = ncols, {}

    @staticmethod
    def clear(v, rows):
        heap = [c for c in v if c in rows]
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            f = v.pop(c, None)
            if f is None:
                continue
            for j, x in rows[c].items():
                if j != c:
                    if j not in v and j in rows:
                        heapq.heappush(heap, j)
                    y = v.get(j, 0) - f * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
        return v

    def residue(self, vec):
        return self.clear({j: x for j, x in vec.items() if x}, self.rows)

    def add(self, vec):
        row = self.residue(vec)
        if row:
            pivot = min(row)
            self.rows[pivot] = {j: x / row[pivot] for j, x in row.items()}
        return bool(row)

    def reduced(self):
        red = {}
        for c in sorted(self.rows, reverse=True):
            red[c] = self.clear(dict(self.rows[c]), red)
        return red

    def kernel(self):
        red = self.reduced()
        basis = {f: {f: Fraction(1)} for f in range(self.ncols) if f not in red}
        for c, row in red.items():
            for f, x in row.items():
                if f != c:
                    basis[f][c] = -x
        return list(basis.values())


big_rationals = st.builds(Fraction, st.integers(-10**60, 10**60).filter(bool),
                          st.integers(1, 10**60))


@st.composite
def big_sparse_matrices(draw):
    """Up to 9 x 10 over Q, 60-digit numerators and denominators, 10-40%
    nonzero, and up to three rows that are combinations of earlier ones."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    cells = draw(st.permutations([(i, j) for i in range(m) for j in range(n)]))
    A = [{} for _ in range(m)]
    for i, j in cells[:draw(st.integers(max(1, m * n // 10), max(1, 2 * m * n // 5)))]:
        A[i][j] = draw(big_rationals)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, len(A) - 1)), draw(st.integers(0, len(A) - 1))
        c, e = draw(big_rationals), draw(big_rationals)
        row = {j: c * A[a].get(j, 0) + e * A[b].get(j, 0) for j in range(n)}
        A.append({j: x for j, x in row.items() if x})
    return A, n


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(big_sparse_matrices(), st.integers(-10**60, 10**60).filter(bool))
def test_integer_rows_match_the_fraction_eliminator(An, scale):
    A, n = An
    new, old = linalg.SpanTracker(n, QQ), FractionSpan(n)
    assert [new.add(r) for r in A] == [old.add(r) for r in A]
    assert new.dim() == len(old.rows)
    probes = A + [{j: Fraction(j + 1, 7) for j in range(n)}, {0: Fraction(10**61, 3)}]
    for v in probes:
        assert new.contains(v) == (not old.residue(v))
        assert new.residue(v) == old.residue(v)
    reduced = new.reduced()
    assert reduced == old.reduced()
    assert list(reduced) == list(old.reduced())
    assert all(row[c] is QQ.one for c, row in reduced.items())
    assert new.kernel() == old.kernel()
    # the same rows as ints, each a multiple of a row scaled as Fractions
    as_ints = linalg.SpanTracker(n, QQ)
    as_fractions = linalg.SpanTracker(n, QQ)
    for r in A:
        m = math.lcm(*(x.denominator for x in r.values()))
        as_ints.add({j: int(x * m) * scale for j, x in r.items()})
        as_fractions.add({j: x * Fraction(m * scale, 3) for j, x in r.items()})
    assert as_ints.reduced() == as_fractions.reduced() == reduced


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(sparse_matrices(nonzero_rationals, QQ))
def test_rank_matches_sympy_over_Q(A):
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in A])
    assert linalg.rank(A, QQ) == M.rank()


def pinned_monomial_matrix():
    """11 x 12 over Q(q): 50 cells c q^k, c = +-(1..9)/(1..6), k in [-2, 2]."""
    pick = random.Random(1)
    A = [[QQ_Q.zero] * 12 for _ in range(11)]
    for i, j in pick.sample([(i, j) for i in range(11) for j in range(12)], 50):
        c = Fraction(pick.choice([-1, 1]) * pick.randint(1, 9), pick.randint(1, 6))
        k = pick.randint(-2, 2)
        q_k = UPoly([Fraction(0)] * abs(k) + [Fraction(1)])
        A[i][j] = RatFunc(UPoly((c,)) * q_k) if k >= 0 else RatFunc(UPoly((c,)), q_k)
    return A


def value(p, q0):
    """The value at q0 of the polynomial p, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * q0 + c
    return acc


def at(x, q0):
    return value(x.num, q0) / value(x.den, q0)


def test_rref_over_qq_without_coefficient_swell():
    """The rref of a pinned random monomial matrix over Q(q) takes general
    gcds; with Euclid over Q they swelled past a minute.  At integers q0 where
    the rref is defined and the rank does not drop, it specializes to the
    rref over Q of the matrix at q0."""
    A = pinned_monomial_matrix()
    start = time.perf_counter()
    reduced = span_of(A, 12, QQ_Q).reduced()
    assert time.perf_counter() - start < 10
    pivots = sorted(reduced)
    red = [dense(reduced[c], 12, QQ_Q) for c in pivots]
    checked = 0
    for q0 in range(2, 40):
        if any(not value(x.den, q0) for row in red for x in row):
            continue
        A0 = [[at(x, q0) for x in row] for row in A]
        red0, pivots0 = dense_rref(A0, QQ)
        if len(pivots0) != len(pivots):
            continue
        assert ([[at(x, q0) for x in row] for row in red], pivots) == \
            (red0[:len(pivots)], pivots0), q0
        checked += 1
    assert checked >= 3
