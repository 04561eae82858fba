"""Free-algebra term layer: weighted alphabets, words, nc polynomials.

Words are tuples of generator indices.  A noncommutative polynomial is a
finite map from words to nonzero scalars; the zero polynomial has an empty
term map.  Everything here is immutable and pure.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import render_terms
from .linalg import rank


class Alphabet:
    """Generator symbols with positive integer weights."""

    def __init__(self, symbols, weights=None):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("generator symbols must be distinct")
        self.weights = tuple(weights) if weights is not None else (1,) * len(self.symbols)
        if len(self.weights) != len(self.symbols):
            raise ValueError("one weight per symbol")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive (connected convention)")
        self.index = {s: i for i, s in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols \
            and self.weights == other.weights

    def __hash__(self):
        return hash((self.symbols, self.weights))

    def degree(self, word):
        return sum(self.weights[i] for i in word)

    def key(self, word):
        """Degree-lexicographic order on words of this alphabet.

        Words compare by weighted degree, then as tuples of generator indices,
        so ties break by declaration order: the generator declared first is the
        smallest.  The empty word is minimal and the order is compatible with
        concatenation on both sides.
        """
        return (self.degree(word), word)

    def all_unit_weight(self):
        return all(w == 1 for w in self.weights)

    def __repr__(self):
        return f"Alphabet({', '.join(f'{s}:{w}' for s, w in zip(self.symbols, self.weights))})"


class NcPoly:
    """Noncommutative polynomial over a fixed alphabet and coefficient field."""

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet, field, terms=()):
        self.alphabet = alphabet
        self.field = field
        tmap = {}
        for w, c in (terms.items() if isinstance(terms, dict) else terms):
            if not isinstance(c, type(field.zero)) and isinstance(c, (int, Fraction)):
                c = field.coerce(c)
            if c:
                acc = tmap.get(w)
                c = c if acc is None else acc + c
                if c:
                    tmap[w] = c
                else:
                    del tmap[w]
        self.terms = tmap

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(alphabet, field):
        return NcPoly(alphabet, field, ())

    @staticmethod
    def one(alphabet, field):
        return NcPoly(alphabet, field, [((), field.one)])

    @staticmethod
    def gen(alphabet, field, i):
        return NcPoly(alphabet, field, [((i,), field.one)])

    @staticmethod
    def word(alphabet, field, w, coeff=None):
        return NcPoly(alphabet, field, [(tuple(w), coeff if coeff is not None else field.one)])

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NcPoly) and self.alphabet == other.alphabet \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def _check_compatible(self, other):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.field != other.field:
            raise ValueError("coefficient field mismatch")

    def degree(self):
        """Degree of a homogeneous polynomial; raises if inhomogeneous."""
        degs = {self.alphabet.degree(w) for w in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def is_homogeneous(self):
        return len({self.alphabet.degree(w) for w in self.terms}) <= 1

    def max_degree(self):
        return max((self.alphabet.degree(w) for w in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w)
            s = c if acc is None else acc + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        out = NcPoly.zero(self.alphabet, self.field)
        out.terms = terms
        return out

    def __neg__(self):
        out = NcPoly.zero(self.alphabet, self.field)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return NcPoly.zero(self.alphabet, self.field)
        out = NcPoly.zero(self.alphabet, self.field)
        out.terms = {w: x * c for w, x in self.terms.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, NcPoly):
            return self.scale(self.field.coerce(other))
        self._check_compatible(other)
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                acc = terms.get(w)
                c = c if acc is None else acc + c
                if c:
                    terms[w] = c
                else:
                    terms.pop(w, None)
        out = NcPoly.zero(self.alphabet, self.field)
        out.terms = terms
        return out

    def __rmul__(self, other):
        return self.scale(self.field.coerce(other))

    # -- rendering ----------------------------------------------------------

    def render(self):
        """Canonical text form: terms descending, ``*`` products, ``^`` powers."""
        if not self.terms:
            return "0"
        words = sorted(self.terms, key=self.alphabet.key, reverse=True)
        return render_terms((self.terms[w], self._render_word(w)) for w in words)

    def _render_word(self, w):
        if not w:
            return None
        syms = self.alphabet.symbols
        runs = []
        for i in w:
            if runs and runs[-1][0] == i:
                runs[-1][1] += 1
            else:
                runs.append([i, 1])
        return "*".join(syms[i] if e == 1 else f"{syms[i]}^{e}" for i, e in runs)

    def __repr__(self):
        return f"NcPoly({self.render()})"


class GradedEndomorphism:
    """Graded algebra endomorphism given by a square matrix on weight-1 generators.

    Extends linearly and multiplicatively to arbitrary polynomials in the
    weight-1 generators.
    """

    def __init__(self, alphabet, field, matrix):
        if not alphabet.all_unit_weight():
            raise ValueError("endomorphisms act on weight-1 generators only")
        n = len(alphabet)
        matrix = [[field.coerce(x) for x in row] for row in matrix]
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix dimension must match the generator count")
        self.alphabet = alphabet
        self.field = field
        self.matrix = tuple(tuple(row) for row in matrix)

    @staticmethod
    def identity(alphabet, field):
        n = len(alphabet)
        return GradedEndomorphism(
            alphabet, field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    def image_of_gen(self, i):
        """sigma(x_i) as a linear polynomial; matrix column i gives the image."""
        return NcPoly(self.alphabet, self.field,
                      [((j,), self.matrix[j][i]) for j in range(len(self.alphabet))])

    def apply(self, p):
        if p.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        out = NcPoly.zero(self.alphabet, self.field)
        images = [self.image_of_gen(i) for i in range(len(self.alphabet))]
        for w, c in p.terms.items():
            acc = NcPoly.one(self.alphabet, self.field)
            for i in w:
                acc = acc * images[i]
            out = out + acc.scale(c)
        return out

    def compose(self, other):
        """self after other, as matrices: (self . other)(x) = self(other(x))."""
        n = len(self.alphabet)
        z = self.field.zero
        m = [[z] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = z
                for k in range(n):
                    acc = acc + self.matrix[i][k] * other.matrix[k][j]
                m[i][j] = acc
        return GradedEndomorphism(self.alphabet, self.field, m)

    def power(self, n):
        out = GradedEndomorphism.identity(self.alphabet, self.field)
        for _ in range(n):
            out = out.compose(self)
        return out

    def is_invertible(self):
        return rank(self.matrix, self.field) == len(self.alphabet)
