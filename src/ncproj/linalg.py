"""Exact Gaussian elimination over any of the supported coefficient fields.

There is one eliminator, :class:`SpanTracker`: an incrementally built row
echelon form whose rows are sparse, each a dict from column to nonzero
entry, kept in a dict keyed by pivot column.  The matrices met in practice
are about 95% zero, so nothing ever scans or multiplies a zero.  A new row
is stored as its residue against the rows already held and no stored row is
touched again.  The reduced row echelon form is built only where it is
read, by one descending back-substitution; it is unique, so the order in
which rows arrive changes no result.

Rows are kept over a row ring that each field supplies, fraction-free in
the manner of Bareiss: over Q the ring is Z, and a row is a primitive
integer vector with a positive pivot entry; clearing the pivot of a row r
from v cross-multiplies, v <- a v - b r with (a, b) = (p, f) / gcd(p, f)
for the pivot entry p of r and the entry f of v, and a row's content is
divided out once, when it is stored.  Over Q(q) the ring is the field
itself and the rows are monic (the field's one at the pivot), so a = 1 and
v is never scaled.  A vector and a row span the same line, so the span,
its dimension and its pivots do not depend on the ring; residue, reduced
and kernel map their entries back to the field, exactly.

A row ring is four operations: lift(vec) is (v, m), the sparse vector v
over the ring that is vec scaled by a positive m, both found in one pass;
pair is the (a, b) above, None for monic rows; normalise(row, pivot)
turns a residue into the row to store, in place; down(v, d) is v / d over
the field.

The eliminator reads sparse {column: scalar} vectors only.  The module
holds it and two entry points over it: ``evaluation_kernel``, the kernel
of a map given by the sparse images of a basis, and ``rank``, the rank of
a dense matrix (a list of lists of scalars), whose rows it makes sparse.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


def _clear(v, rows, pair):
    """Clear from the sparse v, in place, every pivot of the echelon rows
    {pivot: row}; returns the product s of the factors v was scaled by, so
    that v is now s times (v minus its part in the span), zero at every pivot.

    pair(p, f) is the row ring's (a, b) for the pivot entry p of a row and
    the entry f of v at its pivot: v becomes a v - b row.  pair is None for
    monic rows, and not called for a pivot entry 1: then a is 1 and b is f.
    Pivots are cleared in ascending order: a row holds nothing left of its
    pivot, so subtracting it can only add entries at later columns, and a
    later pivot gained that way joins the heap.
    """
    heap = [c for c in v if c in rows]
    heapify(heap)
    s = 1
    while heap:
        c = heappop(heap)
        f = v.pop(c, None)
        if f is None:                  # cancelled since it was pushed
            continue
        row = rows[c]
        if pair is not None and row[c] != 1:
            a, f = pair(row[c], f)
            if a != 1:
                s *= a
                for j in v:
                    v[j] *= a
        f = -f
        for j, x in row.items():
            if j != c:
                y = v.get(j)
                if y is None:
                    v[j] = f * x
                    if j in rows:
                        heappush(heap, j)
                else:
                    y = y + f * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
    return s


class _Integers:
    """Q's row ring Z: rows are primitive int vectors, positive at the pivot."""

    @staticmethod
    def lift(vec):
        v, m = {}, 1
        for j, x in vec.items():
            if x:
                n, d = x.as_integer_ratio()
                if m % d:              # m grows to lcm(m, d): rescale what is lifted
                    k = d // gcd(m, d)
                    m *= k
                    for i in v:
                        v[i] *= k
                v[j] = n if m == 1 else n * (m // d)
        return v, m

    @staticmethod
    def pair(p, f):
        g = gcd(p, f)
        return p // g, f // g

    @staticmethod
    def normalise(row, pivot):
        g = gcd(*row.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            for j in row:
                row[j] //= g
        return row

    @staticmethod
    def down(v, d):
        if d == 1:
            return {j: Fraction(x) for j, x in v.items()}
        return {j: Fraction(x, d) for j, x in v.items()}


class _Monic:
    """A field as its own row ring: rows are monic, the field's one object at
    the pivot.  A residue whose pivot entry already equals one becomes a row
    unscaled; vectors are never scaled."""

    pair = None

    def __init__(self, field):
        self.one = field.one

    def normalise(self, row, pivot):
        one, lead = self.one, row[pivot]
        if lead is not one and lead != one:
            inv = one / lead
            for j, x in row.items():
                if j != pivot:
                    row[j] = x * inv
        row[pivot] = one
        return row

    @staticmethod
    def lift(vec):
        return {j: x for j, x in vec.items() if x}, 1

    @staticmethod
    def down(v, d):
        return v


class SpanTracker:
    """Incrementally built row space with exact membership queries.

    rows maps each pivot column to its echelon row over the field's row ring
    (see the module docstring), a sparse dict that holds nothing left of
    its pivot: over Q a primitive int vector with a positive pivot entry,
    over Q(q) a vector with the field's one object at the pivot.  A row is
    zero at each pivot column held when it was added, not at later ones.
    Vectors are sparse {column: scalar} dicts, columns below ncols; over Q
    their entries may be Fractions or ints.
    """

    def __init__(self, ncols, field):
        self.ncols = ncols
        self.field = field
        # Q is the field whose scalars are Fractions
        self.ring = _Integers if field.one.__class__ is Fraction else _Monic(field)
        self.rows = {}

    def dim(self):
        return len(self.rows)

    def residue(self, vec):
        """vec minus its part in the span, as a fresh sparse dict: the one
        such vector that is zero at every pivot."""
        ring = self.ring
        v, m = ring.lift(vec)
        return ring.down(v, _clear(v, self.rows, ring.pair) * m)

    def contains(self, vec):
        v, _ = self.ring.lift(vec)
        _clear(v, self.rows, self.ring.pair)
        return not v

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span.  The residue,
        normalised by the row ring, is the only row written."""
        ring = self.ring
        row, _ = ring.lift(vec)
        _clear(row, self.rows, ring.pair)
        if not row:
            return False
        pivot = min(row)
        self.rows[pivot] = ring.normalise(row, pivot)
        return True

    def reduced(self):
        """The reduced row echelon form, {pivot: row} in descending pivot
        order, as fresh dicts over the field with its one object at each
        pivot: each echelon row, from the last pivot down, cleared at each
        later pivot column by the reduced rows already built, over the row
        ring."""
        ring = self.ring
        red = {}
        for c in sorted(self.rows, reverse=True):
            row = dict(self.rows[c])
            _clear(row, red, ring.pair)
            red[c] = ring.normalise(row, c)
        one = self.field.one
        for c, row in red.items():
            p = row.pop(c)
            row = red[c] = ring.down(row, p)
            row[c] = one
        return red

    def kernel(self):
        """Sparse basis of {v : row . v = 0 for every row}.

        One vector per free (non-pivot) column f, in ascending f: one at f,
        minus the reduced form's entries of column f, zero elsewhere.
        """
        one = self.field.one
        red = self.reduced()
        basis = {f: {f: one} for f in range(self.ncols) if f not in red}
        for c, row in red.items():
            for f, x in row.items():
                if f != c:
                    basis[f][c] = -x
        return list(basis.values())


def evaluation_kernel(images, field):
    """Kernel of the linear map sending the k-th basis vector to images[k].

    images are sparse {coordinate: scalar} vectors, with any hashable
    coordinates; the kernel basis is a list of sparse {k: scalar} vectors,
    one per free column, ascending, as from SpanTracker.kernel.
    """
    rows = {}
    for k, image in enumerate(images):
        for t, x in image.items():
            rows.setdefault(t, {})[k] = x
    return _tracker(rows.values(), len(images), field).kernel()


def _tracker(rows, ncols, field):
    span = SpanTracker(ncols, field)
    for r in rows:
        span.add(r)
    return span


def rank(rows, field):
    if not rows:
        return 0
    return _tracker(({j: x for j, x in enumerate(r) if x} for r in rows),
                    len(rows[0]), field).dim()
