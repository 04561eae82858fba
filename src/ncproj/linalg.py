"""Exact Gaussian elimination over any of the supported coefficient fields.

There is one eliminator, :class:`SpanTracker`: an incrementally built row
echelon form whose rows are sparse, each a dict from column to nonzero
scalar, kept in a dict keyed by pivot column.  The matrices met in practice
are about 95% zero, so nothing ever scans or multiplies a zero.  A new row
is stored as its residue against the rows already held and no stored row is
touched again.  The reduced row echelon form is built only where it is
read, by one descending back-substitution; it is unique, so the order in
which rows arrive changes no result.  Scalars divide exactly, so plain row
reduction stays exact.

The module holds only that eliminator and two entry points over it:
``evaluation_kernel``, the kernel of a map given by the sparse images of a
basis, and ``rank``, the rank of a dense matrix (a list of lists of
scalars).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def _sparse(vec):
    """Sparse copy {column: nonzero} of a dense list or of a sparse dict."""
    if isinstance(vec, dict):
        return {j: x for j, x in vec.items() if x}
    return {j: x for j, x in enumerate(vec) if x}


def _clear(v, rows):
    """Clear from the sparse v, in place, every pivot of the echelon rows
    {pivot: row}; returns v, now zero at every pivot.

    Pivots are cleared in ascending order: a row holds nothing left of its
    pivot, so subtracting it can only add entries at later columns, and a
    later pivot gained that way joins the heap.
    """
    heap = [c for c in v if c in rows]
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = v.pop(c, None)
        if f is None:                  # cancelled since it was pushed
            continue
        f = -f
        for j, x in rows[c].items():
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
    return v


class SpanTracker:
    """Incrementally built row space with exact membership queries.

    rows maps each pivot column to its echelon row, a sparse dict that holds
    the field's one object at the pivot and nothing to its left; a row is
    zero at each pivot column held when it was added, not at later ones.  A
    residue whose pivot entry already equals one becomes a row unscaled.
    Vectors may be dense lists of length ncols or sparse {column: scalar}
    dicts.
    """

    def __init__(self, ncols, field):
        self.ncols = ncols
        self.field = field
        self.rows = {}

    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        """Sparse residue of vec against the echelon rows, a fresh dict."""
        return _clear(_sparse(vec), self.rows)

    def residue(self, vec):
        """vec minus its part in the span, as a fresh sparse dict: the one
        such vector that is zero at every pivot."""
        return self._reduce(vec)

    def contains(self, vec):
        return not self._reduce(vec)

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span.  The residue,
        scaled unless its pivot entry is already one, is the only row written."""
        row = self._reduce(vec)
        if not row:
            return False
        pivot = min(row)
        one, lead = self.field.one, row[pivot]
        if lead is not one and lead != one:
            inv = one / lead
            for j, x in row.items():
                if j != pivot:
                    row[j] = x * inv
        row[pivot] = one
        self.rows[pivot] = row
        return True

    def reduced(self):
        """The reduced row echelon form, {pivot: row} in descending pivot
        order, as fresh dicts: each echelon row, from the last pivot down,
        cleared at each later pivot column by the reduced rows already built."""
        one = self.field.one
        red = {}
        for c in sorted(self.rows, reverse=True):
            row = _clear({j: x for j, x in self.rows[c].items() if j != c}, red)
            row[c] = one
            red[c] = row
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
    return _tracker(rows, len(rows[0]), field).dim()
