"""Exact Gaussian elimination over any of the supported coefficient fields.

There is one eliminator, :class:`SpanTracker`: an incrementally maintained
reduced row echelon form whose rows are sparse, each a dict from column to
nonzero scalar, kept in a dict keyed by pivot column.  The matrices met in
practice are about 95% zero, so nothing ever scans or multiplies a zero.
Beside the rows, a column index lists, for each non-pivot column, the
pivots whose rows hold an entry there: a new pivot is cleared from exactly
the rows listed under it, so an insertion touches only those rows, and the
kernel is read off the index.  A residue whose pivot entry is already the
field's one is stored as it is, never multiplied by one.  Scalars divide
exactly, so plain row reduction stays exact, and the reduced row echelon
form of a matrix is unique, so the order in which rows arrive changes no
result.

The module holds only that eliminator and two entry points over it:
``evaluation_kernel``, the kernel of a map given by the sparse images of a
basis, and ``rank``, the rank of a dense matrix (a list of lists of
scalars).
"""

from __future__ import annotations

from bisect import insort


def _sparse(vec):
    """Sparse copy {column: nonzero} of a dense list or of a sparse dict."""
    if isinstance(vec, dict):
        return {j: x for j, x in vec.items() if x}
    return {j: x for j, x in enumerate(vec) if x}


def _subtract(v, f, row, skip, index=None, owner=None):
    """v -= f * row in place, over the columns of row other than skip.

    With an index, v is the row of pivot owner: owner is listed under each
    column where v gains an entry and unlisted where an entry cancels.
    """
    for j, x in row.items():
        if j != skip:
            y = v.get(j)
            if y is None:
                v[j] = -(f * x)
                if index is not None:
                    index[j].add(owner)
            else:
                y = y - f * x
                if y:
                    v[j] = y
                else:
                    del v[j]
                    if index is not None:
                        index[j].discard(owner)


class SpanTracker:
    """Incrementally maintained row space with exact membership queries.

    rows maps each pivot column to its rref row, a sparse dict that holds
    the field's one object at the pivot and zero (no entry) at every other
    pivot; pivots lists the pivot columns in ascending order.  The column
    index maps each non-pivot column j that some row has touched to the set
    of pivots c with j in rows[c], so an insertion touches only the rows
    listed under its pivot.  A residue whose pivot entry already equals one
    becomes a row unscaled.  Vectors may be dense lists of length ncols or
    sparse {column: scalar} dicts.
    """

    def __init__(self, ncols, field):
        self.ncols = ncols
        self.field = field
        self.rows = {}
        self.pivots = []
        self.index = {}

    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        """Sparse residue of vec against the rref rows, a fresh dict.

        An rref row is zero at every other pivot, so subtracting one never
        changes the entry of vec at another pivot: each pivot entry of vec
        is cleared once, by its original value, in any order.
        """
        v = _sparse(vec)
        rows = self.rows
        for c in [c for c in v if c in rows]:
            _subtract(v, v.pop(c), rows[c], c)
        return v

    def residue(self, vec):
        """vec minus its part in the span, as a fresh sparse dict."""
        return self._reduce(vec)

    def contains(self, vec):
        return not self._reduce(vec)

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span.

        The residue becomes the new row, scaled unless its pivot entry is
        already one, and is subtracted from the rows the index lists under
        its pivot, the only rows with an entry there.
        """
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
        index = self.index
        for j in row:
            if j != pivot:
                index.setdefault(j, set()).add(pivot)
        rows = self.rows
        for c in index.pop(pivot, ()):
            other = rows[c]
            _subtract(other, other.pop(pivot), row, pivot, index, c)
        rows[pivot] = row
        insort(self.pivots, pivot)
        return True

    def kernel(self):
        """Sparse basis of {v : row . v = 0 for every row}.

        One vector per free (non-pivot) column f, in ascending f: one at f,
        minus the rref entries of column f at the pivots the index lists
        under f, zero elsewhere.
        """
        one = self.field.one
        rows, index = self.rows, self.index
        basis = []
        for f in range(self.ncols):
            if f not in rows:
                v = {c: -rows[c][f] for c in index.get(f, ())}
                v[f] = one
                basis.append(v)
        return basis


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
