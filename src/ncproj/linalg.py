"""Exact Gaussian elimination over any of the supported coefficient fields.

Matrices are lists of lists of scalars.  All routines are fraction-free in
spirit but not in implementation: scalars divide exactly, so plain row
reduction stays exact.  The matrices met in practice are sparse, so a row
operation only touches the nonzero columns of the row it subtracts.
"""

from __future__ import annotations


def _normalized(row, c, field):
    """row scaled so that its entry in column c is one."""
    inv = field.one / row[c]
    return [x * inv if x else x for x in row]


def _support(row):
    return [j for j, x in enumerate(row) if x]


def _eliminate(row, c, pivot_row, support):
    """row -= row[c] * pivot_row in place, where pivot_row[c] is one."""
    f = row[c]
    for j in support:
        row[j] = row[j] - f * pivot_row[j]


def rref(rows, field):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
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
        rows[r] = prow = _normalized(rows[r], c, field)
        support = _support(prow)
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                _eliminate(rows[i], c, prow, support)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows, field):
    if not rows:
        return 0
    _, pivots = rref(rows, field)
    return len(pivots)


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel {v : A v = 0} of the matrix with given rows."""
    if not rows:
        return [[field.one if j == i else field.zero for j in range(ncols)]
                for i in range(ncols)]
    red, pivots = rref(rows, field)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def row_space_contains(rows, vec, field):
    """Whether vec lies in the row span of rows."""
    if not any(vec):
        return True
    if not rows:
        return False
    m = [list(r) for r in rows] + [list(vec)]
    return rank(m, field) == rank(rows, field)


def solve(rows, rhs, field):
    """One solution x of A x = b, or None.  rows: m x n, rhs: length m."""
    if not rows:
        return [] if not any(rhs) else None
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    for r in range(len(red)):
        if not any(red[r][:n]) and red[r][n]:
            return None
    x = [field.zero] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = red[r][n]
    return x


def invert_matrix(rows, field):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [field.one if j == i else field.zero for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    return [red[i][n:] for i in range(n)]


def reduce_against(basis_rref, pivots, vec, field):
    """Reduce vec against an rref basis; returns the residue vector."""
    v = list(vec)
    for r, c in enumerate(pivots):
        if v[c]:
            _eliminate(v, c, basis_rref[r], _support(basis_rref[r]))
    return v


class SpanTracker:
    """Incrementally maintained row space with exact membership queries."""

    def __init__(self, ncols, field):
        self.ncols = ncols
        self.field = field
        self.rows = []     # rref rows
        self.pivots = []

    def dim(self):
        return len(self.rows)

    def residue(self, vec):
        return reduce_against(self.rows, self.pivots, vec, self.field)

    def contains(self, vec):
        return not any(self.residue(vec))

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        v = self.residue(vec)
        pivot = next((c for c in range(self.ncols) if v[c]), None)
        if pivot is None:
            return False
        v = _normalized(v, pivot, self.field)
        support = _support(v)
        for row in self.rows:
            if row[pivot]:
                _eliminate(row, pivot, v, support)
        at = next((i for i, c in enumerate(self.pivots) if c > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True
