"""Semistandard tableaux over a graded alphabet, column insertion, and dual RSK.

Conventions (fixed so that single columns are exactly the columns of the
0/1-constrained biword matrices):

* columns weakly increase top to bottom; an even letter occurs at most once
  per column, odd letters may repeat;
* rows weakly increase left to right; equal neighbors are allowed only for
  even letters, odd letters are strict along rows.

Tableaux are stored column-major: a tuple of columns, each column a tuple of
letters read top to bottom.  ``S(i)`` style indexing (i-th entry from the
bottom, 1-based) is provided by :func:`entry_from_bottom`.
"""

from __future__ import annotations

from typing import NamedTuple

from .alphabet import EVEN


# ---------------------------------------------------------------------------
# columns

def column_is_valid(col):
    """Weakly increasing top to bottom, even letters strict."""
    for x, y in zip(col, col[1:]):
        if x.rank > y.rank:
            return False
        if x.rank == y.rank and x.parity == EVEN:
            return False
    return True


def entry_from_bottom(col, i):
    """The i-th entry from the bottom (1-based), or None past the top."""
    if i < 1:
        raise IndexError("bottom index is 1-based")
    if i > len(col):
        return None
    return col[len(col) - i]


def sorted_column(letters):
    """Sort letters into a column; reject invalid even repeats."""
    col = tuple(sorted(letters))
    if not column_is_valid(col):
        raise ValueError("letters %r do not form a column" % (letters,))
    return col


def row_pair_ok(x, y):
    """May x sit immediately left of y in a row?"""
    if x.rank < y.rank:
        return True
    return x.rank == y.rank and x == y and x.parity == EVEN


# ---------------------------------------------------------------------------
# straight tableaux

def conjugate(shape):
    """Conjugate partition."""
    if not shape:
        return ()
    out = []
    for j in range(shape[0]):
        out.append(sum(1 for part in shape if part > j))
    return tuple(out)


def is_partition(shape):
    return all(a >= b >= 0 for a, b in zip(shape, shape[1:] + (0,)))


def cols_to_rows(cols):
    """Column-major straight tableau to row-major."""
    if not cols:
        return ()
    rows = []
    for i in range(len(cols[0])):
        rows.append(tuple(col[i] for col in cols if len(col) > i))
    return tuple(rows)


def straight_shape(cols):
    """Row lengths of a column-major straight tableau."""
    return conjugate(tuple(len(c) for c in cols))


def straight_is_semistandard(cols):
    for col in cols:
        if not column_is_valid(col):
            return False
    heights = tuple(len(c) for c in cols)
    if any(h1 < h2 for h1, h2 in zip(heights, heights[1:])):
        return False
    for j in range(len(cols) - 1):
        for i in range(len(cols[j + 1])):
            if not row_pair_ok(cols[j][i], cols[j + 1][i]):
                return False
    return True


# ---------------------------------------------------------------------------
# biword matrices

class BiwordMatrix(NamedTuple):
    """A finite A x ell matrix with entries m_{a i}, m_{a i} <= 1 for even a.

    ``cols[i]`` is the column of index i+1; column indices increase from
    right to left in the displayed matrix [m^(ell) : ... : m^(1)], so
    ``cols[0]`` is the rightmost displayed column.  Each column is stored as
    the single-column tableau listing its letters.
    """

    cols: tuple


def make_matrix(cols):
    cols = tuple(tuple(c) for c in cols)
    for c in cols:
        if not column_is_valid(c):
            raise ValueError("matrix column %r is not a column tableau" % (c,))
    return BiwordMatrix(cols)


# ---------------------------------------------------------------------------
# column insertion and dual RSK

def _bump_position(col, a):
    """Index of the entry bumped by inserting a, or None to append.

    An even letter bumps the topmost entry >= a; an odd letter bumps the
    topmost entry > a.
    """
    for idx, x in enumerate(col):
        if x.rank > a.rank or (x.rank == a.rank and a.parity == EVEN):
            return idx
    return None


def insert_letter(cols, a):
    """Column-insert a into a straight column-major tableau.

    Returns (new_cols, (row, col)) with the coordinates of the new cell.
    """
    cols = [list(c) for c in cols]
    j = 0
    while True:
        if j == len(cols):
            cols.append([a])
            cell = (0, j)
            break
        pos = _bump_position(cols[j], a)
        if pos is None:
            cols[j].append(a)
            cell = (len(cols[j]) - 1, j)
            break
        a, cols[j][pos] = cols[j][pos], a
        j += 1
    return tuple(tuple(c) for c in cols), cell


def rsk(matrix):
    """Dual RSK: matrix -> (P, Q).

    P is the column insertion of the matrix columns m^(1), m^(2), ...;
    Q in SST_{1..ell}(shape(P)') records the growth, the cells created while
    inserting m^(k) being filled with k.  Both are column-major.
    """
    p_cols = ()
    q_nat = []  # same shape as P, column-major
    for k, col in enumerate(matrix.cols, start=1):
        for a in col:
            p_cols, (i, j) = insert_letter(p_cols, a)
            while j >= len(q_nat):
                q_nat.append([])
            if i != len(q_nat[j]):
                raise AssertionError("recording cell out of order")
            q_nat[j].append(k)
    # Q lives on the conjugate shape: its columns are the rows of the
    # recording filling of sh(P)
    q_cols = cols_to_rows(tuple(tuple(c) for c in q_nat))
    return p_cols, q_cols


def _reverse_bump_position(col, y):
    """Bottom-most entry of col that could have bumped y."""
    for idx in range(len(col) - 1, -1, -1):
        x = col[idx]
        if x.rank < y.rank or (x.rank == y.rank and x.parity == EVEN and x == y):
            return idx
    return None


def inverse_rsk(p_cols, q_cols, ell=None):
    """Inverse of :func:`rsk`; rejects incompatible shapes.

    ``ell`` fixes the number of matrix columns; by default the largest entry
    of Q is used, so trailing empty matrix columns are dropped.
    """
    if tuple(len(c) for c in q_cols) != straight_shape(p_cols):
        raise ValueError("sh(Q) is not the conjugate of sh(P)")
    q_nat = cols_to_rows(q_cols)  # back to the shape of P, column-major
    entries = [list(e for e in col) for col in q_nat]
    for col in entries:
        if any(not isinstance(e, int) or e < 1 for e in col):
            raise ValueError("Q must be filled with positive integers")
    top = max((e for col in entries for e in col), default=0)
    if ell is None:
        ell = top
    elif top > ell:
        raise ValueError("Q uses entries beyond ell")
    cols = [list(c) for c in p_cols]
    out = [[] for _ in range(ell)]
    for k in range(ell, 0, -1):
        cells = [(i, j) for j, col in enumerate(entries)
                 for i, e in enumerate(col) if e == k]
        cells.sort(reverse=True)
        seen_rows = set()
        for i, j in cells:
            if i in seen_rows:
                raise ValueError("entries %d of Q do not form a vertical strip" % k)
            seen_rows.add(i)
            if i != len(cols[j]) - 1 or i != len(entries[j]) - 1:
                raise ValueError("Q is not a valid recording tableau")
            carry = cols[j].pop()
            entries[j].pop()
            for jj in range(j - 1, -1, -1):
                pos = _reverse_bump_position(cols[jj], carry)
                if pos is None:
                    raise ValueError("reverse bumping failed; invalid (P, Q)")
                carry, cols[jj][pos] = cols[jj][pos], carry
            out[k - 1].append(carry)
    if any(cols):
        raise ValueError("Q does not exhaust P")
    return make_matrix(sorted_column(c) for c in out)


# ---------------------------------------------------------------------------
# JSON encoding

def letters_to_json(letters):
    return [a.name for a in letters]


def letters_from_json(alphabet, names):
    return tuple(alphabet.parse(s) for s in names)
