"""The plus/minus signature calculus and gl_ell raising/lowering operators.

A sign sequence is reduced by repeatedly cancelling adjacent (+, -) pairs,
ignoring dots in between; the reduction is order independent and is computed
here by a single left-to-right stack pass.  On the reduced sequence the
raising operator acts at the rightmost surviving '-', the lowering operator
at the leftmost surviving '+'.
"""

from __future__ import annotations

from typing import NamedTuple

from .alphabet import EVEN
from .tableau import make_matrix, sorted_column

PLUS = "+"
MINUS = "-"
DOT = "."


class Signature(NamedTuple):
    p: int  # number of surviving minuses
    q: int  # number of surviving pluses


def survivors(symbols):
    """Indices of surviving minuses and pluses after full reduction."""
    minus, stack = [], []
    for idx, s in enumerate(symbols):
        if s == PLUS:
            stack.append(idx)
        elif s == MINUS:
            if stack:
                stack.pop()
            else:
                minus.append(idx)
        elif s != DOT:
            raise ValueError("bad symbol %r" % (s,))
    return minus, stack


def acted_on(symbols, op, k=1):
    """Indices the k-th power of raising (op 'e') or lowering ('f') acts on,
    or None: one reduction, then the k rightmost surviving minuses or the k
    leftmost surviving pluses, since a step flips the survivor next to the
    other sign and no other (Kashiwara's tensor product rule)."""
    minus, plus = survivors(symbols)
    hit = minus[len(minus) - k:] if op == "e" else plus[:k]
    return hit if len(hit) == k else None


def signature_of(symbols):
    minus, plus = survivors(symbols)
    return Signature(len(minus), len(plus))


# ---------------------------------------------------------------------------
# signature of a pair of columns

def merged_pair_word(u, v):
    """The entries of the columns U and V as (letter, source) pairs with
    source '-' for U and '+' for V, weakly decreasing: columns increase
    downwards, so one merge from the bottom orders them.  A letter in both
    puts V's copy first if it is even, U's if it is odd."""
    out = []
    i, j = len(u) - 1, len(v) - 1
    while i >= 0 and j >= 0:
        x, y = u[i], v[j]
        if x.rank > y.rank or x.rank == y.rank and x.parity != EVEN:
            out.append((x, MINUS))
            i -= 1
        else:
            out.append((y, PLUS))
            j -= 1
    while i >= 0:
        out.append((u[i], MINUS))
        i -= 1
    while j >= 0:
        out.append((v[j], PLUS))
        j -= 1
    return out


def sigma_pair(u, v):
    """The signature sigma(U, V) of two single columns."""
    return signature_of([src for _, src in merged_pair_word(u, v)])


# ---------------------------------------------------------------------------
# gl_ell words over {1..ell}

def _word_symbols(word, i):
    return [PLUS if w == i else MINUS if w == i + 1 else DOT for w in word]


def sigma_word(word, i):
    return signature_of(_word_symbols(word, i))


# ---------------------------------------------------------------------------
# biword matrices as gl_ell crystals

def matrix_row_word(matrix):
    """The row reading word of a matrix, with matrix coordinates.

    Rows are concatenated from the largest letter down to the smallest.  An
    even row is the column tableau on its column indices (read increasingly),
    an odd row the row tableau (read decreasingly).  Returns a list of
    (column_index, letter) with 1-based column indices.
    """
    rows = {}
    for idx, col in enumerate(matrix.cols, start=1):
        for a in col:
            rows.setdefault(a, []).append(idx)
    out = []
    for a in sorted(rows, key=lambda l: -l.rank):
        indices = sorted(rows[a])
        if a.parity != EVEN:
            indices.reverse()
        out.extend((k, a) for k in indices)
    return out


def sigma_matrix(matrix, i):
    return sigma_word([k for k, _ in matrix_row_word(matrix)], i)


def _matrix_move(matrix, a, src, dst):
    cols = list(matrix.cols)
    col = list(cols[src - 1])
    col.remove(a)
    cols[src - 1] = tuple(col)
    cols[dst - 1] = sorted_column(cols[dst - 1] + (a,))
    return make_matrix(cols)


def gl_e_matrix(matrix, i):
    pairs = matrix_row_word(matrix)
    minus, _ = survivors(_word_symbols([k for k, _ in pairs], i))
    if not minus:
        return None
    _, a = pairs[minus[-1]]
    return _matrix_move(matrix, a, i + 1, i)


def gl_f_matrix(matrix, i):
    pairs = matrix_row_word(matrix)
    _, plus = survivors(_word_symbols([k for k, _ in pairs], i))
    if not plus:
        return None
    _, a = pairs[plus[0]]
    return _matrix_move(matrix, a, i, i + 1)


# ---------------------------------------------------------------------------
# recording tableaux over {1..ell}

def _letter_signs(q_cols, i):
    """The (row, column) cells of i and i + 1 in column reading order, and
    their signs, '+' for i: the other letters are dots, which never change
    a reduction, and a column holds each at most once, i above i + 1."""
    cells, signs = [], []
    for j in range(len(q_cols) - 1, -1, -1):
        col = q_cols[j]
        if i in col:
            cells.append((col.index(i), j))
            signs.append(PLUS)
        if i + 1 in col:
            cells.append((col.index(i + 1), j))
            signs.append(MINUS)
    return cells, signs


def sigma_tableau(q_cols, i):
    return signature_of(_letter_signs(q_cols, i)[1])


def _tableau_power(q_cols, i, op, k):
    if not k:
        return q_cols
    cells, signs = _letter_signs(q_cols, i)
    hit = acted_on(signs, op, k)
    if hit is None:
        return None
    cols = [list(c) for c in q_cols]
    for idx in hit:
        row, j = cells[idx]
        cols[j][row] = i if op == "e" else i + 1
    return tuple(tuple(c) for c in cols)


def gl_e_tableau(q_cols, i, k=1):
    """The k-th raising power at color i of a recording tableau, or None."""
    return _tableau_power(q_cols, i, "e", k)


def gl_f_tableau(q_cols, i, k=1):
    return _tableau_power(q_cols, i, "f", k)
