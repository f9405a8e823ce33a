"""Self-checks of the word-level tensor-rule oracle in ``bkk_oracle``.

Criterion 7 takes its frozen set from that oracle, so the oracle is checked
here against facts it does not compute: V^{(x)k} for gl(2|2) splits into
sum f^lambda components, each with the hook-Schur character counted straight
from (2|2)-semistandard tableaux, and the oracle's operators agree with the
library's on every word of at most 5 letters and on the reading words of
the 2|2 tableaux that criterion 7 explores.  A word enters the library's
engine as one-letter columns listed last letter first, because the super
family reads the last column first.
"""

from collections import Counter
from itertools import product
from math import factorial, prod

from ospd import enumerate_tableaux, make_alphabet, shape_plan
from ospd.alphabet import parse_root_index
from ospd.crystal import _cols_op
from ospd.osptab import tuple_to_matrix

from bkk_oracle import (rank_columns, reading_word, spin_raisable,
                        word_components, word_frozen, word_op)

M, N = 2, 2
MAX_LETTERS = 5


def partitions(k, top=None):
    if k == 0:
        yield ()
        return
    for first in range(min(k, top or k), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def standard_count(lam):
    """f^lambda by the hook length formula."""
    conj = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    hooks = [lam[i] - j + conj[j] - i - 1
             for i in range(len(lam)) for j in range(lam[i])]
    return factorial(sum(lam)) // prod(hooks)


def hook_schur(lam):
    """Contents of the (2|2)-semistandard tableaux of shape lambda: ranks
    0..M-1 are even (weak along rows, strict down columns), the others odd
    (strict along rows, weak down columns)."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    char = Counter()
    for filling in product(range(M + N), repeat=len(cells)):
        T = dict(zip(cells, filling))
        ok = True
        for (i, j), a in T.items():
            right, below = T.get((i, j + 1)), T.get((i + 1, j))
            if right is not None and (right < a or (right == a and a >= M)):
                ok = False
            if below is not None and (below < a or (below == a and a < M)):
                ok = False
        if ok:
            char[content(filling)] += 1
    return char


def content(word):
    return tuple(word.count(r) for r in range(M + N))


def character(words):
    return Counter(content(w) for w in words)


def component_shapes(k):
    """Each component of V^{(x)k} paired with the shape whose hook-Schur
    character it has."""
    chars = {lam: hook_schur(lam) for lam in partitions(k)
             if len(lam) <= M or lam[M] <= N}
    out = []
    for comp in word_components(M, N, k):
        shapes = [lam for lam, ch in chars.items() if ch == character(comp)]
        assert len(shapes) == 1, (k, comp[0])
        out.append((shapes[0], comp))
    return out, chars


def test_components_have_hook_schur_characters():
    for k in range(1, MAX_LETTERS + 1):
        found, chars = component_shapes(k)
        assert Counter(lam for lam, _ in found) == \
            {lam: standard_count(lam) for lam in chars}, k
    assert len(component_shapes(4)[0]) == 10
    assert len(component_shapes(5)[0]) == 26


def assert_word_operators_agree(A, words):
    for name in ("b1", "0", "1/2"):
        color = parse_root_index(A, name)
        for word in words:
            cols = tuple((A.letter(r),) for r in reversed(word))
            for op in "ef":
                got = _cols_op(A, "super", color, cols, op)
                got = None if got is None else \
                    tuple(a.rank for (a,) in reversed(got))
                assert word_op(M, color.chain, word, op) == got, \
                    (name, op, cols)


def test_word_operators_agree_with_the_library():
    assert_word_operators_agree(
        make_alphabet("super", M, N),
        [w for k in range(MAX_LETTERS + 1)
         for w in product(range(M + N), repeat=k)])


def test_word_operators_agree_on_tableau_reading_words():
    # the 2|2 plans of criterion 7 at its bound of 8 boxes
    A = make_alphabet("super", M, N)
    words = set()
    for lam, ell in (((), 1), ((1,), 1), ((1, 1), 2), ((2,), 2), ((), 2),
                     ((2,), 3)):
        for tt in enumerate_tableaux(shape_plan(lam, ell, A), A, 8):
            words.add(reading_word(rank_columns(tuple_to_matrix(tt).cols)))
    assert_word_operators_agree(A, sorted(words))


def test_spin_rule_agrees_with_the_library():
    A = make_alphabet("super", M, N)
    spin = parse_root_index(A, "b2")
    columns = [()]
    for height in range(1, 4):
        columns += [c for c in product(range(M + N), repeat=height)
                    if all(a < b or (a == b and a >= M)
                           for a, b in zip(c, c[1:]))]
    for count in range(1, 4):
        for cols in product(columns, repeat=count):
            letter_cols = tuple(tuple(A.letter(r) for r in c) for c in cols)
            want = _cols_op(A, "super", spin, letter_cols, "e") is not None
            assert spin_raisable(cols) == want, cols


def test_each_b211_of_four_letters_has_two_raising_frozen_words():
    found, _ = component_shapes(4)
    b211 = [comp for lam, comp in found if lam == (2, 1, 1)]
    assert len(b211) == 3
    frozen = [[w for w in comp if word_frozen(M, N, w)] for comp in b211]
    assert [len(f) for f in frozen] == [2, 2, 2]
    # the reading word (1/2, b1, 3/2, b2) of the smallest fake source of
    # criterion 7's plan ((1,1), 2) over the 2|2 alphabet
    assert any((2, 1, 3, 0) in f for f in frozen)
