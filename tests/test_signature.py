import random

from hypothesis import given, settings, strategies as st

from ospd import make_alphabet, rsk
from ospd.alphabet import EVEN
from ospd.character import contents_up_to, enumerate_recording
from ospd.osptab import all_columns
from ospd.signature import (Signature, gl_e_matrix, gl_e_tableau,
                            gl_f_matrix, gl_f_tableau, merged_pair_word,
                            sigma_matrix, sigma_pair, sigma_tableau,
                            sigma_word, survivors)
from ospd.tableau import make_matrix

from conftest import letters, random_column, random_matrix


def reduce(symbols):
    """The reduced sequence: cancelled pairs replaced by dots."""
    minus, plus = survivors(symbols)
    keep = set(minus) | set(plus)
    return tuple(s if i in keep else "." for i, s in enumerate(symbols))


def test_reduce_examples():
    assert survivors(("+", "-")) == ([], [])
    assert survivors(("-", "+", "-", "+")) == ([0], [3])
    assert reduce(("-", "+", "-", "+")) == ("-", ".", ".", "+")


def _reduce_random_order(rng, symbols):
    out = list(symbols)
    while True:
        pairs = []
        for i, s in enumerate(out):
            if s != "+":
                continue
            for j in range(i + 1, len(out)):
                if out[j] == "-":
                    pairs.append((i, j))
                    break
                if out[j] == "+":
                    break
        if not pairs:
            return tuple(out)
        i, j = rng.choice(pairs)
        out[i] = out[j] = "."


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("+-."), max_size=20), st.integers(0, 10**6))
def test_reduce_order_independence(symbols, seed):
    rng = random.Random(seed)
    assert reduce(tuple(symbols)) == _reduce_random_order(rng, symbols)


def test_sigma_pair_empty_left(sup22, rng):
    for h in range(5):
        v = random_column(rng, sup22, h)
        if v is None:
            continue
        assert sigma_pair((), v) == (0, h)
        assert sigma_pair(v, ()) == (h, 0)


def test_sigma_pair_worked_example(sup46):
    u = letters(sup46, "b4", "b1", "1/2", "3/2", "3/2")
    v = letters(sup46, "b3", "b2", "3/2", "5/2")
    assert sigma_pair(u, v) == (2, 1)


def test_sigma_pair_matches_matrix(rng, sup22):
    for _ in range(300):
        u = None
        while u is None:
            u = random_column(rng, sup22, rng.randrange(0, 6))
        v = None
        while v is None:
            v = random_column(rng, sup22, rng.randrange(0, 6))
        m = make_matrix((v, u))  # m^(2) is U, m^(1) is V
        assert sigma_pair(u, v) == sigma_matrix(m, 1)


def _sorted_pair_word(u, v):
    """The merged word by a keyed sort: letters by decreasing rank, and for
    a letter in both columns V's copy first if it is even, U's if odd."""
    def key(item):
        letter, src = item
        return -letter.rank, src == ("-" if letter.parity == EVEN else "+")

    return sorted([(x, "-") for x in u] + [(y, "+") for y in v], key=key)


def _counted_signature(word):
    """(p, q) by bracket counting: a '-' closes the latest open '+'."""
    p = q = 0
    for _, src in word:
        if src == "+":
            q += 1
        elif q:
            q -= 1
        else:
            p += 1
    return p, q


def test_merge_matches_a_keyed_sort():
    # every pair of columns of height at most 4 over classical 3|3 (57
    # columns) and super 3|3 (129 columns)
    pairs = 0
    for kind in ("classical", "super"):
        A = make_alphabet(kind, 3, 3)
        cols = [c for h in range(5) for c in all_columns(A, h)]
        for u in cols:
            for v in cols:
                word = _sorted_pair_word(u, v)
                assert merged_pair_word(u, v) == word
                assert sigma_pair(u, v) == _counted_signature(word)
                pairs += 1
    assert pairs == 19890


def test_sigma_word_examples():
    assert sigma_word((3, 4), 3) == (0, 0)
    assert sigma_word((4, 4, 3), 3) == (2, 1)


def test_sigma_matrix_is_max_operator_powers(rng, sup22):
    for _ in range(200):
        m = random_matrix(rng, sup22, 3, 8)
        for i in (1, 2):
            p = 0
            cur = m
            while gl_e_matrix(cur, i) is not None:
                cur = gl_e_matrix(cur, i)
                p += 1
            q = 0
            cur = m
            while gl_f_matrix(cur, i) is not None:
                cur = gl_f_matrix(cur, i)
                q += 1
            assert sigma_matrix(m, i) == (p, q)


def test_invariance_of_signature(rng, sup22):
    # the signature of a matrix equals that of its recording tableau
    for _ in range(300):
        m = random_matrix(rng, sup22, 3, 8)
        _, q = rsk(m)
        for i in (1, 2):
            assert sigma_matrix(m, i) == sigma_tableau(q, i)


def test_gl_e_null_on_reduced_word():
    # the column (1, 2) reads "i i+1", which cancels
    assert sigma_word((1, 2), 1) == (0, 0)
    assert gl_e_tableau(((1, 2),), 1) is None
    assert gl_f_tableau(((1, 2),), 1) is None


def test_gl_f_then_e_identity(rng, sup22):
    for _ in range(500):
        m = random_matrix(rng, sup22, 4, 10)
        i = rng.randrange(1, 4)
        up = gl_e_matrix(m, i)
        if up is not None:
            assert gl_f_matrix(up, i) == m


def test_rsk_is_bicrystal_morphism(rng, sup22):
    # k single steps on the matrix move Q as one k-th power on the tableau
    for _ in range(300):
        m = random_matrix(rng, sup22, 3, 8)
        p, q = rsk(m)
        for i in (1, 2):
            for op, qop in ((gl_e_matrix, gl_e_tableau),
                            (gl_f_matrix, gl_f_tableau)):
                moved = m
                for k in (1, 2, 3):
                    moved = op(moved, i)
                    if moved is None:
                        assert qop(q, i, k) is None
                        break
                    p2, q2 = rsk(moved)
                    assert p2 == p
                    assert q2 == qop(q, i, k)


def _full_reading_word(q_cols, i):
    """Every cell of a tableau in column reading order (the rightmost column
    first, each column downwards), and its sign at colour i: '+' for i, '-'
    for i + 1 and a dot for every other letter."""
    cells = [(row, j) for j in range(len(q_cols) - 1, -1, -1)
             for row in range(len(q_cols[j]))]
    return cells, ["+" if q_cols[j][row] == i else
                   "-" if q_cols[j][row] == i + 1 else "." for row, j in cells]


def _reference_power(q_cols, i, op, k):
    cells, word = _full_reading_word(q_cols, i)
    minus, plus = survivors(word)
    hit = minus[len(minus) - k:] if op == "e" else plus[:k]
    if len(hit) < k:
        return None
    cols = [list(c) for c in q_cols]
    for idx in hit:
        row, j = cells[idx]
        cols[j][row] = i if op == "e" else i + 1
    return tuple(tuple(c) for c in cols)


def test_tableau_signatures_match_the_full_reading_word(rng):
    # the library reads only the cells of i and i + 1; the reference reads
    # every cell, the others as dots
    tabs = [q for content in contents_up_to(8, 5)
            for q in enumerate_recording(content)]
    moved = 0
    for q_cols in rng.sample(tabs, 400):
        for i in range(1, 5):
            minus, plus = survivors(_full_reading_word(q_cols, i)[1])
            assert sigma_tableau(q_cols, i) == Signature(len(minus), len(plus))
            for op, power in (("e", gl_e_tableau), ("f", gl_f_tableau)):
                for k in range(4):
                    image = power(q_cols, i, k)
                    assert image == _reference_power(q_cols, i, op, k)
                    moved += k == 3 and image is not None
    assert moved > 100


def test_dispatch():
    assert sigma_pair((), ()) == Signature(0, 0)
