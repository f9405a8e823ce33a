import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ospd import inverse_rsk, make_alphabet, rsk
from ospd.tableau import (column_is_valid, insert_letter, make_matrix,
                          row_pair_ok, sorted_column, straight_is_semistandard,
                          straight_shape)
from ospd.osptab import SpinColumn, all_columns, classify_pair, part_letters

from conftest import letters, random_matrix


def insert_word(cols, word):
    for a in word:
        cols, _ = insert_letter(cols, a)
    return cols


def test_column_semistandard_examples(sup46, cl40):
    # odd letters repeat down a column, even letters do not
    assert column_is_valid(letters(sup46, "3/2", "3/2"))
    assert not column_is_valid(letters(cl40, "b2", "b2"))


def test_odd_letters_strict_along_rows(sup46):
    # even letters repeat along a row, odd letters do not
    half = sup46.parse("1/2")
    assert not row_pair_ok(half, half)
    assert row_pair_ok(sup46.parse("b2"), sup46.parse("b2"))


def test_rsk_never_produces_odd_row_repeats(sup22):
    # brute-force oracle for the row rule: insertion tableaux of legal
    # matrices are semistandard and never repeat an odd letter in a row
    singles = all_columns(sup22, 1) + all_columns(sup22, 2) + [()]
    for c1, c2 in itertools.product(singles, repeat=2):
        p_cols, _ = rsk(make_matrix((c1, c2)))
        assert straight_is_semistandard(p_cols)


def test_word_of_worked_example(sup46):
    t = classify_pair(letters(sup46, "b4", "b1", "1/2", "3/2", "3/2"),
                      letters(sup46, "b3", "b2", "3/2", "5/2"), 3)
    # in lambda(3, 2, 2) the right column stands b = 2 rows above the left
    assert t.shape() == (3, 2, 2)
    assert all(row_pair_ok(x, y) for x, y in zip(t.left, t.right[2:]))
    # the reading word takes the columns right to left, each top to bottom
    assert [a.name for a in part_letters(t)] == \
        ["b3", "b2", "3/2", "5/2", "b4", "b1", "1/2", "3/2", "3/2"]
    # a straight tableau reads right-to-left by columns as well, and its
    # reading word column-inserts back to it
    assert insert_word((), letters(sup46, "b4", "b4", "b3")) == \
        (letters(sup46, "b4", "b3"), letters(sup46, "b4"))


def test_empty_word_and_weight():
    assert part_letters(SpinColumn(())) == ()


def test_insert_into_empty(cl40):
    cols, cell = insert_letter((), cl40.parse("b1"))
    assert cols == ((cl40.parse("b1"),),) and cell == (0, 0)


def test_column_word_reinserts_to_itself(rng, sup22):
    for h in range(7):
        for col in all_columns(sup22, h):
            assert insert_word((), col) == ((col,) if col else ())


def test_two_column_insertion_matches_shape(sup46):
    u = letters(sup46, "b4", "b1", "1/2", "3/2", "3/2")
    v = letters(sup46, "b3", "b2", "3/2", "5/2")
    p_cols, q_cols = rsk(make_matrix((v, u)))
    assert len(p_cols) == 2
    assert straight_is_semistandard(p_cols)
    # the insertion tableau is (U -> V): the word of U inserted into V
    assert p_cols == insert_word((v,), u)


def test_rsk_single_column(sup22):
    col = letters(sup22, "b2", "b1", "1/2", "1/2")
    p, q = rsk(make_matrix((col,)))
    assert p == (col,)
    assert q == ((1,),) * 4  # shape (4): a row of ones on the conjugate side


def test_rsk_weight_bookkeeping(rng, sup22):
    for _ in range(100):
        m = random_matrix(rng, sup22, 3, 7)
        p, q = rsk(m)
        assert sorted(a for col in m.cols for a in col) == \
            sorted(a for col in p for a in col)
        for k in range(1, 4):
            count = sum(1 for col in q for e in col if e == k)
            assert count == len(m.cols[k - 1])


def test_rsk_roundtrip_exhaustive_small(sup22):
    singles = [()] + all_columns(sup22, 1) + all_columns(sup22, 2) + \
        all_columns(sup22, 3)
    seen = set()
    for combo in itertools.product(singles, repeat=2):
        if sum(len(c) for c in combo) > 6:
            continue
        m = make_matrix(combo)
        p, q = rsk(m)
        assert straight_is_semistandard(p)
        assert inverse_rsk(p, q, ell=2) == m
        key = (p, q)
        assert key not in seen
        seen.add(key)


def test_rsk_roundtrip_random(rng, sup22):
    for _ in range(200):
        m = random_matrix(rng, sup22, 4, 10)
        p, q = rsk(m)
        assert inverse_rsk(p, q, ell=4) == m


def test_inverse_rsk_shape_mismatch_rejected(sup22):
    col = letters(sup22, "b2", "b1")
    p, q = rsk(make_matrix((col,)))
    with pytest.raises(ValueError):
        inverse_rsk(p, ((1, 2),))  # wrong conjugate shape
    with pytest.raises(ValueError):
        inverse_rsk(p, ((3,), (3,)), ell=2)  # entries beyond ell


def test_matrix_even_multiplicity_rejected(sup22):
    b2 = sup22.parse("b2")
    with pytest.raises(ValueError):
        make_matrix(((b2, b2),))


def test_column_sorting(sup22):
    c = sorted_column(letters(sup22, "1/2", "b2", "1/2"))
    assert [a.name for a in c] == ["b2", "1/2", "1/2"]
    with pytest.raises(ValueError):
        sorted_column(letters(sup22, "b2", "b2"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rsk_roundtrip_hypothesis(data):
    alphabet = make_alphabet("super", 2, 2)
    singles = [()] + all_columns(alphabet, 1) + all_columns(alphabet, 2) + \
        all_columns(alphabet, 3) + all_columns(alphabet, 4)
    ell = data.draw(st.integers(1, 4))
    cols = [data.draw(st.sampled_from(singles)) for _ in range(ell)]
    m = make_matrix(cols)
    p, q = rsk(m)
    assert straight_is_semistandard(p)
    assert tuple(len(c) for c in q) == straight_shape(p)
    assert inverse_rsk(p, q, ell=ell) == m
