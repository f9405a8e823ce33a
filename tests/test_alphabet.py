import itertools

import pytest

from ospd import make_alphabet, simple_root_indices
from ospd.alphabet import EVEN, ODD, simple_root_delta
from ospd.osptab import RejectError, SpinColumn, shape_plan, validate

from conftest import letters


def test_super_alphabet_letters():
    a = make_alphabet("super", 4, 2)
    assert [l.name for l in a.letters] == ["b4", "b3", "b2", "b1", "1/2", "3/2"]
    assert [l.parity for l in a.letters] == [EVEN] * 4 + [ODD] * 2


def test_smallest_classical_alphabet():
    a = make_alphabet("classical", 2, 0)
    assert [l.name for l in a.letters] == ["b2", "b1"]
    assert all(l.parity == EVEN for l in a.letters)


def test_classical_alphabet_has_no_odd_letters():
    a = make_alphabet("classical", 2, 2)
    assert [l.name for l in a.letters] == ["b2", "b1", "1", "2"]
    assert all(l.parity == EVEN for l in a.letters)


def test_m_below_two_rejected():
    with pytest.raises(ValueError):
        make_alphabet("classical", 1, 0)


def test_compare_examples():
    # letters compare by rank, which is how sorted_column orders them
    a = make_alphabet("super", 4, 3)
    assert a.parse("b4") < a.parse("b1") < a.parse("1/2")
    assert a.parse("3/2") == a.parse("3/2")


def test_compare_total_order_small_alphabets():
    for kind, m, n in [("classical", 4, 3), ("super", 4, 3), ("super", 6, 6)]:
        a = make_alphabet(kind, m, n)
        assert a.size <= 12
        assert sorted(reversed(a.letters)) == list(a.letters)
        for x, y in itertools.product(a.letters, repeat=2):
            assert (x < y) == (x.rank < y.rank)
            assert (x == y) == (x.rank == y.rank)


def test_foreign_letter_rejected():
    # rank 2 is 1/2 over 2|2 but b1 over classical 3+1
    a = make_alphabet("super", 2, 2)
    b = make_alphabet("classical", 3, 1)
    assert not a.contains(b.parse("b1"))
    assert a.contains(a.parse("1/2"))
    plan = shape_plan((), 1, a)
    with pytest.raises(RejectError):
        validate([SpinColumn(letters(b, "b3", "b2", "b1", "1"))], plan, a)


def test_simple_root_indices():
    assert [i.name for i in simple_root_indices(make_alphabet("classical", 4, 0))] == \
        ["b4", "b3", "b2", "b1"]
    assert [i.name for i in simple_root_indices(make_alphabet("super", 2, 1))] == \
        ["b2", "b1", "0"]
    assert [i.name for i in simple_root_indices(make_alphabet("classical", 2, 2))] == \
        ["b2", "b1", "0", "1"]
    idx = simple_root_indices(make_alphabet("super", 3, 3))
    assert idx[0].is_spin and idx[0].name == "b3"
    assert [i.name for i in idx] == ["b3", "b2", "b1", "0", "1/2", "3/2"]
    assert [i.odd for i in idx] == [False, False, False, True, False, False]


def test_simple_root_deltas():
    a = make_alphabet("super", 2, 2)
    spin, b1, zero, half = simple_root_indices(a)
    assert simple_root_delta(a, spin).counts == (-1, -1, 0, 0)
    assert simple_root_delta(a, b1).counts == (1, -1, 0, 0)
    assert simple_root_delta(a, zero).counts == (0, 1, -1, 0)
    assert simple_root_delta(a, half).counts == (0, 0, 1, -1)
