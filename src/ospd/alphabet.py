"""Graded ordered alphabets, simple-root index sets, and weights.

Two families of alphabet are supported:

* ``classical(m, n)``: the ordered set  bm < ... < b1 < 1 < 2 < ... < n,
  every letter even.
* ``super(m, n)``: the ordered set  bm < ... < b1 < 1/2 < 3/2 < ... < n-1/2,
  where the m barred letters are even and the n half-integer letters are odd.

Letters are stored by rank (0-based from the minimum); symbolic names exist
only for display and parsing.  ``n`` is always finite here; statements about
infinite alphabets are recovered by taking ``n`` at least as large as the
total number of boxes in play.
"""

from __future__ import annotations

from typing import NamedTuple

EVEN = 0
ODD = 1


class Letter(NamedTuple):
    rank: int
    parity: int
    name: str

    def __repr__(self):
        return self.name


class RootIndex(NamedTuple):
    """A color from the simple-root index set.

    ``chain`` is 0 for the distinguished spin index (bm) and t in 1..N-1 for
    the color whose arrow moves the letter of rank t-1 to the letter of
    rank t.  ``odd`` marks the isotropic color (super family only).
    """

    chain: int
    name: str
    odd: bool

    @property
    def is_spin(self):
        return self.chain == 0

    def __repr__(self):
        return self.name


class Weight(NamedTuple):
    """An element level*Lambda_bm + sum_a mult[a]*delta_a of the weight lattice.

    ``counts`` is indexed by letter rank and has one slot per letter of the
    ambient alphabet.
    """

    level: int
    counts: tuple

    def sub(self, other):
        if len(self.counts) != len(other.counts):
            raise ValueError("weights over different alphabets")
        return Weight(self.level - other.level,
                      tuple(x - y for x, y in zip(self.counts, other.counts)))


def _barred_name(k):
    return "b%d" % k


def _odd_name(j):
    # j-th odd letter (1-based) is the half-integer j - 1/2
    return "%d/2" % (2 * j - 1)


class Alphabet:
    """A graded, totally ordered finite alphabet J_{m|n} or J_{m+n}."""

    def __init__(self, kind, m, n):
        if kind not in ("classical", "super"):
            raise ValueError("kind must be 'classical' or 'super'")
        if m < 2:
            raise ValueError("m must be at least 2")
        if n < 0:
            raise ValueError("n must be non-negative")
        self.kind = kind
        self.m = m
        self.n = n
        letters = []
        for k in range(m):
            letters.append(Letter(k, EVEN, _barred_name(m - k)))
        for j in range(1, n + 1):
            if kind == "classical":
                letters.append(Letter(m + j - 1, EVEN, str(j)))
            else:
                letters.append(Letter(m + j - 1, ODD, _odd_name(j)))
        self.letters = tuple(letters)
        self._by_name = {l.name: l for l in letters}

    @property
    def size(self):
        return self.m + self.n

    def letter(self, rank):
        return self.letters[rank]

    def parse(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError("unknown letter %r for %s" % (name, self)) from None

    def contains(self, letter):
        return (0 <= letter.rank < self.size
                and self.letters[letter.rank] == letter)

    def __eq__(self, other):
        return (isinstance(other, Alphabet)
                and (self.kind, self.m, self.n) == (other.kind, other.m, other.n))

    def __hash__(self):
        return hash((self.kind, self.m, self.n))

    def __repr__(self):
        if self.kind == "classical":
            return "J_{%d+%d}" % (self.m, self.n)
        return "J_{%d|%d}" % (self.m, self.n)


def make_alphabet(kind, m, n):
    return Alphabet(kind, m, n)


def simple_root_indices(alphabet):
    """The index set I, spin index first, then the chain colors in order.

    For classical(m, n) this is {bm, ..., b1, 0, 1, ..., n-1}; for
    super(m, n) it is {bm, ..., b1, 0, 1/2, ..., n-3/2}.  When n = 0 both
    truncate to {bm, ..., b1}.
    """
    m, n = alphabet.m, alphabet.n
    indices = [RootIndex(0, _barred_name(m), False)]
    for t in range(1, alphabet.size):
        if t < m:
            indices.append(RootIndex(t, _barred_name(m - t), False))
        elif t == m:
            indices.append(RootIndex(t, "0", alphabet.kind == "super"))
        else:
            j = t - m
            if alphabet.kind == "classical":
                indices.append(RootIndex(t, str(j), False))
            else:
                indices.append(RootIndex(t, _odd_name(j), False))
    return indices


def parse_root_index(alphabet, name):
    for idx in simple_root_indices(alphabet):
        if idx.name == name:
            return idx
    raise ValueError("unknown color %r for %s" % (name, alphabet))


def simple_root_delta(alphabet, index):
    """The delta-coordinates of the simple root for ``index``.

    Returned as a Weight (level 0): -delta_{bm}-delta_{bm-1} for the spin
    color, delta_{t-1} - delta_t for the chain color t.
    """
    counts = [0] * alphabet.size
    if index.is_spin:
        counts[0] -= 1
        counts[1] -= 1
    else:
        counts[index.chain - 1] += 1
        counts[index.chain] -= 1
    return Weight(0, tuple(counts))

