"""Ortho-symplectic tableaux of type D.

The building blocks are two-column classes with an even-slide residue, a
barred variant, and spin columns:

* ``OspPair``: a semistandard filling of lambda(a, b, c) with b, c even whose
  signature is (a - r, b - r) for a residue r in {0, 1};
* ``BarPair``: a semistandard filling of lambda(0, b, c+1) with b, c even;
* ``SpinColumn``: a single column, sign + for even height and - for odd.

A full tableau is a tuple (T_L, ..., T_1, T_0) of such components whose
shapes are prescribed by a :class:`ShapePlan` and whose adjacent members are
pairwise admissible.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .alphabet import EVEN
from .signature import MINUS, PLUS, acted_on, merged_pair_word, sigma_pair
from .tableau import (column_is_valid, conjugate, entry_from_bottom,
                      is_partition, letters_from_json, letters_to_json,
                      make_matrix, row_pair_ok)


class RejectError(ValueError):
    """A candidate object fails a membership or admissibility condition."""


# most slots enumeration takes; it recurses once per slot, and from the command
# line 988 slots ran and 990 overflowed the default recursion limit
MAX_SLOTS = 500


class OspPair(NamedTuple):
    left: tuple
    right: tuple
    a: int
    residue: int

    def boxes(self):
        return len(self.left) + len(self.right)

    def shape(self):
        c = len(self.left) - self.a
        return (self.a, len(self.right) - c, c)


class BarPair(NamedTuple):
    left: tuple
    right: tuple

    def boxes(self):
        return len(self.left) + len(self.right)


class SpinColumn(NamedTuple):
    col: tuple

    @property
    def sign(self):
        return "+" if len(self.col) % 2 == 0 else "-"

    @property
    def residue(self):
        return len(self.col) % 2

    def boxes(self):
        return len(self.col)


def part_cols(part):
    """The matrix columns of a component: (T^R, T^L) for a pair, (T_0,) for
    a spin column."""
    if isinstance(part, SpinColumn):
        return (part.col,)
    return (part.right, part.left)


def part_letters(part):
    return sum(part_cols(part), ())


def slot_of(part):
    """The (kind, param) slot a component fills, as listed by
    :func:`expected_kinds`."""
    if isinstance(part, SpinColumn):
        return "spin", part.sign
    if isinstance(part, BarPair):
        return "bar", None
    if isinstance(part, OspPair):
        return "pair", part.a
    raise RejectError("%r is not a component" % (part,))


def part_from_cols(slot, cols):
    """The component of the slot with the given matrix columns, the inverse
    of :func:`part_cols`; raises RejectError when they leave its class."""
    kind, param = slot
    if kind == "spin":
        (col,) = cols
        if not column_is_valid(col):
            raise RejectError("spin column is not semistandard")
        part = SpinColumn(tuple(col))
        if part.sign != param:
            raise RejectError("spin column of sign %s in a %s slot"
                              % (part.sign, param))
        return part
    right, left = cols
    if kind == "bar":
        return make_bar_pair(left, right)
    return classify_pair(left, right, param)


# ---------------------------------------------------------------------------
# membership

def _residue(sig, a, b):
    """The r in {0, 1} with sig = (a - r, b - r), or None; barred is a = 0."""
    r = a - sig.p
    return r if r in (0, 1) and sig.q + r == b else None


def classify_pair(left, right, a):
    """Check membership of two columns in the class of a-pairs.

    Returns an :class:`OspPair` carrying the residue, or raises
    :class:`RejectError` with the violated condition.
    """
    left, right = tuple(left), tuple(right)
    if not (column_is_valid(left) and column_is_valid(right)):
        raise RejectError("columns are not semistandard")
    c = len(left) - a
    b = len(right) - c
    if c < 0 or b < 0:
        raise RejectError("columns too short for a=%d" % a)
    if b % 2 or c % 2:
        raise RejectError("b=%d, c=%d not both even" % (b, c))
    sig = sigma_pair(left, right)
    r = _residue(sig, a, b)
    if r is None:
        raise RejectError("signature %s is not (a-r, b-r) for r=0,1"
                          % (sig,))
    return OspPair(left, right, a, r)


def make_bar_pair(left, right):
    """Membership in the barred class: shape lambda(0, b, c+1), b, c even."""
    left, right = tuple(left), tuple(right)
    if not (column_is_valid(left) and column_is_valid(right)):
        raise RejectError("columns are not semistandard")
    if len(left) % 2 == 0:
        raise RejectError("left column height must be odd")
    b = len(right) - len(left)
    if b < 0 or b % 2:
        raise RejectError("right column must be taller by an even amount")
    if _residue(sigma_pair(left, right), 0, b) is None:
        raise RejectError("pair is not semistandard at shape lambda(0,%d,%d)"
                          % (b, len(left)))
    return BarPair(left, right)


def valid_slide_offsets(left, right, a):
    """Offsets k for which the pair, with the right column slid k rows down
    from the lambda(a, b, c) arrangement, is row-semistandard.

    Membership in the a-pair class means this set is exactly {0} or {0, 1},
    and its maximum is the residue; used as an independent check of the
    signature characterization.
    """
    c = len(left) - a
    b = len(right) - c
    good = set()
    for k in range(0, min(a, b) + 1):
        ok = True
        for i in range(1, len(right) + 1):
            x = entry_from_bottom(left, i + a - k)
            y = entry_from_bottom(right, i)
            if x is not None and y is not None and not row_pair_ok(x, y):
                ok = False
                break
        if ok:
            good.add(k)
    return good


# ---------------------------------------------------------------------------
# the two splits

def _moved_split(pair, op, k):
    """The columns (left, right) after the k-th power of the operator at color
    1 of the matrix (T^R, T^L), whose row word is the pair's merged word."""
    word = merged_pair_word(pair.left, pair.right)
    hit = acted_on([src for _, src in word], op, k)
    if hit is None:
        raise AssertionError("%s^%d is undefined on %r" % (op, k, pair))
    cols = {MINUS: [], PLUS: []}
    for idx in range(len(word) - 1, -1, -1):  # increasing letters
        letter, src = word[idx]
        if idx in hit:
            src = PLUS if src == MINUS else MINUS
        cols[src].append(letter)
    return tuple(cols[MINUS]), tuple(cols[PLUS])


def lr_split(pair):
    """The split (LT, RT): the (a - r)-th raising power at color 1 of the
    two-column matrix moves a - r letters from T^L to T^R."""
    if isinstance(pair, SpinColumn):
        return pair.col, pair.col
    return _moved_split(pair, "e", pair.a - pair.residue)


def star_split(pair):
    """The split (L*T, R*T), the lowering operator at color 1; residue 1 only."""
    if pair.residue != 1:
        raise RejectError("star split needs residue 1")
    if isinstance(pair, SpinColumn):
        return pair.col, pair.col
    return _moved_split(pair, "f", 1)


def lr_split_sliding(pair):
    """Algorithm form of :func:`lr_split`: slide the right-column boxes down
    as far as rows stay semistandard, then move the uncovered left boxes
    across."""
    a, b, c = pair.shape()
    left_rows = {b + 1 + i: x for i, x in enumerate(pair.left)}
    bottom = a + b + c
    stop = bottom + 1
    right_rows = {}
    for i in range(len(pair.right) - 1, -1, -1):
        y = pair.right[i]
        r = i + 1
        while r + 1 < stop:
            x = left_rows.get(r + 1)
            if x is not None and not row_pair_ok(x, y):
                break
            r += 1
        right_rows[r] = y
        stop = r
    moved = 0
    for r, x in sorted(left_rows.items()):
        if r not in right_rows:
            right_rows[r] = x
            moved += 1
            del left_rows[r]
    if moved != pair.a - pair.residue:
        raise AssertionError("slid %d boxes, expected a - r = %d"
                             % (moved, pair.a - pair.residue))
    lcol = tuple(x for _, x in sorted(left_rows.items()))
    rcol = tuple(y for _, y in sorted(right_rows.items()))
    return lcol, rcol


def star_split_sliding(pair):
    """Algorithm form of :func:`star_split`: slide the left-column boxes up,
    then move the lowest uncovered right box across."""
    if pair.residue != 1:
        raise RejectError("star split needs residue 1")
    a, b, c = pair.shape()
    right_rows = {i + 1: y for i, y in enumerate(pair.right)}
    left_rows = {}
    stop = 0
    for i, x in enumerate(pair.left):
        r = b + 1 + i
        while r - 1 > stop:
            y = right_rows.get(r - 1)
            if y is not None and not row_pair_ok(x, y):
                break
            r -= 1
        left_rows[r] = x
        stop = r
    free = [r for r in sorted(right_rows, reverse=True) if r not in left_rows]
    if not free:
        raise AssertionError("no movable right box despite residue 1")
    r = free[0]
    left_rows[r] = right_rows.pop(r)
    lcol = tuple(x for _, x in sorted(left_rows.items()))
    rcol = tuple(y for _, y in sorted(right_rows.items()))
    return lcol, rcol


# ---------------------------------------------------------------------------
# admissibility

def _adm_profile(s, share):
    """(a', r, S^L, LS, S^Lstar, is_spin_minus) of the right-hand member, with
    the split columns passed through ``share``; a barred pair is read as the
    spin column of its left column."""
    if isinstance(s, BarPair):
        s = SpinColumn(s.left)
    if isinstance(s, SpinColumn):
        return (s.residue, s.residue, s.col, s.col, s.col, s.sign == "-")
    ls = share(lr_split(s)[0])
    lstar = share(star_split(s)[0]) if s.residue == 1 else None
    return (s.a, s.residue, s.left, ls, lstar, False)


def _entries_leq(x_col, y_col, shift=0):
    """x_col(i + shift) <= y_col(i) for all i, equality only at even entries."""
    # bottom-aligned: x_col[n - i] against y_col[-i] for i = 1..n
    n = len(x_col) - shift
    if n <= 0:
        return True
    return n <= len(y_col) and all(map(row_pair_ok, x_col[n - 1::-1],
                                       y_col[::-1]))


def _admissible_nonbar(t, profile, right_star, right_lr):
    """T < S for T an a-pair and S an a'-pair, a barred pair or a spin
    column, given S's :func:`_adm_profile`.  T's R*T and RT are read through
    the lookups ``right_star`` and ``right_lr``, and only once clause (i)
    has passed."""
    a_p, r_s, s_l, ls, s_lstar, spin_minus = profile
    if t.a < a_p:
        raise RejectError("left member must have a >= a'")
    r_t = t.residue
    eps = 1 if spin_minus else 0

    # (i)
    if len(t.right) > len(s_l) - a_p + 2 * r_s * r_t:
        return False
    # (ii)
    x_col = right_star(t) if r_s == r_t == 1 else t.right
    if not _entries_leq(x_col, ls):
        return False
    # (iii)
    rt = right_lr(t)
    if r_s == r_t == 1:
        return _entries_leq(rt, s_lstar, shift=t.a - a_p + eps)
    return _entries_leq(rt, s_l, shift=t.a - a_p)


class _Table(dict):
    """The values of ``fn``, each computed on its first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def tabled_admissibility():
    """The relation T < S as ``left_of(s)``, the predicate ``t -> T < S``,
    and ``left_key(t)``, all that the predicate reads of T: T's a, residue,
    T^R, R*T and RT, or T^R alone for a barred T.  S's profile and T's R*T
    and RT are computed on first use and then looked up, in tables that hold
    only the members asked about and last as long as ``left_of``: one
    enumeration or one suite run, as is a barred T's test.  The tables share
    one copy of each split column."""
    columns = {}
    share = lambda col: columns.setdefault(col, col)
    profile = _Table(lambda s: _adm_profile(s, share))
    right_star = _Table(lambda t: share(star_split(t)[1])).__getitem__
    right_lr = _Table(lambda t: share(lr_split(t)[1])).__getitem__
    # T^R of a barred T and S^L have odd heights: only b >= 0 and sigma left
    barred = _Table(lambda cols: len(cols[1]) >= len(cols[0]) and _residue(
        sigma_pair(*cols), 0, len(cols[1]) - len(cols[0])) is not None)

    def left_of(s):
        if not isinstance(s, (OspPair, SpinColumn, BarPair)):
            raise RejectError("%r is not a component" % (s,))
        s_profile = profile[s]

        def admissible(t):
            if isinstance(t, OspPair):
                return _admissible_nonbar(t, s_profile, right_star, right_lr)
            if isinstance(t, BarPair) and s_profile[5]:
                # S is barred or a spin- column: (T^R, S^L) is a barred member
                return barred[t.right, s_profile[2]]
            raise RejectError("no admissibility relation between %s and %s"
                              % (type(t).__name__, type(s).__name__))

        return admissible

    def left_key(t):
        if isinstance(t, BarPair):
            return t.right
        return (t.a, t.residue, t.right,
                right_star(t) if t.residue == 1 else None, right_lr(t))

    return left_of, left_key


def is_admissible(t, s):
    """The admissibility relation T < S between adjacent components; each
    call computes the splits afresh."""
    return tabled_admissibility()[0](s)(t)


def is_admissible_sigma(t, s):
    """Same relation, through signatures and the sliding splits instead of
    entrywise comparisons and the operator splits; the two must agree."""
    if isinstance(s, BarPair):
        s = SpinColumn(s.left)
    if isinstance(t, BarPair):
        if not (isinstance(s, SpinColumn) and s.sign == "-"):
            raise RejectError("no admissibility relation")
        if len(t.right) % 2 == 0 or len(s.col) < len(t.right):
            return False
        return sigma_pair(t.right, s.col) == (0, len(s.col) - len(t.right))
    if not isinstance(t, OspPair):
        raise RejectError("no admissibility relation")
    # S's profile from the sliding splits; a spin column is its own splits
    if isinstance(s, SpinColumn):
        a_p = r_s = s.residue
        s_l = ls = s_lstar = s.col
    else:
        a_p, r_s, s_l = s.a, s.residue, s.left
        ls = lr_split_sliding(s)[0]
        s_lstar = star_split_sliding(s)[0] if r_s == 1 else None

    if t.a < a_p:
        raise RejectError("left member must have a >= a'")
    r_t = t.residue
    if len(t.right) > len(s_l) - a_p + 2 * r_s * r_t:
        return False
    x_col = star_split_sliding(t)[1] if r_s == r_t == 1 else t.right
    if len(ls) < len(x_col):
        return False
    if sigma_pair(x_col, ls) != (0, len(ls) - len(x_col)):
        return False
    rt = lr_split_sliding(t)[1]
    # a spin column with r_s = 1 has odd height: its sign is -
    eps = 1 if isinstance(s, SpinColumn) and r_s == r_t == 1 else 0
    y_col = s_lstar if r_s == r_t == 1 else s_l
    aa = t.a - a_p + eps
    bb = aa + len(y_col) - len(rt)
    # sigma(RT, Y) == (aa - p, bb - p) for some 0 <= p <= min(aa, bb)
    sig = sigma_pair(rt, y_col)
    p = aa - sig.p
    return bb >= 0 and 0 <= p <= min(aa, bb) and sig.q == bb - p


# ---------------------------------------------------------------------------
# shape plans

class ShapePlan(NamedTuple):
    lam: tuple       # the partition lambda
    ell: int
    sign: str        # '+' if ell - 2*lambda_1 >= 0 else '-'
    q: int
    r: int           # 0 or 1; the number of spin components
    M: int           # number of a-pair components
    L: int           # M + q
    heights: tuple   # a_1 .. a_M

    def boxes_lower_bound(self):
        return sum(_slot_floor(*slot) for slot in expected_kinds(self))


def shape_plan(lam, ell, alphabet=None):
    """Derive the component plan of (lambda, ell); rejects pairs outside the
    admissible set and, when an alphabet is given, outside its lattice."""
    lam = tuple(int(x) for x in lam)
    while lam and lam[-1] == 0:  # trailing zeros only: (0, 1) is rejected
        lam = lam[:-1]
    if not is_partition(lam):
        raise RejectError("lambda must be a partition")
    if ell < 1:
        raise RejectError("ell must be positive")
    lam1 = lam[0] if lam else 0
    lam2 = lam[1] if len(lam) > 1 else 0
    if ell - lam1 - lam2 < 0:
        raise RejectError("ell - lambda_1 - lambda_2 must be non-negative")
    if alphabet is not None:
        if alphabet.kind == "classical":
            if len(lam) > alphabet.size:
                raise RejectError("lambda has more than m+n rows")
        else:
            if len(lam) > alphabet.m and lam[alphabet.m] > alphabet.n:
                raise RejectError("lambda_{m+1} exceeds n")
    d = ell - 2 * lam1
    if d >= 0:
        sign, q, r, big = "+", d // 2, d % 2, lam
    else:
        sign, q, r, big = "-", (-d) // 2, (-d) % 2, (ell - lam1,) + lam[1:]
    m_count = big[0] if big else 0
    nu = conjugate(big)
    heights = tuple(nu[m_count - k] for k in range(1, m_count + 1))
    plan = ShapePlan(lam, ell, sign, q, r, m_count, m_count + q, heights)
    assert 2 * plan.L + plan.r == ell
    return plan


class OspTableauD(NamedTuple):
    """A tuple (T_L, ..., T_1, T_0); the spin component, present only when
    the plan has r = 1, is last."""

    parts: tuple
    plan: ShapePlan

    def boxes(self):
        return sum(p.boxes() for p in self.parts)

    def letters(self):
        out = []
        for p in self.parts:
            out.extend(part_letters(p))
        return out


def expected_kinds(plan):
    """Kind and parameter of each slot, in (T_L, ..., T_0) order."""
    kinds = []
    for t in range(plan.M, 0, -1):
        kinds.append(("pair", plan.heights[t - 1]))
    for _ in range(plan.q):
        kinds.append(("pair", 0) if plan.sign == "+" else ("bar", None))
    if plan.r:
        kinds.append(("spin", plan.sign))
    return kinds


def validate(parts, plan, alphabet=None):
    """Check componentwise membership and all adjacent admissibilities."""
    parts = tuple(parts)
    kinds = expected_kinds(plan)
    if len(parts) != len(kinds):
        raise RejectError("expected %d components, got %d"
                          % (len(kinds), len(parts)))
    for idx, (part, slot) in enumerate(zip(parts, kinds)):
        k = len(parts) - 1 - idx if plan.r else len(parts) - idx  # math index
        if slot_of(part) != slot:
            raise RejectError("component T_%d must fill the slot %s" % (k, slot))
        if part_from_cols(slot, part_cols(part)) != part:
            raise RejectError("component T_%d does not match its columns" % k)
        if alphabet is not None:
            for a in part_letters(part):
                if not alphabet.contains(a):
                    raise RejectError("letter %r outside %s in T_%d" % (a, alphabet, k))
    for idx in range(len(parts) - 1):
        if not is_admissible(parts[idx], parts[idx + 1]):
            k = len(parts) - 1 - idx if plan.r else len(parts) - idx
            raise RejectError("T_%d < T_%d fails" % (k, k - 1))
    return OspTableauD(parts, plan)


# ---------------------------------------------------------------------------
# enumeration

def all_columns(alphabet, height):
    """All single columns of the given height, lexicographic order."""
    out = []

    def extend(col, min_rank):
        if len(col) == height:
            out.append(tuple(col))
            return
        for rank in range(min_rank, alphabet.size):
            a = alphabet.letter(rank)
            col.append(a)
            extend(col, rank + (1 if a.parity == EVEN else 0))
            col.pop()

    extend([], 0)
    return out


def column_count(alphabet, max_height):
    """How many columns :func:`all_columns` makes over the heights up to
    max_height: j distinct even letters above a multiset of odd ones."""
    even = alphabet.m if alphabet.kind == "super" else alphabet.size
    odd = alphabet.size - even
    return sum(comb(even, j) * comb(odd + max_height - j, odd)
               for j in range(min(even, max_height) + 1))


def spin_columns(alphabet, sign, budget):
    cols = []
    start = 0 if sign == "+" else 1
    for h in range(start, budget + 1, 2):
        cols.extend(SpinColumn(c) for c in all_columns(alphabet, h))
    return cols


def osp_pairs(alphabet, a, budget, bar=False):
    """All members of the a-pair class (or the barred class) within budget."""
    out = []
    max_h = budget if alphabet.kind == "super" else alphabet.size
    cols = {h: all_columns(alphabet, h) for h in range(min(max_h, budget) + 1)}
    if bar:
        shapes = ((0, b, c + 1) for c in range(0, budget, 2)
                  for b in range(0, budget + 1, 2))
    else:
        shapes = ((a, b, c) for c in range(0, budget + 1, 2)
                  for b in range(0, budget + 1, 2))
    # valid shapes of valid columns: each pair needs only the signature test
    for aa, b, c in shapes:
        hl, hr = aa + c, b + c
        if hl + hr > budget or hl > max_h or hr > max_h:
            continue
        for left in cols.get(hl, ()):
            for right in cols.get(hr, ()):
                r = _residue(sigma_pair(left, right), aa, b)
                if r is not None:
                    out.append(BarPair(left, right) if bar
                               else OspPair(left, right, aa, r))
    return out


def _part_sort_key(part):
    return part.boxes(), tuple(a.rank for a in part_letters(part))


def enumerate_tableaux(plan, alphabet, max_boxes=None):
    """Every tableau of the plan with at most max_boxes boxes, exactly once,
    ordered by box count, then by each component's rank in its slot's
    candidates, which are sorted by box count and letters.

    Built from the last slot to the first.  The candidates of a slot with a
    right neighbour are grouped by their left key, what admissibility reads
    of them, so T < S is decided once per group and right neighbour S.
    Classical alphabets are intrinsically finite and may omit the bound;
    super alphabets require one.
    """
    max_boxes = box_bound(plan, alphabet, max_boxes)
    kinds = expected_kinds(plan)
    if len(kinds) > MAX_SLOTS:
        raise RejectError("the plan has %d slots, more than %d"
                          % (len(kinds), MAX_SLOTS))
    floor = plan.boxes_lower_bound()
    if floor > max_boxes:
        return []

    # each slot is a list of groups of (rank, boxes, part), in the order of
    # their first members; profiles and splits are looked up in tables local
    # to the call
    left_of, left_key = tabled_admissibility()
    slots = []
    for idx, (kind, param) in enumerate(kinds):
        budget = max_boxes - (floor - _slot_floor(kind, param))
        if kind == "pair":
            cands = osp_pairs(alphabet, param, budget)
        elif kind == "bar":
            cands = osp_pairs(alphabet, 0, budget, bar=True)
        else:
            cands = spin_columns(alphabet, param, budget)
        cands.sort(key=_part_sort_key)
        last = idx == len(kinds) - 1
        groups = {}
        for rank, part in enumerate(cands):
            groups.setdefault(None if last else left_key(part), []).append(
                (rank, part.boxes(), part))
        slots.append(list(groups.values()))
    results = []

    def extend(idx, chosen, ranks, used):
        # idx counts from the last slot backwards; slot 0 completes a tuple
        admissible = left_of(chosen[-1]) if chosen else None
        for group in slots[idx]:
            if used + group[0][1] > max_boxes:
                break
            if chosen and not admissible(group[0][2]):
                continue
            for rank, boxes, part in group:
                if used + boxes > max_boxes:
                    break
                if idx == 0:
                    results.append(((used + boxes, rank, *reversed(ranks)),
                                    (part, *reversed(chosen))))
                    continue
                chosen.append(part)
                ranks.append(rank)
                extend(idx - 1, chosen, ranks, used + boxes)
                chosen.pop()
                ranks.pop()

    extend(len(kinds) - 1, [], [], 0)
    del extend  # the recursive closure is a cycle that would keep the tables
    results.sort(key=lambda result: result[0])
    return [OspTableauD(parts, plan) for _, parts in results]


def box_bound(plan, alphabet, max_boxes):
    """The box bound of a run: ``max_boxes``, or when it is omitted the
    ell * |alphabet| boxes that bound every tableau of a classical plan.
    Super alphabets have no such bound and must give one."""
    if max_boxes is not None:
        return max_boxes
    if alphabet.kind == "super":
        raise RejectError("super alphabets require max_boxes")
    return plan.ell * alphabet.size


def _packing(alphabet, base):
    """Contents as integers: the count of the letter of rank a is digit a
    in the given base, so adding packed contents adds the contents while
    every count stays below the base.  Returns pack(letters), the packed
    content of a list of letters, and unpack(key), its exponent tuple."""
    powers = [base ** rank for rank in range(alphabet.size)]

    def pack(letters):
        return sum(powers[a.rank] for a in letters)

    def unpack(key):
        return tuple(key // power % base for power in powers)

    return pack, unpack


def content_weigher(plan, alphabet, max_boxes):
    """The content of the plan's tableaux within the box bound as one
    integer: returns weigh(t), the sum of the packed contents of t's
    components, each component packed once per weigher, and unpack(key),
    the letter counts of a key.  The base is one more than the box bound,
    which no count reaches."""
    pack, unpack = _packing(alphabet, box_bound(plan, alphabet, max_boxes) + 1)
    packed = _Table(lambda part: pack(part_letters(part)))

    def weigh(t):
        return sum(map(packed.__getitem__, t.parts))

    return weigh, unpack


def _slot_floor(kind, param):
    if kind == "pair":
        return param
    if kind == "bar":
        return 2
    return 0 if param == "+" else 1


# ---------------------------------------------------------------------------
# matrix form and highest-weight candidates

def parts_cols(parts):
    """The matrix columns of the components (T_k, ..., T_j), T_j's first;
    a pair contributes its right and left columns, a spin column itself."""
    return tuple(col for part in reversed(parts) for col in part_cols(part))


def parts_from_columns(slots, cols):
    """The components filling ``slots``, listed in (T_k, ..., T_j) order,
    with the matrix columns ``cols``: the inverse of :func:`parts_cols`.
    Raises RejectError when a column pair leaves its class."""
    parts = []
    pos = 0
    for slot in reversed(slots):
        width = 1 if slot[0] == "spin" else 2
        parts.append(part_from_cols(slot, cols[pos:pos + width]))
        pos += width
    if pos != len(cols):
        raise RejectError("column count does not match")
    return tuple(reversed(parts))


def tuple_to_matrix(t):
    """The biword matrix of a tableau tuple."""
    return make_matrix(parts_cols(t.parts))


def matrix_to_tuple(matrix, plan):
    return OspTableauD(parts_from_columns(expected_kinds(plan), matrix.cols),
                       plan)


def highest_ssyt_cols(alphabet, family, shape):
    """The highest weight tableau of a straight shape, column-major: barred
    letters fill the first rows; below row m the super family places the
    j-th odd letter down column j, the classical family continues along the
    letter chain."""
    cols = []
    for j, h in enumerate(conjugate(shape), start=1):
        ranks = list(range(min(h, alphabet.m)))
        if family == "super":
            ranks += [alphabet.m + j - 1] * (h - alphabet.m)
        else:
            ranks += list(range(alphabet.m, h))
        cols.append(tuple(alphabet.letter(r) for r in ranks))
    return tuple(cols)


def highest_weight_tuple(plan, alphabet, family):
    """The highest-weight candidate: H for the classical family, the genuine
    one for the super family."""
    lam_cols = highest_ssyt_cols(alphabet, family, plan.lam)
    parts = [classify_pair(lam_cols[plan.M - t], (), plan.heights[t - 1])
             for t in range(plan.M, 0, -1)]
    top = (alphabet.letter(0),)
    for _ in range(plan.q):
        if plan.sign == "+":
            parts.append(classify_pair((), (), 0))
        else:
            parts.append(make_bar_pair(top, top))
    if plan.r:
        parts.append(SpinColumn(() if plan.sign == "+" else top))
    return validate(parts, plan, alphabet)


# ---------------------------------------------------------------------------
# JSON

def part_to_json(part):
    if isinstance(part, SpinColumn):
        return {"kind": "spin", "sign": part.sign,
                "col": letters_to_json(part.col)}
    name = "bar" if isinstance(part, BarPair) else "pair"
    obj = {"kind": name,
           "L": letters_to_json(part.left),
           "R": letters_to_json(part.right)}
    if name == "pair":
        obj["a"] = part.a
    return obj


def _field(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise RejectError("JSON object lacks %r" % (key,))
    return obj[key]


def _integer(value, key):
    if type(value) is not int:  # JSON true reads as a bool, not a count
        raise RejectError("%r must be an integer, not %r" % (key, value))
    return value


def _list(obj, key):
    value = _field(obj, key)
    if not isinstance(value, list):
        raise RejectError("%r must be a list, not %r" % (key, value))
    return value


def _letters(alphabet, obj, key):
    names = _list(obj, key)
    if not all(isinstance(name, str) for name in names):
        raise RejectError("%r must list letter names, not %r" % (key, names))
    try:
        return letters_from_json(alphabet, names)
    except ValueError as exc:
        raise RejectError("%r: %s" % (key, exc)) from None


def part_from_json(alphabet, obj):
    kind = _field(obj, "kind")
    if kind not in ("pair", "bar", "spin"):
        raise RejectError("unknown component kind %r" % (kind,))
    if kind == "spin":
        slot = (kind, _field(obj, "sign"))
        cols = (_letters(alphabet, obj, "col"),)
    else:
        a = _integer(_field(obj, "a"), "a") if kind == "pair" else None
        slot = (kind, a)
        cols = (_letters(alphabet, obj, "R"), _letters(alphabet, obj, "L"))
    return part_from_cols(slot, cols)


def plan_to_json(plan):
    return {"lambda": list(plan.lam), "ell": plan.ell, "sign": plan.sign,
            "q": plan.q, "r": plan.r, "M": plan.M, "L": plan.L,
            "heights": list(plan.heights)}


def plan_from_json(obj):
    lam = _list(obj, "lambda")
    return shape_plan(tuple(_integer(x, "lambda") for x in lam),
                      _integer(_field(obj, "ell"), "ell"))


def tuple_to_json(t):
    return {"plan": plan_to_json(t.plan),
            "parts": [part_to_json(p) for p in t.parts]}


def tuple_from_json(alphabet, obj):
    plan = plan_from_json(_field(obj, "plan"))
    parts = tuple(part_from_json(alphabet, p) for p in _list(obj, "parts"))
    return validate(parts, plan, alphabet)
