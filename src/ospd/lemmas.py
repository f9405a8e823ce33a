"""Verification of the split/domino interaction laws.

The raising operator at the spin color interacts with the two splits of a
two-column member in twenty numbered ways (ten when it hits the right
column, ten for the left), and preserves admissibility of adjacent pairs.
The clauses are swept over a finite pool.  Admissibility is sampled, each
draw aimed at a case, which the spin signs of the columns decide.
"""

from __future__ import annotations

import random
from bisect import bisect_right

from .alphabet import simple_root_indices
from .crystal import _parts_op, _spin_sign, e_pair_bar
from .osptab import (BarPair, SpinColumn, is_admissible, lr_split,
                     osp_pairs, part_cols, slot_of, spin_columns, star_split,
                     tabled_admissibility)
from .signature import survivors

# each suite's member budget and largest a, the sampler's draw limit and cases
SPLIT_BUDGET, SPLIT_MAX_A = 8, 4
ADMISSIBLE_BUDGET, ADMISSIBLE_MAX_A = 6, 3
MAX_ATTEMPTS = 2000000
CASES = ("T1L", "T1R", "T1bar", "T1sp", "T2L", "T2R", "T2bar")


def _remove_one(col, letter):
    col = list(col)
    col.remove(letter)
    return tuple(col)


def _top_domino(col):
    return _spin_sign(col) == "-"


def _count_barred_pair(col):
    return sum(1 for x in col if x.rank <= 1)


def _which_column_moved(t, t_new):
    if t_new.left == t.left and t_new.right != t.right:
        return "R"
    if t_new.right == t.right and t_new.left != t.left:
        return "L"
    raise AssertionError("raising changed both columns")


def check_lemma_clauses(alphabet, t, t_new, which):
    """Evaluate every applicable numbered clause on one raising instance.

    Returns {(lemma, clause): bool} for the applicable clauses, where lemma
    is 'R' (the move hit the right column) or 'L'.
    """
    m = alphabet.letter(0)
    m1 = alphabet.letter(1)
    r, r2 = t.residue, t_new.residue
    lt, rt = lr_split(t)
    lt2, rt2 = lr_split(t_new)
    out = {}
    if which == "R":
        if r == r2:
            out["R", 1] = lt2 == lt
            out["R", 2] = _top_domino(rt) and rt2 == rt[2:]
            if r == 1:
                ls, rs = star_split(t)
                ls2, rs2 = star_split(t_new)
                out["R", 3] = ls2 == ls
                out["R", 4] = _top_domino(rs) and rs2 == rs[2:]
        else:
            out["R", 5] = (r, r2) == (1, 0) and \
                len(t.left) - t.a == len(t.right) - 2
            out["R", 6] = (_count_barred_pair(t.left) == 1
                           and _count_barred_pair(lt) == 1)
            out["R", 7] = lt2 == lt[1:]
            other = m1 if t.left[0].rank == 0 else m
            out["R", 8] = (_top_domino(rt) and other in rt
                           and rt2 == _remove_one(rt, other))
            ls, rs = star_split(t)
            out["R", 9] = (_top_domino(ls) and other in ls
                           and _remove_one(ls, other) == t.left == t_new.left)
            out["R", 10] = (_count_barred_pair(rs) == 1
                            and t_new.right == _remove_one(
                                rs, m if m in rs else m1))
    else:
        if r == r2:
            out["L", 1] = _top_domino(lt) and lt2 == lt[2:]
            out["L", 2] = rt2 == rt
            if r == 1:
                ls, rs = star_split(t)
                ls2, rs2 = star_split(t_new)
                out["L", 3] = _top_domino(ls) and ls2 == ls[2:]
                out["L", 4] = rs2 == rs
        else:
            out["L", 5] = (r, r2) == (0, 1) and \
                len(t.left) - t.a == len(t.right)
            out["L", 6] = (_count_barred_pair(t.right) == 1
                           and _count_barred_pair(lt) == 1)
            out["L", 7] = lt2 == lt[1:]
            other = m1 if t.right[0].rank == 0 else m
            out["L", 8] = (_top_domino(rt) and other in rt
                           and rt2 == _remove_one(rt, other))
            ls2, rs2 = star_split(t_new)
            out["L", 9] = ls2 == tuple(sorted(t_new.left + (t.right[0],)))
            out["L", 10] = rs2 == t.right[1:]
    return out


def member_pools(alphabet):
    """The pair pools of both suites by class a <= SPLIT_MAX_A, each at the
    larger of their budgets; a suite keeps the members within its own."""
    return [osp_pairs(alphabet, a, max(SPLIT_BUDGET, ADMISSIBLE_BUDGET + a))
            for a in range(SPLIT_MAX_A + 1)]


def run_split_lemma_suite(alphabet, pools):
    """Check the twenty clauses on every member of :func:`member_pools`
    within ``SPLIT_BUDGET`` boxes.  The report counts instances per clause,
    members swept (``attempts``) and failures; ``complete`` says that each
    of the twenty clauses applied."""
    spin = simple_root_indices(alphabet)[0]
    members = [t for pool in pools for t in pool if t.boxes() <= SPLIT_BUDGET]
    counts = {}
    failures = []
    for t in members:
        t_new = e_pair_bar(alphabet, "classical", spin, t)
        if t_new is None:
            continue
        which = _which_column_moved(t, t_new)
        for key, ok in check_lemma_clauses(alphabet, t, t_new, which).items():
            counts[key] = counts.get(key, 0) + 1
            if not ok:
                failures.append({"clause": key, "t": t, "t_new": t_new})
    return {"counts": {"%s%d" % k: v for k, v in sorted(counts.items())},
            "attempts": len(members), "complete": len(counts) == 20,
            "failures": failures, "ok": not failures}


def _pair_case(old, new):
    """Which component and column the raising of (T2, T1) hit: T2R, T2L,
    T1R, T1L, T1sp (a spin T1), or T2bar, T1bar (a barred one)."""
    k = 0 if old[0] != new[0] else 1  # T2 moved, else T1
    side, a, b = "21"[k], old[k], new[k]
    if isinstance(a, SpinColumn):
        return "T1sp"
    if isinstance(a, BarPair) or isinstance(b, BarPair):
        return "T%sbar" % side
    return "T%s%s" % (side, _which_column_moved(a, b))


def _predicted_case(s_type, t_type):
    """The case of raising (T, S) at the spin colour, read from the spin
    signs of S's matrix columns followed by T's: the rightmost '-' that
    survives the reduction moves; None when none survives."""
    minus, _ = survivors(s_type[2] + t_type[2])
    if not minus:
        return None
    j = minus[-1]
    side, kind, col = ("1", s_type[0][0], j) if j < len(s_type[2]) else \
        ("2", t_type[0][0], j - len(s_type[2]))
    if kind == "spin":
        return "T1sp"
    return "T%sbar" % side if kind == "bar" else "T%s%s" % (side, "RL"[col])


def _draw_tables(alphabet, pools):
    """The admissibility suite's members: the pairs of ``pools`` of class
    a <= ADMISSIBLE_MAX_A within ADMISSIBLE_BUDGET + a boxes, and the spin
    columns and barred pairs within ADMISSIBLE_BUDGET, by type (slot,
    residue, spin signs of the matrix columns) and then by height of the
    first column; and per case, None where raising is undefined, the
    (S type, T type, offset) triples in it, len(T^R) <= len(S^L) + offset
    being clause (i) for a pair T and the barred test for a barred T."""
    parts = ([t for a in range(ADMISSIBLE_MAX_A + 1) for t in pools[a]
              if t.boxes() <= ADMISSIBLE_BUDGET + a]
             + spin_columns(alphabet, "+", ADMISSIBLE_BUDGET)
             + spin_columns(alphabet, "-", ADMISSIBLE_BUDGET)
             + osp_pairs(alphabet, 0, ADMISSIBLE_BUDGET, bar=True))
    types = {}
    for part in sorted(parts, key=lambda part: len(part_cols(part)[0])):
        residue = 1 if isinstance(part, BarPair) else part.residue
        signs = tuple(map(_spin_sign, part_cols(part)))
        types.setdefault((slot_of(part), residue, signs), []).append(part)
    combos = {}
    for s_type in types:
        (kind, param), r_s = s_type[:2]
        a_p = param if kind == "pair" else r_s  # spin or barred S: a' = r_S
        for t_type in types:
            (t_kind, a), r_t = t_type[:2]
            if t_kind == "pair" and a >= a_p:
                offset = 2 * r_s * r_t - a_p
            elif t_kind == "bar" and kind != "pair" and r_s:
                offset = 0
            else:
                continue
            combos.setdefault(_predicted_case(s_type, t_type), []).append(
                (s_type, t_type, offset))
    return types, combos


def run_admissibility_suite(alphabet, pools, per_case=2000, seed=2):
    """Raising an admissible adjacent pair (T, S) at the spin colour keeps it
    admissible.  The case of :func:`_pair_case` reads only the spin signs of
    the matrix columns, so each draw aims at a case short of ``per_case``:
    a triple of :func:`_draw_tables` in it, then S of its type, then T of
    its type within the height S allows.  Pairs that tables local to the run
    find inadmissible are dropped.  A raising undefined or in another case,
    or a raised pair that the public relation rejects, is a failure, and
    the run stops at the first.  ``pools`` are :func:`member_pools`."""
    rng = random.Random(seed)
    left_of, _ = tabled_admissibility()
    spin = simple_root_indices(alphabet)[0]
    types, combos = _draw_tables(alphabet, pools)
    counts = dict.fromkeys(CASES, 0)
    failures = []
    attempts = 0
    open_cases = [case for case in CASES if case in combos]
    while attempts < MAX_ATTEMPTS and open_cases:
        attempts += 1
        case = rng.choice(open_cases)
        s_type, t_type, offset = rng.choice(combos[case])
        s = rng.choice(types[s_type])
        # S^L is the last matrix column of every right member
        n = bisect_right(types[t_type], len(part_cols(s)[-1]) + offset,
                         key=lambda t: len(t.right))
        if not n:
            continue
        t = types[t_type][rng.randrange(n)]
        if not left_of(s)(t):
            continue
        moved = _parts_op(alphabet, "classical", spin, (t, s), "e")
        raised = None if moved is None else _pair_case((t, s), moved)
        if raised == case:
            counts[case] += 1
            if counts[case] == per_case:
                open_cases.remove(case)
        if raised != case or not is_admissible(*moved):
            failures.append({"case": case, "raised": raised,
                             "old": (t, s), "new": moved})
            break
    return {"counts": counts, "attempts": attempts,
            "complete": min(counts.values()) >= per_case,
            "failures": failures, "ok": not failures}
