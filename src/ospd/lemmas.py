"""Verification of the split/domino interaction laws.

The raising operator at the spin color interacts with the two splits of a
two-column member in twenty numbered ways (ten when it hits the right
column, ten for the left), and preserves admissibility of adjacent pairs.
The clauses are swept over a finite pool; admissibility is sampled, its
pool being too large, with splits (one sign reduction each) tabled per
run.  A report counts instances and collects counterexamples.
"""

from __future__ import annotations

import random

from .alphabet import simple_root_indices
from .crystal import _parts_op, _spin_sign, e_pair_bar
from .osptab import (BarPair, SpinColumn, is_admissible, lr_split, osp_pairs,
                     spin_columns, star_split, tabled_admissibility)

# each suite's member budget and largest a, and the sampler's draw limit
SPLIT_BUDGET, SPLIT_MAX_A = 8, 4
ADMISSIBLE_BUDGET, ADMISSIBLE_MAX_A = 6, 3
MAX_ATTEMPTS = 2000000


def _remove_one(col, letter):
    col = list(col)
    col.remove(letter)
    return tuple(col)


def _top_domino(col):
    return len(col) >= 2 and col[0].rank == 0 and col[1].rank == 1


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


def run_split_lemma_suite(alphabet):
    """Check the twenty clauses on every member of ``osp_pairs`` with
    ``a <= SPLIT_MAX_A`` and at most ``SPLIT_BUDGET`` boxes.

    The report counts instances per clause, members swept (``attempts``) and
    failures; ``complete`` says that each of the twenty clauses applied.
    """
    spin = simple_root_indices(alphabet)[0]
    members = [t for a in range(SPLIT_MAX_A + 1)
               for t in osp_pairs(alphabet, a, SPLIT_BUDGET)]
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


_CASE_MODES = {"T2R": (0,), "T2L": (0,), "T1R": (0, 5), "T1L": (0, 4),
               "T1sp": (1, 2), "T1bar": (2, 3), "T2bar": (3,)}


def _random_adjacent_pair(rng, pools, spins, minus_spins, bars, modes, inert,
                          active, active_r):
    """Draw a random (T2, T1) of admissible-comparable kinds; ``modes``
    restricts the kind combination to keep unfilled buckets reachable."""
    mode = rng.choice(modes)
    if mode == 0:  # pair-pair
        a1 = rng.randrange(len(pools))
        a2 = rng.randrange(a1, len(pools))
        return rng.choice(pools[a2]), rng.choice(pools[a1])
    if mode == 1:  # pair-spin
        s = rng.choice(spins)
        a2 = rng.randrange(s.residue, len(pools))
        return rng.choice(pools[a2]), s
    if mode == 2:  # pair-bar
        a2 = rng.randrange(1, len(pools))
        return rng.choice(pools[a2]), rng.choice(bars)
    if mode == 3:
        if rng.randrange(2):  # bar-bar
            return rng.choice(bars), rng.choice(bars)
        return rng.choice(bars), rng.choice(minus_spins)
    # modes 4/5: the left member cannot absorb the move, a chosen column
    # of the right member carries it
    target = active if mode == 4 else active_r
    a1 = rng.randrange(len(target))
    if not target[a1] or not inert[a1]:
        return rng.choice(pools[-1]), rng.choice(pools[0])
    return rng.choice(inert[a1]), rng.choice(target[a1])


def _pair_case(old, new):
    """Which component and column the raising hit: T2R, T2L, T1R, T1L,
    T1 (spin right member), or bar moves."""
    t2, t1 = old
    u2, u1 = new
    if t2 != u2:
        side = "2"
        a, b = t2, u2
    else:
        side = "1"
        a, b = t1, u1
    if isinstance(a, SpinColumn):
        return "T1sp"
    if isinstance(a, BarPair) or isinstance(b, BarPair):
        return "T%sbar" % side
    return "T%s%s" % (side, _which_column_moved(a, b))


def run_admissibility_suite(alphabet, per_case=2000, seed=2):
    """Raising an admissible adjacent pair keeps it admissible; instances
    are bucketed by which column the operator hit.  Draws are filtered
    through tables local to the run, each raised pair is checked by the
    public relation, and the run stops at its first failure."""
    rng = random.Random(seed)
    left_of, _ = tabled_admissibility()
    spin = simple_root_indices(alphabet)[0]
    budget = ADMISSIBLE_BUDGET
    pools = [sorted(osp_pairs(alphabet, a, budget + a))
             for a in range(ADMISSIBLE_MAX_A + 1)]
    spins = sorted(spin_columns(alphabet, "+", budget)) + \
        sorted(spin_columns(alphabet, "-", budget))
    minus_spins = [s for s in spins if s.sign == "-"]
    bars = sorted(osp_pairs(alphabet, 0, budget, bar=True))
    blocked = [[t for t in pool
                if _spin_sign(t.left) == "." and _spin_sign(t.right) == "."]
               for pool in pools]
    # inert[a1]: members of any class a2 >= a1 that cannot absorb the move
    inert = [sorted(t for pool in blocked[a1:] for t in pool)
             for a1 in range(len(pools))]
    # active[a1]: a1-members whose left column carries the removable domino
    # and whose right column cannot cancel it; active_r: the right column
    # carries it instead
    active = [[t for t in pool if _spin_sign(t.left) == "-"
               and _spin_sign(t.right) != "+"] for pool in pools]
    active_r = [[t for t in pool if _spin_sign(t.right) == "-"
                 and _spin_sign(t.left) != "-"] for pool in pools]
    counts = {}
    failures = []
    attempts = 0

    def open_modes():
        modes = set()
        for case in _CASE_MODES:
            if counts.get(case, 0) < per_case:
                modes.update(_CASE_MODES[case])
        return tuple(sorted(modes))

    modes = open_modes()
    while attempts < MAX_ATTEMPTS and modes:
        attempts += 1
        t2, t1 = _random_adjacent_pair(rng, pools, spins, minus_spins, bars,
                                       modes, inert, active, active_r)
        if not left_of(t1)(t2):
            continue
        moved = _parts_op(alphabet, "classical", spin, (t2, t1), "e")
        if moved is None:
            continue
        u2, u1 = moved
        case = _pair_case((t2, t1), (u2, u1))
        if counts.get(case, 0) >= per_case:
            continue
        counts[case] = counts.get(case, 0) + 1
        if counts[case] >= per_case:
            modes = open_modes()
        if not is_admissible(u2, u1):
            failures.append({"case": case, "old": (t2, t1), "new": (u2, u1)})
            break
    return {"counts": dict(sorted(counts.items())), "attempts": attempts,
            "complete": not modes,
            "failures": failures, "ok": not failures}

