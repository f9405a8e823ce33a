"""The split-lemma sweep with its pinned counts, and a smoke-scale run of
the randomized admissibility suite; the acceptance module runs that suite
at full instance counts."""

import random

import pytest

from ospd import lemmas, make_alphabet
from ospd.lemmas import (check_lemma_clauses, member_pools,
                         run_admissibility_suite, run_split_lemma_suite)
from ospd.crystal import _parts_op, e_pair_bar
from ospd.alphabet import simple_root_indices
from ospd.osptab import SpinColumn, classify_pair, tabled_admissibility

from conftest import letters
from faults import FAULTS


# members swept and instances per clause; each count is at least the number
# of distinct instances that drawing 2,000 times per clause from the same
# pool reached
SWEEP_COUNTS = {
    "classical": (1888, {
        "L1": 201, "L2": 201, "L3": 73, "L4": 73, "L5": 98, "L6": 98,
        "L7": 98, "L8": 98, "L9": 98, "L10": 98,
        "R1": 233, "R2": 233, "R3": 67, "R4": 67, "R5": 110, "R6": 110,
        "R7": 110, "R8": 110, "R9": 110, "R10": 110}),
    "super": (10288, {
        "L1": 633, "L2": 633, "L3": 204, "L4": 204, "L5": 208, "L6": 208,
        "L7": 208, "L8": 208, "L9": 208, "L10": 208,
        "R1": 1065, "R2": 1065, "R3": 436, "R4": 436, "R5": 146, "R6": 146,
        "R7": 146, "R8": 146, "R9": 146, "R10": 146}),
}


@pytest.mark.parametrize("kind", sorted(SWEEP_COUNTS))
def test_split_suite_sweeps_every_member(kind):
    members, counts = SWEEP_COUNTS[kind]
    alphabet = make_alphabet(kind, 4, 2)
    report = run_split_lemma_suite(alphabet, member_pools(alphabet))
    assert report["ok"], report["failures"][:1]
    assert report["complete"] and report["attempts"] == members
    assert report["counts"] == counts


@pytest.mark.parametrize("split, broken", [
    ("lr_split", {"L1", "L2", "L6", "L7", "L8", "R1", "R2", "R6", "R7",
                  "R8"}),
    ("star_split", {"L3", "L4", "L9", "L10", "R3", "R4", "R9", "R10"}),
])
def test_split_suite_fails_on_a_swapped_split(monkeypatch, split, broken):
    original = getattr(lemmas, split)
    monkeypatch.setattr(lemmas, split, lambda t: original(t)[::-1])
    alphabet = make_alphabet("classical", 4, 2)
    report = run_split_lemma_suite(alphabet, member_pools(alphabet))
    assert not report["ok"]
    assert {"%s%d" % f["clause"] for f in report["failures"]} == broken


# draws the suite makes at seed 12 and per_case=100 before all seven buckets
# hold 100 instances; any change to the draw sequence moves them
SUITE_ATTEMPTS = {"classical": 2058, "super": 8613}


def test_admissibility_suite_small_counts():
    for kind, attempts in SUITE_ATTEMPTS.items():
        alphabet = make_alphabet(kind, 4, 2)
        report = run_admissibility_suite(alphabet, member_pools(alphabet),
                                         per_case=100, seed=12)
        assert report["complete"], report["counts"]
        assert report["ok"], report["failures"][:1]
        assert report["attempts"] == attempts
        assert report["counts"] == dict.fromkeys(lemmas.CASES, 100)


@pytest.mark.parametrize("fault", ["height-clause-strict",
                                   "lr-split-one-raising-short",
                                   "star-split-columns-swapped"])
def test_admissibility_suite_stops_at_its_first_failure(monkeypatch, fault):
    alphabet = make_alphabet("super", 4, 2)
    pools = member_pools(alphabet)
    FAULTS[fault].apply(monkeypatch)
    report = run_admissibility_suite(alphabet, pools, per_case=100, seed=12)
    assert not report["ok"] and len(report["failures"]) == 1
    assert report["attempts"] < lemmas.MAX_ATTEMPTS


# pairs tried per (S type, T type) triple on super 4|2, where the pairs
# within the height bounds are too many to go through
SUPER_SAMPLE = 12


@pytest.mark.parametrize("kind", ["classical", "super"])
def test_predicted_case_is_the_raised_case(kind):
    """Every triple of the draw tables predicts the case of raising its
    admissible pairs, and its height bound drops no admissible pair.
    Classical 4|2 tries each triple's pairs in table order up to its first
    admissible one; super 4|2 tries a fixed-seed sample per triple."""
    alphabet = make_alphabet(kind, 4, 2)
    spin = simple_root_indices(alphabet)[0]
    types, combos = lemmas._draw_tables(alphabet, member_pools(alphabet))
    left_of, _ = tabled_admissibility()
    rng = random.Random(7)
    checked = dict.fromkeys(combos, 0)
    for case, triples in combos.items():
        for s_type, t_type, offset in triples:
            if kind == "classical":
                pairs = ((s, t) for s in types[s_type] for t in types[t_type])
            else:
                pairs = ((rng.choice(types[s_type]), rng.choice(
                    types[t_type])) for _ in range(SUPER_SAMPLE))
            for s, t in pairs:
                s_left = s.col if isinstance(s, SpinColumn) else s.left
                within = len(t.right) <= len(s_left) + offset
                if not left_of(s)(t):
                    continue
                assert within, (s, t)
                moved = _parts_op(alphabet, "classical", spin, (t, s), "e")
                raised = None if moved is None else \
                    lemmas._pair_case((t, s), moved)
                assert raised == case, (case, raised, s, t)
                checked[case] += 1
                if kind == "classical":
                    break
    assert all(checked.values()), checked


def test_clause_evaluation_on_a_known_instance(cl40):
    # a right-column move with unchanged residue: clauses R1 and R2 apply
    t = classify_pair(letters(cl40, "b4", "b3", "b2", "b1"),
                      letters(cl40, "b4", "b3"), 2)
    spin = simple_root_indices(cl40)[0]
    up = e_pair_bar(cl40, "classical", spin, t)
    which = "R" if up.left == t.left else "L"
    out = check_lemma_clauses(cl40, t, up, which)
    assert out and all(out.values())
