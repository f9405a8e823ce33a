"""Named faults, one per layer, for mutation analysis kept inside the test
suite (DeMillo, Lipton and Sayward, *Hints on test data selection*, IEEE
Computer 11(4), 1978).

Each row installs its fault in-process through pytest's ``monkeypatch`` and
names what must then fail on small inputs: checks of the ``ospd verify``
battery, by their names in ``cli._verify_checks``, and oracle tests, as
``module::function``.  ``tests/test_faults.py`` runs the table.
"""

import sys
from typing import Callable, NamedTuple

from ospd import character, crystal, osptab, signature
from ospd.alphabet import EVEN
from ospd.signature import MINUS, PLUS


def replace(monkeypatch, module, name, replacement):
    """Bind ``replacement`` wherever an ``ospd`` module binds
    ``module.name``, so that callers importing the name see the fault."""
    original = getattr(module, name)
    for key, mod in list(sys.modules.items()):
        if ((key == "ospd" or key.startswith("ospd."))
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, replacement)


def _survivors_minus_plus(symbols):
    """Sign reduction cancelling (-, +) pairs instead of (+, -)."""
    plus, stack = [], []
    for idx, s in enumerate(symbols):
        if s == MINUS:
            stack.append(idx)
        elif s == PLUS:
            if stack:
                stack.pop()
            else:
                plus.append(idx)
    return stack, plus


def sign_reduction(monkeypatch):
    """``survivors`` and every reduction built on it, such as
    ``sigma_pair`` and the crystal operators' sign rule."""
    replace(monkeypatch, signature, "survivors", _survivors_minus_plus)


def pair_merge_ties_swapped(monkeypatch):
    """``merged_pair_word`` putting U's copy of an even letter in both
    columns before V's; ``sigma_pair`` and the splits read the merge."""
    merged = signature.merged_pair_word

    def swapped(u, v):
        word = merged(u, v)
        for k in range(len(word) - 1):
            (x, src), (y, _) = word[k], word[k + 1]
            if x == y and x.parity == EVEN and src == PLUS:
                word[k], word[k + 1] = word[k + 1], word[k]
        return word

    replace(monkeypatch, signature, "merged_pair_word", swapped)


def lr_split_short(monkeypatch):
    """``lr_split`` applying a - r - 1 raisings instead of a - r."""
    lr_split = osptab.lr_split

    def short(pair):
        if isinstance(pair, osptab.OspPair) and pair.a > pair.residue:
            pair = pair._replace(a=pair.a - 1)
        return lr_split(pair)

    replace(monkeypatch, osptab, "lr_split", short)


def star_split_swapped(monkeypatch):
    """``star_split`` returning (R*T, L*T) instead of (L*T, R*T)."""
    star_split = osptab.star_split
    replace(monkeypatch, osptab, "star_split",
            lambda pair: star_split(pair)[::-1])


def height_clause_strict(monkeypatch):
    """Clause (i) of admissibility with a strict height bound; both the
    enumeration and ``is_admissible`` look ``_admissible_nonbar`` up."""
    admissible = osptab._admissible_nonbar

    def strict(t, profile, right_star, right_lr):
        a_p, r_s, s_l = profile[:3]
        return (admissible(t, profile, right_star, right_lr)
                and len(t.right) < len(s_l) - a_p + 2 * r_s * t.residue)

    replace(monkeypatch, osptab, "_admissible_nonbar", strict)


def colour0_last_factor(monkeypatch):
    """The isotropic colour 0 acts on the last tensor factor instead of the
    rightmost one that pairs with its coroot."""
    apply_letters = crystal._apply_letters

    def last(alphabet, family, color, ranks):
        if family != "super" or not color.odd or not ranks:
            return apply_letters(alphabet, family, color, ranks)
        return tuple(None if k is None else len(ranks) - 1
                     for k in apply_letters(alphabet, family, color,
                                            ranks[-1:]))

    replace(monkeypatch, crystal, "_apply_letters", last)


def q9_always_true(monkeypatch):
    """(Q9) of the branching set always holds; ``in_k_set`` reads the
    conditions from ``Q_CONDITIONS``."""
    monkeypatch.setattr(character, "Q_CONDITIONS", tuple(
        (lambda ctx: True) if cond is character.q9 else cond
        for cond in character.Q_CONDITIONS))


def content_packing_base_one_short(monkeypatch):
    """``s_character``'s weigher packing contents in base ``bound`` instead
    of ``bound + 1``, so a count that reaches the box bound carries into the
    next letter's digit; ``explore``'s weigher and ``super_schur`` keep
    their base."""
    def short(plan, alphabet, max_boxes):
        # the weigher's base is one more than the bound it is given
        bound = osptab.box_bound(plan, alphabet, max_boxes)
        return osptab.content_weigher(plan, alphabet, bound - 1)

    monkeypatch.setattr(character, "content_weigher", short)


class Fault(NamedTuple):
    apply: Callable  # apply(monkeypatch) installs the fault
    checks: tuple    # battery checks that must fail
    oracles: tuple   # oracle tests that must fail


SIGMA_ORACLE = "test_osptab::test_admissibility_sigma_form_agrees"
INVERSE_ORACLE = "test_character::test_k_membership_matches_inverse_oracle"
WORD_ORACLE = "test_bkk_oracle::test_word_operators_agree_with_the_library"

FAULTS = {
    "sign-reduction-cancels-minus-plus": Fault(
        sign_reduction,
        ("worked-examples", "classical-crystal-D4-()-1",
         "super-closure-2|2-(1,1)-2", "schur-pieri-classical-3-0-(1,)-2"),
        ("test_osptab::test_sliding_algorithms_match_operator_splits",
         WORD_ORACLE, INVERSE_ORACLE)),
    "pair-merge-ties-swapped": Fault(
        pair_merge_ties_swapped,
        ("worked-examples", "classical-crystal-D4-(1, 1)-2",
         "super-closure-2|2-(1,1)-2"),
        ("test_signature::test_sigma_pair_matches_matrix",
         "test_signature::test_merge_matches_a_keyed_sort")),
    "lr-split-one-raising-short": Fault(
        lr_split_short,
        ("worked-examples", "classical-crystal-D3-(2,)-3"),
        (SIGMA_ORACLE, INVERSE_ORACLE)),
    "star-split-columns-swapped": Fault(
        star_split_swapped,
        ("worked-examples", "classical-crystal-D3-(2,)-3"),
        (SIGMA_ORACLE, INVERSE_ORACLE)),
    "height-clause-strict": Fault(
        height_clause_strict,
        ("worked-examples", "classical-crystal-D3-(1,)-3",
         "classical-crystal-D3-(2,)-3", "split-lemma-suites"),
        (SIGMA_ORACLE, INVERSE_ORACLE)),
    "colour-0-on-last-factor": Fault(
        colour0_last_factor,
        ("super-closure-2|2-(1,1)-2",),
        (WORD_ORACLE,)),
    "q9-always-true": Fault(
        q9_always_true,
        ("schur-pieri-classical-4-0-(2,)-2",),
        (INVERSE_ORACLE,
         "test_character::test_schur_expansion_classical_exact",
         "test_branching_graph::"
         "test_restricted_sources_are_the_branching_coefficients")),
    "content-packing-base-one-short": Fault(
        content_packing_base_one_short,
        ("schur-pieri-super-2-2-(1, 1)-2",),
        ("test_character::test_packed_contents_match_letter_counts",
         "test_character::test_schur_expansion_super_bounded")),
}
