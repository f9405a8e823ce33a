import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospd import (classify_pair, enumerate_tableaux, is_admissible,
                  lr_split, make_alphabet, shape_plan, star_split, tableau,
                  validate, weyl_dim_D)
from ospd.osptab import (OspPair, OspTableauD, RejectError, SpinColumn,
                         _part_sort_key, all_columns, column_count,
                         expected_kinds, highest_weight_tuple,
                         is_admissible_sigma, lr_split_sliding, make_bar_pair,
                         osp_pairs, part_from_cols, spin_columns,
                         star_split_sliding, tuple_from_json, tuple_to_json,
                         valid_slide_offsets)
from ospd.signature import sigma_pair
from ospd.tableau import column_is_valid

from conftest import letters
from faults import FAULTS, replace


@pytest.fixture(scope="module")
def worked(sup46=make_alphabet("super", 4, 6)):
    A = sup46
    T = classify_pair(letters(A, "b4", "b1", "1/2", "3/2", "3/2"),
                      letters(A, "b3", "b2", "3/2", "5/2"), 3)
    S1 = classify_pair(letters(A, "b1", "5/2", "7/2", "9/2"),
                       letters(A, "b2", "b1", "7/2", "9/2"), 2)
    S2 = classify_pair(letters(A, "b3", "b2", "b1", "1/2", "3/2", "5/2", "7/2"),
                       letters(A, "b2", "b1", "1/2", "3/2", "7/2", "9/2"), 1)
    return A, T, S1, S2


def test_classify_worked_example(worked):
    _, T, S1, S2 = worked
    assert T.shape() == (3, 2, 2) and T.residue == 1
    assert S1.residue == 1 and S2.residue == 0


def test_classify_strict_column_alone(cl40):
    t = classify_pair(letters(cl40, "b4", "b3", "b2"), (), 3)
    assert t.residue == 0 and sigma_pair(t.left, t.right) == (3, 0)


def test_classify_rejects_odd_b(cl40):
    with pytest.raises(RejectError):
        classify_pair(letters(cl40, "b4"), letters(cl40, "b4"), 1)


def test_slide_characterization_exhaustive():
    # all pairs with at most 8 boxes over a 5-letter alphabet: membership by
    # signature agrees with the slide-offset description, and the offsets of
    # a member form the interval {0..r}
    A = make_alphabet("super", 3, 2)
    cols = {h: all_columns(A, h) for h in range(7)}
    for a in range(4):
        for hl in range(a, 7):
            for hr in range(0, 8 - hl + 1):
                c = hl - a
                b = hr - c
                if c < 0 or b < 0 or b % 2 or c % 2:
                    continue
                for left in cols[hl]:
                    for right in cols.get(hr, ()):
                        offsets = valid_slide_offsets(left, right, a)
                        try:
                            member = classify_pair(left, right, a)
                        except RejectError:
                            assert not (offsets == {0} or offsets == {0, 1})
                        else:
                            assert offsets == set(range(member.residue + 1))


def test_lr_split_worked_example(worked):
    A, T, _, _ = worked
    assert lr_split(T) == (letters(A, "b4", "1/2", "3/2"),
                           letters(A, "b3", "b2", "b1", "3/2", "3/2", "5/2"))


def test_star_split_worked_example(worked):
    A, T, _, _ = worked
    assert star_split(T) == (letters(A, "b4", "b2", "b1", "1/2", "3/2", "3/2"),
                             letters(A, "b3", "3/2", "5/2"))


def test_lr_split_identity_when_trivial(cl40):
    t = classify_pair(letters(cl40, "b4", "b3"), letters(cl40, "b4", "b3"), 0)
    assert t.residue == 0
    assert lr_split(t) == (t.left, t.right)


def test_star_split_requires_residue_one(cl40):
    t = classify_pair(letters(cl40, "b4", "b3", "b2"), (), 3)
    with pytest.raises(RejectError):
        star_split(t)


def _random_members(rng, alphabet, count, max_a=4, budget=8):
    pools = [osp_pairs(alphabet, a, budget) for a in range(max_a + 1)]
    pool = [t for p in pools for t in p]
    return [rng.choice(pool) for _ in range(count)]


def test_sliding_algorithms_match_operator_splits(rng):
    for kind in ("classical", "super"):
        A = make_alphabet(kind, 4, 2)
        for t in _random_members(rng, A, 500):
            assert lr_split_sliding(t) == lr_split(t)
            lt, rt = lr_split(t)
            assert len(lt) == len(t.left) - t.a + t.residue
            assert len(rt) == len(t.right) + t.a - t.residue
            if t.residue == 1:
                assert star_split_sliding(t) == star_split(t)


def test_star_then_raise_is_identity(rng):
    # the star split is the lowering operator; raising inverts it
    from ospd.signature import gl_e_matrix
    from ospd.tableau import make_matrix
    A = make_alphabet("super", 4, 2)
    done = 0
    for t in _random_members(rng, A, 3000):
        if t.residue != 1:
            continue
        ls, rs = star_split(t)
        m = gl_e_matrix(make_matrix((rs, ls)), 1)
        assert m is not None and (m.cols[1], m.cols[0]) == (t.left, t.right)
        done += 1
        if done >= 500:
            break
    assert done >= 500


def test_one_pass_splits_match_single_operator_steps():
    # every member with a <= 4 at 8 boxes: the one-reduction splits equal
    # a - r single raisings, and one lowering, of the matrix (T^R, T^L)
    from ospd.signature import gl_e_matrix, gl_f_matrix
    from ospd.tableau import make_matrix
    swept = stars = 0
    for kind in ("classical", "super"):
        A = make_alphabet(kind, 4, 2)
        for t in (t for a in range(5) for t in osp_pairs(A, a, 8)):
            m = make_matrix((t.right, t.left))
            for _ in range(t.a - t.residue):
                m = gl_e_matrix(m, 1)
            assert lr_split(t) == (m.cols[1], m.cols[0])
            swept += 1
            if t.residue == 1:
                m = gl_f_matrix(make_matrix((t.right, t.left)), 1)
                assert star_split(t) == (m.cols[1], m.cols[0])
                stars += 1
    assert (swept, stars) == (12176, 4842)


def test_column_count_is_the_number_of_columns():
    for kind, m, n in (("classical", 4, 2), ("super", 4, 2), ("super", 2, 0)):
        A = make_alphabet(kind, m, n)
        built = 0
        for h in range(9):
            built += len(all_columns(A, h))
            assert column_count(A, h) == built


@pytest.mark.parametrize("kind,m,n", [("classical", 4, 2), ("super", 4, 2),
                                      ("super", 3, 2)])
def test_pools_are_the_filtered_product(kind, m, n):
    # every pair of columns within the budget through the public membership
    # tests, which raise on a rejected pair, against the pools, which test
    # only the signature of the shapes they generate
    A = make_alphabet(kind, m, n)
    budget = 6
    cols = [c for h in range(budget + 1) for c in all_columns(A, h)]
    pairs = [(left, right) for left in cols for right in cols
             if len(left) + len(right) <= budget]

    def members(test):
        out = []
        for left, right in pairs:
            try:
                out.append(test(left, right))
            except RejectError:
                pass
        return sorted(out)

    for a in range(5):
        want = members(lambda left, right: classify_pair(left, right, a))
        assert sorted(osp_pairs(A, a, budget)) == want and want
    want = members(make_bar_pair)
    assert sorted(osp_pairs(A, 0, budget, bar=True)) == want and want


def test_pools_validate_each_column_at_most_once(monkeypatch):
    calls = []
    valid = column_is_valid

    def counted(col):
        calls.append(col)
        return valid(col)

    replace(monkeypatch, tableau, "column_is_valid", counted)
    A = make_alphabet("super", 4, 2)
    budget = 6
    generated = sum(len(all_columns(A, h)) for h in range(budget + 1))
    for a, bar in [(a, False) for a in range(5)] + [(0, True)]:
        del calls[:]
        assert osp_pairs(A, a, budget, bar=bar)
        assert len(calls) <= generated


def test_admissibility_worked_examples(worked):
    _, T, S1, S2 = worked
    assert is_admissible(T, S1)
    assert is_admissible(T, S2)


def test_admissibility_height_violation(cl40):
    t = classify_pair(letters(cl40, "b4", "b3"), letters(cl40, "b4", "b3"), 0)
    s = SpinColumn(())
    # ht(T^R) = 2 > ht(S^L) - a' + 2 r r' = 0
    assert not is_admissible(t, s)


def test_admissibility_refuses_kinds_without_a_relation(cl40):
    pair = classify_pair(letters(cl40, "b4", "b3"), letters(cl40, "b4", "b3"), 0)
    bar = make_bar_pair(letters(cl40, "b4"), letters(cl40, "b4"))
    one_pair = osp_pairs(cl40, 1, 4)[0]  # a = 1 > 0, the a of pair
    for t, s in [(bar, pair), (bar, SpinColumn(())), (SpinColumn(()), pair),
                 (pair, "not a component"), (pair, one_pair)]:
        with pytest.raises(RejectError):
            is_admissible(t, s)


def test_admissibility_sigma_form_agrees(rng):
    for kind in ("classical", "super"):
        A = make_alphabet(kind, 4, 2)
        members = _random_members(rng, A, 1200, max_a=3, budget=6)
        spins = [SpinColumn(c) for h in range(5) for c in all_columns(A, h)]
        bars = osp_pairs(A, 0, 6, bar=True)
        checked = 0
        for _ in range(4000):
            t = rng.choice(members)
            mode = rng.randrange(3)
            if mode == 0:
                s = rng.choice(members)
                if t.a < s.a:
                    t, s = s, t
            elif mode == 1:
                s = rng.choice(spins)
                if t.a < s.residue:
                    continue
            else:
                if t.a < 1:
                    continue
                s = rng.choice(bars)
            assert is_admissible(t, s) == is_admissible_sigma(t, s)
            checked += 1
        bt = rng.choice(bars)
        for s in bars[:50]:
            assert is_admissible(bt, s) == is_admissible_sigma(bt, s)
        assert checked > 3000


def test_shape_plan_examples():
    p = shape_plan((1, 1, 1), 2)
    assert (p.sign, p.q, p.r, p.M, p.L, p.heights) == ("+", 0, 0, 1, 1, (3,))
    p = shape_plan((), 1)
    assert (p.sign, p.q, p.r, p.M, p.L) == ("+", 0, 1, 0, 0)
    p = shape_plan((2,), 2)
    assert (p.sign, p.q, p.r, p.M, p.L) == ("-", 1, 0, 0, 1)
    for lam, ell in [((3, 1), 5), ((2, 2), 4), ((1,), 3)]:
        p = shape_plan(lam, ell)
        assert 2 * p.L + p.r == ell


def test_shape_plan_rejections():
    with pytest.raises(RejectError):
        shape_plan((2, 2), 3)  # ell - l1 - l2 < 0
    with pytest.raises(RejectError):
        shape_plan((1,), 0)
    with pytest.raises(RejectError):
        shape_plan((1, 1, 1), 2, make_alphabet("super", 2, 0))
    with pytest.raises(RejectError):
        shape_plan((1, 1, 1, 1, 1), 2, make_alphabet("classical", 2, 2))


def test_classical_highest_tuple_validates():
    for m, n in ((3, 0), (4, 0), (2, 2)):
        A = make_alphabet("classical", m, n)
        for lam, ell in [((), 1), ((1,), 1), ((1, 1), 2), ((2,), 2), ((2,), 3)]:
            plan = shape_plan(lam, ell, A)
            t = highest_weight_tuple(plan, A, "classical")
            assert isinstance(t, OspTableauD)


def test_validate_reports_failing_condition(cl40):
    plan = shape_plan((1, 1), 2, cl40)
    good = classify_pair(letters(cl40, "b4", "b3"), (), 2)
    with pytest.raises(RejectError):
        validate([good, good], plan)  # wrong number of components
    with pytest.raises(RejectError):
        validate([("b4", "b3")], plan)  # not a component
    plan2 = shape_plan((2, 2), 4, cl40)
    t1 = classify_pair(letters(cl40, "b4", "b3"), (), 2)
    t2 = classify_pair(letters(cl40, "b3", "b2"), (), 2)
    with pytest.raises(RejectError) as err:
        validate([t2, t1], plan2)
    assert "T_2 < T_1" in str(err.value)


def test_validate_rejects_a_wrong_residue(cl40):
    # sigma((b4, b3), ()) = (2, 0) = (a - r, b - r) with r = 0, not 1
    plan = shape_plan((1, 1), 2, cl40)
    left = letters(cl40, "b4", "b3")
    assert validate([classify_pair(left, (), 2)], plan, cl40)
    with pytest.raises(RejectError):
        validate([OspPair(left, (), 2, 1)], plan, cl40)


def test_spin_slot_rejects_wrong_sign_and_invalid_columns(cl40):
    b4, b3 = letters(cl40, "b4", "b3")
    assert part_from_cols(("spin", "-"), ((b4,),)) == SpinColumn((b4,))
    with pytest.raises(RejectError):
        part_from_cols(("spin", "+"), ((b4,),))
    with pytest.raises(RejectError):
        part_from_cols(("spin", "+"), ((b3, b4),))
    plan = shape_plan((), 1, cl40)
    with pytest.raises(RejectError):
        validate([SpinColumn((b4,))], plan, cl40)
    blob = tuple_to_json(OspTableauD((SpinColumn((b4, b3)),), plan))
    assert tuple_from_json(cl40, blob).parts == (SpinColumn((b4, b3)),)
    blob["parts"][0]["sign"] = "-"
    with pytest.raises(RejectError):
        tuple_from_json(cl40, blob)
    blob["parts"][0]["kind"] = "column"
    with pytest.raises(RejectError):
        tuple_from_json(cl40, blob)


def test_enumerate_spin_level_one(cl40):
    plan = shape_plan((), 1, cl40)
    out = enumerate_tableaux(plan, cl40)
    assert len(out) == 8  # even-size subsets of a 4-letter set
    assert out == enumerate_tableaux(plan, cl40)  # deterministic


def test_enumerate_matches_weyl_dimension():
    for m, n in ((3, 0), (2, 1), (4, 0), (2, 2)):
        A = make_alphabet("classical", m, n)
        for lam, ell in [((), 1), ((1,), 1), ((1,), 2), ((1, 1), 2), ((2,), 2)]:
            plan = shape_plan(lam, ell, A)
            count = len(enumerate_tableaux(plan, A))
            assert count == weyl_dim_D(ell, lam, m + n)


# the plans of the pinned enumerate streams in test_cli.py, then two whose
# left member is a barred pair: (3,), 3 is bar-spin and (4,), 4 is bar-bar
ENUMERATED_PLANS = [
    ("classical", 5, 0, (2, 2), 4, None),
    ("classical", 4, 0, (3,), 4, None),
    ("classical", 5, 0, (2,), 3, None),
    ("super", 2, 2, (3,), 4, 7),
    ("super", 2, 1, (1, 1), 3, 7),
    ("classical", 4, 0, (3,), 3, None),
    ("classical", 3, 0, (4,), 4, None),
]


@pytest.mark.parametrize("kind,m,n,lam,ell,bound", ENUMERATED_PLANS)
def test_enumeration_agrees_with_the_public_relation(kind, m, n, lam, ell,
                                                     bound):
    # enumerate_tableaux reads splits from per-call tables; validate tests
    # every adjacent pair again through is_admissible, which has none
    A = make_alphabet(kind, m, n)
    plan = shape_plan(lam, ell, A)
    out = enumerate_tableaux(plan, A, bound)
    assert len(set(out)) == len(out)
    for t in out:
        assert validate(t.parts, plan, A) == t
    if kind == "classical":
        assert len(out) == weyl_dim_D(ell, lam, m + n)


@pytest.mark.parametrize("kind,m,n,lam,ell,bound", ENUMERATED_PLANS)
def test_boxes_lower_bound_is_the_fewest_boxes(kind, m, n, lam, ell, bound):
    A = make_alphabet(kind, m, n)
    plan = shape_plan(lam, ell, A)
    floor = plan.boxes_lower_bound()
    assert enumerate_tableaux(plan, A, floor - 1) == []
    assert min(t.boxes() for t in enumerate_tableaux(plan, A, floor)) == floor


@pytest.mark.parametrize("lam,ell", [((2, 2), 4), ((2,), 3)],
                         ids=["D4-22-4", "D4-2-3"])
def test_enumeration_reaches_the_height_clause(cl40, monkeypatch, lam, ell):
    # the fault table's clause (i) row wraps osptab._admissible_nonbar; the
    # enumeration, which calls it directly, must see the wrapper
    plan = shape_plan(lam, ell, cl40)
    dim = weyl_dim_D(ell, lam, cl40.size)
    assert len(enumerate_tableaux(plan, cl40)) == dim
    FAULTS["height-clause-strict"].apply(monkeypatch)
    assert len(enumerate_tableaux(plan, cl40)) != dim


def _slot_members(A, kind, param, bound):
    """Every member of a slot's class with at most ``bound`` boxes."""
    if kind == "spin":
        return spin_columns(A, param, bound)
    return osp_pairs(A, param or 0, bound, bar=kind == "bar")


def _old_order(t):
    return (t.boxes(), tuple(_part_sort_key(p) for p in t.parts))


# (slots, kind, m, n, lambda, ell, bound)
BRUTE_PLANS = [
    ("pair-pair", "super", 2, 2, (2,), 4, 6),
    ("pair-spin", "super", 2, 2, (1, 1), 3, 7),
    ("bar-spin", "super", 2, 2, (3,), 3, 8),
    ("bar-bar", "super", 2, 2, (4,), 4, 8),
    ("pair-pair-spin", "super", 2, 1, (2,), 5, 6),
]


@pytest.mark.parametrize("slots,kind,m,n,lam,ell,bound", BRUTE_PLANS,
                         ids=[plan[0] for plan in BRUTE_PLANS])
def test_enumeration_is_the_filtered_product(slots, kind, m, n, lam, ell,
                                             bound):
    # the product of each slot's members within the bound, filtered pair by
    # pair through the sigma form, which shares no split code with the left
    # keys that group the enumeration's candidates
    A = make_alphabet(kind, m, n)
    plan = shape_plan(lam, ell, A)
    kinds = expected_kinds(plan)
    assert "-".join(k for k, _ in kinds) == slots
    brute = set()
    for parts in itertools.product(*(_slot_members(A, k, p, bound)
                                     for k, p in kinds)):
        if (sum(p.boxes() for p in parts) <= bound
                and all(map(is_admissible_sigma, parts, parts[1:]))):
            brute.add(parts)
    out = enumerate_tableaux(plan, A, bound)
    assert len(out) == len(brute) > 0
    assert {t.parts for t in out} == brute
    assert out == sorted(out, key=_old_order)


@pytest.mark.parametrize("kind,m,n,lam,ell,bound", ENUMERATED_PLANS)
def test_sort_key_is_injective_on_each_slot(kind, m, n, lam, ell, bound):
    # enumeration orders tuples by the ranks of their components in each
    # slot's sorted candidates; that is the order of the components' sort
    # keys only if no two candidates of a slot share one
    A = make_alphabet(kind, m, n)
    plan = shape_plan(lam, ell, A)
    bound = bound or ell * A.size
    for slot in set(expected_kinds(plan)):
        keys = [_part_sort_key(p) for p in _slot_members(A, *slot, bound)]
        assert len(set(keys)) == len(keys) > 0


def test_enumerate_super_requires_bound(sup22):
    with pytest.raises(RejectError):
        enumerate_tableaux(shape_plan((1,), 1, sup22), sup22)


def test_tuple_json_roundtrip(sup22):
    plan = shape_plan((1,), 1, sup22)
    for t in enumerate_tableaux(plan, sup22, 5):
        blob = json.dumps(tuple_to_json(t), sort_keys=True)
        assert tuple_from_json(sup22, json.loads(blob)) == t


def _drop(obj, key):
    del obj[key]


JSON_EDITS = {
    "a-string": (lambda b: b["parts"][0].update(a="2"), "'a' must be"),
    "a-bool": (lambda b: b["parts"][0].update(a=True), "'a' must be"),
    "a-missing": (lambda b: _drop(b["parts"][0], "a"), "lacks 'a'"),
    "kind-missing": (lambda b: _drop(b["parts"][0], "kind"), "lacks 'kind'"),
    "col-missing": (lambda b: _drop(b["parts"][1], "col"), "lacks 'col'"),
    "ell-string": (lambda b: b["plan"].update(ell="3"), "'ell' must be"),
    "ell-bool": (lambda b: b["plan"].update(ell=True), "'ell' must be"),
    "ell-missing": (lambda b: _drop(b["plan"], "ell"), "lacks 'ell'"),
    "lambda-string": (lambda b: b["plan"].update({"lambda": ["2", 1]}),
                      "'lambda' must be"),
    "lambda-bool": (lambda b: b["plan"].update({"lambda": [2, True]}),
                    "'lambda' must be"),
    "lambda-missing": (lambda b: _drop(b["plan"], "lambda"),
                       "lacks 'lambda'"),
    "lambda-not-list": (lambda b: b["plan"].update({"lambda": "21"}),
                        "'lambda' must be a list"),
    "lambda-inner-zero": (lambda b: b["plan"].update({"lambda": [0, 1]}),
                          "lambda must be a partition"),
    "R-int": (lambda b: b["parts"][0].update(R=5), "'R' must be a list"),
    "R-string": (lambda b: b["parts"][0].update(R="b1"), "'R' must be a list"),
    "parts-int": (lambda b: b.update(parts=5), "'parts' must be a list"),
}


@pytest.mark.parametrize("case", sorted(JSON_EDITS))
def test_json_reader_rejects_a_bad_field(cl40, case):
    plan = shape_plan((2, 1), 3, cl40)
    blob = tuple_to_json(highest_weight_tuple(plan, cl40, "classical"))
    assert tuple_from_json(cl40, blob).plan == plan
    edit, reason = JSON_EDITS[case]
    edit(blob)
    with pytest.raises(RejectError, match=reason):
        tuple_from_json(cl40, blob)


CL40 = make_alphabet("classical", 4, 0)
HIGHEST_21_3 = json.dumps(tuple_to_json(highest_weight_tuple(
    shape_plan((2, 1), 3, CL40), CL40, "classical")))

# arbitrary JSON, and the values a reader expects: letter lists, kinds, signs
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8) | st.lists(st.sampled_from(
        ["b4", "b3", "b2", "b1", "1", "2", "3", "4"]), max_size=5) \
    | st.sampled_from(["pair", "bar", "spin", "+", "-"])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(0, "L"), (0, "R"), (0, "kind"), (1, "col"),
                        (1, "kind"), (1, "sign")]), JSON_VALUES)
def test_json_reader_raises_only_reject_error(field, value):
    # parts[0] of this tableau is a pair and parts[1] a spin column
    blob = json.loads(HIGHEST_21_3)
    index, key = field
    blob["parts"][index][key] = value
    try:
        tuple_from_json(CL40, blob)
    except RejectError:
        pass
