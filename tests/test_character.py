import pytest

from ospd import explore, make_alphabet, shape_plan, verify_pieri, weyl_dim_D
from ospd.alphabet import Weight
from ospd.character import (CONTENT_CONDITIONS, QContext, content_admits,
                            contents_up_to, enumerate_recording,
                            enumerate_ssyt, in_k_set, k_coefficients,
                            k_from_character, q1, q2, q7, q8,
                            k_set_via_inverse, s_character,
                            schur_expansion_matches, super_schur)
from ospd.osptab import RejectError, enumerate_tableaux
from ospd.tableau import conjugate

from recording_oracle import partitions_up_to, shape_recording


def all_recording(total, ell):
    """Every recording tableau with entries in 1..ell and at most ``total``
    boxes, content by content, whether or not the content clauses hold."""
    return [q_cols for content in contents_up_to(total, ell)
            for q_cols in enumerate_recording(content)]


def content_of(q_cols, ell):
    return tuple(sum(col.count(i) for col in q_cols)
                 for i in range(1, ell + 1))


def _exps(alphabet, **counts):
    out = [0] * alphabet.size
    for name, e in counts.items():
        out[alphabet.parse(name.replace("_", "/")).rank] = e
    return tuple(out)


def test_super_schur_single_box():
    A = make_alphabet("classical", 2, 0)
    poly = super_schur((1,), A)
    assert poly.terms == {(0, (1, 0)): 1, (0, (0, 1)): 1}


def test_super_schur_column_two_super21():
    A = make_alphabet("super", 2, 1)
    poly = super_schur((1, 1), A)
    assert poly.terms == {
        (0, (1, 1, 0)): 1, (0, (1, 0, 1)): 1,
        (0, (0, 1, 1)): 1, (0, (0, 0, 2)): 1}


def test_super_schur_symmetry_in_even_letters():
    A = make_alphabet("classical", 3, 0)
    poly = super_schur((2,), A)
    coeffs = {}
    for (_, ex), c in poly.terms.items():
        coeffs.setdefault(tuple(sorted(ex)), set()).add(c)
    assert all(len(v) == 1 for v in coeffs.values())


def content(alphabet, letters):
    """The count of each letter, by rank, counted one by one."""
    exps = [0] * alphabet.size
    for a in letters:
        exps[a.rank] += 1
    return tuple(exps)


def letter_counts(alphabet, level, tableaux):
    """Terms of a weight generating function, each tableau's letters
    counted one by one: ``tableaux`` yields each tableau's letters."""
    terms = {}
    for letters in tableaux:
        key = (level, content(alphabet, letters))
        terms[key] = terms.get(key, 0) + 1
    return terms


def test_packed_contents_match_letter_counts():
    # the super plan reaches a count of the box bound (one odd letter in
    # every box), one less than the base the contents are packed in; the
    # D4 and 2|2 graphs weigh their vertices through the same packing
    for kind, m, n, lam, ell, bound, graph in [
            ("classical", 4, 0, (1, 1), 2, None, True),
            ("classical", 8, 0, (2,), 3, 8, False),
            ("super", 2, 2, (1, 1), 2, 8, True)]:
        A = make_alphabet(kind, m, n)
        plan = shape_plan(lam, ell, A)
        expect = letter_counts(A, ell, (
            t.letters() for t in enumerate_tableaux(plan, A, bound)))
        assert s_character(plan, A, bound).terms == expect
        if kind == "super":
            assert max(max(ex) for _, ex in expect) == bound
        if graph:
            g = explore(plan, A, kind, bound)
            assert g.weights == [Weight(ell, content(A, t.letters()))
                                 for t in g.vertices]
    for kind, m, n, mus in [
            ("classical", 4, 0, [(), (1,), (2,), (1, 1), (2, 1), (3, 1, 1),
                                 (2, 2), (4,)]),
            ("super", 2, 2, [(1,), (2,), (1, 1), (2, 1), (2, 2),
                             (1, 1, 1, 1), (3, 2, 1)])]:
        A = make_alphabet(kind, m, n)
        for mu in mus:
            expect = letter_counts(A, 0, (
                [a for col in cols for a in col]
                for cols in enumerate_ssyt(mu, A)))
            assert super_schur(mu, A).terms == expect, mu
    # the odd letter 1/2 (rank 2) fills every box of (1,1,1,1): a count of
    # |mu|, one less than the base
    assert super_schur((1, 1, 1, 1), A).terms[
        0, (0, 0, 4, 0)] == 1


def test_s_character_small_classical():
    A = make_alphabet("classical", 2, 0)
    poly = s_character(shape_plan((), 1, A), A)
    assert poly.terms == {(1, (0, 0)): 1, (1, (1, 1)): 1}
    A4 = make_alphabet("classical", 4, 0)
    assert len(s_character(shape_plan((), 1, A4), A4).terms) == 8


def test_k_coefficients_spin_plan():
    # level one, empty shape: one column class per even size
    table = k_coefficients(shape_plan((), 1), 8)
    assert table == {(): 1, (1, 1): 1, (1, 1, 1, 1): 1,
                     (1,) * 6: 1, (1,) * 8: 1}


def test_k_nonnegative_and_alphabet_independent():
    for lam, ell in [((1,), 2), ((2,), 2), ((2,), 3), ((1, 1), 2)]:
        bound = 8
        table = k_coefficients(shape_plan(lam, ell), bound)
        assert all(k > 0 for k in table.values())
        for size in (8, 9):
            A = make_alphabet("classical", size, 0)
            peeled = k_from_character(shape_plan(lam, ell, A), A, bound)
            assert peeled == table


MEMBERSHIP_PLANS = [((1,), 2), ((2,), 3), ((), 2), ((2, 1), 3)]


def test_recording_by_content_matches_shape_oracle():
    for ell in range(1, 5):
        for total in range(9):
            seen = []
            for content in contents_up_to(total, ell):
                tabs = enumerate_recording(content)
                assert all(content_of(q, ell) == content for q in tabs)
                seen.extend(tabs)
            assert len(seen) == len(set(seen))
            oracle = [q for mu in partitions_up_to(total, ell)
                      for q in shape_recording(conjugate(mu), ell)]
            assert len(oracle) == len(set(oracle))
            assert set(seen) == set(oracle)
    assert len(seen) == 4191  # ell = 4, at most 8 boxes


def test_k_membership_matches_inverse_oracle():
    oracle = make_alphabet("classical", 9, 0)
    visited = []
    for lam, ell in MEMBERSHIP_PLANS:
        plan = shape_plan(lam, ell)
        domain = all_recording(5, ell)
        for q_cols in domain:
            assert in_k_set(plan, q_cols) == \
                k_set_via_inverse(plan, q_cols, oracle)
        visited.append(len(domain))
    assert visited == [34, 140, 34, 140]


def test_content_filter_only_prunes():
    # k_coefficients decides the content clauses once per content and tests
    # each tableau only against the others: no tableau of a cut content is
    # in the set, every tableau of an admitted content satisfies them, and
    # the table equals in_k_set counted over every recording tableau
    assert CONTENT_CONDITIONS == (q1, q2, q7, q8)
    plans = [(shape_plan(lam, ell), 5) for lam, ell in MEMBERSHIP_PLANS]
    plans.append((shape_plan((2, 2), 4), 8))
    assert [plan.r for plan, _ in plans] == [0, 1, 0, 1, 0]
    assert {plan.sign for plan, _ in plans} == {"+", "-"}
    pruned, admitted = [], []
    for plan, total in plans:
        cut = kept = 0
        brute = {}
        for q_cols in all_recording(total, plan.ell):
            if not content_admits(plan, content_of(q_cols, plan.ell)):
                assert not in_k_set(plan, q_cols)
                cut += 1
                continue
            ctx = QContext(plan, q_cols)
            assert q1(ctx) and q2(ctx) and q7(ctx) and q8(ctx)
            kept += 1
            if in_k_set(plan, q_cols):
                mu = tuple(len(c) for c in q_cols)
                brute[mu] = brute.get(mu, 0) + 1
        assert k_coefficients(plan, total) == brute
        pruned.append(cut)
        admitted.append((kept, sum(brute.values())))
    assert pruned == [26, 131, 28, 128, 4054]
    assert admitted == [(8, 6), (9, 3), (6, 4), (12, 4), (137, 9)]


def test_middle_column_parity_is_needed():
    # the recording column [1,2] has sigma (0,0) but odd middle heights;
    # it must be excluded, matching the expansion of the plan ((0), 2)
    plan = shape_plan((), 2)
    q_cols = ((1, 2),)  # shape (1,1) = conjugate of (2)
    assert not in_k_set(plan, q_cols)
    table = k_coefficients(plan, 4)
    assert table.get((2,)) is None and table[(1, 1)] == 1


def test_schur_expansion_classical_exact():
    for m, n in ((3, 0), (4, 0), (2, 1)):
        A = make_alphabet("classical", m, n)
        for lam, ell in [((), 1), ((1,), 1), ((1,), 2), ((2,), 2), ((), 2)]:
            plan = shape_plan(lam, ell, A)
            assert schur_expansion_matches(plan, A)


def test_schur_expansion_super_bounded(sup22):
    for lam, ell in [((1,), 1), ((1, 1), 2), ((2,), 2)]:
        plan = shape_plan(lam, ell, sup22)
        assert schur_expansion_matches(plan, sup22, 8)


def test_verify_pieri_trivial_column_plan():
    A = make_alphabet("classical", 3, 0)
    rep = verify_pieri(shape_plan((), 1, A), A)
    assert rep["ok"] and rep["n"] == 4


def test_verify_pieri_super(sup22):
    for lam, ell in [((1,), 1), ((2,), 2), ((1, 1), 2)]:
        rep = verify_pieri(shape_plan(lam, ell, sup22), sup22, 8)
        assert rep["ok"], rep["failures"][:1]


def test_weyl_dim_examples():
    assert weyl_dim_D(1, (), 4) == 8
    # independent recount of the spin module: even-sized subsets
    import itertools
    count = sum(1 for r in range(0, 5, 2)
                for _ in itertools.combinations(range(4), r))
    assert count == 8
    assert weyl_dim_D(0, (), 3) == 1
    A3 = make_alphabet("classical", 3, 0)
    assert weyl_dim_D(1, (1,), 3) == \
        len(enumerate_tableaux(shape_plan((1,), 1, A3), A3))
    with pytest.raises(RejectError):
        weyl_dim_D(1, (1, 1), 3)  # ell < l1 + l2


def test_charpoly_json_stable(sup22):
    poly = s_character(shape_plan((1,), 1, sup22), sup22, 3)
    blob = poly.to_json(sup22)
    assert blob == sorted(blob, key=lambda t: sorted(t.items()) and 0) or blob
    assert all(set(term) == {"z", "x", "coef"} for term in blob)
    assert blob[0]["z"] == 1


def test_k_q_conditions_individually():
    from ospd.character import QContext, Q_CONDITIONS
    plan = shape_plan((1, 1), 2)
    good = visited = 0
    for q_cols in all_recording(4, 2):
        visited += 1
        ctx = QContext(plan, q_cols)
        values = []
        for cond in Q_CONDITIONS:
            try:
                values.append(bool(cond(ctx)))
            except RejectError:
                values.append(False)
                break
        if all(values):
            good += 1
    assert visited == 22
    assert good == sum(k_coefficients(plan, 4).values())
