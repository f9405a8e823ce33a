"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criterion 7 asserts the connectedness theorem for super crystals: one
connected colored graph whose unique genuine source has the prescribed
weight.  It also pins the set of sources exactly, against the oracle in
``bkk_oracle``.  That oracle applies the Benkart-Kang-Kashiwara tensor rule
to each vertex's super reading word, and it shares no code with the
operators.  The sources need not be unique.  On the plan ((1,1), 2) over the
2|2 alphabet, vertex 23 has reading word (1/2, b1, 3/2, b2).  Every raising
operator kills it; the same word is one of the two raising-frozen words in
a B(2,1,1) component of V^(x)4 for gl(2|2).  So that graph has four sources,
and raising reaches 372 of its 424 vertices from the distinguished one.
Neither the tensor rule nor the paper's abstract promises a unique source or
raising-reachability of every element.
"""

import time

import pytest

from ospd import make_alphabet, shape_plan, verify_pieri, weyl_dim_D
from ospd.character import (k_coefficients, k_from_character, s_character,
                            schur_expansion_matches, super_schur, CharPoly)
from ospd.crystal import (check_axioms, explore, f_reachable,
                          is_genuine_highest, plan_weight)
from ospd.lemmas import (member_pools, run_admissibility_suite,
                         run_split_lemma_suite)
from ospd.osptab import (classify_pair, highest_weight_tuple, is_admissible,
                         lr_split, star_split, tuple_to_matrix)
from ospd.signature import sigma_pair

from bkk_oracle import raising_frozen, rank_columns
from conftest import letters

CLASSICAL_RANKS = ((3, 0), (4, 0))
SUPER_ALPHABETS = ((2, 2), (3, 2))
SUPER_PLANS = (((), 1), ((1,), 1), ((1, 1), 2), ((2,), 2), ((), 2), ((2,), 3))
SUPER_BOUND = 8
# most draws criterion 6's super 4|2 admissibility suite may make, a quarter
# of the 1,383,517 that draws not aimed at a case took; unlike a time, a draw
# count does not drift with the host
SUPER_SUITE_MAX_DRAWS = 350000


def classical_plan_list(rank):
    plans = [((), 1), ((1,), 1)]
    plans += [((1,) * a, 2) for a in range(1, rank)]
    plans += [((2,), 2), ((), 2), ((2,), 3)]
    return plans


def _line(num, ok, detail, elapsed):
    print("ACCEPTANCE %d: %s — %s (%.1fs)"
          % (num, "PASS" if ok else "FAIL", detail, elapsed))


@pytest.fixture(scope="module")
def classical_graphs():
    out = {}
    for m, n in CLASSICAL_RANKS:
        alphabet = make_alphabet("classical", m, n)
        for lam, ell in classical_plan_list(m + n):
            plan = shape_plan(lam, ell, alphabet)
            out[m, n, lam, ell] = (alphabet,
                                   explore(plan, alphabet, "classical"))
    return out


@pytest.fixture(scope="module")
def super_graphs():
    out = {}
    for m, n in SUPER_ALPHABETS:
        alphabet = make_alphabet("super", m, n)
        for lam, ell in SUPER_PLANS:
            plan = shape_plan(lam, ell, alphabet)
            out[m, n, lam, ell] = (alphabet,
                                   explore(plan, alphabet, "super", SUPER_BOUND))
    return out


def test_criterion_1_worked_examples():
    t0 = time.time()
    A = make_alphabet("super", 4, 6)
    T = classify_pair(letters(A, "b4", "b1", "1/2", "3/2", "3/2"),
                      letters(A, "b3", "b2", "3/2", "5/2"), 3)
    ok = sigma_pair(T.left, T.right) == (2, 1) and T.residue == 1
    ok &= lr_split(T) == (letters(A, "b4", "1/2", "3/2"),
                          letters(A, "b3", "b2", "b1", "3/2", "3/2", "5/2"))
    ok &= star_split(T) == (letters(A, "b4", "b2", "b1", "1/2", "3/2", "3/2"),
                            letters(A, "b3", "3/2", "5/2"))
    S1 = classify_pair(letters(A, "b1", "5/2", "7/2", "9/2"),
                       letters(A, "b2", "b1", "7/2", "9/2"), 2)
    S2 = classify_pair(letters(A, "b3", "b2", "b1", "1/2", "3/2", "5/2", "7/2"),
                       letters(A, "b2", "b1", "1/2", "3/2", "7/2", "9/2"), 1)
    ok &= is_admissible(T, S1) and is_admissible(T, S2)
    elapsed = time.time() - t0
    _line(1, ok, "splits, signature and admissibility of the worked examples",
          elapsed)
    assert ok and elapsed < 1.0


def test_criterion_2_classical_crystals(classical_graphs):
    t0 = time.time()
    checked = 0
    for (m, n, lam, ell), (alphabet, graph) in classical_graphs.items():
        dim = weyl_dim_D(ell, lam, m + n)
        plan = shape_plan(lam, ell, alphabet)
        assert len(graph.vertices) == dim, (m, n, lam, ell)
        assert graph.components == 1, (m, n, lam, ell)
        assert len(graph.sources) == 1, (m, n, lam, ell)
        assert graph.weights[graph.sources[0]] == plan_weight(alphabet, plan)
        checked += 1
    elapsed = time.time() - t0
    _line(2, True, "%d classical crystals match the dimension oracle, "
          "connected with one highest weight vertex" % checked, elapsed)
    assert elapsed < 60


def test_criterion_3_closure(classical_graphs, super_graphs):
    # explore() verifies, for every vertex and color, that raising stays in
    # the set and lowering stays in the set or leaves through the box bound;
    # reaching this point means no violation was found
    t0 = time.time()
    total = sum(len(g.vertices) for _, g in classical_graphs.values())
    total += sum(len(g.vertices) for _, g in super_graphs.values())
    trunc = sum(len(g.truncated) for _, g in super_graphs.values())
    elapsed = time.time() - t0
    _line(3, True, "operator closure on %d vertices (%d truncated lowerings "
          "at the super bound)" % (total, trunc), elapsed)
    assert total > 0
    assert elapsed < 120


def test_criterion_4_schur_positivity_and_pieri():
    t0 = time.time()
    plans = 0
    # classical side: exact expansion and exact bijection
    for m, n in CLASSICAL_RANKS:
        alphabet = make_alphabet("classical", m, n)
        for lam, ell in [((), 1), ((1,), 2), ((1, 1), 2), ((2,), 2)]:
            plan = shape_plan(lam, ell, alphabet)
            table = k_coefficients(plan, plan.ell * alphabet.size)
            assert all(k > 0 for k in table.values())
            assert schur_expansion_matches(plan, alphabet)
            rep = verify_pieri(plan, alphabet)
            assert rep["ok"], rep["failures"][:1]
            plans += 1
    # super side: bounded at 8 boxes
    sup = make_alphabet("super", 2, 2)
    for lam, ell in [((1,), 1), ((1, 1), 2), ((2,), 2)]:
        plan = shape_plan(lam, ell, sup)
        assert schur_expansion_matches(plan, sup, SUPER_BOUND)
        rep = verify_pieri(plan, sup, SUPER_BOUND)
        assert rep["ok"], rep["failures"][:1]
        plans += 1
    # alphabet independence of the coefficients
    for lam, ell in [((1,), 2), ((2,), 3), ((1, 1), 2)]:
        tables = []
        for size in (8, 9):
            A = make_alphabet("classical", size, 0)
            tables.append(k_from_character(shape_plan(lam, ell, A), A, 8))
        assert tables[0] == tables[1]
        assert tables[0] == k_coefficients(shape_plan(lam, ell), 8)
    elapsed = time.time() - t0
    _line(4, True, "expansion, positivity, alphabet independence and the "
          "five bijection checks on %d plans" % plans, elapsed)
    assert plans >= 10
    assert elapsed < 120


def test_criterion_5_crystal_axioms(classical_graphs, super_graphs):
    t0 = time.time()
    edges = 0
    for _, (alphabet, graph) in {**classical_graphs, **super_graphs}.items():
        assert check_axioms(graph) == []
        edges += len(graph.edges)
    elapsed = time.time() - t0
    _line(5, True, "inverse and weight axioms on %d edges" % edges, elapsed)
    assert elapsed < 120


def test_criterion_6_split_lemma_suites():
    t0 = time.time()
    details = []
    for kind in ("classical", "super"):
        alphabet = make_alphabet(kind, 4, 2)
        pools = member_pools(alphabet)
        rep = run_split_lemma_suite(alphabet, pools)
        assert rep["complete"], rep["counts"]
        assert rep["ok"], rep["failures"][:1]
        rep2 = run_admissibility_suite(alphabet, pools, per_case=2000,
                                       seed=102)
        assert rep2["complete"], rep2["counts"]
        assert rep2["ok"], rep2["failures"][:1]
        if kind == "super":
            assert rep2["attempts"] <= SUPER_SUITE_MAX_DRAWS, rep2["attempts"]
        details.append("%s: %d+%d instances" % (
            kind, sum(rep["counts"].values()), sum(rep2["counts"].values())))
    elapsed = time.time() - t0
    _line(6, True, "; ".join(details), elapsed)
    assert elapsed < 300


def test_criterion_7_super_connectedness(super_graphs):
    t0 = time.time()
    mismatches = []
    counts = []
    for (m, n, lam, ell), (alphabet, graph) in super_graphs.items():
        if (m, n) != (2, 2):
            continue
        plan = shape_plan(lam, ell, alphabet)
        H = highest_weight_tuple(plan, alphabet, "super")
        hid = graph.index()[H]
        # the theorem: one connected component with the genuine highest
        # weight element of the prescribed weight among the sources
        assert graph.components == 1, (lam, ell)
        assert hid in graph.sources
        assert graph.weights[hid] == plan_weight(alphabet, plan)
        genuine = [s for s in graph.sources
                   if is_genuine_highest(alphabet, "super", graph.vertices[s])]
        assert genuine == [hid], (lam, ell)
        # the sources are exactly the elements the tensor rule freezes
        frozen = [i for i, tt in enumerate(graph.vertices)
                  if raising_frozen(m, n,
                                    rank_columns(tuple_to_matrix(tt).cols))]
        if graph.sources != frozen:
            extra = sorted(set(graph.sources) - set(frozen))
            missing = sorted(set(frozen) - set(graph.sources))
            mismatches.append((lam, ell, extra, missing))
        counts.append("%s,%d: %d/%d/%d" % (
            lam, ell, len(graph.sources), len(f_reachable(graph, hid)),
            len(graph.vertices)))
    elapsed = time.time() - t0
    ok = not mismatches
    _line(7, ok, "connected, genuine highest element unique, sources equal "
          "the tensor-rule frozen set (sources/raising-reach/vertices %s)"
          % "; ".join(counts) if ok else
          "sources differ from the tensor-rule frozen set on %s"
          % (mismatches,), elapsed)
    assert elapsed < 60
    assert not mismatches, (
        "graph sources differ from the elements that every raising operator "
        "kills under the BKK tensor rule (plan, unpredicted sources, "
        "predicted but missing): %s" % (mismatches,))


def test_criterion_8_super_character_transfer():
    t0 = time.time()
    sup = make_alphabet("super", 2, 2)
    classical = make_alphabet("classical", 8, 0)
    for lam, ell in [((1,), 1), ((1, 1), 2)]:
        plan_c = shape_plan(lam, ell, classical)
        table = k_from_character(plan_c, classical, SUPER_BOUND)
        plan_s = shape_plan(lam, ell, sup)
        lhs = s_character(plan_s, sup, SUPER_BOUND)
        rhs = CharPoly()
        for mu, coeff in table.items():
            if len(mu) > sup.m and mu[sup.m] > sup.n:
                continue
            rhs = rhs + super_schur(mu, sup).shifted(ell).scaled(coeff)
        assert lhs == rhs, (lam, ell)
    elapsed = time.time() - t0
    _line(8, True, "bounded super characters match the classically computed "
          "expansion through degree %d" % SUPER_BOUND, elapsed)
    assert elapsed < 60
