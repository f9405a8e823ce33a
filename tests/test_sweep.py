"""Broad plan sweeps: every small plan shape against the dimension oracle,
and the full graph gauntlet on plans with mixed component blocks."""

from ospd import (check_axioms, enumerate_tableaux, explore, make_alphabet,
                  shape_plan, weyl_dim_D)
from ospd.crystal import is_genuine_highest, plan_weight
from ospd.osptab import highest_weight_tuple

from recording_oracle import partitions_up_to

EXOTIC = (((3,), 3), ((3,), 4), ((2, 2), 4), ((3, 1), 4), ((1,), 3),
          ((2, 1), 3), ((1, 1), 4), ((2,), 4), ((), 3), ((), 4),
          ((1, 1, 1), 2), ((2, 1, 1), 4))  # the last two: rows below row m


def test_every_small_plan_matches_weyl_dimension():
    checked = 0
    for m, n in [(3, 0), (2, 1)]:
        alphabet = make_alphabet("classical", m, n)
        for ell in (1, 2, 3, 4):
            for lam in partitions_up_to(6, 6):
                lam1 = lam[0] if lam else 0
                lam2 = lam[1] if len(lam) > 1 else 0
                if ell - lam1 - lam2 < 0 or len(lam) > m + n:
                    continue
                dim = weyl_dim_D(ell, lam, m + n)
                if dim > 400:
                    continue
                plan = shape_plan(lam, ell, alphabet)
                assert len(enumerate_tableaux(plan, alphabet)) == dim, (lam, ell)
                checked += 1
    assert checked > 40


def test_exotic_classical_plans_full_gauntlet():
    for m, n in [(3, 0), (2, 1), (2, 2)]:
        alphabet = make_alphabet("classical", m, n)
        for lam, ell in EXOTIC:
            if len(lam) > m + n or weyl_dim_D(ell, lam, m + n) > 500:
                continue
            plan = shape_plan(lam, ell, alphabet)
            graph = explore(plan, alphabet, "classical")
            assert len(graph.vertices) == weyl_dim_D(ell, lam, m + n)
            assert graph.components == 1 and len(graph.sources) == 1
            assert graph.weights[graph.sources[0]] == plan_weight(alphabet, plan)
            assert not check_axioms(graph)


def test_exotic_super_plans_closed_and_connected(sup22):
    # fake raising-frozen elements appear on several of these plans; the
    # genuine highest weight element is unique every time
    for lam, ell in [((3,), 3), ((2, 2), 4), ((2, 1), 3), ((), 3),
                     ((1, 1, 1), 2)]:
        plan = shape_plan(lam, ell, sup22)
        graph = explore(plan, sup22, "super", max_boxes=8)
        H = highest_weight_tuple(plan, sup22, "super")
        hid = graph.index()[H]
        genuine = [s for s in graph.sources
                   if is_genuine_highest(sup22, "super", graph.vertices[s])]
        assert graph.components == 1
        assert genuine == [hid]
        assert graph.weights[hid] == plan_weight(sup22, plan)
        assert not check_axioms(graph)
