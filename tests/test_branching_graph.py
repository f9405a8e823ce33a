"""Branching coefficients read off the crystal graph, classical plans.

Drop the spin colour from a classical crystal graph: what is left is a
crystal for the gl colours, which keep the box count, so it is a disjoint
union of the crystals B(mu), each one K_mu times.  Its sources, counted by
weight, are then the branching coefficients.  The count below reads only
the graph's edges and weights; it shares no code with the conditions
(Q1)-(Q12) that ``k_coefficients`` tests.
"""

from ospd import explore, make_alphabet, shape_plan
from ospd.character import k_coefficients

# (rank, lambda, ell)
PLANS = [(4, (1, 1), 2), (4, (2,), 2), (4, (), 1), (3, (2,), 3), (3, (1,), 3)]


def restricted_sources(graph, spin):
    """The weights of the vertices that no edge of a gl colour enters, as
    partitions, counted."""
    entered = {dst for _, color, dst in graph.edges if color != spin}
    counts = {}
    for vertex, weight in enumerate(graph.weights):
        if vertex in entered:
            continue
        parts = list(weight.counts)
        assert parts == sorted(parts, reverse=True), (vertex, parts)
        while parts and not parts[-1]:
            parts.pop()
        counts[tuple(parts)] = counts.get(tuple(parts), 0) + 1
    return counts


def test_restricted_sources_are_the_branching_coefficients():
    for rank, lam, ell in PLANS:
        A = make_alphabet("classical", rank, 0)
        plan = shape_plan(lam, ell, A)
        graph = explore(plan, A, "classical")
        spin = "b%d" % rank  # the spin colour of D_rank is bm, m = rank
        assert any(color == spin for _, color, _ in graph.edges)
        k_table = k_coefficients(plan, ell * rank)
        # B(mu) has no vertex over rank letters when mu has more rows
        expect = {mu: k for mu, k in k_table.items() if len(mu) <= rank}
        assert restricted_sources(graph, spin) == expect, (rank, lam, ell)
