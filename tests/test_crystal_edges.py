"""Every edge of explored crystal graphs against rules written here, and the
work ``explore`` does per vertex.

The lower tensor rule below acts one operator at a time and finds its factor
by bracket counting, not by reducing a sign sequence: in
b_1 (x) ... (x) b_N, where every factor has (eps, phi) in
{(1, 0), (0, 1), (0, 0)}, a factor with phi = 1 is matched by the first
later factor at which the eps count since it exceeds the phi count, and
lowering acts on the leftmost unmatched one; raising acts on the rightmost
factor with eps = 1 that no earlier phi = 1 factor is matched with.  The
classical family is this rule on the letters of the matrix columns, read
first column to last and each top to bottom, and on whole columns for the
spin colour.  The super family's letter colours come from the word-level
oracle of ``bkk_oracle``.  Only the vertices, their matrix columns and the
colour names are read from ``ospd``.
"""

import pytest

from ospd import crystal, make_alphabet, shape_plan
from ospd.alphabet import simple_root_indices
from ospd.crystal import explore
from ospd.osptab import tuple_to_matrix

from bkk_oracle import rank_columns, reading_word, word_op


def _lower_rule(stats, op):
    """Index of the factor that raising ('e') or lowering ('f') acts on
    under the lower tensor rule, or None; ``stats`` lists (eps, phi) per
    factor in tensor order."""
    n = len(stats)
    if op == "f":
        for k in range(n):
            if stats[k][1] and all(
                    sum(e - p for e, p in stats[k + 1:j + 1]) <= 0
                    for j in range(k + 1, n)):
                return k
        return None
    for k in range(n - 1, -1, -1):
        if stats[k][0] and all(
                sum(p - e for e, p in stats[i:k]) <= 0 for i in range(k)):
            return k
    return None


def _spin_stats(col):
    if len(col) >= 2 and col[:2] == (0, 1):
        return (1, 0)
    if not col or col[0] >= 2:
        return (0, 1)
    return (0, 0)


def spin_image(cols, op):
    """The spin colour on matrix columns of ranks: raising removes the
    domino (0, 1) from the top of a column, lowering adds it."""
    k = _lower_rule([_spin_stats(c) for c in cols], op)
    if k is None:
        return None
    col = cols[k][2:] if op == "e" else (0, 1) + cols[k]
    return cols[:k] + (col,) + cols[k + 1:]


def classical_image(t, cols, op):
    """Colour t on the letters of matrix columns of ranks, read first column
    to last and each top to bottom: raising moves rank t to t - 1."""
    places = [(j, i) for j, col in enumerate(cols) for i in range(len(col))]
    stats = [(1, 0) if cols[j][i] == t else (0, 1) if cols[j][i] == t - 1
             else (0, 0) for j, i in places]
    k = _lower_rule(stats, op)
    if k is None:
        return None
    j, i = places[k]
    col = list(cols[j])
    col[i] += -1 if op == "e" else 1
    return cols[:j] + (tuple(col),) + cols[j + 1:]


def super_image(m, t, cols, op):
    """Colour t of the super family through the word-level oracle."""
    word = word_op(m, t, reading_word(cols), op)
    if word is None:
        return None
    flat, out = word[::-1], []
    for col in cols:
        out.append(tuple(flat[:len(col)]))
        flat = flat[len(col):]
    return tuple(out)


def assert_edges_match(graph, image, bound):
    index = {tuple(rank_columns(tuple_to_matrix(t).cols)): v
             for v, t in enumerate(graph.vertices)}
    edges, truncated = set(), set()
    for v, cols in enumerate(index):
        for color, raised in zip(simple_root_indices(graph.alphabet),
                                 graph.raised):
            up = image(color.chain, cols, "e")
            assert raised[v] == (None if up is None else index[up]), \
                (v, color.name)
            down = image(color.chain, cols, "f")
            if down in index:
                edges.add((v, color.name, index[down]))
            elif down is not None:
                assert sum(map(len, down)) > bound, (v, color.name)
                truncated.add((v, color.name))
    assert sorted(graph.edges) == sorted(edges)
    assert len(graph.edges) == len(edges)
    assert set(graph.truncated) == truncated
    assert len(graph.truncated) == len(truncated)


@pytest.mark.parametrize("m,lam,ell", [(4, (1, 1), 2), (3, (2,), 3)])
def test_classical_edges_match_the_lower_rule(m, lam, ell):
    A = make_alphabet("classical", m, 0)
    graph = explore(shape_plan(lam, ell, A), A, "classical")
    assert_edges_match(graph, lambda t, cols, op: (
        spin_image(cols, op) if t == 0 else classical_image(t, cols, op)),
        None)


def test_super_edges_match_the_word_oracle():
    A = make_alphabet("super", 2, 2)
    graph = explore(shape_plan((1, 1), 2, A), A, "super", 8)
    assert graph.truncated
    assert_edges_match(graph, lambda t, cols, op: (
        spin_image(cols, op) if t == 0 else super_image(A.m, t, cols, op)),
        8)


@pytest.mark.parametrize("kind,m,n,lam,ell,bound", [
    ("classical", 4, 0, (1, 1), 2, None), ("super", 2, 2, (1, 1), 2, 8)])
def test_one_reduction_per_vertex_and_colour(monkeypatch, kind, m, n, lam,
                                             ell, bound):
    # both images of a vertex under a colour come from one sign reduction,
    # and a truncated lowering is rebuilt from its columns without another;
    # the isotropic colour of the super family reduces no sign word
    calls = []
    survivors = crystal.survivors

    def counted(symbols):
        calls.append(1)
        return survivors(symbols)

    monkeypatch.setattr(crystal, "survivors", counted)
    A = make_alphabet(kind, m, n)
    graph = explore(shape_plan(lam, ell, A), A, kind, bound)
    reducing = [c for c in simple_root_indices(A)
                if not (kind == "super" and c.odd)]
    assert bool(graph.truncated) == (bound is not None)
    assert len(calls) == len(graph.vertices) * len(reducing)
