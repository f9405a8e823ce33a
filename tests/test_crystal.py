import itertools

import pytest

from ospd import crystal, make_alphabet, shape_plan
from ospd.alphabet import (Weight, parse_root_index, simple_root_delta,
                           simple_root_indices)
from ospd.crystal import (CrystalError, _cols_op, _parts_op, check_axioms,
                          e_osp, e_pair_bar, explore, f_osp, f_reachable,
                          graph_to_dot, graph_to_json, is_genuine_highest,
                          plan_weight)
from ospd.osptab import (SpinColumn, classify_pair, enumerate_tableaux,
                         highest_weight_tuple, osp_pairs, part_cols,
                         part_from_cols, slot_of)

from conftest import letters, random_column


def chain_step(A, color, a, op):
    """One step of a letter along the crystal chain of the alphabet: raising
    takes the letter of rank c to rank c - 1 under colour c, lowering takes
    rank c - 1 to rank c; None for every other letter."""
    c = color.chain
    if op == "e":
        return A.letter(c - 1) if a.rank == c else None
    return A.letter(c) if a.rank == c - 1 else None


def content(A, word):
    """The letter counts of a word, indexed by rank."""
    counts = [0] * A.size
    for a in word:
        counts[a.rank] += 1
    return tuple(counts)


def word_op(A, family, color, word, op):
    """The engine on a word given in tensor order, passed as one-letter
    columns: the classical family reads the columns first to last, the
    super family last to first."""
    cols = tuple((a,) for a in word)
    if family == "super":
        cols = cols[::-1]
    out = _cols_op(A, family, color, cols, op)
    if out is None:
        return None
    if family == "super":
        out = out[::-1]
    return tuple(a for (a,) in out)


def test_letter_chain_super():
    A = make_alphabet("super", 3, 2)
    zero = parse_root_index(A, "0")
    assert chain_step(A, zero, A.parse("b1"), "f") == A.parse("1/2")
    assert chain_step(A, zero, A.parse("1/2"), "e") == A.parse("b1")
    b2 = parse_root_index(A, "b2")
    assert chain_step(A, b2, A.parse("b3"), "f") == A.parse("b2")
    assert chain_step(A, b2, A.parse("b3"), "e") is None  # minimum of its string


def test_letter_chain_classical():
    A = make_alphabet("classical", 3, 2)
    assert chain_step(A, parse_root_index(A, "0"), A.parse("b1"), "f") == \
        A.parse("1")
    assert chain_step(A, parse_root_index(A, "1"), A.parse("1"), "f") == \
        A.parse("2")
    assert chain_step(A, parse_root_index(A, "b2"), A.parse("b3"), "e") is None


def test_word_ops_single_letters_reduce_to_letter_ops():
    for kind in ("classical", "super"):
        A = make_alphabet(kind, 3, 2)
        for color in simple_root_indices(A)[1:]:
            for a, op in itertools.product(A.letters, "ef"):
                step = chain_step(A, color, a, op)
                assert word_op(A, kind, color, (a,), op) == \
                    (None if step is None else (step,))


def test_word_ops_inverse_and_weight(rng):
    for kind in ("classical", "super"):
        A = make_alphabet(kind, 3, 2)
        colors = simple_root_indices(A)[1:]
        for _ in range(500):
            w = tuple(A.letter(rng.randrange(A.size))
                      for _ in range(rng.randrange(1, 8)))
            color = rng.choice(colors)
            up = word_op(A, kind, color, w, "e")
            if up is None:
                continue
            assert word_op(A, kind, color, up, "f") == w
            root = simple_root_delta(A, color)
            assert content(A, up) == \
                tuple(x + y for x, y in zip(content(A, w), root.counts))


def test_reading_switch_mirrors():
    # the super family reads one-letter columns last to first, the
    # classical family first to last: 3/2 (x) 1/2 acts, 1/2 (x) 3/2 cancels
    A = make_alphabet("super", 2, 2)
    color = parse_root_index(A, "1/2")
    cols = tuple((a,) for a in letters(A, "3/2", "1/2"))
    assert _cols_op(A, "super", color, cols[::-1], "e") is not None
    assert _cols_op(A, "super", color, cols, "e") is None
    C = make_alphabet("classical", 2, 2)
    color = parse_root_index(C, "1")
    cols = tuple((a,) for a in letters(C, "2", "1"))
    assert _cols_op(C, "classical", color, cols, "e") is not None
    assert _cols_op(C, "classical", color, cols[::-1], "e") is None


def test_spin_domino_ops(cl40):
    A = cl40
    spin = simple_root_indices(A)[0]

    def act(col, op):
        return _parts_op(A, "classical", spin, (SpinColumn(col),), op)

    assert act(letters(A, "b4", "b3"), "e") == (SpinColumn(()),)
    assert act(letters(A, "b4", "b2"), "e") is None
    assert act((), "f") == (SpinColumn(letters(A, "b4", "b3")),)
    assert act(letters(A, "b3", "b2"), "f") is None


def test_pair_ops_shape_movement(cl40):
    # removing the domino from the right column drops b by two and keeps
    # the signature pattern (from the closure lemma's proof display)
    A = cl40
    spin = simple_root_indices(A)[0]
    found = 0
    for t in osp_pairs(A, 1, 8):
        if len(t.right) < 2 or (t.right[0].rank, t.right[1].rank) != (0, 1):
            continue
        if len(t.left) >= len(t.right) - 2:
            continue
        up = e_pair_bar(A, "classical", spin, t)
        if up is None or up.right == t.right:
            continue
        a, b, c = t.shape()
        assert up.shape() == (a, b - 2, c)
        assert up.residue == t.residue
        found += 1
    assert found > 0


def test_pair_ops_inverse(rng):
    for kind in ("classical", "super"):
        A = make_alphabet(kind, 4, 2)
        pool = [t for a in range(4) for t in osp_pairs(A, a, 7)]
        colors = simple_root_indices(A)
        for _ in range(600):
            t = rng.choice(pool)
            color = rng.choice(colors)
            up = e_pair_bar(A, kind, color, t)
            if up is not None:
                assert _parts_op(A, kind, color, (up,), "f") == (t,)


def test_highest_tuple_is_frozen():
    for kind, m, n, bound in [("classical", 4, 0, None), ("classical", 2, 2, None),
                              ("super", 2, 2, 8), ("super", 3, 2, 8)]:
        A = make_alphabet(kind, m, n)
        for lam, ell in [((), 1), ((1,), 1), ((1, 1), 2), ((2,), 2)]:
            plan = shape_plan(lam, ell, A)
            H = highest_weight_tuple(plan, A, kind)
            assert all(e_osp(A, kind, color, H) is None
                       for color in simple_root_indices(A))
            assert Weight(plan.ell, content(A, H.letters())) == \
                plan_weight(A, plan)


def test_explore_spin_crystal_d4(cl40):
    plan = shape_plan((), 1, cl40)
    g = explore(plan, cl40, "classical")
    assert len(g.vertices) == 8 and g.components == 1
    assert len(g.sources) == 1
    assert g.weights[g.sources[0]] == plan_weight(cl40, plan)
    assert not check_axioms(g)


def test_explore_super_truncation(sup22):
    plan = shape_plan((), 1, sup22)
    g = explore(plan, sup22, "super", max_boxes=4)
    assert g.truncated  # lowering out of the bound is recorded
    assert not check_axioms(g)


def test_check_axioms_reports_broken_edges(cl40):
    g = explore(shape_plan((1,), 2, cl40), cl40, "classical")
    assert not check_axioms(g)
    # swap the destinations of the first two edges of one colour
    first = {}
    for i, (_, color, _) in enumerate(g.edges):
        if color in first:
            break
        first[color] = i
    j = first[color]
    (s1, _, d1), (s2, _, d2) = g.edges[j], g.edges[i]
    g.edges[j], g.edges[i] = (s1, color, d2), (s2, color, d1)
    bad = check_axioms(g)
    assert ("inverse", s1, color, d2) in bad
    assert ("inverse", s2, color, d1) in bad
    # restore the edges and give one destination its source's weight
    g.edges[j], g.edges[i] = (s1, color, d1), (s2, color, d2)
    assert not check_axioms(g)
    g.weights[d1] = g.weights[s1]
    bad = check_axioms(g)
    assert ("weight", s1, color, d1) in bad
    assert all(kind == "weight" for kind, *_ in bad)
    # on a fresh graph, forget one recorded raising image: exactly the edges
    # of that colour into that vertex break the inverse axiom
    g = explore(shape_plan((1,), 2, cl40), cl40, "classical")
    k = [c.name for c in simple_root_indices(cl40)].index(color)
    g.raised[k][d1] = None
    bad = check_axioms(g)
    assert bad == [("inverse", s, c, d) for s, c, d in g.edges
                   if (c, d) == (color, d1)]
    assert len(bad) == 1


def test_closure_random_applications(rng, sup22):
    plan = shape_plan((1,), 2, sup22)
    vertices = enumerate_tableaux(plan, sup22, 8)
    index = {t.parts for t in vertices}
    colors = simple_root_indices(sup22)
    for _ in range(2000):
        t = rng.choice(vertices)
        color = rng.choice(colors)
        up = e_osp(sup22, "super", color, t)
        assert up is None or up.parts in index
        down = f_osp(sup22, "super", color, t)
        assert down is None or down.parts in index or down.boxes() > 8


def test_graph_export(cl40):
    g = explore(shape_plan((), 1, cl40), cl40, "classical")
    blob = graph_to_json(g)
    assert len(blob["vertices"]) == 8 and blob["components"] == 1
    dot = graph_to_dot(g)
    assert dot.startswith("digraph") and "doublecircle" in dot


def test_spin_component_is_its_column(rng, sup22):
    # a spin column is the one-column matrix of its letters; every operator
    # acts on it as on that matrix and keeps its sign
    colors = simple_root_indices(sup22)
    for _ in range(500):
        col = None
        while col is None:
            col = random_column(rng, sup22, rng.randrange(0, 7))
        spin = SpinColumn(col)
        assert part_cols(spin) == (col,)
        assert part_from_cols(slot_of(spin), (col,)) == spin
        color = rng.choice(colors)
        for op in "ef":
            moved = _cols_op(sup22, "super", color, (col,), op)
            image = _parts_op(sup22, "super", color, (spin,), op)
            assert image == (None if moved is None
                             else (SpinColumn(moved[0]),))
            assert image is None or image[0].sign == spin.sign


def test_spin_slot_from_one_column(sup22):
    assert part_from_cols(("spin", "+"), ((),)) == SpinColumn(())
    col = letters(sup22, "b2", "b1")
    assert part_from_cols(("spin", "+"), (col,)) == SpinColumn(col)
    with pytest.raises(ValueError):
        part_from_cols(("spin", "+"), ((), ()))


def test_tensor_order_regression_classical(cl40):
    # with dominoes on both columns the raising operator must hit the left
    # column: the pair is identified with (right) tensor (left)
    A = cl40
    t = classify_pair(letters(A, "b4", "b3", "b2", "b1"),
                      letters(A, "b4", "b3"), 2)
    spin = simple_root_indices(A)[0]
    up = e_pair_bar(A, "classical", spin, t)
    assert up.left == letters(A, "b2", "b1") and up.right == t.right


def test_tensor_order_regression_super_isotropic(sup22):
    # the isotropic color descends into the rightmost factor with positive
    # coroot pairing; for the super order that is the left column's top box
    A = sup22
    t = classify_pair(letters(A, "b1", "1/2"), letters(A, "b2", "3/2"), 2)
    zero = parse_root_index(A, "0")
    (down,) = _parts_op(A, "super", zero, (t,), "f")
    assert down.left == letters(A, "1/2", "1/2") and down.right == t.right
    assert e_pair_bar(A, "super", zero, t) is None


def test_genuine_highest_detection(sup22):
    plan = shape_plan((1, 1), 2, sup22)
    g = explore(plan, sup22, "super", max_boxes=8)
    H = highest_weight_tuple(plan, sup22, "super")
    hid = g.index()[H]
    genuine = [s for s in g.sources
               if is_genuine_highest(sup22, "super", g.vertices[s])]
    assert genuine == [hid]
    assert len(g.sources) > 1  # fake highest weight elements exist here
    assert g.components == 1   # yet the graph is connected


def test_f_reachability_matches_raising(cl40):
    g = explore(shape_plan((1,), 2, cl40), cl40, "classical")
    src = g.sources[0]
    assert f_reachable(g, src) == set(range(len(g.vertices)))


def test_string_lengths_match_signature_counts(rng, cl40):
    # for non-spin colors the operational string statistics equal the
    # surviving sign counts of the flattened word
    from ospd.signature import MINUS, PLUS, DOT, signature_of
    from ospd.osptab import tuple_to_matrix
    vertices = enumerate_tableaux(shape_plan((1,), 2, cl40), cl40)
    colors = [c for c in simple_root_indices(cl40) if not c.is_spin]
    for _ in range(200):
        t = rng.choice(vertices)
        color = rng.choice(colors)
        word = [a for col in tuple_to_matrix(t).cols for a in col]
        sig = signature_of([MINUS if a.rank == color.chain else
                            PLUS if a.rank == color.chain - 1 else DOT
                            for a in word])
        assert (string_length(e_osp, cl40, color, t),
                string_length(f_osp, cl40, color, t)) == (sig.p, sig.q)


def string_length(op, A, color, t):
    """How many times in a row the operator applies to t."""
    n = 0
    while (t := op(A, "classical", color, t)) is not None:
        n += 1
    return n


@pytest.mark.parametrize("kind,m,n,lam,ell,bound", [
    ("classical", 4, 0, (1, 1), 2, None), ("classical", 4, 0, (2,), 2, None),
    ("super", 2, 2, (1,), 2, 8), ("super", 3, 2, (2,), 2, 8)])
def test_column_graph_agrees_with_the_public_operators(kind, m, n, lam, ell,
                                                       bound):
    # explore finds images by their matrix columns; the public operators
    # rebuild every image and look it up as a tableau
    A = make_alphabet(kind, m, n)
    g = explore(shape_plan(lam, ell, A), A, kind, bound)
    index = g.index()
    edges, truncated = set(), set()
    for v, t in enumerate(g.vertices):
        for color, raised in zip(simple_root_indices(A), g.raised):
            up = e_osp(A, kind, color, t)
            assert raised[v] == (None if up is None else index[up])
            down = f_osp(A, kind, color, t)
            if down in index:
                edges.add((v, color.name, index[down]))
            elif down is not None:
                assert down.boxes() > bound
                truncated.add((v, color.name))
    assert set(g.edges) == edges and len(g.edges) == len(edges)
    assert set(g.truncated) == truncated
    assert bool(truncated) == (kind == "super")


@pytest.mark.parametrize("kind,bound", [("classical", None), ("super", 8)])
@pytest.mark.parametrize("source", [False, True])
def test_explore_enforces_closure(monkeypatch, kind, bound, source):
    # drop one vertex: the image that led to it must now leave the
    # enumerated set; a dropped source is left only by raising
    A = make_alphabet(kind, 2, 2)
    plan = shape_plan((1, 1), 2, A)
    g = explore(plan, A, kind, bound)
    drop = next(v for v in range(len(g.vertices) - 1, -1, -1)
                if (v in g.sources) == source)
    monkeypatch.setattr(
        crystal, "enumerate_tableaux",
        lambda *args: [t for t in enumerate_tableaux(*args)
                       if t != g.vertices[drop]])
    match = "raising left" if source else "left the enumerated set"
    with pytest.raises(CrystalError, match=match):
        explore(plan, A, kind, bound)
