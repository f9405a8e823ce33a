"""Kashiwara operators and crystal-graph exploration.

Elements are flattened to tensors of atoms and the operators act through the
sign-sequence rule of :mod:`ospd.signature`:

* the classical family identifies a tuple (T_L, ..., T_0) with
  T_0 (x) ... (x) T_L, reads each component by its column word, and applies
  the lower tensor rule for every color;
* the super family identifies the tuple with T_L (x) ... (x) T_0, reads each
  component by its reverse word, and applies the upper rule on barred
  colors, the branching rule on the isotropic color 0, and the lower rule on
  half-integer colors.

For the distinguished spin color the atoms are whole columns, on which
raising removes the top domino (bm, bm-1) and lowering adds it; for every
other color the atoms are letters moving along the crystal chain of the
alphabet.  Everything is computed at the level where sign choices in the
isotropic rule are invisible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alphabet import Weight, simple_root_delta, simple_root_indices
from .osptab import (OspTableauD, RejectError, _Table, content_weigher,
                     enumerate_tableaux, expected_kinds, highest_ssyt_cols,
                     parts_cols, parts_from_columns, plan_to_json, slot_of,
                     tuple_to_json, tuple_to_matrix)
from .signature import MINUS, PLUS, survivors
from .tableau import column_is_valid


class CrystalError(Exception):
    """An operator left the set it is proven to preserve."""


# ---------------------------------------------------------------------------
# column atoms for the spin color

def _spin_sign(col):
    """'-' when the domino (bm, bm-1) sits on top of the column, so that
    raising can remove it; '+' when lowering can add it on top."""
    if len(col) >= 2 and col[0].rank == 0 and col[1].rank == 1:
        return "-"
    if not col or col[0].rank >= 2:
        return "+"
    return "."


# ---------------------------------------------------------------------------
# the tensor engine

def _tensor_letters(family, cols):
    """The (column, row) positions and the ranks of the letters of the matrix
    columns in tensor order: classical reads them as columns top to bottom,
    first column to last, super in the reverse order."""
    positions = [(j, i) for j, col in enumerate(cols) for i in range(len(col))]
    if family == "super":
        positions.reverse()
    return positions, [cols[j][i].rank for j, i in positions]


def _apply_letters(alphabet, family, color, ranks):
    """The tensor positions that raising and lowering move, given the ranks
    of the letters in tensor order; each None where the operator is
    undefined.  Raising moves rank c to c - 1, lowering c - 1 to c."""
    c = color.chain
    if family == "super" and color.odd:
        # isotropic rule: both operators descend into the rightmost factor
        # whose weight pairs with the coroot, and act there or nowhere
        for k in range(len(ranks) - 1, -1, -1):
            if ranks[k] == c:
                return k, None
            if ranks[k] == c - 1:
                return None, k
        return None, None
    # only ranks c - 1 and c carry a sign; every other letter is a dot
    at = [k for k, r in enumerate(ranks) if r == c or r == c - 1]
    if family == "super" and c < alphabet.m:
        at.reverse()  # the upper rule on barred colours
    minus, plus = survivors([MINUS if ranks[k] == c else PLUS for k in at])
    return (at[minus[-1]] if minus else None, at[plus[0]] if plus else None)


def _with_letter(alphabet, cols, position, rank):
    """The columns with the letter at ``position`` replaced by the letter of
    ``rank``, one step along the crystal chain of the alphabet."""
    j, i = position
    col = cols[j][:i] + (alphabet.letter(rank),) + cols[j][i + 1:]
    if not column_is_valid(col):
        raise AssertionError("letter move broke a column")
    return cols[:j] + (col,) + cols[j + 1:]


def _cols_images(alphabet, family, color, cols, letters):
    """The raising and the lowering image of the matrix columns
    m^(1), ..., m^(ell), a tuple, under one colour; each None where the
    operator is undefined.  Both come from one sign reduction, raising at
    its rightmost surviving '-' and lowering at its leftmost surviving '+'.
    ``letters`` is :func:`_tensor_letters` of the columns, which the spin
    colour does not read."""
    up = down = None
    if color.is_spin:
        # classical: lower rule on the matrix order; super: upper rule on the
        # reversed order, which is the same computation
        minus, plus = survivors([_spin_sign(c) for c in cols])
        if minus:
            j = minus[-1]
            up = cols[:j] + (cols[j][2:],) + cols[j + 1:]
        if plus:
            j = plus[0]
            domino = (alphabet.letter(0), alphabet.letter(1))
            down = cols[:j] + (domino + cols[j],) + cols[j + 1:]
        return up, down
    positions, ranks = letters
    e_at, f_at = _apply_letters(alphabet, family, color, ranks)
    if e_at is not None:
        up = _with_letter(alphabet, cols, positions[e_at], color.chain - 1)
    if f_at is not None:
        down = _with_letter(alphabet, cols, positions[f_at], color.chain)
    return up, down


# ---------------------------------------------------------------------------
# operators on matrix-column lists

def _cols_op(alphabet, family, color, cols, op):
    """Act on a tuple of columns given in matrix order m^(1), ..., m^(ell)."""
    letters = None if color.is_spin else _tensor_letters(family, cols)
    return _cols_images(alphabet, family, color, cols, letters)[op == "f"]


# ---------------------------------------------------------------------------
# operators on components and full tableaux

def _rebuild(slots, cols):
    """The components filling ``slots`` with the matrix columns ``cols``;
    raises CrystalError when one leaves its class."""
    try:
        return parts_from_columns(slots, cols)
    except RejectError as exc:
        raise CrystalError("component left its class: %s" % exc) from exc


def _parts_op(alphabet, family, color, parts, op):
    """Act on the components (T_k, ..., T_j) through their matrix columns and
    rebuild the image in their slots; None when the operator is undefined."""
    cols = _cols_op(alphabet, family, color, parts_cols(parts), op)
    return None if cols is None else _rebuild(list(map(slot_of, parts)), cols)


def e_pair_bar(alphabet, family, color, part):
    """Raising operator on a single two-column or spin component."""
    up = _parts_op(alphabet, family, color, (part,), "e")
    return None if up is None else up[0]


def e_osp(alphabet, family, color, tt):
    parts = _parts_op(alphabet, family, color, tt.parts, "e")
    return None if parts is None else OspTableauD(parts, tt.plan)


def f_osp(alphabet, family, color, tt):
    parts = _parts_op(alphabet, family, color, tt.parts, "f")
    return None if parts is None else OspTableauD(parts, tt.plan)


# ---------------------------------------------------------------------------
# weights

def plan_weight(alphabet, plan):
    """The target weight Lambda(lambda, ell) in the alphabet's coordinates."""
    from .tableau import conjugate
    lam = plan.lam
    counts = [0] * alphabet.size
    for j in range(min(len(lam), alphabet.m)):
        counts[j] = lam[j]
    tail = lam[alphabet.m:]
    if alphabet.kind == "classical":
        for j, part in enumerate(tail):
            counts[alphabet.m + j] = part
    else:
        for j, part in enumerate(conjugate(tail)):
            counts[alphabet.m + j] = part
    return Weight(plan.ell, tuple(counts))


def is_genuine_highest(alphabet, family, tt):
    """Is the insertion tableau of the tuple the highest weight tableau of
    its shape?  Raising-frozen elements need not be genuine in the super
    family; the genuine one is unique."""
    from .tableau import rsk, straight_shape
    p_cols, _ = rsk(tuple_to_matrix(tt))
    shape = straight_shape(p_cols)
    return p_cols == highest_ssyt_cols(alphabet, family, shape)


# ---------------------------------------------------------------------------
# graph exploration

@dataclass
class CrystalGraph:
    alphabet: object
    family: str
    plan: object
    vertices: list
    weights: list
    edges: list = field(default_factory=list)       # (src, color name, dst)
    truncated: list = field(default_factory=list)   # (src, color name)
    sources: list = field(default_factory=list)
    components: int = 0
    raised: list = field(default_factory=list)      # [color][src]: dst or None

    def index(self):
        return {t: i for i, t in enumerate(self.vertices)}


def explore(plan, alphabet, family, max_boxes=None):
    """Build the colored graph on the enumerated set, checking closure.

    A plan's vertices fill the same slots, so the engine acts on their
    matrix columns and finds each image by its columns; one sign reduction
    per vertex and colour gives both images.  An image missing
    from the set is rebuilt from its columns once, which raises when a
    component leaves its class.  Raising images must stay inside the set
    and are kept in ``raised``; lowering images may leave it only through
    the box bound of a super run, as truncated edges that are not followed.
    A vertex's weight is its packed content at the plan's level, the sum
    of its components' levels, with one Weight per distinct content.
    """
    vertices = enumerate_tableaux(plan, alphabet, max_boxes)
    graph = CrystalGraph(alphabet, family, plan, vertices, [])
    cols = [parts_cols(t.parts) for t in vertices]
    index = {c: i for i, c in enumerate(cols)}
    colors = simple_root_indices(alphabet)
    graph.raised = [[None] * len(vertices) for _ in colors]
    parent = list(range(len(vertices)))
    slots = expected_kinds(plan)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src in range(len(vertices)):
        letters = _tensor_letters(family, cols[src])
        for color, raised in zip(colors, graph.raised):
            up, down = _cols_images(alphabet, family, color, cols[src], letters)
            if up is not None:
                raised[src] = index.get(up)
                if raised[src] is None:
                    _rebuild(slots, up)
                    raise CrystalError("raising left the enumerated set at "
                                       "vertex %d color %s" % (src, color.name))
            if down is None:
                continue
            dst = index.get(down)
            if dst is None:
                _rebuild(slots, down)
                if max_boxes is None or sum(map(len, down)) <= max_boxes:
                    raise CrystalError("lowering left the enumerated set at "
                                       "vertex %d color %s" % (src, color.name))
                graph.truncated.append((src, color.name))
                continue
            graph.edges.append((src, color.name, dst))
            parent[find(src)] = find(dst)
        if all(raised[src] is None for raised in graph.raised):
            graph.sources.append(src)
    graph.components = len({find(x) for x in range(len(vertices))})
    del cols, index  # freed before the weights are built: a lower peak
    weigh, unpack = content_weigher(plan, alphabet, max_boxes)
    weight = _Table(lambda key: Weight(plan.ell, unpack(key)))
    graph.weights = [weight[weigh(t)] for t in vertices]
    return graph


def check_axioms(graph):
    """Edge-local crystal axioms; returns the list of violations.  Raising
    undoes every edge, read from the raising images ``explore`` recorded,
    and every edge lowers the weight by its simple root."""
    alphabet = graph.alphabet
    colors = {c.name: (simple_root_delta(alphabet, c), raised)
              for c, raised in zip(simple_root_indices(alphabet),
                                   graph.raised)}
    bad = []
    for src, cname, dst in graph.edges:
        root, raised = colors[cname]
        if raised[dst] != src:
            bad.append(("inverse", src, cname, dst))
        want = graph.weights[src].sub(root)
        if graph.weights[dst] != want:
            bad.append(("weight", src, cname, dst))
    return bad


def f_reachable(graph, start):
    """Vertices reachable from ``start`` along lowering edges; by the inverse
    axiom these are exactly the vertices that raise back to ``start``."""
    adj = {}
    for src, _, dst in graph.edges:
        adj.setdefault(src, []).append(dst)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nxt in adj.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# export

def graph_to_json(graph):
    return {
        "family": graph.family,
        "plan": plan_to_json(graph.plan) if graph.vertices else None,
        "vertices": [tuple_to_json(t) for t in graph.vertices],
        "edges": [{"src": s, "color": c, "dst": d} for s, c, d in graph.edges],
        "sources": list(graph.sources),
        "truncated": [{"src": s, "color": c} for s, c in graph.truncated],
        "components": graph.components,
    }


def graph_to_dot(graph):
    """DOT export; highest-weight vertices are double-circled, edges carry
    their color as label."""
    lines = ["digraph crystal {"]
    sources = set(graph.sources)
    for i in range(len(graph.vertices)):
        shape = "doublecircle" if i in sources else "circle"
        lines.append('  v%d [shape=%s label="%d"];' % (i, shape, i))
    for src, color, dst in graph.edges:
        lines.append('  v%d -> v%d [label="%s"];' % (src, dst, color))
    for src, color in graph.truncated:
        lines.append('  t_%s_%d [shape=point label=""];' % (color, src))
        lines.append('  v%d -> t_%s_%d [label="%s" style=dashed];'
                     % (src, color, src, color))
    lines.append("}")
    return "\n".join(lines) + "\n"
