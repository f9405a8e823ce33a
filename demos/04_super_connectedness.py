"""Bounded super crystals: connectedness and genuine highest weight elements.

Explores the 2|2 set of the plan lambda=(1,1), ell=2 up to eight boxes.  The
graph is connected and contains exactly one genuine highest weight element,
but in a super crystal raising-frozen elements need not be genuine: the
isotropic color can die on an element whose insertion tableau is not the
highest one.  This demo shows both phenomena side by side.
"""

from ospd import make_alphabet, shape_plan, explore
from ospd.alphabet import parse_root_index
from ospd.crystal import f_osp, f_reachable, is_genuine_highest, plan_weight
from ospd.osptab import highest_weight_tuple

A = make_alphabet("super", 2, 2)
plan = shape_plan((1, 1), 2, A)
graph = explore(plan, A, "super", max_boxes=8)
H = highest_weight_tuple(plan, A, "super")
hid = graph.index()[H]

print("plan lambda=(1,1), ell=2 over", A, "bounded at 8 boxes")
print("vertices:", len(graph.vertices))
print("connected components:", graph.components)
print("truncated lowerings at the bound:", len(graph.truncated))
v, name = graph.truncated[0]
down = f_osp(A, "super", parse_root_index(A, name), graph.vertices[v])
print("  e.g. lowering vertex %d at colour %s gives %d boxes"
      % (v, name, down.boxes()))
print("\ndistinguished element:", H.parts)
print("its weight is Lambda(lambda, ell):",
      graph.weights[hid] == plan_weight(A, plan))

print("\nraising-frozen vertices:")
for s in graph.sources:
    genuine = is_genuine_highest(A, "super", graph.vertices[s])
    print("  vertex %3d  genuine=%s  %s" %
          (s, genuine, graph.vertices[s].parts))

reach = f_reachable(graph, hid)
print("\nlowering from the distinguished element reaches %d of %d vertices;"
      % (len(reach), len(graph.vertices)))
print("the remaining ones hang below the non-genuine frozen vertices, and")
print("the whole graph is still one component, as the connectedness theorem")
print("asserts.")
