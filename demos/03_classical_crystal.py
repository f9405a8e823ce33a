"""A full classical crystal graph, checked against the Weyl dimension.

Enumerates the rank-4 set for the plan lambda=(1,1), ell=2, builds the
colored graph, confirms the closure/axioms/connectedness package, and writes
a DOT file next to this script.
"""

import os

from ospd import make_alphabet, shape_plan, explore, weyl_dim_D, check_axioms
from ospd.alphabet import simple_root_indices
from ospd.crystal import e_osp, graph_to_dot, plan_weight

A = make_alphabet("classical", 4, 0)
plan = shape_plan((1, 1), 2, A)
graph = explore(plan, A, "classical")

print("plan lambda=(1,1), ell=2 over", A)
print("vertices:", len(graph.vertices))
print("Weyl dimension oracle:", weyl_dim_D(2, (1, 1), 4))
print("connected components:", graph.components)
print("axiom violations:", len(check_axioms(graph)))

src = graph.sources[0]
print("unique highest weight vertex:", graph.vertices[src].parts)
print("no raising operator acts on it:",
      all(e_osp(A, "classical", color, graph.vertices[src]) is None
          for color in simple_root_indices(A)))
print("its weight matches Lambda(lambda, ell):",
      graph.weights[src] == plan_weight(A, plan))

out = os.path.join(os.path.dirname(__file__), "d4_adjoint_crystal.dot")
with open(out, "w") as fh:
    fh.write(graph_to_dot(graph))
print("DOT file written to", out)
