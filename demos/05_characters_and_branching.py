"""Characters, branching coefficients three ways, and the Pieri bijection.

The weight generating function of a plan expands with non-negative integer
coefficients in Schur functions, and the coefficients do not depend on the
alphabet.  This demo computes them by (1) counting recording tableaux that
satisfy the twelve conditions, (2) peeling Schur functions off a classical
character, and (3) pulling recording tableaux back through inverse RSK, then
transfers the classically computed table to a super alphabet.
"""

from ospd import make_alphabet, shape_plan, verify_pieri
from ospd.character import (CharPoly, contents_up_to, enumerate_recording,
                            k_coefficients, k_from_character,
                            k_set_via_inverse, s_character, super_schur)

lam, ell = (1,), 2
bound = 6

table = k_coefficients(shape_plan(lam, ell), bound)
print("branching coefficients for lambda=%s, ell=%d (sizes <= %d):" %
      (lam, ell, bound))
for mu, k in sorted(table.items()):
    print("  K_%s = %d" % (mu or (0,), k))

big = make_alphabet("classical", 8, 0)
peeled = k_from_character(shape_plan(lam, ell, big), big, bound)
print("\npeeling the classical character gives the same table:",
      peeled == table)

oracle = make_alphabet("classical", 9, 0)
plan = shape_plan(lam, ell)
recording = [q for content in contents_up_to(bound, ell)
             for q in enumerate_recording(content)]
assert len(recording) == 50  # every SSYT in 1..2 with at most 6 boxes
count_inverse = sum(1 for q in recording if k_set_via_inverse(plan, q, oracle))
print("inverse-RSK membership over all %d recording tableaux counts the "
      "same total:" % len(recording), count_inverse == sum(table.values()))

sup = make_alphabet("super", 2, 2)
plan_s = shape_plan(lam, ell, sup)
lhs = s_character(plan_s, sup, bound)
rhs = CharPoly()
for mu, c in table.items():
    if len(mu) > sup.m and mu[sup.m] > sup.n:
        continue
    rhs = rhs + super_schur(mu, sup).shifted(ell).scaled(c)
print("super character equals the transferred expansion:", lhs == rhs)

report = verify_pieri(plan_s, sup, bound)
print("Pieri bijection report: ok=%s on %d elements" %
      (report["ok"], report["n"]))
