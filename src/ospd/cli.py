"""Command-line front end.

Subcommands: enumerate | graph | char | kcoef | verify | dims.  Exit codes:
0 success, 1 verification failure, 2 usage error.  Streams are deterministic
for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import comb

from . import character, crystal, lemmas, osptab
from .alphabet import make_alphabet
from .osptab import RejectError

USAGE_ERROR = 2

# box bound of the battery's super closure check
SUPER_CLOSURE_BOUND = 8

# most cells kcoef may build, counted as bound times the recording tableaux
# of at most bound boxes: at the cap the slowest plans take 1.5 s (ell=1) and
# 0.7 s (ell=2) on a Xeon core, Python 3.11; D4 (2,2) ell=4 -m 5 (26,546,520
# cells) took 1.2 s, -m 7 13 s; the pinned kcoef streams need 4,452,448
KCOEF_MAX_CELLS = 10 ** 7

# most tableaux a classical enumerate, graph or char may build without
# --max-boxes; the largest in the tests and benchmark is D5 (2,2) ell=4, 4,125
CLASSICAL_MAX_TABLEAUX = 10 ** 5

# most columns of up to --max-boxes letters enumerate, graph or char build;
# spin plan -m 40 --max-boxes 4: 102,091 columns, 3.2 s; -m 30: 31,931, 0.9 s
MAX_COLUMNS = 10 ** 5


def _parse_partition(text):
    text = text.strip()
    if text in ("", "0", "-"):
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise RejectError("cannot parse partition %r" % text) from None
    return parts


def _box_count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative, got %d" % value)
    return value


def _add_plan(p, bounded=True):
    p.add_argument("--family", choices=("classical", "super"),
                   default="classical")
    p.add_argument("-m", type=int, default=2)
    p.add_argument("-n", type=int, default=0)
    p.add_argument("--lambda", dest="lam", default="0",
                   help="partition, e.g. 3,2,1 (0 for empty)")
    p.add_argument("--ell", type=int, default=1)
    if bounded:
        p.add_argument("--max-boxes", type=_box_count, default=None)
    p.add_argument("--output", "-o", default="-")


def _config(args):
    """The plan of a subcommand with --max-boxes, refused when a super run
    lacks the bound or no tableau of the plan has that few boxes."""
    alphabet = make_alphabet(args.family, args.m, args.n)
    plan = osptab.shape_plan(_parse_partition(args.lam), args.ell, alphabet)
    if args.max_boxes is None:
        if args.family == "super":
            raise RejectError("super alphabets require --max-boxes")
    elif args.max_boxes < plan.boxes_lower_bound():
        raise RejectError("the plan needs at least %d boxes; raise --max-boxes"
                          % plan.boxes_lower_bound())
    return alphabet, plan


def _stream_config(args):
    """The plan of enumerate, graph and char, refused also when their result
    would be unbounded."""
    alphabet, plan = _config(args)
    if args.max_boxes is None:
        dim = character.weyl_dim_D(plan.ell, plan.lam, alphabet.size)
        if dim > CLASSICAL_MAX_TABLEAUX:
            raise RejectError("the module has %d tableaux, more than %d; give "
                              "--max-boxes" % (dim, CLASSICAL_MAX_TABLEAUX))
    else:
        cols = osptab.column_count(alphabet, args.max_boxes)
        if cols > MAX_COLUMNS:
            raise RejectError("%d columns have at most %d boxes, more than "
                              "%d; lower --max-boxes"
                              % (cols, args.max_boxes, MAX_COLUMNS))
    return alphabet, plan


def _write(args, text):
    if args.output in ("-", None):
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise RejectError("cannot write %s: %s"
                          % (args.output, exc.strerror)) from None


def cmd_enumerate(args):
    alphabet, plan = _stream_config(args)
    rows = osptab.enumerate_tableaux(plan, alphabet, args.max_boxes)
    _write(args, "".join(json.dumps(osptab.tuple_to_json(t), sort_keys=True)
                         + "\n" for t in rows))
    return 0


def cmd_graph(args):
    alphabet, plan = _stream_config(args)
    graph = crystal.explore(plan, alphabet, args.family, args.max_boxes)
    if args.format == "dot":
        _write(args, crystal.graph_to_dot(graph))
    else:
        _write(args, json.dumps(crystal.graph_to_json(graph), sort_keys=True,
                                indent=1) + "\n")
    return 0


def cmd_char(args):
    alphabet, plan = _stream_config(args)
    poly = character.s_character(plan, alphabet, args.max_boxes)
    _write(args, json.dumps(poly.to_json(alphabet)) + "\n")
    return 0


def _kcoef_cells(bound, ell):
    """Bound times the semistandard tableaux with entries in 1..ell and at
    most bound boxes, summed until it passes KCOEF_MAX_CELLS: by RSK they
    are the symmetric natural ell x ell matrices with k units above the
    diagonal and up to bound - 2k on it."""
    pairs, total = comb(ell, 2), comb(ell + bound, ell)
    for k in range(1, bound // 2 + 1 if pairs else 1):
        if bound * total > KCOEF_MAX_CELLS:
            break
        total += comb(pairs + k - 1, k) * comb(ell + bound - 2 * k, ell)
    return bound * total


def cmd_kcoef(args):
    alphabet, plan = _config(args)
    bound = osptab.box_bound(plan, alphabet, args.max_boxes)
    if _kcoef_cells(bound, plan.ell) > KCOEF_MAX_CELLS:
        raise RejectError("kcoef up to %d boxes may build recording tableaux "
                          "of more than %d cells; lower --max-boxes"
                          % (bound, KCOEF_MAX_CELLS))
    table = character.k_coefficients(plan, bound)
    out = [{"mu": list(mu), "K": k} for mu, k in sorted(table.items())]
    _write(args, json.dumps(out) + "\n")
    return 0


def cmd_dims(args):
    if args.family == "super":
        raise RejectError("dims is the type D Weyl dimension; the super "
                          "family has none")
    alphabet = make_alphabet(args.family, args.m, args.n)
    plan = osptab.shape_plan(_parse_partition(args.lam), args.ell, alphabet)
    dim = character.weyl_dim_D(plan.ell, plan.lam, alphabet.size)
    _write(args, "%d\n" % dim)
    return 0


# ---------------------------------------------------------------------------
# the verification battery

def _check_worked_examples():
    from .signature import sigma_pair
    A = make_alphabet("super", 4, 6)
    L = lambda *names: tuple(A.parse(s) for s in names)
    T = osptab.classify_pair(L("b4", "b1", "1/2", "3/2", "3/2"),
                             L("b3", "b2", "3/2", "5/2"), 3)
    ok = T.residue == 1 and sigma_pair(T.left, T.right) == (2, 1)
    ok &= osptab.lr_split(T) == (L("b4", "1/2", "3/2"),
                                 L("b3", "b2", "b1", "3/2", "3/2", "5/2"))
    ok &= osptab.star_split(T) == (L("b4", "b2", "b1", "1/2", "3/2", "3/2"),
                                   L("b3", "3/2", "5/2"))
    S1 = osptab.classify_pair(L("b1", "5/2", "7/2", "9/2"),
                              L("b2", "b1", "7/2", "9/2"), 2)
    S2 = osptab.classify_pair(L("b3", "b2", "b1", "1/2", "3/2", "5/2", "7/2"),
                              L("b2", "b1", "1/2", "3/2", "7/2", "9/2"), 1)
    ok &= osptab.is_admissible(T, S1) and osptab.is_admissible(T, S2)
    return bool(ok), {}


def _check_classical_crystal(m, lam, ell):
    alphabet = make_alphabet("classical", m, 0)
    plan = osptab.shape_plan(lam, ell, alphabet)
    graph = crystal.explore(plan, alphabet, "classical")
    dim = character.weyl_dim_D(ell, lam, m)
    bad = crystal.check_axioms(graph)
    hw_ok = (len(graph.sources) == 1 and
             graph.weights[graph.sources[0]] == crystal.plan_weight(alphabet, plan))
    ok = (len(graph.vertices) == dim and graph.components == 1
          and hw_ok and not bad)
    return ok, {"vertices": len(graph.vertices), "dim": dim,
                "components": graph.components, "sources": len(graph.sources),
                "axiom_violations": len(bad)}


def _check_super_closure(m, n, lam, ell):
    alphabet = make_alphabet("super", m, n)
    plan = osptab.shape_plan(lam, ell, alphabet)
    # raises on violation
    graph = crystal.explore(plan, alphabet, "super", SUPER_CLOSURE_BOUND)
    bad = crystal.check_axioms(graph)
    H = osptab.highest_weight_tuple(plan, alphabet, "super")
    hid = graph.index()[H]
    genuine = [s for s in graph.sources
               if crystal.is_genuine_highest(alphabet, "super", graph.vertices[s])]
    ok = (graph.components == 1 and not bad and genuine == [hid]
          and graph.weights[hid] == crystal.plan_weight(alphabet, plan))
    return ok, {"vertices": len(graph.vertices), "sources": len(graph.sources),
                "genuine_sources": len(genuine), "components": graph.components,
                "truncated": len(graph.truncated)}


def _check_schur(kind, m, n, lam, ell, bound):
    alphabet = make_alphabet(kind, m, n)
    plan = osptab.shape_plan(lam, ell, alphabet)
    ok = character.schur_expansion_matches(plan, alphabet, bound)
    rep = character.verify_pieri(plan, alphabet, bound)
    return ok and rep["ok"], {"expansion": ok, "pieri": rep["ok"],
                              "elements": rep["n"]}


def _check_lemma_suites(seed):
    detail = {}
    ok = True
    for kind in ("classical", "super"):
        alphabet = make_alphabet(kind, 4, 2)
        pools = lemmas.member_pools(alphabet)
        rep = lemmas.run_split_lemma_suite(alphabet, pools)
        rep2 = lemmas.run_admissibility_suite(alphabet, pools, per_case=100,
                                              seed=seed + 1)
        ok &= rep["ok"] and rep["complete"] and rep2["ok"] and rep2["complete"]
        detail[kind] = {"split": sum(rep["counts"].values()),
                        "admissible": sum(rep2["counts"].values())}
    return ok, detail


def _verify_checks(seed):
    rng = random.Random(seed)
    checks = [("worked-examples", _check_worked_examples)]
    # the last two plans, pair-spin+ and pair-spin-, have two slots, so
    # enumerating them tests admissibility
    for m, lam, ell in [(3, (), 1), (4, (), 1), (3, (1,), 1), (4, (1,), 1),
                        (3, (1, 1), 2), (4, (1, 1), 2), (3, (2,), 2),
                        (4, (2,), 2), (3, (1,), 3), (3, (2,), 3)]:
        checks.append(("classical-crystal-D%d-%s-%d" % (m, lam, ell),
                       lambda m=m, lam=lam, ell=ell:
                       _check_classical_crystal(m, lam, ell)))
    checks.append(("super-closure-2|2-(1,1)-2",
                   lambda: _check_super_closure(2, 2, (1, 1), 2)))
    for kind, m, n, lam, ell, bound in [
            ("classical", 3, 0, (1,), 2, None),
            ("classical", 4, 0, (2,), 2, None),
            ("super", 2, 2, (1, 1), 2, 8)]:
        checks.append(("schur-pieri-%s-%d-%d-%s-%d" % (kind, m, n, lam, ell),
                       lambda k=kind, a=m, b=n, l=lam, e=ell, q=bound:
                       _check_schur(k, a, b, l, e, q)))
    checks.append(("split-lemma-suites",
                   lambda: _check_lemma_suites(rng.randrange(2 ** 30))))
    return checks


def _run_check(name, fn):
    try:
        ok, detail = fn()
    except Exception as exc:  # closure violations raise
        ok, detail = False, {"error": str(exc)}
    return {"name": name, "ok": bool(ok), "detail": detail}


def cmd_verify(args):
    results = [_run_check(name, fn) for name, fn in _verify_checks(args.seed)]
    report = {"seed": args.seed, "ok": all(r["ok"] for r in results),
              "checks": results}
    _write(args, json.dumps(report, sort_keys=True, indent=1) + "\n")
    for r in results:
        sys.stderr.write("%-40s %s\n" % (r["name"], "ok" if r["ok"] else "FAIL"))
    sys.stderr.write("verify: %s\n" % ("ok" if report["ok"] else "FAILED"))
    return 0 if report["ok"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ospd")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream tableaux as JSON lines")
    _add_plan(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("graph", help="export the crystal graph")
    _add_plan(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("char", help="character polynomial")
    _add_plan(p)
    p.set_defaults(fn=cmd_char)

    p = sub.add_parser("kcoef", help="branching coefficients")
    _add_plan(p)
    p.set_defaults(fn=cmd_kcoef)

    p = sub.add_parser("dims", help="type D Weyl dimension")
    _add_plan(p, bounded=False)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # RejectError is one
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
