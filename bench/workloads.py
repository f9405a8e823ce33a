"""The four benchmark workloads and their oracles.

Each workload is built from a freshly imported ``ospd`` package (that is the
set-up the benchmark times) and offers:

* ``job(index)``: one pass, the timed unit of work.  It calls the library
  through module attributes so that a tracer's rebinding is seen;
* ``items(out)``: the work the pass did, for the throughput metric;
* ``digest(out)``: a hash of the pass's results, compared across passes and
  between the traced and the untraced pass;
* ``check(out)``: ``(checks, facts)``, the oracle verdicts as
  ``(name, ok)`` pairs, and counts only the workload can see (the bytes
  the CLI wrote);
* ``traced_items(calls, counts)``: the same work as ``items``, read from the
  tracer; the traced run prints it next to ``items`` and does not gate on it.

The oracles share no code with the computation they check: the Weyl
dimension formula, the hook-content formula, reference values recorded as
constants, and connectivity recomputed from the edge list.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json


def conjugate(shape):
    return tuple(sum(1 for row in shape if row > j)
                 for j in range(shape[0])) if shape else ()


def ssyt_count(shape, n):
    """Semistandard tableaux of the given row shape with entries 1..n, by
    the hook-content formula."""
    num = den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            num *= n + j - i
            leg = sum(1 for below in shape[i + 1:] if below > j)
            den *= row - j + leg
    return num // den


def partitions(total, max_part):
    """All partitions of size at most total with parts at most max_part."""
    out = [()]

    def extend(prefix, remaining, cap):
        for part in range(min(cap, remaining), 0, -1):
            out.append(prefix + (part,))
            extend(prefix + (part,), remaining - part, part)

    extend((), total, max_part)
    return out


def connected(n, edges):
    """Is the graph on range(n) with the given (src, colour, dst) edges
    connected, ignoring direction?"""
    adj = [[] for _ in range(n)]
    for src, _, dst in edges:
        adj[src].append(dst)
        adj[dst].append(src)
    seen = {0} if n else set()
    stack = list(seen)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def sha256(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def run_cli(cli, argv):
    """``cli.main(argv)`` with stdout captured in memory and stderr
    discarded; returns the exit code and the stdout text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Crystal:
    """explore and check_axioms on a classical and a super plan."""

    name = "crystal"
    seeded = False

    def __init__(self, ospd, seed):
        self.ospd = ospd
        make, plan = ospd.alphabet.make_alphabet, ospd.osptab.shape_plan
        d5, s22 = make("classical", 5, 0), make("super", 2, 2)
        # (alphabet, plan, family, box bound)
        self.plans = ((d5, plan((2, 2), 4, d5), "classical", None),
                      (s22, plan((1, 1), 2, s22), "super", 12))

    def job(self, index):
        crystal = self.ospd.crystal
        out = []
        for alphabet, plan, family, bound in self.plans:
            graph = crystal.explore(plan, alphabet, family, bound)
            out.append((graph, crystal.check_axioms(graph)))
        return out

    def items(self, out):
        return sum(len(graph.vertices) for graph, _ in out)

    def traced_items(self, calls, counts):
        return counts["crystal.graph.vertices"]

    def digest(self, out):
        return sha256(*[(len(g.vertices), g.edges, g.truncated, g.sources,
                         bad) for g, bad in out])

    def check(self, out):
        crystal, character = self.ospd.crystal, self.ospd.character
        checks = []
        for (alphabet, plan, family, _), (graph, bad) in zip(self.plans, out):
            tag = "%s-%s-%d" % (family, plan.lam, plan.ell)
            n = len(graph.vertices)
            if family == "classical":
                checks.append(("weyl-dim " + tag, n == character.weyl_dim_D(
                    plan.ell, plan.lam, alphabet.size)))
            checks.append(("one-component " + tag,
                           graph.components == 1 and connected(n, graph.edges)))
            checks.append(("axioms " + tag, not bad))
            genuine = [s for s in graph.sources if crystal.is_genuine_highest(
                alphabet, family, graph.vertices[s])]
            checks.append(("genuine-source " + tag, len(genuine) == 1 and
                           graph.weights[genuine[0]] ==
                           crystal.plan_weight(alphabet, plan)))
        return checks, {}


# Reference values for the ``character`` workload, computed once at the
# commit that introduced the benchmark from calls the timed pass does not
# make, and kept as constants so that no reference computation runs (or
# holds memory) in the measured process:
#
# * K_TABLE: ``character.k_coefficients(shape_plan((2,), 3), 8)``, the
#   branching table of the alphabet-free plan;
# * CLI_STREAM_SHA256 and CLI_LINES: the SHA-256 and line count of the
#   ``json.dumps(tuple_to_json(t), sort_keys=True)`` lines, one per tableau
#   of ``enumerate_tableaux`` on classical D5 (2,2), ell=4 (1,049,678 bytes);
# * TABLEAUX_8_BOXES: tableaux of (2,), ell=3 over classical 8|0 with at
#   most 8 boxes, the sum of K_mu * #SSYT(mu, 8 letters) over K_TABLE.
K_TABLE = {
    (2,): 1, (2, 1, 1): 1, (2, 1, 1, 1, 1): 1, (2, 1, 1, 1, 1, 1, 1): 1,
    (2, 2, 2): 1, (2, 2, 2, 1, 1): 1, (3, 1): 1, (3, 1, 1, 1): 1,
    (3, 1, 1, 1, 1, 1): 1, (3, 2, 1): 1, (3, 2, 1, 1, 1): 1, (3, 2, 2, 1): 1,
    (3, 3, 2): 1,
}
CLI_STREAM_SHA256 = \
    "24a730cd46ac7ecc79937a280d79817d8c0cbe7790004203bea508d62d92ff71"
CLI_LINES = 4125
TABLEAUX_8_BOXES = 51732


class Character:
    """k_from_character over 8|0, and ``ospd enumerate`` on D5."""

    name = "character"
    seeded = False
    ARGV = ["enumerate", "--family", "classical", "-m", "5", "-n", "0",
            "--lambda", "2,2", "--ell", "4"]
    MAX_BOXES = 8

    def __init__(self, ospd, seed):
        self.ospd = ospd
        self.alphabet = ospd.alphabet.make_alphabet("classical", 8, 0)
        self.plan = ospd.osptab.shape_plan((2,), 3, self.alphabet)

    def job(self, index):
        k = self.ospd.character.k_from_character(self.plan, self.alphabet,
                                                 self.MAX_BOXES)
        code, stream = run_cli(self.ospd.cli, self.ARGV)
        return k, code, stream

    def items(self, out):
        return TABLEAUX_8_BOXES + CLI_LINES

    def traced_items(self, calls, counts):
        return counts["osptab.enumerate.tableaux"]

    def digest(self, out):
        k, code, stream = out
        return sha256(sorted(k.items()), code, stream.encode())

    def check(self, out):
        k, code, stream = out
        data = stream.encode()
        return ([("k-from-character", k == K_TABLE),
                 ("cli-exit", code == 0),
                 ("cli-lines", data.count(b"\n") == CLI_LINES),
                 ("cli-stream",
                  hashlib.sha256(data).hexdigest() == CLI_STREAM_SHA256)],
                {"cli.bytes_out": len(data)})


class Branching:
    """verify_pieri on classical D4 (2,2), ell=4."""

    name = "branching"
    seeded = False

    def __init__(self, ospd, seed):
        self.ospd = ospd
        self.alphabet = ospd.alphabet.make_alphabet("classical", 4, 0)
        self.plan = ospd.osptab.shape_plan((2, 2), 4, self.alphabet)

    def job(self, index):
        return self.ospd.character.verify_pieri(self.plan, self.alphabet)

    def items(self, out):
        # every recording tableau of |mu| <= ell * rank tested by
        # k_coefficients, plus one Q per tableau of the plan
        ell, rank = self.plan.ell, self.alphabet.size
        return out["n"] + sum(ssyt_count(conjugate(mu), ell)
                              for mu in partitions(ell * rank, ell))

    def traced_items(self, calls, counts):
        return calls.get("in_k_set", 0)

    def digest(self, out):
        return sha256(json.dumps(out, sort_keys=True))

    def check(self, out):
        dim = self.ospd.character.weyl_dim_D(self.plan.ell, self.plan.lam,
                                             self.alphabet.size)
        return [("pieri-ok", out["ok"] is True),
                ("pieri-count", out["n"] == dim)], {}


class Verify:
    """``ospd verify --seed S`` in-process; pass i of a run with seed S uses
    the verify seed 1000 * S + i."""

    name = "verify"
    seeded = True

    def __init__(self, ospd, seed):
        self.ospd = ospd
        self.seed = seed

    def job(self, index):
        seed = 1000 * self.seed + index
        code, stream = run_cli(self.ospd.cli, ["verify", "--seed", str(seed)])
        return seed, code, stream

    def items(self, out):
        report = json.loads(out[2])
        lemma = [c for c in report["checks"]
                 if c["name"] == "split-lemma-suites"][0]["detail"]
        return sum(sum(kind.values()) for kind in lemma.values())

    def traced_items(self, calls, counts):
        return counts["lemma_instances"]

    def digest(self, out):
        return sha256(out[0], out[1], out[2].encode())

    def check(self, out):
        seed, code, stream = out
        report = json.loads(stream)
        checks = [("verify-exit", code == 0),
                  ("verify-seed", report["seed"] == seed)]
        checks += [("verify " + c["name"], c["ok"] is True)
                   for c in report["checks"]]
        return checks, {"cli.bytes_out": len(stream.encode())}


WORKLOADS = {w.name: w for w in (Crystal, Character, Branching, Verify)}
