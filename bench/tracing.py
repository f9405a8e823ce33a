"""Per-layer spans and counts, recorded from outside the library.

A :class:`Tracer` rebinds the public functions of each layer to timing
wrappers in every ``ospd`` module whose namespace holds them, so calls made
through ``from .osptab import is_admissible`` are caught as well as calls
through the defining module.  Imports inside a function body read the
defining module when they run, so they are caught too.  Every call becomes
one span (function, start, end, enclosing span, and a run id that is 0
for the one traced pass a run makes) kept in flat arrays in memory; leaving
the ``with`` block restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (layer, defining module, public functions), in the order data flows
# through the library: sign reduction feeds membership and splits, which
# feed admissibility, enumeration, the operators and graphs, and the
# character and branching layers; the lemma suites and the CLI sit on top.
LAYERS = (
    ("signature", "ospd.signature",
     ("survivors", "sigma_pair", "gl_e_matrix", "gl_f_matrix",
      "sigma_tableau", "gl_e_tableau", "gl_f_tableau")),
    ("osptab.member", "ospd.osptab", ("classify_pair", "make_bar_pair")),
    ("osptab.split", "ospd.osptab", ("lr_split", "star_split")),
    ("osptab.admissible", "ospd.osptab", ("is_admissible",)),
    ("osptab.enumerate", "ospd.osptab",
     ("enumerate_tableaux", "osp_pairs", "spin_columns")),
    ("crystal.op", "ospd.crystal", ("e_osp", "f_osp")),
    ("crystal.graph", "ospd.crystal", ("explore", "check_axioms")),
    ("tableau.rsk", "ospd.tableau", ("rsk", "inverse_rsk")),
    ("character.char", "ospd.character",
     ("s_character", "super_schur", "k_from_character")),
    ("character.kset", "ospd.character",
     ("k_coefficients", "in_k_set", "enumerate_recording")),
    ("character.pieri", "ospd.character", ("verify_pieri",)),
    ("lemmas", "ospd.lemmas",
     ("run_split_lemma_suite", "run_admissibility_suite")),
    ("cli", "ospd.cli", ("main",)),
)

FUNCTIONS = tuple((layer, module, name)
                  for layer, module, names in LAYERS for name in names)

# Counts taken from return values at the span boundary.  A call that raises
# reaches none of these, which is how a rejected member is told apart.
_OBSERVERS = {
    "is_admissible": lambda r: {"admissible_true": 1} if r else {},
    "e_osp": lambda r: {"op_defined": 1} if r is not None else {},
    "f_osp": lambda r: {"op_defined": 1} if r is not None else {},
    "in_k_set": lambda r: {"kset_true": 1} if r else {},
    "explore": lambda r: {"crystal.graph.vertices": len(r.vertices),
                          "crystal.graph.edges": len(r.edges),
                          "crystal.graph.truncated": len(r.truncated)},
    "s_character": lambda r: {"character.char.terms": len(r.terms)},
    "super_schur": lambda r: {"character.char.terms": len(r.terms)},
    "run_split_lemma_suite": lambda r: {"lemma_instances": sum(r["counts"].values()),
                                        "lemma_attempts": r["attempts"]},
    "run_admissibility_suite": lambda r: {"lemma_instances": sum(r["counts"].values()),
                                          "lemma_attempts": r["attempts"]},
}

# Functions whose results are counted item by item, under these keys.
_SIZES = {"osp_pairs": "members_out",
          "enumerate_tableaux": "osptab.enumerate.tableaux"}

# Per-layer counts reported as they are.
COUNTS = ("osptab.enumerate.tableaux", "crystal.graph.vertices",
          "crystal.graph.edges", "crystal.graph.truncated",
          "character.char.terms")


def _ospd_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ospd" or name.startswith("ospd."))]


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    Spans are listed in the order they started, so a parent precedes its
    children and siblings come in start order; ``parents[i]`` is the index
    of the enclosing span, or -1 for a root.
    """
    covered = [0.0] * len(starts)
    reach = list(starts)    # how far into each span its children reach
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [e - s - c for s, e, c in zip(starts, ends, covered)]


def counted(result, counts, key):
    """Add the number of items in ``result`` to ``counts[key]`` without
    assuming it is a list: a sized result is counted at once; any other
    iterable is handed on as an iterator that counts the items its consumer
    takes."""
    if hasattr(result, "__len__"):
        counts[key] += len(result)
        return result

    def counting():
        for item in result:
            counts[key] += 1
            yield item

    return counting()


def ratio(num, den):
    """num/den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    """Context manager that wraps every function in :data:`FUNCTIONS`."""

    def __init__(self):
        self.fids = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = Counter()
        self.graphs = []        # every graph explore returned
        self._stack = [-1]
        self._bindings = []     # (module, attribute, original function)
        self._originals = {}    # id -> original function
        for module in {module for _, module, _ in FUNCTIONS}:
            importlib.import_module(module)

    # -- wrapping ---------------------------------------------------------

    def __enter__(self):
        modules = _ospd_modules()
        try:
            for fid, (_, module, name) in enumerate(FUNCTIONS):
                original = getattr(sys.modules[module], name)
                wrapper = self._wrap(fid, original, _OBSERVERS.get(name),
                                     _SIZES.get(name), keep=name == "explore")
                self._originals[id(original)] = original
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._bindings.append((mod, attr, original))
            stale = self.unwrapped_references()
            if stale:
                raise RuntimeError("unwrapped references to traced "
                                   "functions: " + ", ".join(stale))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        return False

    def not_restored(self):
        """``module.attribute`` names that no longer hold the function they
        held before wrapping."""
        return ["%s.%s" % (mod.__name__, attr)
                for mod, attr, original in self._bindings
                if getattr(mod, attr) is not original]

    def unwrapped_references(self):
        """``module.attribute`` names through which an ``ospd`` module still
        reaches a traced function without its wrapper."""
        stale = []
        for mod in _ospd_modules():
            for attr, value in vars(mod).items():
                if self._originals.get(id(value)) is value:
                    stale.append("%s.%s" % (mod.__name__, attr))
        return stale

    def _wrap(self, fid, fn, observe, size_key, keep):
        fids, parents, runs = self.fids, self.parents, self.runs
        starts, ends, stack = self.starts, self.ends, self._stack
        counts, clock, tracer = self.counts, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            runs.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                counts.update(observe(result))
            if size_key is not None:
                result = counted(result, counts, size_key)
            if keep:
                tracer.graphs.append(result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def function_calls(self):
        """Calls per traced function name."""
        calls = Counter(self.fids)
        return {FUNCTIONS[fid][2]: n for fid, n in calls.items()}

    def metrics(self):
        """Per-layer calls, self time, waste ratios and counts."""
        layer_of = [layer for layer, _, _ in FUNCTIONS]
        calls = Counter()
        busy = Counter()
        for fid, own in zip(self.fids, self_times(self.starts, self.ends,
                                                  self.parents)):
            calls[layer_of[fid]] += 1
            busy[layer_of[fid]] += own
        out = {}
        for layer, _, _ in LAYERS:
            out[layer + ".calls"] = calls[layer]
            out[layer + ".self_s"] = busy[layer]

        members = {fid for fid, (layer, _, _) in enumerate(FUNCTIONS)
                   if layer == "osptab.member"}
        osp_pairs = FUNCTIONS.index(("osptab.enumerate", "ospd.osptab",
                                     "osp_pairs"))
        fids = self.fids
        candidates = sum(1 for fid, p in zip(fids, self.parents)
                         if fid in members and p >= 0 and fids[p] == osp_pairs)
        fn_calls = self.function_calls()
        c = self.counts
        out["osptab.member.accept_ratio"] = ratio(c["members_out"], candidates)
        out["osptab.admissible.accept_ratio"] = ratio(
            c["admissible_true"], fn_calls.get("is_admissible", 0))
        out["crystal.op.defined_ratio"] = ratio(
            c["op_defined"], fn_calls.get("e_osp", 0) + fn_calls.get("f_osp", 0))
        out["character.kset.accept_ratio"] = ratio(
            c["kset_true"], fn_calls.get("in_k_set", 0))
        out["lemmas.use_ratio"] = ratio(c["lemma_instances"],
                                        c["lemma_attempts"])
        for key in COUNTS:
            out[key] = c[key]
        out["crystal.graph.fake_sources"] = self.fake_sources()
        return out

    def fake_sources(self):
        """Sources of the explored graphs that are raising-frozen but not
        the genuine highest weight element; call after the block ends, so
        the check itself leaves no spans."""
        crystal = sys.modules["ospd.crystal"]
        return sum(1 for g in self.graphs for s in g.sources
                   if not crystal.is_genuine_highest(g.alphabet, g.family,
                                                      g.vertices[s]))

    def write(self, path, header):
        """Write the spans: one JSON header line, then the raw arrays in the
        order the header lists them, in the machine's byte order."""
        arrays = (("fid", self.fids), ("parent", self.parents),
                  ("run", self.runs), ("start", self.starts),
                  ("end", self.ends))
        head = dict(header, spans=len(self.starts), byteorder=sys.byteorder,
                    functions=[list(f) for f in FUNCTIONS],
                    arrays=[[name, arr.typecode, arr.itemsize]
                            for name, arr in arrays])
        with open(path, "wb") as fh:
            fh.write(json.dumps(head, sort_keys=True).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)
