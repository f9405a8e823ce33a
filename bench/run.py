"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload crystal --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--seconds`` is required; the benchmark runs with
``BENCHMARK.json``'s ``run_seconds``.  With ``--trace 0`` the workload is
timed pass after pass for ``--seconds`` seconds (at least three passes) and
the end-to-end metrics are printed.  With ``--trace 1`` half the time goes
to untraced passes and one more pass on the first pass's input runs under
the layer tracer; the per-layer metrics are printed and the spans are
written to ``bench/out/``.  Every pass is checked by the workload's
oracles.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count the oracle checks, and
``metrics`` maps each metric name to its value and unit.  The exit code is
0 when every check passed, 1 when one failed, 2 on a usage error or when
the library source is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
SETUPS_PER_PASS = 3


def _ospd_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "ospd" or name.startswith("ospd.")}


def setup(workload_cls, seed):
    """Import ``ospd`` afresh and build the workload's inputs, timed."""
    for name in _ospd_modules():
        del sys.modules[name]
    start = time.perf_counter()
    ospd = importlib.import_module("ospd")
    importlib.import_module("ospd.cli")
    importlib.import_module("ospd.lemmas")
    workload = workload_cls(ospd, seed)
    return time.perf_counter() - start, workload


def time_setup(workload_cls, seed):
    """Time one more set-up, then put back the modules the running workload
    was built from, so that it never mixes two imports of the package."""
    saved = _ospd_modules()
    try:
        return setup(workload_cls, seed)[0]
    finally:
        for name in _ospd_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def timed_pass(workload, index):
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    out = workload.job(index)
    return time.perf_counter() - wall, time.process_time() - cpu, out


class Checks:
    """Tally of oracle verdicts; prints each failure as it happens."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAILED check: %s" % name, file=sys.stderr)

    def verdicts(self, checks):
        for name, ok in checks:
            self.add(name, ok)


def measure(workload, seconds, checks, vary=True, before_pass=None):
    """Timed passes until ``seconds`` would be exceeded (at least
    MIN_PASSES).  Pass i gets input i, or input 0 when ``vary`` is false.
    Each pass is checked, and passes on the same input must produce the
    same digest.  ``before_pass(i)``, if given, runs untimed before pass
    i."""
    walls, cpus, items, digests = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        if before_pass is not None:
            before_pass(index)
        wall, cpu, out = timed_pass(workload, index if vary else 0)
        walls.append(wall)
        cpus.append(cpu)
        items.append(workload.items(out))
        digests.append(workload.digest(out))
        checks.verdicts(workload.check(out)[0])
        if not (workload.seeded and vary):
            checks.add("same-digest pass %d" % index, digests[-1] == digests[0])
        del out     # free this pass's results before the next pass runs
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return walls, cpus, items, digests


def end_to_end(workload, seed, first_setup, seconds, checks):
    """The end-to-end metrics.  Set-up is timed again before every pass
    but the first, so its samples spread over the run as the passes do.
    Peak RSS is read when the first pass ends, before those set-ups: each
    re-import of the package leaves some memory behind, and counting it
    would tie the figure to the number of passes."""
    setups = [first_setup]
    rss = []

    def before_pass(index):
        if index == 1:
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if index >= 1:
            setups.extend(time_setup(type(workload), seed)
                          for _ in range(SETUPS_PER_PASS))

    walls, cpus, items, _ = measure(workload, seconds, checks,
                                    before_pass=before_pass)
    wall = statistics.median(walls)
    rate = statistics.median(n / w for n, w in zip(items, walls))
    print("%d passes of %d items, %d set-ups; wall_s per pass: %s"
          % (len(walls), items[0], len(setups),
             " ".join("%.3f" % w for w in walls)))
    return {"setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "items_per_s": (rate, "1/s"),
            "peak_rss_mb": (rss[0] / 1024.0, "MB")}


def per_layer(workload, name, seed, seconds, checks):
    """The per-layer metrics: untraced passes on input 0 for half the time,
    then one traced pass on the same input, checked like the others."""
    from bench import tracing

    walls, _, _, digests = measure(workload, seconds / 2.0, checks,
                                   vary=False)
    with tracing.Tracer() as tracer:
        wall, _, out = timed_pass(workload, 0)
    checks.add("tracer restored every binding", not tracer.not_restored())
    verdicts, facts = workload.check(out)
    checks.verdicts(verdicts)
    checks.add("traced digest equals untraced",
               workload.digest(out) == digests[0])
    # The closed-form item count and the count the tracer saw, side by side
    # and not gated on: the traced count follows the library's call
    # structure, which a correct change may alter.
    print("items per pass %d, traced count %d" % (
        workload.items(out),
        workload.traced_items(tracer.function_calls(), tracer.counts)))
    metrics = tracer.metrics()
    metrics["cli.bytes_out"] = facts.get("cli.bytes_out", 0)
    metrics["trace.overhead_ratio"] = wall / statistics.median(walls)

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "spans-%s.bin" % name),
                 {"workload": name, "seed": seed, "wall_s": wall})
    return {key: (value, layer_unit(key)) for key, value in metrics.items()}


def layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "bytes" if key.endswith(".bytes_out") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ospd", "__init__.py")):
        print("error: no ospd source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    first_setup, workload = setup(WORKLOADS[args.workload], args.seed)
    ospd_file = os.path.abspath(sys.modules["ospd"].__file__)
    if not ospd_file.startswith(SRC + os.sep):
        print("error: ospd imported from %s, not %s" % (ospd_file, SRC),
              file=sys.stderr)
        return 2

    checks = Checks()
    if args.trace:
        metrics = per_layer(workload, args.workload, args.seed, args.seconds,
                            checks)
    else:
        metrics = end_to_end(workload, args.seed, first_setup, args.seconds,
                             checks)
    fail_frac = checks.failed / checks.attempted
    for key, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (key, value, unit))
    print("%-36s %14.6g ratio (%d of %d checks)"
          % ("fail_frac", fail_frac, checks.failed, checks.attempted))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {key: {"value": value, "unit": unit}
                                  for key, (value, unit) in metrics.items()}}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
