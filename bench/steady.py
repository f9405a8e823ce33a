"""Run every workload several times and check that the benchmark is steady.

    python3 bench/steady.py [--out steady.json]

Each run is a fresh process started from the command in ``BENCHMARK.json``,
one after another: ten runs per workload, on seeds 1 to 10.  For every
workload the script prints each end-to-end metric's median, quartiles and
spread (the distance between the quartiles as a share of the median) next
to the metric's bound, and the fail fraction (failed checks over checks
attempted).  It then makes two traced runs per workload on seed 1 and
requires every count and count-derived ratio to repeat exactly.

The exit code is 1 when a run fails its checks, when a spread other than
``setup_s``'s exceeds the metric's bound, or when a traced count differs
between runs; otherwise 0.  ``setup_s``'s spread is printed but not gated:
set-up is a few hundredths of a second, so its spread across runs follows
the host's speed drift more than the program.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
TRACED_RUNS = 2


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit("%s seed %d trace %d failed (exit %d)"
                         % (workload, seed, trace, proc.returncode))
    result["run_s"] = time.perf_counter() - start
    return result


def machine():
    """Facts about the host that a reader needs to compare numbers."""
    facts = {"cpus": os.cpu_count(), "python": platform.python_version(),
             "platform": platform.platform(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return facts


def spread(values):
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def exact(metrics):
    """The traced metrics that must repeat exactly: counts and the ratios
    built from counts."""
    return {key: m["value"] for key, m in metrics.items()
            if m["unit"] in ("count", "bytes")
            or (m["unit"] == "ratio" and key != "trace.overhead_ratio")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write a JSON summary")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    summary = {}
    for name in names:
        runs = [run_once(spec, name, seed, 0) for seed in SEEDS]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        took = [r["run_s"] for r in runs]
        print("== %s: %d runs of %.1f s (at most %.1f s), fail_frac %g "
              "(%d of %d checks)" % (name, len(runs), statistics.mean(took),
                                     max(took), failed / attempted, failed,
                                     attempted))
        rows = {}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values = [r["metrics"][key]["value"] for r in runs]
            median, q1, q3, width = spread(values)
            verdict = ("steady" if width <= bound / 3 else
                       "within bound" if width <= bound else "TOO WIDE")
            if key == "setup_s":
                verdict += " (not gated)"
            elif width > bound:
                ok = False
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%"
                  "  bound %4.0f%%  %s" % (key, median, q1, q3, 100 * width,
                                          100 * bound, verdict))
            rows[key] = {"median": median, "q1": q1, "q3": q3,
                         "spread": width, "values": values,
                         "unit": metric["unit"]}
        traced = [run_once(spec, name, SEEDS[0], 1)
                  for _ in range(TRACED_RUNS)]
        counts = [exact(r["metrics"]) for r in traced]
        differ = sorted(key for key in counts[0]
                        if any(c[key] != counts[0][key] for c in counts[1:]))
        if differ:
            ok = False
        print("  traced: %d runs of %s s, counts %s" % (
            len(traced), " ".join("%.1f" % r["run_s"] for r in traced),
            "differ: " + ", ".join(differ) if differ else "identical"))
        summary[name] = {"seeds": list(SEEDS), "attempted": attempted,
                         "failed": failed, "end_to_end": rows,
                         "traced": traced[0]["metrics"]}
    if args.out:
        record = {"date": datetime.date.today().isoformat(),
                  "machine": machine(), "command": spec["command"],
                  "run_seconds": spec["run_seconds"], "workloads": summary}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
