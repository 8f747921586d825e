"""factopo benchmark: seeded workloads, one forked child per request.

    python3 bench/run.py --workload ring-ladder --seed 1 --seconds 25 --trace 0

runs one workload (or ``all``) from the root of a source checkout.  It
imports ``factopo`` from ``src/`` once, writes the seeded inputs to a
temporary directory inside the checkout, then runs whole passes over the
request list until the next pass would overrun ``--seconds`` (at least one
pass).  Every answer is checked against ``reference``.  A run is correct
when every request ends ok or, if it failed at the seed commit, ends as it
did there (``workloads.SEED_FAILURES``).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs one traced pass and reports
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object.

Memory and set-up numbers include the interpreter; nothing here reads or
writes outside the checkout.
"""

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, %r); import factopo.cli as c; "
              "c.build_parser()")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="PATH",
                   help="also write the metrics, request counts and "
                        "provenance to PATH as JSON")
    return p.parse_args(argv)


class SetupTimer:
    """Wall time for a fresh interpreter to import the CLI and build its
    parser: what every command pays before any work.

    Samples are spread through the measured passes rather than taken back
    to back, so one slow stretch of the host does not set the median.  Each
    is scaled, like the request times, by a calibration loop timed around
    it, with the parent pinned to one core so the loop runs where the new
    interpreter does.
    """

    def __init__(self):
        self.cmd = [sys.executable, "-c", SETUP_CODE % SRC]
        self.samples = []
        subprocess.run(self.cmd, check=True)  # warm the bytecode cache

    def sample(self):
        from runner import CALIB_REF_S, calibrate
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            calib = calibrate()
            started = time.perf_counter()
            subprocess.run(self.cmd, check=True)
            took = time.perf_counter() - started
            calib = (calib + calibrate()) / 2
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.append(took * CALIB_REF_S / calib)


def quantile(values, share):
    """Mean of the order statistics within 2% of the quantile's rank.

    A window of neighbours keeps a sparse tail from jumping when one request
    moves past another, and unlike a smooth kernel it gives no weight to
    the few multi-second requests far above the 90th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(n - 1, max(0, math.ceil(n * share) - 1))
    half = int(0.02 * n)
    window = ordered[max(0, rank - half):rank + half + 1]
    return sum(window) / len(window)


def run_passes(requests, seconds, tracer=None, setup=None):
    """Whole passes until the next one would overrun ``seconds``, taking
    ``SETUP_RUNS`` set-up samples evenly through each pass."""
    from runner import execute
    passes = []
    stride = max(1, len(requests) // SETUP_RUNS)
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = []
        for i, req in enumerate(requests):
            if setup is not None and i % stride == 0:
                setup.sample()
            results.append(execute(req, tracer))
        passes.append(results)
        took = time.perf_counter() - t0
        if tracer is not None or \
                time.perf_counter() - started + took > seconds:
            return passes


def end_to_end(passes, setup):
    flat = [r for results in passes for r in results]
    times = [r.seconds for r in flat]
    ok = sum(1 for r in flat if r.outcome == "ok")
    return {
        "setup_s": (quantile(setup.samples, 0.5), "s", len(setup.samples)),
        "wall_s": (statistics.median(sum(r.seconds for r in results)
                                     for results in passes), "s",
                   len(passes)),
        "req_p50_s": (quantile(times, 0.5), "s", len(times)),
        "req_p90_s": (quantile(times, 0.9), "s", len(times)),
        "ok_ratio": (ok / len(flat), "ratio", len(flat)),
        "peak_rss_mb": (max(r.rss_mb for r in flat), "MB", len(flat)),
    }


def summarize_failures(passes):
    counts = {}
    for results in passes:
        for r in results:
            if r.outcome != "ok":
                key = (r.outcome, r.label, r.reason)
                counts[key] = counts.get(key, 0) + 1
    return counts


def unexpected(result):
    """A wrong verdict, or a request that is not ok in another way than it
    was at the seed commit."""
    import workloads
    return result.outcome != "ok" and \
        workloads.SEED_FAILURES.get(result.label) != result.outcome


def run_workload(name, seed, seconds, trace):
    import workloads
    with tempfile.TemporaryDirectory(prefix=".bench-inputs-",
                                     dir=ROOT) as inputs:
        rng = random.Random("%s:%d" % (name, seed))
        requests = workloads.WORKLOADS[name](rng, workloads.Files(inputs),
                                             seed)
        if trace:
            import spans as tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes = run_passes(requests, seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = tracing.per_layer(passes[0], tracer.names,
                                         tracing.span_cost())
            if set(metrics) != set(tracing.layer_names()):
                raise RuntimeError("per-layer metrics differ from the list "
                                   "BENCHMARK.json is built from")
        else:
            setup = SetupTimer()
            passes = run_passes(requests, seconds, setup=setup)
            metrics = end_to_end(passes, setup)
    flat = [r for results in passes for r in results]
    raw = [r.raw_seconds for r in flat]
    return {
        "raw": (sum(raw) / len(passes), quantile(raw, 0.5),
                quantile(raw, 0.9)),
        "requests": len(requests),
        "passes": len(passes),
        "attempted": len(flat),
        "failed": sum(1 for r in flat if r.outcome != "ok"),
        "unexpected": sum(1 for r in flat if unexpected(r)),
        "failures": summarize_failures(passes),
        "metrics": metrics,
    }


def print_report(name, seed, out):
    print("workload %s  seed %d  requests %d  passes %d"
          % (name, seed, out["requests"], out["passes"]))
    for metric, (value, unit, samples) in sorted(out["metrics"].items()):
        print("  %-34s %14.6f %-6s (n=%d)" % (metric, value, unit, samples))
    print("  unscaled seconds: wall %.4f  p50 %.6f  p90 %.6f" % out["raw"])
    print("  verdicts: %d attempted, %d not ok, %d not ok unlike the seed "
          "commit" % (out["attempted"], out["failed"], out["unexpected"]))
    for (outcome, label, reason), count in sorted(out["failures"].items()):
        print("    %-9s x%-3d %s: %s" % (outcome, count, label, reason))


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its temporary inputs
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "factopo", "cli.py")):
        print("bench: no factopo sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            print("bench: unknown workload %r; choose from %s or all"
                  % (name, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
            return 2
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace)
        print_report(name, args.seed, results[name])
    if args.record:
        record(args, results)
    metrics = {}
    for name, out in results.items():
        prefix = "" if len(names) == 1 else name + "."
        for metric, (value, unit, _n) in out["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(out["unexpected"] == 0 for out in results.values()),
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": sum(out["failed"] for out in results.values()),
        "metrics": metrics,
    }))
    return 0


def record(args, results):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {
            name: {
                "why": why[name],
                "requests": out["requests"],
                "passes": out["passes"],
                "attempted": out["attempted"],
                "not_ok": out["failed"],
                "failures": sorted("%s x%d %s: %s" % (o, c, l, r)
                                   for (o, l, r), c
                                   in out["failures"].items()),
                "metrics": {m: {"value": v, "unit": u, "samples": n}
                            for m, (v, u, n) in out["metrics"].items()},
            } for name, out in results.items()
        },
    }
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
