"""Benchmark of the iwahori library: one workload per process.

    python3 perfbench/run.py --workload verify-sp4 --seed 1 --seconds 50 --trace 0

Run from any directory; the library is imported from ``src/`` beside this
directory, never from an installed copy.  Load is a closed loop: one caller
in one thread starts each item when the previous one has finished.

--trace 0 measures the end-to-end metrics.  It runs items for an eighth of
--seconds (and at least 100 items), then runs the same items seven more
times, and a repeated item must give the same outputs as its first run.  The
items are cut into blocks of about a second of consecutive items; for each
block the latencies of its fastest pass are kept.  Set-up is probed in fresh
processes spread over the run.

--trace 1 is a separate run that reports per-layer metrics.  It runs the
workload's fixed item prefix once untraced, then again and again, in rounds
alternately untraced and with spans installed, until --seconds have passed.
Every per-layer figure is normalised per traced item.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it record the
run context and the digest.  The exit code is 0 only when every item passed
its checks, repeated items agreed, the digest matches the pinned one (for
the pinned seed) and, with --trace 1, traced and untraced items gave the
same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

# The host's speed for identical work swings by up to 1.8x over periods of
# seconds to minutes.  So the timed window runs the same items in PASSES
# passes and, for each block of about BLOCK_S seconds of consecutive items,
# keeps the pass with the smallest block time.  A slow spell of the host moves
# only some passes of a block.  Costs that recur within a second, such as
# garbage collections, fall in every pass of a block and stay in the figure.
PASSES = 8
BLOCK_S = 1.0
# p90 keeps at least 10 samples above it only from 100 items on, so the
# first pass continues past its share of --seconds until it has that many
MIN_ITEMS = 100

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("decided_rate", "ratio"),
]

PER_LAYER = [
    ("padic.mul.calls", "count/item"),
    ("padic.add.calls", "count/item"),
    ("padic.inv.calls", "count/item"),
    ("padic.ramified_ops.calls", "count/item"),
    ("padic.padic_exp.calls", "count/item"),
    ("padic.padic_exp.self_s", "s/item"),
    ("padic.padic_log.calls", "count/item"),
    ("padic.padic_log.self_s", "s/item"),
    ("groups.mul.calls", "count/item"),
    ("groups.mul.self_s", "s/item"),
    ("groups.pow.total_s", "s/item"),
    ("groups.inv.total_s", "s/item"),
    ("groups.satisfies_group_relation.calls", "count/item"),
    ("groups.satisfies_group_relation.self_s", "s/item"),
    ("groups.iwahori_factorize.calls", "count/item"),
    ("groups.iwahori_factorize.self_s", "s/item"),
    ("groups.iwahori_factorize.check_share", "ratio"),
    ("groups.iwahori_factorize.mul_calls", "count/item"),
    ("groups.in_iwahori.calls", "count/item"),
    ("groups.p_valuation.total_s", "s/item"),
    ("groups.p_valuation_by_conjugation.total_s", "s/item"),
    ("groups.from_coordinates.total_s", "s/item"),
    ("axioms.harness.self_s", "s/item"),
    ("axioms.sample_iwahori.total_s", "s/item"),
    ("series.hida_projector.calls", "count/item"),
    ("series.hida_projector.total_s", "s/item"),
    ("series.hida_projector.max_coeff_bits", "bits"),
    ("series.translate_action.total_s", "s/item"),
    ("series.translate_action.out_terms", "count/item"),
    ("series.torus_action.total_s", "s/item"),
    ("series.slope_split.total_s", "s/item"),
    ("series.gauss_valuation.total_s", "s/item"),
    ("verma.weight_multiplicity.calls", "count/item"),
    ("verma.weight_multiplicity.total_s", "s/item"),
    ("verma.bgg_simple.total_s", "s/item"),
    ("cli.emit.total_s", "s/item"),
    ("cli.report_bytes", "bytes/item"),
    ("trace.overhead_ratio", "ratio"),
]


def import_library():
    """Put ``src/`` first on the path and import the library from there;
    exits 2 when the checkout holds no library."""
    if not os.path.isfile(os.path.join(SRC, "iwahori", "__init__.py")):
        print(f"error: no library under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import iwahori
    if not os.path.abspath(iwahori.__file__).startswith(SRC + os.sep):
        print(f"error: iwahori imported from {iwahori.__file__}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-sp4", "exact-sp4"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, warm up, print 'ready' and exit")
    return parser.parse_args(argv)


class Run:
    """Runs items of one workload and keeps count of attempts, failures and
    valuation comparisons."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.compared = 0
        self.undecided = 0
        self.report_bytes = 0

    def item(self, index):
        """Run one item; returns its latency and the SHA-256 of its outputs,
        or None in place of the hash when the item failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = self.workload.item(index)
        except Exception:  # an item that raises counts as failed, the run goes on
            latency = perf_counter() - start
            if not self.failed:
                print(f"item {index} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return latency, None
        latency = perf_counter() - start
        self.compared += outcome.compared
        self.undecided += outcome.undecided
        self.report_bytes += outcome.report_bytes
        return latency, hashlib.sha256(outcome.digest).digest()

    def items(self, indices) -> str:
        """Run the items in order; returns the digest of their outputs."""
        return digest_of([self.item(index)[1] for index in indices])


def digest_of(hashes) -> str:
    digest = hashlib.sha256()
    for h in hashes:
        digest.update(h or b"failed")
    return digest.hexdigest()


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to the end of its warm-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed


def best_blocks(passes):
    """Item latencies, taking each block of consecutive items from the pass
    where that block took least time."""
    first = passes[0]
    size = max(1, round(BLOCK_S * len(first) / sum(first)))
    best = []
    for lo in range(0, len(first), size):
        best += min((latencies[lo:lo + size] for latencies in passes), key=sum)
    return best


def measure(run, args):
    workload = run.workload
    # set-up is probed before every pass and after the last, so that a slow
    # spell of the host meets only some probes
    setup = [probe_setup(args)]
    first, hashes = [], []
    start = perf_counter()
    while (len(first) < max(MIN_ITEMS, workload.prefix_items)
           or perf_counter() - start < args.seconds / PASSES):
        latency, h = run.item(len(first))
        first.append(latency)
        hashes.append(h)
    passes = [first]
    differ = 0
    for _ in range(1, PASSES):
        setup.append(probe_setup(args))
        latencies = []
        for index, expected in enumerate(hashes):
            latency, h = run.item(index)
            latencies.append(latency)
            differ += h != expected
        passes.append(latencies)
    setup.append(probe_setup(args))
    best = best_blocks(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(best) / sum(best),
        "item_p50_ms": statistics.median(best) * 1e3,
        "item_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (run.attempted - run.failed) / run.attempted,
        "decided_rate": ((run.compared - run.undecided) / run.compared
                         if run.compared else 1.0),
    }
    problems = {}
    if differ:
        problems["repeat"] = f"{differ} repeated items gave other outputs than before"
    return digest_of(hashes[:workload.prefix_items]), metrics, problems, len(best)


def measure_traced(run, args):
    from spans import COUNTERS, FACTORIZE, Tracer

    workload = run.workload
    prefix = range(workload.prefix_items)
    # the first untraced round fills any caches and gives the reference digest
    digest = run.items(prefix)

    tracer = Tracer()
    seconds = {False: [], True: []}  # traced or not -> time of each round
    differ = 0
    while not seconds[True] or sum(seconds[False] + seconds[True]) < args.seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                start = perf_counter()
                round_digest = run.items(prefix)
                seconds[traced].append(perf_counter() - start)
            finally:
                if traced:
                    tracer.uninstall()
            differ += round_digest != digest

    rounds = len(seconds[True])
    n = rounds * workload.prefix_items
    factorize_s = tracer.stat(FACTORIZE, "total_s")
    metrics = {
        "groups.iwahori_factorize.check_share": (
            tracer.counts["groups.iwahori_factorize.check_s"] / factorize_s
            if factorize_s else 0.0),
        "series.hida_projector.max_coeff_bits":
            tracer.counts["series.hida_projector.max_coeff_bits"],
        # every round runs the same prefix, so bytes per item are the same in all
        "cli.report_bytes": run.report_bytes / run.attempted,
        # traced over untraced items per second, each at its best round
        "trace.overhead_ratio": min(seconds[False]) / min(seconds[True]),
    }
    for name, _unit in PER_LAYER:
        if name in COUNTERS:
            metrics[name] = tracer.counts[name] / n
        elif name not in metrics:
            span, _, kind = name.rpartition(".")
            metrics[name] = tracer.stat(span, kind) / n
    problems = {}
    if differ:
        problems["trace"] = f"{differ} rounds gave another digest than the first, {digest}"
    return digest, metrics, problems, n


def run_context(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    context = run_context(args)
    context["loadavg_start"] = os.getloadavg()
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        run = Run(workload)
        measure_fn = measure_traced if args.trace else measure
        digest, metrics, problems, samples = measure_fn(run, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(DIGESTS) as fh:
        pinned = json.load(fh)
    if args.seed == pinned["seed"] and digest != pinned["digests"].get(args.workload):
        problems["digest"] = (f"digest {digest} differs from the pinned "
                              f"{pinned['digests'].get(args.workload)}")
    if run.failed:
        problems["items"] = f"{run.failed} of {run.attempted} items failed"
    for text in problems.values():
        print(f"error: {text}", file=sys.stderr)

    context["loadavg_end"] = os.getloadavg()
    context["item_runs"] = run.attempted
    context["samples"] = samples
    print("context " + json.dumps(context))
    print(f"digest {args.workload} seed={args.seed} prefix={workload.prefix_items} {digest}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
