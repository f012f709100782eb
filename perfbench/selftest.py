"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload briefly and checks that:
  * every metric named in BENCHMARK.json prints with its unit, for every
    workload, untraced and traced;
  * the digest gate fails a run whose pinned digest is wrong;
  * two seeds give different inputs (different digests) but the same
    metric names;
  * per-layer counts repeat exactly across two traced runs of one seed, and
    traced and untraced runs give the same digest;
  * without the library beside it the benchmark exits non-zero and prints
    no result.
Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("verify-sp4", "exact-sp4")
# per-layer metrics that are counts, which must repeat exactly for one seed
COUNT_UNITS = ("count/item", "bits", "bytes/item")

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, cwd=ROOT, script=RUN):
    """Run the benchmark once; returns (exit code, result or None, digest)."""
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    digest = next((line.split()[-1] for line in lines if line.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, digest


def copy_benchmark() -> str:
    """A temporary root that holds BENCHMARK.json and perfbench/ only."""
    root = tempfile.mkdtemp(prefix=".perfbench-copy-", dir=ROOT)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the workloads")
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in WORKLOADS:
        seen = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1), (1, 1)):
            rc, result, digest = bench(workload, seed, trace)
            check(rc == 0 and result is not None and result["correct"]
                  and result["failed"] == 0, f"{workload} seed {seed} trace {trace} passes")
            if result is None:
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == units[trace],
                  f"{workload} trace {trace} prints every metric with its unit")
            seen.setdefault((seed, trace), []).append((digest, result["metrics"]))
        if len(seen) < 3:
            continue
        (d1, m1), (d2, m2) = seen[(1, 0)][0], seen[(2, 0)][0]
        check(d1 != d2 and m1.keys() == m2.keys(),
              f"{workload}: two seeds, different inputs, same metric names")
        (t1, a), (t2, b) = seen[(1, 1)]
        check(t1 == t2 == d1, f"{workload}: traced and untraced digests agree")
        counts = [name for name, unit in units[1].items() if unit in COUNT_UNITS]
        check(all(a[n]["value"] == b[n]["value"] for n in counts),
              f"{workload}: per-layer counts repeat exactly for one seed")

    # a copy of the benchmark beside the library, with a wrong pin
    pinned = copy_benchmark()
    try:
        os.symlink(os.path.join(ROOT, "src"), os.path.join(pinned, "src"))
        with open(os.path.join(pinned, "perfbench", "digests.json"), "w") as fh:
            json.dump({"seed": 1, "digests": {"exact-sp4": "0" * 64}}, fh)
        rc, result, _ = bench("exact-sp4", 1, 0, cwd=pinned,
                              script=os.path.join(pinned, "perfbench", "run.py"))
    finally:
        shutil.rmtree(pinned)
    check(rc != 0 and result is not None and result["correct"] is False,
          "a wrong pinned digest fails the run")

    bare = copy_benchmark()
    try:
        rc, result, _ = bench("exact-sp4", 1, 0, cwd=bare,
                              script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare)
    check(rc != 0 and result is None, "without the library the run fails and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
