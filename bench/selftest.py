"""Self-test of the benchmark, at a tiny size (about a minute).

    python3 bench/selftest.py

Checks that the generator is a pure function of the seed; runs the cheapest
requests of each workload untraced and traced, and requires every output to
verify, every per-layer metric to be reported and every bypassed layer to
have no calls (and the bypass check to catch one that has); runs the two
requests with their own identities that the per-request cost cap keeps out
of the workloads (the ``4_1:S2`` rank-2 table with its documented gap, and
the ``3_1:3x2`` fixture colour); feeds one corrupted output and one raising
request through the verifier and requires both to count as failures; and
requires ``run.py`` to fail without a result in a directory that holds only
the benchmark.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
import verify  # noqa: E402

TINY = 5
#: raises ArithmeticError inside the program at the seed; a fix that turns
#: it into a usage error still fails the request through its exit code
RAISING = ["scheme", "--p", "2", "--q", "3", "--r", "2", "--ceiling", "3"]
#: over the cost cap, but each carries a check of its own
CAPPED = [
    ["cancel", "--knot", "4_1", "--color", "S2", "--n", "2", "--cutoff", "30",
     "--format", "json"],
    ["homfly", "--knot", "torus:2,3", "--color", "3x2", "--reduced", "--format",
     "json"],
]


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        raise SystemExit(1)


def tiny_batch(name, costs):
    requests, _ = workloads.build_batch(name, 1, 5, costs)
    return sorted(requests, key=lambda a: costs[workloads.request_key(a)])[:TINY]


def main():
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    costs = {k: v["cost_s"] for k, v in reference.items()}
    for name in workloads.POOLS:
        a = workloads.build_batch(name, 7, 5, costs)
        check(a == workloads.build_batch(name, 7, 5, costs),
              f"{name}: same seed, same batch")
        keys = {workloads.request_key(r) for r in workloads.all_requests(name)}
        check(keys <= set(reference), f"{name}: every pool request has a reference")

    layer_names = {n for n, _ in tracer.metric_names()} - {"trace.overhead_s"}
    torus = None
    for name in workloads.POOLS:
        requests = tiny_batch(name, costs)
        for trace in (False, True):
            batch = run.run_batch(requests, trace)
            reasons = verify.verify_batch(requests, batch["results"], reference)
            check(not any(reasons),
                  f"{name} ({'traced' if trace else 'untraced'}): "
                  f"{len(requests)} outputs verify {reasons}")
            if trace:
                check(set(batch["layers"]) == layer_names,
                      f"{name}: traced run reports every per-layer metric")
                failures = run.bypass_failures(name, batch["layers"])
                check(not failures, f"{name}: bypassed layers have 0 calls {failures}")
        if name == "torus-table":
            torus = (requests, batch["results"])
            check(run.bypass_failures("rank-collapse", batch["layers"]),
                  "bypass check catches divide_exact calls")

    batch = run.run_batch(CAPPED, False)
    reasons = verify.verify_batch(CAPPED, batch["results"], reference)
    check(not any(reasons), f"capped requests verify {reasons}")

    requests, results = torus
    corrupted = [dict(r) for r in results]
    text = corrupted[0]["stdout"]
    corrupted[0]["stdout"] = text.replace("1", "2", 1) if "1" in text else text + " "
    reasons = verify.verify_batch(requests, corrupted, reference)
    check(reasons[0] is not None and not any(reasons[1:]),
          f"corrupted output is a failure: {reasons[0]}")

    batch = run.run_batch([RAISING] + requests, False)
    reasons = verify.verify_batch([RAISING] + requests, batch["results"], reference)
    check(reasons[0] is not None and not any(reasons[1:]),
          f"raising request is a failure: {reasons[0]}")
    failed = sum(r is not None for r in reasons)
    check(failed == 1, f"fail_frac {failed}/{len(reasons)}")

    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "torus-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without the program: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
