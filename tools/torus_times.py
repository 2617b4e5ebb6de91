"""Time torus_homfly in fresh interpreters, two checkouts alternating.

    python3 tools/torus_times.py PARENT_DIR CHANGE_DIR [--runs N] > BENCH_torus.json

Each run starts a new interpreter on one checkout's ``src``, imports
``knothom.invariants`` and times reduced ``torus_homfly`` calls, in
milliseconds:

- ``S4-T3,4`` and ``S3-T4,5``: ``torus_homfly([4], 3, 4)`` and
  ``torus_homfly([3], 4, 5)``, the first two calls of the run;
- ``pool``: then every colour ``lam`` with ``|lam| * n <= 8`` on the eight
  torus knots of the benchmark's ``torus-table`` pool, T(2,3), T(2,5),
  T(2,7), T(2,9), T(3,4), T(3,5), T(3,7) and T(4,5), 56 calls.

Every run also hashes its outputs (each invariant's canonical JSON and its
normalization report), and the script fails unless every run of both
checkouts gives the same hash.  The interpreters are set up as
``tools/startup_times.py`` sets up its probes: ``PYTHONHASHSEED=0``,
``PYTHONPATH`` the checkout's ``src`` and bytecode cached under one
temporary ``PYTHONPYCACHEPREFIX``, filled by one untimed run of each
checkout first.  The parent runs first in even pairs and the change in odd
ones, so that a drift in host speed favours neither side.  The script
prints one JSON object: each side's median and quartiles of every phase
and of their total, and in how many pairs the change was faster.  Give the
same directory twice to check that the script runs.
"""

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

from startup_times import SIDES, probe_env, summary

PHASES = ("S4-T3,4", "S3-T4,5", "pool", "total")

#: run in each fresh interpreter; prints the phase times, the output hash
#: and where ``knothom`` was imported from
PROBE = """\
import hashlib, json, time
import knothom
from knothom.invariants import torus_homfly
from knothom.partitions import partitions_of
KNOTS = ((2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (4, 5))
phases = {"S4-T3,4": [((4,), 3, 4)], "S3-T4,5": [((3,), 4, 5)],
          "pool": [(lam, n, m) for n, m in KNOTS for size in range(1, 8 // n + 1)
                   for lam in partitions_of(size)]}
digest, times = hashlib.sha256(), {"file": knothom.__file__}
for phase, cases in phases.items():
    outputs = []
    start = time.perf_counter()
    for lam, n, m in cases:
        outputs.append(torus_homfly(list(lam), n, m))
    times[phase] = 1000 * (time.perf_counter() - start)
    for quotient, report in outputs:
        digest.update(json.dumps([quotient.dumps(), report.sign, report.sl1,
                                  str(report.fractional_offset),
                                  repr(report.monomial_shift)]).encode())
times["total"] = sum(times[phase] for phase in phases)
times["digest"] = digest.hexdigest()
print(json.dumps(times))
"""


def run_once(checkout, pycache):
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=checkout,
                          capture_output=True, text=True, timeout=600,
                          env=probe_env(checkout, pycache))
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: the probe exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    times = json.loads(proc.stdout)
    if checkout / "src" not in pathlib.Path(times.pop("file")).resolve().parents:
        raise RuntimeError(f"{checkout}: knothom was not imported from its src")
    return times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--runs", type=int, default=11,
                    help="runs per checkout (default 11)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="knothom-pycache-") as pycache:
        digests = {run_once(checkouts[side], pycache)["digest"] for side in SIDES}
        for i in range(args.runs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], pycache))
    digests |= {r["digest"] for side in SIDES for r in runs[side]}
    if len(digests) != 1:
        raise RuntimeError(f"the outputs differ: {len(digests)} distinct hashes")
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "runs": args.runs,
        "unit": "ms",
        "outputs_sha256": digests.pop(),
    }
    for side in SIDES:
        report[side] = {phase: summary([r[phase] for r in runs[side]])
                        for phase in PHASES}
    pairs = list(zip(runs["parent"], runs["change"]))
    report["change_faster"] = {
        phase: f"{sum(c[phase] < p[phase] for p, c in pairs)}/{args.runs}"
        for phase in PHASES}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
