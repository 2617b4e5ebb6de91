"""Time knothom's start-up in fresh interpreters, two checkouts alternating.

    python3 tools/startup_times.py PARENT_DIR CHANGE_DIR [--runs N]

Each run starts a new interpreter on one checkout's ``src`` and times four
phases of start-up, in milliseconds:

- ``import``: ``import knothom`` and ``import knothom.cli``;
- ``parse``: loading the 12 packaged fixtures (file read, JSON decoding and
  ``LaurentPoly.from_json``) less their validation;
- ``validate``: ``fixtures._validate``, the generator count and the
  categorification identity, timed around each call during those loads;
- ``request``: the interpreter's first request, ``knothom.cli.main(["bottom",
  "--p", "2", "--q", "3", "--count"])`` with its stdout captured, which pays
  what the command line builds on first use.

The interpreters are set up as ``bench/run.py`` sets up its workers:
``PYTHONHASHSEED=0``, ``PYTHONPATH`` the checkout's ``src``, bytecode cached
under one ``PYTHONPYCACHEPREFIX`` (a temporary directory, filled by one
untimed start of each checkout first), and neither
``PYTHONDONTWRITEBYTECODE`` nor ``HOMOLOGY_FIXTURE_DIR`` set.  The parent
starts first in even pairs and the change in odd ones, so that a drift in
host speed favours neither side.  The script prints one JSON object: each
side's median and quartiles of every phase and of their total, and in how
many pairs the change was faster.  Give the same directory twice to check
that the script runs.  ``tools/torus_times.py`` runs its own probe through
the same runner (:func:`main`).
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
PHASES = ("import", "parse", "validate", "request", "total")

#: run in each fresh interpreter; prints the phase times and where
#: ``knothom`` was imported from (``io`` is loaded with the interpreter)
PROBE = """\
import io, sys, time
start = time.perf_counter()
import knothom
import knothom.cli
imported = time.perf_counter()
from knothom import fixtures
validate, spent = fixtures._validate, []
def timed(fix):
    t = time.perf_counter()
    validate(fix)
    spent.append(time.perf_counter() - t)
fixtures._validate = timed
for name in fixtures.FIXTURE_IDS:
    fixtures.load_fixture(name)
loaded = time.perf_counter()
stdout, sys.stdout = sys.stdout, io.StringIO()
code = knothom.cli.main(["bottom", "--p", "2", "--q", "3", "--count"])
answered = time.perf_counter()
printed, sys.stdout = sys.stdout.getvalue(), stdout
assert code == 0 and printed == "2\\n", (code, printed)
import json
ms = 1000 * sum(spent)
print(json.dumps({"file": knothom.__file__, "import": 1000 * (imported - start),
                  "parse": 1000 * (loaded - imported) - ms, "validate": ms,
                  "request": 1000 * (answered - loaded),
                  "total": 1000 * (answered - start)}))
"""


def probe_env(checkout, pycache):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(checkout / "src"),
               PYTHONPYCACHEPREFIX=pycache)
    for name in ("HOMOLOGY_FIXTURE_DIR", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def run_once(checkout, pycache, probe, timeout):
    """Run ``probe`` in a fresh interpreter on ``checkout`` and return the
    JSON object it prints, less its ``file``."""
    proc = subprocess.run([sys.executable, "-c", probe], cwd=checkout,
                          capture_output=True, text=True, timeout=timeout,
                          env=probe_env(checkout, pycache))
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: the probe exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    times = json.loads(proc.stdout)
    if checkout / "src" not in pathlib.Path(times.pop("file")).resolve().parents:
        raise RuntimeError(f"{checkout}: knothom was not imported from its src")
    return times


def summary(values):
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def main(argv=None, doc=__doc__, probe=PROBE, phases=PHASES, runs=21, timeout=120):
    """Time ``probe`` on the two checkouts named in ``argv`` and print the
    report.  A probe prints its ``phases`` in milliseconds and the ``file``
    ``knothom`` was imported from; one that also prints a ``digest`` of its
    outputs must print the same one in every run of both checkouts, and the
    report gives it as ``outputs_sha256``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--runs", type=int, default=runs,
                    help=f"runs per checkout (default {runs})")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    timed = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="knothom-pycache-") as pycache:
        untimed = [run_once(checkouts[side], pycache, probe, timeout) for side in SIDES]
        for i in range(args.runs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                timed[side].append(run_once(checkouts[side], pycache, probe, timeout))
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "runs": args.runs,
        "unit": "ms",
    }
    digests = {r.get("digest") for r in untimed + timed["parent"] + timed["change"]}
    if digests != {None}:
        if len(digests) != 1:
            raise RuntimeError(f"the outputs differ: {len(digests)} distinct hashes")
        report["outputs_sha256"] = digests.pop()
    for side in SIDES:
        report[side] = {phase: summary([r[phase] for r in timed[side]])
                        for phase in phases}
    pairs = list(zip(timed["parent"], timed["change"]))
    report["change_faster"] = {
        phase: f"{sum(c[phase] < p[phase] for p, c in pairs)}/{args.runs}"
        for phase in phases}
    print(json.dumps(report, indent=2))
    return 0


def script(**options):
    """Run :func:`main` with ``options`` as a script: a ``RuntimeError``
    prints one ``error:`` line and exits 1."""
    try:
        sys.exit(main(**options))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    script()
