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

The host's speed drifts from run to run, so each phase is scaled as
``bench/run.py`` scales its ``setup_s``: once the phases are timed, the
probe warms and then times the calibration of ``bench/worker.py`` (a fixed
sparse product of ``Fraction`` maps, copied into :data:`PRELUDE`) three
times, and every phase is scaled to the speed at which one calibration
takes ``CALIBRATION_REF_S`` (1.5 ms) by the median of those three.  The
calibration runs only after the phases, so that its ``fractions`` import
does not leave the ``import`` phase.

The interpreters are set up as ``bench/run.py`` sets up its workers:
``PYTHONHASHSEED=0``, ``PYTHONPATH`` the checkout's ``src``, bytecode cached
under one ``PYTHONPYCACHEPREFIX`` (a temporary directory, filled by one
untimed start of each checkout first), and neither
``PYTHONDONTWRITEBYTECODE`` nor ``HOMOLOGY_FIXTURE_DIR`` set.  The parent
starts first in even pairs and the change in odd ones, so that a drift in
host speed favours neither side.  The script prints one JSON object: each
side's median and quartiles of every phase and of their total, and in how
many pairs the change was faster.  Give the same directory twice to check
that the script runs.  ``tools/torus_times.py``, ``tools/cancel_times.py``
and ``tools/scheme_times.py`` run their own probes through the same runner
(:func:`main`), which puts :data:`PRELUDE` before every probe.  They time
their phases with its ``phased``, which runs a full garbage collection,
untimed, before each phase.
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

#: put before every probe: the calibration of ``bench/worker.py``, copied
#: (``fractions`` is imported on its first call, not here), two ways to
#: scale a time by it to the speed at which one calibration takes
#: ``CALIBRATION_REF_S`` (``speed`` for times already taken, ``timed`` for a
#: call timed between two calibrations), ``phased``, which times the calls
#: of each phase after a full garbage collection, and ``request``, one CLI
#: call
PRELUDE = """\
import gc, io, sys, time
CALIBRATION_REF_S = 0.0015
def calibrate():
    from fractions import Fraction
    a = {(i, i % 3): Fraction(i + 1, 2 * i + 3) for i in range(20)}
    b = {(i, i % 2): Fraction(3 - i, i + 5) for i in range(20)}
    out = {}
    for k2, c2 in b.items():
        for k1, c1 in a.items():
            k = (k1[0] + k2[0], k1[1] + k2[1])
            s = out.get(k, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
def calibration():
    start = time.perf_counter()
    calibrate()
    return time.perf_counter() - start
def warm():
    \"\"\"Three untimed calibrations, which specialise its bytecode.\"\"\"
    for _ in range(3):
        calibrate()
def speed():
    \"\"\"The factor that scales a time just taken to the reference speed,
    by the median of three calibrations after :func:`warm`, as
    ``bench/run.py`` scales ``setup_s``.\"\"\"
    warm()
    return CALIBRATION_REF_S / sorted(calibration() for _ in range(3))[1]
def timed(run, *args):
    \"\"\"``run(*args)`` and its time in seconds at the reference speed, by
    the mean of the calibrations timed just before and just after it.\"\"\"
    before = calibration()
    start = time.perf_counter()
    result = run(*args)
    took = time.perf_counter() - start
    return result, took * CALIBRATION_REF_S / ((before + calibration()) / 2)
def phased(phases, run):
    \"\"\"``(times, outputs)``: for each phase of ``phases``, a list of
    arguments, the outputs of ``run`` on each argument and their time in
    milliseconds, each call timed by :func:`timed`.  A full garbage
    collection, untimed, starts every phase, so where the collector's full
    passes fall in a phase does not follow from the phases before it.\"\"\"
    times, outputs = {}, {}
    for phase, calls in phases.items():
        gc.collect()
        spent, outputs[phase] = 0.0, []
        for arg in calls:
            output, took = timed(run, arg)
            outputs[phase].append(output)
            spent += took
        times[phase] = 1000 * spent
    return times, outputs
def request(argv):
    \"\"\"``knothom.cli.main(argv)`` with its stdout captured: the exit code
    and what it printed.\"\"\"
    import knothom.cli
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = knothom.cli.main(argv)
    finally:
        printed, sys.stdout = sys.stdout.getvalue(), stdout
    return code, printed
"""

#: run in each fresh interpreter after :data:`PRELUDE`; prints the phase
#: times and where ``knothom`` was imported from (``io`` and ``sys`` are
#: loaded with the interpreter)
PROBE = """\
start = time.perf_counter()
import knothom
import knothom.cli
imported = time.perf_counter()
from knothom import fixtures
validate, spent = fixtures._validate, []
def timed_validate(fix):
    t = time.perf_counter()
    validate(fix)
    spent.append(time.perf_counter() - t)
fixtures._validate = timed_validate
for name in fixtures.FIXTURE_IDS:
    fixtures.load_fixture(name)
loaded = time.perf_counter()
code, printed = request(["bottom", "--p", "2", "--q", "3", "--count"])
answered = time.perf_counter()
assert code == 0 and printed == "2\\n", (code, printed)
ms = 1000 * speed()
validated = ms * sum(spent)
import json
print(json.dumps({"file": knothom.__file__, "import": ms * (imported - start),
                  "parse": ms * (loaded - imported) - validated, "validate": validated,
                  "request": ms * (answered - loaded),
                  "total": ms * (answered - start)}))
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
    proc = subprocess.run([sys.executable, "-c", PRELUDE + probe], cwd=checkout,
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
