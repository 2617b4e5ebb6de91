"""Time one probe in fresh interpreters, two checkouts alternating.

    python3 tools/times.py PROBE PARENT_DIR CHANGE_DIR [--runs N] > BENCH_<probe>.json

``PROBE`` is a key of ``PROBES`` in ``tools/probes.py``, which gives its
phases, its default runs per checkout and its timeout.  The interpreters are
set up as ``bench/run.py`` sets up its workers (:func:`probe_env`); one
untimed start of each checkout fills the shared bytecode cache, and then the
parent starts first in even pairs and the change in odd ones, so that a
drift in host speed favours neither side.  The report, one JSON object,
gives each side's median and quartiles of every phase and of their total,
in how many pairs the change was faster and, for a probe that hashes its
outputs, the ``outputs_sha256`` that every run of both checkouts must give.
Give the same directory twice to check that a probe runs.
"""

import argparse
import json
import os
import pathlib
import platform
import runpy
import statistics
import subprocess
import sys
import tempfile

from probes import PROBES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def pair_order(i):
    """The sides in the order they run in pair ``i``: the parent first in
    even pairs, the change first in odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def quartiles(values):
    """``[q1, median, q3]`` of ``values``; one value is all three."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def arguments(probe):
    """The argument list of ``probe``, read from this checkout's
    ``bench/workloads.py`` in pool order: none for ``startup``; every colour
    with |λ|·n up to ``TORUS_MAX_WEIGHT`` on the ``TORUS_KNOTS`` of
    ``torus-table`` for ``torus``; the requests of ``rank-collapse`` for
    ``cancel``; the ``scheme`` and the ``potential`` requests of
    ``scheme-basis`` for ``scheme``."""
    if probe == "startup":
        return []
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    if probe == "torus":
        partitions_of = workloads["partitions_of"]
        return [[[list(parts), n, m] for n, m in workloads["TORUS_KNOTS"]
                 for size in range(1, workloads["TORUS_MAX_WEIGHT"] // n + 1)
                 for parts in partitions_of(size)]]
    if probe == "cancel":
        return [workloads["all_requests"]("rank-collapse")]
    pool = workloads["all_requests"]("scheme-basis")
    return [[argv for argv in pool if argv[0] == command]
            for command in ("scheme", "potential")]


def probe_env(checkout, pycache):
    """``PYTHONHASHSEED=0``, ``PYTHONPATH`` the checkout's ``src``, bytecode
    cached under ``pycache``, and neither ``PYTHONDONTWRITEBYTECODE`` nor
    ``HOMOLOGY_FIXTURE_DIR`` set."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(checkout / "src"),
               PYTHONPYCACHEPREFIX=pycache)
    for name in ("HOMOLOGY_FIXTURE_DIR", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def run_once(checkout, pycache, probe, stdin):
    """Run ``probe`` on ``stdin`` in a fresh interpreter on ``checkout`` and
    return the JSON object it prints, less its ``file``."""
    _, phases, _, timeout = PROBES[probe]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "probes.py"), probe],
                          cwd=checkout, input=stdin, capture_output=True, text=True,
                          timeout=timeout, env=probe_env(checkout, pycache))
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: the probe exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    times = json.loads(proc.stdout)
    if checkout / "src" not in pathlib.Path(times.pop("file")).resolve().parents:
        raise RuntimeError(f"{checkout}: knothom was not imported from its src")
    if set(times) - {"digest"} != {*phases, "total"}:
        raise RuntimeError(f"{checkout}: the probe timed {sorted(times)}")
    return times


def summary(values):
    q1, median, q3 = quartiles(values)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("probe", choices=PROBES)
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--runs", type=int, help="runs per checkout (default: the probe's)")
    args = ap.parse_args(argv)
    _, phases, runs, _ = PROBES[args.probe]
    runs = runs if args.runs is None else args.runs
    if runs < 1:
        ap.error("--runs must be at least 1")
    phases = (*phases, "total")
    probe_args = arguments(args.probe)
    stdin = json.dumps(probe_args) if probe_args else ""
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    timed = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="knothom-pycache-") as pycache:
        untimed = [run_once(checkouts[side], pycache, args.probe, stdin)
                   for side in SIDES]
        for i in range(runs):
            for side in pair_order(i):
                timed[side].append(run_once(checkouts[side], pycache, args.probe, stdin))
    report = {"python": platform.python_version(), "cpus": os.cpu_count(),
              "runs": runs, "unit": "ms"}
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
        phase: f"{sum(c[phase] < p[phase] for p, c in pairs)}/{runs}"
        for phase in phases}
    print(json.dumps(report, indent=2))
    return 0


def script(main):
    """Exit with what ``main()`` returns; a ``RuntimeError`` prints one
    ``error:`` line and exits 1."""
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    script(main)
