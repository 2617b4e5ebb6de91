"""Time rank collapse in fresh interpreters, two checkouts alternating.

    python3 tools/cancel_times.py PARENT_DIR CHANGE_DIR [--runs N] > BENCH_cancel.json

Each run starts a new interpreter on one checkout's ``src``, imports
``knothom.cli`` and times ``cancel`` requests, each a ``knothom.cli.main``
call with its stdout captured, in milliseconds.  The phases are:

- ``3x2``: ``cancel --knot 3_1 --color 3x2 --cutoff 16``, the first call
  of the run;
- ``pool``: then the 26 ``cancel`` requests of the benchmark's
  ``rank-collapse`` pool (the unknot, 3_1, 4_1 and T3_4 in S1 and S2, at
  n = 2 and 3 and cutoffs 24 and 30, less T3_4 in S2 and 4_1 in S2 at
  n = 3), in JSON;
- ``sweep``: then the trefoil in L2, which the pool leaves out, at every
  n in 2, 3, 4 and cutoff in 20, 24, 30, in JSON.

The host's speed drifts within a run, so each request's time is scaled by
the calibration that the runner of ``tools/startup_times.py`` puts before
every probe, timed in the same interpreter just before and just after the
request (its ``timed``).  A phase is the sum of its scaled requests.

Every run also hashes each request's output, and the script fails unless
every run of both checkouts gives the same hash.  The probe runs through the
runner of ``tools/startup_times.py``, which sets up the interpreters,
alternates the checkouts and prints the report: each side's median and
quartiles of every phase and of their total, the hash, and in how many
pairs the change was faster.  Give the same directory twice to check that
the script runs.
"""

from startup_times import script

PHASES = ("3x2", "pool", "sweep", "total")

#: run in each fresh interpreter after the runner's ``PRELUDE``; prints the
#: phase times, the output hash and where ``knothom`` was imported from
PROBE = """\
import hashlib, json
import knothom
import knothom.cli
LEFT_OUT = {("T3_4", "S2", 2), ("T3_4", "S2", 3), ("4_1", "S2", 3)}
def cancel(knot, color, n, cutoff):
    return ["cancel", "--knot", knot, "--color", color, "--n", str(n),
            "--cutoff", str(cutoff), "--format", "json"]
phases = {"3x2": [["cancel", "--knot", "3_1", "--color", "3x2", "--cutoff", "16"]],
          "pool": [cancel(knot, color, n, cutoff)
                   for knot in ("unknot", "3_1", "4_1", "T3_4") for color in ("S1", "S2")
                   for n in (2, 3) if (knot, color, n) not in LEFT_OUT
                   for cutoff in (24, 30)],
          "sweep": [cancel("3_1", "L2", n, cutoff) for n in (2, 3, 4)
                    for cutoff in (20, 24, 30)]}
assert len(phases["pool"]) == 26
digest = hashlib.sha256()
warm()
times, outputs = phased(phases, request)
times["file"] = knothom.__file__
for phase in phases:
    for code, printed in outputs[phase]:
        assert code == 0, (phase, code)
        digest.update(printed.encode())
times["total"] = sum(times[phase] for phase in phases)
times["digest"] = digest.hexdigest()
print(json.dumps(times))
"""


if __name__ == "__main__":
    script(doc=__doc__, probe=PROBE, phases=PHASES, runs=11, timeout=600)
