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

Each timed call also reads the result's ``terms``, so that the term map,
which a reduced invariant builds on first read, is timed with the call.

The host's speed drifts within a run, so each call's time is scaled by
the calibration that the runner of ``tools/startup_times.py`` puts before
every probe, timed in the same interpreter just before and just after the
call (its ``timed``).  A phase is the sum of its scaled calls.

Every run also hashes its outputs (each invariant's canonical JSON and its
normalization report), and the script fails unless every run of both
checkouts gives the same hash.  The probe runs through the runner of
``tools/startup_times.py``, which sets up the interpreters, alternates the
checkouts and prints the report: each side's median and quartiles of
every phase and of their total, the hash, and in how many pairs the change
was faster.  Give the same directory twice to check that the script runs.
"""

from startup_times import script

PHASES = ("S4-T3,4", "S3-T4,5", "pool", "total")

#: run in each fresh interpreter after the runner's ``PRELUDE``; prints the
#: phase times, the output hash and where ``knothom`` was imported from
PROBE = """\
import hashlib, json
import knothom
from knothom.invariants import torus_homfly
from knothom.partitions import partitions_of
KNOTS = ((2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (4, 5))
phases = {"S4-T3,4": [([4], 3, 4)], "S3-T4,5": [([3], 4, 5)],
          "pool": [(list(lam), n, m) for n, m in KNOTS for size in range(1, 8 // n + 1)
                   for lam in partitions_of(size)]}
def homfly(case):
    quotient, report = torus_homfly(*case)
    quotient.terms  # a term map built on first read is timed with its call
    return quotient, report
digest = hashlib.sha256()
warm()
times, outputs = phased(phases, homfly)
times["file"] = knothom.__file__
for phase in phases:
    for quotient, report in outputs[phase]:
        digest.update(json.dumps([quotient.dumps(), report.sign, report.sl1,
                                  str(report.fractional_offset),
                                  repr(report.monomial_shift)]).encode())
times["total"] = sum(times[phase] for phase in phases)
times["digest"] = digest.hexdigest()
print(json.dumps(times))
"""


if __name__ == "__main__":
    script(doc=__doc__, probe=PROBE, phases=PHASES, runs=11, timeout=600)
