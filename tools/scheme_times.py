"""Time scheme bases in fresh interpreters, two checkouts alternating.

    python3 tools/scheme_times.py PARENT_DIR CHANGE_DIR [--runs N] > BENCH_scheme.json

Each run starts a new interpreter on one checkout's ``src``, imports
``knothom.cli`` and times requests, each a ``knothom.cli.main`` call with
its stdout captured, in milliseconds.  A ``scheme`` request is
``["scheme", "--p", P, "--q", Q, "--r", R, "--reduced", "--forms",
"--format", "json"]``.  The phases are:

- ``M(3,4,3)`` and ``M(4,5,2)``: the reduced schemes of T(3,4) and T(4,5)
  at r = 3 and 2 with forms, the first two calls of the run;
- ``pool``: then the 20 ``scheme`` requests of the benchmark's
  ``scheme-basis`` pool, 16 with forms and 4 without;
- ``potentials``: then the pool's six ``potential`` requests, two torus
  potentials and four antisymmetric ones, and ``check potentials --format
  json``.

The host's speed drifts within a run, so each request's time is scaled by
the calibration that the runner of ``tools/startup_times.py`` puts before
every probe, timed in the same interpreter just before and just after the
request (its ``timed``).  A phase is the sum of its scaled requests.

Every run also hashes each request's output (for a scheme: the basis, its
Poincare polynomial and the presentation), and the script fails unless
every run of both checkouts gives the same hash.  The probe runs through
the runner of ``tools/startup_times.py``, which sets up the interpreters,
alternates the checkouts and prints the report: each side's median and
quartiles of every phase and of their total, the hash, and in how many
pairs the change was faster.  Give the same directory twice to check that the script runs.
"""

from startup_times import script

PHASES = ("M(3,4,3)", "M(4,5,2)", "pool", "potentials", "total")

#: run in each fresh interpreter after the runner's ``PRELUDE``; prints the
#: phase times, the output hash and where ``knothom`` was imported from
PROBE = """\
import hashlib, json
import knothom
import knothom.cli
FORMS = ((2, 3, 5), (2, 5, 3), (2, 7, 2), (3, 4, 2), (3, 5, 2), (4, 5, 1), (5, 6, 1))
NO_FORMS = ((3, 4, 2), (3, 4, 3), (3, 5, 2), (4, 5, 1))
def scheme(p, q, r, forms):
    return ["scheme", "--p", str(p), "--q", str(q), "--r", str(r), "--reduced",
            "--format", "json"] + ["--forms"] * forms
phases = {"M(3,4,3)": [scheme(3, 4, 3, True)], "M(4,5,2)": [scheme(4, 5, 2, True)],
          "pool": [scheme(p, q, r, True) for p, q, top in FORMS for r in range(1, top + 1)]
                  + [scheme(p, q, r, False) for p, q, r in NO_FORMS],
          "potentials": [["potential", "--p", p, "--q", q, "--r", "1", "--format", "json"]
                         for p, q in (("2", "3"), ("2", "5"))]
                        + [["potential", "--antisym", a, "--format", "json"]
                           for a in ("1,3", "2,3", "2,4", "3,5")]
                        + [["check", "potentials", "--format", "json"]]}
digest, times = hashlib.sha256(), {"file": knothom.__file__}
warm()
for phase, requests in phases.items():
    outputs, spent = [], 0.0
    for argv in requests:
        output, took = timed(request, argv)
        outputs.append(output)
        spent += took
    times[phase] = 1000 * spent
    for code, printed in outputs:
        assert code == 0, (phase, code)
        digest.update(printed.encode())
times["total"] = sum(times[phase] for phase in phases)
times["digest"] = digest.hexdigest()
print(json.dumps(times))
"""


if __name__ == "__main__":
    script(doc=__doc__, probe=PROBE, phases=PHASES, runs=11, timeout=900)
