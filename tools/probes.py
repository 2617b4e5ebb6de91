"""The probes that ``tools/times.py`` runs, one per fresh interpreter.

    python3 tools/probes.py PROBE < ARGUMENTS

Runs probe ``PROBE`` of :data:`PROBES` once on the JSON argument list on
stdin and prints its phase times in milliseconds at the reference speed,
their ``total``, the ``file`` ``knothom`` came from and the ``digest`` of
its outputs, as one JSON object.  ``startup`` takes no arguments, and
``json`` and ``hashlib`` are imported only after it returns, so that its
``import`` phase pays for everything ``import knothom`` loads.  The
calibration is ``bench/worker.py``'s, loaded by :func:`warm` after that
phase, since loading ``worker.py`` imports ``traceback``, ``pathlib``,
``argparse`` and ``json``.
"""

import gc
import io
import sys
import time

CALIBRATION_REF_S = 0.0015

#: ``bench/worker.py``'s calibration, once :func:`warm` has loaded it
calibrate = None


def calibration():
    start = time.perf_counter()
    calibrate()
    return time.perf_counter() - start


def warm():
    """Load ``bench/worker.py``'s calibration, then run it three times
    untimed, which specialises its bytecode.  Every probe gets here only
    after its timed import."""
    global calibrate
    import os
    import runpy
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
    calibrate = runpy.run_path(os.path.join(bench, "worker.py"))["calibrate"]
    for _ in range(3):
        calibrate()


def speed():
    """The factor that scales a time just taken to the reference speed, by
    the median of three calibrations after :func:`warm`, as ``bench/run.py``
    scales ``setup_s``."""
    warm()
    return CALIBRATION_REF_S / sorted(calibration() for _ in range(3))[1]


def timed(run, *args):
    """``run(*args)`` and its time in seconds at the reference speed, by the
    mean of the calibrations timed just before and just after it."""
    before = calibration()
    start = time.perf_counter()
    result = run(*args)
    took = time.perf_counter() - start
    return result, took * CALIBRATION_REF_S / ((before + calibration()) / 2)


def phased(phases, run):
    """``(times, outputs)``: for each phase of ``phases``, a list of
    arguments, the outputs of ``run`` on each argument in order and their
    time in milliseconds, each call timed by :func:`timed`.  A full garbage
    collection, untimed, starts every phase, so where the collector's full
    passes fall in a phase does not follow from the phases before it.  Three
    untimed calibrations come first (:func:`warm`)."""
    warm()
    times, outputs = {}, []
    for phase, calls in phases.items():
        gc.collect()
        spent = 0.0
        for arg in calls:
            output, took = timed(run, arg)
            outputs.append(output)
            spent += took
        times[phase] = 1000 * spent
    return times, outputs


def request(argv):
    """What ``knothom.cli.main(argv)`` printed to stdout; the request must
    exit 0."""
    import knothom.cli
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = knothom.cli.main(argv)
    finally:
        printed, sys.stdout = sys.stdout.getvalue(), stdout
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return printed


def startup():
    """Start-up: ``import knothom.cli``, loading the 12 packaged fixtures less
    their validation (``parse``), ``fixtures._validate`` timed around each call
    (``validate``) and the first request (``bottom --p 2 --q 3 --count``).
    :func:`speed` runs after them, so that ``fractions`` stays out of
    ``import``."""
    start = time.perf_counter()
    import knothom.cli  # noqa: F401
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
    answer = request(["bottom", "--p", "2", "--q", "3", "--count"])
    answered = time.perf_counter()
    if answer != "2\n":
        raise RuntimeError(f"the first request printed {answer!r}")
    ms = 1000 * speed()
    validated = ms * sum(spent)
    return {"import": ms * (imported - start),
            "parse": ms * (loaded - imported) - validated, "validate": validated,
            "request": ms * (answered - loaded)}, None


def torus(pool):
    """Reduced ``torus_homfly`` calls: ``([4], 3, 4)`` and ``([3], 4, 5)``,
    the first two calls of the run, then each ``(colour, n, m)`` of ``pool``.
    Each timed call ends with the invariant's ``to_json``, which
    ``knothom homfly --format json`` pays.  An output is the invariant's
    canonical JSON and its normalization report."""
    from knothom.invariants import torus_homfly

    def homfly(case):
        quotient, report = torus_homfly(*case)
        return quotient.to_json(), report

    times, outputs = phased({"S4-T3,4": [([4], 3, 4)], "S3-T4,5": [([3], 4, 5)],
                             "pool": pool}, homfly)
    import json
    return times, [json.dumps([json.dumps(obj, separators=(",", ":")), report.sign,
                               report.sl1, str(report.fractional_offset),
                               repr(report.monomial_shift)])
                   for obj, report in outputs]


def cancel(pool):
    """``cancel`` requests: ``--knot 3_1 --color 3x2 --cutoff 16``, the first
    call of the run, then ``pool``, then the trefoil in L2, which the
    benchmark's pool leaves out, at every n in 2, 3, 4 and cutoff in 20, 24,
    30.  ``knothom.cli`` is imported first, untimed."""
    sweep = [["cancel", "--knot", "3_1", "--color", "L2", "--n", str(n),
              "--cutoff", str(cutoff), "--format", "json"]
             for n in (2, 3, 4) for cutoff in (20, 24, 30)]
    import knothom.cli  # noqa: F401
    return phased({"3x2": [["cancel", "--knot", "3_1", "--color", "3x2", "--cutoff", "16"]],
                   "pool": pool, "sweep": sweep}, request)


def scheme(schemes, potentials):
    """Scheme and potential requests: the reduced schemes of T(3,4) and
    T(4,5) at r = 3 and 2 with forms, the first two calls of the run, then
    ``schemes``, then ``potentials`` and ``check potentials``.
    ``knothom.cli`` is imported first, untimed."""
    def reduced(p, q, r):
        return ["scheme", "--p", str(p), "--q", str(q), "--r", str(r),
                "--reduced", "--forms", "--format", "json"]

    import knothom.cli  # noqa: F401
    return phased({"M(3,4,3)": [reduced(3, 4, 3)], "M(4,5,2)": [reduced(4, 5, 2)],
                   "pool": schemes,
                   "potentials": [*potentials, ["check", "potentials", "--format", "json"]]},
                  request)


#: each probe, its phases (every report adds ``total``, their sum), its runs
#: per checkout unless ``--runs`` is given, and its timeout per run in seconds
PROBES = {
    "startup": (startup, ("import", "parse", "validate", "request"), 21, 120),
    "torus": (torus, ("S4-T3,4", "S3-T4,5", "pool"), 11, 600),
    "cancel": (cancel, ("3x2", "pool", "sweep"), 11, 600),
    "scheme": (scheme, ("M(3,4,3)", "M(4,5,2)", "pool", "potentials"), 11, 900),
}


def main(name, arguments):
    """Run probe ``name`` on ``arguments``, the JSON text of its argument
    list (empty for none), and print its report."""
    probe = PROBES[name][0]
    if arguments:
        import json
        times, outputs = probe(*json.loads(arguments))
    else:
        times, outputs = probe()
    import hashlib
    import json
    times["total"] = sum(times.values())
    times["file"] = sys.modules["knothom"].__file__
    if outputs is not None:
        times["digest"] = hashlib.sha256("".join(outputs).encode()).hexdigest()
    print(json.dumps(times))


if __name__ == "__main__":
    main(sys.argv[1], sys.stdin.read())
