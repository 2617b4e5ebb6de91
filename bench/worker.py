"""One fresh interpreter: set up, then run a request batch through the CLI.

Reads ``{"requests": [argv, ...], "trace": bool}`` as JSON on stdin and
prints one JSON object on stdout.  ``--cpu N`` pins the interpreter to CPU
``N`` first.  Set-up is ``import knothom`` plus loading
and validating all 12 packaged fixtures.  Each request is an in-process
``knothom.cli.main(argv)`` call with stdout and stderr captured; a request
that raises is recorded, and the batch goes on.

Before each request, and once after the last, the worker times
``calibrate()``, a fixed piece of work that does not touch the program.  Its
times follow the host's speed as it drifts, so ``run.py`` can scale each
request's latency to one reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import sys
import time
import traceback

#: every packaged fixture, loaded and validated during set-up
FIXTURE_NAMES = (
    "3_1:1", "3_1:S2", "3_1:L2", "3_1:2x2", "3_1:3x2", "3_1:2_1",
    "4_1:1", "4_1:S2", "T3_4:1", "T3_4:1:d1|1", "T3_4:S2", "T3_4:S2:d1|2",
)


def calibrate():
    """A fixed sparse product with ``Fraction`` coefficients and tuple
    exponents, the program's commonest work, written without the program."""
    # imported only after set-up, whose time includes the program's import
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
    return out


def timed_calibration():
    t = time.perf_counter()
    calibrate()
    return time.perf_counter() - t


def set_up(tracer=None):
    """Import the program (from the checkout's ``src``) and load the fixtures."""
    import knothom
    import knothom.cli

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if src not in pathlib.Path(knothom.__file__).resolve().parents:
        raise RuntimeError(f"imported knothom from {knothom.__file__}, not {src}")
    if tracer is not None:
        tracer.install()
    from knothom.fixtures import load_fixture
    for name in FIXTURE_NAMES:
        load_fixture(name)
    return knothom.cli.main


def run_batch(main, requests, tracer=None):
    """Run the requests in order; returns their results and the calibration
    times, one before each request and one after the last."""
    results, calibration = [], []
    for _ in range(3):          # warm the interpreter's specialised bytecode
        calibrate()
    for i, argv in enumerate(requests):
        calibration.append(timed_calibration())
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = i
        t = time.perf_counter()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(argv))
        except Exception:
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - t
        results.append({"rc": rc, "error": error, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:], "latency_s": latency})
    calibration.append(timed_calibration())
    return results, calibration


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int)
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    cli_main = set_up(tracer)
    setup_s = time.perf_counter() - start
    results, calibration = run_batch(cli_main, job["requests"], tracer)
    report = {
        "setup_s": setup_s,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["layers"] = tracer.layer_metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
