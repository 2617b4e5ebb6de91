"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload torus-table --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``.  The seeded batch (see
``workloads.py``) holds ``--seconds / ROUNDS`` seconds of reference work,
timed best-case, and runs ``ROUNDS`` times on each of two CPUs at once,
each pass in its own seeded order.  Each request is sent after the previous
one returns, in a fresh interpreter that has done its set-up first; outputs
are verified after the clock stops.  Times are scaled to one reference host
speed by a calibration measured next to them (``scaled``); a metric is the
median over the passes of what each pass measured.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the batch untraced and traced on each CPU, each pass in
its own interpreter, and reports the per-layer metrics of one traced pass
plus ``trace.overhead_s``.  It fails (``"correct": false``) when a layer
predicted to be bypassed is called, or when the work layer with the largest
``total_s`` is not the predicted one.

The last line of stdout is the JSON result; a fuller record (environment,
per-request latencies and failures, spans) goes to
``bench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: untraced passes over the batch per CPU and run.  Each pass runs in a
#: fresh interpreter, in an order of its own: a request's time depends on
#: the caches earlier requests left behind, so one order would make the
#: run's figures depend on that order.  Two CPUs run their passes at the
#: same time (neither slows the other) and their speeds drift
#: independently.  The batch holds ``--seconds / ROUNDS`` seconds of
#: reference work.
ROUNDS = 9
CPUS = sorted(os.sched_getaffinity(0))[:2]
WORKER_TIMEOUT_S = 150
#: the host's speed drifts by up to a half within a minute.  Every time is
#: scaled by the median of the ``worker.calibrate`` times measured nearest
#: it (WINDOW requests on each side; the first SETUP_WINDOW for set-up) to
#: the speed at which one calibration takes CALIBRATION_REF_S, about its
#: time on the reference host when that host is quiet
CALIBRATION_REF_S = 0.0015
WINDOW = 1
SETUP_WINDOW = 3

#: the work layer expected to take the most time on each workload
PREDICTED_TOP = {
    "torus-table": "laurent.divide_exact",
    "rank-collapse": "laurent.expand",
    "scheme-basis": "models.macaulay_basis",
}
#: layers a workload never calls: their ``calls`` must be exactly 0
BYPASSED = {
    "torus-table": ("laurent.expand", "models.macaulay_basis"),
    "rank-collapse": ("laurent.divide_exact", "models.macaulay_basis"),
    "scheme-basis": (),
}


class BenchError(RuntimeError):
    pass


def worker_env():
    # bytecode always cached, and in one place, so set-up time does not
    # depend on the caller's environment or on stray caches under src/
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC),
               PYTHONPYCACHEPREFIX=str(RESULTS / "pycache"))
    for name in ("HOMOLOGY_FIXTURE_DIR", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def run_worker(args, stdin=None):
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], input=stdin,
            capture_output=True, text=True, env=worker_env(), cwd=ROOT,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_batch(requests, trace, cpu=None):
    args = [] if cpu is None else ["--cpu", str(cpu)]
    return run_worker(args, json.dumps({"requests": requests, "trace": bool(trace)}))


def on_each_cpu(requests, plan):
    """Run the passes in ``plan[i]``, each an ``(order, trace)`` pair, in turn
    on ``CPUS[i]``, the CPUs at the same time; every worker has ended on
    return."""
    if len(CPUS) == 1:
        plan = [sum(plan, [])]
    with ThreadPoolExecutor(len(plan)) as pool:
        per_cpu = pool.map(
            lambda cpu, passes: [run_batch([requests[i] for i in order], t, cpu)
                                 for order, t in passes], CPUS, plan)
        return {f"cpu{cpu}-pass{i}" + ("-traced" if "layers" in b else ""): b
                for cpu, batches in zip(CPUS, per_cpu) for i, b in enumerate(batches)}


def scaled(seconds, calibration):
    """``seconds`` at the reference host speed, by the calibration times
    measured around them."""
    return seconds * CALIBRATION_REF_S / statistics.median(calibration)


def scaled_latencies(batch):
    """Each request's latency, scaled by the calibrations nearest it."""
    cal = batch["calibration_s"]
    return [scaled(r["latency_s"], cal[max(0, i - WINDOW): i + WINDOW + 2])
            for i, r in enumerate(batch["results"])]


def scaled_setup(batch):
    return scaled(batch["setup_s"], batch["calibration_s"][:SETUP_WINDOW])


def pass_figures(batches):
    """Per pass: its scaled set-up, batch time and median request.  Each is
    the time of one real execution order."""
    return [(scaled_setup(b), sum(lat), statistics.median(lat))
            for b in batches for lat in [scaled_latencies(b)]]


def bypass_failures(workload, layers):
    return [f"{name} called {layers[name + '.calls']} times; predicted 0"
            for name in BYPASSED[workload] if layers[name + ".calls"]]


def trace_failures(workload, layers):
    """Where a traced run breaks its workload's layer predictions."""
    work = {n[:-len(".total_s")]: v for n, v in layers.items()
            if n.endswith(".total_s") and n.split(".")[0] in tracer.WORK_MODULES}
    top = max(work, key=work.get)
    failures = bypass_failures(workload, layers)
    if top != PREDICTED_TOP[workload]:
        failures.append(f"largest work layer is {top}; predicted "
                        f"{PREDICTED_TOP[workload]}")
    return failures


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "knothom").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        # identifies the commit: a benchmark checkout need not be a git repository
        "source_sha256": source_digest(),
    }


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def checked(values, units):
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "knothom" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'knothom'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import verify
    import workloads

    end_to_end, per_layer = metric_specs()
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    requests, ref_cost = workloads.build_batch(args.workload, args.seed,
                                               args.seconds / ROUNDS)
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "reference_cost_s": ref_cost,
        "requests": requests,
    }
    # a traced run has two traced and two untraced passes per CPU, in a
    # balanced sequence, so that the overhead compares like with like
    flags = ([[False, True, True, False], [True, False, False, True]] if args.trace
             else [[False] * ROUNDS] * 2)
    orders = iter(workloads.pass_orders(args.workload, args.seed, len(requests),
                                        sum(map(len, flags))))
    plan = [[(next(orders), t) for t in cpu_flags] for cpu_flags in flags]
    passes = on_each_cpu(requests, plan)

    attempted = failed = 0
    memo = {}
    for (label, batch), (order, _) in zip(passes.items(), sum(plan, [])):
        reasons = verify.verify_batch([requests[i] for i in order], batch["results"],
                                      reference, memo)
        attempted += len(reasons)
        failed += sum(r is not None for r in reasons)
        record[label] = {
            "order": order,
            "setup_s": batch["setup_s"],
            "peak_rss_mb": batch["peak_rss_mb"],
            "latency_s": [r["latency_s"] for r in batch["results"]],
            "calibration_s": batch["calibration_s"],
            "failures": {i: r for i, r in enumerate(reasons) if r is not None},
        }
    untraced = [b for b in passes.values() if "layers" not in b]
    setup, wall, p50 = (statistics.median(f) for f in zip(*pass_figures(untraced)))
    check_failures = []
    if args.trace:
        traced = [b for b in passes.values() if "layers" in b]
        values = dict(traced[0]["layers"])
        values["trace.overhead_s"] = statistics.median(
            f[1] for f in pass_figures(traced)) - wall
        check_failures = trace_failures(args.workload, values)
        record["trace_failures"] = check_failures
        record["spans"] = traced[0]["spans"]
        metrics = checked(values, per_layer)
    else:
        metrics = checked({
            "setup_s": setup,
            "wall_s": wall,
            "request_p50_s": p50,
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in untraced),
        }, end_to_end)
    record["fail_frac"] = failed / attempted
    record["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    if failed:
        print(f"{failed}/{attempted} requests failed; see {out}", file=sys.stderr)
    for failure in check_failures:
        print(f"trace check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not check_failures,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
