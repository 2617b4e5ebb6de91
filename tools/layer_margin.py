"""Show how far each checkout's top work layer leads the next one.

    python3 tools/layer_margin.py CHECKOUT... --workload W

For each checkout it runs ``bench/run.py --seed 5 --seconds 20 --trace 1``
on the workload, the traced run of the README's performance gate, and
prints the three work layers with the largest ``total_s`` and the ratio of
the first to the second.  A traced run fails when its largest work layer is
not the one ``bench/run.py`` predicts (``PREDICTED_TOP``), even when every
output matches; a ratio near 1 shows a change that comes close to that.

Beside the gate's figures it prints the same ranking over request time
only: it reads the run's record, ``bench/results/W-seed5-trace1.json``, and
sums each work layer's spans that ran inside a request (``request >= 0``),
so that set-up work, such as loading the fixtures, does not count.

The script reads only ``bench/run.py``'s output and record and the
``WORK_MODULES`` of each checkout's ``bench/tracer.py``, and exits 1 if a
run fails or reports ``"correct": false``.
"""

import argparse
import json
import pathlib
import runpy

from bench_pairs import run_once
from times import script

SEED = 5
SECONDS = 20
SHOWN = 3


def work_layers(metrics, work_modules):
    """``(total_s, layer)`` of every layer of ``work_modules``, largest first."""
    return sorted(((m["value"], name[:-len(".total_s")])
                   for name, m in metrics.items()
                   if name.endswith(".total_s") and name.split(".")[0] in work_modules),
                  reverse=True)


def request_layers(spans, work_modules):
    """``(seconds, layer)`` of every layer of ``work_modules``, largest
    first, summed over its spans inside a request.  A span is ``(name,
    start, end, parent, request, counts)``, parents before their children;
    a span nested in one of the same name counts once, as ``total_s``
    does."""
    totals, ancestors = {}, []
    for name, start, end, parent, request, _ in spans:
        above = ancestors[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
        ancestors.append(above)
        if request >= 0 and name not in above and name.split(".")[0] in work_modules:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return sorted(((total, name) for name, total in totals.items()), reverse=True)


def show(title, layers):
    """Print the first layers and the ratio of the first to the second."""
    print(f"  {title}:")
    for rank, (total, name) in enumerate(layers[:SHOWN], start=1):
        print(f"    {rank}. {name} {total:.4f} s")
    if len(layers) > 1 and layers[1][0] > 0:
        print(f"    margin {layers[0][1]} / {layers[1][1]}: "
              f"{layers[0][0] / layers[1][0]:.2f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", type=pathlib.Path, nargs="+")
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    all_correct = True
    for checkout in args.checkouts:
        result = run_once(checkout.resolve(), args.workload, SEED, SECONDS, trace=1)
        all_correct &= result["correct"]
        work_modules = runpy.run_path(str(checkout / "bench" / "tracer.py"))["WORK_MODULES"]
        record = checkout / "bench" / "results" / f"{args.workload}-seed{SEED}-trace1.json"
        spans = json.loads(record.read_text())["spans"]
        print(f"{checkout} {args.workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        show("gate (total_s)", work_layers(result["metrics"], work_modules))
        show("request time", request_layers(spans, work_modules))
    return 0 if all_correct else 1


if __name__ == "__main__":
    script(main)
