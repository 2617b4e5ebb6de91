"""Show how far each checkout's top work layer leads the next one.

    python3 tools/layer_margin.py CHECKOUT... --workload W

For each checkout it runs ``bench/run.py --seed 5 --seconds 20 --trace 1``
on the workload, the traced run of the README's performance gate, and
prints the three work layers with the largest ``total_s`` and the ratio of
the first to the second.  A traced run fails when its largest work layer is
not the one ``bench/run.py`` predicts (``PREDICTED_TOP``), even when every
output matches; a ratio near 1 shows a change that comes close to that.
The script reads only ``bench/run.py``'s output and the ``WORK_MODULES`` of
each checkout's ``bench/tracer.py``, and exits 1 if a run fails or reports
``"correct": false``.
"""

import argparse
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", type=pathlib.Path, nargs="+")
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    all_correct = True
    for checkout in args.checkouts:
        result = run_once(checkout.resolve(), args.workload, SEED, SECONDS, trace=1)
        all_correct &= result["correct"]
        tracer = runpy.run_path(str(checkout / "bench" / "tracer.py"))
        layers = work_layers(result["metrics"], tracer["WORK_MODULES"])
        print(f"{checkout} {args.workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for rank, (total, name) in enumerate(layers[:SHOWN], start=1):
            print(f"  {rank}. {name} {total:.4f} s")
        if len(layers) > 1 and layers[1][0] > 0:
            print(f"  margin {layers[0][1]} / {layers[1][1]}: "
                  f"{layers[0][0] / layers[1][0]:.2f}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    script(main)
