"""Show how far each checkout's top work layer leads the next one.

    python3 tools/layer_margin.py CHECKOUT... --workload W

For each checkout it runs ``bench/run.py --seed 5 --seconds 20 --trace 1``
on the workload, the traced run of the README's performance gate, and
prints the three work layers with the largest ``total_s`` and the ratio of
the first to the second.  A traced run fails when its largest work layer is
not the one ``bench/run.py`` predicts (``PREDICTED_TOP``), even when every
output matches; a ratio near 1 shows a change that comes close to that.
The script reads only ``bench/run.py``'s output, and exits 1 if a run fails
or reports ``"correct": false``.
"""

import argparse
import pathlib
import sys

from bench_pairs import run_once

#: the modules whose layers ``bench/run.py`` ranks as work
#: (``WORK_MODULES`` in ``bench/tracer.py``); the others, such as
#: ``invariants``, ``checks`` and ``cli``, hold the work layers they call
WORK_MODULES = ("laurent", "symmetric", "models", "fixtures", "bottom", "partitions")
SEED = 5
SECONDS = 20
SHOWN = 3


def work_layers(metrics):
    """``(total_s, layer)`` of every work layer, largest first."""
    return sorted(((m["value"], name[:-len(".total_s")])
                   for name, m in metrics.items()
                   if name.endswith(".total_s") and name.split(".")[0] in WORK_MODULES),
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
        layers = work_layers(result["metrics"])
        print(f"{checkout} {args.workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for rank, (total, name) in enumerate(layers[:SHOWN], start=1):
            print(f"  {rank}. {name} {total:.4f} s")
        if len(layers) > 1 and layers[1][0] > 0:
            print(f"  margin {layers[0][1]} / {layers[1][1]}: "
                  f"{layers[0][0] / layers[1][0]:.2f}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
