"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B

For each seed from A to B it runs ``bench/run.py --trace 0`` once in each
checkout, one run after the other; the parent runs first on even pairs and
the change on odd ones, so that a drift in host speed favours neither side.
Each run's end-to-end metrics are printed as it ends.  Then, for every
end-to-end metric in ``BENCHMARK.json``, the script prints each side's median
and quartiles (over the runs), the parent's interquartile range, and in how
many pairs the change was better (ties count for neither side).  Run length
is ``run_seconds`` from ``BENCHMARK.json``, the same on both sides.

Each side runs with its own ``bench/`` and ``src/``; the script reads only
``bench/run.py``'s output and ``BENCHMARK.json``, and imports neither
program.  It exits 1 if any run fails or reports ``"correct": false``.
"""

import argparse
import json
import pathlib
import subprocess
import sys

from times import SIDES, pair_order, quartiles, script


def seed_range(text):
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout, workload, seed, seconds, trace=0):
    """The last stdout line of one run, as JSON; untraced unless ``trace``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="A-B, both ends included, or one seed")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = {side: [] for side in SIDES}
    all_correct = True
    for i, seed in enumerate(args.seeds):
        for side in pair_order(i):
            result = run_once(checkouts[side], args.workload, seed,
                              spec["run_seconds"])
            values = {name: result["metrics"][name]["value"] for name in metrics}
            runs[side].append(values)
            all_correct &= result["correct"]
            shown = "  ".join(f"{name} {value:.4g}" for name, value in values.items())
            print(f"seed {seed} {side:6s} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {shown}",
                  flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}: {pairs} pairs, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}, {spec['run_seconds']} s runs")
    print("metric | parent median [q1, q3] | change median [q1, q3] | "
          "parent IQR | change better")
    for name, m in metrics.items():
        sign = 1 if m["better"] == "lower" else -1
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        print(f"{name} ({m['unit']}) | {pm:.4g} [{p1:.4g}, {p3:.4g}] | "
              f"{cm:.4g} [{c1:.4g}, {c3:.4g}] | {p3 - p1:.3g} | {wins}/{pairs}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    script(main)
