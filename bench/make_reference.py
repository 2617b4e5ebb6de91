"""Record the reference digest and cost of every request any seed can pick.

    python3 bench/make_reference.py

Run at the commit whose outputs are the reference.  Each workload's whole
pool runs ``REPEATS`` times, each time in a fresh worker interpreter on
the next CPU in turn; the outputs must agree byte for byte, and the best
latency becomes the request's reference cost, which the generator uses to
fill batches.
Writes ``bench/reference.json``.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

sys.path.insert(0, str(run.SRC))
from verify import digest  # noqa: E402

#: passes over each pool; the reference costs, and so the batches every seed
#: picks, depend on it
REPEATS = 5


def main():
    reference = {}
    for name in workloads.POOLS:
        requests = workloads.all_requests(name)
        passes = [run.run_batch(requests, False, run.CPUS[i % len(run.CPUS)])["results"]
                  for i in range(REPEATS)]
        for i, argv in enumerate(requests):
            outs = [p[i] for p in passes]
            if any(o["rc"] != 0 or o["error"] for o in outs):
                raise SystemExit(f"{argv} failed: {outs[0]['error'] or outs[0]['stderr']}")
            digests = {digest(o["stdout"]) for o in outs}
            if len(digests) != 1:
                raise SystemExit(f"{argv} is not deterministic")
            reference[workloads.request_key(argv)] = {
                "sha256": digests.pop(),
                "cost_s": round(min(o["latency_s"] for o in outs), 4),
            }
        print(f"{name}: {len(requests)} requests", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
