"""Replay every request pinned in ``bench/reference.json`` and compare outputs.

    python3 tools/replay_reference.py

Each request runs in this interpreter through ``knothom.cli.main``, imported
from the checkout's ``src``, and the SHA-256 of its stdout is compared with
the recorded digest.  Every request is replayed, including those over the
benchmark's cost caps.  The script runs itself again with
``PYTHONHASHSEED=0`` when that variable is unset.  It prints each mismatch
and exits 1 if there is any, 0 otherwise; it reads only ``bench/``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference.json"


def main():
    if "PYTHONHASHSEED" not in os.environ:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(ROOT / "src"))
    from knothom.cli import main as cli_main

    reference = json.loads(REFERENCE.read_text())
    mismatches = 0
    for request, pinned in sorted(reference.items()):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main(request.split())
        except Exception as exc:  # report the request and keep replaying
            rc = f"{type(exc).__name__}: {exc}"
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if rc != 0 or digest != pinned["sha256"]:
            mismatches += 1
            print(f"mismatch: {request}: exit {rc}, sha256 {digest}, "
                  f"pinned {pinned['sha256']}")
    print(f"{len(reference) - mismatches}/{len(reference)} requests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
