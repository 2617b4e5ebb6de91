"""Print the parser-token count of each module of ``src/knothom``.

    python3 tools/token_counts.py

A module's count is its number of ``tokenize`` tokens less its
``COMMENT``, ``NL`` and ``ENCODING`` tokens: comments and blank lines do not
count, and a docstring is one token.  The script exits 1 when a module
passes ``LIMIT`` tokens, since past 8,192 the compile peak of
``import knothom``, which the benchmark's ``peak_rss_mb`` reads, steps up
by about 0.5 MB.  Run it on Python 3.11, the benchmark's interpreter:
Python 3.12 splits an f-string into several tokens, so its counts are
higher.
"""

import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIMIT = 8192
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def count_tokens(source: bytes) -> int:
    """The tokens of ``source`` less its comments, blank lines and encoding."""
    lines = iter(source.splitlines(keepends=True))
    return sum(tok.type not in SKIPPED
               for tok in tokenize.tokenize(lambda: next(lines, b"")))


def main():
    over = []
    for path in sorted((ROOT / "src" / "knothom").glob("*.py")):
        n = count_tokens(path.read_bytes())
        print(f"{n:6d}  {path.name}")
        if n > LIMIT:
            over.append(path.name)
    if over:
        print(f"over {LIMIT} tokens: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
