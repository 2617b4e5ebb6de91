"""``tools/token_counts.py`` counts parser tokens: every ``tokenize`` token
but comments, blank lines and the encoding, a docstring as one; and it
exits 1 when a module passes the limit.  Nothing here imports ``knothom``."""

import pathlib
import runpy
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def counts():
    return runpy.run_path(str(TOOLS / "token_counts.py"))


SNIPPET = b'''def f(x):
    """A docstring
    of two lines."""
    # a comment

    return x + 1  # another
'''


def test_comments_blank_lines_and_the_encoding_do_not_count(counts):
    # def f ( x ) : NEWLINE INDENT docstring NEWLINE return x + 1 NEWLINE
    # DEDENT ENDMARKER
    assert counts["count_tokens"](SNIPPET) == 17
    bare = b"def f(x):\n    return x + 1\n"
    assert counts["count_tokens"](bare) == counts["count_tokens"](SNIPPET) - 2


def test_the_limit_counts_the_last_allowed_token(counts):
    # four tokens a line, x = 1 NEWLINE, and the ENDMARKER: at most the
    # limit, then one line past it
    lines = (counts["LIMIT"] - 1) // 4
    assert counts["count_tokens"](b"x = 1\n" * lines) <= counts["LIMIT"]
    assert counts["count_tokens"](b"x = 1\n" * (lines + 1)) > counts["LIMIT"]


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="Python 3.12 splits f-strings into more tokens")
def test_the_package_is_within_the_limit(counts, capsys):
    assert counts["main"]() == 0
    out, _ = capsys.readouterr()
    assert "  laurent.py" in out and "  models.py" in out
