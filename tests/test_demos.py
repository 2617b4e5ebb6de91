"""Each narrative demo, and the README's library tour, runs to completion
against the current API."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def library_tour(readme: str) -> str:
    """The first ``python`` block under the ``## Library tour`` heading."""
    section = readme.split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_tour_runs():
    code = library_tour((ROOT / "README.md").read_text())
    assert "from knothom import *" in code
    exec(compile(code, "README.md:Library tour", "exec"), {})
