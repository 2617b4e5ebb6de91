"""The before/after timer's files agree with each other: each
``BENCH_<probe>.json`` is the report of a probe of ``tools/probes.py`` and
lists exactly that probe's phases and ``total``, the probes module imports
nothing at module level that would fall in the start-up probe's ``import``
phase, and the workload probes get the benchmark's own pools.  Nothing here
runs a probe or times anything."""

import ast
import json
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
PROBES = runpy.run_path(str(TOOLS / "probes.py"))["PROBES"]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
#: the runner's report; ``outputs_sha256`` only for a probe that hashes its outputs
REPORT_KEYS = ["python", "cpus", "runs", "unit", "outputs_sha256", "parent", "change",
               "change_faster"]


def test_every_probe_has_its_bench_file():
    assert sorted(p.stem.removeprefix("BENCH_") for p in BENCH_FILES) == sorted(PROBES)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_lists_its_probes_phases(path):
    probe = path.stem.removeprefix("BENCH_")
    assert probe in PROBES
    report = json.loads(path.read_text())
    assert [key for key in REPORT_KEYS if key in report] == list(report)
    assert set(REPORT_KEYS) - set(report) <= {"outputs_sha256"}
    phases = [*PROBES[probe][1], "total"]
    for section in ("parent", "change", "change_faster"):
        assert list(report[section]) == phases, section


def test_probes_import_only_what_start_up_loads_anyway():
    """At module level ``tools/probes.py`` imports only modules that the
    interpreter has loaded before the start-up probe's clock starts."""
    tree = ast.parse((TOOLS / "probes.py").read_text())
    imported = {alias.name for node in tree.body if isinstance(node, ast.Import)
                for alias in node.names}
    assert imported == {"gc", "io", "sys", "time"}
    assert not [node for node in tree.body if isinstance(node, ast.ImportFrom)]


def test_workload_probes_get_the_benchmark_pools(monkeypatch):
    """``tools/times.py`` hands each workload probe its pool from
    ``bench/workloads.py``, in pool order: 56 torus colours, the 26
    ``rank-collapse`` requests, and the 20 ``scheme`` and 6 ``potential``
    requests of ``scheme-basis``."""
    monkeypatch.syspath_prepend(str(TOOLS))
    arguments = runpy.run_path(str(TOOLS / "times.py"))["arguments"]
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    assert arguments("startup") == []
    (torus,) = arguments("torus")
    assert len(torus) == 56 and torus[0] == [[1], 2, 3] and torus[-1] == [[1, 1], 4, 5]
    assert arguments("cancel") == [workloads["all_requests"]("rank-collapse")]
    assert len(arguments("cancel")[0]) == 26
    schemes, potentials = arguments("scheme")
    assert (len(schemes), len(potentials)) == (20, 6)
    assert {argv[0] for argv in schemes} == {"scheme"}
    assert {argv[0] for argv in potentials} == {"potential"}
