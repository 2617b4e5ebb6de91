"""``tools/layer_margin.py`` ranks work layers by request time as well: a
hand-made span list, with a set-up span and a span nested in one of its own
name, sums as ``Tracer.layer_metrics`` sums ``total_s``, over requests only.
Nothing here runs the benchmark."""

import pathlib
import runpy

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def margin(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return runpy.run_path(str(TOOLS / "layer_margin.py"))


def test_request_time_skips_set_up_and_counts_recursion_once(margin):
    spans = [
        # set-up: the fixtures load before the first request
        ("fixtures.load_fixture", 0.0, 5.0, -1, -1, None),
        ("laurent.from_json", 1.0, 2.0, 0, -1, None),
        # request 0: a verb, a division with a nested division, a load
        ("cli.main", 10.0, 20.0, -1, 0, None),
        ("laurent.divide_exact", 11.0, 15.0, 2, 0, None),
        ("laurent.divide_exact", 12.0, 14.0, 3, 0, None),
        ("fixtures.load_fixture", 15.0, 15.5, 2, 0, None),
        # request 1: a division inside another layer
        ("cli.main", 30.0, 40.0, -1, 1, None),
        ("laurent.mul", 31.0, 33.0, 6, 1, None),
        ("laurent.divide_exact", 31.5, 32.5, 7, 1, {"quotient_terms": 3}),
    ]
    work = ("laurent", "fixtures")
    assert margin["request_layers"](spans, work) == [
        (5.0, "laurent.divide_exact"), (2.0, "laurent.mul"),
        (0.5, "fixtures.load_fixture")]
    assert margin["request_layers"](spans[:2], work) == []
