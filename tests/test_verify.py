import json

import pytest

from graphdim.coloring import chromatic_number_within
from graphdim.core import Graph, encode_graph6
from graphdim.dimension import dim_exact
from graphdim.errors import CapExceeded, DomainError
from graphdim.verify import (
    SUITE_NAMES,
    enumerate_labeled_graphs,
    run_all,
    run_suite,
)
from graphdim.verify import _sweep_stats


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_labeled_graphs(0)) == 1
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64


def test_enumeration_distinct_and_valid():
    seen = set()
    for g in enumerate_labeled_graphs(4):
        assert isinstance(g, Graph) and g.n == 4
        seen.add(g.adj)
    assert len(seen) == 64


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_labeled_graphs(7))


def test_sweep_stats_consistent():
    stats = _sweep_stats(4)
    assert len(stats) == 64
    for g, (g6, chi, dim_value) in zip(enumerate_labeled_graphs(4), stats):
        assert encode_graph6(g) == g6
        assert chromatic_number_within(g, g.vertex_mask) == chi
        assert dim_exact(g).value == dim_value


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("bogus")


@pytest.mark.parametrize("name", ["examples", "theorem1", "prop1", "identity"])
def test_fixed_population_suites_pass(name):
    report = run_suite(name)
    assert report["ok"] is True
    assert report["failures"] == 0
    assert report["checked"] == len(report["instances"]) > 0
    assert all(inst["ok"] for inst in report["instances"])


@pytest.mark.parametrize("name", ["theorem2", "lemma2", "corollary1"])
def test_sweep_suites_pass_at_small_cap(name):
    report = run_suite(name, cap=4)
    assert report["ok"] is True
    assert report["failures"] == 0
    assert report["parameters"]["max_n"] == 4
    assert report["checked"] >= 1 + 2 + 8 + 64


def test_oracle_suite_passes_small():
    report = run_suite("oracle")
    assert report["ok"] is True and report["failures"] == 0


def test_examples_suite_content():
    report = run_suite("examples")
    cases = {(inst["case"], inst["metric"]): inst for inst in report["instances"]}
    assert cases[("complete:6", "dim")]["got"] == 3
    assert cases[("kbip:2,3", "subdim")]["got"] == 0
    assert cases[("kbip:3,3", "subdim")]["got"] == 2
    assert cases[("cycle:7", "dim")]["got"] == 1


def test_theorem1_suite_content():
    report = run_suite("theorem1")
    by_metric = {(i["case"], i["metric"]): i["got"] for i in report["instances"]}
    assert by_metric[("cube:4", "dim_via_transitivity")] == 2
    assert by_metric[("cube:4", "half_witness_size")] == 9
    assert by_metric[("cube:4", "half_witness_delta")] == 2


def test_identity_suite_deterministic():
    a = run_suite("identity")
    b = run_suite("identity")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_all_structure_small():
    report = run_all(cap=3)
    assert "oracle" in SUITE_NAMES
    assert [s["suite"] for s in report["suites"]] == list(SUITE_NAMES)
    assert report["ok"] is True
    assert report["checked"] == sum(s["checked"] for s in report["suites"])
