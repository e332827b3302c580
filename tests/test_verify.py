import hashlib
import json

import pytest

from graphdim import coloring, verify
from graphdim.coloring import chromatic_number_within
from graphdim.core import Graph, encode_graph6
from graphdim.dimension import _dim_search, subdim, subdim_naive
from graphdim.errors import CapExceeded, DomainError
from graphdim.verify import (
    SUITE_NAMES,
    enumerate_labeled_graphs,
    run_all,
    run_suite,
)
from graphdim.verify import _sweep_stats

from helpers import Index


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


def test_enumeration_refuses_a_negative_size():
    with pytest.raises(DomainError, match="vertex count must be >= 0"):
        next(enumerate_labeled_graphs(-1))


def test_enumeration_checks_its_argument_at_the_call():
    # no next(): the checks run before the generator is returned
    with pytest.raises(CapExceeded, match="supports n <= 6, got 99"):
        enumerate_labeled_graphs(99)
    with pytest.raises(DomainError, match="vertex count must be >= 0, got -1"):
        enumerate_labeled_graphs(-1)


def test_sweep_stats_consistent():
    stats = _sweep_stats(4)
    assert len(stats) == 64
    for want, (g, g6, _, full, _) in zip(enumerate_labeled_graphs(4), stats):
        assert g == want
        assert encode_graph6(g) == g6
        assert subdim(g, g.vertex_mask) == full
    # chi and dim, read from the minors, against the exact coloring and the
    # host loop: every graph with n <= 5, and a fixed sample at n = 6
    records = [r for n in range(1, 6) for r in _sweep_stats(n)] + _sweep_stats(6)[::97]
    assert len(records) == 1099 + 338
    for g, _, chi, full, dim_value in records:
        assert chi == chromatic_number_within(g, g.vertex_mask)
        assert dim_value == _dim_search(g, full).value
    # the samples at n = 5 and 6 against the literal max over hosts
    for n in (5, 6):
        for g, _, _, _, dim_value in _sweep_stats(n)[::97]:
            assert dim_value == max(subdim_naive(g, host).value for host in range(1, 1 << n))


def test_sweep_makes_one_chi_decision_and_no_host_loop_per_graph(monkeypatch):
    decisions = 0
    real_decision = coloring._color_decision

    def counting_decision(adj, order, k):
        nonlocal decisions
        decisions += 1
        return real_decision(adj, order, k)

    def no_host_loop(g, full):
        raise AssertionError("the sweep ran the host loop")

    monkeypatch.setattr(verify, "_color_decision", counting_decision)
    monkeypatch.setattr(coloring, "_color_decision", counting_decision)
    monkeypatch.setattr(verify, "_dim_search", no_host_loop)
    _sweep_stats.cache_clear()
    try:
        for n in range(1, 5):
            _sweep_stats(n)
    finally:
        _sweep_stats.cache_clear()  # drop records built under the patches
    assert decisions == 1 + 2 + 8 + 64


# sha256 of the compact sorted-key JSON of run_suite(name, cap) plus a newline
_SUITE_DIGESTS = {
    ("examples", None): "aae663a1e8dc872d4ea28a6f1bee1ea882ad968ba3fea4e3ef587413e13666e5",
    ("oracle", None): "e6b2e43918fc146c95f6010c2e2b161ec6468526b03cac1e35198367dcc59e31",
    ("theorem2", 4): "eccd8688925c2df65a9bdeb105c486d79a601ab098998c4ba87ce4dfc9477a58",
    ("lemma2", 4): "5d99c50afaac39ea29cfaf43b6d3b8adf95f392b2ee5134301cde2d2df8e55fd",
    ("corollary1", 4): "447991443074f48c3167218217dc69d9c6db3ac92868e5e6b12a50b05324542e",
    ("identity", None): "8e350f7cc89feb972ae8dd9f0ddeea4b621ec2636c32c8a1acf604aae4f1f1a7",
}


@pytest.mark.parametrize("name,cap", list(_SUITE_DIGESTS))
def test_suite_report_digests(name, cap):
    text = json.dumps(run_suite(name, cap), sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _SUITE_DIGESTS[name, cap]


def test_sweep_suites_enumerate_and_solve_each_graph_once(monkeypatch):
    enumerations = 0
    full_subdims = 0
    real_enumerate = verify.enumerate_labeled_graphs

    def counting_enumerate(n):
        nonlocal enumerations
        enumerations += 1
        return real_enumerate(n)

    def counting_subdim(g, subset):
        nonlocal full_subdims
        full_subdims += subset == g.vertex_mask
        return subdim(g, subset)

    monkeypatch.setattr(verify, "enumerate_labeled_graphs", counting_enumerate)
    monkeypatch.setattr(verify, "subdim", counting_subdim)
    monkeypatch.setattr(coloring, "subdim", counting_subdim)
    _sweep_stats.cache_clear()
    try:
        for name in ("theorem2", "lemma2", "corollary1"):
            assert run_suite(name, 4)["ok"] is True
    finally:
        _sweep_stats.cache_clear()  # drop records built under the patches
    assert enumerations == 4
    assert full_subdims == 1 + 2 + 8 + 64


@pytest.mark.parametrize("env_cap", ["2", "abc"])
def test_verify_ignores_the_cap_environment_variable(env_cap, monkeypatch):
    monkeypatch.delenv("GRAPHDIM_CAP", raising=False)
    _sweep_stats.cache_clear()
    want = run_all(3)
    monkeypatch.setenv("GRAPHDIM_CAP", env_cap)
    _sweep_stats.cache_clear()
    assert run_all(3) == want


def _refuse(*args):
    raise AssertionError("work began before the sweep size was checked")


@pytest.mark.parametrize("name", ["theorem2", "lemma2", "corollary1"])
def test_sweep_size_checked_before_any_work(name, monkeypatch):
    monkeypatch.setattr(verify, "enumerate_labeled_graphs", _refuse)
    with pytest.raises(CapExceeded):
        run_suite(name, 7)
    with pytest.raises(DomainError):
        run_suite(name, 0)


@pytest.mark.parametrize("name", ["examples", "theorem1", "prop1", "identity", "oracle"])
def test_fixed_population_suites_check_sweep_size_before_running(name, monkeypatch):
    monkeypatch.setitem(verify._SUITES, name, _refuse)
    with pytest.raises(CapExceeded):
        run_suite(name, 7)
    with pytest.raises(DomainError):
        run_suite(name, 0)


def test_run_all_checks_sweep_size_before_any_suite(monkeypatch):
    monkeypatch.setattr(verify, "_SUITES", dict.fromkeys(SUITE_NAMES, _refuse))
    with pytest.raises(CapExceeded):
        run_all(7)
    with pytest.raises(DomainError):
        run_all(0)


@pytest.mark.parametrize("name", ["theorem2", "examples"])
def test_suites_receive_the_checked_sweep_size_as_an_int(name, monkeypatch):
    received = []

    def recorder(max_n):
        received.append(max_n)
        return {}, [{"ok": True}]

    monkeypatch.setitem(verify._SUITES, name, recorder)
    assert run_suite(name, Index(4))["ok"] is True
    assert run_suite(name)["ok"] is True
    assert received == [4, 6] and all(type(max_n) is int for max_n in received)


def test_suite_name_of_another_class_is_refused():
    with pytest.raises(DomainError, match=r"^suite must be a str, got \['x'\]$"):
        run_suite(["x"])


def test_empty_audit_fails():
    report = verify._suite_report("empty", {}, [])
    assert report["checked"] == 0 and report["ok"] is False


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


def test_oracle_suite_fails_a_witness_that_is_not_a_majority(monkeypatch):
    # both routes agree on a witness one vertex short, so only its replay refuses it
    def short(g, subset):
        cert = subdim_naive(g, subset)
        return cert._replace(witness_min=cert.witness_min & (cert.witness_min - 1))

    monkeypatch.setattr(verify, "subdim", short)
    monkeypatch.setattr(verify, "subdim_naive", short)
    report = run_suite("oracle")
    assert report["ok"] is False
    assert all(inst["witness_match"] for inst in report["instances"])
    assert report["failures"] == report["checked"]


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
