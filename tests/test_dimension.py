import inspect
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from graphdim import dimension
from graphdim.core import (
    Graph,
    bits_of,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    hypercube_graph,
    induced_subgraph,
    mask_of,
    max_degree_within,
    path_graph,
    relabel,
    subsets_of_mask,
)
from graphdim.cli import cmd_compute
from graphdim.coloring import chromatic_number
from graphdim.dimension import (
    dim_exact,
    subdim,
    subdim_exists,
    subdim_naive,
)
from graphdim.errors import CapExceeded, DomainError

from helpers import random_graph


# ---------------------------------------------------------------------------
# subdim oracle on worked examples
# ---------------------------------------------------------------------------

def test_subdim_naive_complete5():
    g = complete_graph(5)
    assert subdim_naive(g, g.vertex_mask).value == 2


def test_subdim_naive_cycle5_with_witness():
    g = cycle_graph(5)
    cert = subdim_naive(g, g.vertex_mask)
    assert cert.value == 1
    assert cert.witness_min == mask_of([0, 1, 3])
    assert cert.host_size == 5


def test_subdim_naive_unbalanced_bipartite_is_degenerate():
    g = complete_bipartite_graph(2, 3)
    assert subdim_naive(g, g.vertex_mask).value == 0


def test_subdim_naive_singleton():
    g = path_graph(1)
    cert = subdim_naive(g, 1)
    assert cert.value == 0 and cert.witness_min == 1


def test_subdim_empty_host_rejected():
    g = path_graph(3)
    with pytest.raises(DomainError):
        subdim_naive(g, 0)
    with pytest.raises(DomainError):
        subdim(g, 0)


# ---------------------------------------------------------------------------
# the decision search
# ---------------------------------------------------------------------------

def test_subdim_exists_cycle4():
    g = cycle_graph(4)
    assert subdim_exists(g, g.vertex_mask, 3, 1) is None
    witness = subdim_exists(g, g.vertex_mask, 3, 2)
    assert witness is not None and witness.bit_count() == 3


def test_subdim_exists_hypercube4_level1_absent():
    g = hypercube_graph(4)
    assert subdim_exists(g, g.vertex_mask, 9, 1) is None


def test_subdim_exists_degenerate_arguments():
    g = path_graph(4)
    assert subdim_exists(g, g.vertex_mask, 0, 0) == 0
    assert subdim_exists(g, g.vertex_mask, 2, -1) is None
    assert subdim_exists(g, g.vertex_mask, 0, -1) is None
    with pytest.raises(DomainError):
        subdim_exists(g, g.vertex_mask, 5, 1)


def test_subdim_exists_returns_smallest_mask():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.6]))
        s = rng.randint(1, n)
        d = rng.randint(0, 3)
        got = subdim_exists(g, g.vertex_mask, s, d)
        want = next((m for m in subsets_of_mask(g.vertex_mask, s)
                     if max_degree_within(g, m) <= d), None)
        assert got == want
    # arbitrary, usually non-contiguous hosts: members are indexed apart
    # from vertex ids, and every d up to the maximum degree
    for _ in range(1000):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
        host = rng.randint(1, g.vertex_mask)
        s = rng.randint(0, host.bit_count())
        d = rng.randint(0, g.max_degree())
        got = subdim_exists(g, host, s, d)
        want = next((m for m in subsets_of_mask(host, s)
                     if max_degree_within(g, m) <= d), None)
        assert got == want


def test_searches_do_not_recurse_per_vertex():
    # 201 chosen members and 1201 placed vertices, a few frames of headroom
    g = Graph.from_edges(400, [])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        witness = subdim_exists(g, g.vertex_mask, 201, 0)
        chi = chromatic_number(cycle_graph(1201), cap=2000)[0]
    finally:
        sys.setrecursionlimit(limit)
    assert witness == (1 << 201) - 1
    assert chi == 3


def test_subdim_of_an_edgeless_host_beyond_512_vertices():
    g = Graph.from_edges(1201, [])
    cert = subdim(g, g.vertex_mask)
    assert (cert.value, cert.witness_min, cert.host_size) == (0, (1 << 601) - 1, 1201)


def test_subdim_matches_known_values():
    q3 = hypercube_graph(3)
    assert subdim(q3, q3.vertex_mask).value == 2
    k33 = complete_bipartite_graph(3, 3)
    assert subdim(k33, k33.vertex_mask).value == 2


def test_subdim_path6_witness_pattern():
    g = path_graph(6)
    cert = subdim(g, g.vertex_mask)
    assert cert.value == 1
    assert cert.witness_min == mask_of([0, 1, 3, 4])


def test_certificates_replay():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        host = 0
        while host == 0:
            host = rng.getrandbits(n) or 1
        cert = subdim(g, host)
        assert cert.witness_min & ~host == 0
        assert cert.witness_min.bit_count() == host.bit_count() // 2 + 1
        assert max_degree_within(g, cert.witness_min) == cert.value


# ---------------------------------------------------------------------------
# oracle equivalence (the dual route)
# ---------------------------------------------------------------------------

def test_oracle_equivalence_random_graphs():
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        host = 0
        while host == 0:
            host = rng.getrandbits(n) or 1
        assert subdim(g, host) == subdim_naive(g, host)
    # dense hosts above n = 10, where the scan refutes d = 0 and up first
    for _ in range(8):
        n = rng.randint(14, 16)
        g = random_graph(rng, n, rng.uniform(0.6, 0.7))
        cert = subdim(g, g.vertex_mask)
        assert cert.value >= 2
        assert cert == subdim_naive(g, g.vertex_mask)


def test_oracle_equivalence_families():
    graphs = [path_graph(7), cycle_graph(8), complete_graph(6),
              complete_bipartite_graph(3, 4), hypercube_graph(3)]
    for g in graphs:
        assert subdim(g, g.vertex_mask) == subdim_naive(g, g.vertex_mask)


def test_subdim_at_most_max_degree():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        host = rng.getrandbits(n) or 1
        assert subdim(g, host).value <= max_degree_within(g, host)


def test_minimum_over_all_larger_sizes_is_attained_at_threshold():
    # enumerate every subset of size >= floor(m/2)+1, not only the threshold size
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.6]))
        m = g.vertex_mask
        s = n // 2 + 1
        overall = min(max_degree_within(g, sub)
                      for size in range(s, n + 1)
                      for sub in subsets_of_mask(m, size))
        assert overall == subdim(g, m).value


# ---------------------------------------------------------------------------
# dim_exact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(4, 11))
def test_dim_paths(n):
    assert dim_exact(path_graph(n)).value == 1


@pytest.mark.parametrize("n", range(5, 11))
def test_dim_cycles(n):
    assert dim_exact(cycle_graph(n)).value == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_dim_complete(n):
    assert dim_exact(complete_graph(n)).value == n // 2


def test_dim_complete_bipartite():
    for m in range(1, 6):
        for n in range(m, 6):
            assert dim_exact(complete_bipartite_graph(m, n)).value == m // 2 + 1


def test_dim_small_hypercubes():
    assert dim_exact(hypercube_graph(2)).value == 2
    assert dim_exact(hypercube_graph(3)).value == 2


def test_dim_edgeless():
    g = Graph(5, (0,) * 5)
    cert = dim_exact(g)
    assert cert.value == 0
    assert cert.witness_max == g.vertex_mask


def test_dim_empty_graph():
    cert = dim_exact(Graph(0, ()))
    assert cert.value == 0 and cert.witness_max == 0 and cert.inner is None


def test_dim_certificate_replays():
    rng = random.Random(26)
    for _ in range(50):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.6]))
        cert = dim_exact(g)
        assert subdim(g, cert.witness_max).value == cert.value
        assert cert.inner.witness_min & ~cert.witness_max == 0
        assert max_degree_within(g, cert.inner.witness_min) == cert.value


def test_dim_nonzero_iff_any_edge():
    rng = random.Random(27)
    for _ in range(80):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.0, 0.15, 0.5]))
        assert (dim_exact(g).value >= 1) == (g.edge_count() > 0)


def test_dim_monotone_under_induced_subgraphs():
    rng = random.Random(28)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.6]))
        large = rng.getrandbits(n) or 1
        small = large & (rng.getrandbits(n) or 1)
        if small == 0:
            small = 1 << bits_of(large)[0]
        dim_small = dim_exact(induced_subgraph(g, small)).value
        dim_large = dim_exact(induced_subgraph(g, large)).value
        assert dim_small <= dim_large


def test_dim_isomorphism_invariant():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert dim_exact(relabel(g, perm)).value == dim_exact(g).value


def test_dim_exhaustive_definition_small():
    # literal double enumeration: max over hosts of min over majority subsets;
    # the witness is the first maximizing host by decreasing size, then mask
    rng = random.Random(30)
    for _ in range(25):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        hosts = sorted(range(1, 1 << n), key=lambda host: (-host.bit_count(), host))
        values = [subdim_naive(g, host).value for host in hosts]
        literal = max(values)
        cert = dim_exact(g)
        assert cert.value == literal
        assert cert.witness_max == hosts[values.index(literal)]
        assert cert.inner == subdim_naive(g, cert.witness_max)


@settings(derandomize=True, database=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.5, 0.8]),
    st.sampled_from(range(1, n, 2)), st.permutations(range(n)))))
def test_odd_host_grows_by_one_vertex_property(case):
    # why dim_exact scans no odd proper host: adding any outside vertex u
    # to an odd host S cannot lower subdim, and S+u is scanned before S
    seed, p, size, order = case
    g = random_graph(random.Random(seed), len(order), p)
    host = mask_of(order[:size])
    grown = host | 1 << order[size]
    assert subdim_naive(g, grown).value >= subdim_naive(g, host).value


def test_dim_scans_no_odd_proper_host(monkeypatch):
    hosts = []

    def recording(g, subset, s, d):
        hosts.append(subset)
        return subdim_exists(g, subset, s, d)

    monkeypatch.setattr(dimension, "subdim_exists", recording)
    for g in (cycle_graph(9), complete_graph(10), random_graph(random.Random(32), 10)):
        del hosts[:]
        dim_exact(g)
        proper = [host for host in hosts if host != g.vertex_mask]
        assert proper and all(host.bit_count() % 2 == 0 for host in proper)


def test_dim_cap_enforced():
    g = Graph(17, (0,) * 17)
    with pytest.raises(CapExceeded):
        dim_exact(g)
    assert dim_exact(g, cap=17).value == 0


# the bounds entry of a compute report: subdim of V <= dim <= max degree

def _bounds(spec):
    bounds = cmd_compute(spec, "all")["results"]["bounds"]
    return bounds["lower"], bounds["upper"]


def test_dim_bounds_examples(tmp_path):
    assert _bounds("kbip:2,3") == (0, 3)
    assert _bounds("complete:6") == (3, 5)
    assert _bounds("cycle:5") == (1, 2)
    empty = tmp_path / "empty.txt"
    empty.write_text("0\n")
    assert _bounds(str(empty)) == (0, 0)


def test_dim_bounds_sandwich(tmp_path):
    rng = random.Random(31)
    path = tmp_path / "g.txt"
    for _ in range(50):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        path.write_text(format_edge_list(g))
        lo, hi = _bounds(str(path))
        value = dim_exact(g).value
        assert lo == subdim(g, g.vertex_mask).value
        assert hi == g.max_degree()
        assert lo <= value <= hi


# ---------------------------------------------------------------------------
# half witnesses
# ---------------------------------------------------------------------------

def test_half_witness_path4():
    g = path_graph(4)
    w = subdim(g, g.vertex_mask).witness_min
    assert w == mask_of([0, 1, 3])
    assert max_degree_within(g, w) == 1


def test_half_witness_clique():
    g = complete_graph(4)
    w = subdim(g, g.vertex_mask).witness_min
    assert w.bit_count() == 3
    assert max_degree_within(g, w) == 2


def test_half_witness_hypercube3():
    g = hypercube_graph(3)
    w = subdim(g, g.vertex_mask).witness_min
    assert w.bit_count() == 5
    assert max_degree_within(g, w) == 2
    assert subdim_exists(g, g.vertex_mask, 5, 1) is None
