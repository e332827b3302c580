import hashlib
import inspect
import random
import signal
import sys

import pytest
from hypothesis import given, settings, strategies as st

from graphdim import cli, dimension
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
    subsets_of_size,
)
from graphdim.cli import cmd_compute
from graphdim.coloring import chromatic_number
from graphdim.dimension import (
    DimCertificate,
    SubdimCertificate,
    _degree_core,
    _replay_dim,
    _replay_subdim,
    dim_exact,
    subdim,
    subdim_exists,
    subdim_naive,
)
from graphdim.errors import CapExceeded, DomainError

from helpers import Index, random_graph


def _subsets_within(host, s):
    """The s-subsets of the bitset host, in ascending numeric order: the
    s-subsets of {0..h}, h its highest member, that lie within host."""
    return (m for m in subsets_of_size(host.bit_length(), s) if not m & ~host)


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


@pytest.mark.parametrize("host", [1 << 7, -1, cycle_graph(5).vertex_mask | 1 << 5])
@pytest.mark.parametrize("solve", [
    subdim, subdim_naive, lambda g, host: subdim_exists(g, host, 1, 0)],
    ids=["subdim", "subdim_naive", "subdim_exists"])
def test_subdim_refuses_a_host_outside_the_graph(solve, host):
    with pytest.raises(DomainError, match="outside the graph"):
        solve(cycle_graph(5), host)


@pytest.mark.parametrize("solve", [
    subdim, subdim_naive, lambda g, host: subdim_exists(g, host, 3, 1)],
    ids=["subdim", "subdim_naive", "subdim_exists"])
def test_subdim_uses_the_host_as_the_int_the_guard_read(solve):
    g = cycle_graph(5)
    assert solve(g, Index(0b11111)) == solve(g, 0b11111)


def test_replay_uses_the_host_as_the_int_the_guard_read():
    g = cycle_graph(5)
    cert = subdim(g, 0b11110)
    assert _replay_subdim(g, cert, Index(0b11110)) == _replay_subdim(g, cert, 0b11110)


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
        want = next((m for m in _subsets_within(g.vertex_mask, s)
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
        want = next((m for m in _subsets_within(host, s)
                     if max_degree_within(g, m) <= d), None)
        assert got == want


@st.composite
def _decision_cases(draw):
    # sampled_from draws evenly, where integers() favors the ends of its range
    n = draw(st.sampled_from(range(1, 11)))
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n,
                     draw(st.sampled_from([0.3, 0.6, 0.9])))
    host = draw(st.sampled_from(range(1 << n)))
    s = draw(st.sampled_from(range(host.bit_count() + 1)))
    return g, host, s, draw(st.sampled_from(range(g.max_degree() + 1)))


@settings(derandomize=True, database=None, max_examples=300)
@given(_decision_cases())
def test_subdim_exists_is_the_first_fitting_subset_property(case):
    # the candidate cuts, the budgets and the size bound prune only branches
    # without a complete selection: the answer is the first s-subset in
    # numeric order
    g, host, s, d = case
    want = next((m for m in _subsets_within(host, s) if max_degree_within(g, m) <= d), None)
    assert subdim_exists(g, host, s, d) == want


@settings(derandomize=True, database=None, max_examples=300)
@given(_decision_cases())
def test_degree_core_keeps_every_fitting_subset_property(case):
    # a vertex with more than d + |host| - s neighbors in the host lies in no
    # s-subset of max degree <= d, so deleting it, again and again, keeps
    # every such subset; a core smaller than s means there is none
    g, host, s, d = case
    core = _degree_core(g.adj, host, s, d)
    fitting = [m for m in _subsets_within(host, s) if max_degree_within(g, m) <= d]
    assert not core & ~host
    assert all(not m & ~core for m in fitting)
    if core.bit_count() < s:
        assert not fitting


@settings(derandomize=True, database=None, max_examples=300)
@given(_decision_cases())
def test_a_fitting_subset_fits_the_host_of_its_top_two_members_property(case):
    # a fitting s-subset m with top members t > v lies in H = host & {<= t}
    # and in H = {t} | host & {<= v}; a member of m loses at most |H| - s of
    # its neighbors in H, so none has more than d + |H| - s of them: the
    # test subdim_exists applies to each branch's host at its top two picks
    g, host, s, d = case
    for m in _subsets_within(host, s):
        if s < 2 or max_degree_within(g, m) > d:
            continue
        t = m.bit_length() - 1
        v = (m ^ 1 << t).bit_length() - 1
        for h in (host & (2 << t) - 1, 1 << t | host & (2 << v) - 1):
            slack = d + h.bit_count() - s
            assert all((g.adj[u] & h).bit_count() <= slack for u in bits_of(m))


def test_subdim_of_the_5_cube_is_theorem1s_ceil_sqrt_5():
    q5 = hypercube_graph(5)
    assert subdim(q5, q5.vertex_mask) == SubdimCertificate(3, 4161512, 32)
    assert subdim_exists(q5, q5.vertex_mask, 17, 2) is None


def _dense_graphs():
    # one seeded graph for each n = 14..18 and p = 0.6, 0.7, 0.75, 0.8: subdim
    # 4..7, so the scan refutes d = 0..value - 1 before it finds the witness
    rng = random.Random(1919)
    return [random_graph(rng, n, p) for n in range(14, 19) for p in (0.6, 0.7, 0.75, 0.8)]


# sha256 of the subdim(g, V) certificates of the 20 dense graphs, recorded
# before the search pruned by non-neighbor budgets
_DENSE_CERTIFICATES_DIGEST = "0c727b3d9b4772c61ef2093476ced6fe72d10de706cb780cd05c7f64b2b95bc3"


def test_dense_certificates_pinned():
    graphs = _dense_graphs()
    certs = [subdim(g, g.vertex_mask) for g in graphs]
    rows = [(c.value, c.witness_min, c.host_size) for c in certs]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _DENSE_CERTIFICATES_DIGEST
    for i in (3, 11, 19):  # subdim 6, 6 and 7
        g, cert = graphs[i], certs[i]
        assert subdim_exists(g, g.vertex_mask, cert.host_size // 2 + 1, cert.value - 1) is None


def _dense_hosts():
    # one seeded graph for each n = 19, 20 and p = 0.6, 0.7, 0.75, 0.8, with
    # its vertex set and that set less two seeded vertices (one, if they tie)
    rng = random.Random(2020)
    hosts = []
    for n in (19, 20):
        for p in (0.6, 0.7, 0.75, 0.8):
            g = random_graph(rng, n, p)
            hosts.append((g, g.vertex_mask))
            hosts.append((g, g.vertex_mask & ~(1 << rng.randrange(n)) & ~(1 << rng.randrange(n))))
    return hosts


# sha256 of the subdim certificates of the 16 dense hosts, recorded before
# subdim_exists tested each branch's host at its top two picks
_DENSE_HOSTS_CERTIFICATES_DIGEST = (
    "d00b297af0bc2ed8223bac50e421a77d787b9cd4dd957f725a44b22f0bf0ca15")


def test_dense_host_certificates_pinned():
    rows = []
    for g, host in _dense_hosts():
        cert = subdim(g, host)
        rows.append((cert.value, cert.witness_min, cert.host_size))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _DENSE_HOSTS_CERTIFICATES_DIGEST


class _CountedRows(tuple):
    reads = 0

    def __getitem__(self, i):
        _CountedRows.reads += 1
        return tuple.__getitem__(self, i)


def test_dense_scans_read_few_adjacency_rows():
    # the budget bounds, the degree core and the branch hosts' test prune only
    # selection-free branches, so no output shows them; the search's
    # adjacency-row reads do.  Before the budgets the 20 scans read 594,483
    # rows; a budget one too loose reads 35,811 or more; with the budgets
    # but before the degree core, 25,055; with the core but before the
    # branch test, 9,839; with the test at the top pick only, 7,202
    _CountedRows.reads = 0
    for g in _dense_graphs():
        g = Graph._built(g.n, _CountedRows(g.adj))
        subdim(g, g.vertex_mask)
    assert _CountedRows.reads <= 6_681


def test_oracle_reads_few_adjacency_rows():
    # the oracle weighs a candidate only until a member has as many
    # neighbors inside it as the best candidate so far, which no output
    # shows; its row reads do.  Weighing every member of every candidate
    # reads 3,339,336 rows here; stopping only above the incumbent, 721,881
    _CountedRows.reads = 0
    for g in _dense_graphs():
        g = Graph._built(g.n, _CountedRows(g.adj))
        subdim_naive(g, g.vertex_mask)
    assert _CountedRows.reads <= 448_456


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
    # dense hosts that are not the low block 0..m-1: the oracle relabels
    # each to its induced subgraph and maps its witness back
    for _ in range(8):
        n = rng.randint(14, 16)
        g = random_graph(rng, n, rng.uniform(0.6, 0.7))
        host = g.vertex_mask & ~(1 << rng.randrange(n - 1)) & ~(1 << rng.randrange(n - 1))
        assert host != (1 << host.bit_count()) - 1
        assert subdim(g, host) == subdim_naive(g, host)


def _oracle_sample():
    # two hosts for each seeded graph with n = 1..12 and p = 0.3, 0.6, 0.9:
    # the full vertex set and a random nonempty one, mostly non-contiguous
    rng = random.Random(2525)
    sample = []
    for n in range(1, 13):
        for p in (0.3, 0.6, 0.9):
            g = random_graph(rng, n, p)
            sample += [(g, g.vertex_mask), (g, rng.randint(1, g.vertex_mask))]
    return sample


# sha256 of the subdim_naive certificates of _oracle_sample's 72 hosts,
# recorded while the oracle weighed every member of every candidate
_ORACLE_CERTIFICATES_DIGEST = "65b73a8f1bc9ea236648812e31bc387fe429d09d3aea3fd70ead18730ccc2464"


def test_oracle_certificates_pinned():
    certs = [subdim_naive(g, host) for g, host in _oracle_sample()]
    rows = [(c.value, c.witness_min, c.host_size) for c in certs]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _ORACLE_CERTIFICATES_DIGEST


@st.composite
def _oracle_cases(draw):
    n = draw(st.sampled_from(range(1, 11)))
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n,
                     draw(st.sampled_from([0.3, 0.6, 0.9])))
    return g, draw(st.sampled_from(range(1, 1 << n)))


@settings(derandomize=True, database=None, max_examples=300)
@given(_oracle_cases())
def test_oracle_is_the_first_minimum_property(case):
    # the definition read literally: the first majority subset, in numeric
    # order, whose induced max degree is the least
    g, host = case
    m = host.bit_count()
    witness = min(_subsets_within(host, m // 2 + 1), key=lambda c: max_degree_within(g, c))
    assert subdim_naive(g, host) == SubdimCertificate(max_degree_within(g, witness), witness, m)


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
                      for sub in _subsets_within(m, size))
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


@settings(derandomize=True, database=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.5, 0.8]), st.permutations(range(n)))))
def test_dim_relabel_invariant_property(case):
    seed, p, perm = case
    g = random_graph(random.Random(seed), len(perm), p)
    assert dim_exact(relabel(g, perm)).value == dim_exact(g).value


def test_dim_exhaustive_definition_small():
    # literal double enumeration: max over hosts of min over majority subsets;
    # the witness is the first maximizing host by decreasing size, then mask
    rng = random.Random(30)
    sizes = [rng.randint(1, 8) for _ in range(25)] + [9, 9, 9, 10, 10, 10]
    for n in sizes:
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


def _decision_hosts(monkeypatch):
    """The host of every subdim_exists call made through the dimension module."""
    hosts = []

    def recording(g, subset, s, d):
        hosts.append(subset)
        return subdim_exists(g, subset, s, d)

    monkeypatch.setattr(dimension, "subdim_exists", recording)
    return hosts


def test_dim_scans_no_odd_proper_host(monkeypatch):
    hosts = _decision_hosts(monkeypatch)
    for g in (path_graph(11), complete_bipartite_graph(3, 7),
              random_graph(random.Random(32), 10)):
        del hosts[:]
        dim_exact(g)
        proper = [host for host in hosts if host != g.vertex_mask]
        assert proper and all(host.bit_count() % 2 == 0 for host in proper)


def test_dim_of_a_clique_scans_no_proper_host(monkeypatch):
    # subdim(K_n) = floor(n/2) already bounds every proper host of size <= n - 1
    hosts = _decision_hosts(monkeypatch)
    for n in range(1, 14):
        del hosts[:]
        g = complete_graph(n)
        assert dim_exact(g).value == n // 2
        assert hosts and set(hosts) == {g.vertex_mask}


def test_dim_decision_call_counts(monkeypatch):
    # the host scan's cost in decision calls, the same on every machine
    hosts = _decision_hosts(monkeypatch)
    counts = []
    for g in (cycle_graph(9), cycle_graph(16), random_graph(random.Random(32), 12)):
        del hosts[:]
        dim_exact(g)
        counts.append(len(hosts))
    assert counts == [3, 3, 6]


# sha256 of the certificates of test_dim_certificates_pinned's 210 graphs,
# recorded with the exhaustive host scan (a decision call per even host)
_DIM_CERTIFICATES_DIGEST = "cf198d7c81ee3858a5ebfda501d0ba80aeb23b4aeb7c8825e21d0fd9d158baf5"


def test_dim_certificates_pinned():
    # five seeded graphs for each n = 1..14 and p = 0.2, 0.5, 0.8
    rng = random.Random(1201)
    rows = []
    for n in range(1, 15):
        for p in (0.2, 0.5, 0.8):
            for _ in range(5):
                cert = dim_exact(random_graph(rng, n, p))
                inner = cert.inner
                rows.append((cert.value, cert.witness_max, inner.value, inner.witness_min,
                             inner.host_size))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _DIM_CERTIFICATES_DIGEST


# sha256 of the dim_exact certificates of one seeded graph for each
# n = 18, 19, 20 and p = 0.5, 0.7, 0.9, recorded with a host scan that
# enumerated every even size; the closed-form last size fires most here
_DIM_FRONTIER_DIGEST = "cf45b35dfc9fedb93962c5e873d5717fe43b75c6a9d6c0af9ba1154720ae664f"


def test_dim_frontier_certificates_pinned():
    rng = random.Random(1820)
    rows = []
    for n in (18, 19, 20):
        for p in (0.5, 0.7, 0.9):
            g = random_graph(rng, n, p)
            cert = dim_exact(g, cap=g.n)
            inner = cert.inner
            rows.append((cert.value, cert.witness_max, inner.value, inner.witness_min,
                         inner.host_size))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _DIM_FRONTIER_DIGEST


def _mycielski(k):
    """The Mycielski graph M_k (k >= 2) from its edges: M_2 is K_2, and
    M_(k+1) adds a shadow u_i for each vertex v_i of M_k, adjacent to the
    neighbors of v_i, and one vertex adjacent to every shadow."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        edges = (edges + [(u + n, v) for u, v in edges] + [(u, v + n) for u, v in edges]
                 + [(n + i, 2 * n) for i in range(n)])
        n = 2 * n + 1
    return Graph.from_edges(n, edges)


# sha256 of the (host, kind) log of every greedy majority and decision scan
# that dim_exact ran on _walk_sample, recorded with a host loop that tested
# each host, in ascending order, against every settled set
_HOST_WALK_DIGEST = "b5d6cf7ae8b9e6d1bed3841c7b3eac5b314d6b118d54612bc9d59605b256afe8"


def test_host_walk_pinned(monkeypatch):
    # n = 8..16 straddles the 12 low vertices of a block; M4 has dim 2
    # above its subdim(V) = 1, so its loop raises the incumbent
    rng = random.Random(3801)
    graphs = [random_graph(rng, n, p) for n in range(8, 17) for p in (0.3, 0.5, 0.7)
              for _ in range(6)] + [_mycielski(4)]
    log = []
    greedy, scan = dimension._greedy_majority, dimension._subdim_scan

    def greedy_logged(adj, host, s, best):
        log.append((host, "greedy"))
        return greedy(adj, host, s, best)

    def scan_logged(g, host, s, start):
        log.append((host, "scan"))
        return scan(g, host, s, start)

    monkeypatch.setattr(dimension, "_greedy_majority", greedy_logged)
    monkeypatch.setattr(dimension, "_subdim_scan", scan_logged)
    for g in graphs:
        dim_exact(g, cap=g.n)
    assert len(log) == 1599
    assert hashlib.sha256(repr(log).encode()).hexdigest() == _HOST_WALK_DIGEST


# sha256 of the dim_exact certificates of G(22, 0.3), G(24, 0.3) (each
# drawn with random.Random(11)) and M5, recorded with a host loop that
# tested each host against every settled set; test_dim_frontier_certificates_pinned
# covers only p >= 0.5, where few hosts are left to walk
_SPARSE_FRONTIER_DIGEST = "4eb040816c1de450f65583a7b64803fb1d45fd9336a4bef3f48290a679ffde39"


def test_sparse_frontier_certificates_pinned():
    rows = []
    for g in (random_graph(random.Random(11), 22, 0.3), random_graph(random.Random(11), 24, 0.3),
              _mycielski(5)):
        cert = dim_exact(g, cap=g.n)
        inner = cert.inner
        rows.append((cert.value, cert.witness_max, inner.value, inner.witness_min,
                     inner.host_size))
    assert [row[0] for row in rows] == [3, 3, 2]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _SPARSE_FRONTIER_DIGEST


def _lemma_holds(g, host):
    """dim_exact's lemma for a host of size m = 2b + 2: (i) at least b + 1
    members are adjacent to every other member, or (ii) b is odd and every
    member is non-adjacent to at most one other."""
    b = host.bit_count() // 2 - 1
    missed = [(host & ~g.adj[v]).bit_count() - 1 for v in bits_of(host)]
    return missed.count(0) >= b + 1 or (b % 2 == 1 and max(missed) <= 1)


_LEMMA_GRAPHS = [random_graph(random.Random(f"{n}/{p}/{k}"), n, p)
                 for n in range(2, 11) for p in (0.3, 0.5, 0.7, 0.85, 0.95, 1.0)
                 for k in range(2)]


def test_last_host_size_lemma():
    # subdim of a host of size 2b + 2 is at most b + 1, and b + 1 exactly
    # when the lemma holds
    held = 0
    for g in _LEMMA_GRAPHS:
        for host in range(3, 1 << g.n):
            m = host.bit_count()
            if m % 2 == 0:
                value = subdim_naive(g, host).value
                assert value <= m // 2
                assert (value == m // 2) == _lemma_holds(g, host)
                held += value == m // 2
    assert held


def test_last_host_size_finder_returns_the_first_host():
    for g in _LEMMA_GRAPHS:
        for b in range(g.n // 2):
            m = 2 * b + 2
            first = next((host for host in subsets_of_size(g.n, m)
                          if subdim_naive(g, host).value == b + 1), None)
            assert dimension._last_class_host(g, b) == first


def _clique_and_a_vertex(k):
    """K_2k plus an isolated vertex: dim k, decided at the last host size."""
    return Graph(2 * k + 1, complete_graph(2 * k).adj + (0,))


def _within(seconds, call):
    """call(), failing the test once it has run for `seconds`."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("k", [12, 14])
def test_the_last_size_host_is_its_own_certificate(k):
    # the lemma's host, the K_2k, needs no search: its witness is its lowest
    # k + 1 vertices.  Walking every tied clique took 6.1 s at k = 12 and
    # over a minute at k = 14.
    g = _clique_and_a_vertex(k)
    cert = _within(1.0, lambda: dim_exact(g, cap=g.n))
    assert cert == DimCertificate(value=k, witness_max=(1 << 2 * k) - 1, inner=SubdimCertificate(
        value=k, witness_min=(1 << k + 1) - 1, host_size=2 * k))
    assert _replay_subdim(g, cert.inner, cert.witness_max)["ok"]


def test_clique_host_search_runs_deeper_than_the_recursion_limit():
    k = 1100  # a clique of k members is k levels deep
    assert k > sys.getrecursionlimit()
    assert dimension._first_clique_host(_clique_and_a_vertex(k), k) == (1 << 2 * k) - 1


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


# ---------------------------------------------------------------------------
# certificate replays
# ---------------------------------------------------------------------------

_P6 = path_graph(6)  # subdim(V) = 1, witness {0, 1, 3, 4}
_K23 = complete_bipartite_graph(2, 3)  # dim 2, host {0, 1, 2, 3}, inner witness {0, 1, 2}


def test_reported_certificates_replay_ok():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        host = rng.getrandbits(n) or g.vertex_mask
        for cert in (subdim(g, host), subdim_naive(g, host)):
            assert _replay_subdim(g, cert, host) == {
                "witness_max_degree": cert.value, "ok": True}
        cert = dim_exact(g)
        assert _replay_dim(g, cert) == {"witness_max_degree": cert.value,
                                        "subdim_of_witness_max": cert.value, "ok": True}


@pytest.mark.parametrize("host,cert", [
    pytest.param(_P6.vertex_mask, SubdimCertificate(1, mask_of([0, 1, 3]), 6),
                 id="one-vertex-short"),
    pytest.param(_P6.vertex_mask, SubdimCertificate(0, 0, 6), id="empty-witness"),
    pytest.param(mask_of([0, 1, 2, 3]), SubdimCertificate(1, mask_of([0, 1, 5]), 4),
                 id="vertex-outside-host"),
    pytest.param(_P6.vertex_mask, SubdimCertificate(0, mask_of([0, 1, 3, 4]), 6),
                 id="value-below-delta"),
    pytest.param(_P6.vertex_mask, SubdimCertificate(1, mask_of([0, 1, 3, 4]), 5),
                 id="wrong-host-size"),
])
def test_subdim_replay_refuses_a_planted_certificate(host, cert):
    assert _replay_subdim(_P6, cert, host)["ok"] is False


_K23_DIM = dim_exact(_K23)
_K23_OUTSIDE = _K23_DIM._replace(  # inner witness {0, 1, 4}: same size and max degree
    inner=_K23_DIM.inner._replace(witness_min=mask_of([0, 1, 4])))


@pytest.mark.parametrize("g,cert", [
    pytest.param(_P6, DimCertificate(1, _P6.vertex_mask,
                                     SubdimCertificate(2, mask_of([0, 1, 3, 4]), 6)),
                 id="inner-value"),
    pytest.param(_P6, DimCertificate(1, _P6.vertex_mask,
                                     SubdimCertificate(1, mask_of([0, 1, 3, 4]), 5)),
                 id="inner-host-size"),
    pytest.param(_K23, _K23_OUTSIDE, id="inner-witness-outside-host"),
    pytest.param(_P6, DimCertificate(2, _P6.vertex_mask,
                                     SubdimCertificate(2, mask_of([0, 1, 2, 3]), 6)),
                 id="value-above-oracle"),
])
def test_dim_replay_refuses_a_planted_certificate(g, cert):
    assert _replay_dim(g, cert)["ok"] is False
    assert cli._dim_entry(g, cert)["replay"]["ok"] is False


def test_the_planted_dim_certificates_start_from_a_good_one():
    assert _K23_DIM == DimCertificate(2, mask_of([0, 1, 2, 3]),
                                      SubdimCertificate(2, mask_of([0, 1, 2]), 4))
    assert max_degree_within(_K23, mask_of([0, 1, 4])) == 2
    assert _replay_dim(_K23, _K23_DIM)["ok"] is True


def test_replays_refuse_an_empty_host():
    with pytest.raises(DomainError, match="empty host"):
        _replay_subdim(_P6, SubdimCertificate(0, 0, 0), 0)
