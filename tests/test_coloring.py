import hashlib
import itertools
import json
import random

import pytest

import graphdim.coloring as coloring
from graphdim.coloring import (
    Coloring,
    chromatic_bound_from_dim,
    chromatic_number,
    chromatic_number_within,
    critical_subgraph,
    decomposition_coloring,
    decomposition_round_bound,
    greedy_coloring,
    is_proper,
)
from graphdim.core import (
    Graph,
    bits_of,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    mask_of,
    max_degree_within,
    path_graph,
)
from graphdim.dimension import dim_exact
from graphdim.errors import CapExceeded, DomainError

from helpers import random_graph


# ---------------------------------------------------------------------------
# coloring data type
# ---------------------------------------------------------------------------

def test_coloring_rejects_gaps():
    with pytest.raises(DomainError):
        Coloring((0, 2))
    with pytest.raises(DomainError):
        Coloring((1, 2))
    with pytest.raises(DomainError):
        Coloring((0, -1))
    with pytest.raises(DomainError):
        Coloring(("a",))
    with pytest.raises(DomainError):
        Coloring((0.0, 1))  # equal to the ids 0 and 1, but no list index
    with pytest.raises(DomainError, match="colors must be a sequence of color ids, got None"):
        Coloring(None)


def test_coloring_palette_size_counts_the_colors():
    assert Coloring(()).palette_size == 0
    assert Coloring((1, 0, 1)).palette_size == 2


def test_coloring_keeps_a_tuple_of_colors():
    col = Coloring([0, 1])
    assert type(col.colors) is tuple
    assert col == Coloring((0, 1)) and hash(col) == hash(Coloring((0, 1)))
    colors = (1, 0)
    assert Coloring(colors).colors is colors  # a tuple is kept, not copied


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: chromatic_number_within(cycle_graph(5), 1 << 5),
                 "outside the graph", id="chromatic_number_within-outside"),
    pytest.param(lambda: chromatic_number_within(cycle_graph(5), -1),
                 "outside the graph", id="chromatic_number_within-negative"),
    pytest.param(lambda: critical_subgraph(Graph(0, ())), "empty graph",
                 id="critical_subgraph-empty"),
    pytest.param(lambda: is_proper(cycle_graph(5), 5),
                 "colors must be a sequence of color ids, got 5", id="is_proper-int"),
    pytest.param(lambda: is_proper(cycle_graph(5), [[0]] * 5),
                 r"colors must be a sequence of color ids, got \(\[0\],",
                 id="is_proper-unhashable"),
    pytest.param(lambda: greedy_coloring(cycle_graph(5), 5),
                 "order must be a permutation of 0..n-1, got 5", id="greedy_coloring-int"),
])
def test_coloring_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_is_proper_is_false_for_a_coloring_of_the_wrong_length():
    g = path_graph(3)
    assert is_proper(g, (0, 1, 0))
    assert not is_proper(g, (0, 1))
    assert not is_proper(g, (0, 1, 0, 1))


def test_is_proper_finds_a_planted_monochromatic_edge():
    rng = random.Random(18)
    g = random_graph(rng, 300, 0.05)
    colors = greedy_coloring(g, range(g.n)).colors
    assert is_proper(g, colors)
    edges = list(g.edges())
    for u, v in (edges[0], edges[-1], rng.choice(edges)):
        planted = list(colors)
        planted[v] = planted[u]
        assert not is_proper(g, planted)


def test_is_proper_takes_any_hashable_labels():
    g = cycle_graph(4)
    assert is_proper(g, ["red", "blue", "red", "blue"])
    assert not is_proper(g, ["red", "blue", "blue", "red"])
    assert is_proper(g, iter([(0,), "x", (0,), "x"]))
    assert not is_proper(g, ("a", "b", "a"))


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------

def test_greedy_cycle5():
    g = cycle_graph(5)
    col = greedy_coloring(g, range(5))
    assert is_proper(g, col.colors)
    assert col.palette_size <= 3


def test_greedy_clique_uses_exactly_n():
    g = complete_graph(4)
    for order in itertools.permutations(range(4)):
        assert greedy_coloring(g, order).palette_size == 4


def test_greedy_edgeless_single_color():
    g = Graph(6, (0,) * 6)
    assert greedy_coloring(g, range(6)).palette_size == 1


def test_greedy_requires_permutation():
    g = path_graph(3)
    for order in ([0, 1], [0, 1, 1], [0.0, 1, 2], [0, "1", 2], [0, None, 2]):
        with pytest.raises(DomainError):
            greedy_coloring(g, order)


def test_greedy_within_max_degree_plus_one():
    rng = random.Random(40)
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        col = greedy_coloring(g, order)
        assert is_proper(g, col.colors)
        assert col.palette_size <= g.max_degree() + 1


# sha256 of the JSON list of greedy_coloring's colors over 12 seeded graphs,
# n = 50, 100, ..., 300 at densities 0.05 and 0.5, each in the identity order
# and then in a shuffled order (palettes of up to 52 colors)
_GREEDY_DIGEST = "f883c65f8dd51c50d7b5d079021af1aa1b1ece26e70bc3b86863e99dfa255d5c"


def test_greedy_colorings_pinned():
    rng = random.Random(50)
    colorings = []
    for n in range(50, 301, 50):
        for p in (0.05, 0.5):
            g = random_graph(rng, n, p)
            order = list(range(n))
            colorings.append(list(greedy_coloring(g, order).colors))
            rng.shuffle(order)
            colorings.append(list(greedy_coloring(g, order).colors))
    text = json.dumps(colorings)
    assert hashlib.sha256(text.encode()).hexdigest() == _GREEDY_DIGEST


# ---------------------------------------------------------------------------
# exact chromatic number
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,want", [
    (cycle_graph(5), 3),
    (complete_bipartite_graph(3, 3), 2),
    (hypercube_graph(3), 2),
    (complete_graph(6), 6),
    (path_graph(7), 2),
    (cycle_graph(6), 2),
    (Graph(4, (0,) * 4), 1),
    (Graph(0, ()), 0),
])
def test_chromatic_known_values(g, want):
    k, col = chromatic_number(g)
    assert k == want
    assert is_proper(g, col.colors)
    assert col.palette_size == k


def test_chromatic_never_beats_greedy():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        k, _ = chromatic_number(g)
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            assert k <= greedy_coloring(g, order).palette_size


# sha256 of the JSON list [[k, colors], ...] of chromatic_number over 240
# seeded graphs, n = 9..16 at densities 0.3, 0.5 and 0.8; 40 of them take
# their coloring from the backtracking decision rather than from greedy
_CHROMATIC_DIGEST = "bd7c882b2b468b7fb4da854ef24de57bf40a325ee03356a9a19349840c2d6bf5"


def test_chromatic_colorings_pinned():
    rng = random.Random(43)
    graphs = [random_graph(rng, n, p)
              for n in range(9, 17) for p in (0.3, 0.5, 0.8) for _ in range(10)]
    text = json.dumps([[k, list(col.colors)] for k, col in map(chromatic_number, graphs)])
    assert hashlib.sha256(text.encode()).hexdigest() == _CHROMATIC_DIGEST


def test_chromatic_cap():
    with pytest.raises(CapExceeded):
        chromatic_number(Graph(17, (0,) * 17))


def _chi_by_partitions(g, subset):
    """Fewest blocks over every partition of `subset` into independent sets."""
    best = subset.bit_count()

    def extend(rest, blocks):
        nonlocal best
        if not rest:
            best = min(best, len(blocks))
            return
        v, bit = rest[0], 1 << rest[0]
        for i, block in enumerate(blocks):
            if g.adj[v] & block == 0:
                extend(rest[1:], blocks[:i] + [block | bit] + blocks[i + 1:])
        extend(rest[1:], blocks + [bit])

    extend(bits_of(subset), [])
    return best


def test_chromatic_matches_partition_oracle():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        chi = _chi_by_partitions(g, g.vertex_mask)
        assert chromatic_number(g)[0] == chi
        for _ in range(8):
            sub = rng.getrandbits(n)
            assert chromatic_number_within(g, sub) == _chi_by_partitions(g, sub)
        core = critical_subgraph(g)
        assert _chi_by_partitions(g, core) == chi
        for v in bits_of(core):
            assert _chi_by_partitions(g, core ^ (1 << v)) == chi - 1


def test_chromatic_within_respects_subset():
    g = cycle_graph(5)
    assert chromatic_number_within(g, g.vertex_mask) == 3
    assert chromatic_number_within(g, mask_of([0, 1, 2, 3])) == 2
    assert chromatic_number_within(g, 0) == 0


# ---------------------------------------------------------------------------
# critical subgraphs
# ---------------------------------------------------------------------------

def test_critical_odd_cycle_is_itself():
    g = cycle_graph(5)
    assert critical_subgraph(g) == g.vertex_mask


def test_critical_strips_pendant_from_clique():
    g = Graph.from_edges(5, list(itertools.combinations(range(4), 2)) + [(0, 4)])
    assert critical_subgraph(g) == mask_of([0, 1, 2, 3])


def test_critical_star_leaves_one_edge():
    g = complete_bipartite_graph(1, 3)
    core = critical_subgraph(g)
    assert core.bit_count() == 2
    assert max_degree_within(g, core) == 1  # an edge


def test_critical_preserves_chi_and_is_critical():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        chi = chromatic_number_within(g, g.vertex_mask)
        core = critical_subgraph(g)
        assert chromatic_number_within(g, core) == chi
        for v in bits_of(core):
            assert chromatic_number_within(g, core ^ (1 << v)) == chi - 1


def test_a_13_cycle_is_already_critical():
    # a 13-cycle: each vertex is decided once and none can be removed
    g = Graph.from_edges(13, [(i, i + 1) for i in range(12)] + [(12, 0)])
    core = critical_subgraph(g)
    assert chromatic_number_within(g, core) == 3
    assert core == g.vertex_mask  # odd cycles are already critical


# sha256 of the JSON list of critical_subgraph masks over 144 seeded graphs,
# n = 1..16 at densities 0.3, 0.5 and 0.8; 124 of the masks are proper subsets
_CRITICAL_DIGEST = "c97dd277916ad21144ea4b2c9ca2d8a3e640f26054c09eab3eb85211a0c4270a"


def test_critical_subgraphs_pinned():
    rng = random.Random(48)
    graphs = [random_graph(rng, n, p)
              for n in range(1, 17) for p in (0.3, 0.5, 0.8) for _ in range(3)]
    text = json.dumps([critical_subgraph(g) for g in graphs])
    assert hashlib.sha256(text.encode()).hexdigest() == _CRITICAL_DIGEST


def test_critical_subgraph_one_decision_per_vertex(monkeypatch):
    # chi of V once, as chromatic_number_within computes it, then one
    # (chi - 1)-coloring decision per vertex
    calls = 0
    real = coloring._color_decision

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(coloring, "_color_decision", counting)
    rng = random.Random(49)
    for p in (0.3, 0.5, 0.8):
        g = random_graph(rng, 14, p)
        calls = 0
        chromatic_number_within(g, g.vertex_mask)
        chi_calls = calls
        calls = 0
        critical_subgraph(g)
        assert calls == g.n + chi_calls


def test_critical_always_passes_min_degree_check():
    # every vertex of a critical subgraph has degree >= chi - 1 inside it
    rng = random.Random(44)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.6]))
        core = critical_subgraph(g)
        need = chromatic_number_within(g, core) - 1
        assert all((g.adj[v] & core).bit_count() >= need for v in bits_of(core))


# ---------------------------------------------------------------------------
# decomposition coloring
# ---------------------------------------------------------------------------

def test_decomposition_k4():
    g = complete_graph(4)
    col, rounds = decomposition_coloring(g)
    assert is_proper(g, col.colors)
    assert col.palette_size <= (2 + 1) * 2  # dim of K_4 is 2


def test_decomposition_path8():
    g = path_graph(8)
    col, rounds = decomposition_coloring(g)
    assert is_proper(g, col.colors)
    assert col.palette_size <= 6
    assert len(rounds) <= 3


def test_decomposition_single_vertex():
    g = path_graph(1)
    col, rounds = decomposition_coloring(g)
    assert col.palette_size == 1
    assert len(rounds) == 1


def test_decomposition_rejects_empty():
    with pytest.raises(DomainError):
        decomposition_coloring(Graph(0, ()))


def test_decomposition_trace_invariants():
    rng = random.Random(45)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        col, rounds = decomposition_coloring(g)
        dim_value = dim_exact(g).value
        assert is_proper(g, col.colors)
        assert len(rounds) <= decomposition_round_bound(n)
        assert col.palette_size <= chromatic_bound_from_dim(dim_value, n)
        remaining = g.vertex_mask
        offsets = []
        for r in rounds:
            assert r.chunk & ~remaining == 0
            assert r.chunk.bit_count() == remaining.bit_count() // 2 + 1
            assert r.chunk_delta == max_degree_within(g, r.chunk)
            assert r.chunk_delta <= dim_value
            offsets.append(r.palette_offset)
            remaining ^= r.chunk
        assert remaining == 0
        assert offsets == sorted(offsets)
        # colors of a chunk stay in [offset, next offset)
        bounds = offsets[1:] + [col.palette_size]
        for r, hi in zip(rounds, bounds):
            for v in bits_of(r.chunk):
                assert r.palette_offset <= col.colors[v] < hi


def test_chromatic_isomorphism_invariant():
    from graphdim.core import relabel
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert chromatic_number(relabel(g, perm))[0] == chromatic_number(g)[0]


def test_chromatic_bounded_by_dim_formula():
    rng = random.Random(46)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        chi, _ = chromatic_number(g)
        assert chi <= chromatic_bound_from_dim(dim_exact(g).value, n)
