import itertools
import math
import random

import pytest

from graphdim.coloring import (
    Coloring,
    chromatic_bound_from_dim,
    chromatic_number,
    decomposition_coloring,
    greedy_coloring,
)
from graphdim.core import (
    Graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
)
from graphdim.dimension import dim_exact
from graphdim.embedding import (
    Embedding,
    format_embedding,
    unit_distance_embed,
    verify_embedding,
)
from graphdim.errors import DomainError

RADIUS = math.sqrt(0.5)


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_two_point_embedding_coordinates():
    g = complete_graph(2)
    emb = unit_distance_embed(g, Coloring((0, 1), 2))
    assert emb.ambient_dim == 4
    assert emb.points[0] == (RADIUS, 0.0, 0.0, 0.0)
    assert emb.points[1] == (0.0, 0.0, RADIUS, 0.0)
    report = verify_embedding(g, emb)
    assert report.ok and report.max_edge_error < 1e-12


def test_single_class_circle_is_distinct():
    g = Graph(8, (0,) * 8)
    emb = unit_distance_embed(g, Coloring((0,) * 8, 1))
    assert emb.ambient_dim == 2
    report = verify_embedding(g, emb)
    assert report.distinct_ok
    for p in emb.points:
        assert abs(math.hypot(*p) - RADIUS) < 1e-12


def test_cycle5_with_three_colors():
    g = cycle_graph(5)
    _, col = chromatic_number(g)
    emb = unit_distance_embed(g, col)
    assert emb.ambient_dim == 6
    report = verify_embedding(g, emb, tol=1e-9)
    assert report.ok


def test_embed_requires_proper_coloring():
    g = complete_graph(2)
    with pytest.raises(DomainError):
        unit_distance_embed(g, Coloring((0, 0), 1))
    with pytest.raises(DomainError):
        unit_distance_embed(g, Coloring((0,), 1))


def test_verifier_flags_bad_edge_length():
    g = complete_graph(2)
    emb = Embedding(2, ((0.0, 0.0), (2.0, 0.0)))
    report = verify_embedding(g, emb)
    assert not report.edges_ok and not report.ok
    assert report.max_edge_error == pytest.approx(1.0)


def test_verifier_flags_coincident_points():
    g = Graph(2, (0, 0))
    emb = Embedding(2, ((RADIUS, 0.0), (RADIUS, 0.0)))
    report = verify_embedding(g, emb)
    assert not report.distinct_ok


def test_verifier_single_vertex():
    g = path_graph(1)
    emb = unit_distance_embed(g, Coloring((0,), 1))
    report = verify_embedding(g, emb)
    assert report.ok and report.min_pair_distance == math.inf


def test_edges_exactly_unit_squared_for_every_colorer():
    rng = random.Random(60)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        colorings = [
            chromatic_number(g)[1],
            decomposition_coloring(g)[0],
            greedy_coloring(g, range(n)),
        ]
        for col in colorings:
            emb = unit_distance_embed(g, col)
            assert emb.ambient_dim == 2 * col.palette_size
            for u, v in g.edges():
                sq = sum((a - b) ** 2 for a, b in zip(emb.points[u], emb.points[v]))
                assert abs(sq - 1.0) <= 1e-12
            assert verify_embedding(g, emb).ok


def test_separation_in_a_thousand_point_class():
    n = 1000
    g = Graph(n, (0,) * n)
    emb = unit_distance_embed(g, Coloring((0,) * n, 1))
    report = verify_embedding(g, emb, tol=1e-6)
    assert report.distinct_ok
    assert report.min_pair_distance > 1e-6


# the two constructive bounds on the unit-distance dimension: 2 * chi,
# realized by the chi coloring, and 2 * (dim + 1) * max(1, ceil(log2 n)),
# met by the decomposition coloring

def _bound_report(g):
    chi, col = chromatic_number(g)
    via_dim = 2 * chromatic_bound_from_dim(dim_exact(g).value, g.n)
    decomposition, _ = decomposition_coloring(g)
    return 2 * chi, via_dim, unit_distance_embed(g, col), unit_distance_embed(g, decomposition)


@pytest.mark.parametrize("g,want", [
    (cycle_graph(5), (6, 12)),
    (complete_graph(4), (8, 12)),
    (complete_graph(2), (4, 4)),
])
def test_bound_report_values(g, want):
    via_chi, via_dim, emb_chi, emb_decomposition = _bound_report(g)
    assert (via_chi, via_dim) == want
    assert via_chi <= via_dim
    assert emb_chi.ambient_dim == via_chi
    assert verify_embedding(g, emb_chi).ok
    assert verify_embedding(g, emb_decomposition).ok


def test_bound_report_decomposition_within_bound():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        via_chi, via_dim, _, emb_decomposition = _bound_report(g)
        assert via_chi <= via_dim
        assert emb_decomposition.ambient_dim <= via_dim


def test_bound_report_rejects_empty():
    with pytest.raises(DomainError):
        _bound_report(Graph(0, ()))


def test_format_embedding_layout():
    g = hypercube_graph(2)
    k, col = chromatic_number(g)
    emb = unit_distance_embed(g, col)
    text = format_embedding(emb, col)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    for v, line in enumerate(lines):
        fields = line.split()
        assert int(fields[0]) == v
        assert int(fields[1]) == col.colors[v]
        coords = [float(x) for x in fields[2:]]
        assert len(coords) == emb.ambient_dim
        assert coords == pytest.approx(list(emb.points[v]))
