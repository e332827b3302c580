import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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

from helpers import _PACKAGE_ROOT, random_graph, read_at_most

HALF = Fraction(1, 2)


def _squared_length(p, q):
    """Dense exact squared distance, summed over every coordinate."""
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q))


def test_two_point_embedding_coordinates():
    g = complete_graph(2)
    emb = unit_distance_embed(g, Coloring((0, 1)))
    assert emb.ambient_dim == 4
    assert emb.points[0] == (-HALF, HALF, 0, 0)
    assert emb.points[1] == (0, 0, -HALF, HALF)
    report = verify_embedding(g, emb)
    assert report.edges_ok and report.distinct_ok and report.ok


def test_single_class_circle_is_distinct():
    g = Graph(8, (0,) * 8)
    emb = unit_distance_embed(g, Coloring((0,) * 8))
    assert emb.ambient_dim == 2
    report = verify_embedding(g, emb)
    assert report.distinct_ok
    for p in emb.points:
        assert all(isinstance(x, Fraction) for x in p)
        assert p[0] ** 2 + p[1] ** 2 == HALF


def test_cycle5_with_three_colors():
    g = cycle_graph(5)
    _, col = chromatic_number(g)
    emb = unit_distance_embed(g, col)
    assert emb.ambient_dim == 6
    report = verify_embedding(g, emb)
    assert report.edges_ok and report.distinct_ok


def test_embed_requires_proper_coloring():
    g = complete_graph(2)
    with pytest.raises(DomainError):
        unit_distance_embed(g, Coloring((0, 0)))
    with pytest.raises(DomainError):
        unit_distance_embed(g, Coloring((0,)))


_C5_COLORING = Coloring((0, 1, 0, 1, 2))


@pytest.mark.parametrize("call,message", [
    (lambda: unit_distance_embed(cycle_graph(5), [0, 1, 0, 1, 2]),
     "coloring must be a Coloring, got [0, 1, 0, 1, 2]"),
    (lambda: verify_embedding(cycle_graph(5), [(0, 0)] * 5),
     "embedding must be an Embedding, got [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0)]"),
    (lambda: format_embedding([(0, 0)] * 5, _C5_COLORING),
     "embedding must be an Embedding, got [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0)]"),
    (lambda: format_embedding(unit_distance_embed(cycle_graph(5), _C5_COLORING),
                              [0, 1, 0, 1, 2]),
     "coloring must be a Coloring, got [0, 1, 0, 1, 2]"),
], ids=["embed-coloring", "verify-embedding", "format-embedding", "format-coloring"])
def test_arguments_of_another_class_are_refused(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_verifier_flags_bad_edge_length():
    g = complete_graph(2)
    emb = Embedding(2, ((0, 0), (2, 0)))
    report = verify_embedding(g, emb)
    assert not report.edges_ok and not report.ok
    assert report.distinct_ok


def test_verifier_counts_shared_coordinates():
    # endpoints in the same coordinate pair: the inner product term matters
    g = complete_graph(2)
    assert verify_embedding(g, Embedding(2, ((HALF, 0), (-HALF, 0)))).edges_ok
    assert verify_embedding(g, Embedding(2, ((0, 0), (Fraction(3, 5), Fraction(4, 5))))).ok
    assert not verify_embedding(g, Embedding(2, ((HALF, 0), (HALF, HALF)))).edges_ok


def test_verifier_flags_coincident_points():
    g = Graph(2, (0, 0))
    emb = Embedding(2, ((-HALF, HALF), (-HALF, HALF)))
    report = verify_embedding(g, emb)
    assert not report.distinct_ok and not report.ok
    assert report.edges_ok


@pytest.mark.parametrize("points,message", [
    (((0.5, 0), (-0.5, 0)), "got float"),        # would read as a unit edge
    (((HALF, 0.0), (-HALF, 0)), "got float"),    # even a float zero
    (((HALF, "0"), (-HALF, 0)), "got str"),
    (((HALF, 0), (-HALF,)), "ambient_dim=2"),
])
def test_verifier_refuses_inexact_or_misshapen_points(points, message):
    with pytest.raises(DomainError, match=message):
        verify_embedding(complete_graph(2), Embedding(2, points))


@pytest.mark.parametrize("n,emb,message", [
    (2, Embedding(2.0, ((HALF, 0), (-HALF, 0))), "ambient_dim must be an integer, got 2.0"),
    (2, Embedding(-1, ((HALF, 0), (-HALF, 0))), "ambient_dim must be >= 0, got -1"),
    (5, Embedding(2, (1, 2, 3, 4, 5)),
     "points must be a sequence of coordinate sequences, got (1, 2, 3, 4, 5)"),
    (2, Embedding(2, None), "points must be a sequence of coordinate sequences, got None"),
], ids=["float-dim", "negative-dim", "int-points", "no-points"])
def test_verifier_refuses_a_malformed_embedding(n, emb, message):
    with pytest.raises(DomainError) as err:
        verify_embedding(path_graph(n), emb)
    assert str(err.value) == message


@pytest.mark.parametrize("d", [2**100, 10**12], ids=["2**100", "10**12"])
def test_verifier_of_no_points_allocates_nothing_per_coordinate(d):
    # no point has a coordinate, so nothing is allocated per coordinate:
    # [0] * d raises OverflowError for 2**100 and MemoryError for 10**12
    assert verify_embedding(Graph(0, ()), Embedding(d, ())) == (d, True, True)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda pts: verify_embedding(path_graph(2), Embedding(2, pts)),
                 "embedding covers more than 2 vertices, graph has 2", id="verify_embedding"),
    pytest.param(lambda pts: format_embedding(Embedding(2, pts), Coloring((0, 1))),
                 "coloring and embedding cover different vertex counts", id="format_embedding"),
])
def test_points_are_read_one_past_the_vertex_count(call, message):
    # the points were read to their end: an endless iterable never
    # returned, and one of 10**12 points ran out of memory
    with pytest.raises(DomainError) as err:
        call(read_at_most(3, (0, 0)))
    assert str(err.value) == message


def test_coordinates_are_read_one_past_ambient_dim():
    emb = Embedding(2, (read_at_most(3, 0), (0, 0)))
    with pytest.raises(DomainError) as err:
        verify_embedding(path_graph(2), emb)
    assert str(err.value) == "every point needs ambient_dim=2 coordinates"


def test_verifier_single_vertex():
    g = path_graph(1)
    emb = unit_distance_embed(g, Coloring((0,)))
    report = verify_embedding(g, emb)
    assert report.edges_ok and report.distinct_ok


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
                assert _squared_length(emb.points[u], emb.points[v]) == 1
            assert verify_embedding(g, emb).ok


def test_separation_in_a_thousand_point_class():
    n = 1000
    g = Graph(n, (0,) * n)
    emb = unit_distance_embed(g, Coloring((0,) * n))
    report = verify_embedding(g, emb)
    assert report.distinct_ok
    assert len(set(emb.points)) == n


def _colorings(g):
    return [chromatic_number(g)[1], decomposition_coloring(g)[0],
            greedy_coloring(g, range(g.n))]


@settings(derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))),
       st.integers(0, 2**16))
def test_exact_check_accepts_embeddings_and_rejects_any_change(case, pick):
    n, coins = case
    pairs = [(u, v) for v in range(n) for u in range(v)]
    g = Graph.from_edges(n, [e for e, coin in zip(pairs, coins) if coin])
    for col in _colorings(g):
        emb = unit_distance_embed(g, col)
        assert verify_embedding(g, emb).ok
        edges = list(g.edges())
        if edges:
            # one nonzero coordinate of one endpoint off by 10^-12
            u = edges[pick % len(edges)][pick % 2]
            bent = list(emb.points)
            i = next(i for i, x in enumerate(bent[u]) if x)
            bent[u] = bent[u][:i] + (bent[u][i] + Fraction(1, 10**12),) + bent[u][i + 1:]
            report = verify_embedding(g, Embedding(emb.ambient_dim, tuple(bent)))
            assert not report.edges_ok
        if n >= 2:
            # one point copied onto another
            a = pick % n
            b = (a + 1 + pick // n % (n - 1)) % n
            copied = list(emb.points)
            copied[b] = copied[a]
            report = verify_embedding(g, Embedding(emb.ambient_dim, tuple(copied)))
            assert not report.distinct_ok


_VALUES = (0, 0, 1, -1, 2, HALF, -HALF, Fraction(3, 5), Fraction(-4, 5), Fraction(0), Fraction(1, 3))


def _unit_steps(d):
    """Exact unit vectors in R^d: +-e_i, and (3/5, -4/5) in each pair of
    coordinates."""
    steps = []
    for i in range(d):
        for sign in (1, -1):
            steps.append(tuple(sign if k == i else 0 for k in range(d)))
        for j in range(i + 1, d):
            steps.append(tuple(Fraction(3, 5) if k == i else Fraction(-4, 5) if k == j else 0
                               for k in range(d)))
    return steps


@st.composite
def _embedded_graphs(draw):
    """Points with shared coordinates, zero points, coincident points and
    int/Fraction mixes.  A point is drawn afresh, copied from an earlier one,
    or an earlier one moved by an exact unit step; unit-length pairs become
    edges more often than others, so that edges between points with a shared
    coordinate take both verdicts."""
    n, d = draw(st.integers(1, 7)), draw(st.integers(0, 4))
    fresh = st.tuples(*[st.sampled_from(_VALUES)] * d)
    steps = _unit_steps(d)
    points = []
    for _ in range(n):
        how = draw(st.sampled_from(("fresh", "copy", "step", "step", "step"))) if points else "fresh"
        if how == "fresh" or not steps and how == "step":
            points.append(draw(fresh))
        else:
            base = draw(st.sampled_from(points))
            step = draw(st.sampled_from(steps)) if how == "step" else (0,) * d
            points.append(tuple(a + b for a, b in zip(base, step)))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    coins = draw(st.lists(st.integers(0, 7), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v) for (u, v), coin in zip(pairs, coins)
             if coin == 7 or coin and _squared_length(points[u], points[v]) == 1]
    return Graph.from_edges(n, edges), Embedding(d, tuple(points))


@settings(derandomize=True, database=None, max_examples=300)
@given(_embedded_graphs())
def test_verifier_equals_the_dense_exact_reference(case):
    g, emb = case
    report = verify_embedding(g, emb)
    assert report.edges_ok == all(_squared_length(emb.points[u], emb.points[v]) == 1
                                  for u, v in g.edges())
    assert report.distinct_ok == (len({tuple(map(Fraction, p)) for p in emb.points}) == g.n)


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


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda emb: verify_embedding(path_graph(2), emb),
                 "embedding covers 3 vertices, graph has 2", id="verify_embedding"),
    pytest.param(lambda emb: format_embedding(emb, Coloring((0, 1))),
                 "different vertex counts", id="format_embedding"),
])
def test_embedding_refuses_mismatched_lengths(call, message):
    emb = unit_distance_embed(path_graph(3), Coloring((0, 1, 0)))
    with pytest.raises(DomainError, match=message):
        call(emb)


@pytest.mark.parametrize("emb,message", [
    (Embedding(2, None), "points must be a sequence of coordinate sequences, got None"),
    (Embedding(2, (1, 2)), "points must be a sequence of coordinate sequences, got (1, 2)"),
], ids=["no-points", "int-points"])
def test_format_embedding_refuses_a_malformed_embedding(emb, message):
    with pytest.raises(DomainError) as err:
        format_embedding(emb, Coloring((0, 1)))
    assert str(err.value) == message


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
        assert fields[2:] == [str(x) for x in emb.points[v]]
        assert tuple(Fraction(x) for x in fields[2:]) == emb.points[v]


def test_format_embedding_writes_bool_coordinates_by_value():
    # bool is an int: verify_embedding reads False and True as 0 and 1, and
    # the file says so too
    emb = Embedding(1, ((False,), (True,)))
    assert format_embedding(emb, Coloring((0, 1))) == "0 0 0\n1 1 1\n"
    assert verify_embedding(path_graph(2), emb).ok


def test_import_leaves_fractions_and_decimal_unloaded():
    # unit_distance_embed imports Fraction when called: at module level it
    # would load decimal on every `import graphdim` and slow start-up
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import graphdim; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, _PACKAGE_ROOT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
