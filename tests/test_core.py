import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import graphdim.core as core
from graphdim.core import (
    Graph,
    bits_of,
    ceil_log2,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    encode_graph6,
    format_edge_list,
    hypercube_graph,
    induced_subgraph,
    mask_of,
    max_degree_within,
    parse_edge_list,
    parse_graph6,
    path_graph,
    relabel,
    subsets_of_mask,
    subsets_of_size,
)
from graphdim.dimension import subdim, subdim_naive
from graphdim.errors import DomainError, ParseError
from graphdim.inputs import load_input, parse_cayley_spec

from helpers import random_graph


# ---------------------------------------------------------------------------
# Graph construction and validation
# ---------------------------------------------------------------------------

def test_graph_rejects_asymmetry():
    with pytest.raises(DomainError):
        Graph(2, (0b10, 0b00))


def test_graph_rejects_self_loop():
    with pytest.raises(DomainError):
        Graph(1, (0b1,))
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(1, 1)])


def test_graph_rejects_out_of_range():
    for row in (0b100, 1 << 200, -1):
        with pytest.raises(DomainError, match="row of 0 mentions vertices >= 2"):
            Graph(2, (row, 0))
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(0, 2)])


def test_graph_keeps_a_tuple_of_rows():
    g = Graph(2, [2, 1])
    assert type(g.adj) is tuple
    assert g == Graph(2, (2, 1)) and hash(g) == hash(Graph(2, (2, 1)))
    with pytest.raises(TypeError):
        g.adj[0] = 3  # would add a self-loop to a validated graph
    rows = (2, 1)
    assert Graph(2, rows).adj is rows  # a tuple is kept, not copied


def test_empty_graph():
    g = Graph(0, ())
    assert g.vertex_mask == 0
    assert g.max_degree() == 0
    assert g.edge_count() == 0


def test_edges_iteration_sorted():
    g = cycle_graph(4)
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


# ---------------------------------------------------------------------------
# induced degrees
# ---------------------------------------------------------------------------

# induced_subgraph relabels the members 0..k-1 in ascending order

def test_induced_degree_clique():
    g = complete_graph(4)
    assert induced_subgraph(g, mask_of([0, 1, 2])).degree(0) == 2


def test_induced_degree_path():
    g = path_graph(4)
    assert induced_subgraph(g, mask_of([0, 2, 3])).degree(1) == 1  # vertex 2


def test_induced_degree_cycle():
    # enumerate C_4's edges inside {0,1,3}: 0-1 and 0-3 survive
    g = cycle_graph(4)
    assert induced_subgraph(g, mask_of([0, 1, 3])).degree(0) == 2


def test_max_degree_within_cycle4():
    g = cycle_graph(4)
    assert max_degree_within(g, g.vertex_mask) == 2
    for sub in subsets_of_size(4, 3):
        assert max_degree_within(g, sub) == 2


def test_max_degree_within_cycle5_sparse_subset():
    assert max_degree_within(cycle_graph(5), mask_of([0, 1, 3])) == 1


def test_max_degree_within_small_sets():
    g = complete_graph(5)
    assert max_degree_within(g, 0) == 0
    assert max_degree_within(g, mask_of([3])) == 0


def test_max_degree_monotone_under_inclusion():
    rng = random.Random(100)
    for _ in range(120):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        small = rng.getrandbits(n)
        grow = small | rng.getrandbits(n)
        assert max_degree_within(g, small) <= max_degree_within(g, grow)


def test_degree_profile():
    g = cycle_graph(5)
    sub = induced_subgraph(g, mask_of([0, 1, 3]))
    assert [sub.degree(i) for i in range(sub.n)] == [1, 1, 0]
    assert sub.max_degree() == max_degree_within(g, mask_of([0, 1, 3])) == 1


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_edge_list_k2():
    g = parse_edge_list("2\n0 1")
    assert g == complete_graph(2)


def test_parse_edge_list_c4():
    g = parse_edge_list("4\n0 1\n1 2\n2 3\n3 0\n")
    assert g == cycle_graph(4)


def test_parse_edge_list_isolated_vertex():
    g = parse_edge_list("1\n")
    assert g.n == 1 and g.edge_count() == 0


def test_parse_edge_list_duplicates_tolerated():
    g = parse_edge_list("3\n0 1\n1 0\n0 1")
    assert g.edge_count() == 1


@pytest.mark.parametrize("text,fragment", [
    ("2\n0 5", "out of range"),
    ("2\n1 1", "self-loop"),
    ("2\n0 1 2", "expected"),
    ("x\n0 1", "vertex count"),
    ("", "empty input"),
    # integers are ASCII decimal digits with an optional leading '-', as the
    # loader's header rule -?[0-9]+ reads them; int() alone takes these too
    ("1_0\n0 9", "line 1: bad vertex count '1_0'"),
    ("10\n\n0 1_0", "line 3: non-integer endpoint in '0 1_0'"),
    ("+3\n0 2", "line 1: bad vertex count '+3'"),
    ("3\n\n0 +2", "line 3: non-integer endpoint in '0 +2'"),
    ("\u0663\n0 2", "line 1: bad vertex count '\u0663'"),  # Arabic-Indic 3
    ("3\n\n0 \u0662", "line 3: non-integer endpoint in '0 \u0662'"),
])
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_parse_edge_list_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3\n0 1\n0 9")
    assert err.value.line == 3


def test_edge_list_round_trip():
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 12))
        assert parse_edge_list(format_edge_list(g)) == g


def test_graph6_decode_k2():
    # 'A' encodes n=2, '_' carries a single 1 bit for the pair (0,1)
    assert parse_graph6("A_") == complete_graph(2)


def test_graph6_decode_star():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert encode_graph6(g) == "D?{"
    assert bits_of(g.adj[4]) == [0, 1, 2, 3]


def test_graph6_round_trip_families():
    for g in (cycle_graph(5), complete_graph(7), hypercube_graph(3), path_graph(1)):
        assert parse_graph6(encode_graph6(g)) == g


def test_graph6_round_trip_random():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 20))
        assert parse_graph6(encode_graph6(g)) == g


def test_graph6_large_n_header():
    rng = random.Random(6)
    g = random_graph(rng, 70, 0.1)
    enc = encode_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g


def test_graph6_optional_prefix():
    assert parse_graph6(">>graph6<<A_") == complete_graph(2)


@pytest.mark.parametrize("text", ["", "A", "D?", "D?{{", "~~~~~~", "A" + chr(200)])
def test_graph6_errors(text):
    with pytest.raises(ParseError):
        parse_graph6(text)


def test_graph6_rejects_dirty_padding():
    # K_2's body byte with a nonzero padding bit
    with pytest.raises(ParseError):
        parse_graph6("A" + chr(95 + 1))


def _graph6_reference(g):
    """graph6 written out from the format's description: the size header,
    then the bit of each pair (i, j) for j = 1..n-1 and i = 0..j-1, six bits
    to a character (63 + value), the last one padded with zero bits."""
    n = g.n
    head = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    bits = [g.adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + x) for x in head + body)


def test_graph6_follows_the_pair_order_of_the_format():
    # a round trip cannot see an encoder and a decoder that are both transposed
    rng = random.Random(18)
    for n in range(71):  # one-byte size headers up to 62, four-byte ones above
        g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
        text = _graph6_reference(g)
        assert encode_graph6(g) == text
        assert parse_graph6(text) == g
    assert _graph6_reference(complete_graph(2)) == "A_"


_PROPERTY = settings(derandomize=True, database=None)


@st.composite
def _graphs(draw, max_n=70, min_n=0):
    # n from the seeded generator: integers() draws the ends of its range far more often
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(min_n, max_n)
    p = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    return random_graph(rng, n, p)


@_PROPERTY
@given(_graphs())
@example(complete_graph(62))  # the last one-byte size header
@example(complete_graph(63))  # the first four-byte size header
def test_graph6_round_trip_property(g):
    assert parse_graph6(encode_graph6(g)) == g


def _sized_graph6(n):
    # a one-byte size header and a body of the length it asks for, with
    # bytes near the valid range 63..126
    size = (n * (n - 1) // 2 + 5) // 6
    body = st.text(st.characters(min_codepoint=60, max_codepoint=127), min_size=size, max_size=size)
    return body.map(lambda b: chr(n + 63) + b)


@_PROPERTY
@given(st.one_of(st.text(st.characters(max_codepoint=127)), st.integers(0, 12).flatmap(_sized_graph6)))
def test_graph6_parser_raises_only_its_errors(text):
    try:
        parse_graph6(text)
    except (ParseError, DomainError):
        pass


@_PROPERTY
@given(_graphs(40))
def test_edge_list_round_trip_property(g):
    assert parse_edge_list(format_edge_list(g)) == g


# edge-list-shaped text: lines of zero to three tokens, each a small integer
# or up to three ASCII characters, so the first line is often a lone count
_edge_list_token = st.one_of(st.integers(-3, 12).map(str),
                             st.text(st.characters(max_codepoint=127), max_size=3))
_edge_list_text = st.lists(st.lists(_edge_list_token, max_size=3).map(" ".join),
                           max_size=8).map("\n".join)


@_PROPERTY
@given(st.one_of(st.text(st.characters(max_codepoint=127)), _edge_list_text))
def test_edge_list_parser_raises_only_its_errors(text):
    try:
        parse_edge_list(text)
    except (ParseError, DomainError):
        pass


@st.composite
def _graph_and_host(draw):
    g = draw(_graphs(10, min_n=1))
    # a nonempty host: each vertex in or out, not one integer mask skewed to its ends
    host = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n).filter(any))
    return g, mask_of(v for v, member in enumerate(host) if member)


@_PROPERTY
@given(_graph_and_host())
def test_subdim_matches_naive_property(case):
    g, host = case
    assert subdim(g, host) == subdim_naive(g, host)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_hypercube_2_is_the_4_cycle():
    g = hypercube_graph(2)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_complete_5_edges():
    assert complete_graph(5).edge_count() == 10


def test_complete_bipartite_partition():
    g = complete_bipartite_graph(2, 3)
    assert g.edge_count() == 6
    for u, v in g.edges():
        assert u < 2 <= v


def test_family_dispatch():
    assert load_input("cube:3")[0] == hypercube_graph(3)
    assert load_input("kbip:2,3")[0] == complete_bipartite_graph(2, 3)
    with pytest.raises(ParseError):
        load_input("petersen:1")
    with pytest.raises(ParseError):
        load_input("path:1,2")


@pytest.mark.parametrize("body,message", [
    ("z:4", "lacks ';gens='"),
    ("q:4;gens=1", "must start with 'z:'"),
    ("z:a,b;gens=1", "bad group orders"),
    ("z:;gens=1", "at least one cyclic order"),
    ("z:2,2;gens=(1,0),(0,1", "bad generator list"),
    ("z:2,2;gens=(1,0,0)", "has 3 coordinates, group has 2"),
    ("z:2,2;gens=1", "need a single cyclic factor"),
    ("z:4;gens=", "at least one generator"),
])
def test_cayley_spec_parse_errors(body, message):
    with pytest.raises(ParseError, match=message):
        parse_cayley_spec(body)
    with pytest.raises(ParseError, match=message):
        load_input("cayley:" + body)


@pytest.mark.parametrize("name,params", [
    ("path", (0,)), ("cycle", (2,)), ("complete", (0,)),
    ("complete_bipartite", (0, 3)), ("hypercube", (0,)),
])
def test_family_parameter_range(name, params):
    with pytest.raises(DomainError):
        getattr(core, f"{name}_graph")(*params)


def test_hypercube_degrees():
    for n in (1, 2, 3, 4):
        g = hypercube_graph(n)
        assert all(g.degree(v) == n for v in range(g.n))
        assert g.edge_count() == n * (1 << (n - 1))


# ---------------------------------------------------------------------------
# subset iteration
# ---------------------------------------------------------------------------

def test_subsets_of_size_order():
    assert list(subsets_of_size(3, 2)) == [0b011, 0b101, 0b110]


def test_subsets_of_size_empty():
    assert list(subsets_of_size(4, 0)) == [0]


def test_subsets_of_size_count():
    assert sum(1 for _ in subsets_of_size(16, 9)) == math.comb(16, 9)


def test_subsets_of_size_exhaustive_and_distinct():
    for n in range(0, 8):
        for s in range(0, n + 1):
            seen = list(subsets_of_size(n, s))
            assert len(seen) == math.comb(n, s)
            assert len(set(seen)) == len(seen)
            assert seen == sorted(seen)
            assert all(m.bit_count() == s for m in seen)


def test_subsets_of_size_range_check():
    with pytest.raises(DomainError):
        list(subsets_of_size(3, 4))


def test_subsets_of_mask():
    got = list(subsets_of_mask(mask_of([1, 2, 4]), 2))
    assert got == [mask_of([1, 2]), mask_of([1, 4]), mask_of([2, 4])]
    assert list(subsets_of_mask(0, 0)) == [0]


# ---------------------------------------------------------------------------
# misc helpers
# ---------------------------------------------------------------------------

def test_induced_subgraph_relabeled():
    g = cycle_graph(5)
    sub = induced_subgraph(g, mask_of([0, 1, 3]))
    assert sub.n == 3
    assert sorted(sub.edges()) == [(0, 1)]


def test_relabel_is_isomorphism():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert h.edge_count() == g.edge_count()
        assert sorted(h.degree(v) for v in range(n)) == sorted(g.degree(v) for v in range(n))


_C5 = cycle_graph(5)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: max_degree_within(_C5, 1 << 5), DomainError, "outside the graph",
                 id="max_degree_within-outside"),
    pytest.param(lambda: induced_subgraph(_C5, 1 << 7), DomainError, "outside the graph",
                 id="induced_subgraph-outside"),
    pytest.param(lambda: Graph(-1, ()), DomainError, "vertex count must be >= 0",
                 id="graph-negative-n"),
    pytest.param(lambda: Graph(3, (0, 0)), DomainError, "2 rows for n=3",
                 id="graph-row-count"),
    pytest.param(lambda: relabel(_C5, [0, 1, 2, 3, 3]), DomainError, "permutation",
                 id="relabel-non-permutation"),
    pytest.param(lambda: relabel(_C5, [0, None, 2, 3, 4]), DomainError,
                 "perm entry must be an integer, got None", id="relabel-non-integer"),
    pytest.param(lambda: relabel(_C5, [0.0, 1, 2, 3, 4]), DomainError,
                 "perm entry must be an integer, got 0.0", id="relabel-float"),
    pytest.param(lambda: parse_edge_list("-1\n"), ParseError, "vertex count must be >= 0",
                 id="edge-list-negative-count"),
    pytest.param(lambda: parse_edge_list("3\n0 x\n"), ParseError, "non-integer endpoint",
                 id="edge-list-non-integer-endpoint"),
    pytest.param(lambda: parse_graph6("~??"), ParseError, "truncated graph6 size header",
                 id="graph6-truncated-header"),
    pytest.param(lambda: encode_graph6(Graph(258048, (0,) * 258048)), DomainError,
                 "n <= 258047", id="graph6-encode-too-large"),
    pytest.param(lambda: next(subsets_of_mask(0b101, 3)), DomainError,
                 "size 3 out of range for a 2-element set", id="subsets_of_mask-too-large"),
    pytest.param(lambda: bits_of(-1), DomainError, "nonnegative", id="bits_of-negative"),
    pytest.param(lambda: mask_of([2, -1]), DomainError, "nonnegative, got -1",
                 id="mask_of-negative"),
    pytest.param(lambda: next(subsets_of_mask(-1, 1)), DomainError, "nonnegative",
                 id="subsets_of_mask-negative"),
])
def test_core_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(DomainError):
        ceil_log2(0)
