import hashlib
import json
import math
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import graphdim
import graphdim.core as core
from graphdim.cayley import AbelianGroup, GeneratorSet, cayley_graph, translate
from graphdim.coloring import DecompositionRound, greedy_coloring, is_proper
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
from graphdim.dimension import subdim, subdim_exists, subdim_naive
from graphdim.embedding import Embedding
from graphdim.errors import DomainError, ParseError
from graphdim.inputs import load_input, parse_cayley_spec
from graphdim.verify import enumerate_labeled_graphs

from helpers import Index, random_graph, read_at_most, subprocess_env


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


@pytest.mark.parametrize("n,rows,message", [
    (2, (0b10, 0), "asymmetric edge 0-1"),
    (1, (0b1,), "self-loop at vertex 0"),
    (2, (0b100, 0), "adjacency row of 0 mentions vertices >= 2"),
    (2, (0,), "adjacency has 1 rows for n=2"),
    (-1, (), "vertex count must be >= 0, got -1"),
])
def test_public_constructor_refuses_with_its_messages(n, rows, message):
    with pytest.raises(DomainError) as err:
        Graph(n, rows)
    assert str(err.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: Graph(2, (1.0, 0)), "adjacency row of 0 must be an integer, got 1.0"),
    (lambda: Graph(2.0, (0, 0)), "vertex count must be an integer, got 2.0"),
    (lambda: Graph(2, None), "adjacency must be a sequence of rows, got None"),
    (lambda: Graph.from_edges(3, [(0, 1.0)]), "edge endpoint must be an integer, got 1.0"),
    (lambda: Graph.from_edges(2.5, []), "vertex count must be an integer, got 2.5"),
    (lambda: Graph.from_edges(-1, []), "vertex count must be >= 0, got -1"),
    (lambda: Graph.from_edges(3, [(0, 1, 2)]), "an edge is a pair of vertices, got (0, 1, 2)"),
    (lambda: Graph.from_edges(3, [5]), "an edge is a pair of vertices, got 5"),
    (lambda: Graph.from_edges(3, None), "edges must be an iterable of pairs, got None"),
    # a record iterates over its fields, which are no rows
    (lambda: Graph(2, Embedding(2, 1)),
     "adjacency must be a sequence of rows, got Embedding(ambient_dim=2, points=1)"),
], ids=["float-row", "float-n", "no-rows", "float-endpoint", "float-n-edges",
        "negative-n-edges", "triple", "bare-vertex", "no-edges", "record-rows"])
def test_malformed_construction_raises_domain_error(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


_P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("call,message", [
    (lambda: graphdim.complete_graph(2.5), "vertex count must be an integer, got 2.5"),
    (lambda: graphdim.path_graph(2.5), "vertex count must be an integer, got 2.5"),
    (lambda: graphdim.cycle_graph(4.0), "vertex count must be an integer, got 4.0"),
    (lambda: graphdim.complete_bipartite_graph(2.5, 2),
     "side size must be an integer, got 2.5"),
    (lambda: graphdim.hypercube_graph(2.0), "hypercube dimension must be an integer, got 2.0"),
    (lambda: next(enumerate_labeled_graphs(2.5)), "vertex count must be an integer, got 2.5"),
    (lambda: graphdim.cycle_graph(2), "vertex count must be >= 3, got 2"),
    (lambda: graphdim.hypercube_graph(0), "hypercube dimension must be >= 1, got 0"),
    (lambda: graphdim.max_degree_within(_P4, 1.5), "vertex set must be an integer, got 1.5"),
    (lambda: graphdim.induced_subgraph(_P4, 1.5), "vertex set must be an integer, got 1.5"),
    (lambda: subdim(_P4, 1.5), "vertex set must be an integer, got 1.5"),
    (lambda: graphdim.dim_exact(_P4, cap="16"), "cap must be an integer, got '16'"),
    (lambda: load_input("path:3", cap="9"), "cap must be an integer, got '9'"),
    (lambda: graphdim.critical_subgraph(_P4, cap="9"), "cap must be an integer, got '9'"),
    (lambda: graphdim.critical_subgraph(_P4, cap=2.5), "cap must be an integer, got 2.5"),
    (lambda: graphdim.run_suite("theorem2", 2.5),
     "verify sweep size must be an integer, got 2.5"),
], ids=["complete", "path", "cycle", "kbip", "cube", "labeled", "cycle-small", "cube-small",
        "max-degree-set", "induced-set", "subdim-set", "dim-cap", "load-cap", "critical-cap",
        "float-cap", "sweep-size"])
def test_non_integer_sizes_sets_and_caps_raise_domain_error(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


_Z23 = AbelianGroup((2, 3))


@pytest.mark.parametrize("call,message", [
    (lambda: mask_of([1.5]), "vertex id must be an integer, got 1.5"),
    (lambda: mask_of(["1"]), "vertex id must be an integer, got '1'"),
    (lambda: mask_of(5), "vertices must be an iterable of vertex ids, got 5"),
    (lambda: mask_of(DecompositionRound(1, 2, 3)), "vertices must be an iterable of vertex ids,"
     " got DecompositionRound(chunk=1, chunk_delta=2, palette_offset=3)"),
    (lambda: bits_of(1.5), "vertex set must be an integer, got 1.5"),
    (lambda: bits_of("1"), "vertex set must be an integer, got '1'"),
    (lambda: next(subsets_of_size(4, 1.5)), "subset size must be an integer, got 1.5"),
    (lambda: next(subsets_of_size(4.0, 1)), "set size must be an integer, got 4.0"),
    (lambda: next(subsets_of_mask(15, 1.5)), "subset size must be an integer, got 1.5"),
    (lambda: next(subsets_of_mask(1.5, 1)), "vertex set must be an integer, got 1.5"),
    (lambda: subdim_exists(_P4, 15, 1.5, 1), "target size must be an integer, got 1.5"),
    (lambda: subdim_exists(_P4, 15, 2, 1.5), "degree bound must be an integer, got 1.5"),
    (lambda: translate(_Z23, 1.5, 0), "vertex set must be an integer, got 1.5"),
    (lambda: translate(_Z23, 1, 1.5), "element id must be an integer, got 1.5"),
    (lambda: _Z23.decode(1.5), "element id must be an integer, got 1.5"),
    (lambda: _Z23.add(1, 1.5), "element id must be an integer, got 1.5"),
    (lambda: ceil_log2(2.5), "ceil_log2 argument must be an integer, got 2.5"),
    (lambda: graphdim.decomposition_round_bound(2.5), "vertex count must be an integer, got 2.5"),
    (lambda: graphdim.decomposition_round_bound("3"), "vertex count must be an integer, got '3'"),
    (lambda: graphdim.chromatic_bound_from_dim(1.5, 4), "dim value must be an integer, got 1.5"),
    (lambda: graphdim.chromatic_bound_from_dim(1, 4.0), "vertex count must be an integer, got 4.0"),
], ids=["mask-float", "mask-str", "mask-int", "mask-record", "bits-float", "bits-str",
        "subsets-s", "subsets-n", "subsets-of-mask-s", "subsets-of-mask-set", "exists-size",
        "exists-degree", "translate-set", "translate-element", "decode", "add", "ceil-log2",
        "round-bound", "round-bound-str", "chi-bound-dim", "chi-bound-n"])
def test_non_integer_arguments_of_the_helpers_raise_domain_error(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


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
    # the rows are allocated at the count line, so a count past any index
    # size is refused there, as a ParseError
    ("99999999999999999999\n0 x", "line 1: vertex count 99999999999999999999 too large"),
])
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_graph6(None), "graph6 text must be a str, got None"),
    (lambda: parse_edge_list(None), "edge-list text must be a str, got None"),
    (lambda: parse_edge_list(b"1\n"), "edge-list text must be a str, got b'1\\n'"),
    (lambda: parse_cayley_spec(None), "cayley spec must be a str, got None"),
], ids=["graph6-none", "edge-list-none", "edge-list-bytes", "cayley-spec-none"])
def test_text_of_another_class_is_refused(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_parse_edge_list_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3\n0 1\n0 9")
    assert err.value.line == 3


def test_edge_list_round_trip():
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 12))
        assert parse_edge_list(format_edge_list(g)) == g


def test_large_sparse_edge_list_round_trip():
    # long rows with few bits: a path, a cycle and a graph whose only edge
    # joins the first and last vertex
    n = 3000
    for g in (path_graph(n), cycle_graph(n), Graph.from_edges(n, [(0, n - 1)])):
        plain = "".join(f"{u} {v}\n" for u, v in g.edges())
        text = format_edge_list(g)
        assert text == f"{n}\n" + plain
        assert parse_edge_list(text) == g


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


# sha256 of the JSON list, over seeded G(n, p) for n = 0, 1, 2, 50, 75, 100,
# 150, 200, 300 and p = 0.05, 0.5, of each graph's graph6 text, its edge-list
# text, and the rows parsed back from each
_IO_DIGEST = "d2ad4542410135c208e90a0f1204b515dab8a8a4432f0aeb407f83b0878495d8"


def test_io_texts_pinned():
    rng = random.Random(21)
    out = []
    for n in (0, 1, 2, 50, 75, 100, 150, 200, 300):
        for p in (0.05, 0.5):
            g = random_graph(rng, n, p)
            text6, text_edges = encode_graph6(g), format_edge_list(g)
            out.append([text6, text_edges,
                        list(parse_graph6(text6).adj), list(parse_edge_list(text_edges).adj)])
    text = json.dumps(out)
    assert hashlib.sha256(text.encode()).hexdigest() == _IO_DIGEST


@pytest.mark.parametrize("text,message", [
    ("", "empty graph6 input"),
    ("~~~~~~", "graph6 inputs beyond n=258047 are not supported"),
    ("~??", "truncated graph6 size header"),
    ("~?\x7f?", "bad graph6 size header byte"),
    ("\x7f", "bad graph6 header byte 127"),
    ("A\u00c8", "graph6 input is not ASCII"),
    ("A", "graph6 body has 0 bytes, expected 1 for n=2"),
    ("D?{{", "graph6 body has 3 bytes, expected 2 for n=5"),
    ("B>", "graph6 body byte 62 out of range"),
    ("D?\x7f", "graph6 body byte 127 out of range"),
    ("A`", "nonzero padding bits in graph6 body"),
    ("B@", "nonzero padding bits in graph6 body"),
])
def test_graph6_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph6(text)
    assert str(err.value) == message and err.value.line is None


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


def _graph6_plain_decode(text):
    """Rows of a graph6 text read bit by bit, as the format describes them."""
    data = [ord(c) - 63 for c in text]
    if data[0] == 63:
        n, body = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    else:
        n, body = data[0], data[1:]
    bits = [x >> k & 1 for x in body for k in range(5, -1, -1)]
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return tuple(adj)


@_PROPERTY
@given(_graphs())
@example(complete_graph(62))  # the last one-byte size header
@example(complete_graph(63))  # the first four-byte size header
def test_graph6_decode_matches_a_plain_decode(g):
    text = _graph6_reference(g)
    assert parse_graph6(text).adj == _graph6_plain_decode(text) == g.adj


@st.composite
def _cayley_inputs(draw):
    grp = AbelianGroup(tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    picks = draw(st.sets(st.integers(1, max(grp.size - 1, 1)), max_size=4))
    elements = {x % grp.size for x in picks} - {0}
    return grp, GeneratorSet(elements | {grp.neg(x) for x in elements})


def _passes_public_check(g):
    return Graph(g.n, g.adj) == g


@_PROPERTY
@given(_graphs(), st.integers(0, 2**70), _cayley_inputs())
def test_unchecked_builders_pass_the_public_check(g, subset, cayley_input):
    # each builder that skips the check of Graph(n, adj) makes rows it would accept
    assert _passes_public_check(g)  # from_edges
    assert _passes_public_check(parse_graph6(encode_graph6(g)))
    assert _passes_public_check(parse_edge_list(format_edge_list(g)))
    assert _passes_public_check(induced_subgraph(g, subset & g.vertex_mask))
    assert _passes_public_check(cayley_graph(*cayley_input))


def test_unchecked_families_pass_the_public_check():
    for k in range(1, 7):
        assert _passes_public_check(hypercube_graph(k))
    for n in range(5):
        assert all(map(_passes_public_check, enumerate_labeled_graphs(n)))


@_PROPERTY
@given(_graphs(12), st.integers(0, 2**12 - 1))
@example(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]), 0b11111)  # the lowest vertex alone is max
@example(Graph.from_edges(5, [(4, 1), (4, 2), (4, 3)]), 0b11111)  # the highest vertex alone is max
def test_max_degree_within_counts_the_edges_inside_the_set(g, subset):
    subset &= g.vertex_mask
    degree = [0] * g.n
    for u, v in g.edges():
        if subset >> u & subset >> v & 1:
            degree[u] += 1
            degree[v] += 1
    assert max_degree_within(g, subset) == max(degree, default=0)


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


# Each count fails before any memory is taken: a list of 2**60 or more rows
# is refused by its size alone, and hypercube_graph refuses n >= 63 before 1 << n.
@pytest.mark.parametrize("call,count", [
    pytest.param(lambda: Graph.from_edges(2**64, []), 2**64, id="from_edges-2**64"),
    pytest.param(lambda: Graph.from_edges(2**62, []), 2**62, id="from_edges-2**62"),
    pytest.param(lambda: path_graph(2**64), 2**64, id="path"),
    pytest.param(lambda: cycle_graph(2**64), 2**64, id="cycle"),
    pytest.param(lambda: complete_bipartite_graph(2**64, 1), 2**64 + 1, id="kbip"),
    pytest.param(lambda: complete_graph(2**64), 2**64, id="complete"),
    pytest.param(lambda: hypercube_graph(62), 2**62, id="cube-62"),
    pytest.param(lambda: hypercube_graph(64), "2**64", id="cube-64"),
    pytest.param(lambda: hypercube_graph(2**40), f"2**{2**40}", id="cube-2**40"),
])
def test_builders_refuse_a_vertex_count_too_large_to_allocate(call, count):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == f"vertex count {count} too large"


# a bitset of 2**64 bits is refused by its size alone, before any memory is taken
_HUGE_GROUP = AbelianGroup((2**64,))


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: cayley_graph(_HUGE_GROUP, GeneratorSet({1, 2**64 - 1})),
                 f"vertex id {2**64 - 1} too large", id="cayley-generators"),
    pytest.param(lambda: cayley_graph(_HUGE_GROUP, GeneratorSet({})),
                 f"group size {2**64} too large", id="cayley-no-generators"),
    pytest.param(lambda: translate(_HUGE_GROUP, 0, 0), f"group size {2**64} too large",
                 id="translate"),
    pytest.param(lambda: next(subsets_of_size(2**64, 1)), f"set size {2**64} too large",
                 id="subsets_of_size"),
    pytest.param(lambda: mask_of([3, 2**64]), f"vertex id {2**64} too large", id="mask_of"),
])
def test_bitsets_too_large_to_make_are_refused(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda it: greedy_coloring(path_graph(2), it),
                 "order must be a permutation of 0..n-1", id="greedy_coloring"),
    pytest.param(lambda it: relabel(path_graph(2), it),
                 "perm must be a permutation of 0..n-1", id="relabel"),
    pytest.param(lambda it: Graph(2, it), "adjacency has more than 2 rows for n=2", id="graph"),
    pytest.param(lambda it: AbelianGroup((2, 3)).encode(it),
                 "element has more than 2 coordinates, wanted 2", id="encode"),
])
def test_an_argument_of_known_length_is_read_one_entry_past_it(call, message):
    # each call wants 2 entries, so it may read 3 of an endless iterable;
    # an argument read to its end, such as range(10**12), runs out of memory
    with pytest.raises(DomainError) as err:
        call(read_at_most(3))
    assert str(err.value) == message


def test_is_proper_reads_one_color_past_the_vertex_count():
    assert is_proper(path_graph(2), read_at_most(3)) is False


@pytest.mark.parametrize("call,message", [
    ("Coloring(range(10**12))", "colors must be a sequence of color ids, got one too large"),
    ("AbelianGroup(range(2, 10**12))", "orders must be a sequence of cyclic orders, got one too large"),
    ("GeneratorSet(range(1, 10**12))",
     "generators must be an iterable of element ids, got one too large"),
], ids=["coloring", "group", "generators"])
def test_an_argument_of_unknown_length_too_large_to_hold_is_refused(call, message):
    # no length is known for these, so they are read to their end; under a
    # 1 GB address space that raised a bare MemoryError
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from graphdim import *\n"
            f"try:\n    {call}\nexcept DomainError as exc:\n    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"


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
    pytest.param(lambda: relabel(_C5, 5), DomainError,
                 "perm must be a permutation of 0..n-1, got 5", id="relabel-int"),
    pytest.param(lambda: parse_edge_list("-1\n"), ParseError, "vertex count must be >= 0",
                 id="edge-list-negative-count"),
    pytest.param(lambda: parse_edge_list("3\n0 x\n"), ParseError, "non-integer endpoint",
                 id="edge-list-non-integer-endpoint"),
    pytest.param(lambda: parse_graph6("~??"), ParseError, "truncated graph6 size header",
                 id="graph6-truncated-header"),
    pytest.param(lambda: encode_graph6(Graph(258048, (0,) * 258048)), DomainError,
                 "n <= 258047", id="graph6-encode-too-large"),
    pytest.param(lambda: next(subsets_of_mask(0b101, 3)), DomainError,
                 "subset size 3 out of range 0..2", id="subsets_of_mask-too-large"),
    pytest.param(lambda: bits_of(-1), DomainError, "vertex set must be >= 0, got -1",
                 id="bits_of-negative"),
    pytest.param(lambda: mask_of([2, -1]), DomainError, "vertex id must be >= 0, got -1",
                 id="mask_of-negative"),
    pytest.param(lambda: next(subsets_of_mask(-1, 1)), DomainError,
                 "vertex set must be >= 0, got -1",
                 id="subsets_of_mask-negative"),
])
def test_core_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call", [max_degree_within, induced_subgraph],
                         ids=["max_degree_within", "induced_subgraph"])
def test_vertex_set_is_used_as_the_int_the_guard_read(call):
    assert call(_C5, Index(0b10111)) == call(_C5, 0b10111)


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(DomainError):
        ceil_log2(0)


_Z34 = AbelianGroup((3, 4))


# Every bounded integer argument: a call taking that argument, the value just
# outside its bound, the bound itself, and the refusal of the first.
@pytest.mark.parametrize("call,outside,bound,message", [
    pytest.param(bits_of, -1, 0, "vertex set must be >= 0, got -1", id="bits_of"),
    pytest.param(lambda x: mask_of([3, x]), -1, 0, "vertex id must be >= 0, got -1",
                 id="mask_of"),
    pytest.param(ceil_log2, 0, 1, "ceil_log2 argument must be >= 1, got 0", id="ceil_log2"),
    pytest.param(lambda x: Graph(x, ()), -1, 0, "vertex count must be >= 0, got -1",
                 id="Graph"),
    pytest.param(lambda x: Graph.from_edges(x, []), -1, 0,
                 "vertex count must be >= 0, got -1", id="from_edges"),
    pytest.param(path_graph, 0, 1, "vertex count must be >= 1, got 0", id="path"),
    pytest.param(cycle_graph, 2, 3, "vertex count must be >= 3, got 2", id="cycle"),
    pytest.param(complete_graph, 0, 1, "vertex count must be >= 1, got 0", id="complete"),
    pytest.param(lambda x: complete_bipartite_graph(x, 2), 0, 1,
                 "side size must be >= 1, got 0", id="kbip-m"),
    pytest.param(lambda x: complete_bipartite_graph(2, x), 0, 1,
                 "side size must be >= 1, got 0", id="kbip-n"),
    pytest.param(hypercube_graph, 0, 1, "hypercube dimension must be >= 1, got 0", id="cube"),
    pytest.param(lambda x: next(subsets_of_size(x, 0)), -1, 0,
                 "set size must be >= 0, got -1", id="subsets_of_size-n"),
    pytest.param(lambda x: next(subsets_of_size(4, x)), -1, 0,
                 "subset size -1 out of range 0..4", id="subsets_of_size-s-low"),
    pytest.param(lambda x: next(subsets_of_size(4, x)), 5, 4,
                 "subset size 5 out of range 0..4", id="subsets_of_size-s-high"),
    pytest.param(lambda x: next(subsets_of_mask(x, 0)), -1, 0,
                 "vertex set must be >= 0, got -1", id="subsets_of_mask-set"),
    pytest.param(lambda x: next(subsets_of_mask(0b1011, x)), -1, 0,
                 "subset size -1 out of range 0..3", id="subsets_of_mask-s-low"),
    pytest.param(lambda x: next(subsets_of_mask(0b1011, x)), 4, 3,
                 "subset size 4 out of range 0..3", id="subsets_of_mask-s-high"),
    pytest.param(lambda x: subdim_exists(_P4, 0b1110, x, 1), -1, 0,
                 "target size -1 out of range 0..3", id="subdim_exists-low"),
    pytest.param(lambda x: subdim_exists(_P4, 0b1110, x, 1), 4, 3,
                 "target size 4 out of range 0..3", id="subdim_exists-high"),
    pytest.param(lambda x: AbelianGroup((3, x)), 0, 1, "cyclic order must be >= 1, got 0",
                 id="group-order"),
    pytest.param(_Z34.decode, -1, 0, "element id -1 out of range 0..11", id="decode-low"),
    pytest.param(_Z34.decode, 12, 11, "element id 12 out of range 0..11", id="decode-high"),
    pytest.param(graphdim.decomposition_round_bound, 0, 1,
                 "vertex count must be >= 1, got 0", id="round-bound"),
    pytest.param(lambda x: graphdim.chromatic_bound_from_dim(x, 4), -1, 0,
                 "dim value must be >= 0, got -1", id="chi-bound-dim"),
    pytest.param(lambda x: graphdim.chromatic_bound_from_dim(0, x), 0, 1,
                 "vertex count must be >= 1, got 0", id="chi-bound-n"),
    pytest.param(lambda x: next(enumerate_labeled_graphs(x)), -1, 0,
                 "vertex count must be >= 0, got -1", id="labeled"),
    pytest.param(lambda x: graphdim.run_suite("theorem2", x), 0, 1,
                 "verify sweep size must be >= 1, got 0", id="sweep-size"),
])
def test_integer_bounds(call, outside, bound, message):
    call(bound)
    with pytest.raises(DomainError) as err:
        call(outside)
    assert str(err.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: subsets_of_size(4, 1.5), "subset size must be an integer, got 1.5"),
    (lambda: subsets_of_size(4.0, 1), "set size must be an integer, got 4.0"),
    (lambda: subsets_of_size(4, 9), "subset size 9 out of range 0..4"),
    (lambda: subsets_of_size(-1, 0), "set size must be >= 0, got -1"),
    (lambda: subsets_of_mask(15, 9), "subset size 9 out of range 0..4"),
    (lambda: subsets_of_mask(15, 1.5), "subset size must be an integer, got 1.5"),
    (lambda: subsets_of_mask(-1, 1), "vertex set must be >= 0, got -1"),
], ids=["size-float-s", "size-float-n", "size-s", "size-n", "mask-s", "mask-float-s",
        "mask-set"])
def test_subset_generators_check_arguments_at_the_call(call, message):
    with pytest.raises(DomainError) as err:
        call()  # no next(): the refusal comes before any subset is asked for
    assert str(err.value) == message
