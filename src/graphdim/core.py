"""Graph representation and induced-subgraph primitives.

Graphs are simple and undirected.  Vertices are the integers 0..n-1 and
every vertex subset is a plain Python int used as a bitset (bit v set means
vertex v is in the set), so induced subgraphs are represented by their
vertex set alone: the edge set is always the full set of host edges between
the chosen vertices.  Adjacency is stored as one bitset per vertex, which
keeps degree-within-subset queries at a single AND plus popcount.
"""

from __future__ import annotations

import binascii
import functools
import itertools
import math
import operator
import re
import sys
from collections import namedtuple

from .errors import DomainError, ParseError

_PACKAGE = __name__.rpartition(".")[0] + "."  # "graphdim.", the prefix of its modules

__all__ = [
    "Graph",
    "bits_of",
    "mask_of",
    "ceil_log2",
    "max_degree_within",
    "induced_subgraph",
    "relabel",
    "parse_edge_list",
    "format_edge_list",
    "parse_graph6",
    "encode_graph6",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "hypercube_graph",
    "subsets_of_size",
]


def _integer(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """x as an int by operator.index, the one guard of every integer argument.

    Anything else is refused with DomainError "{what} must be an integer,
    got {x!r}".  With a lower bound lo, x < lo is refused as "{what} must be
    >= {lo}, got {x}"; with both bounds (hi only together with lo), x outside
    lo..hi is refused as "{what} {x} out of range {lo}..{hi}".
    """
    try:
        x = operator.index(x)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {x!r}") from None
    if hi is not None:
        if not lo <= x <= hi:
            raise DomainError(f"{what} {x} out of range {lo}..{hi}")
    elif lo is not None and x < lo:
        raise DomainError(f"{what} must be >= {lo}, got {x}")
    return x


def _iterable(x, rule: str):
    """x itself once iter(x) accepts it, the one guard of every iterable
    argument; anything else is refused with DomainError "{rule}, got {x!r}".
    A record of this package (a Graph, a certificate, a Coloring, ...) is
    refused too: it iterates over its fields, which are no sequence of
    arguments.  A caller's own named tuple is accepted."""
    try:
        if type(x).__module__.startswith(_PACKAGE):
            raise TypeError
        iter(x)
    except TypeError:
        raise DomainError(f"{rule}, got {x!r}") from None
    return x


def _instance(x, cls, rule: str):
    """x itself when it is a cls, the one guard of every argument of a
    class; anything else is refused with DomainError "{rule}, got {x!r}"."""
    if not isinstance(x, cls):
        raise DomainError(f"{rule}, got {x!r}")
    return x


def _entries(x, rule: str, n: int | None = None) -> tuple:
    """The entries of x, checked by _iterable, as a tuple; a tuple is kept,
    not copied.  With n, the length x must have, at most n + 1 entries of
    any other iterable are read: an argument too long by any amount is
    refused one entry past n, never read to its end.  Without n, x is read
    to its end, and entries too many to hold are refused with DomainError
    "{rule}, got one too large" (an endless iterator is read forever)."""
    x = _iterable(x, rule)
    if n is not None and type(x) is not tuple:
        return tuple(itertools.islice(x, min(n, sys.maxsize - 1) + 1))
    try:
        return tuple(x)
    except MemoryError:
        raise DomainError(f"{rule}, got one too large") from None


def _count(x, entries: tuple, n: int):
    """len(entries) as a message gives it, where entries = _entries(x, rule, n):
    exact for a tuple x, kept whole, and for any x of at most n entries;
    "more than n" where reading x stopped one entry past n."""
    return len(entries) if type(x) is tuple or len(entries) <= n else f"more than {n}"


def _permutation(perm, n: int, what: str) -> list[int]:
    """perm as a list of ints, refused unless it is a permutation of 0..n-1."""
    rule = f"{what} must be a permutation of 0..n-1"
    perm = [_integer(v, f"{what} entry") for v in _entries(perm, rule, n)]
    if sorted(perm) != list(range(n)):
        raise DomainError(rule)
    return perm


def _checked_make(cls, fields):
    """The _make of a checked record: cls(*fields), so that _make and
    _replace, which builds through it, run the checks of cls."""
    return cls(*fields)


def bits_of(mask: int) -> list[int]:
    """Vertex ids in a bitset, ascending."""
    mask = _integer(mask, "vertex set", 0)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bit(v: int, what: str) -> int:
    """1 << v for an int v >= 0; where no int that large can be made, a
    DomainError "{what} {v} too large", as Graph.from_edges refuses a count."""
    try:
        return 1 << v
    except (OverflowError, MemoryError):
        raise DomainError(f"{what} {v} too large") from None


def mask_of(vertices) -> int:
    """Bitset from an iterable of vertex ids."""
    m = 0
    for v in _iterable(vertices, "vertices must be an iterable of vertex ids"):
        m |= _bit(_integer(v, "vertex id", 0), "vertex id")
    return m


def ceil_log2(n: int) -> int:
    """Smallest k with 2**k >= n, for n >= 1."""
    return (_integer(n, "ceil_log2 argument", 1) - 1).bit_length()


class Graph(namedtuple("Graph", "n adj")):
    """Immutable simple undirected graph on vertices 0..n-1, a named tuple
    (n, adj).

    adj[v] is the neighbor bitset of v.  A graph is checked once, where it
    enters the package, and trusted everywhere after.  Graph(n, adj) keeps
    the rows as given and checks them all: integer n and rows, no vertex
    >= n, no self-loop, and symmetry, one step per edge; _make, and so
    _replace, checks the same way.  Builders whose rows are symmetric,
    loop-free and below n by construction skip that walk through the
    private Graph._built: from_edges, parse_edge_list and parse_graph6
    after their own checks of n and of each edge, line or byte; and
    induced_subgraph, cayley.cayley_graph and verify.enumerate_labeled_graphs,
    whose rows come from a checked graph, a checked group or a plain count.
    """

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        n = _integer(n, "vertex count", 0)
        rows = _entries(adj, "adjacency must be a sequence of rows", n)
        if len(rows) != n:
            raise DomainError(f"adjacency has {_count(adj, rows, n)} rows for n={n}")
        for v, row in enumerate(rows):
            _integer(row, f"adjacency row of {v}")
            if row >> n:  # O(len(row)); masking with ~full costs O(n) per row
                raise DomainError(f"adjacency row of {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise DomainError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits_of(row):
                if not rows[u] >> v & 1:
                    raise DomainError(f"asymmetric edge {v}-{u}")
        return tuple.__new__(cls, (n, rows))

    _make = classmethod(_checked_make)

    @classmethod
    def _built(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph from rows that are symmetric, loop-free and below n by
        construction, made without the checks of Graph(n, adj)."""
        return tuple.__new__(cls, (n, adj))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """The graph on 0..n-1 with the given (u, v) pairs as its edges; a
        count too large to allocate rows for is a DomainError."""
        n = _integer(n, "vertex count", 0)
        try:
            adj = [0] * n
        except (OverflowError, MemoryError):
            raise DomainError(f"vertex count {n} too large") from None
        for edge in _iterable(edges, "edges must be an iterable of pairs"):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise DomainError(f"an edge is a pair of vertices, got {edge!r}") from None
            u, v = _integer(u, "edge endpoint"), _integer(v, "edge endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._built(n, tuple(adj))

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        """Yield edges as (u, v) with u < v, ascending."""
        for v, row in enumerate(self.adj):
            for u in bits_of(row >> (v + 1) << (v + 1)):
                yield v, u


def _check_subset(g: Graph, subset: int) -> int:
    """subset as an int by _integer, refused unless g is a Graph and subset
    lies within its vertices."""
    _instance(g, Graph, "graph must be a Graph")
    subset = _integer(subset, "vertex set")
    if subset & ~g.vertex_mask:
        raise DomainError("vertex set mentions vertices outside the graph")
    return subset


def max_degree_within(g: Graph, subset: int) -> int:
    """Maximum degree of the induced subgraph; 0 for empty or singleton sets."""
    subset = _check_subset(g, subset)
    return max([(g.adj[v] & subset).bit_count() for v in bits_of(subset)], default=0)


def induced_subgraph(g: Graph, subset: int) -> Graph:
    """Standalone copy of the induced subgraph, vertices relabeled to 0..k-1."""
    subset = _check_subset(g, subset)
    members = bits_of(subset)
    index = {v: i for i, v in enumerate(members)}
    adj = tuple(sum(1 << index[u] for u in bits_of(g.adj[v] & subset)) for v in members)
    return Graph._built(len(members), adj)


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
    _instance(g, Graph, "graph must be a Graph")
    perm = _permutation(perm, g.n, "perm")
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# an integer of the edge-list format, its count line included
_INTEGER = re.compile(r"-?[0-9]+")


def _decimal(field: str) -> int:
    """int() of a field that _INTEGER matches whole, else ValueError."""
    if not _INTEGER.fullmatch(field):
        raise ValueError(field)
    return int(field)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: first line n, then one 'u v' pair per line.

    Duplicate edges are tolerated; blank lines are skipped.  An integer is
    ASCII decimal digits with an optional leading '-', the rule _INTEGER that
    the loader also applies to a file's count line; int() alone would also
    take '+3', '1_0' and non-ASCII digits.  Of those, ASCII text can only
    hold '+' and '_', so text free of both converts with int(), and only
    other text is checked field by field.  Each edge is checked for range
    and self-loops on its line and set in both rows at once, so the rows
    are symmetric by construction and the graph is built unchecked.  The
    rows are allocated at the count line, before the edges are read, so a
    caller bounds the count first (load_input checks it against the cap);
    a count too large to allocate is a ParseError on its line.
    """
    _instance(text, str, "edge-list text must be a str")
    to_int = int if text.isascii() and "_" not in text and "+" not in text else _decimal
    lines = text.splitlines()
    n = None
    adj = None
    for lineno, fields in enumerate(map(str.split, lines), start=1):
        if not fields:
            continue
        if n is None:
            if len(fields) != 1:
                raise ParseError("expected a lone vertex count", lineno)
            try:
                n = to_int(fields[0])
            except ValueError:
                raise ParseError(f"bad vertex count {fields[0]!r}", lineno) from None
            if n < 0:
                raise ParseError(f"vertex count must be >= 0, got {n}", lineno)
            try:
                adj = [0] * n
            except (OverflowError, MemoryError):
                raise ParseError(f"vertex count {n} too large", lineno) from None
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {lines[lineno - 1].strip()!r}", lineno)
        try:
            u, v = to_int(fields[0]), to_int(fields[1])
        except ValueError:
            raise ParseError(
                f"non-integer endpoint in {lines[lineno - 1].strip()!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in edge {u}-{v} (n={n})", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if n is None:
        raise ParseError("empty input, expected a vertex count line")
    return Graph._built(n, tuple(adj))


# bytes of a binary string as selectors for itertools.compress: '0' -> 0, '1' -> 1
_SELECT = bytes.maketrans(b"01", b"\x00\x01")


def format_edge_list(g: Graph) -> str:
    """The edge-list text of g: the line n, then 'u v' for each edge with
    u < v, ascending.  A row at a time, the neighbors above v are picked
    from a table of vertex names by the row's binary digits and joined into
    that row's block of lines; a row costs the bit length of its part above
    v, so sparse graphs stay linear in n + m."""
    _instance(g, Graph, "graph must be a Graph")
    names = [str(v) for v in range(g.n)]
    blocks = [str(g.n)]
    for v, row in enumerate(g.adj):
        above = row >> v + 1
        if above:
            picks = format(above, "b")[::-1].encode("ascii").translate(_SELECT)
            head = f"{v} "
            blocks.append(head + f"\n{head}".join(
                itertools.compress(names[v + 1:v + 1 + len(picks)], picks)))
    return "\n".join(blocks) + "\n"


_G6_MAX_N = 258047  # largest n encodable in the 4-byte graph6 header


def _g6_header(data: bytes):
    """Split a graph6 byte string, optionally prefixed '>>graph6<<', into (n, body)."""
    data = data.removeprefix(b">>graph6<<")
    if not data:
        raise ParseError("empty graph6 input")
    if data[0] == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            raise ParseError("graph6 inputs beyond n=258047 are not supported")
        if len(data) < 4:
            raise ParseError("truncated graph6 size header")
        vals = [b - 63 for b in data[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise ParseError("bad graph6 size header byte")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        return n, data[4:]
    n = data[0] - 63
    if n < 0 or n > 62:
        raise ParseError(f"bad graph6 header byte {data[0]}")
    return n, data[1:]


# graph6 packs its bit string six bits to a byte, most significant first, as
# base64 does; only the alphabet differs (byte 63 + value), so binascii packs
# and unpacks it and one translation table maps between the two alphabets
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_TO_G6, _FROM_G6 = bytes.maketrans(_B64, _G6), bytes.maketrans(_G6, _B64)


def parse_graph6(text: str) -> Graph:
    """Decode one graph in graph6 format (optionally prefixed '>>graph6<<').

    The bit string holds the upper triangle column by column: column j is
    the pairs (i, j) for i = 0..j-1, one contiguous run of j bits.  Column j
    is laid into row j of an n-by-n square of '0'/'1' bytes, which is '0'
    elsewhere.  Row v of the square then starts with the bits of adj[v]
    below v, and column v read downwards from row v holds those above v, so
    each row is two slices and one int(), with no step per edge.  The square
    takes twice the memory of the bit string.  The header, length, byte
    range and padding are checked; the rows are symmetric and loop-free by
    construction, so the graph is built unchecked.
    """
    line = _instance(text, str, "graph6 text must be a str").strip()
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError:
        raise ParseError("graph6 input is not ASCII") from None
    n, body = _g6_header(data)
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ParseError(f"graph6 body has {len(body)} bytes, expected {expect} for n={n}")
    if body and not (63 <= min(body) and max(body) <= 126):
        bad = next(b for b in body if not 63 <= b <= 126)
        raise ParseError(f"graph6 body byte {bad} out of range")
    raw = binascii.a2b_base64(body.translate(_FROM_G6) + b"A" * (-len(body) % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")[:6 * len(body)]
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bits in graph6 body")
    bits = bits.encode("ascii")
    square = bytearray(b"0") * (n * n)
    for j in range(1, n):
        square[j * n:j * n + j] = bits[j * (j - 1) // 2:j * (j + 1) // 2]
    adj = tuple(int((square[v * n:v * n + v] + square[v * n + v::n])[::-1], 2)
                for v in range(n))
    return Graph._built(n, adj)


def encode_graph6(g: Graph) -> str:
    """Encode to graph6, bit-exact with the standard format: column j of the
    bit string is the j bits of adj[j] below j, lowest vertex first."""
    _instance(g, Graph, "graph must be a Graph")
    n = g.n
    if n > _G6_MAX_N:
        raise DomainError(f"graph6 encoding supports n <= {_G6_MAX_N}")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    bits = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    size = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)  # whole groups of four characters, three bytes
    raw = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    body = binascii.b2a_base64(raw, newline=False)[:size].translate(_TO_G6)
    return (head + body).decode("ascii")


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    n = _integer(n, "vertex count", 1)
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    n = _integer(n, "vertex count", 3)
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    n = _integer(n, "vertex count", 1)
    # pairs made lazily: combinations() would hold range(n) before from_edges checks n
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """Sides {0..m-1} and {m..m+n-1}."""
    m, n = _integer(m, "side size", 1), _integer(n, "side size", 1)
    return Graph.from_edges(m + n, ((a, m + b) for a in range(m) for b in range(n)))


def hypercube_graph(n: int) -> Graph:
    """n-dimensional hypercube; vertex id encodes the 0/1 tuple in binary."""
    n = _integer(n, "hypercube dimension", 1)
    if n >= sys.maxsize.bit_length():  # no list has 2^n rows; 1 << n alone may not fit
        raise DomainError(f"vertex count 2**{n} too large")
    return Graph.from_edges(1 << n, ((v, v | 1 << b) for v in range(1 << n)
                                     for b in range(n) if not v >> b & 1))


# ---------------------------------------------------------------------------
# subset iteration
# ---------------------------------------------------------------------------

def subsets_of_size(n: int, s: int):
    """All C(n, s) subsets of {0..n-1} as bitsets, in increasing numeric order.

    The arguments are checked at the call; the subsets come from an
    iterator.  A subset is h << _LOW | l: its high part h over the vertices
    _LOW..n-1 and its pattern l over the low _LOW vertices.  The high parts
    are walked in ascending order (_blocks), and for each the patterns of
    the remaining weight come from one table, ascending; ordering by (h, l)
    is ordering by the int, so this is the numeric order, the package-wide
    canonical subset order, and tie-breaks elsewhere mean "smallest mask in
    this order".  For n <= _LOW there is one high part, 0, and the subsets
    are a prefix of the table's group of weight s.
    """
    n = _integer(n, "set size", 0)
    s = _integer(s, "subset size", 0, n)
    _bit(n, "set size")  # a set too large to make a bitset of is refused here
    return _subsets(n, s)


# a subset's low _LOW vertices are its pattern, walked from _pattern_tables
_LOW = 12


@functools.cache
def _pattern_tables():
    """The tables of the 2**_LOW patterns, built on first use:
    by_weight[w], the patterns of popcount w, ascending; holds[v], the
    plane (a 2**_LOW-bit int, bit l for pattern l) of the patterns that hold
    vertex v; and weights[w], the plane of the patterns of popcount w."""
    count = 1 << _LOW
    by_weight = [[] for _ in range(_LOW + 1)]
    for pattern in range(count):
        by_weight[pattern.bit_count()].append(pattern)
    full = (1 << count) - 1
    # bit l of holds[v] is bit v of l: blocks of 2**v ones above 2**v zeros,
    # repeated with the mask of cayley.translate
    holds = tuple(((1 << (1 << v)) - 1 << (1 << v)) * (full // ((1 << (2 << v)) - 1))
                  for v in range(_LOW))
    at_least = _planes_at_least(holds, count - 1, full)
    weights = tuple(a ^ b for a, b in zip(at_least, at_least[1:] + [0]))
    return tuple(map(tuple, by_weight)), holds, weights


def _planes_at_least(holds, vertices: int, span: int) -> list[int]:
    """The planes of the patterns in the plane span that hold at least k of
    the low vertices in the bitset `vertices`, for k = 0..|vertices|: one
    level per vertex, each level from the one before (at least k with v is
    at least k, or at least k - 1 and v).  Every level lies within span, so
    a narrow span keeps the ints narrow."""
    levels = [span]
    while vertices:
        low = vertices & -vertices
        vertices ^= low
        plane = holds[low.bit_length() - 1]
        levels.append(levels[-1] & plane)
        for k in range(len(levels) - 2, 0, -1):
            levels[k] |= levels[k - 1] & plane
    return levels


def _blocks(n: int, s: int):
    """(h, s - |h|) for the high parts h of the s-subsets of {0..n-1}, the
    ints below 2**max(n - _LOW, 0) of popcount s - _LOW..s, ascending."""
    top = 1 << max(n - _LOW, 0)
    lo = max(s - _LOW, 0)
    h = (1 << lo) - 1
    while h < top:
        yield h, s - h.bit_count()
        h += 1
        while h < top and h.bit_count() > s:
            h += h & -h  # carry out the lowest run of ones
        while h.bit_count() < lo:
            h |= h + 1  # set the lowest zero


def _subsets(n: int, s: int):
    """subsets_of_size for checked arguments: block by block, the patterns
    of the remaining weight below 2**n, each or-ed with the high part; a
    block whose high part is 0 (the first, for s <= _LOW) holds the
    patterns themselves."""
    by_weight = _pattern_tables()[0]
    low = min(n, _LOW)
    return itertools.chain.from_iterable(
        map((h << _LOW).__or__, by_weight[c]) if h else by_weight[c][:math.comb(low, c)]
        for h, c in _blocks(n, s))
