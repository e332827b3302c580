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
import itertools
import operator
import re
from dataclasses import dataclass

from .errors import DomainError, ParseError

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
    "subsets_of_mask",
]


def _integer(x, what: str) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {x!r}") from None


def _permutation(perm, n: int, what: str) -> list[int]:
    """perm as a list of ints, refused unless it is a permutation of 0..n-1."""
    perm = [_integer(v, f"{what} entry") for v in perm]
    if sorted(perm) != list(range(n)):
        raise DomainError(f"{what} must be a permutation of 0..n-1")
    return perm


def bits_of(mask: int) -> list[int]:
    """Vertex ids in a bitset, ascending."""
    if mask < 0:
        raise DomainError(f"a vertex set is a nonnegative bitset, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices) -> int:
    """Bitset from an iterable of vertex ids."""
    m = 0
    for v in vertices:
        if v < 0:
            raise DomainError(f"vertex ids are nonnegative, got {v}")
        m |= 1 << v
    return m


def ceil_log2(n: int) -> int:
    """Smallest k with 2**k >= n, for n >= 1."""
    if n < 1:
        raise DomainError(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    adj[v] is the neighbor bitset of v.  Construction validates symmetry
    and irreflexivity, so downstream code never re-checks them.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "adj", tuple(self.adj))
        if self.n < 0:
            raise DomainError(f"vertex count must be >= 0, got {self.n}")
        if len(self.adj) != self.n:
            raise DomainError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        for v, row in enumerate(self.adj):
            if row >> self.n:  # O(len(row)); masking with ~full costs O(n) per row
                raise DomainError(f"adjacency row of {v} mentions vertices >= {self.n}")
            if row >> v & 1:
                raise DomainError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            rest = row
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise DomainError(f"asymmetric edge {v}-{u}")
                rest ^= low

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        """Yield edges as (u, v) with u < v, ascending."""
        for v in range(self.n):
            rest = self.adj[v] >> (v + 1) << (v + 1)
            while rest:
                low = rest & -rest
                yield v, low.bit_length() - 1
                rest ^= low


def _check_subset(g: Graph, subset: int) -> None:
    if subset & ~g.vertex_mask:
        raise DomainError("vertex set mentions vertices outside the graph")


def _induced_max_degree(adj, subset: int) -> int:
    """Maximum degree of the subgraph induced by `subset`, unchecked."""
    best = 0
    rest = subset
    while rest:
        low = rest & -rest
        d = (adj[low.bit_length() - 1] & subset).bit_count()
        if d > best:
            best = d
        rest ^= low
    return best


def max_degree_within(g: Graph, subset: int) -> int:
    """Maximum degree of the induced subgraph; 0 for empty or singleton sets."""
    _check_subset(g, subset)
    return _induced_max_degree(g.adj, subset)


def induced_subgraph(g: Graph, subset: int) -> Graph:
    """Standalone copy of the induced subgraph, vertices relabeled to 0..k-1."""
    _check_subset(g, subset)
    members = bits_of(subset)
    index = {v: i for i, v in enumerate(members)}
    adj = []
    for v in members:
        row = 0
        rest = g.adj[v] & subset
        while rest:
            low = rest & -rest
            row |= 1 << index[low.bit_length() - 1]
            rest ^= low
        adj.append(row)
    return Graph(len(members), tuple(adj))


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
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
    other text is checked field by field.
    """
    to_int = int if text.isascii() and "_" not in text and "+" not in text else _decimal
    lines = text.splitlines()
    n = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError("expected a lone vertex count", lineno)
            try:
                n = to_int(fields[0])
            except ValueError:
                raise ParseError(f"bad vertex count {fields[0]!r}", lineno) from None
            if n < 0:
                raise ParseError(f"vertex count must be >= 0, got {n}", lineno)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {stripped!r}", lineno)
        try:
            u, v = to_int(fields[0]), to_int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {stripped!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in edge {u}-{v} (n={n})", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input, expected a vertex count line")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


_G6_MAX_N = 258047  # largest n encodable in the 4-byte graph6 header


def _g6_header(data: bytes):
    """Split a graph6 byte string into (n, body)."""
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
    the pairs (i, j) for i = 0..j-1, one contiguous run of j bits, so it
    gives the bits of adj[j] below j at once.  One loop over its set bits
    then fills in the upper triangle.
    """
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
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
    adj = [0] * n
    start = 0
    for j in range(1, n):
        below = int(bits[start:start + j][::-1], 2)
        start += j
        adj[j] |= below
        bit = 1 << j
        while below:
            low = below & -below
            adj[low.bit_length() - 1] |= bit
            below ^= low
    return Graph(n, tuple(adj))


def encode_graph6(g: Graph) -> str:
    """Encode to graph6, bit-exact with the standard format: column j of the
    bit string is the j bits of adj[j] below j, lowest vertex first."""
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
    if n < 1:
        raise DomainError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise DomainError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """Sides {0..m-1} and {m..m+n-1}."""
    if m < 1 or n < 1:
        raise DomainError(f"complete bipartite graph needs m, n >= 1, got {m}, {n}")
    return Graph.from_edges(m + n, ((a, m + b) for a in range(m) for b in range(n)))


def hypercube_graph(n: int) -> Graph:
    """n-dimensional hypercube; vertex id encodes the 0/1 tuple in binary."""
    if n < 1:
        raise DomainError(f"hypercube needs n >= 1, got {n}")
    size = 1 << n
    adj = [0] * size
    for v in range(size):
        for b in range(n):
            adj[v] |= 1 << (v ^ (1 << b))
    return Graph(size, tuple(adj))


# ---------------------------------------------------------------------------
# subset iteration
# ---------------------------------------------------------------------------

def subsets_of_size(n: int, s: int):
    """All C(n, s) subsets of {0..n-1} as bitsets, in increasing numeric order.

    Gosper's hack: each step produces the next-larger int with the same
    popcount.  The numeric order is the package-wide canonical subset order;
    tie-breaks elsewhere mean "smallest mask in this order".
    """
    if s < 0 or s > n:
        raise DomainError(f"subset size {s} out of range for n={n}")
    if s == 0:
        yield 0
        return
    x = (1 << s) - 1
    limit = 1 << n
    while x < limit:
        yield x
        low = x & -x
        ripple = x + low
        x = ((ripple ^ x) >> (low.bit_length() + 1)) | ripple


def subsets_of_mask(mask: int, s: int):
    """All size-s subsets of an arbitrary bitset, in increasing numeric order."""
    members = bits_of(mask)
    k = len(members)
    if s < 0 or s > k:
        raise DomainError(f"subset size {s} out of range for a {k}-element set")
    if mask == (1 << k) - 1:  # contiguous: no index translation needed
        yield from subsets_of_size(k, s)
        return
    for idx_mask in subsets_of_size(k, s):
        sub = 0
        rest = idx_mask
        while rest:
            low = rest & -rest
            sub |= 1 << members[low.bit_length() - 1]
            rest ^= low
        yield sub
