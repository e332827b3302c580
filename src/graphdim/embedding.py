"""Unit-distance embeddings from proper colorings.

Any proper k-coloring yields an embedding into R^(2k): reserve a
coordinate pair per color and place each color class on the circle
x^2 + y^2 = 1/2 in its own pair, zeros elsewhere, at distinct rational
points.  Endpoints of an edge have different colors, hence disjoint
supports, so every edge has squared length exactly 1/2 + 1/2 = 1;
vertices in different classes differ structurally (disjoint nonzero
supports), so all points are pairwise distinct.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress
from math import gcd
from operator import methodcaller

from .coloring import Coloring, is_proper
from .core import Graph, _count, _entries, _instance, _integer, bits_of
from .errors import DomainError

__all__ = [
    "Embedding",
    "EmbeddingReport",
    "unit_distance_embed",
    "verify_embedding",
    "format_embedding",
]

_ratio = methodcaller("as_integer_ratio")


class Embedding(namedtuple("Embedding", "ambient_dim points")):
    """Vertex -> point map; points[v] has ambient_dim int or Fraction coordinates.

    verify_embedding refuses any other coordinate (a float, say) with
    DomainError: a float never certifies a unit distance.
    """

    __slots__ = ()


class EmbeddingReport(namedtuple("EmbeddingReport", "ambient_dim edges_ok distinct_ok")):
    """Verifier output; violations are reported here, never raised.
    edges_ok: every edge has squared length exactly 1; distinct_ok: no two
    vertices share a point."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.edges_ok and self.distinct_ok


def unit_distance_embed(g: Graph, col: Coloring) -> Embedding:
    """Place each color class on its own circle x^2 + y^2 = 1/2 in R^(2k).

    The j-th vertex of a class (ascending ids) sits at the rational point
    (j^2 - 2j - 1, 1 - 2j - j^2) / (2 (1 + j^2)) in the coordinate pair
    (2c, 2c+1), zeros elsewhere: the second point where the line of slope j
    through (1, 1) meets u^2 + v^2 = 2, halved, so distinct j give distinct
    points.  Requires col to be a proper coloring of g.
    """
    # imported here: fractions imports decimal, which would add nearly a
    # third to the import time of the whole package (2.2 ms to 7.4 ms for
    # graphdim and graphdim.cli, CPython 3.11 on a 2-core x86-64 VM)
    from fractions import Fraction

    _instance(g, Graph, "graph must be a Graph")
    _instance(col, Coloring, "coloring must be a Coloring")
    if len(col.colors) != g.n:
        raise DomainError(f"coloring covers {len(col.colors)} vertices, graph has {g.n}")
    if not is_proper(g, col.colors):
        raise DomainError("coloring is not proper for this graph")
    k = col.palette_size
    ambient = 2 * k
    seen = [0] * k
    circle = []  # circle[j]: the j-th point of every class
    points = []
    for v in range(g.n):
        c = col.colors[v]
        j = seen[c]
        seen[c] += 1
        if j == len(circle):
            den = 2 * (1 + j * j)
            circle.append((Fraction(j * j - 2 * j - 1, den), Fraction(1 - 2 * j - j * j, den)))
        coords = [0] * ambient
        coords[2 * c], coords[2 * c + 1] = circle[j]
        points.append(tuple(coords))
    return Embedding(ambient_dim=ambient, points=tuple(points))


def verify_embedding(g: Graph, emb: Embedding) -> EmbeddingReport:
    """Check exactly that every edge has squared length 1 and that all
    points are distinct.

    One pass over the points finds each vertex's support (its nonzero
    coordinates), the bitset on[i] of vertices nonzero at coordinate i, and
    its squared norm.  An edge whose endpoints share no coordinate has
    squared length |p|^2 + |q|^2, so for each vertex u one bitset test
    settles all such edges: its neighbours outside shared(u), the OR of
    on[i] over u's support, must have a norm that adds to 1 with u's.  Only
    the edges inside shared(u) take the exact inner product.  Points are
    distinct when their (support, nonzero values) pairs are.  Cost:
    O(n * support) bitset steps, plus exact arithmetic only on edges whose
    endpoints share a coordinate (none, for the embedding of a proper
    coloring).

    Raises DomainError for a malformed embedding (see _checked_points) or
    one that does not have a point per vertex of g.
    """
    from fractions import Fraction  # imported here, as in unit_distance_embed

    _instance(g, Graph, "graph must be a Graph")
    d, points = _checked_points(emb, g.n)
    if len(points) != g.n:
        raise DomainError(
            f"embedding covers {_count(emb.points, points, g.n)} vertices, graph has {g.n}")
    on = [0] * d if points else []  # no points: ambient_dim may be too large to allocate
    supports, keys, norm_of = [], [], []
    with_norm = {}  # squared norm as a reduced (numerator, denominator) -> bitset of its vertices
    for v, p in enumerate(points):
        support = tuple(compress(range(d), p))
        for i in support:
            on[i] |= 1 << v
        key = tuple(map(_ratio, map(p.__getitem__, support)))
        num, den = 0, 1
        for a, b in key:
            num, den = num * b * b + a * a * den, den * b * b
        common = gcd(num, den)
        norm = (num // common, den // common)
        with_norm[norm] = with_norm.get(norm, 0) | 1 << v
        supports.append(support)
        keys.append(key)
        norm_of.append(norm)
    shared = {}  # support -> OR of on[i] over it
    for support in set(supports):
        mask = 0
        for i in support:
            mask |= on[i]
        shared[support] = mask

    def edges_ok():
        for u, row in enumerate(g.adj):
            near = shared[supports[u]]
            num, den = norm_of[u]
            # the vertices whose norm is 1 - num/den, still reduced
            if row & ~(near | with_norm.get((den - num, den), 0)):
                return False
            p = points[u]
            # each edge with a shared coordinate once, from its lower end
            for v in bits_of((row & near) >> (u + 1) << (u + 1)):
                q = points[v]
                dot = sum(p[i] * q[i] for i in supports[u] if q[i])
                if Fraction(num, den) + Fraction(*norm_of[v]) - 2 * dot != 1:
                    return False
        return True

    return EmbeddingReport(ambient_dim=d, edges_ok=edges_ok(),
                           distinct_ok=len(set(zip(supports, keys))) == g.n)


def format_embedding(emb: Embedding, col: Coloring) -> str:
    """Text export, one line per vertex: 'v c x_0 ... x_{2k-1}', each ending
    in a newline, so a graph with no vertices gives empty text.

    Coordinates are written exactly, by their value, as integers or reduced
    fractions p/q: False and True are written 0 and 1, as verify_embedding
    reads them.
    Raises DomainError for a malformed embedding, as verify_embedding does.
    """
    from fractions import Fraction  # imported here, as in unit_distance_embed

    _instance(col, Coloring, "coloring must be a Coloring")
    points = _checked_points(emb, len(col.colors))[1]
    if len(col.colors) != len(points):
        raise DomainError("coloring and embedding cover different vertex counts")
    return "".join(f"{v} {c} {' '.join(str(Fraction(x)) for x in point)}\n"
                   for v, (c, point) in enumerate(zip(col.colors, points)))


def _checked_points(emb: Embedding, n: int) -> tuple[int, tuple[tuple, ...]]:
    """(ambient_dim, points as a tuple of tuples) of an embedding that
    should have n points, checked.

    The points, and the coordinates of each, are read through _entries with
    the length they should have, n and ambient_dim, so an argument too long
    by any amount is read one entry past it; a tuple of tuples is kept as
    it is.  Raises DomainError for an object that is not an Embedding, an
    ambient_dim that is not an integer >= 0, points that are not a sequence
    of coordinate sequences, a point that does not have ambient_dim
    coordinates, or a coordinate that is not an int or a Fraction.
    """
    from fractions import Fraction  # imported here, as in unit_distance_embed

    _instance(emb, Embedding, "embedding must be an Embedding")
    d = _integer(emb.ambient_dim, "ambient_dim", 0)
    rule = "points must be a sequence of coordinate sequences"
    points = _entries(emb.points, rule, n)
    if set(map(type, points)) - {tuple}:
        try:
            points = tuple(_entries(p, rule, d) for p in points)
        except DomainError:
            raise DomainError(f"{rule}, got {emb.points!r}") from None
    if set(map(len, points)) - {d}:
        raise DomainError(f"every point needs ambient_dim={d} coordinates")
    for kind in set(map(type, chain.from_iterable(points))):
        if not issubclass(kind, (int, Fraction)):
            raise DomainError(f"coordinates must be int or Fraction, got {kind.__name__}")
    return d, points
