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

from dataclasses import dataclass

from .coloring import Coloring, is_proper
from .core import Graph
from .errors import DomainError

__all__ = [
    "Embedding",
    "EmbeddingReport",
    "unit_distance_embed",
    "verify_embedding",
    "format_embedding",
]


@dataclass(frozen=True)
class Embedding:
    """Vertex -> point map; points[v] has ambient_dim int or Fraction coordinates."""

    ambient_dim: int
    points: tuple[tuple, ...]


@dataclass(frozen=True)
class EmbeddingReport:
    """Verifier output; violations are reported here, never raised."""

    ambient_dim: int
    edges_ok: bool      # every edge has squared length exactly 1
    distinct_ok: bool   # no two vertices share a point

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
    # imported here: fractions imports decimal, which would add about a
    # fifth to the import time of the whole package
    from fractions import Fraction

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

    An edge's squared length is |p|^2 + |q|^2 - 2<p, q>, summed over the
    nonzero coordinates only.  Points are distinct when their coordinate
    tuples are, which one set checks in O(n k).
    """
    if len(emb.points) != g.n:
        raise DomainError(f"embedding covers {len(emb.points)} vertices, graph has {g.n}")
    support = [{i: x for i, x in enumerate(p) if x} for p in emb.points]
    norm = [sum(x * x for x in s.values()) for s in support]

    def squared_length(u, v):
        su, sv = support[u], support[v]
        shared = su.keys() & sv.keys()
        if not shared:  # as for every edge of a coloring's embedding: no inner product
            return norm[u] + norm[v]
        return norm[u] + norm[v] - 2 * sum(su[i] * sv[i] for i in shared)

    return EmbeddingReport(ambient_dim=emb.ambient_dim,
                           edges_ok=all(squared_length(u, v) == 1 for u, v in g.edges()),
                           distinct_ok=len(set(emb.points)) == g.n)


def format_embedding(emb: Embedding, col: Coloring) -> str:
    """Text export, one line per vertex: 'v c x_0 ... x_{2k-1}'.

    Coordinates are written exactly, as integers or reduced fractions p/q.
    """
    if len(col.colors) != len(emb.points):
        raise DomainError("coloring and embedding cover different vertex counts")
    lines = []
    for v, point in enumerate(emb.points):
        coords = " ".join(map(str, point))
        lines.append(f"{v} {col.colors[v]} {coords}")
    return "\n".join(lines) + "\n"
