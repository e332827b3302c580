"""Unit-distance embeddings from proper colorings.

Any proper k-coloring yields an embedding into R^(2k): reserve a
coordinate pair per color and place each color class on the circle of
radius 1/sqrt(2) in its own pair, zeros elsewhere.  Endpoints of an edge
have different colors, hence disjoint supports, so every edge has squared
length exactly 1/2 + 1/2 = 1 up to rounding.  Vertices sharing a class are
spread at equally spaced angles, which maximizes their minimum separation;
vertices in different classes differ structurally (disjoint nonzero
supports), so all points are pairwise distinct.
"""

from __future__ import annotations

import math
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

_RADIUS = math.sqrt(0.5)


@dataclass(frozen=True)
class Embedding:
    """Vertex -> point map; points[v] has ambient_dim coordinates."""

    ambient_dim: int
    points: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class EmbeddingReport:
    """Verifier output; violations are reported here, never raised."""

    ambient_dim: int
    max_edge_error: float      # max | edge length - 1 |
    min_pair_distance: float   # inf when fewer than two vertices
    edges_ok: bool
    distinct_ok: bool

    @property
    def ok(self) -> bool:
        return self.edges_ok and self.distinct_ok


def unit_distance_embed(g: Graph, col: Coloring) -> Embedding:
    """Place each color class on its own 1/sqrt(2)-circle in R^(2k).

    The j-th vertex of a class of size m (ascending ids) sits at angle
    2*pi*j/m in the coordinate pair (2c, 2c+1).  Requires col to be a
    proper coloring of g.
    """
    if len(col.colors) != g.n:
        raise DomainError(f"coloring covers {len(col.colors)} vertices, graph has {g.n}")
    if not is_proper(g, col.colors):
        raise DomainError("coloring is not proper for this graph")
    k = col.palette_size
    ambient = 2 * k
    class_size = [0] * k
    for c in col.colors:
        class_size[c] += 1
    seen = [0] * k
    points = []
    for v in range(g.n):
        c = col.colors[v]
        theta = 2.0 * math.pi * seen[c] / class_size[c]
        seen[c] += 1
        coords = [0.0] * ambient
        coords[2 * c] = _RADIUS * math.cos(theta)
        coords[2 * c + 1] = _RADIUS * math.sin(theta)
        points.append(tuple(coords))
    return Embedding(ambient_dim=ambient, points=tuple(points))


def _dist(p, q) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def verify_embedding(g: Graph, emb: Embedding, tol: float = 1e-9) -> EmbeddingReport:
    """Check all edges have length 1 within tol and all points are distinct
    (pairwise distance above tol)."""
    if len(emb.points) != g.n:
        raise DomainError(f"embedding covers {len(emb.points)} vertices, graph has {g.n}")
    max_edge_error = 0.0
    for u, v in g.edges():
        err = abs(_dist(emb.points[u], emb.points[v]) - 1.0)
        if err > max_edge_error:
            max_edge_error = err
    min_pair = math.inf
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d = _dist(emb.points[u], emb.points[v])
            if d < min_pair:
                min_pair = d
    return EmbeddingReport(
        ambient_dim=emb.ambient_dim,
        max_edge_error=max_edge_error,
        min_pair_distance=min_pair,
        edges_ok=max_edge_error <= tol,
        distinct_ok=min_pair > tol,
    )


def format_embedding(emb: Embedding, col: Coloring) -> str:
    """Text export, one line per vertex: 'v c x_0 ... x_{2k-1}'.

    Coordinates carry 17 significant digits, enough to round-trip floats.
    """
    if len(col.colors) != len(emb.points):
        raise DomainError("coloring and embedding cover different vertex counts")
    lines = []
    for v, point in enumerate(emb.points):
        coords = " ".join(f"{x:.17g}" for x in point)
        lines.append(f"{v} {col.colors[v]} {coords}")
    return "\n".join(lines) + "\n"
