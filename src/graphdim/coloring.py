"""Proper vertex coloring: greedy, exact, critical subgraphs, and the
decomposition coloring driven by half-witness subsets.

The decomposition colorer is the constructive side of the chromatic bound:
peel off a majority-size subset of the remaining vertices whose induced max
degree is as small as possible (the subdim witness), color it greedily with
fresh colors, and repeat.  Each round at least halves the remainder, so
there are at most ceil(log2 n) rounds and each round spends at most
subdim(remainder) + 1 <= dim(g) + 1 colors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, _check_subset, bits_of, ceil_log2
from .dimension import SubdimCertificate, subdim
from .errors import DomainError
from .limits import require_within_cap

__all__ = [
    "Coloring",
    "DecompositionRound",
    "DecompositionTrace",
    "is_proper",
    "greedy_coloring",
    "chromatic_number",
    "chromatic_number_within",
    "critical_subgraph",
    "min_degree_check",
    "decomposition_coloring",
    "decomposition_round_bound",
    "chromatic_bound_from_dim",
]


@dataclass(frozen=True)
class Coloring:
    """Total proper coloring; color ids are gap-free 0..palette_size-1."""

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        used = set(self.colors)
        expected = self.palette_size
        if self.colors:
            if used != set(range(expected)):
                raise DomainError("palette has gaps or palette_size is wrong")
        elif expected != 0:
            raise DomainError("empty coloring must have palette_size 0")


@dataclass(frozen=True)
class DecompositionRound:
    chunk: int           # vertex bitset peeled off in this round
    chunk_delta: int     # induced max degree of the chunk
    palette_offset: int  # first color id this round's palette starts at


@dataclass(frozen=True)
class DecompositionTrace:
    rounds: tuple[DecompositionRound, ...]


def is_proper(g: Graph, colors) -> bool:
    colors = tuple(colors)
    if len(colors) != g.n:
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def greedy_coloring(g: Graph, order) -> Coloring:
    """First-fit coloring along the given vertex order (a permutation of V).

    Uses at most max_degree(g) + 1 colors, with no gaps in the palette.
    """
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise DomainError("order must be a permutation of the vertices")
    colors = [-1] * g.n
    top = _first_fit(g.adj, order, g.vertex_mask, colors, 0)
    return Coloring(tuple(colors), top)


def _first_fit(adj, order, within: int, colors: list[int], offset: int) -> int:
    """First-fit color the vertices of `order` in place with ids offset,
    offset + 1, ..., avoiding colored neighbors inside `within`, where every
    colored vertex holds an id >= offset; returns the number of ids used."""
    used = 0
    for v in order:
        taken = 0
        rest = adj[v] & within
        while rest:
            low = rest & -rest
            c = colors[low.bit_length() - 1]
            if c >= 0:
                taken |= 1 << (c - offset)
            rest ^= low
        c = (~taken & -~taken).bit_length() - 1  # lowest unused color
        colors[v] = offset + c
        if c + 1 > used:
            used = c + 1
    return used


def _degree_order(adj, vertices) -> list[int]:
    """`vertices` by descending degree in the whole graph, id as tie-break."""
    return sorted(vertices, key=lambda v: (-adj[v].bit_count(), v))


def _clique_lower_bound(adj, order: list[int]) -> int:
    """Greedy clique along `order`; a cheap chromatic lower bound."""
    clique = 0
    size = 0
    for v in order:
        if clique & ~adj[v] == 0:  # v adjacent to the whole clique so far
            clique |= 1 << v
            size += 1
    return size


def _color_decision(adj, order: list[int], k: int) -> list[int] | None:
    """Proper k-coloring of the subgraph on the vertices of `order` as its
    color classes (bitset c holds the vertices of color c), or None.

    Backtracking along `order` whose only state is the class bitsets: v
    fits class c iff adj[v] & classes[c] == 0.  The usual symmetry break:
    after the open classes, a vertex may open one new class.
    """
    classes = []

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        bit = 1 << v
        for c in range(len(classes)):
            if adj[v] & classes[c] == 0:
                classes[c] |= bit
                if place(i + 1):
                    return True
                classes[c] ^= bit
        if len(classes) < k:
            classes.append(bit)
            if place(i + 1):
                return True
            classes.pop()
        return False

    return classes if place(0) else None


def _chromatic(adj, order: list[int]) -> tuple[int, list[int]]:
    """Smallest k with a proper k-coloring of the vertices of `order` (a
    _degree_order), with its color classes.  A greedy clique bounds k below
    and backtracking decides each candidate upward.  At the first-fit
    palette size the decision's first branch is first-fit itself and never
    backtracks, so the scan ends there at the latest."""
    k = _clique_lower_bound(adj, order)
    if k == len(order):  # a clique: one class per vertex, no decision needed
        return k, [1 << v for v in order]
    while True:
        classes = _color_decision(adj, order, k)
        if classes is not None:
            return k, classes
        k += 1


def chromatic_number(g: Graph, cap: int | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number with a witnessing coloring.

    A greedy clique gives the lower bound and backtracking along the
    degree order decides each palette size upward from it; when no palette
    smaller than first-fit's works, the coloring is first-fit's own.
    """
    require_within_cap(g.n, cap, "chromatic_number")
    k, classes = _chromatic(g.adj, _degree_order(g.adj, range(g.n)))
    colors = tuple(next(c for c, m in enumerate(classes) if m >> v & 1) for v in range(g.n))
    return k, Coloring(colors, k)


def chromatic_number_within(g: Graph, subset: int, cap: int | None = None) -> int:
    """Chromatic number of the subgraph induced by `subset` (value only)."""
    _check_subset(g, subset)
    require_within_cap(g.n, cap, "chromatic_number_within")
    return _chromatic(g.adj, _degree_order(g.adj, bits_of(subset)))[0]


def critical_subgraph(g: Graph, cap: int | None = None) -> int:
    """A chromatic-critical induced subgraph: same chromatic number as g,
    and removing any single vertex lowers it.

    One pass in ascending id order drops each vertex whose removal keeps
    the chromatic number.  Removing vertices never raises it, so a vertex
    kept once stays unremovable from every later, smaller subset and no
    second pass is needed.  The current subset always has chi = target, so
    dropping v keeps it iff the rest has no proper (target - 1)-coloring:
    one decision per vertex, along the global degree order of the rest.
    """
    require_within_cap(g.n, cap, "critical_subgraph")
    if g.n == 0:
        raise DomainError("critical subgraph of the empty graph is undefined")
    order = _degree_order(g.adj, range(g.n))
    target = _chromatic(g.adj, order)[0]
    subset = g.vertex_mask
    for v in range(g.n):
        smaller = subset ^ (1 << v)
        rest = [u for u in order if smaller >> u & 1]
        if _color_decision(g.adj, rest, target - 1) is None:
            subset = smaller
    return subset


def min_degree_check(g: Graph, subset: int, cap: int | None = None) -> bool:
    """True iff every vertex of the induced subgraph has degree at least
    its chromatic number minus one (the mark of a critical subgraph)."""
    if subset == 0:
        raise DomainError("min_degree_check needs a nonempty vertex set")
    need = chromatic_number_within(g, subset, cap=cap) - 1
    return all((g.adj[v] & subset).bit_count() >= need for v in bits_of(subset))


def decomposition_coloring(g: Graph, cap: int | None = None) -> tuple[Coloring, DecompositionTrace]:
    """Color by repeatedly peeling the half-witness of the remaining set.

    Every round takes the majority-size subset of the remainder with the
    smallest induced max degree, first-fit colors it in ascending id order
    with a palette disjoint from all earlier rounds, and removes it.  The
    palette offset advances by the number of colors the round actually
    used (at most chunk_delta + 1), keeping the global palette gap-free.
    Uses at most (dim(g) + 1) * max(1, ceil(log2 n)) colors in at most
    max(1, ceil(log2 n)) rounds.
    """
    require_within_cap(g.n, cap, "decomposition_coloring")
    if g.n == 0:
        raise DomainError("decomposition coloring of the empty graph is undefined")
    return _decompose(g, subdim(g, g.vertex_mask))


def _decompose(g: Graph, full: SubdimCertificate) -> tuple[Coloring, DecompositionTrace]:
    """decomposition_coloring for n >= 1, given the full vertex set's
    certificate, which is the first round's."""
    colors = [-1] * g.n
    rounds = []
    remaining = g.vertex_mask
    offset = 0
    while remaining:
        cert = full if remaining == g.vertex_mask else subdim(g, remaining)
        chunk = cert.witness_min
        used = _first_fit(g.adj, bits_of(chunk), chunk, colors, offset)
        rounds.append(DecompositionRound(chunk=chunk, chunk_delta=cert.value,
                                         palette_offset=offset))
        offset += used
        remaining ^= chunk
    return Coloring(tuple(colors), offset), DecompositionTrace(tuple(rounds))


def decomposition_round_bound(n: int) -> int:
    """Upper bound on decomposition rounds: max(1, ceil(log2 n))."""
    if n < 1:
        raise DomainError("round bound needs n >= 1")
    return max(1, ceil_log2(n))


def chromatic_bound_from_dim(dim_value: int, n: int) -> int:
    """The guaranteed palette bound (dim + 1) * max(1, ceil(log2 n))."""
    return (dim_value + 1) * decomposition_round_bound(n)
