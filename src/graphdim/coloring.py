"""Proper vertex coloring: greedy, exact, critical subgraphs, and the
decomposition coloring driven by half-witness subsets.

The decomposition colorer is the constructive side of the chromatic bound:
peel off a majority-size subset of the remaining vertices whose induced max
degree is as small as possible (the subdim witness), color it first-fit with
fresh colors, and repeat.  Each round at least halves the remainder, so
there are at most ceil(log2 n) rounds and each round spends at most
subdim(remainder) + 1 <= dim(g) + 1 colors.  Every coloring here comes
from one loop, ``_color_decision``: first-fit (greedy, each round) when its
palette is as large as the vertex set, the chromatic decision when smaller.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (Graph, _check_subset, _entries, _instance, _integer, _permutation, bits_of,
                   ceil_log2)
from .dimension import SubdimCertificate, subdim
from .errors import DomainError
from .limits import require_within_cap

__all__ = [
    "Coloring",
    "DecompositionRound",
    "is_proper",
    "greedy_coloring",
    "chromatic_number",
    "chromatic_number_within",
    "critical_subgraph",
    "decomposition_coloring",
    "decomposition_round_bound",
    "chromatic_bound_from_dim",
]


def _labels(colors, n: int | None = None) -> tuple:
    """colors as a tuple of hashable labels; anything else is refused with
    DomainError, as the coloring kind's input.  A Coloring is refused too,
    as every record of the package is: it is a tuple, but of its colors and
    palette_size.  With n, at most n + 1 labels are read (see _entries)."""
    rule = "colors must be a sequence of color ids"
    try:
        colors = _entries(colors, rule, n)
        hash(colors)
    except TypeError:
        raise DomainError(f"{rule}, got {colors!r}") from None
    return colors


class Coloring(namedtuple("Coloring", "colors palette_size")):
    """Total proper coloring; color ids are gap-free 0..palette_size-1, and
    palette_size is derived from them.  Coloring(colors) takes the colors
    alone, as does _replace; _make takes both fields and refuses a
    palette_size other than the derived one."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...]) -> "Coloring":
        colors = _labels(colors)
        used = set(colors)
        if used != set(range(len(used))) or any(type(c) is not int for c in used):
            raise DomainError("color ids must be exactly 0..k-1 for some k")
        return tuple.__new__(cls, (colors, len(used)))

    @classmethod
    def _make(cls, fields) -> "Coloring":
        colors, palette_size = fields
        col = cls(colors)
        if palette_size != col.palette_size:
            raise DomainError(f"palette_size {palette_size!r} differs from the "
                              f"{col.palette_size} colors used")
        return col

    def _replace(self, **fields) -> "Coloring":
        return type(self)(**{"colors": self.colors, **fields})

    def __getnewargs__(self) -> tuple:
        return (self.colors,)


class DecompositionRound(namedtuple("DecompositionRound", "chunk chunk_delta palette_offset")):
    """One round of decomposition_coloring: chunk is the vertex bitset peeled
    off in this round, chunk_delta the induced max degree of the chunk, and
    palette_offset the first color id this round's palette starts at."""

    __slots__ = ()


def is_proper(g: Graph, colors) -> bool:
    """True when colors (one hashable label per vertex) gives the endpoints
    of every edge different labels: one bitset per color class, and no
    vertex may have a neighbour in its own class.  This is the replay of a
    coloring certificate; colors that are not such labels raise DomainError."""
    _instance(g, Graph, "graph must be a Graph")
    colors = _labels(colors, g.n)
    if len(colors) != g.n:
        return False
    classes = dict.fromkeys(colors, 0)
    for v, c in enumerate(colors):
        classes[c] |= 1 << v
    for row, c in zip(g.adj, colors):
        if row & classes[c]:
            return False
    return True


def greedy_coloring(g: Graph, order) -> Coloring:
    """First-fit coloring along the given vertex order (a permutation of V),
    run as _color_decision with a palette of n colors.  Uses at most
    max_degree(g) + 1 colors, with no gaps in the palette."""
    _instance(g, Graph, "graph must be a Graph")
    return Coloring(_colors(g.n, _color_decision(g.adj, _permutation(order, g.n, "order"), g.n)))


def _colors(n: int, classes: list[int]) -> tuple[int, ...]:
    """Color ids of the n vertices, color c for the members of classes[c]."""
    colors = [0] * n
    for c, members in enumerate(classes):
        for v in bits_of(members):
            colors[v] = c
    return tuple(colors)


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

    Backtracking along `order` over the class bitsets and a stack of the
    classes chosen: v fits class c iff adj[v] & classes[c] == 0.  The usual
    symmetry break: after the open classes, a vertex may open one new class.

    The first branch is first-fit: v joins the lowest class holding none of
    its neighbours, else opens one.  For k >= len(order) it never fails (at
    most i < k classes are open when order[i] comes), and neighbours outside
    `order` are in no class: first-fit on `order` without backtracking.
    """
    classes = []
    placed = [0] * len(order)  # the class of order[i], for each placed i
    i = c = 0  # the next vertex to place and the first class to try for it
    while i < len(order):
        v = order[i]
        row, opened = adj[v], len(classes)
        while c < opened and row & classes[c]:
            c += 1
        if c < opened:
            classes[c] |= 1 << v
        elif c == opened < k:
            classes.append(1 << v)
        else:  # no class left for v: take back the last placement, try its next
            if i == 0:
                return None
            i -= 1
            c = placed[i]
            classes[c] ^= 1 << order[i]
            if not classes[c]:  # order[i] had opened the last class
                classes.pop()
            c += 1
            continue
        placed[i] = c
        i += 1
        c = 0
    return classes


def _chromatic(adj, order: list[int]) -> tuple[int, list[int]]:
    """Smallest k with a proper k-coloring of the vertices of `order` (a
    _degree_order), with its color classes.  A greedy clique bounds k below
    and backtracking decides each candidate upward.  The decision's first
    branch is first-fit, so at first-fit's palette size it succeeds without
    backtracking and the scan ends there at the latest."""
    k = _clique_lower_bound(adj, order)
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
    _instance(g, Graph, "graph must be a Graph")
    require_within_cap(g.n, cap, "chromatic_number")
    k, classes = _chromatic(g.adj, _degree_order(g.adj, range(g.n)))
    return k, Coloring(_colors(g.n, classes))


def chromatic_number_within(g: Graph, subset: int, cap: int | None = None) -> int:
    """Chromatic number of the subgraph induced by `subset` (value only)."""
    subset = _check_subset(g, subset)
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
    _instance(g, Graph, "graph must be a Graph")
    require_within_cap(g.n, cap, "critical_subgraph")
    if g.n == 0:
        raise DomainError("critical subgraph of the empty graph is undefined")
    return _critical(g, _chromatic(g.adj, _degree_order(g.adj, range(g.n)))[0])


def _critical(g: Graph, target: int) -> int:
    """critical_subgraph for n >= 1, given target = chi(g)."""
    order = _degree_order(g.adj, range(g.n))
    subset = g.vertex_mask
    for v in range(g.n):
        smaller = subset ^ (1 << v)
        rest = [u for u in order if smaller >> u & 1]
        if _color_decision(g.adj, rest, target - 1) is None:
            subset = smaller
    return subset


def decomposition_coloring(g: Graph, cap: int | None = None
                           ) -> tuple[Coloring, tuple[DecompositionRound, ...]]:
    """Color by repeatedly peeling the half-witness of the remaining set.

    Every round takes the majority-size subset of the remainder with the
    smallest induced max degree, first-fit colors it in ascending id order
    with a palette disjoint from all earlier rounds, and removes it.  The
    palette offset advances by the number of colors the round actually
    used (at most chunk_delta + 1), keeping the global palette gap-free.
    Uses at most (dim(g) + 1) * max(1, ceil(log2 n)) colors in at most
    max(1, ceil(log2 n)) rounds.
    """
    _instance(g, Graph, "graph must be a Graph")
    require_within_cap(g.n, cap, "decomposition_coloring")
    if g.n == 0:
        raise DomainError("decomposition coloring of the empty graph is undefined")
    return _decompose(g, subdim(g, g.vertex_mask))


def _decompose(g: Graph, full: SubdimCertificate
               ) -> tuple[Coloring, tuple[DecompositionRound, ...]]:
    """decomposition_coloring for n >= 1, given the full vertex set's
    certificate, which is the first round's."""
    classes = []  # every round's color classes, each round's after the last's
    rounds = []
    remaining = g.vertex_mask
    while remaining:
        cert = full if remaining == g.vertex_mask else subdim(g, remaining)
        chunk = cert.witness_min
        rounds.append(DecompositionRound(chunk=chunk, chunk_delta=cert.value,
                                         palette_offset=len(classes)))
        classes += _color_decision(g.adj, bits_of(chunk), chunk.bit_count())
        remaining ^= chunk
    return Coloring(_colors(g.n, classes)), tuple(rounds)


def decomposition_round_bound(n: int) -> int:
    """Upper bound on decomposition rounds: max(1, ceil(log2 n))."""
    return max(1, ceil_log2(_integer(n, "vertex count", 1)))


def chromatic_bound_from_dim(dim_value: int, n: int) -> int:
    """The guaranteed palette bound (dim + 1) * max(1, ceil(log2 n))."""
    return (_integer(dim_value, "dim value", 0) + 1) * decomposition_round_bound(n)
