"""Cayley graphs of finite abelian groups and the translation arguments
that collapse the outer maximum of the dimension to a single subdim call.

Elements of Z_{n_1} x ... x Z_{n_k} are encoded as mixed-radix integers
with the first coordinate least significant, so for Z_2^k the encoding is
plain binary and the n-dimensional hypercube is the Cayley graph of the
unit vectors with vertex ids matching ``hypercube_graph``.  Only ``encode``
and ``decode`` walk those digits; ``translate`` maps a whole bitset, a digit
rotating every block of ids that agree on the higher coordinates.

Translating any vertex set by a group element is a graph automorphism,
and some translate of the whole graph's half-witness covers a majority of
every induced subgraph (the ``identity`` verify suite checks the counting
argument), which is why dim == subdim here.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .core import Graph, _bit, _checked_make, _count, _entries, _instance, _integer, mask_of
from .dimension import DimCertificate, subdim
from .errors import DomainError
from .limits import require_within_cap

__all__ = [
    "AbelianGroup",
    "GeneratorSet",
    "cayley_graph",
    "translate",
    "dim_via_transitivity",
]


class AbelianGroup(namedtuple("AbelianGroup", "orders")):
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_k}; orders is
    the tuple of the n_i, checked by AbelianGroup(orders), _make and
    _replace alike."""

    __slots__ = ()

    def __new__(cls, orders: tuple[int, ...]) -> "AbelianGroup":
        orders = _entries(orders, "orders must be a sequence of cyclic orders")
        orders = tuple(_integer(n, "cyclic order", 1) for n in orders)
        if not orders:
            raise DomainError("group needs at least one cyclic factor")
        return tuple.__new__(cls, (orders,))

    _make = classmethod(_checked_make)

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def encode(self, element) -> int:
        """Mixed-radix id of a residue tuple (first coordinate least significant)."""
        rank = len(self.orders)
        element = _entries(element, "element must be a sequence of coordinates", rank)
        if len(element) != rank:
            raise DomainError(f"element has {_count(element, rank)} coordinates, wanted {rank}")
        eid = 0
        stride = 1
        for a, n in zip(element, self.orders):
            eid += (_integer(a, "coordinate") % n) * stride
            stride *= n
        return eid

    def decode(self, eid: int) -> tuple[int, ...]:
        eid = _integer(eid, "element id", 0, self.size - 1)
        out = []
        for n in self.orders:
            out.append(eid % n)
            eid //= n
        return tuple(out)

    def add(self, x: int, y: int) -> int:
        return self.encode(map(operator.add, self.decode(x), self.decode(y)))

    def neg(self, x: int) -> int:
        return self.encode(-c for c in self.decode(x))


class GeneratorSet(namedtuple("GeneratorSet", "elements")):
    """Connection set for a Cayley graph: a frozenset of element ids, no
    identity, closed under negation (validated against the group at build
    time); GeneratorSet(elements), _make and _replace check the ids."""

    __slots__ = ()

    def __new__(cls, elements) -> "GeneratorSet":
        elements = _entries(elements, "generators must be an iterable of element ids")
        return tuple.__new__(cls, (frozenset(_integer(e, "generator") for e in elements),))

    _make = classmethod(_checked_make)


def _check_generators(grp: AbelianGroup, gens: GeneratorSet) -> None:
    _instance(grp, AbelianGroup, "group must be an AbelianGroup")
    _instance(gens, GeneratorSet, "generators must be a GeneratorSet")
    for s in gens.elements:
        if not 0 <= s < grp.size:
            raise DomainError(f"generator {s} out of range for group of size {grp.size}")
        if s == 0:
            raise DomainError("the identity cannot be a generator (no self-loops)")
        if grp.neg(s) not in gens.elements:
            raise DomainError(f"generator set not closed under negation: missing {grp.neg(s)}")


def cayley_graph(grp: AbelianGroup, gens: GeneratorSet) -> Graph:
    """Graph on the group elements with an edge x ~ x+s for each generator s."""
    _check_generators(grp, gens)
    conn = mask_of(gens.elements)
    return Graph._built(grp.size, tuple(translate(grp, conn, x) for x in range(grp.size)))


def translate(grp: AbelianGroup, subset: int, a: int) -> int:
    """Image of a vertex set under addition of the group element a: a digit d
    in a coordinate of order n and stride t rotates every block of t*n ids up
    by d*t, two masked shifts whose low mask repeats (1 << (n-d)*t) - 1."""
    _instance(grp, AbelianGroup, "group must be an AbelianGroup")
    subset = _integer(subset, "vertex set")
    if subset >> grp.size:
        raise DomainError("vertex set mentions ids outside the group")
    full = _bit(grp.size, "group size") - 1
    stride = 1
    for n, d in zip(grp.orders, grp.decode(a)):
        block = stride * n
        if d:
            low = ((1 << (n - d) * stride) - 1) * (full // ((1 << block) - 1))
            subset = (subset & low) << d * stride | (subset & ~low) >> (n - d) * stride
        stride = block
    return subset


def dim_via_transitivity(grp: AbelianGroup, gens: GeneratorSet,
                         cap: int | None = None) -> DimCertificate:
    """dim of a Cayley graph computed as subdim of the full vertex set.

    Translation symmetry makes the outer maximum collapse: the best
    translate of the full half-witness W covers a majority of any induced
    subgraph S, and that intersection, being induced in a translate of W,
    has max degree at most the witness value.  So no subset beats the full
    set and one subdim call certifies the dimension.
    """
    _instance(grp, AbelianGroup, "group must be an AbelianGroup")
    require_within_cap(grp.size, cap, "dim_via_transitivity")
    g = cayley_graph(grp, gens)
    inner = subdim(g, g.vertex_mask)
    return DimCertificate(value=inner.value, witness_max=g.vertex_mask, inner=inner)
