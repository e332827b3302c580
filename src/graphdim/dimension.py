"""Exact solver for the minimax induced-subgraph degree invariant.

Two quantities drive everything here.  For a host vertex set S of size m,
``subdim(g, S)`` is the minimum, over all subsets T of S with
|T| >= floor(m/2) + 1, of the maximum degree of the subgraph induced by T.
``dim_exact(g)`` is the maximum of that quantity over all nonempty vertex
sets of the graph.  Because the induced maximum degree can only drop when
vertices are removed, the inner minimum is attained at size exactly
floor(m/2) + 1, and that is the only size the solvers enumerate.

The solver comes in two independent routes: a brute-force oracle
(``subdim_naive``) that enumerates every candidate subset, and a pruned
branch-and-bound (``subdim_exists`` / ``subdim``) used for real work.  Both
return the same value and the same witness: subsets are explored in
increasing numeric bitset order, so the reported witness is always the
numerically smallest optimal subset and certificates compare bit-for-bit
across routes and runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (Graph, _check_subset, _induced_max_degree, bits_of, subsets_of_mask,
                   subsets_of_size)
from .errors import DomainError
from .limits import require_within_cap

__all__ = [
    "SubdimCertificate",
    "DimCertificate",
    "subdim_exists",
    "subdim",
    "subdim_naive",
    "dim_exact",
]


@dataclass(frozen=True)
class SubdimCertificate:
    """Value of the inner minimum plus the subset achieving it.

    witness_min has exactly floor(host_size/2) + 1 vertices and its induced
    maximum degree equals value; replaying it through max_degree_within
    proves the upper direction of the bound.
    """

    value: int
    witness_min: int
    host_size: int


@dataclass(frozen=True)
class DimCertificate:
    """Value of the outer maximum plus the host subset achieving it.

    inner is the certificate for the maximizing host, so the pair proves
    the lower direction; inner is None only for the empty graph.
    """

    value: int
    witness_max: int
    inner: SubdimCertificate | None


def subdim_exists(g: Graph, subset: int, s: int, d: int) -> int | None:
    """Decision form: a size-s subset of `subset` with induced max degree <= d.

    Returns the numerically smallest such subset as a bitset, or None.
    Branch and bound that picks the included members from the highest
    down: each branch chooses the next member below the last one chosen,
    lowest candidate first, so complete selections appear in increasing
    numeric order; a candidate must leave enough members below it to reach
    size s.  The search state is the bitset of included vertices and a stack
    of candidate iterators; a vertex's included-neighbor count is read as
    |adj[v] & included|.  A candidate is skipped when it, or an included
    neighbor, would exceed d included neighbors.
    """
    _check_subset(g, subset)
    members = bits_of(subset)
    k = len(members)
    if s < 0 or s > k:
        raise DomainError(f"target size {s} out of range for a {k}-element host")
    if d < 0:
        return None
    adj = g.adj
    candidates = [iter(range(s - 1, k))] + [None] * s  # per depth, members left to try
    before = [0] * s  # per depth, the included set before the member chosen there
    included = 0
    size = 0
    while size < s:
        for j in candidates[size]:
            v = members[j]
            rest = adj[v] & included
            if rest.bit_count() > d:
                continue
            while rest:
                low = rest & -rest
                if (adj[low.bit_length() - 1] & included).bit_count() >= d:
                    break  # some included neighbor would exceed d
                rest ^= low
            else:
                break  # v fits: leave the candidate loop with v chosen
        else:  # no candidate left at this depth: take back the member before it
            if size == 0:
                return None
            size -= 1
            included = before[size]
            continue
        before[size] = included
        included |= 1 << v
        size += 1
        candidates[size] = iter(range(s - size - 1, j))
    return included


def _subdim_scan(g: Graph, subset: int, s: int, start: int) -> tuple[int, int]:
    """Smallest d >= start admitting a witness, with that witness."""
    d = start
    while True:
        witness = subdim_exists(g, subset, s, d)
        if witness is not None:
            return d, witness
        d += 1


def subdim(g: Graph, subset: int) -> SubdimCertificate:
    """Minimum induced max degree over majority-size subsets of the host.

    Ascending scan on the degree bound d with the branch-and-bound decision
    procedure; values are small (at most the host's induced max degree), so
    the linear scan beats binary search in practice.
    """
    if subset == 0:
        raise DomainError("sub-dimension of an empty host is undefined")
    m = subset.bit_count()
    s = m // 2 + 1
    value, witness = _subdim_scan(g, subset, s, 0)
    return SubdimCertificate(value=value, witness_min=witness, host_size=m)


def subdim_naive(g: Graph, subset: int) -> SubdimCertificate:
    """Brute-force oracle for subdim: enumerate every majority-size subset.

    Kept deliberately free of pruning so it can vouch for the search path.
    """
    if subset == 0:
        raise DomainError("sub-dimension of an empty host is undefined")
    m = subset.bit_count()
    s = m // 2 + 1
    adj = g.adj
    best = None
    best_witness = None
    for cand in subsets_of_mask(subset, s):
        delta = _induced_max_degree(adj, cand)
        if best is None or delta < best:
            best = delta
            best_witness = cand
    return SubdimCertificate(value=best, witness_min=best_witness, host_size=m)


def dim_exact(g: Graph, cap: int | None = None) -> DimCertificate:
    """Maximum of subdim over all nonempty vertex subsets, exactly.

    Hosts are enumerated by decreasing size (the full vertex set first,
    which tends to set a strong incumbent immediately).  Apart from the
    full vertex set only even-size hosts are scanned: for an odd-size
    proper host S and a vertex u outside it, every majority subset of S+u
    contains a majority subset of S, so subdim(S+u) >= subdim(S), and S+u
    comes earlier in the scan; an odd host can therefore never raise the
    maximum or become its witness.  A host S is skipped when its induced
    max degree is at most the incumbent, since subdim never exceeds it;
    surviving hosts are scanned upward from the incumbent bound, so a host
    that cannot improve costs a single decision call.  The reported
    witness is the first host, in order of decreasing size and then
    ascending mask, that reached the final value.
    """
    require_within_cap(g.n, cap, "dim_exact")
    if g.n == 0:
        return DimCertificate(value=0, witness_max=0, inner=None)
    return _dim_search(g, subdim(g, g.vertex_mask))


def _dim_search(g: Graph, full: SubdimCertificate) -> DimCertificate:
    """dim_exact's host scan for n >= 1, given the full vertex set's certificate."""
    adj = g.adj
    best = full.value
    best_host = g.vertex_mask
    best_inner = full
    # An odd proper host S and u outside it: every majority of S+u holds a
    # majority of S, so S+u, scanned earlier, already bounds subdim(S).
    for size in range((g.n - 1) & ~1, 0, -2):
        s = size // 2 + 1
        for host in subsets_of_size(g.n, size):
            if _induced_max_degree(adj, host) <= best:
                continue
            value, witness = _subdim_scan(g, host, s, best)
            if value > best:
                best = value
                best_host = host
                best_inner = SubdimCertificate(value=value, witness_min=witness, host_size=size)
    return DimCertificate(value=best, witness_max=best_host, inner=best_inner)
