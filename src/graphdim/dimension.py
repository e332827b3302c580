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

from .core import Graph, _check_subset, _induced_max_degree, subsets_of_mask, subsets_of_size
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
    numeric order.

    The search state is the bitset of included vertices and, per depth,
    the candidate bitset the depth was entered with (origin) and the part of
    it still to try (pool); members are chosen in descending order, so
    backtracking drops the lowest included vertex.  A member is saturated
    when it has d included neighbors; no vertex adjacent to a saturated
    member may join.  Including v therefore cuts from the next depth's
    candidates, origin & (low - 1), the neighbors of v if v is saturated
    and the neighbors of each included neighbor of v that v saturates.  A
    pick is rejected when it has more than d included neighbors, and a
    branch is left at once when fewer candidates remain than members are
    still needed; a depth that needs `need` members skips its lowest
    need - 1 candidates, which must stay free to lie below its pick.

    The cuts change no leaf order: a cut vertex would have made a
    saturated member exceed d, and since the included set and the cuts only
    grow along a branch it could never have joined below that point either.
    So every pruned branch holds no complete selection, the first complete
    selection is still the numerically smallest witness, and an exhausted
    search is still a refutation.

    Uncapped by design, like subdim: the capped entry points (dim_exact,
    decomposition_coloring, dim_via_transitivity, the CLI) check the cap
    before they call either, and a direct caller owns that check.
    """
    _check_subset(g, subset)
    k = subset.bit_count()
    if s < 0 or s > k:
        raise DomainError(f"target size {s} out of range for a {k}-element host")
    if d < 0:
        return None
    if s == 0:
        return 0
    adj = g.adj
    origin = [subset] + [0] * (s - 1)  # per depth, the candidates it was entered with
    pool = origin[:]  # per depth, candidates still to try, lowest first
    for _ in range(s - 1):
        pool[0] &= pool[0] - 1  # the lowest s - 1 host vertices stay free to lie below the pick
    included = 0
    depth = 0
    while True:
        p = pool[depth]
        if not p:  # no candidate left at this depth: take back the member before it
            if depth == 0:
                return None
            depth -= 1
            included &= included - 1  # the member chosen there is the lowest included
            continue
        low = p & -p
        pool[depth] = p ^ low
        v = low.bit_length() - 1
        nbrs = adj[v] & included
        c = nbrs.bit_count()
        if c > d:
            continue
        below = origin[depth] & (low - 1)
        if c == d:
            below &= ~adj[v]  # v is saturated
        while nbrs:
            u = nbrs & -nbrs
            nbrs ^= u
            u = u.bit_length() - 1
            if (adj[u] & included).bit_count() == d - 1:
                below &= ~adj[u]  # v saturates u
        need = s - depth - 1  # members still needed below v
        if below.bit_count() < need:
            continue
        included |= low
        if not need:
            return included
        depth += 1
        origin[depth] = below
        for _ in range(need - 1):
            below &= below - 1
        pool[depth] = below


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
    the linear scan beats binary search in practice.  Uncapped by design,
    like subdim_exists, whose docstring says who checks the cap.
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
    maximum or become its witness.  The scan stops at the first size
    m <= 2*best: a majority subset has m/2 + 1 vertices, so its max degree,
    and with it subdim of the host, is at most m/2.

    A host is settled without a decision call when it holds m/2 + 1 members
    of a settled set: a vertex set whose induced max degree is at most the
    incumbent.  The settled sets are the full set's witness and the witness
    of every decision scan, each grown by adding vertices in ascending order
    while its max degree stays within the incumbent; they stay settled as
    the incumbent rises.  A settled host has subdim at most the incumbent,
    exactly what its decision scan would have shown, so the certificates
    equal those of scanning every even host.  The other hosts are scanned
    upward from the incumbent.  The reported witness is the first host, in
    order of decreasing size and then ascending mask, that reached the final
    value.
    """
    require_within_cap(g.n, cap, "dim_exact")
    if g.n == 0:
        return DimCertificate(value=0, witness_max=0, inner=None)
    return _dim_search(g, subdim(g, g.vertex_mask))


def _dim_search(g: Graph, full: SubdimCertificate) -> DimCertificate:
    """dim_exact's host scan for n >= 1, given the full vertex set's
    certificate; dim_exact's docstring gives the reason for each skip."""
    adj = g.adj
    best = full.value
    best_host = g.vertex_mask
    best_inner = full

    def grown(m: int) -> int:
        # add vertices in ascending order while the induced max degree stays <= best;
        # m's is already <= best, so v fits when it has at most best neighbors in m
        # and none of them has best already
        for v in range(g.n):
            nbrs = adj[v] & m
            if m >> v & 1 or nbrs.bit_count() > best:
                continue
            while nbrs:
                u = nbrs & -nbrs
                if (adj[u.bit_length() - 1] & m).bit_count() == best:
                    break
                nbrs ^= u
            else:
                m |= 1 << v
        return m

    # A scanned host meets every earlier settled set in fewer than s
    # vertices, so its s-vertex witness grows to a new set.
    settled = [grown(full.witness_min)]
    for size in range((g.n - 1) & ~1, 0, -2):  # even proper hosts only
        if size <= 2 * best:
            break
        s = size // 2 + 1
        for host in subsets_of_size(g.n, size):
            for m in settled:
                if (m & host).bit_count() >= s:
                    break
            else:
                value, witness = _subdim_scan(g, host, s, best)
                if value > best:
                    best = value
                    best_host = host
                    best_inner = SubdimCertificate(value=value, witness_min=witness,
                                                   host_size=size)
                settled.append(grown(witness))
    return DimCertificate(value=best, witness_max=best_host, inner=best_inner)
