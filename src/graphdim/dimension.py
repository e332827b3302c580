"""Exact solver for the minimax induced-subgraph degree invariant.

Two quantities drive everything here.  For a host vertex set S of size m,
``subdim(g, S)`` is the minimum, over all subsets T of S with
|T| >= floor(m/2) + 1, of the maximum degree of the subgraph induced by T.
``dim_exact(g)`` is the maximum of that quantity over all nonempty vertex
sets of the graph.  Because the induced maximum degree can only drop when
vertices are removed, the inner minimum is attained at size exactly
floor(m/2) + 1, and that is the only size the solvers enumerate.

The solver comes in two independent routes.  A brute-force oracle
(``subdim_naive``) visits and compares every majority subset, free of
pruning (only the weighing of one subset stops early, once it cannot beat
the best so far); it walks the host's own index space, the vertices 0..m-1
of the induced subgraph, and maps only its witness back to the host.  A
pruned branch-and-bound (``subdim_exists`` / ``subdim``) does the real
work: it first reduces the host to its degree core (deleting vertices with
too many neighbors to lie in any witness of four or more members), then
cuts the neighbors of saturated members, rejects a pick that leaves a
member too few non-neighbors to complete the selection within degree d,
and at its top two picks runs the core's test once more on the smaller
host the branch can still draw on.
Both return the same value and the same witness: subsets are explored in
increasing numeric bitset order (the oracle's relabeling keeps that
order), so the reported witness is always the numerically smallest optimal
subset and certificates compare bit-for-bit across routes and runs.
``dim_exact`` enumerates hosts in blocks: the hosts that share their
vertices from 12 up form one block, held as one bit per pattern of the low
12 vertices (``core._pattern_tables``), so a set already known to settle
hosts clears all of a block's hosts it settles with one AND, and only the
hosts left are visited, in the ascending order of a host-by-host scan.
_replay_subdim and _replay_dim are the one place that decides whether a
certificate is valid.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (_LOW, Graph, _blocks, _check_subset, _instance, _integer, _pattern_tables,
                   _planes_at_least, bits_of, induced_subgraph, max_degree_within,
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


class SubdimCertificate(namedtuple("SubdimCertificate", "value witness_min host_size")):
    """Value of the inner minimum plus the subset achieving it, all ints.

    witness_min has exactly floor(host_size/2) + 1 vertices of the host and
    its induced maximum degree equals value; _replay_subdim checks both,
    which proves subdim of the host <= value.
    """

    __slots__ = ()


class DimCertificate(namedtuple("DimCertificate", "value witness_max inner")):
    """Value of the outer maximum (an int) plus the host subset achieving it
    (a bitset).

    inner is the SubdimCertificate for the maximizing host; _replay_dim
    checks it and the oracle's subdim of that host, which proves
    dim >= value.  inner is None only for the empty graph.
    """

    __slots__ = ()


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

    A pick is also rejected when a member runs out of non-neighbor budget.
    If v joins with c < d included neighbors, at most d - c of the `need`
    members still to come may be its neighbors, so at least need - (d - c)
    of them must come from the candidates outside adj[v]; v is rejected
    when (below & ~adj[v]) holds fewer.  The same holds for each included
    neighbor u of v that v does not saturate: with v it has cu + 1 included
    neighbors (cu counted before v joins), so its budget is d - 1 - cu.
    Each test is one AND and one popcount; no partition is built.

    Before the search the host is reduced to its degree core (_degree_core):
    a member v of an s-subset T of host S loses at most |S| - s of its
    neighbors in S, so v has at least deg_S(v) - (|S| - s) neighbors in T,
    and a vertex with more than d + |S| - s neighbors in S lies in no
    witness.  Deleting such vertices and repeating on what is left, until
    no vertex is deleted, keeps every witness (each lies in the host left
    at every step), so the search runs on the core and refutes at once when
    the core has fewer than s vertices.  The witnesses in the core are all
    the witnesses, so the smallest one is the same.  This is the degree
    reduction of k-plex solvers (Balasundaram, Butenko & Hicks, Operations
    Research 59(1), 2011): a witness is a (d + 1)-plex of the complement
    graph.  It is applied at the root only, and only for s >= 4: a search
    for at most three members costs about as much as one pass of the
    reduction (measured on the verify sweep, where most calls have s <= 3).
    On a regular host it deletes every vertex, a refutation, or none (Q5
    loses none).

    The same lemma then runs once on each branch's host at the top two
    picks.  A pick v at depth 0 or 1 fixes the host its branch can still
    draw on, H = included | v | below: the members already included and the
    candidates left below v after its cuts.  Every completion lies in H,
    since its members still to come lie in below.  So with slack =
    d + |H| - s the branch is left when v or the included member has more
    than slack neighbors in H, and every candidate with more is dropped
    from below.  It is one pass (_crowded), not a fixpoint, made only once
    the budgets pass, and is skipped when v is the last candidate at its
    depth, whose host at depth 0 is the root core itself.  It stops at
    depth 1 and runs only for s >= 4 and d >= 2: deeper picks fix smaller
    hosts whose pass costs more than it cuts, and with d <= 1 the
    saturation cuts leave the pass little to find (measured on the
    benchmark's decision calls, split by depth and by d).

    Neither the cuts, the budgets nor the branch test change the leaf
    order.  A cut vertex would have made a saturated member exceed d, and
    since the included set and the cuts only grow along a branch it could
    never have joined below that point either.  A rejected budget means
    every completion gives v or u more than d included neighbors, since the
    members still to come lie in `below`.  A vertex the branch test drops,
    or a pick it leaves, lies in no completion of that branch.  So every
    pruned branch holds no complete selection, the first complete selection
    is still the numerically smallest witness, and an exhausted search is
    still a refutation.

    Uncapped by design, like subdim: the capped entry points (dim_exact,
    decomposition_coloring, dim_via_transitivity; load_input for the CLI)
    check the cap before they call either, and a direct caller owns that check.
    """
    subset = _check_subset(g, subset)
    s, d = _integer(s, "target size", 0, subset.bit_count()), _integer(d, "degree bound")
    if d < 0:
        return None
    if s == 0:
        return 0
    adj = g.adj
    tested = 0  # the depths whose picks test their branch's host
    if s > 3:  # a search for fewer members costs about one pass of the core
        subset = _degree_core(adj, subset, s, d)
        if subset.bit_count() < s:
            return None
        if d > 1:
            tested = 2
    origin = [subset] + [0] * (s - 1)  # per depth, the candidates it was entered with
    # per depth, candidates still to try, lowest first; the lowest s - 1
    # host vertices stay free to lie below the pick
    pool = [subset ^ _lowest(subset, s - 1)] + [0] * (s - 1)
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
        need = s - depth - 1  # members still needed below v
        if c == d:
            below &= ~adj[v]  # v is saturated
        elif (below & ~adj[v]).bit_count() + d - c < need:
            continue  # v has room for d - c more neighbors
        while nbrs:
            bit = nbrs & -nbrs
            u = bit.bit_length() - 1
            cu = (adj[u] & included).bit_count()
            if cu == d - 1:
                below &= ~adj[u]  # v saturates u
            elif (below & ~adj[u]).bit_count() + d - 1 - cu < need:
                break  # with v, u has room for d - 1 - cu more neighbors
            nbrs ^= bit
        if nbrs or below.bit_count() < need:
            continue
        if depth < tested and pool[depth]:
            # every completion lies in the branch's host: a member of one has
            # at most d + |host| - s neighbors in it
            host = included | low | below
            crowded = _crowded(adj, host, d + host.bit_count() - s)
            if crowded & (included | low):
                continue
            below ^= crowded
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


def _degree_core(adj, host: int, s: int, d: int) -> int:
    """The host less every vertex with more than d + |host| - s neighbors
    in it, repeated on what is left until no vertex goes or fewer than s
    are left; every s-subset of the host with max degree <= d lies inside
    (subdim_exists's docstring gives the argument)."""
    while True:
        drop = _crowded(adj, host, d + host.bit_count() - s)
        host ^= drop
        if not drop or host.bit_count() < s:
            return host


def _crowded(adj, host: int, slack: int) -> int:
    """The members of a host with more than slack neighbors in it."""
    drop = 0
    rest = host
    while rest:
        low = rest & -rest
        if (adj[low.bit_length() - 1] & host).bit_count() > slack:
            drop |= low
        rest ^= low
    return drop


def _lowest(mask: int, k: int) -> int:
    """The lowest k members of a bitset, or all of it when it has fewer."""
    rest = mask
    for _ in range(k):
        rest &= rest - 1
    return mask ^ rest


def _subdim_scan(g: Graph, subset: int, s: int, start: int) -> tuple[int, int]:
    """Smallest d >= start admitting a witness, with that witness."""
    d = start
    while True:
        witness = subdim_exists(g, subset, s, d)
        if witness is not None:
            return d, witness
        d += 1


def _majority(g: Graph, host: int) -> tuple[int, int, int]:
    """A nonempty host as checked by _check_subset, its size m and its
    majority size m // 2 + 1."""
    host = _check_subset(g, host)
    if host == 0:
        raise DomainError("sub-dimension of an empty host is undefined")
    m = host.bit_count()
    return host, m, m // 2 + 1


def subdim(g: Graph, subset: int) -> SubdimCertificate:
    """Minimum induced max degree over majority-size subsets of the host.

    Ascending scan on the degree bound d with the branch-and-bound decision
    procedure; values are small (at most the host's induced max degree), so
    the linear scan beats binary search in practice.  Uncapped by design,
    like subdim_exists, whose docstring says who checks the cap.
    """
    subset, m, s = _majority(g, subset)
    value, witness = _subdim_scan(g, subset, s, 0)
    return SubdimCertificate(value=value, witness_min=witness, host_size=m)


def subdim_naive(g: Graph, subset: int) -> SubdimCertificate:
    """Brute-force oracle for subdim: enumerate every majority-size subset.

    Kept deliberately free of pruning so it can vouch for the search path:
    every candidate is visited and compared with the best so far, in
    numeric order.  Only the weighing of one candidate stops early, at its
    first member with `best` or more neighbors inside it: such a candidate
    cannot beat the best.  best starts at s, above the max degree of any
    s-vertex set, so the witness is the first candidate that reaches the
    minimum.

    The candidates are walked in the host's own index space: member i of
    the host (ascending) is vertex i of its induced subgraph, which is g
    itself when the host is the low block 0..m-1, and only the final
    witness is mapped back to the members.  The map is monotone, so the
    numeric order, and with it the first minimum, is the same in both.
    """
    subset, m, s = _majority(g, subset)
    low_block = subset == (1 << m) - 1
    adj = g.adj if low_block else induced_subgraph(g, subset).adj
    best = s
    best_witness = None
    for cand in subsets_of_size(m, s):
        delta = 0
        rest = cand
        while rest:
            low = rest & -rest
            d = (adj[low.bit_length() - 1] & cand).bit_count()
            if d >= best:
                break
            if d > delta:
                delta = d
            rest ^= low
        else:
            best = delta
            best_witness = cand
    if not low_block:
        best_witness = sum(1 << v for i, v in enumerate(bits_of(subset)) if best_witness >> i & 1)
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
    the incumbent rises.  A host that no settled set settles is settled by
    a greedy majority when one exists: drop the member with the most
    neighbors inside the host (the lowest on ties) until the rest has max
    degree at most the incumbent, or until only m/2 + 1 members are left;
    the rest, grown the same way, joins the settled sets.  A settled host
    has subdim at most the incumbent, exactly what its decision scan would
    have shown, so the certificates equal those of scanning every even
    host: a host with subdim above the incumbent holds no m/2 + 1 vertices
    of max degree at most the incumbent, so neither route settles it and
    it always reaches the decision scan, which raises the incumbent at the
    same hosts in the same order.  The other hosts are scanned upward from
    the incumbent.

    Hosts of one size are taken a block at a time, in the order of
    subsets_of_size: a block is a high part h over the vertices 12..n-1
    and its hosts are h << 12 | l over the patterns l of the low 12
    vertices of weight c = m - |h|, held as one plane, a 2**12-bit int
    with bit l set for each host left.  A settled set M holds s = m/2 + 1
    members of such a host exactly when l holds at most c - (s - |M ∩ h|)
    low vertices outside M, so the block keeps only its planes of
    patterns holding more; each settled set keeps those planes for every
    count, built once over its low complement (grown sets are large, so
    the complement is small).  The hosts left are walked lowest first,
    and each new settled set clears its hosts from the rest of the block.
    Ascending (h, l) is ascending mask order, and a host is cleared exactly
    when a set settled before its turn settles it, so the same hosts reach
    the greedy step and the decision scan, in the same order, as in a scan
    that tests each host against every settled set.

    The last size the scan visits, m = 2b + 2 for the incumbent b, is
    decided without enumerating its hosts.  There s = b + 2, subdim(S) <=
    b + 1 for every host S, and subdim(S) = b + 1 exactly when (i) at least
    b + 1 members of S are adjacent to every other member of S, or (ii) b
    is odd and every member of S is non-adjacent to at most one other.
    Proof: an s-set T has max degree <= b = s - 2 exactly when every member
    of T has a non-neighbor in T, that is, when the complement of G[T] has
    no isolated vertex.  Let N be the members of S not isolated in the
    complement of G[S]; its components there have two or more vertices
    each.  A component of c >= 3 vertices supplies any count from 2 to c
    (delete leaves of a spanning tree one at a time), a single edge only 0
    or 2.  So such a T exists exactly when |N| >= b + 2 and, if b + 2 is
    odd, some component has three or more vertices; |N| < b + 2 is (i), and
    components that are all single edges are (ii).  The first host with
    subdim b + 1, in ascending mask order, is the lesser of the first host
    of (i), U plus the lowest b + 1 common neighbors of U minimized over
    the (b + 1)-cliques U, and, for odd b, the first host of (ii), the
    smallest 2b + 2 vertices whose complement has max degree <= 1 as found
    by subdim_exists.  That host gets its certificate without a search:
    value b + 1 and witness its lowest b + 2 members.  Any b + 2 vertices
    have max degree at most b + 1, and by the lemma none of the host's have
    b or less, so its lowest b + 2 members are the numerically smallest
    witness, the one a decision scan would return.  No later size is
    visited.  The reported witness is the first host, in order of
    decreasing size and then ascending mask, that reached the final value.
    """
    _instance(g, Graph, "graph must be a Graph")
    require_within_cap(g.n, cap, "dim_exact")
    if g.n == 0:
        return DimCertificate(value=0, witness_max=0, inner=None)
    return _dim_search(g, subdim(g, g.vertex_mask))


def _first_clique_host(g: Graph, k: int) -> int | None:
    """The least U | lowest k of C(U) over the k-cliques U of the graph,
    where C(U) is the set of vertices adjacent to every member of U; None
    when no k-clique has k common neighbors.

    Cliques grow depth first, members in ascending order, in a loop over a
    stack of the cliques the current one grew from.  A member of U is
    adjacent to the other k - 1 members and to k common neighbors, so only
    vertices of degree 2k - 1 or more are tried, and a pick is taken only
    when it leaves enough common neighbors for the rest of U and k more,
    and enough candidates above it for the rest of U.  Every host through
    a clique u is 2k members of u | C(u) that hold u, so none is below
    u | the lowest 2k - |u| members of C(u); once a host is known, a branch
    whose bound is not below it is left, so hosts that tie it are never
    walked.
    """
    adj = g.adj
    first = 1 << g.n  # above every host
    cand = sum(1 << v for v, row in enumerate(adj) if row.bit_count() >= 2 * k - 1)
    # the clique u, C(u), the candidates above u still to try, and need: the
    # members that C(u + v) must supply for a next pick v, the rest of U and k more
    u, common, need, stack = 0, g.vertex_mask, 2 * k - 1, []
    while True:
        while cand and (first >> g.n or u | _lowest(common, need + 1) < first):
            low = cand & -cand
            cand ^= low
            c = common & adj[low.bit_length() - 1]
            if c.bit_count() < need:
                continue
            if need == k:
                first = min(first, u | low | _lowest(c, k))
            elif (c & cand).bit_count() >= need - k:  # room above low for the rest of U
                stack.append((u, common, cand, need))
                u, common, cand, need = u | low, c, c & cand, need - 1
        if not stack:
            return None if first >> g.n else first
        u, common, cand, need = stack.pop()


def _last_class_host(g: Graph, b: int) -> int | None:
    """The first host of size 2b + 2, in ascending mask order, with subdim
    b + 1, or None; dim_exact's docstring gives the lemma."""
    hosts = [_first_clique_host(g, b + 1)]
    if b % 2:
        co = Graph._built(g.n, tuple(g.vertex_mask ^ row ^ 1 << v for v, row in enumerate(g.adj)))
        hosts.append(subdim_exists(co, co.vertex_mask, 2 * b + 2, 1))
    return min((host for host in hosts if host is not None), default=None)


def _greedy_majority(adj, host: int, s: int, best: int) -> int:
    """A subset of the host with at least s members and max degree <= best,
    found by dropping the member with the most neighbors inside (the lowest
    on ties); 0 when the drops reach s members first."""
    members = bits_of(host)
    while True:
        degrees = [(adj[v] & host).bit_count() for v in members]
        top = max(degrees)
        if top <= best:
            return host
        if len(members) == s:
            return 0
        host ^= 1 << members.pop(degrees.index(top))


def _dim_search(g: Graph, full: SubdimCertificate) -> DimCertificate:
    """dim_exact's host scan for n >= 1, given the full vertex set's
    certificate, a block of hosts at a time; dim_exact's docstring gives the
    reason for each skip and for the blocks."""
    adj = g.adj
    best = full.value
    best_host = g.vertex_mask
    best_inner = full

    def grown(m: int) -> int:
        # add vertices in ascending order while the induced max degree stays <= best;
        # m's is already <= best, so v fits when it has at most best neighbors in m
        # and none of them has best already
        rest = g.vertex_mask & ~m
        while rest:
            bit = rest & -rest
            rest ^= bit
            nbrs = adj[bit.bit_length() - 1] & m
            if nbrs.bit_count() > best:
                continue
            while nbrs:
                u = nbrs & -nbrs
                if (adj[u.bit_length() - 1] & m).bit_count() == best:
                    break
                nbrs ^= u
            else:
                m |= bit
        return m

    # A settled set is kept as its high part and the planes of the patterns
    # holding at least k low vertices outside it; its low complement is
    # small, since grown sets are large, so the planes take few levels.
    # A scanned host meets every earlier settled set in fewer than s
    # vertices, so its s-vertex witness grows to a new set.
    low_vertices = (1 << min(g.n, _LOW)) - 1
    span = (1 << low_vertices + 1) - 1  # the plane of the patterns below 2**n
    _, holds, weights = _pattern_tables()
    settled = []

    def settle(m: int) -> tuple[int, list[int]]:
        m = grown(m)
        settled.append((m >> _LOW, _planes_at_least(holds, low_vertices & ~m, span)))
        return settled[-1]

    settle(full.witness_min)
    size = (g.n - 1) & ~1  # even proper hosts only
    while size > 2 * best + 2:
        s = size // 2 + 1
        for h, c in _blocks(g.n, size):
            # the host h << _LOW | l holds at least s members of a settled set
            # (top, planes) when l holds at most c - (s - |top & h|) low
            # vertices outside it, so the hosts left are in planes[k] for k
            # one more; k past the planes leaves none
            cut = c - s + 1
            live = weights[c] & span
            for top, planes in settled:
                k = cut + (top & h).bit_count()
                if k > 0:
                    live &= planes[k] if k < len(planes) else 0
                    if not live:
                        break
            while live:
                low = live & -live
                live ^= low
                host = h << _LOW | low.bit_length() - 1
                rest = _greedy_majority(adj, host, s, best)
                if not rest:
                    value, rest = _subdim_scan(g, host, s, best)
                    if value > best:
                        best = value
                        best_host = host
                        best_inner = SubdimCertificate(value=value, witness_min=rest,
                                                       host_size=size)
                top, planes = settle(rest)
                k = cut + (top & h).bit_count()
                if k > 0:
                    live &= planes[k] if k < len(planes) else 0
        size -= 2
    # the last size, 2 * best + 2: the lemma's host, if any, is the certificate
    host = _last_class_host(g, best) if size == 2 * best + 2 else None
    if host is None:
        return DimCertificate(value=best, witness_max=best_host, inner=best_inner)
    inner = SubdimCertificate(value=best + 1, witness_min=_lowest(host, best + 2), host_size=size)
    return DimCertificate(value=best + 1, witness_max=host, inner=inner)


def _replay_subdim(g: Graph, cert: SubdimCertificate, host: int) -> dict:
    """The replay of a subdim certificate for `host`, through max_degree_within.

    ok when the witness is a subset of the host with exactly |host| // 2 + 1
    members, host_size is |host| and the witness's induced max degree is
    value; that proves subdim(g, host) <= value.
    """
    host, m, s = _majority(g, host)
    delta = max_degree_within(g, cert.witness_min)
    ok = (not cert.witness_min & ~host and cert.witness_min.bit_count() == s
          and cert.host_size == m and delta == cert.value)
    return {"witness_max_degree": delta, "ok": ok}


def _replay_dim(g: Graph, cert: DimCertificate) -> dict:
    """The replay of a dim certificate with an inner certificate.

    ok when the inner certificate replays for witness_max and its value,
    the brute-force oracle's subdim of witness_max and value agree; that
    proves dim(g) >= value.  The oracle, not the branch and bound that found
    the certificate, visits C(m, m // 2 + 1) subsets for m = |witness_max|.
    """
    inner = _replay_subdim(g, cert.inner, cert.witness_max)
    recomputed = subdim_naive(g, cert.witness_max).value
    return {"witness_max_degree": inner["witness_max_degree"],
            "subdim_of_witness_max": recomputed,
            "ok": inner["ok"] and cert.inner.value == recomputed == cert.value}
