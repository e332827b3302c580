"""Output checks that take a different route from the solvers they check.

Nothing here imports graphdim.  Graphs are adjacency bitset lists, and the
brute-force routines (graph6 coding, Cayley adjacency, chromatic number,
dim by exhaustive subset tables) are written out again from the
definitions.  Where a check is asked to replay a witness through the
program's own ``max_degree_within`` or ``subdim_naive``, the caller passes
those functions in.

Every ``check_*`` function returns a list of failure messages; an empty
list means the output passed.  ``plant_*`` functions build deliberately
wrong copies of a passing output, so a run can prove that its checker
would have caught them.
"""

from __future__ import annotations

import copy
import math
import random

BRUTE_DIM_MAX_N = 14      # exhaustive dim table over all 2^n vertex sets
EMBED_SAMPLE = 64         # edges and vertex pairs re-measured per embedding
EMBED_TOL = 1e-9


# ---------------------------------------------------------------------------
# graphs as adjacency bitsets
# ---------------------------------------------------------------------------

def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def delta(adj, mask: int) -> int:
    return max(((adj[v] & mask).bit_count() for v in bits(mask)), default=0)


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def graph6_of(n: int, edges) -> str:
    """graph6 text of a graph with n <= 62 or up to 258047 vertices."""
    adj = adjacency(n, edges)
    head = [n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    out = bytearray(head)
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc = filled = 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return out.decode("ascii")


def decode_graph6(text: str) -> tuple[int, list[int]]:
    data = text.strip().encode("ascii")
    if data[0] == 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return n, adj


def cayley_adjacency(orders, gens) -> list[int]:
    """Cayley graph of Z_{n_1} x ... (first coordinate least significant)."""
    size = math.prod(orders)

    def coords(x):
        out = []
        for n in orders:
            out.append(x % n)
            x //= n
        return out

    def code(c):
        x, stride = 0, 1
        for a, n in zip(c, orders):
            x += (a % n) * stride
            stride *= n
        return x

    adj = [0] * size
    for x in range(size):
        cx = coords(x)
        for g in gens:
            adj[x] |= 1 << code([a + b for a, b in zip(cx, g)])
    return adj


# ---------------------------------------------------------------------------
# exhaustive reference values
# ---------------------------------------------------------------------------

def brute_dim(adj, n: int) -> int:
    """max over hosts S of min over |T| = |S|//2 + 1, T in S, of Delta(T)."""
    full = 1 << n
    table = [0] * full
    for m in range(1, full):
        table[m] = delta(adj, m)
    best = 0
    for host in range(1, full):
        if table[host] <= best:
            continue  # subdim(host) <= Delta(host) cannot beat best
        s = host.bit_count() // 2 + 1
        low = table[host]
        t = host
        while t and low > best:
            if t.bit_count() == s and table[t] < low:
                low = table[t]
            t = (t - 1) & host
        best = max(best, low)
    return best


def _colorable(adj, n: int, k: int) -> bool:
    colors = [-1] * n

    def place(v: int, top: int) -> bool:
        if v == n:
            return True
        for c in range(min(k, top + 1)):
            if all(colors[u] != c for u in bits(adj[v] & ((1 << v) - 1))):
                colors[v] = c
                if place(v + 1, max(top, c + 1)):
                    return True
        colors[v] = -1
        return False

    return place(0, 0)


def brute_chi(adj, n: int) -> int:
    k = 0 if n == 0 else 1
    while not _colorable(adj, n, k):
        k += 1
    return k


def proper(adj, colors) -> bool:
    return all(colors[u] != colors[v] for u in range(len(adj)) for v in bits(adj[u]) if u < v)


def gap_free(colors, palette: int) -> bool:
    return set(colors) == set(range(palette))


# ---------------------------------------------------------------------------
# compute-mixed: one cmd_compute(input, "all") report
# ---------------------------------------------------------------------------

def check_compute(inst: dict, report: dict, adj, graph, max_degree_within,
                  subdim_naive) -> list[str]:
    bad = []
    n = len(adj)
    full = (1 << n) - 1
    res = report["results"]
    if report["graph"]["n"] != n:
        bad.append(f"graph n {report['graph']['n']} != {n}")
    if inst["kind"] == "graph" and report["graph"]["graph6"] != graph6_of(n, inst["edges"]):
        bad.append("graph6 of the loaded graph differs from the generated graph")
    maxdeg = max((a.bit_count() for a in adj), default=0)

    sub = res["subdim"]
    w = _mask(sub["witness_min"])
    if w & ~full or w.bit_count() != n // 2 + 1 or sub["host_size"] != n:
        bad.append("subdim witness has the wrong size or leaves the graph")
    elif max_degree_within(graph, w) != sub["value"] or delta(adj, w) != sub["value"]:
        bad.append(f"subdim witness replays to {delta(adj, w)}, claimed {sub['value']}")
    if subdim_naive(graph, full).value != sub["value"]:
        bad.append("subdim differs from the brute-force oracle")

    dim = res["dim"]
    host = _mask(dim["witness_max"])
    inner = dim["inner"]
    iw = _mask(inner["witness_min"])
    if host == 0 or host & ~full or iw & ~host:
        bad.append("dim witnesses are not nested inside the graph")
    elif iw.bit_count() != host.bit_count() // 2 + 1 or inner["host_size"] != host.bit_count():
        bad.append("dim inner witness has the wrong size")
    elif (max_degree_within(graph, iw) != dim["value"] or delta(adj, iw) != dim["value"]
          or inner["value"] != dim["value"]):
        bad.append(f"dim inner witness replays to {delta(adj, iw)}, claimed {dim['value']}")
    if not sub["value"] <= dim["value"] <= maxdeg:
        bad.append("dim outside [subdim(V), max degree]")
    if inst["kind"] == "family" and dim["value"] != inst["dim"]:
        bad.append(f"dim {dim['value']} != closed form {inst['dim']}")
    if n <= BRUTE_DIM_MAX_N and brute_dim(adj, n) != dim["value"]:
        bad.append("dim differs from the exhaustive table")
    if res["bounds"] != {"lower": sub["value"], "upper": maxdeg}:
        bad.append("dim bounds are not (subdim(V), max degree)")

    chi = res["chi"]
    if not proper(adj, chi["colors"]) or not gap_free(chi["colors"], chi["value"]):
        bad.append("chi coloring is improper or does not use exactly chi colors")
    if inst["kind"] == "family" and chi["value"] != inst["chi"]:
        bad.append(f"chi {chi['value']} != closed form {inst['chi']}")
    if n <= BRUTE_DIM_MAX_N and brute_chi(adj, n) != chi["value"]:
        bad.append("chi differs from exhaustive coloring")

    bound = (dim["value"] + 1) * max(1, ceil_log2(n))
    dec = res["decomposition"]
    if (not proper(adj, dec["colors"]) or not gap_free(dec["colors"], dec["palette_size"])
            or dec["palette_size"] > bound or chi["value"] > bound
            or len(dec["rounds"]) > max(1, ceil_log2(n))):
        bad.append("decomposition coloring breaks the (dim+1)*ceil(log2 n) bound")

    emb = res["embedding"]
    if not emb["ok"] or emb["ambient_dim"] != 2 * chi["value"]:
        bad.append("embedding not verified in dimension 2*chi")
    return bad


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def plant_compute(report: dict, adj) -> list[tuple[str, dict]]:
    """Wrong copies of a passing report: swapped witness, values off by one,
    an improper coloring, a wrong embedding dimension."""
    planted = []
    sub = report["results"]["subdim"]
    swapped = _swap_into_worse(adj, _mask(sub["witness_min"]), len(adj))
    if swapped is not None:
        r = copy.deepcopy(report)
        r["results"]["subdim"]["witness_min"] = bits(swapped)
        planted.append(("subdim witness with one vertex swapped", r))
    r = copy.deepcopy(report)
    r["results"]["dim"]["value"] += 1
    planted.append(("dim value off by one", r))
    r = copy.deepcopy(report)
    r["results"]["subdim"]["value"] -= 1
    planted.append(("subdim value off by one", r))
    u = next(v for v in range(len(adj)) if adj[v])
    w = (adj[u] & -adj[u]).bit_length() - 1
    r = copy.deepcopy(report)
    r["results"]["chi"]["colors"][w] = r["results"]["chi"]["colors"][u]
    planted.append(("chi coloring with an edge inside a color class", r))
    r = copy.deepcopy(report)
    r["results"]["embedding"]["ambient_dim"] += 2
    planted.append(("embedding dimension not 2*chi", r))
    return planted


def _swap_into_worse(adj, witness: int, n: int) -> int | None:
    """The witness with one member swapped for an outsider, chosen so that
    the induced max degree rises; None if no swap does that."""
    value = delta(adj, witness)
    for v in bits(witness):
        for u in range(n):
            if not witness >> u & 1:
                cand = witness ^ (1 << v) | (1 << u)
                if delta(adj, cand) > value:
                    return cand
    return None


# ---------------------------------------------------------------------------
# verify-all: suite reports and the sweep's (graph6, chi, dim) triples
# ---------------------------------------------------------------------------

def check_suite(name: str, report: dict, max_n: int | None = None) -> list[str]:
    """One message per failing instance record, plus report-level faults.
    A sweep suite run with a cap must report that cap as its max_n."""
    failing = [f"{name}: {inst.get('case')} failed" for inst in report["instances"] if not inst["ok"]]
    bad = list(failing)
    if report.get("suite") != name:
        bad.append(f"report is for suite {report.get('suite')!r}, not {name}")
    if report["checked"] == 0 or report["checked"] != len(report["instances"]):
        bad.append(f"{name}: checked {report['checked']} of {len(report['instances'])} instances")
    if report["failures"] != len(failing) or report["ok"] != (not failing):
        bad.append(f"{name}: report totals disagree with its instances")
    if max_n is not None and report.get("parameters", {}).get("max_n") != max_n:
        bad.append(f"{name}: swept max_n {report.get('parameters', {}).get('max_n')}, not {max_n}")
    return bad


def check_triple(g6: str, chi: int, dim_value: int) -> list[str]:
    n, adj = decode_graph6(g6)
    bad = []
    if brute_chi(adj, n) != chi:
        bad.append(f"{g6}: chi {chi} != exhaustive {brute_chi(adj, n)}")
    if brute_dim(adj, n) != dim_value:
        bad.append(f"{g6}: dim {dim_value} != exhaustive {brute_dim(adj, n)}")
    return bad


def plant_triples(triple) -> list[tuple[str, tuple]]:
    g6, chi, dim_value = triple
    return [("sweep dim off by one", (g6, chi, dim_value + 1)),
            ("sweep chi off by one", (g6, chi + 1, dim_value))]


# ---------------------------------------------------------------------------
# subdim-dense: certificates from subdim(g, V) and dim_via_transitivity
# ---------------------------------------------------------------------------

def check_subdim(inst: dict, cert: dict, adj, graph, max_degree_within,
                 subdim_naive) -> list[str]:
    bad = []
    n = len(adj)
    full = (1 << n) - 1
    w = cert["witness"]
    if w & ~full or w.bit_count() != n // 2 + 1 or cert["host_size"] != n:
        bad.append("witness has the wrong size or leaves the host")
    elif max_degree_within(graph, w) != cert["value"] or delta(adj, w) != cert["value"]:
        bad.append(f"witness replays to {delta(adj, w)}, claimed {cert['value']}")
    if inst["kind"] == "cayley":
        if cert["value"] != inst["value"]:
            bad.append(f"value {cert['value']} != known {inst['value']}")
        if cert["witness_max"] != full:
            bad.append("transitivity certificate does not use the full vertex set")
    elif inst.get("oracle") and subdim_naive(graph, full).value != cert["value"]:
        bad.append("value differs from the brute-force oracle")
    return bad


def plant_subdim(cert: dict, adj) -> list[tuple[str, dict]]:
    planted = []
    swapped = _swap_into_worse(adj, cert["witness"], len(adj))
    if swapped is not None:
        planted.append(("witness with one vertex swapped", dict(cert, witness=swapped)))
    planted.append(("value off by one", dict(cert, value=cert["value"] + 1)))
    return planted


# ---------------------------------------------------------------------------
# ingest-embed: round trips, greedy coloring, embedding
# ---------------------------------------------------------------------------

def check_ingest(inst: dict, out: dict, adj) -> list[str]:
    bad = []
    n = len(adj)
    if out["graph6"] != graph6_of(n, inst["edges"]):
        bad.append("encode_graph6 differs from the reference encoding")
    if list(out["adj_from_graph6"]) != adj:
        bad.append("graph6 round trip changed the graph")
    if list(out["adj_from_edges"]) != adj:
        bad.append("edge-list round trip changed the graph")
    colors, palette = out["colors"], out["palette"]
    maxdeg = max((a.bit_count() for a in adj), default=0)
    if not proper(adj, colors) or not gap_free(colors, palette) or palette > maxdeg + 1:
        bad.append("greedy coloring improper or beyond max degree + 1 colors")
    if not out["report_ok"] or out["ambient_dim"] != 2 * palette or out["report_dim"] != 2 * palette:
        bad.append("verify_embedding not ok in dimension 2*palette")
    points = out["points"]
    for u, v in out["sample_edges"]:
        if abs(math.dist(points[u], points[v]) - 1.0) > EMBED_TOL:
            bad.append(f"edge {u}-{v} does not have unit length")
            break
    for u, v in out["sample_pairs"]:
        if math.dist(points[u], points[v]) <= EMBED_TOL:
            bad.append(f"vertices {u} and {v} coincide")
            break
    return bad


def embed_samples(n: int, adj, seed: str):
    """Seeded edges and vertex pairs whose embedded distances get re-measured."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in bits(adj[u]) if u < v]
    sample_edges = rng.sample(edges, min(EMBED_SAMPLE, len(edges)))
    sample_pairs = []
    while n >= 2 and len(sample_pairs) < EMBED_SAMPLE:
        u, v = rng.sample(range(n), 2)
        sample_pairs.append((u, v))
    return sample_edges, sample_pairs


def plant_ingest(out: dict, adj) -> list[tuple[str, dict]]:
    u, w = out["sample_edges"][0]
    dropped = list(out["adj_from_graph6"])
    dropped[u] &= ~(1 << w)
    dropped[w] &= ~(1 << u)
    colors = list(out["colors"])
    colors[w] = colors[u]
    points = dict(out["points"])
    points[u] = tuple(x * 1.5 for x in points[u])
    return [("graph6 round trip missing an edge", dict(out, adj_from_graph6=dropped)),
            ("greedy coloring with an edge inside a color class", dict(out, colors=colors)),
            ("embedding dimension off", dict(out, ambient_dim=out["ambient_dim"] + 2)),
            ("embedded edge stretched", dict(out, points=points))]
