"""Batch verification sweeps.

Each suite checks one guaranteed relationship on a fixed population of
graphs and returns its parameters and every instance with a pass/fail
flag; run_suite names the report by the suite's _SUITES key, so a run is
a self-contained audit trail.  The exhaustive sweeps walk every labeled
graph on up to six vertices; redundancy across isomorphic graphs is
deliberate, since it needs no canonization and each instance stays
independently replayable.  run_suite reads and checks the sweep size
once, before the suite runs, and every suite takes the checked int max_n.
The sweep suites share one cached sweep that enumerates each graph and
computes its invariants once.  It reads chi and dim of each n-vertex graph
from its n one-vertex-deleted minors, records of the (n - 1) sweep: every
proper host lies in some V - v, so dim(G) = max(subdim(G, V),
max_v dim(G - v)), and chi(G - v) <= chi(G) <= chi(G - v) + 1, so one
chromatic decision settles chi.  Every capped call passes an explicit cap
(the checked graph's size, or DEFAULT_CAP for loading the family specs), so
GRAPHDIM_CAP never changes a report.  All randomness is seeded.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from .cayley import (
    AbelianGroup,
    GeneratorSet,
    cayley_graph,
    dim_via_transitivity,
    translate,
)
from .coloring import (
    _color_decision,
    _critical,
    _decompose,
    _degree_order,
    chromatic_bound_from_dim,
    chromatic_number,
    chromatic_number_within,
    decomposition_round_bound,
    is_proper,
)
from .core import (Graph, _instance, _integer, bits_of, encode_graph6, hypercube_graph,
                   max_degree_within)
from .dimension import _dim_search, _replay_subdim, dim_exact, subdim, subdim_naive
from .embedding import unit_distance_embed, verify_embedding
from .errors import CapExceeded, DomainError
from .inputs import load_input, parse_cayley_spec
from .limits import DEFAULT_CAP

__all__ = ["SUITE_NAMES", "enumerate_labeled_graphs", "run_suite", "run_all"]

_SWEEP_LIMIT = 6          # enumerate_labeled_graphs refuses beyond this
_IDENTITY_SEED = 20250810  # fixed so reports are byte-identical across runs
_ORACLE_TRIALS = 200
_EMBED_SAMPLE_STRIDE = 500


def enumerate_labeled_graphs(n: int):
    """All 2^C(n,2) labeled graphs on vertices 0..n-1, each exactly once.

    Edge pairs are ranked in itertools.combinations order and graph i has
    exactly the edges whose rank bits are set in i, so enumeration order is
    deterministic and dense in i.  The argument is checked at the call; the
    graphs come from a generator.
    """
    n = _integer(n, "vertex count", 0)
    if n > _SWEEP_LIMIT:
        raise CapExceeded(f"labeled enumeration supports n <= {_SWEEP_LIMIT}, got {n}")
    return _labeled_graphs(n)


def _labeled_graphs(n: int):
    """enumerate_labeled_graphs for a checked n."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph._built(n, tuple(adj))


@lru_cache(maxsize=8)
def _sweep_stats(n: int) -> list[tuple]:
    """(graph, graph6, chi, subdim certificate of V, dim) of each labeled
    n-vertex graph, for n >= 1, read from its n one-vertex-deleted minors.

    Every G - v, relabeled in order, is a record of the (n - 1) sweep (the
    empty graph, with chi = dim = 0, for n = 1).  Every nonempty proper
    vertex set lies in some V - v, so dim(G) = max(subdim(G, V),
    max_v dim(G - v)).  Deleting a vertex lowers chi by at most one, so with
    m = max_v chi(G - v), m <= chi(G) <= m + 1 and one decision at m
    settles it.
    """
    minors = ({(): (0, 0)} if n == 1 else
              {g.adj: (chi, dim_value) for g, _, chi, _, dim_value in _sweep_stats(n - 1)})
    out = []
    for g in enumerate_labeled_graphs(n):
        adj = g.adj
        chi = dim_value = 0
        for v in range(n):
            lo = (1 << v) - 1  # rows keep their bits below v and shift those above it
            hi = ~lo
            minor_chi, minor_dim = minors[tuple([r & lo | r >> 1 & hi
                                                 for r in adj[:v] + adj[v + 1:]])]
            if minor_chi > chi:
                chi = minor_chi
            if minor_dim > dim_value:
                dim_value = minor_dim
        if _color_decision(adj, _degree_order(adj, range(n)), chi) is None:
            chi += 1
        full = subdim(g, g.vertex_mask)
        out.append((g, encode_graph6(g), chi, full, max(full.value, dim_value)))
    return out


def _sweep_size(cap: int | None) -> int:
    """The checked sweep size max_n as an int; None means the largest."""
    max_n = _SWEEP_LIMIT if cap is None else _integer(cap, "verify sweep size", 1)
    if max_n > _SWEEP_LIMIT:
        raise CapExceeded(f"verify sweep size must be <= {_SWEEP_LIMIT}, got {max_n}")
    return max_n


def _records(max_n: int):
    """The _sweep_stats records for n = 1..max_n, in order."""
    return itertools.chain.from_iterable(map(_sweep_stats, range(1, max_n + 1)))


def _agreement(case: str, metric: str, got: int, want: int) -> dict:
    """The instance record of a computed value checked against the expected one."""
    return {"case": case, "metric": metric, "got": got, "want": want, "ok": got == want}


def _suite_report(name: str, parameters: dict, instances: list[dict]) -> dict:
    failures = sum(1 for inst in instances if not inst["ok"])
    return {
        "suite": name,
        "parameters": parameters,
        "checked": len(instances),
        "failures": failures,
        "ok": failures == 0 and len(instances) > 0,
        "instances": instances,
    }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# (spec, closed-form subdim of V or None, closed-form dim), in report order
_FAMILY_CASES = (
    [(f"path:{n}", None, 1) for n in range(4, 11)]
    + [(f"cycle:{n}", None, 1) for n in range(5, 11)]
    + [(f"complete:{n}", None, n // 2) for n in range(2, 11)]
    + [(f"kbip:{m},{n}", 0 if m < n else m // 2 + 1, m // 2 + 1)
       for m in range(1, 6) for n in range(m, 6)]
)


def suite_examples(max_n: int) -> tuple[dict, list[dict]]:
    """Closed-form dimension values of the basic families."""
    instances = []
    for spec, want_subdim, want_dim in _FAMILY_CASES:
        g, _ = load_input(spec, cap=DEFAULT_CAP)
        full = subdim(g, g.vertex_mask)
        if want_subdim is not None:
            instances.append(_agreement(spec, "subdim", full.value, want_subdim))
        instances.append(_agreement(spec, "dim", _dim_search(g, full).value, want_dim))
    return {}, instances


def suite_theorem1(max_n: int) -> tuple[dict, list[dict]]:
    """Hypercube dimension: ceil(sqrt(n)), exactly for n <= 3, and via the
    translation shortcut plus a searched half-witness for n = 4."""
    instances = []
    for n in (1, 2, 3):
        g = hypercube_graph(n)
        instances.append(_agreement(f"cube:{n}", "dim_exact", dim_exact(g, cap=g.n).value,
                                    math.isqrt(n - 1) + 1))
    grp = AbelianGroup((2,) * 4)
    gens = GeneratorSet({1 << i for i in range(4)})
    cert = dim_via_transitivity(grp, gens, cap=grp.size)
    witness = cert.inner.witness_min
    instances += [
        _agreement("cube:4", "dim_via_transitivity", cert.value, 2),
        _agreement("cube:4", "half_witness_size", witness.bit_count(), 9),
        _agreement("cube:4", "half_witness_delta",
                   max_degree_within(hypercube_graph(4), witness), 2),
    ]
    return {}, instances


# the Cayley specs of prop1, in report order; oracle checks them too
_PROP1_CASES = (
    [f"cayley:z:{n};gens=1,{n - 1}" for n in range(5, 9)]
    + [f"cayley:z:{n};gens=" + ",".join(str(s) for s in range(1, n)) for n in range(4, 8)]
    + ["cayley:z:2,2;gens=(1,0),(0,1)",
       "cayley:z:2,2,2;gens=(1,0,0),(0,1,0),(0,0,1)",
       "cayley:z:7;gens=1,2,5,6"]
)


def suite_prop1(max_n: int) -> tuple[dict, list[dict]]:
    """Translation shortcut agrees with the exhaustive solver on Cayley graphs."""
    instances = []
    for case in _PROP1_CASES:
        grp, gens = parse_cayley_spec(case[len("cayley:"):])
        shortcut = dim_via_transitivity(grp, gens, cap=grp.size).value
        exhaustive = dim_exact(cayley_graph(grp, gens), cap=grp.size).value
        instances.append(_agreement(case, "dim", shortcut, exhaustive))
    return {}, instances


def suite_theorem2(max_n: int) -> tuple[dict, list[dict]]:
    """Chromatic bound chi <= (dim + 1) * max(1, ceil(log2 n)) on every
    labeled graph up to the sweep cap, with the decomposition coloring
    meeting the same palette bound in at most max(1, ceil(log2 n)) rounds."""
    instances = []
    for g, g6, chi, full, dim_value in _records(max_n):
        bound = chromatic_bound_from_dim(dim_value, g.n)
        col, rounds = _decompose(g, full)
        ok = (chi <= bound
              and is_proper(g, col.colors)
              and col.palette_size <= bound
              and len(rounds) <= decomposition_round_bound(g.n))
        instances.append({"case": g6, "chi": chi, "dim": dim_value,
                          "bound": bound, "palette": col.palette_size,
                          "rounds": len(rounds), "ok": ok})
    return {"max_n": max_n}, instances


def suite_lemma2(max_n: int) -> tuple[dict, list[dict]]:
    """Critical subgraphs keep the chromatic number and have min degree
    at least chi - 1, on every labeled graph up to the sweep cap.  The
    subgraph is cut down to the sweep's chi, and chromatic_number_within
    of the result checks that chi."""
    instances = []
    for g, g6, chi, _, _ in _records(max_n):
        core = _critical(g, chi)
        core_chi = chromatic_number_within(g, core, cap=g.n)
        preserved = core_chi == chi
        degrees_ok = all((g.adj[v] & core).bit_count() >= core_chi - 1 for v in bits_of(core))
        instances.append({"case": g6, "chi": chi,
                          "critical_size": core.bit_count(),
                          "chi_preserved": preserved,
                          "min_degree_ok": degrees_ok,
                          "ok": preserved and degrees_ok})
    return {"max_n": max_n}, instances


def suite_corollary1(max_n: int) -> tuple[dict, list[dict]]:
    """2*chi never exceeds 2*(dim+1)*max(1, ceil(log2 n)) on the sweep, and
    sampled graphs get their coloring-based embedding built and verified."""
    instances = []
    for counter, (g, g6, chi, _, dim_value) in enumerate(_records(max_n)):
        via_chi = 2 * chi
        via_dim = 2 * chromatic_bound_from_dim(dim_value, g.n)
        instances.append({"case": g6, "bound_via_chi": via_chi,
                          "bound_via_dim": via_dim, "ok": via_chi <= via_dim})
        if counter % _EMBED_SAMPLE_STRIDE == 0:
            _, col = chromatic_number(g, cap=g.n)
            report = verify_embedding(g, unit_distance_embed(g, col))
            instances.append({"case": g6, "ambient": report.ambient_dim,
                              "want_ambient": 2 * chi,
                              "ok": report.ok and report.ambient_dim == 2 * chi})
    return {"max_n": max_n}, instances


def suite_identity(max_n: int) -> tuple[dict, list[dict]]:
    """Exact translate-overlap counting and the averaging consequence, on
    seeded random triples, plus exhaustive majority coverage on the
    3-dimensional cube.

    For W, S in an abelian group of order N, each pair (w, s) lies in
    exactly one translate's overlap (W + a) & S, namely a = s - w, so the
    overlaps over all N translates sum to |W| * |S| and the largest is at
    least ceil(|W| * |S| / N).  The half-witness W of the whole graph is a
    majority of the group, so that average exceeds |S| / 2 and some
    translate of W covers a majority of every S: the reason dim == subdim
    on Cayley graphs.  Each translate is built once and its overlaps are
    counted here, so the identity is checked rather than assumed.
    """
    rng = random.Random(_IDENTITY_SEED)
    instances = []
    for trial in range(100):
        while True:
            orders = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
            if math.prod(orders) <= 64:
                break
        grp = AbelianGroup(orders)
        size = grp.size
        w_set = rng.getrandbits(size)
        s_set = rng.getrandbits(size)
        overlaps = [(translate(grp, w_set, a) & s_set).bit_count() for a in range(size)]
        total, overlap = sum(overlaps), max(overlaps)
        expected = w_set.bit_count() * s_set.bit_count()
        needed = -(-expected // size)
        instances.append({
            "case": "z:" + ",".join(map(str, orders)) + f" #{trial:03d}",
            "sum": total, "expected": expected,
            "overlap": overlap, "overlap_needed": needed,
            "ok": total == expected and overlap >= needed,
        })
    grp = AbelianGroup((2, 2, 2))
    gens = GeneratorSet({1, 2, 4})
    g = cayley_graph(grp, gens)
    witness = subdim(g, g.vertex_mask).witness_min
    images = [translate(grp, witness, a) for a in range(grp.size)]
    for s_set in range(1, 1 << g.n):
        overlap = max((t & s_set).bit_count() for t in images)
        needed = s_set.bit_count() // 2 + 1
        instances.append({"case": f"coverage z:2,2,2 S=0x{s_set:02x}",
                          "overlap": overlap, "overlap_needed": needed,
                          "ok": overlap >= needed})
    return {"seed": _IDENTITY_SEED, "trials": 100}, instances


def suite_oracle(max_n: int) -> tuple[dict, list[dict]]:
    """Branch-and-bound solver against the brute-force oracle: identical
    certificates on the family graphs and on seeded random graphs, each
    replayed by _replay_subdim."""
    rng = random.Random(_IDENTITY_SEED + 1)
    instances = []

    def check(case: str, g: Graph):
        fast = subdim(g, g.vertex_mask)
        slow = subdim_naive(g, g.vertex_mask)
        instances.append({"case": case, "got": fast.value, "want": slow.value,
                          "witness_match": fast == slow,
                          "ok": fast == slow and _replay_subdim(g, slow, g.vertex_mask)["ok"]})

    for spec, _, _ in _FAMILY_CASES:
        check(spec, load_input(spec, cap=DEFAULT_CAP)[0])
    for n in (1, 2, 3, 4):
        check(f"cube:{n}", hypercube_graph(n))
    for case in _PROP1_CASES:
        check(case, load_input(case, cap=DEFAULT_CAP)[0])
    for trial in range(_ORACLE_TRIALS):
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.5, 0.8))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        check(f"random n={n} p={p} #{trial:03d} {encode_graph6(g)}", g)
    return {"seed": _IDENTITY_SEED + 1, "trials": _ORACLE_TRIALS}, instances


# each suite takes the checked sweep size max_n; only the sweep suites read it
_SUITES = {
    "examples": suite_examples,
    "theorem1": suite_theorem1,
    "prop1": suite_prop1,
    "theorem2": suite_theorem2,
    "lemma2": suite_lemma2,
    "corollary1": suite_corollary1,
    "identity": suite_identity,
    "oracle": suite_oracle,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cap: int | None = None) -> dict:
    """The report of one suite, or of all of them.  Whichever suite is
    named, the sweep size cap is read and checked here, once, before the
    suite runs, and the suite gets the checked int max_n."""
    if _instance(name, str, "suite must be a str") == "all":
        return run_all(cap)
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; known: all, {', '.join(_SUITES)}")
    return _suite_report(name, *_SUITES[name](_sweep_size(cap)))


def run_all(cap: int | None = None) -> dict:
    suites = [run_suite(name, cap) for name in SUITE_NAMES]
    return {
        "suite": "all",
        "checked": sum(s["checked"] for s in suites),
        "failures": sum(s["failures"] for s in suites),
        "ok": all(s["ok"] for s in suites),
        "suites": suites,
    }
