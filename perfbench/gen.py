"""Seeded input generation for the four workloads.

Every workload has a fixed composition: the number of instances in each
(kind, size, density) cell is the same for every seed, and the seed only
draws the edges and the few family parameters.  That keeps the amount of
work per run nearly constant across seeds, so run-to-run spread measures
the program rather than the luck of the draw.

Graphs are plain (n, edge list) pairs here; nothing in this module imports
graphdim, so the program under test receives only the generated inputs.
"""

from __future__ import annotations

import itertools
import os
import random

from checks import graph6_of

WORKLOADS = ("compute-mixed", "verify-all", "subdim-dense", "ingest-embed")

# solver cap set through GRAPHDIM_CAP for each workload; subdim-dense and
# ingest-embed go beyond the default of 16 on purpose
CAPS = {"compute-mixed": 16, "verify-all": 16, "subdim-dense": 32, "ingest-embed": 300}

VERIFY_SUITES = ("examples", "theorem1", "prop1", "theorem2", "lemma2",
                 "corollary1", "identity", "oracle")
# verify-all passes this cap to the three sweep suites, so that the labeled
# sweep covers the 1,099 graphs with n <= 5 instead of the 33,867 with
# n <= 6: one pass then takes under a second instead of about 24 s, and a
# run of 30 s can repeat it and take a median instead of resting on one
# call.  The other suites keep their own defaults (their cap is a dim_exact
# cap, not n).
VERIFY_SWEEP_CAP = 5
VERIFY_SWEEPS = ("theorem2", "lemma2", "corollary1")

# One pass over a workload's inputs takes 2 to 6 s on a 2-core x86-64 VM,
# so that a run of 30 s makes several passes.  The per-instance workloads
# have 100 to 400 instances: with fewer, which random graphs a seed draws
# moves the sums and percentiles by more than the host's noise does.
# dim_exact cost roughly doubles with every added vertex, so the counts fall
# steeply with n.  No composition puts the median or the 90th percentile on
# a step between two cells whose latencies are far apart.

# compute-mixed: (vertex count, density) -> number of random graphs with
# round(p * C(n, 2)) edges, plus FAMILY_ROUNDS * 12 family specs, 400 in
# all.  Latencies rise smoothly from the families and n = 9 through n = 10, where
# the median falls, to n = 11, where the 90th percentile falls.
FAMILY_ROUNDS = 4  # 12 family specs per round
_COMPUTE_CELLS = {(9, 0.2): 36, (9, 0.5): 36, (9, 0.8): 36,
                  (10, 0.2): 56, (10, 0.5): 56, (10, 0.8): 56,
                  (11, 0.5): 72, (12, 0.5): 4}
# subdim-dense: (vertex count, density) -> number of seeded hosts.  The
# median and the 90th percentile both fall among these.
_DENSE_CELLS = {(16, 0.6): 150, (17, 0.6): 75, (16, 0.7): 75}
# The first ORACLE_PER_CELL hosts of each cell are also checked against the
# brute-force subdim_naive, which takes about 50 ms a host; all are checked
# by witness replay.
ORACLE_PER_CELL = 8
# One host per cell for the rest of n = 16..20, p = 0.6..0.8.  These are
# drawn from a fixed stream, the same for every seed, like the Cayley
# graphs: a single host of n = 20 costs anywhere from 50 to 180 ms, and one
# hard draw would move the whole run.
_DENSE_TAIL = ((16, 0.8), (17, 0.7), (17, 0.8), (18, 0.6), (18, 0.7), (19, 0.6), (20, 0.6))
# ingest-embed: (vertex count, density) -> number of graphs.  The median
# falls among the 30 graphs G(50, 0.5), the 90th percentile among the 18
# graphs G(75, 0.5); one graph each at n = 100, 150, 200 and 300 keeps the
# cubic graph6 decoder in view.
_INGEST_CELLS = {(50, 0.05): 27, (75, 0.05): 12, (50, 0.5): 30, (100, 0.05): 9,
                 (75, 0.5): 18, (100, 0.5): 1, (150, 0.5): 1, (200, 0.5): 1, (300, 0.5): 1}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{stream}/{seed}")


def gnm(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """A uniform graph with exactly round(p * C(n, 2)) edges.  A fixed edge
    count, unlike G(n, p), keeps the solver's work per cell from swinging
    with the binomial spread of the edge count from seed to seed."""
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def _compute_families(rng: random.Random) -> list[dict]:
    """Family specs with closed-form dim and chi (dim formulas per README)."""
    out = []

    def add(spec, dim, chi):
        out.append({"kind": "family", "spec": spec, "dim": dim, "chi": chi})

    for _ in range(2):
        k = rng.randint(6, 10)
        add(f"complete:{k}", k // 2, k)
    for _ in range(2):
        a = rng.randint(2, 4)
        b = rng.randint(a, 6)
        add(f"kbip:{a},{b}", a // 2 + 1, 2)
    k = rng.randint(8, 10)
    add(f"path:{k}", 1, 2)
    for _ in range(2):
        k = rng.randint(8, 10)
        add(f"cycle:{k}", 1, 2 + k % 2)
    add("cube:3", 2, 2)
    for _ in range(2):
        k = rng.randint(8, 10)
        add(f"cayley:z:{k};gens=1,{k - 1}", 1, 2 + k % 2)
    k = rng.randint(5, 9)
    add(f"cayley:z:{k};gens=" + ",".join(str(s) for s in range(1, k)), k // 2, k)
    add("cayley:z:2,2,2;gens=(1,0,0),(0,1,0),(0,0,1)", 2, 2)
    return out


def _compute_mixed(seed: int, workdir: str) -> list[dict]:
    rng = _rng("compute-mixed", seed, "graphs")
    instances = []
    idx = 0
    for (n, p), count in _COMPUTE_CELLS.items():
        for _ in range(count):
            edges = gnm(rng, n, p)
            as_g6 = idx % 2 == 0
            path = os.path.join(workdir, f"in{idx:03d}" + (".g6" if as_g6 else ".edges"))
            with open(path, "w", encoding="ascii") as fh:
                if as_g6:
                    fh.write(graph6_of(n, edges) + "\n")
                else:
                    fh.write(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            instances.append({"kind": "graph", "spec": path, "n": n, "p": p, "edges": edges})
            idx += 1
    for stream in range(FAMILY_ROUNDS):
        instances += _compute_families(_rng("compute-mixed", seed, f"families{stream}"))
    order = _rng("compute-mixed", seed, "order")
    order.shuffle(instances)
    return instances


# Cayley instances of subdim-dense: (orders, generator tuples, value at the
# commit that introduced the benchmark).  Q4 is ceil(sqrt(4)) by Theorem 1.
# Q5 (ceil(sqrt(5)) = 3, 8 to 13 s per call on a 2-core x86-64 VM) and
# Z3^3 (value 3, about 0.5 s) are left out: either call alone outlasts half a
# pass, and a pass must stay short (see above).  Q4 and Z5 x Z5 keep a
# Cayley refutation in the workload.
def _circulant(n: int, steps) -> tuple:
    gens = sorted({s % n for s in steps} | {-s % n for s in steps})
    return ((n,), [(s,) for s in gens])


def _units(orders) -> list[tuple]:
    k = len(orders)
    return [tuple((c if i == j else 0) for j in range(k))
            for i in range(k) for c in sorted({1, orders[i] - 1})]


_DENSE_CAYLEY = [
    ((12,), [(1,), (11,)], 1),
    ((20,), [(1,), (19,)], 1),
    _circulant(13, (1, 5)) + (2,),
    _circulant(17, (1, 3, 7)) + (3,),
    _circulant(18, (1, 4, 6)) + (3,),
    _circulant(19, (2, 5, 8)) + (3,),
    _circulant(16, (1, 2, 3, 4)) + (4,),
    ((5, 5), _units((5, 5)), 2),
    ((2,) * 4, _units((2,) * 4), 2),
]


def _subdim_dense(seed: int) -> list[dict]:
    rng = _rng("subdim-dense", seed, "graphs")
    instances = [{"kind": "host", "n": n, "p": p, "edges": gnm(rng, n, p), "oracle": k < ORACLE_PER_CELL}
                 for (n, p), count in _DENSE_CELLS.items() for k in range(count)]
    tail = _rng("subdim-dense", 0, "tail")
    instances += [{"kind": "host", "n": n, "p": p, "edges": gnm(tail, n, p)} for n, p in _DENSE_TAIL]
    for orders, gens, value in _DENSE_CAYLEY:
        instances.append({"kind": "cayley", "orders": list(orders),
                          "gens": [list(g) for g in gens], "value": value})
    _rng("subdim-dense", seed, "order").shuffle(instances)
    return instances


def _ingest_embed(seed: int) -> list[dict]:
    rng = _rng("ingest-embed", seed, "graphs")
    instances = [{"kind": "ingest", "n": n, "p": p, "edges": gnm(rng, n, p)}
                 for (n, p), count in _INGEST_CELLS.items() for _ in range(count)]
    _rng("ingest-embed", seed, "order").shuffle(instances)
    return instances


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """The seeded instance list of one run; compute-mixed also writes its files."""
    if workload == "compute-mixed":
        return _compute_mixed(seed, workdir)
    if workload == "verify-all":
        return [{"kind": "suite", "name": name,
                 "cap": VERIFY_SWEEP_CAP if name in VERIFY_SWEEPS else None}
                for name in VERIFY_SUITES]
    if workload == "subdim-dense":
        return _subdim_dense(seed)
    if workload == "ingest-embed":
        return _ingest_embed(seed)
    raise ValueError(f"unknown workload {workload!r}")
