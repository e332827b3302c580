"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <id> ...: PASS/FAIL" line (visible
with pytest -s, or in the captured output section on failure) and then
asserts.  Criteria with a stated time budget assert the elapsed time too.
"""

import hashlib
import json
import math
import subprocess
import sys
import time

from graphdim.cayley import AbelianGroup, GeneratorSet, dim_via_transitivity
from graphdim.coloring import chromatic_number
from graphdim.core import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    max_degree_within,
    path_graph,
)
from graphdim.dimension import dim_exact, subdim
from graphdim.embedding import unit_distance_embed, verify_embedding
from graphdim.verify import _sweep_stats, enumerate_labeled_graphs, run_suite

from helpers import subprocess_env


def _ceil_sqrt(n):
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _stamp(name, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")


def test_criterion_1_family_formulas_exact():
    start = time.perf_counter()
    ok = True
    for n in range(4, 11):
        ok &= dim_exact(path_graph(n)).value == 1
    for n in range(5, 11):
        ok &= dim_exact(cycle_graph(n)).value == 1
    for n in range(2, 11):
        ok &= dim_exact(complete_graph(n)).value == n // 2
    for m in range(1, 6):
        for n in range(m, 6):
            g = complete_bipartite_graph(m, n)
            if m < n:
                ok &= subdim(g, g.vertex_mask).value == 0
            ok &= dim_exact(g).value == m // 2 + 1
    elapsed = time.perf_counter() - start
    _stamp("1 family formulas", ok and elapsed < 10, elapsed)
    assert ok
    assert elapsed < 10


def test_criterion_2_hypercube_dimension():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        ok &= dim_exact(hypercube_graph(n)).value == _ceil_sqrt(n)
    grp = AbelianGroup((2,) * 4)
    gens = GeneratorSet({1 << i for i in range(4)})
    cert = dim_via_transitivity(grp, gens)
    ok &= cert.value == 2
    q4 = hypercube_graph(4)
    ok &= cert.inner.witness_min.bit_count() == 9
    ok &= max_degree_within(q4, cert.inner.witness_min) == 2
    # the full exhaustive solve is optional but cheap enough to cross-check
    ok &= dim_exact(q4).value == 2
    elapsed = time.perf_counter() - start
    _stamp("2 hypercube dimension", ok, elapsed)
    assert ok


def test_criterion_3_transitivity_shortcut_agrees():
    start = time.perf_counter()
    report = run_suite("prop1")
    cases = {inst["case"] for inst in report["instances"]}
    expected_cases = (
        {f"cayley:z:{n};gens=1,{n - 1}" for n in range(5, 9)}
        | {f"cayley:z:{n};gens=" + ",".join(str(s) for s in range(1, n)) for n in range(4, 8)}
        | {"cayley:z:2,2;gens=(1,0),(0,1)",
           "cayley:z:2,2,2;gens=(1,0,0),(0,1,0),(0,0,1)",
           "cayley:z:7;gens=1,2,5,6"}
    )
    ok = report["ok"] and cases == expected_cases
    elapsed = time.perf_counter() - start
    _stamp("3 dim via transitivity", ok and elapsed < 60, elapsed)
    assert ok
    assert elapsed < 60


def test_criterion_4_chromatic_bound_sweep():
    start = time.perf_counter()
    report = run_suite("theorem2", cap=6)
    counts = {}
    for inst in report["instances"]:
        n = ord(inst["case"][0]) - 63  # graph6 header byte is the size
        counts[n] = counts.get(n, 0) + 1
    ok = (report["ok"]
          and counts == {n: 1 << (n * (n - 1) // 2) for n in range(1, 7)})
    elapsed = time.perf_counter() - start
    _stamp("4 chromatic bound sweep n<=6", ok, elapsed)
    assert ok


def test_criterion_5_critical_subgraph_sweep():
    start = time.perf_counter()
    report = run_suite("lemma2", cap=6)
    ok = report["ok"] and report["checked"] == sum(1 << (n * (n - 1) // 2) for n in range(1, 7))
    elapsed = time.perf_counter() - start
    _stamp("5 critical subgraph sweep n<=6", ok, elapsed)
    assert ok


def test_criterion_6_counting_identity_and_coverage():
    start = time.perf_counter()
    report = run_suite("identity")
    trials = [i for i in report["instances"] if i["case"].startswith("z:")]
    coverage = [i for i in report["instances"] if i["case"].startswith("coverage")]
    ok = report["ok"] and len(trials) == 100 and len(coverage) == (1 << 8) - 1
    elapsed = time.perf_counter() - start
    _stamp("6 counting identity + coverage", ok and elapsed < 60, elapsed)
    assert ok
    assert elapsed < 60


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    report = run_suite("oracle")
    randoms = [i for i in report["instances"] if i["case"].startswith("random")]
    ok = report["ok"] and len(randoms) == 200
    ok &= all(inst["witness_match"] for inst in report["instances"])
    elapsed = time.perf_counter() - start
    _stamp("7 oracle equivalence", ok and elapsed < 60, elapsed)
    assert ok
    assert elapsed < 60


def test_criterion_8_embeddings_and_doubled_bound():
    start = time.perf_counter()
    ok = True
    graphs = []
    graphs += [path_graph(n) for n in range(4, 11)]
    graphs += [cycle_graph(n) for n in range(5, 11)]
    graphs += [complete_graph(n) for n in range(2, 11)]
    graphs += [complete_bipartite_graph(m, n) for m in range(1, 6) for n in range(m, 6)]
    graphs += [hypercube_graph(n) for n in (1, 2, 3, 4)]
    # deterministic sample of the exhaustive populations of criteria 4-5
    for n in range(1, 7):
        for i, g in enumerate(enumerate_labeled_graphs(n)):
            if i % 250 == 0:
                graphs.append(g)
    for g in graphs:
        chi, col = chromatic_number(g)
        emb = unit_distance_embed(g, col)
        report = verify_embedding(g, emb, tol=1e-9)
        ok &= report.ok and report.max_edge_error <= 1e-9
        ok &= emb.ambient_dim == 2 * chi
    # the doubled chromatic bound, exhaustively on the n<=6 sweep
    for n in range(1, 7):
        for _, _, chi, _, dim_value in _sweep_stats(n):
            ok &= 2 * chi <= 2 * (dim_value + 1) * max(1, (n - 1).bit_length())
    elapsed = time.perf_counter() - start
    _stamp("8 embeddings + doubled bound", ok and elapsed < 60, elapsed)
    assert ok
    assert elapsed < 60


# sha256 of the `graphdim verify all` stdout; refactors must leave it unchanged
VERIFY_ALL_SHA256 = "1eeac99398b4910524a74ee87110713a7f222641b9e2565246d3a630d36ef85a"


def test_criterion_9_byte_identical_reports():
    start = time.perf_counter()

    def run_verify_all():
        return subprocess.run(
            [sys.executable, "-m", "graphdim", "verify", "all"],
            capture_output=True, text=True, env=subprocess_env(),
        )

    first = run_verify_all()
    second = run_verify_all()
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    ok &= hashlib.sha256(first.stdout.encode()).hexdigest() == VERIFY_ALL_SHA256
    report = json.loads(first.stdout)
    ok &= report["ok"] is True
    elapsed = time.perf_counter() - start
    _stamp("9 byte-identical verify all", ok, elapsed)
    assert ok
