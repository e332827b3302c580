"""One pass of one workload, in a fresh single-threaded interpreter.

    python3 -I perfbench/worker.py JOB.json OUT.json

run.py starts one worker per pass or set-up probe, one at a time.  The
worker imports graphdim first and times that import, which is the set-up,
followed by a few reference timings (reference.py); a set-up probe stops
there.  A pass then reads the seeded inputs, runs the timed phase
(optionally traced) with a reference timing after every call, and
afterwards checks the outputs by independent routes.  The result goes to
OUT.json.
"""

import time

START = time.perf_counter()  # set-up is timed from here

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import graphdim  # noqa: E402
import graphdim.cli  # noqa: E402

READY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

from graphdim import cayley, core, dimension  # noqa: E402


TRIPLE_SAMPLE = 300  # theorem2 triples rechecked by brute force per run
SETUP_REFS = 5       # reference timings that scale the set-up


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()


# ---------------------------------------------------------------------------
# per-workload preparation (untimed), call (timed) and compact output
# ---------------------------------------------------------------------------

def _prepare(inst: dict):
    kind = inst["kind"]
    if kind in ("host", "ingest"):
        return core.Graph.from_edges(inst["n"], inst["edges"])
    if kind == "cayley":
        grp = cayley.AbelianGroup(tuple(inst["orders"]))
        return grp, cayley.GeneratorSet(grp.encode(g) for g in inst["gens"])
    if kind == "suite":
        return inst["name"], inst["cap"]
    return inst["spec"]


def _call(workload: str, inst: dict, arg):
    """The timed call into the program, through module attributes so that a
    traced run sees the rebound wrappers."""
    kind = inst["kind"]
    if workload == "compute-mixed":
        return graphdim.cli.cmd_compute(arg, "all")
    if workload == "verify-all":
        return graphdim.verify.run_suite(*arg)
    if kind == "host":
        cert = graphdim.dimension.subdim(arg, arg.vertex_mask)
        return {"value": cert.value, "witness": cert.witness_min, "host_size": cert.host_size}
    if kind == "cayley":
        cert = graphdim.cayley.dim_via_transitivity(*arg)
        return {"value": cert.value, "witness": cert.inner.witness_min,
                "host_size": cert.inner.host_size, "witness_max": cert.witness_max}
    g = arg
    text6 = graphdim.core.encode_graph6(g)
    text_edges = graphdim.core.format_edge_list(g)
    from6 = graphdim.core.parse_graph6(text6)
    from_edges = graphdim.core.parse_edge_list(text_edges)
    col = graphdim.coloring.greedy_coloring(from6, range(from6.n))
    emb = graphdim.embedding.unit_distance_embed(from6, col)
    rep = graphdim.embedding.verify_embedding(from6, emb)
    sample_edges, sample_pairs = inst["samples"]
    used = {v for pair in sample_edges + sample_pairs for v in pair}
    return {"graph6": text6, "edge_list_digest": hashlib.sha256(text_edges.encode()).hexdigest(),
            "adj_from_graph6": from6.adj, "adj_from_edges": from_edges.adj,
            "colors": col.colors, "palette": col.palette_size,
            "ambient_dim": emb.ambient_dim, "report_dim": rep.ambient_dim, "report_ok": rep.ok,
            "points": {v: emb.points[v] for v in used},
            "sample_edges": sample_edges, "sample_pairs": sample_pairs}


# ---------------------------------------------------------------------------
# checks (untimed, untraced)
# ---------------------------------------------------------------------------

def _adjacency_of(inst: dict, out) -> list[int]:
    if inst["kind"] == "cayley":
        return checks.cayley_adjacency(inst["orders"], inst["gens"])
    if inst["kind"] == "family":
        return checks.decode_graph6(out["graph"]["graph6"])[1]
    return checks.adjacency(inst["n"], inst["edges"])


def _check_one(workload: str, inst: dict, out, triples_rng) -> tuple[list[str], int]:
    """Failure messages for one output, and how many instances it certified."""
    if workload == "verify-all":
        bad = checks.check_suite(inst["name"], out, inst["cap"])
        if inst["name"] == "theorem2":
            rows = out["instances"]
            for i in triples_rng.sample(range(len(rows)), min(TRIPLE_SAMPLE, len(rows))):
                bad += checks.check_triple(rows[i]["case"], rows[i]["chi"], rows[i]["dim"])
        return bad, out["checked"]
    adj = _adjacency_of(inst, out)
    graph = core.Graph(len(adj), tuple(adj))
    if workload == "compute-mixed":
        return checks.check_compute(inst, out, adj, graph, core.max_degree_within,
                                    dimension.subdim_naive), 1
    if workload == "subdim-dense":
        return checks.check_subdim(inst, out, adj, graph, core.max_degree_within,
                                   dimension.subdim_naive), 1
    return checks.check_ingest(inst, out, adj), 1


def _self_test(workload: str, passing) -> dict:
    """Plant wrong certificates into outputs that passed; each must be caught."""
    planted = caught = 0
    missed = []
    for inst, out in passing:
        if workload == "verify-all":
            if inst["name"] != "theorem2":
                continue
            row = next(r for r in out["instances"] if r["dim"] > 0)
            for label, wrong in checks.plant_triples((row["case"], row["chi"], row["dim"])):
                planted += 1
                if checks.check_triple(*wrong):
                    caught += 1
                else:
                    missed.append(label)
            break
        adj = _adjacency_of(inst, out)
        if not any(adj):
            continue
        graph = core.Graph(len(adj), tuple(adj))
        if workload == "compute-mixed":
            cases = checks.plant_compute(out, adj)
            run = lambda r: checks.check_compute(inst, r, adj, graph, core.max_degree_within,  # noqa: E731
                                                 dimension.subdim_naive)
        elif workload == "subdim-dense":
            cases = checks.plant_subdim(out, adj)
            run = lambda r: checks.check_subdim(inst, r, adj, graph, core.max_degree_within,  # noqa: E731
                                                dimension.subdim_naive)
        else:
            cases = checks.plant_ingest(out, adj)
            run = lambda r: checks.check_ingest(inst, r, adj)  # noqa: E731
        for label, wrong in cases:
            planted += 1
            if run(wrong):
                caught += 1
            else:
                missed.append(label)
        break
    return {"planted": planted, "caught": caught, "missed": missed}


# ---------------------------------------------------------------------------

def _digest_output(workload: str, out) -> str:
    if workload == "ingest-embed":
        out = {k: v for k, v in out.items() if k not in ("adj_from_graph6", "adj_from_edges")}
    return _digest(out)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    # the set-up is scaled by reference timings taken right after it; the
    # first kernel call of a fresh interpreter runs cold and is left out
    setup_refs = [reference.timed() for _ in range(SETUP_REFS + 1)][1:]
    result = {"setup_s": READY - START, "setup_ref_s": sorted(setup_refs)[len(setup_refs) // 2],
              "graphdim_file": graphdim.__file__}
    if job["mode"] == "setup":
        _write(sys.argv[2], result)
        return 0
    workload = job["workload"]
    with open(job["manifest"], encoding="utf-8") as fh:
        instances = json.load(fh)
    if workload == "ingest-embed":
        for i, inst in enumerate(instances):
            adj = checks.adjacency(inst["n"], inst["edges"])
            inst["samples"] = checks.embed_samples(inst["n"], adj, f"{job['seed']}/{i}")
    args = [_prepare(inst) for inst in instances]

    tracer = Tracer() if job["trace"] else None
    outputs, latencies, errors = [], [], []
    # refs[i] and refs[i + 1] are the reference kernel's times right before
    # and right after instance i, to scale its latency by (see reference.py)
    refs = [reference.timed()]
    if tracer:
        tracer.install()
    for inst, arg in zip(instances, args):
        t0 = time.perf_counter()
        try:
            out = _call(workload, inst, arg)
        except Exception as exc:  # CapExceeded, DomainError, ParseError or a crash
            out = None
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        refs.append(reference.timed())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    result.update(wall_s=sum(latencies), latencies=latencies, refs=refs,
                  peak_rss_mb=peak_kb / 1024.0, errors=errors,
                  digests=[None if o is None else _digest_output(workload, o) for o in outputs])
    if workload == "verify-all":
        result["suite_checked"] = {inst["name"]: (o or {}).get("checked", 0)
                                   for inst, o in zip(instances, outputs)}
        result["report_digest"] = _digest(outputs)
    if tracer:
        result["trace"] = tracer.snapshot()
    if job["check"]:
        check_start = time.perf_counter()
        failures = list(errors)
        failed = len(errors)
        certified = 0
        passing = []
        triples_rng = random.Random(f"triples/{job['seed']}")
        for inst, out in zip(instances, outputs):
            if out is None:
                continue
            bad, count = _check_one(workload, inst, out, triples_rng)
            failures += bad
            if workload == "verify-all":
                failed += len(bad)
                certified += max(0, count - len(bad))
            else:
                failed += bool(bad)
                certified += not bad
            if not bad:
                passing.append((inst, out))
        result.update(failures=failures, failed=failed, certified=certified,
                      self_test=_self_test(workload, passing),
                      check_s=time.perf_counter() - check_start)
    _write(sys.argv[2], result)
    return 0


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
