"""Command-line front end.

    graphdim compute <input> [--which subdim|dim|chi|all]
    graphdim verify <suite> [--cap N]
    graphdim embed <input> -o FILE

Reports go to stdout as a single line of JSON with sorted keys and sorted
vertex lists, so identical inputs produce byte-identical output; timing and
other diagnostics go to stderr.  Exit codes: 0 success, 1 a verification
suite found a violation, 2 parse or input error, 3 solver cap exceeded,
4 I/O error.  GRAPHDIM_CAP overrides the default solver cap of 16.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .coloring import _decompose, chromatic_number, is_proper
from .core import bits_of, encode_graph6, max_degree_within
from .dimension import _dim_search, dim_exact, subdim, subdim_naive
from .embedding import format_embedding, unit_distance_embed, verify_embedding
from .errors import CapExceeded, DomainError, ParseError
from .inputs import _load_within_cap
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_IO = 4


def _subdim_entry(g, cert) -> dict:
    replay = max_degree_within(g, cert.witness_min)
    return {
        "value": cert.value,
        "witness_min": bits_of(cert.witness_min),
        "host_size": cert.host_size,
        "replay": {"witness_max_degree": replay, "ok": replay == cert.value},
    }


def _dim_entry(g, cert) -> dict:
    entry = {"value": cert.value, "witness_max": bits_of(cert.witness_max)}
    if cert.inner is not None:
        inner_replay = max_degree_within(g, cert.inner.witness_min)
        # by the brute-force oracle, not the branch and bound that found it
        recomputed = subdim_naive(g, cert.witness_max).value
        entry["inner"] = {
            "value": cert.inner.value,
            "witness_min": bits_of(cert.inner.witness_min),
            "host_size": cert.inner.host_size,
        }
        entry["replay"] = {
            "witness_max_degree": inner_replay,
            "subdim_of_witness_max": recomputed,
            "ok": inner_replay == cert.value and recomputed == cert.value,
        }
    return entry


def _chi_entry(g, k, col) -> dict:
    proper = is_proper(g, col.colors)
    return {
        "value": k,
        "colors": list(col.colors),
        "replay": {"proper": proper,
                   "palette_size": col.palette_size,
                   "ok": proper and col.palette_size == k},
    }


def _decomposition_entry(g, col, rounds) -> dict:
    return {
        "palette_size": col.palette_size,
        "colors": list(col.colors),
        "rounds": [
            {"chunk": bits_of(r.chunk), "chunk_delta": r.chunk_delta,
             "palette_offset": r.palette_offset}
            for r in rounds
        ],
        "replay": {"proper": is_proper(g, col.colors)},
    }


def _embedding_entry(report) -> dict:
    return {"ambient_dim": report.ambient_dim, "ok": report.ok}


# each `compute --which` choice and the solver its cap refusal names
_WHICH = {"subdim": "subdim", "dim": "dim_exact", "chi": "chromatic_number", "all": "dim_exact"}


def cmd_compute(spec: str, which: str, cap: int | None = None) -> dict:
    if which not in _WHICH:
        raise DomainError(f"unknown --which {which!r}; choose one of {', '.join(_WHICH)}")
    g, descriptor = _load_within_cap(spec, cap, _WHICH[which])
    report = dict(descriptor)
    report["graph"] = {"n": g.n, "edges": g.edge_count(), "graph6": encode_graph6(g)}
    report["which"] = which
    results = {}
    # subdim of the full vertex set, computed once: the subdim entry, the
    # lower bound, the first dim host and the first decomposition round
    full = None
    if which == "subdim" or (which == "all" and g.n >= 1):
        full = subdim(g, g.vertex_mask)
        results["subdim"] = _subdim_entry(g, full)
    if which in ("dim", "all"):
        dim = dim_exact(g, cap=cap) if full is None else _dim_search(g, full)
        results["dim"] = _dim_entry(g, dim)
    if which in ("chi", "all"):
        k, col = chromatic_number(g, cap=cap)
        results["chi"] = _chi_entry(g, k, col)
    if which == "all":
        results["bounds"] = {"lower": 0 if full is None else full.value,
                             "upper": g.max_degree()}
        if full is not None:  # within the cap checked for dim
            results["decomposition"] = _decomposition_entry(g, *_decompose(g, full))
            emb = unit_distance_embed(g, col)
            results["embedding"] = _embedding_entry(verify_embedding(g, emb))
    report["results"] = results
    return report


def cmd_verify(suite: str, cap: int | None = None) -> tuple[dict, int]:
    report = run_suite(suite, cap)
    return report, EXIT_OK if report["ok"] else EXIT_VIOLATION


def cmd_embed(spec: str, out_path: str, cap: int | None = None) -> dict:
    g, descriptor = _load_within_cap(spec, cap, "chromatic_number")
    k, col = chromatic_number(g, cap=cap)
    emb = unit_distance_embed(g, col)
    report_obj = verify_embedding(g, emb)
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(format_embedding(emb, col))
    report = dict(descriptor)
    report["output"] = out_path
    report["graph"] = {"n": g.n, "edges": g.edge_count(), "graph6": encode_graph6(g)}
    report["embedding"] = dict(_embedding_entry(report_obj), palette_size=k)
    return report


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdim",
        description="Exact induced-subgraph degree invariant solver and verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute invariants of one graph")
    p_compute.add_argument("input", help="family spec (path:7, cycle:6, complete:5, "
                                         "kbip:3,4, cube:3, cayley:z:...;gens=...) or file path")
    p_compute.add_argument("--which", choices=tuple(_WHICH), default="all")
    p_compute.add_argument("--cap", type=int, default=None,
                           help="solver cap override (default: GRAPHDIM_CAP or 16)")

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("suite", choices=("all",) + SUITE_NAMES)
    p_verify.add_argument("--cap", type=int, default=None,
                          help="theorem2/lemma2/corollary1 sweep size, 1..6 (default 6); above 6 "
                               "exits 3, below 1 exits 2, before any sweep work; others ignore it")

    p_embed = sub.add_parser("embed", help="write a unit-distance embedding file")
    p_embed.add_argument("input")
    p_embed.add_argument("-o", "--output", required=True)
    p_embed.add_argument("--cap", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "compute":
            report = cmd_compute(args.input, args.which, cap=args.cap)
            code = EXIT_OK
        elif args.command == "verify":
            report, code = cmd_verify(args.suite, cap=args.cap)
        else:
            report = cmd_embed(args.input, args.output, cap=args.cap)
            code = EXIT_OK
    except (ParseError, DomainError) as exc:
        print(f"graphdim: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"graphdim: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"graphdim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    _emit(report)
    elapsed = time.perf_counter() - start
    print(f"graphdim: {args.command} finished in {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
