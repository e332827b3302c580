"""graphdim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  The seed generates the inputs (gen.py); the
program receives only those inputs.  Each pass over the inputs runs in a
fresh single-threaded worker (worker.py), one pass at a time, with
GRAPHDIM_CAP set for the workload.  The first pass is checked by
independent routes (checks.py) and later passes must reproduce its outputs
digest for digest.

--trace 0 first starts SETUP_PROBES interpreters that only import graphdim,
then makes passes over the same inputs while they fit in --seconds (at
least one, at most MAX_PASSES).  The host is shared and its speed swings
by up to a factor of two for seconds to minutes, so every worker also
times a fixed reference kernel (reference.py) next to each call, and each
latency is scaled to the host speed at which that kernel takes NOMINAL_S.
Each instance's latency is the median of its scaled latencies over the
passes, and the end-to-end metrics of BENCHMARK.json are computed from
those medians; setup_s is the median of the scaled import times of every
worker.  Raw, unscaled times are on the provenance line.  --trace 1 makes
one plain pass and one traced pass over every instance and reports the
per-layer metrics, with times scaled the same way.

Stdout ends with a provenance line and then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits with a non-zero code, printing no result, when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gen import CAPS, WORKLOADS, generate  # noqa: E402
from reference import NOMINAL_S  # noqa: E402

MAX_PASSES = 60
SETUP_PROBES = 20        # extra interpreters that only import graphdim
RUN_DEADLINE_S = 170.0   # every worker must finish inside this budget


class BenchError(RuntimeError):
    """The run cannot produce a result (no program, or a worker died)."""


def _spawn(job: dict, workdir: str, tag: str, env: dict, deadline: float) -> dict:
    job_path = os.path.join(workdir, f"job-{tag}.json")
    out_path = os.path.join(workdir, f"out-{tag}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), job_path, out_path]
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("run deadline reached before the next worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not os.path.abspath(result["graphdim_file"]).startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"worker imported graphdim from {result['graphdim_file']}")
    return result


def _percentiles(workload: str, latencies: list[float], suite_checked: dict) -> tuple[float, float]:
    """p50 and p90, each the mean of the nine ranked latencies centred on the
    nearest rank, which damps the noise of any single instance."""
    if workload == "verify-all":
        # One run_suite call certifies a whole suite, so each instance record
        # gets its suite's time divided by the suite's instance count.
        weighted = sorted((latencies[i] / count, count)
                          for i, count in enumerate(suite_checked.values()) if count)
    else:
        weighted = sorted((lat, 1) for lat in latencies)
    total = sum(count for _, count in weighted)

    def at_rank(rank: int) -> float:
        seen = 0
        for value, count in weighted:
            seen += count
            if seen >= rank:
                return value
        return weighted[-1][0]

    out = []
    for q in (0.5, 0.9):
        centre = max(1, math.ceil(q * total))
        ranks = range(max(1, centre - 4), min(total, centre + 4) + 1)
        out.append(statistics.fmean(at_rank(k) for k in ranks))
    return out[0], out[1]


def _instance_count(workload: str, first: dict) -> int:
    if workload == "verify-all":
        return sum(first["suite_checked"].values()) or 1
    return len(first["latencies"])


REF_WINDOW = 4  # reference timings on each side of a call that scale it


def _scaled(p: dict) -> list[float]:
    """The pass's latencies at nominal host speed: each one times NOMINAL_S
    over the median of the reference timings around it (reference.py)."""
    refs = p["refs"]
    return [lat * NOMINAL_S / statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
            for i, lat in enumerate(p["latencies"])]


def _end_to_end(workload: str, plain: list[dict], setups: list[float]) -> dict:
    typical = [statistics.median(col) for col in zip(*map(_scaled, plain))]
    wall = sum(typical)
    p50, p90 = _percentiles(workload, typical, plain[0].get("suite_checked", {}))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "instances_per_s": _instance_count(workload, plain[0]) / wall,
        "instance_p50_s": p50,
        "instance_p90_s": p90,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
    }


def _per_layer(names: list[str], plain: dict, traced: dict) -> dict:
    stats = traced["trace"]
    speed = NOMINAL_S / statistics.median(traced["refs"])  # self times at nominal speed
    values = {}
    for name in names:
        head, _, stat = name.rpartition(".")
        rec = stats.get(head, {"calls": 0, "self_s": 0.0, "none": 0})
        if name == "trace.overhead_frac":
            values[name] = sum(_scaled(traced)) / sum(_scaled(plain)) - 1.0
        elif head.startswith("verify.") and stat == "s":
            suites = dict(zip(plain.get("suite_checked", {}), _scaled(plain)))
            values[name] = suites.get(head[len("verify."):], 0.0)
        elif stat == "calls":
            values[name] = rec["calls"]
        elif stat == "self_s":
            values[name] = rec["self_s"] * speed
        elif stat == "refuted":
            values[name] = rec["none"]
        elif stat == "refuted_frac":
            values[name] = rec["none"] / rec["calls"] if rec["calls"] else 0.0
        else:
            raise BenchError(f"per-layer metric {name!r} has no source")
    return values


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="ascii") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(loose):
        with open(loose, encoding="ascii") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "graphdim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "graphdim", "__init__.py")):
        raise BenchError(f"no graphdim sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"perfbench-{workload}-", dir=build)
    try:
        instances = generate(workload, seed, workdir)
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(instances, fh)
        env = dict(os.environ, GRAPHDIM_CAP=str(CAPS[workload]), OMP_NUM_THREADS="1")
        base = {"workload": workload, "seed": seed, "manifest": manifest}

        measuring = time.perf_counter()
        probes = [_spawn(dict(base, mode="setup"), workdir, f"setup{i}", env, deadline)
                  for i in range(0 if trace else SETUP_PROBES)]
        setups = [p["setup_s"] * NOMINAL_S / p["setup_ref_s"] for p in probes]
        plan = [False, True] if trace else [False]
        passes, spans = [], []
        while len(passes) < len(plan):
            job = dict(base, mode="pass", trace=plan[len(passes)], check=not passes)
            t0 = time.perf_counter()
            passes.append(_spawn(job, workdir, f"pass{len(passes)}", env, deadline))
            now = time.perf_counter()
            # the first pass also checks its outputs, which the estimate of
            # how long the next pass takes leaves out
            spans.append(now - t0 - passes[-1].get("check_s", 0.0))
            setups.append(passes[-1]["setup_s"] * NOMINAL_S / passes[-1]["setup_ref_s"])
            typical = statistics.median(spans)
            if (not trace and len(passes) < MAX_PASSES
                    and now - measuring + typical <= seconds):
                plan.append(False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = passes[0]
    failed = first["failed"]
    failures = list(first["failures"])
    for n, p in enumerate(passes[1:], start=1):
        failed += len(p["errors"])
        for i, (ref, digest) in enumerate(zip(first["digests"], p["digests"])):
            if digest is not None and digest != ref:
                failed += 1
                failures.append(f"pass {n}: output of instance {i} differs from pass 0")
    attempted = sum(_instance_count(workload, p) for p in passes)
    self_test = first["self_test"]
    correct = (failed == 0 and first["certified"] > 0 and self_test["planted"] > 0
               and self_test["caught"] == self_test["planted"])

    plain = [p for p, traced in zip(passes, plan) if not traced]
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = _per_layer(names, plain[0], passes[1])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = _end_to_end(workload, plain, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"no measurement for end-to-end metrics {sorted(missing)}")
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "graphdim_cap": CAPS[workload],
        "passes": len(passes), "instances": _instance_count(workload, first),
        "certified": first["certified"], "failed_frac": failed / attempted,
        "check_s": first["check_s"],
        "self_test": self_test, "failures": failures[:20],
        "run_s": time.perf_counter() - started,
        "raw_pass_wall_s": [p["wall_s"] for p in passes],
        "raw_setup_s": statistics.median(p["setup_s"] for p in probes + passes),
        "reference_s": statistics.median(r for p in passes for r in p["refs"]),
    }
    if workload == "verify-all":
        provenance["verify_report_sha256"] = first["report_digest"]
        provenance["raw_suite_s"] = {name: statistics.median(p["latencies"][i] for p in passes)
                                     for i, name in enumerate(first["suite_checked"])}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    return provenance, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        provenance, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in provenance["failures"]:
        print(f"perfbench: failure: {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
