"""Run every workload once, one after another, and print every metric.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

For each workload this prints the end-to-end metrics by name and unit,
the failed fraction with its counts, and whether every output passed its
independent check and the planted wrong certificates were all caught.
With --trace it then makes a traced run of each workload and prints the
per-layer metrics as well.  Exits 1 if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gen import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: run failed ({proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args(argv)
    all_correct = True
    for trace in (0, 1) if args.trace else (0,):
        for workload in WORKLOADS:
            prov, result = _run(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            st = prov["self_test"]
            print(f"{workload}  trace={trace}  seed={args.seed}  correct={result['correct']}  "
                  f"instances={prov['instances']}  passes={prov['passes']}  "
                  f"certified={prov['certified']}  planted={st['planted']} caught={st['caught']}  "
                  f"sha={prov['git_sha'] or prov['source_sha256'][:12]}  "
                  f"python={prov['python']}  nproc={prov['nproc']}")
            print(f"  {'failed_frac':40s} {prov['failed_frac']:<14.6g} "
                  f"({result['failed']} of {result['attempted']})")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:<14.6g} {m['unit']}")
            for line in prov["failures"]:
                print(f"  failure: {line}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
