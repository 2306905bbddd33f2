"""Steadiness report: run every workload repeatedly, print the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py [--runs 10]
                                    [--workloads train-cli serve-http ...]

Each run is ``perfbench/run.py --trace 0`` with seeds 1..runs and the
``run_seconds`` of ``BENCHMARK.json``.  For each workload and end-to-end
metric the report gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as
a share of the median, next to the metric's bound; and the failed share
of operations per run.  The host facts head the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def host_facts() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:   # noqa: BLE001 - older numpy: no dict form
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=names,
                        choices=names + ["train-cli"],
                        help="default: the workloads BENCHMARK.json gates; "
                             "train-cli can be added by name")
    args = parser.parse_args(argv)

    facts = host_facts()
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"runs: {args.runs} per workload, seeds 1..{args.runs}, "
          f"{spec['run_seconds']} s each")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in range(1, args.runs + 1)]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: correct={correct} failed share(s)={shares} "
              f"attempted={[r['attempted'] for r in runs]}")
        print(f"  {'metric':<16s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            bound = bounds.get(name) if workload in names else None
            print(f"  {name:<16s} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:7.3f} {bound if bound else '-':>6}  "
                  f"{first['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
