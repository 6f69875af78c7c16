"""Run the benchmark over several seeds and summarise each metric.

Usage:
    python3 perfbench/summarize.py --seeds 1-10 [--workloads certify,loops,pointwise]
        [--seconds 30] [--trace-seed 1] [--out summary.json]

For every workload it makes one ``--trace 0`` run per seed and reports, per
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and their spread as a share of the median; with ``--trace-seed`` it adds one
traced run's per-layer metrics.  The header records the machine and the
commit, so two summaries can be compared metric by metric.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def machine() -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = next((lib.get("version") for lib in
                 np.show_config(mode="dicts").get("Build Dependencies", {}).values()
                 if isinstance(lib, dict) and "openblas" in str(lib.get("name", ""))), None)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "openblas": blas, "git_sha": sha}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="certify,loops,pointwise")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {"machine": machine(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_one(workload, s, args.seconds, 0) for s in _seeds(args.seeds)]
        entry = {
            "seeds": _seeds(args.seeds),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {k: dict(unit=v["unit"], **summarise([r["metrics"][k]["value"]
                                                              for r in runs]))
                        for k, v in runs[0]["metrics"].items()},
        }
        if args.trace_seed is not None:
            traced = run_one(workload, args.trace_seed, args.seconds, 1)
            entry["traced_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        print(workload, {k: round(v["median"], 6) for k, v in entry["metrics"].items()},
              file=sys.stderr)
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
