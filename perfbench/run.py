"""monalg benchmark: one workload, one seed, one run.

Usage (from anywhere; the repository's ``src`` is put on ``sys.path``):

    python3 perfbench/run.py --workload {certify,loops,pointwise} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run times whole passes of the workload's ops for at
least S seconds in one closed loop (the next op starts when the previous one
returns) and reports the end-to-end metrics.  With ``--trace 1`` it makes
the same run, then a separate traced run on the same seed (set-up plus one
pass) that wraps monalg's public functions, and reports the per-layer
metrics.  Outputs are checked after timing, against references
that share no code with the checked result.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark starts no threads; ``verify-all``'s own thread pool and the
BLAS thread settings are left as the environment sets them and recorded.
Scratch files (reports, trace spans) go under ``.perfbench_out/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7

# name -> (unit, better); the first six are the gated end-to-end metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "cpu_s_per_op": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy_digits": ("digits", "higher"),
    "op_ms_p90": ("ms", "lower"),
    "fail_ratio": ("ratio", "lower"),
}
GATED = ("setup_s", "ops_per_s", "op_ms_p50", "cpu_s_per_op", "peak_rss_mb", "accuracy_digits")


def per_layer_specs() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every metric the traced run reports."""
    from tracer import LAYERS, WORK_COUNTS

    specs = {}
    for layer in LAYERS:
        specs.update({
            f"{layer}.calls": ("count", "lower"),
            f"{layer}.self_ms": ("ms", "lower"),
            f"{layer}.cpu_ms": ("ms", "lower"),
            f"{layer}.wait_ms": ("ms", "lower"),
            f"{layer}.errors": ("count", "lower"),
            f"{layer}.share": ("ratio", "lower"),
            f"{layer}.useful_ratio": ("ratio", "higher"),
        })
    for name in WORK_COUNTS + ("cli.threads",):
        specs[name] = ("count", "lower")
    specs["monogenic.ns_per_point_node"] = ("ns", "lower")
    specs["resolvent.us_per_point"] = ("us", "lower")
    specs["integration.ns_per_node"] = ("ns", "lower")
    specs["trace.ops_per_s"] = ("1/s", "higher")
    specs["trace.overhead_ops_per_s"] = ("1/s", "lower")
    return specs


def import_monalg():
    """Import monalg from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import monalg
        import monalg.cli  # noqa: F401  (the cli layer is traced too)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import monalg from {SRC}: {exc}")
    if Path(monalg.__file__).resolve().parent != SRC / "monalg":
        raise SystemExit(f"perfbench: monalg resolved to {monalg.__file__}, not under {SRC}")
    return monalg


def environment() -> dict:
    """Settings the benchmark leaves as it finds them, recorded per run (the
    size of verify-all's thread pool shows as cli.threads in a traced run)."""
    import numpy as np

    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "env": {k: os.environ.get(k) for k in keys}}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of the workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
    return elapsed


class Measured:
    """What a run of whole passes measured, and what its checks found."""

    def __init__(self):
        self.ops = 0
        self.lat_ns: list[list[int]] = []     # per pass, the latency of each input (item)
        self.cpu_ns: list[list[int]] = []     # per pass, the process CPU time of each input
        self.kernel_s: list[float] = []       # every reference kernel run between the ops
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.digits = math.inf
        self.problems: list[str] = []

    @property
    def scale(self) -> float:
        """Host time -> reference time (see calibrate.py)."""
        return calibrate.REFERENCE_S / statistics.fmean(self.kernel_s)

    @property
    def pass_rates(self) -> list[float]:
        """Ops per host second of each pass (kernel runs excluded)."""
        return [len(lat) / (sum(lat) / 1e9) for lat in self.lat_ns]

    def check(self, wl, outputs) -> None:
        """Check one pass's outputs; a failed check counts, it does not abort."""
        for item, out, exc in outputs:
            self.attempted += 1
            if exc is not None:
                self.failed += 1
                self.problems.append(f"{type(exc).__name__}: {exc}")
                continue
            checks = wl.check(item, out)
            self.digits = min(self.digits, checks.digits)
            if not checks.ok:
                self.failed += 1
                self.problems.extend(checks.problems)


def run_passes(wl, seconds: float, min_ops: int = 1,
               around_ops=contextlib.nullcontext) -> Measured:
    """Whole passes over wl.items until `seconds` have elapsed (and at least
    min_ops ops ran).  Each pass's ops run inside around_ops() and are timed,
    with runs of the reference kernel between them (see calibrate.py) that
    give the run its scale; then the pass's outputs are checked and dropped,
    so checks stay outside the timed (and traced) region and no output
    outlives its pass."""
    m = Measured()
    start = time.perf_counter()
    while m.ops < min_ops or time.perf_counter() - start < seconds:
        outputs, lat, cpu = [], [], []
        since = 0
        with around_ops():
            for item in wl.items:
                c = time.process_time_ns()
                a = time.perf_counter_ns()
                try:
                    out, exc = wl.run(item), None
                except Exception as err:  # a failing op is counted, not fatal
                    out, exc = None, err
                b = time.perf_counter_ns()
                cpu.append(time.process_time_ns() - c)
                lat.append(b - a)
                outputs.append((item, out, exc))
                since += b - a
                if since >= calibrate.INTERVAL_NS:
                    m.kernel_s += calibrate.runs(since)
                    since = 0
        if since:
            m.kernel_s += calibrate.runs(since)
        m.ops += len(outputs)
        m.wall += sum(lat) / 1e9
        m.lat_ns.append(lat)
        m.cpu_ns.append(cpu)
        m.check(wl, outputs)
    return m


def tail_percentile(sorted_ms: list[float], q: float):
    """The q-quantile when at least ten samples lie beyond it, else None."""
    n = len(sorted_ms)
    if n - math.ceil(q * n) < 10:
        return None
    return statistics.quantiles(sorted_ms, n=100, method="inclusive")[int(q * 100) - 1]


def emit(result: dict, table: list[tuple[str, object, str, str]]) -> None:
    for name, value, unit, note in table:
        shown = "null" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
        print(f"  {name:32s} {shown!s:>14} {unit:7s} {note}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "loops", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    M = import_monalg()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        with tempfile.TemporaryDirectory() as tmp:
            workload_cls(M, args.seed, Path(tmp))
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            return traced(M, workload_cls, args, workdir)
        return untraced(M, workload_cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced(M, workload_cls, args, workdir: Path) -> int:
    setup_ratios = [probe_setup(args.workload, args.seed) / calibrate.start_probe(ROOT)
                    for _ in range(SETUP_PROBES)]
    wl = workload_cls(M, args.seed, workdir)
    m = run_passes(wl, args.seconds, getattr(wl, "MIN_CHECKED_OPS", 1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops, passes, n = m.ops, len(m.lat_ns), len(wl.items)
    # Reference seconds of each pass, and each input's median reference latency.
    scale = m.scale
    pass_s = [sum(lat) / 1e9 * scale for lat in m.lat_ns]
    pass_cpu_s = [sum(cpu) / 1e9 * scale for cpu in m.cpu_ns]
    lat_ms = sorted(statistics.median(lat[i] for lat in m.lat_ns) / 1e6 * scale
                    for i in range(n))
    values = {
        "setup_s": statistics.median(setup_ratios) * calibrate.START_REFERENCE_S,
        "ops_per_s": n / statistics.median(pass_s),
        "op_ms_p50": statistics.median(lat_ms),
        "cpu_s_per_op": statistics.median(pass_cpu_s) / n,
        "peak_rss_mb": peak_rss_mb,
        "accuracy_digits": m.digits if math.isfinite(m.digits) else None,
        "op_ms_p90": tail_percentile(lat_ms, 0.9),
        "fail_ratio": m.failed / m.attempted,
    }
    samples = {"setup_s": (f"median of {SETUP_PROBES} fresh interpreters, each over a "
                           f"bare numpy start, x {calibrate.START_REFERENCE_S} s"),
               "ops_per_s": f"median of {passes} passes ({ops} ops in {m.wall:.2f} host s)",
               "op_ms_p50": f"over {n} inputs, each the median of its {passes} runs",
               "op_ms_p90": f"over {n} inputs, each the median of its {passes} runs",
               "cpu_s_per_op": f"median of {passes} passes, all threads",
               "peak_rss_mb": "this process",
               "accuracy_digits": f"min over {m.attempted} checked outputs",
               "fail_ratio": f"{m.failed}/{m.attempted}"}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"env={json.dumps(environment())}")
    print(f"host speed: reference kernel mean {statistics.fmean(m.kernel_s) * 1e3:.4f} ms "
          f"over {len(m.kernel_s)} runs (reference {calibrate.REFERENCE_S * 1e3:.4f} ms); "
          f"op times below are host times x {scale:.4f}")
    for p in m.problems[:10]:
        print(f"  check failed: {p}")
    table = [(k, values[k], END_TO_END[k][0], samples[k]) for k in END_TO_END]
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in GATED},
    }
    emit(result, table)
    return 0


def traced(M, workload_cls, args, workdir: Path) -> int:
    from tracer import ATTRIBUTION_NOTE, Tracer

    wl = workload_cls(M, args.seed, workdir)
    plain = run_passes(wl, args.seconds, getattr(wl, "MIN_CHECKED_OPS", 1))

    tracer = Tracer(M)
    with tracer:
        wl = workload_cls(M, args.seed, workdir)
    traced_run = run_passes(wl, 0.0, around_ops=lambda: tracer)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(trace_path)

    values = tracer.layer_metrics()
    values["trace.ops_per_s"] = max(traced_run.pass_rates)
    values["trace.overhead_ops_per_s"] = (max(plain.pass_rates)
                                          - values["trace.ops_per_s"])
    specs = per_layer_specs()
    print(f"perfbench {args.workload} seed={args.seed} traced: "
          f"{traced_run.ops} ops, {len(tracer.spans)} spans -> "
          f"{trace_path.relative_to(ROOT)}")
    print(f"  note: {ATTRIBUTION_NOTE}")
    for p in (plain.problems + traced_run.problems)[:10]:
        print(f"  check failed: {p}")
    failed = plain.failed + traced_run.failed
    result = {
        "correct": failed == 0,
        "attempted": plain.attempted + traced_run.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, (unit, _) in specs.items()},
    }
    emit(result, [(k, values[k], unit, "") for k, (unit, _) in specs.items()])
    return 0


if __name__ == "__main__":
    sys.exit(main())
