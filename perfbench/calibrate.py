"""Reference work that measures how fast the host runs right now.

The benchmark's hosts are shared virtual machines whose speed changes by up
to 1.8x, in stretches from about a second to minutes: in a slow stretch an
op's wall time and its CPU time grow alike, so no estimator over the
program's own timings removes it.  The kernel below shares no code with
monalg (pure Python loops and small numpy solves and array ops, the mix
monalg's ops are made of).  ``run_passes`` runs it between the ops of a
pass, for about ``BUDGET`` of the op time before it, so over a run it meets
the host's slow and fast stretches in the same shares as the ops do; the
run's op times are multiplied by ``REFERENCE_S / mean kernel run``, so they
read as times on a host where the kernel takes ``REFERENCE_S``.  A change to
monalg cannot move the kernel.

Set-up time is scaled by a reference of its own kind instead: a fresh
interpreter that imports numpy and nothing of monalg, started right after
each set-up probe.  Starting interpreters slows less than the kernel does
in the host's slow stretches (in one comparison set-up slowed 1.1x where the
kernel's fastest run slowed 1.5x), so the kernel would over-correct set-up.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

INTERVAL_NS = 10_000_000  # least op time between kernel runs
BUDGET = 0.12  # kernel time as a share of the op time before it (one run ~ 1.2 ms)

# The reference speed: the one at which one kernel run takes 1 ms.  On the
# 2-vCPU Intel Xeon host of the baseline (Python 3.11, numpy 2.4, OpenBLAS
# 0.3.31) a run's mean kernel run took 1.2-2.4 ms.
REFERENCE_S = 1.0e-3

# The reference start: a fresh interpreter importing numpy takes 0.2 s.  On
# the same host it took 0.17-0.23 s.
START_REFERENCE_S = 0.2

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((12, 12)) + 1j * _rng.standard_normal((12, 12)) + 12 * np.eye(12)
_B = _rng.standard_normal(12) + 1j * _rng.standard_normal(12)
_V = np.exp(2j * np.pi * np.arange(2048) / 2048)


def kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for k in range(3000):
        table[k & 63] = table.get(k & 63, 0.0) + k * 0.5
    for _ in range(40):
        x = np.linalg.solve(_A, _B)
        acc += abs(x[0])
        acc += float(np.abs(_V * _V + 1.0).sum())
    return acc + table[7]


def runs(after_ns: int) -> list[float]:
    """Seconds of each kernel run made after `after_ns` of op time: at least
    one, and more until they add BUDGET of that time, so the kernel gets the
    same share of time after one 8 s op as between many 0.4 ms ones."""
    out = []
    start = time.perf_counter_ns()
    while not out or time.perf_counter_ns() - start < BUDGET * after_ns:
        t0 = time.perf_counter_ns()
        kernel()
        out.append((time.perf_counter_ns() - t0) / 1e9)
    return out


def start_probe(cwd) -> float:
    """Seconds a fresh interpreter takes to import numpy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True)
    return time.perf_counter() - t0
