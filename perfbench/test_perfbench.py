"""Self-test of the benchmark at a tiny size.

Run:  python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from run import END_TO_END, GATED, ROOT, per_layer_specs

M = run.import_monalg()

from workloads import WORKLOADS, Certify, Loops, Pointwise  # noqa: E402


def _bench(*args) -> list[str]:
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()


def _printed(lines: list[str]) -> dict[str, str]:
    """name -> unit from the metric table lines."""
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and line.startswith("  ") and parts[0] != "note:":
            table[parts[0]] = parts[2]
    return table


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == {
        k: END_TO_END[k] for k in GATED}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer_specs()


def test_every_metric_is_printed_with_its_unit():
    lines = _bench("--workload", "pointwise", "--seed", "1", "--seconds", "0", "--trace", "0")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _printed(lines) == {k: unit for k, (unit, _) in END_TO_END.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: END_TO_END[k][0] for k in GATED}

    lines = _bench("--workload", "loops", "--seed", "1", "--seconds", "0", "--trace", "1")
    result = json.loads(lines[-1])
    assert result["correct"]
    layers = {k: unit for k, (unit, _) in per_layer_specs().items()}
    assert _printed(lines) == layers
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers
    assert result["metrics"]["monogenic.calls"]["value"] == 0


def _failed(wl, item, out) -> int:
    measured = run.Measured()
    measured.check(wl, [(item, out, None)])
    return measured.failed


def test_perturbed_pointwise_results_fail(tmp_path):
    wl = Pointwise(M, 5, tmp_path)
    for kind in Pointwise.CLOSED[:2] + ("polynomial", "rational"):
        item = next(i for i in wl.items if i["kind"] == kind)
        out = wl.run(item)
        assert _failed(wl, item, out) == 0
        out.coeffs[0] += 1e-6 * (1 + np.linalg.norm(out.coeffs))
        assert _failed(wl, item, out) == 1, kind


def test_perturbed_loop_results_fail(tmp_path):
    wl = Loops(M, 5, tmp_path)
    item = next(i for i in wl.items if i["oracle"] and i["nodes"] == 1024)
    res = wl.run(item)
    assert _failed(wl, item, res) == 0
    res.lambda_.coeffs[0] += 1e-4
    assert _failed(wl, item, res) == 1


def test_certify_counts_a_changed_report_as_failed(tmp_path):
    wl = Certify(M, 5, tmp_path)
    report = {"ok": True, "fixtures": {name: {
        "oracle": {"zeta_inverse_max_rel": 1e-15, "resolvent_max_rel": 1e-15,
                   "atilde_max_rel": 1e-15},
        "lambda": {"radius_agreement_rel": 1e-15},
        "cauchy_theorem": {"exp": 1e-12}, "cauchy_formula": {"exp": 1e-12},
        "morera": {"monogenic_zeta": 1e-15}} for name in M.list_fixtures()}}
    outputs = []
    for k, err in enumerate((1e-15, 1e-15, 2e-15)):
        report["fixtures"]["A5"]["oracle"]["atilde_max_rel"] = err
        path = tmp_path / f"r{k}.json"
        path.write_text(json.dumps(report))
        outputs.append((None, (0, path), None))
    measured = run.Measured()
    measured.check(wl, outputs)
    assert measured.failed == 1
    assert measured.digits == pytest.approx(np.log10(1e-10 / 2e-15))


@pytest.mark.parametrize("cls", [Loops, Pointwise])
def test_seed_decides_the_inputs(cls, tmp_path):
    def points(seed):
        wl = cls(M, seed, tmp_path)
        key = "curve" if cls is Loops else "p"
        return np.concatenate([np.ravel(getattr(i[key], "points", i[key])) for i in wl.items])

    assert np.array_equal(points(1), points(1))
    assert not np.array_equal(points(1), points(2))


def test_certify_seed_reaches_the_command(tmp_path):
    assert Certify(M, 1, tmp_path).argv != Certify(M, 2, tmp_path).argv
    assert "1" in Certify(M, 1, tmp_path).argv


def test_runner_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loops", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
