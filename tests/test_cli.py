import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from monalg import cli

from conftest import package_env


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "monalg", *args],
        capture_output=True, text=True, cwd=cwd, env=package_env(),
    )


def test_lambda_command(tmp_path):
    out = tmp_path / "lam.json"
    res = run_cli("lambda", "--fixture", "A5", "--frame", "harmonic",
                  "--radius", "1", "--nodes", "4096", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    lam = np.array([complex(re, im) for re, im in report["lambda"]])
    assert abs(lam[0] - 2j * np.pi) <= 1e-10
    assert report["is_2pi_i"] is True
    assert report["node_count"] == 4096


def test_lambda_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = run_cli("lambda", "--fixture", "J71", "--nodes", "1024",
                      "--out", str(out), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_classify_command(tmp_path):
    out = tmp_path / "cls.json"
    res = run_cli("classify", "--fixture", "J69", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["theorem8"] is True
    assert report["predicted_2pi_i"] is True


def test_validate_commands(tmp_path):
    out = tmp_path / "val.json"
    res = run_cli("validate", "--fixture", "A5", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["violations"] == []

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "n": 5, "m": 1, "u_map": [1, 1, 1, 1],
        "gamma": [[2, 3, 4, 1.0, 0.0], [3, 2, 4, 0.0, 0.0]],
        "name": "broken",
    }))
    res = run_cli("validate", "--algebra", str(broken), "--out", str(out), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert any("symmetry" in v for v in json.loads(out.read_text())["violations"])


def test_validate_rejects_a_non_finite_structure_constant(tmp_path):
    # Python's json reads NaN; the spec refuses it as bad input, naming it
    data = resources.files("monalg") / "fixtures_data" / "v1" / "algebras" / "A5.json"
    spec = json.loads(data.read_text())
    spec["gamma"][0][3] = float("nan")
    assert spec["gamma"][0][:3] == [2, 2, 3]
    algebra, out = tmp_path / "nan.json", tmp_path / "val.json"
    algebra.write_text(json.dumps(spec))
    res = run_cli("validate", "--algebra", str(algebra), "--out", str(out), cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.splitlines() == ["error: gamma(2,2,3) = (nan+0j) is not finite"]
    assert not out.exists()


def test_invert_command(tmp_path):
    out = tmp_path / "inv.json"
    res = run_cli("invert", "--fixture", "A5", "--frame", "harmonic",
                  "--point", "0.5,0.3,-0.4", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["relative_mismatch"] <= cli.CHECKS["relative_mismatch"].bound


def test_verify_cauchy_command(tmp_path):
    out = tmp_path / "vc.json"
    res = run_cli("verify-cauchy", "--fixture", "C2", "--nodes", "1024",
                  "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert all(v <= cli.CHECKS["cauchy_theorem"].bound for v in report["residuals"].values())


def test_verify_formula_command(tmp_path):
    out = tmp_path / "vf.json"
    res = run_cli("verify-formula", "--fixture", "A5", "--nodes", "1024",
                  "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert all(v <= cli.CHECKS["cauchy_formula"].bound for v in report["residuals"].values())


def test_bad_input_exit_codes(tmp_path):
    # argparse also exits with 2 on any usage error, so check the message too.
    res = run_cli("lambda", "--algebra", "does_not_exist.json", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "No such file or directory" in res.stderr
    res = run_cli("lambda", "--fixture", "A5", "--nodes", "8", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "node_count must be >= 64" in res.stderr
    res = run_cli("invert", "--fixture", "A5", "--point", "1,2", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "--point needs x,y,z" in res.stderr
    # every monalg error is bad input: here xi_1 = xi_2 everywhere, so the
    # representation's contours cannot separate them
    frame = tmp_path / "coinciding.json"
    frame.write_text(json.dumps({"algebra": "C2", "a": [[0.3, 1.0], [0.3, 1.0]],
                                 "b": [[-0.5, 0.4], [-0.5, 0.4]]}))
    for command in ("verify-cauchy", "verify-formula"):
        res = run_cli(command, "--fixture", "C2", "--frame", str(frame), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: field evaluation failed"), res.stderr
    # a report that cannot be written is bad input too, not a tolerance failure
    out = tmp_path / "no_such_dir" / "x.json"
    res = run_cli("validate", "--fixture", "C2", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "No such file or directory" in res.stderr
    assert res.stderr.count("\n") == 1, res.stderr


def test_verify_all_command(tmp_path):
    out = tmp_path / "all.json"
    res = run_cli("verify-all", "--nodes", "512", "--seed", "1", "--out", str(out),
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert sorted(report["fixtures"]) == [
        "A12_plus_A01sq", "A12_plus_A12", "A2_radical", "A3", "A5", "C2", "J69", "J71",
    ]
    for rec in report["fixtures"].values():
        assert rec["validation"] == []
        assert rec["prediction_sound"] is True


def test_verify_all_plane_loop_propagates_unexpected_errors(monkeypatch):
    # only EmbraceError and NonInvertibleError mean "this plane does not
    # embrace once"; any other error is a fault and must reach the caller
    real = cli.lambda_numeric

    def failing_off_xy(frame, curve, *args, **kwargs):
        if np.any(curve.points[:, 2] != 0.0):
            raise RuntimeError("lambda failed off the xy plane")
        return real(frame, curve, *args, **kwargs)

    monkeypatch.setattr(cli, "lambda_numeric", failing_off_xy)
    cfg = cli.RunConfig("verify-all", nodes=256)
    with pytest.raises(RuntimeError, match="off the xy plane"):
        cli._verify_one_fixture("A5", cfg, cli._Curves.build(cfg))


def test_formula_residuals_compute_lambda_once(monkeypatch):
    # the three monogenic functions share the curve, so they share its lambda
    from monalg import cauchy_formula_residuals, circle_curve, lambda_const, load_fixture

    frame = load_fixture("A5").default_frame
    calls = []
    real = lambda_const._loop_inverse

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lambda_const, "_loop_inverse", counting)
    p0 = np.array([0.31, 0.17, -0.23])
    curve = circle_curve(center=p0, radius=0.9, nodes=256)
    got = cauchy_formula_residuals(cli._standard_mspecs(frame.spec), frame, p0, curve)
    assert len(got) == 3
    assert len(calls) == 1


def test_cauchy_residuals_are_cauchy_theorem_residual():
    # each entry of a check of many functions is the check of that function
    # alone, bit for bit, with fields and MonogenicSpecs mixed
    from monalg import (cauchy_formula_residuals, cauchy_theorem_residuals, curvilinear_integral,
                        list_fixtures, load_fixture, norm_euclid, representation_field,
                        zeta_field)

    theorem, formula, p0 = cli._theorem_circle(256), cli._formula_circle(256), cli._FORMULA_P0
    for fixture in list_fixtures():
        frame = load_fixture(fixture).default_frame
        phis = {"zeta": zeta_field(frame), **cli._standard_mspecs(frame.spec)}
        got = cauchy_theorem_residuals(phis, frame, theorem)
        got_formula = cauchy_formula_residuals(phis, frame, p0, formula)
        assert list(got) == list(got_formula) == list(phis)
        for name, phi in phis.items():
            alone = {name: phi}
            assert got[name] == cauchy_theorem_residuals(alone, frame, theorem)[name], fixture
            want = cauchy_formula_residuals(alone, frame, p0, formula)[name]
            assert got_formula[name] == want, fixture
            if name != "zeta":  # and the representation's field, integrated alone
                field = representation_field(phi, frame, 512)
                assert got[name] == norm_euclid(curvilinear_integral(field, theorem, frame))


def _spy(monkeypatch, module, name: str, record) -> None:
    """Replace module.name, in every monalg module that binds it, by a wrapper
    that passes the call's arguments to record(args, kwargs) first."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        record(args, kwargs)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "monalg" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)


def test_verify_all_builds_each_curve_once(monkeypatch):
    # none of verify-all's curves depends on the fixture
    built = []
    _spy(monkeypatch, cli, "circle_curve", lambda args, kwargs: built.append((args, kwargs)))
    monkeypatch.setattr(cli, "CATALOG", cli.CATALOG[:3])
    cli._cmd_verify_all(cli.RunConfig("verify-all", nodes=256))
    assert len(built) == 9
    keys = [repr(args) for args in built]
    assert len(set(keys)) == len(keys)


def test_verify_all_shares_work_on_each_curve(monkeypatch):
    from monalg import integration, lambda_const, load_fixture, monogenic, resolvent
    from monalg.geometry import _zeta_coeffs

    cfg = cli.RunConfig("verify-all", nodes=256)
    curves = cli._Curves.build(cfg)
    zetas, inversions, inverses, constants = [], [], [], []
    # _rep_values is the only caller of monogenic's _zeta_coeffs
    real = monogenic._zeta_coeffs
    monkeypatch.setattr(monogenic, "_zeta_coeffs",
                        lambda frame, pts: zetas.append(pts) or real(frame, pts))
    _spy(monkeypatch, resolvent, "_inverse", lambda args, _: inversions.append(args[1]))
    _spy(monkeypatch, lambda_const, "_loop_inverse", lambda args, _: inverses.append(args[1]))
    _spy(monkeypatch, integration, "certified_lemma_constant",
         lambda args, _: constants.append(args))
    formula_loop = curves.formula.points - cli._FORMULA_P0

    def runs_on(seen, pts):
        return sum(np.array_equal(p, pts) for p in seen)

    for fixture in ("A5", "J71", "C2"):
        frame = load_fixture(fixture).default_frame
        for seen in (zetas, inversions, inverses, constants):
            seen.clear()
        assert cli._verify_one_fixture(fixture, cfg, curves)["ok"]
        # each point set's representations start from one zeta
        assert runs_on(zetas, curves.theorem.points) == 1, fixture
        assert runs_on(zetas, curves.formula.points) == 1, fixture
        assert runs_on(zetas, np.array([cli._FORMULA_P0])) == 1, fixture
        # the formula loop is inverted exactly once, its zeta's coefficients
        # passed to _inverse as one block
        assert runs_on(inversions, _zeta_coeffs(frame, formula_loop)) == 1, fixture
        assert runs_on(inverses, formula_loop) == 1, fixture
        assert len(constants) == 1, fixture


def test_verify_all_norms_each_lemma_curve_once(monkeypatch):
    # the Lemma-1 check shares each curve's steps and ||d zeta|| across its fields
    from monalg import integration

    cfg = cli.RunConfig("verify-all", nodes=256)
    curves = cli._Curves.build(cfg)
    norms = []
    _spy(monkeypatch, integration, "_zeta_tangent_norm", lambda args, _: norms.append(args[1]))
    for fixture in ("A5", "C2"):
        norms.clear()
        rec = cli._verify_one_fixture(fixture, cfg, curves)
        assert rec["ok"] and rec["lemma1"]["pairs"] == 12
        assert len(norms) == len(curves.lemma) == 3, fixture
        for curve in curves.lemma:
            steps = integration._node_steps(curve)
            assert sum(np.array_equal(d, steps) for d in norms) == 1, fixture


def test_batched_oracle_matches_point_by_point_solves():
    # verify-all computes its dense-solve references in two stacked solves;
    # a point-by-point loop over invert_direct and atilde_closed must report
    # the same maxima to rounding level
    from monalg import (atilde_closed, invert_direct, list_fixtures, load_fixture,
                        make_zeta, norm_euclid, resolvent_at, unit_element, zeta_inverse_closed)
    from monalg.geometry import random_safe_points

    for name in list_fixtures():
        frame = load_fixture(name).default_frame
        spec = frame.spec
        batched = np.random.default_rng(5)
        got = cli._oracle_record(frame, batched)
        rng = np.random.default_rng(5)
        pts = random_safe_points(frame, rng, 100)
        ts = [complex(rng.uniform(2.5, 4.0), rng.uniform(0.5, 1.5)) for _ in pts]
        assert batched.bit_generator.state == rng.bit_generator.state, name
        worst = dict.fromkeys(("zeta_inverse_max_rel", "resolvent_max_rel", "atilde_max_rel"), 0.0)
        for p, t in zip(pts, ts):
            direct = invert_direct(make_zeta(frame, p))
            closed = zeta_inverse_closed(frame, p)
            worst["zeta_inverse_max_rel"] = max(
                worst["zeta_inverse_max_rel"], norm_euclid(closed - direct) / norm_euclid(direct))
            oracle = invert_direct(t * unit_element(spec) - make_zeta(frame, p))
            res = resolvent_at(t, frame, p)
            worst["resolvent_max_rel"] = max(
                worst["resolvent_max_rel"], norm_euclid(res - oracle) / norm_euclid(oracle))
            at = atilde_closed(frame, p)
            if at:
                diff = np.array([at[k] - closed.coeff(k) for k in at])
                base = np.linalg.norm([closed.coeff(k) for k in at])
                worst["atilde_max_rel"] = max(worst["atilde_max_rel"],
                                              float(np.linalg.norm(diff)) / base)
        assert got["trials"] == 100
        for key, want in worst.items():
            assert abs(got[key] - want) <= 1e-15, (name, key, got[key], want)


def test_check_table_pins_every_bound():
    # loosening a bound the CLI asserts must show up as an edit of this test
    assert {key: tuple(check) for key, check in cli.CHECKS.items()} == {
        "validation": ("==", [], "verify-all"),
        "oracle.zeta_inverse_max_rel": ("<=", 1e-9, "verify-all"),
        "oracle.resolvent_max_rel": ("<=", 1e-9, "verify-all"),
        "oracle.atilde_max_rel": ("<=", 1e-10, "verify-all"),
        "lambda.radius_agreement_rel": ("<=", 1e-8, "verify-all"),
        "prediction_sound": ("==", True, "verify-all"),
        "cauchy_theorem": ("<=", 1e-7, "verify-all"),
        "cauchy_formula": ("<=", 1e-6, "verify-all"),
        "morera.monogenic_zeta": ("<=", 1e-8, "verify-all"),
        "morera.non_monogenic": (">=", 1e-2, "verify-all"),
        "lemma1.violations": ("==", 0, "verify-all"),
        "lemma1.slack": ("<=", 1e-12, None),
        "relative_mismatch": ("<=", 1e-9, "invert"),
        "product_residual": ("<=", 1e-9, "invert"),
    }


def test_verify_all_names_failing_rows(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.CHECKS, "morera.non_monogenic", cli.Check(">=", np.inf))
    out = tmp_path / "all.json"
    assert cli.main(["verify-all", "--nodes", "256", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["ok"] is False
    for name, rec in report["fixtures"].items():
        value = rec["morera"]["non_monogenic"]
        assert f"{name}: FAIL\n  morera.non_monogenic = {value}, bound >= inf\n" in stdout
    assert stdout.count("bound") == len(report["fixtures"])
    # a NaN fails its row
    rec = report["fixtures"]["A5"]
    rec["cauchy_theorem"]["exp"] = float("nan")
    assert "cauchy_theorem.exp = nan, bound <= 1e-07" in list(cli._failures(rec))


def test_residual_commands_load_frames_from_files(tmp_path, capsys):
    # the bundled A5 algebra and its default frame, written out as files
    data = resources.files("monalg") / "fixtures_data" / "v1"
    algebra, frame = tmp_path / "a.json", tmp_path / "f.json"
    algebra.write_text((data / "algebras" / "A5.json").read_text())
    frame.write_text(json.dumps(json.loads((data / "frames" / "A5.json").read_text())["default"]))
    out = tmp_path / "r.json"
    for command in ("verify-cauchy", "verify-formula"):
        assert cli.main([command, "--algebra", str(algebra), "--out", str(out)]) == 2
        assert f"{command} needs a frame" in capsys.readouterr().err
    residuals = []
    for source in (["--algebra", str(algebra), "--frame", str(frame)], ["--fixture", "A5"]):
        assert cli.main(["verify-cauchy", *source, "--nodes", "256", "--out", str(out)]) == 0
        residuals.append(json.loads(out.read_text())["residuals"])
    assert residuals[0] == residuals[1]


@pytest.mark.parametrize("args", [
    ["verify-all", "--nodes", "256"],
    ["classify", "--fixture", "A5"],
    ["validate", "--fixture", "A5"],
    ["verify-all", "--nodes", "256", "--fixture", "A5"],
    ["validate", "--fixture", "A5", "--nodes", "99999", "--point", "1,2,3"],
    ["lambda", "--fixture", "A5"],
    ["verify-all", "--nodes", "256", "--radius", "1.5"],
    ["invert", "--fixture", "A5"],
    ["verify-cauchy", "--fixture", "A5"],
    ["verify-formula", "--fixture", "A5"],
])
def test_commands_with_fixed_bounds_reject_tol(args, tmp_path, capsys):
    # every command checks the fixed bounds of CHECKS only: a --tol would be
    # ignored, so a user asking for a tighter bound must not be told that every
    # check passed.  Each case is a valid three-word call, then options its
    # command does not read either, which are rejected alike.
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--tol", "1e-30", "--out", str(out)])
    assert exc.value.code == 2
    unread = " ".join([*args[3:], "--tol", "1e-30"])
    assert f"unrecognized arguments: {unread}" in capsys.readouterr().err
    assert not out.exists()


def test_fixture_and_algebra_are_mutually_exclusive(tmp_path, capsys):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--fixture", "A5", "--algebra", str(tmp_path / "none.json"),
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["validate", "--fixture", "A5", "--out", str(out)]) == 0
