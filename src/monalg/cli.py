"""Batch verification driver.

Subcommands: validate, invert, lambda, classify, verify-cauchy,
verify-formula, verify-all.  A machine-readable JSON report is always
written; a short human summary goes to stdout.  Exit codes: 0 all asserted
tolerances met, 1 tolerance failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import warnings
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    AlgElement,
    NonInvertibleError,
    _invert_direct_batch,
    algebra_from_json,
    check_propositions,
    invert_direct,
    multiply,
    norm_euclid,
    unit_element,
    validate_algebra,
)
from .fixtures import CATALOG, load_fixture
from .geometry import E3Frame, _zeta_coeffs, frame_from_json, make_zeta, random_safe_points
from .integration import (
    Curve3,
    circle_curve,
    constant_field,
    curvilinear_integral,
    norm_inequality_checks,
    triangle_curve,
    zeta_field,
    zeta_power_field,
)
from .lambda_const import (
    EmbraceError,
    ExactnessReport,
    LambdaResult,
    _atilde_batch,
    cauchy_formula_residuals,
    cauchy_theorem_residuals,
    exactness_conditions,
    lambda_numeric,
)
from .monogenic import HoloFunction, MonogenicSpec
from .resolvent import _resolvent_batch, _zeta_inverse_batch, zeta_inverse_closed


class Check(NamedTuple):
    """A bound on one report value: it holds when `value op bound`, and a dict
    of values holds when each of its values does, so a NaN never holds."""

    op: str  # "<=", ">=" or "=="
    bound: float | bool | list
    command: str | None = "verify-all"  # whose report holds the value


# Every bound the CLI asserts, named by the report value it bounds.  The
# verify-all rows are checked on each fixture's record; verify-cauchy,
# verify-formula and invert check their values against their rows.
CHECKS = {
    "validation": Check("==", []),
    "oracle.zeta_inverse_max_rel": Check("<=", 1e-9),
    "oracle.resolvent_max_rel": Check("<=", 1e-9),
    "oracle.atilde_max_rel": Check("<=", 1e-10),
    "lambda.radius_agreement_rel": Check("<=", 1e-8),
    "prediction_sound": Check("==", True),
    "cauchy_theorem": Check("<=", 1e-7),
    "cauchy_formula": Check("<=", 1e-6),
    "morera.monogenic_zeta": Check("<=", 1e-8),
    "morera.non_monogenic": Check(">=", 1e-2),
    "lemma1.violations": Check("==", 0),
    # no report holds it: a Lemma-1 pair violates when lhs > rhs * (1 + slack)
    "lemma1.slack": Check("<=", 1e-12, None),
    "relative_mismatch": Check("<=", 1e-9, "invert"),
    "product_residual": Check("<=", 1e-9, "invert"),  # times 1 + |linear_solve|
}

_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def _failures(rec: dict):
    """Yield one line per value of a verify-all fixture record that misses its row of CHECKS."""
    for key, check in CHECKS.items():
        if check.command != "verify-all":
            continue
        value = reduce(dict.__getitem__, key.split("."), rec)
        values = ({f"{key}.{k}": v for k, v in value.items()} if isinstance(value, dict)
                  else {key: value})
        for name, v in values.items():
            if not _OPS[check.op](v, check.bound):
                yield f"{name} = {v}, bound {check.op} {check.bound}"


@dataclass
class RunConfig:
    command: str
    fixture: str | None = None
    algebra_path: str | None = None
    frame: str | None = None
    point: tuple[float, float, float] = (0.3, 0.4, 0.5)
    nodes: int = 4096
    radius: float = 1.0
    plane: str = "xy"
    seed: int = 0
    out: str = "monalg_report.json"

    def __post_init__(self):
        if self.nodes < 64:
            raise ValueError("node_count must be >= 64")


def _c2pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _elem_json(a: AlgElement) -> list[list[float]]:
    return [_c2pair(v) for v in a.coeffs]


def _load_inputs(cfg: RunConfig) -> tuple[AlgebraSpec, E3Frame | None]:
    if cfg.fixture:
        bundle = load_fixture(cfg.fixture)
        spec, frames = bundle.algebra, bundle.frames
    elif cfg.algebra_path:
        spec, frames = algebra_from_json(json.loads(Path(cfg.algebra_path).read_text())), {}
    else:
        raise ValueError("need --fixture or --algebra")
    if not cfg.frame:
        return spec, frames.get("default")
    if cfg.frame in frames:
        return spec, frames[cfg.frame]
    return spec, frame_from_json(json.loads(Path(cfg.frame).read_text()), spec)


def _load_frame(cfg: RunConfig) -> E3Frame:
    _, frame = _load_inputs(cfg)
    if frame is None:
        raise ValueError(f"{cfg.command} needs a frame")
    return frame


def _standard_mspecs(spec: AlgebraSpec) -> dict[str, MonogenicSpec]:
    m = spec.m
    return {
        "identity": MonogenicSpec(F=tuple(HoloFunction("polynomial", (0, 1)) for _ in range(m))),
        "square": MonogenicSpec(F=tuple(HoloFunction("polynomial", (0, 0, 1)) for _ in range(m))),
        "exp": MonogenicSpec(F=tuple(HoloFunction.exp_series(14) for _ in range(m))),
    }


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (report fields, ok flag), and main
# adds the command's name and the flag to the report
# ---------------------------------------------------------------------------

def _cmd_validate(cfg: RunConfig):
    spec, _ = _load_inputs(cfg)
    report = validate_algebra(spec)
    props = check_propositions(spec)
    return {
        "algebra": spec.name,
        "violations": report.violations,
        "prop1_applies": props.prop1_applies,
        "prop2_applies": props.prop2_applies,
        "prop2_contradictions": props.prop2_contradictions,
    }, report.ok


def _cmd_invert(cfg: RunConfig):
    frame = _load_frame(cfg)
    spec = frame.spec
    tol = CHECKS["relative_mismatch"].bound
    z = make_zeta(frame, cfg.point)
    direct = invert_direct(z)
    closed = zeta_inverse_closed(frame, cfg.point)
    # both norms of 2^-e times the vectors, e the solve's largest exponent: exact, no underflow
    s = 2.0 ** -int(np.frexp(np.max(np.abs(direct.coeffs)))[1])
    mismatch = norm_euclid((closed - direct) * s) / norm_euclid(direct * s)
    prod_res = norm_euclid(multiply(z, closed) - unit_element(spec))
    ok = (mismatch <= tol
          and prod_res <= CHECKS["product_residual"].bound * (1 + norm_euclid(direct)))
    return {
        "algebra": spec.name,
        "point": list(cfg.point),
        "closed_form": _elem_json(closed),
        "linear_solve": _elem_json(direct),
        "relative_mismatch": mismatch,
        "product_residual": prod_res,
        "tol": tol,
    }, ok


def _lambda_record(res: LambdaResult, plane: str) -> dict:
    return {
        "lambda": _elem_json(res.lambda_),
        "sigma_integrals": {str(k): _c2pair(v) for k, v in res.sigma_integrals.items()},
        "radius": res.radius,
        "node_count": res.node_count,
        "is_2pi_i": res.is_2pi_i,
        "tol": res.tol,
        "winding": {str(u): w for u, w in res.winding.items()},
        "plane": plane,
    }


def _cmd_lambda(cfg: RunConfig):
    frame = _load_frame(cfg)
    curve = circle_curve(radius=cfg.radius, nodes=cfg.nodes, plane=cfg.plane)
    rec = _lambda_record(lambda_numeric(frame, curve), cfg.plane)
    rec["algebra"] = frame.spec.name
    return rec, True  # lambda has no asserted tolerance on its own


def _exactness_record(rep: ExactnessReport) -> dict:
    return {
        "theorem5": rep.theorem5,
        "theorem6": rep.theorem6,
        "theorem7": rep.theorem7,
        "theorem8": rep.theorem8,
        "theorem8_violations": [[name, _c2pair(v)] for name, v in rep.theorem8_violations],
        "theorem9": rep.theorem9,
        "theorem10": rep.theorem10,
        "predicted_2pi_i": rep.predicted_2pi_i,
    }


def _cmd_classify(cfg: RunConfig):
    frame = _load_frame(cfg)
    rep = exactness_conditions(frame)
    return {
        "algebra": frame.spec.name,
        **_exactness_record(rep),
        "theorem10_condition1": rep.theorem10_condition1,
        "theorem10_condition2": rep.theorem10_condition2,
    }, True


# The checks of Cauchy's theorem and formula run on these curves.  The
# formula is evaluated at _FORMULA_P0, the centre of its circle.
_FORMULA_P0 = (0.31, 0.17, -0.23)


def _theorem_circle(nodes: int) -> Curve3:
    return circle_curve(center=(0.05, -0.04, 0.03), radius=0.8, nodes=nodes)


def _formula_circle(nodes: int) -> Curve3:
    return circle_curve(center=_FORMULA_P0, radius=0.9, nodes=nodes)


def _residuals_report(cfg: RunConfig, key: str, residuals, *where) -> tuple[dict, bool]:
    """The report of a command that checks the residuals of the standard
    functions, residuals(functions, frame, *where), against the bound of
    CHECKS[key]."""
    frame = _load_frame(cfg)
    tol = CHECKS[key].bound
    res = residuals(_standard_mspecs(frame.spec), frame, *where)
    ok = all(v <= tol for v in res.values())
    return {
        "algebra": frame.spec.name,
        "residuals": res,
        "tol": tol,
        "node_count": cfg.nodes,
    }, ok


def _cmd_verify_cauchy(cfg: RunConfig):
    return _residuals_report(cfg, "cauchy_theorem", cauchy_theorem_residuals,
                             _theorem_circle(cfg.nodes))


def _cmd_verify_formula(cfg: RunConfig):
    return _residuals_report(cfg, "cauchy_formula", cauchy_formula_residuals,
                             _FORMULA_P0, _formula_circle(cfg.nodes))


def _max_rel(rows: np.ndarray, refs: np.ndarray) -> float:
    """Largest relative Euclidean distance of a row from its reference row (0 for no columns)."""
    dist = np.linalg.norm(rows - refs, axis=1)
    return float(np.max(dist / np.maximum(1e-300, np.linalg.norm(refs, axis=1))))


def _oracle_record(frame: E3Frame, rng: np.random.Generator) -> dict:
    """Closed forms against the dense-solve oracle on 100 seeded random points, all batched."""
    spec = frame.spec
    pts = random_safe_points(frame, rng, 100)
    ts = rng.uniform([2.5, 0.5], [4.0, 1.5], size=(len(pts), 2)).view(complex).ravel()
    zc = _zeta_coeffs(frame, pts)
    shifted = ts[:, None] * spec.unit_coeffs - zc
    closed = _zeta_inverse_batch(frame, pts)
    at = _atilde_batch(spec, zc)
    return {
        "zeta_inverse_max_rel": _max_rel(closed, _invert_direct_batch(spec, zc)),
        "resolvent_max_rel": _max_rel(_resolvent_batch(frame, pts, ts),
                                      _invert_direct_batch(spec, shifted)),
        "atilde_max_rel": _max_rel(at, closed[:, spec.m: spec.m + at.shape[1]]),
        "trials": len(pts),
    }


_TRIANGLE = ((0.2, 0.1, 0.0), (1.1, 0.3, 0.1), (0.4, 1.2, -0.2))


@dataclass(frozen=True)
class _Curves:
    """The curves verify-all checks on every fixture.  None depends on the
    fixture, so a run builds them once and drops them when it ends."""

    xy: Curve3  # the unit circle, whose lambda is reported
    radii: tuple[Curve3, ...]  # xy circles of radius 0.6 and 1.7 about (0.05, -0.04, 0)
    off_plane: tuple[Curve3, ...]  # unit yz and zx circles, each followed by its reverse
    theorem: Curve3
    formula: Curve3
    morera: Curve3  # boundary of _TRIANGLE
    morera_unit: Curve3  # boundary of the unit right triangle in the xy plane
    lemma: tuple[Curve3, ...]

    @classmethod
    def build(cls, cfg: RunConfig) -> "_Curves":
        off_plane = []
        for plane in ("yz", "zx"):
            circle = circle_curve(nodes=cfg.nodes, plane=plane)
            off_plane += [circle, circle.reversed()]
        return cls(
            xy=circle_curve(nodes=cfg.nodes),
            radii=tuple(circle_curve(center=(0.05, -0.04, 0.0), radius=r, nodes=cfg.nodes)
                        for r in (0.6, 1.7)),
            off_plane=tuple(off_plane),
            theorem=_theorem_circle(cfg.nodes),
            formula=_formula_circle(cfg.nodes),
            morera=triangle_curve(*_TRIANGLE, per_edge=2048),
            morera_unit=triangle_curve((0, 0, 0), (1, 0, 0), (0, 1, 0), per_edge=512),
            lemma=(
                circle_curve(radius=1.0, nodes=512),
                circle_curve(center=(0.1, 0.05, -0.04), radius=0.7, nodes=512, plane="zx"),
                triangle_curve(*_TRIANGLE, per_edge=128),
            ),
        )


def _verify_one_fixture(name: str, cfg: RunConfig, curves: _Curves) -> dict:
    bundle = load_fixture(name)
    spec = bundle.algebra
    frame = bundle.default_frame
    rng = np.random.default_rng(cfg.seed)
    rec: dict = {"algebra": name}
    rec["validation"] = validate_algebra(spec).violations
    rec["oracle"] = _oracle_record(frame, rng)

    # the unit circle's lambda is reported, and compared with circles that do
    # not scale its nodes exactly (other radii and centre)
    lam_one = lambda_numeric(frame, curves.xy)
    rec["lambda"] = _lambda_record(lam_one, "xy")
    rec["lambda"]["radius_agreement_rel"] = max(
        norm_euclid(lambda_numeric(frame, circle).lambda_ - lam_one.lambda_)
        for circle in curves.radii
    ) / norm_euclid(lam_one.lambda_)

    # plane choice is exposed rather than assumed equivalent: report the
    # observed variation on any other-plane circle that still embraces once
    plane_var = None
    for curve in curves.off_plane:
        try:
            alt = lambda_numeric(frame, curve)
        except (EmbraceError, NonInvertibleError):
            continue
        dev = norm_euclid(alt.lambda_ - lam_one.lambda_) / norm_euclid(lam_one.lambda_)
        plane_var = max(plane_var or 0.0, dev)
    rec["lambda"]["plane_variation_rel"] = plane_var

    exact = exactness_conditions(frame)
    rec["exactness"] = _exactness_record(exact)
    rec["prediction_sound"] = (not exact.predicted_2pi_i) or lam_one.is_2pi_i

    mspecs = _standard_mspecs(spec)
    rec["cauchy_theorem"] = cauchy_theorem_residuals(mspecs, frame, curves.theorem)
    rec["cauchy_formula"] = cauchy_formula_residuals(mspecs, frame, _FORMULA_P0, curves.formula)

    # the Morera functional on each triangle: the loop integral around its boundary
    mono = norm_euclid(curvilinear_integral(zeta_field(frame), curves.morera, frame))
    rec["morera"] = {"monogenic_zeta": mono}

    def non_mono(pts):
        out = np.zeros(pts.shape[:-1] + (spec.n,), dtype=complex)
        out[..., 0] = pts[..., 0]
        out -= pts[..., 1, None] * frame.a
        return out

    rec["morera"]["non_monogenic"] = norm_euclid(
        curvilinear_integral(non_mono, curves.morera_unit, frame))

    fields = (constant_field(unit_element(spec)), zeta_field(frame), zeta_power_field(frame, 2),
              non_mono)
    pairs, c = norm_inequality_checks(fields, curves.lemma, frame)
    excess = [lhs > rhs * (1 + CHECKS["lemma1.slack"].bound) for lhs, rhs in pairs]
    rec["lemma1"] = {"pairs": len(excess), "violations": sum(excess), "c": c}
    rec["ok"] = not list(_failures(rec))
    return rec


def _cmd_verify_all(cfg: RunConfig):
    curves = _Curves.build(cfg)
    fixtures = {name: _verify_one_fixture(name, cfg, curves) for name in sorted(CATALOG)}
    ok = all(rec["ok"] for rec in fixtures.values())
    return {
        "node_count": cfg.nodes,
        "seed": cfg.seed,
        "fixtures": fixtures,
    }, ok


# Each command and the options it reads, "source" being --fixture or
# --algebra.  A command rejects every other option (exit code 2), so that an
# option given is never silently ignored; one not given takes its RunConfig
# default.
_COMMANDS = {
    "validate": (_cmd_validate, ("source", "out")),
    "invert": (_cmd_invert, ("source", "frame", "point", "out")),
    "lambda": (_cmd_lambda, ("source", "frame", "nodes", "radius", "plane", "out")),
    "classify": (_cmd_classify, ("source", "frame", "out")),
    "verify-cauchy": (_cmd_verify_cauchy, ("source", "frame", "nodes", "out")),
    "verify-formula": (_cmd_verify_formula, ("source", "frame", "nodes", "out")),
    "verify-all": (_cmd_verify_all, ("nodes", "seed", "out")),
}

_OPTIONS = {
    "frame": {"help": "bundled frame name or path to a frame JSON file"},
    "point": {"help": "x,y,z"},
    "nodes": {"type": int},
    "radius": {"type": float},
    "plane": {"choices": ("xy", "yz", "zx")},
    "seed": {"type": int},
    "out": {},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="monalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for option in options:
            if option == "source":
                source = p.add_mutually_exclusive_group()
                source.add_argument("--fixture", choices=CATALOG)
                source.add_argument("--algebra", dest="algebra_path",
                                    help="path to an algebra JSON file")
            else:
                p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    try:
        if "point" in args:
            args["point"] = tuple(float(v) for v in args["point"].split(","))
            if len(args["point"]) != 3:
                raise ValueError("--point needs x,y,z")
        cfg = RunConfig(**args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fields, ok = _COMMANDS[cfg.command][0](cfg)
        report = {"command": cfg.command, **fields, "ok": ok}
        Path(cfg.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    except (OSError, KeyError, ValueError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_summary(report)
    print(f"report written to {cfg.out}")
    if cfg.command == "validate" and not ok:
        return 2  # invalid spec counts as bad input
    return 0 if ok else 1


def _print_summary(report: dict) -> None:
    cmd = report["command"]
    if cmd == "verify-all":
        for name, rec in report["fixtures"].items():
            print(f"{name}: {'ok' if rec['ok'] else 'FAIL'}")
            for line in _failures(rec):
                print("  " + line)
    elif cmd == "validate":
        n = len(report["violations"])
        print("valid" if n == 0 else f"{n} violation(s):")
        for v in report["violations"]:
            print(" -", v)
    elif cmd == "lambda":
        lam = [complex(re, im) for re, im in report["lambda"]]
        print("lambda coefficients:", ", ".join(f"{v:.10g}" for v in lam))
        print("is_2pi_i:", report["is_2pi_i"])
    else:
        for k, v in report.get("residuals", {}).items():
            print(f"{k}: residual {v:.3e}")
        print("ok:", report["ok"])


if __name__ == "__main__":
    sys.exit(main())
