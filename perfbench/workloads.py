"""The benchmark's three workloads.

Each workload builds its inputs from a seed in its constructor (the set-up
phase), exposes ``items`` (one pass of ops, always run whole so every pass
has the same mix), runs one op with ``run(item)`` and checks one output
with ``check(item, output)``.  Checks use only the references in
``oracle.py`` and run outside the timed region.

- certify: one op is ``monalg verify-all --nodes 4096`` over all fixtures,
  the command users run to reproduce the paper.  It is the only workload
  that runs ``monogenic`` contour moments in large batches and the CLI's
  thread pool.
- loops: one op is one ``lambda_numeric`` on a seeded loop that embraces the
  lines L_u.  It runs ``resolvent``, ``integration`` and ``lambda_const``
  and never ``monogenic``.
- pointwise: one op is one single-point query from a fixed seeded mix of
  closed forms and representation evaluations, so per-call overhead
  dominates instead of per-point cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np

import oracle
from oracle import Checks

TWO_PI_I = 2j * np.pi

# Tolerances verify-all asserts on each reported error (see its per-fixture checks).
CERTIFY_TOLERANCES = {
    ("oracle", "zeta_inverse_max_rel"): 1e-9,
    ("oracle", "resolvent_max_rel"): 1e-9,
    ("oracle", "atilde_max_rel"): 1e-10,
    ("lambda", "radius_agreement_rel"): 1e-8,
    ("cauchy_theorem", None): 1e-7,
    ("cauchy_formula", None): 1e-6,
    ("morera", "monogenic_zeta"): 1e-8,
}

# Tolerances the library asserts for each closed form against the dense solve.
INVERSE_TOL = 1e-9        # zeta^{-1} and resolvent, relative (verify-all oracle check)
ATILDE_TOL = 1e-10        # displayed closed forms, relative (verify-all oracle check)
SIGMA_TOL = 1e-10         # per coefficient, times (1 + |ref|) (sigma split tests)
REPRESENTATION_TOL = 1e-10  # times (1 + |ref|) (representation tests)
NILPOTENT_TOL = 1e-12     # lambda nilpotent part vs sigma integrals, times (1 + |lambda|)
LOOP_ORACLE_TOL = 1e-9    # lambda vs loop integral of the dense-solve inverse, relative


def frame_pairs(M) -> list[tuple[str, str, object]]:
    """(fixture, frame label, frame) for every bundled frame of every fixture."""
    out = []
    for name in M.list_fixtures():
        bundle = M.load_fixture(name)
        for label, frame in bundle.frames.items():
            out.append((name, label, frame))
    return out


def _line_axis(M, frame) -> np.ndarray:
    """Unit vector along the mean direction of the lines L_u."""
    dirs = [ln.direction for ln in M.noninvertibility_lines(frame) if not ln.degenerate]
    axis = sum(d if d @ dirs[0] >= 0 else -d for d in dirs)
    return axis / np.linalg.norm(axis)


def _tilted_rotation(rng, axis: np.ndarray, max_tilt: float) -> np.ndarray:
    """Rotation taking the z axis to within max_tilt radians of axis, with a
    random turn about it; columns are the images of x, y and z."""
    v = rng.normal(size=3)
    v -= (v @ axis) * axis
    tilt = rng.uniform(0.0, max_tilt)
    normal = np.cos(tilt) * axis + np.sin(tilt) * v / np.linalg.norm(v)
    e1 = rng.normal(size=3)
    e1 -= (e1 @ normal) * normal
    e1 /= np.linalg.norm(e1)
    return np.stack([e1, np.cross(normal, e1), normal], axis=1)


def _safe_point(M, frame, rng, margin: float = 0.3) -> np.ndarray:
    """A point in [-2, 2]^3 whose xi_u keep |xi_u| and their gaps above margin."""
    while True:
        p = rng.uniform(-2.0, 2.0, size=3)
        xi = M.xi_values(frame, p)
        gaps = [abs(a - b) for i, a in enumerate(xi) for b in xi[i + 1:]]
        if np.min(np.abs(xi)) > margin and min(gaps, default=np.inf) > margin:
            return p


class Certify:
    name = "certify"
    MIN_CHECKED_OPS = 2  # determinism needs two reports of the same seed

    def __init__(self, M, seed: int, workdir: Path):
        self.M = M
        self.fixtures = M.list_fixtures()
        for name in self.fixtures:
            M.load_fixture(name)
        self.argv = ["verify-all", "--nodes", "4096", "--seed", str(seed)]
        self.workdir = workdir
        self.items = [None]
        self._count = 0
        self._first_report: bytes | None = None

    def run(self, item):
        self._count += 1
        out = self.workdir / f"certify-{self._count}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.M.cli.main(self.argv + ["--out", str(out)])
        return code, out

    def check(self, item, output) -> Checks:
        code, path = output
        checks = Checks()
        checks.require(f"exit code {code}, expected 0", code == 0)
        data = path.read_bytes()
        path.unlink()
        if self._first_report is None:
            self._first_report = data
        checks.require("report differs from the first report of the same seed",
                       data == self._first_report)
        report = json.loads(data)
        checks.require("report not ok", report.get("ok") is True)
        checks.require("report misses fixtures",
                       sorted(report["fixtures"]) == sorted(self.fixtures))
        for name, rec in sorted(report["fixtures"].items()):
            for (section, key), tol in CERTIFY_TOLERANCES.items():
                values = rec[section] if key is None else {key: rec[section][key]}
                for k, err in values.items():
                    checks.close(f"{name}.{section}.{k}", float(err), tol)
        return checks


class Loops:
    name = "loops"
    CIRCLE_NODES = (1024, 1024, 1024, 4096, 4096, 4096, 16384, 16384)
    # The polygon rule is second order: below ~4096 nodes a triangle's lambda
    # misses the library's 2 pi i tolerance, so triangles start there.
    TRIANGLE_NODES = (4096, 16384)
    ORACLE_SHARE = 0.25
    MAX_TILT = 0.6

    def __init__(self, M, seed: int, workdir: Path):
        self.M = M
        rng = np.random.default_rng(seed)
        self.items = []
        self.predicted = {}
        for fixture, label, frame in frame_pairs(M):
            self.predicted[fixture, label] = M.exactness_conditions(frame).predicted_2pi_i
            shapes = ([("circle", n) for n in self.CIRCLE_NODES]
                      + [("triangle", n) for n in self.TRIANGLE_NODES])
            for shape, nodes in shapes:
                curve = self._embracing_loop(frame, rng, shape, nodes)
                self.items.append({"fixture": fixture, "frame_label": label, "frame": frame,
                                   "curve": curve, "nodes": nodes,
                                   "oracle": bool(rng.random() < self.ORACLE_SHARE)})
        rng.shuffle(self.items)

    def _candidate(self, rng, axis, shape: str):
        """A random circle or triangle in a plane tilted at most MAX_TILT from
        normal to the lines: a few of its points, for screening, and a function
        building the loop at a given node count."""
        M = self.M
        rot = _tilted_rotation(rng, axis, self.MAX_TILT)
        center = rng.uniform(-0.25, 0.25, size=3)
        if shape == "circle":
            radius = rng.uniform(0.6, 1.8)
            t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
            ring = np.stack([radius * np.cos(t), radius * np.sin(t), 0 * t], axis=1)

            def build(nodes):
                base = M.circle_curve(radius=radius, nodes=nodes)
                return M.Curve3(center + base.points @ rot.T, closed=True,
                                tangents=base.tangents @ rot.T, dt=base.dt)
            return center + ring @ rot.T, build
        radius = rng.uniform(0.8, 1.8)
        angles = rng.uniform(0, 2 * np.pi) + np.array([0, 2, 4]) * np.pi / 3
        angles = angles + rng.uniform(-0.3, 0.3, size=3)
        verts = np.array([center + rot @ np.array([radius * np.cos(a), radius * np.sin(a), 0.0])
                          for a in angles])
        lam = np.linspace(0, 1, 16, endpoint=False)[:, None, None]
        edges = (1 - lam) * verts + lam * np.roll(verts, -1, axis=0)
        return edges.reshape(-1, 3), lambda nodes: M.triangle_curve(*verts, per_edge=nodes // 3)

    def _embracing_loop(self, frame, rng, shape: str, nodes: int):
        """A loop around every line L_u once whose xi_u images stay well centred
        (min |xi_u| >= 0.35 max |xi_u|), so every loop meets the tolerances.
        Candidates are screened on a few points; the decision is made on the loop."""
        M = self.M
        us = range(1, frame.spec.m + 1)
        axis = _line_axis(M, frame)
        for _ in range(10000):
            sample, build = self._candidate(rng, axis, shape)
            xi = np.abs(M.xi_values(frame, sample))
            if np.any(xi.min(axis=0) < 0.35 * xi.max(axis=0)):
                continue
            curve = build(nodes)
            winding = {M.winding_number(frame, curve, u) for u in us}
            if winding == {1}:
                return curve
            if winding == {-1}:
                return curve.reversed()
        raise RuntimeError(f"no embracing {shape} found for {frame.spec.name}")

    def run(self, item):
        return self.M.lambda_numeric(item["frame"], item["curve"])

    def check(self, item, res) -> Checks:
        frame = item["frame"]
        spec = frame.spec
        m = spec.m
        lam = res.lambda_.coeffs
        checks = Checks()
        checks.close("semisimple lambda vs 2 pi i", float(np.max(np.abs(lam[:m] - TWO_PI_I))),
                     res.tol)
        scale = 1 + float(np.linalg.norm(lam))
        for k, v in res.sigma_integrals.items():
            checks.close(f"lambda_{k} vs sigma integral", abs(lam[k - 1] - v),
                         NILPOTENT_TOL * scale)
        if self.predicted[item["fixture"], item["frame_label"]]:
            checks.require("predicted_2pi_i without is_2pi_i", res.is_2pi_i)
        if item["oracle"]:
            ref = item.get("reference")
            if ref is None:
                curve = item["curve"]
                vals = oracle.dense_inverse_batch(frame, curve.points)
                ref = item["reference"] = oracle.loop_integral(frame, curve, vals)
            checks.close("lambda vs dense-solve loop integral",
                         float(np.linalg.norm(lam - ref) / np.linalg.norm(ref)), LOOP_ORACLE_TOL)
        return checks


class Pointwise:
    name = "pointwise"
    CLOSED = ("zeta_inverse_closed", "resolvent_at", "atilde_closed", "sigma_closed",
              "sigma_direct")
    REPRESENTATION = ("polynomial", "series", "rational", "callable", "G_s")
    # Per frame: 4 queries of each closed form and 6 of each representation
    # kind, so representations are 60% of ops and the median op is one.
    PER_CLOSED, PER_REPRESENTATION = 4, 6

    def __init__(self, M, seed: int, workdir: Path):
        self.M = M
        rng = np.random.default_rng(seed)
        self.items = []
        for _fixture, _label, frame in frame_pairs(M):
            for kind in self.CLOSED:
                for _ in range(self.PER_CLOSED):
                    self.items.append(self._closed_query(frame, rng, kind))
            for kind in self.REPRESENTATION:
                for _ in range(self.PER_REPRESENTATION):
                    self.items.append(self._representation_query(frame, rng, kind))
        rng.shuffle(self.items)

    def _closed_query(self, frame, rng, kind: str) -> dict:
        p = _safe_point(self.M, frame, rng)
        item = {"kind": kind, "frame": frame, "p": p}
        if kind == "resolvent_at":
            xi = self.M.xi_values(frame, p)
            while True:
                t = complex(rng.uniform(2.5, 4.0), rng.uniform(0.5, 1.5))
                if np.min(np.abs(t - xi)) > 0.3:
                    break
            item["t"] = t
        if kind.startswith("sigma"):
            item["dp"] = rng.normal(size=3)
        return item

    def _representation_query(self, frame, rng, kind: str) -> dict:
        M = self.M
        spec = frame.spec
        n, m = spec.n, spec.m
        p = _safe_point(M, frame, rng)
        if kind == "G_s" and n == m:
            kind = "series"  # a semisimple algebra has no nilpotent index s

        def poly(deg):
            return {"kind": "polynomial",
                    "coeffs": tuple(complex(*rng.normal(size=2)) for _ in range(deg + 1))}

        # Fixed degrees keep the cost of a pass the same for every seed.
        G = {}
        if kind == "polynomial":
            F = [poly(3) for _ in range(m)]
        elif kind == "series":
            F = [{"kind": "series", "center": complex(*rng.uniform(-0.5, 0.5, size=2)),
                  "coeffs": tuple(complex(*rng.normal(size=2)) * 0.3 ** k for k in range(13))}
                 for _ in range(m)]
        elif kind == "rational":
            F = [self._rational(frame, p, rng) for _ in range(m)]
        elif kind == "callable":
            F = [{"kind": "exp", "scale": float(rng.uniform(0.2, 0.6))} for _ in range(m)]
        else:
            F = [poly(2) for _ in range(m)]
            G = {int(rng.integers(m + 1, n + 1)): poly(1)}
        mspec = M.MonogenicSpec(F=tuple(self._holo(d) for d in F),
                                G={s: self._holo(d) for s, d in G.items()})
        return {"kind": kind, "frame": frame, "p": p, "mspec": mspec, "F": F, "G": G}

    def _rational(self, frame, p, rng) -> dict:
        """num/(t - q) with the pole q well outside every evaluation contour."""
        xi = self.M.xi_values(frame, p)
        m = len(xi)
        radius = 1.0 if m == 1 else 0.4 * min(abs(a - b) for i, a in enumerate(xi)
                                              for b in xi[i + 1:])
        while True:
            q = complex(*rng.uniform(-4.0, 4.0, size=2))
            if np.min(np.abs(q - xi)) > radius + 1.0:
                break
        num = tuple(complex(*rng.normal(size=2)) for _ in range(3))
        return {"kind": "rational", "num": num, "den": (-q, 1.0)}

    def _holo(self, desc: dict):
        M = self.M
        if desc["kind"] == "exp":
            with warnings.catch_warnings():
                # callable integrands warn that holomorphy is unverified, by design
                warnings.simplefilter("ignore")
                return M.HoloFunction("callable",
                                      fn=lambda t, s=desc["scale"]: np.exp(s * t))
        if desc["kind"] == "rational":
            return M.HoloFunction("rational", num=desc["num"], den=desc["den"])
        return M.HoloFunction(desc["kind"], coeffs=desc["coeffs"],
                              center=desc.get("center", 0.0))

    def run(self, item):
        M = self.M
        kind, frame, p = item["kind"], item["frame"], item["p"]
        if kind == "zeta_inverse_closed":
            return M.zeta_inverse_closed(frame, p)
        if kind == "resolvent_at":
            return M.resolvent_at(item["t"], frame, p)
        if kind == "atilde_closed":
            return M.atilde_closed(frame, p)
        if kind == "sigma_closed":
            return M.sigma_closed(frame, p, item["dp"])
        if kind == "sigma_direct":
            return M.sigma_direct(frame, p, item["dp"])
        return M.eval_representation(item["mspec"], frame, p)

    def _reference(self, item):
        M = self.M
        kind, frame, p = item["kind"], item["frame"], item["p"]
        z = oracle.zeta_element(M, frame, p)
        if kind in ("zeta_inverse_closed", "atilde_closed"):
            return M.invert_direct(z).coeffs
        if kind == "resolvent_at":
            shifted = M.AlgElement(frame.spec, item["t"] * frame.spec.unit_coeffs) - z
            return M.invert_direct(shifted).coeffs
        if kind.startswith("sigma"):
            dz = oracle.zeta_element(M, frame, item["dp"])
            return M.multiply(M.invert_direct(z), dz).coeffs
        return oracle.representation_reference(M, frame, p, item["F"], item["G"]).coeffs

    def check(self, item, out) -> Checks:
        ref = item.get("reference")
        if ref is None:
            ref = item["reference"] = self._reference(item)
        kind = item["kind"]
        checks = Checks()
        if kind in ("zeta_inverse_closed", "resolvent_at"):
            checks.close(kind, float(np.linalg.norm(out.coeffs - ref) / np.linalg.norm(ref)),
                         INVERSE_TOL)
        elif kind == "atilde_closed":
            if out:
                ks = sorted(out)
                got = np.array([out[k] for k in ks])
                want = ref[np.array(ks) - 1]
                checks.close(kind, float(np.linalg.norm(got - want)
                                         / max(float(np.linalg.norm(want)), 1e-300)), ATILDE_TOL)
        elif kind.startswith("sigma"):
            values = out.total if kind == "sigma_closed" else out
            for k, v in values.items():
                checks.close(f"{kind}[{k}]", abs(v - ref[k - 1]), SIGMA_TOL * (1 + abs(ref[k - 1])))
        else:
            checks.close(f"representation ({kind})", float(np.linalg.norm(out.coeffs - ref)),
                         REPRESENTATION_TOL * (1 + float(np.linalg.norm(ref))))
        return checks


WORKLOADS = {w.name: w for w in (Certify, Loops, Pointwise)}
