"""Curvilinear and surface integrals of algebra-valued fields along E3 geometry.

A field is any callable mapping an (N, 3) array of points to an (N, n) array
of coefficient vectors.  Curves are polylines; closed analytic curves
produced by the generators additionally carry exact tangents, in which case
the integral uses the parameter trapezoid rule (spectrally accurate for
smooth closed loops).  Plain polylines fall back to the per-segment
trapezoid (polygon) rule.  _node_steps writes both as one per-node rule that
every loop integral, here and in lambda_const, shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import AlgebraError, AlgebraSpec, AlgElement, _mul_coeffs, mult_matrix, norm_euclid
from .geometry import E3Frame, _real_frame_matrix, _zeta_coeffs
from .resolvent import _zeta_inverse_batch

__all__ = [
    "Curve3",
    "Surface3",
    "FieldEvaluationError",
    "circle_curve",
    "triangle_curve",
    "rectangle_surface",
    "constant_field",
    "zeta_field",
    "zeta_power_field",
    "zeta_inverse_field",
    "curvilinear_integral",
    "surface_integral",
    "stokes_residual",
    "morera_functional",
    "morera_scan",
    "norm_inequality_checks",
    "certified_lemma_constant",
]

Field = Callable[[np.ndarray], np.ndarray]

_CLOSE_TOL = 1e-14  # relative: times 1 + the largest coordinate magnitude


class FieldEvaluationError(AlgebraError):
    """Field evaluation failed somewhere on the given geometry."""


@dataclass(frozen=True)
class Curve3:
    """Sampled path in R^3.

    points: (N, 3) polyline vertices; closed curves duplicate the first point
    at the end.  When tangents (dp/dt at each sample, same shape) and the
    uniform parameter step dt are present, integrals use the parameter
    trapezoid rule instead of the polygon rule.  A non-finite point raises
    ValueError naming its index.

    The points are held as a read-only view, and the scalar descriptors below
    (mean_radius, coord_scale) are computed from them on first use and kept.
    Only O(1) values are kept, no per-node array.
    """

    points: np.ndarray
    closed: bool
    tangents: np.ndarray | None = None
    dt: float | None = None

    def __post_init__(self):
        # a read-only view: the cached descriptors stay those of the points
        pts = np.asarray(self.points, dtype=float).view()
        pts.flags.writeable = False
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("curve needs an (N, 3) array with N >= 2")
        object.__setattr__(self, "points", pts)
        # 1 + max |coordinate| is finite exactly when every coordinate is
        if not np.isfinite(self.coord_scale):
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
            raise ValueError(f"curve node {bad} is not finite")
        if self.closed and np.max(np.abs(pts[0] - pts[-1])) > _CLOSE_TOL * self.coord_scale:
            raise ValueError("closed curve must end where it starts")
        # zero exactly where np.linalg.norm of the difference is: the same
        # squares summed in the same order, by columns rather than rows of 3
        dx, dy, dz = (np.diff(pts[:, i]) for i in range(3))
        if np.any(dx * dx + dy * dy + dz * dz == 0.0):
            raise ValueError("consecutive samples must be distinct")
        if self.tangents is not None:
            tg = np.asarray(self.tangents, dtype=float)
            if tg.shape != pts.shape:
                raise ValueError("tangents must match points in shape")
            if self.dt is None:
                raise ValueError("tangent-carrying curves need the parameter step dt")
            object.__setattr__(self, "tangents", tg)

    @cached_property
    def mean_radius(self) -> float:
        """Mean distance of the nodes from their centroid (a closed curve's
        repeated last point left out).

        Bit for bit the mean of np.linalg.norm(nodes - centroid, axis=1): the
        squares are summed in norm's order, by columns rather than over rows
        of 3.
        """
        pts = self.points[:-1] if self.closed else self.points
        centroid = pts.mean(axis=0)
        dx, dy, dz = (pts[:, i] - centroid[i] for i in range(3))
        return float(np.mean(np.sqrt(dx * dx + dy * dy + dz * dz)))

    @cached_property
    def coord_scale(self) -> float:
        """1 + the largest |coordinate|: the scale of the closure and embrace
        tolerances."""
        return float(1 + np.max(np.abs(self.points)))

    def reversed(self) -> "Curve3":
        tg = None if self.tangents is None else -self.tangents[::-1]
        return Curve3(self.points[::-1].copy(), self.closed, tg, self.dt)


_PLANE_AXES = {"xy": (0, 1), "yz": (1, 2), "zx": (2, 0)}


def circle_curve(center=(0.0, 0.0, 0.0), radius: float = 1.0, nodes: int = 4096,
                 plane: str = "xy") -> Curve3:
    """Uniform circle in a parameter-coordinate plane, with exact tangents."""
    i, j = _PLANE_AXES[plane]
    t = np.linspace(0.0, 2 * np.pi, nodes + 1)
    rcos, rsin = radius * np.cos(t), radius * np.sin(t)
    pts = np.tile(np.asarray(center, dtype=float), (nodes + 1, 1))
    pts[:, i] += rcos
    pts[:, j] += rsin
    tg = np.zeros_like(pts)
    tg[:, i] = -rsin
    tg[:, j] = rcos
    return Curve3(pts, closed=True, tangents=tg, dt=2 * np.pi / nodes)


def _polygon_points(vertices, per_edge: int) -> np.ndarray:
    """Nodes of the closed polygon through vertices, in order: per_edge evenly
    spaced nodes on each edge from its first vertex on, then the first vertex
    again."""
    v = [np.asarray(p, dtype=float) for p in vertices]
    lam = np.linspace(0.0, 1.0, per_edge + 1)[:-1, None]
    edges = [(1 - lam) * p + lam * q for p, q in zip(v, v[1:] + v[:1])]
    return np.vstack(edges + [v[0][None]])


def triangle_curve(p1, p2, p3, per_edge: int = 1024) -> Curve3:
    """Closed triangle boundary as a refined polyline (positive orientation as given)."""
    return Curve3(_polygon_points((p1, p2, p3), per_edge), closed=True)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def constant_field(value: AlgElement) -> Field:
    def f(pts):
        return np.broadcast_to(value.coeffs, pts.shape[:-1] + value.coeffs.shape).copy()
    return f


def zeta_field(frame: E3Frame) -> Field:
    return lambda pts: _zeta_coeffs(frame, pts)


def zeta_power_field(frame: E3Frame, k: int) -> Field:
    def f(pts):
        z = _zeta_coeffs(frame, pts)
        out = z
        for _ in range(k - 1):
            out = _mul_coeffs(frame.spec, out, z)
        return out
    return f


def zeta_inverse_field(frame: E3Frame) -> Field:
    return lambda pts: _zeta_inverse_batch(frame, pts)


def _eval_field(psi: Field, pts: np.ndarray, where: str) -> np.ndarray:
    try:
        vals = np.asarray(psi(pts), dtype=complex)
    except Exception as exc:
        raise FieldEvaluationError(f"field evaluation failed on {where}: {exc}") from exc
    if vals.shape[:-1] != pts.shape[:-1]:
        raise FieldEvaluationError(f"field returned shape {vals.shape} for {pts.shape[0]} points")
    return vals


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def _assemble(frame: E3Frame, S: np.ndarray) -> AlgElement:
    """The integral S_x + e2 S_y + e3 S_z (left multiplication per the
    definition) from node sums S (3, n): one product with frame.sums_map.
    For zeta^{-1} d zeta its coefficient k is sigma_k summed over the nodes."""
    return AlgElement(frame.spec, S.reshape(-1) @ frame.sums_map)


def _node_steps(curve: Curve3) -> np.ndarray:
    """Weighted tangent at each node, (N, 3): dt * tangent halved at both ends
    (parameter trapezoid), or on polylines half of each adjacent segment (the
    per-segment trapezoid written per node).  A loop integral of a 1-form
    linear in the tangent is the sum of its node values on these steps."""
    if curve.tangents is not None:
        steps = curve.dt * curve.tangents
        steps[0] *= 0.5
        steps[-1] *= 0.5
        return steps
    half = 0.5 * np.diff(curve.points, axis=0)
    steps = np.zeros_like(curve.points)
    steps[:-1] += half
    steps[1:] += half
    return steps


def _weighted_sums(weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """weights.T @ vals for real weights (N,) or (N, k) and complex vals (N, n).

    Values that are the .T view of C-contiguous coefficient rows (n, N), as
    the batch kernels return them, are contracted where they lie when there
    are k >= 2 weight columns: the rows viewed as (n, N, 2) floats, one real
    (k, N) @ (N, 2) GEMM per coefficient, with no copy of the values.  Other
    values are made C-contiguous (no copy if they are) and viewed as
    (N, 2n) floats for one real GEMM with k output rows.  One weight column
    always takes that form: it is a vector-matrix product, and OpenBLAS's
    kernel for it sums 2 columns differently from 2n, so the row form would
    move the last bits of surface and Stokes integrals.  OpenBLAS keeps all
    of these shapes on one thread.
    """
    rows = vals.T
    if (weights.ndim == 2 and weights.shape[1] > 1 and vals.dtype == complex
            and rows.flags.c_contiguous and not vals.flags.c_contiguous):
        n, N = rows.shape
        sums = np.matmul(weights.T, rows.view(float).reshape(n, N, 2))  # (n, k, 2)
        return sums.transpose(1, 0, 2).copy().view(complex)[..., 0]
    vals = np.ascontiguousarray(vals, dtype=complex)
    return (weights.T @ vals.view(float)).view(complex)


def _integrate_values(frame: E3Frame, vals: np.ndarray, steps: np.ndarray) -> AlgElement:
    """Sum of vals_i d(zeta)(steps_i) over the nodes (see _node_steps)."""
    return _assemble(frame, _weighted_sums(steps, vals))


def curvilinear_integral(psi: Field, curve: Curve3, frame: E3Frame) -> AlgElement:
    """Integral of Psi d(zeta) with d(zeta) = dx + e2 dy + e3 dz along the curve."""
    return _integrate_values(frame, _eval_field(psi, curve.points, "curve"), _node_steps(curve))


@dataclass(frozen=True)
class Surface3:
    """Triangulated surface with its oriented boundary polyline."""

    triangles: np.ndarray  # (K, 3, 3)
    boundary: Curve3

    def __post_init__(self):
        tri = np.asarray(self.triangles, dtype=float)
        if tri.ndim != 3 or tri.shape[1:] != (3, 3):
            raise ValueError("triangles must be a (K, 3, 3) array")
        object.__setattr__(self, "triangles", tri)


def rectangle_surface(origin, v1, v2, nx: int = 8, ny: int = 8,
                      boundary_per_edge: int = 1024) -> Surface3:
    """Flat parallelogram origin + s*v1 + t*v2 (s, t in [0,1]), split into triangles."""
    origin, v1, v2 = (np.asarray(v, dtype=float) for v in (origin, v1, v2))
    tris = []
    for i in range(nx):
        for j in range(ny):
            p00 = origin + v1 * (i / nx) + v2 * (j / ny)
            p10 = origin + v1 * ((i + 1) / nx) + v2 * (j / ny)
            p01 = origin + v1 * (i / nx) + v2 * ((j + 1) / ny)
            p11 = origin + v1 * ((i + 1) / nx) + v2 * ((j + 1) / ny)
            tris.append([p00, p10, p11])
            tris.append([p00, p11, p01])
    corners = (origin, origin + v1, origin + v1 + v2, origin + v2)
    return Surface3(np.array(tris), Curve3(_polygon_points(corners, boundary_per_edge), closed=True))


_FORMS = {"dxdy": (0, 1), "dydz": (1, 2), "dzdx": (2, 0)}


def _midpoint_rule(surf: Surface3) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The surface's midpoint rule: the centroids of its non-degenerate
    triangles and, for each _FORMS entry, their signed projected areas.
    Zero-area triangles are skipped with a warning."""
    tri = surf.triangles
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    area3d = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    good = area3d > 0
    if not np.all(good):
        warnings.warn(f"skipping {np.count_nonzero(~good)} degenerate (zero-area) triangles")
    areas = {form: 0.5 * (e1[good, i] * e2[good, j] - e1[good, j] * e2[good, i])
             for form, (i, j) in _FORMS.items()}
    return tri.mean(axis=1)[good], areas


def surface_integral(psi: Field, surf: Surface3, form: str, spec: AlgebraSpec) -> AlgElement:
    """Midpoint-rule surface integral of Psi against one projected area form."""
    centroids, areas = _midpoint_rule(surf)
    vals = _eval_field(psi, centroids, "surface")
    return AlgElement(spec, _weighted_sums(areas[form], vals))


def _central_diff(psi: Field, pts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central difference quotients of psi along x, y and z at pts (N, 3) with
    steps h (N,), (3, N, n), from one field call on the 6N stencil points."""
    step = np.zeros((3,) + pts.shape)
    for axis in range(3):
        step[axis, :, axis] = h
    stencil = np.concatenate([pts + step, pts - step]).reshape(-1, 3)
    vals = _eval_field(psi, stencil, "difference stencil").reshape(2, 3, len(pts), -1)
    return (vals[0] - vals[1]) / (2 * h[:, None])


def stokes_residual(phi: Field, surf: Surface3, frame: E3Frame,
                    fd_step: float | None = None) -> float:
    """norm(LHS - RHS) of the Stokes analogue: boundary integral vs. the surface
    integral of the three curl-like brackets, derivatives by central differences."""
    spec = frame.spec
    lhs = curvilinear_integral(phi, surf.boundary, frame).coeffs

    centroids, areas = _midpoint_rule(surf)
    h = fd_step if fd_step is not None else 1e-5 * (1 + np.linalg.norm(centroids, axis=1))
    h = np.broadcast_to(np.asarray(h, dtype=float), (len(centroids),)).copy()
    dx, dy, dz = _central_diff(phi, centroids, h)

    bxy = _mul_coeffs(spec, dx, frame.a[None, :]) - dy
    byz = _mul_coeffs(spec, dy, frame.b[None, :]) - _mul_coeffs(spec, dz, frame.a[None, :])
    bzx = dz - _mul_coeffs(spec, dx, frame.b[None, :])

    rhs = (_weighted_sums(areas["dxdy"], bxy)
           + _weighted_sums(areas["dydz"], byz)
           + _weighted_sums(areas["dzdx"], bzx))
    return float(np.linalg.norm(lhs - rhs))


def morera_functional(phi: Field, triangle, frame: E3Frame, per_edge: int = 2048) -> AlgElement:
    """Boundary integral of phi over one oriented triangle edge polyline."""
    p1, p2, p3 = triangle
    a = np.asarray(p1, float)
    b = np.asarray(p2, float)
    c = np.asarray(p3, float)
    if np.linalg.norm(np.cross(b - a, c - a)) == 0.0:
        # collinear triangle: the loop retraces itself, integral is exactly zero
        return AlgElement(frame.spec, np.zeros(frame.spec.n, dtype=complex))
    return curvilinear_integral(phi, triangle_curve(p1, p2, p3, per_edge), frame)


def morera_scan(phi: Field, triangles, frame: E3Frame, per_edge: int = 512) -> float:
    """Max norm of the Morera functional over a mesh of triangles."""
    return max(norm_euclid(morera_functional(phi, tri, frame, per_edge)) for tri in triangles)


# ---------------------------------------------------------------------------
# the norm inequality (Lemma 1)
# ---------------------------------------------------------------------------

def _op_norm(a: AlgElement) -> float:
    return float(np.linalg.norm(mult_matrix(a), 2))


def certified_lemma_constant(frame: E3Frame) -> float:
    """A concrete valid constant for the norm inequality, certified node-for-node:
    sqrt(3) * max(1, ||M_e2||, ||M_e3||) / sigma_min(real coords of (1, e2, e3))."""
    smin = np.linalg.svd(_real_frame_matrix(frame), compute_uv=False)[-1]
    return float(np.sqrt(3.0) * max(1.0, _op_norm(frame.e2), _op_norm(frame.e3)) / smin)


def norm_inequality_checks(psis, curves, frame: E3Frame) -> tuple[list[tuple[float, float]], float]:
    """Lemma 1 for each field Psi of psis on each curve: the pairs (lhs, rhs),
    norm of the integral vs c * integral of ||Psi|| ||d zeta||, curve by curve
    and on each curve field by field, and c.  The frame's c is computed once,
    and each curve's steps and ||d zeta|| once."""
    c = certified_lemma_constant(frame)
    pairs = []
    for curve in curves:
        steps = _node_steps(curve)
        dzeta = _zeta_tangent_norm(frame, steps)
        for psi in psis:
            vals = _eval_field(psi, curve.points, "curve")
            lhs = norm_euclid(_integrate_values(frame, vals, steps))
            pairs.append((lhs, c * float(np.sum(np.linalg.norm(vals, axis=1) * dzeta))))
    return pairs, c


def _zeta_tangent_norm(frame: E3Frame, d: np.ndarray) -> np.ndarray:
    """||d zeta|| at each node for tangent data d (N, 3)."""
    return np.linalg.norm(_zeta_coeffs(frame, d), axis=1)
