"""Monogenic functions built from per-idempotent holomorphic data.

A monogenic function is assembled as
    Phi(zeta) = sum_u I_u (2 pi i)^{-1} contour-int F_u(t) (t - zeta)^{-1} dt
              + sum_s I_s (2 pi i)^{-1} contour-int G_s(t) (t - zeta)^{-1} dt,
with each contour a circle around xi_u enclosing no other xi_l.  Since the
resolvent's t-dependence is explicit, only the scalar moments
(2 pi i)^{-1} contour-int F(t) (t - xi)^{-k} dt are needed, and by Cauchy's
integral formula each equals the Taylor coefficient F^{(k-1)}(xi) / (k-1)!.
Polynomial, series and rational data therefore give their moments exactly
as Taylor jets at xi (rational poles are checked against the contour disks);
only callable integrands run the periodic trapezoid rule on the contour.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import AlgebraError, AlgebraSpec, AlgElement, _mul_coeffs, basis_element
from .geometry import E3Frame, _finite, _one, _zeta_coeffs
from .integration import _central_diff, _eval_field
from .resolvent import SingularityError, _expand, _recurrences

__all__ = [
    "ContourError",
    "HoloFunction",
    "MonogenicSpec",
    "eval_representation",
    "representation_field",
    "gateaux_derivative_fd",
    "cauchy_riemann_residual",
]


class ContourError(AlgebraError):
    """A contour fails the enclosure requirement or passes through a pole."""


@dataclass(frozen=True)
class HoloFunction:
    """Holomorphic integrand: polynomial/truncated series, rational, or callback.

    kind "polynomial" / "series": coeffs are Taylor coefficients about center.
    kind "rational": num/den are polynomial coefficients about center; the
    roots of den are found once, at construction.  A pole within
    1e-12 (1 + |pole|) of a point the function is evaluated at, or of the
    disk of a contour it is integrated over, raises ContourError.
    kind "callable": fn is evaluated as given, at the nodes of the periodic
    trapezoid rule on each contour; holomorphy on the contours cannot be
    verified, which is flagged with a warning at construction.
    A non-finite entry of coeffs, num, den or center raises ValueError
    naming it.  Domain hypotheses (holomorphy on and inside every contour
    used) are the caller's responsibility for all kinds.
    """

    kind: str = "polynomial"
    coeffs: tuple = ()
    num: tuple = ()
    den: tuple = ()
    center: complex = 0.0
    fn: object = None
    _poles: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("polynomial", "series", "rational", "callable"):
            raise ValueError(f"unknown holomorphic kind {self.kind!r}")
        if self.kind == "callable":
            if not callable(self.fn):
                raise ValueError("kind 'callable' needs a callable fn")
            warnings.warn("holomorphy of a callable integrand is unverified",
                          UserWarning, stacklevel=3)
        for name in ("coeffs", "num", "den"):
            vals = tuple(complex(c) for c in getattr(self, name))
            bad = [i for i, c in enumerate(vals) if not np.isfinite(c)]
            if bad:
                raise ValueError(f"{name} is not finite at index {bad[0]}")
            object.__setattr__(self, name, vals)
        if not np.isfinite(self.center):
            raise ValueError(f"center {self.center} is not finite")
        if self.kind == "rational" and any(self.den):
            object.__setattr__(self, "_poles", self.center + np.roots(self.den[::-1]))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=complex)
        if self.kind == "callable":
            return np.asarray(self.fn(t), dtype=complex)
        # W_1 about xi_u = t is F(t); radius 0 has the pole rule check t itself
        return _moments(self, t, 0.0, t, 1, 0)[0]

    @staticmethod
    def exp_series(degree: int = 14, scale: complex = 1.0) -> "HoloFunction":
        """Truncated Taylor series of exp(scale * t)."""
        fact = np.cumprod(np.concatenate([[1.0], np.arange(1, degree + 1)]))
        return HoloFunction("series", tuple((scale ** k) / fact[k] for k in range(degree + 1)))


@dataclass(frozen=True)
class MonogenicSpec:
    """Holomorphic data of one monogenic function: F_u per idempotent, G_s per
    nilpotent index, and optional explicit contour overrides per u."""

    F: tuple
    G: dict = field(default_factory=dict)
    contours: dict = field(default_factory=dict)  # u -> (center, radius)

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(self.F))


def _auto_contours(xi: np.ndarray, m: int, overrides: dict):
    """Per-point circle (center, radius) for each u, xi (N, m): centered at xi_u with
    radius 0.4 times the gap to the nearest other xi (1.0 when there is a single u).
    A gap below 1e-10 (1 + max_u |xi_u|), each point's own xi, raises ContourError.
    Each pair's |xi_u - xi_l| is formed once and kept in both running minima."""
    centers, radii = [], []
    gaps = [None] * m
    for u in range(m):
        for ell in range(u + 1, m):
            d = np.abs(xi[:, ell] - xi[:, u])
            for i in (u, ell):
                gaps[i] = d if gaps[i] is None else np.minimum(gaps[i], d)
    min_gap = 1e-10 * (1 + np.abs(xi).max(axis=1)) if m > 1 else None
    for u in range(1, m + 1):
        if u in overrides:
            c, r = overrides[u]
            centers.append(np.full(len(xi), complex(c)))
            radii.append(np.full(len(xi), float(r)))
            continue
        c = xi[:, u - 1]
        if m == 1:
            r = np.ones_like(c, dtype=float)
        else:
            gap = gaps[u - 1]
            if (gap < min_gap).any():
                raise ContourError(
                    f"xi_{u} coincides with another functional value at some "
                    "evaluation point; no separating contour exists there"
                )
            r = 0.4 * gap
        centers.append(c)
        radii.append(r)
    return centers, radii


def _check_enclosure(xi, u, center, radius):
    inside = np.abs(xi[:, u - 1] - center) < radius
    if not np.all(inside):
        raise ContourError(f"contour for u={u} fails to enclose xi_{u} at some point")
    for ell in range(1, xi.shape[1] + 1):
        if ell == u:
            continue
        stray = np.abs(xi[:, ell - 1] - center) <= radius
        if np.any(stray):
            raise ContourError(f"contour for u={u} also encloses xi_{ell}")


def _jet(coeffs, w, kmax: int) -> list:
    """Taylor jet [P^{(k)}(w) / k! for k < min(kmax, len(coeffs))] of
    P(w) = sum_j coeffs[j] w^j: one Horner pass carrying one array per
    accumulator.

    The jet stops at the degree d, past which P^{(k)} / k! is identically
    zero, and accumulator k joins the pass at coefficient d - k.  Before
    that, a pass over all kmax accumulators only makes them +0 arrays
    (0.0 * w + 0.0 for finite w), whose product with w is that of the 0.0
    they start from.  So the entries returned are that pass's bit for bit,
    and the ones left out are its +0 arrays, which _expand reads as zero.
    """
    coeffs = coeffs or (0.0,)
    jet = [0.0] * min(kmax, len(coeffs))
    top = len(jet) - 1
    for i, c in enumerate(reversed(coeffs)):
        for k in range(min(i, top), 0, -1):
            jet[k] = jet[k] * w + jet[k - 1]
        jet[0] = jet[0] * w + c
    return jet


def _check_poles(func: HoloFunction, center, radius) -> None:
    """ContourError if a root of func.den lies within 1e-12 (1 + |root|) of the
    closed disk (center, radius); radius 0 checks the points center."""
    if not any(func.den):
        raise ContourError("rational integrand has a zero denominator")
    for pole in func._poles:
        if np.any(np.abs(pole - center) <= radius + 1e-12 * (1 + abs(pole))):
            raise ContourError(f"rational integrand has a pole at {pole} on or inside the contour")


# Point x node products per block of _trapezoid_moments: bounds memory on
# large batches while a single point's contour stays one block.
_BLOCK_ELEMENTS = 1 << 18


@lru_cache(maxsize=8)
def _contour_roots(nodes: int) -> np.ndarray:
    """The trapezoid nodes on the unit circle, exp(2 pi i j / nodes) for
    j < nodes: built once per node count, read-only."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    rot = np.exp(1j * theta)
    rot.flags.writeable = False
    return rot


def _trapezoid_moments(func, center, radius, xi_u, kmax: int, nodes: int):
    """The moments of _moments by the periodic trapezoid rule with `nodes` nodes.

    Points are processed in blocks of whole contours, each summed by one
    np.sum, so a point's moments do not depend on the batch it is in.
    """
    rot = _contour_roots(nodes)
    out = np.zeros((kmax, len(center)), dtype=complex)
    step = max(1, _BLOCK_ELEMENTS // nodes)
    for i in range(0, len(center), step):
        blk = slice(i, i + step)
        t = center[blk, None] + radius[blk, None] * rot  # (points, nodes)
        d = t - xi_u[blk, None]
        if (np.abs(d) < 1e-12 * (1 + np.abs(t).max(axis=-1, keepdims=True))).any():
            raise SingularityError("resolvent pole sits on a quadrature node of the contour")
        base = func(t) * (radius[blk, None] * rot / nodes)  # contains dt/(2 pi i)
        dinv = 1.0 / d
        cur = dinv
        for k in range(kmax):
            out[k, blk] = np.sum(base * cur, axis=-1)
            cur = cur * dinv
    return list(out)


def _moments(func: HoloFunction, center, radius, xi_u, kmax: int, nodes: int) -> list:
    """W_k = (2 pi i)^{-1} contour-int func(t) (t - xi_u)^{-k} dt for k = 1..kmax
    over the circle (center, radius), which encloses xi_u, each (N,).

    By Cauchy's integral formula W_k = func^{(k-1)}(xi_u) / (k-1)!, the Taylor
    jet at xi_u, which polynomial, series and rational data give exactly.  Only
    callables are quadratured (and read `nodes`).  Polynomial and series data
    return no more than len(coeffs) moments (_jet): the rest are zero.
    """
    if func.kind == "callable":
        return _trapezoid_moments(func, center, radius, xi_u, kmax, nodes)
    w = xi_u - func.center
    if func.kind != "rational":
        return _jet(func.coeffs, w, kmax)
    _check_poles(func, center, radius)
    a, b = _jet(func.num, w, kmax), _jet(func.den, w, kmax)
    a += [0.0] * (kmax - len(a))  # a full jet's +0 entries; 0.0 gives the same bits
    b += [0.0] * (kmax - len(b))
    q = []  # power-series quotient a / b
    for k in range(kmax):
        acc = a[k]
        for j in range(1, k + 1):
            acc = acc - b[j] * q[k - j]
        q.append(acc / b[0])
    return q


def _rep_recurrences(frame: E3Frame, pts) -> tuple:
    """xi, T, B, Q (resolvent._recurrences) of zeta at points (N, 3), the representation's
    one entry: a non-finite point (geometry._finite) or one outside the frame's
    rep_limits (geometry._rep_limits) raises ValueError before zeta or the
    recurrences can overflow."""
    pts = np.asarray(pts, dtype=float)
    limits = frame.rep_limits
    if not (np.abs(pts) <= limits).all():  # so does a NaN, which _finite names
        i = int(np.argwhere(~(np.abs(_finite(pts)) <= limits))[0, 0])
        raise ValueError(f"point {tuple(pts[i].tolist())} is out of the representation's "
                         f"range, |x| <= {limits[0]:.6g} and |y|, |z| <= {limits[1]:.6g} "
                         f"(batch index {i})")
    return _recurrences(frame.spec, _zeta_coeffs(frame, pts))


def _rep_batch(mspec: MonogenicSpec, frame: E3Frame, pts: np.ndarray,
               nodes: int = 1024) -> np.ndarray:
    """The representation (N, n) at points (N, 3), under _rep_recurrences' checks."""
    xi, _, _, Q = _rep_recurrences(frame, pts)
    return _rep_values(mspec, frame.spec, xi, Q, nodes)


def _rep_values(mspec: MonogenicSpec, spec: AlgebraSpec, xi: np.ndarray, Q,
                nodes: int = 1024) -> np.ndarray:
    """The representation (N, n) at points given their xi (N, m) and Q from
    _rep_recurrences, which functions evaluated at the same points can share.
    Only given contours are checked for enclosure: an automatic one, centred at
    xi_u with 0.4 times a gap _auto_contours keeps from 0, encloses xi_u alone."""
    m = spec.m
    if len(mspec.F) != m:
        raise ValueError(f"need one F_u per idempotent ({m}), got {len(mspec.F)}")
    centers, radii = _auto_contours(xi, m, mspec.contours)
    for u in range(1, m + 1):
        if u in mspec.contours:
            _check_enclosure(xi, u, centers[u - 1], radii[u - 1])
    kmax = spec.plan.orders

    # idempotent terms: F_u integrated over Gamma_u only touches I_u and its nilpotents
    out = _expand(spec, Q, [
        _moments(mspec.F[u], centers[u], radii[u], xi[:, u], kmax[u], nodes) for u in range(m)
    ])

    # nilpotent terms: full resolvent integral over Gamma_{u_s}, then times I_s;
    # every other xi_u lies outside Gamma_{u_s} (_check_enclosure), so its moments
    # vanish: [zero], whose higher moments _expand reads as zero
    zero = np.zeros_like(xi[:, 0]) if mspec.G else None
    for s, g in sorted(mspec.G.items()):
        us = spec.u_map[s] - 1
        vec = _expand(spec, Q, [
            _moments(g, centers[us], radii[us], xi[:, us], kmax[us], nodes) if u == us
            else [zero] for u in range(m)
        ])
        out += _mul_coeffs(spec, basis_element(spec, s).coeffs, vec)
    return out


def eval_representation(mspec: MonogenicSpec, frame: E3Frame, p,
                        nodes: int = 1024) -> AlgElement:
    """Evaluate the represented monogenic function at one point."""
    return AlgElement(frame.spec, _rep_batch(mspec, frame, _one(p), nodes)[0])


def representation_field(mspec: MonogenicSpec, frame: E3Frame, nodes: int = 1024):
    """Field callable (pts (N,3) -> (N,n)) for use with the integration module."""
    return lambda pts: _rep_batch(mspec, frame, pts, nodes)


def gateaux_derivative_fd(phi, frame: E3Frame, p, h_direction, eps: float) -> AlgElement:
    """One-sided difference quotient (Phi(zeta + eps h) - Phi(zeta)) / eps.

    For monogenic phi this approximates h * Phi'(zeta), h the zeta of the
    direction; times the inverse of an invertible h it estimates Phi'.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(h_direction, dtype=float)
    vals = _eval_field(phi, np.stack([p + eps * d, p]), "difference points")
    return AlgElement(frame.spec, (vals[0] - vals[1]) / eps)


def cauchy_riemann_residual(phi, frame: E3Frame, p, h: float) -> tuple[float, float]:
    """Central-difference residuals of dPhi/dy = dPhi/dx e2 and dPhi/dz = dPhi/dx e3."""
    dx, dy, dz = _central_diff(phi, _one(p), np.array([h], dtype=float))[:, 0]
    r2 = np.linalg.norm(dy - _mul_coeffs(frame.spec, dx, frame.a))
    r3 = np.linalg.norm(dz - _mul_coeffs(frame.spec, dx, frame.b))
    return float(r2), float(r3)
