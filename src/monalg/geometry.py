"""The three-dimensional real subspace E3 = span_R(1, e2, e3) and its geometry.

Points of E3 are zeta = x + y e2 + z e3 with real (x, y, z).  The functional
images xi_u = f_u(zeta) = x + y a_u + z b_u control invertibility: zeta fails
to be invertible exactly on the straight lines L_u where xi_u = 0.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, AlgElement, _mult_rows

__all__ = [
    "E3Frame",
    "Line3",
    "FrameWarning",
    "make_frame",
    "make_zeta",
    "xi_values",
    "check_surjectivity",
    "noninvertibility_lines",
    "random_safe_points",
    "frame_from_json",
]

_SV_TOL = 1e-12


class FrameWarning(UserWarning):
    """Independence or surjectivity hypothesis violated by a frame."""


@dataclass(frozen=True)
class E3Frame:
    """Coefficients of e2 (a) and e3 (b) over the basis {I_k}; e1 = 1 is implicit.

    a and b are the frame's own read-only copies, checked finite, so nothing
    a caller does to its arrays changes the frame or the map built from them.
    sums_map is that map (_sums_map), built once per frame as the algebra's
    plan is built once per spec; its product with the node sums of
    zeta^{-1} d zeta is lambda, coefficient k the sigma form sigma_k summed.
    rep_limits is the monogenic representation's range (_rep_limits), the
    largest |x|, |y| and |z| it accepts, also built once per frame.
    Frames compare by value: equal specs, a and b.
    """

    spec: AlgebraSpec
    a: np.ndarray
    b: np.ndarray
    sums_map: np.ndarray = field(init=False, repr=False, compare=False)
    rep_limits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "b"):
            vec = np.array(getattr(self, name), dtype=complex)
            if vec.shape != (self.spec.n,):
                raise ValueError(f"frame vectors must have length n = {self.spec.n}")
            bad = np.flatnonzero(~np.isfinite(vec))
            if bad.size:
                raise ValueError(f"frame vector {name} is not finite at index {bad[0]}")
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)
        for name, build in (("sums_map", _sums_map), ("rep_limits", _rep_limits)):
            arr = build(self.spec, self.a, self.b)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, E3Frame):
            return NotImplemented
        return (self.spec == other.spec and np.array_equal(self.a, other.a)
                and np.array_equal(self.b, other.b))

    @property
    def e2(self) -> AlgElement:
        return AlgElement(self.spec, self.a)

    @property
    def e3(self) -> AlgElement:
        return AlgElement(self.spec, self.b)


def _sums_map(spec: AlgebraSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (3n, n) map from node sums to a curve integral.

    A loop integral of Psi d zeta over nodes p_i with steps d_i depends on
    the nodes only through the node sums S = sum_i d_i (x) Psi(p_i), a (3, n)
    array with rows x, y, z (dx, dy, dz).  S.reshape(3n) times this map is
    the integral x + e2 y + e3 z: an identity block, then the rows of
    multiplication by e2 and by e3 (_mult_rows of a and b).  For
    Psi = zeta^{-1} its coefficient k is the sigma form sigma_k summed over
    the nodes: sigma_k is coefficient k of zeta^{-1} d zeta.
    """
    return np.concatenate([np.eye(spec.n), _mult_rows(spec, a), _mult_rows(spec, b)])


def _rep_limits(spec: AlgebraSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The largest |x|, |y|, |z| (3,) at which the representation's
    recurrences stay finite, with S = max(1, max|a|, max|b|):

    - every coordinate up to finfo.max / (3 S), so no xi_u or T_s overflows;
    - y and z also up to finfo.max^(1/P) / (4 S beta), P the largest power
      of T in a Q_{k,s} (k - 1 for the plan's largest order k) and beta the
      largest sum of |gamma| over the couplings B_{r,s} of one s (1 at
      least).  Then |T_s| <= 2 S max(|y|, |z|), and |B_{r,s}| <= beta max|T|
      and |Q_{k,s}| <= beta^(k-2) max|T|^(k-1) stay below finfo.max / 2, and
      each gap |xi_u - xi_l| <= 4 S max(|y|, |z|) of the contours below
      finfo.max.
    """
    scale = max(1.0, *map(abs, a.tolist()), *map(abs, b.tolist()))
    limit = sys.float_info.max / (3 * scale)
    coupling = {}
    for (_, s), terms in spec.plan.B:
        coupling[s] = coupling.get(s, 0.0) + sum(abs(g) for _, g in terms)
    beta = max([1.0, *coupling.values()])
    power = max(1, max(spec.plan.orders) - 1)
    yz = sys.float_info.max ** (1 / power) / (4 * scale * beta)
    return np.array([limit, min(limit, yz), min(limit, yz)])


def _real_frame_matrix(frame: E3Frame) -> np.ndarray:
    """(2n, 3) real matrix whose columns are (Re, Im) coordinates of 1, e2, e3."""
    vecs = (frame.spec.unit_coeffs, frame.a, frame.b)
    return np.stack([np.concatenate([v.real, v.imag]) for v in vecs], axis=1)


def independence_ok(frame: E3Frame) -> bool:
    """True iff {1, e2, e3} are linearly independent over R (rank-3 real matrix)."""
    sv = np.linalg.svd(_real_frame_matrix(frame), compute_uv=False)
    return bool(sv[-1] > _SV_TOL * sv[0])


def make_frame(spec: AlgebraSpec, a, b) -> E3Frame:
    """Construct a frame; independence and surjectivity violations warn, not raise.

    (Theorem-9-style frames inside the semisimple part deliberately violate
    independence, so these are diagnostics rather than hard errors.)  An
    unchecked frame is E3Frame(spec, a, b).
    """
    frame = E3Frame(spec, a, b)
    if not independence_ok(frame):
        warnings.warn("1, e2, e3 are linearly dependent over R", FrameWarning, stacklevel=2)
    flags = check_surjectivity(frame)
    if not np.all(flags):
        bad = [u + 1 for u in range(spec.m) if not flags[u]]
        warnings.warn(
            f"f_u(E3) != C for u in {bad} (a_u and b_u both real)", FrameWarning, stacklevel=2
        )
    return frame


def _one(p) -> np.ndarray:
    """p as a batch of one: single-point calls then give their row of any batch."""
    return np.asarray(p, dtype=float)[None]


def _finite(pts) -> np.ndarray:
    """pts (N, 3) as floats; a point with a non-finite coordinate raises
    ValueError naming it and its batch index."""
    pts = np.asarray(pts, dtype=float)
    if not np.isfinite(pts).all():
        i = int(np.argwhere(~np.isfinite(pts))[0, 0])
        raise ValueError(f"point {tuple(pts[i].tolist())} is not finite (batch index {i})")
    return pts


def _zeta_rows(a: np.ndarray, b: np.ndarray, m: int, pts: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The only kernel from points to zeta: pts (N, 3) -> rows (k, N), one
    per entry of the coefficient vectors a and b of e2 and e3, the first m
    of them idempotent, filled into out when given (columns of a larger
    buffer, say), else a fresh array.

    Row k is x + y a_k + z b_k on an idempotent row and y a_k + z b_k on the
    others, filled in place: y a_k, then + x on the idempotent rows, then
    + z b_k.  Leading entries of a and b give the leading rows, bit for bit.
    """
    pts = np.asarray(pts, dtype=float)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rows = np.multiply(y, a[:, None], out=out)
    rows[:m] += x
    rows += z * b[:, None]
    return rows


def _zeta_coeffs(frame: E3Frame, pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batch zeta: pts (N, 3) -> coefficients (N, n), the .T view of its rows
    (out, (n, N), when given).

    The first m rows are xi_u = x + y a_u + z b_u and the others
    T_s = y a_s + z b_s, so xi = zc[:, :m] and T = zc[:, m:] are views
    whose columns are contiguous rows.
    """
    return _zeta_rows(frame.a, frame.b, frame.spec.m, pts, out).T


def make_zeta(frame: E3Frame, p) -> AlgElement:
    """zeta = x e1 + y e2 + z e3 at a single point p = (x, y, z)."""
    return AlgElement(frame.spec, _zeta_coeffs(frame, _one(p))[0])


def xi_values(frame: E3Frame, p) -> np.ndarray:
    """The m functional images xi_u at one point p (3,), or (N, m) at points
    (N, 3): only the idempotent rows of zeta, bit for bit those of _zeta_coeffs."""
    pts, m = np.asarray(p, dtype=float), frame.spec.m
    xi = _zeta_rows(frame.a[:m], frame.b[:m], m, _one(pts) if pts.ndim == 1 else pts).T
    return xi[0] if pts.ndim == 1 else xi


def check_surjectivity(frame: E3Frame) -> np.ndarray:
    """Per-u flags: f_u(E3) = C iff a_u or b_u has nonzero imaginary part."""
    m = frame.spec.m
    return (frame.a[:m].imag != 0.0) | (frame.b[:m].imag != 0.0)


@dataclass(frozen=True)
class Line3:
    """Line L_u of non-invertible points (through the origin); degenerate means
    the defining equations are dependent and the solution set is a plane."""

    u: int
    direction: np.ndarray | None
    degenerate: bool = False


def noninvertibility_lines(frame: E3Frame) -> list[Line3]:
    """Null spaces of the 2x3 real systems Re xi_u = Im xi_u = 0."""
    lines = []
    for u in range(1, frame.spec.m + 1):
        au, bu = frame.a[u - 1], frame.b[u - 1]
        sys = np.array([[1.0, au.real, bu.real], [0.0, au.imag, bu.imag]])
        _, sv, vt = np.linalg.svd(sys)
        if sv[-1] > _SV_TOL * max(1.0, sv[0]):
            d = vt[-1]
            lines.append(Line3(u, d / np.linalg.norm(d)))
        else:
            lines.append(Line3(u, None, degenerate=True))
    return lines


def random_safe_points(frame: E3Frame, rng: np.random.Generator, count: int,
                       margin: float = 0.3) -> np.ndarray:
    """count uniform draws from [-2, 2]^3 with every |xi_u| above margin.

    Each round draws exactly as many points as are still missing and keeps the
    good ones in order, so the draws, and the generator's state after them,
    are those of drawing and testing one point at a time.
    """
    pts = np.empty((0, 3))
    while len(pts) < count:
        draw = rng.uniform(-2.0, 2.0, size=(count - len(pts), 3))
        keep = np.min(np.abs(xi_values(frame, draw)), axis=1) > margin
        pts = np.concatenate([pts, draw[keep]])
    return pts


def frame_from_json(data: dict, spec: AlgebraSpec) -> E3Frame:
    """Load a frame file ({"a": [[re, im], ...], "b": [...], "algebra": name})."""
    if data.get("algebra") and spec.name and data["algebra"] != spec.name:
        raise ValueError(f"frame is for algebra {data['algebra']!r}, not {spec.name!r}")
    a = np.array([complex(re, im) for re, im in data["a"]])
    b = np.array([complex(re, im) for re, im in data["b"]])
    return make_frame(spec, a, b)
