"""Independent references for the benchmark's output checks.

Nothing here calls the code path whose result it checks: inverses come from
the dense linear solve (``invert_direct``, or the same solve batched here),
holomorphic data is evaluated with algebra arithmetic (``multiply``,
``invert_direct``) instead of contour quadrature, and loop integrals are
summed here node by node instead of through ``curvilinear_integral``.
"""

from __future__ import annotations

import math

import numpy as np


def digits(err: float, tol: float) -> float:
    """Decimal digits of margin: log10(tol / err), with err floored at 1e-300."""
    return math.log10(tol / max(err, 1e-300))


class Checks:
    """Outcome of checking one op's output: worst margin and failed checks."""

    def __init__(self):
        self.digits = math.inf
        self.problems: list[str] = []

    def close(self, name: str, err: float, tol: float) -> None:
        if err <= tol:
            self.digits = min(self.digits, digits(err, tol))
        else:  # also catches NaN
            self.problems.append(f"{name}: error {err:.3e} exceeds {tol:.1e}")

    def require(self, name: str, cond: bool) -> None:
        if not cond:
            self.problems.append(name)

    @property
    def ok(self) -> bool:
        return not self.problems


def zeta_element(M, frame, p):
    """zeta = x + y e2 + z e3 assembled from the frame data."""
    x, y, z = (float(v) for v in p)
    spec = frame.spec
    return M.AlgElement(spec, x * spec.unit_coeffs + y * frame.a + z * frame.b)


def _scalar(M, spec, c: complex):
    return M.AlgElement(spec, complex(c) * spec.unit_coeffs)


def _horner(M, coeffs, w):
    spec = w.spec
    acc = _scalar(M, spec, 0.0)
    for c in reversed(coeffs):
        acc = M.multiply(acc, w) + _scalar(M, spec, c)
    return acc


def holo_in_algebra(M, desc: dict, z):
    """Evaluate one piece of holomorphic data at an algebra element.

    desc is the generator's description of the data: kind "polynomial" or
    "series" (Taylor coefficients about center), "rational" (num/den about
    center) or "exp" (exp(scale * t), the benchmark's callable integrand).
    """
    spec = z.spec
    w = z - _scalar(M, spec, desc.get("center", 0.0))
    kind = desc["kind"]
    if kind in ("polynomial", "series"):
        return _horner(M, desc["coeffs"], w)
    if kind == "rational":
        return M.multiply(_horner(M, desc["num"], w), M.invert_direct(_horner(M, desc["den"], w)))
    if kind == "exp":
        sw = w * desc["scale"]
        term = _scalar(M, spec, 1.0)
        acc = term
        for k in range(1, 80):
            term = M.multiply(term, sw) * (1.0 / k)
            acc = acc + term
            if M.norm_euclid(term) <= 1e-18 * M.norm_euclid(acc):
                break
        return acc
    raise ValueError(f"unknown data kind {kind!r}")


def representation_reference(M, frame, p, F: list, G: dict):
    """sum_u I_u F_u(zeta) + sum_s I_s G_s(zeta), all in algebra arithmetic."""
    spec = frame.spec
    z = zeta_element(M, frame, p)
    out = _scalar(M, spec, 0.0)
    for u, desc in enumerate(F, start=1):
        out = out + M.multiply(M.basis_element(spec, u), holo_in_algebra(M, desc, z))
    for s, desc in G.items():
        out = out + M.multiply(M.basis_element(spec, s), holo_in_algebra(M, desc, z))
    return out


def dense_inverse_batch(frame, pts: np.ndarray) -> np.ndarray:
    """zeta^{-1} at each point by a dense solve of its multiplication matrix."""
    spec = frame.spec
    zc = pts[:, 0, None] * spec.unit_coeffs + pts[:, 1, None] * frame.a + pts[:, 2, None] * frame.b
    mats = np.einsum("ij,jkl->ilk", zc, spec.table)  # column k: zeta * I_{k+1}
    rhs = np.broadcast_to(spec.unit_coeffs, zc.shape)[..., None]
    return np.linalg.solve(mats, rhs)[..., 0]


def loop_integral(frame, curve, values: np.ndarray) -> np.ndarray:
    """Sum of values * d(zeta) along the curve, with the rule the curve calls for:
    the parameter trapezoid when it carries tangents, the polygon rule otherwise."""
    spec = frame.spec

    def dzeta(d):
        return d[:, 0, None] * spec.unit_coeffs + d[:, 1, None] * frame.a + d[:, 2, None] * frame.b

    if curve.tangents is not None:
        w = np.full(len(curve.points), curve.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        vals, dz = values, dzeta(curve.tangents) * w[:, None]
    else:
        vals, dz = 0.5 * (values[:-1] + values[1:]), dzeta(np.diff(curve.points, axis=0))
    return np.einsum("ij,ik,jkl->l", vals, dz, spec.table)
