"""Closed-form inversion on E3: one triangular solve inverts zeta and t e1 - zeta.

An element c with idempotent coefficients x_u and nilpotent ones T_s has
(c y)_s = x_{u_s} y_s + T_s y_{u_s} + sum gamma(r, k, s) T_k y_r over
r, k < s, so c y = 1 is unit lower triangular, solved by forward
substitution (Higham, Accuracy and Stability of Numerical Algorithms, ch. 8):
    y_u = 1 / x_u,  y_s = 0.0 - y_{u_s} (T_s y_{u_s} + sum gamma T_k y_r)
in ascending s.  _inverse does this for zeta, with xi_u = x + y a_u + z b_u
and T_s = y a_s + z b_s, and for t e1 - zeta, with t - xi_u and -T_s.  It
forms no power of 1/x_u, so nothing overflows before the result does.  The
0.0 - makes every zero +0.0 (without it, invert --fixture A5 --frame in_S
reports a -0.0).  The tests check every inverse against the dense solve.

The monogenic representation expands instead: the couplings
B_{r,s} = sum_k T_k gamma(r, k, s) and the recurrence
Q_{k,s} = sum_r Q_{k-1,r} B_{r,s}, Q_{2,s} = T_s, give
    Phi(zeta) = sum_u W_u[1] I_u + sum_s sum_k Q_{k,s} W_{u_s}[k] I_s
with contour moments W (_recurrences, _expand).

AlgebraSpec builds a CouplingPlan once, so no call scans the structure
constants: the solve's nonzero products, the nonzero terms of each B_{r,s},
the Q products that are not identically zero, and per idempotent the
largest power k the expansion reads, so no moment is formed that no nonzero
Q_{k,s} multiplies.  All-zero couplings share one zero array, and a
coupling that is one T_k with gamma = 1 takes one pass.  The plan keeps the
scan's order of operations, so results are bit for bit the scan's.

Every kernel takes one batch axis, points (N, 3) and coefficients (N, n),
held coefficient-major inside: each row of zeta, of B and Q and of an
inverse or expansion is one contiguous array over the points, so numpy's
inner loops run over the N points, not over k <= n.  geometry._zeta_coeffs
(the only kernel from points to zeta), _inverse and _expand return the
(N, n) .T views of their (n, N) rows.  The layout changes no bit.

One point and many take one arithmetic path: every product is a fresh
array, and a sum run in place rounds alike on any batch.  So a point's bits
do not depend on its batch: the public single-point functions pass a batch
of one (geometry._one) and give their row of any batch.  Every guard
decides per point, so neither does a point's outcome.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, AlgElement, NonInvertibleError
from .geometry import E3Frame, _finite, _one, _zeta_coeffs

__all__ = [
    "SingularityError",
    "resolvent_at",
    "zeta_inverse_closed",
]

_POLE_TOL = 1e-13


class SingularityError(NonInvertibleError):
    """Evaluation at (or too near) a pole, where t e1 - zeta is not
    invertible; carries the functional index."""


def _recurrences(spec: AlgebraSpec, coeffs: np.ndarray):
    """xi, T, B, Q of the element with coefficients coeffs (N, n), from the
    spec's coupling plan.

    xi = coeffs[:, :m] and T = coeffs[:, m:] are views; on the row-view
    arrays of _zeta_coeffs each xi[:, u] and T[:, i] is contiguous.
    B[(r, s)] and Q[(k, s)] hold contiguous arrays (N,), with Q defined for
    k in 2..s-m+1 only; entries that are identically zero share one zero
    array.
    """
    m = spec.m
    xi, T = coeffs[:, :m], coeffs[:, m:]
    zero = None  # made when a first entry is identically zero

    B: dict[tuple[int, int], np.ndarray] = {}
    for rs, terms in spec.plan.B:
        if len(terms) == 1 and terms[0][1] == 1:
            # one pass for 0.0 + T_k * 1, bit for bit, its zeros made +0.0 alike
            B[rs] = T[:, terms[0][0] - m - 1] + 0.0
            continue
        if not terms:
            B[rs] = zero = np.zeros_like(xi[:, 0]) if zero is None else zero
            continue
        acc = 0.0
        for k, g in terms:
            acc = acc + T[:, k - m - 1] * g
        B[rs] = acc

    Q: dict[tuple[int, int], np.ndarray] = {}
    for s, entries in spec.plan.Q:
        Q[(2, s)] = T[:, s - m - 1]
        for ks, pairs in entries:
            if not pairs:
                Q[ks] = zero = np.zeros_like(xi[:, 0]) if zero is None else zero
                continue
            acc = 0.0
            for q, b in pairs:
                acc = acc + Q[q] * B[b]
            Q[ks] = acc
    return xi, T, B, Q


def _expand(spec: AlgebraSpec, Q, W) -> np.ndarray:
    """Coefficients of sum_u W[u-1][0] I_u + sum_s sum_k Q_{k,s} W[u_s-1][k-1] I_s.

    W[u-1] lists the scalar factors (arrays (N,)) paired with the u-th
    idempotent coefficient x_u for k = 1..spec.plan.orders[u-1], the
    representation's contour moments.  W[u-1] may stop short of orders[u-1]
    (the moments of a polynomial stop at its degree): the factors past its
    end are zero.  Terms whose Q_{k,s} or whose factor is identically zero are skipped;
    adding those +-0 products to a sum seeded with 0.0 would change no bit.
    The coefficients fill an (n, N) buffer row by row; the result (N, n) is
    its .T view, not C-contiguous for N > 1.
    """
    out = np.empty((spec.n, len(W[0][0])), dtype=complex)
    for u in range(spec.m):
        out[u] = W[u][0]
    for s, u, ks in spec.plan.expand:
        w = W[u - 1]
        acc = 0.0
        for k in ks:  # ascending
            if k > len(w):
                break
            acc = acc + Q[(k, s)] * w[k - 1]
        out[s - 1] = acc
    return out.T


def _inverse(spec: AlgebraSpec, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse (N, n) of the elements with coefficients coeffs (N, n),
    with no check that their idempotent coefficients x_u are nonzero, by
    forward substitution: y_u = 1 / x_u, then in ascending s
    y_s = 0.0 - y_{u_s} (T_s y_{u_s} + sum gamma(r, k, s) T_k y_r) over the
    plan's solve terms, a gamma of 1 not multiplied.  The rows fill an (n, N)
    buffer, out when given (columns of a larger buffer, say); the result is
    its .T view."""
    if out is None:
        out = np.empty((spec.n, len(coeffs)), dtype=complex)
    for u in range(spec.m):
        out[u] = 1.0 / coeffs[:, u]
    for s, u, terms in spec.plan.solve:
        y = out[u - 1]
        acc = coeffs[:, s - 1] * y
        for r, k, g in terms:
            term = coeffs[:, k - 1] * out[r - 1]
            acc += term if g == 1 else term * g
        np.subtract(0.0, y * acc, out=out[s - 1])
    return out.T


def _resolvent_batch(frame: E3Frame, pts: np.ndarray, t) -> np.ndarray:
    """Resolvent (N, n) at points (N, 3); t is one complex or one per point
    (N,): the inverse of t e1 - zeta, which is zeta at -p with t added to
    its idempotent coefficients.  A non-finite point or t raises ValueError."""
    spec = frame.spec
    shifted = _zeta_coeffs(frame, -_finite(pts))
    t = np.asarray(t, dtype=complex).reshape(-1, 1)  # one row, or one per point
    if not np.isfinite(t).all():
        raise ValueError(f"t = {complex(t[~np.isfinite(t)][0])} is not finite")
    d = shifted[:, : spec.m]
    d += t
    bad = np.abs(d) < _POLE_TOL * (1 + np.abs(t))
    if bad.any():
        i, u = np.argwhere(bad)[0]
        raise SingularityError(f"t = {complex(np.broadcast_to(t, d.shape)[i, u])} hits "
                               f"the pole xi_{u + 1}", u=int(u) + 1)
    return _inverse(spec, shifted)


def resolvent_at(t: complex, frame: E3Frame, p) -> AlgElement:
    """(t e1 - zeta)^{-1} by forward substitution (see _inverse)."""
    return AlgElement(frame.spec, _resolvent_batch(frame, _one(p), complex(t))[0])


def _invertible_zeta(frame: E3Frame, pts) -> np.ndarray:
    """zeta's coefficients (N, n) at points (N, 3), under the one pole rule
    of the closed forms of zeta^{-1}: a point with a non-finite coordinate
    raises ValueError (geometry._finite), and one with some |xi_u| below
    1e-13 (1 + its own |p|) NonInvertibleError, at any finite magnitude."""
    pts = _finite(pts)
    zc = _zeta_coeffs(frame, pts)
    # the test scaled by s = 2^-e <= 1, e the exponent of p's largest |coordinate|:
    # |xi_u| s < 1e-13 (s + |s p|) is exact, so it decides as the unscaled test
    # wherever that one's |p| is finite, and |s p| < 2 does not overflow
    s = np.ldexp(1.0, -np.maximum(np.frexp(np.max(np.abs(pts), axis=1))[1], 0))[:, None]
    x, y, z = (pts * s).T
    # |p| as np.linalg.norm(pts, axis=-1) sums it, bit for bit, without its copies
    bound = _POLE_TOL * (s + np.sqrt(x * x + y * y + z * z)[:, None])
    bad = np.abs(zc[:, : frame.spec.m]) * s < bound
    if bad.any():
        u = int(np.argwhere(bad)[0, 1]) + 1
        raise NonInvertibleError(f"point lies on line L_{u} (xi_{u} = 0)", u=u)
    return zc


def _zeta_inverse_batch(frame: E3Frame, pts: np.ndarray) -> np.ndarray:
    """zeta^{-1} (N, n) at points (N, 3), under _invertible_zeta's checks."""
    return _inverse(frame.spec, _invertible_zeta(frame, pts))


def zeta_inverse_closed(frame: E3Frame, p) -> AlgElement:
    """zeta^{-1} by forward substitution (the production inverse on E3)."""
    return AlgElement(frame.spec, _zeta_inverse_batch(frame, _one(p))[0])
