"""The nilpotent part's one kernel, and from it zeta^{-1}, t e1 - zeta's
inverse and the monogenic representation on E3.

An element c with idempotent coefficients x_u and nilpotent ones T_s is
D + N, D = sum x_u I_u and N = sum T_s I_s nilpotent.  N v has no
idempotent row; its row s is T_s v_{u_s} + sum gamma(r, k, s) T_k v_r over
r, k < s, the plan's solve terms (_nilpotent_row).  On it are built:

- the inverse.  c y = 1 is unit lower triangular, solved by forward
  substitution (Higham, Accuracy and Stability of Numerical Algorithms,
  ch. 8): y_u = 1 / x_u, y_s = 0.0 - y_{u_s} (N y)_s in ascending s, for
  zeta (xi_u = x + y a_u + z b_u, T_s = y a_s + z b_s) and for t e1 - zeta
  (t - xi_u, -T_s).  It forms no power of 1/x_u, so nothing overflows
  before the result does.  The 0.0 - makes every zero +0.0 (without it,
  invert --fixture A5 --frame in_S reports a -0.0).
- the representation.  With contour moments W_u[k] of F_u at xi_u,
  Phi(zeta) = sum_k w_k N^(k-1), w_k = sum_u W_u[k] I_u, plus the G_s
  terms' sum_s W_s[k] I_s (Hille & Phillips' holomorphic calculus;
  Plaksa & Shpakivskyi, 2016), by Horner: acc = w_k + N acc (_horner).

Every kernel takes one batch axis, points (N, 3) and coefficients (N, n),
held as (n, N) rows inside, so numpy's inner loops run over the N points;
_inverse and _horner return .T views, as geometry._zeta_coeffs does.

One point and many take one arithmetic path: every product is a fresh
array, and a sum run in place rounds alike on any batch.  So a point's bits
do not depend on its batch, and the public single-point functions pass a
batch of one (geometry._one).  A kernel result is bound to a name before it
multiplies: numpy computes a product whose right operand is a temporary of
256 KiB or more (16385 points and up) in place, as temporary *= left, and
its complex multiply is not bitwise commutative.  Every guard decides per
point, so neither does a point's outcome.
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


def _nilpotent_row(coeffs: np.ndarray, rows, s: int, u: int, terms) -> np.ndarray:
    """Row s of N v, a fresh array (N,): T_s v_{u_s} + sum gamma T_k v_r over
    the plan's solve terms (r, k, gamma) of s, u = u_s, a gamma of 1 not
    multiplied.  coeffs (N, n) holds T_s in column s - 1, and rows[j - 1] is
    row j of v, an array (N,)."""
    acc = coeffs[:, s - 1] * rows[u - 1]
    for r, k, g in terms:
        term = coeffs[:, k - 1] * rows[r - 1]
        acc += term if g == 1 else term * g
    return acc


def _inverse(spec: AlgebraSpec, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse (N, n) of the elements with coefficients coeffs (N, n),
    with no check that their idempotent coefficients x_u are nonzero, by
    forward substitution: y_u = 1 / x_u, then in ascending s
    y_s = 0.0 - y_{u_s} (N y)_s.  The rows fill an (n, N) buffer, out when
    given (columns of a larger buffer, say); the result is its .T view."""
    if out is None:
        out = np.empty((spec.n, len(coeffs)), dtype=complex)
    for u in range(spec.m):
        out[u] = 1.0 / coeffs[:, u]
    for s, u, terms in spec.plan.solve:
        acc = _nilpotent_row(coeffs, out, s, u, terms)
        np.subtract(0.0, out[u - 1] * acc, out=out[s - 1])
    return out.T


def _horner(spec: AlgebraSpec, coeffs: np.ndarray, w) -> np.ndarray:
    """sum_k w_k N^(k-1) (N, n), N the nilpotent part of the elements with
    coefficients coeffs (N, n), by Horner: acc = w_K, then acc = w_k + N acc.
    w[j - 1] lists coefficient j of w_1, w_2, ... (arrays (N,)), zero past
    its end (a polynomial's moments stop at its degree; a row without G_s has
    none).  Each step fills the nilpotent rows in descending s, reading rows
    r < s and u_s of the previous acc, but no row s followed by more steps
    than its plan height, then the idempotent rows, w_k's.  Returns a .T
    view."""
    K, zero = max(map(len, w)), np.zeros(len(coeffs), dtype=complex)
    rows = [wj[K - 1] if len(wj) == K else zero for wj in w]
    for k in range(K - 1, 0, -1):
        for (s, u, terms), height in zip(reversed(spec.plan.solve), reversed(spec.plan.heights)):
            if height >= k - 1:
                rows[s - 1] = _nilpotent_row(coeffs, rows, s, u, terms)
                if k <= len(w[s - 1]):
                    rows[s - 1] += w[s - 1][k - 1]
        for u in range(spec.m):
            rows[u] = w[u][k - 1] if k <= len(w[u]) else zero
    return np.array(rows).T


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


def _exponents(pts: np.ndarray) -> np.ndarray:
    """e (N,) per point (N, 3): the exponent of its largest |coordinate|
    (np.frexp), clamped at 0, so 2^-e p has coordinates below 1.  A form
    homogeneous in p, evaluated at 2^-e p and scaled back, keeps its bits
    wherever no intermediate leaves the normal range: the scaling is exact."""
    return np.maximum(np.frexp(np.abs(pts).max(axis=1))[1], 0)


def _invertible_zeta(frame: E3Frame, pts) -> np.ndarray:
    """zeta's coefficients (N, n) at points (N, 3), under the one pole rule
    of the closed forms of zeta^{-1}: a point with a non-finite coordinate
    raises ValueError (geometry._finite), and one with some |xi_u| below
    1e-13 (1 + its own |p|) NonInvertibleError, at any finite magnitude."""
    pts = _finite(pts)
    zc = _zeta_coeffs(frame, pts)
    # the test scaled by s = 2^-e (_exponents): |xi_u| s < 1e-13 (s + |s p|)
    # decides as the unscaled test wherever that one's |p| is finite
    s = np.ldexp(1.0, -_exponents(pts))[:, None]
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
