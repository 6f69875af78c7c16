"""Closed-form inversion on E3: one expansion inverts zeta and t e1 - zeta.

An element c with idempotent coefficients x_u and nilpotent ones T_s is
inverted from scalar data alone: the couplings B_{r,s} = sum_k T_k * (coeff
of I_s in I_r I_k) and one recurrence Q give
    c^{-1} = sum_u x_u^{-1} I_u
           + sum_s sum_k Q_{k,s} (-1)^{k+1} x_{u_s}^{-k} I_s.
_inverse does this for zeta, whose coefficients are xi_u = x + y a_u + z b_u
and T_s = y a_s + z b_s, and for t e1 - zeta, whose coefficients are
t - xi_u and -T_s: its Q_{k,s} is (-1)^{k+1} times zeta's, so the resolvent
    (t e1 - zeta)^{-1} = sum_u (t - xi_u)^{-1} I_u
                       + sum_s sum_k Q_{k,s} (t - xi_{u_s})^{-k} I_s
comes out term for term, bit for bit.  _power_factors forms each factor
(-1)^{k+1} / x^k with x^k accumulated by repeated multiplication: one
complex multiply and one divide per order.  The monogenic representation
reuses the expansion with contour moments as factors (see _expand).  All of
this is cross-checked against the dense linear-solve oracle in the tests.

The sums over the structure constants are fixed per algebra, so they are
not rediscovered per call: AlgebraSpec builds a CouplingPlan once, listing
the nonzero terms of each B_{r,s}, the products of the Q recurrence that are
not identically zero, and per idempotent the largest power k the expansion
reads, so that no factor x_u^{-k} and no moment is formed that no nonzero
Q_{k,s} multiplies.  _recurrences and _expand walk that plan and do only
array arithmetic; all-zero couplings share one zero array, and a coupling
that is one T_k with gamma = 1 takes one pass.  The plan keeps the scan's
order of operations, so results are bit for bit those of scanning every
gamma(r, k, s).

Every kernel takes one batch axis, points (N, 3) and coefficients (N, n),
held coefficient-major inside: zeta's coefficients, every B and Q, every
power factor and every row of the expansion is one contiguous array over
the points.  Each arithmetic step then runs numpy's inner loop over the N
points, not over k <= n as on node-major (N, k) arrays, whose columns are
strided slices.  geometry._zeta_coeffs (the rows of geometry._zeta_rows,
the only kernel from points to zeta) and _expand return the (N, n) .T
views of their (n, N) rows, so _recurrences reads xi = coeffs[:, :m] and
T = coeffs[:, m:] with each column contiguous.  The layout changes no bit
of any result.

One point and many take one arithmetic path: every sum of B, Q and the
expansion is acc = 0.0, then acc = acc + term, and x^k is the fresh product
xk * x.  So a point's bits do not depend on the size of its batch.  The 0.0
seed turns a sum of negative zeros into +0.0 (without it, invert --fixture
A5 --frame in_S reports a -0.0).  The public single-point functions pass a
batch of one (geometry._one) and take its row 0, so they give their row of
any batch.  Every guard decides per point, so a point's outcome does not
depend on the batch it is in either.
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


def _power_factors(x: np.ndarray, kmax: int) -> list[np.ndarray]:
    """[(-1)^{k+1} / x^k for k = 1..kmax], the inverse's factors.

    x^k is accumulated by repeated multiplication and divided into +-1 once.
    A complex x ** -k costs several times that multiply and divide, and is
    less accurate for k >= 2; (1/x)^k compounds the rounding of 1/x and is
    less accurate still.
    """
    out = [1.0 / x]
    xk = x
    for k in range(2, kmax + 1):
        xk = xk * x
        out.append(-1.0 / xk if k % 2 == 0 else 1.0 / xk)
    return out


def _expand(spec: AlgebraSpec, Q, W, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of sum_u W[u-1][0] I_u + sum_s sum_k Q_{k,s} W[u_s-1][k-1] I_s.

    W[u-1] lists the scalar factors (arrays (N,)) paired with the u-th
    idempotent coefficient x_u for k = 1..spec.plan.orders[u-1]:
    (-1)^{k+1} x_u^{-k} give the inverse (_inverse), contour moments give the
    monogenic representation.  W[u-1] may stop short of orders[u-1] (the
    moments of a polynomial stop at its degree): the factors past its end are
    zero.  Terms whose Q_{k,s} or whose factor is identically zero are skipped;
    adding those +-0 products to a sum seeded with 0.0 would change no bit.
    The coefficients fill an (n, N) buffer row by row; the result (N, n) is
    its .T view, not C-contiguous for N > 1.  The buffer is out when given
    (columns of a larger buffer, say), else a fresh one.
    """
    if out is None:
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
    with no check that their idempotent coefficients x_u are nonzero: the
    recurrence on their own coefficients, expanded with the factors
    (-1)^{k+1} x_u^{-k} (into the (n, N) rows out, when given; see _expand)."""
    x, _, _, Q = _recurrences(spec, coeffs)
    W = [_power_factors(x[:, u], kmax) for u, kmax in enumerate(spec.plan.orders)]
    return _expand(spec, Q, W, out)


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
    """(t e1 - zeta)^{-1} via the expansion in powers of (t - xi_{u_s})."""
    return AlgElement(frame.spec, _resolvent_batch(frame, _one(p), complex(t))[0])


def _invertible_zeta(frame: E3Frame, pts) -> np.ndarray:
    """zeta's coefficients (N, n) at points (N, 3), under the one pole rule
    of the closed forms of zeta^{-1}: a point with a non-finite coordinate
    raises ValueError (geometry._finite), and one with some |xi_u| below
    1e-13 (1 + its own |p|) NonInvertibleError."""
    pts = _finite(pts)
    zc = _zeta_coeffs(frame, pts)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    # |p| as np.linalg.norm(pts, axis=-1) sums it, bit for bit, without its copies
    bound = _POLE_TOL * (1 + np.sqrt(x * x + y * y + z * z))
    bad = np.abs(zc[:, : frame.spec.m]) < bound[:, None]
    if bad.any():
        u = int(np.argwhere(bad)[0, 1]) + 1
        raise NonInvertibleError(f"point lies on line L_{u} (xi_{u} = 0)", u=u)
    return zc


def _zeta_inverse_batch(frame: E3Frame, pts: np.ndarray) -> np.ndarray:
    """zeta^{-1} (N, n) at points (N, 3), under _invertible_zeta's checks."""
    return _inverse(frame.spec, _invertible_zeta(frame, pts))


def zeta_inverse_closed(frame: E3Frame, p) -> AlgElement:
    """zeta^{-1} from the resolvent expansion (the production inverse on E3)."""
    return AlgElement(frame.spec, _zeta_inverse_batch(frame, _one(p))[0])
