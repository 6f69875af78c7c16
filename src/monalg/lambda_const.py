"""The algebra-valued constant lambda: the loop integral of zeta^{-1} d zeta
around a curve embracing the non-invertibility lines once.

The sigma forms are the coefficients of zeta^{-1} d zeta (sigma_k is
coefficient k), so lambda's semisimple coefficients are always 2 pi i and its
nilpotent ones are the loop integrals of the sigma forms, which vanish exactly
when those forms are total differentials.  This module computes lambda
numerically, evaluates the sigma forms in closed differential-representation
form, checks the structural exactness criteria, and measures the Cauchy
theorem/formula residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    AlgElement,
    NonInvertibleError,
    _SHORTHAND_OFFSETS,
    multiply,
    norm_euclid,
)
from .geometry import E3Frame, _finite, _one, _zeta_coeffs, xi_values
from .integration import (
    Curve3,
    _assemble,
    _eval_field,
    _integrate_values,
    _node_steps,
)
from .monogenic import MonogenicSpec, _rep_values
from .resolvent import _inverse, _invertible_zeta, _zeta_inverse_batch

__all__ = [
    "EmbraceError",
    "LambdaResult",
    "SigmaForms",
    "ExactnessReport",
    "winding_number",
    "lambda_numeric",
    "atilde_closed",
    "sigma_closed",
    "sigma_direct",
    "exactness_conditions",
    "theorem8_products",
    "cauchy_theorem_residuals",
    "cauchy_formula_residuals",
]


class EmbraceError(AlgebraError):
    """The curve does not embrace the non-invertibility set exactly once."""


# lambda_numeric's is_2pi_i holds when |lambda - 2 pi i| <= this times 1 + |lambda|
_IS_2PI_I_TOL = 1e-6

# Points per block of a loop's zeta and zeta^{-1} (_loop_inverse): the n = 5
# expansion keeps about 30 complex temporaries of a block's length, which at
# 4096 nodes is about 2 MiB, a core's L2 cache on the benchmark host.
_LOOP_BLOCK = 4096


def winding_number(frame: E3Frame, curve: Curve3, u: int) -> int:
    """Discrete winding of t -> xi_u(curve(t)) about zero, u in 1..m, around
    a closed curve (an open arc has no winding number)."""
    if not 1 <= u <= frame.spec.m:
        raise AlgebraError(f"functional index {u} outside 1..{frame.spec.m}")
    if not curve.closed:
        raise EmbraceError("a winding number requires a closed curve")
    return _winding(xi_values(frame, curve.points)[:, u - 1], u)


def _winding(w: np.ndarray, u: int, abs_w: np.ndarray | None = None) -> int:
    """winding_number from the values w of xi_u at the curve's nodes (the
    winding about another point c is that of xi_u - c).

    EmbraceError if some |w| < 1e-10.  Otherwise counts the signed crossings
    of the positive real axis by the closed polyline through w: +1 where an
    edge goes from Im w <= 0 to Im w > 0 with 0 on its left (cross product
    Re w0 Im w1 - Im w0 Re w1 > 0), -1 where one goes back down with 0 on
    its right.  That is the polyline's winding number, which the sum of the
    principal angles of w[i+1] / w[i] also is: each edge misses 0 and
    subtends less than pi.  A caller that holds |w| passes it as abs_w.
    """
    if abs_w is None:
        abs_w = np.abs(w)
    if np.min(abs_w) < 1e-10:
        raise EmbraceError(f"xi_{u} passes within 1e-10 of 0")
    below = w.imag <= 0
    idx = np.flatnonzero(below[:-1] != below[1:])
    w0, w1 = w[idx], w[idx + 1]
    cross = w0.real * w1.imag - w0.imag * w1.real
    up = below[idx]
    return int(np.count_nonzero(up & (cross > 0)) - np.count_nonzero(~up & (cross < 0)))


@dataclass(frozen=True)
class LambdaResult:
    """lambda_numeric's result.  sigma_integrals are lambda's nilpotent
    coefficients, keyed m+1..n: the loop integrals of the sigma forms."""

    lambda_: AlgElement
    sigma_integrals: dict[int, complex]
    radius: float
    node_count: int
    is_2pi_i: bool
    tol: float
    winding: dict[int, int]


def lambda_numeric(frame: E3Frame, circle: Curve3) -> LambdaResult:
    """Loop integral of zeta^{-1} d zeta with embrace and invertibility preconditions
    (see _loop_inverse); tol is _IS_2PI_I_TOL (1 + |lambda|)."""
    spec = frame.spec
    if not circle.closed:
        raise EmbraceError("lambda requires a closed curve")
    winding, inv = _loop_inverse(frame, circle.points, circle.coord_scale)
    lam = _integrate_values(frame, inv, _node_steps(circle))
    tol = _IS_2PI_I_TOL * (1 + norm_euclid(lam))
    dev = float(np.linalg.norm(lam.coeffs - spec.unit_coeffs * (2j * np.pi)))
    return LambdaResult(
        lambda_=lam,
        sigma_integrals={k: complex(lam.coeffs[k - 1]) for k in range(spec.m + 1, spec.n + 1)},
        radius=circle.mean_radius,
        node_count=len(circle.points) - 1,
        is_2pi_i=bool(dev <= tol),
        tol=tol,
        winding=winding,
    )


def _loop_inverse(frame: E3Frame, pts: np.ndarray,
                  scale: float) -> tuple[dict[int, int], np.ndarray]:
    """The winding numbers {u: 1} and zeta^{-1} (N, n) at the nodes pts of a
    closed loop whose 1 + max |coordinate| is scale, after lambda's checks,
    in this order: every |xi_u| >= 1e-12 scale (NonInvertibleError), every
    |xi_u| >= 1e-10 (_winding's guard, EmbraceError), every xi_u winds once
    (EmbraceError).  So a node with 1e-12 scale <= |xi_u| < 1e-10 raises
    EmbraceError.  The margin implies _zeta_inverse_batch's pole test,
    1e-13 (1 + |p|) <= 1e-13 (1 + sqrt(3) (scale - 1)) < 1e-12 scale, so
    the inverse is expanded unchecked.

    zeta and its inverse are filled block by block (_loop_blocks), each
    block written into its columns of one (n, N) buffer, so that the
    expansion's temporaries stay cache-sized.  One (N, n) .T view of zeta's
    buffer serves the three checks; the inverse's .T view is returned, as
    _inverse returns its own.  The kernels take one arithmetic path for any
    batch, so the result is bit for bit a single pass's."""
    spec, m = frame.spec, frame.spec.m
    blocks = _loop_blocks(len(pts))
    rows = np.empty((spec.n, len(pts)), dtype=complex)
    for blk in blocks:
        _zeta_coeffs(frame, pts[blk], rows[:, blk])
    zc = rows.T
    xi = zc[:, :m]
    abs_xi = np.abs(xi)
    if np.min(abs_xi) < 1e-12 * scale:
        u = int(np.argmin(np.min(abs_xi, axis=0))) + 1
        raise NonInvertibleError(f"curve node on or near line L_{u}", u=u)
    winding = {}
    for u in range(1, m + 1):
        wu = _winding(xi[:, u - 1], u, abs_xi[:, u - 1])
        winding[u] = wu
        if wu != 1:
            raise EmbraceError(f"curve does not embrace once: winding of xi_{u} is {wu}")
    inv = np.empty_like(rows)
    for blk in blocks:
        _inverse(spec, zc[blk], inv[:, blk])
    return winding, inv.T


def _loop_blocks(count: int) -> list[slice]:
    """max(1, count // _LOOP_BLOCK) consecutive slices covering count points,
    each _LOOP_BLOCK long but the last, which takes the remainder: a short
    tail would add one more call, of fixed cost, per loop."""
    k = max(1, count // _LOOP_BLOCK)
    starts = [i * _LOOP_BLOCK for i in range(k)]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [count])]


# ---------------------------------------------------------------------------
# closed forms for the first four nilpotent coefficients and sigma forms
# ---------------------------------------------------------------------------

def _atilde_batch(spec: AlgebraSpec, zc: np.ndarray) -> np.ndarray:
    """The displayed closed forms for the zeta^{-1} coefficients at indices m+1..m+4.

    zeta's coefficients zc (N, n) (geometry._zeta_coeffs) -> (N, min(4, n - m)),
    column i holding index m+1+i.
    Implemented independently of the Q recurrence as a cross-check of the inverse it gives.
    The final T-degree-4 term of the m+4 coefficient follows the recurrence
    (the printed sources carry a degree typo there).

    Coefficient m+j is -T_{m+j} / x^2 plus the displayed numerators over
    x^3 .. x^(j+1), with x = xi_{u_{m+j}} and T_i = T_{m+i}.  Each numerator
    is grouped by the rows of its quadratic form: R = C T1 + D T2, and M, P, L
    are (E, F, G), (F, H, J), (G, J, K) dotted with (T1, T2, T3).  The m+3
    numerators are N3 = T1 (B2 T1 + C T2) + T2 R and N4 = A T1^2 R; the m+4
    ones are T1 M + T2 P + T3 L, A T1^2 P + L N3 and L N4.
    """
    m = spec.m
    cols = min(4, spec.n - m)
    if cols == 0:
        return np.zeros((len(zc), 0), dtype=complex)
    # xi_u = zc[:, u - 1] and T_s = zc[:, s - 1]
    x = zc[:, [spec.u_map[s] - 1 for s in range(m + 1, m + cols + 1)]]
    c = spec.plan.shorthands
    A, B2, C, D = c["A"], c["B2"], c["C"], c["D"]
    E, F, G, H, J, K = c["E"], c["F"], c["G"], c["H"], c["J"], c["K"]
    # nums[:, j, d] is the numerator of coefficient m+1+j over x^(d+2)
    nums = np.zeros((len(zc), cols, cols), dtype=complex)
    nums[:, :, 0] = -zc[:, m: m + cols]
    t1, t2, t3 = (zc[:, m + i] if i < cols else None for i in range(3))
    if cols >= 2:
        a1 = A * t1 * t1
        nums[:, 1, 1] = a1
    if cols >= 3:
        R = C * t1 + D * t2
        n3 = t1 * (B2 * t1 + C * t2) + t2 * R
        n4 = a1 * R
        nums[:, 2, 1] = n3
        nums[:, 2, 2] = -n4
    if cols >= 4:
        M = E * t1 + F * t2 + G * t3
        P = F * t1 + H * t2 + J * t3
        L = G * t1 + J * t2 + K * t3
        nums[:, 3, 1] = t1 * M + t2 * P + t3 * L
        nums[:, 3, 2] = -(a1 * P + L * n3)
        nums[:, 3, 3] = L * n4
    # x^2 .. x^(cols+1) by repeated multiplication, like the recurrence's factors
    xp = np.empty_like(nums)
    xp[..., 0] = x * x
    for d in range(1, cols):
        xp[..., d] = xp[..., d - 1] * x
    return (nums / xp).sum(axis=-1)


def atilde_closed(frame: E3Frame, p) -> dict[int, complex]:
    """_atilde_batch at one point, keyed by the 1-based index of each
    coefficient, under resolvent._invertible_zeta's checks."""
    row = _atilde_batch(frame.spec, _invertible_zeta(frame, _one(p)))[0]
    return {frame.spec.m + 1 + i: complex(v) for i, v in enumerate(row)}


@dataclass(frozen=True)
class SigmaForms:
    """sigma_k evaluated on a tangent, split into exact differential and remainder."""

    total: dict[int, complex]
    exact: dict[int, complex]
    remainder: dict[int, complex]


def _diff_monomial(coeff, powers, xi_pow, T, dT, xi, dxi):
    """Differential of coeff * prod_i T_{m+i}^{e_i} / xi^j applied to a tangent."""
    mono = coeff
    for i, e in powers.items():
        mono = mono * T[i - 1] ** e
    dmono = 0.0
    for i, e in powers.items():
        partial = coeff * e * T[i - 1] ** (e - 1)
        for i2, e2 in powers.items():
            if i2 != i:
                partial = partial * T[i2 - 1] ** e2
        dmono = dmono + partial * dT[i - 1]
    return dmono / xi ** xi_pow - xi_pow * mono * dxi / xi ** (xi_pow + 1)


def _antiderivative_terms(c) -> dict[int, list]:
    """Term lists (coeff, {T-offset: power}, xi-power) of the exact parts."""
    A, B2, C, D = c["A"], c["B2"], c["C"], c["D"]
    E, F, G, H, J, K = c["E"], c["F"], c["G"], c["H"], c["J"], c["K"]
    return {
        1: [(1.0, {1: 1}, 1)],
        2: [(1.0, {2: 1}, 1), (-A / 2, {1: 2}, 2)],
        3: [
            (1.0, {3: 1}, 1),
            (-B2 / 2, {1: 2}, 2),
            (-C, {1: 1, 2: 1}, 2),
            (-D / 2, {2: 2}, 2),
            (A * C / 3, {1: 3}, 3),
        ],
        4: [
            (1.0, {4: 1}, 1),
            (-E / 2, {1: 2}, 2),
            (-G, {1: 1, 3: 1}, 2),
            (-F, {1: 1, 2: 1}, 2),
            (-H / 2, {2: 2}, 2),
            (-J, {2: 1, 3: 1}, 2),
            (-K / 2, {3: 2}, 2),
            ((A * F + B2 * G) / 3, {1: 3}, 3),
            (D * J / 3, {2: 3}, 3),
            (-A * C * G / 4, {1: 4}, 4),
        ],
    }


def _remainder_terms(c) -> dict[int, list]:
    """Remainder pieces (coeff, {T-offset: power}, xi-power, g-index); each g(r)
    stands for dT_{m+r} - (T_{m+r}/xi) dxi."""
    A, B2, C, D = c["A"], c["B2"], c["C"], c["D"]
    G, H, J, K = c["G"], c["H"], c["J"], c["K"]
    return {
        3: [(A * D, {1: 2}, 3, 2)],
        4: [
            (A * H, {1: 2}, 3, 2),
            (A * J, {1: 2}, 3, 3),  # pairs with g(3); printed label (2,2) is a typo
            (B2 * J, {1: 2}, 3, 2),
            (B2 * K, {1: 2}, 3, 3),
            (2 * C * G, {1: 1, 2: 1}, 3, 1),
            (2 * C * J, {1: 1, 2: 1}, 3, 2),
            (2 * C * K, {1: 1, 2: 1}, 3, 3),
            (-A * C * J, {1: 3}, 4, 2),
            (-A * C * K, {1: 3}, 4, 3),
            (D * G, {2: 2}, 3, 1),
            (D * K, {2: 2}, 3, 3),
            (-A * D * G, {1: 2, 2: 1}, 4, 1),
            (-A * D * J, {1: 2, 2: 1}, 4, 2),
            (-A * D * K, {1: 2, 2: 1}, 4, 3),
        ],
    }


@lru_cache(maxsize=32)
def _sigma_terms(shorthands: bytes) -> tuple[dict, dict]:
    """_antiderivative_terms and _remainder_terms of the shorthand values
    whose bytes (as complex128, in _SHORTHAND_OFFSETS order) are given: built
    once per algebra and shared, so never mutated.  Keyed by value, with
    signed zeros apart.  A shorthand past n, 0.0 in the plan, comes back as
    0j; only the terms of offsets past n - m, which sigma_closed does not
    read, contain one."""
    c = dict(zip(_SHORTHAND_OFFSETS, np.frombuffer(shorthands, dtype=complex).tolist()))
    return _antiderivative_terms(c), _remainder_terms(c)


def sigma_closed(frame: E3Frame, p, dp) -> SigmaForms:
    """sigma_{m+1}..sigma_{m+4} on the tangent dp, via the split differential
    representation: d(antiderivative) plus structure-constant-weighted
    remainders.  p is checked as by resolvent._invertible_zeta."""
    spec = frame.spec
    n, m = spec.n, spec.m
    zc, dzc = _invertible_zeta(frame, _one(p))[0], _zeta_coeffs(frame, _one(dp))[0]
    xi_all, T, dxi_all, dT = zc[:m], zc[m:], dzc[:m], dzc[m:]
    c = spec.plan.shorthands
    anti, rem = _sigma_terms(np.fromiter(c.values(), dtype=complex, count=len(c)).tobytes())

    total: dict[int, complex] = {}
    exact: dict[int, complex] = {}
    remainder: dict[int, complex] = {}
    for off in range(1, min(4, n - m) + 1):
        k = m + off
        uk = spec.u_map[k]
        xi, dxi = complex(xi_all[uk - 1]), complex(dxi_all[uk - 1])
        ex = 0.0
        for coeff, powers, xi_pow in anti[off]:
            if coeff != 0:
                ex = ex + _diff_monomial(coeff, powers, xi_pow, T, dT, xi, dxi)
        rm = 0.0
        for coeff, powers, xi_pow, gidx in rem.get(off, []):
            if coeff == 0:
                continue
            mono = coeff
            for i, e in powers.items():
                mono = mono * T[i - 1] ** e
            g = dT[gidx - 1] - T[gidx - 1] * dxi / xi
            rm = rm + mono / xi ** xi_pow * g
        exact[k] = complex(ex)
        remainder[k] = complex(rm)
        total[k] = complex(ex + rm)
    return SigmaForms(total=total, exact=exact, remainder=remainder)


def sigma_direct(frame: E3Frame, p, dp) -> dict[int, complex]:
    """sigma_k on the tangent dp at p for every k: the coefficients of
    zeta^{-1} d zeta there, _assemble of outer(dp, zeta^{-1}(p)), the
    inverse by the recurrence."""
    atil = _zeta_inverse_batch(frame, _one(p))[0]
    vals = _assemble(frame, np.outer(np.asarray(dp, dtype=float), atil)).coeffs
    return {k: complex(v) for k, v in enumerate(vals, start=1)}


# ---------------------------------------------------------------------------
# exactness criteria
# ---------------------------------------------------------------------------

@dataclass
class ExactnessReport:
    theorem5: bool
    theorem6: bool
    theorem7: bool
    theorem8: bool
    theorem8_violations: list[tuple[str, complex]]
    theorem9: bool
    theorem10: bool
    theorem10_condition1: bool
    theorem10_condition2: str | None
    predicted_2pi_i: bool = field(init=False)

    def __post_init__(self):
        self.predicted_2pi_i = (
            self.theorem5 or self.theorem6 or self.theorem7
            or self.theorem8 or self.theorem9 or self.theorem10
        )


# the fourteen products of theorem 8, each a tuple of shorthand names
_PRODUCT_DEFS = [
    ("A", "D"), ("A", "H"), ("B2", "J"), ("B2", "K"), ("C", "G"), ("C", "J"), ("C", "K"),
    ("A", "C", "J"), ("A", "C", "K"), ("D", "G"), ("D", "K"),
    ("D", "A", "G"), ("D", "A", "J"), ("D", "A", "K"),
]


def theorem8_products(spec: AlgebraSpec) -> list[tuple[str, complex]]:
    """The fourteen structure-constant products whose vanishing guarantees
    exactness of the sigma forms when the radical has dimension four."""
    c = spec.plan.shorthands
    m = spec.m
    out = []
    for factors in _PRODUCT_DEFS:
        value = 1.0 + 0j
        names = []
        for fac in factors:
            value *= c[fac]
            i, j, k = _SHORTHAND_OFFSETS[fac]
            names.append(f"gamma({m + i},{m + j},{m + k})")
        out.append(("*".join(names), complex(value)))
    return out


def exactness_conditions(frame: E3Frame) -> ExactnessReport:
    """Structural predicates guaranteeing lambda = 2 pi i (each sufficient)."""
    spec = frame.spec
    n, m = spec.n, spec.m
    dim_n = n - m

    t5 = dim_n == 0
    nil_block = spec.table[m:, m:, :]
    t6 = bool(np.all(nil_block == 0))
    t7 = dim_n <= 3

    t8 = False
    violations: list[tuple[str, complex]] = []
    if dim_n == 4:
        for name, value in theorem8_products(spec):
            if abs(value) > 1e-14:
                violations.append((name, value))
        t8 = not violations

    t9 = bool(np.all(frame.a[m:] == 0) and np.all(frame.b[m:] == 0))

    cond1 = False
    cond2 = None
    t10 = False
    if dim_n == 4:
        cond1 = frame.a[m] == 0 and frame.b[m] == 0
        if frame.a[m + 1] == 0 and frame.b[m + 1] == 0:
            cond2 = "m+2"
        elif frame.a[m + 2] == 0 and frame.b[m + 2] == 0:
            cond2 = "m+3"
        t10 = bool(cond1 and cond2 is not None)

    return ExactnessReport(
        theorem5=t5, theorem6=t6, theorem7=t7,
        theorem8=t8, theorem8_violations=violations,
        theorem9=t9, theorem10=t10,
        theorem10_condition1=bool(cond1), theorem10_condition2=cond2,
    )


# ---------------------------------------------------------------------------
# Cauchy theorem and formula residuals
# ---------------------------------------------------------------------------

def _values(phis: dict, frame: E3Frame, pts: np.ndarray, where: str):
    """Yield (key, values at pts) for each function of phis, a field or a
    MonogenicSpec, one at a time, so that a caller is done with each batch
    before the next is made.  The MonogenicSpecs share one _rep_values of the
    points, with the representation's default contour rule; the ValueError of
    its range check passes through, and any function's failure raises
    FieldEvaluationError naming `where`."""
    specs = [phi for phi in phis.values() if isinstance(phi, MonogenicSpec)]
    reps = _rep_values(specs, frame, pts) if specs else None
    for key, phi in phis.items():
        field = (lambda _: next(reps)) if isinstance(phi, MonogenicSpec) else phi
        yield key, _eval_field(field, pts, where)


def cauchy_theorem_residuals(phis: dict, frame: E3Frame, curve: Curve3) -> dict:
    """The norm of each function's loop integral on one curve (zero for a
    monogenic one), keyed as phis.  They share the curve's steps, and the
    MonogenicSpecs one _rep_values of its nodes (see _values); for another
    node count, pass the field representation_field(phi, frame, nodes)."""
    steps = _node_steps(curve)
    return {key: norm_euclid(_integrate_values(frame, vals, steps))
            for key, vals in _values(phis, frame, curve.points, "curve")}


def cauchy_formula_residuals(phis: dict, frame: E3Frame, p0, curve: Curve3) -> dict:
    """norm(lambda * Phi(zeta_0) - loop integral of Phi(zeta)(zeta - zeta_0)^{-1} d zeta)
    for each function Phi of phis, keyed alike.  They share one lambda, the loop
    integral of (zeta - zeta_0)^{-1} on the curve's steps under lambda_numeric's
    checks, the node weights built from the same, and the MonogenicSpecs one
    _rep_values of the nodes and one of p0 (checked by geometry._finite
    first), each as in cauchy_theorem_residuals."""
    if not curve.closed:
        raise EmbraceError("lambda requires a closed curve")
    p0 = _finite(_one(p0))
    loop = curve.points - p0
    _, inv = _loop_inverse(frame, loop, float(1 + np.max(np.abs(loop))))
    steps = _node_steps(curve)
    lam = _integrate_values(frame, inv, steps)
    weights = _formula_weights(steps, inv)
    phi0 = dict(_values(phis, frame, p0, "p0"))
    return {key: _formula_residual(frame, lam, phi0[key][0], vals, weights)
            for key, vals in _values(phis, frame, curve.points, "curve")}


def _formula_weights(steps: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Node weights d_i (x) (zeta - zeta_0)^{-1}_i, (3n, N), from a curve's
    steps d (_node_steps) and the inverse (N, n) at its nodes: row d*n + k
    holds step component d times coefficient k.  Every integrand of the
    formula on this curve and p0 contracts against the same weights."""
    # one row of inverse coefficients times one step column at a time: a
    # single broadcast product over the strided steps.T is about 10x slower
    weights = np.empty((3,) + inv.T.shape, dtype=complex)
    for d in range(3):
        np.multiply(inv.T, steps[:, d], out=weights[d])
    return weights.reshape(-1, len(steps))


def _formula_residual(frame: E3Frame, lam: AlgElement, phi0: np.ndarray, vals: np.ndarray,
                      weights: np.ndarray) -> float:
    """A cauchy_formula_residuals entry from node data: Phi(zeta_0) (n,), Phi (N, n) at
    the curve's nodes and the weights of _formula_weights.

    The integrand's steps sum to sum_i d_i Phi_i (zeta - zeta_0)^{-1}_i, which
    is bilinear in the two factors: one GEMM gives the sums
    sum_i d_i (zeta - zeta_0)^{-1}_{i,k} Phi_{i,j}, (3, n, n), and the table
    multiplies each (k, j) pair once, instead of once per node.
    """
    spec = frame.spec
    n = spec.n
    sums = (weights @ vals).reshape(3, n * n)  # row d, column k*n + j
    S = sums @ spec.table.transpose(1, 0, 2).reshape(n * n, n)  # I_{j+1} I_{k+1}, summed
    return norm_euclid(multiply(lam, AlgElement(spec, phi0)) - _assemble(frame, S))
