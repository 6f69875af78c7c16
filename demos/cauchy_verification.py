"""Monogenic functions and the three integral theorems, verified numerically.

A monogenic function is assembled from per-idempotent holomorphic data: each
F_u acts through a contour integral against the resolvent (te_1 - zeta)^{-1}.
The script builds polynomial and truncated-exponential examples, then checks:
the loop integral of a monogenic function vanishes (Cauchy theorem), the
weighted point evaluation lambda * Phi(zeta_0) equals the loop integral of
Phi(zeta)(zeta - zeta_0)^{-1} d zeta (Cauchy formula), triangle boundary
integrals vanish for monogenic fields and not otherwise (Morera direction),
and the Cauchy-Riemann couplings hold to second order in the difference step.

Run:  python demos/cauchy_verification.py
"""

import numpy as np

from monalg import (
    HoloFunction,
    MonogenicSpec,
    cauchy_formula_residuals,
    cauchy_riemann_residual,
    cauchy_theorem_residuals,
    circle_curve,
    gateaux_derivative_fd,
    load_fixture,
    make_zeta,
    morera_functional,
    multiply,
    norm_euclid,
    representation_field,
    zeta_field,
    zeta_power_field,
)

a5 = load_fixture("A5")
frame = a5.frames["harmonic"]
spec = a5.algebra

# ---------------------------------------------------------------------------
# building monogenic functions from holomorphic data
# ---------------------------------------------------------------------------
identity = MonogenicSpec(F=(HoloFunction("polynomial", (0, 1)),))
square = MonogenicSpec(F=(HoloFunction("polynomial", (0, 0, 1)),))
exp_like = MonogenicSpec(F=(HoloFunction.exp_series(14),))
examples = {"t": identity, "t^2": square, "exp series": exp_like}

p = (0.5, 0.3, -0.4)
z = make_zeta(frame, p)
from monalg import eval_representation
print("|rep(t) - zeta|        =", norm_euclid(eval_representation(identity, frame, p) - z))
print("|rep(t^2) - zeta^2|    =", norm_euclid(eval_representation(square, frame, p) - multiply(z, z)))

# ---------------------------------------------------------------------------
# Cauchy theorem: loop integrals of monogenic functions vanish
# ---------------------------------------------------------------------------
loop = circle_curve(center=(0.05, -0.04, 0.35), radius=0.8, nodes=4096)
for name, r in cauchy_theorem_residuals(examples, frame, loop).items():
    print(f"Cauchy theorem residual, F = {name:10s}: {r:.2e}")

# ---------------------------------------------------------------------------
# Cauchy formula: lambda * Phi(zeta_0) = loop integral of Phi (zeta-zeta_0)^{-1} d zeta
# ---------------------------------------------------------------------------
p0 = (0.31, 0.17, 0.45)
curve = circle_curve(center=p0, radius=0.9, nodes=4096)
for name, r in cauchy_formula_residuals(examples, frame, p0, curve).items():
    print(f"Cauchy formula residual, F = {name:10s}: {r:.2e}")

# ---------------------------------------------------------------------------
# Morera direction: triangle boundary integrals detect non-monogenicity
# ---------------------------------------------------------------------------
tri = [(0.2, 0.1, 0.0), (1.1, 0.3, 0.1), (0.4, 1.2, -0.2)]
good = norm_euclid(morera_functional(zeta_power_field(frame, 2), tri, frame, per_edge=4096))


def non_monogenic(pts):
    out = np.zeros(pts.shape[:-1] + (spec.n,), dtype=complex)
    out[..., 0] = pts[..., 0]
    out -= pts[..., 1, None] * frame.a
    return out


bad = norm_euclid(morera_functional(non_monogenic, [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                                    frame, per_edge=512))
print(f"\nMorera functional: monogenic {good:.2e} vs x I_1 - y e2 field {bad:.2e}")

# ---------------------------------------------------------------------------
# derivatives: the difference quotient recovers h * Phi', and the
# Cauchy-Riemann residual shrinks at second order in the step
# ---------------------------------------------------------------------------
quot = gateaux_derivative_fd(zeta_field(frame), frame, p, (0.3, -0.8, 0.5), eps=1e-3)
print("\n|difference quotient of zeta - h| =",
      norm_euclid(quot - make_zeta(frame, (0.3, -0.8, 0.5))))

field = representation_field(exp_like, frame)
for h in (1e-3, 5e-4, 2.5e-4):
    r2, r3 = cauchy_riemann_residual(field, frame, p, h)
    print(f"CR residuals at h={h:.1e}: {r2:.3e}, {r3:.3e}")
