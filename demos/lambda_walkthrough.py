"""The loop constant lambda = integral of zeta^{-1} d zeta around an embracing circle.

Every semisimple coefficient of lambda is 2 pi i.  The nilpotent coefficients
are loop integrals of 1-forms sigma_k; they vanish exactly when those forms
are total differentials.  This script computes lambda for the bundled
fixtures, demonstrates loop-shape independence, and works through why the A5
fixture - often expected to produce lambda != 2 pi i - in fact gives exactly
2 pi i: on the circle's plane the non-exact part of every sigma_k vanishes
identically, and the closedness of zeta^{-1} d zeta does the rest.

Run:  python demos/lambda_walkthrough.py
"""

import numpy as np

from monalg import (
    Curve3,
    circle_curve,
    exactness_conditions,
    lambda_numeric,
    list_fixtures,
    load_fixture,
    norm_euclid,
    sigma_closed,
    theorem8_products,
    unit_element,
)

np.set_printoptions(precision=6, suppress=True)

# ---------------------------------------------------------------------------
# lambda across the catalog (default frames, unit circle in the xy plane)
# ---------------------------------------------------------------------------
print("lambda on the unit circle, per fixture:")
for name in list_fixtures():
    bundle = load_fixture(name)
    res = lambda_numeric(bundle.default_frame, circle_curve(nodes=2048))
    dev = norm_euclid(res.lambda_ - 2j * np.pi * unit_element(bundle.algebra))
    print(f"  {name:16s} |lambda - 2 pi i| = {dev:.2e}   is_2pi_i={res.is_2pi_i}")

# ---------------------------------------------------------------------------
# the A5 case in detail
# ---------------------------------------------------------------------------
a5 = load_fixture("A5")
frame = a5.frames["harmonic"]
res = lambda_numeric(frame, circle_curve(nodes=4096))
print("\nA5, harmonic frame: lambda coefficients")
print(" ", np.round(res.lambda_.coeffs, 10))
print("  sigma integrals:", {k: complex(np.round(v, 12)) for k, v in res.sigma_integrals.items()})

# The structure conditions guaranteeing exactness FAIL for A5 ...
rep = exactness_conditions(frame)
print("\nexactness predicates: T5..T10 =",
      [rep.theorem5, rep.theorem6, rep.theorem7, rep.theorem8, rep.theorem9, rep.theorem10])
print("violated structure products:",
      [(name, v) for name, v in theorem8_products(a5.algebra) if v != 0])

# ... yet lambda is exactly 2 pi i.  Reason: on the z = 0 plane the frame has
# T_2 = z (1 - i) = 0, and every non-exact remainder term of sigma_4, sigma_5
# carries a T_2 factor, so on this circle each sigma_k is a total
# differential.  The split evaluation shows the remainder vanishing node by
# node:
pt, tg = (0.6, 0.8, 0.0), (-0.8, 0.6, 0.0)
forms = sigma_closed(frame, pt, tg)
print("\nsigma split at a circle node (exact part, remainder):")
for k in sorted(forms.total):
    print(f"  k={k}: exact={forms.exact[k]:.6f}  remainder={forms.remainder[k]}")

# And the value cannot depend on the loop: zeta^{-1} d zeta is a closed form
# (d zeta ^ d zeta = 0 in a commutative algebra), so any loop embracing the
# non-invertibility line once gives the same lambda.
nodes = 4096
t = np.linspace(0.0, 2 * np.pi, nodes + 1)
pts = np.stack([1.3 * np.cos(t), 0.9 * np.sin(t), 0.4 * np.sin(2 * t) + 0.1], axis=1)
pts[-1] = pts[0]
tgs = np.stack([-1.3 * np.sin(t), 0.9 * np.cos(t), 0.8 * np.cos(2 * t)], axis=1)
tgs[-1] = tgs[0]
tilted = Curve3(pts, closed=True, tangents=tgs, dt=2 * np.pi / nodes)
res_tilted = lambda_numeric(frame, tilted)
print("\n|lambda(flat circle) - lambda(tilted loop)| =",
      norm_euclid(res.lambda_ - res_tilted.lambda_))

# radius independence, as expected of a loop-shape invariant
for r in (0.5, 1.0, 2.0):
    lam = lambda_numeric(frame, circle_curve(radius=r, nodes=2048)).lambda_
    print(f"radius {r}: |lambda - 2 pi i| =",
          f"{norm_euclid(lam - 2j * np.pi * unit_element(a5.algebra)):.2e}")
