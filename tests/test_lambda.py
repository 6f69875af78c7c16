import itertools
from functools import cached_property

import numpy as np
import pytest

from monalg import (
    AlgebraError,
    AlgebraSpec,
    AlgElement,
    Curve3,
    E3Frame,
    EmbraceError,
    HoloFunction,
    MonogenicSpec,
    NonInvertibleError,
    atilde_closed,
    cauchy_formula_residuals,
    cauchy_theorem_residuals,
    circle_curve,
    curvilinear_integral,
    exactness_conditions,
    invert_direct,
    lambda_numeric,
    make_frame,
    multiply,
    norm_euclid,
    representation_field,
    sigma_closed,
    sigma_direct,
    theorem8_products,
    triangle_curve,
    unit_element,
    validate_algebra,
    winding_number,
    xi_values,
    zeta_inverse_closed,
    zeta_inverse_field,
    zeta_field,
    zeta_power_field,
)

from monalg.algebra import _mul_coeffs
from monalg.integration import _assemble, _integrate_values, _node_steps
from monalg.lambda_const import (
    _formula_residual,
    _formula_weights,
    _loop_blocks,
    _loop_inverse,
    _winding,
)

from conftest import random_safe_points

TWO_PI_I = 2j * np.pi


def handmade_cases():
    """Extra algebras exercising structure constants the catalog leaves zero."""
    one_idem = {2: 1, 3: 1, 4: 1, 5: 1}
    specs = [
        AlgebraSpec(n=5, m=1, name="b2_case", u_map=one_idem,
                    gamma={(2, 2, 3): 1.0, (2, 2, 4): 1.0}),
        AlgebraSpec(n=5, m=1, name="d_case", u_map=one_idem,
                    gamma={(3, 3, 4): 1.0}),
        AlgebraSpec(n=5, m=1, name="e_case", u_map=one_idem,
                    gamma={(2, 2, 5): 1.0}),
        AlgebraSpec(n=5, m=1, name="f_case", u_map=one_idem,
                    gamma={(2, 3, 5): 0.5 + 0.5j}),
        AlgebraSpec(n=5, m=1, name="j_case", u_map=one_idem,
                    gamma={(3, 4, 5): 1.0}),
        # five couplings at once; associativity forces AH + B2J = CG and
        # AJ = -B2K, both satisfied with H = -1, K = -1
        AlgebraSpec(n=5, m=1, name="aj_case", u_map=one_idem,
                    gamma={(2, 2, 3): 1.0, (2, 2, 4): 1.0, (3, 3, 5): -1.0,
                           (3, 4, 5): 1.0, (4, 4, 5): -1.0}),
        AlgebraSpec(n=5, m=2, name="mixed_m2", u_map={3: 1, 4: 1, 5: 2},
                    gamma={(3, 3, 4): 1.0}),
    ]
    five_a = [1j, 0.3, 0.5 - 0.2j, -0.4, 0.2 + 0.1j]
    five_b = [0.6, 0.7 + 0.3j, -0.1, 0.2, -0.5 + 0.25j]
    mixed_a = [1j, 2j, 0.3, -0.2 + 0.1j, 0.4]
    mixed_b = [1.0, -1.0, 0.25j, 0.5, -0.3 + 0.2j]
    out = []
    for spec in specs:
        a, b = (mixed_a, mixed_b) if spec.m == 2 else (five_a, five_b)
        out.append((spec, make_frame(spec, a, b)))
    return out


def tilted_loop(nodes=2048):
    """Embracing loop leaving the z = 0 plane, with exact tangents."""
    t = np.linspace(0.0, 2 * np.pi, nodes + 1)
    pts = np.stack([1.3 * np.cos(t), 0.9 * np.sin(t), 0.4 * np.sin(2 * t) + 0.1], axis=1)
    pts[-1] = pts[0]
    tg = np.stack([-1.3 * np.sin(t), 0.9 * np.cos(t), 0.8 * np.cos(2 * t)], axis=1)
    tg[-1] = tg[0]
    return Curve3(pts, closed=True, tangents=tg, dt=2 * np.pi / nodes)


def test_handmade_algebras_are_valid():
    for spec, _ in handmade_cases():
        assert validate_algebra(spec).violations == [], spec.name


def test_lambda_handmade_algebras(bundles):
    # every radical of dimension <= 4 gives lambda = 2 pi i, even when the
    # sufficient structure-product conditions fail (aj_case violates them)
    for spec, frame in handmade_cases():
        res = lambda_numeric(frame, circle_curve(nodes=2048))
        dev = norm_euclid(res.lambda_ - TWO_PI_I * unit_element(spec))
        assert dev <= 1e-8, (spec.name, dev)
    aj = next(spec for spec, _ in handmade_cases() if spec.name == "aj_case")
    assert any(v != 0 for _, v in theorem8_products(aj))


def test_winding_numbers(bundles):
    frame = bundles["A5"].frames["harmonic"]
    circle = circle_curve(nodes=512)
    assert winding_number(frame, circle, 1) == 1
    assert winding_number(frame, circle.reversed(), 1) == -1
    off = circle_curve(center=(3.0, 0, 0), radius=0.5, nodes=512)
    assert winding_number(frame, off, 1) == 0
    with pytest.raises(EmbraceError):
        _winding(xi_values(frame, circle.points)[:, 0] - 1.0, 1)  # xi passes through 1


def test_winding_number_rejects_functional_indices_outside_1_to_m(bundles):
    # u = 0 once read xi_m through index -1 (C2: the winding of xi_2), and
    # u = m + 1 raised a bare IndexError
    circle = circle_curve(nodes=256)
    for name in ("C2", "A5"):
        frame = bundles[name].default_frame
        m = frame.spec.m
        for u in (0, m + 1, -1):
            with pytest.raises(AlgebraError, match=rf"functional index {u} outside 1\.\.{m}"):
                winding_number(frame, circle, u)
        assert [winding_number(frame, circle, u) for u in range(1, m + 1)] == [1] * m


def test_winding_number_rejects_open_curves(bundles):
    # an open arc, about 0.8 of the way round, once read winding 1 on A5
    frame = bundles["A5"].default_frame
    arc = Curve3(circle_curve(nodes=4096).points[:3300], closed=False)
    with pytest.raises(EmbraceError, match="closed curve"):
        winding_number(frame, arc, 1)
    with pytest.raises(EmbraceError, match="closed curve"):
        lambda_numeric(frame, arc)


def test_loop_guards_near_a_line(bundles):
    # the unit circle centred at (1 + eps, 0, 0) passes within about eps of
    # L_1 and L_2 at (eps, 0, 0).  The margin 1e-12 (1 + max |coordinate|),
    # here 3e-12, raises NonInvertibleError; above it, _winding's own 1e-10
    # guard raises EmbraceError before any winding is counted
    frame = bundles["C2"].default_frame
    for eps, error, match in ((5e-11, EmbraceError, "passes within 1e-10"),
                              (5e-12, EmbraceError, "passes within 1e-10"),
                              (5e-13, NonInvertibleError, "near line L_1")):
        curve = circle_curve(center=(1 + eps, 0, 0), nodes=4096)
        assert 0.9 * eps < np.min(np.abs(xi_values(frame, curve.points))) < 1.1 * eps
        with pytest.raises(error, match=match):
            lambda_numeric(frame, curve)
        with pytest.raises(error, match=match):
            _loop_inverse(frame, curve.points, curve.coord_scale)


def test_lambda_radius_is_the_norm_expression_bit_for_bit(bundles):
    # the radius is summed by coordinate columns; it must keep the bits of
    # the mean of np.linalg.norm over the centred nodes
    curves = [make(nodes) for nodes in (1024, 4096, 16384)
              for make in (lambda k: circle_curve(center=(0.1, -0.05, 0.2), radius=1.3, nodes=k),
                           tilted_loop)]  # the tilted loop moves in all three coordinates
    curves.append(triangle_curve((-1.0, -1.0, 0.1), (2.0, -0.5, 0.0), (-0.3, 2.0, -0.1), 2048))
    # on 3 or 6 nodes a last-bit change in one node's distance reaches the mean
    rng = np.random.default_rng(61)
    for _ in range(40):
        angle = 2 * np.pi * (np.arange(3) / 3 + rng.uniform(-0.05, 0.05, 3))
        r = rng.uniform(0.5, 2.0, 3)
        verts = np.stack([r * np.cos(angle), r * np.sin(angle), np.zeros(3)], axis=1)
        verts += rng.uniform(-0.1, 0.1, (3, 3)) * [1.0, 1.0, 2.0]
        curves += [triangle_curve(*verts, per_edge=k) for k in (1, 2)]
    # the radius belongs to the curve: lambda on one curve gives the same
    # bits on every frame; the circles and tilted loops (the first 6 curves)
    # embrace the lines of every fixture frame
    every_frame = [frame for bundle in bundles.values() for frame in bundle.frames.values()]
    two = [bundles[name].default_frame for name in ("A5", "C2")]
    for i, curve in enumerate(curves):
        pts = curve.points[:-1]
        want = np.mean(np.linalg.norm(pts - pts.mean(axis=0), axis=1))
        for frame in every_frame if i < 6 else two:
            assert lambda_numeric(frame, curve).radius == want, (frame.spec.name, len(pts))


def _translate(curve: Curve3, p0) -> Curve3:
    """The curve moved by -p0, its tangents kept: zeta - zeta_0 runs over it."""
    return Curve3(curve.points - p0, curve.closed, curve.tangents, curve.dt)


def _spy_curve_geometry(monkeypatch) -> dict[str, list]:
    """Replace each cached descriptor of Curve3 by a counting copy; returns,
    per descriptor, the curves it was computed for, in order."""
    calls = {}
    for name in ("mean_radius", "coord_scale"):
        real = Curve3.__dict__[name].func
        seen = calls[name] = []

        def counting(curve, real=real, seen=seen):
            seen.append(curve)
            return real(curve)

        spy = cached_property(counting)
        spy.__set_name__(Curve3, name)
        monkeypatch.setattr(Curve3, name, spy)
    return calls


def test_curve_geometry_is_computed_once_per_curve(bundles, monkeypatch):
    calls = _spy_curve_geometry(monkeypatch)
    p0 = np.array([0.31, 0.17, -0.23])
    circle = circle_curve(center=p0, radius=0.9, nodes=1024)
    loop = _translate(circle, p0)
    frames = [frame for bundle in bundles.values() for frame in bundle.frames.values()]
    for frame in frames:
        lambda_numeric(frame, loop)
        lambda_numeric(frame, loop.reversed().reversed())
    rev = loop.reversed()
    # every descriptor once per curve, however many frames read it
    for name, seen in calls.items():
        assert len(seen) == len({id(c) for c in seen}), name
        assert sum(c is loop for c in seen) == 1, name
    assert len(calls["mean_radius"]) == 1 + len(frames)
    # a reversed or translated curve computes its own values from its points
    for curve in (circle, loop, rev):
        nodes = curve.points[:-1]
        assert curve.mean_radius == np.mean(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1))
        assert curve.coord_scale == 1 + np.max(np.abs(curve.points))
    # the points the values describe cannot change under them
    with pytest.raises(ValueError, match="read-only"):
        loop.points[0, 0] = 5.0


def test_lambda_evaluates_xi_once(bundles, monkeypatch):
    # the embrace margin, every winding number and the zeta^{-1} recurrence
    # read one set of zeta's coefficients, each node's formed once, in one
    # node block or several
    import monalg.lambda_const
    import monalg.resolvent

    formed = []
    real = monalg.lambda_const._zeta_coeffs

    def counting(*args, **kwargs):
        formed.append(len(args[1]))  # the points handed over
        return real(*args, **kwargs)

    monkeypatch.setattr(monalg.lambda_const, "_zeta_coeffs", counting)
    monkeypatch.setattr(monalg.resolvent, "_zeta_coeffs", counting)
    for nodes in (256, 16384):
        circle = circle_curve(radius=1.0, nodes=nodes)
        for bundle in bundles.values():
            formed.clear()
            lambda_numeric(bundle.default_frame, circle)
            assert sum(formed) == len(circle.points), (bundle.algebra.name, nodes)


def test_long_loops_are_expanded_in_blocks_bit_for_bit(bundles, monkeypatch):
    # zeta and its inverse are filled block by block into one buffer each,
    # count // block blocks with the remainder joined to the last; a 64-node
    # circle in blocks of 1 and of 3 runs batches of one and odd tails.  The
    # winding numbers, zeta^{-1}, its layout and lambda are a single pass's,
    # byte for byte
    import monalg.lambda_const

    cases = [(4096, 4096, [4096]), (4097, 4096, [4097]), (4098, 4096, [4098]),
             (8193, 4096, [4096, 4097]), (12290, 4096, [4096, 4096, 4098]),
             (16385, 4096, [4096, 4096, 4096, 4097]), (65, 1, [1] * 65), (65, 3, [3] * 20 + [5])]
    for points, block, want in cases:
        circle = circle_curve(center=(0.05, -0.04, 0.02), nodes=points - 1)
        for bundle in bundles.values():
            for frame in bundle.frames.values():
                with monkeypatch.context() as patch:
                    patch.setattr(monalg.lambda_const, "_LOOP_BLOCK", block)
                    assert [blk.stop - blk.start for blk in _loop_blocks(points)] == want
                    winding, inv = _loop_inverse(frame, circle.points, circle.coord_scale)
                    lam = lambda_numeric(frame, circle).lambda_.coeffs
                with monkeypatch.context() as patch:
                    patch.setattr(monalg.lambda_const, "_LOOP_BLOCK", points)  # one block
                    one_winding, single = _loop_inverse(frame, circle.points, circle.coord_scale)
                    single_lam = lambda_numeric(frame, circle).lambda_.coeffs
                assert one_winding == winding
                assert inv.T.flags.c_contiguous and single.T.flags.c_contiguous
                assert inv.tobytes() == single.tobytes(), (frame.spec.name, points, block)
                assert lam.tobytes() == single_lam.tobytes()


def test_lambda_c2_is_2pi_i(bundles):
    res = lambda_numeric(bundles["C2"].default_frame, circle_curve(nodes=2048))
    dev = norm_euclid(res.lambda_ - TWO_PI_I * unit_element(bundles["C2"].algebra))
    assert dev <= 1e-8
    assert res.is_2pi_i and res.winding == {1: 1, 2: 1}


def test_lambda_a5_harmonic_frame_value(bundles):
    # On the z = 0 plane every nilpotent component of zeta^{-1} d zeta is an
    # exact differential for this frame (all non-exact remainder terms carry
    # the factor T_2 = z(1-i)), so lambda is exactly 2 pi i.
    frame = bundles["A5"].frames["harmonic"]
    res = lambda_numeric(frame, circle_curve(nodes=4096))
    dev = norm_euclid(res.lambda_ - TWO_PI_I * unit_element(frame.spec))
    assert dev <= 1e-10
    for k, v in res.sigma_integrals.items():
        assert abs(v) <= 1e-10, (k, v)


def test_lambda_homotopy_invariance(bundles):
    # zeta^{-1} d zeta is closed, so any embracing loop gives the same value
    frame = bundles["A5"].frames["harmonic"]
    flat = lambda_numeric(frame, circle_curve(nodes=2048)).lambda_
    tilted = lambda_numeric(frame, tilted_loop(4096)).lambda_
    assert norm_euclid(flat - tilted) <= 1e-9
    frame = bundles["A5"].default_frame
    flat = lambda_numeric(frame, circle_curve(nodes=2048)).lambda_
    tilted = lambda_numeric(frame, tilted_loop(4096)).lambda_
    assert norm_euclid(flat - tilted) <= 1e-9


def test_lambda_all_fixtures_default_frames(bundles):
    for name, bundle in bundles.items():
        res = lambda_numeric(bundle.default_frame, circle_curve(nodes=2048))
        dev = norm_euclid(res.lambda_ - TWO_PI_I * unit_element(bundle.algebra))
        assert dev <= 1e-8, (name, dev)


def test_lambda_result_invariants(bundles):
    frame = bundles["A5"].default_frame
    spec = frame.spec
    polygon = Curve3(circle_curve(nodes=2048).points, closed=True)  # no tangents
    for curve in (circle_curve(nodes=2048), polygon):
        res = lambda_numeric(frame, curve)
        for u in range(1, spec.m + 1):
            assert res.lambda_.coeff(u) == pytest.approx(TWO_PI_I, abs=1e-5)
        for k, v in res.sigma_integrals.items():
            assert res.lambda_.coeff(k) == pytest.approx(v, abs=1e-12)
        assert norm_euclid(invert_direct(res.lambda_)) > 0  # invertible


def test_lambda_radius_independence(bundles):
    for name in ("A5", "C2", "J71"):
        bundle = bundles[name]
        frame = bundle.frames.get("harmonic", bundle.default_frame)
        lams = [lambda_numeric(frame, circle_curve(radius=r, nodes=2048)).lambda_
                for r in (0.5, 1.0, 2.0)]
        for other in lams[1:]:
            assert norm_euclid(other - lams[0]) / norm_euclid(lams[0]) <= 1e-8


def test_lambda_plane_choice(bundles):
    frame = bundles["A5"].default_frame
    xy = lambda_numeric(frame, circle_curve(nodes=2048, plane="xy")).lambda_
    yz = lambda_numeric(frame, circle_curve(nodes=2048, plane="yz").reversed()).lambda_
    assert norm_euclid(xy - yz) <= 1e-9
    with pytest.raises(EmbraceError):
        lambda_numeric(frame, circle_curve(nodes=2048, plane="yz"))  # winding -1
    # the C2 frame has opposite orientations for xi_1 and xi_2 in the yz
    # plane, so no yz circle can embrace both functionals at once
    c2 = bundles["C2"].default_frame
    with pytest.raises(EmbraceError):
        lambda_numeric(c2, circle_curve(nodes=512, plane="yz"))
    with pytest.raises(EmbraceError):
        lambda_numeric(c2, circle_curve(nodes=512, plane="yz").reversed())


def test_lambda_errors(bundles):
    frame = bundles["A5"].frames["harmonic"]
    with pytest.raises(EmbraceError):
        lambda_numeric(frame, circle_curve(center=(3.0, 0, 0), radius=0.5, nodes=256))
    with pytest.raises(NonInvertibleError):
        lambda_numeric(frame, circle_curve(center=(1.0, 0, 0), radius=1.0, nodes=256))
    with pytest.raises(EmbraceError):
        lambda_numeric(frame, circle_curve(nodes=256).reversed())


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_atilde_harmonic_values(bundles):
    frame = bundles["A5"].frames["harmonic"]
    x, y, z = 0.8, -0.6, 1.1
    xi = x + 1j * y
    at = atilde_closed(frame, (x, y, z))
    assert at[2] == pytest.approx(z * (1j - 1) / xi**2)
    assert at[3] == pytest.approx(-y / xi**2 + z**2 * (1 - 1j) ** 2 / xi**3)
    assert at[4] == pytest.approx(
        z * (3j - 1) / (4 * xi**2) + 2 * y * z * (1 - 1j) / xi**3 - z**3 * (1 - 1j) ** 3 / xi**4
    )
    assert at[5] == pytest.approx(
        -y / xi**2
        + (y**2 + 0.5 * z**2 * (1 - 1j) * (1 - 3j)) / xi**3
        - 3 * y * z**2 * (1 - 1j) ** 2 / xi**4
        + z**4 * (1 - 1j) ** 4 / xi**5
    )


def test_atilde_matches_recurrence_everywhere(bundles):
    rng = np.random.default_rng(41)
    cases = [(b.algebra, b.default_frame) for b in bundles.values()] + handmade_cases()
    for spec, frame in cases:
        for p in random_safe_points(frame, rng, 25):
            at = atilde_closed(frame, p)
            if not at:
                continue
            inv = zeta_inverse_closed(frame, p)
            closed = np.array([at[k] for k in sorted(at)])
            rec = np.array([inv.coeff(k) for k in sorted(at)])
            denom = max(np.linalg.norm(rec), 1e-30)
            assert np.linalg.norm(closed - rec) <= 1e-10 * (1 + denom)


def test_atilde_point_is_its_batch_row(bundles):
    from monalg.geometry import _zeta_coeffs
    from monalg.lambda_const import _atilde_batch

    rng = np.random.default_rng(43)
    cases = [frame for b in bundles.values() for frame in b.frames.values()]
    for frame in cases + [frame for _, frame in handmade_cases()]:
        spec = frame.spec
        pts = random_safe_points(frame, rng, 40)
        batch = _atilde_batch(spec, _zeta_coeffs(frame, pts))
        assert batch.shape == (40, min(4, spec.n - spec.m))
        for p, row in zip(pts, batch):
            at = atilde_closed(frame, p)
            assert list(at) == list(range(spec.m + 1, spec.m + 1 + len(row)))
            assert np.array_equal(np.array(list(at.values()), dtype=complex), row)


def test_sigma_split_matches_direct_assembly(bundles):
    from monalg.resolvent import _zeta_inverse_batch

    rng = np.random.default_rng(43)
    cases = [(b.algebra, b.default_frame) for b in bundles.values()] + handmade_cases()
    for spec, frame in cases:
        if spec.n == spec.m:
            continue
        for p in random_safe_points(frame, rng, 15):
            dp = rng.normal(size=3)
            split = sigma_closed(frame, p, dp)
            atil = _zeta_inverse_batch(frame, p[None])[0]
            for k, v in atilde_closed(frame, p).items():
                atil[k - 1] = v
            direct = _assemble(frame, np.outer(dp, atil)).coeffs
            for k, v in split.total.items():
                assert abs(v - direct[k - 1]) <= 1e-10 * (1 + abs(direct[k - 1])), (spec.name, k)


def test_closed_sigma_forms_hold_over_the_whole_float_range(bundles):
    # atilde has degree -1 in p and sigma is linear in dp besides: each is
    # 2^-e times the dense solve at the scaled point 2^-e p, and finite
    import warnings

    from monalg.algebra import _invert_direct_batch
    from monalg.cli import CHECKS
    from monalg.geometry import _zeta_coeffs

    tol = CHECKS["oracle.atilde_max_rel"].bound
    dp = np.array([0.3, -0.2, 0.5])
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            spec = frame.spec
            m, cols = spec.m, min(4, spec.n - spec.m)
            for p in ((1e64, .1, .2), (1e100, .1, .2), (1e200, .1, .2), (3e300, -1e299, 5e298)):
                s = 2.0 ** -int(np.frexp(np.max(np.abs(p)))[1])
                inv = _invert_direct_batch(spec, _zeta_coeffs(frame, s * np.array([p])))[0]
                sigma = _mul_coeffs(spec, inv, _zeta_coeffs(frame, dp[None])[0])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    at = atilde_closed(frame, p)
                    forms = sigma_closed(frame, p, dp)
                for got, want in ((at, inv), (forms.total, sigma)):
                    got = np.array(list(got.values()), dtype=complex)
                    want = want[m: m + cols] * s
                    assert len(got) == cols and np.isfinite(got).all(), (spec.name, p)
                    err = np.max(np.abs(got - want), initial=0)
                    assert err <= tol * np.max(np.abs(want), initial=0), (spec.name, p)


def test_closed_sigma_forms_keep_their_unscaled_bytes(bundles, monkeypatch):
    # scaling p and dp by exact powers of two changes no bit while nothing
    # leaves the normal range: with the exponents forced to 0 the forms run
    # unscaled, at magnitudes of p and of dp from 1e-3 to 1e20
    import monalg.lambda_const

    def forms(frame, p, dp):
        split = sigma_closed(frame, p, dp)
        vals = [atilde_closed(frame, p), split.total, split.exact, split.remainder]
        return np.array([v for d in vals for v in d.values()], dtype=complex).tobytes()

    rng = np.random.default_rng(89)
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            for scale, dscale in itertools.product((1e-3, 0.7, 3.0, 1e6, 1e20), (1e-3, 1.0, 1e20)):
                p = scale * random_safe_points(frame, rng, 1)[0]
                dp = dscale * rng.normal(size=3)
                got = forms(frame, p, dp)
                with monkeypatch.context() as patch:
                    patch.setattr(monalg.lambda_const, "_exponents",
                                  lambda pts: np.zeros(len(pts), dtype=int))
                    assert got == forms(frame, p, dp), (frame.spec.name, scale, dscale)


def _per_node_sigma(frame, xi, d, atil):
    """sigma_k per node from the paper's formulas, the oracle of sigma_direct
    and of lambda's coefficients: xi (N, m), tangents d (N, 3), zeta^{-1} (N, n)."""
    spec = frame.spec
    n, m = spec.n, spec.m
    dxi = d[:, 0, None] + d[:, 1, None] * frame.a[:m] + d[:, 2, None] * frame.b[:m]
    dT = d[:, 1, None] * frame.a[m:] + d[:, 2, None] * frame.b[m:]
    out = np.zeros((len(xi), n), dtype=complex)
    out[:, :m] = dxi / xi
    for k in range(m + 1, n + 1):
        uk = spec.u_map[k]
        acc = dT[:, k - m - 1] / xi[:, uk - 1] + atil[:, k - 1] * dxi[:, uk - 1]
        for r in range(m + 1, k):
            for s_ in range(m + 1, k):
                g = spec.gamma_coeff(r, s_, k)
                if g != 0:
                    acc = acc + atil[:, r - 1] * dT[:, s_ - m - 1] * g
        out[:, k - 1] = acc
    return out


def test_lambda_and_sigma_totals_match_the_per_node_sums(bundles):
    # lambda_numeric reads the sigma integrals off the weighted sums lambda is
    # assembled from; summing the per-node forms gives the same totals
    from monalg.integration import _node_steps, triangle_curve
    from monalg.resolvent import _zeta_inverse_batch

    curves = [circle_curve(nodes=512),
              circle_curve(center=(0.1, -0.05, 0.2), radius=0.7, nodes=1024),
              triangle_curve((1.2, -0.6, 0.1), (0.1, 1.3, -0.2), (-1.1, -0.7, 0.15), per_edge=256)]
    frames = [fr for b in bundles.values() for fr in b.frames.values()]
    frames += [fr for _, fr in handmade_cases()]
    for frame in frames:
        m = frame.spec.m
        for i, curve in enumerate(curves):
            pts = curve.points
            res = lambda_numeric(frame, curve)
            want = _per_node_sigma(frame, xi_values(frame, pts), _node_steps(curve),
                                      _zeta_inverse_batch(frame, pts)).sum(axis=0)
            tol = 1e-13 * (1 + np.linalg.norm(want))
            assert np.max(np.abs(res.lambda_.coeffs - want)) <= tol, (frame.spec.name, i)
            assert sorted(res.sigma_integrals) == list(range(m + 1, frame.spec.n + 1))
            for k, v in res.sigma_integrals.items():
                assert abs(v - want[k - 1]) <= tol, (frame.spec.name, i, k)


def _plan_sigma_walk(frame, S):
    """The sigma forms summed over nodes from S (..., 3, n), written out from
    the paper's formulas by a walk over the nonzero gamma(r, s, k):
        sigma_u = x_u + a_u y_u + b_u z_u                 (d xi_u / xi_u),
        sigma_k = a_k y_{u_k} + b_k z_{u_k}               (d T_k / xi_{u_k})
                  + x_k + a_{u_k} y_k + b_{u_k} z_k       (zeta^{-1}_k d xi_{u_k})
                  + sum gamma(r, s, k) (a_s y_r + b_s z_r)  (zeta^{-1}_r d T_s),
    the oracle of the sums map, whose coefficient k is sigma_k."""
    spec = frame.spec
    n, m = spec.n, spec.m
    a, b = frame.a, frame.b
    x, y, z = S[..., 0, :], S[..., 1, :], S[..., 2, :]
    out = np.empty(S.shape[:-2] + (n,), dtype=complex)
    out[..., :m] = x[..., :m] + a[:m] * y[..., :m] + b[:m] * z[..., :m]
    for k in range(m + 1, n + 1):
        u = spec.u_map[k] - 1
        acc = (a[k - 1] * y[..., u] + b[k - 1] * z[..., u]
               + (x[..., k - 1] + a[u] * y[..., k - 1] + b[u] * z[..., k - 1]))
        for r in range(m + 1, k):
            for s in range(m + 1, k):
                g = spec.gamma_coeff(r, s, k)
                if g != 0:
                    acc = acc + (a[s - 1] * y[..., r - 1] + b[s - 1] * z[..., r - 1]) * g
        out[..., k - 1] = acc
    return out


def test_sums_map_is_the_integral_and_the_sigma_walk(bundles):
    # the map assembles Ix + e2 Iy + e3 Iz by the table product, and the same
    # product is the paper's sigma forms: sigma_k is coefficient k of
    # zeta^{-1} d zeta
    rng = np.random.default_rng(53)
    frames = [fr for b in bundles.values() for fr in b.frames.values()]
    frames += [fr for _, fr in handmade_cases()]
    assert len(frames) == 11 + len(handmade_cases())
    for frame in frames:
        n = frame.spec.n
        assert frame.sums_map.shape == (3 * n, n)
        S = rng.normal(size=(8, 3, n)) + 1j * rng.normal(size=(8, 3, n))
        for one in S:
            got = one.reshape(3 * n) @ frame.sums_map
            ix, iy, iz = one
            lam = ix + _mul_coeffs(frame.spec, frame.a, iy) + _mul_coeffs(frame.spec, frame.b, iz)
            for want in (lam, _plan_sigma_walk(frame, one)):
                assert np.max(np.abs(got - want)) <= 1e-15 * np.linalg.norm(want), frame.spec.name


def test_loop_integrals_build_no_multiplication_rows(bundles, monkeypatch):
    # the frame's map holds e2's and e3's rows: no loop integral rebuilds them
    import monalg.algebra

    calls = []
    real = monalg.algebra._mult_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    frame = bundles["A5"].default_frame
    circle = circle_curve(center=(0.05, 0.02, 0.01), nodes=512)
    monkeypatch.setattr(monalg.algebra, "_mult_rows", counting)
    lambda_numeric(frame, circle)
    curvilinear_integral(zeta_inverse_field(frame), circle, frame)
    assert calls == []
    multiply(frame.e2, frame.e3)  # the spy does count the table product
    assert calls == [1]


def test_sigma_direct_matches_the_per_node_formula(bundles):
    from monalg.resolvent import _zeta_inverse_batch

    rng = np.random.default_rng(47)
    cases = [(b.algebra, fr) for b in bundles.values() for fr in b.frames.values()]
    for spec, frame in cases + handmade_cases():
        for p in random_safe_points(frame, rng, 8):
            dp = rng.normal(size=3)
            pt = p[None]
            inv = _zeta_inverse_batch(frame, pt)
            closed = atilde_closed(frame, p)
            over = inv.copy()
            for k, v in closed.items():
                over[0, k - 1] = v
            direct = sigma_direct(frame, p, dp)
            assert list(direct) == list(range(1, spec.n + 1))
            for got, atil in ((np.array(list(direct.values())), inv),
                              (_assemble(frame, np.outer(dp, over[0])).coeffs, over)):
                want = _per_node_sigma(frame, xi_values(frame, pt), dp[None], atil)[0]
                tol = 1e-13 * (1 + np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= tol, spec.name


def test_sigma_semisimple_empty(bundles):
    frame = bundles["C2"].default_frame
    forms = sigma_closed(frame, (0.4, 0.3, 0.2), (1.0, -0.5, 0.25))
    assert forms.total == {} and forms.exact == {} and forms.remainder == {}


def test_sigma_zero_nilpotent_algebra_is_total_differential(bundles):
    # with a zero multiplication radical, sigma_k = d(T_k / xi_{u_k})
    frame = bundles["A2_radical"].default_frame
    spec = frame.spec
    p, dp = (0.5, -0.3, 0.8), (0.2, 0.7, -0.4)
    forms = sigma_closed(frame, p, dp)
    assert forms.remainder[3] == 0
    a3, b3 = frame.a[2], frame.b[2]
    t3 = p[1] * a3 + p[2] * b3
    dt3 = dp[1] * a3 + dp[2] * b3
    u = spec.u_map[3]
    xi = complex(xi_values(frame, p)[u - 1])
    dxi = dp[0] + dp[1] * frame.a[u - 1] + dp[2] * frame.b[u - 1]
    want = dt3 / xi - t3 * dxi / xi**2
    assert forms.total[3] == pytest.approx(want)


def test_sigma_on_plane_circle_matches_displayed_form(bundles):
    # restricted to z = 0 the last sigma reduces to
    # (1/xi - y/xi^2) dy + (-y/xi^2 + y^2/xi^3) dxi
    frame = bundles["A5"].frames["harmonic"]
    x, y = 0.6, 0.8
    xi = x + 1j * y
    for dp in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, -0.7, 0.0)):
        dxi = dp[0] + 1j * dp[1]
        want = (1 / xi - y / xi**2) * dp[1] + (-y / xi**2 + y**2 / xi**3) * dxi
        got = sigma_direct(frame, (x, y, 0.0), dp)[5]
        assert got == pytest.approx(want)
        split = sigma_closed(frame, (x, y, 0.0), dp)
        assert split.total[5] == pytest.approx(want)
        # every non-exact remainder term carries T_2 = z(1-i) = 0 here
        assert split.remainder[5] == 0


def test_sigma_exact_parts_integrate_to_zero(bundles):
    for name, frame_name in (("A5", "harmonic"), ("A5", "default"), ("J71", "default")):
        frame = bundles[name].frames[frame_name]
        curve = circle_curve(nodes=1024)
        w = np.full(len(curve.points), curve.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        keys = sigma_closed(frame, curve.points[0], curve.tangents[0]).total.keys()
        acc_exact = {k: 0j for k in keys}
        acc_rem = {k: 0j for k in keys}
        for wi, pt, tg in zip(w, curve.points, curve.tangents):
            forms = sigma_closed(frame, pt, tg)
            for k in keys:
                acc_exact[k] += wi * forms.exact[k]
                acc_rem[k] += wi * forms.remainder[k]
        for k in keys:
            assert abs(acc_exact[k]) <= 1e-8, ("exact", name, frame_name, k)
            assert abs(acc_rem[k]) <= 1e-8, ("remainder", name, frame_name, k)


# ---------------------------------------------------------------------------
# exactness predicates
# ---------------------------------------------------------------------------

def test_exactness_c2(bundles):
    rep = exactness_conditions(bundles["C2"].default_frame)
    assert rep.theorem5 and rep.theorem6 and rep.theorem7
    assert rep.predicted_2pi_i


def test_exactness_a2_radical_and_a3(bundles):
    rep = exactness_conditions(bundles["A2_radical"].default_frame)
    assert rep.theorem6 and rep.theorem7 and not rep.theorem5
    rep = exactness_conditions(bundles["A3"].default_frame)
    assert rep.theorem7 and not rep.theorem6


def test_exactness_a5_all_false_with_violations(bundles):
    rep = exactness_conditions(bundles["A5"].frames["harmonic"])
    assert not any((rep.theorem5, rep.theorem6, rep.theorem7, rep.theorem8,
                    rep.theorem9, rep.theorem10))
    assert not rep.predicted_2pi_i
    names = [name for name, _ in rep.theorem8_violations]
    # the violating pair couples gamma(2,2,3) with gamma(3,3,5)
    assert any("gamma(3,3,5)" in name for name in names)
    # the product gamma(2,2,3)*gamma(3,3,4) is zero here, not a violation
    assert all("gamma(3,3,4)" not in name or "gamma(3,3,5)" in name for name in names)


def test_exactness_four_dim_examples(bundles):
    for name in ("J69", "A12_plus_A01sq", "A12_plus_A12", "J71"):
        rep = exactness_conditions(bundles[name].default_frame)
        assert rep.theorem8, name
        assert rep.theorem8_violations == []
        assert rep.predicted_2pi_i


def test_exactness_theorem9_and_10(bundles):
    rep = exactness_conditions(bundles["A5"].frames["in_S"])
    assert rep.theorem9 and rep.predicted_2pi_i
    rep = exactness_conditions(bundles["A5"].frames["t10"])
    assert rep.theorem10 and rep.theorem10_condition1
    assert rep.theorem10_condition2 == "m+3"
    # theorem 10's conclusion verified numerically as well
    res = lambda_numeric(bundles["A5"].frames["t10"], circle_curve(nodes=2048))
    assert res.is_2pi_i


def test_theorem8_products_on_a5(bundles):
    prods = dict(theorem8_products(bundles["A5"].algebra))
    assert prods["gamma(2,2,3)*gamma(3,3,5)"] == 1
    assert prods["gamma(2,2,3)*gamma(3,3,4)"] == 0


def test_prediction_soundness_randomized_frames(bundles):
    rng = np.random.default_rng(47)
    for name, bundle in bundles.items():
        spec = bundle.algebra
        for _ in range(20):
            a = rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n)
            b = rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n)
            a[: spec.m] = 1j * (0.5 + rng.uniform(0.2, 1.0, size=spec.m))  # winding +1
            b[: spec.m] = rng.normal(size=spec.m)
            if name == "A5":
                # A5 fails the structure conditions; sample from the
                # frame-condition family instead (vanishing m+1 and m+3 parts)
                a[1] = b[1] = 0.0
                a[3] = b[3] = 0.0
            frame = E3Frame(spec, a, b)
            rep = exactness_conditions(frame)
            assert rep.predicted_2pi_i, name
            res = lambda_numeric(frame, circle_curve(nodes=512))
            assert res.is_2pi_i, name


# ---------------------------------------------------------------------------
# Cauchy theorem and formula
# ---------------------------------------------------------------------------

def test_cauchy_theorem_polynomial(bundles):
    frame = bundles["A5"].frames["harmonic"]
    got = cauchy_theorem_residuals({"zeta": zeta_field(frame)}, frame, circle_curve(nodes=1024))
    assert got["zeta"] <= 1e-9


def test_cauchy_theorem_rational_representation(bundles):
    frame = bundles["A5"].frames["harmonic"]
    ms = MonogenicSpec(F=(HoloFunction("rational", num=(1.0,), den=(2.0, 1.0)),))  # pole at -2
    loop = circle_curve(center=(1.4, 0.2, -0.1), radius=0.5, nodes=1024)
    r1 = cauchy_theorem_residuals({"ms": ms}, frame, loop)["ms"]
    loop2 = circle_curve(center=(1.4, 0.2, -0.1), radius=0.5, nodes=2048)
    r2 = cauchy_theorem_residuals({"ms": ms}, frame, loop2)["ms"]
    assert r1 <= 1e-7 and r2 <= 1e-7


def test_cauchy_theorem_nonclosed_case_equals_lambda_norm(bundles):
    frame = bundles["A5"].frames["harmonic"]
    curve = circle_curve(nodes=1024)
    r = cauchy_theorem_residuals({"inv": zeta_inverse_field(frame)}, frame, curve)["inv"]
    lam = lambda_numeric(frame, curve).lambda_
    assert r == pytest.approx(norm_euclid(lam), rel=1e-12)
    assert r > 1.0


def test_cauchy_formula_constant(bundles):
    frame = bundles["A5"].frames["harmonic"]
    ms = MonogenicSpec(F=(HoloFunction("polynomial", (1.0,)),))
    p0 = (0.3, 0.2, -0.4)
    curve = circle_curve(center=p0, radius=0.8, nodes=2048)
    assert cauchy_formula_residuals({"ms": ms}, frame, p0, curve)["ms"] <= 1e-8


def test_cauchy_formula_zeta_on_c2(bundles):
    frame = bundles["C2"].default_frame
    ms = MonogenicSpec(F=(HoloFunction("polynomial", (0, 1)),) * 2)
    p0 = (0.31, 0.17, -0.23)
    curve = circle_curve(center=p0, radius=0.9, nodes=2048)
    assert cauchy_formula_residuals({"ms": ms}, frame, p0, curve)["ms"] <= 1e-7


def test_cauchy_formula_square_on_a5(bundles):
    frame = bundles["A5"].frames["harmonic"]
    ms = MonogenicSpec(F=(HoloFunction("polynomial", (0, 0, 1)),))
    p0 = (0.5, -0.2, 0.6)
    curve = circle_curve(center=p0, radius=1.0, nodes=2048)
    assert cauchy_formula_residuals({"ms": ms}, frame, p0, curve)["ms"] <= 1e-6


def _per_node_formula_sum(frame, vals, inv, steps):
    """The loop sum of the Cauchy formula as first written: the product
    Phi_i (zeta - zeta_0)^{-1}_i at every node, then the quadrature."""
    return _integrate_values(frame, _mul_coeffs(frame.spec, vals, inv), steps).coeffs


def test_formula_contraction_matches_the_per_node_product(bundles):
    # the residual contracts the node weights with Phi before multiplying;
    # a circle (parameter trapezoid) and a polyline triangle (per-segment
    # rule) exercise both step rules, on every fixture frame and the
    # hand-made algebras
    p0 = np.array([0.31, 0.17, -0.23])
    tri = np.array([(1.2, -0.7, 0.3), (0.1, 1.3, 0.1), (-0.9, -0.8, -0.2)])
    curves = (circle_curve(center=p0, radius=0.9, nodes=1024),
              triangle_curve(*(tri + p0), per_edge=256))
    frames = [frame for bundle in bundles.values() for frame in bundle.frames.values()]
    frames += [frame for _, frame in handmade_cases()]
    rng = np.random.default_rng(83)
    for frame in frames:
        spec = frame.spec
        exp = MonogenicSpec(F=(HoloFunction.exp_series(14),) * spec.m)
        field = representation_field(exp, frame, 512)
        phi0 = field(p0[None])[0]
        for curve in curves:
            loop = _translate(curve, p0)
            _, inv = _loop_inverse(frame, loop.points, loop.coord_scale)
            res = lambda_numeric(frame, loop)
            steps = _node_steps(curve)
            weights = _formula_weights(steps, inv)
            shape = (len(steps), spec.n)
            noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            # lambda = 1 and Phi(zeta_0) = the per-node sum leave their distance
            for vals in (field(curve.points), noise):
                want = _per_node_formula_sum(frame, vals, inv, steps)
                got = _formula_residual(frame, unit_element(spec), want, vals, weights)
                assert got <= 1e-13 * (1 + np.linalg.norm(want)), spec.name
            # the public residual against the per-node rule, end to end
            rhs = _per_node_formula_sum(frame, field(curve.points), inv, steps)
            want = norm_euclid(multiply(res.lambda_, AlgElement(spec, phi0))
                               - AlgElement(spec, rhs))
            got = cauchy_formula_residuals({"exp": exp}, frame, p0, curve)["exp"]
            assert abs(got - want) <= 1e-13 * (1 + np.linalg.norm(rhs)), spec.name


def test_formula_lambda_is_lambda_numeric_on_the_translate(bundles, monkeypatch):
    # the formula integrates (zeta - zeta_0)^{-1} on the curve's own steps; a
    # circle's translate by -p0 keeps its tangents, so there its lambda is
    # lambda_numeric's on the translate bit for bit, and on a polyline, whose
    # steps are differences of the moved points, to rounding
    import monalg.lambda_const

    seen = []
    real = monalg.lambda_const._formula_residual

    def spy(frame, lam, *rest):
        seen.append(lam)
        return real(frame, lam, *rest)

    monkeypatch.setattr(monalg.lambda_const, "_formula_residual", spy)
    p0 = np.array([0.31, 0.17, -0.23])
    tri = np.array([(1.2, -0.7, 0.3), (0.1, 1.3, 0.1), (-0.9, -0.8, -0.2)])
    circles = (circle_curve(center=p0, radius=0.9, nodes=1024),
               circle_curve(center=p0, radius=1.4, nodes=4096))
    triangle = triangle_curve(*(tri + p0), per_edge=1024)
    frames = [frame for bundle in bundles.values() for frame in bundle.frames.values()]
    frames += [frame for _, frame in handmade_cases()]
    for frame in frames:
        for curve in circles + (triangle,):
            seen.clear()
            cauchy_formula_residuals({"zeta": zeta_field(frame)}, frame, p0, curve)
            (got,) = seen
            want = lambda_numeric(frame, _translate(curve, p0)).lambda_
            if curve is triangle:
                assert norm_euclid(got - want) <= 1e-14 * norm_euclid(want), frame.spec.name
            else:
                assert np.array_equal(got.coeffs, want.coeffs), frame.spec.name


def test_formula_checks_lambdas_preconditions(bundles):
    # lambda's margin and winding checks guard the formula's loop too: the
    # lines L_u + p0 play the part of the lines L_u (see test_lambda_errors)
    p0 = np.array([0.31, 0.17, -0.23])
    shift = np.array([1.0, 0.0, 0.0])
    for bundle in bundles.values():
        frame = bundle.default_frame
        zeta = {"zeta": zeta_field(frame)}
        on_lines = circle_curve(center=p0 + shift, radius=1.0, nodes=256)  # through p0
        with pytest.raises(NonInvertibleError):
            cauchy_formula_residuals(zeta, frame, p0, on_lines)
        beside = circle_curve(center=p0 + 3 * shift, radius=0.5, nodes=256)
        around = circle_curve(center=p0, radius=0.9, nodes=256)
        for loop in (beside, around.reversed()):  # windings 0 and -1
            with pytest.raises(EmbraceError, match="does not embrace once"):
                cauchy_formula_residuals(zeta, frame, p0, loop)
        arc = Curve3(around.points[:200], closed=False)
        with pytest.raises(EmbraceError, match="closed curve"):
            cauchy_formula_residuals(zeta, frame, p0, arc)


def test_theorem8_products_read_the_shorthand_table(bundles):
    # each product is named by its gamma arguments, which must be the
    # structure constants it multiplies (0 where an index exceeds n)
    specs = [bundle.algebra for bundle in bundles.values()]
    specs += [spec for spec, _ in handmade_cases()]
    for spec in specs:
        products = theorem8_products(spec)
        assert len(products) == 14
        for name, value in products:
            want = 1.0 + 0j
            for factor in name.split("*"):
                r, s, k = (int(i) for i in factor[len("gamma("):-1].split(","))
                want *= spec.gamma_coeff(r, s, k) if k <= spec.n else 0.0
            assert value == want, (spec.name, name)


def _angle_sum_winding(w):
    """The reference winding number: the sum of the principal angles of
    w[i+1] / w[i] over a closed polyline (last node = first), in turns."""
    return int(np.rint(float(np.sum(np.angle(w[1:] / w[:-1]))) / (2 * np.pi)))


def _closed(w):
    return np.append(w, w[0])


def test_crossing_count_matches_the_angle_sum_on_random_polygons():
    rng = np.random.default_rng(1301)
    seen = set()
    for trial in range(6000):
        k = int(rng.integers(3, 13))
        scale = 10.0 ** rng.uniform(-3, 3)
        w = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        if trial % 3 == 0:
            # every other vertex (the last one neighbours the first) exactly
            # on the real axis, with either sign of zero; no edge then runs
            # along the axis, through 0
            on_axis = np.arange(0, k - 1, 2)
            w.imag[on_axis] = rng.choice([0.0, -0.0], len(on_axis))
        w = _closed(w)
        ref = _angle_sum_winding(w)
        seen.add(ref)
        assert _winding(w, 1) == ref, (trial, w)
        assert _winding(w, 1, np.abs(w)) == ref
    assert {-1, 0, 1} <= seen


@pytest.mark.parametrize("turns", [-3, -2, 2, 3])
def test_crossing_count_on_loops_that_wind_several_times(turns):
    rng = np.random.default_rng(1302 + turns)
    for _ in range(200):
        per_turn = int(rng.integers(4, 13))
        k = per_turn * abs(turns)
        # k vertices going round `turns` times, each step 0.5 to 1.5 times
        # 2 pi / per_turn, so under pi, at radii over six decades
        t = np.sign(turns) * (np.arange(k) + rng.uniform(-0.25, 0.25, k)) * 2 * np.pi / per_turn
        r = 10.0 ** rng.uniform(-3, 3) * rng.uniform(0.5, 1.5, k)
        w = _closed(r * np.exp(1j * t))
        assert _angle_sum_winding(w) == turns
        assert _winding(w, 1) == turns


def test_winding_number_about_a_nonzero_point_matches_the_angle_sum(bundles):
    rng = np.random.default_rng(1303)
    seen = set()
    for name in ("A5", "C2", "J71"):
        frame = bundles[name].frames["default"]
        for plane in ("xy", "yz", "zx"):
            circle = circle_curve(center=tuple(rng.uniform(-0.5, 0.5, 3)),
                                  radius=rng.uniform(0.5, 2.0), nodes=512, plane=plane)
            xi = xi_values(frame, circle.points)
            for u in range(1, frame.spec.m + 1):
                for around in rng.uniform(-1.5, 1.5, 4) + 1j * rng.uniform(-1.5, 1.5, 4):
                    ref = _angle_sum_winding(xi[:, u - 1] - around)
                    seen.add(ref)
                    assert _winding(xi[:, u - 1] - around, u) == ref
    assert seen == {-1, 0, 1}
