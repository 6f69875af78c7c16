import numpy as np
import pytest

from monalg import (
    AlgElement,
    Curve3,
    certified_lemma_constant,
    circle_curve,
    constant_field,
    curvilinear_integral,
    lambda_numeric,
    make_zeta,
    morera_functional,
    morera_scan,
    multiply,
    norm_euclid,
    norm_inequality_check,
    rectangle_surface,
    stokes_residual,
    surface_integral,
    triangle_curve,
    unit_element,
    zeta_field,
    zeta_inverse_field,
    zeta_power_field,
)


def non_monogenic_field(frame):
    """x I_1 - y e2: deliberately violates the Cauchy-Riemann coupling."""
    spec = frame.spec

    def f(pts):
        out = np.zeros(pts.shape[:-1] + (spec.n,), dtype=complex)
        out[..., 0] = pts[..., 0]
        out -= pts[..., 1, None] * frame.a
        return out

    return f


def test_closed_loop_of_constant_vanishes(bundles):
    for bundle in bundles.values():
        frame = bundle.default_frame
        one = constant_field(unit_element(bundle.algebra))
        for curve in (circle_curve(nodes=256), triangle_curve((0, 0, 0), (1, 0, 0), (0.2, 0.8, 0.3), 64)):
            assert norm_euclid(curvilinear_integral(one, curve, frame)) <= 1e-13


def test_open_segment_of_constant_telescopes(bundles):
    frame = bundles["A5"].frames["harmonic"]
    p, q = np.array([0.1, -0.2, 0.4]), np.array([1.0, 0.7, -0.3])
    curve = Curve3(np.linspace(p, q, 50), closed=False)
    got = curvilinear_integral(constant_field(unit_element(frame.spec)), curve, frame)
    want = make_zeta(frame, q) - make_zeta(frame, p)
    np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-13)


def test_zeta_inverse_loop_matches_lambda(bundles):
    frame = bundles["A5"].frames["harmonic"]
    curve = circle_curve(nodes=2048)
    direct = curvilinear_integral(zeta_inverse_field(frame), curve, frame)
    viaresult = lambda_numeric(frame, curve).lambda_
    np.testing.assert_allclose(direct.coeffs, viaresult.coeffs, atol=1e-14)


def test_orientation_negates(bundles):
    frame = bundles["A5"].default_frame
    field = zeta_power_field(frame, 2)
    polyline = Curve3([[0, 0, 0], [1, 0.2, 0], [1.4, 1, 0.3]], closed=False)
    for curve in (circle_curve(nodes=128), polyline):
        fwd = curvilinear_integral(field, curve, frame)
        bwd = curvilinear_integral(field, curve.reversed(), frame)
        np.testing.assert_allclose(fwd.coeffs, -bwd.coeffs, atol=1e-15)


def test_additivity_at_vertex(bundles):
    frame = bundles["A3"].default_frame
    pts = np.array([[0, 0, 0], [0.5, 0.1, 0.2], [1.0, 0.4, 0.1], [1.2, 1.1, -0.2]])
    field = zeta_power_field(frame, 2)
    whole = curvilinear_integral(field, Curve3(pts, closed=False), frame)
    first = curvilinear_integral(field, Curve3(pts[:3], closed=False), frame)
    second = curvilinear_integral(field, Curve3(pts[2:], closed=False), frame)
    np.testing.assert_allclose(whole.coeffs, (first + second).coeffs, atol=1e-15)


def test_polyline_refinement_is_second_order(bundles):
    frame = bundles["A5"].default_frame
    field = zeta_power_field(frame, 2)

    def arc(n):
        t = np.linspace(0.0, 2.0, n + 1)
        return Curve3(np.stack([np.cos(t), np.sin(t), 0.3 * t], axis=1), closed=False)

    vals = [curvilinear_integral(field, arc(n), frame).coeffs for n in (64, 128, 256, 512)]
    d = [np.linalg.norm(vals[i] - vals[i + 1]) for i in range(3)]
    for i in range(2):
        assert 3.3 <= d[i] / d[i + 1] <= 4.7


def test_curve_invariants():
    with pytest.raises(ValueError):
        Curve3(np.array([[0, 0, 0], [1, 0, 0]]), closed=True)
    with pytest.raises(ValueError):
        Curve3(np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]]), closed=False)
    with pytest.raises(ValueError):
        Curve3(np.array([[0.0, 0, 0]]), closed=False)


def test_closure_tolerance_scales_with_coordinates():
    # cos/sin at t = 0 and 2 pi differ by rounding that grows with the
    # coordinates; every one of these circles is closed
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 2 * np.pi, 1025)
    for _ in range(200):
        u, v = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
        center = rng.uniform(-1e3, 1e3, size=3)
        pts = center + 7.3 * (np.cos(t)[:, None] * u + np.sin(t)[:, None] * v)
        Curve3(pts, closed=True)
    pts[-1] = pts[0] + 1e-9
    with pytest.raises(ValueError, match="must end where it starts"):
        Curve3(pts, closed=True)


def test_surface_integral_area(bundles):
    spec = bundles["C2"].algebra
    frame = bundles["C2"].default_frame
    surf = rectangle_surface((0, 0, 0), (1, 0, 0), (0, 1, 0), nx=4, ny=4)
    one = constant_field(unit_element(spec))
    got = surface_integral(one, surf, "dxdy", spec)
    np.testing.assert_allclose(got.coeffs, unit_element(spec).coeffs, atol=1e-13)
    got = surface_integral(one, surf, "dydz", spec)
    np.testing.assert_allclose(got.coeffs, 0 * got.coeffs, atol=1e-13)
    # linearity in the field: scaling by a constant element scales the integral
    c = 2.5 * unit_element(spec)
    got = surface_integral(constant_field(c), surf, "dxdy", spec)
    np.testing.assert_allclose(got.coeffs, c.coeffs, atol=1e-12)


def test_surface_degenerate_triangle_warns(bundles):
    spec = bundles["C2"].algebra
    tris = np.array([
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        [[0, 0, 0], [1, 0, 0], [2, 0, 0]],  # zero area
    ], dtype=float)
    from monalg import Surface3
    surf = Surface3(tris, triangle_curve((0, 0, 0), (1, 0, 0), (0, 1, 0), 4))
    with pytest.warns(UserWarning, match="degenerate"):
        surface_integral(constant_field(unit_element(spec)), surf, "dxdy", spec)
    # the Stokes residual runs the same midpoint rule: the zero-area triangle
    # is skipped with a warning, and the residual is the one without it
    frame = bundles["C2"].default_frame
    with pytest.warns(UserWarning, match="degenerate"):
        got = stokes_residual(zeta_power_field(frame, 2), surf, frame)
    good = Surface3(tris[:1], surf.boundary)
    assert got == stokes_residual(zeta_power_field(frame, 2), good, frame)


def test_stokes_identity_monogenic_and_not(bundles):
    frame = bundles["A5"].frames["harmonic"]
    spec = frame.spec
    surf = rectangle_surface((0.1, 0.2, 0.0), (1, 0, 0), (0, 1, 0), nx=4, ny=4,
                             boundary_per_edge=512)
    # monogenic: both sides vanish
    assert stokes_residual(zeta_field(frame), surf, frame) <= 1e-10
    assert stokes_residual(zeta_power_field(frame, 2), surf, frame) <= 1e-10
    assert stokes_residual(constant_field(unit_element(spec)), surf, frame) <= 1e-12
    # non-monogenic: the identity still holds while each side is far from zero
    nm = non_monogenic_field(frame)
    assert stokes_residual(nm, surf, frame) <= 1e-10
    assert norm_euclid(curvilinear_integral(nm, surf.boundary, frame)) > 1e-2


def test_morera_monogenic_small(bundles):
    frame = bundles["A5"].frames["harmonic"]
    tri = [(0.2, 0.1, 0.0), (1.1, 0.3, 0.1), (0.4, 1.2, -0.2)]
    assert norm_euclid(morera_functional(zeta_field(frame), tri, frame)) <= 1e-9


def test_morera_non_monogenic_unit_triangle(bundles):
    # frozen oracle: loop integral is (I_1 e2 + e2) / 2
    for name in ("A5", "C2"):
        frame = bundles[name].default_frame
        spec = frame.spec
        got = morera_functional(non_monogenic_field(frame), [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                                frame, per_edge=256)
        i1 = np.zeros(spec.n, dtype=complex)
        i1[0] = 1.0
        want = 0.5 * (multiply(AlgElement(spec, i1), frame.e2) + frame.e2)
        np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-12)
        assert norm_euclid(got) >= 1e-2


def test_morera_collinear_triangle_zero(bundles):
    frame = bundles["A5"].default_frame
    got = morera_functional(zeta_field(frame), [(0, 0, 0), (1, 1, 1), (2, 2, 2)], frame)
    assert norm_euclid(got) == 0.0


def test_morera_scan(bundles):
    frame = bundles["A3"].default_frame
    tris = [
        [(0.1 * i, 0.05 * j, 0.0), (0.1 * i + 0.2, 0.05 * j, 0.1), (0.1 * i, 0.05 * j + 0.2, 0.0)]
        for i in range(2) for j in range(2)
    ]
    assert morera_scan(zeta_field(frame), tris, frame) <= 1e-10


def test_norm_inequality(bundles):
    for bundle in bundles.values():
        frame = bundle.default_frame
        spec = bundle.algebra
        zero = constant_field(0.0 * unit_element(spec))
        curve = circle_curve(nodes=256)
        lhs, rhs, c = norm_inequality_check(zero, curve, frame)
        assert lhs == 0.0 and rhs == 0.0 and c > 0
        lhs, rhs, c = norm_inequality_check(constant_field(unit_element(spec)), curve, frame)
        assert lhs <= 1e-12 and rhs > 0
        assert c == certified_lemma_constant(frame)


def test_norm_inequality_holds_everywhere(bundles):
    for bundle in bundles.values():
        frame = bundle.default_frame
        spec = bundle.algebra
        fields = [
            constant_field(unit_element(spec)),
            zeta_field(frame),
            zeta_power_field(frame, 2),
            non_monogenic_field(frame),
            zeta_inverse_field(frame),
        ]
        curves = [
            circle_curve(nodes=256),
            circle_curve(center=(0.1, 0.05, -0.04), radius=0.7, nodes=256, plane="zx"),
            triangle_curve((0.2, 0.1, 0.0), (1.1, 0.3, 0.1), (0.4, 1.2, -0.2), 64),
        ]
        for field in fields:
            for curve in curves:
                if field is fields[-1]:
                    # zeta^{-1} needs the curve clear of the lines
                    from monalg import xi_values
                    if np.min(np.abs(xi_values(frame, curve.points))) < 0.05:
                        continue
                lhs, rhs, _ = norm_inequality_check(field, curve, frame)
                assert lhs <= rhs * (1 + 1e-12)


def test_norm_inequality_lambda_case(bundles):
    frame = bundles["A5"].frames["harmonic"]
    curve = circle_curve(nodes=1024)
    lhs, rhs, _ = norm_inequality_check(zeta_inverse_field(frame), curve, frame)
    lam = lambda_numeric(frame, curve).lambda_
    assert lhs == pytest.approx(norm_euclid(lam), rel=1e-12)
    assert lhs <= rhs


def test_stokes_residual_decreases_under_refinement(bundles):
    from monalg import HoloFunction, MonogenicSpec, representation_field

    frame = bundles["A5"].frames["harmonic"]
    ms = MonogenicSpec(F=(HoloFunction.exp_series(10),))
    fld = representation_field(ms, frame, nodes=128)
    residuals = []
    for bnodes, h in ((128, 2e-4), (256, 1e-4), (512, 5e-5)):
        surf = rectangle_surface((0.1, 0.2, 0.3), (0.8, 0, 0), (0, 0.8, 0), nx=3, ny=3,
                                 boundary_per_edge=bnodes)
        residuals.append(stokes_residual(fld, surf, frame, fd_step=h))
    # monotone decrease, allowing a factor-2 wiggle
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= 2 * coarse
    assert residuals[-1] <= residuals[0] / 4


def test_difference_stencils_make_one_field_call(bundles):
    # the x, y and z quotients of a stencil come from one call on its 6N points
    from monalg import cauchy_riemann_residual

    frame = bundles["A5"].default_frame
    calls = []

    def spy(pts):
        calls.append(len(pts))
        return zeta_power_field(frame, 3)(pts)

    surf = rectangle_surface((0.9, 1.1, 0.2), (0.3, 0, 0.1), (0, 0.4, -0.1), nx=3, ny=2,
                             boundary_per_edge=64)
    stokes_residual(spy, surf, frame)
    assert calls == [len(surf.boundary.points), 6 * len(surf.triangles)]
    calls.clear()
    cauchy_riemann_residual(spy, frame, (0.3, 0.2, 0.5), h=1e-4)
    assert calls == [6]


def test_closed_polyline_loop_is_second_order(bundles):
    # genuine O(h^2) decay visible on a polygonal loop (circle loops converge
    # spectrally and sit at the rounding floor instead)
    from monalg import HoloFunction, MonogenicSpec, representation_field

    frame = bundles["A5"].frames["harmonic"]
    ms = MonogenicSpec(F=(HoloFunction.exp_series(10),))
    fld = representation_field(ms, frame, nodes=128)
    tri = [(0.2, 0.1, 0.0), (1.1, 0.3, 0.1), (0.4, 1.2, -0.2)]
    r = [norm_euclid(morera_functional(fld, tri, frame, per_edge=n)) for n in (512, 1024, 2048)]
    assert 3.5 <= r[0] / r[1] <= 4.5
    assert 3.5 <= r[1] / r[2] <= 4.5


def test_near_singular_loop_decays_fast(bundles):
    # integrand analytic in a thin strip: each node doubling cuts the
    # residual by far more than 4x until rounding: (zeta - zeta_0)^{-1} is
    # zeta^{-1} at the points shifted by -p0
    frame = bundles["A5"].frames["harmonic"]
    inverse = zeta_inverse_field(frame)
    p0 = np.array([2.0, 0.0, 0.0])

    def fld(pts):
        return inverse(pts - p0)

    res = []
    for n in (64, 128, 256):
        c = circle_curve(center=(0.9, 0.0, 0.0), radius=1.0, nodes=n)
        res.append(norm_euclid(curvilinear_integral(fld, c, frame)))
    assert res[0] / res[1] >= 4
    assert res[1] / res[2] >= 4
    assert res[2] <= 1e-7


def test_field_evaluation_error_carries_context(bundles):
    from monalg import (FieldEvaluationError, HoloFunction, MonogenicSpec,
                        cauchy_formula_residual, cauchy_riemann_residual,
                        cauchy_theorem_residual)

    frame = bundles["A5"].default_frame

    def broken(pts):
        raise RuntimeError("boom")

    with pytest.raises(FieldEvaluationError, match="curve"):
        curvilinear_integral(broken, circle_curve(nodes=64), frame)
    with pytest.raises(FieldEvaluationError, match="difference stencil"):
        cauchy_riemann_residual(broken, frame, (0.3, 0.2, 0.5), h=1e-4)

    # two F_u on A5 (m = 1) fail wherever they are evaluated; both Cauchy
    # checks name the place
    bad = MonogenicSpec(F=(HoloFunction("polynomial", (0, 1)),) * 2)
    p0 = (0.31, 0.17, -0.23)
    curve = circle_curve(center=p0, radius=0.9, nodes=64)
    with pytest.raises(FieldEvaluationError, match="on curve: need one F_u"):
        cauchy_theorem_residual(bad, frame, curve)
    with pytest.raises(FieldEvaluationError, match="on p0: need one F_u"):
        cauchy_formula_residual(bad, frame, p0, curve)


def test_polyline_rule_matches_per_segment_trapezoid(bundles):
    frame = bundles["A5"].frames["harmonic"]
    spec = frame.spec
    rng = np.random.default_rng(5)
    pts = np.cumsum(rng.uniform(-0.3, 0.3, size=(40, 3)), axis=0) + [0.6, 0.2, -0.1]
    field = zeta_power_field(frame, 3)
    got = curvilinear_integral(field, Curve3(pts, closed=False), frame)
    # independent reference: sum over segments of (f_i + f_{i+1}) / 2 times d zeta(dp_i)
    want = AlgElement(spec, np.zeros(spec.n, dtype=complex))
    for p, q in zip(pts[:-1], pts[1:]):
        avg = AlgElement(spec, 0.5 * (field(p[None])[0] + field(q[None])[0]))
        want = want + multiply(make_zeta(frame, q - p), avg)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-13 * norm_euclid(want))


def test_triangle_lambda_nilpotents_equal_sigma_integrals(bundles):
    # the sigma integrals are lambda's nilpotent coefficients, bit for bit
    curves = (circle_curve(center=(0.05, -0.04, 0.02), radius=0.9, nodes=1024),
              triangle_curve((1.2, -0.6, 0.1), (0.1, 1.3, -0.2), (-1.1, -0.7, 0.15), per_edge=512))
    frames = [frame for bundle in bundles.values() for frame in bundle.frames.values()]
    assert len(frames) == 11
    for frame in frames:
        spec = frame.spec
        for curve in curves:
            res = lambda_numeric(frame, curve)
            assert list(res.sigma_integrals) == list(range(spec.m + 1, spec.n + 1))
            for k, sig in res.sigma_integrals.items():
                assert sig == res.lambda_.coeffs[k - 1], (spec.name, k)


def test_curve_rejects_repeated_consecutive_samples():
    square = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)]
    repeated = square[:2] + square[1:]  # the interior sample (1, 0, 0) twice
    for closed, pts in ((True, repeated), (False, repeated[:-1])):
        with pytest.raises(ValueError, match="consecutive samples must be distinct"):
            Curve3(np.array(pts), closed=closed)
        # one ulp apart in one coordinate is distinct
        near = np.array(pts)
        near[2, 0] = np.nextafter(1.0, 2.0)
        assert len(Curve3(near, closed=closed).points) == len(pts)


def test_curve_rejects_non_finite_nodes():
    for bad in (np.nan, np.inf, -np.inf):
        pts = circle_curve(nodes=64).points.copy()
        pts[7, 2] = bad
        for closed, tangents in ((True, None), (False, None), (True, np.zeros_like(pts))):
            with pytest.raises(ValueError, match="curve node 7 is not finite"):
                Curve3(pts, closed=closed, tangents=tangents, dt=0.1)


def test_lambda_numeric_inverts_zeta_once(bundles, monkeypatch):
    import monalg.lambda_const
    import monalg.resolvent
    from monalg.resolvent import _inverse

    calls = []

    def counting(spec, coeffs):
        calls.append(len(coeffs))
        return _inverse(spec, coeffs)

    # both modules that can invert zeta on a loop's nodes: lambda_const's
    # loop path and resolvent's checked batch, which integration's fields use
    monkeypatch.setattr(monalg.lambda_const, "_inverse", counting)
    monkeypatch.setattr(monalg.resolvent, "_inverse", counting)
    for curve in (circle_curve(nodes=256), triangle_curve((1.2, -0.6, 0.1), (0.1, 1.3, -0.2),
                                                          (-1.1, -0.7, 0.15), per_edge=64)):
        calls.clear()
        lambda_numeric(bundles["A5"].default_frame, curve)
        assert calls == [len(curve.points)]


def test_contraction_accepts_any_field_layout(bundles):
    # the loop contraction views a contiguous complex copy of the values as
    # floats; float, strided and Fortran-ordered field values must give the
    # same integral as the contiguous complex array they hold
    frame = bundles["A5"].frames["harmonic"]
    n = frame.spec.n
    curve = triangle_curve((0.2, 0.1, 0.0), (1.1, 0.3, 0.1), (0.4, 1.2, -0.2), per_edge=64)

    def real_part(pts):
        return np.cos(np.arange(1, n + 1) * pts[:, :1]) * pts[:, 1:2] + pts[:, 2:]

    def wide(pts):  # every other column of a (N, 2n) array
        out = np.zeros((len(pts), 2 * n), dtype=complex)
        out[:, ::2] = real_part(pts) * (1 - 2j)
        return out[:, ::2]

    def fortran(pts):
        return np.asfortranarray(real_part(pts) * (1 - 2j))

    def contiguous(pts):
        return np.ascontiguousarray(real_part(pts) * (1 - 2j))

    want = curvilinear_integral(contiguous, curve, frame).coeffs
    assert np.array_equal(curvilinear_integral(wide, curve, frame).coeffs, want)
    assert np.array_equal(curvilinear_integral(fortran, curve, frame).coeffs, want)
    got = curvilinear_integral(real_part, curve, frame).coeffs
    ref = curvilinear_integral(lambda pts: real_part(pts).astype(complex), curve, frame).coeffs
    assert np.array_equal(got, ref)


def test_long_loop_matches_node_by_node_sum(bundles):
    from monalg.integration import _node_steps

    frame = bundles["A5"].default_frame
    curve = circle_curve(center=(0.1, -0.05, 0.02), radius=1.3, nodes=16384)
    assert len(curve.points) == 16385
    vals = zeta_inverse_field(frame)(curve.points)
    steps = _node_steps(curve)
    sums = [sum(steps[i, d] * vals[i] for i in range(len(vals))) for d in range(3)]
    spec = frame.spec
    want = (AlgElement(spec, sums[0]) + multiply(frame.e2, AlgElement(spec, sums[1]))
            + multiply(frame.e3, AlgElement(spec, sums[2])))
    got = curvilinear_integral(zeta_inverse_field(frame), curve, frame)
    assert norm_euclid(got - want) <= 1e-13 * norm_euclid(want)


@pytest.mark.parametrize("N", [1, 2, 513, 4097, 16385])
@pytest.mark.parametrize("k", [1, 3])
def test_weighted_sums_contract_coefficient_rows_in_place(N, k):
    # the batch kernels return (N, n) values as the .T view of C-contiguous
    # (n, N) rows; with several weight columns the contraction reads those
    # rows where they lie, and must agree with the contiguous layout's GEMM
    import tracemalloc

    from monalg.integration import _weighted_sums

    n = 5
    rng = np.random.default_rng(1310 + N + k)
    rows = rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))
    weights = rng.standard_normal((N, k))
    vals = rows.T
    want = _weighted_sums(weights, np.ascontiguousarray(vals))
    tracemalloc.start()
    try:
        got = _weighted_sums(weights, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == want.shape == (k, n)
    np.testing.assert_allclose(got, want, rtol=1e-15)
    if k > 1 and N >= 513:  # the row path makes no (N, n) copy of the values
        assert peak < vals.nbytes // 2, peak
