import warnings

import numpy as np
import pytest

from monalg import (
    ContourError,
    HoloFunction,
    MonogenicSpec,
    basis_element,
    cauchy_riemann_residual,
    eval_representation,
    gateaux_derivative_fd,
    invert_direct,
    make_zeta,
    multiply,
    norm_euclid,
    representation_field,
    unit_element,
    xi_values,
    zeta_field,
)

from conftest import random_safe_points


def poly_mspec(spec, coeffs):
    return MonogenicSpec(F=tuple(HoloFunction("polynomial", coeffs) for _ in range(spec.m)))


def eval_points(frame, rng, count):
    """Random points where contours are well separated (z clear of 0 for m > 1)."""
    pts = random_safe_points(frame, rng, count)
    if frame.spec.m > 1:
        pts[:, 2] = np.sign(pts[:, 2]) * np.maximum(np.abs(pts[:, 2]), 0.4)
    return pts


def test_constant_one_reproduces_unit(bundles):
    rng = np.random.default_rng(3)
    for bundle in bundles.values():
        spec = bundle.algebra
        frame = bundle.default_frame
        ms = poly_mspec(spec, (1,))
        for p in eval_points(frame, rng, 5):
            got = eval_representation(ms, frame, p)
            assert norm_euclid(got - unit_element(spec)) <= 1e-12


def test_identity_reproduces_zeta(bundles):
    rng = np.random.default_rng(5)
    for bundle in bundles.values():
        spec = bundle.algebra
        frame = bundle.default_frame
        ms = poly_mspec(spec, (0, 1))
        for p in eval_points(frame, rng, 5):
            got = eval_representation(ms, frame, p)
            want = make_zeta(frame, p)
            assert norm_euclid(got - want) <= 1e-11 * (1 + norm_euclid(want))


def test_square_reproduces_zeta_squared(bundles):
    rng = np.random.default_rng(7)
    for bundle in bundles.values():
        spec = bundle.algebra
        frame = bundle.default_frame
        ms = poly_mspec(spec, (0, 0, 1))
        for p in eval_points(frame, rng, 5):
            z = make_zeta(frame, p)
            want = multiply(z, z)
            got = eval_representation(ms, frame, p)
            assert norm_euclid(got - want) <= 1e-10 * (1 + norm_euclid(want))


def test_nilpotent_term_constant(bundles):
    # F = 0, G_s = 1 gives exactly I_s (only the simple pole survives)
    for name in ("A5", "A2_radical"):
        bundle = bundles[name]
        spec = bundle.algebra
        frame = bundle.default_frame
        s = spec.m + 1
        ms = MonogenicSpec(
            F=tuple(HoloFunction("polynomial", (0,)) for _ in range(spec.m)),
            G={s: HoloFunction("polynomial", (1,))},
        )
        got = eval_representation(ms, frame, (0.4, 0.3, 0.6))
        assert norm_euclid(got - basis_element(spec, s)) <= 1e-12


def test_nilpotent_term_polynomial(bundles):
    # F = 0, G_s = c0 + c1 t + c2 t^2 gives I_s G_s(zeta); unlike G_s = 1 this
    # reads the higher G_s moments around every xi_u
    coeffs = (0.7 - 0.2j, -1.1 + 0.4j, 0.35 + 0.5j)
    rng = np.random.default_rng(47)
    for name in ("A5", "A2_radical"):
        bundle = bundles[name]
        spec = bundle.algebra
        frame = bundle.default_frame
        for s in range(spec.m + 1, spec.n + 1):
            ms = MonogenicSpec(
                F=tuple(HoloFunction("polynomial", (0,)) for _ in range(spec.m)),
                G={s: HoloFunction("polynomial", coeffs)},
            )
            for p in eval_points(frame, rng, 3):
                z = make_zeta(frame, p)
                g = coeffs[0] * unit_element(spec) + coeffs[1] * z + coeffs[2] * multiply(z, z)
                want = multiply(basis_element(spec, s), g)
                got = eval_representation(ms, frame, p)
                assert norm_euclid(got - want) <= 1e-11 * (1 + norm_euclid(want)), (name, s)


def test_linearity(bundles):
    frame = bundles["A5"].default_frame
    spec = frame.spec
    p = (0.5, 0.3, -0.4)
    f1 = poly_mspec(spec, (0.3, 1.0, 0.25))
    f2 = poly_mspec(spec, (-1.0, 0.5j, 0, 2.0))
    fsum = poly_mspec(spec, (0.3 - 1.0, 1.0 + 0.5j, 0.25, 2.0))
    got = eval_representation(fsum, frame, p)
    want = eval_representation(f1, frame, p) + eval_representation(f2, frame, p)
    assert norm_euclid(got - want) <= 1e-12


def test_contour_independence(bundles):
    # a callable runs the trapezoid rule on each contour; series data would
    # give Taylor jets, which never read the contour
    frame = bundles["A5"].default_frame
    p = (0.5, 0.3, -0.4)
    xi = complex(xi_values(frame, p)[0])
    exp = _as_callable(np.exp)
    small = MonogenicSpec(F=(exp,), contours={1: (xi, 0.8)})
    big = MonogenicSpec(F=(exp,), contours={1: (xi, 1.6)})
    a = eval_representation(small, frame, p)
    b = eval_representation(big, frame, p)
    assert norm_euclid(a - b) <= 1e-9 * (1 + norm_euclid(a))


def test_enclosure_violation(bundles):
    frame = bundles["C2"].default_frame
    p = (0.4, 0.1, 0.3)
    xi = xi_values(frame, p)
    F = (HoloFunction("polynomial", (1,)), HoloFunction("polynomial", (1,)))
    ms = MonogenicSpec(F=F, contours={1: (complex(xi[0]), 10.0)})  # swallows xi_2 as well
    with pytest.raises(ContourError, match="also encloses xi_2"):
        eval_representation(ms, frame, p)
    ms = MonogenicSpec(F=F, contours={1: (complex(xi[0]) + 1.0, 0.5)})  # misses xi_1
    with pytest.raises(ContourError, match="fails to enclose xi_1"):
        eval_representation(ms, frame, p)


def test_automatic_contours_enclose_by_construction(bundles):
    # the representation checks only given contours: an automatic one is
    # centred at xi_u with 0.4 times the gap to the other xi as its radius
    from monalg.monogenic import _auto_contours, _check_enclosure

    rng = np.random.default_rng(29)
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            m = frame.spec.m
            xi = xi_values(frame, rng.uniform(-2.0, 2.0, size=(1000, 3)))
            centers, radii = _auto_contours(xi, m, {})
            for u in range(1, m + 1):
                _check_enclosure(xi, u, centers[u - 1], radii[u - 1])


def test_rational_pole_on_contour(bundles):
    frame = bundles["A5"].default_frame
    p = (0.5, 0.3, -0.4)
    xi = complex(xi_values(frame, p)[0])
    ms = MonogenicSpec(
        F=(HoloFunction("rational", num=(1,), den=(-(xi + 1.0), 1.0)),),  # pole at xi + 1
        contours={1: (xi, 1.0)},
    )
    with pytest.raises(ContourError):
        eval_representation(ms, frame, p)


def test_rational_pole_inside_contour_raises(bundles):
    # the Cauchy formula needs F holomorphic inside the contour; a quadrature
    # would silently add the pole's residue
    frame = bundles["A5"].default_frame
    p = (0.5, 0.3, -0.4)
    xi = complex(xi_values(frame, p)[0])
    ms = MonogenicSpec(
        F=(HoloFunction("rational", num=(1,), den=(-(xi + 0.5j), 1.0)),),  # pole at xi + 0.5i
        contours={1: (xi, 1.0)},
    )
    with pytest.raises(ContourError, match="inside"):
        eval_representation(ms, frame, p)
    zero_den = MonogenicSpec(F=(HoloFunction("rational", num=(1,), den=(0,)),))
    with pytest.raises(ContourError, match="zero denominator"):
        eval_representation(zero_den, frame, p)


def test_rational_evaluates_cleanly(bundles):
    frame = bundles["A5"].default_frame
    ms = MonogenicSpec(F=(HoloFunction("rational", num=(1.0,), den=(-4.0, 1.0)),))
    got = eval_representation(ms, frame, (0.5, 0.3, -0.4), nodes=2048)
    # oracle: 1/(t - 4) integrated against the resolvent equals (zeta - 4)^{-1}
    want = invert_direct(make_zeta(frame, (0.5, 0.3, -0.4)) - 4.0 * unit_element(frame.spec))
    assert norm_euclid(got - want) <= 1e-10 * (1 + norm_euclid(want))


def test_gateaux_linear_field_exact(bundles):
    frame = bundles["A5"].frames["harmonic"]
    d = (0.3, -0.8, 0.5)
    got = gateaux_derivative_fd(zeta_field(frame), frame, (0.2, 0.4, 0.1), d, eps=1e-3)
    want = make_zeta(frame, d)
    np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-12)


def test_gateaux_constant_zero(bundles):
    frame = bundles["A5"].default_frame
    from monalg import constant_field
    got = gateaux_derivative_fd(constant_field(unit_element(frame.spec)), frame,
                                (0.2, 0.4, 0.1), (1, 0, 0), eps=1e-4)
    assert norm_euclid(got) == 0.0


def test_gateaux_recovers_derivative_of_square(bundles):
    frame = bundles["A5"].default_frame
    from monalg import zeta_power_field
    p = (0.6, 0.2, -0.3)
    eps = 1e-6
    h = (0.5, 0.2, 0.7)
    q = gateaux_derivative_fd(zeta_power_field(frame, 2), frame, p, h, eps=eps)
    got = multiply(q, invert_direct(make_zeta(frame, h)))
    want = 2.0 * make_zeta(frame, p)
    assert norm_euclid(got - want) <= 50 * eps


def test_cauchy_riemann_zeta_exact(bundles):
    for bundle in bundles.values():
        frame = bundle.default_frame
        r2, r3 = cauchy_riemann_residual(zeta_field(frame), frame, (0.3, 0.2, 0.5), h=1e-4)
        assert r2 <= 1e-11 and r3 <= 1e-11


def test_cauchy_riemann_representation_second_order(bundles):
    # representation closure on every fixture: residual shrinks like h^2
    for bundle in bundles.values():
        frame = bundle.default_frame
        field = representation_field(
            poly_mspec(frame.spec, tuple(HoloFunction.exp_series(12).coeffs)), frame, nodes=256
        )
        p = (0.45, 0.35, 0.55)  # z clear of 0 keeps multi-idempotent contours apart
        r = [sum(cauchy_riemann_residual(field, frame, p, h)) for h in (1e-3, 5e-4, 2.5e-4)]
        assert 2.8 <= r[0] / r[1] <= 5.2
        assert 2.8 <= r[1] / r[2] <= 5.2


def test_cauchy_riemann_detects_violation(bundles):
    frame = bundles["A5"].frames["harmonic"]
    spec = frame.spec

    def u1_only(pts):
        out = np.zeros(pts.shape[:-1] + (spec.n,), dtype=complex)
        out[..., 0] = pts[..., 0]
        return out

    r2, _ = cauchy_riemann_residual(u1_only, frame, (0.3, 0.2, 0.5), h=1e-4)
    assert r2 > 0.5  # norm(I_1 e2) = sqrt(3) here


def test_coinciding_functionals_give_clear_error(bundles):
    # on the z = 0 plane the two C2 functional values coincide and the
    # representation has no separating contour
    frame = bundles["C2"].default_frame
    ms = poly_mspec(frame.spec, (0, 1))
    with pytest.raises(ContourError, match="coincides"):
        eval_representation(ms, frame, (0.4, 0.1, 0.0))


def test_callable_integrand_flagged_but_works(bundles):
    frame = bundles["A5"].default_frame
    with pytest.warns(UserWarning, match="unverified"):
        h = HoloFunction("callable", fn=lambda t: np.exp(0.3 * t))
    got = eval_representation(MonogenicSpec(F=(h,)), frame, (0.5, 0.3, -0.4), nodes=512)
    # oracle: the degree-14 truncation of the same exponential
    series = HoloFunction.exp_series(14, scale=0.3)
    want = eval_representation(MonogenicSpec(F=(series,)), frame, (0.5, 0.3, -0.4), nodes=512)
    assert norm_euclid(got - want) <= 1e-9


def test_eval_representation_returns_its_batch_row(bundles):
    for name in ("A5", "C2"):
        frame = bundles[name].default_frame
        spec = frame.spec
        ms = MonogenicSpec(F=tuple(HoloFunction.exp_series(8) for _ in range(spec.m)),
                           G={spec.n: HoloFunction("polynomial", (0.5, 1.0))} if spec.n > spec.m else {})
        pts = eval_points(frame, np.random.default_rng(12), 5)
        batch = representation_field(ms, frame, nodes=256)(pts)
        for i, p in enumerate(pts):
            assert np.array_equal(eval_representation(ms, frame, p, nodes=256).coeffs, batch[i])


def _as_callable(h):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # unverified holomorphy, by design
        return HoloFunction("callable", fn=lambda t: h(t))


def _each_kind(spec, pole_radius):
    """One MonogenicSpec per non-callable kind; rational poles sit at distance
    pole_radius from the origin, G_s are degree 2 for every nilpotent s."""
    m, n = spec.m, spec.n
    q1, q2 = pole_radius, -pole_radius + 0.5j
    kinds = {
        "polynomial": [HoloFunction("polynomial", (0.3, -1.2 + 0.5j, 0.8, 0.25j))] * m,
        "series": [HoloFunction("series", tuple((0.4 - 0.3j) ** k / (k + 1) for k in range(13)),
                                center=0.2 - 0.1j)] * m,
        "rational": [HoloFunction("rational", num=(1.0, 0.5j, -0.3),
                                  den=(q1 * q2, -(q1 + q2), 1.0))] * m,
    }
    out = {kind: MonogenicSpec(F=tuple(F)) for kind, F in kinds.items()}
    if n > m:
        out["G_s"] = MonogenicSpec(
            F=tuple(kinds["polynomial"]),
            G={s: HoloFunction("polynomial", (0.7 - 0.2j, -1.1 + 0.4j, 0.35 + 0.5j))
               for s in range(m + 1, n + 1)},
        )
    return out


def test_jets_match_trapezoid_quadrature(bundles):
    # the same data wrapped as callables runs the periodic trapezoid rule
    rng = np.random.default_rng(53)
    for name in ("A5", "J71", "C2", "A2_radical"):
        frame = bundles[name].default_frame
        pts = eval_points(frame, rng, 4)
        # poles at least 3 away from every xi_u, far outside every contour
        pole_radius = float(np.abs(xi_values(frame, pts)).max()) + 3.0
        for kind, ms in _each_kind(frame.spec, pole_radius).items():
            twin = MonogenicSpec(F=tuple(_as_callable(h) for h in ms.F),
                                 G={s: _as_callable(g) for s, g in ms.G.items()})
            for p in pts:
                got = eval_representation(ms, frame, p)
                ref = eval_representation(twin, frame, p)
                assert norm_euclid(got - ref) <= 1e-12 * (1 + norm_euclid(ref)), (name, kind)


def test_only_callables_reach_the_trapezoid(bundles, monkeypatch):
    import monalg.monogenic

    def spy(*args, **kwargs):
        raise AssertionError("trapezoid rule reached")

    monkeypatch.setattr(monalg.monogenic, "_trapezoid_moments", spy)
    rng = np.random.default_rng(59)
    for bundle in bundles.values():
        frame = bundle.default_frame
        pts = eval_points(frame, rng, 3)
        pole_radius = float(np.abs(xi_values(frame, pts)).max()) + 3.0
        for ms in _each_kind(frame.spec, pole_radius).values():
            representation_field(ms, frame)(pts)
    frame = bundles["A5"].default_frame
    with pytest.raises(AssertionError, match="trapezoid"):
        eval_representation(MonogenicSpec(F=(_as_callable(HoloFunction.exp_series(4)),)),
                            frame, (0.5, 0.3, -0.4))


def test_one_pole_rule_for_rational_data(bundles):
    # poles are the roots of den on both paths: a small nonzero constant
    # denominator has none, whether the function is called or integrated
    frame = bundles["A5"].default_frame
    p = (0.5, 0.3, -0.4)
    tiny = HoloFunction("rational", num=(1,), den=(1e-13,))
    assert tiny(np.array([0.5]))[0] == pytest.approx(1e13, rel=1e-15)
    want = 1e13 * unit_element(frame.spec)
    for F in (tiny, _as_callable(tiny)):
        got = eval_representation(MonogenicSpec(F=(F,)), frame, p)
        assert norm_euclid(got - want) <= 1e-12 * norm_euclid(want)
    near = HoloFunction("rational", num=(1,), den=(-0.5, 1.0))  # pole at 0.5
    for t in (0.5, 0.5 + 1e-13j):
        with pytest.raises(ContourError, match="pole at"):
            near(np.array([t]))
    assert near(np.array([0.5 + 1e-9]))[0] == pytest.approx(1e9)
    with pytest.raises(ContourError, match="zero denominator"):
        HoloFunction("rational", num=(1,), den=(0,))(np.array([0.5]))


def test_rational_roots_are_found_once(bundles, monkeypatch):
    import monalg.monogenic

    frame = bundles["A5"].default_frame
    ms = MonogenicSpec(F=(HoloFunction("rational", num=(1.0, 0.5j), den=(-4.0, 0.0, 1.0)),))
    first = eval_representation(ms, frame, (0.5, 0.3, -0.4))
    calls = []
    real = monalg.monogenic.np.roots
    monkeypatch.setattr(monalg.monogenic.np, "roots", lambda c: calls.append(c) or real(c))
    for _ in range(3):
        again = eval_representation(ms, frame, (0.5, 0.3, -0.4))
        assert np.array_equal(again.coeffs, first.coeffs)
    assert calls == []


def test_callable_point_is_its_row_of_a_multi_block_batch(bundles):
    # 700 points at 1024 nodes span three blocks of the trapezoid moments
    for name in ("A5", "C2"):
        frame = bundles[name].default_frame
        ms = MonogenicSpec(F=tuple(_as_callable(HoloFunction.exp_series(10, 0.4))
                                   for _ in range(frame.spec.m)))
        pts = eval_points(frame, np.random.default_rng(61), 700)
        batch = representation_field(ms, frame, nodes=1024)(pts)
        for i, p in enumerate(pts):
            assert np.array_equal(eval_representation(ms, frame, p, nodes=1024).coeffs, batch[i])


def test_each_point_meets_its_guards_alone(bundles):
    # a point's outcome and row do not depend on the batch it is in: each
    # guard is scaled by the point's own size, not by the batch's largest
    from monalg import NonInvertibleError
    from monalg.geometry import noninvertibility_lines
    from monalg.resolvent import _zeta_inverse_batch

    far = np.array([100.0, 0.3, 0.2])
    a5, c2 = bundles["A5"].default_frame, bundles["C2"].default_frame
    near = 0.7 * noninvertibility_lines(a5)[0].direction + np.array([1e-12, 0.0, 0.0])
    assert abs(xi_values(a5, near)[0]) == pytest.approx(1e-12, rel=1e-3)
    with pytest.raises(NonInvertibleError):  # but only below 1e-13 (1 + |p|)
        _zeta_inverse_batch(a5, np.stack([near - np.array([9.9e-13, 0, 0]), far]))
    # C2 at (0.5, 0, z): |xi_1 - xi_2| = 2z, 5e-9 for the polynomial data's
    # contours and 2e-10 for the callable's trapezoid nodes, 8e-11 off xi_u
    poly = MonogenicSpec(F=(HoloFunction("polynomial", (0.5,)),) * 2)
    with pytest.warns(UserWarning, match="unverified"):
        call = MonogenicSpec(F=(HoloFunction("callable", fn=lambda t: 0.5 + 0.0 * t),) * 2)
    cases = [(lambda b: _zeta_inverse_batch(a5, b), near),
             (representation_field(poly, c2), np.array([0.5, 0.0, 2.5e-9])),
             (representation_field(call, c2), np.array([0.5, 0.0, 1e-10]))]
    for field, p in cases:
        alone = field(p[None])[0]
        assert np.array_equal(field(np.stack([p, far]))[0], alone)
        assert np.array_equal(field(np.stack([far, p]))[1], alone)
    for _, p in cases[1:]:
        assert abs(np.diff(xi_values(c2, p))[0]) == pytest.approx(2 * p[2])
    np.testing.assert_allclose(representation_field(poly, c2)(np.array([[0.5, 0.0, 2.5e-9]]))[0],
                               [0.5, 0.5], rtol=1e-14)


def test_non_finite_points_are_named(bundles):
    from monalg import Curve3, circle_curve

    for name, p in (("C2", (np.nan, 0.1, 0.2)), ("A5", (np.inf, 0.1, 0.2))):
        frame = bundles[name].default_frame
        ms = poly_mspec(frame.spec, (0.5, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"needs a finite point: xi_1 = \((nan|inf)"):
                eval_representation(ms, frame, p)
            pts = np.array([(0.5, 0.3, -0.4), p])
            with pytest.raises(ValueError, match=r"xi_1 .* at batch index \(1,\)"):
                representation_field(ms, frame)(pts)
        # a curve through the point is refused where it is built, before any field runs
        pts = circle_curve(nodes=64).points.copy()
        pts[5] = p
        with pytest.raises(ValueError, match="curve node 5 is not finite"):
            Curve3(pts, closed=True)


def test_non_finite_holomorphic_data_is_named():
    # checked once, at construction, not per evaluation
    for name, kind, data in (("coeffs", "polynomial", (1.0, np.nan)),
                             ("coeffs", "series", (0.5, complex(0.0, np.inf))),
                             ("num", "rational", (1.0, np.inf)),
                             ("den", "rational", (1.0, np.nan))):
        with pytest.raises(ValueError, match=f"{name} is not finite at index 1"):
            HoloFunction(kind, **{name: data})
    with pytest.raises(ValueError, match="center .* is not finite"):
        HoloFunction("polynomial", (0.0, 1.0), center=complex(np.nan, 0.0))
    assert HoloFunction("polynomial", (0.0, 1.0))(0.5) == 0.5


def test_gateaux_derivative_reports_a_failing_field(bundles):
    from monalg import FieldEvaluationError

    frame = bundles["A5"].default_frame

    def boom(pts):
        raise RuntimeError("boom")

    with pytest.raises(FieldEvaluationError, match="boom"):
        gateaux_derivative_fd(boom, frame, (0.2, 0.4, 0.1), (1, 0, 0), eps=1e-4)
    one_row = lambda pts: np.ones((1, frame.spec.n), dtype=complex)  # noqa: E731
    with pytest.raises(FieldEvaluationError, match="shape"):
        gateaux_derivative_fd(one_row, frame, (0.2, 0.4, 0.1), (1, 0, 0), eps=1e-4)
