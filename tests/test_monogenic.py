import itertools
import re
import sys
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
    # byte for byte, for every kind of data on every frame
    rng = np.random.default_rng(12)
    call = _as_callable(HoloFunction.exp_series(6, 0.4))
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            spec = frame.spec
            pts = eval_points(frame, rng, 3)
            kinds = _each_kind(spec, float(np.abs(xi_values(frame, pts)).max()) + 3.0)
            kinds["callable"] = MonogenicSpec(F=(call,) * spec.m)
            kinds["series, G_n"] = MonogenicSpec(
                F=(HoloFunction.exp_series(8),) * spec.m,
                G={spec.n: HoloFunction("polynomial", (0.5, 1.0))} if spec.n > spec.m else {})
            for kind, ms in kinds.items():
                batch = representation_field(ms, frame, nodes=256)(pts)
                for i, p in enumerate(pts):
                    one = eval_representation(ms, frame, p, nodes=256).coeffs
                    assert _same_bytes(one, np.ascontiguousarray(batch[i])), (spec.name, kind)


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

    good = (0.5, 0.3, -0.4)
    for name, p in (("C2", (np.nan, 0.1, 0.2)), ("A5", (np.inf, 0.1, 0.2))):
        frame = bundles[name].default_frame
        ms = poly_mspec(frame.spec, (0.5, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"point {p} is not finite "
                                                           "(batch index 0)")):
                eval_representation(ms, frame, p)
            with pytest.raises(ValueError, match=re.escape(f"point {p} is not finite "
                                                           "(batch index 1)")):
                representation_field(ms, frame)(np.array([good, p]))
        # a curve through the point is refused where it is built, before any field runs
        pts = circle_curve(nodes=64).points.copy()
        pts[5] = p
        with pytest.raises(ValueError, match="curve node 5 is not finite"):
            Curve3(pts, closed=True)
    # an infinite y or z is refused before zeta is formed, where it would meet
    # the zero parts of a and b; so is a point whose xi_u or T_s would
    # overflow, with a coordinate above finfo.max / (3 max(1, |a|, |b|)), and
    # one whose powers of T_s in the recurrences would, with |y| or |z| above
    # the frame's limit for them (A5: 9.6e75, from T^4)
    frame = bundles["A5"].default_frame
    ms = poly_mspec(frame.spec, (0.5, 1.0))
    for p, says in (((0.3, -np.inf, 0.2), "is not finite"), ((0.3, 0.1, np.inf), "is not finite"),
                    ((1e308, 1e308, 0.2), "is out of the representation's range"),
                    ((0.3, 1e308, 1e308), "is out of the representation's range"),
                    ((0.3, 1e155, 0.2), "is out of the representation's range"),
                    ((0.3, 1e80, 0.2), "is out of the representation's range")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"point {p} {says}")
                               + r".*\(batch index 0\)"):
                eval_representation(ms, frame, p)
            with pytest.raises(ValueError, match=re.escape(f"point {p} {says}")
                               + r".*\(batch index 1\)"):
                representation_field(ms, frame)(np.array([good, p]))


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


def test_large_x_keeps_its_value(bundles):
    # x enters no power of T: F(t) = 0.5 + t gives 0.5 + zeta far past T's limit
    frame = bundles["A5"].default_frame
    p = (1e80, 0.1, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_representation(poly_mspec(frame.spec, (0.5, 1.0)), frame, p)
    want = make_zeta(frame, p) + 0.5 * unit_element(frame.spec)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-15, atol=1e-15)


def test_no_warning_at_the_range_limits(bundles):
    # every sign at |x|, |y|, |z| on the frame's limits runs clean; one step
    # past any of them is refused
    for bundle in bundles.values():
        for label, frame in bundle.frames.items():
            ms = poly_mspec(frame.spec, (0.5, 1.0))
            lim = frame.rep_limits
            for signs in itertools.product((1.0, -1.0), repeat=3):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    vals = eval_representation(ms, frame, np.multiply(signs, lim)).coeffs
                assert np.isfinite(vals).all(), (bundle.algebra.name, label, signs)
            for i in range(3):
                p = lim.copy()
                p[i] = np.nextafter(p[i], np.inf)
                with pytest.raises(ValueError, match="out of the representation's range"):
                    eval_representation(ms, frame, p)


def test_range_limit_of_x_is_the_old_per_call_expression(bundles):
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            scale = max(1.0, *map(abs, frame.a.tolist()), *map(abs, frame.b.tolist()))
            assert frame.rep_limits[0] == sys.float_info.max / (3 * scale)
            assert frame.rep_limits[1] == frame.rep_limits[2] <= frame.rep_limits[0]


def _full_jet(coeffs, w, kmax: int) -> list:
    """The Taylor jet by one Horner pass over all kmax accumulators, as _jet
    was before it stopped at the degree: the reference for its bits."""
    jet = [0.0] * kmax
    for c in reversed(coeffs or (0.0,)):
        for k in range(kmax - 1, 0, -1):
            jet[k] = jet[k] * w + jet[k - 1]
        jet[0] = jet[0] * w + c
    return jet


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_jet_stops_at_the_degree_bit_for_bit():
    from monalg.monogenic import _jet

    rng = np.random.default_rng(67)
    w = rng.normal(size=24) + 1j * rng.normal(size=24)
    w[:4] = [0.0, -0.0, complex(-0.0, -0.0), complex(-1.5, -0.0)]  # signed zeros
    for degree in range(15):
        coeffs = tuple(complex(*rng.normal(size=2)) for _ in range(degree + 1))
        if degree:
            coeffs = coeffs[:1] + (complex(-0.0, 0.0),) + coeffs[2:]
        for kmax in range(1, 6):
            for batch in (w, w[3:4]):
                got, want = _jet(coeffs, batch, kmax), _full_jet(coeffs, batch, kmax)
                assert len(got) == min(kmax, degree + 1)
                assert all(_same_bytes(g, v) for g, v in zip(got, want)), (degree, kmax)
                for v in want[len(got):]:  # the entries dropped are exact +0
                    assert _same_bytes(v, np.zeros_like(batch)), (degree, kmax)
    assert len(_jet((), w, 3)) == 1


def test_representation_is_that_of_full_jets(bundles, monkeypatch):
    # with full-length jets _expand reads every factor and the rational
    # quotient pads nothing, as before the jets stopped at the degree
    import monalg.monogenic

    rng = np.random.default_rng(71)
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            pts = eval_points(frame, rng, 4)
            pole_radius = float(np.abs(xi_values(frame, pts)).max()) + 3.0
            kinds = _each_kind(frame.spec, pole_radius)
            kinds["low degree"] = MonogenicSpec(
                F=(HoloFunction("polynomial", (0.5, -1.0j)),) * frame.spec.m,
                G={s: HoloFunction("polynomial", (0.25 - 1j,))
                   for s in range(frame.spec.m + 1, frame.spec.n + 1)})
            for kind, ms in kinds.items():
                got = representation_field(ms, frame)(pts)
                with monkeypatch.context() as mp:
                    mp.setattr(monalg.monogenic, "_jet", _full_jet)
                    want = representation_field(ms, frame)(pts)
                assert _same_bytes(got, want), (bundle.algebra.name, kind)


def test_auto_contour_gaps_are_the_delete_form_bit_for_bit():
    from monalg.monogenic import _auto_contours

    rng = np.random.default_rng(79)
    for m in range(1, 5):
        xi = rng.normal(size=(50, m)) + 1j * rng.normal(size=(50, m))
        centers, radii = _auto_contours(xi, m, {2: (0.5j, 0.1)} if m == 3 else {})
        for u in range(1, m + 1):
            if m == 3 and u == 2:
                assert np.all(radii[1] == 0.1) and np.all(centers[1] == 0.5j)
                continue
            c = xi[:, u - 1]
            gap = (np.min(np.abs(np.delete(xi, u - 1, axis=1) - c[:, None]), axis=1)
                   if m > 1 else 2.5)
            assert _same_bytes(centers[u - 1], c)
            assert _same_bytes(radii[u - 1], 0.4 * gap * np.ones(50))


def test_contour_roots_are_built_once_read_only():
    from monalg.monogenic import _contour_roots

    for nodes in (1, 7, 64, 1024):
        rot = _contour_roots(nodes)
        assert _contour_roots(nodes) is rot
        assert not rot.flags.writeable
        assert _same_bytes(rot, np.exp(1j * (2 * np.pi * np.arange(nodes) / nodes)))
        with pytest.raises(ValueError, match="read-only"):
            rot[0] = 0.0


def test_one_entry_evaluates_several_functions_at_one_point_set(bundles, monkeypatch):
    # the three standard functions of the CLI and one G_s function, evaluated
    # together: each gives its own representation's bytes, from one recurrence
    import monalg.monogenic
    from monalg import FieldEvaluationError, cauchy_theorem_residuals, circle_curve
    from monalg.cli import _standard_mspecs
    from monalg.monogenic import _rep_values

    calls = []
    real = monalg.monogenic._recurrences
    monkeypatch.setattr(monalg.monogenic, "_recurrences",
                        lambda *args: calls.append(args) or real(*args))
    rng = np.random.default_rng(73)
    for bundle in bundles.values():
        for label, frame in bundle.frames.items():
            spec = frame.spec
            mspecs = dict(_standard_mspecs(spec))
            if spec.n > spec.m:
                mspecs["G_s"] = MonogenicSpec(F=(HoloFunction.exp_series(6),) * spec.m,
                                              G={spec.n: HoloFunction("polynomial", (0.5, -1j))})
            pts = eval_points(frame, rng, 3)
            calls.clear()
            batches = list(_rep_values(list(mspecs.values()), frame, pts))
            assert len(calls) == 1, (spec.name, label)
            for ms, batch in zip(mspecs.values(), batches):
                for i, p in enumerate(pts):
                    one = eval_representation(ms, frame, p).coeffs
                    assert _same_bytes(one, np.ascontiguousarray(batch[i])), (spec.name, label)

    # the range check runs before any function, and its ValueError is not wrapped
    frame = bundles["A5"].default_frame
    mspecs = _standard_mspecs(frame.spec)
    far = circle_curve(center=(0.3, 1e80, 0.2), radius=1.0, nodes=16)
    with pytest.raises(ValueError, match="out of the representation's range") as err:
        cauchy_theorem_residuals(mspecs, frame, far)
    assert not isinstance(err.value, FieldEvaluationError)
    # a ContourError of one function is reported as the curve's
    lost = MonogenicSpec(F=mspecs["square"].F, contours={1: (5.0, 0.1)})
    with pytest.raises(FieldEvaluationError, match="failed on curve: contour for u=1"):
        cauchy_theorem_residuals({**mspecs, "lost": lost}, frame,
                                 circle_curve(center=(0.3, 0.1, 0.2), nodes=16))


def test_overflowing_data_name_the_point(bundles):
    # the range rule bounds zeta and the recurrences, not the jets of the
    # data: a degree-14 series passes finfo.max at x = 1e25 and is refused
    # there, with no RuntimeWarning, while x = 1e20 keeps its value
    from monalg import FieldEvaluationError, cauchy_theorem_residuals, circle_curve

    frame = bundles["A5"].default_frame
    exp = MonogenicSpec(F=(HoloFunction.exp_series(14),))
    good = (0.5, 0.3, -0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ((1e25, 0.1, 0.2), (1e70, 0.1, 0.2)):
            says = re.escape(f"point {p} overflows the representation of its data")
            with pytest.raises(ValueError, match=says + re.escape(" (batch index 0)")):
                eval_representation(exp, frame, p)
            with pytest.raises(ValueError, match=says + re.escape(" (batch index 1)")):
                representation_field(exp, frame)(np.array([good, p]))
        with pytest.raises(FieldEvaluationError, match="failed on curve: point .* overflows"):
            cauchy_theorem_residuals({"exp": exp}, frame,
                                     circle_curve(center=(1e25, 0.1, 0.2), nodes=16))
        p = (1e20, 0.1, 0.2)
        got = eval_representation(exp, frame, p)
    z = make_zeta(frame, p)
    term, want = unit_element(frame.spec), unit_element(frame.spec)
    for k in range(1, 15):
        term = multiply(term, z) * (1.0 / k)
        want = want + term
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12)
