import itertools
import re

import numpy as np
import pytest

from monalg import (
    HoloFunction,
    MonogenicSpec,
    NonInvertibleError,
    SingularityError,
    atilde_closed,
    cauchy_formula_residuals,
    circle_curve,
    eval_representation,
    invert_direct,
    make_zeta,
    multiply,
    noninvertibility_lines,
    norm_euclid,
    resolvent_at,
    sigma_closed,
    sigma_direct,
    unit_element,
    xi_values,
    zeta_field,
    zeta_inverse_closed,
)
from monalg.geometry import _zeta_coeffs
from monalg.resolvent import (_inverse, _one, _recurrences, _resolvent_batch,
                              _zeta_inverse_batch)

from conftest import random_safe_points


def _recurrence_data(frame, p):
    """xi, T, B and Q of zeta at the single point p, each a batch of one;
    T[0, s - m - 1] is T_s."""
    return _recurrences(frame.spec, _zeta_coeffs(frame, _one(p)))


def test_t_values_harmonic_frame(bundles):
    frame = bundles["A5"].frames["harmonic"]
    y, z = -0.7, 1.3
    xi, T, _, _ = _recurrence_data(frame, (0.4, y, z))
    np.testing.assert_allclose(T[0], [z * (1 - 1j), y, z * (1 - 3j) / 4, y])
    np.testing.assert_allclose(xi[0], [0.4 + 1j * y])


def test_semisimple_has_no_nilpotent_data(bundles):
    xi, T, B, Q = _recurrence_data(bundles["C2"].default_frame, (0.3, 0.4, 0.5))
    assert T.shape == (1, 0) and B == {} and Q == {}
    np.testing.assert_allclose(xi[0], [0.3 + 0.4j + 0.5, 0.3 + 0.4j - 0.5])


def test_recurrence_base_cases(bundles):
    rng = np.random.default_rng(2)
    for bundle in bundles.values():
        spec = bundle.algebra
        frame = bundle.default_frame
        for _ in range(10):
            _, T, _, Q = _recurrence_data(frame, rng.uniform(-2, 2, size=3))
            for s in range(spec.m + 1, spec.n + 1):
                assert Q[(2, s)][0] == T[0, s - spec.m - 1]
                for k in Q:
                    assert 2 <= k[0] <= k[1] - spec.m + 1


def test_resolvent_semisimple_form(bundles):
    frame = bundles["C2"].default_frame
    p = (0.2, -0.3, 0.7)
    xi = xi_values(frame, p)
    t = 2.5 + 1j
    res = resolvent_at(t, frame, p)
    np.testing.assert_allclose(res.coeffs, 1.0 / (t - xi), atol=1e-14)


def test_resolvent_names_a_non_finite_t(bundles):
    frame = bundles["A5"].default_frame
    for t in (complex("nan"), complex("inf"), complex(0.5, -np.inf)):
        with pytest.raises(ValueError, match=re.escape(f"t = {t} is not finite")):
            resolvent_at(t, frame, (0.3, 0.4, 0.5))
    # with one t per point, the first non-finite one is named
    with pytest.raises(ValueError, match=re.escape("t = (nan+0j) is not finite")):
        _resolvent_batch(frame, np.array([(0.3, 0.4, 0.5)] * 3), np.array([3.1, np.nan, np.inf]))


def test_resolvent_matches_linear_solve(bundles):
    rng = np.random.default_rng(23)
    for bundle in bundles.values():
        frame = bundle.default_frame
        spec = bundle.algebra
        one = unit_element(spec)
        for p in random_safe_points(frame, rng, 25):
            t = complex(rng.uniform(2.5, 4.0), rng.uniform(0.5, 1.5))
            oracle = invert_direct(t * one - make_zeta(frame, p))
            res = resolvent_at(t, frame, p)
            assert norm_euclid(res - oracle) <= 1e-10 * norm_euclid(oracle)


def test_resolvent_decays_like_one_over_t(bundles):
    frame = bundles["A5"].frames["harmonic"]
    t = 1e8
    res = resolvent_at(t, frame, (0.3, 0.5, -0.2))
    assert abs(t) * norm_euclid(res) == pytest.approx(norm_euclid(unit_element(frame.spec)), rel=1e-6)


def test_resolvent_pole_raises(bundles):
    frame = bundles["A5"].frames["harmonic"]
    p = (0.3, 0.5, -0.2)
    with pytest.raises(SingularityError) as err:
        resolvent_at(0.3 + 0.5j, frame, p)
    assert err.value.u == 1


def test_zeta_inverse_matches_linear_solve(bundles):
    rng = np.random.default_rng(29)
    for bundle in bundles.values():
        frame = bundle.default_frame
        for p in random_safe_points(frame, rng, 25):
            oracle = invert_direct(make_zeta(frame, p))
            closed = zeta_inverse_closed(frame, p)
            assert norm_euclid(closed - oracle) <= 1e-9 * norm_euclid(oracle)


def test_zeta_inverse_times_zeta_is_unit(bundles):
    rng = np.random.default_rng(31)
    for bundle in bundles.values():
        frame = bundle.default_frame
        one = unit_element(bundle.algebra)
        for p in random_safe_points(frame, rng, 10):
            z = make_zeta(frame, p)
            assert norm_euclid(multiply(z, zeta_inverse_closed(frame, p)) - one) <= 1e-10


def test_zeta_inverse_harmonic_general_point(bundles):
    # rho coefficient of zeta^{-1} is z(i-1)/xi^2
    frame = bundles["A5"].frames["harmonic"]
    x, y, z = 0.8, -0.6, 1.1
    xi = x + 1j * y
    inv = zeta_inverse_closed(frame, (x, y, z))
    assert inv.coeff(1) == pytest.approx(1 / xi)
    assert inv.coeff(2) == pytest.approx(z * (1j - 1) / xi**2)
    assert inv.coeff(3) == pytest.approx(-y / xi**2 + z**2 * (1 - 1j) ** 2 / xi**3)
    assert inv.coeff(4) == pytest.approx(
        z * (3j - 1) / (4 * xi**2) + 2 * y * z * (1 - 1j) / xi**3 - z**3 * (1 - 1j) ** 3 / xi**4
    )


def test_zeta_inverse_harmonic_on_plane_circle(bundles):
    # with z = 0 the odd-degree coefficients vanish
    frame = bundles["A5"].frames["harmonic"]
    x, y = 0.6, 0.8
    xi = x + 1j * y
    inv = zeta_inverse_closed(frame, (x, y, 0.0))
    assert inv.coeff(2) == pytest.approx(0.0, abs=1e-15)
    assert inv.coeff(4) == pytest.approx(0.0, abs=1e-15)
    assert inv.coeff(3) == pytest.approx(-y / xi**2)
    assert inv.coeff(5) == pytest.approx(-y / xi**2 + y**2 / xi**3)


def test_zeta_inverse_on_line_raises(bundles):
    frame = bundles["A5"].frames["harmonic"]
    with pytest.raises(NonInvertibleError) as err:
        zeta_inverse_closed(frame, (0.0, 0.0, 1.2))
    assert err.value.u == 1


def test_b_couplings_a5(bundles):
    # rho-power table collapses B_{r,s} to T_{s-r+1}
    frame = bundles["A5"].frames["harmonic"]
    _, T, B, _ = _recurrence_data(frame, (0.4, -0.7, 1.3))
    for (r, s), v in B.items():
        assert v[0] == pytest.approx(T[0, s - r - frame.spec.m])


def test_single_point_calls_return_their_batch_row(bundles):
    t = 3.1 + 0.8j
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            pts = random_safe_points(frame, np.random.default_rng(11), 6)
            inv = _zeta_inverse_batch(frame, pts)
            res = _resolvent_batch(frame, pts, t)
            zc = _zeta_coeffs(frame, pts)
            xi, _, _, Q = _recurrences(frame.spec, zc)
            xis = xi_values(frame, pts)
            assert xis.shape == (len(pts), frame.spec.m)
            for i, p in enumerate(pts):
                assert np.array_equal(zeta_inverse_closed(frame, p).coeffs, inv[i])
                assert np.array_equal(resolvent_at(t, frame, p).coeffs, res[i])
                assert _same_bytes(make_zeta(frame, p).coeffs, zc[i])
                assert _same_bytes(xi_values(frame, p), xis[i])
                xi1, _, _, Q1 = _recurrence_data(frame, p)
                assert np.array_equal(xi1[0], xi[i])
                assert all(Q1[k][0] == v[i] for k, v in Q.items())


def test_resolvent_batch_takes_one_t_per_point(bundles):
    from monalg.resolvent import _resolvent_batch

    rng = np.random.default_rng(17)
    for name in ("A5", "C2"):
        frame = bundles[name].default_frame
        pts = random_safe_points(frame, rng, 6)
        ts = [complex(rng.uniform(2.5, 4.0), rng.uniform(0.5, 1.5)) for _ in pts]
        res = _resolvent_batch(frame, pts, np.array(ts))
        for i, (p, t) in enumerate(zip(pts, ts)):
            assert np.array_equal(resolvent_at(t, frame, p).coeffs, res[i])
    frame = bundles["A5"].frames["harmonic"]
    pts = np.array([[0.3, 0.5, -0.2], [0.3, 0.5, -0.2]])
    with pytest.raises(SingularityError, match=r"t = \(0\.3\+0\.5j\)") as err:
        _resolvent_batch(frame, pts, np.array([3.0 + 1j, 0.3 + 0.5j]))
    assert err.value.u == 1


def _scan_recurrences(frame, pts):
    """xi_u = x + y a_u + z b_u, T_s = y a_s + z b_s and the triple scan over
    gamma_coeff that the coupling plan replaced, transcribed literally as the
    plan's reference."""
    spec = frame.spec
    n, m = spec.n, spec.m
    pts = np.asarray(pts, dtype=float)
    x, y, z = (pts[..., i, None] for i in range(3))
    xi = x + y * frame.a[:m] + z * frame.b[:m]
    T = y * frame.a[m:] + z * frame.b[m:]

    def t_of(s: int):
        return T[..., s - m - 1]

    B = {}
    for s in range(m + 2, n + 1):
        for r in range(m + 1, s):
            acc = 0.0
            for k in range(m + 1, s):
                g = spec.gamma_coeff(r, k, s)
                if g != 0:
                    acc = acc + t_of(k) * g
            B[(r, s)] = acc + np.zeros_like(xi[..., 0])

    Q = {}
    for s in range(m + 1, n + 1):
        Q[(2, s)] = t_of(s)
        for k in range(3, s - m + 2):
            acc = 0.0
            for r in range(k + m - 2, s):
                acc = acc + Q[(k - 1, r)] * B[(r, s)]
            Q[(k, s)] = acc + np.zeros_like(xi[..., 0])
    return xi, T, B, Q


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_plan_matches_the_gamma_scan(bundles):
    from monalg.geometry import _zeta_coeffs
    from monalg.resolvent import _recurrences

    rng = np.random.default_rng(41)
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            pts = random_safe_points(frame, rng, 32)
            for batch in (pts, pts[:1], pts[5:6]):
                got = _recurrences(frame.spec, _zeta_coeffs(frame, batch))
                want = _scan_recurrences(frame, batch)
                assert _same_bytes(got[0], want[0]) and _same_bytes(got[1], want[1])
                for g, w in zip(got[2:], want[2:]):  # B, then Q
                    assert list(g) == list(w)
                    assert all(_same_bytes(g[key], w[key]) for key in w)


def test_orders_are_the_largest_power_the_expansion_reads(bundles):
    # the expansion reads factor k of x_u only where some Q_{k,s} with u_s = u
    # is not identically zero: read off the gamma scan at random points
    rng = np.random.default_rng(43)
    want = {"C2": (1, 1), "A2_radical": (1, 2), "A3": (3,), "A5": (5,), "J69": (3,),
            "A12_plus_A01sq": (3,), "A12_plus_A12": (3,), "J71": (4,)}
    for name, bundle in bundles.items():
        spec = bundle.algebra
        read = [1] * spec.m
        for frame in bundle.frames.values():
            Q = _scan_recurrences(frame, random_safe_points(frame, rng, 8))[3]
            for (k, s), q in Q.items():
                if np.any(q != 0):
                    read[spec.u_map[s] - 1] = max(read[spec.u_map[s] - 1], k)
        assert spec.plan.orders == tuple(read) == want[name]


def test_every_batch_shape_keeps_its_layout(bundles):
    # inside the kernels a batch is one row per coefficient; each point's
    # results, as a batch of one, are its rows of the whole batch, bit for bit
    from monalg.monogenic import _rep_values

    rng = np.random.default_rng(59)
    poly = HoloFunction("polynomial", (0.5, 1.0, -0.3j))
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            n, m = frame.spec.n, frame.spec.m
            pts = random_safe_points(frame, rng, 32)
            pts[:, 2] = np.sign(pts[:, 2]) * np.maximum(np.abs(pts[:, 2]), 0.4)  # m > 1 contours
            mspec = MonogenicSpec(F=(poly,) * m, G={n: poly} if n > m else {})
            kernels = [lambda b: _zeta_inverse_batch(frame, b),
                       lambda b: _resolvent_batch(frame, b, 3.1 + 0.8j),
                       lambda b: next(_rep_values((mspec,), frame, b, 64))]
            flat = [f(pts) for f in kernels]

            def recurrences(b):
                return _recurrences(frame.spec, _zeta_coeffs(frame, b))

            xi, T, B, Q = recurrences(pts)
            for i in range(len(pts)):
                one = slice(i, i + 1)
                for f, want in zip(kernels, flat):
                    assert _same_bytes(f(pts[one]), want[one]), i
                got = recurrences(pts[one])
                assert _same_bytes(got[0], xi[one]) and _same_bytes(got[1], T[one])
                for g, w in zip(got[2:], (B, Q)):
                    assert list(g) == list(w)
                    assert all(_same_bytes(g[key], w[key][one]) for key in w)


def test_evaluation_never_scans_gamma(bundles, monkeypatch):
    from monalg import AlgebraSpec

    def spy(self, r, s, k):
        raise AssertionError("gamma_coeff called during evaluation")

    monkeypatch.setattr(AlgebraSpec, "gamma_coeff", spy)
    rng = np.random.default_rng(43)
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            n, m = frame.spec.n, frame.spec.m
            p = random_safe_points(frame, rng, 1)[0]
            p[2] = np.sign(p[2]) * max(abs(p[2]), 0.4)  # separated contours for m > 1
            dp = rng.normal(size=3)
            zeta_inverse_closed(frame, p)
            resolvent_at(3.1 + 0.8j, frame, p)
            atilde_closed(frame, p)
            sigma_closed(frame, p, dp)
            sigma_direct(frame, p, dp)
            poly = HoloFunction("polynomial", (0.5, 1.0, -0.3j))
            G = {n: poly} if n > m else {}
            eval_representation(MonogenicSpec(F=(poly,) * m, G=G), frame, p)


def test_pole_scale_is_the_norm_expression_bit_for_bit(bundles):
    # _zeta_inverse_batch raises for a point exactly when some |xi_u| is below
    # 1e-13 (1 + |p|), |p| the point's own np.linalg.norm, alone or beside a
    # far point: probed at the last floats on either side of that bound, near
    # every line L_u, at magnitudes up to 1e150, where that bound is finite
    far = np.full(3, 1e3)
    for name in ("A5", "C2", "A2_radical"):
        frame = bundles[name].default_frame
        for line in noninvertibility_lines(frame):

            def below(p):
                return np.any(np.abs(xi_values(frame, p)) < 1e-13 * (1 + np.linalg.norm(p)))

            for scale in (1e-3, 0.7, 1e3, 1e6, 1e20, 1e75, 1e150):
                base = scale * line.direction
                i = int(np.argmax(np.abs(line.direction)))  # the coordinate to move

                def at(x):
                    p = base.copy()
                    p[i] = x
                    return p

                step = 1e-12 * (1 + scale)  # moves |xi_u| from below the bound to above it
                lo, hi = base[i], base[i] + step
                assert below(at(lo)) and not below(at(hi)), (name, line.u, scale)
                while np.nextafter(lo, hi) != hi:
                    mid = lo + (hi - lo) / 2
                    lo, hi = (mid, hi) if below(at(mid)) else (lo, mid)
                xs = [lo, hi]
                for _ in range(2):
                    xs = [np.nextafter(xs[0], -np.inf)] + xs + [np.nextafter(xs[-1], np.inf)]
                for x in xs:
                    p = at(x)
                    for batch in (p[None], np.stack([p, far]), np.stack([far, p])):
                        if below(p):
                            with pytest.raises(NonInvertibleError):
                                _zeta_inverse_batch(frame, batch)
                        else:
                            _zeta_inverse_batch(frame, batch)


def test_pole_test_holds_beyond_the_range_of_squares(bundles):
    # above 1.3e154 the squares of |p| overflow: the test still tells a point
    # on L_1 from one off it, and from (x, .1, .2)
    frame = bundles["A5"].default_frame
    line = noninvertibility_lines(frame)[0].direction
    for scale in (1e155, 1e200, 1e300):
        with pytest.raises(NonInvertibleError, match="line L_1"):
            _zeta_inverse_batch(frame, (scale * line)[None])
        off = scale * line + scale * 1e-10 * np.array([1.0, -0.5, 0.25])
        assert np.isfinite(_zeta_inverse_batch(frame, np.stack([off, (scale, 0.1, 0.2)]))).all()


_DP = (0.3, -0.2, 0.5)
# the single-point closed forms of zeta^{-1} and the sigma forms, as f(frame, p)
_INVERSE_FORMS = (zeta_inverse_closed, atilde_closed, lambda frame, p: sigma_closed(frame, p, _DP),
                  lambda frame, p: sigma_direct(frame, p, _DP))


def test_closed_forms_of_the_inverse_share_one_pole_rule(bundles):
    # at 0.7 times the direction of L_1, xi_1 is -5.6e-17, not 0: every form
    # raises there, none gives coefficients of size 1e32 and above
    frame = bundles["A5"].default_frame
    line = noninvertibility_lines(frame)[0].direction
    assert xi_values(frame, 0.7 * line)[0] != 0
    for scale, f in itertools.product((1e-3, 0.7, 1e3), _INVERSE_FORMS):
        with pytest.raises(NonInvertibleError, match="line L_1") as exc:
            f(frame, scale * line)
        assert exc.value.u == 1


def test_closed_forms_name_non_finite_points(bundles):
    frame = bundles["A5"].default_frame
    good = (0.3, 0.4, 0.5)
    circle = circle_curve(radius=1.0, nodes=64)
    forms = _INVERSE_FORMS + (
        lambda frame, p: resolvent_at(3.1 + 0.8j, frame, p),
        lambda frame, p: cauchy_formula_residuals({"zeta": zeta_field(frame)}, frame, p, circle),
        # in a batch, the first non-finite point is named
        lambda frame, p: _zeta_inverse_batch(frame, np.array([good, p, (np.nan,) * 3])),
        lambda frame, p: _resolvent_batch(frame, np.array([good, p]), 3.1 + 0.8j),
    )
    for bad, (i, f) in itertools.product(
            ((np.nan, 0.1, 0.2), (np.inf, 0.1, 0.2), (0.3, -np.inf, 0.2)), enumerate(forms)):
        index = 1 if i >= len(forms) - 2 else 0
        with pytest.raises(ValueError, match=re.escape(f"point {bad} is not finite "
                                                       f"(batch index {index})")):
            f(frame, bad)


def _transcribed_inverses(frame, pts, t):
    """(t e1 - zeta)^{-1} and zeta^{-1} at pts (N, 3), transcribed from the
    forward substitution: xi and T from _scan_recurrences (at -pts, t added
    to xi, for t e1 - zeta), y_u = 1 / x_u, and in ascending s
    y_s = 0.0 - y_{u_s} (T_s y_{u_s} + sum gamma(r, k, s) T_k y_r), the sum
    over r, then k, in m+1..s-1 with gamma_coeff(r, k, s) != 0, a gamma of 1
    not multiplied."""
    spec = frame.spec
    n, m = spec.n, spec.m
    out = []
    for base, shift in ((-pts, t), (pts, None)):
        xi, T, _, _ = _scan_recurrences(frame, base)
        x = xi if shift is None else xi + np.asarray(shift, dtype=complex)[..., None]
        y = np.zeros((len(pts), n), dtype=complex)
        for u in range(m):
            y[:, u] = 1.0 / x[:, u]
        for s in range(m + 1, n + 1):
            yu = y[:, spec.u_map[s] - 1].copy()
            acc = T[:, s - m - 1] * yu
            for r in range(m + 1, s):
                for k in range(m + 1, s):
                    g = spec.gamma_coeff(r, k, s)
                    if g != 0:
                        term = T[:, k - m - 1] * y[:, r - 1]
                        acc = acc + (term if g == 1 else term * g)
            y[:, s - 1] = 0.0 - yu * acc
        out.append(y)
    return out


def test_inverses_are_the_transcribed_substitution_bit_for_bit(bundles):
    rng = np.random.default_rng(61)
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            pts = random_safe_points(frame, rng, 16)
            ts = rng.uniform(2.5, 4.0, 16) + 1j * rng.uniform(0.5, 1.5, 16)
            for t in (3.1 + 0.8j, ts):
                res, inv = _transcribed_inverses(frame, pts, t)
                assert _same_bytes(_resolvent_batch(frame, pts, t), res)
                assert _same_bytes(_zeta_inverse_batch(frame, pts), inv)
            for i, p in enumerate(pts):
                assert _same_bytes(resolvent_at(ts[i], frame, p).coeffs, res[i])
                assert _same_bytes(zeta_inverse_closed(frame, p).coeffs, inv[i])


def test_inverse_is_accurate_to_a_few_ulps(bundles):
    # against the same forward substitution in extended precision, over the
    # whole multiplication table, from the same float coefficients of zeta
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float here")
    rng = np.random.default_rng(67)
    for bundle in bundles.values():
        spec = bundle.algebra
        n, m = spec.n, spec.m
        table = spec.table.astype(np.clongdouble)
        for frame in bundle.frames.values():
            zc = _zeta_coeffs(frame, random_safe_points(frame, rng, 4000))
            c = zc.astype(np.clongdouble)
            y = np.zeros(c.shape, dtype=np.clongdouble)
            y[:, :m] = 1 / c[:, :m]
            for s in range(m, n):
                u = spec.u_map[s + 1] - 1
                acc = c[:, s] * y[:, u]
                for r in range(m, s):
                    for k in range(m, s):
                        acc = acc + table[r, k, s] * c[:, k] * y[:, r]
                y[:, s] = -y[:, u] * acc
            got = _inverse(spec, zc)
            err = np.linalg.norm(got - y, axis=1) / np.linalg.norm(y, axis=1)
            assert np.max(err) <= 2e-15, (spec.name, float(np.max(err)))


def test_inverses_hold_over_the_whole_float_range(bundles):
    # zeta is linear in p, so zeta(p)^{-1} = 2^-k zeta(2^-k p)^{-1} and the
    # resolvent (t - zeta(p))^{-1} = 2^-k (2^-k t - zeta(2^-k p))^{-1} exactly:
    # the dense solve at the scaled point, rescaled, is the reference
    from monalg.algebra import _invert_direct_batch
    from monalg.cli import CHECKS

    tol = CHECKS["oracle.zeta_inverse_max_rel"].bound
    pts = np.array([(1e64, .1, .2), (1e100, .1, .2), (1e155, .1, .2), (1e200, .1, .2),
                    (3e300, -1e299, 5e298)])
    t = 3.1 + 0.8j
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            spec = frame.spec
            for i, p in enumerate(pts):
                s = 2.0 ** -int(np.frexp(np.max(np.abs(p)))[1])
                zc = _zeta_coeffs(frame, s * p[None])
                shifted = s * t * spec.unit_coeffs - zc
                for got, scaled in (
                        (_zeta_inverse_batch(frame, pts)[i], zc),
                        (zeta_inverse_closed(frame, p).coeffs, zc),
                        (_resolvent_batch(frame, pts, t)[i], shifted),
                        (resolvent_at(t, frame, p).coeffs, shifted)):
                    want = _invert_direct_batch(spec, scaled)[0] * s
                    assert np.isfinite(got).all(), (spec.name, p)
                    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert err <= tol, (spec.name, p, err)
