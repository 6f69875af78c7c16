import json
from importlib import resources

import numpy as np
import pytest

from monalg import (
    AlgebraSpec,
    E3Frame,
    FrameWarning,
    frame_from_json,
    functional_f,
    make_frame,
    make_zeta,
    noninvertibility_lines,
    check_surjectivity,
    unit_element,
    xi_values,
)


def test_make_zeta_unit_direction(bundles):
    for bundle in bundles.values():
        frame = bundle.default_frame
        z = make_zeta(frame, (1.0, 0.0, 0.0))
        np.testing.assert_allclose(z.coeffs, unit_element(bundle.algebra).coeffs)


def test_make_zeta_recovers_frame_vectors(bundles):
    frame = bundles["A5"].frames["harmonic"]
    np.testing.assert_allclose(make_zeta(frame, (0, 1, 0)).coeffs, [1j, 0, 1, 0, 1])
    np.testing.assert_allclose(
        make_zeta(frame, (0, 0, 1)).coeffs, [0, 1 - 1j, 0, 0.25 - 0.75j, 0]
    )


def test_xi_values_basics(bundles):
    frame = bundles["C2"].default_frame
    np.testing.assert_allclose(xi_values(frame, (0, 0, 0)), [0, 0])
    np.testing.assert_allclose(xi_values(frame, (1, 1, 1)), [2 + 1j, 1j])

    a5 = bundles["A5"].frames["harmonic"]
    for z in (0.0, 0.7, -2.0):
        np.testing.assert_allclose(xi_values(a5, (0.3, -1.2, z)), [0.3 - 1.2j])


def test_xi_matches_functional(bundles):
    rng = np.random.default_rng(5)
    for bundle in bundles.values():
        frame = bundle.default_frame
        for _ in range(25):
            p = rng.uniform(-2, 2, size=3)
            xi = xi_values(frame, p)
            zeta = make_zeta(frame, p)
            for u in range(1, bundle.algebra.m + 1):
                assert xi[u - 1] == pytest.approx(functional_f(u, zeta), abs=1e-15)


def test_surjectivity_flags(bundles):
    assert np.all(check_surjectivity(bundles["A5"].frames["harmonic"]))
    assert np.all(check_surjectivity(bundles["C2"].default_frame))
    spec = bundles["C2"].algebra
    with pytest.warns(FrameWarning):
        frame = make_frame(spec, [1.0, 1j], [2.0, -1.0])
    np.testing.assert_array_equal(check_surjectivity(frame), [False, True])


def test_independence_rejection(bundles):
    spec = bundles["C2"].algebra
    # e3 = e1 + e2 as a real combination
    with pytest.warns(FrameWarning):
        make_frame(spec, [1j, 1j], [1 + 1j, 1 + 1j])


def test_frame_owns_read_only_vectors_and_map(bundles):
    spec = bundles["A5"].algebra
    a = np.array([1j, 0.3, 0.5 - 0.2j, -0.4, 0.2 + 0.1j])
    b = np.array([0.6, 0.7 + 0.3j, -0.1, 0.2, -0.5 + 0.25j])
    frame = E3Frame(spec, a, b)
    assert frame.a is not a and frame.b is not b
    before = frame.sums_map.copy()
    a[1] = b[2] = 7.0  # the caller's arrays are not the frame's
    assert frame.a[1] == 0.3 and frame.b[2] == -0.1
    assert np.array_equal(frame.sums_map, before)
    for arr in (frame.a, frame.b, frame.sums_map, frame.rep_limits):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_frames_compare_by_value(bundles):
    for bundle in bundles.values():
        for frame in bundle.frames.values():
            assert frame == E3Frame(frame.spec, frame.a, frame.b)
            assert frame == E3Frame(frame.spec, list(frame.a), frame.b.copy())
            a = frame.a.copy()
            a[-1] += 0.5
            assert frame != E3Frame(frame.spec, a, frame.b)
            assert frame != E3Frame(frame.spec, frame.b, frame.a)
            assert frame != (frame.spec, frame.a, frame.b)
    spec = bundles["A5"].algebra
    other = AlgebraSpec(spec.n, spec.m, spec.gamma, spec.u_map, name="other")
    frame = bundles["A5"].default_frame
    assert frame != E3Frame(other, frame.a, frame.b)


def test_non_finite_frame_vectors_are_named(bundles):
    spec = bundles["A5"].algebra
    good = [1j, 0.3, 0.5, -0.4, 0.2]
    for bad, name in ((np.nan, "a"), (np.inf, "b"), (complex(0.0, -np.inf), "a")):
        vec = list(good)
        vec[3] = bad
        vecs = {"a": good, "b": good, name: vec}
        for build in (E3Frame, make_frame):
            with pytest.raises(ValueError, match=f"frame vector {name} is not finite at index 3"):
                build(spec, vecs["a"], vecs["b"])


def test_lines_a5_is_z_axis(bundles):
    frame = bundles["A5"].frames["harmonic"]
    (line,) = noninvertibility_lines(frame)
    assert not line.degenerate
    np.testing.assert_allclose(np.abs(line.direction), [0, 0, 1], atol=1e-12)
    for t in np.linspace(-2, 2, 5):
        p = t * line.direction
        assert abs(functional_f(line.u, make_zeta(frame, p))) <= 1e-12 * (1 + abs(t))


def test_lines_c2(bundles):
    frame = bundles["C2"].default_frame
    lines = noninvertibility_lines(frame)
    # u=1: x + z = 0, y = 0
    d = lines[0].direction
    np.testing.assert_allclose(np.abs(d), np.abs(np.array([1, 0, -1]) / np.sqrt(2)), atol=1e-12)
    for line in lines:
        for t in (-1.5, 0.4, 2.0):
            p = t * line.direction
            assert abs(functional_f(line.u, make_zeta(frame, p))) <= 1e-12 * (1 + abs(t))


def test_degenerate_line_reported(bundles):
    spec = bundles["C2"].algebra
    with pytest.warns(FrameWarning):
        frame = make_frame(spec, [1.0, 1j], [2.0, -1.0])
    lines = noninvertibility_lines(frame)
    assert lines[0].degenerate and lines[0].direction is None
    assert not lines[1].degenerate


def test_frame_json_cross_check(bundles):
    frames = resources.files("monalg") / "fixtures_data" / "v1" / "frames" / "A5.json"
    data = json.loads(frames.read_text())["default"]
    assert data["algebra"] == "A5"
    with pytest.raises(ValueError):
        frame_from_json(data, bundles["C2"].algebra)


def _safe_points_one_at_a_time(frame, rng, count, margin=0.3):
    """random_safe_points as a loop that draws and tests one point at a time."""
    pts = []
    while len(pts) < count:
        p = rng.uniform(-2.0, 2.0, size=3)
        if np.min(np.abs(xi_values(frame, p))) > margin:
            pts.append(p)
    return np.array(pts)


def test_random_safe_points_makes_the_draws_of_a_point_loop(bundles):
    # seeded tests and verify-all's oracle depend on this draw order
    from monalg.geometry import random_safe_points

    for bundle in bundles.values():
        for frame in bundle.frames.values():
            for seed, count, margin in ((0, 1, 0.3), (3, 25, 0.3), (11, 100, 0.3), (5, 40, 1.2)):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = random_safe_points(frame, got_rng, count, margin)
                want = _safe_points_one_at_a_time(frame, want_rng, count, margin)
                assert np.array_equal(got, want)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
