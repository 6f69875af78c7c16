import numpy as np
import pytest

from monalg import (
    AlgElement,
    AlgebraSpec,
    StructuralError,
    NonInvertibleError,
    basis_element,
    check_propositions,
    functional_f,
    invert_direct,
    make_zeta,
    mult_matrix,
    multiply,
    norm_euclid,
    unit_element,
    validate_algebra,
)
from monalg.algebra import _invert_direct_batch, _mul_coeffs
from monalg.geometry import _zeta_coeffs

from conftest import random_safe_points


def broken_symmetry_spec():
    return AlgebraSpec(
        n=5, m=1,
        gamma={(2, 2, 3): 1.0, (2, 3, 4): 1.0, (3, 2, 4): 0.0},
        u_map={2: 1, 3: 1, 4: 1, 5: 1},
        name="broken",
    )


def test_validate_c2_empty(bundles):
    assert validate_algebra(bundles["C2"].algebra).violations == []


def test_validate_a5_empty(bundles):
    assert validate_algebra(bundles["A5"].algebra).violations == []


def test_validate_reports_broken_symmetry():
    report = validate_algebra(broken_symmetry_spec())
    assert any("symmetry" in v for v in report.violations)
    assert not report.ok


def test_validate_reports_out_of_range_k():
    spec = AlgebraSpec(n=3, m=1, gamma={(2, 3, 3): 1.0}, u_map={2: 1, 3: 1})
    report = validate_algebra(spec)
    assert any("k-range" in v for v in report.violations)


def test_validate_reports_associativity_break():
    # (I2 I2) I3 = I3 I3 = I5 but I2 (I2 I3) = I2 I4 = 0.5 I5
    spec = AlgebraSpec(
        n=5, m=1,
        gamma={(2, 2, 3): 1.0, (3, 3, 5): 1.0, (2, 3, 4): 1.0, (2, 4, 5): 0.5},
        u_map={2: 1, 3: 1, 4: 1, 5: 1},
    )
    report = validate_algebra(spec)
    assert any("assoc-A1" in v for v in report.violations)


def test_structural_error_bad_index():
    with pytest.raises(StructuralError):
        AlgebraSpec(n=3, m=1, gamma={(2, 3, 7): 1.0}, u_map={2: 1, 3: 1})
    with pytest.raises(StructuralError):
        AlgebraSpec(n=3, m=2, gamma={}, u_map={3: 5})
    with pytest.raises(StructuralError):
        AlgebraSpec(n=2, m=3, gamma={}, u_map={})


def test_non_finite_structure_constant_is_named(bundles):
    # the first non-finite value in the table's order is named
    spec = bundles["A5"].algebra
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        gamma = dict(spec.gamma)
        gamma[(2, 2, 3)] = bad
        gamma[(3, 3, 5)] = np.nan
        with pytest.raises(ValueError, match=r"gamma\(2,2,3\) = .* is not finite"):
            AlgebraSpec(spec.n, spec.m, gamma, spec.u_map)


def test_unit_is_sum_of_idempotents(bundles):
    for bundle in bundles.values():
        spec = bundle.algebra
        one = unit_element(spec)
        assert np.all(one.coeffs[: spec.m] == 1)
        assert np.all(one.coeffs[spec.m:] == 0)
        for k in range(1, spec.n + 1):
            ek = basis_element(spec, k)
            np.testing.assert_allclose(multiply(one, ek).coeffs, ek.coeffs, atol=1e-15)


def test_a5_rho_powers(bundles):
    spec = bundles["A5"].algebra
    rho = basis_element(spec, 2)
    rho2 = basis_element(spec, 3)
    rho3 = basis_element(spec, 4)
    np.testing.assert_allclose(multiply(rho, rho2).coeffs, rho3.coeffs)
    # rho^3 * rho^2 = rho^5 = 0
    assert norm_euclid(multiply(rho3, rho2)) == 0.0


def test_multiply_commutes_and_associates(bundles):
    from monalg import AlgElement

    rng = np.random.default_rng(7)
    for bundle in bundles.values():
        spec = bundle.algebra
        for _ in range(100):
            a = AlgElement(spec, rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n))
            b = AlgElement(spec, rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n))
            c = AlgElement(spec, rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n))
            np.testing.assert_allclose(multiply(a, b).coeffs, multiply(b, a).coeffs, atol=1e-13)
            lhs = multiply(multiply(a, b), c).coeffs
            rhs = multiply(a, multiply(b, c)).coeffs
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_functional_basics(bundles):
    spec = bundles["A2_radical"].algebra
    assert functional_f(1, basis_element(spec, 1)) == 1
    # ideal members: every other basis vector
    assert functional_f(1, basis_element(spec, 2)) == 0
    assert functional_f(1, basis_element(spec, 3)) == 0
    with pytest.raises(Exception):
        functional_f(3, basis_element(spec, 1))


def test_functional_multiplicative(bundles):
    rng = np.random.default_rng(11)
    from monalg import AlgElement
    for bundle in bundles.values():
        spec = bundle.algebra
        for _ in range(100):
            a = AlgElement(spec, rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n))
            b = AlgElement(spec, rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n))
            for u in range(1, spec.m + 1):
                fu_ab = functional_f(u, multiply(a, b))
                fu_a, fu_b = functional_f(u, a), functional_f(u, b)
                assert abs(fu_ab - fu_a * fu_b) <= 1e-12 * (1 + abs(fu_a * fu_b))


def test_functional_on_zeta_a5(bundles):
    frame = bundles["A5"].frames["harmonic"]
    z = make_zeta(frame, (0.7, -0.4, 1.3))
    assert functional_f(1, z) == pytest.approx(0.7 - 0.4j, abs=1e-15)


def test_norm_basics(bundles):
    spec = bundles["C2"].algebra
    from monalg import AlgElement
    zero = AlgElement(spec, np.zeros(2, dtype=complex))
    assert norm_euclid(zero) == 0.0
    assert norm_euclid(basis_element(spec, 1)) == 1.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = AlgElement(spec, rng.normal(size=2) + 1j * rng.normal(size=2))
        assert np.max(np.abs(a.coeffs)) <= norm_euclid(a) + 1e-15


def test_norm_holds_over_the_whole_float_range(bundles):
    # the coordinates are scaled by an exact power of two before they are
    # squared: np.linalg.norm's bits wherever its squares stay normal, and the
    # true norm, with no RuntimeWarning, where they would not
    import warnings

    spec = bundles["A5"].algebra
    rng = np.random.default_rng(7)
    for scale in (1e-100, 1e-3, 1.0, 1e20, 1e100):
        for _ in range(200):
            c = (rng.normal(size=5) + 1j * rng.normal(size=5)) * scale
            assert norm_euclid(AlgElement(spec, c)) == np.linalg.norm(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-160, 1e-200, 1e200):
            got = norm_euclid(AlgElement(spec, np.full(5, scale + 0j)))
            assert got == pytest.approx(np.sqrt(5) * scale, rel=1e-15), scale
        assert norm_euclid(AlgElement(spec, np.full(5, 1e300 - 1e300j))) == pytest.approx(
            np.sqrt(10) * 1e300, rel=1e-15)


def test_invert_unit(bundles):
    for bundle in bundles.values():
        one = unit_element(bundle.algebra)
        np.testing.assert_allclose(invert_direct(one).coeffs, one.coeffs, atol=1e-14)


def test_invert_geometric_series_a5(bundles):
    spec = bundles["A5"].algebra
    one_plus_rho = unit_element(spec) + basis_element(spec, 2)
    inv = invert_direct(one_plus_rho)
    # geometric series 1 - rho + rho^2 - rho^3 + rho^4, confirmed by product
    np.testing.assert_allclose(inv.coeffs, [1, -1, 1, -1, 1], atol=1e-13)
    np.testing.assert_allclose(
        multiply(one_plus_rho, inv).coeffs, unit_element(spec).coeffs, atol=1e-13
    )


def test_invert_semisimple_componentwise(bundles):
    spec = bundles["C2"].algebra
    from monalg import AlgElement
    a = AlgElement(spec, np.array([2.0, 1j]))
    np.testing.assert_allclose(invert_direct(a).coeffs, [0.5, -1j], atol=1e-14)


def test_invert_random_property(bundles):
    rng = np.random.default_rng(19)
    from monalg import AlgElement
    for bundle in bundles.values():
        spec = bundle.algebra
        one = unit_element(spec)
        done = 0
        while done < 30:
            a = AlgElement(spec, rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n))
            if min(abs(a.coeffs[u]) for u in range(spec.m)) < 0.2:
                continue
            done += 1
            res = norm_euclid(multiply(a, invert_direct(a)) - one)
            assert res <= 1e-10


def test_invert_noninvertible_carries_u(bundles):
    spec = bundles["C2"].algebra
    from monalg import AlgElement
    with pytest.raises(NonInvertibleError) as err:
        invert_direct(AlgElement(spec, np.array([1.0, 0.0], dtype=complex)))
    assert err.value.u == 2


def test_nilpotency_exact(bundles):
    for bundle in bundles.values():
        spec = bundle.algebra
        depth = spec.n - spec.m + 1
        for start in range(spec.m + 1, spec.n + 1):
            acc = basis_element(spec, start)
            for _ in range(depth - 1):
                acc = multiply(acc, basis_element(spec, spec.m + 1))
            # worst case chain; table structure forces exact zero at this depth
        prod = basis_element(spec, spec.m + 1) if spec.n > spec.m else None
        if prod is None:
            continue
        acc = prod
        for _ in range(depth - 1):
            acc = multiply(acc, prod)
        assert norm_euclid(acc) == 0.0


def test_propositions_a5(bundles):
    rep = check_propositions(bundles["A5"].algebra)
    assert rep.prop1_applies
    assert not rep.prop2_applies


def test_propositions_a2_radical(bundles):
    rep = check_propositions(bundles["A2_radical"].algebra)
    assert rep.prop1_applies and rep.prop2_applies
    assert rep.prop2_contradictions == []


def test_propositions_contradiction():
    # injective u_map with a nonzero nilpotent product must be flagged
    spec = AlgebraSpec(n=4, m=2, gamma={(3, 3, 4): 1.0}, u_map={3: 1, 4: 2})
    rep = check_propositions(spec)
    assert rep.prop2_applies
    assert rep.prop2_contradictions
    # and the same spec independently fails (A2)
    assert any("assoc-A2" in v for v in validate_algebra(spec).violations)


def test_multiply_rejects_mixed_algebras(bundles):
    a5 = bundles["A5"].algebra
    j69 = bundles["J69"].algebra
    with pytest.raises(Exception, match="different algebras"):
        multiply(unit_element(a5), unit_element(j69))


def _all_frames(bundles):
    return [frame for bundle in bundles.values() for frame in bundle.frames.values()]


def test_product_kernel_matches_einsum_reference(bundles):
    rng = np.random.default_rng(7)
    for frame in _all_frames(bundles):
        spec = frame.spec
        n = spec.n
        a = rng.normal(size=(33, n)) + 1j * rng.normal(size=(33, n))
        b = rng.normal(size=(33, n)) + 1j * rng.normal(size=(33, n))
        for x, y in ((a[0], b[0]), (a, b), (a[0], b), (a, b[0])):
            ref = np.einsum("...j,...k,jkl->...l", x, y, spec.table)
            got = _mul_coeffs(spec, x, y)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-14 * (1 + np.abs(ref)))


def test_single_product_is_its_batch_row(bundles):
    rng = np.random.default_rng(8)
    for frame in _all_frames(bundles):
        spec = frame.spec
        n = spec.n
        a = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
        b = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
        both = _mul_coeffs(spec, a, b)
        left = _mul_coeffs(spec, a[0], b)
        right = _mul_coeffs(spec, a, b[0])
        for i in range(len(a)):
            assert np.array_equal(both[i], _mul_coeffs(spec, a[i], b[i]))
            assert np.array_equal(left[i], _mul_coeffs(spec, a[0], b[i]))
            assert np.array_equal(right[i], _mul_coeffs(spec, a[i], b[0]))


def test_mult_matrix_agrees_with_product(bundles):
    rng = np.random.default_rng(9)
    for frame in _all_frames(bundles):
        spec = frame.spec
        for _ in range(5):
            a, b = (rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n) for _ in range(2))
            np.testing.assert_allclose(mult_matrix(AlgElement(spec, a)) @ b,
                                       _mul_coeffs(spec, a, b), rtol=1e-14, atol=1e-14)


def test_batched_dense_solve_rows_are_invert_direct(bundles):
    rng = np.random.default_rng(10)
    for frame in _all_frames(bundles):
        spec = frame.spec
        pts = random_safe_points(frame, rng, 30)
        zc = _zeta_coeffs(frame, pts)
        for coeffs in (zc, (3.0 + 1.0j) * spec.unit_coeffs - zc):
            rows = _invert_direct_batch(spec, coeffs)
            for row, c in zip(rows, coeffs):
                assert np.array_equal(row, invert_direct(AlgElement(spec, c)).coeffs)


def test_batched_dense_solve_names_the_vanishing_functional(bundles):
    rng = np.random.default_rng(11)
    for name, u in (("C2", 1), ("C2", 2), ("A2_radical", 2), ("A5", 1)):
        spec = bundles[name].algebra
        batch = rng.normal(size=(6, spec.n)) + 1j * rng.normal(size=(6, spec.n))
        batch[4, u - 1] = 0.0
        with pytest.raises(NonInvertibleError, match="row 4") as err:
            _invert_direct_batch(spec, batch)
        assert err.value.u == u
        # a lone element is not a batch: its message names no row
        with pytest.raises(NonInvertibleError, match=f"^f_{u}\\(a\\) = 0: ") as one:
            invert_direct(AlgElement(spec, batch[4]))
        assert one.value.u == u


def _validate_by_loops(spec, tol=1e-12) -> list[str]:
    """The associativity, unit and nilpotency violations of validate_algebra,
    checked as before they were batched: one product per basis pair or triple."""
    n, m = spec.n, spec.m
    tab = spec.table
    nil = range(m + 1, n + 1)
    out = []

    def prod3_left(i, j, k):
        return _mul_coeffs(spec, tab[i - 1, j - 1], np.eye(n, dtype=complex)[k - 1])

    def prod3_right(i, j, k):
        return _mul_coeffs(spec, np.eye(n, dtype=complex)[i - 1], tab[j - 1, k - 1])

    for label, left in (("A1", nil), ("A2", range(1, m + 1))):
        for r in left:
            for s in nil:
                for p in nil:
                    lhs, rhs = prod3_left(r, s, p), prod3_right(r, s, p)
                    if np.max(np.abs(lhs - rhs)) > tol * (1 + np.max(np.abs(lhs))):
                        out.append(f"assoc-{label}: (I_{r} I_{s}) I_{p} != I_{r} (I_{s} I_{p})")
    one = spec.unit_coeffs
    for k in range(1, n + 1):
        ek = np.eye(n, dtype=complex)[k - 1]
        if np.max(np.abs(_mul_coeffs(spec, one, ek) - ek)) > tol:
            out.append(f"unit: (sum I_u) I_{k} != I_{k}")
    if n > m:
        span = np.eye(n, dtype=complex)[m:]
        for _ in range(n - m):
            prods = [_mul_coeffs(spec, v, np.eye(n, dtype=complex)[s - 1])
                     for v in span for s in nil]
            span = np.array([p for p in prods if np.max(np.abs(p)) > tol])
            if span.size == 0:
                break
        if span.size != 0:
            out.append(
                f"nilpotency: some product of {n - m + 1} nilpotent basis vectors is nonzero")
    return out


def test_batched_validation_matches_the_loops(bundles):
    one_idem = {2: 1, 3: 1, 4: 1, 5: 1}
    broken = [
        broken_symmetry_spec(),
        AlgebraSpec(n=3, m=1, gamma={(2, 3, 3): 1.0}, u_map={2: 1, 3: 1}),
        AlgebraSpec(n=5, m=1, u_map=one_idem,
                    gamma={(2, 2, 3): 1.0, (3, 3, 5): 1.0, (2, 3, 4): 1.0, (2, 4, 5): 0.5}),
        AlgebraSpec(n=4, m=2, gamma={(3, 3, 4): 1.0}, u_map={3: 1, 4: 2}),
        # I_2 I_2 = I_2: its powers never vanish, and two (A1) triples break
        AlgebraSpec(n=4, m=1, gamma={(2, 2, 2): 1.0, (2, 3, 4): 2.0}, u_map={2: 1, 3: 1, 4: 1}),
    ]
    specs = [b.algebra for b in bundles.values()] + broken
    flagged = set()
    for spec in specs:
        got = validate_algebra(spec).violations
        checked = [v for v in got if v.startswith(("assoc-", "unit:", "nilpotency:"))]
        assert checked == _validate_by_loops(spec), spec.name
        flagged.update(v.split(":")[0] for v in checked)
    assert {"assoc-A1", "assoc-A2", "nilpotency"} <= flagged
