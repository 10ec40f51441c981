import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcert.linalg import LinalgError
from reachcert.spectral import analyze, invariant_basis, unit_plane_basis

from conftest import rotation_matrix


class TestAnalyze:
    def test_identity_3d(self):
        report = analyze(np.eye(3))
        assert report.rho == pytest.approx(1.0, abs=1e-12)
        assert report.dim_EA == 3
        assert report.d_max_unit == 1

    def test_shear_jordan_block(self):
        report = analyze(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert report.dim_EA == 2
        assert report.d_max_unit == 2  # defective eigenvalue 1

    def test_rotation(self):
        report = analyze(rotation_matrix(np.pi / 4))
        assert report.dim_EA == 2
        assert report.d_max_unit == 1

    def test_mixed_spectrum(self):
        A = np.diag([1.0, 0.5])
        report = analyze(A)
        assert report.dim_EA == 1
        assert report.stable_part_rho == pytest.approx(0.5, abs=1e-12)

    def test_stable(self):
        report = analyze(np.diag([0.3, 0.7]))
        assert report.dim_EA == 0
        assert report.rho == pytest.approx(0.7, abs=1e-12)

    def test_big_jordan_block(self):
        # One 3x3 Jordan block at 1: geometric multiplicity 1, block size 3.
        J = np.eye(3)
        J[0, 1] = J[1, 2] = 1.0
        report = analyze(J)
        assert report.d_max_unit == 3

    def test_two_blocks_same_eigenvalue(self):
        # 2x2 block plus a 1x1 block at eigenvalue 1.
        A = np.eye(3)
        A[0, 1] = 1.0
        report = analyze(A)
        assert report.dim_EA == 3
        assert report.d_max_unit == 2


class TestUnitPlaneBasis:
    def test_rotation_gives_identity(self):
        Q = unit_plane_basis(rotation_matrix(np.pi / 3))
        assert np.allclose(Q, np.eye(2), atol=1e-10)

    def test_scalar_signs(self):
        for a in (1.0, -1.0):
            Q = unit_plane_basis(np.array([[a]]))
            assert np.allclose(Q, [[1.0]], atol=1e-12)

    def test_invariance_property(self):
        # A'Q*A = Q* for a non-orthogonal critical matrix: conjugated rotation.
        T = np.array([[2.0, 1.0], [0.0, 1.0]])
        A = T @ rotation_matrix(0.9) @ np.linalg.inv(T)
        Q = unit_plane_basis(A)
        assert np.allclose(A.T @ Q @ A, Q, atol=1e-8)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_stable(self):
        with pytest.raises(LinalgError):
            unit_plane_basis(np.array([[0.5]]))

    def test_rejects_high_dimension(self):
        with pytest.raises(LinalgError):
            unit_plane_basis(np.eye(3))


class TestInvariantBasis:
    def test_near_unit_stable_eigenvalue_stays_stable(self):
        # 1 - 5e-8 lies outside UNIT_TOL of the circle: analyze counts the
        # rotation plane alone, and so does the split.
        A = np.zeros((3, 3))
        A[:2, :2] = rotation_matrix(np.pi / 4)
        A[2, 2] = 1.0 - 5e-8
        T, report = invariant_basis(A)
        assert report.dim_EA == 2
        assert np.all(T[2, :2] == 0.0) and np.all(T[:2, 2] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=-12.0, max_value=-1.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_unit_part_is_what_analyze_counts(self, theta, log_gap, seed):
        # A conjugated rotation plus one real eigenvalue 10^log_gap inside the
        # circle, on either side of UNIT_TOL: the unit columns are always
        # dim_EA, and they span an A-invariant subspace.
        rng = np.random.default_rng(seed)
        J = np.zeros((3, 3))
        J[:2, :2] = rotation_matrix(theta)
        J[2, 2] = 1.0 - 10.0**log_gap
        P = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        A = P @ J @ np.linalg.inv(P)
        T, report = invariant_basis(A)
        nu = report.dim_EA
        assert nu in (2, 3)
        U = T[:, :nu]
        coeffs, *_ = np.linalg.lstsq(U, A @ U, rcond=None)
        assert np.allclose(U @ coeffs, A @ U, atol=1e-6)
