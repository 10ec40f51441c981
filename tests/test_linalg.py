import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcert import linalg
from reachcert.linalg import (
    LinalgError,
    eigen_decompose,
    is_symmetric_positive_definite,
    max_generalized_eigenvalue,
    numerical_rank,
    solve_discrete_lyapunov,
    spectral_radius,
)

from conftest import random_stable_matrix, rotation_matrix


class TestSpectralRadius:
    def test_companion_matrix_known_roots(self):
        # Companion matrix of z^2 - z - 1: roots are the golden ratio pair.
        C = np.array([[1.0, 1.0], [1.0, 0.0]])
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        assert spectral_radius(C) == pytest.approx(phi, abs=1e-12)

    def test_rotation_is_critical(self):
        assert spectral_radius(rotation_matrix(0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_triangular_reads_diagonal(self):
        A = np.array([[0.3, 5.0], [0.0, -0.8]])
        assert spectral_radius(A) == pytest.approx(0.8, abs=1e-14)


class TestEigenDecompose:
    def test_conjugate_pairs_reported(self):
        dec = eigen_decompose(rotation_matrix(np.pi / 3))
        vals = sorted(dec.eigenvalues, key=lambda z: z.imag)
        assert vals[0] == pytest.approx(np.conj(vals[1]), abs=1e-12)
        assert abs(vals[0]) == pytest.approx(1.0, abs=1e-12)

    def test_multiplicity_clustered(self):
        dec = eigen_decompose(np.eye(3))
        assert len(dec.eigenvalues) == 1
        assert dec.multiplicities[0] == 3
        assert dec.dimension == 3

    def test_non_square_rejected(self):
        with pytest.raises((LinalgError, ValueError)):
            eigen_decompose(np.ones((2, 3)))


class TestLyapunov:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_residual_and_definiteness(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            A = random_stable_matrix(n, rng)
            Q = solve_discrete_lyapunov(A)
            resid = np.linalg.norm(A.T @ Q @ A - Q + np.eye(n))
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(Q))
            assert is_symmetric_positive_definite(Q)

    def test_scalar_closed_form(self):
        # a^2 q = q - 1  =>  q = 1 / (1 - a^2)
        Q = solve_discrete_lyapunov(np.array([[0.5]]))
        assert Q[0, 0] == pytest.approx(1.0 / 0.75, abs=1e-12)

    def test_critical_matrix_rejected(self):
        with pytest.raises(LinalgError):
            solve_discrete_lyapunov(np.eye(2))

    def test_unstable_matrix_rejected(self):
        with pytest.raises(LinalgError):
            solve_discrete_lyapunov(np.array([[2.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
    def test_residual_property(self, n, seed):
        rng = np.random.default_rng(seed)
        A = random_stable_matrix(n, rng, rho=0.95)
        Q = solve_discrete_lyapunov(A)
        resid = np.linalg.norm(A.T @ Q @ A - Q + np.eye(n))
        assert resid <= 1e-9 * (1.0 + np.linalg.norm(Q))


def _lyapunov_residual(A, Q):
    return np.linalg.norm(A.T @ Q @ A - Q + np.eye(len(A)))


LYAPUNOV_ORACLE_CASES = {
    **{
        f"random-n{n}-rho{rho}": random_stable_matrix(n, np.random.default_rng(n), rho=rho)
        for n in (2, 6, 20, 40)
        for rho in (0.9, 0.999)
    },
    "jordan-3": 0.9 * np.eye(3) + np.eye(3, k=1),
    "non-normal-2": np.array([[0.5, 100.0], [0.0, 0.5]]),
    "rho-1-5e-8": random_stable_matrix(4, np.random.default_rng(3), rho=1.0 - 5e-8),
}


class TestAgainstScipy:
    """The numpy solvers against scipy's, which only the tests import."""

    @pytest.mark.parametrize("case", LYAPUNOV_ORACLE_CASES)
    def test_lyapunov_matches_scipy(self, case):
        A = LYAPUNOV_ORACLE_CASES[case]
        n = len(A)
        Q = solve_discrete_lyapunov(A)
        want = scipy.linalg.solve_discrete_lyapunov(A.T, np.eye(n))
        want = 0.5 * (want + want.T)
        # The residual is at the rounding level of scipy's direct solve.
        assert _lyapunov_residual(A, Q) <= _lyapunov_residual(A, want) + 1e-15 * (1.0 + np.linalg.norm(Q))
        # The forward error is bounded by the condition of the equation.
        cond = np.linalg.cond(np.eye(n * n) - np.kron(A.T, A.T), 1)
        assert np.linalg.norm(Q - want) <= 1e-9 * cond * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "A",
        [
            np.array([[1.0, 1.0], [0.0, 0.5]]),
            np.array([[0.5, np.inf], [0.0, 0.5]]),
            np.array([[0.5, np.nan], [0.0, 0.5]]),
            np.array([[0.9, 1e200], [0.0, 0.9]]),
        ],
        ids=["rho-1", "inf", "nan", "overflow"],
    )
    def test_lyapunov_failures_raise(self, A):
        with pytest.raises(LinalgError):
            solve_discrete_lyapunov(A)

    def test_lyapunov_that_does_not_settle_raises(self, monkeypatch):
        # rho = 0.999 needs about 17 doublings; three cannot settle.
        monkeypatch.setattr(linalg, "MAX_DOUBLINGS", 3)
        with pytest.raises(LinalgError, match="did not settle in 3 doublings"):
            solve_discrete_lyapunov(LYAPUNOV_ORACLE_CASES["random-n2-rho0.999"])

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_generalized_eigenvalue_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        Q = M @ M.T + 0.1 * np.eye(n)
        X = rng.standard_normal((n, n))
        X = X + X.T
        want = scipy.linalg.eigh(X, Q, eigvals_only=True).max()
        assert max_generalized_eigenvalue(X, Q) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestNumericalRank:
    def test_full_rank(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_rank_deficient(self):
        B = np.array([[1.0], [1.0]])
        assert numerical_rank(B) == 1
        assert numerical_rank(np.diag([1.0, 1.0, 0.0])) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((2, 2))) == 0

    def test_tolerance_respected(self):
        # 1e-14 falls below RANK_TOL times the largest singular value.
        A = np.diag([1.0, 1e-14])
        assert numerical_rank(A) == 1


class TestPositiveDefinite:
    def test_identity(self):
        assert is_symmetric_positive_definite(np.eye(2))

    def test_indefinite(self):
        assert not is_symmetric_positive_definite(np.diag([1.0, -1.0]))

    def test_asymmetric(self):
        assert not is_symmetric_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))
