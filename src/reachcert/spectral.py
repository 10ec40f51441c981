"""Spectral structure of the system matrix A.

Extracts the facts the reachability decision tree branches on: the
spectral radius, the eigenvalue clusters on the unit circle with their
algebraic/geometric multiplicities and largest Jordan block size, the
real dimension of the unit-circle invariant subspace, and (for fully
critical systems of dimension at most 2) the real change of basis whose
induced weighted norm is preserved by A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_RANK_TOL,
    LinalgError,
    eigen_decompose,
    numerical_rank,
)

__all__ = [
    "UnitCluster",
    "SpectralReport",
    "RealPlaneBasis",
    "analyze",
    "unit_plane_basis",
    "DEFAULT_UNIT_TOL",
]

DEFAULT_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class UnitCluster:
    """One eigenvalue cluster with modulus within unit_tol of 1."""

    eigenvalue: complex
    algebraic: int
    geometric: int
    block_size: int  # largest Jordan block attached to this cluster


@dataclass(frozen=True)
class SpectralReport:
    """Structural summary of a square real matrix."""

    rho: float
    unit_tol: float
    unit_clusters: tuple = field(default_factory=tuple)
    dim_EA: int = 0
    d_max_unit: int = 0
    stable_part_rho: float = 0.0
    ambiguous_clustering: bool = False

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "unit_tol": self.unit_tol,
            "unit_clusters": [
                {
                    "eigenvalue": [c.eigenvalue.real, c.eigenvalue.imag],
                    "algebraic": c.algebraic,
                    "geometric": c.geometric,
                    "block_size": c.block_size,
                }
                for c in self.unit_clusters
            ],
            "dim_EA": self.dim_EA,
            "d_max_unit": self.d_max_unit,
            "stable_part_rho": self.stable_part_rho,
            "ambiguous_clustering": self.ambiguous_clustering,
        }


@dataclass(frozen=True)
class RealPlaneBasis:
    """Real basis P with Q_star = (P P')^{-1} such that A'Q_star A = Q_star."""

    P: np.ndarray
    Q_star: np.ndarray


def _block_size(A, lam, rank_tol):
    """Largest Jordan block size for eigenvalue lam via rank stabilization.

    d is the smallest k with rank((A - lam I)^k) == rank((A - lam I)^{k+1}).
    """
    n = A.shape[0]
    M = A.astype(complex) - lam * np.eye(n)
    prev = numerical_rank(M, rank_tol)
    power = M.copy()
    for k in range(1, n + 1):
        power = power @ M
        cur = numerical_rank(power, rank_tol)
        if cur == prev:
            return k
        prev = cur
    return n


def analyze(
    A,
    unit_tol: float = DEFAULT_UNIT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> SpectralReport:
    """Full spectral structure report for a square real matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    spectrum = eigen_decompose(A, cluster_tol=cluster_tol)
    eigs = np.asarray(spectrum.eigenvalues)
    mults = np.asarray(spectrum.multiplicities)
    rho = float(np.abs(eigs).max()) if eigs.size else 0.0

    # Flag clusters that barely failed to merge; downstream results may be
    # sensitive to the clustering tolerance in that case.
    ambiguous = False
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if abs(eigs[i] - eigs[j]) < 10.0 * cluster_tol:
                ambiguous = True

    unit_clusters = []
    stable_moduli = []
    for lam, a in zip(eigs, mults):
        if abs(abs(lam) - 1.0) <= unit_tol:
            M = A.astype(complex) - lam * np.eye(n)
            g = n - numerical_rank(M, rank_tol)
            d = _block_size(A, lam, rank_tol)
            unit_clusters.append(
                UnitCluster(eigenvalue=complex(lam), algebraic=int(a), geometric=int(g), block_size=int(d))
            )
        else:
            stable_moduli.append(abs(lam))

    # Conjugate pairs appear as separate clusters, so summing algebraic
    # multiplicities over all unit clusters counts real dimensions.
    dim_EA = int(sum(c.algebraic for c in unit_clusters))
    d_max = max((c.block_size for c in unit_clusters), default=0)
    stable_rho = float(max(stable_moduli, default=0.0))
    return SpectralReport(
        rho=rho,
        unit_tol=unit_tol,
        unit_clusters=tuple(unit_clusters),
        dim_EA=dim_EA,
        d_max_unit=d_max,
        stable_part_rho=stable_rho,
        ambiguous_clustering=ambiguous,
    )


def unit_plane_basis(A, unit_tol: float = DEFAULT_UNIT_TOL) -> RealPlaneBasis:
    """Norm-preserving weighted norm for a fully critical A with n <= 2.

    Preconditions: all eigenvalues have modulus 1 and A is diagonalizable
    (checked via `analyze`).  Returns P and Q_star = (P P')^{-1} with
    A' Q_star A = Q_star.  Q_star is normalized to unit determinant, which
    gives the identity for orthogonal A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if n > 2:
        raise LinalgError("unit_plane_basis requires dimension <= 2")
    report = analyze(A, unit_tol=unit_tol)
    if report.dim_EA != n or report.d_max_unit > 1:
        raise LinalgError(
            "unit_plane_basis requires all eigenvalues on the unit circle "
            "with Jordan blocks of size one"
        )

    if n == 1:
        return RealPlaneBasis(P=np.eye(1), Q_star=np.eye(1))

    eigvals, eigvecs = np.linalg.eig(A)
    if abs(eigvals[0].imag) > unit_tol:
        # Complex pair alpha +/- i beta: P = [Re v, Im v] gives
        # P^{-1} A P = [[alpha, beta], [-beta, alpha]].
        idx = 0 if eigvals[0].imag > 0 else 1
        v = eigvecs[:, idx]
        P = np.column_stack([v.real, v.imag])
    else:
        # Real diagonalizable case (eigenvalues in {+1, -1}).
        P = np.column_stack([eigvecs[:, 0].real, eigvecs[:, 1].real])
    if abs(np.linalg.det(P)) < 1e-12:
        raise LinalgError("degenerate eigenvector basis")

    # Scalar normalization: make det(Q_star) = 1.
    s = np.linalg.svd(P, compute_uv=False)
    P = P / np.sqrt(s[0] * s[1])
    Q_star = np.linalg.inv(P @ P.T)
    Q_star = 0.5 * (Q_star + Q_star.T)

    residual = np.linalg.norm(A.T @ Q_star @ A - Q_star, "fro")
    if residual > 1e-8 * (1.0 + np.linalg.norm(Q_star, "fro")):
        raise LinalgError(f"norm-preservation residual {residual:.3e} too large")
    return RealPlaneBasis(P=P, Q_star=Q_star)
