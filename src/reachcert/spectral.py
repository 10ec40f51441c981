"""Spectral structure of the system matrix A.

Extracts the facts the reachability decision tree branches on: the
spectral radius, the eigenvalue clusters on the unit circle with their
algebraic/geometric multiplicities and largest Jordan block size, and
the real dimension of the unit-circle invariant subspace.  One real
eigenvector basis, split into that subspace and its complement, serves
certificate synthesis, as does (for fully critical systems of dimension
at most 2) the weighted norm preserved by A.  Every threshold is one of
the tolerance constants of `linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import CLUSTER_TOL, UNIT_TOL, LinalgError, eigen_decompose, numerical_rank

__all__ = [
    "UnitCluster",
    "SpectralReport",
    "analyze",
    "invariant_basis",
    "unit_plane_basis",
]


@dataclass(frozen=True)
class UnitCluster:
    """One eigenvalue cluster with modulus within UNIT_TOL of 1."""

    eigenvalue: complex
    algebraic: int
    geometric: int
    block_size: int  # largest Jordan block attached to this cluster


@dataclass(frozen=True)
class SpectralReport:
    """Structural summary of a square real matrix."""

    rho: float
    unit_clusters: tuple = field(default_factory=tuple)
    dim_EA: int = 0
    d_max_unit: int = 0
    stable_part_rho: float = 0.0
    ambiguous_clustering: bool = False

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "unit_tol": UNIT_TOL,
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


def _block_size(M, prev):
    """Largest Jordan block size for the eigenvalue lam of M = A - lam I via
    rank stabilization, given prev = rank(M) (which `analyze` computes).

    d is the smallest k with rank((A - lam I)^k) == rank((A - lam I)^{k+1}).
    """
    power = M.copy()
    for k in range(1, len(M) + 1):
        power = power @ M
        cur = numerical_rank(power)
        if cur == prev:
            return k
        prev = cur
    return len(M)


def analyze(A) -> SpectralReport:
    """Full spectral structure report for a square real matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    spectrum = eigen_decompose(A)
    eigs = np.asarray(spectrum.eigenvalues)
    mults = np.asarray(spectrum.multiplicities)
    rho = float(np.abs(eigs).max()) if eigs.size else 0.0

    # Flag clusters that barely failed to merge; downstream results may be
    # sensitive to the clustering tolerance in that case.
    ambiguous = False
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if abs(eigs[i] - eigs[j]) < 10.0 * CLUSTER_TOL:
                ambiguous = True

    unit_clusters = []
    stable_moduli = []
    for lam, a in zip(eigs, mults):
        if abs(abs(lam) - 1.0) <= UNIT_TOL:
            M = A.astype(complex) - lam * np.eye(n)
            rank = numerical_rank(M)
            unit_clusters.append(
                UnitCluster(eigenvalue=complex(lam), algebraic=int(a), geometric=n - rank, block_size=_block_size(M, rank))
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
        unit_clusters=tuple(unit_clusters),
        dim_EA=dim_EA,
        d_max_unit=d_max,
        stable_part_rho=stable_rho,
        ambiguous_clustering=ambiguous,
    )


def invariant_basis(A):
    """Real eigenvector basis of A, the unit-circle invariant subspace first.

    Returns ``(T, report)`` with ``report = analyze(A)``.  The columns of T
    come from `np.linalg.eig`: a real eigenvalue gives its eigenvector, a
    conjugate pair the real and imaginary parts of the eigenvector of its
    member with positive imaginary part (the one LAPACK lists first).  The
    first ``report.dim_EA`` columns belong to the eigenvalues nearest the
    unit circle, so the split counts exactly the eigenvalues that `analyze`
    puts on it; each part keeps the order of `eig`.  T is singular when A is
    not diagonalizable, so callers check its conditioning.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    report = analyze(A)
    eigvals, eigvecs = np.linalg.eig(A)
    # (distance to the unit circle, real columns) per eigenvalue or pair
    blocks = [
        (abs(abs(lam) - 1.0), [v.real, v.imag] if lam.imag else [v.real])
        for lam, v in zip(eigvals, eigvecs.T)
        if lam.imag >= 0.0
    ]
    unit, count = set(), 0
    for k in sorted(range(len(blocks)), key=lambda k: blocks[k][0]):
        if count < report.dim_EA:
            unit.add(k)
            count += len(blocks[k][1])
    if count != report.dim_EA:
        raise LinalgError("a conjugate pair straddles the unit-circle split")
    order = sorted(range(len(blocks)), key=lambda k: k not in unit)
    return np.column_stack([c for k in order for c in blocks[k][1]]), report


def unit_plane_basis(A) -> np.ndarray:
    """Norm-preserving weight Q_star for a fully critical A with n <= 2.

    Preconditions: all eigenvalues have modulus 1 and A is diagonalizable
    (checked via `analyze`).  Returns Q_star = (P P')^{-1} for the real
    eigenvector basis P of `invariant_basis`, so A' Q_star A = Q_star.
    Q_star is normalized to unit determinant, which gives the identity for
    orthogonal A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if n > 2:
        raise LinalgError("unit_plane_basis requires dimension <= 2")
    P, report = invariant_basis(A)
    if report.dim_EA != n or report.d_max_unit > 1:
        raise LinalgError(
            "unit_plane_basis requires all eigenvalues on the unit circle "
            "with Jordan blocks of size one"
        )

    if n == 1:
        return np.eye(1)
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
    return Q_star
