"""Dense real-matrix primitives used throughout the toolkit.

Eigenvalue clustering, spectral radius, a checked discrete Lyapunov solve,
the largest generalized symmetric eigenvalue, SVD-based numerical rank,
and row-wise quadratic forms.  Everything targets small dense matrices
(desk scale, n up to a few dozen).  scipy is imported inside the two
functions that need it, so that importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinalgError",
    "ComplexSpectrum",
    "eigen_decompose",
    "spectral_radius",
    "solve_discrete_lyapunov",
    "max_generalized_eigenvalue",
    "numerical_rank",
    "quadratic_form",
    "is_symmetric_positive_definite",
]

# The tolerances every decision in the package reads; nothing overrides them.
UNIT_TOL = 1e-9  # an eigenvalue whose modulus is within UNIT_TOL of 1 lies on the unit circle
CLUSTER_TOL = 1e-8  # eigenvalues within CLUSTER_TOL of each other (transitively) merge
RANK_TOL = 1e-10  # singular values up to RANK_TOL times the largest count as zero
LYAPUNOV_RESIDUAL_TOL = 1e-9  # relative residual a Lyapunov solution must meet
SYM_TOL = 1e-10  # relative asymmetry a positive definite matrix may show


class LinalgError(ValueError):
    """Raised for invalid inputs or failed numerical guarantees."""


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise LinalgError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise LinalgError(f"{name} has non-finite entries")
    if M.shape[0] != M.shape[1]:
        raise LinalgError(f"{name} must be square, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class ComplexSpectrum:
    """Clustered eigenvalues of a real matrix.

    ``eigenvalues[i]`` is the cluster representative and
    ``multiplicities[i]`` the number of raw eigenvalues merged into it.
    Non-real clusters come in conjugate pairs with equal multiplicity.
    """

    eigenvalues: tuple = field(default_factory=tuple)
    multiplicities: tuple = field(default_factory=tuple)

    @property
    def dimension(self) -> int:
        return int(sum(self.multiplicities))

    def moduli(self):
        return np.abs(np.asarray(self.eigenvalues))


def _cluster(values):
    """Greedy transitive clustering of complex values within distance CLUSTER_TOL."""
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    groups = []
    for v in values:
        for g in groups:
            if any(abs(v - u) <= CLUSTER_TOL for u in g):
                g.append(v)
                break
        else:
            groups.append([v])
    return groups


def eigen_decompose(M) -> ComplexSpectrum:
    """Eigenvalues of a square real matrix, merged into clusters.

    Raw eigenvalues within ``CLUSTER_TOL`` of each other (transitively)
    are merged; the cluster value is their mean.  Conjugate symmetry is
    restored exactly: clusters with a small imaginary part are snapped to
    the real axis, and non-real clusters are paired with their conjugates.
    """
    M = _as_square(M)
    try:
        raw = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise LinalgError(f"eigenvalue iteration failed: {exc}") from exc

    groups = _cluster(raw)
    eigs, mults = [], []
    for g in groups:
        val = np.mean(g)
        if abs(val.imag) <= CLUSTER_TOL:
            val = complex(val.real, 0.0)
        eigs.append(val)
        mults.append(len(g))

    # Pair non-real clusters with their conjugates and force exact symmetry.
    eigs = np.asarray(eigs, dtype=complex)
    used = np.zeros(len(eigs), dtype=bool)
    for i in range(len(eigs)):
        if used[i] or eigs[i].imag == 0.0:
            continue
        partners = [
            j
            for j in range(len(eigs))
            if not used[j] and j != i and abs(eigs[j] - np.conj(eigs[i])) <= 2 * CLUSTER_TOL
        ]
        if partners:
            j = min(partners, key=lambda j: abs(eigs[j] - np.conj(eigs[i])))
            mean = 0.5 * (eigs[i] + np.conj(eigs[j]))
            eigs[i], eigs[j] = mean, np.conj(mean)
            used[i] = used[j] = True

    order = np.lexsort((np.asarray(eigs).imag, np.asarray(eigs).real))
    eigs = [complex(eigs[k]) for k in order]
    mults = [int(mults[k]) for k in order]
    return ComplexSpectrum(tuple(eigs), tuple(mults))


def spectral_radius(M) -> float:
    """Maximum eigenvalue modulus of a square matrix."""
    spectrum = eigen_decompose(M)
    if not spectrum.eigenvalues:
        return 0.0
    return float(spectrum.moduli().max())


def solve_discrete_lyapunov(A):
    """Solve ``A' Q A = Q - I`` for symmetric positive definite Q.

    Requires ``spectral_radius(A) < 1``.  The equation is solved by
    `scipy.linalg.solve_discrete_lyapunov`, which picks its method by size
    (the direct Kronecker system below n = 10, a bilinear transformation
    to a Sylvester equation above); the result is symmetrized.  Raises
    LinalgError if the spectral radius precondition fails, if Q is not
    positive definite, or if the residual ``||A'QA - Q + I||_F`` exceeds
    ``LYAPUNOV_RESIDUAL_TOL * (1 + ||Q||_F)``.
    """
    import scipy.linalg  # slow to import; only commands that solve need it

    A = _as_square(A, "A")
    n = A.shape[0]
    rho = spectral_radius(A)
    if rho >= 1.0 - 1e-12:
        raise LinalgError(f"spectral radius {rho:.6g} >= 1; Lyapunov equation has no PD solution")

    try:
        Q = scipy.linalg.solve_discrete_lyapunov(A.T, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"Lyapunov system singular (rho={rho:.6g}): {exc}") from exc
    Q = 0.5 * (Q + Q.T)

    residual = np.linalg.norm(A.T @ Q @ A - Q + np.eye(n), "fro")
    if residual > LYAPUNOV_RESIDUAL_TOL * (1.0 + np.linalg.norm(Q, "fro")):
        raise LinalgError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance; "
            f"equation ill-conditioned (rho={rho:.6g})"
        )
    if not is_symmetric_positive_definite(Q):
        raise LinalgError(f"Lyapunov solution not positive definite (rho={rho:.6g})")
    return Q


def max_generalized_eigenvalue(X, Q) -> float:
    """Largest lambda with X v = lambda Q v, for symmetric X and SPD Q.

    That is the maximum of v'Xv / v'Qv over v != 0.
    """
    import scipy.linalg

    return float(scipy.linalg.eigh(X, Q, eigvals_only=True).max())


def numerical_rank(M) -> int:
    """Count of singular values above ``RANK_TOL`` times the largest one.

    The zero matrix has rank 0.  Accepts real or complex input.
    """
    M = np.atleast_2d(np.asarray(M))
    if not np.all(np.isfinite(M)):
        raise LinalgError("matrix has non-finite entries")
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def quadratic_form(X, M) -> np.ndarray:
    """Row-wise quadratic forms x' M x for the rows x of an (N, n) array.

    One BLAS product plus a row-wise dot; much faster than the
    three-operand einsum for n beyond a few.
    """
    return np.einsum("ij,ij->i", X @ M, X)


def is_symmetric_positive_definite(Q) -> bool:
    """Check symmetry (relative Frobenius) and positive definiteness."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        return False
    if not np.all(np.isfinite(Q)):
        return False
    if np.linalg.norm(Q - Q.T, "fro") > SYM_TOL * (1.0 + np.linalg.norm(Q, "fro")):
        return False
    try:
        np.linalg.cholesky(0.5 * (Q + Q.T))
    except np.linalg.LinAlgError:
        return False
    return True
