"""Dense real-matrix primitives used throughout the toolkit.

Eigenvalue clustering, spectral radius, a checked discrete Lyapunov solve,
the largest generalized symmetric eigenvalue, SVD-based numerical rank,
and row-wise quadratic forms.  Everything targets small dense matrices
(desk scale, n up to a few dozen) and needs numpy alone: the Lyapunov
equation is solved by squared Smith iteration with one refinement step,
and the generalized eigenvalue through a Cholesky reduction.
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
MAX_DOUBLINGS = 64  # squarings of A a Lyapunov series may take; rho = 1 - 1e-12 needs about 45


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


def _stein_series(A, C, rho):
    """sum_k (A')^k C A^k by squared Smith iteration (R. A. Smith, 1968).

    S <- S + A_j' S A_j and A_j <- A_j^2 from S = C and A_0 = A, so that j
    doublings sum the first 2^j terms; stops at the first doubling that
    leaves S unchanged, after about log2(1 / (1 - rho)) doublings.
    """
    S, Ak = C, A
    for _ in range(MAX_DOUBLINGS):
        with np.errstate(over="ignore", invalid="ignore"):
            update = S + Ak.T @ S @ Ak
        if not np.all(np.isfinite(update)):
            raise LinalgError(f"Lyapunov iteration overflowed (rho={rho:.6g})")
        if np.array_equal(update, S):
            return S
        S, Ak = update, Ak @ Ak
    raise LinalgError(f"Lyapunov iteration did not settle in {MAX_DOUBLINGS} doublings (rho={rho:.6g})")


def solve_discrete_lyapunov(A):
    """Solve ``A' Q A = Q - I`` for symmetric positive definite Q.

    Requires ``spectral_radius(A) < 1``.  The solution is the series
    sum_k (A')^k A^k, summed by squared Smith iteration for every n; one
    step of iterative refinement then adds the series of the residual,
    which brings the residual to the level of a direct solve also for
    rho close to 1.  The result is symmetrized.  Raises LinalgError if the
    spectral radius precondition fails, if the iteration meets a
    non-finite value or does not settle in MAX_DOUBLINGS, if Q is not
    positive definite, or if the residual ``||A'QA - Q + I||_F`` exceeds
    ``LYAPUNOV_RESIDUAL_TOL * (1 + ||Q||_F)``.
    """
    A = _as_square(A, "A")
    n = A.shape[0]
    rho = spectral_radius(A)
    if rho >= 1.0 - 1e-12:
        raise LinalgError(f"spectral radius {rho:.6g} >= 1; Lyapunov equation has no PD solution")

    eye = np.eye(n)
    Q = _stein_series(A, eye, rho)
    Q = 0.5 * (Q + Q.T)
    Q = Q + _stein_series(A, A.T @ Q @ A - Q + eye, rho)
    Q = 0.5 * (Q + Q.T)

    residual = np.linalg.norm(A.T @ Q @ A - Q + eye, "fro")
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

    That is the maximum of v'Xv / v'Qv over v != 0, the largest eigenvalue
    of L^-1 X L^-T with Q = L L'.
    """
    L = np.linalg.cholesky(Q)
    M = np.linalg.solve(L, np.linalg.solve(L, X).T)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).max())


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
