"""Explicit drift/variant certificate constructions for linear systems.

Three templates are produced, matching the three reachable regimes:

* quadratic ``V(x) = x'Qx`` with Q from the discrete Lyapunov equation,
  for spectral radius < 1;
* logarithmic ``V(x) = sqrt(ln ||x||_*)`` in a norm preserved by A, for
  fully critical systems of dimension <= 2;
* an additive composite (logarithmic on the unit-circle invariant
  subspace plus quadratic on the stable complement) for critical systems
  with a mixed spectrum.  The composite is a candidate only: it carries a
  ``verified`` flag that stays False until the numerical verifier passes it.

All constants (compact radii, sublevel bound b, decrease delta, the
contraction factor r0) are materialized so every certificate can be
re-checked independently.  Every kind follows the one protocol of
`Certificate`, so verification and file I/O never ask for its type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    LinalgError,
    is_symmetric_positive_definite,
    max_generalized_eigenvalue,
    quadratic_form,
    solve_discrete_lyapunov,
)
from .spectral import invariant_basis, unit_plane_basis
from .systems import LinearSystem, TargetBall, _matrix, _number, step_batch, tagged_rng
from .verify import LevelOverflowError, _ellipsoid_shell_proposal, drift_expectation, exact_quadratic_drift

__all__ = [
    "Certificate",
    "QuadraticCertificate",
    "LogCertificate",
    "CompositeCertificate",
    "CustomCertificate",
    "synthesize_quadratic",
    "synthesize_logarithmic",
    "synthesize_composite",
    "SynthesisError",
    "certificate_from_dict",
    "load_certificate",
    "save_certificate",
    "CERTIFICATE_KINDS",
    "DOMAIN_THRESHOLD",
]

DOMAIN_THRESHOLD = math.e  # sqrt(ln .) evaluated only where ln >= 1
SCAN_RADIUS_CAP = 1e9
SCAN_MARGIN_SCALE = 1e-6


class SynthesisError(RuntimeError):
    """Certificate construction failed (precondition or scan failure)."""


def _require_origin_ball(target: TargetBall):
    if np.any(target.center != 0.0):
        raise SynthesisError("certificate synthesis requires an origin-centered target ball")


def _sublevel_b(Q, target: TargetBall) -> float:
    """Largest b with {x'Qx <= 2b} inside the origin-centered target ball."""
    _require_origin_ball(target)
    R = target.radius
    if target.weight is None:
        lam_min = float(np.linalg.eigvalsh(Q).min())
        return 0.5 * lam_min * R * R
    # Need max x'Wx over {x'Qx <= 2b} below R^2.
    lam_max = max_generalized_eigenvalue(target.weight, Q)
    return 0.5 * R * R / lam_max


def _spd(d: dict, key: str) -> np.ndarray:
    Q = _matrix(d, key)
    if not is_symmetric_positive_definite(Q):
        raise ValueError(f"certificate {key} is not symmetric positive definite")
    return Q


def _require_constant(d: dict, key: str, value: float):
    """Reject a file whose ``key`` is not ``value``: the checks assume that
    constant, so a file stating another would verify as if it said ``value``."""
    if _number(d, key, value) != value:
        raise ValueError(f"certificate {key} must be {value!r}, got {d[key]!r}")


class Certificate:
    """The protocol of every certificate kind, with the defaults of a kind
    that has no closed form.

    A kind has ``drift_values(X)`` and ``variant_values(X)`` (V and U at
    the rows of X), ``h_bound(r)``, ``level_proposal(n, level, rng)``,
    ``default_levels()``, ``compact_radius`` and ``delta``.  A kind that
    files can hold also has a ``kind`` name, ``to_dict()`` and the
    classmethod ``from_dict(d)``, and an entry in CERTIFICATE_KINDS.
    """

    positive_quadrant = False  # drift shells and inclusion rays fold onto x >= 0

    def exact_drift(self, system, X):
        """The exact E[V(f(x,w))] - V(x) at the rows of X, or None if unknown."""
        return None

    def level_values(self, X):
        """(V, U) at the rows of X, with one drift evaluation."""
        return self.drift_values(X), self.variant_values(X)

    def to_dict(self) -> dict:
        raise TypeError(f"cannot serialize certificate of type {type(self).__name__}")


# ---------------------------------------------------------------------------
# Quadratic certificates (stable spectrum)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticCertificate(Certificate):
    """V(x) = x'Qx, U(x) = x'Qx - b, compact set {x'x <= compact_radius_sq}."""

    Q: np.ndarray
    compact_radius_sq: float
    r0: float
    variant_b: float
    delta: float

    kind = "quadratic"

    @property
    def compact_radius(self) -> float:
        return math.sqrt(max(self.compact_radius_sq, 0.0))

    def drift_values(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return quadratic_form(X, self.Q)

    def variant_values(self, X) -> np.ndarray:
        return self.drift_values(X) - self.variant_b

    def level_values(self, X):
        v = self.drift_values(X)
        return v, v - self.variant_b

    def exact_drift(self, system, X):
        return exact_quadratic_drift(system, self.Q, X) if isinstance(system, LinearSystem) else None

    def h_bound(self, r: float) -> float:
        return r - self.variant_b

    def level_proposal(self, n: int, level: float, rng):
        """Uniform draws from {b < x'Qx <= level}, which is {V <= level, U > 0}."""
        return _ellipsoid_shell_proposal(self.Q, self.variant_b, level, n, rng)

    def default_levels(self):
        return (2.0 * self.variant_b, 4.0 * self.variant_b, 8.0 * self.variant_b)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "Q": self.Q.tolist(), "alpha": 1.0, "compact_radius_sq": self.compact_radius_sq,
                "r0": self.r0, "b": self.variant_b, "delta": self.delta}

    @classmethod
    def from_dict(cls, d: dict) -> "QuadraticCertificate":
        _require_constant(d, "alpha", 1.0)
        return cls(Q=_spd(d, "Q"), compact_radius_sq=_number(d, "compact_radius_sq"), r0=_number(d, "r0"),
                   variant_b=_number(d, "b"), delta=_number(d, "delta"))


def synthesize_quadratic(system: LinearSystem, target: TargetBall) -> QuadraticCertificate:
    """Quadratic certificate for rho(A) < 1.

    Q solves A'QA = Q - I; the compact set radius^2 is
    tr(B'QB Sigma_w); b is the largest value
    keeping {x'Qx < 2b} inside the target; r0 = lambda_max(Q^{-1}A'QA);
    delta = (1 - r0) b.
    """
    try:
        Q = solve_discrete_lyapunov(system.A)
    except LinalgError as exc:
        raise SynthesisError(f"Lyapunov solve failed: {exc}") from exc
    A, B = system.A, system.B
    compact_radius_sq = float(np.trace(B.T @ Q @ B @ system.noise.covariance))
    r0 = max_generalized_eigenvalue(A.T @ Q @ A, Q)
    r0 = min(max(r0, 0.0), 1.0)
    b = _sublevel_b(Q, target)
    if b <= 0:
        raise SynthesisError("target too small: sublevel bound b is non-positive")
    return QuadraticCertificate(
        Q=Q, compact_radius_sq=compact_radius_sq, r0=r0, variant_b=b, delta=(1.0 - r0) * b
    )


# ---------------------------------------------------------------------------
# Logarithmic certificates (fully critical, dimension <= 2)
# ---------------------------------------------------------------------------

def _star_bound(level: float) -> float:
    """exp(2 level^2): for level >= 1, {V_log <= level} is {x'Q_star x <= exp(2 level^2)}."""
    if level < 1.0:
        raise ValueError(f"level {level} is below 1, the least value of V: {{V <= r, U > 0}} is empty")
    try:
        return math.exp(2.0 * level * level)
    except OverflowError:
        raise LevelOverflowError(f"level {level} is too large: {{V <= r}} reaches past the float range") from None


def _log_drift_values(X, Q_star) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = quadratic_form(X, Q_star)
    return np.sqrt(np.maximum(0.5 * np.log(np.maximum(sq, 1e-300)), 1.0))


@dataclass(frozen=True)
class LogCertificate(Certificate):
    """V(x) = sqrt(ln ||x||_*), U(x) = ||x||_*^2 - b, H(r) = exp(2 r^2) - b.

    ||x||_* is the Q_star-weighted norm preserved by A.  V is clamped to
    its value at ||x||_* = e, so it is defined everywhere; the clamp
    region lies inside the compact set.
    """

    Q_star: np.ndarray
    compact_radius_star: float
    variant_b: float
    delta: float

    kind = "logarithmic"

    @property
    def compact_radius(self) -> float:
        # Euclidean radius covering {||x||_* <= compact_radius_star}
        return self.compact_radius_star / math.sqrt(float(np.linalg.eigvalsh(self.Q_star).min()))

    def drift_values(self, X) -> np.ndarray:
        return _log_drift_values(X, self.Q_star)

    def variant_values(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.sqrt(np.maximum(quadratic_form(X, self.Q_star), 0.0)) ** 2 - self.variant_b

    def h_bound(self, r: float) -> float:
        return math.exp(2.0 * r * r) - self.variant_b

    def level_proposal(self, n: int, level: float, rng):
        """Uniform draws from {b < x'Q_star x <= exp(2 level^2)}, which is {V <= level, U > 0}."""
        return _ellipsoid_shell_proposal(self.Q_star, self.variant_b, _star_bound(level), n, rng)

    def default_levels(self):
        base = max(math.sqrt(math.log(max(self.compact_radius_star, math.e))), 1.0)
        return (base + 0.5, base + 1.0, base + 1.5)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "Q_star": self.Q_star.tolist(), "domain_threshold": DOMAIN_THRESHOLD,
                "compact_radius_star": self.compact_radius_star, "b": self.variant_b, "delta": self.delta}

    @classmethod
    def from_dict(cls, d: dict) -> "LogCertificate":
        _require_constant(d, "domain_threshold", DOMAIN_THRESHOLD)
        return cls(Q_star=_spd(d, "Q_star"), compact_radius_star=_number(d, "compact_radius_star"),
                   variant_b=_number(d, "b"), delta=_number(d, "delta"))


def _second_order_log_drift(system: LinearSystem, Q_star, X) -> np.ndarray:
    """Closed-form second-order Taylor estimate of the log-drift at rows of X.

    0.5 * E[w' H w] with H the Hessian of sqrt(ln ||Ax + Bw||_*) at w = 0.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    A, B = system.A, system.B
    Q = Q_star
    S = B @ system.noise.covariance @ B.T
    T1 = float(np.trace(Q @ S))
    Z = X @ A.T
    QZ = Z @ Q
    T2 = quadratic_form(QZ, S)
    r_sq = quadratic_form(X, Q)
    ln_r = 0.5 * np.log(r_sq)
    first = (0.5 * T1 - T2 / r_sq) / (r_sq * np.sqrt(ln_r))
    second = -T2 / (4.0 * r_sq**2 * ln_r**1.5)
    return 0.5 * (first + second)


def _scan_compact_radius(system: LinearSystem, Q_star, seed: int) -> float:
    """Outward doubling scan for a radius beyond which the log-drift is negative.

    At each candidate star-radius, the second-order closed-form estimate
    must be below -margin on a sampled shell, and `drift_expectation`
    must confirm a non-positive drift, error included, at every point of
    that shell.
    """
    n = system.dimension
    rng = tagged_rng(seed, 0x10C5)
    rho = DOMAIN_THRESHOLD
    while rho <= SCAN_RADIUS_CAP:
        # Points with ||x||_* = rho.
        z = rng.standard_normal(size=(max(16 * n, 16), n))
        norms = np.sqrt(quadratic_form(z, Q_star))
        pts = rho * z / norms[:, None]
        margin = SCAN_MARGIN_SCALE * math.sqrt(math.log(rho))
        d2 = _second_order_log_drift(system, Q_star, pts)
        if np.all(d2 <= -margin):
            est, err = drift_expectation(system, lambda X: _log_drift_values(X, Q_star), pts, 20_000, seed)
            if np.all(est + err <= 0.0):
                return rho
        rho *= 2.0
    raise SynthesisError(
        f"log-drift scan exceeded the radius cap {SCAN_RADIUS_CAP:g}; no compact set certified"
    )


def _estimate_delta(system: LinearSystem, certificate, b: float, seed: int, samples=20_000):
    """Monte Carlo estimate of the variant decrease delta near U = 0: the
    median decrease over the sampled boundary shell."""
    n = system.dimension
    rng = tagged_rng(seed, 0xDE17A)
    z = rng.standard_normal(size=(samples, n))
    u_vals = np.asarray(certificate.variant_values(z))
    # Scale points onto the shell where U = b (i.e. just outside {U <= 0}).
    scale = np.sqrt(2.0 * b / np.maximum(u_vals + b, 1e-300))
    pts = z * scale[:, None]
    W = system.noise.draw([rng], samples)[:, 0]
    succ = step_batch(system, pts, W)
    dU = np.asarray(certificate.variant_values(succ)) - np.asarray(certificate.variant_values(pts))
    neg = -dU[dU < 0.0]
    if neg.size == 0:
        raise SynthesisError("variant never decreases at the sampled boundary shell")
    return float(np.quantile(neg, 0.5))


def synthesize_logarithmic(system: LinearSystem, target: TargetBall, seed: int = 0) -> LogCertificate:
    """Logarithmic certificate for a fully critical system of dimension <= 2.

    Preconditions: all eigenvalues of A on the unit circle with Jordan
    blocks of size one, n <= 2, B full rank with n == m.
    """
    try:
        Q_star = unit_plane_basis(system.A)
    except LinalgError as exc:
        raise SynthesisError(str(exc)) from exc
    b = _sublevel_b(Q_star, target)
    if b <= 0:
        raise SynthesisError("target too small: sublevel bound b is non-positive")
    compact = _scan_compact_radius(system, Q_star, seed)
    cert = LogCertificate(Q_star=Q_star, compact_radius_star=compact, variant_b=b, delta=1.0)  # delta estimated below
    return replace(cert, delta=_estimate_delta(system, cert, b, seed))


# ---------------------------------------------------------------------------
# Composite certificates (critical unit part + stable part)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeCertificate(Certificate):
    """Additive candidate V(x) = V_log(x_u) + V_quad(x_s) on split coordinates.

    The state is mapped by transform_inv into (unit part, stable part)
    coordinates.  The combined variant is the quadratic form
    x' M x - b with M assembled from the two parts.  This construction is
    a heuristic beyond the proved regimes; ``verified`` stays False until
    the numerical drift and variant checks pass.
    """

    transform: np.ndarray       # columns: unit basis then stable basis
    transform_inv: np.ndarray
    unit_dim: int
    unit_cert: LogCertificate
    stable_cert: QuadraticCertificate
    M: np.ndarray               # combined variant quadratic form (in x coordinates)
    variant_b: float
    delta: float
    verified: bool = False

    kind = "composite"

    def _split(self, X):
        Y = np.atleast_2d(np.asarray(X, dtype=float)) @ self.transform_inv.T
        return Y[:, : self.unit_dim], Y[:, self.unit_dim :]

    def drift_values(self, X) -> np.ndarray:
        Xu, Xs = self._split(X)
        return self.unit_cert.drift_values(Xu) + self.stable_cert.drift_values(Xs)

    def variant_values(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return quadratic_form(X, self.M) - self.variant_b

    def h_bound(self, r: float) -> float:
        return math.exp(2.0 * r * r) + r - self.variant_b

    def level_proposal(self, n: int, level: float, rng):
        """Uniform draws x = T y from a cylinder holding {V <= level}: V_log >= 1 and the
        stable part is >= 0, so y_u'Q_star y_u <= exp(2 level^2) and y_s'Q y_s <= level - 1."""
        nu = self.unit_dim
        unit = _ellipsoid_shell_proposal(self.unit_cert.Q_star, 0.0, _star_bound(level), nu, rng)
        stable = _ellipsoid_shell_proposal(self.stable_cert.Q, 0.0, level - 1.0, n - nu, rng)
        return lambda missing: np.hstack([unit(missing), stable(missing)]) @ self.transform.T

    @property
    def compact_radius(self) -> float:
        ru = self.unit_cert.compact_radius
        rs = self.stable_cert.compact_radius
        return float(np.linalg.norm(self.transform, 2)) * math.hypot(ru, rs)

    def default_levels(self):
        base = self.unit_cert.default_levels()
        return tuple(r + float(self.stable_cert.variant_b) for r in base)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "transform": self.transform.tolist(), "unit_dim": self.unit_dim,
                "unit": self.unit_cert.to_dict(), "stable": self.stable_cert.to_dict(), "M": self.M.tolist(),
                "b": self.variant_b, "delta": self.delta, "verified": self.verified}

    @classmethod
    def from_dict(cls, d: dict) -> "CompositeCertificate":
        T, M = _matrix(d, "transform"), _matrix(d, "M")
        unit, stable = _part(d, "unit", LogCertificate), _part(d, "stable", QuadraticCertificate)
        dims = (len(unit.Q_star), len(stable.Q))
        nu, n = int(_number(d, "unit_dim")), sum(dims)
        for key, got, want in (("unit_dim", nu, dims[0]), ("transform", T.shape, (n, n)), ("M", M.shape, (n, n))):
            if got != want:
                raise ValueError(f"composite {key} is {got}; unit and stable parts of dimensions {dims} need {want}")
        return cls(transform=T, transform_inv=np.linalg.inv(T), unit_dim=nu, unit_cert=unit, stable_cert=stable,
                   M=0.5 * (M + M.T), variant_b=_number(d, "b"), delta=_number(d, "delta"),
                   verified=bool(d.get("verified", False)))


def _part(d: dict, key: str, cls):
    """The composite's ``key`` part, which must be a ``cls`` certificate."""
    if _registered(d[key]) is not cls:
        raise ValueError(f"composite {key} part must be a {cls.kind} certificate, got kind {d[key]['kind']!r}")
    return cls.from_dict(d[key])


def synthesize_composite(
    system: LinearSystem, target: TargetBall, seed: int = 0
) -> CompositeCertificate:
    """Composite certificate for a critical system with a stable part."""
    _require_origin_ball(target)
    A, B = system.A, system.B
    try:
        T, report = invariant_basis(A)
    except LinalgError as exc:
        raise SynthesisError(str(exc)) from exc
    nu = report.dim_EA
    if nu == 0 or nu == A.shape[0]:
        raise SynthesisError("composite split needs both a unit part and a stable part")
    if np.linalg.cond(T) > 1e10:
        raise SynthesisError("invariant subspace split is ill-conditioned")
    if nu > 2:
        raise SynthesisError("unit-circle subspace has dimension > 2; no certificate template")
    T_inv = np.linalg.inv(T)
    Ab = T_inv @ A @ T
    A_u, A_s = Ab[:nu, :nu], Ab[nu:, nu:]
    B_y = T_inv @ B
    B_u, B_s = B_y[:nu, :], B_y[nu:, :]

    sub_target = TargetBall(center=np.zeros(nu), radius=target.radius)
    unit_cert = synthesize_logarithmic(
        LinearSystem(A=A_u, B=B_u, noise=system.noise), sub_target, seed=seed
    )
    stable_target = TargetBall(center=np.zeros(A_s.shape[0]), radius=target.radius)
    stable_cert = synthesize_quadratic(
        LinearSystem(A=A_s, B=B_s, noise=system.noise), stable_target
    )

    # Combined variant form in original coordinates.
    blocks = np.zeros(A.shape)
    blocks[:nu, :nu] = unit_cert.Q_star
    blocks[nu:, nu:] = stable_cert.Q
    M = T_inv.T @ blocks @ T_inv
    M = 0.5 * (M + M.T)
    b = _sublevel_b(M, target)
    if b <= 0:
        raise SynthesisError("target too small for the combined variant")
    cert = CompositeCertificate(
        transform=T,
        transform_inv=T_inv,
        unit_dim=nu,
        unit_cert=unit_cert,
        stable_cert=stable_cert,
        M=M,
        variant_b=b,
        delta=1.0,
        verified=False,
    )
    return replace(cert, delta=_estimate_delta(system, cert, b, seed))


# ---------------------------------------------------------------------------
# User-supplied certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CustomCertificate(Certificate):
    """Hand-written certificate: callables plus the constants the checks need.

    ``drift`` and ``variant`` take an (N, n) array of states and return N
    values.  ``level_radius`` maps a drift level r to the half-widths of
    an origin-centred box that contains {V <= r}: one number for every
    coordinate, or one per coordinate (broadcast to n).  The tighter the
    box, the fewer of its proposals the level sampling rejects.
    """

    drift: object
    variant: object
    h: object
    delta: float
    compact_radius: float
    level_radius: object
    levels: tuple = ()
    positive_quadrant: bool = False

    kind = "custom"

    def drift_values(self, X):
        return np.asarray(self.drift(np.atleast_2d(np.asarray(X, dtype=float))))

    def variant_values(self, X):
        return np.asarray(self.variant(np.atleast_2d(np.asarray(X, dtype=float))))

    def h_bound(self, r: float) -> float:
        return float(self.h(r))

    def level_proposal(self, n: int, level: float, rng):
        """Uniform draws from the box of half-widths level_radius(level),
        folded onto the positive quadrant if asked; rounds of at least 1024."""
        bound = np.broadcast_to(np.asarray(self.level_radius(level), dtype=float), (n,))
        fold = np.abs if self.positive_quadrant else (lambda pts: pts)
        return lambda missing: fold(rng.uniform(-bound, bound, size=(max(4 * missing, 1024), n)))

    def default_levels(self):
        if self.levels:
            return self.levels
        base = self.compact_radius + 1.0
        return (base, 2.0 * base, 4.0 * base)


# ---------------------------------------------------------------------------
# Serialization (certificate files)
# ---------------------------------------------------------------------------

CERTIFICATE_KINDS = {cls.kind: cls for cls in (QuadraticCertificate, LogCertificate, CompositeCertificate)}


def _registered(d):
    """The class registered under the kind that the JSON object ``d`` names."""
    if not isinstance(d, dict):
        raise ValueError(f"a certificate must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return CERTIFICATE_KINDS[kind]


def certificate_from_dict(d: dict):
    return _registered(d).from_dict(d)


def save_certificate(cert, path):
    with open(path, "w") as fh:
        json.dump(cert.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path):
    with open(path) as fh:
        return certificate_from_dict(json.load(fh))
