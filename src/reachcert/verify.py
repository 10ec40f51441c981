"""Numerical verification of drift (V1) and variant (V2) conditions.

The drift condition asks that the expected one-step change of V is
non-positive outside a compact set; the variant condition asks that U
decreases by at least delta with positive probability on each V-sublevel
set, stays below H(r) there, and that the set {U <= 0} lies inside the
target G, a TargetBall or a callable row mask (see `systems.contains`).
Every check takes states as the rows of an (N, n) array and asks the
certificate only what its protocol (`certificates.Certificate`) answers.
A certificate with an exact drift (a quadratic on a linear system) is
checked with that closed form.  Other drifts are estimated on seeded
shells by `drift_expectation`, as in certificate synthesis: with tensor
Gauss rules (each unit rule built once) when the noise has at most three
dimensions (reporting the gap between two rule orders as the error),
otherwise by seeded Monte Carlo (reporting a 3-sigma half-width).  Steps
go through `step_batch`, the one-step form of the system's `advance`.
Level-set sampling takes V and U of each proposal from `level_values`,
one call per piece of rows (`_pieces`); quadratic and logarithmic levels
propose exactly from an ellipsoid shell, mapped from the sphere by L^-1
(Q = L L') in place, a piece at a time.  A
level whose {V <= r} passes the float range fails unsampled, and
`verify` exits with 1.  Either way the result is a numerical check with
an error estimate, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import is_symmetric_positive_definite, quadratic_form
from .systems import ROW_ALIGN, LinearSystem, contains, step_batch, tagged_rng, trajectory_rngs

__all__ = [
    "LevelOverflowError",
    "ShellPlan",
    "DriftViolation",
    "DriftReport",
    "VariantLevel",
    "VariantReport",
    "exact_quadratic_drift",
    "mc_drift",
    "cubature_drift",
    "drift_expectation",
    "verify_drift",
    "verify_variant",
    "default_shell_plan",
]

DRIFT_TOL_SCALE = 1e-9
MIN_ACCEPT_RATE = 1e-6
# (high, low) Gauss rule orders per axis by noise dimension.  The high
# order gives the estimate, the gap to the low order its error; the high
# rule keeps to a few hundred nodes per point.
CUBATURE_ORDERS = {1: (32, 16), 2: (16, 8), 3: (8, 4)}
# Point x node rows evaluated at once, which bounds peak memory.
CUBATURE_ROWS = 2**16
# Rays along which the inclusion check finds a point of {U = 0}.
INCLUSION_POINTS = 256
# Least rows of a piece of a level (`_pieces`), a multiple of ROW_ALIGN.
# OpenBLAS picks its gemm path by the size of a product: pieces of 1,024 or
# 2,048 rows round some products at n = 17-20 unlike the whole level, while
# pieces of at least 4,096 rows keep the whole product's bits at every n
# from 2 to 40 (SkylakeX, Haswell and Sandybridge cores; on Haswell, on one
# BLAS thread, as its thread split moves the uncut product's own bits).
PIECE_ROWS = 4096


class LevelOverflowError(ValueError):
    """A level r whose set {V <= r} reaches past the float range."""


@dataclass(frozen=True)
class ShellPlan:
    """Deterministic sampling plan for the drift check.

    Shells are Euclidean radii outside the certificate's compact set, at
    least one, each positive and finite; each shell gets
    ``points_per_shell`` (at least 1) directions and each point
    ``noise_samples`` Monte Carlo draws (used only by the Monte Carlo
    path, for noise of more than three dimensions).
    """

    radii: tuple
    points_per_shell: int = 64
    noise_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        if radii.size == 0 or not np.all((radii > 0.0) & np.isfinite(radii)):
            raise ValueError(f"radii must be one or more positive finite numbers, got {self.radii!r}")
        if self.points_per_shell < 1:
            raise ValueError(f"points_per_shell must be at least 1, got {self.points_per_shell!r}")


def default_shell_plan(certificate, dimension: int, seed: int = 0) -> ShellPlan:
    base = max(float(certificate.compact_radius), 1e-6)
    radii = tuple(base * 2.0**j for j in range(7))
    points = 64 if dimension <= 3 else 256
    return ShellPlan(radii=radii, points_per_shell=points, seed=seed)


@dataclass(frozen=True)
class DriftViolation:
    x: tuple
    estimate: float
    half_width: float


@dataclass(frozen=True)
class DriftReport:
    plan: ShellPlan
    method: str  # "exact", "cubature" or "monte-carlo"
    rule_orders: tuple  # (high, low) Gauss orders on the cubature path, else ()
    shell_worst: tuple  # (radius, worst estimate, half width) per shell
    violations: tuple
    passed: bool

    @property
    def exact(self) -> bool:
        return self.method == "exact"

    def to_dict(self) -> dict:
        return {
            "exact": self.exact,
            "method": self.method,
            "rule_orders": list(self.rule_orders) or None,
            "shells": [
                {"radius": r, "worst_estimate": e, "half_width": h}
                for (r, e, h) in self.shell_worst
            ],
            "violations": [
                {"x": list(v.x), "estimate": v.estimate, "half_width": v.half_width}
                for v in self.violations
            ],
            "passed": self.passed,
            "points_per_shell": self.plan.points_per_shell,
            "noise_samples": self.plan.noise_samples,
            "seed": self.plan.seed,
        }


@dataclass(frozen=True)
class VariantLevel:
    level: float
    delta: float
    epsilon_hat: float
    epsilon_half_width: float
    samples: int
    h_violations: int


@dataclass(frozen=True)
class VariantReport:
    levels: tuple  # VariantLevel entries
    inclusion_violations: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "levels": [
                {
                    "level": lv.level,
                    "delta": lv.delta,
                    "epsilon_hat": lv.epsilon_hat,
                    "epsilon_half_width": lv.epsilon_half_width,
                    "samples": lv.samples,
                    "h_violations": lv.h_violations,
                }
                for lv in self.levels
            ],
            "inclusion_violations": self.inclusion_violations,
            "passed": self.passed,
        }


def exact_quadratic_drift(system: LinearSystem, Q, X) -> np.ndarray:
    """Exact E[V(Ax+Bw)] - V(x) for V(x) = x'Qx at every row x of X:
    x'(A'QA - Q)x + tr(B'QB Sigma_w), with no sampling error."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if not is_symmetric_positive_definite(Q):
        raise ValueError("Q must be symmetric positive definite")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if Q.shape[0] != system.dimension or X.shape[1] != system.dimension:
        raise ValueError("dimension mismatch")
    M = system.A.T @ Q @ system.A - Q
    noise_term = float(np.trace(system.B.T @ Q @ system.B @ system.noise.covariance))
    return quadratic_form(X, M) + noise_term


def mc_drift(system, V, X, samples: int = 10_000, seed: int = 0):
    """Monte Carlo estimates of E[V(f(x,w))] - V(x) at every row x of X.

    ``V`` must accept an (N, n) array of states and return N values.  Row i
    draws ``samples // 2`` noise vectors from trajectory i's stream of
    base seed ``seed``, built with those of the other rows of its group by
    `trajectory_rngs`.  Every supported noise law is symmetric,
    so each draw w is paired with -w (antithetic pairing), which cancels the
    first-order term of V and shrinks the variance by orders of magnitude
    for slowly varying drifts.  Returns the estimates and their 3-sigma
    half-widths; point x draw rows are evaluated CUBATURE_ROWS at a time.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    v0 = np.asarray(V(X), dtype=float)
    if not np.all(np.isfinite(v0)):
        raise ValueError(f"drift function not finite at x={X[~np.isfinite(v0)][0]}")
    n_draws = samples // 2
    stats = np.empty((2, len(X)))  # estimates, half-widths
    per = max(1, CUBATURE_ROWS // n_draws)
    for lo in range(0, len(X), per):
        rngs = trajectory_rngs(seed, range(lo, min(lo + per, len(X))))
        W = np.empty((len(rngs), n_draws, system.noise_dimension))
        system.noise.draw(rngs, n_draws, out=W.transpose(1, 0, 2))  # each point's draws contiguous
        W = W.reshape(-1, W.shape[2])
        starts = np.repeat(X[lo : lo + per], n_draws, axis=0)
        succ = step_batch(system, starts, W)
        vals = 0.5 * (np.asarray(V(succ), dtype=float) + np.asarray(V(step_batch(system, starts, -W)), dtype=float))
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"drift function not finite at successor {succ[~np.isfinite(vals)][0]}")
        diffs = vals.reshape(len(rngs), n_draws) - v0[lo : lo + per, None]
        stats[:, lo : lo + per] = diffs.mean(axis=1), 3.0 * diffs.std(axis=1, ddof=1) / np.sqrt(n_draws)
    return stats[0], stats[1]


def _pieces(rows: int) -> list:
    """Slices that cut range(rows) into rows // PIECE_ROWS near-equal
    pieces at multiples of ROW_ALIGN, each of at least PIECE_ROWS rows, or
    one slice below 2 * PIECE_ROWS rows."""
    k = max(1, rows // PIECE_ROWS)
    cuts = [ROW_ALIGN * (rows * i // (ROW_ALIGN * k)) for i in range(k)] + [rows]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _map_rows(X, M) -> np.ndarray:
    """X with its rows mapped by M in place (X @ M), a piece at a time."""
    for piece in _pieces(len(X)):
        X[piece] = X[piece] @ M
    return X


def _sphere_points(n: int, count: int, radius: float, rng) -> np.ndarray:
    """count points uniform on the sphere of ``radius``, normalised in place
    a piece at a time."""
    z = rng.standard_normal(size=(count, n))
    for piece in _pieces(count):
        part = z[piece]
        norms = np.linalg.norm(part, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        if radius != 1.0:
            part *= radius
        part /= norms
    return z


def cubature_drift(system, V, X, orders):
    """E[V(f(x,w))] - V(x) at every row x of X by tensor Gauss rules.

    ``orders`` is (high, low).  Returns the high-order estimates and the
    absolute gaps to the low-order ones, which serve as error estimates.
    Deterministic: no seed, no sampling.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    (nodes_hi, w_hi), (nodes_lo, w_lo) = (system.noise.gauss_rule(order) for order in orders)
    nodes = np.concatenate([nodes_hi, nodes_lo])
    K = len(nodes)
    weights = np.zeros((K, 2))  # column 0 weighs the high-order nodes, column 1 the low-order ones
    weights[: len(w_hi), 0] = w_hi
    weights[len(w_hi) :, 1] = w_lo
    v0 = np.asarray(V(X), dtype=float)
    if not np.all(np.isfinite(v0)):
        raise ValueError(f"drift function not finite at x={X[~np.isfinite(v0)][0]}")
    means = np.empty((len(X), 2))
    per = max(1, CUBATURE_ROWS // K)
    for lo in range(0, len(X), per):
        Xs = X[lo : lo + per]
        succ = step_batch(system, np.repeat(Xs, K, axis=0), np.tile(nodes, (len(Xs), 1)))
        vals = np.asarray(V(succ), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"drift function not finite at successor {succ[~np.isfinite(vals)][0]}")
        means[lo : lo + per] = (vals.reshape(len(Xs), K) - v0[lo : lo + per, None]) @ weights
    return means[:, 0], np.abs(means[:, 0] - means[:, 1])


def drift_expectation(system, V, X, samples: int, seed: int):
    """(estimates, errors) of E[V(f(x,w))] - V(x) at every row x of X.

    The one choice between the estimators: `cubature_drift` for noise of
    at most three dimensions (``samples`` and ``seed`` unused), else
    `mc_drift` with ``samples`` draws per row.
    """
    orders = CUBATURE_ORDERS.get(system.noise_dimension)
    if orders:
        return cubature_drift(system, V, X, orders)
    return mc_drift(system, V, X, samples=samples, seed=seed)


def verify_drift(system, certificate, plan: ShellPlan | None = None) -> DriftReport:
    """Check the drift condition on shells outside the compact set.

    The plan (default `default_shell_plan` with seed 0) carries the seed:
    shell points come from ``tagged_rng(plan.seed, 0xD21F7)``.  A
    certificate's ``exact_drift`` (no error) is used where it has one.
    Other drifts are estimated by `drift_expectation`, one call per shell
    with seed ``plan.seed + 7919 j`` for shell j.  A point fails only if
    its estimate minus its error (the rule-order gap, or the 3-sigma
    half-width) lies above ``1e-9 * (1 + |V(x)|)``.
    """
    n = system.dimension
    if plan is None:
        plan = default_shell_plan(certificate, n)
    compact = float(certificate.compact_radius)
    for r in plan.radii:
        if r < compact * (1.0 - 1e-12):
            raise ValueError(f"shell radius {r} lies inside the compact set (radius {compact})")

    orders = CUBATURE_ORDERS.get(system.noise_dimension, ())
    rng = tagged_rng(plan.seed, 0xD21F7)
    shell_worst = []
    violations = []
    exact = False
    for j, radius in enumerate(plan.radii):
        pts = _sphere_points(n, plan.points_per_shell, radius, rng)
        if certificate.positive_quadrant:
            pts = np.abs(pts)
        est = certificate.exact_drift(system, pts)
        exact = est is not None
        if exact:
            hws = np.zeros_like(est)
        else:
            est, hws = drift_expectation(
                system, certificate.drift_values, pts, plan.noise_samples, plan.seed + 7919 * j
            )
        v_at = np.asarray(certificate.drift_values(pts), dtype=float)
        tols = DRIFT_TOL_SCALE * (1.0 + np.abs(v_at))
        bad = est - hws > tols
        worst = int(np.argmax(est - hws - tols))
        shell_worst.append((float(radius), float(est[worst]), float(hws[worst])))
        for i in np.flatnonzero(bad):
            violations.append(
                DriftViolation(x=tuple(pts[i]), estimate=float(est[i]), half_width=float(hws[i]))
            )
    return DriftReport(
        plan=plan,
        method="exact" if exact else "cubature" if orders else "monte-carlo",
        rule_orders=() if exact else orders,
        shell_worst=tuple(shell_worst),
        violations=tuple(violations),
        passed=not violations,
    )


def _ellipsoid_shell_proposal(Q, b, level, n, rng):
    """Uniform draws from the shell {b < x'Qx <= level}, without rejection.

    x = L^-T (rho u) with Q = L L', u uniform on the unit sphere and rho
    of density proportional to rho^(n-1) on (sqrt(b), sqrt(level)]:
    rho^2 = level * (t + v (1 - t))^(2/n) with t = (b / level)^(n/2) and
    v uniform on (0, 1], which cannot overflow for large n.  The rows
    are scaled and mapped by L^-1 (inverted once per proposal) in place,
    so a round holds one (missing, n) array.
    """
    if not level > max(b, 0.0):
        raise ValueError(f"level {level} is not above the variant offset {b}: {{V <= r, U > 0}} is empty")
    L_inv = np.linalg.inv(np.linalg.cholesky(Q))
    t = (max(b, 0.0) / level) ** (0.5 * n)

    def propose(missing):
        u = _sphere_points(n, missing, 1.0, rng)
        v = 1.0 - rng.random(missing)
        u *= np.sqrt(level * (t + v * (1.0 - t)) ** (2.0 / n))[:, None]
        return _map_rows(u, L_inv)

    return propose


def _sample_level_region(certificate, n, level, count, rng):
    """(points, U at the points): count points uniform on {V <= level, U > 0}.

    The certificate's ``level_proposal`` draws uniformly from a superset
    (the region itself for quadratic and logarithmic certificates), and
    every proposal is tested on the certificate's ``level_values``, one
    drift evaluation per proposal and one call per piece of a round.
    Raises once (accepted + 3) / tried falls below MIN_ACCEPT_RATE
    (3 / tried bounds the rate at 95 % when none of the draws so far was
    accepted).
    """
    propose = certificate.level_proposal(n, level, rng)
    accepted = []
    tried = 0
    got = 0
    while got < count:
        pts = propose(count - got)
        tried += len(pts)
        u = np.empty(len(pts))
        ok = np.empty(len(pts), dtype=bool)
        for piece in _pieces(len(pts)):
            v, u_piece = certificate.level_values(pts[piece])
            u[piece] = u_piece
            ok[piece] = (v <= level) & (u_piece > 0.0)
        if not ok.all():
            pts, u = pts[ok], u[ok]
        if len(pts):
            accepted.append((pts[: count - got], u[: count - got]))
            got += len(accepted[-1][0])
        if (got + 3) / tried < MIN_ACCEPT_RATE:
            raise ValueError(
                f"rejection sampling acceptance rate below {MIN_ACCEPT_RATE} at level {level}"
                f" ({got} of {tried} proposals accepted)"
            )
    return tuple(part[0] if len(part) == 1 else np.concatenate(part) for part in zip(*accepted))


def verify_variant(
    system,
    certificate,
    target,
    levels=None,
    samples: int = 20_000,
    seed: int = 0,
) -> VariantReport:
    """Check the variant condition per level plus the target inclusion.

    ``target`` is a TargetBall or, for an arbitrary open region G, a
    callable row mask as in `hitting_stats`.  Per level r: sample x from
    {V <= r, U > 0}, draw one noise vector per x, and estimate the
    probability that U decreases by at least the certificate's delta.
    Exact checks: U(x) <= H(r) on all samples, and random points of
    {U = 0} belong to the target.  Passes iff every level's probability
    estimate is separated from 0 by 3 sigma, delta is positive, and the
    exact checks have no violations.  A level that raises
    LevelOverflowError fails with no samples and epsilon_hat 0.  Levels
    are checked one at a time (`_variant_level`) and stepped in pieces of
    at least PIECE_ROWS rows, so the check holds one (samples, n) array,
    a level's points, beside a few pieces' noise and successors.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    n = system.dimension
    delta = float(certificate.delta)
    if levels is None:
        levels = certificate.default_levels()
    levels = [float(r) for r in levels]
    if not levels:
        raise ValueError("need at least one level")

    rng = tagged_rng(seed, 0x7A21)
    level_rows = [_variant_level(system, certificate, r, delta, samples, rng) for r in levels]
    inclusion_bad = _check_inclusion(certificate, target, n, INCLUSION_POINTS, rng, certificate.positive_quadrant)
    passed = (
        delta > 0.0
        and all(lv.epsilon_hat - lv.epsilon_half_width > 0.0 for lv in level_rows)
        and all(lv.h_violations == 0 for lv in level_rows)
        and inclusion_bad == 0
    )
    return VariantReport(levels=tuple(level_rows), inclusion_violations=inclusion_bad, passed=passed)


def _variant_level(system, certificate, level, delta, samples, rng) -> VariantLevel:
    """One level's row of `verify_variant`, drawn from ``rng``.  The level
    keeps one (N, n) array, its points, which dies on return, before the
    next level is sampled.  Each piece (`_pieces`) draws its noise from
    ``rng`` in turn, in the order of one whole draw, and is stepped; its
    noise and successors, left unnamed, die once U(successor) - U(x) is
    written into one N-vector."""
    try:
        pts, u_pts = _sample_level_region(certificate, system.dimension, level, samples, rng)
    except LevelOverflowError:
        return VariantLevel(level, delta, 0.0, 0.0, samples=0, h_violations=0)
    dU = np.empty(len(pts))
    for piece in _pieces(len(pts)):
        u_succ = certificate.variant_values(
            step_batch(system, pts[piece], system.noise.draw([rng], piece.stop - piece.start)[:, 0])
        )
        dU[piece] = np.asarray(u_succ) - u_pts[piece]
    eps_hat = float(np.mean(dU <= -delta))
    eps_hw = float(3.0 * np.sqrt(max(eps_hat * (1.0 - eps_hat), 1.0 / len(pts)) / len(pts)))
    h_bad = int(np.sum(u_pts > certificate.h_bound(level) + 1e-12))
    return VariantLevel(
        level=level,
        delta=delta,
        epsilon_hat=eps_hat,
        epsilon_half_width=eps_hw,
        samples=len(pts),
        h_violations=h_bad,
    )


def _check_inclusion(certificate, target, n, count, rng, positive_quadrant):
    """Count sampled points of the zero level set of U that are outside G."""
    dirs = _sphere_points(n, count, 1.0, rng)
    if positive_quadrant:
        dirs = np.abs(dirs)
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    return int(np.count_nonzero(~contains(target, _zero_crossings(certificate, dirs))))


def _zero_crossings(certificate, dirs, t_max=1e9):
    """Bisection for U(t d) = 0 along every ray t d (t > 0) from the origin.

    All rays advance together, each with the arithmetic of a scalar
    bisection: hi doubles from 1 until U(hi d) > 0 or hi reaches t_max,
    then 80 halvings of [lo, hi].  Returns, in ray order, the point just
    inside the zero level set of each ray that crossed; none if U(0) >= 0.
    """
    u0 = float(np.asarray(certificate.variant_values(np.zeros((1, dirs.shape[1]))))[0])
    if u0 >= 0.0:
        return dirs[:0]
    lo = np.zeros(len(dirs))
    hi = np.ones(len(dirs))
    crossed = np.zeros(len(dirs), dtype=bool)
    doubling = np.flatnonzero(hi < t_max)
    while doubling.size:
        u = np.asarray(certificate.variant_values(hi[doubling, None] * dirs[doubling]))
        crossed[doubling[u > 0.0]] = True
        doubling = doubling[~(u > 0.0)]
        lo[doubling] = hi[doubling]
        hi[doubling] *= 2.0
        doubling = doubling[hi[doubling] < t_max]
    lo, hi, dirs = lo[crossed], hi[crossed], dirs[crossed]
    if len(dirs):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            up = np.asarray(certificate.variant_values(mid[:, None] * dirs)) > 0.0
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
    # Just inside the zero level set; membership in G must hold there.
    return lo[:, None] * dirs
