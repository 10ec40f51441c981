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
The variant check cuts each level into pieces (`_pieces`): piece k of
the j-th level draws from ``tagged_rng(seed, VARIANT_TAG, j, k)`` and the
inclusion rays from ``tagged_rng(seed, INCLUSION_TAG)``, so the pieces run
on REACHCERT_THREADS threads without changing a bit of the report.  A
running piece holds about three arrays of its rows x n doubles, and a
finished one only two counts, so a level's points are never held whole.
Level-set sampling takes V and U of each proposal from
`level_values`; quadratic and logarithmic levels propose exactly from an
ellipsoid shell, mapped from the sphere by L^-1 (Q = L L').  A level
whose {V <= r} passes the float range fails unsampled, and `verify`
exits with 1.  Either way the result is a numerical check with
an error estimate, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import _cpus, _max_workers
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
# Stream tags of `verify_variant`: piece k of level j draws from
# tagged_rng(seed, VARIANT_TAG, j, k) and the inclusion rays from
# tagged_rng(seed, INCLUSION_TAG).
VARIANT_TAG = 0x7A21
INCLUSION_TAG = 0x1AC1
# Pieces of a variant-check level (`_pieces`) have at least PIECE_ROWS
# and at least PIECE_CELLS // n rows.  A piece is the unit of the variant
# check's streams and threads, so the cuts are part of the seeded stream
# layout, fixed by the samples and n alone.  A running piece holds a few
# arrays of its rows x n doubles: at n = 20-40, pieces of 2,048 rows ran
# faster than pieces of 4,096 on two threads and halve the working set,
# while at n <= 4, pieces of PIECE_CELLS // n rows keep the fixed cost of
# a piece (a stream, a proposal and a noise draw, about 0.1 ms) off the
# check.
PIECE_ROWS = 2048
PIECE_CELLS = 2**15
# A level of at least this many samples x n runs its pieces on threads.
# On two CPUs, the 1-D check of 20,000 samples and the 2-D check of 2,000
# ran faster inline, and the 2-D check of 20,000 and the 4-D check of
# 5,000 on two threads.
THREADED_CELLS = 2**15


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


def _pieces(rows: int, least: int) -> list:
    """Slices that cut range(rows) into rows // least near-equal pieces
    at multiples of ROW_ALIGN, each of at least ``least`` rows, or one
    slice below 2 * least rows."""
    k = max(1, rows // least)
    cuts = [ROW_ALIGN * (rows * i // (ROW_ALIGN * k)) for i in range(k)] + [rows]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _sphere_points(n: int, count: int, radius: float, rng) -> np.ndarray:
    """count points uniform on the sphere of ``radius``, normalised in place."""
    z = rng.standard_normal(size=(count, n))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    if radius != 1.0:
        z *= radius
    z /= norms
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
    are scaled in place and mapped by L^-1, inverted once per proposal.
    """
    if not level > max(b, 0.0):
        raise ValueError(f"level {level} is not above the variant offset {b}: {{V <= r, U > 0}} is empty")
    L_inv = np.linalg.inv(np.linalg.cholesky(Q))
    t = (max(b, 0.0) / level) ** (0.5 * n)

    def propose(missing):
        u = _sphere_points(n, missing, 1.0, rng)
        v = 1.0 - rng.random(missing)
        u *= np.sqrt(level * (t + v * (1.0 - t)) ** (2.0 / n))[:, None]
        return u @ L_inv

    return propose


def _sample_level_region(certificate, n, level, count, rng):
    """(points, U at the points): count points uniform on {V <= level, U > 0}.

    The certificate's ``level_proposal`` draws uniformly from a superset
    (the region itself for quadratic and logarithmic certificates), and
    every proposal is tested on the certificate's ``level_values``, one
    drift evaluation per proposal and one call per round.
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
        v, u = certificate.level_values(pts)
        ok = (v <= level) & (u > 0.0)
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
    LevelOverflowError fails with no samples and epsilon_hat 0.

    Streams: each level's samples are cut into pieces (`_pieces`), and
    piece k of the j-th level draws its points and then its noise from
    ``tagged_rng(seed, VARIANT_TAG, j, k)`` alone (`_variant_piece`); the
    inclusion rays draw from ``tagged_rng(seed, INCLUSION_TAG)``.  A piece
    returns integer counts, summed in piece order, so a report does not
    depend on which thread ran which piece.  The pieces run on
    min(REACHCERT_THREADS, CPUs) threads when a level has at least
    THREADED_CELLS samples x n, else inline.  Memory: each running piece
    holds its points, its noise and then its successors, about three
    arrays of (piece rows) x n doubles, and nothing of a finished piece
    outlives it but its counts.
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

    rows = [piece.stop - piece.start for piece in _pieces(samples, max(PIECE_ROWS, PIECE_CELLS // n))]

    def run(job):
        j, k = job
        rng = tagged_rng(seed, VARIANT_TAG, j, k)
        try:
            return _variant_piece(system, certificate, levels[j], delta, rows[k], rng)
        except LevelOverflowError:
            return None

    counts = _map_pieces(run, [(j, k) for j in range(len(levels)) for k in range(len(rows))], samples * n)
    level_rows = [
        _level_row(r, delta, samples, counts[j * len(rows) : (j + 1) * len(rows)]) for j, r in enumerate(levels)
    ]
    inclusion_bad = _check_inclusion(
        certificate, target, n, INCLUSION_POINTS, tagged_rng(seed, INCLUSION_TAG), certificate.positive_quadrant
    )
    passed = (
        delta > 0.0
        and all(lv.epsilon_hat - lv.epsilon_half_width > 0.0 for lv in level_rows)
        and all(lv.h_violations == 0 for lv in level_rows)
        and inclusion_bad == 0
    )
    return VariantReport(levels=tuple(level_rows), inclusion_violations=inclusion_bad, passed=passed)


def _map_pieces(run, jobs, cells: int) -> list:
    """``[run(job) for job in jobs]``, on min(REACHCERT_THREADS, CPUs, jobs)
    threads when ``cells`` (a level's samples x n) reaches THREADED_CELLS.

    The calling thread is one of the workers: each takes the next job in
    order until none is left.  After a job raises, no later job starts,
    and once the running ones end the error of the first failed job is
    raised, the one that an inline run raises."""
    workers = min(_max_workers(), _cpus(), len(jobs))
    if workers < 2 or cells < THREADED_CELLS:
        return [run(job) for job in jobs]
    import concurrent.futures

    results = [None] * len(jobs)
    todo = iter(range(len(jobs)))

    def drain():
        for i in todo:
            try:
                results[i] = run(jobs[i])
            except BaseException as exc:  # raised again below, once the running jobs end
                results[i] = exc
                for _ in todo:  # start no later job
                    pass

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _variant_piece(system, certificate, level, delta, rows, rng):
    """(decreases of U by at least delta, H violations) among ``rows``
    points of {V <= level, U > 0}, each stepped once: the points, then
    their noise, drawn from ``rng``."""
    pts, u_pts = _sample_level_region(certificate, system.dimension, level, rows, rng)
    h_bad = int(np.count_nonzero(u_pts > certificate.h_bound(level) + 1e-12))
    succ = step_batch(system, pts, system.noise.draw([rng], rows)[:, 0])
    del pts  # U of the successors need not sit beside the points
    hits = int(np.count_nonzero(np.asarray(certificate.variant_values(succ)) - u_pts <= -delta))
    return hits, h_bad


def _level_row(level, delta, samples, counts) -> VariantLevel:
    """One level's row of `verify_variant` from its pieces' counts (None
    where the level overflowed)."""
    if None in counts:
        return VariantLevel(level, delta, 0.0, 0.0, samples=0, h_violations=0)
    eps_hat = sum(hits for hits, _ in counts) / samples
    eps_hw = float(3.0 * np.sqrt(max(eps_hat * (1.0 - eps_hat), 1.0 / samples) / samples))
    return VariantLevel(
        level=level,
        delta=delta,
        epsilon_hat=eps_hat,
        epsilon_half_width=eps_hw,
        samples=samples,
        h_violations=sum(h_bad for _, h_bad in counts),
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
    then up to 80 halvings of [lo, hi], which stop once a halving moves
    no ray's lo or hi (every later one would repeat the same midpoints,
    so the result is that of all 80).  Returns, in ray order, the point
    just inside the zero level set of each ray that crossed; none if
    U(0) >= 0.
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
            new_lo, new_hi = np.where(up, lo, mid), np.where(up, mid, hi)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
    # Just inside the zero level set; membership in G must hold there.
    return lo[:, None] * dirs
