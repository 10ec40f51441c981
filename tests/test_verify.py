import concurrent.futures
import hashlib
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from reachcert import (
    LinearSystem,
    NoiseModel,
    QuadraticCertificate,
    ShellPlan,
    TargetBall,
    drift_expectation,
    exact_quadratic_drift,
    mc_drift,
    synthesize_composite,
    synthesize_logarithmic,
    synthesize_quadratic,
    verify_drift,
    verify_variant,
)
from reachcert import counterexamples as cx
from reachcert import verify as verify_module
from reachcert.certificates import CustomCertificate
from reachcert.cli import run
from reachcert.linalg import quadratic_form
from reachcert.systems import ROW_ALIGN, step_batch, tagged_rng, trajectory_rngs
from reachcert.verify import (
    CUBATURE_ORDERS,
    INCLUSION_POINTS,
    PIECE_CELLS,
    PIECE_ROWS,
    _check_inclusion,
    _pieces,
    _sample_level_region,
    _sphere_points,
    _variant_piece,
    _zero_crossings,
    cubature_drift,
)
from conftest import ball_mask, explicit_step, random_stable_matrix, reference_noise_draw, rotation_matrix


class TestExactDrift:
    def test_matches_formula(self, stable_2d):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        x = np.array([3.0, -1.0])
        A, B = stable_2d.A, stable_2d.B
        expected = x @ (A.T @ Q @ A - Q) @ x + np.trace(
            B.T @ Q @ B @ stable_2d.noise.covariance
        )
        assert exact_quadratic_drift(stable_2d, Q, x[None]) == pytest.approx([expected], abs=1e-12)

    def test_mc_agrees_with_exact(self, stable_2d):
        Q = np.eye(2)
        x = np.array([4.0, 2.0])
        (exact,) = exact_quadratic_drift(stable_2d, Q, x[None])

        def V(X):
            X = np.atleast_2d(X)
            return np.einsum("ij,ij->i", X, X)

        (mean,), (hw,) = mc_drift(stable_2d, V, x, samples=200_000, seed=1)
        assert abs(mean - exact) <= hw + 1e-6

    def test_non_pd_q_rejected(self, stable_2d):
        with pytest.raises(ValueError):
            exact_quadratic_drift(stable_2d, np.diag([1.0, -1.0]), [[1.0, 1.0]])


class TestMcDrift:
    def test_deterministic_by_seed(self, random_walk):
        V = lambda X: np.abs(np.atleast_2d(X)[:, 0])
        a = mc_drift(random_walk, V, [3.0], samples=5000, seed=9)
        b = mc_drift(random_walk, V, [3.0], samples=5000, seed=9)
        assert all(np.array_equal(p, q) for p, q in zip(a, b))

    def test_antithetic_zero_variance_on_symmetric_abs(self, random_walk):
        # |3 + w| + |3 - w| = 6 exactly for |w| <= 1: pair means vanish.
        V = lambda X: np.abs(np.atleast_2d(X)[:, 0])
        (mean,), (hw,) = mc_drift(random_walk, V, [3.0], samples=1000, seed=0)
        assert mean == pytest.approx(0.0, abs=1e-14)
        assert hw == pytest.approx(0.0, abs=1e-14)

    def test_antithetic_resolves_tiny_drift(self, rotation_system, unit_ball_2d):
        # The log drift at ||x|| = e^10 is ~1e-10; plain MC noise would
        # swamp it, antithetic pairing must give a non-positive interval.
        cert = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        x = np.array([np.exp(10.0), 0.1])
        (mean,), (hw,) = mc_drift(rotation_system, cert.drift_values, x, samples=100_000, seed=3)
        assert mean + hw <= 0.0

    def test_non_finite_v_reported(self, random_walk):
        def V(X):  # -inf at 0, nan below
            with np.errstate(invalid="ignore"):
                return np.log(np.atleast_2d(X)[:, 0])

        with pytest.raises(ValueError):
            mc_drift(random_walk, V, [-5.0], samples=1000, seed=0)


# ---------------------------------------------------------------------------
# Monte Carlo drift on rows (noise of more than three dimensions)
# ---------------------------------------------------------------------------

def _wide_quadratic_case():
    """A 4-D stable system with 4-D uniform noise and V = x'Qx given as a
    custom certificate, so only the Monte Carlo path applies to it."""
    system = LinearSystem(
        A=random_stable_matrix(4, np.random.default_rng(4), rho=0.8),
        B=np.eye(4),
        noise=NoiseModel.uniform([1.0, 0.5, 2.0, 1.5]),
    )
    Q = np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0], [0.0, 0.2, 1.5, 0.4], [0.1, 0.0, 0.4, 1.0]])
    cert = CustomCertificate(
        drift=lambda X: quadratic_form(X, Q),
        variant=lambda X: quadratic_form(X, Q) - 0.5,
        h=lambda r: r,
        delta=0.1,
        compact_radius=1.0,
        level_radius=math.sqrt,
    )
    return system, Q, cert


def _single_state_cases():
    """(system, V, x, samples, seed) for one-state mc_drift calls with noise
    of 1, 2, 4 and 5 dimensions, uniform and Gaussian, linear and polynomial."""
    walk = cx.random_walk_system()
    yield walk, lambda X: np.atleast_2d(X)[:, 0] ** 2, [3.0], 2000, 4
    rot = LinearSystem(A=[[0.0, -1.0], [1.0, 0.0]], B=np.eye(2), noise=NoiseModel.gaussian(0.8 * np.eye(2)))
    yield rot, lambda X: np.sqrt(np.log1p(np.einsum("ij,ij->i", X, X))), [5.0, -2.0], 4000, 7
    wide = LinearSystem(A=0.5 * np.eye(4), B=np.eye(4), noise=NoiseModel.uniform([1.0, 0.5, 2.0, 1.0]))
    yield wide, lambda X: np.einsum("ij,ij->i", X, X), [1.0, 2.0, -1.0, 0.5], 3000, 11
    rng = np.random.default_rng(3)
    cov = np.diag([1.0, 0.5, 2.0, 0.3, 1.5])
    five = LinearSystem(
        A=0.3 * rng.standard_normal((3, 3)), B=rng.standard_normal((3, 5)), noise=NoiseModel.gaussian(cov)
    )
    yield five, lambda X: np.log1p(np.einsum("ij,ij->i", X, X)), [2.0, -1.0, 4.0], 5000, 13
    yield cx.example1_system(), cx._example1_drift, [3.0, 1.0], 2000, 2


# sha256 of the JSON list of (mean, half-width) of the cases above, taken
# when trajectory streams became Philox counter blocks: a lone row draws
# from its stream (seed, 0).
PINNED_SINGLE_STATE_DIGEST = "c300d9599a4956f8184efbe94f7baba0433b05d548d46f3b00ef40534cc2dcf0"


class TestMcDriftRows:
    def test_estimates_cover_the_exact_drift(self):
        system, Q, cert = _wide_quadratic_case()
        rng = np.random.default_rng(8)
        X = np.concatenate([_sphere_points(4, 50, r, rng) for r in (0.5, 2.0, 8.0, 32.0)])
        est, hw = mc_drift(system, cert.drift_values, X, samples=2000, seed=17)
        assert est.shape == hw.shape == (200,)
        exact = exact_quadratic_drift(system, Q, X)
        assert np.mean(np.abs(est - exact) <= hw) >= 0.99

    def test_row_slices_do_not_change_results(self, monkeypatch):
        system, _, cert = _wide_quadratic_case()
        X = _sphere_points(4, 20, 3.0, np.random.default_rng(2))
        whole = mc_drift(system, cert.drift_values, X, samples=1000, seed=6)
        monkeypatch.setattr("reachcert.verify.CUBATURE_ROWS", 1500)  # 3 points per slice
        sliced = mc_drift(system, cert.drift_values, X, samples=1000, seed=6)
        # As for cubature: agreement to rounding of the V values.
        atol = 16 * np.finfo(float).eps * float(np.abs(cert.drift_values(X)).max())
        np.testing.assert_allclose(sliced[0], whole[0], rtol=0, atol=atol)
        np.testing.assert_allclose(sliced[1], whole[1], rtol=0, atol=atol)

    def test_row_i_draws_from_stream_i(self):
        # Reference: the antithetic estimator of row i written out with the
        # noise of stream (seed, i) drawn by hand.
        system, _, cert = _wide_quadratic_case()
        X = _sphere_points(4, 5, 2.0, np.random.default_rng(3))
        est, hw = mc_drift(system, cert.drift_values, X, samples=1000, seed=9)
        for i, x in enumerate(X):
            W = reference_noise_draw(system.noise, trajectory_rngs(9, [i])[0], 500)
            ax = system.A @ x
            pair = 0.5 * (cert.drift_values(ax + W) + cert.drift_values(ax - W))
            diffs = pair - cert.drift_values(x)[0]
            assert est[i] == pytest.approx(diffs.mean(), rel=1e-12, abs=1e-12)
            assert hw[i] == pytest.approx(3.0 * diffs.std(ddof=1) / np.sqrt(500), rel=1e-9)

    def test_single_state_bits_pinned(self):
        out = []
        for system, V, x, samples, seed in _single_state_cases():
            (mean,), (hw,) = mc_drift(system, V, x, samples=samples, seed=seed)
            out.append([float(mean), float(hw)])
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == PINNED_SINGLE_STATE_DIGEST

    def test_drift_expectation_picks_the_estimator(self, rotation_system, unit_ball_2d):
        cert = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        X = _sphere_points(2, 8, 20.0, np.random.default_rng(1))
        got = drift_expectation(rotation_system, cert.drift_values, X, 1000, 5)
        want = cubature_drift(rotation_system, cert.drift_values, X, CUBATURE_ORDERS[2])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        system, _, wide = _wide_quadratic_case()
        X = _sphere_points(4, 8, 2.0, np.random.default_rng(1))
        got = drift_expectation(system, wide.drift_values, X, 1000, 5)
        want = mc_drift(system, wide.drift_values, X, samples=1000, seed=5)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_composite_with_four_noise_dimensions(self):
        # rotation(pi/4) (+) diag(0.5, 0.3): the unit part's scan and the
        # drift report both estimate by Monte Carlo (m = 4).
        A = np.zeros((4, 4))
        A[:2, :2] = rotation_matrix(np.pi / 4)
        A[2:, 2:] = np.diag([0.5, 0.3])
        system = LinearSystem(A=A, B=np.eye(4), noise=NoiseModel.uniform([1.0] * 4))
        cert = synthesize_composite(system, TargetBall(center=np.zeros(4), radius=1.0), seed=0)
        assert cert.unit_cert.compact_radius_star == 2.0 * math.e
        r = cert.compact_radius
        plan = ShellPlan(radii=(r, 2.0 * r), points_per_shell=8, noise_samples=2000, seed=1)
        report = verify_drift(system, cert, plan=plan)
        assert (report.method, report.rule_orders) == ("monte-carlo", ())
        assert len(report.shell_worst) == 2


class TestVerifyDrift:
    def test_quadratic_exact_pass(self, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        report = verify_drift(stable_2d, cert)
        assert report.exact
        assert report.passed
        assert not report.violations

    def test_violation_detected(self, unit_ball_1d):
        # Identity Q on the random walk: drift is +E[w^2] = 1/3 > 0 everywhere.
        rw = LinearSystem(A=[[1.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
        bad = QuadraticCertificate(
            Q=np.eye(1),
            compact_radius_sq=1.0,
            r0=0.99,
            variant_b=0.25,
            delta=0.01,
        )
        report = verify_drift(rw, bad, plan=ShellPlan(radii=(2.0, 4.0), points_per_shell=8))
        assert not report.passed
        assert report.violations

    def test_radius_inside_compact_rejected(self, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        with pytest.raises(ValueError):
            verify_drift(stable_2d, cert, plan=ShellPlan(radii=(cert.compact_radius / 2,)))

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"radii": ()}, "radii"),
            ({"radii": (2.0, 0.0)}, "radii"),
            ({"radii": (-1.0,)}, "radii"),
            ({"radii": (2.0, np.inf)}, "radii"),
            ({"radii": (np.nan,)}, "radii"),
            ({"radii": (2.0,), "points_per_shell": 0}, "points_per_shell"),
            ({"radii": (2.0,), "points_per_shell": -3}, "points_per_shell"),
        ],
    )
    def test_plan_that_checks_nothing_rejected(self, fields, name):
        # No shell (which passed with nothing checked) and no point per
        # shell (argmax of an empty array) are errors that name the field.
        with pytest.raises(ValueError, match=name):
            ShellPlan(**fields)

    def test_report_deterministic(self, rotation_system, unit_ball_2d):
        cert = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        plan = ShellPlan(radii=(8.0, 16.0), points_per_shell=8, noise_samples=2000, seed=4)
        a = json.dumps(verify_drift(rotation_system, cert, plan=plan).to_dict(), sort_keys=True)
        b = json.dumps(verify_drift(rotation_system, cert, plan=plan).to_dict(), sort_keys=True)
        assert a == b


class TestVerifyVariant:
    def test_quadratic_pass(self, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        report = verify_variant(stable_2d, cert, unit_ball_2d, samples=5000, seed=0)
        assert report.passed
        assert report.inclusion_violations == 0
        for lv in report.levels:
            assert lv.epsilon_hat - lv.epsilon_half_width > 0.0
            assert lv.h_violations == 0

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_must_be_positive(self, stable_2d, unit_ball_2d, samples):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        with pytest.raises(ValueError, match="samples"):
            verify_variant(stable_2d, cert, unit_ball_2d, samples=samples)

    @pytest.mark.parametrize("value", ["0", "many"])
    def test_bad_thread_count_is_refused(self, stable_2d, unit_ball_2d, value, monkeypatch):
        # Inline checks too read REACHCERT_THREADS, as every ensemble call does.
        monkeypatch.setenv("REACHCERT_THREADS", value)
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        with pytest.raises(ValueError, match="REACHCERT_THREADS must be a positive integer"):
            verify_variant(stable_2d, cert, unit_ball_2d, samples=100)

    def test_inclusion_violation_detected(self, random_walk):
        # U = |x| - 3 has {U <= 0} = [-3, 3], not inside the unit ball.
        cert = CustomCertificate(
            drift=lambda X: np.abs(np.atleast_2d(X)[:, 0]),
            variant=lambda X: np.abs(np.atleast_2d(X)[:, 0]) - 3.0,
            h=lambda r: r - 3.0,
            delta=0.5,
            compact_radius=3.0,
            level_radius=lambda r: r,
            levels=(5.0,),
        )
        report = verify_variant(
            random_walk, cert, TargetBall(center=[0.0], radius=1.0), samples=2000, seed=0
        )
        assert report.inclusion_violations > 0
        assert not report.passed

    def test_callable_target_region(self, random_walk):
        cert = CustomCertificate(
            drift=lambda X: np.abs(np.atleast_2d(X)[:, 0]),
            variant=lambda X: np.abs(np.atleast_2d(X)[:, 0]) - 1.0,
            h=lambda r: r - 1.0,
            delta=0.5,
            compact_radius=1.0,
            level_radius=lambda r: r,
            levels=(3.0,),
        )
        inside = verify_variant(
            random_walk, cert, lambda X: np.abs(X[:, 0]) < 2.0, samples=2000, seed=0
        )
        assert inside.inclusion_violations == 0
        outside = verify_variant(
            random_walk, cert, lambda X: np.abs(X[:, 0]) < 0.5, samples=2000, seed=0
        )
        assert outside.inclusion_violations > 0

    @pytest.mark.parametrize(
        "ball",
        [
            TargetBall(center=[0.0, 0.0], radius=1.0),
            TargetBall(center=[0.0, 0.0], radius=0.5),
            TargetBall(center=[0.3, -0.2], radius=0.9, weight=[[2.0, 0.3], [0.3, 1.0]]),
        ],
        ids=["unit", "small", "offset-weighted"],
    )
    def test_callable_ball_matches_the_ball(self, stable_2d, unit_ball_2d, ball):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        want = verify_variant(stable_2d, cert, ball, samples=2000, seed=2).to_dict()
        assert verify_variant(stable_2d, cert, ball_mask(ball), samples=2000, seed=2).to_dict() == want

    def test_empty_region_reported(self, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        # Level far below b: {V <= r, U > 0} is empty.
        with pytest.raises(ValueError):
            verify_variant(
                stable_2d, cert, unit_ball_2d, levels=[cert.variant_b * 0.5], samples=500, seed=0
            )


# ---------------------------------------------------------------------------
# Batched zero-crossing bisection against the scalar loop it replaced
# ---------------------------------------------------------------------------

def _zero_crossing_scalar(certificate, direction, t_max=1e9):
    """Reference: bisection for U(t * direction) = 0, one ray, one point per call."""
    u0 = float(np.asarray(certificate.variant_values(np.zeros((1, len(direction)))))[0])
    if u0 >= 0.0:
        return None
    lo, hi = 0.0, 1.0
    while hi < t_max:
        u = float(np.asarray(certificate.variant_values((hi * direction).reshape(1, -1)))[0])
        if u > 0.0:
            break
        lo, hi = hi, hi * 2.0
    else:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        u = float(np.asarray(certificate.variant_values((mid * direction).reshape(1, -1)))[0])
        if u > 0.0:
            hi = mid
        else:
            lo = mid
    return lo * direction


def _member_point(target, x):
    """Reference membership of one point: sqrt(d'Wd) < R for a ball, or
    the callable's mask of x as a one-row array."""
    if callable(target):
        return bool(target(x[None])[0])
    d = x - target.center
    q = d @ d if target.weight is None else d @ target.weight @ d
    return math.sqrt(q) < target.radius


def _check_inclusion_scalar(certificate, target, n, count, rng, positive_quadrant):
    """Reference: the per-ray inclusion count."""
    bad = 0
    dirs = _sphere_points(n, count, 1.0, rng)
    if positive_quadrant:
        dirs = np.abs(dirs)
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    for d in dirs:
        x = _zero_crossing_scalar(certificate, d)
        if x is not None and not _member_point(target, x):
            bad += 1
    return bad


def _unit_box(X):
    return np.all((X > 0.0) & (X < 1.0), axis=1)


def _custom_variant(variant):
    return CustomCertificate(
        drift=lambda X: np.abs(np.atleast_2d(X)[:, 0]),
        variant=variant,
        h=lambda r: r,
        delta=0.5,
        compact_radius=1.0,
        level_radius=lambda r: r,
    )


class TestBatchedBisection:
    def _assert_same(self, cert, target, n, positive_quadrant=False, seed=3):
        dirs = _sphere_points(n, 64, 1.0, np.random.default_rng(seed))
        if positive_quadrant:
            dirs = np.abs(dirs)
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scalar = [_zero_crossing_scalar(cert, d) for d in dirs]
        expected = np.array([x for x in scalar if x is not None]).reshape(-1, n)
        assert np.array_equal(_zero_crossings(cert, dirs), expected)
        want = _check_inclusion_scalar(cert, target, n, 256, np.random.default_rng(seed), positive_quadrant)
        got = _check_inclusion(cert, target, n, 256, np.random.default_rng(seed), positive_quadrant)
        assert got == want
        return expected, got

    def test_quadratic(self, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        points, bad = self._assert_same(cert, unit_ball_2d, 2)
        assert len(points) == 64 and bad == 0
        # A target smaller than {U <= 0} is violated on every ray.
        small = TargetBall(center=[0.0, 0.0], radius=0.5)
        assert self._assert_same(cert, small, 2)[1] == 256

    def test_logarithmic(self, rotation_system, unit_ball_2d):
        cert = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        points, bad = self._assert_same(cert, unit_ball_2d, 2)
        assert len(points) == 64 and bad == 0

    @pytest.mark.parametrize("offset, violated", [(0.5, False), (2.0, True)])
    def test_example1_custom_on_callable_box(self, offset, violated):
        cert = cx.example1_log_certificate(variant_offset=offset)
        _, bad = self._assert_same(cert, _unit_box, 2, positive_quadrant=True)
        assert (bad > 0) == violated

    def test_rays_that_never_cross(self, unit_ball_2d):
        # U = x1^2 - 1 stays at -1 along the x2 axis, so that ray never
        # crosses before t_max; the others do.
        cert = _custom_variant(lambda X: np.atleast_2d(X)[:, 0] ** 2 - 1.0)
        dirs = np.array([[0.0, 1.0], [1.0, 0.0], [0.6, 0.8], [0.0, -1.0]])
        expected = np.array([_zero_crossing_scalar(cert, d) for d in dirs[1:3]])
        assert np.array_equal(_zero_crossings(cert, dirs), expected)
        self._assert_same(cert, unit_ball_2d, 2)

    def test_nonnegative_at_origin_gives_no_points(self, unit_ball_2d):
        cert = _custom_variant(lambda X: np.einsum("ij,ij->i", X, X) + 1.0)
        dirs = _sphere_points(2, 16, 1.0, np.random.default_rng(0))
        assert _zero_crossings(cert, dirs).shape == (0, 2)
        assert self._assert_same(cert, unit_ball_2d, 2)[1] == 0


# ---------------------------------------------------------------------------
# Cubature against Monte Carlo
# ---------------------------------------------------------------------------

def _walk_log_case():
    walk = LinearSystem(A=[[1.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
    cert = synthesize_logarithmic(walk, TargetBall(center=[0.0], radius=1.0), seed=0)
    return walk, cert, False


def _rotation_log_case(noise):
    system = LinearSystem(A=rotation_matrix(np.pi / 3), B=np.eye(2), noise=noise)
    cert = synthesize_logarithmic(system, TargetBall(center=[0.0, 0.0], radius=1.0), seed=0)
    return system, cert, False


def _example1_case():
    return cx.example1_system(), cx.example1_log_certificate(), True


class TestCubatureDrift:
    def test_same_verdicts_and_inside_mc_intervals(self):
        cases = [
            _walk_log_case(),
            _rotation_log_case(NoiseModel.uniform([1.0, 1.0])),
            _rotation_log_case(NoiseModel.gaussian(0.8 * np.eye(2))),
            _example1_case(),
        ]
        total = inside = 0
        for k, (system, cert, quadrant) in enumerate(cases):
            rng = np.random.default_rng(11)
            for j, radius in enumerate(cert.compact_radius * 2.0 ** np.arange(5)):
                pts = _sphere_points(system.dimension, 16, radius, rng)
                if quadrant:
                    pts = np.abs(pts)
                est, err = cubature_drift(
                    system, cert.drift_values, pts, CUBATURE_ORDERS[system.noise_dimension]
                )
                tols = 1e-9 * (1.0 + np.abs(cert.drift_values(pts)))
                for i, x in enumerate(pts):
                    # One stream per point, as in verify_drift: a shared
                    # seed would make the Monte Carlo misses correlated.
                    seed = 7919 * (5 * k + j) + i
                    (mean,), (hw,) = mc_drift(system, cert.drift_values, x, samples=10_000, seed=seed)
                    assert (est[i] - err[i] > tols[i]) == (mean - hw > tols[i])
                    total += 1
                    inside += abs(est[i] - mean) <= hw
        assert total == 320
        assert inside >= 0.99 * total

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rule_weights_equal_scipy_block_diag(self, dim):
        # Both rules are weighed in one (K, 2) product whose weights are
        # built in numpy: the estimates must equal those of the
        # scipy.linalg.block_diag weights bit for bit.
        system = LinearSystem(A=np.eye(dim), B=np.eye(dim), noise=NoiseModel.uniform([1.0, 0.5, 2.0][:dim]))
        V = lambda Y: np.log1p(np.einsum("ij,ij->i", Y, Y))
        X = np.random.default_rng(3).standard_normal((5, dim)) * 4.0
        orders = CUBATURE_ORDERS[dim]
        (nodes_hi, w_hi), (nodes_lo, w_lo) = (system.noise.gauss_rule(order) for order in orders)
        nodes = np.concatenate([nodes_hi, nodes_lo])
        weights = scipy.linalg.block_diag(w_hi[:, None], w_lo[:, None])
        succ = step_batch(system, np.repeat(X, len(nodes), axis=0), np.tile(nodes, (len(X), 1)))
        means = (V(succ).reshape(len(X), len(nodes)) - V(X)[:, None]) @ weights
        est, err = cubature_drift(system, V, X, orders)
        assert est.tobytes() == means[:, 0].tobytes()
        assert err.tobytes() == np.abs(means[:, 0] - means[:, 1]).tobytes()

    def test_exact_on_polynomial_integrands(self, stable_2d):
        # V quadratic on a linear system: the rule reproduces the exact
        # expectation to rounding, and both orders agree.
        Q = np.array([[2.0, 0.3], [0.3, 1.0]])
        X = np.array([[3.0, -1.0], [0.5, 2.0]])
        est, err = cubature_drift(stable_2d, lambda Y: quadratic_form(np.atleast_2d(Y), Q), X, (8, 4))
        exact = exact_quadratic_drift(stable_2d, Q, X)
        assert est == pytest.approx(exact, rel=1e-12)
        assert np.all(err < 1e-12)

    def test_gaussian_second_moment(self):
        cov = np.array([[1.0, 0.4, 0.0], [0.4, 2.0, 0.3], [0.0, 0.3, 0.5]])
        system = LinearSystem(A=np.eye(3), B=np.eye(3), noise=NoiseModel.gaussian(cov))
        est, _ = cubature_drift(system, lambda Y: np.einsum("ij,ij->i", Y, Y), np.zeros((1, 3)), (8, 4))
        assert est[0] == pytest.approx(np.trace(cov), rel=1e-12)

    def test_row_slices_do_not_change_results(self, rotation_system, unit_ball_2d, monkeypatch):
        cert = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        pts = _sphere_points(2, 40, 3.0 * cert.compact_radius, np.random.default_rng(5))
        whole = cubature_drift(rotation_system, cert.drift_values, pts, (16, 8))
        monkeypatch.setattr("reachcert.verify.CUBATURE_ROWS", 1000)  # 3 points per slice
        sliced = cubature_drift(rotation_system, cert.drift_values, pts, (16, 8))
        # BLAS may sum a different number of rows in another order, so the
        # results agree to rounding of the V values, not bit for bit.
        atol = 16 * np.finfo(float).eps * float(np.abs(cert.drift_values(pts)).max())
        np.testing.assert_allclose(sliced[0], whole[0], rtol=0, atol=atol)
        np.testing.assert_allclose(sliced[1], whole[1], rtol=0, atol=atol)

    def test_report_names_its_method(self, stable_2d, rotation_system, unit_ball_2d):
        quad = verify_drift(stable_2d, synthesize_quadratic(stable_2d, unit_ball_2d)).to_dict()
        assert (quad["method"], quad["rule_orders"]) == ("exact", None)
        log = verify_drift(rotation_system, synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0))
        assert (log.to_dict()["method"], log.to_dict()["rule_orders"]) == ("cubature", [16, 8])
        assert log.passed
        wide = LinearSystem(A=0.5 * np.eye(4), B=np.eye(4), noise=NoiseModel.uniform([1.0] * 4))
        cert = CustomCertificate(
            drift=lambda X: np.einsum("ij,ij->i", X, X),
            variant=lambda X: np.einsum("ij,ij->i", X, X) - 0.5,
            h=lambda r: r,
            delta=0.1,
            compact_radius=2.0,
            level_radius=math.sqrt,
        )
        plan = ShellPlan(radii=(2.0, 4.0), points_per_shell=4, noise_samples=1000)
        mc = verify_drift(wide, cert, plan=plan).to_dict()
        assert (mc["method"], mc["rule_orders"]) == ("monte-carlo", None)


# ---------------------------------------------------------------------------
# Exact sampling of level sets
# ---------------------------------------------------------------------------

def _mixed_composite():
    """The composite candidate for rotation(pi/4) (+) 0.5 and the unit ball."""
    A = np.zeros((3, 3))
    A[:2, :2] = rotation_matrix(np.pi / 4)
    A[2, 2] = 0.5
    system = LinearSystem(A=A, B=np.eye(3), noise=NoiseModel.uniform([1.0] * 3))
    return synthesize_composite(system, TargetBall(center=np.zeros(3), radius=1.0), seed=0)


def _box_rejection(cert, level, count, rng):
    """Reference: rejection from a Euclidean box bounding the composite's
    {V <= level}, a sampler independent of the cylinder.  Returns the
    samples and the box's acceptance rate."""
    lam_u = float(np.linalg.eigvalsh(cert.unit_cert.Q_star).min())
    lam_s = float(np.linalg.eigvalsh(cert.stable_cert.Q).min())
    radius = math.hypot(math.exp(level * level) / math.sqrt(lam_u), math.sqrt(level / lam_s))
    bound = float(np.linalg.norm(cert.transform, 2)) * radius
    kept, tried = [], 0
    while sum(len(k) for k in kept) < count:
        pts = rng.uniform(-bound, bound, size=(100_000, cert.transform.shape[0]))
        tried += len(pts)
        kept.append(pts[(cert.drift_values(pts) <= level) & (cert.variant_values(pts) > 0.0)])
    return np.concatenate(kept)[:count], sum(len(k) for k in kept) / tried


class TestExactLevelSampler:
    @pytest.mark.parametrize(
        "kind, n",
        [pytest.param("quadratic", n, id=str(n)) for n in (2, 5, 20)]
        + [pytest.param("logarithmic", n, id=f"log-{n}") for n in (1, 2)],
    )
    def test_uniform_on_the_ellipsoidal_shell(self, kind, n):
        rng = np.random.default_rng(n)
        target = TargetBall(center=np.zeros(n), radius=1.0)
        if kind == "quadratic":
            system = LinearSystem(A=random_stable_matrix(n, rng, rho=0.7), B=np.eye(n), noise=NoiseModel.uniform([1.0] * n))
            cert = synthesize_quadratic(system, target)
            form, r = cert.Q, 4.0 * cert.variant_b
            top = r
        else:
            A = np.eye(1) if n == 1 else rotation_matrix(np.pi / 3)
            system = LinearSystem(A=A, B=np.eye(n), noise=NoiseModel.uniform([1.0] * n))
            cert = synthesize_logarithmic(system, target, seed=0)
            # {V <= r, U > 0} is the Q_star shell b < q <= exp(2 r^2).
            form, r = cert.Q_star, cert.default_levels()[0]
            top = math.exp(2.0 * r * r)
        b = cert.variant_b
        pts, _ = _sample_level_region(cert, n, r, 4000, rng)
        q = quadratic_form(pts, form)
        assert pts.shape == (4000, n)
        assert np.all((q > b) & (q <= top))
        # rho^n is uniform on (b^(n/2), top^(n/2)] under the uniform law.
        lo, hi = b ** (n / 2), top ** (n / 2)
        assert scipy.stats.kstest(q ** (n / 2), "uniform", args=(lo, hi - lo)).pvalue > 1e-3

    def test_composite_cylinder_matches_box_rejection(self):
        cert, level = _mixed_composite(), 1.6
        want, acceptance = _box_rejection(cert, level, 3000, np.random.default_rng(1))
        assert acceptance >= 0.005
        got, _ = _sample_level_region(cert, 3, level, 3000, np.random.default_rng(2))
        assert got.shape == (3000, 3)
        # The cylinder holds the whole region, so every box sample lies in it.
        y = want @ cert.transform_inv.T
        assert np.all(quadratic_form(y[:, :2], cert.unit_cert.Q_star) <= math.exp(2.0 * level * level))
        assert np.all(quadratic_form(y[:, 2:], cert.stable_cert.Q) <= level - 1.0)
        for stat in (cert.drift_values, cert.variant_values, lambda X: X[:, 2]):
            assert scipy.stats.ks_2samp(stat(got), stat(want)).pvalue > 1e-3

    def test_log_levels_below_one_rejected(self, rotation_system, unit_ball_2d):
        # V >= 1 everywhere for the logarithmic drift and its composite.
        log = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        for cert, n in ((log, 2), (_mixed_composite(), 3)):
            with pytest.raises(ValueError, match="level 0.9 is below 1"):
                _sample_level_region(cert, n, 0.9, 10, np.random.default_rng(0))

    def test_empty_shell_rejected(self, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        with pytest.raises(ValueError, match="empty"):
            _sample_level_region(cert, 2, cert.variant_b, 10, np.random.default_rng(0))

    def test_verify_stable_20_completes(self, tmp_path):
        # Rejection from the bounding box accepted almost nothing at n = 20,
        # so verify used to exit 2 (usage error) on this stable system.
        n = 20
        A = random_stable_matrix(n, np.random.default_rng(20), rho=0.7)
        spec = {
            "A": A.tolist(),
            "B": np.eye(n).tolist(),
            "noise": {"kind": "uniform-box", "half_widths": [1.0] * n},
            "target": {"center": [0.0] * n, "radius": 1.0, "norm": "euclidean"},
        }
        path = tmp_path / "stable20.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(["certify", "--system", str(path), "--out", str(out)]) == 0
        code = run(
            ["verify", "--system", str(path), "--certificate", str(out / "certificate.json"), "--out", str(out)]
        )
        assert code in (0, 1)
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] == (code == 0)
        assert report["drift"]["method"] == "exact"
        assert all(lv["samples"] == 20_000 for lv in report["variant"]["levels"])


def _level_region_case(kind):
    """(certificate, n, level) whose level region takes several proposal rounds
    or, for the ellipsoidal shells, one large round."""
    rng = np.random.default_rng(11)
    if kind in ("quadratic-2", "quadratic-3"):
        n = int(kind[-1])
        system = LinearSystem(A=random_stable_matrix(n, rng, rho=0.7), B=np.eye(n), noise=NoiseModel.uniform([1.0] * n))
        cert = synthesize_quadratic(system, TargetBall(center=np.zeros(n), radius=1.0))
        return cert, n, 4.0 * cert.variant_b
    if kind == "logarithmic":
        system = LinearSystem(A=rotation_matrix(np.pi / 4), B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0]))
        cert = synthesize_logarithmic(system, TargetBall(center=np.zeros(2), radius=1.0), seed=0)
        return cert, 2, cert.default_levels()[0]
    if kind == "composite":
        return _mixed_composite(), 3, 1.6
    return cx.example1_log_certificate(), 2, 4.0


@pytest.mark.parametrize("kind", ["quadratic-2", "quadratic-3", "logarithmic", "composite", "custom"])
def test_level_region_hands_back_the_variant_values(kind):
    """The U that accepted each point is variant_values at that point, bit
    for bit, whether it was derived from V (quadratic) or evaluated."""
    cert, n, level = _level_region_case(kind)
    pts, u = _sample_level_region(cert, n, level, 3000, np.random.default_rng(7))
    assert pts.shape == (3000, n)
    assert u.tobytes() == np.asarray(cert.variant_values(pts)).tobytes()


def _sparse_box_certificate(variant):
    """1-D custom certificate V = |x| whose box [-1e4 r, 1e4 r] is about 1e4
    times wider than {V <= r}."""
    return CustomCertificate(
        drift=lambda X: np.abs(np.atleast_2d(X)[:, 0]),
        variant=variant,
        h=lambda r: r,
        delta=0.5,
        compact_radius=1.0,
        level_radius=lambda r: 1e4 * r,
    )


class TestRejectionAbort:
    def test_sparse_box_still_samples(self):
        # Accepts about 1e-4 of its draws: slow, but far above the 1e-6
        # floor, so it must not abort after the first zero-acceptance rounds.
        cert = _sparse_box_certificate(lambda X: np.abs(np.atleast_2d(X)[:, 0]))
        pts, _ = _sample_level_region(cert, 1, 1.0, 50, np.random.default_rng(4))
        assert pts.shape == (50, 1)
        assert np.all(np.abs(pts) <= 1.0)

    def test_empty_region_raises_naming_the_level(self):
        cert = _sparse_box_certificate(lambda X: -np.ones(len(np.atleast_2d(X))))
        with pytest.raises(ValueError, match=r"at level 2\.5 \(0 of \d+ proposals accepted\)"):
            _sample_level_region(cert, 1, 2.5, 10, np.random.default_rng(0))


# sha256 of verify_variant(...).to_dict() (sorted-key JSON), seed=5, with
# samples=2000 on the 2-D and 1-D cases and verify's default of 20,000 on
# stable-40: the seeded level-set draws of the quadratic shell and of the
# custom box, one stream per piece of a level, are part of every report's
# bits and must not move.  Stable-40 fails its check, no level's estimate
# being positive, so its report holds only zero counts and its digest pins
# that verdict, not the draws; test_reports_do_not_depend_on_the_thread_count
# checks n = 40 at levels with positive estimates.
PINNED_VARIANT_DIGESTS = {
    "quadratic": "2c47e9b1fc1e508c3848e153235bc16c5b6166b7815bce5e157502b071f97f65",
    "example1": "9f7dc6a27befa93fa0b25aadce3b856f8d10c2b7a4444b761b0473a5a35eb3f4",
    "walk-abs": "4fe76a9f71fb02f4275da520ab55cbc65c98cbca0c87f379878a5a0aeadf4ad6",
    "stable-40": "45268a1c28912cac130b2bf3871822ae6c750ddde2d026c66dde376e9c2e1d44",
}


def _stable_40():
    """(system, quadratic certificate, unit ball) of a stable n = 40 system with B = I."""
    n = 40
    A = random_stable_matrix(n, np.random.default_rng(40), rho=0.7)
    system = LinearSystem(A=A, B=np.eye(n), noise=NoiseModel.uniform([1.0] * n))
    target = TargetBall(center=np.zeros(n), radius=1.0)
    return system, synthesize_quadratic(system, target), target


@pytest.mark.parametrize("case", PINNED_VARIANT_DIGESTS)
def test_level_draws_keep_their_bits(case, stable_2d, unit_ball_2d):
    samples = 2000
    if case == "quadratic":
        args = (stable_2d, synthesize_quadratic(stable_2d, unit_ball_2d), unit_ball_2d)
    elif case == "example1":
        args = (cx.example1_system(), cx.example1_log_certificate(), _unit_box)
    elif case == "walk-abs":
        args = (cx.random_walk_system(), cx.abs_certificate(), TargetBall(center=[0.0], radius=2.0))
    else:
        args, samples = _stable_40(), 20_000
    report = verify_variant(*args, samples=samples, seed=5).to_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_VARIANT_DIGESTS[case]


def _use_threads(monkeypatch, threads):
    """REACHCERT_THREADS = threads on a host of at least that many CPUs;
    returns the list of the worker counts of the thread pools started."""
    monkeypatch.setenv("REACHCERT_THREADS", str(threads))
    monkeypatch.setattr(verify_module, "_cpus", lambda: threads)
    pools = []

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    return pools


@pytest.mark.parametrize("n", [2, 40])
def test_reports_do_not_depend_on_the_thread_count(n, stable_2d, unit_ball_2d, monkeypatch):
    """Reports are equal as sorted JSON on one and on two threads: inline at
    n = 2 (2,000 samples, below THREADED_CELLS) and on a thread pool at
    n = 40 (20,000 samples), at levels whose estimates lie strictly
    between 0 and 1, and at the certificate's own levels."""
    if n == 2:
        system, cert, target = stable_2d, synthesize_quadratic(stable_2d, unit_ball_2d), unit_ball_2d
        samples = 2000
    else:
        (system, cert, target), samples = _stable_40(), 20_000
    level_sets = [None, [32.0 * cert.variant_b, 128.0 * cert.variant_b]]
    reports = {}
    for threads in (1, 2):
        pools = _use_threads(monkeypatch, threads)
        reports[threads] = [
            json.dumps(verify_variant(system, cert, target, levels=levels, samples=samples, seed=3).to_dict(), sort_keys=True)
            for levels in level_sets
        ]
        assert pools == ([1, 1] if threads == 2 and n == 40 else [])
    assert reports[1] == reports[2]
    if n == 40:
        assert 0.0 < json.loads(reports[1][1])["levels"][0]["epsilon_hat"] < 1.0


def test_first_failed_piece_is_raised_on_threads(monkeypatch):
    """On threads as inline, the error of the first failed piece in piece
    order is raised, and no piece after the failed ones starts."""
    calls = []

    def run(job):
        calls.append(job)
        if job in (3, 5):
            raise ValueError(f"piece {job}")
        return job

    for threads in (1, 2):
        _use_threads(monkeypatch, threads)
        calls.clear()
        with pytest.raises(ValueError, match="piece 3"):
            verify_module._map_pieces(run, list(range(40)), verify_module.THREADED_CELLS)
        assert set(range(4)) <= set(calls) and max(calls) <= (3 if threads == 1 else 5)
        assert verify_module._map_pieces(lambda job: job, list(range(9)), verify_module.THREADED_CELLS) == list(range(9))


def test_pieces_on_many_threads_run_once_each(monkeypatch):
    """Eight workers on short switch intervals share one job iterator: every
    job runs once, and its result lands at its own index."""
    _use_threads(monkeypatch, 8)
    calls = []

    def run(job):
        calls.append(job)
        return -job

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            assert verify_module._map_pieces(run, list(range(500)), verify_module.THREADED_CELLS) == [-j for j in range(500)]
            assert sorted(calls) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


def test_variant_check_holds_one_level_at_a_time(monkeypatch):
    """The check of 20,000 points at n = 40 on two threads holds one piece's
    arrays per worker: its points, then its noise and the noise draw's tiled
    half-widths, then its successors and their products.  That is 3.0
    arrays of the largest piece's rows x n doubles on one thread and 6.0 on
    two, measured, against a bound of 3.5 per worker, which a level's
    points alone (20,000 rows, 8.8 such arrays) would pass."""
    samples, n, workers = 20_000, 40, 2
    rows = max(piece.stop - piece.start for piece in _pieces(samples, max(PIECE_ROWS, PIECE_CELLS // n)))
    args = _stable_40()
    assert _use_threads(monkeypatch, workers) == []
    tracemalloc.start()
    try:
        verify_variant(*args, samples=samples, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < workers * 3.5 * rows * n * 8


@pytest.mark.parametrize("rows", [1, 4095, 8191, 8192, 8255, 20_000, 20_001, 100_000])
def test_pieces_cover_the_rows_in_order(rows):
    pieces = _pieces(rows, PIECE_ROWS)
    assert len(pieces) == max(1, rows // PIECE_ROWS)
    assert [p.start for p in pieces] == [0] + [p.stop for p in pieces[:-1]] and pieces[-1].stop == rows
    assert all(p.start % ROW_ALIGN == 0 for p in pieces)
    assert len(pieces) == 1 or min(p.stop - p.start for p in pieces) >= PIECE_ROWS


def _reference_piece(system, cert, level, rows, rng):
    """One piece of a quadratic level written out on whole arrays, all drawn
    from ``rng``: uniform points of the shell {b < V <= level} (Gaussian
    directions scaled to a radius of density rho^(n-1), mapped by L^-1),
    then one noise vector per point.  Returns (successors, decreases of U
    by at least delta, H violations)."""
    n = system.dimension
    L_inv = np.linalg.inv(np.linalg.cholesky(cert.Q))
    t = (cert.variant_b / level) ** (0.5 * n)
    z = rng.standard_normal(size=(rows, n))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    z /= norms
    v = 1.0 - rng.random(rows)
    z *= np.sqrt(level * (t + v * (1.0 - t)) ** (2.0 / n))[:, None]
    pts = z @ L_inv
    V, U = cert.level_values(pts)
    assert np.all((V <= level) & (U > 0.0))  # the shell proposal is exact: no rejection round
    succ = explicit_step(system, pts, reference_noise_draw(system.noise, rng, rows))
    hits = int(np.sum(cert.variant_values(succ) - U <= -cert.delta))
    return succ, hits, int(np.sum(U > cert.h_bound(level) + 1e-12))


@pytest.mark.parametrize("samples", [4095, 8192, 20_000, 20_001])
@pytest.mark.parametrize("n", [2, 17, 20, 40])
@pytest.mark.parametrize("noise", ["uniform, B = I", "gaussian, dense B"])
def test_level_in_pieces_equals_whole_arrays(noise, n, samples, monkeypatch):
    """Every piece of a level equals a reference written here on whole
    arrays for that piece's stream, tagged_rng(seed, 0x7A21, level, piece):
    the last piece's successors bit for bit, and the level's counts.  CI
    runs it again on the Haswell and Sandybridge kernels
    (OPENBLAS_CORETYPE, on one BLAS thread)."""
    rng = np.random.default_rng(n)
    A = random_stable_matrix(n, rng, rho=0.7)
    if noise.startswith("uniform"):
        system = LinearSystem(A=A, B=np.eye(n), noise=NoiseModel.uniform([1.0] * n))
    else:
        system = LinearSystem(A=A, B=rng.standard_normal((n, n)), noise=NoiseModel.gaussian(np.eye(n) + 0.1))
    target = TargetBall(center=np.zeros(n), radius=1.0)
    cert = synthesize_quadratic(system, target)
    levels = [2.0 * cert.variant_b, 4.0 * cert.variant_b]
    pieces = _pieces(samples, max(PIECE_ROWS, PIECE_CELLS // n))
    assert sum(p.stop - p.start for p in pieces) == samples

    steps = []

    def recording_step(*args):
        steps.append(step_batch(*args))
        return steps[-1]

    monkeypatch.setattr("reachcert.verify.step_batch", recording_step)
    _use_threads(monkeypatch, 1)  # inline, so the steps are recorded in piece order
    report = verify_variant(system, cert, target, levels=levels, samples=samples, seed=5)
    assert len(steps) == len(levels) * len(pieces)

    hits = h_bad = 0
    for k, piece in enumerate(pieces):
        piece_rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0x7A21, 1, k)))
        succ, piece_hits, piece_h_bad = _reference_piece(system, cert, levels[1], piece.stop - piece.start, piece_rng)
        hits, h_bad = hits + piece_hits, h_bad + piece_h_bad
    assert steps[-1].tobytes() == succ.tobytes()
    assert _variant_piece(system, cert, levels[1], cert.delta, piece.stop - piece.start, tagged_rng(5, 0x7A21, 1, k)) == (
        piece_hits,
        piece_h_bad,
    )
    assert report.levels[1].epsilon_hat == hits / samples and report.levels[1].h_violations == h_bad
    assert report.levels[1].samples == samples


# ---------------------------------------------------------------------------
# Early stop of the zero-crossing bisection
# ---------------------------------------------------------------------------

def _zero_crossings_80(certificate, dirs, t_max=1e9):
    """Reference: the batched bisection with a fixed 80 halvings."""
    u0 = float(np.asarray(certificate.variant_values(np.zeros((1, dirs.shape[1]))))[0])
    if u0 >= 0.0:
        return dirs[:0]
    lo, hi = np.zeros(len(dirs)), np.ones(len(dirs))
    crossed = np.zeros(len(dirs), dtype=bool)
    doubling = np.arange(len(dirs))
    while doubling.size:
        up = np.asarray(certificate.variant_values(hi[doubling, None] * dirs[doubling])) > 0.0
        crossed[doubling[up]] = True
        doubling = doubling[~up]
        lo[doubling] = hi[doubling]
        hi[doubling] *= 2.0
        doubling = doubling[hi[doubling] < t_max]
    lo, hi, dirs = lo[crossed], hi[crossed], dirs[crossed]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        up = np.asarray(certificate.variant_values(mid[:, None] * dirs)) > 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return lo[:, None] * dirs


class _CountingCertificate:
    """A certificate's variant_values, counting the calls."""

    def __init__(self, certificate):
        self.certificate, self.calls = certificate, 0

    def variant_values(self, X):
        self.calls += 1
        return self.certificate.variant_values(X)


def _bisection_cases():
    rotation = LinearSystem(A=rotation_matrix(np.pi / 3), B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0]))
    walk = LinearSystem(A=[[1.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
    stable_2 = LinearSystem(A=[[0.5, 0.1], [0.0, 0.3]], B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0]))
    ball = lambda n: TargetBall(center=np.zeros(n), radius=1.0)  # noqa: E731
    return {
        "quadratic-2": (synthesize_quadratic(stable_2, ball(2)), 2, False),
        "quadratic-40": (_stable_40()[1], 40, False),
        "log-rotation": (synthesize_logarithmic(rotation, ball(2), seed=0), 2, False),
        "log-walk": (synthesize_logarithmic(walk, ball(1), seed=0), 1, False),
        "composite": (_mixed_composite(), 3, False),
        "custom-example1": (cx.example1_log_certificate(), 2, True),
        "custom-abs": (cx.abs_certificate(), 1, False),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "case", ["quadratic-2", "quadratic-40", "log-rotation", "log-walk", "composite", "custom-example1", "custom-abs"]
)
def test_bisection_stops_early_with_the_80_halving_result(case, seed):
    """_zero_crossings stops once a halving moves no ray's end, with the
    bits of a fixed 80 halvings, and in fewer halvings."""
    cert, n, positive_quadrant = _bisection_cases()[case]
    dirs = _sphere_points(n, INCLUSION_POINTS, 1.0, np.random.default_rng(seed))
    if positive_quadrant:
        dirs = np.abs(dirs)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    got, want = _CountingCertificate(cert), _CountingCertificate(cert)
    points = _zero_crossings(got, dirs)
    assert len(points) > 0
    assert points.tobytes() == _zero_crossings_80(want, dirs).tobytes()
    assert got.calls < want.calls
