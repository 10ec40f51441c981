"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Each criterion states its tolerance inline; thresholds
are asserted, not tuned.
"""

import json
import time

import numpy as np
import pytest

import reachcert as rc
from reachcert import counterexamples as cx
from reachcert.linalg import is_symmetric_positive_definite
from reachcert.verify import exact_quadratic_drift

from conftest import random_stable_matrix, rotation_matrix
from test_classify import regression_matrix


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"criterion {num}: {name} ({detail})"


def _random_family():
    rng = np.random.default_rng(424242)
    family = []
    for n in range(1, 7):
        for _ in range(100):
            family.append(random_stable_matrix(n, rng, rho=0.9))
    return family


def test_criterion_1_lyapunov_synthesis():
    start = time.monotonic()
    worst = 0.0
    for A in _random_family():
        n = A.shape[0]
        Q = rc.solve_discrete_lyapunov(A)
        resid = np.linalg.norm(A.T @ Q @ A - Q + np.eye(n))
        worst = max(worst, resid)
        assert resid <= 1e-9
        assert is_symmetric_positive_definite(Q)
    elapsed = time.monotonic() - start
    _line(
        1,
        "Lyapunov residual <= 1e-9 and Q > 0 on 600 random systems",
        elapsed < 5.0,
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_exact_quadratic_drift():
    rng = np.random.default_rng(7)
    violations = 0
    for A in _random_family():
        n = A.shape[0]
        system = rc.LinearSystem(A=A, B=np.eye(n), noise=rc.NoiseModel.uniform([1.0] * n))
        cert = rc.synthesize_quadratic(system, rc.TargetBall(center=np.zeros(n), radius=1.0))
        z = rng.standard_normal((1000, n))
        radii = cert.compact_radius * (1.0 + rng.uniform(0.01, 10.0, size=1000))
        pts = z / np.linalg.norm(z, axis=1, keepdims=True) * radii[:, None]
        drift = exact_quadratic_drift(system, cert.Q, pts)
        violations += int(np.sum(drift > 1e-10))
    _line(2, "closed-form drift <= 0 at 1000 shell points per system", violations == 0,
          f"{violations} violations")


def test_criterion_3_example2_exactness():
    for a, b, c in ((1.0, 0.0, 0.0), (2.0, -5.0, 7.0), (0.5, 3.0, -1.0)):
        assert cx.quadratic_drift_on_random_walk(a, b, c) == a / 3.0
    report = cx.example2_quadratic_failure(samples=100_000, seed=0, delta=0.5)
    eps_ok = all(
        abs(lv.epsilon_hat - 0.25) <= 0.03 for lv in report["abs_variant"].levels
    )
    ok = report["abs_drift"].passed and report["abs_variant"].passed and eps_ok
    _line(3, "random-walk quadratic failure exact; |x| certificate passes V1/V2",
          ok, f"eps_hat {[lv.epsilon_hat for lv in report['abs_variant'].levels]}")


def test_criterion_4_critical_recurrence():
    start = time.monotonic()
    rw = rc.LinearSystem(A=[[1.0]], B=[[1.0]], noise=rc.NoiseModel.uniform([1.0]))
    st1 = rc.hitting_stats(
        rw, rc.TargetBall(center=[0.0], radius=2.0), [10.0], 1000, 100_000, base_seed=7
    )
    t1 = time.monotonic() - start

    start = time.monotonic()
    rot = rc.LinearSystem(
        A=rotation_matrix(np.pi / 4), B=np.eye(2), noise=rc.NoiseModel.uniform([1.0, 1.0])
    )
    cert = rc.synthesize_logarithmic(rot, rc.TargetBall(center=[0.0, 0.0], radius=1.0), seed=0)
    # Unit-ball target scaled by the synthesized compact radius.
    target = rc.TargetBall(center=[0.0, 0.0], radius=cert.compact_radius)
    st2 = rc.hitting_stats(rot, target, [10.0 / np.sqrt(2.0)] * 2, 200, 1_000_000, base_seed=11)
    t2 = time.monotonic() - start

    ok = st1.hit_fraction >= 0.9 and st2.hit_fraction >= 0.8 and t1 < 120 and t2 < 120
    _line(4, "critical recurrence: 1D walk >= 0.9, rotation >= 0.8",
          ok, f"walk {st1.hit_fraction:.3f} ({t1:.0f}s), rotation {st2.hit_fraction:.3f} ({t2:.0f}s)")


def test_criterion_5_transience_3d():
    start = time.monotonic()
    sys3 = rc.LinearSystem(A=np.eye(3), B=np.eye(3), noise=rc.NoiseModel.uniform([1.0] * 3))
    ball = rc.TargetBall(center=[0.0] * 3, radius=1.0)
    fit = rc.decay_exponent(
        sys3, ball, k_grid=[2**j for j in range(4, 13)], n_traj=100_000, base_seed=21
    )
    st = rc.hitting_stats(sys3, ball, [10.0, 10.0, 10.0], 1000, 10_000, base_seed=22)
    elapsed = time.monotonic() - start
    ok = -1.9 <= fit.slope <= -1.1 and st.hit_fraction <= 0.2 and elapsed < 300
    _line(5, "3D transience: occupancy decay ~ k^(-3/2), low hit fraction",
          ok, f"slope {fit.slope:.3f}+-{fit.stderr:.3f}, hit {st.hit_fraction:.3f}, {elapsed:.0f}s")


def test_criterion_6_divergence():
    unstable = rc.LinearSystem(A=[[2.0]], B=[[1.0]], noise=rc.NoiseModel.uniform([1.0]))
    shear = rc.LinearSystem(
        A=[[1.0, 1.0], [0.0, 1.0]], B=np.eye(2), noise=rc.NoiseModel.uniform([1.0, 1.0])
    )
    st1 = rc.hitting_stats(
        unstable, rc.TargetBall(center=[0.0], radius=1.0), [10.0], 1000, 1000, base_seed=3
    )
    # The shear grows polynomially (~k^{3/2}), far below the default
    # threshold at horizon 1000; 500 is the calibrated escape radius.
    st2 = rc.hitting_stats(
        shear,
        rc.TargetBall(center=[0.0, 0.0], radius=1.0),
        [10.0, 10.0],
        1000,
        1000,
        base_seed=3,
        divergence_threshold=500.0,
    )
    v1 = rc.classify(unstable, rc.TargetBall(center=[0.0], radius=1.0)).outcome
    v2 = rc.classify(shear, rc.TargetBall(center=[0.0, 0.0], radius=1.0)).outcome
    ok = (
        st1.divergence_fraction >= 0.95
        and st2.divergence_fraction >= 0.95
        and v1 == rc.Outcome.NOT_REACHABLE_UNSTABLE
        and v2 == rc.Outcome.NOT_REACHABLE_JORDAN
    )
    _line(6, "divergence >= 0.95 for unstable and Jordan systems",
          ok, f"unstable {st1.divergence_fraction:.3f}, shear {st2.divergence_fraction:.3f}")


def test_criterion_7_example1():
    # Closed form vs simulation.
    rng = np.random.default_rng(31)
    agree = True
    for i in range(1, 11):
        inst = cx.Example1Instance(i=i, u=2.0)
        w = rng.uniform(-1.0, 1.0, size=i)
        cf, _ = cx.example1_closed_form(inst, w)
        sim, _ = cx.example1_simulate_log2(inst, w)
        agree = agree and np.max(np.abs(cf - sim)) <= 1e-8

    # Bounds on 1e5 sampled sequences per (i, u).
    bounds_ok = True
    for i in (3, 4, 5):
        for u in (1.0, 2.0):
            frac, _ = cx.example1_bounds_hold(cx.Example1Instance(i=i, u=u), 100_000, seed=0)
            bounds_ok = bounds_ok and frac == 1.0

    # The log certificate passes the drift check on scanned shells.
    drift, _ = cx.example1_verify_log_certificate(samples=5000, seed=0)

    # Refutation family: degree <= 4, integer coefficients in [-2, 2],
    # leading xi-coefficient along eta = u normalized positive (genuine
    # radial unboundedness); witness <= 30 for all.
    u = 2.0
    indices = [(l, j) for l in range(5) for j in range(5) if l + j <= 4]
    rng = np.random.default_rng(2718)
    refute_ok = True
    tested = 0
    for _ in range(300):
        coeffs = {
            idx: int(c)
            for idx, c in zip(indices, rng.integers(-2, 3, size=len(indices)))
            if c != 0
        }
        lead_l = None
        for l in range(4, 0, -1):
            q = sum(a * u**j for (ll, j), a in coeffs.items() if ll == l)
            if q != 0:
                lead_l = l
                if q < 0:
                    for idx in list(coeffs):
                        if idx[0] == l:
                            coeffs[idx] = -coeffs[idx]
                break
        if lead_l is None:
            continue
        witness = cx.refute_polynomial_drift(cx.PolyCandidate(4, coeffs), u=u, i_max=30)
        refute_ok = refute_ok and witness is not None
        tested += 1

    ok = agree and bounds_ok and drift.passed and refute_ok and tested >= 250
    _line(7, "polynomial counterexample: closed form, bounds, log drift, refutation",
          ok, f"{tested} candidates refuted")


def test_criterion_8_regression_matrix():
    ok = True
    detail = []
    for name, system, outcome, advice in regression_matrix():
        target = rc.TargetBall(center=np.zeros(system.dimension), radius=1.0)
        a = rc.classify(system, target)
        b = rc.classify(system, target)
        stable = json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
        good = a.outcome == outcome and a.certificate_advice == advice and stable
        ok = ok and good
        if not good:
            detail.append(f"{name}: got {a.outcome}")
    _line(8, "nine-system classifier regression matrix, byte-stable", ok, "; ".join(detail))


def test_criterion_9_degenerate_noise():
    degB = rc.LinearSystem(A=np.eye(2), B=[[1.0], [1.0]], noise=rc.NoiseModel.uniform([1.0]))
    st = rc.hitting_stats(
        degB, rc.TargetBall(center=[0.0, 0.0], radius=1.0), [0.0, 10.0], 1000, 100_000, base_seed=5
    )

    deg_noise = rc.LinearSystem(
        A=np.eye(3), B=np.diag([1.0, 1.0, 0.0]), noise=rc.NoiseModel.uniform([1.0] * 3)
    )
    traj = rc.simulate(deg_noise, [1.0, 2.0, 3.0], 10_000, base_seed=0)
    constant_third = np.all(traj.states[:, 2] == 3.0)

    ok = st.hit_fraction == 0.0 and constant_third
    _line(9, "degenerate-B: never hits from the orthogonal offset; dead coordinate frozen",
          ok, f"hit {st.hit_fraction}, third coordinate constant {bool(constant_third)}")
