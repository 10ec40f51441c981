import itertools
import math

import numpy as np
import pytest

from reachcert.counterexamples import (
    Example1Instance,
    PolyCandidate,
    abs_certificate,
    example1_bounds_hold,
    example1_closed_form,
    example1_log_certificate,
    example1_scan_compact_radius,
    example1_simulate_log2,
    example1_system,
    example1_verify_log_certificate,
    example2_quadratic_failure,
    quadratic_drift_on_random_walk,
    random_walk_system,
    refute_polynomial_drift,
)
from reachcert.ensembles import hitting_stats
from reachcert.systems import TargetBall, step_batch


class TestExample1System:
    def test_step_example(self):
        (x,) = step_batch(example1_system(), [[2.0, 2.0]], [[0.0]])
        assert np.allclose(x, [3.0, 1.0])

    def test_eta_zero_halves_xi(self):
        (x,) = step_batch(example1_system(), [[8.0, 0.0]], [[0.0]])
        assert np.allclose(x, [4.0, 0.0])

    def test_eta_decoupled_halving(self):
        system = example1_system()
        x = np.array([1.0, 5.0])
        for k in range(6):
            assert x[1] == pytest.approx(5.0 / 2.0**k, abs=0.0)
            (x,) = step_batch(system, [x], [[0.3]])


class TestClosedForm:
    def test_matches_simulation(self):
        rng = np.random.default_rng(17)
        for i in (1, 3, 5, 8, 10):
            inst = Example1Instance(i=i, u=2.0)
            w = rng.uniform(-1.0, 1.0, size=i)
            cf_xi, cf_eta = example1_closed_form(inst, w)
            sim_xi, sim_eta = example1_simulate_log2(inst, w)
            assert np.max(np.abs(cf_xi - sim_xi)) <= 1e-8
            assert np.max(np.abs(cf_eta - sim_eta)) <= 1e-8

    def test_simulation_is_the_one_step_loop(self):
        # One advance call over the noise gives the bits of stepping one
        # state at a time, and too few noise values are refused.
        inst = Example1Instance(i=6, u=2.0)
        w = np.random.default_rng(3).uniform(-1.0, 1.0, size=inst.k_star)
        x = inst.x0
        xs = [x]
        for k in range(inst.k_star):
            (x,) = step_batch(example1_system(), [x], w[k : k + 1, None])
            xs.append(x)
        sim_xi, sim_eta = example1_simulate_log2(inst, w)
        assert sim_xi.tolist() == [math.log2(x[0]) for x in xs]
        assert sim_eta.tolist() == [x[1] for x in xs]
        with pytest.raises(ValueError, match="at least 6 noise values"):
            example1_simulate_log2(inst, w[:-1])

    def test_zero_noise_bounds_i3(self):
        inst = Example1Instance(i=3, u=1.0)
        log2_xi, _ = example1_closed_form(inst, np.zeros(3))
        assert inst.log2_lower == 6.0
        assert inst.log2_upper == 9.0
        assert inst.log2_lower <= log2_xi[-1] <= inst.log2_upper

    def test_crossing_time(self):
        inst = Example1Instance(i=4, u=1.5)
        assert inst.k_star == 4
        _, eta = example1_closed_form(inst, np.zeros(4))
        # eta halves each step and ends below 2 exactly at k*.
        assert eta[-1] == pytest.approx(1.5, abs=0.0)
        assert eta[-2] == pytest.approx(3.0, abs=0.0)

    def test_bounds_invariant(self):
        for i in (1, 2, 5):
            for u in (1.0, 3.0):
                inst = Example1Instance(i=i, u=u)
                assert inst.log2_lower <= inst.log2_upper
                assert inst.log2_lower == pytest.approx(
                    i * math.log2(u) + i * (i + 1) / 2.0
                )

    def test_noise_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            example1_closed_form(Example1Instance(i=2), [0.0, 1.5])

    def test_sampled_bounds_hold(self):
        for i in (3, 4, 5):
            for u in (1.0, 2.0):
                frac, margin = example1_bounds_hold(Example1Instance(i=i, u=u), 10_000, seed=1)
                assert frac == 1.0
                assert margin >= 0.0


class TestRefutation:
    def test_linear_candidate_witness_one(self):
        witness = refute_polynomial_drift(PolyCandidate(1, {(1, 0): 1.0}), u=2.0)
        assert witness == 1

    def test_quadratic_candidate(self):
        witness = refute_polynomial_drift(PolyCandidate(2, {(2, 0): 1.0, (0, 2): 1.0}), u=2.0)
        assert witness is not None and witness <= 4

    def test_not_radially_unbounded_rejected(self):
        with pytest.raises(ValueError):
            refute_polynomial_drift(PolyCandidate(2, {(0, 2): 1.0}), u=2.0)

    def test_generated_degree4_family(self):
        # Sampled family of degree-<=4 candidates with integer
        # coefficients in [-2, 2].  A genuine drift candidate must grow
        # without bound in xi, so the leading xi-coefficient along the
        # evaluation ray eta = u (sum over j of a_{lj} u^j at the top
        # nonzero l) is normalized to be positive; candidates with no xi
        # growth at all are skipped.
        u = 2.0
        indices = [(l, j) for l in range(5) for j in range(5) if l + j <= 4]
        rng = np.random.default_rng(2718)
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
            cand = PolyCandidate(4, coeffs)
            witness = refute_polynomial_drift(cand, u=u, i_max=30)
            assert witness is not None and witness <= 30, coeffs
            tested += 1
        assert tested >= 250

    def test_exact_past_cancellation(self):
        # At u = 1 the xi^3 terms cancel exactly on the left, leaving
        # 2^36 + 2 against 2^32 + 2^24 + 2^8 at i = 8; the remainder is
        # 2^-72 of the cancelled terms, which float arithmetic cannot see.
        cand = PolyCandidate(4, {(3, 0): 1.0, (3, 1): -1.0, (1, 0): 1.0, (0, 4): 2.0})
        assert refute_polynomial_drift(cand, u=1.0) == 8

    def test_all_positive_monomials(self):
        for l, j in itertools.product(range(1, 5), range(4)):
            if l + j > 4:
                continue
            for a in (1.0, 2.0):
                witness = refute_polynomial_drift(PolyCandidate(4, {(l, j): a}), u=2.0, i_max=30)
                assert witness is not None and witness <= 30


class TestLogCertificate:
    def test_both_reports_pass(self):
        drift, variant = example1_verify_log_certificate(samples=5000, seed=0)
        assert drift.passed
        assert variant.passed
        assert variant.inclusion_violations == 0

    def test_quoted_offset_fails_inclusion_only(self):
        # With offset 2 the sublevel {U <= 0} spills outside the unit box
        # (xi up to e^2 - 1), so only the inclusion check fails.
        drift, variant = example1_verify_log_certificate(
            samples=5000, seed=0, variant_offset=2.0
        )
        assert drift.passed
        assert variant.inclusion_violations > 0

    @pytest.mark.parametrize("seed", [0, 1, 90210])
    def test_scan_radius_pinned(self, seed):
        assert example1_scan_compact_radius(seed=seed) == 2.0

    def test_sample_point_inside_target(self):
        # (0.5, 0.5): U = ln 1.5 + 0.25 - 2 < 0 for the quoted offset.
        cert = example1_log_certificate(variant_offset=2.0)
        assert cert.variant_values(np.array([[0.5, 0.5]]))[0] < 0.0

    def test_level_box_accepts_most_proposals(self):
        # The box (expm1(r), sqrt(r)) is the bounding box of {V <= r} on the
        # quadrant, of which the region takes about 40 % at every level.
        cert = example1_log_certificate()
        rng = np.random.default_rng(3)
        for level in cert.default_levels():
            pts = cert.level_proposal(2, level, rng)(50_000)
            v, u = cert.level_values(pts)
            assert np.all(pts >= 0.0)
            assert np.mean((v <= level) & (u > 0.0)) >= 0.3, level

    def test_almost_sure_hitting(self):
        system = example1_system()
        unit_box = lambda X: np.all((X > 0.0) & (X < 1.0), axis=1)
        stats = hitting_stats(system, unit_box, [2.0**5, 2.0**5], 500, 1000, base_seed=6)
        assert stats.hit_fraction >= 0.95


class TestExample2:
    def test_quadratic_increment_exact(self):
        assert quadratic_drift_on_random_walk(1.0, 0.0, 0.0) == pytest.approx(1.0 / 3.0)
        assert quadratic_drift_on_random_walk(2.0, -5.0, 7.0) == pytest.approx(2.0 / 3.0)

    def test_quadrature_oracle(self):
        # Independent oracle: Gauss-Legendre quadrature of
        # E[a (x+w)^2 + b (x+w) + c] - (a x^2 + b x + c) over w ~ U[-1,1].
        nodes, weights = np.polynomial.legendre.leggauss(20)
        for a, b, c, x in ((1.0, 0.0, 0.0, 3.0), (2.0, -5.0, 7.0, -1.2), (0.5, 3.0, -1.0, 100.0)):
            f = a * (x + nodes) ** 2 + b * (x + nodes) + c
            expected = 0.5 * np.sum(weights * f) - (a * x * x + b * x + c)
            assert quadratic_drift_on_random_walk(a, b, c) == pytest.approx(expected, abs=1e-12)

    def test_abs_drift_zero_outside_unit(self, random_walk):
        # |3 + w| = 3 + w for |w| <= 1: the drift is exactly zero.
        cert = abs_certificate()
        from reachcert import mc_drift

        (mean,), _ = mc_drift(random_walk, cert.drift_values, [3.0], samples=1000, seed=0)
        assert mean == pytest.approx(0.0, abs=1e-14)

    def test_full_report(self):
        report = example2_quadratic_failure(samples=50_000, seed=0)
        assert all(row["delta_v"] > 0 for row in report["quadratics"])
        assert report["abs_drift"].passed
        assert report["abs_variant"].passed
        for lv in report["abs_variant"].levels:
            assert lv.epsilon_hat == pytest.approx(report["expected_epsilon"], abs=0.03)

    def test_random_walk_system_shape(self):
        system = random_walk_system()
        assert system.dimension == 1
        assert np.allclose(system.noise.covariance, [[1.0 / 3.0]])
