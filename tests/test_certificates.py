import math

import numpy as np
import pytest
import scipy.linalg

from reachcert import (
    CustomCertificate,
    LinearSystem,
    LogCertificate,
    NoiseModel,
    SynthesisError,
    TargetBall,
    certificate_from_dict,
    classify,
    load_certificate,
    save_certificate,
    synthesize_composite,
    synthesize_logarithmic,
    synthesize_quadratic,
)
from reachcert.certificates import CERTIFICATE_KINDS
from reachcert.verify import exact_quadratic_drift

from conftest import random_stable_matrix, rotation_matrix


class TestQuadratic:
    def test_scalar_closed_form(self, unit_ball_1d):
        # A = [0.5]: Q = 1/(1-0.25) = 4/3; compact^2 = tr(Q * 1/3) = 4/9;
        # r0 = 0.25; b = lam_min R^2 / 2 = 2/3; delta = 0.75 * b.
        system = LinearSystem(A=[[0.5]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
        cert = synthesize_quadratic(system, unit_ball_1d)
        assert cert.Q[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert cert.compact_radius_sq == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert cert.r0 == pytest.approx(0.25, abs=1e-12)
        assert cert.variant_b == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert cert.delta == pytest.approx(0.5, abs=1e-12)

    def test_invariants_on_random_family(self):
        rng = np.random.default_rng(3)
        for n in range(1, 5):
            for _ in range(10):
                A = random_stable_matrix(n, rng)
                system = LinearSystem(A=A, B=np.eye(n), noise=NoiseModel.uniform([1.0] * n))
                cert = synthesize_quadratic(system, TargetBall(center=np.zeros(n), radius=1.0))
                assert 0.0 <= cert.r0 < 1.0
                assert cert.delta > 0.0
                assert cert.compact_radius_sq > 0.0
                # Sublevel inclusion: {x'Qx < 2b} subset of the unit ball.
                lam_min = np.linalg.eigvalsh(cert.Q).min()
                assert 2.0 * cert.variant_b / lam_min <= 1.0 + 1e-9

    def test_drift_negative_outside_compact_set(self, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        rng = np.random.default_rng(0)
        X = []
        for _ in range(200):
            d = rng.standard_normal(2)
            X.append((cert.compact_radius * 1.01 + rng.uniform(0, 10)) * d / np.linalg.norm(d))
        assert np.all(exact_quadratic_drift(stable_2d, cert.Q, X) <= 1e-12)

    def test_unstable_rejected(self, unit_ball_1d):
        system = LinearSystem(A=[[2.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
        with pytest.raises(SynthesisError):
            synthesize_quadratic(system, unit_ball_1d)

    def test_weighted_target(self, stable_2d):
        target = TargetBall(center=[0.0, 0.0], radius=1.0, weight=np.diag([4.0, 1.0]))
        cert = synthesize_quadratic(stable_2d, target)
        # Worst point of the sublevel set must stay inside the weighted ball.
        vals, vecs = np.linalg.eigh(cert.Q)
        x = vecs[:, 0] * np.sqrt(2.0 * cert.variant_b / vals[0]) * (1.0 - 1e-9)
        assert np.sqrt(x @ target.weight @ x) < target.radius + 1e-9


class TestLogarithmic:
    def test_rotation_unit_q(self, rotation_system, unit_ball_2d):
        cert = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        assert np.allclose(cert.Q_star, np.eye(2), atol=1e-10)
        assert cert.compact_radius_star >= np.e
        assert cert.delta > 0.0

    def test_random_walk(self, random_walk):
        cert = synthesize_logarithmic(random_walk, TargetBall(center=[0.0], radius=2.0), seed=0)
        assert cert.Q_star[0, 0] == pytest.approx(1.0, abs=1e-12)
        # b = lam_min R^2 / 2 = 2 for the radius-2 ball.
        assert cert.variant_b == pytest.approx(2.0, abs=1e-12)

    def test_norm_preserved(self, rotation_system, unit_ball_2d):
        cert = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        A, Q = rotation_system.A, cert.Q_star
        assert np.allclose(A.T @ Q @ A, Q, atol=1e-9)

    def test_stable_rejected(self, stable_2d, unit_ball_2d):
        with pytest.raises(SynthesisError):
            synthesize_logarithmic(stable_2d, unit_ball_2d)

    def test_high_dimension_rejected(self):
        system = LinearSystem(A=np.eye(3), B=np.eye(3), noise=NoiseModel.uniform([1.0] * 3))
        with pytest.raises(SynthesisError):
            synthesize_logarithmic(system, TargetBall(center=np.zeros(3), radius=1.0))

    def test_determinism(self, rotation_system, unit_ball_2d):
        a = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=5)
        b = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=5)
        assert a.compact_radius_star == b.compact_radius_star
        assert a.delta == b.delta

    @pytest.mark.parametrize("case", ["rotation", "walk"])
    @pytest.mark.parametrize("seed", [0, 1, 90210])
    def test_scan_radius_pinned(self, case, seed, rotation_system, random_walk):
        # The scan confirms the drift by cubature on every shell point and
        # stops at the first doubling of the domain threshold e.
        system = rotation_system if case == "rotation" else random_walk
        n = system.dimension
        cert = synthesize_logarithmic(system, TargetBall(center=np.zeros(n), radius=1.0), seed=seed)
        assert cert.compact_radius_star == 2.0 * math.e

    @pytest.mark.parametrize("half_width", [0.3, 0.5, 0.7])
    def test_anisotropic_noise_rejected(self, half_width, unit_ball_2d):
        # The Taylor margin gate keeps the scan from accepting radii (about
        # 1e7 here) where the drift lies below rounding.
        system = LinearSystem(
            A=rotation_matrix(np.pi / 4), B=np.eye(2), noise=NoiseModel.uniform([1.0, half_width])
        )
        with pytest.raises(SynthesisError, match="radius cap"):
            synthesize_logarithmic(system, unit_ball_2d, seed=0)


class TestComposite:
    @pytest.fixture
    def mixed_system(self):
        A = np.zeros((3, 3))
        A[:2, :2] = rotation_matrix(np.pi / 4)
        A[2, 2] = 0.5
        return LinearSystem(A=A, B=np.eye(3), noise=NoiseModel.uniform([1.0] * 3))

    def test_candidate_constructed_unverified(self, mixed_system):
        cert = synthesize_composite(mixed_system, TargetBall(center=np.zeros(3), radius=1.5))
        assert cert.kind == "composite"
        assert cert.verified is False
        assert cert.unit_dim == 2
        assert cert.delta > 0.0

    def test_split_dimensions_sum(self, mixed_system):
        cert = synthesize_composite(mixed_system, TargetBall(center=np.zeros(3), radius=1.5))
        assert cert.unit_dim + cert.stable_cert.Q.shape[0] == 3
        # Transform round trips.
        assert np.allclose(cert.transform @ cert.transform_inv, np.eye(3), atol=1e-9)

    def test_blocks_equal_scipy_block_diag(self, mixed_system):
        # The variant form's block diagonal is built in numpy: M must equal
        # the one built from scipy.linalg.block_diag bit for bit.
        cert = synthesize_composite(mixed_system, TargetBall(center=np.zeros(3), radius=1.5))
        blocks = scipy.linalg.block_diag(cert.unit_cert.Q_star, cert.stable_cert.Q)
        M = cert.transform_inv.T @ blocks @ cert.transform_inv
        assert cert.M.tobytes() == (0.5 * (M + M.T)).tobytes()

    def test_fully_critical_rejected(self, rotation_system, unit_ball_2d):
        with pytest.raises(SynthesisError):
            synthesize_composite(rotation_system, unit_ball_2d)

    def test_split_counts_what_classify_counts(self):
        # 1 - 5e-8 is off the unit circle for the classifier, so the split
        # keeps it in the stable part instead of failing for want of one.
        A = np.zeros((3, 3))
        A[:2, :2] = rotation_matrix(np.pi / 4)
        A[2, 2] = 1.0 - 5e-8
        system = LinearSystem(A=A, B=np.eye(3), noise=NoiseModel.uniform([1.0] * 3))
        target = TargetBall(center=np.zeros(3), radius=1.5)
        assert classify(system, target).spectral.dim_EA == 2
        cert = synthesize_composite(system, target)
        assert cert.unit_dim == 2
        assert cert.stable_cert.Q.shape == (1, 1)


class TestSerialization:
    def test_quadratic_round_trip(self, tmp_path, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        path = tmp_path / "quad.json"
        save_certificate(cert, path)
        again = load_certificate(path)
        assert np.allclose(again.Q, cert.Q)
        assert again.delta == cert.delta
        assert again.kind == "quadratic"

    def test_logarithmic_round_trip(self, tmp_path, rotation_system, unit_ball_2d):
        cert = synthesize_logarithmic(rotation_system, unit_ball_2d, seed=0)
        path = tmp_path / "log.json"
        save_certificate(cert, path)
        again = load_certificate(path)
        assert np.allclose(again.Q_star, cert.Q_star)
        assert again.compact_radius_star == cert.compact_radius_star

    def test_composite_round_trip(self, tmp_path):
        A = np.zeros((3, 3))
        A[:2, :2] = rotation_matrix(np.pi / 4)
        A[2, 2] = 0.5
        system = LinearSystem(A=A, B=np.eye(3), noise=NoiseModel.uniform([1.0] * 3))
        cert = synthesize_composite(system, TargetBall(center=np.zeros(3), radius=1.5))
        path = tmp_path / "comp.json"
        save_certificate(cert, path)
        again = load_certificate(path)
        assert np.allclose(again.M, cert.M)
        assert again.verified == cert.verified
        X = np.random.default_rng(0).standard_normal((20, 3)) * 30.0
        assert np.allclose(again.drift_values(X), cert.drift_values(X))

    def test_non_pd_rejected(self):
        bad = {
            "kind": "quadratic",
            "Q": [[1.0, 2.0], [2.0, 1.0]],
            "compact_radius_sq": 1.0,
            "r0": 0.5,
            "b": 0.1,
            "delta": 0.05,
        }
        with pytest.raises(ValueError):
            certificate_from_dict(bad)

    @pytest.mark.parametrize(
        "d, key, constant",
        [
            (
                {"kind": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]], "compact_radius_sq": 1.0, "r0": 0.5, "b": 0.1, "delta": 0.05},
                "alpha",
                1.0,
            ),
            (
                {"kind": "logarithmic", "Q_star": [[1.0, 0.0], [0.0, 1.0]], "compact_radius_star": 4.0, "b": 0.5, "delta": 0.1},
                "domain_threshold",
                math.e,
            ),
        ],
        ids=["alpha", "domain_threshold"],
    )
    def test_constant_other_than_the_checked_one_rejected(self, d, key, constant):
        # The checks assume the constant; a file stating another value would
        # verify as if it said the constant, so it is refused.
        assert certificate_from_dict(d).kind == d["kind"]
        assert certificate_from_dict(dict(d, **{key: constant})).kind == d["kind"]
        with pytest.raises(ValueError, match=key):
            certificate_from_dict(dict(d, **{key: 2.0 * constant}))

    def test_dict_round_trip_preserves_values(self, stable_2d, unit_ball_2d):
        cert = synthesize_quadratic(stable_2d, unit_ball_2d)
        again = certificate_from_dict(cert.to_dict())
        assert again.r0 == cert.r0
        assert again.variant_b == cert.variant_b


# ---------------------------------------------------------------------------
# The certificate protocol
# ---------------------------------------------------------------------------

def _protocol_case(kind, n):
    """(system, certificate) of one kind in dimension n."""
    rng = np.random.default_rng(n)
    system = LinearSystem(A=random_stable_matrix(n, rng, rho=0.7), B=np.eye(n), noise=NoiseModel.uniform([1.0] * n))
    if kind == "quadratic":
        return system, synthesize_quadratic(system, TargetBall(center=np.zeros(n), radius=1.0))
    if kind == "logarithmic":
        G = rng.standard_normal((n, n))
        return system, LogCertificate(Q_star=G @ G.T + n * np.eye(n), compact_radius_star=4.0, variant_b=0.5, delta=0.1)
    if kind == "composite":
        # A unit part of dimension n - 1 (the walk, or a rotation) and a stable 0.5.
        A = np.diag([1.0] * (n - 1) + [0.5])
        if n == 3:
            A[:2, :2] = rotation_matrix(np.pi / 4)
        mixed = LinearSystem(A=A, B=np.eye(n), noise=NoiseModel.uniform([1.0] * n))
        return mixed, synthesize_composite(mixed, TargetBall(center=np.zeros(n), radius=1.0))
    return system, CustomCertificate(
        drift=lambda X: np.linalg.norm(X, axis=1),
        variant=lambda X: np.einsum("ij,ij->i", X, X) - 1.0,
        h=lambda r: r * r,
        delta=0.1,
        compact_radius=1.0,
        level_radius=lambda r: r,
    )


PROTOCOL_CASES = [
    pytest.param(kind, n, id=f"{kind}-{n}")
    for kind in ("quadratic", "logarithmic", "composite", "custom")
    for n in (2, 3)
] + [pytest.param("quadratic", n, id=f"quadratic-{n}") for n in (20, 40)]


@pytest.mark.parametrize("kind, n", PROTOCOL_CASES)
def test_level_values_are_drift_and_variant_values(kind, n):
    """level_values gives the bits of drift_values and variant_values, so
    level-set sampling accepts the same points whichever it calls."""
    _, cert = _protocol_case(kind, n)
    X = np.random.default_rng(100 + n).standard_normal((500, n)) * 5.0
    v, u = cert.level_values(X)
    assert cert.kind == kind
    assert v.tobytes() == np.asarray(cert.drift_values(X)).tobytes()
    assert u.tobytes() == np.asarray(cert.variant_values(X)).tobytes()


@pytest.mark.parametrize("kind, n", PROTOCOL_CASES)
def test_exact_drift_only_for_quadratics(kind, n):
    system, cert = _protocol_case(kind, n)
    X = np.random.default_rng(200 + n).standard_normal((64, n)) * 3.0
    got = cert.exact_drift(system, X)
    if kind == "quadratic":
        assert got.tobytes() == exact_quadratic_drift(system, cert.Q, X).tobytes()
    else:
        assert got is None
    assert cert.positive_quadrant is False


def test_custom_certificate_cannot_be_serialized():
    _, cert = _protocol_case("custom", 2)
    with pytest.raises(TypeError, match="CustomCertificate"):
        cert.to_dict()


@pytest.mark.parametrize(
    "d, message",
    [
        ({"kind": "custom"}, "unknown certificate kind 'custom'"),
        ({"kind": ["quadratic"]}, "unknown certificate kind"),
        ([1, 2], "must be a JSON object, got list"),
    ],
    ids=["custom", "list-kind", "list"],
)
def test_unknown_kind_rejected(d, message):
    with pytest.raises(ValueError, match=message):
        certificate_from_dict(d)


@pytest.mark.parametrize("kind", ["quadratic", "logarithmic", "composite"])
def test_registry_round_trip(kind):
    _, cert = _protocol_case(kind, 3 if kind == "composite" else 2)
    assert CERTIFICATE_KINDS[kind] is type(cert)
    d = cert.to_dict()
    assert certificate_from_dict(d).to_dict() == d
    assert "noise_set_bound" not in d and "epsilon" not in d


@pytest.mark.parametrize(
    "d, legacy",
    [
        ({"kind": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]], "alpha": 1.0, "compact_radius_sq": 1.0, "r0": 0.5,
          "b": 0.1, "delta": 0.05}, {"noise_set_bound": 0.3}),
        ({"kind": "logarithmic", "Q_star": [[1.0, 0.0], [0.0, 1.0]], "domain_threshold": math.e,
          "compact_radius_star": 4.0, "b": 0.5, "delta": 0.1}, {"epsilon": 0.4}),
    ],
    ids=["quadratic", "logarithmic"],
)
def test_dropped_keys_are_ignored(d, legacy):
    """Files written before noise_set_bound and epsilon were dropped still
    load, to the certificate of the same file without them."""
    assert certificate_from_dict(dict(d, **legacy)).to_dict() == d
