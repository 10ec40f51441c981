"""Synthesizing and verifying certificates in each reachable regime.

Stable spectrum: quadratic V = x'Qx from the discrete Lyapunov equation,
checked with the exact closed-form drift.  Fully critical 2D rotation:
V = sqrt(ln ||x||) in the rotation-invariant norm, checked by tensor Gauss
cubature over the two noise coordinates (the drift at ||x|| = e^10 is
~1e-12 and still resolved, with an error five orders smaller).
Mixed spectrum: the additive combination of the two is a heuristic
candidate; the verifier rejects its drift far out on the critical axis, and
the certificate honestly keeps its verified flag False.  The variant check
samples each level set from a cylinder in the split coordinates.
"""

import numpy as np

from reachcert import (
    LinearSystem,
    NoiseModel,
    TargetBall,
    drift_expectation,
    synthesize_composite,
    synthesize_logarithmic,
    synthesize_quadratic,
    verify_drift,
    verify_variant,
)


def main():
    print("=== quadratic certificate (stable spectrum) ===")
    stable = LinearSystem(
        A=[[0.5, 0.1], [0.0, 0.3]], B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0])
    )
    ball = TargetBall(center=[0.0, 0.0], radius=1.0)
    quad = synthesize_quadratic(stable, ball)
    print(f"  Q =\n{quad.Q}")
    print(f"  compact radius {quad.compact_radius:.4f}, contraction r0 = {quad.r0:.4f},"
          f" b = {quad.variant_b:.4f}, delta = {quad.delta:.4f}")
    drift = verify_drift(stable, quad)
    variant = verify_variant(stable, quad, ball, samples=20_000, seed=0)
    print(f"  drift (exact): {'pass' if drift.passed else 'FAIL'};"
          f" variant: {'pass' if variant.passed else 'FAIL'}")

    print("\n=== logarithmic certificate (rotation by pi/4) ===")
    theta = np.pi / 4
    rot = LinearSystem(
        A=[[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        B=np.eye(2),
        noise=NoiseModel.uniform([1.0, 1.0]),
    )
    log_cert = synthesize_logarithmic(rot, ball, seed=0)
    print(f"  Q* = identity (rotation preserves the Euclidean norm): "
          f"{np.allclose(log_cert.Q_star, np.eye(2))}")
    print(f"  compact radius {log_cert.compact_radius_star:.3f},"
          f" delta {log_cert.delta:.4f}")
    x_far = np.array([np.exp(10.0), 0.1])
    (mean,), (err,) = drift_expectation(rot, log_cert.drift_values, x_far[None], samples=100_000, seed=3)
    print(f"  drift at ||x|| = e^10: {mean:.3e} +- {err:.1e} (Gauss rule order gap)")
    drift = verify_drift(rot, log_cert)
    print(f"  full shell check: {'pass' if drift.passed else 'FAIL'}")

    print("\n=== composite candidate (mixed spectrum) ===")
    A = np.zeros((3, 3))
    A[:2, :2] = rot.A
    A[2, 2] = 0.5
    mixed = LinearSystem(A=A, B=np.eye(3), noise=NoiseModel.uniform([1.0] * 3))
    ball_3d = TargetBall(center=np.zeros(3), radius=1.5)
    comp = synthesize_composite(mixed, ball_3d, seed=0)
    drift = verify_drift(mixed, comp)
    print(f"  additive V_log(x_u) + V_quad(x_s): drift check"
          f" {'pass' if drift.passed else 'FAIL'} ({len(drift.violations)} violations)")
    variant = verify_variant(mixed, comp, ball_3d, samples=20_000, seed=0)
    eps = ", ".join(f"{lv.epsilon_hat:.4f} +- {lv.epsilon_half_width:.4f}" for lv in variant.levels)
    print(f"  variant check {'pass' if variant.passed else 'FAIL'}: epsilon per level {eps}")
    print(f"  verified flag stays {comp.verified}: the additive form is a heuristic;"
          " reachability itself is still guaranteed by the classification.")


if __name__ == "__main__":
    main()
