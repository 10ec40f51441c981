"""The 2D polynomial system that defeats every polynomial drift.

The map (xi, eta) -> (xi (1 + eta + w) / 2, eta / 2) from (2^i, 2^i u)
blows xi up to between u^i 2^{i(i+1)/2} and u^i 2^{i(i+3)/2} before eta
decays, with crossing time k* = i.  Any polynomial drift would force
V(state at k*) <= V(initial state); evaluating that inequality in exact
rational arithmetic finds a violating i for each candidate below.  (The
paper proves that no polynomial drift exists; the refutation checks
fixed candidates only.)  A logarithmic certificate, by contrast, verifies
numerically, and simulation confirms the unit box is hit almost surely.
"""

import numpy as np

from reachcert import hitting_stats
from reachcert.counterexamples import (
    Example1Instance,
    PolyCandidate,
    example1_bounds_hold,
    example1_closed_form,
    example1_simulate_log2,
    example1_system,
    example1_verify_log_certificate,
    refute_polynomial_drift,
)


def main():
    print("=== closed form vs direct simulation ===")
    inst = Example1Instance(i=5, u=2.0)
    w = np.random.default_rng(42).uniform(-1.0, 1.0, size=5)
    cf, _ = example1_closed_form(inst, w)
    sim, _ = example1_simulate_log2(inst, w)
    print(f"  max |log2 xi| discrepancy over k = 0..{inst.k_star}: "
          f"{np.max(np.abs(cf - sim)):.2e}")

    print("\n=== excursion bounds at the crossing time ===")
    for i in (3, 5):
        inst = Example1Instance(i=i, u=2.0)
        frac, margin = example1_bounds_hold(inst, 100_000, seed=0)
        print(f"  i={i}: log2 xi_k* in [{inst.log2_lower:.1f}, {inst.log2_upper:.1f}]"
              f" for {frac:.0%} of 1e5 noise sequences (worst margin {margin:.3f})")

    print("\n=== refuting polynomial drift candidates ===")
    candidates = [
        ("V = xi", PolyCandidate(1, {(1, 0): 1.0})),
        ("V = xi^2 + eta^2", PolyCandidate(2, {(2, 0): 1.0, (0, 2): 1.0})),
        ("V = 2 xi^4 + xi eta + eta^2",
         PolyCandidate(4, {(4, 0): 2.0, (1, 1): 1.0, (0, 2): 1.0})),
    ]
    for name, cand in candidates:
        witness = refute_polynomial_drift(cand, u=2.0, i_max=30)
        print(f"  {name}: inequality violated at i = {witness}")

    print("\n=== the logarithmic certificate that does work ===")
    drift, variant = example1_verify_log_certificate(samples=20_000, seed=0)
    print(f"  V = ln(1 + xi) + eta^2: drift {'pass' if drift.passed else 'FAIL'},"
          f" variant {'pass' if variant.passed else 'FAIL'}")

    print("\n=== hitting the unit box by simulation ===")
    unit_box = lambda X: np.all((X > 0.0) & (X < 1.0), axis=1)
    stats = hitting_stats(example1_system(), unit_box, [32.0, 32.0], 500, 1000, base_seed=6)
    print(f"  from (2^5, 2^5): hit fraction {stats.hit_fraction:.3f} within 1000 steps")


if __name__ == "__main__":
    main()
