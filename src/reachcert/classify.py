"""Reachability classification of linear systems with additive noise.

The decision tree branches on the spectral radius, the Jordan structure
on the unit circle, the dimension of the unit-circle invariant subspace,
and the noise excitation (B full rank, square, finite third moments):

* rho < 1: reachable, quadratic certificate.
* rho > 1: not reachable (divergence with positive probability).
* rho = 1 with a Jordan block of size >= 2 on the unit circle: not
  reachable (polynomial state growth).
* rho = 1, diagonalizable unit part, full excitation: reachable iff the
  unit-circle invariant subspace has real dimension <= 2 (logarithmic or
  composite certificate); not reachable for dimension > 2.
* degenerate excitation at criticality: no verdict is claimed
  (Inconclusive) - failure is possible but not guaranteed in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import UNIT_TOL, numerical_rank
from .spectral import SpectralReport, analyze
from .systems import LinearSystem, TargetBall, contains

__all__ = ["Outcome", "Verdict", "classify"]


class Outcome:
    REACHABLE_STABLE = "ReachableStable"
    REACHABLE_CRITICAL = "ReachableCritical"
    NOT_REACHABLE_UNSTABLE = "NotReachableUnstable"
    NOT_REACHABLE_JORDAN = "NotReachableJordan"
    NOT_REACHABLE_DIMENSION = "NotReachableDimension"
    INCONCLUSIVE_ASSUMPTION = "InconclusiveAssumption"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate_advice: str  # quadratic | logarithmic | composite | none
    branch_trace: tuple      # ordered (test, value, decision) triples
    spectral: SpectralReport
    warnings: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "certificate_advice": self.certificate_advice,
            "branch_trace": [
                {"test": t, "value": v, "decision": d} for (t, v, d) in self.branch_trace
            ],
            "spectral": self.spectral.to_dict(),
            "warnings": list(self.warnings),
        }


def classify(system: LinearSystem, target: TargetBall) -> Verdict:
    """Map (A, B, noise, target) to a reachability verdict with its trace."""
    if not isinstance(system, LinearSystem):
        raise ValueError(f"classify needs a linear system (A, B), got {type(system).__name__}")
    if target.dimension != system.dimension:
        raise ValueError("target dimension does not match the system")
    if not contains(target, np.zeros((1, target.dimension)))[0]:
        raise ValueError("the target set must contain the origin")

    report = analyze(system.A)
    trace = []
    warnings = []
    if report.ambiguous_clustering:
        warnings.append("eigenvalue clusters closer than 10x the clustering tolerance")
    outcome, advice = _decide(system, report, trace, warnings)
    return Verdict(
        outcome=outcome,
        certificate_advice=advice,
        branch_trace=tuple(trace),
        spectral=report,
        warnings=tuple(warnings),
    )


def _decide(system: LinearSystem, report: SpectralReport, trace: list, warnings: list):
    """Walk the decision tree, appending each test to ``trace`` and each
    caveat to ``warnings``; returns (outcome, certificate advice)."""
    rho = report.rho
    if rho < 1.0 - UNIT_TOL:
        trace.append(("spectral_radius", rho, f"< 1 - {UNIT_TOL:g}: stable"))
        return Outcome.REACHABLE_STABLE, "quadratic"
    if rho > 1.0 + UNIT_TOL:
        trace.append(("spectral_radius", rho, f"> 1 + {UNIT_TOL:g}: unstable"))
        return Outcome.NOT_REACHABLE_UNSTABLE, "none"

    trace.append(("spectral_radius", rho, "within the critical band around 1"))
    if abs(rho - 1.0) > 0.1 * UNIT_TOL:
        warnings.append("near-critical: spectral radius within tolerance of 1 but not exactly 1")

    if report.d_max_unit >= 2:
        trace.append(("largest_unit_jordan_block", report.d_max_unit, ">= 2: polynomial growth"))
        return Outcome.NOT_REACHABLE_JORDAN, "none"
    trace.append(("largest_unit_jordan_block", report.d_max_unit, "diagonalizable unit part"))

    n, m = system.dimension, system.noise_dimension
    b_rank = numerical_rank(system.B)
    full_excitation = (n == m) and (b_rank == n)
    trace.append(
        (
            "excitation",
            {"n": n, "m": m, "rank_B": b_rank},
            "full rank, square" if full_excitation else "degenerate (Assumption fails)",
        )
    )
    if not full_excitation:
        return Outcome.INCONCLUSIVE_ASSUMPTION, "none"

    if report.dim_EA > 2:
        trace.append(("dim_unit_subspace", report.dim_EA, "> 2: transience"))
        return Outcome.NOT_REACHABLE_DIMENSION, "none"
    trace.append(("dim_unit_subspace", report.dim_EA, "<= 2: critical recurrence"))
    # Any eigenvalue off the unit circle leaves the unit subspace smaller than n.
    if report.dim_EA < n:
        warnings.append("composite certificate is a candidate only; verify numerically")
        return Outcome.REACHABLE_CRITICAL, "composite"
    return Outcome.REACHABLE_CRITICAL, "logarithmic"
