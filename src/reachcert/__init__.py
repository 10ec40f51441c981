"""Almost-sure reachability of stochastic linear systems.

Classification by spectral structure, explicit drift/variant certificate
synthesis, seeded numerical verification, and ensemble simulation.
"""

from .classify import Outcome, Verdict, classify
from .certificates import (
    CompositeCertificate,
    CustomCertificate,
    LogCertificate,
    QuadraticCertificate,
    SynthesisError,
    certificate_from_dict,
    load_certificate,
    save_certificate,
    synthesize_composite,
    synthesize_logarithmic,
    synthesize_quadratic,
)
from .ensembles import (
    DecayFit,
    EnsembleStats,
    Trajectory,
    decay_exponent,
    ensemble_states,
    hitting_stats,
    simulate,
)
from .linalg import (
    LinalgError,
    eigen_decompose,
    numerical_rank,
    solve_discrete_lyapunov,
    spectral_radius,
)
from .spectral import SpectralReport, analyze, unit_plane_basis
from .systems import (
    LinearSystem,
    NoiseModel,
    PolynomialSystem,
    TargetBall,
    load_system,
    sample_noise,
    step_batch,
    system_to_dict,
)
from .verify import (
    DriftReport,
    ShellPlan,
    VariantReport,
    drift_expectation,
    exact_quadratic_drift,
    mc_drift,
    verify_drift,
    verify_variant,
)

__all__ = [
    "Outcome",
    "Verdict",
    "classify",
    "CompositeCertificate",
    "CustomCertificate",
    "LogCertificate",
    "QuadraticCertificate",
    "SynthesisError",
    "certificate_from_dict",
    "load_certificate",
    "save_certificate",
    "synthesize_composite",
    "synthesize_logarithmic",
    "synthesize_quadratic",
    "DecayFit",
    "EnsembleStats",
    "Trajectory",
    "decay_exponent",
    "ensemble_states",
    "hitting_stats",
    "simulate",
    "LinalgError",
    "eigen_decompose",
    "numerical_rank",
    "solve_discrete_lyapunov",
    "spectral_radius",
    "SpectralReport",
    "analyze",
    "unit_plane_basis",
    "LinearSystem",
    "NoiseModel",
    "PolynomialSystem",
    "TargetBall",
    "load_system",
    "sample_noise",
    "step_batch",
    "system_to_dict",
    "DriftReport",
    "ShellPlan",
    "VariantReport",
    "drift_expectation",
    "exact_quadratic_drift",
    "mc_drift",
    "verify_drift",
    "verify_variant",
]
