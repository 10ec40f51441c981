"""The two template-failure constructions, reproduced end to end.

First, a two-dimensional polynomial system whose state blows up to
2^(i(i+3)/2) before re-entering the target region; it is almost surely
reachable (with a logarithmic certificate) but admits no polynomial
drift function.  The refutation evaluates, in exact rational
arithmetic, the inequality any valid polynomial drift would have to
satisfy between the state at the crossing time and the initial state,
and reports the first exponent i where it is violated.

Second, the one-dimensional random walk: every quadratic has constant
positive expected increment a * E[w^2] = a/3, while V(x) = |x| with
variant |x| - 1 certifies reachability.

Each case of ``reachcert repro`` is one function here, registered in
`REPRO_CASES`: it takes (samples, seed) and returns the report fields
it adds and whether the case passed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .certificates import CustomCertificate
from .systems import LinearSystem, NoiseModel, PolynomialSystem, TargetBall, sample_noise, tagged_rng
from .verify import DriftReport, ShellPlan, VariantReport, drift_expectation, verify_drift, verify_variant

__all__ = [
    "Example1Instance",
    "PolyCandidate",
    "example1_system",
    "example1_closed_form",
    "example1_simulate_log2",
    "example1_bounds_hold",
    "example1_log_certificate",
    "example1_verify_log_certificate",
    "refute_polynomial_drift",
    "random_walk_system",
    "abs_certificate",
    "example2_quadratic_failure",
    "REPRO_CASES",
]


# ---------------------------------------------------------------------------
# Example 1: the polynomial system without a polynomial drift
# ---------------------------------------------------------------------------

# w ~ U[-1, 1]: drawn by the system and by the closed-form bound check alike.
EXAMPLE1_NOISE = NoiseModel.uniform([1.0])
# U = V - EXAMPLE1_VARIANT_OFFSET; any offset below ln 2 keeps {U <= 0} in the unit box.
EXAMPLE1_VARIANT_OFFSET = 0.5
# The doubling scan for the compact radius of Example 1's certificate.
EXAMPLE1_SCAN_START = 2.0
EXAMPLE1_SCAN_CAP = 1e6


def example1_system() -> PolynomialSystem:
    """The 2D map (xi, eta) -> (xi (1 + eta + w) / 2, eta / 2), w ~ U[-1, 1]."""
    return PolynomialSystem(
        transition_exprs=("0.5*x1*(1 + x2 + w1)", "0.5*x2"),
        noise=EXAMPLE1_NOISE,
    )


@dataclass(frozen=True)
class Example1Instance:
    """Initial condition family x0 = (2^i, 2^i u) with crossing time k* = i."""

    i: int
    u: float = 1.0

    def __post_init__(self):
        if self.i < 1:
            raise ValueError("exponent i must be a positive integer")
        if self.u < 1.0:
            raise ValueError("parameter u must be >= 1")

    @property
    def x0(self):
        return np.array([2.0**self.i, 2.0**self.i * self.u])

    @property
    def k_star(self) -> int:
        return self.i

    @property
    def log2_lower(self) -> float:
        # u^i 2^{i(i+1)/2} in log2
        return self.i * math.log2(self.u) + 0.5 * self.i * (self.i + 1)

    @property
    def log2_upper(self) -> float:
        # u^i 2^{i(i+3)/2} in log2
        return self.i * math.log2(self.u) + 0.5 * self.i * (self.i + 3)


def example1_closed_form(instance: Example1Instance, w_seq):
    """Closed-form (log2 xi_k, eta_k) for k = 0..k*, given the noise values.

    log2 xi_k = i + sum_{n<k} log2((1 + u 2^{i-n} + w_n) / 2) and
    eta_k = u 2^{i-k}.  Valid for w in [-1, 1] and u >= 1, where every
    log argument is positive.
    """
    w = np.asarray(w_seq, dtype=float).reshape(-1)
    if np.any(np.abs(w) > 1.0):
        raise ValueError("noise values must lie in [-1, 1]")
    i, u = instance.i, instance.u
    k_star = instance.k_star
    if w.size < k_star:
        raise ValueError(f"need at least {k_star} noise values")
    ns = np.arange(k_star)
    args = 0.5 * (1.0 + u * 2.0 ** (i - ns) + w[:k_star])
    if np.any(args <= 0.0):
        raise ValueError("non-positive argument in the closed form (requires u >= 1)")
    log2_xi = i + np.concatenate([[0.0], np.cumsum(np.log2(args))])
    eta = u * 2.0 ** (i - np.arange(k_star + 1))
    return log2_xi, eta


def example1_simulate_log2(instance: Example1Instance, w_seq):
    """Iterate the actual map in doubles; log2 xi_k and eta_k for k <= k*.

    Usable while 2^{i(i+3)/2} stays inside double range (i up to ~40).
    """
    w = np.asarray(w_seq, dtype=float).reshape(-1)
    if w.size < instance.k_star:
        raise ValueError(f"need at least {instance.k_star} noise values")
    x0 = instance.x0[None]
    states = np.concatenate([x0, example1_system().advance(x0, w[: instance.k_star, None, None])[:, 0]])
    return np.array([math.log2(x) for x in states[:, 0]]), states[:, 1]


def example1_bounds_hold(instance: Example1Instance, n_sequences: int, seed: int = 0):
    """Check log2 xi_{k*} in [log2_lower, log2_upper] over sampled noise.

    Returns (fraction holding, worst margin).  The margin is the smallest
    distance to either bound (negative means a violation).
    """
    i, u = instance.i, instance.u
    W = sample_noise(EXAMPLE1_NOISE, seed, i, n_sequences * i).reshape(n_sequences, i)
    ns = np.arange(i)
    args = 0.5 * (1.0 + u * 2.0 ** (i - ns)[None, :] + W)
    log2_xi = i + np.sum(np.log2(args), axis=1)
    lo, hi = instance.log2_lower, instance.log2_upper
    ok = (log2_xi >= lo - 1e-9) & (log2_xi <= hi + 1e-9)
    margin = float(min(np.min(log2_xi - lo), np.min(hi - log2_xi)))
    return float(ok.mean()), margin


# -- polynomial drift refutation (exact rational arithmetic) ----------------

@dataclass(frozen=True)
class PolyCandidate:
    """Polynomial drift candidate V(xi, eta) = sum a_{lj} xi^l eta^j, l+j <= d."""

    degree: int
    coeffs: dict  # {(l, j): a}

    def __post_init__(self):
        for (l, j), a in self.coeffs.items():
            if l < 0 or j < 0 or l + j > self.degree:
                raise ValueError(f"coefficient index ({l},{j}) outside degree {self.degree}")

    @property
    def radially_unbounded(self) -> bool:
        return any(l > 0 and a != 0 for (l, j), a in self.coeffs.items())


def refute_polynomial_drift(candidate: PolyCandidate, u: float, i_max: int = 30):
    """Smallest i violating the inequality a polynomial drift must satisfy.

    The inequality compares V at the lower bound of the crossing-time
    state, V(u^i 2^{i(i+1)/2}, u), against V at the initial state,
    V(2^i, 2^i u); a valid drift forces the former to be no larger.  Both
    sides are evaluated exactly, in rationals: every coefficient and u
    (floats included) is the rational it stores, so the comparison is
    exact at any i, states near 2^500 included.  Returns None if no
    violation is found by i_max.
    """
    if not candidate.radially_unbounded:
        raise ValueError(
            "candidate is not radially unbounded in xi: needs some a_{lj} != 0 with l > 0"
        )
    if u < 1.0:
        raise ValueError("u must be >= 1")
    from fractions import Fraction  # imported here: it loads decimal, which only the refutation needs

    u = Fraction(u)
    terms = [(l, j, Fraction(a)) for (l, j), a in candidate.coeffs.items() if a != 0]
    for i in range(1, i_max + 1):
        xi_low = u**i * 2 ** (i * (i + 1) // 2)
        left = sum(a * xi_low**l * u**j for l, j, a in terms)
        right = sum(a * 2 ** (i * l) * (2**i * u) ** j for l, j, a in terms)
        if left > right:
            return i
    return None


# -- the logarithmic certificate of Example 1 -------------------------------

def _example1_drift(X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.log1p(np.maximum(X[:, 0], 0.0)) + X[:, 1] ** 2


def example1_log_certificate(
    variant_offset: float = EXAMPLE1_VARIANT_OFFSET, compact_radius: float = 8.0, delta: float = 0.05
) -> CustomCertificate:
    """V = ln(1 + xi) + eta^2 with U = V - variant_offset on the open quadrant.

    The drift/variant pair usually quoted for this system uses offset 2,
    but {U <= 0} then allows xi up to e^2 - 1 > 1, which spills outside
    the unit-box target, so the sublevel-inclusion check fails at that
    offset.  Any offset below ln 2 (e.g. the default 0.5) keeps
    {U <= 0} inside the box and passes every check; the drift condition
    on V is unaffected by the offset.
    """
    return CustomCertificate(
        drift=_example1_drift,
        variant=lambda X: _example1_drift(X) - variant_offset,
        h=lambda r: r - variant_offset,
        delta=delta,
        compact_radius=compact_radius,
        # V <= r bounds xi by expm1(r) and eta by sqrt(r).
        level_radius=lambda r: (math.expm1(r), math.sqrt(max(r, 0.0))),
        levels=(3.0, 4.0, 5.0),
        positive_quadrant=True,
    )


def example1_scan_compact_radius(seed: int = 0) -> float:
    """Doubling scan for a quadrant radius beyond which the drift is negative."""
    system = example1_system()
    rng = tagged_rng(seed, 0xE1)
    rho = EXAMPLE1_SCAN_START
    while rho <= EXAMPLE1_SCAN_CAP:
        angles = rng.uniform(0.0, np.pi / 2.0, size=32)
        pts = rho * np.column_stack([np.cos(angles), np.sin(angles)])
        est, err = drift_expectation(system, _example1_drift, pts, 20_000, seed)
        if np.all(est + err <= 0.0):
            return rho
        rho *= 2.0
    raise RuntimeError(f"drift scan exceeded the radius cap {EXAMPLE1_SCAN_CAP:g}")


def example1_verify_log_certificate(
    samples: int = 20_000, seed: int = 0, variant_offset: float = EXAMPLE1_VARIANT_OFFSET
):
    """Drift and variant reports for the logarithmic certificate above.

    The target region is the open unit box in the positive quadrant.
    With the default offset both reports pass; with offset 2 the drift
    report still passes but the inclusion check fails (see
    example1_log_certificate).
    """
    system = example1_system()
    compact = example1_scan_compact_radius(seed=seed)
    cert = example1_log_certificate(variant_offset=variant_offset, compact_radius=compact)
    plan = ShellPlan(tuple(compact * 2.0**j for j in range(5)), points_per_shell=32, noise_samples=samples, seed=seed)
    drift_report = verify_drift(system, cert, plan=plan)

    def in_unit_box(X):
        return np.all((X > 0.0) & (X < 1.0), axis=1)

    return drift_report, verify_variant(system, cert, target=in_unit_box, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# Example 2: the random walk and its quadratic failure
# ---------------------------------------------------------------------------

def random_walk_system(half_width: float = 1.0) -> LinearSystem:
    """x_{k+1} = x_k + w_k with w ~ U[-half_width, half_width]."""
    return LinearSystem(A=[[1.0]], B=[[1.0]], noise=NoiseModel.uniform([half_width]))


def quadratic_drift_on_random_walk(a: float, b: float = 0.0, c: float = 0.0) -> float:
    """Exact expected increment of V(x) = a x^2 + b x + c on the random walk.

    Independent of x: the linear terms vanish (E[w] = 0) and the constant
    cancels, leaving a * E[w^2] = a / 3.
    """
    return a * (1.0 / 3.0)


def abs_certificate(delta: float = 0.5) -> CustomCertificate:
    """V(x) = |x|, U(x) = |x| - 1, compact set [-1, 1], H(r) = r - 1."""
    return CustomCertificate(
        drift=lambda X: np.abs(np.atleast_2d(X)[:, 0]),
        variant=lambda X: np.abs(np.atleast_2d(X)[:, 0]) - 1.0,
        h=lambda r: r - 1.0,
        delta=delta,
        compact_radius=1.0,
        level_radius=lambda r: r,
        levels=(3.0, 10.0, 100.0),
    )


# The quadratics a x^2 + b x + c that Example 2 shows failing, every a with every (b, c).
QUADRATIC_A_GRID = (0.5, 1.0, 2.0, 5.0)
QUADRATIC_BC_GRID = ((0.0, 0.0), (-5.0, 7.0), (3.0, -1.0))


def example2_quadratic_failure(delta: float = 0.5, samples: int = 100_000, seed: int = 0) -> dict:
    """Quadratics fail V1 on the random walk; |x| passes V1 and V2.

    Returns a report with the constant positive increment a/3 of each
    quadratic candidate, plus drift/variant reports for the |x|
    certificate with the exact decrease probability (1 - delta) / 2.
    """
    system = random_walk_system()
    quad_rows = [
        {"a": a, "b": b, "c": c, "delta_v": quadratic_drift_on_random_walk(a, b, c)}
        for a in QUADRATIC_A_GRID for b, c in QUADRATIC_BC_GRID
    ]

    cert = abs_certificate(delta=delta)
    plan = ShellPlan(radii=(2.0, 10.0, 100.0), points_per_shell=8, noise_samples=10_000, seed=seed)
    drift_report = verify_drift(system, cert, plan=plan)
    target = TargetBall(center=[0.0], radius=2.0)
    variant_report = verify_variant(system, cert, target=target, samples=samples, seed=seed)
    return {
        "quadratics": quad_rows,
        "expected_epsilon": (1.0 - delta) / 2.0,
        "abs_drift": drift_report,
        "abs_variant": variant_report,
    }


# ---------------------------------------------------------------------------
# The cases of `reachcert repro`: (samples, seed) -> (report fields, passed)
# ---------------------------------------------------------------------------

# The fixed candidates that `repro example1-refute` refutes, with their labels.
REFUTED_CANDIDATES = (
    ("xi", PolyCandidate(1, {(1, 0): 1.0})),
    ("xi^2+eta^2", PolyCandidate(2, {(2, 0): 1.0, (0, 2): 1.0})),
    ("xi^4-2*xi*eta+eta^2", PolyCandidate(4, {(4, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0})),
)


def _repro_example1_bounds(samples: int, seed: int):
    """The excursion bounds hold on every sampled noise sequence."""
    rows = []
    for i, u in itertools.product((3, 4, 5), (1.0, 2.0)):
        inst = Example1Instance(i=i, u=u)
        frac, margin = example1_bounds_hold(inst, samples, seed=seed)
        rows.append({"i": i, "u": u, "lower_log2": inst.log2_lower, "upper_log2": inst.log2_upper,
                     "fraction_within_bounds": frac, "worst_margin_log2": margin})
    passed = all(row["fraction_within_bounds"] == 1.0 for row in rows)
    return {"bounds": {"sequences_per_case": samples, "cases": rows}}, passed


def _repro_example1_certificate(samples: int, seed: int):
    """The logarithmic certificate of Example 1 passes both checks."""
    drift, variant = example1_verify_log_certificate(samples=samples, seed=seed)
    fields = {"variant_offset": EXAMPLE1_VARIANT_OFFSET, "drift": drift.to_dict(), "variant": variant.to_dict()}
    return fields, drift.passed and variant.passed


def _repro_example1_refute(samples: int, seed: int):
    """Each of REFUTED_CANDIDATES has a witness i <= 30 at u = 2 (exact)."""
    rows = [
        {"candidate": label, "witness_i": refute_polynomial_drift(candidate, u=2.0, i_max=30)}
        for label, candidate in REFUTED_CANDIDATES
    ]
    return {"refutations": rows}, all(row["witness_i"] is not None for row in rows)


def _repro_example2(samples: int, seed: int):
    """Every quadratic has a positive increment, |x| passes both checks,
    and the first level's decrease probability is within 0.03 of exact."""
    result = example2_quadratic_failure(samples=samples, seed=seed)
    drift, variant = result["abs_drift"], result["abs_variant"]
    fields = {"example2": dict(result, abs_drift=drift.to_dict(), abs_variant=variant.to_dict())}
    passed = (
        drift.passed
        and variant.passed
        and abs(variant.levels[0].epsilon_hat - result["expected_epsilon"]) <= 0.03
        and all(row["delta_v"] > 0 for row in result["quadratics"])
    )
    return fields, passed


REPRO_CASES = {
    "example1-bounds": _repro_example1_bounds,
    "example1-certificate": _repro_example1_certificate,
    "example1-refute": _repro_example1_refute,
    "example2": _repro_example2,
}
