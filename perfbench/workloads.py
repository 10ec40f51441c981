"""Workload process of the reachcert benchmark.

Builds one workload's inputs from the seed, runs the workload in whole
cycles until the given seconds have passed, checks every output, and prints
one JSON line of raw results for ``perfbench/run.py``.  run.py starts this
script in a fresh interpreter with ``PYTHONPATH`` and the thread counts
pinned; run it directly only to debug a workload.

Every operation is timed here, around the public call, with
``time.perf_counter``.  Reports' own ``timings`` blocks are never read.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import reachcert as rc
from reachcert import certificates, cli, ensembles, linalg, spectral, systems, verify

# The package exports a function named classify over its submodule.
classify_module = importlib.import_module("reachcert.classify")

import tracing

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".perfbench"


@dataclass
class OpResult:
    label: str
    seconds: float
    status: str  # "ok", "failed", or "defect" (a known defect, see CertifySweep)
    record: object = None
    note: str = ""


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# ---------------------------------------------------------------------------
# hitting-long
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HittingCall:
    label: str
    system: object
    target: object
    x0: list
    n_traj: int
    horizon: int
    base_seed: int
    min_hit: float | None  # None: the hit fraction must be exactly 0

    @property
    def steps(self) -> int:
        return self.n_traj * self.horizon


class HittingLong:
    """One operation is a round of four `hitting_stats` calls, each on at
    most 1000 trajectories over a long horizon.  The per-step Python
    overhead of the hitting loop dominates; every call fits in one batch,
    so the second worker thread stays idle."""

    name = "hitting-long"

    def __init__(self, seed: int):
        seeds = derived_seeds(seed, 4)
        uniform2 = rc.NoiseModel.uniform([1.0, 1.0])
        origin_ball = rc.TargetBall(center=[0.0, 0.0], radius=1.0)
        # Criterion 9: B = (1, 1)' keeps x2 - x1 = 10 forever, so no
        # trajectory ever hits and every step is paid.
        degenerate = rc.LinearSystem(A=np.eye(2), B=[[1.0], [1.0]], noise=rc.NoiseModel.uniform([1.0]))
        # Criterion 4: the pi/4 rotation with its log-certificate target.
        # Starting at 1.25 target radii, about 90 % of the rows hit, most of
        # them early, so the live set shrinks during the run.
        rot = rc.LinearSystem(A=rotation(math.pi / 4), B=np.eye(2), noise=uniform2)
        cert = rc.synthesize_logarithmic(rot, origin_ball, seed=seeds[0])
        log_target = rc.TargetBall(center=[0.0, 0.0], radius=cert.compact_radius)
        x0_rot = [1.25 * cert.compact_radius / math.sqrt(2.0)] * 2
        walk = rc.LinearSystem(A=[[1.0]], B=[[1.0]], noise=rc.NoiseModel.uniform([1.0]))
        # Gaussian noise takes the Cholesky draw path.
        gauss_rot = rc.LinearSystem(
            A=rotation(math.pi / 4), B=np.eye(2), noise=rc.NoiseModel.gaussian([[1.0, 0.3], [0.3, 0.5]])
        )
        self.calls = [
            HittingCall("degenerate-b", degenerate, origin_ball, [0.0, 10.0], 1000, 10_000, seeds[0], None),
            HittingCall("rotation-log-target", rot, log_target, x0_rot, 1000, 50_000, seeds[1], 0.8),
            HittingCall("walk-1d", walk, rc.TargetBall(center=[0.0], radius=2.0), [10.0], 1000, 20_000, seeds[2], 0.8),
            HittingCall("rotation-gaussian", gauss_rot, log_target, x0_rot, 1000, 10_000, seeds[3], 0.8),
        ]
        self.steps_per_op = sum(c.steps for c in self.calls)

    def cycle(self) -> list[OpResult]:
        results = []
        start = time.perf_counter()
        try:
            for c in self.calls:
                results.append(rc.hitting_stats(c.system, c.target, c.x0, c.n_traj, c.horizon, base_seed=c.base_seed))
        except Exception as exc:  # a failed operation is counted, not fatal
            return [OpResult("round", time.perf_counter() - start, "failed", note=f"raised {exc!r}")]
        seconds = time.perf_counter() - start
        problems = []
        for c, st in zip(self.calls, results):
            if c.min_hit is None and st.hit_fraction != 0.0:
                problems.append(f"{c.label}: hit fraction {st.hit_fraction} != 0")
            if c.min_hit is not None and st.hit_fraction < c.min_hit:
                problems.append(f"{c.label}: hit fraction {st.hit_fraction} < {c.min_hit}")
            if st.overflow_fraction != 0.0:
                problems.append(f"{c.label}: overflow fraction {st.overflow_fraction}")
        record = {c.label: st.to_dict() for c, st in zip(self.calls, results)}
        return [OpResult("round", seconds, "failed" if problems else "ok", record, "; ".join(problems))]


# ---------------------------------------------------------------------------
# occupancy-wide
# ---------------------------------------------------------------------------

class OccupancyWide:
    """One operation is one `decay_exponent` call on the 3D identity system
    (criterion 5): 80k trajectories are four `ensemble_states` batches, so
    both worker threads run, and the k grid reaches 2^12.  Noise drawing and
    the strided per-step stepping dominate; membership runs only at the
    snapshots, so a hitting-loop change should not move this workload."""

    name = "occupancy-wide"
    N_TRAJ = 80_000
    K_GRID = tuple(2**j for j in range(4, 13))

    def __init__(self, seed: int):
        self.system = rc.LinearSystem(A=np.eye(3), B=np.eye(3), noise=rc.NoiseModel.uniform([1.0] * 3))
        self.ball = rc.TargetBall(center=[0.0] * 3, radius=1.0)
        self.base_seed = derived_seeds(seed, 1)[0]
        self.steps_per_op = self.N_TRAJ * max(self.K_GRID)

    def cycle(self) -> list[OpResult]:
        start = time.perf_counter()
        try:
            fit = rc.decay_exponent(
                self.system, self.ball, k_grid=self.K_GRID, n_traj=self.N_TRAJ, base_seed=self.base_seed
            )
        except Exception as exc:  # a failed operation is counted, not fatal
            return [OpResult("decay", time.perf_counter() - start, "failed", note=f"raised {exc!r}")]
        seconds = time.perf_counter() - start
        ok = -1.9 <= fit.slope <= -1.1
        note = "" if ok else f"slope {fit.slope} outside [-1.9, -1.1]"
        return [OpResult("decay", seconds, "ok" if ok else "failed", fit.to_dict(), note)]


# ---------------------------------------------------------------------------
# certify-sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    """One CLI command and what its outcome must be.

    ``report`` is the JSON file the command writes, relative to the cycle
    directory; ``check`` validates the exit code and that report.  A ``defect`` op is a known
    defect of the program: exit 2 there is counted as a defect, not a
    failure, and any other outcome is checked like a normal op.
    """

    label: str
    argv: tuple
    report: str
    check: object
    defect: bool = False


def _uniform(widths) -> dict:
    return {"kind": "uniform-box", "half_widths": [float(w) for w in widths]}


def _gaussian(cov) -> dict:
    return {"kind": "gaussian", "cov": np.asarray(cov, dtype=float).tolist()}


def _stable_matrix(n: int, rho: float, rng) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return A * (rho / float(np.max(np.abs(np.linalg.eigvals(A)))))


def _normal_stable_matrix(n: int, rng) -> np.ndarray:
    """V diag(lam) V' with a random orthogonal V and a fixed spectrum.

    Q = V diag(1 / (1 - lam^2)) V' then has the same eigenvalues for every
    seed, so the level-set sampling in verify costs the same for every seed.
    """
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(0.3, 0.8, n) * rng.choice([-1.0, 1.0], size=n)
    return V @ np.diag(lam) @ V.T


def _random_spd(n: int, rng) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return M @ M.T / n + 0.5 * np.eye(n)


def _well_conditioned(n: int, rng) -> np.ndarray:
    while True:
        P = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        if np.linalg.cond(P) < 5.0:
            return P


def _expect_exit(code, want) -> str:
    return "" if code in want else f"exit {code}, expected {sorted(want)}"


def _classify_check(outcome: str, advice: str):
    def check(code, report):
        problem = _expect_exit(code, {0})
        if problem:
            return problem
        got = (report["classify"]["outcome"], report["classify"]["certificate_advice"])
        return "" if got == (outcome, advice) else f"verdict {got}, expected {(outcome, advice)}"

    return check


def _certify_check(kind: str, allowed=frozenset({0})):
    def check(code, report):
        problem = _expect_exit(code, allowed)
        if problem:
            return problem
        if code == 1 and not report:
            return ""  # synthesis failed and said so
        got = report["certificate"]["kind"]
        if got != kind:
            return f"certificate kind {got}, expected {kind}"
        if kind == "composite" and report["certificate"]["verified"] != (code == 0):
            return f"composite verified flag {report['certificate']['verified']} with exit {code}"
        return ""

    return check


def _passed_check(allowed=frozenset({0})):
    def check(code, report):
        problem = _expect_exit(code, allowed)
        if problem:
            return problem
        return "" if report["passed"] == (code == 0) else f"passed {report['passed']} with exit {code}"

    return check


class CertifySweep:
    """One operation is one CLI command run in-process through `cli.run`.

    Systems are drawn from the seed and written as system files during
    set-up; the sweep runs classify, certify then verify on each, classify
    only on the not-reachable regimes, and two repro cases.  Sizes and
    regimes are fixed, so the mix of cheap and expensive operations is the
    same for every seed.  No ensembles run.  Two known defects are kept in
    the sweep as ``defect`` ops and reported, not hidden: verify on
    stable systems with n of 20 to 40 exits 2 (rejection sampling of the
    level sets), and certify on rotation (+) 0.5 exits 2 (composite
    level-set sampling).
    """

    name = "certify-sweep"
    steps_per_op = 0  # no trajectories
    STABLE_SMALL = (2, 3, 4, 6)
    STABLE_LARGE = (20, 30, 40)
    PER_NOT_REACHABLE_REGIME = 5

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        (workdir / "sys").mkdir(parents=True, exist_ok=True)
        self.ops: list[CliOp] = []
        self.cycles = 0
        cli_seed = lambda: str(int(rng.integers(0, 2**31 - 1)))  # noqa: E731

        for i, n in enumerate(self.STABLE_SMALL):
            A = _normal_stable_matrix(n, rng)
            noise = _uniform(rng.uniform(0.5, 2.0, n)) if i % 2 == 0 else _gaussian(_random_spd(n, rng))
            self._full_pipeline(f"stable-{n}", A, np.eye(n), noise, "ReachableStable", "quadratic", cli_seed())
        for n in self.STABLE_LARGE:
            A = _stable_matrix(n, rng.uniform(0.5, 0.9), rng)
            self._full_pipeline(
                f"stable-{n}", A, np.eye(n), _uniform([1.0] * n), "ReachableStable", "quadratic", cli_seed(),
                verify_defect=True,
            )

        # Critical systems with n <= 2 take the logarithmic certificate.  The
        # noise is isotropic in the norm A preserves, as that certificate
        # needs; anisotropic noise makes the log-drift scan fail by design.
        theta = lambda: rng.uniform(0.3, math.pi - 0.3)  # noqa: E731
        sign = lambda: float(rng.choice([-1.0, 1.0]))  # noqa: E731
        sigma2 = lambda: rng.uniform(0.3, 2.0)  # noqa: E731
        P = _well_conditioned(2, rng)
        critical = [
            ("walk-uniform", [[sign()]], [[1.0]], _uniform([rng.uniform(0.5, 2.0)])),
            ("walk-gaussian", [[sign()]], [[1.0]], _gaussian([[sigma2()]])),
            ("rotation-uniform", rotation(theta()), np.eye(2), _uniform([rng.uniform(0.5, 2.0)] * 2)),
            ("rotation-gaussian", rotation(theta()), np.eye(2), _gaussian(sigma2() * np.eye(2))),
            ("similar-rotation", P @ rotation(theta()) @ np.linalg.inv(P), P, _gaussian(sigma2() * np.eye(2))),
        ]
        for label, A, B, noise in critical:
            self._full_pipeline(label, A, B, noise, "ReachableCritical", "logarithmic", cli_seed())

        # Rotation (+) 0.5, the composite case.  At the default 20000 samples
        # its certify spends about 90 s in level-set rejection sampling before
        # exiting 2.  At 1000 samples and the CLI's default seed it reaches the
        # same exit 2 at once; with other seeds that can take seconds.
        mixed = np.zeros((3, 3))
        mixed[:2, :2] = rotation(math.pi / 4)
        mixed[2, 2] = 0.5
        path = self._write_system("mixed", mixed, np.eye(3), _uniform([1.0] * 3))
        self._classify("mixed", path, "ReachableCritical", "composite")
        self.ops.append(
            CliOp(
                "certify mixed",
                ("certify", "--system", path, "--out", "out/mixed", "--samples", "1000"),
                "out/mixed/certify.json",
                _certify_check("composite", frozenset({0, 1})),
                defect=True,
            )
        )

        # Several systems per not-reachable regime: with these cheap classify
        # commands about two thirds of the operations are cheap, so the median
        # latency lies inside that group instead of on the gap above it.
        not_reachable = []
        for i in range(self.PER_NOT_REACHABLE_REGIME):
            not_reachable += [
                (f"unstable-{i}", _stable_matrix(2, rng.uniform(1.2, 2.0), rng), np.eye(2), "NotReachableUnstable"),
                (f"jordan-{i}", [[1.0, rng.uniform(0.5, 2.0)], [0.0, 1.0]], np.eye(2), "NotReachableJordan"),
                (f"dimension-{i}", _block_rotations(theta(), theta()), np.eye(4), "NotReachableDimension"),
                (f"degenerate-b-{i}", rotation(theta()), [[1.0], [1.0]], "InconclusiveAssumption"),
            ]
        for label, A, B, outcome in not_reachable:
            m = np.asarray(B).shape[1]
            path = self._write_system(label, A, B, _uniform([1.0] * m))
            self._classify(label, path, outcome, "none")

        for case in ("example1-certificate", "example2"):
            self.ops.append(
                CliOp(
                    f"repro {case}",
                    ("repro", case, "--out", "out/repro", "--seed", cli_seed()),
                    f"out/repro/repro-{case}.json",
                    _passed_check(),
                )
            )

    def _write_system(self, label, A, B, noise) -> str:
        n = np.asarray(A).shape[0]
        spec = {
            "A": np.asarray(A, dtype=float).tolist(),
            "B": np.asarray(B, dtype=float).tolist(),
            "noise": noise,
            "target": {"center": [0.0] * n, "radius": 1.0, "norm": "euclidean"},
        }
        with open(self.workdir / "sys" / f"{label}.json", "w") as fh:
            json.dump(spec, fh)
        return f"../sys/{label}.json"  # relative to the cycle directory

    def _classify(self, label, path, outcome, advice):
        self.ops.append(
            CliOp(
                f"classify {label}",
                ("classify", "--system", path, "--out", f"out/{label}"),
                f"out/{label}/classify.json",
                _classify_check(outcome, advice),
            )
        )

    def _full_pipeline(self, label, A, B, noise, outcome, kind, seed, verify_defect=False):
        path = self._write_system(label, A, B, noise)
        out = f"out/{label}"
        self._classify(label, path, outcome, kind)
        self.ops.append(
            CliOp(
                f"certify {label}",
                ("certify", "--system", path, "--out", out, "--seed", seed),
                f"{out}/certify.json",
                _certify_check(kind),
            )
        )
        self.ops.append(
            CliOp(
                f"verify {label}",
                ("verify", "--system", path, "--certificate", f"{out}/certificate.json", "--out", out, "--seed", seed),
                f"{out}/verify.json",
                _passed_check(frozenset({0, 1})),  # exit 1, not verified, is a completed check
                defect=verify_defect,
            )
        )

    def cycle(self) -> list[OpResult]:
        # Each cycle writes into a fresh directory, removed with the work
        # directory after the run.  Rewriting the previous cycle's files in
        # place made some writes wait tens of milliseconds on the file system,
        # and deleting them between cycles adds file-system work of its own.
        self.cycles += 1
        run_dir = self.workdir / f"cycle-{self.cycles}"
        run_dir.mkdir()
        os.chdir(run_dir)
        try:
            return [self._run(op, run_dir / op.report) for op in self.ops]
        finally:
            os.chdir(self.workdir)

    def _run(self, op: CliOp, report_path: Path) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(op.argv))
        except Exception as exc:  # a failed operation is counted, not fatal
            return OpResult(op.label, time.perf_counter() - start, "failed", note=f"raised {exc!r}")
        seconds = time.perf_counter() - start
        if code == 2:
            record = {"exit": 2, "stderr": err.getvalue().strip()}
            return OpResult(op.label, seconds, "defect" if op.defect else "failed", record, record["stderr"])
        report = {}
        if report_path.exists():
            with open(report_path) as fh:
                report = json.load(fh)
        try:
            problem = op.check(code, report)
        except KeyError as exc:
            problem = f"report lacks {exc}"
        record = {"exit": code, "report": {k: v for k, v in report.items() if k != "timings"}}
        return OpResult(op.label, seconds, "failed" if problem else "ok", record, problem)


def _block_rotations(a: float, b: float) -> np.ndarray:
    A = np.zeros((4, 4))
    A[:2, :2] = rotation(a)
    A[2:, 2:] = rotation(b)
    return A


# ---------------------------------------------------------------------------
# Tracing targets
# ---------------------------------------------------------------------------

CERTIFICATE_CLASSES = (
    certificates.QuadraticCertificate,
    certificates.LogCertificate,
    certificates.CompositeCertificate,
    certificates.CustomCertificate,
)


def _rows(out) -> int:
    return int(np.shape(out)[0])


def trace_targets() -> list[tracing.Target]:
    T = tracing.Target
    targets = [
        T(systems, "step_batch", "systems.step_batch", _rows),
        T(systems, "sample_noise", "systems.sample_noise", _rows),
        T(ensembles, "hitting_stats", "ensembles.hitting_stats"),
        T(ensembles, "ensemble_states", "ensembles.ensemble_states"),
        T(ensembles, "decay_exponent", "ensembles.decay_exponent"),
        T(linalg, "solve_discrete_lyapunov", "linalg.solve_discrete_lyapunov"),
        T(spectral, "analyze", "spectral.analyze"),
        T(classify_module, "classify", "classify.classify"),
        T(certificates, "synthesize_quadratic", "certificates.synthesize_quadratic"),
        T(certificates, "synthesize_logarithmic", "certificates.synthesize_logarithmic"),
        T(certificates, "synthesize_composite", "certificates.synthesize_composite"),
        T(verify, "mc_drift", "verify.mc_drift"),
        T(verify, "verify_drift", "verify.verify_drift"),
        T(verify, "verify_variant", "verify.verify_variant", lambda rep: sum(lv.samples for lv in rep.levels)),
        T(cli, "run", "cli.run", lambda code: int(code == 2)),
    ]
    for cls in CERTIFICATE_CLASSES:
        targets.append(T(cls, "drift_values", "certificates.drift_values", _rows))
        targets.append(T(cls, "variant_values", "certificates.variant_values"))
    return targets


SPAN_NAMES = tuple(dict.fromkeys(t.name for t in trace_targets()))


def per_layer_metrics(spans, cycles: int, overhead: float) -> dict:
    """Per-cycle figures for every traced function, zero where it never ran."""
    summary = tracing.summarize(spans)
    out = {}
    for name in SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0})
        out[f"{name}.calls"] = (row["calls"] / cycles, "count")
        out[f"{name}.total_s"] = (row["total_s"] / cycles, "s")
        out[f"{name}.self_s"] = (row["self_s"] / cycles, "s")
    step = summary.get("systems.step_batch", {"calls": 0, "value": 0})
    out["systems.step_batch.rows"] = (step["value"] / cycles, "count")
    out["systems.step_batch.rows_per_call"] = (step["value"] / step["calls"] if step["calls"] else 0.0, "count")
    out["systems.sample_noise.draws"] = (summary.get("systems.sample_noise", {"value": 0})["value"] / cycles, "count")
    # Level-set sampling inside verify_variant: accepted samples over the
    # points whose drift value it computed to accept or reject them.
    _, tried = tracing.direct_children(spans, "verify.verify_variant", "certificates.drift_values")
    accepted = summary.get("verify.verify_variant", {"value": 0})["value"]
    out["verify.level_accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")
    variant_calls, _ = tracing.direct_children(spans, "verify.verify_variant", "certificates.variant_values")
    out["verify.variant_values.calls"] = (variant_calls / cycles, "count")
    out["cli.run.exit2"] = (summary.get("cli.run", {"value": 0})["value"] / cycles, "count")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


# ---------------------------------------------------------------------------
# Environment and main loop
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count of the BLAS numpy loaded, queried from the library itself."""
    libdirs = [Path(np.__file__).parent.parent / "numpy.libs", Path(np.__file__).parent / ".dylibs"]
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for d in libdirs:
        for lib in glob.glob(str(d / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in names:
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "REACHCERT_THREADS": os.environ.get("REACHCERT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "reachcert": str(Path(rc.__file__).resolve().parent.relative_to(ROOT)),
    }


def build(name: str, seed: int, workdir: Path):
    if name == HittingLong.name:
        return HittingLong(seed)
    if name == OccupancyWide.name:
        return OccupancyWide(seed)
    return CertifySweep(seed, workdir)


WORKLOADS = (HittingLong.name, OccupancyWide.name, CertifySweep.name)


def _digest(records) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class Runner:
    """Runs whole cycles, checks that repeated cycles give identical results."""

    def __init__(self, workload):
        self.workload = workload
        self.first_records = None
        self.ops: list[OpResult] = []

    def cycle(self) -> float:
        results = self.workload.cycle()
        records = [r.record for r in results]
        if self.first_records is None:
            self.first_records = records
        else:
            for r, first in zip(results, self.first_records):
                if r.status != "failed" and r.record != first:
                    r.status = "failed"
                    r.note = "result differs from the first cycle with the same inputs"
                r.record = None  # keeps memory, and garbage collection, flat
        self.ops.extend(results)
        return sum(r.seconds for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="build the inputs and exit")
    args = parser.parse_args(argv)

    if Path(rc.__file__).resolve().parent != ROOT / "src" / "reachcert":
        print(f"error: reachcert imported from {rc.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = RECORDS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        workload = build(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        runner = Runner(workload)
        plain_s, traced_s = [], []
        recorder = tracing.Recorder() if args.trace else None
        start = time.perf_counter()
        while True:
            plain_s.append(runner.cycle())
            if recorder is not None:
                with recorder.installed(trace_targets(), "reachcert"):
                    traced_s.append(runner.cycle())
            if time.perf_counter() - start >= args.seconds:
                break
        elapsed = time.perf_counter() - start
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(),
            "elapsed_s": elapsed,
            "cycles": len(plain_s) + len(traced_s),
            "ops": [[r.label, r.seconds, r.status] for r in runner.ops],
            "problems": [f"{r.label}: {r.note}" for r in runner.ops if r.status != "ok"],
            "steps_per_op": workload.steps_per_op,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "digest": _digest(runner.first_records),
        }
        if recorder is not None:
            overhead = sum(traced_s) / sum(plain_s) - 1.0
            result["per_layer"] = per_layer_metrics(recorder.spans, len(traced_s), overhead)
            spans_path = RECORDS / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            recorder.write_csv(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
