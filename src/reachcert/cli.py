"""Command-line entry point: classify | certify | verify | simulate | repro.

Each run writes a JSON report (tool version, sha256 of the input file,
seed record, results, timings) to the output directory; `--csv` adds
trajectory or occupancy tables for external plotting.  Exit codes:
0 success, 1 verification or assertion failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import certificates as certs
from . import counterexamples as cx
from .classify import Outcome, classify
from .ensembles import decay_exponent, hitting_stats, simulate
from .systems import TargetBall, load_system
from .verify import default_shell_plan, verify_drift, verify_variant

__all__ = ["main", "run"]


@functools.cache
def _tool_version() -> str:
    # Imported here: importlib.metadata pulls in email, zipfile and socket.
    from importlib.metadata import PackageNotFoundError, version as pkg_version

    try:
        return pkg_version("reachcert")
    except PackageNotFoundError:
        return "unknown"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


class ConfigError(Exception):
    pass


def _resolve_target(args, from_file: TargetBall | None, dimension: int) -> TargetBall:
    """Target from CLI flags, falling back to the system file's target block."""
    if args.target_center is not None and args.target_radius is None:
        raise ConfigError("--target-center needs --target-radius")
    if args.target_radius is not None:
        center = np.zeros(dimension)
        if args.target_center is not None:
            center = np.asarray([float(v) for v in args.target_center.split(",")], dtype=float)
            if center.size != dimension:
                raise ConfigError(
                    f"--target-center has {center.size} entries; the system has dimension {dimension}"
                )
        return TargetBall(center=center, radius=args.target_radius)
    if from_file is not None:
        return from_file
    raise ConfigError("no target given: add a 'target' block to the system file or pass --target-radius")


def _parse_x0(args, dimension: int):
    if args.x0 is None:
        return np.zeros(dimension)
    x0 = np.asarray([float(v) for v in args.x0.split(",")], dtype=float)
    if x0.size != dimension:
        raise ConfigError(f"--x0 has {x0.size} entries; the system has dimension {dimension}")
    return x0


def _write_report(out_dir, name, report: dict, started: float) -> str:
    """Stamp the run's wall time since ``started`` into the report, then write it."""
    report["timings"] = {"wall_seconds": round(time.monotonic() - started, 6)}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _base_report(args) -> dict:
    report = {
        "tool": "reachcert",
        "version": _tool_version(),
        "seed": getattr(args, "seed", None),
    }
    system_path = getattr(args, "system", None)
    if system_path:
        report["input"] = {"path": system_path, "sha256": _sha256(system_path)}
    return report


def _drift_plan(args, cert, system):
    """The drift check's shell plan, with ``--samples`` noise draws per point
    on the Monte Carlo path: certify's ``verified`` flag and verify's drift
    report come from the same check."""
    return replace(default_shell_plan(cert, system.dimension, seed=args.seed), noise_samples=args.samples)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    started = time.monotonic()
    system, file_target = load_system(args.system)
    target = _resolve_target(args, file_target, system.dimension)
    verdict = classify(system, target)
    report = _base_report(args)
    report["classify"] = verdict.to_dict()
    path = _write_report(args.out, "classify.json", report, started)
    print(f"{verdict.outcome} (advice: {verdict.certificate_advice}) -> {path}")
    return 0


def _cmd_certify(args) -> int:
    started = time.monotonic()
    system, file_target = load_system(args.system)
    target = _resolve_target(args, file_target, system.dimension)
    verdict = classify(system, target)
    if verdict.certificate_advice == "none":
        raise ConfigError(f"no certificate exists for {verdict.outcome}")

    exit_code = 0
    if verdict.certificate_advice == "quadratic":
        cert = certs.synthesize_quadratic(system, target)
    elif verdict.certificate_advice == "logarithmic":
        cert = certs.synthesize_logarithmic(system, target, seed=args.seed)
    else:
        cert = certs.synthesize_composite(system, target, seed=args.seed)
        # A failed drift check settles the flag, so the variant check (whose
        # level sets may be past sampling, as for a near-critical stable part)
        # runs only after a pass.
        drift = verify_drift(system, cert, plan=_drift_plan(args, cert, system))
        verified = drift.passed and verify_variant(system, cert, target, samples=args.samples, seed=args.seed).passed
        cert = replace(cert, verified=verified)
        if not cert.verified:
            exit_code = 1

    report = _base_report(args)
    report["classify"] = verdict.to_dict()
    report["certificate"] = cert.to_dict()
    cert_path = os.path.join(args.out, "certificate.json")
    os.makedirs(args.out, exist_ok=True)
    certs.save_certificate(cert, cert_path)
    report["certificate_file"] = cert_path
    path = _write_report(args.out, "certify.json", report, started)
    status = "flagged-unverified" if exit_code else "ok"
    print(f"{cert.kind} certificate [{status}] -> {cert_path} ({path})")
    return exit_code


def _cmd_verify(args) -> int:
    started = time.monotonic()
    system, file_target = load_system(args.system)
    target = _resolve_target(args, file_target, system.dimension)
    cert = certs.load_certificate(args.certificate)
    drift = verify_drift(system, cert, plan=_drift_plan(args, cert, system))
    variant = verify_variant(system, cert, target, samples=args.samples, seed=args.seed)
    report = _base_report(args)
    report["certificate_input"] = {"path": args.certificate, "sha256": _sha256(args.certificate)}
    report["drift"] = drift.to_dict()
    report["variant"] = variant.to_dict()
    passed = drift.passed and variant.passed
    report["passed"] = passed
    path = _write_report(args.out, "verify.json", report, started)
    print(f"drift {'pass' if drift.passed else 'FAIL'}, variant "
          f"{'pass' if variant.passed else 'FAIL'} -> {path}")
    return 0 if passed else 1


def _cmd_simulate(args) -> int:
    started = time.monotonic()
    system, file_target = load_system(args.system)
    target = _resolve_target(args, file_target, system.dimension)
    x0 = _parse_x0(args, system.dimension)
    stats = hitting_stats(
        system, target, x0, n_traj=args.trajectories, horizon=args.horizon, base_seed=args.seed
    )
    report = _base_report(args)
    report["x0"] = x0.tolist()
    report["ensemble"] = stats.to_dict()

    os.makedirs(args.out, exist_ok=True)
    if args.csv:
        n_dump = min(args.trajectories, args.csv_trajectories)
        traj_path = os.path.join(args.out, "trajectories.csv")
        with open(traj_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trajectory_id", "k"] + [f"x{i+1}" for i in range(system.dimension)])
            for tid in range(n_dump):
                traj = simulate(system, x0, args.horizon, args.seed, tid)
                for k, state in enumerate(traj.states):
                    writer.writerow([tid, k] + [repr(float(v)) for v in state])
        report["trajectory_csv"] = traj_path

    if args.decay:
        fit = decay_exponent(
            system, target, n_traj=args.trajectories, base_seed=args.seed, x0=x0
        )
        report["decay"] = fit.to_dict()
        if args.csv:
            occ_path = os.path.join(args.out, "occupancy.csv")
            with open(occ_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["k", "p_hat"])
                for k, p in zip(fit.ks, fit.p_hat):
                    writer.writerow([k, repr(p)])
            report["occupancy_csv"] = occ_path

    path = _write_report(args.out, "simulate.json", report, started)
    print(f"hit_fraction {stats.hit_fraction:.4f}, divergence_fraction "
          f"{stats.divergence_fraction:.4f} -> {path}")
    return 0


def _cmd_repro(args) -> int:
    started = time.monotonic()
    fields, passed = cx.REPRO_CASES[args.case](args.samples, args.seed)
    report = {**_base_report(args), **fields, "passed": passed}
    path = _write_report(args.out, f"repro-{args.case}.json", report, started)
    print(f"{args.case}: {'pass' if passed else 'FAIL'} -> {path}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_common(p):
    p.add_argument("--system", required=True, help="system description JSON file")
    p.add_argument("--target-radius", type=float, default=None)
    p.add_argument("--target-center", default=None, help="comma-separated coordinates")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", default=".", help="output directory for reports")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args returns a fresh
    namespace on every call, so one parser serves every command."""
    parser = argparse.ArgumentParser(
        prog="reachcert",
        description="Almost-sure reachability: classification, certificates, verification, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide reachability from the spectrum and excitation")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("certify", help="synthesize a drift/variant certificate")
    _add_common(p)
    p.add_argument("--samples", type=_positive_int, default=20_000)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="check V1/V2 for a certificate file")
    _add_common(p)
    p.add_argument("--certificate", required=True, help="certificate JSON file")
    p.add_argument("--samples", type=_positive_int, default=20_000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="ensemble hitting/divergence statistics")
    _add_common(p)
    p.add_argument("--x0", default=None, help="comma-separated initial state (default: origin)")
    p.add_argument("--horizon", type=_nonnegative_int, default=10_000)
    p.add_argument("--trajectories", type=_positive_int, default=1000)
    p.add_argument("--decay", action="store_true", help="fit the occupancy decay exponent")
    p.add_argument("--csv", action="store_true", help="emit trajectory/occupancy CSVs")
    p.add_argument("--csv-trajectories", type=_nonnegative_int, default=10, help="trajectories to dump to CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("repro", help="reproduce the counterexample constructions")
    p.add_argument("case", choices=list(cx.REPRO_CASES))
    p.add_argument("--samples", type=_positive_int, default=20_000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_repro)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except certs.SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
