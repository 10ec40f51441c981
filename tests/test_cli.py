import json
import time

import numpy as np
import pytest

from conftest import rotation_matrix
from reachcert import counterexamples
from reachcert.cli import build_parser, run


def _write_system(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def random_walk_file(tmp_path):
    return _write_system(
        tmp_path,
        "rw.json",
        {
            "A": [[1.0]],
            "B": [[1.0]],
            "noise": {"kind": "uniform-box", "half_widths": [1.0]},
            "target": {"center": [0.0], "radius": 2.0, "norm": "euclidean"},
        },
    )


@pytest.fixture
def stable_file(tmp_path):
    return _write_system(
        tmp_path,
        "stable.json",
        {
            "A": [[0.5, 0.1], [0.0, 0.3]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "noise": {"kind": "uniform-box", "half_widths": [1.0, 1.0]},
            "target": {"center": [0.0, 0.0], "radius": 1.0, "norm": "euclidean"},
        },
    )


@pytest.fixture
def unstable_file(tmp_path):
    return _write_system(
        tmp_path,
        "unstable.json",
        {
            "A": [[2.0]],
            "B": [[1.0]],
            "noise": {"kind": "uniform-box", "half_widths": [1.0]},
            "target": {"center": [0.0], "radius": 1.0, "norm": "euclidean"},
        },
    )


class TestClassifyCommand:
    def test_random_walk_verdict(self, random_walk_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run(["classify", "--system", random_walk_file, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert report["classify"]["outcome"] == "ReachableCritical"
        assert report["input"]["sha256"]
        assert "ReachableCritical" in capsys.readouterr().out

    def test_missing_system_file(self, tmp_path):
        assert run(["classify", "--system", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_missing_target(self, tmp_path):
        path = _write_system(
            tmp_path,
            "notarget.json",
            {"A": [[1.0]], "B": [[1.0]], "noise": {"kind": "uniform-box", "half_widths": [1.0]}},
        )
        assert run(["classify", "--system", path, "--out", str(tmp_path)]) == 2

    def test_target_flag_overrides(self, tmp_path):
        path = _write_system(
            tmp_path,
            "notarget.json",
            {"A": [[1.0]], "B": [[1.0]], "noise": {"kind": "uniform-box", "half_widths": [1.0]}},
        )
        assert run(
            ["classify", "--system", path, "--target-radius", "1.0", "--out", str(tmp_path)]
        ) == 0

    def test_target_center_needs_a_radius(self, random_walk_file, tmp_path, capsys):
        # Without --target-radius the centre would be dropped for the file's target.
        argv = ["classify", "--system", random_walk_file, "--target-center", "5", "--out", str(tmp_path)]
        assert run(argv) == 2
        assert "--target-center needs --target-radius" in capsys.readouterr().err
        assert not (tmp_path / "classify.json").exists()

    def test_byte_identical_reports_modulo_timing(self, random_walk_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run(["classify", "--system", random_walk_file, "--out", out]) == 0
            report = json.loads((tmp_path / name / "classify.json").read_text())
            report.pop("timings")
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]


class TestCertifyVerifyRoundTrip:
    def test_stable_round_trip(self, stable_file, tmp_path):
        out = str(tmp_path / "out")
        assert run(["certify", "--system", stable_file, "--out", out]) == 0
        cert_path = str(tmp_path / "out" / "certificate.json")
        assert (
            run(
                [
                    "verify",
                    "--system",
                    stable_file,
                    "--certificate",
                    cert_path,
                    "--samples",
                    "2000",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["passed"] is True
        assert report["drift"]["exact"] is True

    def test_no_certificate_for_unstable(self, unstable_file, tmp_path, capsys):
        assert run(["certify", "--system", unstable_file, "--out", str(tmp_path)]) == 2
        assert "no certificate exists" in capsys.readouterr().err

    def test_bad_certificate_schema(self, stable_file, tmp_path):
        bad = tmp_path / "bad_cert.json"
        bad.write_text(
            json.dumps(
                {
                    "kind": "quadratic",
                    "Q": [[1.0, 2.0], [2.0, 1.0]],
                    "compact_radius_sq": 1.0,
                    "r0": 0.5,
                    "b": 0.1,
                    "delta": 0.05,
                }
            )
        )
        assert (
            run(
                [
                    "verify",
                    "--system",
                    stable_file,
                    "--certificate",
                    str(bad),
                    "--out",
                    str(tmp_path),
                ]
            )
            == 2
        )

    def test_failing_certificate_exits_one(self, random_walk_file, tmp_path):
        # Identity Q on the random walk: positive drift everywhere.
        bad = tmp_path / "wrong.json"
        bad.write_text(
            json.dumps(
                {
                    "kind": "quadratic",
                    "Q": [[1.0]],
                    "compact_radius_sq": 1.0,
                    "r0": 0.9,
                    "b": 0.5,
                    "delta": 0.05,
                }
            )
        )
        assert (
            run(
                [
                    "verify",
                    "--system",
                    random_walk_file,
                    "--certificate",
                    str(bad),
                    "--samples",
                    "2000",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 1
        )


class TestSimulateCommand:
    def test_report_and_csv(self, random_walk_file, tmp_path):
        out = str(tmp_path / "out")
        rc = run(
            [
                "simulate",
                "--system",
                random_walk_file,
                "--x0",
                "5",
                "--horizon",
                "2000",
                "--trajectories",
                "50",
                "--csv",
                "--csv-trajectories",
                "2",
                "--out",
                out,
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert report["ensemble"]["trajectories"] == 50
        lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "trajectory_id,k,x1"
        assert len(lines) == 1 + 2 * 2001

    def test_decay_occupancy_csv(self, random_walk_file, tmp_path):
        out = str(tmp_path / "out")
        rc = run(
            [
                "simulate",
                "--system",
                random_walk_file,
                "--horizon",
                "10",
                "--trajectories",
                "2000",
                "--decay",
                "--csv",
                "--csv-trajectories",
                "0",
                "--out",
                out,
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert "slope" in report["decay"]
        lines = (tmp_path / "out" / "occupancy.csv").read_text().splitlines()
        assert lines[0] == "k,p_hat"


class TestReproCommand:
    def test_example2(self, tmp_path, capsys):
        assert run(["repro", "example2", "--samples", "20000", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "repro-example2.json").read_text())
        assert report["passed"] is True
        assert report["example2"]["quadratics"][0]["delta_v"] == pytest.approx(1.0 / 6.0)

    def test_wall_seconds_covers_the_work(self, tmp_path, monkeypatch):
        real = counterexamples.example2_quadratic_failure

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(counterexamples, "example2_quadratic_failure", slow)
        assert run(["repro", "example2", "--samples", "2000", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "repro-example2.json").read_text())
        assert report["timings"]["wall_seconds"] >= 0.3

    def test_example1_refute(self, tmp_path):
        assert run(["repro", "example1-refute", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "repro-example1-refute.json").read_text())
        assert all(row["witness_i"] is not None for row in report["refutations"])

    def test_example1_bounds(self, tmp_path):
        assert run(["repro", "example1-bounds", "--samples", "2000", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "repro-example1-bounds.json").read_text())
        assert all(c["fraction_within_bounds"] == 1.0 for c in report["bounds"]["cases"])

    def test_example1_certificate(self, tmp_path):
        assert (
            run(["repro", "example1-certificate", "--samples", "3000", "--out", str(tmp_path)]) == 0
        )
        report = json.loads((tmp_path / "repro-example1-certificate.json").read_text())
        assert report["drift"]["passed"] is True
        assert report["variant"]["passed"] is True


@pytest.mark.parametrize("case", list(counterexamples.REPRO_CASES))
def test_repro_case_passes_and_repeats(case, tmp_path, capsys):
    """Every registered repro case exits 0 at a small sample count, and two
    runs in one process write reports equal outside ``timings``."""
    reports = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        assert run(["repro", case, "--samples", "2000", "--seed", "3", "--out", str(out)]) == 0
        report = json.loads((out / f"repro-{case}.json").read_text())
        assert report.pop("timings")["wall_seconds"] >= 0.0
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["passed"] is True and reports[0]["seed"] == 3


def _law(kind, m):
    if kind == "uniform":
        return {"kind": "uniform-box", "half_widths": [1.0] * m}
    return {"kind": "gaussian", "cov": np.eye(m).tolist()}


VERDICT_SYSTEMS = {
    # name: (A, target radius)
    "stable-2d": ([[0.5, 0.1], [0.0, 0.3]], 1.0),
    "walk-1d": ([[1.0]], 2.0),
    "rotation-2d": (rotation_matrix(np.pi / 4).tolist(), 1.0),
}


@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
@pytest.mark.parametrize("name", VERDICT_SYSTEMS)
def test_certify_then_verify_passes(name, kind, tmp_path):
    """A certificate that certify issues must pass verify: a pass-to-fail
    flip of either verdict shows here as exit 1."""
    A, radius = VERDICT_SYSTEMS[name]
    n = len(A)
    system = _write_system(
        tmp_path,
        "system.json",
        {
            "A": A,
            "B": np.eye(n).tolist(),
            "noise": _law(kind, n),
            "target": {"center": [0.0] * n, "radius": radius, "norm": "euclidean"},
        },
    )
    out = str(tmp_path / "out")
    assert run(["certify", "--system", system, "--out", out]) == 0
    cert = str(tmp_path / "out" / "certificate.json")
    assert run(["verify", "--system", system, "--certificate", cert, "--out", out]) == 0
    assert json.loads((tmp_path / "out" / "verify.json").read_text())["passed"] is True


def test_consecutive_commands_see_their_own_defaults(stable_file, tmp_path):
    """The parser is built once per process; no flag of one command may
    leak into the next one's defaults."""
    assert build_parser() is build_parser()
    out = {name: str(tmp_path / name) for name in ("certify", "verify-flags", "verify", "classify")}
    assert run(["certify", "--system", stable_file, "--seed", "7", "--out", out["certify"]]) == 0
    cert = str(tmp_path / "certify" / "certificate.json")
    argv = ["verify", "--system", stable_file, "--certificate", cert]
    assert run([*argv, "--samples", "3000", "--seed", "3", "--out", out["verify-flags"]]) == 0
    assert run([*argv, "--out", out["verify"]]) == 0
    assert run(["classify", "--system", stable_file, "--out", out["classify"]]) == 0

    def report(name, file):
        return json.loads((tmp_path / name / file).read_text())

    assert report("certify", "certify.json")["seed"] == 7
    flagged, default = report("verify-flags", "verify.json"), report("verify", "verify.json")
    assert (flagged["seed"], default["seed"]) == (3, 0)
    assert {lv["samples"] for lv in flagged["variant"]["levels"]} == {3000}
    assert {lv["samples"] for lv in default["variant"]["levels"]} == {20_000}
    assert report("classify", "classify.json")["seed"] == 0


def test_mixed_spectrum_certify_and_verify_complete(tmp_path):
    """rotation(pi/4) (+) 0.5 takes the composite candidate: certify and
    verify finish with a verdict (exit 0 or 1), never a usage error."""
    A = np.zeros((3, 3))
    A[:2, :2] = rotation_matrix(np.pi / 4)
    A[2, 2] = 0.5
    system = _write_system(
        tmp_path,
        "mixed.json",
        {
            "A": A.tolist(),
            "B": np.eye(3).tolist(),
            "noise": _law("uniform", 3),
            "target": {"center": [0.0] * 3, "radius": 1.0, "norm": "euclidean"},
        },
    )
    out = tmp_path / "out"
    code = run(["certify", "--system", system, "--out", str(out), "--samples", "1000"])
    assert code in (0, 1)
    certificate = json.loads((out / "certify.json").read_text())["certificate"]
    assert certificate["kind"] == "composite"
    assert certificate["verified"] == (code == 0)
    argv = ["verify", "--system", system, "--certificate", str(out / "certificate.json")]
    code = run([*argv, "--out", str(out), "--samples", "1000"])
    assert code in (0, 1)
    assert json.loads((out / "verify.json").read_text())["passed"] == (code == 0)


def _mixed_a(stable_eigenvalue):
    A = np.zeros((3, 3))
    A[:2, :2] = rotation_matrix(np.pi / 4)
    A[2, 2] = stable_eigenvalue
    return A.tolist()


@pytest.mark.parametrize(
    "A, kind",
    [
        ([[0.5, 0.1], [0.0, 0.3]], "quadratic"),
        (rotation_matrix(np.pi / 3).tolist(), "logarithmic"),
        (_mixed_a(0.5), "composite"),
    ],
    ids=["quadratic", "logarithmic", "composite"],
)
def test_equal_seed_reports_match(A, kind, tmp_path):
    """certify then verify, twice in one process: the reports agree outside
    `timings`, so no cache (Gauss rules, identity factors) carries state
    from one command into the next."""
    n = len(A)
    system = _write_system(
        tmp_path,
        "system.json",
        {
            "A": A,
            "B": np.eye(n).tolist(),
            "noise": _law("uniform", n),
            "target": {"center": [0.0] * n, "radius": 1.0, "norm": "euclidean"},
        },
    )
    out = tmp_path / "out"
    cert = str(out / "certificate.json")
    reports = []
    for _ in range(2):
        codes = (
            run(["certify", "--system", system, "--out", str(out), "--samples", "1000"]),
            run(["verify", "--system", system, "--certificate", cert, "--out", str(out), "--samples", "1000"]),
        )
        pair = [json.loads((out / name).read_text()) for name in ("certify.json", "verify.json")]
        for report in pair:
            report.pop("timings")
        reports.append((codes, pair))
    assert reports[0][1][0]["certificate"]["kind"] == kind
    assert reports[0] == reports[1]


def test_equal_seed_simulate_matches(tmp_path):
    """simulate --csv twice with one seed, in one process: the reports agree
    outside `timings` and the trajectory CSVs are byte-identical."""
    system = _write_system(
        tmp_path,
        "system.json",
        {
            "A": rotation_matrix(np.pi / 3).tolist(),
            "B": [[1.0, 0.5], [0.0, 1.0]],
            "noise": _law("gaussian", 2),
            "target": {"center": [0.0, 0.0], "radius": 1.0, "norm": "euclidean"},
        },
    )
    out = tmp_path / "out"
    argv = ["simulate", "--system", system, "--x0", "3,1", "--horizon", "1500", "--trajectories", "40",
            "--csv", "--csv-trajectories", "3", "--seed", "5", "--out", str(out)]
    runs = []
    for _ in range(2):
        assert run(argv) == 0
        report = json.loads((out / "simulate.json").read_text())
        report.pop("timings")
        runs.append((report, (out / "trajectories.csv").read_bytes()))
    assert runs[0][0]["ensemble"]["hit_fraction"] > 0.0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command", ["certify", "verify", "repro"])
def test_samples_must_be_positive(command, value, stable_file, tmp_path, capsys):
    """A non-positive --samples is a usage error that names the flag, not
    an error deep inside numpy."""
    argv = {
        "certify": ["certify", "--system", stable_file],
        "verify": ["verify", "--system", stable_file, "--certificate", str(tmp_path / "certificate.json")],
        "repro": ["repro", "example2"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--samples", value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument --samples: expected a positive integer, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "2.5", "one"])
@pytest.mark.parametrize("command", ["classify", "certify", "verify", "simulate", "repro"])
def test_seed_must_be_a_nonnegative_integer(command, value, stable_file, tmp_path, capsys):
    """Every subcommand rejects a --seed out of range as a usage error that
    names the flag, before anything runs: `classify` and `repro` used to
    record `seed: -1` and exit 0, the others to fail inside numpy."""
    argv = {
        "classify": ["classify", "--system", stable_file],
        "certify": ["certify", "--system", stable_file],
        "verify": ["verify", "--system", stable_file, "--certificate", str(tmp_path / "certificate.json")],
        "simulate": ["simulate", "--system", stable_file],
        "repro": ["repro", "example1-refute"],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--seed", value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --seed: expected a non-negative integer, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, expected",
    [
        ("--trajectories", "0", "a positive integer"),
        ("--trajectories", "-5", "a positive integer"),
        ("--horizon", "-3", "a non-negative integer"),
        ("--csv-trajectories", "-2", "a non-negative integer"),
    ],
)
def test_simulate_counts_are_checked_by_the_parser(flag, value, expected, random_walk_file, tmp_path, capsys):
    """A count out of range is a usage error that names the flag, before any
    array is built or any CSV is written."""
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--system", random_walk_file, "--csv", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: expected {expected}, got '{value}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_near_unit_stable_part_certifies_past_the_split(tmp_path, capsys):
    """rotation(pi/4) (+) (1 - 5e-8): classify counts a unit dimension of 2,
    and certify splits along it, so the composite candidate is built and
    flagged unverified rather than failing to split; verify on the file it
    writes fails the check (exit 1)."""
    A = np.zeros((3, 3))
    A[:2, :2] = rotation_matrix(np.pi / 4)
    A[2, 2] = 1.0 - 5e-8
    system = _write_system(
        tmp_path,
        "near.json",
        {
            "A": A.tolist(),
            "B": np.eye(3).tolist(),
            "noise": _law("uniform", 3),
            "target": {"center": [0.0] * 3, "radius": 1.5, "norm": "euclidean"},
        },
    )
    out = tmp_path / "out"
    assert run(["certify", "--system", system, "--out", str(out), "--samples", "1000"]) == 1
    assert "synthesis failed" not in capsys.readouterr().err
    report = json.loads((out / "certify.json").read_text())
    assert report["classify"]["spectral"]["dim_EA"] == 2
    assert report["certificate"]["unit_dim"] == 2
    assert report["certificate"]["verified"] is False
    # Its default variant levels add the stable part's b (about 1e7), past
    # what exp(2 r^2) can hold: each such level fails unsampled, so verify
    # gives the failed verdict (exit 1) rather than a usage error.
    argv = ["verify", "--system", system, "--certificate", str(out / "certificate.json")]
    assert run([*argv, "--out", str(out), "--samples", "1000"]) == 1
    assert "error" not in capsys.readouterr().err
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is False and report["variant"]["passed"] is False
    levels = report["variant"]["levels"]
    assert [(lv["samples"], lv["epsilon_hat"]) for lv in levels] == [(0, 0.0)] * 3
    assert all(lv["level"] > 1e6 for lv in levels)


@pytest.mark.parametrize("flag", ["--unit-tol", "--rank-tol"])
@pytest.mark.parametrize("command", ["classify", "certify"])
def test_tolerance_flags_are_unknown(command, flag, tmp_path, capsys):
    """The tolerances are constants, so a tolerance flag is a usage error.
    On A = [[1.5]], `classify --unit-tol -1` used to print ReachableStable
    and exit 0."""
    system = _write_system(
        tmp_path,
        "a15.json",
        {
            "A": [[1.5]],
            "B": [[1.0]],
            "noise": {"kind": "uniform-box", "half_widths": [1.0]},
            "target": {"center": [0.0], "radius": 1.0},
        },
    )
    with pytest.raises(SystemExit) as exc:
        run([command, "--system", system, flag, "-1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} -1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["a15.json"]


def test_null_certificate_constant_is_a_usage_error(stable_file, tmp_path, capsys):
    """A JSON null where a certificate file needs a number exits 2 and names
    the field, instead of a TypeError traceback."""
    cert = tmp_path / "null.json"
    cert.write_text(
        json.dumps(
            {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "compact_radius_sq": 1.0,
             "r0": None, "b": 0.1, "delta": 0.05}
        )
    )
    argv = ["verify", "--system", stable_file, "--certificate", str(cert), "--out", str(tmp_path)]
    assert run(argv) == 2
    assert "r0 must be a number, got None" in capsys.readouterr().err


def test_null_target_radius_is_a_usage_error(tmp_path, capsys):
    system = _write_system(
        tmp_path,
        "nullradius.json",
        {
            "A": [[0.5]],
            "B": [[1.0]],
            "noise": {"kind": "uniform-box", "half_widths": [1.0]},
            "target": {"center": [0.0], "radius": None},
        },
    )
    assert run(["classify", "--system", system, "--out", str(tmp_path)]) == 2
    assert "radius must be a number, got None" in capsys.readouterr().err


def _mixed_system_file(tmp_path):
    return _write_system(
        tmp_path,
        "mixed.json",
        {
            "A": _mixed_a(0.5),
            "B": np.eye(3).tolist(),
            "noise": _law("uniform", 3),
            "target": {"center": [0.0] * 3, "radius": 1.0, "norm": "euclidean"},
        },
    )


def _swap_parts(d):
    d["unit"], d["stable"] = d["stable"], d["unit"]


def _quadratic_unit(d):
    d["unit"] = {"kind": "quadratic", "Q": np.eye(2).tolist(), "compact_radius_sq": 1.0, "r0": 0.5, "b": 0.1,
                 "delta": 0.05}


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_swap_parts, "composite unit"),
        (_quadratic_unit, "composite unit"),
        (lambda d: d.update(unit_dim=5), "composite unit_dim"),
        (lambda d: d.update(stable=3.0), "certificate must be a JSON object"),
    ],
    ids=["swapped-parts", "quadratic-unit", "unit-dim-5", "number-part"],
)
def test_miskinded_composite_is_a_usage_error(mutate, field, tmp_path, capsys):
    """A composite file whose parts do not fit its kinds or its unit_dim
    exits 2 naming the field; a quadratic unit part of the right shape used
    to load and then crash verify with an AttributeError."""
    system = _mixed_system_file(tmp_path)
    out = tmp_path / "out"
    assert run(["certify", "--system", system, "--out", str(out), "--samples", "1000"]) in (0, 1)
    d = json.loads((out / "certificate.json").read_text())
    mutate(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    capsys.readouterr()
    assert run(["verify", "--system", system, "--certificate", str(bad), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("kind, legacy", [("quadratic", "noise_set_bound"), ("logarithmic", "epsilon")])
def test_files_with_dropped_keys_verify_the_same(kind, legacy, stable_file, random_walk_file, tmp_path):
    """A certificate file that still carries a dropped key (noise_set_bound,
    epsilon) loads, and verify reports on it as on the file without it."""
    system = stable_file if kind == "quadratic" else random_walk_file
    assert run(["certify", "--system", system, "--out", str(tmp_path / "cert")]) == 0
    plain = tmp_path / "cert" / "certificate.json"
    d = json.loads(plain.read_text())
    assert d["kind"] == kind and legacy not in d
    old = tmp_path / "old.json"
    old.write_text(json.dumps(dict(d, **{legacy: 0.25})))
    reports = []
    for name, cert in (("plain", plain), ("old", old)):
        out = tmp_path / name
        argv = ["verify", "--system", system, "--certificate", str(cert), "--samples", "2000", "--out", str(out)]
        assert run(argv) == 0
        report = json.loads((out / "verify.json").read_text())
        report.pop("timings"), report.pop("certificate_input")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.fixture(scope="module")
def mixed_certificate(tmp_path_factory):
    """(system file, certificate dict) of the composite that certify writes
    for rotation(pi/4) (+) 0.5."""
    tmp_path = tmp_path_factory.mktemp("mixed")
    system = _mixed_system_file(tmp_path)
    assert run(["certify", "--system", system, "--out", str(tmp_path), "--samples", "1000"]) in (0, 1)
    return system, json.loads((tmp_path / "certificate.json").read_text())


def _set(path, key):
    """A mutation that puts a JSON object where ``path`` (keys into the
    file) leads to ``key``."""

    def mutate(d):
        for step in path:
            d = d[step]
        d[key] = {"a": 1}

    return mutate


@pytest.mark.parametrize(
    "file, mutate, key",
    [
        ("system", _set((), "A"), "A"),
        ("system", _set((), "B"), "B"),
        ("system", _set(("noise",), "half_widths"), "half_widths"),
        ("gaussian-system", _set(("noise",), "cov"), "cov"),
        ("system", _set(("target",), "center"), "center"),
        ("system", _set(("target", "norm"), "weighted"), "weighted"),
        ("quadratic", _set((), "Q"), "Q"),
        ("composite", _set((), "transform"), "transform"),
        ("composite", _set((), "M"), "M"),
        ("composite", _set(("stable",), "Q"), "Q"),
        ("composite", _set(("unit",), "Q_star"), "Q_star"),
    ],
    ids=["A", "B", "half_widths", "cov", "center", "weighted", "Q", "transform", "M", "stable-Q", "unit-Q_star"],
)
def test_matrix_field_given_as_object_is_a_usage_error(file, mutate, key, mixed_certificate, tmp_path, capsys):
    """A JSON object where a system or certificate file needs an array of
    numbers exits 2 and names the field, instead of a TypeError traceback."""
    mixed_system, composite = mixed_certificate
    system = {
        "A": [[0.5, 0.1], [0.0, 0.3]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "noise": {"kind": "uniform-box", "half_widths": [1.0, 1.0]},
        "target": {"center": [0.0, 0.0], "radius": 1.0, "norm": {"weighted": [[1.0, 0.0], [0.0, 1.0]]}},
    }
    if file == "gaussian-system":
        system["noise"] = _law("gaussian", 2)
    quadratic = {"kind": "quadratic", "Q": np.eye(2).tolist(), "compact_radius_sq": 1.0, "r0": 0.5, "b": 0.1,
                 "delta": 0.05}
    if file in ("system", "gaussian-system"):
        mutate(system)
        path = _write_system(tmp_path, "bad-system.json", system)
        argv = ["classify", "--system", path]
    else:
        cert = json.loads(json.dumps(composite)) if file == "composite" else quadratic
        mutate(cert)
        system_path = mixed_system if file == "composite" else _write_system(tmp_path, "system.json", system)
        argv = ["verify", "--system", system_path, "--certificate", _write_system(tmp_path, "bad.json", cert)]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be an array of numbers, got {{'a': 1}}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"A": [[1.0]], "B": [[1.0]], "noise": [1.0]}, "noise"),
        ({"A": [[1.0]], "B": [[1.0]], "noise": {"kind": "uniform-box", "half_widths": [1.0]}, "target": 3}, "target"),
        ({"transition": 5, "noise": {"kind": "uniform-box", "half_widths": [1.0]}}, "transition"),
        ([1, 2], "a system file"),
    ],
    ids=["noise", "target", "transition", "top-level"],
)
def test_system_file_of_the_wrong_shape_is_a_usage_error(payload, field, tmp_path, capsys):
    """A system file whose top level, noise or target is not a JSON object,
    or whose transition is not a list, exits 2 naming the field instead of
    an AttributeError or TypeError traceback."""
    path = _write_system(tmp_path, "bad-system.json", payload)
    assert run(["classify", "--system", path, "--out", str(tmp_path / "out")]) == 2
    assert f"{field} must be a" in capsys.readouterr().err


def test_certify_and_verify_run_the_same_drift_check(tmp_path, monkeypatch):
    """certify's verified flag on a composite comes from the drift check that
    verify runs: both commands hand verify_drift the same ShellPlan."""
    from reachcert import cli

    plans = []

    def recording(system, cert, plan=None):
        plans.append(plan)
        return verify_drift(system, cert, plan=plan)

    verify_drift = cli.verify_drift
    monkeypatch.setattr(cli, "verify_drift", recording)
    system = _mixed_system_file(tmp_path)
    out = tmp_path / "out"
    common = ["--system", system, "--out", str(out), "--samples", "3000", "--seed", "4"]
    assert run(["certify", *common]) in (0, 1)
    assert run(["verify", *common, "--certificate", str(out / "certificate.json")]) in (0, 1)
    assert len(plans) == 2 and plans[0] is not None
    assert plans[0] == plans[1]
    assert plans[0].noise_samples == 3000 and plans[0].seed == 4


def test_transition_that_runs_code_is_a_usage_error(tmp_path, capsys):
    """A transition is checked as a polynomial before anything of it is
    compiled, so a file whose transition would run Python exits 2 and
    writes nothing."""
    marker = tmp_path / "pwned"
    payload = {
        "transition": [f"x1 + 0*__import__('pathlib').Path({str(marker)!r}).touch()"],
        "noise": {"kind": "uniform-box", "half_widths": [1.0]},
        "target": {"center": [0.0], "radius": 1.0},
    }
    path = _write_system(tmp_path, "evil.json", payload)
    assert run(["classify", "--system", path, "--out", str(tmp_path / "out")]) == 2
    assert "is not a polynomial in x1, w1" in capsys.readouterr().err
    assert not marker.exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("expr", ["x1 + 9**99999999*w1", "x1 + " + "9" * 400 + "*w1"], ids=["power", "int-literal"])
def test_transition_beyond_the_doubles_is_a_usage_error(expr, tmp_path, capsys):
    """A power above MAX_POWER, which would build a huge int on every step,
    and an int constant beyond the doubles exit 2 at once, naming the
    transition, rather than hanging or failing with an OverflowError."""
    payload = {"transition": [expr], "noise": {"kind": "uniform-box", "half_widths": [1.0]}}
    path = _write_system(tmp_path, "huge.json", payload)
    start = time.perf_counter()
    code = run(["simulate", "--system", path, "--x0", "1", "--horizon", "10", "--trajectories", "10", "--out", str(tmp_path / "out")])
    assert code == 2 and time.perf_counter() - start < 5.0
    assert f"transition {expr!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("terms", [1000, 5000])
def test_deeply_nested_transition_is_a_usage_error(terms, tmp_path, capsys):
    """A sum of many terms nests its syntax tree as deep as it is long.
    Past what Python parses, walks or compiles it exits 2 naming the
    transition, not with a RecursionError traceback."""
    expr = "+".join(["x1"] * terms)
    payload = {"transition": [expr], "noise": {"kind": "uniform-box", "half_widths": [1.0]}}
    path = _write_system(tmp_path, "deep.json", payload)
    code = run(["simulate", "--system", path, "--x0", "1", "--horizon", "10", "--trajectories", "10", "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"transition {expr!r} is nested too deeply" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "many"])
def test_bad_worker_count_is_a_usage_error(value, random_walk_file, tmp_path, monkeypatch, capsys):
    """A REACHCERT_THREADS that is not a positive integer exits 2 naming the
    variable, rather than running on one worker."""
    monkeypatch.setenv("REACHCERT_THREADS", value)
    code = run(["simulate", "--system", random_walk_file, "--horizon", "10", "--trajectories", "10", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "REACHCERT_THREADS must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["classify", "certify"])
def test_polynomial_system_needs_a_linear_command(command, tmp_path, capsys):
    """classify and certify decide linear systems only: a polynomial system
    file exits 2 with a message, not an AttributeError traceback."""
    payload = {
        "transition": ["0.5*x1*(1 + x2 + w1)", "0.5*x2"],
        "noise": {"kind": "uniform-box", "half_widths": [1.0]},
        "target": {"center": [0.0, 0.0], "radius": 1.0},
    }
    path = _write_system(tmp_path, "poly.json", payload)
    assert run([command, "--system", path, "--out", str(tmp_path / "out")]) == 2
    assert "needs a linear system" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--target-radius", "nan", "--horizon", "10", "--trajectories", "10"],
        ["certify", "--target-radius", "inf"],
        ["classify", "--target-radius", "1", "--target-center", "nan"],
    ],
    ids=["simulate-nan-radius", "certify-inf-radius", "classify-nan-center"],
)
def test_non_finite_target_flag_is_a_usage_error(argv, random_walk_file, tmp_path, capsys):
    assert run([*argv, "--system", random_walk_file, "--out", str(tmp_path / "out")]) == 2
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "target",
    [{"center": [0.0], "radius": float("nan")}, {"center": [0.0], "radius": float("inf")}, {"center": [float("inf")], "radius": 1.0}],
    ids=["nan-radius", "inf-radius", "inf-center"],
)
@pytest.mark.parametrize("command", ["classify", "certify", "simulate"])
def test_non_finite_target_in_file_is_a_usage_error(command, target, tmp_path, capsys):
    # json writes non-finite floats as NaN and Infinity, which json.load reads back.
    payload = {"A": [[1.0]], "B": [[1.0]], "noise": {"kind": "uniform-box", "half_widths": [1.0]}, "target": target}
    path = _write_system(tmp_path, "nonfinite.json", payload)
    assert run([command, "--system", path, "--out", str(tmp_path / "out")]) == 2
    assert "must be" in capsys.readouterr().err
