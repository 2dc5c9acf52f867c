"""End-to-end command-line flows."""

import json

import pytest

from phs_forge.cli import EXIT_ERROR, EXIT_INVALID_MODEL, EXIT_OK, main

BROKEN_MODEL = """
version = 1
name = broken

[coords]
distributed = z1
complementary = z2 z3

[domain]
interval = 0, 1

[section]
moments = I0: 1, I2: 1/12

[params]
E = 1
rho = 1

[lambda1]
-z3, 0
0, 0
0, 0

[lambda2]
-z3, 0
0, 1

[F]
d1, 0
-1, d1

[C]
E, 0
0, E
"""


def test_list_models(capsys):
    assert main(["list-models"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "timoshenko" in out and "reddy_plate" in out
    assert "symbolic only" in out  # kirchhoff_rayleigh and elasticity3d


def test_build_timoshenko_writes_golden_json(tmp_path, capsys):
    out = tmp_path / "tbt.json"
    code = main(["build", "--builtin", "timoshenko", "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "[0, 0, d1, 1]" in printed
    assert "[-1, d1, 0, 0]" in printed
    doc = json.loads(out.read_text())
    assert doc["model"]["name"] == "timoshenko"
    assert doc["mass"][0][0] == [1, 12]
    assert doc["stiffness"][1][1] == [5, 6]


def test_build_with_params(tmp_path):
    out = tmp_path / "t.json"
    code = main(
        [
            "build",
            "--builtin",
            "timoshenko",
            "--param",
            "E=200000000000",
            "--param",
            "nu=3/10",
            "--param",
            "rho=7850",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["model"]["params"]["E"] == [200000000000, 1]


def test_build_rejects_zero_displacement_column(tmp_path, capsys):
    path = tmp_path / "broken.phs"
    path.write_text(BROKEN_MODEL)
    code = main(["build", "--file", str(path), "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert "lambda1" in err and "zero column" in err


def test_build_reddy_plate_json_matches_exact_oracle(tmp_path):
    from fractions import Fraction as F

    out = tmp_path / "reddy.json"
    code = main(
        [
            "build",
            "--builtin",
            "reddy_plate",
            "--param",
            "h=1",
            "--param",
            "nu=0",
            "--param",
            "G=1",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    c2 = F(4, 315)
    # bending/third-order coupling block sits at rows 0-2, cols 5-7
    assert doc["stiffness"][0][5] == [c2.numerator, c2.denominator]
    assert doc["stiffness"][3][3] == [8, 15]


def test_verify_cli_all_and_determinism(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ["verify", "--all", "--seed", "7", "--trials", "2"]
    assert main(args + ["--json", str(r1)]) == EXIT_OK
    assert main(args + ["--json", str(r2)]) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_verify_single_model_includes_reduction(tmp_path):
    report = tmp_path / "torsion.json"
    assert main(["verify", "--model", "torsion", "--seed", "1", "--trials", "2", "--json", str(report)]) == EXIT_OK
    doc = json.loads(report.read_text())
    ids = [c["id"] for c in doc["checks"]]
    assert "reduction:torsion-two-strain" in ids


def test_verify_rejects_fewer_than_one_trial(tmp_path, capsys):
    for trials in ("0", "-1"):
        report = tmp_path / "r.json"
        args = ["verify", "--model", "truss", "--trials", trials, "--json", str(report)]
        assert main(args) == EXIT_INVALID_MODEL
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--trials" in captured.err
        assert "checks passed" not in captured.out
        assert not report.exists()


def test_verify_unknown_model_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "nosuch"])
    assert exc.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err


def test_simulate_string_conserves(tmp_path, capsys):
    energy = tmp_path / "energy.csv"
    traj = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--builtin",
            "string",
            "--cells",
            "64",
            "--dt",
            "1/500",
            "--steps",
            "400",
            "--bc",
            "left=clamped,right=clamped",
            "--seed",
            "5",
            "--energy",
            str(energy),
            "--out",
            str(traj),
            "--record",
            "200",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "relative drift" in out
    drift = float(out.split("relative drift=")[1].split(",")[0])
    assert drift <= 1e-11
    assert energy.exists() and traj.exists()


def test_simulate_with_traction_input(tmp_path):
    code = main(
        [
            "simulate",
            "--builtin",
            "truss",
            "--cells",
            "32",
            "--dt",
            "1/1000",
            "--steps",
            "100",
            "--bc",
            "left=clamped,right=free",
            "--input",
            "traction:right:u1:const:1",
            "--init",
            "zero",
            "--energy",
            str(tmp_path / "e.csv"),
        ]
    )
    assert code == EXIT_OK


def test_simulate_refuses_kirchhoff_rayleigh(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--builtin",
            "kirchhoff_rayleigh",
            "--cells",
            "8,8",
            "--dt",
            "1/100",
            "--steps",
            "10",
            "--energy",
            str(tmp_path / "e.csv"),
        ]
    )
    assert code == EXIT_INVALID_MODEL
    assert "symbolic stage" in capsys.readouterr().err


def test_export_writes_json_and_csv(tmp_path):
    code = main(["export", "--builtin", "truss", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "truss.phs.json").exists()
    assert (tmp_path / "truss.mass.csv").exists()
    assert (tmp_path / "truss.stiffness.csv").exists()
    assert (tmp_path / "truss.mass.csv").read_text().strip() == "1"


def test_export_is_byte_reproducible(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        assert main(["export", "--builtin", "reddy_plate", "--out-dir", str(d)]) == EXIT_OK
    assert (d1 / "reddy_plate.phs.json").read_bytes() == (d2 / "reddy_plate.phs.json").read_bytes()
    assert (d1 / "reddy_plate.stiffness.csv").read_bytes() == (
        d2 / "reddy_plate.stiffness.csv"
    ).read_bytes()


def test_build_emit_model_round_trips(tmp_path):
    emitted = tmp_path / "timoshenko.phsm"
    code = main(
        [
            "build",
            "--builtin",
            "timoshenko",
            "--out",
            str(tmp_path / "t.json"),
            "--emit-model",
            str(emitted),
        ]
    )
    assert code == EXIT_OK
    code = main(["build", "--file", str(emitted), "--out", str(tmp_path / "t2.json")])
    assert code == EXIT_OK
    assert json.loads((tmp_path / "t.json").read_text())["mass"] == json.loads(
        (tmp_path / "t2.json").read_text()
    )["mass"]


def _simulate_string(tmp_path, *extra):
    return main(
        ["simulate", "--builtin", "string", "--cells", "8", "--steps", "3",
         "--energy", str(tmp_path / "e.csv"), *extra]
    )


def test_simulate_rejects_bad_dt(tmp_path, capsys):
    for dt in ("1/0", "nan", "0", "-1/100", "1e-400", "abc"):
        assert _simulate_string(tmp_path, f"--dt={dt}") == EXIT_INVALID_MODEL
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--dt" in err
    assert not (tmp_path / "e.csv").exists()


def test_simulate_rejects_bad_step_and_record_counts(tmp_path, capsys):
    for flag, value in (("--record", "-1"), ("--steps", "0")):
        assert _simulate_string(tmp_path, "--dt", "1/100", f"{flag}={value}") == EXIT_INVALID_MODEL
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
    assert not (tmp_path / "e.csv").exists()


def _simulate_truss_traction(tmp_path, spec):
    return main(
        ["simulate", "--builtin", "truss", "--cells", "16", "--dt", "1/1000", "--steps", "3",
         "--energy", str(tmp_path / "e.csv"), "--input", f"traction:right:{spec}"]
    )


def test_simulate_rejects_non_finite_input_profiles(tmp_path, capsys):
    for profile in ("const:1e400", "sin:1e400:1", "sin:1:-1e400", "const:abc"):
        assert _simulate_truss_traction(tmp_path, f"u1:{profile}") == EXIT_INVALID_MODEL, profile
        err = capsys.readouterr().err
        assert err.startswith("error:") and "expects a finite" in err, err
    assert not (tmp_path / "e.csv").exists()
    assert _simulate_truss_traction(tmp_path, "u1:sin:1/2:7") == EXIT_OK


def test_simulate_rejects_unknown_traction_component(tmp_path, capsys):
    assert _simulate_truss_traction(tmp_path, "u:const:1") == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error: unknown field 'u'") and "p1 (u1)" in err, err
    assert not (tmp_path / "e.csv").exists()


def test_simulate_stops_when_energy_overflows(tmp_path, capsys):
    assert _simulate_truss_traction(tmp_path, "u1:const:1e300") == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error: energy is not finite after step 1" in err, err
    assert not (tmp_path / "e.csv").exists()
