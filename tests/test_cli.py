"""End-to-end command-line flows."""

import importlib
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


def test_list_models_says_yes_exactly_when_discretize_succeeds(capsys):
    from phs_forge.build import assemble_phs
    from phs_forge.models import builtin_model, builtin_names
    from phs_forge.simulate import GridSpec, SimulationUnsupported, discretize

    assert main(["list-models"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    said = {row.split()[0]: row.endswith("  yes") for row in rows}
    assert sorted(said) == builtin_names()
    for name, yes in said.items():
        model = builtin_model(name)
        try:  # a 2D grid for the 3D model: the model's refusal comes first
            discretize(assemble_phs(model), GridSpec((4,) * min(model.ell, 2)))
            simulated = True
        except SimulationUnsupported:
            simulated = False
        assert yes == simulated, name


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


@pytest.mark.parametrize("name", ["timoshenko", "reddy_beam", "mindlin_plate", "reddy_plate"])
def test_build_derives_g_from_a_given_zero_poisson_ratio(tmp_path, name):
    # G = E / (2 (1 + nu)); with nu = 0 the plates used to say "supply G or
    # nu" and the beams kept their G = 1 whatever E was
    out = tmp_path / "g.json"
    code = main(["build", "--builtin", name, "--param", "E=3", "--param", "nu=0", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["model"]["params"]["G"] == [3, 2]


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


def test_verify_refuses_a_model_given_twice(tmp_path, capsys):
    # it used to run the model's checks twice, reporting repeated check ids
    report = tmp_path / "r.json"
    args = ["verify", "--model", "truss", "--model", "string", "--model", "truss", "--trials", "1"]
    assert main(args + ["--json", str(report)]) == EXIT_INVALID_MODEL
    captured = capsys.readouterr()
    assert captured.err == "error: --model gives 'truss' twice\n"
    assert captured.out == ""
    assert not report.exists()


def test_verify_refuses_all_together_with_model(tmp_path, capsys):
    # --model used to be ignored under --all, which ran every builtin
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--model", "truss", "--trials", "1", "--json", str(report)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --model: not allowed with argument --all" in captured.err
    assert captured.out == ""
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


def test_simulate_names_the_flag_of_bad_cells(tmp_path, capsys):
    for cells in ("16.5", "16,", "abc"):
        assert _simulate_string(tmp_path, "--dt", "1/100", f"--cells={cells}") == EXIT_INVALID_MODEL
        err = capsys.readouterr().err
        assert err == f"error: --cells expects comma-separated integers, got {cells!r}\n", err
    assert not (tmp_path / "e.csv").exists()


def test_simulate_names_the_flag_of_a_bad_input_column(tmp_path, capsys):
    spec = "distributed:x:const:1"
    assert _simulate_string(tmp_path, "--dt", "1/100", "--input", spec) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err == f"error: --input {spec!r}: column 'x' is not an integer\n", err
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


def test_simulate_refuses_a_negative_seed_before_discretizing(tmp_path, capsys, monkeypatch):
    # cmd_simulate imports discretize when it runs; a call would raise TypeError
    monkeypatch.setattr(importlib.import_module("phs_forge.simulate"), "discretize", None)
    assert _simulate_string(tmp_path, "--dt", "1/100", "--seed", "-1") == EXIT_INVALID_MODEL
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "e.csv").exists()


def test_simulate_refuses_a_face_given_twice(tmp_path, capsys):
    assert _simulate_string(tmp_path, "--dt", "1/100", "--bc", "left=clamped,left=free") == EXIT_INVALID_MODEL
    assert capsys.readouterr().err == "error: --bc gives face 'left' twice\n"
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize(
    "bc, message",
    [
        ("left=pinned", "face 'left' is 'pinned'; boundary conditions are 'clamped' or 'free'"),
        ("top=free", "unknown face 'top'; faces are left, right"),
    ],
)
def test_simulate_names_a_refused_boundary_condition(tmp_path, capsys, bc, message):
    assert _simulate_string(tmp_path, "--dt", "1/100", "--bc", bc) == EXIT_INVALID_MODEL
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
def test_every_compiling_command_reports_a_missing_model_file(tmp_path, capsys, command):
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    missing = tmp_path / "missing.phsm"
    assert main([command, "--file", str(missing), "--out-dir", str(tmp_path / "out"), *extra]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory") and "missing.phsm" in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["build", "--builtin", "truss", "--out", "{tmp}/no/x.json"],
        ["export", "--builtin", "truss", "--out-dir", "{tmp}/file"],
        ["simulate", "--builtin", "truss", "--cells", "8", "--dt", "1/100", "--steps", "2",
         "--energy", "{tmp}/no/e.csv"],
        ["simulate", "--builtin", "truss", "--cells", "8", "--dt", "1/100", "--steps", "2",
         "--energy", "{tmp}/e.csv", "--out", "{tmp}/no/traj.csv"],
        ["verify", "--model", "truss", "--trials", "1", "--json", "{tmp}/no/r.json"],
    ],
    ids=["build-out", "export-out-dir", "simulate-energy", "simulate-out", "verify-json"],
)
def test_an_unwritable_output_ends_in_an_error_line(tmp_path, capsys, args):
    (tmp_path / "file").write_text("")  # an --out-dir that is a file
    assert main([a.format(tmp=tmp_path) for a in args]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(tmp_path) in err, err


def _model_text(name, **replace):
    from phs_forge.modelfile import serialize_model
    from phs_forge.models import builtin_model

    text = serialize_model(builtin_model(name))
    for old, new in replace.items():
        assert old in text
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize(
    "command, extra",
    [
        ("build", ["--out", "{tmp}/x.json"]),
        ("export", ["--out-dir", "{tmp}/out"]),
        ("simulate", ["--cells", "8", "--dt", "1/100", "--steps", "2", "--energy", "{tmp}/e.csv"]),
    ],
)
def test_every_compiling_command_rejects_an_empty_interval(tmp_path, capsys, command, extra):
    # simulate used to let this ExactError through to exit code 1
    path = tmp_path / "backwards.phsm"
    path.write_text(_model_text("timoshenko", **{"interval = 0, 1": "interval = 1, 0"}))
    extra = [e.format(tmp=tmp_path) for e in extra]
    assert main([command, "--file", str(path), *extra]) == EXIT_INVALID_MODEL
    assert capsys.readouterr().err.startswith("error: empty axis range (1, 0)")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("build", ["--out", "{tmp}/x.json"]),
        ("export", ["--out-dir", "{tmp}/out"]),
        ("simulate", ["--cells", "8,8", "--dt", "1/100", "--steps", "2", "--energy", "{tmp}/e.csv"]),
    ],
)
def test_every_compiling_command_rejects_a_domain_of_the_wrong_dimension(
    tmp_path, capsys, command, extra
):
    # an interval for a plate used to be written as a one-axis domain by build
    # and export, and to end simulate in an IndexError
    path = tmp_path / "flat.phsm"
    path.write_text(_model_text("mindlin_plate", **{"rectangle = 0, 1, 0, 1": "interval = 0, 1"}))
    extra = [e.format(tmp=tmp_path) for e in extra]
    assert main([command, "--file", str(path), *extra]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error: interval has 1 axis but distributed is z1 z2"), err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
def test_every_compiling_command_rejects_a_non_rational_param(tmp_path, capsys, command):
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    args = [command, "--builtin", "truss", "--param", "E=abc", "--out-dir", str(tmp_path), *extra]
    assert main(args) == EXIT_INVALID_MODEL
    assert capsys.readouterr().err.startswith("error: --param E expects a rational")


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
@pytest.mark.parametrize(
    "value, exponent", [("10^65", 65), ("(10^8)^9", 72)], ids=["literal", "nested"]
)
def test_every_compiling_command_rejects_an_exponent_over_the_limit(
    tmp_path, capsys, command, value, exponent
):
    # an unbounded exponent (E = 10^100000000) used to stall evaluation
    from phs_forge.modelfile import MAX_EXPONENT

    assert exponent > MAX_EXPONENT == 64
    path = tmp_path / "huge.phsm"
    path.write_text(_model_text("truss", **{"E = 1": f"E = {value}"}))
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    args = [command, "--file", str(path), "--out-dir", str(tmp_path), *extra]
    assert main(args) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith(f"error: exponent {exponent} exceeds the limit of 64"), err


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
@pytest.mark.parametrize(
    "value, digits",
    [("1" + "0" * 5000, 5001), ("2^" + "1" * 4401, 4401)],
    ids=["value", "exponent"],
)
def test_every_compiling_command_rejects_an_integer_literal_over_the_limit(
    tmp_path, capsys, command, value, digits
):
    # past Python's 4,300-digit int/str limit, int() used to escape as exit 1
    path = tmp_path / "long.phsm"
    path.write_text(_model_text("truss", **{"E = 1": f"E = {value}"}))
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    args = [command, "--file", str(path), "--out-dir", str(tmp_path), *extra]
    assert main(args) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith(f"error: integer literal of {digits} digits exceeds the limit"), err[:200]


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
@pytest.mark.parametrize(
    "source, message",
    [
        ("E = {x} * {x}", "parameter E has a numerator of 6000 digits"),
        ("E = 1 / ({x} * {x})", "parameter E has a denominator of 6000 digits"),
        ("--param E=1e5000", "--param E has a numerator of 5001 digits"),
    ],
    ids=["numerator", "denominator", "cli-param"],
)
def test_every_compiling_command_rejects_a_value_over_the_digit_limit(
    tmp_path, capsys, command, source, message
):
    # every literal is under the limit; the evaluated value used to escape
    # Python's int/str limit as exit 1 while the JSON was being written
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    out = tmp_path / "out"
    if source.startswith("--param"):
        model = ["--builtin", "truss", "--param", source.split(" ", 1)[1]]
    else:
        path = tmp_path / "big.phsm"
        path.write_text(_model_text("truss", **{"E = 1": source.format(x="7" * 3000)}))
        model = ["--file", str(path)]
    assert main([command, *model, "--out-dir", str(out), *extra]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}, over the limit of 4000 digits"), err[:200]
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
def test_every_compiling_command_rejects_a_derived_value_over_the_digit_limit(
    tmp_path, capsys, command
):
    # each value has 3,001 digits; the mass rho A has 6,001 and used to escape
    # Python's int/str limit as exit 1 while the system was being written
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    out = tmp_path / "out"
    params = ["--param", "rho=1e3000", "--param", "A=1e3000"]
    assert main([command, "--builtin", "truss", *params, "--out-dir", str(out), *extra]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    expected = "error: mass matrix M[0][0] has a numerator of 6001 digits, over the limit of 4000 digits"
    assert err.startswith(expected), err[:200]
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
@pytest.mark.parametrize(
    "section, old, new",
    [("lambda2", "[lambda2]\n-z3, 0", "[lambda2]\n-B*B*z3, 0"), ("F", "[F]\nd1, 0", "[F]\nB*B*d1, 0")],
    ids=["lambda2", "F"],
)
def test_every_compiling_command_rejects_a_polynomial_coefficient_over_the_digit_limit(
    tmp_path, capsys, command, section, old, new
):
    # B has 3,001 digits and B*B 6,001; the coefficient used to escape
    # Python's int/str limit as exit 1 while the model was being printed
    big = "[params]\nB = 1" + "0" * 3000 + "\n"
    path = tmp_path / "big.phsm"
    path.write_text(_model_text("timoshenko", **{"[params]\n": big, old: new}))
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    out = tmp_path / "out"
    assert main([command, "--file", str(path), "--out-dir", str(out), *extra]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    expected = f"error: {section}[0][0] has a numerator of 6001 digits, over the limit of 4000 digits"
    assert err.startswith(expected), err[:200]
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
@pytest.mark.parametrize(
    "name, params, message",
    [
        ("truss", ["A=-1"], "parameter A must be positive, got -1"),
        ("torsion", ["R=-1"], "parameter R must be positive, got -1"),
        ("timoshenko", ["A=1", "I=-1"], "parameter I must be positive, got -1"),
        ("truss", ["A=0"], "parameters b and h must be positive when neither A nor R is given, got b = 0, h = 0"),
    ],
    ids=["truss-A", "torsion-R", "timoshenko-I", "truss-no-section"],
)
def test_every_compiling_command_names_a_bad_section_parameter(tmp_path, capsys, command, name, params, message):
    # a negative A or R used to fall through to the b x h rectangle, and a
    # negative I to a section without its second moment, with messages that
    # named no parameter
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    out = tmp_path / "out"
    args = [command, "--builtin", name, *(a for p in params for a in ("--param", p)), "--out-dir", str(out), *extra]
    assert main(args) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err[:200]
    assert not out.exists()


def _plane_stress_preset_file(tmp_path):
    text = _model_text("elasticity2d", **{"nu = 3/10": "nu = 1"})
    start = text.index("[C]\n") + len("[C]\n")
    path = tmp_path / "plane.phsm"
    path.write_text(text[:start] + "preset = plane_stress\n" + text[text.index("\n\n", start) + 1 :])
    return ["--file", str(path)]


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
@pytest.mark.parametrize(
    "model, message",
    [
        (["timoshenko", "nu=-1"], "parameter nu must be greater than -1 to derive G, got -1"),
        (["mindlin_plate", "nu=-1"], "parameter nu must be greater than -1 to derive G, got -1"),
        (["reddy_beam", "h=0"], "parameter h must be positive, got 0"),
        (["elasticity2d", "nu=1"], "parameter nu must lie in (-1, 1) for plane_stress, got 1"),
        (["elasticity3d", "nu=1/2"], "parameter nu must lie in (-1, 1/2) for iso3d, got 1/2"),
        (None, "parameter nu must lie in (-1, 1) for plane_stress, got 1"),
    ],
    ids=["timoshenko-G", "mindlin-G", "reddy-alpha", "plane-stress", "iso3d", "preset-file"],
)
def test_every_compiling_command_refuses_a_singular_material_constant(
    tmp_path, capsys, command, model, message
):
    # each divided by zero in a preset or a derived G or alpha, and ended in a
    # ZeroDivisionError traceback (exit 1)
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    out = tmp_path / "out"
    source = _plane_stress_preset_file(tmp_path) if model is None else ["--builtin", model[0], "--param", model[1]]
    assert main([command, *source, "--out-dir", str(out), *extra]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err[:200]
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
def test_string_refuses_a_circular_section(tmp_path, capsys, command):
    # the string tension divides by the section area, which for a circle is
    # pi-tagged; R used to end in a TypeError traceback (exit 1)
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    args = [command, "--builtin", "string", "--param", "R=1", "--out-dir", str(tmp_path / "out"), *extra]
    assert main(args) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error: string needs a rational section area: give A, or b and h"), err[:200]


@pytest.mark.parametrize(
    "param, message",
    [
        ("E=1e400", "stiffness K[0][0] is about 1e+400"),
        ("E=1e-400", "stiffness K[0][0] is about 1e-400"),
        ("rho=1e-400", "inverse mass M^-1[0][0] is about 1e+400"),
    ],
    ids=["overflow", "underflow", "inverse-overflow"],
)
def test_simulate_rejects_a_material_value_past_float_range(tmp_path, capsys, param, message):
    # the exact value compiles; its float used to raise OverflowError (or turn to 0)
    args = ["simulate", "--builtin", "truss", "--param", param, "--cells", "8", "--dt", "1/100",
            "--steps", "2", "--out-dir", str(tmp_path)]
    assert main(args) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}, outside the range of a float"), err[:200]
    assert not list(tmp_path.iterdir())


def test_simulate_runs_a_pi_tagged_stiffness_whose_rational_part_underflows(tmp_path, capsys):
    # K = G pi R^4 / 2 is about 4.7e-324, a subnormal float, though G R^4 / 2 is not
    args = ["simulate", "--builtin", "torsion", "--param", "G=3e-324", "--cells", "8", "--dt", "1/100",
            "--steps", "2", "--out-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out.startswith("torsion: 2 steps")


@pytest.mark.parametrize(
    "param, code, message",
    [
        # M^-1 is about 1.27e308, a float, but W^-1 J C is not
        ("rho=5e-309", EXIT_INVALID_MODEL, "the step matrix of torsion may pass the float range"),
        ("rho=1e-400", EXIT_INVALID_MODEL, "inverse mass M^-1[0][0] is about 1e+400, outside the range of a float"),
    ],
    ids=["step-matrix", "inverse-mass"],
)
def test_simulate_refuses_a_pi_tagged_system_past_float_range(tmp_path, capsys, param, code, message):
    args = ["simulate", "--builtin", "torsion", "--param", param, "--cells", "8", "--dt", "1/100",
            "--steps", "2", "--out-dir", str(tmp_path)]
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err[:200]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "param, message",
    [("E=1e400", "stiffness K[0][0] is about 1e+400"), ("E=1e-400", "stiffness K[0][0] is about 1e-400")],
    ids=["overflow", "underflow"],
)
def test_export_rejects_a_matrix_entry_past_float_range(tmp_path, capsys, param, message):
    # the overflow used to write the JSON and the mass CSV, then end in an
    # OverflowError traceback; the underflow wrote 0 for K without a word
    out = tmp_path / "out"
    assert main(["export", "--builtin", "truss", "--param", param, "--out-dir", str(out)]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}, outside the range of a float"), err[:200]
    assert not out.exists()


def test_simulate_rejects_an_input_map_entry_past_float_range(tmp_path, capsys):
    path = tmp_path / "truss.phsm"
    path.write_text(_model_text("truss", **{"[Bd]\n1\n": "[Bd]\n1" + "0" * 400 + "\n"}))
    out = tmp_path / "out"
    args = ["simulate", "--file", str(path), "--cells", "8", "--dt", "1/100", "--steps", "2",
            "--input", "distributed:0:const:1", "--out-dir", str(out)]
    assert main(args) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error: input map Bd[0][0] is about 1e+400, outside the range of a float"), err[:200]
    assert not out.exists() or not list(out.iterdir())


def test_build_refuses_constrained_file_without_operator(tmp_path, capsys):
    # rayleigh_beam: r = d1(w), w; its F is one point of a family, so it must be stated
    text = _model_text("rayleigh_beam", **{"[F]\nd1, d1^2\n\n": ""})
    path = tmp_path / "rayleigh.phsm"
    path.write_text(text)
    assert main(["build", "--file", str(path), "--out", str(tmp_path / "x.json")]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error: the kinematics do not determine F; state it"), err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("names = psi, w", "names = psi", "structure names line has 1 entries, operator expects 2"),
        ("fields = psi, w", "fields = psi, w, q", "free field 'q' is used by no r item"),
        ("\nr = psi, w", "", "with a fields line needs an r line"),
        ("fields = psi, w\nr = psi, w", "fields = psi, psi\nr = psi, psi",
         "free field 'psi' is repeated in the structure fields line"),
        ("names = psi, w", "names = w, w", "r_name 'w' of field p2 also names another field"),
        ("names = psi, w", "names = eps1, w", "r_name 'eps1' of field p1 also names another field"),
    ],
    ids=["names-short", "field-unused", "no-r-line", "field-repeated", "names-repeated", "name-is-a-label"],
)
def test_build_refuses_structure_that_does_not_match_r(tmp_path, capsys, old, new, message):
    # the names rows used to build and simulate, a field found by name before
    # label, so an input on 'w' or 'eps1' drove momentum p1
    path = tmp_path / "timoshenko.phsm"
    path.write_text(_model_text("timoshenko", **{old: new}))
    assert main(["build", "--file", str(path), "--out", str(tmp_path / "x.json")]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err


def test_build_refuses_an_unknown_section(tmp_path, capsys):
    # an unknown section used to be skipped without a word
    path = tmp_path / "timoshenko.phsm"
    path.write_text(_model_text("timoshenko", **{"[params]": "[bogus]\nx = 1\n\n[params]"}))
    assert main(["build", "--file", str(path), "--out", str(tmp_path / "x.json")]) == EXIT_INVALID_MODEL
    assert capsys.readouterr().err.startswith("error: unknown section [bogus]")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("timoshenko", "rectangle = 1, 1", "rectangle = 1, 2, 3", "error: [section] rectangle takes the values b, h; got 3"),
        ("mindlin_plate", "interval = 1", "rectangle = 1, 1",
         "[FAIL] coordinate-partition: the rectangle section spans z2, outside comp=('z3',)"),
        ("mindlin_plate", "interval = 1", "circle = 1",
         "[FAIL] coordinate-partition: the circle section spans z2, outside comp=('z3',)"),
        ("timoshenko", "rectangle = 1, 1", "none",
         "error: section none does not span z3, so it cannot integrate z3^2"),
    ],
    ids=["three-rectangle-values", "plate-rectangle", "plate-circle", "beam-none"],
)
def test_build_refuses_a_section_that_does_not_fit(tmp_path, capsys, name, old, new, message):
    # the first three used to exit 1 on a ValueError from unpacking or from
    # tuple.index; the last exited 2 with a message that named no section
    path = tmp_path / f"{name}.phsm"
    path.write_text(_model_text(name, **{f"[section]\n{old}\n": f"[section]\n{new}\n"}))
    assert main(["build", "--file", str(path), "--out", str(tmp_path / "x.json")]) == EXIT_INVALID_MODEL
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["build", "export", "simulate"])
@pytest.mark.parametrize(
    "value", ["(" * 200 + "1" + ")" * 200, "-" * 1000 + "1"], ids=["parentheses", "signs"]
)
def test_every_compiling_command_rejects_nesting_over_the_limit(tmp_path, capsys, command, value):
    # the recursive-descent parser used to end in a RecursionError (exit 1)
    path = tmp_path / "deep.phsm"
    path.write_text(_model_text("truss", **{"E = 1": f"E = {value}"}))
    extra = ["--cells", "8", "--dt", "1/100", "--steps", "2"] if command == "simulate" else []
    args = [command, "--file", str(path), "--out-dir", str(tmp_path / "out"), *extra]
    assert main(args) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error: parentheses and signs nest deeper than 64 in parameter E"), err[:200]
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "new, message",
    [
        ("nmes = psi, w", "unknown key 'nmes' in [structure]"),
        ("names = psi, w\nstrain_check = flase", "strain_check must be true or false, got 'flase'"),
        ("names = psi, w\nstrain_check = no", "strain_check must be true or false, got 'no'"),
        ("names = psi, w\nstrain_check = 0", "strain_check must be true or false, got '0'"),
        ("names = psi, w\nstrain_check = False", "strain_check must be true or false, got 'False'"),
        ("names = psi, w\nstrain_check =", "strain_check must be true or false, got ''"),
    ],
    ids=["key-typo", "flase", "no", "zero", "capitalized", "empty"],
)
def test_build_refuses_unknown_structure_input(tmp_path, capsys, new, message):
    # these used to parse: the typo dropped names, and any value but false kept the check on
    path = tmp_path / "timoshenko.phsm"
    path.write_text(_model_text("timoshenko", **{"names = psi, w": new}))
    assert main(["build", "--file", str(path), "--out", str(tmp_path / "x.json")]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("truss", "[Bd]\n1\n", "[Bd]\n1, 2\n3\n"),
        ("timoshenko", "[structure]", "[Bd]\n1, 2\n3\n\n[structure]"),
    ],
    ids=["truss-ragged", "timoshenko-ragged"],
)
@pytest.mark.parametrize(
    "command, extra",
    [
        ("build", ["--out", "{tmp}/x.json"]),
        ("simulate", ["--cells", "8", "--dt", "1/100", "--steps", "2",
                      "--input", "distributed:1:const:1", "--out-dir", "{tmp}/out"]),
    ],
)
def test_compiling_commands_refuse_a_ragged_input_map(tmp_path, capsys, name, old, new, command, extra):
    # simulate used to end the timoshenko case in an IndexError in distributed_input
    path = tmp_path / f"{name}.phsm"
    path.write_text(_model_text(name, **{old: new}))
    extra = [e.format(tmp=tmp_path) for e in extra]
    assert main([command, "--file", str(path), *extra]) == EXIT_INVALID_MODEL
    err = capsys.readouterr().err
    assert "[FAIL] shapes: Bd has 2 rows of length 1, 2" in err, err
    assert list(tmp_path.iterdir()) == [path]
