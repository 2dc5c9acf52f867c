"""Command-line front end: list-models, build, verify, simulate, export.

Rationals print as num/den in JSON artifacts; floats appear only in the
simulation CSVs, serialized with fixed formatting so artifacts regenerate
byte-for-byte.  The default output directory can be set with PHS_FORGE_OUT.
Only the commands that run the simulator import it, and numpy with it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from fractions import Fraction

from .build import assemble_phs, export_system, float_matrix, write_matrix_csv
from .exact import ExactError
from .modelfile import check_digits, parse_model_file, serialize_model
from .models import ModelError, builtin_model, builtin_names, validate_model
from .verify import report_json, run_all

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID_MODEL = 2


def _out_path(args, name: str) -> str:
    base = getattr(args, "out_dir", None) or os.environ.get("PHS_FORGE_OUT") or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _load_model(args):
    if getattr(args, "file", None):
        return parse_model_file(args.file)
    params = {}
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise ModelError(f"--param expects NAME=VALUE, got {item!r}")
        key, value = (s.strip() for s in item.split("=", 1))
        try:
            params[key] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"--param {key} expects a rational, got {value!r}") from None
        check_digits(params[key], f"--param {key}")
    return builtin_model(args.builtin, params or None)


def cmd_list_models(args) -> int:
    from .simulate import simulation_refusal

    print(f"{'name':<20} {'ell':>3} {'N':>2} {'n':>2} {'m':>2} {'d':>2}  simulator")
    for name in builtin_names():
        model = builtin_model(name)
        sim = "yes" if simulation_refusal(model) is None else "symbolic only"
        print(
            f"{name:<20} {model.ell:>3} {model.order:>2} {model.n:>2} "
            f"{model.m:>2} {model.d:>2}  {sim}"
        )
    return EXIT_OK


def _compile(args):
    """Load, validate and assemble the model ``args`` names; None (exit code
    2) after printing the report or ``error:`` line when it is invalid."""
    try:
        model = _load_model(args)
        report = validate_model(model)
        if not report.ok:
            print(report, file=_sys.stderr)
            return None
        return assemble_phs(model, validate=False)
    except (ModelError, ExactError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return None


def _write_system_json(path: str, sys_) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(export_system(sys_), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")


def cmd_build(args) -> int:
    sys_ = _compile(args)
    if sys_ is None:
        return EXIT_INVALID_MODEL
    print(sys_.summary())
    _write_system_json(args.out or _out_path(args, f"{sys_.model.name}.phs.json"), sys_)
    if args.emit_model:
        with open(args.emit_model, "w", encoding="utf-8") as fh:
            fh.write(serialize_model(sys_.model))
        print(f"wrote {args.emit_model}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        print(f"error: --trials must be >= 1, got {args.trials}", file=_sys.stderr)
        return EXIT_INVALID_MODEL
    names = args.model  # None under --all, which argparse keeps apart from --model
    for name in names or ():
        if names.count(name) > 1:
            print(f"error: --model gives {name!r} twice", file=_sys.stderr)
            return EXIT_INVALID_MODEL
    results = run_all(seed=args.seed, model_names=names, trials=args.trials)
    failures = [r for r in results if not r.ok]
    for r in results:
        mark = "ok " if r.ok else "FAIL"
        witness = f" [{r.witness}]" if (not r.ok and r.witness) else ""
        print(f"[{mark}] {r.check_id}{witness}")
    print(f"{len(results) - len(failures)}/{len(results)} checks passed (seed {args.seed})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report_json(results, args.seed))
        print(f"wrote {args.json}")
    return EXIT_OK if not failures else EXIT_ERROR


def _parse_bc(text):
    bc = {}
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise ValueError(f"--bc expects face=kind, got {item!r}")
            face, kind = (s.strip() for s in item.split("=", 1))
            if face in bc:
                raise ValueError(f"--bc gives face {face!r} twice")
            bc[face] = kind
    return bc


def _parse_cells(text):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"--cells expects comma-separated integers, got {text!r}") from None


def _parse_inputs(specs, dsys):
    from .simulate import boundary_traction_input, distributed_input

    channels = []
    for spec in specs or []:
        parts = spec.split(":")
        if parts[0] == "traction" and len(parts) >= 5:
            face, component = parts[1], parts[2]
            profile = _profile(parts[3:])
            channels.append(boundary_traction_input(dsys, face, component, profile))
        elif parts[0] == "distributed" and len(parts) >= 4:
            try:
                column = int(parts[1])
            except ValueError:
                raise ValueError(f"--input {spec!r}: column {parts[1]!r} is not an integer") from None
            profile = _profile(parts[2:])
            channels.append(distributed_input(dsys, column, profile))
        else:
            raise ValueError(
                f"bad --input {spec!r}; use traction:FACE:COMPONENT:const:V or "
                "traction:FACE:COMPONENT:sin:AMP:OMEGA or distributed:COL:const:V "
                "or distributed:COL:sin:AMP:OMEGA"
            )
    return channels


def _profile(parts):
    if parts[0] == "const" and len(parts) == 2:
        value = _finite_float(parts[1], "const value")
        return lambda t: value
    if parts[0] == "sin" and len(parts) == 3:
        amp = _finite_float(parts[1], "sin amplitude")
        omega = _finite_float(parts[2], "sin frequency")
        return lambda t: amp * math.sin(omega * t)
    raise ValueError(f"bad input profile {':'.join(parts)!r}")


def _finite_float(text: str, what: str) -> float:
    """A rational or decimal literal as a finite float; ValueError otherwise."""
    try:
        value = float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{what} expects a finite rational or decimal, got {text!r}")
    return value


def _parse_dt(text: str) -> float:
    try:
        dt = _finite_float(text, "--dt")
    except ValueError:
        dt = None
    if dt is None or dt <= 0:
        raise ValueError(f"--dt expects a positive rational or decimal, got {text!r}")
    return dt


def cmd_simulate(args) -> int:
    from .simulate import (GridSpec, SimulationUnsupported, discretize, random_state, simulate,
                           write_energy_csv, write_trajectory_csv)

    sys_ = _compile(args)
    if sys_ is None:
        return EXIT_INVALID_MODEL
    try:
        dt = _parse_dt(args.dt)
        for flag, value, least in (("--steps", args.steps, 1), ("--record", args.record, 0),
                                   ("--seed", args.seed, 0)):
            if value < least:
                raise ValueError(f"{flag} must be >= {least}, got {value}")
        cells = _parse_cells(args.cells)
        dsys = discretize(sys_, GridSpec(cells), _parse_bc(args.bc))
        inputs = _parse_inputs(args.input, dsys)
    except SimulationUnsupported as exc:
        print(f"unsupported: {exc}", file=_sys.stderr)
        return EXIT_INVALID_MODEL
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID_MODEL

    if args.init == "random":
        state0 = random_state(dsys, seed=args.seed, amplitude=1.0)
    else:
        state0 = dsys.zero_state()
    traj, log = simulate(
        dsys,
        dt=dt,
        steps=args.steps,
        inputs=inputs,
        state0=state0,
        record_every=args.record,
    )
    h0, h1 = log.energy[0], log.energy[-1]
    print(
        f"{sys_.model.name}: {args.steps} steps, dofs={dsys.num_dofs}, "
        f"H0={h0:.12g}, H_end={h1:.12g}, relative drift={log.relative_drift:.3e}, "
        f"max balance residual={log.max_residual:.3e}"
    )
    energy_path = args.energy or _out_path(args, "energy.csv")
    write_energy_csv(energy_path, log)
    print(f"wrote {energy_path}")
    if args.out:
        write_trajectory_csv(args.out, dsys, traj)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_export(args) -> int:
    sys_ = _compile(args)
    if sys_ is None:
        return EXIT_INVALID_MODEL
    try:  # every float first, so a refusal writes no file
        tables = [
            ("mass", float_matrix(sys_.mass, "mass M")),
            ("stiffness", float_matrix(sys_.stiffness, "stiffness K")),
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID_MODEL
    name = sys_.model.name
    _write_system_json(_out_path(args, f"{name}.phs.json"), sys_)
    for kind, rows in tables:
        path = _out_path(args, f"{name}.{kind}.csv")
        write_matrix_csv(path, rows)
        print(f"wrote {path}")
    return EXIT_OK


def _add_model_source(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--builtin", "--model", dest="builtin", choices=builtin_names(), help="builtin model name"
    )
    group.add_argument("--file", help="model description file (format v1, see README)")
    parser.add_argument(
        "--param", action="append", metavar="NAME=VALUE", help="override a model parameter"
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phs-forge",
        description=(
            "Compile declarative kinematic models of flexible structures into "
            "port-Hamiltonian form, verify the structural identities exactly, "
            "and run energy-conserving simulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-models", help="list builtin models")
    p.set_defaults(func=cmd_list_models)

    p = sub.add_parser("build", help="compile a model and export the system")
    _add_model_source(p)
    p.add_argument("--out", help="output JSON path")
    p.add_argument("--out-dir", help="output directory (default . or PHS_FORGE_OUT)")
    p.add_argument("--emit-model", help="also write the model back in file format")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the exact check suite")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="check every builtin")
    group.add_argument(
        "--model", action="append", choices=builtin_names(), help="check one model (repeatable)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--json", help="write the machine-readable report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="discretize and integrate a model")
    _add_model_source(p)
    p.add_argument("--cells", required=True, help="cells per axis, e.g. 256 or 16,16")
    p.add_argument("--dt", required=True, help="time step (rational or decimal)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--bc", help="per-face conditions, e.g. left=clamped,right=free")
    p.add_argument(
        "--input",
        action="append",
        help="input channel: traction:FACE:COMP:const:V | distributed:COL:sin:A:W",
    )
    p.add_argument("--init", choices=("zero", "random"), default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record", type=int, default=0, help="snapshot cadence (steps)")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--energy", help="energy CSV path")
    p.add_argument("--out-dir", help="output directory (default . or PHS_FORGE_OUT)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export", help="write JSON + float CSV renderings")
    _add_model_source(p)
    p.add_argument("--out-dir", help="output directory (default . or PHS_FORGE_OUT)")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    # every phs_forge error but ExactError is a ValueError; OSError is an unwritable output
    except (ExactError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
