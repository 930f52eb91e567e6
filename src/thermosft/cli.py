"""Command-line front end: model ingestion, sweeps, CSV/JSON emission.

Models are JSON files (schema_version 1) with a transition matrix, the metric
parameter theta, a base potential and an observable, both given as word-keyed
value tables.  Word keys are symbol strings like "121" (symbols are 1-based
integers); alphabets past 9 use comma-separated keys like "10,2", and a
one-symbol key past 9 ends in a comma ("10,").

Outputs are CSV with fixed headers and floats printed to 17 significant
digits, so identical inputs and seeds reproduce byte-identical files.  Sweep
items run one after another in input order; a pressure sweep solves every
tilt on one shared tilted-family operator, each solve started from the previous
tilt.

Exit codes: 0 success, 2 validation error, 3 violated certified bound,
4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

from .bounds import certificate_constants, constants_for, verify_bound
from .deviations import ldp_scan, sample_paths, window_reference
from .errors import (
    BoundViolated,
    NoConvergence,
    ParseError,
    SchemaError,
    ThermoError,
    ValidationError,
)
from .potentials import (
    Potential,
    cohomology_spread,
    make_potential,
    shift_nonnegative,
)
from .rate import pressure_curve, rate_function, rate_levels
from .sft import TransitionMatrix, validate_transitions
from .transfer import equilibrium_measure, normalize_potential

SCHEMA_VERSION = 1

CURVE_HEADER = ["q", "pressure", "dpressure"]
RATE_HEADER = ["p", "I", "q_star", "status"]
REPORT_HEADER = ["p", "I", "bound", "pass", "mode"]
LDP_HEADER = ["n", "log_rate", "ref", "slack", "method"]


# ---------------------------------------------------------------------------
# model loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModelConfig:
    theta: float
    tm: TransitionMatrix
    f: Potential
    psi: Potential
    label: str


def _parse_word(key: str, field: str) -> tuple:
    try:
        if "," in key:
            # a one-symbol word past 9 is written with a trailing comma
            return tuple(int(part) for part in key.removesuffix(",").split(","))
        return tuple(int(ch) for ch in key)
    except ValueError:
        raise SchemaError(f"{field}: word key {key!r} is not a symbol string") from None


def _require(obj: dict, field: str, kind, path: str):
    if field not in obj:
        raise SchemaError(f"{path}: missing field {field!r}")
    value = obj[field]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{path}.{field}: expected a number")
        return float(value)
    if not isinstance(value, kind):
        raise SchemaError(f"{path}.{field}: expected {kind.__name__}")
    return value


def _load_potential(tm: TransitionMatrix, theta: float, node: dict, path: str) -> Potential:
    r = _require(node, "range", int, path)
    values = _require(node, "values", dict, path)
    table = {}
    for key, val in values.items():
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"{path}.values[{key}]: expected a number")
        table[_parse_word(key, path)] = float(val)
    try:
        return make_potential(tm, r, table, theta)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_model(path: str) -> ModelConfig:
    """Parse and validate a model config; error messages carry field paths."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("top level must be a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    theta = _require(raw, "theta", float, "model")
    transitions = _require(raw, "transitions", list, "model")
    try:
        tm = validate_transitions(transitions)
    except ValidationError as exc:
        raise type(exc)(f"transitions: {exc}") from None
    f = _load_potential(tm, theta, _require(raw, "potential_f", dict, "model"), "potential_f")
    psi = _load_potential(
        tm, theta, _require(raw, "observable_psi", dict, "model"), "observable_psi"
    )
    label = raw.get("label", "")
    return ModelConfig(theta=theta, tm=tm, f=f, psi=psi, label=str(label))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_range(text: str, integer: bool = False) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range {text!r} must have the form start:stop:step")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise ValidationError(f"range {text!r} has non-numeric parts") from None
    if step <= 0:
        raise ValidationError(f"range step must be positive in {text!r}")
    out = []
    i = 0
    while True:
        value = start + i * step
        if value > stop + 1e-9 * step:
            break
        out.append(int(round(value)) if integer else value)
        i += 1
    return out


def _word_key(word: tuple) -> str:
    if any(s > 9 for s in word):
        # "10," is the one-symbol word 10; "10" would read as (1, 0)
        return ",".join(str(s) for s in word) + ("," if len(word) == 1 else "")
    return "".join(str(s) for s in word)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_pressure(args) -> int:
    model = load_model(args.config)
    phi = normalize_potential(model.f)
    grid = _parse_range(f"{args.q_min}:{args.q_max}:{args.q_step}")
    curve = pressure_curve(phi, model.psi, grid)
    rows = zip(curve.q_grid, curve.pressures, curve.derivatives)
    _write_csv(args.out, CURVE_HEADER, rows)
    return 0


def _cmd_rate(args) -> int:
    model = load_model(args.config)
    phi = normalize_potential(model.f)
    results = rate_levels(phi, model.psi, _parse_range(args.p_grid))
    rows = [
        (rv.p, rv.value, math.nan if rv.q_star is None else rv.q_star, rv.status)
        for rv in results
    ]
    _write_csv(args.out, RATE_HEADER, rows)
    return 0


def _prepared(model: ModelConfig):
    """Normalised base potential plus nonnegative-shifted observable.

    Shifting the observable translates its means and the certificate window
    by the same constant and leaves the rate values unchanged, so reported
    levels are mapped back to the original scale.
    """
    phi = normalize_potential(model.f)
    psi1, shift = shift_nonnegative(model.psi)
    return phi, psi1, shift


def _cmd_bound(args) -> int:
    model = load_model(args.config)
    phi, psi1, shift = _prepared(model)
    consts = constants_for(phi, psi1, args.constants)
    grid = [p + shift for p in _parse_range(args.p_grid)]
    code = 0
    try:
        report = verify_bound(phi, psi1, args.delta0, grid, consts)
    except BoundViolated as exc:
        if exc.report is None:
            raise
        report = exc.report
        code = 3
        print(f"error: {exc}", file=sys.stderr)
    rows = [
        (v.p - shift, v.rate, v.bound, v.passed, report.constants_mode)
        for v in report.verdicts
    ]
    _write_csv(args.out, REPORT_HEADER, rows)
    return code


def _cmd_constants(args) -> int:
    model = load_model(args.config)
    phi, psi1, shift = _prepared(model)
    consts = constants_for(phi, psi1, args.constants)
    report = certificate_constants(phi, psi1, args.delta0, consts)
    rows = [
        ("mode", report.constants_mode),
        ("theta", report.theta),
        ("s0", model.tm.size),
        ("M", model.tm.aperiodicity_exponent),
        ("C0", report.C0),
        ("B_psi", report.B_psi),
        ("b", report.b),
        ("psi_tilde", report.psi_tilde - shift),
        ("psi_shift", shift),
        ("delta0", report.delta0),
        ("rho", report.rho),
        ("log_rho", report.log_rho),
        ("log_D", report.log_D),
        ("alpha", report.alpha),
        ("n0", report.n0),
        ("q0", report.q0),
        ("bound", report.bound),
    ]
    _write_csv(args.out, ["key", "value"], rows)
    return 0


def _cmd_ldp(args) -> int:
    model = load_model(args.config)
    phi = normalize_potential(model.f)
    psi = model.psi
    mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
    n_list = _parse_range(args.n, integer=True)

    def rate_fn(level):
        return rate_function(phi, psi, level)

    if args.method == "exact_dp":
        scan = ldp_scan(mu, psi, rate_fn, n_list, args.p, args.delta)
        reference, entries = scan.reference, scan.entries
    else:
        reference, _ = window_reference(mu, psi, rate_fn, args.p, args.delta)
        # per-horizon seeds derive deterministically from the master seed
        entries = [
            sample_paths(mu, psi, n, args.trials, args.seed + i, args.p, args.delta)
            for i, n in enumerate(n_list)
        ]
    rows = [(e.n, e.log_rate, reference, e.slack, e.method) for e in entries]
    _write_csv(args.out, LDP_HEADER, rows)
    return 0


def _cmd_spread(args) -> int:
    model = load_model(args.config)
    spread = cohomology_spread(model.psi)
    rows = [
        (
            spread.min_mean,
            spread.max_mean,
            "-".join(str(s) for s in spread.witness_min),
            "-".join(str(s) for s in spread.witness_max),
            spread.is_constant,
        )
    ]
    _write_csv(
        args.out,
        ["min_mean", "max_mean", "witness_min", "witness_max", "cohomologous_to_constant"],
        rows,
    )
    return 0


def _cmd_normalize(args) -> int:
    model = load_model(args.config)
    phi = normalize_potential(model.f)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "label": model.label,
        "theta": model.theta,
        "transitions": [[int(x) for x in row] for row in model.tm.entries],
        "potential_f": {
            "range": phi.r,
            "values": {_word_key(w): v for w, v in sorted(phi.table.items())},
        },
        "observable_psi": {
            "range": model.psi.r,
            "values": {_word_key(w): v for w, v in sorted(model.psi.table.items())},
        },
    }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``thermo`` parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="thermo",
        description="Transfer operators, pressure, rate functions and certified "
        "deviation bounds for finite-type shift models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="model JSON file")
        sp.add_argument("--out", required=True, help="output file")

    sp = sub.add_parser("pressure", help="tilted pressure curve -> CSV q,pressure,dpressure")
    add_common(sp)
    sp.add_argument("--q-min", type=float, required=True)
    sp.add_argument("--q-max", type=float, required=True)
    sp.add_argument("--q-step", type=float, required=True)
    sp.set_defaults(func=_cmd_pressure)

    sp = sub.add_parser("rate", help="rate function on a p-grid -> CSV p,I,q_star,status")
    add_common(sp)
    sp.add_argument("--p-grid", required=True, help="start:stop:step")
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("bound", help="certified lower-bound verdicts -> CSV p,I,bound,pass,mode")
    add_common(sp)
    sp.add_argument("--delta0", type=float, required=True)
    sp.add_argument("--constants", choices=("paper", "measured"), default="measured")
    sp.add_argument("--p-grid", required=True, help="start:stop:step")
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("constants", help="certificate constants -> CSV key,value")
    add_common(sp)
    sp.add_argument("--delta0", type=float, required=True)
    sp.add_argument("--constants", choices=("paper", "measured"), default="measured")
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("ldp", help="window-mass decay scan -> CSV n,log_rate,ref,slack,method")
    add_common(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--n", required=True, help="start:stop:step horizons")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--method", choices=("exact_dp", "monte_carlo"), default="exact_dp")
    sp.add_argument("--trials", type=int, default=100000)
    sp.set_defaults(func=_cmd_ldp)

    sp = sub.add_parser("spread", help="extreme cycle means of the observable -> CSV")
    add_common(sp)
    sp.set_defaults(func=_cmd_spread)

    sp = sub.add_parser("normalize", help="normalised base potential -> model JSON")
    add_common(sp)
    sp.set_defaults(func=_cmd_normalize)

    return parser


def run_command(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ThermoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
