"""Command line interface.

    qsde-elim check     --model m.json [--rank-tol 1e-9] [--tol 1e-9] [--out report.json]
    qsde-elim eliminate --model m.json [--rank-tol 1e-9] [--tol 1e-9] [--out limit.json]
    qsde-elim converge  --model m.json [--rank-tol 1e-9] [--ks 1,2,5,10,20,50,100]
                        [--horizon 1.0] [--steps 101] [--drive d.json]
                        [--format csv|json] [--out sweep.csv]
    qsde-elim kurtz     --model m.json [--rank-tol 1e-9] [--ks 10,30,100,300]
                        [--format csv|json] [--out residuals.csv]

Each subcommand takes only the flags it reads, and the parser holds every
default (``FLAGS``, and the ``--ks`` of each command in ``COMMANDS``).
``main`` is one pipeline: parse the flags, check the tolerances and read the
drive file, read the model, eliminate, build the report and write it.  Model
files are JSON with ``schema_version`` 1 and exactly one of ``builtin`` or
``explicit``:

    {"schema_version": 1,
     "builtin": {"name": "two_level",
                 "parameters": {"delta": 1.0, "gamma": 1.0, "alpha": 0.5}}}

    {"schema_version": 1,
     "explicit": {"dim": 2, "channels": 1,
                  "Y": [[re, im], ...],   # row-major, dim*dim entries
                  "A": ..., "B": ...,
                  "F": [matrix, ...],     # one per channel
                  "G": [matrix, ...],
                  "W": [[matrix, ...], ...],
                  "y1inv_override": matrix (optional)}}

Builtin names (the ``BUILTINS`` table): two_level (delta, gamma, alpha),
alkali (delta, gamma, bx, by, bz), cavity_system (gamma, n_trunc, optional
e00/e10/e11 with dim_h), lambda_system (gamma, g, alpha, n_trunc).  A
parameter left out takes the catalog default.  Complex scalars may be
written as [re, im].  Unknown fields anywhere are rejected.

A drive file for ``converge --drive`` is a step drive: the field amplitudes,
one row of channel amplitudes per segment between consecutive breakpoints
(without it the field is the vacuum):

    {"breakpoints": [0.0, 0.25, 0.5], "amplitudes": [[0.3], [[0.0, -0.2]]]}

Exit codes:

    0  success; for ``check`` and ``eliminate``, every identity passes
    1  usage, parse or validation error: an unknown flag (including one the
       subcommand does not read) or a malformed value prints the usage and
       exits 1, as do out-of-range or non-finite sweep arguments, a coupling
       at which K or L overflows float64, a horizon at which a time step t·G
       does too, tolerances (``--tol`` and ``--rank-tol`` must be finite and
       positive), a model whose propagation generator or sweep grid would
       exceed the memory budget (``ResourceLimit``, refused before it is
       allocated), and an output path that cannot be written
    2  structural (assumption) failure
    3  numerical failure: the restricted inverse or a limit coefficient
       overflowed, a squared distance came out non-finite or negative beyond
       roundoff, a horizon at which the rounding of a time step leaves no
       digit of a mode that has not decayed, or every ``kurtz`` residual
       overflowed

``converge`` and ``kurtz`` exit 0 whenever the computation itself succeeds.
``kurtz`` writes its report even when no residual is finite, then exits 3.
JSON output is strict: a non-finite residual or tolerance is written as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog
from .eliminate import EliminationResult, eliminate
from .errors import InvalidArgument, NumericalFailure, QsdeElimError, SingularRestriction
from .linalg import DEFAULT_RANK_TOL, Projector
from .model import DEFAULT_TOL, ScaledModel, check_hp_unitarity, check_scaling_consistency, instantiate
from .semigroup import (
    DEFAULT_STEPS,
    StepDrive,
    default_ground_vector,
    generator_convergence_check,
    k_sweep,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ASSUMPTION = 2
EXIT_NUMERICAL = 3


class ModelFileError(QsdeElimError, ValueError):
    """Schema violation in a model or drive file; message names the field."""


class UsageError(QsdeElimError, ValueError):
    """A command line the parser rejects; the usage has already been printed."""


# ---------------------------------------------------------------------------
# field readers: each takes a JSON value and the name of its field
# (Python floats round-trip bit-identically through JSON)

def _is_number(x) -> bool:
    """A JSON number that float64 holds; a bool is not a number here."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_number, x))


def _pair(value, where: str) -> complex:
    if not _is_pair(value):
        raise ModelFileError(f"{where}: expected an [re, im] pair of numbers")
    return complex(*value)


def _complex(value, where: str) -> complex:
    if _is_number(value):
        return complex(value)
    if _is_pair(value):
        return complex(*value)
    raise ModelFileError(f"{where}: expected a number or [re, im] pair")


def _real(value, where: str) -> float:
    if not _is_number(value):
        raise ModelFileError(f"{where}: expected a real number")
    return float(value)


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFileError(f"{where}: expected an integer")
    return value


def _list_of(read, entries, n: int, where: str, what: str = "matrices") -> list:
    """The n entries of a list, each read by read(entry, where[i])."""
    if not isinstance(entries, list) or len(entries) != n:
        raise ModelFileError(f"{where}: expected {n} {what}")
    return [read(entry, f"{where}[{i}]") for i, entry in enumerate(entries)]


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFileError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ModelFileError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ModelFileError(f"{where}: missing field(s) {sorted(missing)}")


def matrix_to_pairs(M: np.ndarray) -> list[list[float]]:
    """Row-major list of [re, im] pairs."""
    M = np.asarray(M, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in M.reshape(-1, order="C")]


def pairs_to_matrix(pairs, dim: int, where: str) -> np.ndarray:
    entries = _list_of(_pair, pairs, dim * dim, where, "[re, im] entries")
    return np.array(entries, dtype=complex).reshape(dim, dim)


# ---------------------------------------------------------------------------
# model files

@dataclass
class ModelFile:
    """Parsed model file: the scaled model plus an optional Y1inv override."""

    model: ScaledModel
    y1inv_override: np.ndarray | None
    label: str


def _block(value, where: str):
    """An interaction block of the cavity, read once dim_h is known."""
    return lambda dim: pairs_to_matrix(value, dim, where)


def _cavity(gamma: float = 1.0, dim_h=None, e00=None, e10=None, e11=None, **truncation):
    """The cavity on the default blocks, or on e00, e10, e11 and dim_h given together."""
    blocks = [block for block in (e00, e10, e11) if block is not None]
    if dim_h is None and not blocks:
        return catalog.default_cavity_system(gamma, **truncation)
    if dim_h is None or len(blocks) < 3:
        raise ModelFileError("builtin.parameters: e00, e10, e11 and dim_h must be given together")
    if dim_h < 1:
        raise ModelFileError("builtin.parameters.dim_h: expected a positive integer")
    return catalog.cavity_system(gamma, *(block(dim_h) for block in blocks), **truncation)


# name -> (builder, a reader per parameter in the order they are read, the
# optional parameters); a parameter left out takes the builder's default
BUILTINS = {
    "two_level": (catalog.two_level_atom, dict(alpha=_complex, delta=_real, gamma=_real), set()),
    "alkali": (catalog.alkali_atom, dict.fromkeys("delta gamma bx by bz".split(), _real), set()),
    "cavity_system": (
        _cavity,
        dict(gamma=_real, n_trunc=_int, dim_h=_int, e00=_block, e10=_block, e11=_block),
        {"gamma", "n_trunc", "dim_h", "e00", "e10", "e11"},
    ),
    "lambda_system": (
        catalog.lambda_system, dict(alpha=_complex, n_trunc=_int, gamma=_real, g=_real), {"n_trunc"}
    ),
}


def _build_builtin(spec: dict) -> ScaledModel:
    _require_keys(spec, {"name", "parameters"}, {"name", "parameters"}, "builtin")
    name, params = spec["name"], spec["parameters"]
    if not isinstance(params, dict):
        raise ModelFileError("builtin.parameters: expected an object")
    if not isinstance(name, str) or name not in BUILTINS:
        raise ModelFileError(f"builtin.name: unknown builtin '{name}'")
    build, readers, optional = BUILTINS[name]
    _require_keys(params, set(readers), set(readers) - optional, "builtin.parameters")
    return build(**{
        key: read(params[key], f"builtin.parameters.{key}")
        for key, read in readers.items() if key in params
    })


def _build_explicit(spec: dict) -> tuple[ScaledModel, np.ndarray | None]:
    allowed = {"dim", "channels", "Y", "A", "B", "F", "G", "W", "y1inv_override"}
    _require_keys(spec, allowed, allowed - {"y1inv_override"}, "explicit")
    dim = _int(spec["dim"], "explicit.dim")
    channels = _int(spec["channels"], "explicit.channels")
    if dim < 1 or channels < 1:
        raise ModelFileError("explicit: dim and channels must be positive")

    def matrix(pairs, where):
        return pairs_to_matrix(pairs, dim, where)

    def matrices(entries, where):
        return _list_of(matrix, entries, channels, where)

    Y, A, B = (matrix(spec[key], f"explicit.{key}") for key in "YAB")
    F, G = (matrices(spec[key], f"explicit.{key}") for key in "FG")
    W = _list_of(matrices, spec["W"], channels, "explicit.W", "rows")
    y1inv = None
    if "y1inv_override" in spec:
        y1inv = matrix(spec["y1inv_override"], "explicit.y1inv_override")
    try:
        model = ScaledModel(Y=Y, A=A, B=B, F=F, G=G, W=W)
    except QsdeElimError as exc:
        raise ModelFileError(f"explicit: {exc}") from exc
    return model, y1inv


def parse_model_document(doc) -> ModelFile:
    _require_keys(doc, {"schema_version", "builtin", "explicit"}, {"schema_version"}, "model file")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ModelFileError(
            f"model file: unsupported schema_version {doc['schema_version']!r}"
        )
    if ("builtin" in doc) == ("explicit" in doc):
        raise ModelFileError("model file: exactly one of 'builtin' or 'explicit' is required")
    if "builtin" in doc:
        model = _build_builtin(doc["builtin"])
        return ModelFile(model=model, y1inv_override=None, label=doc["builtin"]["name"])
    model, y1inv = _build_explicit(doc["explicit"])
    return ModelFile(model=model, y1inv_override=y1inv, label="explicit")


def read_json_file(path: str | Path, kind: str):
    """The JSON document in a model or drive file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelFileError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ModelFileError(f"{path}: JSON nested too deeply") from exc


def read_model_file(path: str | Path) -> ModelFile:
    doc = read_json_file(path, "model")
    try:
        return parse_model_document(doc)
    except QsdeElimError as exc:
        if isinstance(exc, ModelFileError):
            raise
        raise ModelFileError(f"{path}: {exc}") from exc


def model_to_document(m: ScaledModel, y1inv_override: np.ndarray | None = None) -> dict:
    """Serialize a scaled model back to the explicit file schema."""
    explicit = {
        "dim": m.dim,
        "channels": m.channels,
        "Y": matrix_to_pairs(m.Y),
        "A": matrix_to_pairs(m.A),
        "B": matrix_to_pairs(m.B),
        "F": [matrix_to_pairs(f) for f in m.F],
        "G": [matrix_to_pairs(g) for g in m.G],
        "W": [[matrix_to_pairs(w) for w in row] for row in m.W],
    }
    if y1inv_override is not None:
        explicit["y1inv_override"] = matrix_to_pairs(y1inv_override)
    return {"schema_version": SCHEMA_VERSION, "explicit": explicit}


# ---------------------------------------------------------------------------
# settings: the parsed flags, checked

def _parse_drive(spec) -> StepDrive:
    _require_keys(spec, {"breakpoints", "amplitudes"}, {"breakpoints", "amplitudes"}, "drive")
    bps = spec["breakpoints"]
    if not isinstance(bps, list) or not all(map(_is_number, bps)):
        raise ModelFileError("drive.breakpoints: expected a list of numbers")
    rows = spec["amplitudes"]
    if not isinstance(rows, list):
        raise ModelFileError("drive.amplitudes: expected a list of per-segment rows")
    amps = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ModelFileError(f"drive.amplitudes[{i}]: expected a list of channel amplitudes")
        amps.append([_complex(x, f"drive.amplitudes[{i}][{j}]") for j, x in enumerate(row)])
    try:
        return StepDrive(breakpoints=bps, amplitudes=amps)
    except QsdeElimError as exc:
        raise ModelFileError(f"drive: {exc}") from exc


def _couplings(text: str) -> list[float]:
    """The --ks list; a malformed one is a usage error."""
    try:
        ks = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return ks


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed flags, with both tolerances checked and the drive file read."""
    for key in ("rank_tol", "tol"):
        value = getattr(args, key, DEFAULT_TOL)
        if not (math.isfinite(value) and value > 0):
            flag = "--" + key.replace("_", "-")
            raise InvalidArgument(f"{flag}: expected a finite positive tolerance, got {value!r}")
    if getattr(args, "drive", None) is not None:
        args.drive = _parse_drive(read_json_file(args.drive, "drive"))
    return args


# ---------------------------------------------------------------------------
# reports: each command builds one document or CSV text, and _write sends it

def _json_float(x) -> float | None:
    """A JSON number, or null where float64 overflowed (strict JSON has no NaN)."""
    x = float(x)
    return x if math.isfinite(x) else None


def _report_section(name: str, report) -> dict:
    return {
        "name": name,
        "passed": bool(report.passed),
        "tolerance": _json_float(report.tolerance),
        "residuals": [
            {"identity": ident, "residual": _json_float(res)}
            for ident, res in report.residuals
        ],
    }


def _header(command: str, mf: ModelFile) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "model": mf.label}


def _row(*cells) -> str:
    """A CSV line: a label as it is, a number as the repr of its float."""
    return ",".join(c if isinstance(c, str) else repr(float(c)) for c in cells)


def _csv(*tables) -> str:
    """(header, rows) tables, separated by a blank line."""
    return "\n\n".join(
        "\n".join([header, *(_row(*cells) for cells in rows)]) for header, rows in tables
    ) + "\n"


def _write(out: str | None, report) -> None:
    """Write a report, a JSON document or CSV text, to the file out or else to stdout."""
    if not isinstance(report, str):
        report = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if not out:
        sys.stdout.write(report)
        return
    try:
        Path(out).write_text(report)
    except OSError as exc:
        raise InvalidArgument(f"cannot write {out}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed model file, the settings and the
# elimination result that main computed once for every command

def _model_sections(m: ScaledModel, tol: float) -> list[dict]:
    """The check sections that do not need the elimination result."""
    # a residual or norm scale that overflows fails its section, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        return [
            _report_section("unitarity (k=1)", check_hp_unitarity(instantiate(m, 1.0), tol)),
            _report_section("scaling-consistency", check_scaling_consistency(m, tol)),
        ]


def _elimination_sections(result: EliminationResult) -> list[dict]:
    return [
        _report_section("inverse-structure", result.inverse_structure),
        _report_section("ground-support", result.ground_support),
        _report_section("limit-unitarity", result.limit_unitarity),
    ]


def cmd_check(mf: ModelFile, args, result: EliminationResult) -> int:
    """Run every structural identity check and report residuals."""
    sections = _model_sections(mf.model, args.tol) + _elimination_sections(result)
    passed = all(section["passed"] for section in sections)
    _write(args.out, {
        **_header("check", mf),
        "passed": passed,
        "ground_rank": result.decomposition.P0.rank,
        "sections": sections,
        "warnings": result.warnings,
    })
    return EXIT_OK if passed else EXIT_ASSUMPTION


def cmd_eliminate(mf: ModelFile, args, result: EliminationResult) -> int:
    """Write the limit model (as an explicit model file) plus a report file.

    The limit coefficients are encoded as a coupling-independent family:
    Y = A = 0, B = K, F = 0, G = L, W = S.  The elimination report (ground
    projector, restricted inverse, all check sections) goes to a sibling file
    '<out>.report.json' when --out is given, else into the same stream.
    """
    limit = result.limit
    zero = np.zeros((limit.dim, limit.dim), dtype=complex)
    model_doc = model_to_document(
        ScaledModel(Y=zero, A=zero, B=limit.K, F=[zero] * limit.channels, G=limit.L, W=limit.S)
    )
    passed = result.assumptions_pass and result.limit_unitarity.passed
    report_doc = {
        **_header("eliminate", mf),
        "ground_rank": result.decomposition.P0.rank,
        "p0": matrix_to_pairs(result.decomposition.P0.matrix),
        "y1inv": matrix_to_pairs(result.decomposition.Y1inv),
        "sections": _elimination_sections(result),
        "warnings": result.warnings,
        "passed": passed,
    }
    if args.out:
        _write(args.out, model_doc)
        _write(args.out + ".report.json", report_doc)
    else:
        _write(None, {"limit_model": model_doc, "report": report_doc})
    return EXIT_OK if passed else EXIT_ASSUMPTION


def cmd_converge(mf: ModelFile, args, result: EliminationResult) -> int:
    """Sweep couplings and emit the convergence distances."""
    v = default_ground_vector(result.decomposition.P0)
    r = k_sweep(mf.model, result, v, args.ks, args.horizon, args.steps, args.drive)
    if args.format == "csv":
        grid = [(k, t, d) for k, row in zip(r.ks, r.distances) for t, d in zip(r.t_grid, row)]
        sups = zip(r.ks, r.sup_distance)
        _write(args.out, _csv(("k,t,distance", grid), ("k,sup_distance", sups)))
        return EXIT_OK
    _write(args.out, {
        **_header("converge", mf),
        "ks": r.ks.tolist(),
        "t_grid": r.t_grid.tolist(),
        "distances": r.distances.tolist(),
        "sup_distance": r.sup_distance.tolist(),
        "max_clamp": float(r.max_clamp),
    })
    return EXIT_OK


def _ground_basis_labels(P0: Projector) -> list[tuple[str, np.ndarray]]:
    """P0 itself plus a rank-one operator basis u_a u_b† of the ground sector."""
    labeled = [("P0", P0.matrix.copy())]
    cols = P0.basis().T
    for a, ua in enumerate(cols):
        for b, ub in enumerate(cols):
            labeled.append((f"E[{a}][{b}]", np.outer(ua, ub.conj())))
    return labeled


def cmd_kurtz(mf: ModelFile, args, result: EliminationResult) -> int:
    """Corrected vs uncorrected generator residuals for ground observables.

    The report is written even when every residual overflowed; that run then
    fails as a numerical failure.
    """
    rows = []
    slopes = []
    for label, X in _ground_basis_labels(result.decomposition.P0):
        res = generator_convergence_check(mf.model, result, X, args.ks)
        rows += [
            (label, float(k), float(c), float(u))
            for k, c, u in zip(res.ks, res.corrected, res.uncorrected)
        ]
        slopes.append((label, res.corrected_slope()))
    if args.format == "csv":
        _write(args.out, _csv(("label,k,corrected,uncorrected", rows), ("label,slope", slopes)))
    else:
        _write(args.out, {
            **_header("kurtz", mf),
            "ks": list(args.ks),
            "residuals": [
                dict(label=label, k=k, corrected=_json_float(c), uncorrected=_json_float(u))
                for label, k, c, u in rows
            ],
            "slopes": [{"label": label, "slope": _json_float(slope)} for label, slope in slopes],
        })
    if not any(math.isfinite(c) or math.isfinite(u) for _, _, c, u in rows):
        raise NumericalFailure("every generator residual overflowed to a non-finite value")
    return EXIT_OK


def _report_singular_restriction(args, mf: ModelFile, exc: SingularRestriction) -> int:
    """Each command's documented output when Y is not invertible on the excited sector."""
    if args.command == "check":
        _write(args.out, {
            **_header("check", mf),
            "passed": False,
            "sections": _model_sections(mf.model, args.tol),
            "error": (
                f"{exc} (supply an explicit 'y1inv_override' in the model file "
                "to bypass the automatic restricted inverse)"
            ),
        })
    else:
        hint = "hint: supply an explicit 'y1inv_override' matrix in the model file\n"
        sys.stderr.write(f"error: {exc}\n" + (hint if args.command == "eliminate" else ""))
    return EXIT_ASSUMPTION


# ---------------------------------------------------------------------------
# argument parsing

FLAGS = {
    "--model": dict(required=True, help="path to a model JSON file"),
    "--rank-tol": dict(
        type=float, default=DEFAULT_RANK_TOL, help="relative singular-value cutoff for Ker(Y)"
    ),
    "--tol": dict(type=float, default=DEFAULT_TOL, help="identity check tolerance"),
    "--ks": dict(type=_couplings, help="comma-separated couplings, e.g. 1,2,5,10"),
    "--horizon": dict(type=float, default=1.0, help="time horizon of the sweep"),
    "--steps": dict(type=int, default=DEFAULT_STEPS, help="number of grid points on [0, horizon]"),
    "--drive": dict(help="path to a step-drive JSON file (default: vacuum)"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
    "--out": dict(help="output path (default: stdout)"),
}

# each command takes --model, --rank-tol and exactly the flags of the settings
# it reads; the third entry holds its own defaults
COMMANDS = {
    "check": (cmd_check, "--tol --out", {}),
    "eliminate": (cmd_eliminate, "--tol --out", {}),
    "converge": (
        cmd_converge,
        "--ks --horizon --steps --drive --format --out",
        dict(ks=[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]),
    ),
    "kurtz": (cmd_kurtz, "--ks --format --out", dict(ks=[10.0, 30.0, 100.0, 300.0])),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other bad input; 2 means a failed assumption."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsde-elim",
        description="Adiabatic elimination of coupling-scaled quantum stochastic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, flags, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__.splitlines()[0])
        for flag in ("--model", "--rank-tol", *flags.split()):
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    try:
        args = _settings(build_parser().parse_args(argv))
        mf = read_model_file(args.model)
        tol = getattr(args, "tol", DEFAULT_TOL)
        try:
            result = eliminate(mf.model, args.rank_tol, tol, mf.y1inv_override)
        except SingularRestriction as exc:
            return _report_singular_restriction(args, mf, exc)
        return COMMANDS[args.command][0](mf, args, result)
    except QsdeElimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL if isinstance(exc, NumericalFailure) else EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
