"""Command line interface.

    qsde-elim check     --model m.json [--rank-tol 1e-9] [--tol 1e-9] [--out report.json]
    qsde-elim eliminate --model m.json [--rank-tol 1e-9] [--tol 1e-9] [--out limit.json]
    qsde-elim converge  --model m.json [--rank-tol 1e-9] [--ks 1,2,5,10,20,50,100]
                        [--horizon 1.0] [--steps 101] [--drive d.json]
                        [--format csv|json] [--out sweep.csv]
    qsde-elim kurtz     --model m.json [--rank-tol 1e-9] [--ks 10,30,100,300]
                        [--format csv|json] [--out residuals.csv]

Each subcommand takes only the flags it reads.  Model files are JSON with
``schema_version`` 1 and exactly one of ``builtin`` or ``explicit``:

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

Builtin names: two_level (delta, gamma, alpha), alkali (delta, gamma, bx, by,
bz), cavity_system (gamma, n_trunc, optional e00/e10/e11 with dim_h),
lambda_system (gamma, g, alpha, n_trunc).  Complex scalars may be written as
[re, im].  Unknown fields anywhere are rejected.

A drive file for ``converge --drive`` is a step drive: the field amplitudes,
one row of channel amplitudes per segment between consecutive breakpoints
(without it the field is the vacuum):

    {"breakpoints": [0.0, 0.25, 0.5], "amplitudes": [[0.3], [[0.0, -0.2]]]}

Exit codes:

    0  success; for ``check`` and ``eliminate``, every identity passes
    1  usage, parse or validation error: an unknown flag (including one the
       subcommand does not read) or a malformed value prints the usage and
       exits 1, as do out-of-range or non-finite sweep arguments and
       tolerances (``--tol`` and ``--rank-tol`` must be finite and positive)
    2  structural (assumption) failure
    3  numerical failure: a limit coefficient overflowed, or a squared
       distance came out non-finite or negative beyond roundoff

``converge`` and ``kurtz`` exit 0 whenever the computation itself succeeds.
JSON output is strict: a non-finite residual or tolerance is written as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
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
# matrix encoding (Python floats round-trip bit-identically through JSON)

def matrix_to_pairs(M: np.ndarray) -> list[list[float]]:
    """Row-major list of [re, im] pairs."""
    M = np.asarray(M, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in M.reshape(-1, order="C")]


def pairs_to_matrix(pairs, dim: int, where: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != dim * dim:
        raise ModelFileError(f"{where}: expected {dim * dim} [re, im] entries")
    out = np.empty(dim * dim, dtype=complex)
    for idx, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ModelFileError(f"{where}[{idx}]: expected an [re, im] pair of numbers")
        out[idx] = complex(pair[0], pair[1])
    return out.reshape(dim, dim)


def _as_complex_scalar(value, where: str) -> complex:
    if isinstance(value, bool):
        raise ModelFileError(f"{where}: expected a number or [re, im] pair")
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        return complex(value[0], value[1])
    raise ModelFileError(f"{where}: expected a number or [re, im] pair")


def _as_real_scalar(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFileError(f"{where}: expected a real number")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFileError(f"{where}: expected an integer")
    return value


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFileError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ModelFileError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ModelFileError(f"{where}: missing field(s) {sorted(missing)}")


# ---------------------------------------------------------------------------
# model files

@dataclass
class ModelFile:
    """Parsed model file: the scaled model plus an optional Y1inv override."""

    model: ScaledModel
    y1inv_override: np.ndarray | None
    label: str


def _build_builtin(spec: dict) -> tuple[ScaledModel, str]:
    _require_keys(spec, {"name", "parameters"}, {"name", "parameters"}, "builtin")
    name = spec["name"]
    params = spec["parameters"]
    if not isinstance(params, dict):
        raise ModelFileError("builtin.parameters: expected an object")

    def real(key, default=None):
        if key not in params:
            if default is None:
                raise ModelFileError(f"builtin.parameters: missing '{key}'")
            return default
        return _as_real_scalar(params[key], f"builtin.parameters.{key}")

    if name == "two_level":
        _require_keys(params, {"delta", "gamma", "alpha"}, {"delta", "gamma", "alpha"},
                      "builtin.parameters")
        alpha = _as_complex_scalar(params["alpha"], "builtin.parameters.alpha")
        return catalog.two_level_atom(real("delta"), real("gamma"), alpha), name
    if name == "alkali":
        _require_keys(params, {"delta", "gamma", "bx", "by", "bz"},
                      {"delta", "gamma", "bx", "by", "bz"}, "builtin.parameters")
        return (
            catalog.alkali_atom(real("delta"), real("gamma"), real("bx"), real("by"), real("bz")),
            name,
        )
    if name == "cavity_system":
        _require_keys(params, {"gamma", "n_trunc", "dim_h", "e00", "e10", "e11"},
                      set(), "builtin.parameters")
        gamma = real("gamma", 1.0)
        n_trunc = _as_int(params.get("n_trunc", 4), "builtin.parameters.n_trunc")
        blocks = {k for k in ("e00", "e10", "e11") if k in params}
        if blocks:
            if blocks != {"e00", "e10", "e11"} or "dim_h" not in params:
                raise ModelFileError(
                    "builtin.parameters: e00, e10, e11 and dim_h must be given together"
                )
            dim_h = _as_int(params["dim_h"], "builtin.parameters.dim_h")
            e00 = pairs_to_matrix(params["e00"], dim_h, "builtin.parameters.e00")
            e10 = pairs_to_matrix(params["e10"], dim_h, "builtin.parameters.e10")
            e11 = pairs_to_matrix(params["e11"], dim_h, "builtin.parameters.e11")
        else:
            e00, e10, e11 = catalog.default_cavity_blocks()
        return catalog.cavity_system(gamma, e00, e10, e11, n_trunc), name
    if name == "lambda_system":
        _require_keys(params, {"gamma", "g", "alpha", "n_trunc"},
                      {"gamma", "g", "alpha"}, "builtin.parameters")
        alpha = _as_complex_scalar(params["alpha"], "builtin.parameters.alpha")
        n_trunc = _as_int(params.get("n_trunc", 4), "builtin.parameters.n_trunc")
        return catalog.lambda_system(real("gamma"), real("g"), alpha, n_trunc), name
    raise ModelFileError(f"builtin.name: unknown builtin '{name}'")


def _build_explicit(spec: dict) -> tuple[ScaledModel, np.ndarray | None]:
    allowed = {"dim", "channels", "Y", "A", "B", "F", "G", "W", "y1inv_override"}
    required = {"dim", "channels", "Y", "A", "B", "F", "G", "W"}
    _require_keys(spec, allowed, required, "explicit")
    dim = _as_int(spec["dim"], "explicit.dim")
    channels = _as_int(spec["channels"], "explicit.channels")
    if dim < 1 or channels < 1:
        raise ModelFileError("explicit: dim and channels must be positive")

    Y = pairs_to_matrix(spec["Y"], dim, "explicit.Y")
    A = pairs_to_matrix(spec["A"], dim, "explicit.A")
    B = pairs_to_matrix(spec["B"], dim, "explicit.B")

    def matrix_list(key):
        entries = spec[key]
        if not isinstance(entries, list) or len(entries) != channels:
            raise ModelFileError(f"explicit.{key}: expected {channels} matrices")
        return [pairs_to_matrix(m, dim, f"explicit.{key}[{i}]") for i, m in enumerate(entries)]

    F = matrix_list("F")
    G = matrix_list("G")
    Wspec = spec["W"]
    if not isinstance(Wspec, list) or len(Wspec) != channels:
        raise ModelFileError(f"explicit.W: expected {channels} rows")
    W = []
    for i, row in enumerate(Wspec):
        if not isinstance(row, list) or len(row) != channels:
            raise ModelFileError(f"explicit.W[{i}]: expected {channels} matrices")
        W.append([pairs_to_matrix(m, dim, f"explicit.W[{i}][{j}]") for j, m in enumerate(row)])

    y1inv = None
    if "y1inv_override" in spec:
        y1inv = pairs_to_matrix(spec["y1inv_override"], dim, "explicit.y1inv_override")

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
    has_builtin = "builtin" in doc
    has_explicit = "explicit" in doc
    if has_builtin == has_explicit:
        raise ModelFileError("model file: exactly one of 'builtin' or 'explicit' is required")
    if has_builtin:
        model, label = _build_builtin(doc["builtin"])
        return ModelFile(model=model, y1inv_override=None, label=label)
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
        "F": [matrix_to_pairs(m.F[i]) for i in range(m.channels)],
        "G": [matrix_to_pairs(m.G[i]) for i in range(m.channels)],
        "W": [
            [matrix_to_pairs(m.W[i, j]) for j in range(m.channels)]
            for i in range(m.channels)
        ],
    }
    if y1inv_override is not None:
        explicit["y1inv_override"] = matrix_to_pairs(y1inv_override)
    return {"schema_version": SCHEMA_VERSION, "explicit": explicit}


# ---------------------------------------------------------------------------
# run configuration

CONVERGE_KS = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
KURTZ_KS = [10.0, 30.0, 100.0, 300.0]


@dataclass
class RunConfig:
    """Run settings; a setting whose flag is not given keeps its default here."""

    rank_tol: float = DEFAULT_RANK_TOL
    tol: float = DEFAULT_TOL
    ks: list[float] = field(default_factory=lambda: list(CONVERGE_KS))
    horizon: float = 1.0
    steps: int = DEFAULT_STEPS
    drive: StepDrive | None = None
    out: str | None = None
    format: str = "csv"


def _parse_drive(spec, where: str) -> StepDrive:
    _require_keys(spec, {"breakpoints", "amplitudes"}, {"breakpoints", "amplitudes"}, where)
    bps = spec["breakpoints"]
    if not isinstance(bps, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in bps
    ):
        raise ModelFileError(f"{where}.breakpoints: expected a list of numbers")
    amps_spec = spec["amplitudes"]
    if not isinstance(amps_spec, list):
        raise ModelFileError(f"{where}.amplitudes: expected a list of per-segment rows")
    amps = []
    for i, row in enumerate(amps_spec):
        if not isinstance(row, list):
            raise ModelFileError(f"{where}.amplitudes[{i}]: expected a list of channel amplitudes")
        amps.append([_as_complex_scalar(x, f"{where}.amplitudes[{i}][{j}]") for j, x in enumerate(row)])
    try:
        return StepDrive(breakpoints=bps, amplitudes=amps)
    except QsdeElimError as exc:
        raise ModelFileError(f"{where}: {exc}") from exc


def _check_tolerance(value: float, flag: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise InvalidArgument(f"{flag}: expected a finite positive tolerance, got {value!r}")


def _couplings(text: str) -> list[float]:
    """The --ks list; a malformed one is a usage error."""
    try:
        ks = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return ks


def build_config(args) -> RunConfig:
    """Validate the flags given; the parser leaves every other setting out of args."""
    given = {key: value for key, value in vars(args).items() if key not in ("command", "model")}
    for key in ("rank_tol", "tol"):
        if key in given:
            _check_tolerance(given[key], "--" + key.replace("_", "-"))
    if "drive" in given:
        given["drive"] = _parse_drive(read_json_file(given["drive"], "drive"), "drive")
    default_ks = KURTZ_KS if args.command == "kurtz" else CONVERGE_KS
    return RunConfig(**{"ks": list(default_ks), **given})


# ---------------------------------------------------------------------------
# report helpers

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


def _write_text(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"


def _float_str(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed model file, the run config and the
# elimination result that main computed once for every command

def _model_sections(m: ScaledModel, cfg: RunConfig) -> list[dict]:
    """The check sections that do not need the elimination result."""
    return [
        _report_section("unitarity (k=1)", check_hp_unitarity(instantiate(m, 1.0), cfg.tol)),
        _report_section("scaling-consistency", check_scaling_consistency(m, cfg.tol)),
    ]


def cmd_check(mf: ModelFile, cfg: RunConfig, result: EliminationResult) -> int:
    """Run every structural identity check and report residuals."""
    sections = _model_sections(mf.model, cfg)
    sections.append(_report_section("inverse-structure", result.inverse_structure))
    sections.append(_report_section("ground-support", result.ground_support))
    sections.append(_report_section("limit-unitarity", result.limit_unitarity))
    passed = all(section["passed"] for section in sections)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "model": mf.label,
        "passed": passed,
        "ground_rank": result.decomposition.P0.rank,
        "sections": sections,
        "warnings": result.warnings,
    }
    _write_text(cfg.out, _json_dumps(doc))
    return EXIT_OK if passed else EXIT_ASSUMPTION


def cmd_eliminate(mf: ModelFile, cfg: RunConfig, result: EliminationResult) -> int:
    """Write the limit model (as an explicit model file) plus a report file.

    The limit coefficients are encoded as a coupling-independent family:
    Y = A = 0, B = K, F = 0, G = L, W = S.  The elimination report (ground
    projector, restricted inverse, all check sections) goes to a sibling file
    '<out>.report.json' when --out is given, else into the same stream.
    """
    limit = result.limit
    d, n = limit.dim, limit.channels
    zero = np.zeros((d, d), dtype=complex)
    limit_model = ScaledModel(Y=zero, A=zero, B=limit.K, F=[zero] * n, G=limit.L, W=limit.S)
    model_doc = model_to_document(limit_model)
    report_doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "eliminate",
        "model": mf.label,
        "ground_rank": result.decomposition.P0.rank,
        "p0": matrix_to_pairs(result.decomposition.P0.matrix),
        "y1inv": matrix_to_pairs(result.decomposition.Y1inv),
        "sections": [
            _report_section("inverse-structure", result.inverse_structure),
            _report_section("ground-support", result.ground_support),
            _report_section("limit-unitarity", result.limit_unitarity),
        ],
        "warnings": result.warnings,
        "passed": result.assumptions_pass and result.limit_unitarity.passed,
    }
    if cfg.out:
        out = Path(cfg.out)
        out.write_text(_json_dumps(model_doc))
        Path(str(out) + ".report.json").write_text(_json_dumps(report_doc))
    else:
        sys.stdout.write(_json_dumps({"limit_model": model_doc, "report": report_doc}))
    return EXIT_OK if report_doc["passed"] else EXIT_ASSUMPTION


def _converge_csv(report) -> str:
    lines = ["k,t,distance"]
    for i, k in enumerate(report.ks):
        for j, t in enumerate(report.t_grid):
            lines.append(f"{_float_str(k)},{_float_str(t)},{_float_str(report.distances[i, j])}")
    lines.append("")
    lines.append("k,sup_distance")
    for i, k in enumerate(report.ks):
        lines.append(f"{_float_str(k)},{_float_str(report.sup_distance[i])}")
    return "\n".join(lines) + "\n"


def cmd_converge(mf: ModelFile, cfg: RunConfig, result: EliminationResult) -> int:
    """Sweep couplings and emit the convergence distances."""
    v = default_ground_vector(result.decomposition.P0)
    report = k_sweep(mf.model, result, v, cfg.ks, cfg.horizon, cfg.steps, cfg.drive)
    if cfg.format == "csv":
        _write_text(cfg.out, _converge_csv(report))
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "converge",
            "model": mf.label,
            "ks": report.ks.tolist(),
            "t_grid": report.t_grid.tolist(),
            "distances": report.distances.tolist(),
            "sup_distance": report.sup_distance.tolist(),
            "max_clamp": float(report.max_clamp),
        }
        _write_text(cfg.out, _json_dumps(doc))
    return EXIT_OK


def _ground_basis_labels(P0: Projector) -> list[tuple[str, np.ndarray]]:
    """P0 itself plus a rank-one operator basis u_a u_b† of the ground sector."""
    labeled = [("P0", P0.matrix.copy())]
    evals, evecs = np.linalg.eigh(P0.matrix)
    cols = [evecs[:, i] for i in range(P0.dim) if evals[i] > 0.5]
    for a, ua in enumerate(cols):
        for b, ub in enumerate(cols):
            labeled.append((f"E[{a}][{b}]", np.outer(ua, ub.conj())))
    return labeled


def cmd_kurtz(mf: ModelFile, cfg: RunConfig, result: EliminationResult) -> int:
    """Corrected vs uncorrected generator residuals for ground observables."""
    rows = []
    slopes = []
    for label, X in _ground_basis_labels(result.decomposition.P0):
        res = generator_convergence_check(mf.model, result, X, cfg.ks)
        for i, k in enumerate(res.ks):
            rows.append((label, float(k), float(res.corrected[i]), float(res.uncorrected[i])))
        slopes.append((label, res.corrected_slope()))
    if cfg.format == "csv":
        lines = ["label,k,corrected,uncorrected"]
        for label, k, corr, uncorr in rows:
            lines.append(f"{label},{_float_str(k)},{_float_str(corr)},{_float_str(uncorr)}")
        lines.append("")
        lines.append("label,slope")
        for label, slope in slopes:
            lines.append(f"{label},{_float_str(slope)}")
        _write_text(cfg.out, "\n".join(lines) + "\n")
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "kurtz",
            "model": mf.label,
            "ks": list(cfg.ks),
            "residuals": [
                dict(label=label, k=k, corrected=_json_float(c), uncorrected=_json_float(u))
                for label, k, c, u in rows
            ],
            "slopes": [
                {"label": label, "slope": _json_float(slope)} for label, slope in slopes
            ],
        }
        _write_text(cfg.out, _json_dumps(doc))
    return EXIT_OK


# each command takes --model, --rank-tol and exactly the flags of the settings it reads
COMMANDS = {
    "check": (cmd_check, "--tol --out"),
    "eliminate": (cmd_eliminate, "--tol --out"),
    "converge": (cmd_converge, "--ks --horizon --steps --drive --format --out"),
    "kurtz": (cmd_kurtz, "--ks --format --out"),
}


def _report_singular_restriction(
    command: str, mf: ModelFile, cfg: RunConfig, exc: SingularRestriction
) -> int:
    """Each command's documented output when Y is not invertible on the excited sector."""
    if command == "check":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "check",
            "model": mf.label,
            "passed": False,
            "sections": _model_sections(mf.model, cfg),
            "error": (
                f"{exc} (supply an explicit 'y1inv_override' in the model file "
                "to bypass the automatic restricted inverse)"
            ),
        }
        _write_text(cfg.out, _json_dumps(doc))
    elif command == "eliminate":
        sys.stderr.write(
            f"error: {exc}\n"
            "hint: supply an explicit 'y1inv_override' matrix in the model file\n"
        )
    else:
        sys.stderr.write(f"error: {exc}\n")
    return EXIT_ASSUMPTION


# ---------------------------------------------------------------------------
# argument parsing

FLAGS = {
    "--model": dict(required=True, help="path to a model JSON file"),
    "--rank-tol": dict(type=float, help="relative singular-value cutoff for Ker(Y)"),
    "--tol": dict(type=float, help="identity check tolerance"),
    "--ks": dict(type=_couplings, help="comma-separated couplings, e.g. 1,2,5,10"),
    "--horizon": dict(type=float, help="time horizon of the sweep"),
    "--steps": dict(type=int, help="number of grid points on [0, horizon]"),
    "--drive": dict(help="path to a step-drive JSON file (default: vacuum)"),
    "--format": dict(choices=("csv", "json"), help="output format"),
    "--out": dict(help="output path (default: stdout)"),
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
    for name, (command, flags) in COMMANDS.items():
        # flags not given stay out of args, so RunConfig holds every default
        summary = command.__doc__.splitlines()[0]
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        for flag in ("--model", "--rank-tol", *flags.split()):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = build_config(args)
        mf = read_model_file(args.model)
        try:
            result = eliminate(mf.model, cfg.rank_tol, cfg.tol, mf.y1inv_override)
        except SingularRestriction as exc:
            return _report_singular_restriction(args.command, mf, cfg, exc)
        command, _ = COMMANDS[args.command]
        return command(mf, cfg, result)
    except QsdeElimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL if isinstance(exc, NumericalFailure) else EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
