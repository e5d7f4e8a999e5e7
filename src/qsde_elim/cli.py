"""Command line interface.

    qsde-elim check     --model m.json [--tol 1e-9] [--out report.json]
    qsde-elim eliminate --model m.json --out limit.json
    qsde-elim converge  --model m.json [--ks 1,2,5,10,20,50,100] [--horizon 1.0]
                        [--steps 101] [--format csv|json] [--out sweep.csv]
    qsde-elim kurtz     --model m.json [--ks 10,30,100,300] [--format csv|json]

Model files are JSON with ``schema_version`` 1 and exactly one of ``builtin``
or ``explicit``:

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

Exit codes:

    0  success; for ``check`` and ``eliminate``, every identity passes
    1  parse or validation error, including out-of-range or non-finite sweep
       arguments and tolerances (``--tol``, ``check_tol`` and ``rank_tol``
       must be finite and positive)
    2  structural (assumption) failure
    3  numerical failure: a squared distance came out non-finite or negative
       beyond roundoff (ClampExceeded)

``converge`` and ``kurtz`` exit 0 whenever the computation itself succeeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import catalog
from .eliminate import EliminationResult, eliminate
from .errors import ClampExceeded, InvalidArgument, QsdeElimError, SingularRestriction
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
    """Schema violation in a model or config file; message names the field."""


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


def read_model_file(path: str | Path) -> ModelFile:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
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
    rank_tol: float = DEFAULT_RANK_TOL
    check_tol: float = DEFAULT_TOL
    ks: list[float] = field(default_factory=lambda: list(CONVERGE_KS))
    horizon: float = 1.0
    steps: int = DEFAULT_STEPS
    drive: StepDrive | None = None
    output: str | None = None
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


def read_config_file(path: str | Path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ModelFileError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    allowed = {"rank_tol", "check_tol", "ks", "horizon", "steps", "drive", "output", "format"}
    _require_keys(doc, allowed, set(), "config")
    return doc


def _tolerance(value, where: str) -> float:
    value = _as_real_scalar(value, where)
    if not (np.isfinite(value) and value > 0):
        raise InvalidArgument(f"{where}: expected a finite positive tolerance, got {value!r}")
    return value


def build_config(args) -> RunConfig:
    cfg = RunConfig(ks=list(KURTZ_KS if args.command == "kurtz" else CONVERGE_KS))
    if args.config:
        doc = read_config_file(args.config)
        if "rank_tol" in doc:
            cfg.rank_tol = _tolerance(doc["rank_tol"], "config.rank_tol")
        if "check_tol" in doc:
            cfg.check_tol = _tolerance(doc["check_tol"], "config.check_tol")
        if "ks" in doc:
            ks = doc["ks"]
            if not isinstance(ks, list) or not ks:
                raise ModelFileError("config.ks: expected a non-empty list of numbers")
            cfg.ks = [_as_real_scalar(k, "config.ks") for k in ks]
        if "horizon" in doc:
            cfg.horizon = _as_real_scalar(doc["horizon"], "config.horizon")
        if "steps" in doc:
            cfg.steps = _as_int(doc["steps"], "config.steps")
        if "drive" in doc:
            cfg.drive = _parse_drive(doc["drive"], "config.drive")
        if "output" in doc:
            cfg.output = str(doc["output"])
        if "format" in doc:
            if doc["format"] not in ("csv", "json"):
                raise ModelFileError("config.format: expected 'csv' or 'json'")
            cfg.format = doc["format"]
    if getattr(args, "ks", None):
        try:
            cfg.ks = [float(tok) for tok in args.ks.split(",") if tok.strip()]
        except ValueError as exc:
            raise ModelFileError(f"--ks: {exc}") from exc
        if not cfg.ks:
            raise ModelFileError("--ks: expected a comma-separated list of numbers")
    if getattr(args, "horizon", None) is not None:
        cfg.horizon = args.horizon
    if getattr(args, "steps", None) is not None:
        cfg.steps = args.steps
    if getattr(args, "tol", None) is not None:
        cfg.check_tol = _tolerance(args.tol, "--tol")
    if getattr(args, "out", None):
        cfg.output = args.out
    if getattr(args, "format", None):
        cfg.format = args.format
    return cfg


# ---------------------------------------------------------------------------
# report helpers

def _report_section(name: str, report) -> dict:
    return {
        "name": name,
        "passed": bool(report.passed),
        "tolerance": float(report.tolerance),
        "residuals": [
            {"identity": ident, "residual": float(res)} for ident, res in report.residuals
        ],
    }


def _write_text(cfg_output: str | None, text: str) -> None:
    if cfg_output:
        Path(cfg_output).write_text(text)
    else:
        sys.stdout.write(text)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _float_str(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed model file, the run config and the
# elimination result that main computed once for every command

def _model_sections(m: ScaledModel, cfg: RunConfig) -> list[dict]:
    """The check sections that do not need the elimination result."""
    return [
        _report_section("unitarity (k=1)", check_hp_unitarity(instantiate(m, 1.0), cfg.check_tol)),
        _report_section("scaling-consistency", check_scaling_consistency(m, cfg.check_tol)),
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
    _write_text(cfg.output, _json_dumps(doc))
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
    limit_model = ScaledModel(
        Y=zero,
        A=zero,
        B=limit.K,
        F=[zero] * n,
        G=[limit.L[i] for i in range(n)],
        W=[[limit.S[i, j] for j in range(n)] for i in range(n)],
    )
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
    if cfg.output:
        out = Path(cfg.output)
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
        _write_text(cfg.output, _converge_csv(report))
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
        _write_text(cfg.output, _json_dumps(doc))
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
        _write_text(cfg.output, "\n".join(lines) + "\n")
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "kurtz",
            "model": mf.label,
            "ks": list(cfg.ks),
            "residuals": [
                {"label": label, "k": k, "corrected": corr, "uncorrected": uncorr}
                for label, k, corr, uncorr in rows
            ],
            "slopes": [
                {"label": label, "slope": None if np.isnan(slope) else slope}
                for label, slope in slopes
            ],
        }
        _write_text(cfg.output, _json_dumps(doc))
    return EXIT_OK


COMMANDS = {
    "check": ("verify every structural identity of a model", cmd_check),
    "eliminate": ("compute the limit coefficients", cmd_eliminate),
    "converge": ("sweep couplings and report convergence distances", cmd_converge),
    "kurtz": ("corrected generator residuals over a coupling sweep", cmd_kurtz),
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
        _write_text(cfg.output, _json_dumps(doc))
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsde-elim",
        description="Adiabatic elimination of coupling-scaled quantum stochastic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="path to a model JSON file")
        p.add_argument("--config", help="path to a run-config JSON file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format where applicable")
        p.add_argument("--ks", help="comma-separated couplings, e.g. 1,2,5,10")
        p.add_argument("--horizon", type=float, help="time horizon for sweeps")
        p.add_argument("--steps", type=int, help="number of grid points on [0, horizon]")
        p.add_argument("--tol", type=float, help="identity check tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        mf = read_model_file(args.model)
        try:
            result = eliminate(mf.model, cfg.rank_tol, cfg.check_tol, mf.y1inv_override)
        except SingularRestriction as exc:
            return _report_singular_restriction(args.command, mf, cfg, exc)
        _, command = COMMANDS[args.command]
        return command(mf, cfg, result)
    except ClampExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except QsdeElimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
