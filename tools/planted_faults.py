"""The planted-fault catalog: each fault must be caught by the tests it names.

    python3 tools/planted_faults.py [NAME ...]

Each entry of FAULTS is (name, file, old text, new text, tests).  For every
entry (or only those named), src/, tests/, tools/, bench/, pyproject.toml and
README.md are copied to a temporary directory, the one occurrence of the old
text in the file is replaced by the new text, and only the named tests run
there.  The
script prints one line per fault and exits with status 1 if any named test
passes, or is not run, with its fault planted: that test no longer rejects
the fault it is listed for.  A fault takes a few seconds.

A refactor that moves code must move its entries along:
tests/test_planted_faults.py checks, without planting anything, that each old
text occurs exactly once in its file and that each named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "bench", "pyproject.toml", "README.md")

SEMIGROUP = "src/qsde_elim/semigroup.py"
ELIMINATE = "src/qsde_elim/eliminate.py"
LINALG = "src/qsde_elim/linalg.py"
MODEL = "src/qsde_elim/model.py"
T_SEMIGROUP = "tests/test_semigroup.py"
T_ELIMINATE = "tests/test_eliminate.py"
T_ACCEPTANCE = "tests/test_acceptance.py"
T_CLI = "tests/test_cli.py"
RECORDED = T_CLI + "::test_cli_bytes_match_recorded_reference"

FAULTS = [
    (
        "kurtz_corrector's X2 times (1 + 1e-6)",
        SEMIGROUP,
        "X2 = -(_apply_terms(l0, X) + _apply_terms(l1, X1)) @ YP\n",
        "X2 = -(_apply_terms(l0, X) + _apply_terms(l1, X1)) @ YP * (1 + 1e-6)\n",
        [
            T_SEMIGROUP + "::test_kurtz_corrector_identities_on_random_model",
            T_SEMIGROUP + "::test_kurtz_corrector_reads_the_generator_terms",
            T_CLI + "::test_cli_bytes_match_recorded_reference[kurtz:cavity]",
        ],
    ),
    (
        "X2 without its L1(X1) term",
        SEMIGROUP,
        "X2 = -(_apply_terms(l0, X) + _apply_terms(l1, X1)) @ YP\n",
        "X2 = -_apply_terms(l0, X) @ YP\n",
        [
            T_SEMIGROUP + "::test_kurtz_corrector_identities_on_random_model",
            T_SEMIGROUP + "::test_kurtz_corrector_reads_the_generator_terms",
            T_CLI + "::test_cli_bytes_match_recorded_reference[kurtz:lambda]",
        ],
    ),
    (
        "the displaced L without its closure term",
        ELIMINATE,
        'L2 = L + contract("j,ijab->iab", a, S) - a[:, None, None] * closure\n',
        'L2 = L + contract("j,ijab->iab", a, S)\n',
        [
            T_ELIMINATE + "::test_displaced_models_remain_consistent",
            T_ELIMINATE + "::test_displacing_decoupled_channels_is_inert",
            T_SEMIGROUP + "::test_driven_sweep_frozen_values",
            T_ACCEPTANCE + "::test_criterion_6_coherent_certification",
        ],
    ),
    (
        "sup_distance read at the last grid time",
        SEMIGROUP,
        "sup_distance=distances.max(axis=1),",
        "sup_distance=distances[:, -1],",
        [
            T_SEMIGROUP + "::test_vacuum_distance_two_level_frozen_values",
            T_SEMIGROUP + "::test_k_sweep_matches_pointwise_vacuum_distance",
            T_CLI + "::test_cli_bytes_match_recorded_reference[converge:two_level]",
        ],
    ),
    (
        "a clamp never aborts",
        SEMIGROUP,
        "bad = ~np.isfinite(vals) | (clamps > CLAMP_ABORT)\n",
        "bad = ~np.isfinite(vals)\n",
        [
            T_SEMIGROUP + "::test_distance_form_clamps_and_aborts",
            T_SEMIGROUP + "::test_a_readout_that_fails_first_wins_over_a_step_refusal",
            T_CLI + "::test_converge_clamp_beyond_abort_exits_3",
        ],
    ),
    (
        "the split's zero-block check removed",
        SEMIGROUP,
        "if kk * G2_off + k * G1_ss > len(G1) * EPS * size:\n",
        "if False:\n",
        [
            T_SEMIGROUP + "::test_a_planted_slow_slow_block_falls_back_to_the_dense_path",
            T_SEMIGROUP + "::test_a_residual_the_split_would_drop_falls_back_at_k_100",
        ],
    ),
    (
        "the fast term always dropped",
        SEMIGROUP,
        "if not _spectrum_below(self.S, -self.log_margin / h):\n",
        "if False:\n",
        [
            T_SEMIGROUP + "::test_the_split_drops_the_fast_term_as_the_eigenvalue_rule[cavity-d16]",
            T_SEMIGROUP + "::test_the_split_drops_the_fast_term_as_the_eigenvalue_rule[lambda-d12]",
            T_SEMIGROUP + "::test_the_split_drops_the_fast_term_as_the_eigenvalue_rule[two_level]",
        ],
    ),
    (
        "the restricted inverse times (1 + 1e-7)",
        LINALG,
        "R = basis @ Rr @ dagger(basis)\n",
        "R = basis @ Rr @ dagger(basis) * (1 + 1e-7)\n",
        [
            T_ACCEPTANCE + "::test_criterion_1_two_level_closed_form",
            T_ACCEPTANCE + "::test_criterion_5_vacuum_certification",
            "tests/test_catalog.py::test_catalog_grid_satisfies_every_check",
        ],
    ),
    (
        "the limit K times (1 + 1e-9)",
        ELIMINATE,
        "K = P0m @ (m.B - lim[0, 0]) @ P0m\n",
        "K = P0m @ (m.B - lim[0, 0]) @ P0m * (1 + 1e-9)\n",
        [
            T_ACCEPTANCE + "::test_criterion_1_two_level_closed_form",
            T_ELIMINATE + "::test_two_level_limit_matches_closed_form",
            T_CLI + "::test_cli_bytes_match_recorded_reference[eliminate:two_level]",
        ],
    ),
    (
        "steps snapped to h within 1e-3·horizon, not 4·eps·horizon",
        SEMIGROUP,
        "near = 4.0 * EPS * horizon\n",
        "near = 1e-3 * horizon\n",
        [
            f"{T_SEMIGROUP}::test_a_breakpoint_just_past_a_grid_time_meets_the_grid_difference_"
            f"stepper[{offset}-{horizon}]"
            for offset in ("1e-06", "0.001")
            for horizon in ("1.0", "0.7")
        ],
    ),
    (
        "the kept parts keyed without the model's bytes",
        SEMIGROUP,
        "if kept is None or kept[0] != key:\n",
        "if kept is None:\n",
        [
            f"{T_SEMIGROUP}::test_another_model_swept_with_the_result_gets_its_own_parts[{name}]"
            for name in ("cavity-d16", "two_level")
        ],
    ),
    (
        "the kept parts holding the decoupled terms of a coupling",
        SEMIGROUP,
        "        decoupled = cache(partial(parts.decouple, scaled, k))\n",
        '        kept = parts.__dict__.setdefault("decoupled", {})\n'
        "        decoupled = lambda: kept[k] if k in kept else "
        "kept.setdefault(k, parts.decouple(scaled, k))\n",
        [
            T_SEMIGROUP + "::test_a_second_sweep_at_the_same_coupling_decouples_again",
            *(
                f"{T_SEMIGROUP}::test_a_repeated_coupling_decouples_each_segment_once_per_"
                f"occurrence[{drive}-{name}]"
                for drive in ("driven", "vacuum")
                for name in ("cavity-d16", "two_level")
            ),
        ],
    ),
    (
        "kept parts skip the budget refusal",
        SEMIGROUP,
        "        _require_budget(rows * d)\n",
        "",
        [
            f"{T_SEMIGROUP}::test_the_refusals_run_on_every_sweep_with_kept_parts[{n_trunc}]"
            for n_trunc in (4, 16)
        ],
    ),
    (
        "kept parts left writable",
        SEMIGROUP,
        "        a.flags.writeable = False\n",
        "        pass\n",
        [T_SEMIGROUP + "::test_the_kept_parts_are_read_only"],
    ),
    (
        "the kept entry stored before its rotation is built",
        SEMIGROUP,
        "    if kept is None or kept[0] != key:\n",
        "    if kept is None or kept[0] != key:\n        e._sweep_parts = (key, None)\n",
        [T_SEMIGROUP + "::test_a_build_that_raises_is_not_kept[_Rotation]"],
    ),
    (
        "k²Yᵀ added on the first d0 diagonal blocks only",
        SEMIGROUP,
        "        for a in range(rows):  # a view: gen is a new C-ordered array\n",
        "        for a in range(len(self.K)):\n",
        [
            f"{T_SEMIGROUP}::test_the_parts_make_the_assembled_ground_row_generator[{name}]"
            for name in ("alkali", "cavity-d8", "lambda-d6", "random-d8", "two_level")
        ],
    ),
    (
        "the ground-row parts marked built before their build",
        SEMIGROUP,
        "        if self._stepper is None:\n",
        "        if self._stepper is None:\n            self._stepper = ()\n",
        [T_SEMIGROUP + "::test_a_build_that_raises_is_not_kept[_generator_terms]"],
    ),
    (
        "no snapping to h",
        SEMIGROUP,
        "            if h is not None:\n",
        "            if False:\n",
        [
            *(
                f"{T_SEMIGROUP}::test_the_ground_rows_take_one_exponential_per_step_length[{drive}]"
                for drive in ("off-grid", "on-grid", "vacuum")
            ),
            T_SEMIGROUP + "::test_a_refused_step_length_comes_after_the_earlier_grid_times",
        ],
    ),
    (
        "partial first steps snapped to h",
        SEMIGROUP,
        "                dts = np.where(np.abs(dts - h) <= near, h, dts)\n",
        "                dts = np.where(dts > 0, h, dts)\n",
        [
            T_SEMIGROUP + "::test_the_ground_rows_take_one_exponential_per_step_length[off-grid]",
            *(
                f"{T_SEMIGROUP}::test_one_step_length_meets_the_grid_difference_stepper[{case}]"
                for case in ("driven-lambda-d12", "driven5-cavity-d16")
            ),
            f"{T_SEMIGROUP}::test_a_breakpoint_just_past_a_grid_time_meets_the_grid_difference_"
            "stepper[1e-06-1.0]",
        ],
    ),
    (
        "the Cholesky threshold shifted by 1e-9 of itself",
        SEMIGROUP,
        "    shifted[np.diag_indices_from(shifted)] += c\n",
        "    shifted[np.diag_indices_from(shifted)] += c * (1 + 1e-9)\n",
        [
            f"{T_SEMIGROUP}::test_the_cholesky_test_decides_as_the_largest_eigenvalue[{n}]"
            for n in (1, 2, 7, 24, 60)
        ],
    ),
    (
        "the split's check blind to P0·Y·P1, G₂'s fast-slow block",
        SEMIGROUP,
        "            G2_off = math.hypot(float(np.linalg.norm(G2[f, s])), "
        "float(np.linalg.norm(G2[s])))\n",
        "            G2_off = float(np.linalg.norm(G2[s]))\n",
        [T_SEMIGROUP + "::test_a_residual_the_split_would_drop_falls_back_at_k_100"],
    ),
    (
        "a refused step raised before the block's earlier states are yielded",
        SEMIGROUP,
        "                failure, Ws = exc, Ws[:i]\n",
        "                raise\n",
        [
            T_SEMIGROUP + "::test_a_state_is_read_before_a_later_step_is_refused",
            T_SEMIGROUP + "::test_a_readout_that_fails_first_wins_over_a_step_refusal",
            T_SEMIGROUP + "::test_a_refused_step_length_comes_after_the_earlier_grid_times",
        ],
    ),
    (
        "the segment-end matrix formed before the segment's blocks",
        SEMIGROUP,
        "        w = w0\n",
        "        w = w0\n        if stop < t_grid.size:\n            exp(end - start)\n",
        [
            T_SEMIGROUP + "::test_a_segment_is_read_before_its_full_duration_step",
            T_SEMIGROUP + "::test_a_refused_step_length_comes_after_the_earlier_grid_times",
            T_SEMIGROUP + "::test_the_ground_rows_take_one_exponential_per_step_length[on-grid]",
        ],
    ),
    (
        "every step taken anew, without the segment's memo",
        SEMIGROUP,
        "        exp = cache(lambda dt: _step_exponential(dt, gen, norm1, k, horizon, decoupled))\n",
        "        exp = lambda dt: _step_exponential(dt, gen, norm1, k, horizon, decoupled)\n",
        [
            T_SEMIGROUP + "::test_the_full_state_keeps_one_exponential_per_float_difference",
            T_SEMIGROUP + "::test_the_ground_rows_take_one_exponential_per_step_length[vacuum]",
        ],
    ),
    (
        "one block for the whole grid",
        SEMIGROUP,
        "    head, idx = None, 0  # H, None while no segment has ended; the next grid index\n",
        "    head, idx, rows = None, 0, t_grid.size\n",
        [T_SEMIGROUP + "::test_a_long_sweep_reads_its_grid_in_bounded_blocks"],
    ),
    (
        "decompose's own V0 checked again",
        ELIMINATE,
        "        if not _from_svd and not (  # a NaN entry fails too\n",
        "        if not (  # a NaN entry fails too\n",
        [
            f"{T_ELIMINATE}::test_decompose_hands_over_the_svds_ground_basis_unchecked[{case}]"
            for case in ("8-2", "16-3")
        ],
    ),
    (
        "the norm scale taken per report",
        MODEL,
        "    @cached_property\n    def _scale(self) -> float:\n",
        "    @property\n    def _scale(self) -> float:\n",
        [
            f"{T_ELIMINATE}::test_the_limit_reports_share_one_norm_scale[{name}]"
            for name in ("two_level", "cavity", "random-d16-n3", "random-d32-n1")
        ],
    ),
    # each d <= 8 branch of RECORDED_ARITHMETIC_MAX_DIM switched to its d > 8
    # arithmetic moves the recorded outputs that the comment on the constant names
    (
        "contract's channel sums by BLAS at d <= 8",
        LINALG,
        "    if d <= RECORDED_ARITHMETIC_MAX_DIM:\n        return np.einsum(spec, *operands)\n",
        "    if False:\n        return np.einsum(spec, *operands)\n",
        [f"{RECORDED}[{cmd}:{model}]" for cmd in ("check", "eliminate")
         for model in ("two_level", "alkali")],
    ),
    (
        "decompose solving Y1inv on the SVD's vectors at d <= 8",
        ELIMINATE,
        "excited = P0.complement().basis() if d <= RECORDED_ARITHMETIC_MAX_DIM else V[:, :d1]\n",
        "excited = V[:, :d1]\n",
        [f"{RECORDED}[{cmd}:lambda]" for cmd in ("check", "eliminate", "converge", "kurtz")],
    ),
    (
        "the inverse-structure check on V0 at d <= 8",
        ELIMINATE,
        "    if d <= RECORDED_ARITHMETIC_MAX_DIM:\n        left = right = P0m\n",
        "    if False:\n        left = right = P0m\n",
        [f"{RECORDED}[{cmd}:{model}]" for cmd in ("check", "eliminate")
         for model in ("cavity", "lambda")],
    ),
    (
        "the ground rows stepped by the one step length at d <= 8",
        SEMIGROUP,
        "    full_state = m.dim <= RECORDED_ARITHMETIC_MAX_DIM\n",
        "    full_state = False\n",
        [f"{RECORDED}[converge:{model}]" for model in ("two_level", "alkali", "cavity", "lambda")],
    ),
]


def plant(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def outcomes(report: Path) -> dict[str, bool]:
    """Test id -> passed, from a pytest JUnit XML report."""
    result = {}
    for case in ET.parse(report).iter("testcase"):
        module = case.get("classname", "").replace(".", "/")
        passed = not any(child.tag in ("failure", "error", "skipped") for child in case)
        result[f"{module}.py::{case.get('name')}"] = passed
    return result


def run_fault(name: str, file: str, old: str, new: str, tests: list[str]) -> list[str]:
    """The named tests that do not fail with the fault planted."""
    with tempfile.TemporaryDirectory(prefix="planted-fault-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", "out", ".hypothesis")
                shutil.copytree(source, tree / part, ignore=ignore)
            else:
                shutil.copy2(source, tree / part)
        plant(tree, file, old, new)
        report = tree / "report.xml"
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        subprocess.run(
            [*cmd, f"--junitxml={report}", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        seen = outcomes(report) if report.exists() else {}
    return [t for t in tests if seen.get(t, True)]


def main(names: list[str]) -> int:
    unknown = set(names) - {f[0] for f in FAULTS}
    if unknown:
        print(f"no such fault: {sorted(unknown)}", file=sys.stderr)
        return 2
    missed = 0
    for name, file, old, new, tests in FAULTS:
        if names and name not in names:
            continue
        survivors = run_fault(name, file, old, new, tests)
        missed += bool(survivors)
        verdict = f"MISSED by {survivors}" if survivors else f"caught by all {len(tests)} tests"
        print(f"{name}: {verdict}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
