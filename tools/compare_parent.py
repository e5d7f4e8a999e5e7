"""Compare the k_sweep outputs of this source tree with those of another revision.

    python3 tools/compare_parent.py REV

REV is any local git revision, for example the parent commit (``HEAD~1``) or
the base of a pull request.  Its tree is exported with ``git archive`` into a
temporary directory, which is removed afterwards: no network is used, and
nothing is registered in the repository, so a run that is interrupted leaves
no git state behind.  One fixed corpus of sweeps runs on both trees, each tree
in its own interpreter with BLAS pinned to one thread.  The models and drives
are built once, here, and handed to both trees as arrays, so only the sweep
itself differs between them.

The corpus:

* 432 sweeps: 12 models (two_level, alkali, the cavity at n_trunc 4, 8 and 16,
  lambda at n_trunc 2 and 4, and five seeded random models with ground
  dimension 1 to 4), each under 12 drive and grid settings (the vacuum, the
  driven-catalog drive, a 3-segment and a 5-segment drive; horizons 1 and 0.7;
  37, 101 and 1001 grid points) at the couplings [5, 100], [1e4] and [0, 2];
* 105 refusal probes: 7 of the models at three values of CLAMP_ABORT, under
  horizons of 1e308, 1e100 and 1e6 and couplings up to 1e9, most of which
  refuse.

It prints whether every sweep of dimension at most RECORDED_ARITHMETIC_MAX_DIM
(8, the recorded arithmetic; read from this tree's package) has the same bits
on both trees, uint64 views of its distances and sup; the largest |Δd²| and
the largest relative change of a sup, among those of them whose bits differ
and among the sweeps above it; whether max_clamp is equal; and the exception
class and text of every refusal.  The exit status is 1 when
a sweep of dimension at most that changes a bit or its max_clamp, a larger
one moves by more than 1e-10 in d², a refusal changes its class or text, or a
sweep refuses on one tree only; else 0.

``--run CORPUS OUT`` is the worker that each tree's interpreter runs.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
D2_TOL = 1e-10  # the allowed move of d² above RECORDED_ARITHMETIC_MAX_DIM
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

KS = ([5.0, 100.0], [1e4], [0.0, 2.0])
# (breakpoints, amplitudes of every channel) of the drives; None is the vacuum
DRIVES = {
    "vacuum": None,
    "catalog": ([0.0, 0.5, 1.0], [0.3, -0.2]),
    "three": ([0.0, 0.3, 0.62, 1.0], [0.2, -0.1j, 0.15]),
    "five": ([0.0, 0.13, 0.37, 0.52, 0.86, 1.0], [0.3, -0.2j, 0.1, 0.05j, -0.25]),
}
GRIDS = (  # (drive, horizon, grid points)
    *((name, horizon, 101) for name in ("vacuum", "catalog", "three") for horizon in (1.0, 0.7)),
    *((name, 1.0, 1001) for name in ("vacuum", "catalog", "three")),
    ("five", 1.0, 37),
    ("five", 0.7, 37),
    ("five", 1.0, 1001),
)
RANDOM_SHAPES = ((1, 3, 1), (2, 3, 2), (2, 6, 2), (3, 9, 1), (4, 12, 2))  # (d0, d1, channels)
PROBE_MODELS = (
    "two_level", "alkali", "cavity-4", "cavity-16", "lambda-2", "lambda-4", "random-2-6-2"
)
PROBE_CLAMPS = (1e-6, 0.0, -1.0)
PROBE_SWEEPS = ((1e308, [5.0]), (1e100, [5.0]), (1e100, [1e9]), (1.0, [1e9]), (1e6, [100.0]))


def build_corpus() -> dict:
    """Model coefficients by name, and the sweeps as (id, model, ks, horizon,
    steps, drive, CLAMP_ABORT or None)."""
    from factories import random_valid_model

    from qsde_elim import catalog

    models = {
        "two_level": catalog.two_level_atom(1.0, 1.0, 0.5),
        "alkali": catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
    }
    for n_trunc in (4, 8, 16):
        models[f"cavity-{n_trunc}"] = catalog.default_cavity_system(n_trunc=n_trunc)
    for n_trunc in (2, 4):
        models[f"lambda-{n_trunc}"] = catalog.lambda_system(1.0, 2.0, 0.4, n_trunc)
    for seed, (d0, d1, n) in enumerate(RANDOM_SHAPES):
        models[f"random-{d0}-{d1}-{n}"] = random_valid_model(np.random.default_rng(seed), d0, d1, n)
    sweeps = []
    for name in models:
        for drive, horizon, steps in GRIDS:
            for ks in KS:
                sweep_id = f"{name} {drive} T={horizon:g} n={steps} ks={ks}"
                sweeps.append((sweep_id, name, ks, horizon, steps, DRIVES[drive], None))
    for name in PROBE_MODELS:
        for clamp in PROBE_CLAMPS:
            for horizon, ks in PROBE_SWEEPS:
                sweep_id = f"{name} vacuum T={horizon:g} ks={ks} CLAMP_ABORT={clamp:g}"
                sweeps.append((sweep_id, name, ks, horizon, 6, None, clamp))
    coefficients = {
        name: {a: np.array(getattr(m, a)) for a in ("Y", "A", "B", "F", "G", "W")}
        for name, m in models.items()
    }
    return {"models": coefficients, "sweeps": sweeps}


def run_corpus(corpus_path: str, out_path: str) -> None:
    """The worker: every sweep of the corpus on the package on sys.path."""
    from qsde_elim import ScaledModel, StepDrive, default_ground_vector, eliminate, k_sweep
    from qsde_elim import semigroup

    with open(corpus_path, "rb") as f:
        corpus = pickle.load(f)
    clamp_abort = semigroup.CLAMP_ABORT
    prepared, results = {}, {}
    for sweep_id, name, ks, horizon, steps, drive, clamp in corpus["sweeps"]:
        if name not in prepared:  # one elimination per model, as a caller sweeping it would keep
            m = ScaledModel(**corpus["models"][name])
            e = eliminate(m)
            prepared[name] = (m, e, default_ground_vector(e.decomposition.P0))
        m, e, v = prepared[name]
        if drive is not None:
            breakpoints, amps = drive
            drive = StepDrive(breakpoints, [[a] * m.channels for a in amps])
        semigroup.CLAMP_ABORT = clamp_abort if clamp is None else clamp
        try:
            rep = k_sweep(m, e, v, ks, horizon=horizon, steps=steps, drive=drive)
        except Exception as exc:  # noqa: BLE001 - every refusal is compared by class and text
            results[sweep_id] = (m.dim, "raise", type(exc).__name__, str(exc))
        else:
            results[sweep_id] = (m.dim, "ok", rep.distances, rep.sup_distance, rep.max_clamp)
    with open(out_path, "wb") as f:
        pickle.dump(results, f)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def compare(base: dict, here: dict) -> tuple[list[str], bool]:
    """Report lines, and whether every sweep keeps what it must."""
    from qsde_elim.linalg import RECORDED_ARITHMETIC_MAX_DIM as top
    lines, ok = [], True
    small = small_same = clamps_equal = completed = 0
    # (|Δd²|, relative sup change, sweep) of the d <= top sweeps whose bits
    # differ, and of every d > top sweep
    moved: dict[bool, list] = {True: [], False: []}
    refusals: dict[tuple[str, str], int] = {}
    for sweep_id, b in base.items():
        h = here[sweep_id]
        dim = b[0]
        if b[1] != h[1]:
            ok = False
            refusal = b[2:] if b[1] == "raise" else h[2:]
            lines.append(f"DIFFERS {sweep_id}: {b[1]} on REV, {h[1]} here: {refusal}")
            continue
        if b[1] == "raise":
            if b[2:] != h[2:]:
                ok = False
                lines.append(f"DIFFERS {sweep_id}: {b[2]}: {b[3]!r} on REV, {h[2]}: {h[3]!r} here")
            refusals[b[2:]] = refusals.get(b[2:], 0) + 1
            continue
        completed += 1
        clamp_same = same_bits(b[4], h[4])
        clamps_equal += clamp_same
        d2 = float(np.max(np.abs(b[2] ** 2 - h[2] ** 2)))
        sup = float(np.max(np.abs(b[3] - h[3]) / np.maximum(np.abs(b[3]), np.finfo(float).tiny)))
        if dim <= top:
            small += 1
            bits = same_bits(b[2], h[2]) and same_bits(b[3], h[3]) and clamp_same
            small_same += bits
            if bits:
                continue
            ok = False
            lines.append(f"DIFFERS {sweep_id}: d = {dim}, bits or max_clamp changed")
        elif not d2 <= D2_TOL:
            ok = False
            lines.append(f"DIFFERS {sweep_id}: d = {dim}, |Δd²| = {d2:.3g}")
        moved[dim <= top].append((d2, sup, sweep_id))
    lines.append(f"d <= {top}: {small_same} of {small} completed sweeps bit-identical (uint64)")
    for is_small, label, which in ((True, f"d <= {top}", "changed"), (False, f"d > {top}", "completed")):
        rows = [(0.0, 0.0, None), *moved[is_small]]  # a tie at 0 names no sweep
        d2, sup = max(rows, key=lambda r: r[0]), max(rows, key=lambda r: r[1])
        lines.append(f"{label}: {len(rows) - 1} {which} sweeps; largest |Δd²| {d2[0]:.3g} ({d2[2]})")
        lines.append(f"{label}: largest relative sup change {sup[1]:.3g} ({sup[2]})")
    lines.append(f"max_clamp equal on {clamps_equal} of {completed} completed sweeps")
    lines.append(f"refusals on REV: {sum(refusals.values())}, by class and text:")
    for (cls, text), count in sorted(refusals.items()):
        lines.append(f"  {count:4d} x {cls}: {text}")
    return lines, ok


def run_tree(tree: Path, corpus_path: Path, out_path: Path) -> dict:
    env = {**os.environ, **PINS, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--run", str(corpus_path), str(out_path)]
    subprocess.run(cmd, check=True, cwd=tree, env=env)
    with open(out_path, "rb") as f:
        return pickle.load(f)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--run":
        run_corpus(argv[1], argv[2])
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    # this tree's package, whose threshold compare reads, and the test factories
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    rev = subprocess.run(
        ["git", "rev-parse", "--verify", f"{argv[0]}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="compare-parent-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "rev"
        base_tree.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout, check=True)
        corpus = build_corpus()
        corpus_path = tmp / "corpus.pkl"
        with open(corpus_path, "wb") as f:
            pickle.dump(corpus, f)
        base = run_tree(base_tree, corpus_path, tmp / "rev.pkl")
        here = run_tree(ROOT, corpus_path, tmp / "here.pkl")
    print(f"REV {rev}: {len(corpus['sweeps'])} sweeps of the corpus on both trees")
    lines, ok = compare(base, here)
    print("\n".join(lines))
    print("same outputs as REV" if ok else "OUTPUTS DIFFER from REV")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
