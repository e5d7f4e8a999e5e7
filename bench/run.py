"""Benchmark of qsde-elim: four closed-loop workloads, one caller each.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree; the package is imported from ``src/``
and the random-model factory from ``tests/factories.py``.  Workloads:
driven-catalog, vacuum-ladder, certify-batch, cli-cold (see bench/README.md).

With ``--trace 0`` the run times one set-up in this process and two more in
child processes, then makes timed passes over the workload's items until the
next pass would end after ``--seconds``, checks every item against its
reference and prints the end-to-end metrics.  With ``--trace 1`` it makes one
untraced pass and one traced pass and prints the per-layer metrics.  Metric
names and units come from BENCHMARK.json.  Human-readable lines come first;
the last line of stdout is the JSON result.  Result and span files are
written to bench/out/.
"""

import time

START = time.perf_counter()  # set-up time counts from interpreter start-up here

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Pinned before numpy loads; children inherit the environment.  One thread
# measures the single-threaded baseline and keeps runs on a shared two-core
# machine steady (see bench/README.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

from spans import Tracer  # noqa: E402  (stdlib only; found through the path above)

WORKLOADS = ("driven-catalog", "vacuum-ladder", "certify-batch", "cli-cold")
REQUIRED = ("BENCHMARK.json", "src/qsde_elim/__init__.py", "tests/factories.py")
SETUP_SAMPLES = 3  # this process plus two children
CHILD_TIMEOUT_S = 150


@dataclass
class Pass:
    wall: float = 0.0
    times: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workload(name: str, seed: int, tracer):
    module = importlib.import_module(name.replace("-", "_"))
    return module.Workload(seed, tracer)


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_pass(wl, tracer) -> Pass:
    p = Pass()
    start = time.perf_counter()
    for item in wl.items:
        tracer.item = item
        t0 = time.perf_counter()
        try:
            with tracer.span("item"):
                p.results[item] = wl.run(item, tracer)
        except Exception:  # an item that raises is counted as failed, never dropped
            p.results[item] = {"error": traceback.format_exc()}
        p.times[item] = time.perf_counter() - t0
    p.wall = time.perf_counter() - start
    return p


def run_passes(wl, seconds: float, tracer) -> list:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, tracer))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def item_problems(wl, item, result, results) -> list:
    if "error" in result:
        return [result["error"].strip().splitlines()[-1]]
    try:
        return wl.problems(item, result, results)
    except Exception:
        return ["check raised: " + traceback.format_exc().strip().splitlines()[-1]]


def failures(wl, results: dict) -> dict:
    found = {}
    for item, result in results.items():
        problems = item_problems(wl, item, result, results)
        if problems:
            found[item] = problems
    return found


def selftests(wl, results: dict) -> list:
    """Each perturbation must turn exactly one more item into a failure."""
    base = len(failures(wl, results))
    outcome = []
    for label, item, bad in wl.perturbations(results):
        detected = len(failures(wl, {**results, item: bad})) == base + 1
        outcome.append({"perturbation": label, "item": item, "counted_as_failed": detected})
    return outcome


def blas_record() -> list:
    """Name, build configuration and live thread count of each loaded OpenBLAS."""
    import ctypes

    import numpy  # noqa: F401  (loads numpy's BLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    record = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry.update(config=config().decode(), threads=threads())
                    break
            if "threads" in entry:
                break
        record.append(entry)
    return record


def env_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "blas_threads_pinned": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def stiff_rel_err(wl, results: dict) -> float:
    import common

    sup = wl.stiff_sup(results)
    if sup is None:
        sup = common.two_level_vacuum_sup(common.STIFF_K)
    return common.stiff_rel_err(sup)


def end_to_end(wl, passes, setup_samples, stiff) -> dict:
    # each item's median over the passes, so a quantile across items does not
    # depend on how many passes fitted into the run
    times = [statistics.median(p.times[item] for p in passes) for item in wl.items]
    if hasattr(wl, "peak_rss_kb"):
        peak_kb = wl.peak_rss_kb(passes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": peak_kb / 1024.0,
        "stiff_rel_err": stiff,
        # printed and recorded, not in BENCHMARK.json (see bench/README.md)
        "item_p50_s": statistics.median(times),
        "item_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
    }


def per_layer(names, tracer, extras, untraced: Pass, traced: Pass) -> dict:
    table = tracer.table()
    special = {
        "linalg.expm.max_norm1": tracer.expm_max_norm1,
        "linalg.expm.max_dim": tracer.expm_max_dim,
        "semigroup.superop_bytes": tracer.superop_bytes,
        "trace.overhead_s": traced.wall - untraced.wall,
        "cli.interpreter_s": 0.0,
        "cli.import_s": 0.0,
        **extras,
    }
    values = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif stat in ("calls", "busy_s", "self_s"):
            values[name] = table.get(layer, {}).get(stat, 0)
        else:
            raise KeyError(f"no measurement for per-layer metric {name}")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        sys.stderr.write(f"error: not a qsde-elim source tree, missing {', '.join(missing)}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer(enabled=bool(args.trace))
    wl = load_workload(args.workload, args.seed, tracer)
    setup_s = time.perf_counter() - START
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            untraced = run_pass(wl, Tracer.disabled())
            with tracer.observe_kernels():
                traced = run_pass(wl, tracer)
                extras = wl.trace_extras(tracer) if hasattr(wl, "trace_extras") else {}
            passes = [untraced, traced]
        else:
            setup_samples = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
            passes = run_passes(wl, args.seconds, tracer)

        failed = {}
        for n, p in enumerate(passes):
            failed.update({f"pass{n}:{item}": why for item, why in failures(wl, p.results).items()})
        attempted = sum(len(p.results) for p in passes)
        checks = selftests(wl, passes[0].results)
        stiff = stiff_rel_err(wl, passes[-1].results)
    finally:
        if hasattr(wl, "close"):
            wl.close()

    if args.trace:
        group, values = "per_layer", per_layer(
            [m["name"] for m in spec["per_layer"]], tracer, extras, untraced, traced
        )
    else:
        group, values = "end_to_end", end_to_end(wl, passes, setup_samples, stiff)
    units = {m["name"]: m["unit"] for m in spec[group]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not failed and all(c["counted_as_failed"] for c in checks)
    env = env_record(args.seed)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
        "metrics": metrics, "values": values, "attempted": attempted,
        "failed": failed, "selftests": checks,
        "pass_wall_s": [p.wall for p in passes],
        "item_s": [p.times for p in passes],
    }
    if not args.trace:
        record["setup_samples_s"] = setup_samples
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  items/pass {len(wl.items)}")
    print("env " + json.dumps(env))
    for name, value in values.items():
        unit = units.get(name, "s")
        note = "" if name in units else "  (not in BENCHMARK.json)"
        print(f"{name:44s} {value:.6g} {unit}{note}")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump(), default=str) + "\n")
        print(f"{'layer':44s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s}")
        for name, row in sorted(tracer.table().items()):
            print(f"{name:44s} {row['calls']:7d} {row['busy_s']:10.4f} {row['self_s']:10.4f}")
    print(f"failed_frac {len(failed)}/{attempted} = {len(failed) / attempted:.4g}")
    for item, why in failed.items():
        print(f"FAILED {item}: {'; '.join(why)}")
    for c in checks:
        print(f"selftest {c['perturbation']} ({c['item']}): "
              f"{'counted as failed' if c['counted_as_failed'] else 'NOT DETECTED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
