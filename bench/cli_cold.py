"""cli-cold: sequential cold subprocesses of the command line interface.

One item is one ``python -m qsde_elim.cli <command> --model <file>`` call
with default arguments, for the four subcommands on four builtin model files.
Every call pays interpreter start and ``import qsde_elim``, which dominate
its time; this is the only workload that exercises argument parsing, the
model-file schema and JSON/CSV serialization.  The lambda file uses
n_trunc = 2 so that ``converge`` at its default 7 couplings and 101 grid
points stays import-dominated.  The inputs do not depend on the seed.

This module imports only the standard library: the parent process never
imports the package, except in the traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

COMMANDS = ("check", "eliminate", "converge", "kurtz")
MODELS = {
    "two_level": {"name": "two_level", "parameters": {"delta": 1.0, "gamma": 1.0, "alpha": 0.5}},
    "alkali": {
        "name": "alkali",
        "parameters": {"delta": 1.0, "gamma": 1.0, "bx": 0.2, "by": 0.0, "bz": 0.4},
    },
    "cavity": {"name": "cavity_system", "parameters": {}},
    "lambda": {
        "name": "lambda_system",
        "parameters": {"gamma": 1.0, "g": 2.0, "alpha": 0.4, "n_trunc": 2},
    },
}
COLD_REPEATS = 3


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def load_reference() -> dict:
    return json.loads((ROOT / "bench" / "data" / "reference.json").read_text())["cli-cold"]


class Workload:
    def __init__(self, seed: int, tracer):
        OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        self.env = child_env()
        self.paths = {}
        for name, builtin in MODELS.items():
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps({"schema_version": 1, "builtin": builtin}))
            self.paths[name] = path
        self.items = [f"{command}:{model}" for command in COMMANDS for model in MODELS]
        self.reference = None
        # one cold call before timing: the tree imports and the file cache is warm
        warm = self.run(self.items[0], tracer)
        if warm["rc"] != 0:
            raise RuntimeError(f"warm-up call {self.items[0]} exited {warm['rc']}: {warm['stderr']}")

    def argv(self, item: str) -> list[str]:
        command, model = item.split(":")
        return [command, "--model", str(self.paths[model])]

    def _cold(self, args: list[str]) -> tuple[float, int, int, bytes, bytes]:
        """Run one child; return its wall time, exit code, peak RSS in KiB,
        stdout and stderr.  Output goes through files, so no pipe can fill."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()

    def run(self, item: str, tracer) -> dict:
        with tracer.span("cli.subprocess"):
            _, rc, maxrss, stdout, stderr = self._cold(
                [sys.executable, "-m", "qsde_elim.cli", *self.argv(item)]
            )
        return {"rc": rc, "stdout": stdout, "stderr": stderr.decode(errors="replace"), "maxrss_kb": maxrss}

    def problems(self, item: str, result: dict, pass_results: dict) -> list[str]:
        if self.reference is None:
            self.reference = load_reference()
        want = self.reference[item]
        found = []
        if result["rc"] != want["exit_code"]:
            found.append(f"exit code {result['rc']}, documented {want['exit_code']}: {result['stderr'][-200:]}")
        if hashlib.sha256(result["stdout"]).hexdigest() != want["stdout_sha256"]:
            found.append(f"stdout ({len(result['stdout'])} bytes) differs from the reference")
        return found

    def perturbations(self, pass_results: dict):
        item = self.items[0]
        bad = dict(pass_results[item])
        flipped = bytearray(bad["stdout"])
        flipped[len(flipped) // 2] ^= 0x01
        bad["stdout"] = bytes(flipped)
        yield "one byte of CLI output flipped", item, bad

    def stiff_sup(self, pass_results: dict):
        return None

    def peak_rss_kb(self, passes) -> int:
        return max(r.get("maxrss_kb", 0) for p in passes for r in p.results.values())

    def trace_extras(self, tracer) -> dict:
        """Cold interpreter and import floors, and in-process cli.main calls."""
        floors = {}
        for metric, code in (("cli.interpreter_s", "pass"), ("cli.import_s", "import qsde_elim")):
            times = [self._cold([sys.executable, "-c", code])[0] for _ in range(COLD_REPEATS)]
            floors[metric] = statistics.median(times)
        from qsde_elim import cli  # src/ is on the path (run.py)

        for item in self.items:
            tracer.item = item
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tracer.span("cli.main"):
                    cli.main(self.argv(item))
        return floors

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
