"""Record the reference values the benchmark checks items against.

Run once from the repository root on the commit whose outputs are the
reference, then commit the result:

    python3 bench/data/record_reference.py

It records, with the benchmark's own workload code:
  * driven-catalog: per-k sup distances of every catalog fixture;
  * vacuum-ladder: sup distances of the catalog cavities at k <= 100
    (the two-level values come from stiff_oracle.json instead);
  * cli-cold: exit code, byte count and SHA-256 of stdout of every call.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402  (pins the BLAS threads and sets the import path)
from spans import Tracer  # noqa: E402


def main() -> None:
    off = Tracer.disabled()
    reference = {}

    driven = run.load_workload("driven-catalog", 0, off)
    reference["driven-catalog"] = {item: driven.run(item, off)["sup"] for item in driven.items}

    vacuum = run.load_workload("vacuum-ladder", 0, off)
    reference["vacuum-ladder"] = {
        item: vacuum.run(item, off)["sup"][0]
        for item, (name, k) in vacuum.ladder.items()
        if name.startswith("cavity") and k <= 100.0
    }

    cli = run.load_workload("cli-cold", 0, off)
    try:
        reference["cli-cold"] = {}
        for item in cli.items:
            result = cli.run(item, off)
            reference["cli-cold"][item] = {
                "exit_code": result["rc"],
                "stdout_bytes": len(result["stdout"]),
                "stdout_sha256": hashlib.sha256(result["stdout"]).hexdigest(),
            }
    finally:
        cli.close()
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
