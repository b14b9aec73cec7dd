"""Record the Poisson reference errors the output checks compare against.

    python3 benchmarks/record_reference.py

Run from the repository root.  Solves every Poisson study that any seed
can draw (each slot's whole dimension window) through the CLI and writes
``err_l2``/``err_h1`` as printed in the CSV to ``reference_errors.json``.
Re-record only when a change is meant to alter these errors, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import checks
import workloads


def poisson_studies():
    for work in workloads.WORKLOADS.values():
        for slot in work.slots:
            if not slot["cmd"].startswith("poisson"):
                continue
            lo, hi = workloads.dim_window(slot["dim"])
            for n in range(lo, hi + 1):
                yield dict(slot, dim=n)


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import eigenspline.cli as cli

    table = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        out = os.path.join(tmp, "ref.csv")
        for study in poisson_studies():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(workloads.argv(study, out))
            if code != 0:
                raise SystemExit(f"study failed: {workloads.argv(study)}")
            _, rows = checks.read_csv(out)
            table[checks.reference_key(study)] = [rows[0][2], rows[0][3]]
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} studies in {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
