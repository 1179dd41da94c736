#!/usr/bin/env python3
"""Print a sha256 for each 500-point error-sweep report and one over all.

Runs scripts/error_sweeps.py at its default 500 grid points into a
temporary directory.  Prints one ``<sha256>  <name>`` line per CSV,
names sorted (the format of ``sha256sum *.csv``), then the sha256 of
those lines, so two checkouts that print the same last line write
byte-identical reports:

    PYTHONPATH=src python3 scripts/report_digest.py
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import error_sweeps


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            error_sweeps.main(["--out", tmp, "--points", "500"])
        lines = [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(Path(tmp).glob("*.csv"))
        ]
    digest = hashlib.sha256()
    for line in lines:
        print(line)
        digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
