"""Record the reference values the figure_export check compares against.

    python3 perfbench/record_reference.py

Runs every figure_export config once and writes, per output CSV, the header,
row count and each column's sum, L1 and L2 norm to ``reference.json``. The
committed file was recorded at the seed commit; re-record only when a
change is meant to alter the figure data, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    from darboux_lab import cli
    scratch = HERE / "out" / "reference-tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for cfg in workloads.figure_export():
            argv = [a.replace(workloads.OUT, str(scratch)) for a in cfg["argv"]]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"{cfg['name']} exited {rc}")
            problems, reference[cfg["name"]] = check.figure_stats(
                scratch, cfg["name"], cfg["states"])
            if problems:
                raise SystemExit(f"{cfg['name']}: {problems}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
