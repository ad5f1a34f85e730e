#!/usr/bin/env python3
"""Regenerate the reference outputs that the benchmark's correctness gate reads.

Run from the repository root, on the commit whose outputs are the reference:

    python3 benchmarks/make_reference.py

Writes ``benchmarks/reference/<workload>.txt``: the rendered CSV, fit lines
and setting-2 flags for each sweep, and the check names for validate (its
numbers depend on the seed; every check must PASS).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        config = workload.config(1)
        text = workloads.reference_text(config, workloads.execute(config))
        path = workloads.REFERENCE_DIR / f"{workload.name}.txt"
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
