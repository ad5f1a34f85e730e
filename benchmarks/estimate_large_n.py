#!/usr/bin/env python3
"""Estimate the cost of the symplectic spectrum at N = 1600 sites.

Run from the repository root:

    python3 benchmarks/estimate_large_n.py

A non-symmetric eigvals of order 2N = 3200 is too slow (and its workspace
too large) to run in the benchmark, so the N = 1600 layer sizes are
skipped.  This script times ``symplectic_eigenvalues`` on the ground state
at N = 100..800 (BLAS at its default thread count, median of three
calls), fits the growth exponent on N = 200..800 and extrapolates one
call, and one setting-2 row (six spectra of order about 2N), to N = 1600.
The cubic extrapolation from N = 800 is printed beside it.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qetchain import ChainParams, ground_covariance, symplectic_eigenvalues  # noqa: E402
from qetchain.experiment import ALPHA_PRESETS  # noqa: E402

SIZES = (100, 200, 400, 800)
TARGET = 1600
SPECTRA_PER_ROW = 6  # full-state spectra per setting-2 row: 2 negativities + 2 x S(A), S(AB)


def main() -> int:
    seconds = {}
    for n in SIZES:
        v = ground_covariance(ChainParams(n_sites=n, alpha=ALPHA_PRESETS["a4"]))
        times = []
        for _ in range(3):
            t0 = perf_counter()
            symplectic_eigenvalues(v)
            times.append(perf_counter() - t0)
        seconds[n] = statistics.median(times)
    fitted = [n for n in SIZES if n >= 200]
    exponent, _ = np.polyfit([math.log(n) for n in fitted], [math.log(seconds[n]) for n in fitted], 1)
    largest = SIZES[-1]
    call = seconds[largest] * (TARGET / largest) ** exponent
    cubic = seconds[largest] * (TARGET / largest) ** 3
    print(json.dumps({
        "symplectic_eigenvalues_s": {str(n): round(t, 4) for n, t in seconds.items()},
        "growth_exponent": round(float(exponent), 2),
        f"estimated_call_s_at_N{TARGET}": round(call, 1),
        f"cubic_call_s_at_N{TARGET}": round(cubic, 1),
        f"estimated_setting2_row_s_at_N{TARGET}": round(SPECTRA_PER_ROW * call, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
