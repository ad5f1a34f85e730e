"""Workloads of the sweep benchmark and the correctness gate on their output.

Each workload is one library call at the configuration a user runs, on one
core: ``threads=1`` here, and BLAS at one thread (set by ``run.py``).  A pass
returns the text a user reads: the rendered CSV plus the fit lines for the
sweeps, and the PASS/FAIL lines for ``validate``.  The gate compares that
text with the reference generated from the seed commit
(``make_reference.py``).
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qetchain import cli, experiment
from qetchain.experiment import ALPHA_PRESETS, RunConfig

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Every number is compared at this relative tolerance.  It admits the
# last-digit CSV changes (about 6e-12 relative) that the planned pure-state
# and Toeplitz routes bring, and nothing near a real error.
REL_TOL = 1e-9
# Below these absolute floors a cell holds round-off, not signal, and any
# value under the floor matches.  Log-negativities and entropies are O(1)
# results of 2N x 2N eigenvalue problems; at seed their differences show a
# noise plateau of about 5e-13 (setting 2 at alpha = 0.9, small ell).
# Energies are quadratic in correlators that carry about 1e-16 of absolute
# round-off.  A reference cell of exactly zero admits ZERO_TOL.
ENTANGLEMENT_FLOOR = 1e-10
ENERGY_FLOOR = 1e-20
ZERO_TOL = 1e-15
GRID_COLUMNS = frozenset({"d", "ell", "N"})
ENERGY_COLUMNS = frozenset({"E_B_opt", "E_B_abs"})
# E_B_abs / delta_E_N: checked against the row's own cells, so that it is
# exact where those are, and unconstrained where delta_E_N is round-off.
RATIO_COLUMNS = frozenset({"ratio", "beta"})

# Rows run serially.  On a host of two shared vCPUs the auto pool (plus
# BLAS threads) made pass times swing by a third between runs; one thread
# leaves the other vCPU to the rest of the machine.
THREADS = 1

# Looked up by name at call time, so that a traced pass calls the wrappers.
SWEEP_FUNCTIONS = {"setting1": "sweep_setting1", "setting2": "sweep_setting2", "size-sweep": "sweep_size"}


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], RunConfig]  # workload seed -> configuration


WORKLOADS = {
    w.name: w
    for w in (
        # Spectrum-bound: 384 non-symmetric eigvals of order 200 per pass.
        Workload("s2-block", lambda seed: RunConfig(mode="setting2", n_sites=100, alpha=ALPHA_PRESETS["a1"],
                                                    threads=THREADS)),
        # Rebuild-bound: every row rebuilds the same ground and measured state.
        Workload("s1-distance", lambda seed: RunConfig(mode="setting1", n_sites=400, alpha=ALPHA_PRESETS["a4"],
                                                       d_max=40, threads=THREADS)),
        # A few large rows: eigvals up to order 1000, past L2.  Too slow and
        # unsteady for BENCHMARK.json's time budget; run by hand.
        Workload("size-large", lambda seed: RunConfig(mode="size-sweep", alpha=ALPHA_PRESETS["a4"],
                                                      n_list=(200, 300, 400, 500), threads=THREADS)),
        # Overhead-bound on tiny problems; the only workload using the seed and the oracles.
        Workload("validate-small", lambda seed: RunConfig(mode="validate", seed=seed, threads=THREADS)),
    )
}


def execute(config: RunConfig) -> str:
    """One workload pass, returning the text a command-line user would read."""
    if config.mode == "validate":
        stream = io.StringIO()
        cli.run_validate(config, stream)
        return stream.getvalue()
    table = getattr(experiment, SWEEP_FUNCTIONS[config.mode])(config)
    lines = experiment.render_fit_lines(experiment.summary_fits(config, table))
    if config.mode == "setting2":
        ratio = table.column("ratio")
        lines.append(f"monotone={bool(np.all(np.diff(ratio) >= -1e-12))} below-one={bool(np.all(ratio < 1))}")
    return experiment.render_csv(table) + "".join(line + "\n" for line in lines)


def reference_text(config: RunConfig, text: str) -> str:
    """What the reference file stores for a pass: validate keeps only the check names."""
    if config.mode == "validate":
        return "".join(name + "\n" for name in _check_names(text, "PASS"))
    return text


def _is_row(line: str) -> bool:
    # Table rows start with their grid point; fit and flag lines with a name.
    return line.split(",", 1)[0].isdigit()


def _check_names(text: str, verdict: str) -> list[str]:
    prefix = verdict + " "
    return [line[len(prefix):].split(":", 1)[0] for line in text.splitlines() if line.startswith(prefix)]


_NUMBER = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def _close(ref: float, got: float, floor: float = 0.0) -> bool:
    if ref == 0.0:
        return abs(got) <= max(floor, ZERO_TOL)
    return abs(got - ref) <= REL_TOL * abs(ref) + floor


def line_matches(ref: str, got: str) -> bool:
    """Same text around the numbers, and every number within REL_TOL."""
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", got):
        return False
    return all(_close(float(a), float(b)) for a, b in zip(_NUMBER.findall(ref), _NUMBER.findall(got)))


def row_matches(columns: list[str], ref: str, got: str) -> bool:
    """One CSV row against its reference, column by column."""
    ref_cells, got_cells = ref.split(","), got.split(",")
    if len(got_cells) != len(columns):
        return False
    try:
        values = dict(zip(columns, map(float, got_cells)))
        for column, r, g in zip(columns, ref_cells, got_cells):
            if column in GRID_COLUMNS:
                ok = r == g
            elif column in RATIO_COLUMNS:
                ok = _close(values["E_B_abs"] / values["delta_E_N"], float(g))
            else:
                floor = ENERGY_FLOOR if column in ENERGY_COLUMNS else ENTANGLEMENT_FLOOR
                ok = _close(float(r), float(g), floor)
            if not ok:
                return False
    except (ValueError, ZeroDivisionError):
        return False
    return True


class Gate:
    """Counts checked items and the ones that missed, over every pass of a run.

    An item is a CSV row, a fit line or the setting-2 flag line for the
    sweeps, and one named check for validate.  A pass that raised misses
    every item it should have produced.
    """

    def __init__(self, workload: Workload, config: RunConfig):
        self.config = config
        path = REFERENCE_DIR / f"{workload.name}.txt"
        self.reference = path.read_text().splitlines()
        self.rows = sum(map(_is_row, self.reference))  # table rows; 0 for validate
        self.attempted = 0
        self.failed = 0

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, text: str | None) -> None:
        if self.config.mode == "validate":
            items = len(self.reference)
            passed = set() if text is None else set(_check_names(text, "PASS"))
            self.count(items, sum(name not in passed for name in self.reference))
            return
        # The CSV header is not an item, but a changed header misses them all.
        items = len(self.reference) - 1
        got = [] if text is None else text.splitlines()
        if len(got) != len(self.reference) or got[0] != self.reference[0]:
            self.count(items, items)
            return
        columns = self.reference[0].split(",")
        failed = 0
        for r, g in zip(self.reference[1:], got[1:]):
            failed += not (row_matches(columns, r, g) if _is_row(r) else line_matches(r, g))
        self.count(items, failed)
