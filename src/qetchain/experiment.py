"""Parameter sweeps, power-law fits, and CSV emission.

Three sweep modes mirror the standard numerical settings: a separation
sweep with single-site groups (setting1), a measured-block-size sweep
against the antipodal target (setting2), and a system-size sweep at the
maximal block ell = N/2 - 2 (size-sweep).  Rows are pure functions of the
configuration, and floats are serialized with 12 significant digits so that
repeated runs produce byte-identical files.  Setting-1 rows are zipped
from numpy columns that one setting1_columns call evaluates for every
separation at once.  Setting-2 rows all come from one sequential bordered
recursion over ell.  Size-sweep rows are closed forms in the memoised
correlator vectors (see qet_protocol), so they share nothing but those
read-only arrays and run optionally in a thread pool, always merged in grid
order; threads affects the size sweep only.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .chain_model import ChainParams, correlation_vectors
from .gaussian_state import NumericsError
from .qet_protocol import run_setting2, setting1_columns, setting2_forms, setting2_terms, target_x2m1

ALPHA_PRESETS = {
    "a1": 0.90,
    "a2": 0.95,
    "a3": 0.99,
    "a4": 1.0 - 1e-7,
}

MODES = ("setting1", "setting2", "size-sweep", "validate")


def resolve_alpha(value) -> float:
    """Coupling from a preset name (a1..a4) or a numeric literal."""
    if isinstance(value, str):
        text = value.strip()
        if text in ALPHA_PRESETS:
            return ALPHA_PRESETS[text]
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"alpha must be a preset {sorted(ALPHA_PRESETS)} or a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RunConfig:
    """One sweep invocation: mode, model parameters, grid bounds, fit window."""

    mode: str
    n_sites: int = 100
    alpha: float = ALPHA_PRESETS["a4"]
    omega: float = 1.0
    d_max: int = 40
    ell_min: int | None = None
    ell_max: int | None = None
    n_list: tuple[int, ...] = tuple(range(20, 101, 10))
    fit_min: float | None = None
    fit_max: float | None = None
    out: str | None = None
    seed: int = 1
    threads: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0, got {self.threads}")
        if self.d_max < 0:
            raise ValueError(f"d-max must be >= 0, got {self.d_max}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if not self.n_list:
            raise ValueError("n-list must name at least one size")

    def params(self, n_sites: int | None = None) -> ChainParams:
        return ChainParams(n_sites=n_sites or self.n_sites, alpha=self.alpha, omega=self.omega)


@dataclass(frozen=True)
class SweepTable:
    """Column names plus rows in grid order; the CSV payload."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


@dataclass(frozen=True)
class PowerLawFit:
    """y ~ amplitude * x^exponent (+ offset), with the fit window recorded."""

    amplitude: float
    exponent: float
    offset: float | None
    r_squared: float
    window: tuple[float, float]


def _labelled(grid: str, item, fn: Callable, *args):
    """fn(*args); a numerical failure is re-raised naming its grid point."""
    try:
        return fn(*args)
    except (NumericsError, np.linalg.LinAlgError) as exc:
        raise type(exc)(f"{grid}={item}: {exc}") from exc


def _map_ordered(fn: Callable, items: Iterable, threads: int, grid: str) -> list:
    """fn over items in grid order; a numerical failure is re-raised naming its grid point."""
    items = list(items)
    if threads == 1 or len(items) <= 1:
        return [_labelled(grid, item, fn, item) for item in items]
    workers = threads if threads > 0 else min(len(items), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda item: _labelled(grid, item, fn, item), items))


def sweep_setting1(config: RunConfig) -> SweepTable:
    """One row per separation d = 0..d_max for single-site groups, from one column evaluation.

    E_N and S_M after the measurement are exactly 0 (see qet_protocol), so
    each drop equals its before value.  threads has no effect here.
    """
    params = config.params()
    if config.d_max + 1 >= params.n_sites:
        raise ValueError(f"d-max {config.d_max} does not fit on a ring of {params.n_sites} sites")
    energy, _, _, e_n, s_m = (column.tolist() for column in setting1_columns(params, config.d_max))
    return SweepTable(
        columns=("d", "E_B_opt", "E_N_before", "E_N_after", "delta_E_N",
                 "S_M_before", "S_M_after", "delta_S_M"),
        rows=tuple(zip(range(config.d_max + 1), energy, e_n, repeat(0.0), e_n, s_m, repeat(0.0), s_m)),
    )


def _ratio_row(x, energy: float, delta: float) -> tuple:
    """(x, delta_E_N, |E_B|, |E_B| / delta_E_N) of a setting-2 block.

    The ratio is NaN where delta_E_N is exactly 0, as on a decoupled chain.
    """
    e_abs = abs(energy)
    return (x, delta, e_abs, e_abs / delta if delta else float("nan"))


def _block_row(x, params: ChainParams, ell: int) -> tuple:
    """The setting-2 row of half-width ell from one run_setting2 call."""
    rep = run_setting2(params, ell)
    return _ratio_row(x, rep.optimized_energy, rep.delta_log_negativity)


def _recursion_row(ell: int, forms: Iterator, before: tuple[float, float, float]) -> tuple:
    """The setting-2 row of half-width ell from the next step of the bordered recursion.

    before holds (g_0, h_0, x^2 - 1), which do not depend on ell.
    """
    energy, _, delta = setting2_terms(*before, *next(forms))
    return _ratio_row(ell, energy, delta)


def sweep_setting2(config: RunConfig) -> SweepTable:
    """One row per measured-block half-width ell, all from one bordered recursion.

    The recursion runs from ell = 1 whatever ell_min is, so a sub-range is
    the matching slice of the full sweep.  It is sequential: threads has
    no effect here.
    """
    params = config.params()
    top = params.n_sites // 2 - 2
    lo = 1 if config.ell_min is None else config.ell_min
    hi = top if config.ell_max is None else config.ell_max
    if not 1 <= lo <= hi <= top:
        raise ValueError(f"ell range [{lo}, {hi}] must lie within [1, {top}]")

    g, h = correlation_vectors(params.n_sites, params.alpha)
    before = (float(g[0]), float(h[0]), target_x2m1(g, h))
    forms = setting2_forms(params, hi)
    rows = [_labelled("ell", ell, _recursion_row, ell, forms, before) for ell in range(1, hi + 1)]
    return SweepTable(columns=("ell", "delta_E_N", "E_B_abs", "ratio"), rows=tuple(rows[lo - 1:]))


def sweep_size(config: RunConfig) -> SweepTable:
    """One row per system size N, each at the maximal block ell = N/2 - 2."""
    for n in config.n_list:
        if n < 6 or n % 2 != 0:
            raise ValueError(f"size sweep needs even N >= 6, got {n}")

    rows = _map_ordered(lambda n: _block_row(n, config.params(n_sites=n), n // 2 - 2),
                        config.n_list, config.threads, "N")
    return SweepTable(columns=("N", "delta_E_N", "E_B_abs", "beta"), rows=tuple(rows))


def fit_power_law(points: Sequence[tuple[float, float]], with_offset: bool = False) -> PowerLawFit:
    """Least-squares power law on log-log axes.

    Without offset: straight line through (ln x, ln y).  With offset: the
    tail (last 10% of points by x, at least one) estimates the additive
    floor as its mean y; the remaining points are fit after subtracting it.
    Raises ValueError when any residual to be logged is non-positive.
    """
    pts = sorted((float(x), float(y)) for x, y in points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.any(x <= 0):
        raise ValueError("abscissae must be positive")
    window = (float(x[0]), float(x[-1]))

    offset = None
    if with_offset:
        tail = max(1, round(0.1 * len(pts)))
        offset = float(np.mean(y[-tail:]))
        x, y = x[:-tail], y[:-tail] - offset
    if np.any(y <= 0):
        raise ValueError("non-positive values after offset subtraction; fit aborted")

    lx, ly = np.log(x), np.log(y)
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    residual = ly - design @ coef
    total = np.sum((ly - ly.mean()) ** 2)
    if total > 0:
        r_squared = float(1.0 - np.sum(residual**2) / total)
    else:
        r_squared = 1.0 if np.sum(residual**2) < 1e-20 else 0.0
    return PowerLawFit(
        amplitude=float(np.exp(coef[1])),
        exponent=float(coef[0]),
        offset=offset,
        r_squared=r_squared,
        window=window,
    )


def summary_fits(config: RunConfig, table: SweepTable) -> list[tuple[str, PowerLawFit | str]]:
    """Named fits for the sweep, or a reason string when a fit is not defined."""
    if config.mode == "setting1":
        x_col, lo, hi = "d", 10.0, 40.0
        specs = (("E_B_abs", np.abs(table.column("E_B_opt")), False),
                 ("delta_S_M", table.column("delta_S_M"), False))
    elif config.mode == "size-sweep":
        x_col, lo, hi = "N", 40.0, float(max(config.n_list))
        specs = (("delta_E_N", table.column("delta_E_N"), False),
                 ("E_B_abs", table.column("E_B_abs"), True),
                 ("beta", table.column("beta"), False))
    else:
        return []
    lo = lo if config.fit_min is None else config.fit_min
    hi = hi if config.fit_max is None else config.fit_max
    x = table.column(x_col).astype(float)
    keep = (x >= lo) & (x <= hi) & (x > 0)
    out: list[tuple[str, PowerLawFit | str]] = []
    for name, y, with_offset in specs:
        try:
            out.append((name, fit_power_law(list(zip(x[keep], y[keep])), with_offset)))
        except ValueError as exc:
            out.append((name, f"aborted: {exc}"))
    return out


def format_value(value) -> str:
    """Serialize one CSV cell: integers verbatim, floats at 12 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if number == 0.0:
        number = 0.0  # never emit "-0"
    return format(number, ".12g")


def render_csv(table: SweepTable) -> str:
    lines = [",".join(table.columns)]
    lines.extend(",".join(format_value(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def write_csv(table: SweepTable, path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(render_csv(table))


def render_fit_lines(fits: list[tuple[str, PowerLawFit | str]]) -> list[str]:
    """One line per fit: quantity amplitude exponent offset r2 window."""
    lines = []
    for name, fit in fits:
        if isinstance(fit, str):
            lines.append(f"{name} {fit}")
            continue
        offset = "-" if fit.offset is None else format_value(fit.offset)
        lines.append(
            f"{name} {format_value(fit.amplitude)} {format_value(fit.exponent)} "
            f"{offset} {format_value(fit.r_squared)} {format_value(fit.window[0])}..{format_value(fit.window[1])}"
        )
    return lines
