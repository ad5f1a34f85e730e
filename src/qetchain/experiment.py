"""Parameter sweeps, power-law fits, and CSV emission.

Three sweep modes mirror the standard numerical settings: a separation
sweep with single-site groups (setting1), a measured-block-size sweep
against the antipodal target (setting2), and a system-size sweep at the
maximal block ell = N/2 - 2 (size-sweep).  A sweep returns numpy columns,
pure functions of the configuration, and floats are serialized with 12
significant digits so that repeated runs produce byte-identical files.
Setting 1 and the size sweep end in power-law fits, each the
least-squares line through (ln x, ln y) in the centred two-pass form; the
fit window, its order by x and ln x are formed once per sweep and shared
by every quantity fitted on it.
One setting1_columns call evaluates every separation of setting 1.
Setting 2 collects the forms of one sequential bordered recursion over ell
and evaluates setting2_terms once on them; a size-sweep row is the last
form of that recursion at ell = N/2 - 2, so no sweep needs scipy.  Every
sweep runs in one thread: no sweep reads RunConfig.threads, which the
benchmark harness records, and no CLI flag sets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .chain_model import ChainParams, correlation_vectors
from .gaussian_state import NumericsError
from .qet_protocol import setting1_columns, setting2_forms, setting2_terms, target_x2m1
# No sweep calls run_setting2: benchmarks/test_tracer.py checks that the tracer wraps it here, and
# tests/test_benchmark_names.py pins the name.
from .qet_protocol import run_setting2  # noqa: F401

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


# Every fit line, read by RunConfig, summary_fits and the CLI's fit flags: per mode (x column, default window
# with None for the largest N of n_list, per quantity (name, source column, fit |y|, tail-mean offset)).
FITS = {
    "setting1": ("d", (10.0, 40.0), (("E_B_abs", "E_B_opt", True, False), ("delta_S_M", "delta_S_M", False, False))),
    "size-sweep": ("N", (40.0, None), (("delta_E_N", "delta_E_N", False, False), ("E_B_abs", "E_B_abs", False, True),
                                       ("beta", "beta", False, False))),
}


def _in_fit_window(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The points a fit reads: lo <= x <= hi, and x > 0 for the logarithm."""
    return (x >= lo) & (x <= hi) & (x > 0)


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
        if self.fit_min is None and self.fit_max is None:
            return
        if self.mode not in FITS:
            raise ValueError(f"{self.mode} fits nothing, so it takes no fit-min or fit-max")
        (lo, hi), bounds = self.fit_window(), []
        for name, bound, given in (("fit-min", lo, self.fit_min), ("fit-max", hi, self.fit_max)):
            if np.isnan(bound):
                raise ValueError(f"{name} must be a number, got {bound}")
            bounds.append(f"{name} {bound}" + ("" if given is not None else f" ({self.mode} default)"))
        grid = np.arange(self.d_max + 1) if FITS[self.mode][0] == "d" else np.unique(self.n_list)
        if (count := int(np.count_nonzero(_in_fit_window(grid, lo, hi)))) < 3:
            raise ValueError("fit window is empty: {} > {}".format(*bounds) if lo > hi else
                             "fit window holds {} grid points, a fit needs 3: {}, {}".format(count, *bounds))

    def fit_window(self) -> tuple[float, float]:
        """(lo, hi) of the fits: fit-min and fit-max, each taking FITS' default for the mode when not given."""
        lo, hi = FITS[self.mode][1]
        hi = float(max(self.n_list)) if hi is None else hi
        return (lo if self.fit_min is None else self.fit_min), (hi if self.fit_max is None else self.fit_max)

    def params(self, n_sites: int | None = None) -> ChainParams:
        return ChainParams(n_sites=n_sites or self.n_sites, alpha=self.alpha, omega=self.omega)


class SweepTable:
    """Named read-only numpy columns in grid order, integer for the grid and float otherwise; the CSV payload."""

    def __init__(self, columns: Mapping[str, np.ndarray]):
        self.columns = tuple(columns)
        self._data = {name: np.asarray(values).view() for name, values in columns.items()}
        for column in self._data.values():
            column.flags.writeable = False
        shapes = {column.shape for column in self._data.values()}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError("a table needs one-dimensional columns of equal length")

    def column(self, name: str) -> np.ndarray:
        return self._data[name]


@dataclass(frozen=True)
class PowerLawFit:
    """y ~ amplitude * x^exponent (+ offset), with the fit window recorded."""

    amplitude: float
    exponent: float
    offset: float | None
    r_squared: float
    window: tuple[float, float]


def sweep_setting1(config: RunConfig) -> SweepTable:
    """One row per separation d = 0..d_max for single-site groups, from one column evaluation.

    E_N and S_M after the measurement are exactly 0 (see qet_protocol), so
    each drop equals its before value.
    """
    energy, _, _, e_n, s_m = setting1_columns(config.params(), config.d_max)
    zero = np.zeros_like(energy)
    return SweepTable({"d": np.arange(config.d_max + 1), "E_B_opt": energy, "E_N_before": e_n,
                       "E_N_after": zero, "delta_E_N": e_n, "S_M_before": s_m, "S_M_after": zero,
                       "delta_S_M": s_m})


def _block_table(grid: str, x: np.ndarray, energy: np.ndarray, delta: np.ndarray, ratio: str) -> SweepTable:
    """(x, delta_E_N, |E_B|, |E_B| / delta_E_N) of setting-2 blocks; the ratio is NaN where delta_E_N == 0."""
    e_abs = np.abs(energy)
    quotient = np.divide(e_abs, delta, out=np.full_like(e_abs, np.nan), where=delta != 0.0)
    return SweepTable({grid: x, "delta_E_N": delta, "E_B_abs": e_abs, ratio: quotient})


def _setting2_columns(params: ChainParams, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(E_opt, delta E_N) of setting-2 rows ell = lo..hi, from one bordered recursion over ell = 1..hi.

    A failure names its ell: an unphysical row among lo..hi before the
    recursion stops is named first, then the ell where it stopped.
    """
    g, h = correlation_vectors(params.n_sites, params.alpha)
    before = (float(g[0]), float(h[0]), target_x2m1(g, h))
    forms, ell = [], 0
    try:
        for ell, form in enumerate(setting2_forms(params, hi), start=1):
            if ell >= lo:
                forms.append(form)
    except (NumericsError, np.linalg.LinAlgError) as exc:
        setting2_terms(*before, *np.reshape(forms, (-1, 3)).T, ell_min=lo)  # a row before the stop fails first
        raise type(exc)(f"ell={ell + 1}: {exc}") from exc
    energy, _, delta = setting2_terms(*before, *np.array(forms).T, ell_min=lo)
    return energy, delta


def sweep_setting2(config: RunConfig) -> SweepTable:
    """One row per measured-block half-width ell, all from one bordered recursion.

    The recursion runs from ell = 1 whatever ell_min is, and every row is
    checked, so a sub-range is the matching slice of the full sweep, and a
    failure names the first failing ell of the whole range.
    """
    params = config.params()
    top = params.n_sites // 2 - 2
    if top < 1:
        raise ValueError(f"setting 2 needs N >= 6, got {params.n_sites}")
    lo = 1 if config.ell_min is None else config.ell_min
    hi = top if config.ell_max is None else config.ell_max
    if not 1 <= lo <= hi <= top:
        raise ValueError(f"ell range [{lo}, {hi}] must lie within [1, {top}]")
    energy, delta = _setting2_columns(params, 1, hi)
    return _block_table("ell", np.arange(lo, hi + 1), energy[lo - 1:], delta[lo - 1:], "ratio")


def sweep_size(config: RunConfig) -> SweepTable:
    """One row per system size N, in grid order: the last row of a recursion up to ell = N/2 - 2."""
    for n in config.n_list:
        if n < 6 or n % 2 != 0:
            raise ValueError(f"size sweep needs even N >= 6, got {n}")
    rows = []
    for n in config.n_list:
        try:
            rows.append(_setting2_columns(config.params(n_sites=n), n // 2 - 2, n // 2 - 2))
        except (NumericsError, np.linalg.LinAlgError) as exc:
            raise type(exc)(f"N={n}: {exc}") from exc
    energy, delta = np.hstack(rows)
    return _block_table("N", np.array(config.n_list), energy, delta, "beta")


def _centred_line(u: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the least-squares line v ~ slope * u + intercept.

    The two-pass centred form (Chan, Golub & LeVeque, 1983): with du and dv
    the deviations from the means, slope = sum(du dv) / sum(du^2), and the
    line passes through the means.  r^2 = 1 - rss / tss; flat data (tss = 0)
    score 1 when the line meets them and 0 otherwise.
    """
    u_mean, v_mean = u.sum() / u.size, v.sum() / v.size  # np.mean's sums, without its dispatch
    du, dv = u - u_mean, v - v_mean
    slope = (du @ dv) / (du @ du)
    residual = dv - slope * du
    rss, tss = residual @ residual, dv @ dv
    if tss > 0:
        r_squared = 1.0 - rss / tss
    else:
        r_squared = 1.0 if rss < 1e-20 else 0.0
    return float(slope), float(v_mean - slope * u_mean), float(r_squared)


def _fit_sorted(x: np.ndarray, y: np.ndarray, with_offset: bool, log_x: np.ndarray | None = None) -> PowerLawFit:
    """fit_power_law's checks and fit on points sorted by x.

    log_x, when given, is np.log(x), formed once by a caller that fits several quantities on the same x.
    """
    tail = max(1, round(0.1 * len(x))) if with_offset else 0
    if len(x) - tail < 3:
        raise ValueError(f"need at least {3 + tail} points, got {len(x)}")
    if not (x[0] > 0 and x[-1] < np.inf):  # x is sorted, with any NaN last
        raise ValueError("abscissae must be positive and finite")
    window = (float(x[0]), float(x[-1]))
    log_x = np.log(x) if log_x is None else log_x

    offset = None
    if with_offset:
        offset = float(np.mean(y[-tail:]))
        x, log_x, y = x[:-tail], log_x[:-tail], y[:-tail] - offset
    if (distinct := 1 + int(np.count_nonzero(np.diff(x)))) < 3:  # x is sorted; a repeat adds no rank
        raise ValueError(f"need at least 3 distinct abscissae, got {distinct}")
    after = " after offset subtraction" if with_offset else ""
    if not np.isfinite(y).all():
        raise ValueError(f"non-finite values{after}; fit aborted")
    if (y <= 0).any():
        raise ValueError(f"non-positive values{after}; fit aborted")

    exponent, log_amplitude, r_squared = _centred_line(log_x, np.log(y))
    return PowerLawFit(amplitude=float(np.exp(log_amplitude)), exponent=exponent, offset=offset,
                       r_squared=r_squared, window=window)


def fit_power_law(points, with_offset: bool = False) -> PowerLawFit:
    """Least-squares power law on log-log axes, through (n, 2) array-like (x, y) points.

    Without offset: the least-squares line through (ln x, ln y), in the
    centred form.  With offset: the tail (last 10% of points by x, at least
    one) estimates the additive floor as its mean y; the remaining points,
    at least 3, are fit after subtracting it.  Raises ValueError when an
    abscissa is not positive or not finite, when fewer than 3 distinct x
    remain to fit, or when any value to be logged is not finite or not
    positive.
    """
    pts = np.asarray(points, dtype=float).reshape(len(points), 2)  # ValueError unless (x, y) pairs
    x, y = pts[np.argsort(pts[:, 0])].T
    return _fit_sorted(x, y, with_offset)


def summary_fits(config: RunConfig, table: SweepTable) -> list[tuple[str, PowerLawFit | str]]:
    """The fits of the mode's FITS entry over config.fit_window(), or a reason string when a fit is not defined.

    The window, the order by x and ln x are formed once for all of the mode's quantities.
    """
    if config.mode not in FITS:
        return []
    x_column, _, quantities = FITS[config.mode]
    x = table.column(x_column).astype(float)
    rows = np.flatnonzero(_in_fit_window(x, *config.fit_window()))
    rows = rows[np.argsort(x[rows])]  # the window's rows in order of x
    x = x[rows]
    log_x = np.log(x)
    out: list[tuple[str, PowerLawFit | str]] = []
    for name, column, absolute, with_offset in quantities:
        y = table.column(column)[rows]
        try:
            out.append((name, _fit_sorted(x, np.abs(y) if absolute else y, with_offset, log_x)))
        except ValueError as exc:
            out.append((name, f"aborted: {exc}"))
    return out


def ratio_summary(table: SweepTable) -> str:
    """The setting-2 '# ratio:' line, over the rows whose ratio is defined (delta_E_N != 0)."""
    finite = np.isfinite(table.column("ratio"))
    if not finite.any():
        return "# ratio: undefined (delta_E_N = 0 at every ell)"
    ell, ratio = (table.column(name)[finite] for name in ("ell", "ratio"))
    return (f"# ratio: max {format_value(ratio.max())} at ell={int(ell[np.argmax(ratio)])}, "
            f"monotone={bool(np.all(np.diff(ratio) >= -1e-12))}, below-one={bool(np.all(ratio < 1))}")


def format_value(value) -> str:
    """Serialize one CSV cell: integers verbatim, floats at 12 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value) + 0.0, ".12g")  # + 0.0 turns -0.0 into 0 and keeps every other value


def render_csv(table: SweepTable) -> str:
    """Header plus one line per row, with format_value's rules applied by one format string a row."""
    columns = [table.column(name) for name in table.columns]
    integer = [column.dtype.kind in "iu" for column in columns]
    row_format = ",".join("%d" if is_int else "%.12g" for is_int in integer) + "\n"
    # + 0.0 turns -0.0 into 0; only a column that holds a -0.0 is copied.
    cells = [column + 0.0 if not is_int and np.signbit(column[column == 0.0]).any() else column
             for column, is_int in zip(columns, integer)]
    lines = [",".join(table.columns) + "\n"]
    lines.extend(row_format % row for row in zip(*cells))
    return "".join(lines)


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
