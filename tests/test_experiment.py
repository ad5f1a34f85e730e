import math
from pathlib import Path

import numpy as np
import pytest

from qetchain import (
    ALPHA_PRESETS,
    ChainParams,
    MeasurementSpec,
    RunConfig,
    build_quadratics,
    correlation_vectors,
    fit_power_law,
    ground_covariance,
    log_negativity,
    mutual_information,
    optimized_energy,
    post_measurement_covariance,
    reduce,
    resolve_alpha,
    run_setting1,
    sweep_setting1,
    sweep_setting2,
    sweep_size,
)
from qetchain.experiment import FITS, SweepTable, format_value, ratio_summary, render_csv, summary_fits
from qetchain.gaussian_state import _entropy_terms

A4 = ALPHA_PRESETS["a4"]


class TestResolveAlpha:
    def test_presets(self):
        assert resolve_alpha("a1") == 0.90
        assert resolve_alpha("a2") == 0.95
        assert resolve_alpha("a3") == 0.99
        assert resolve_alpha("a4") == A4

    def test_literal(self):
        assert resolve_alpha("0.3") == 0.3
        assert resolve_alpha(0.25) == 0.25

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            resolve_alpha("critical")


class TestRunConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            RunConfig(mode="sweep3")

    def test_negative_thread_count_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(mode="setting1", threads=-1)

    def test_empty_size_list_rejected(self):
        with pytest.raises(ValueError, match="n-list"):
            RunConfig(mode="size-sweep", n_list=())

    def test_one_point_fit_window_rejected(self):
        # NaN bounds, empty and too small windows: tests/test_cli.py checks both routes in.
        with pytest.raises(ValueError, match="fit window holds 1 grid points, a fit needs 3"):
            RunConfig(mode="setting1", fit_min=10.0, fit_max=10.0)
        assert RunConfig(mode="setting1", fit_min=10.0, fit_max=12.0).fit_window() == (10.0, 12.0)

    @pytest.mark.parametrize("mode", ["setting2", "validate"])
    @pytest.mark.parametrize("bound", ["fit_min", "fit_max"])
    def test_fit_bound_rejected_where_nothing_is_fitted(self, mode, bound):
        with pytest.raises(ValueError, match=f"{mode} fits nothing"):
            RunConfig(mode=mode, **{bound: 3.0})

    def test_window_bounds_not_given_come_from_the_fit_table(self):
        assert RunConfig(mode="setting1").fit_window() == FITS["setting1"][1] == (10.0, 40.0)
        assert RunConfig(mode="setting1", fit_max=20.0).fit_window() == (10.0, 20.0)
        assert RunConfig(mode="size-sweep", n_list=(20, 60, 200)).fit_window() == (40.0, 200.0)
        assert RunConfig(mode="size-sweep", n_list=(20, 60, 200), fit_min=20.0).fit_window() == (20.0, 200.0)

    def test_default_window_is_not_checked(self):
        # Too few points in a default window abort the fit lines instead (summary_fits).
        assert RunConfig(mode="setting1", d_max=5).fit_window() == (10.0, 40.0)
        assert RunConfig(mode="size-sweep", n_list=(6, 8, 10)).fit_window() == (40.0, 10.0)


class TestSummaryFits:
    """summary_fits on tables of exact power laws, so each fit's exponent is known."""

    D = np.arange(0, 51)

    def setting1_table(self, delta_s_sign=1.0):
        x = np.maximum(self.D, 1).astype(float)
        return SweepTable({"d": self.D, "E_B_opt": -3.0 * x**-2.5, "delta_S_M": delta_s_sign * 2.0 * x**-0.5})

    def test_setting1_fits_abs_energy_inside_the_window(self):
        fits = dict(summary_fits(RunConfig(mode="setting1", d_max=50), self.setting1_table()))
        assert list(fits) == ["E_B_abs", "delta_S_M"]
        for name, amplitude, exponent in (("E_B_abs", 3.0, -2.5), ("delta_S_M", 2.0, -0.5)):
            assert fits[name].amplitude == pytest.approx(amplitude, rel=1e-12)
            assert fits[name].exponent == pytest.approx(exponent, rel=1e-12)
            assert fits[name].window == (10.0, 40.0) and fits[name].offset is None
        narrow = dict(summary_fits(RunConfig(mode="setting1", d_max=50, fit_min=20.0), self.setting1_table()))
        assert narrow["E_B_abs"].window == (20.0, 40.0)
        assert narrow["E_B_abs"].exponent == pytest.approx(-2.5, rel=1e-12)

    def test_setting1_takes_no_abs_of_delta_s_m(self):
        fits = dict(summary_fits(RunConfig(mode="setting1"), self.setting1_table(delta_s_sign=-1.0)))
        assert fits["delta_S_M"] == "aborted: non-positive values after offset subtraction; fit aborted"
        assert fits["E_B_abs"].exponent == pytest.approx(-2.5, rel=1e-12)

    def test_size_sweep_offset_only_on_the_energy(self):
        n = np.arange(20, 201, 20)
        table = SweepTable({"N": n, "delta_E_N": 8.0 * n**-0.3, "E_B_abs": 5.0 * n**-2.0 + 2e-3, "beta": 0.1 * n**0.3})
        fits = dict(summary_fits(RunConfig(mode="size-sweep", n_list=tuple(n)), table))
        assert list(fits) == ["delta_E_N", "E_B_abs", "beta"]
        assert fits["delta_E_N"].exponent == pytest.approx(-0.3, rel=1e-12) and fits["delta_E_N"].offset is None
        assert fits["beta"].exponent == pytest.approx(0.3, rel=1e-12) and fits["beta"].offset is None
        assert fits["delta_E_N"].window == (40.0, 200.0)
        points = np.column_stack([n[1:], table.column("E_B_abs")[1:]])
        assert fits["E_B_abs"] == fit_power_law(points, with_offset=True)
        assert fits["E_B_abs"].offset is not None

    def test_setting2_has_no_fits(self):
        table = SweepTable({"ell": [1, 2, 3], "delta_E_N": [1.0, 0.5, 0.25], "E_B_abs": [0.5, 0.2, 0.1],
                            "ratio": [0.5, 0.4, 0.4]})
        assert summary_fits(RunConfig(mode="setting2"), table) == []


class TestRatioSummary:
    @staticmethod
    def table(ratio):
        ratio = np.array(ratio, dtype=float)
        return SweepTable({"ell": np.arange(1, len(ratio) + 1), "ratio": ratio})

    def test_flags_read_the_defined_rows(self):
        assert ratio_summary(self.table([0.5, np.nan, 1.2, 0.9])) == (
            "# ratio: max 1.2 at ell=3, monotone=False, below-one=False")
        assert ratio_summary(self.table([0.25, 0.5, 0.5 - 1e-13])) == (
            "# ratio: max 0.5 at ell=2, monotone=True, below-one=True")

    def test_no_defined_row(self):
        assert ratio_summary(self.table([np.nan, np.nan])) == "# ratio: undefined (delta_E_N = 0 at every ell)"


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        points = [(x, 2.0 * x**3) for x in np.linspace(1.0, 9.0, 12)]
        fit = fit_power_law(points)
        assert fit.amplitude == pytest.approx(2.0, abs=1e-10)
        assert fit.exponent == pytest.approx(3.0, abs=1e-10)
        assert fit.r_squared > 1 - 1e-9
        assert fit.offset is None
        assert fit.window == (1.0, 9.0)
        assert fit_power_law(np.array(points[::-1])) == fit  # sorted by x before fitting

    def test_offset_variant_on_synthetic_data(self):
        points = [(x, 5.0 * x**-2 + 7.0) for x in np.arange(1.0, 31.0)]
        fit = fit_power_law(points, with_offset=True)
        assert fit.offset == pytest.approx(7.0, abs=0.05)
        # The tail-mean offset estimate slightly exceeds the true floor, which
        # biases the residual slope steep; the recovered exponent is near -2.
        assert -2.6 < fit.exponent < -1.9

    def test_offset_fit_needs_three_points_besides_its_tail(self):
        points = [(x, 5.0 * x**-2 + 7.0) for x in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(ValueError, match="need at least 4 points, got 3"):
            fit_power_law(points[:3], with_offset=True)
        fit = fit_power_law(points, with_offset=True)
        assert fit.offset == points[-1][1] and fit.window == (1.0, 4.0)

    def test_repeated_abscissae_count_once(self):
        # Four points at two distinct x give a rank-1 design: no power law is defined.
        points = [(2.0, 1.0), (2.0, 1.5), (3.0, 2.0), (3.0, 2.5)]
        with pytest.raises(ValueError, match="need at least 3 distinct abscissae, got 2"):
            fit_power_law(points)
        with pytest.raises(ValueError, match="need at least 3 distinct abscissae, got 2"):
            fit_power_law(points + [(4.0, 3.0)], with_offset=True)

    def test_flat_data_with_offset_aborts(self):
        points = [(float(x), 3.0) for x in range(1, 11)]
        with pytest.raises(ValueError, match="non-positive"):
            fit_power_law(points, with_offset=True)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            fit_power_law([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (3.0, 3.0, 3.0)])


class TestSweeps:
    def test_setting1_shape_and_signs(self):
        # N = 30: small enough to stay fast, large enough that the critical
        # chain keeps its two-site entanglement strictly nearest-neighbor.
        config = RunConfig(mode="setting1", n_sites=30, alpha=A4, d_max=8, threads=1)
        table = sweep_setting1(config)
        assert table.columns == ("d", "E_B_opt", "E_N_before", "E_N_after", "delta_E_N",
                                 "S_M_before", "S_M_after", "delta_S_M")
        assert table.column("d").dtype.kind == "i" and table.column("d").tolist() == list(range(9))
        assert np.all(table.column("E_B_opt") <= 0)
        assert np.all(table.column("delta_E_N") >= -1e-10)
        assert table.column("delta_E_N")[0] > 0
        assert np.all(np.abs(table.column("delta_E_N")[1:]) < 1e-10)

    def test_setting1_range_must_fit_the_ring(self):
        with pytest.raises(ValueError):
            sweep_setting1(RunConfig(mode="setting1", n_sites=10, alpha=0.9, d_max=9))

    def test_setting2_shape_and_bounds(self):
        config = RunConfig(mode="setting2", n_sites=12, alpha=0.9, threads=1)
        table = sweep_setting2(config)
        assert table.columns == ("ell", "delta_E_N", "E_B_abs", "ratio")
        assert table.column("ell").dtype.kind == "i" and table.column("ell").tolist() == [1, 2, 3, 4]
        ratio = table.column("ratio")
        assert np.all(np.diff(ratio) >= -1e-12)
        with pytest.raises(ValueError):
            sweep_setting2(RunConfig(mode="setting2", n_sites=12, alpha=0.9, ell_max=5))

    def test_decoupled_chain_consumes_no_entanglement(self):
        table = sweep_setting2(RunConfig(mode="setting2", n_sites=12, alpha=0.0, threads=1))
        assert np.all(table.column("delta_E_N") == 0.0)
        assert np.all(np.isnan(table.column("ratio")))  # 0 / 0: no ratio to report

    def test_size_sweep_validates_sizes(self):
        with pytest.raises(ValueError):
            sweep_size(RunConfig(mode="size-sweep", alpha=0.9, n_list=(7, 10)))
        with pytest.raises(ValueError):
            sweep_size(RunConfig(mode="size-sweep", alpha=0.9, n_list=(4,)))

    def test_size_sweep_rows(self):
        config = RunConfig(mode="size-sweep", alpha=0.9, n_list=(6, 8, 10), threads=1)
        table = sweep_size(config)
        assert table.column("N").dtype.kind == "i" and table.column("N").tolist() == [6, 8, 10]
        assert np.all(table.column("beta") > 0)


def _setting1_row_rebuilt(params: ChainParams, d: int) -> tuple:
    # Slow reference: every row recomputes the correlators and both states.
    correlation_vectors.cache_clear()
    spec = MeasurementSpec(measured_sites=(0,))
    v0 = ground_covariance(params)
    vm = post_measurement_covariance(params, spec)
    pair = [0, d + 1]
    e_before = log_negativity(reduce(v0, pair), [1])
    e_after = log_negativity(reduce(vm, pair), [1])
    s_before = mutual_information(v0, [0], [d + 1])
    s_after = mutual_information(vm, [0], [d + 1])
    energy = optimized_energy(build_quadratics(params, spec, d + 1))
    return (d, energy, e_before, e_after, e_before - e_after, s_before, s_after, s_before - s_after)


def _cells_close(column: str, got: float, ref: float) -> bool:
    # The benchmark gate's tolerance: 1e-9 relative plus an absolute floor
    # under which a cell holds round-off.
    floor = 1e-20 if column == "E_B_opt" else 1e-10
    return abs(got - ref) <= 1e-9 * abs(ref) + floor


def _rows(table: SweepTable) -> list[tuple]:
    return list(zip(*map(table.column, table.columns)))


class TestSetting1Sweep:
    @pytest.mark.parametrize("preset", ["a1", "a4"])
    def test_rows_match_full_state_rebuild(self, preset):
        config = RunConfig(mode="setting1", n_sites=100, alpha=ALPHA_PRESETS[preset], d_max=40)
        expected = tuple(_setting1_row_rebuilt(config.params(), d) for d in range(41))
        correlation_vectors.cache_clear()
        table = sweep_setting1(config)
        for row, ref in zip(_rows(table), expected, strict=True):
            assert row[0] == ref[0]
            for column, got, want in zip(table.columns[1:], row[1:], ref[1:]):
                assert _cells_close(column, got, want), (row[0], column, got, want)


def _setting1_row_scalar(params: ChainParams, d: int) -> tuple:
    # Slow per-row reference: the scalar closed form that served each
    # setting-1 row before the sweep became one column evaluation.
    g, h = correlation_vectors(params.n_sites, params.alpha)
    g_0, h_0, g_r, h_r = (float(v) for v in (g[0], h[0], g[d + 1], h[d + 1]))
    nu_transposed = (math.sqrt((g_0 + g_r) * (h_0 - h_r)), math.sqrt((g_0 - g_r) * (h_0 + h_r)))
    e_n_before = sum(max(0.0, -math.log2(2.0 * nu)) for nu in nu_transposed)
    s_0, s_plus, s_minus = _entropy_terms(np.array([
        math.sqrt(g_0 * h_0), math.sqrt((g_0 + g_r) * (h_0 + h_r)), math.sqrt((g_0 - g_r) * (h_0 - h_r))]))
    t_p, t_q = h_0 + params.omega / 2.0, g_0 + 1.0 / (2.0 * params.omega)
    s_m_before = float(2.0 * s_0 - (s_plus + s_minus))
    energy = -0.5 * (h_r * h_r / t_p + h_r * h_r / t_q)
    return (d, energy, e_n_before, 0.0, e_n_before, s_m_before, 0.0, s_m_before - 0.0)


SETTING1_GRID = [(n, alpha, omega) for n in (10, 20, 100, 400, 4096)
                 for alpha in (0.0, 0.3, *(ALPHA_PRESETS[p] for p in ("a1", "a2", "a3", "a4")))
                 for omega in (0.5, 1.0, 2.0)]


def _setting1_checked_rows(n: int) -> list[int]:
    # d = 0..40, plus d = N - 2, whose target's neighbour lies across the wrap.
    return sorted(set(range(min(40, n - 2) + 1)) | {n - 2})


class TestSetting1Columns:
    @pytest.mark.parametrize("n, alpha, omega", SETTING1_GRID)
    def test_sweep_csv_matches_scalar_rows_byte_for_byte(self, n, alpha, omega):
        table = sweep_setting1(RunConfig(mode="setting1", n_sites=n, alpha=alpha, omega=omega, d_max=n - 2))
        checked = _setting1_checked_rows(n)
        params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
        want = zip(*(_setting1_row_scalar(params, d) for d in checked))
        want = SweepTable({name: np.array(column) for name, column in zip(table.columns, want)})
        got = SweepTable({name: table.column(name)[checked] for name in table.columns})
        assert render_csv(got) == render_csv(want)

    @pytest.mark.parametrize("n, alpha, omega", SETTING1_GRID)
    def test_run_setting1_is_the_sweep_row(self, n, alpha, omega):
        params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
        table = sweep_setting1(RunConfig(mode="setting1", n_sites=n, alpha=alpha, omega=omega, d_max=n - 2))
        for d in _setting1_checked_rows(n):
            rep = run_setting1(params, d)
            got = (rep.optimized_energy, rep.e_n_before, rep.e_n_after, rep.delta_log_negativity,
                   rep.s_m_before, rep.s_m_after, rep.delta_mutual_information)
            assert got == pytest.approx(_rows(table)[d][1:], rel=1e-15, abs=0.0), d

    def test_sweep_looks_up_the_correlators_once(self, monkeypatch):
        import qetchain.experiment as experiment
        import qetchain.qet_protocol as qet_protocol

        calls = []

        def counted(n_sites, alpha):
            calls.append((n_sites, alpha))
            return correlation_vectors(n_sites, alpha)

        monkeypatch.setattr(qet_protocol, "correlation_vectors", counted)
        monkeypatch.setattr(experiment, "correlation_vectors", counted)
        table = sweep_setting1(RunConfig(mode="setting1", n_sites=100, alpha=0.9, d_max=40))
        assert len(table.column("d")) == 41
        assert calls == [(100, 0.9)]


# 50-digit values from scripts/high_precision_delta_e_n.py.
HIGH_PRECISION_TABLE = Path(__file__).resolve().parent / "data" / "setting2_delta_e_n_a1.csv"


def _high_precision_drops():
    lines = HIGH_PRECISION_TABLE.read_text().split()
    assert lines[0] == "N,alpha,omega,ell,delta_E_N"
    for line in lines[1:]:
        n, alpha, omega, ell, want = line.split(",")
        config = RunConfig(mode="setting2", n_sites=int(n), alpha=float(alpha), omega=float(omega),
                           ell_min=int(ell), ell_max=int(ell), threads=1)
        yield line, sweep_setting2(config).column("delta_E_N")[0], float(want)


def test_setting2_entanglement_drop_matches_high_precision_table():
    for line, got, want in _high_precision_drops():
        # Cosine-table correlators left 4.8e-5 at ell = 1.
        assert got == pytest.approx(want, rel=1e-4, abs=0.0), line


def test_setting2_entanglement_drop_with_fft_correlators():
    for line, got, want in _high_precision_drops():
        # FFT correlators leave 4.6e-8 at ell = 1 and 1.0e-6 at ell = 2, all
        # from their absolute error on tiny long-range correlators.
        assert got == pytest.approx(want, rel=2e-6, abs=0.0), line


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        config = RunConfig(mode="setting1", n_sites=16, alpha=0.95, d_max=6, threads=1)
        a = render_csv(sweep_setting1(config))
        b = render_csv(sweep_setting1(config))
        assert a == b

    def test_size_sweep_thread_count_does_not_change_bytes(self):
        sizes = (20, 8, 30, 6, 40, 12)
        serial = RunConfig(mode="size-sweep", alpha=0.95, n_list=sizes, threads=1)
        four = RunConfig(mode="size-sweep", alpha=0.95, n_list=sizes, threads=4)
        expected = render_csv(sweep_size(serial))
        correlation_vectors.cache_clear()
        got = render_csv(sweep_size(four))
        assert got == expected
        assert [line.split(",")[0] for line in got.splitlines()[1:]] == [str(n) for n in sizes]


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_value(0.123456789012345) == "0.123456789012"
        assert format_value(3) == "3"

    def test_no_negative_zero(self):
        assert format_value(-0.0) == "0"

    def test_rendered_cells_follow_format_value(self):
        floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 1e-300, -1e-300, 0.123456789012345, -2.5]
        columns = {
            "k": np.arange(len(floats), dtype=np.int64) * 10**15,  # numpy int64 grid
            "N": [6, 8, 10, 12, 14, 16, 18, 20, 22, 2**40],  # Python-int grid
            "x": np.array(floats),
            "y": -np.array(floats[::-1]),
        }
        table = SweepTable(columns)
        lines = render_csv(table).splitlines()
        assert lines[0] == "k,N,x,y"
        assert len(lines) == len(floats) + 1
        for i, line in enumerate(lines[1:]):
            assert line.split(",") == [format_value(table.column(name)[i]) for name in table.columns]
        assert [line.split(",")[2] for line in lines[1:4]] == ["0", "0", "nan"]

    def test_table_columns_are_read_only(self):
        energy = np.array([-1.0, -0.5])
        table = SweepTable({"d": [0, 1], "E_B_opt": energy})
        assert table.column("d").dtype.kind == "i"
        with pytest.raises(ValueError):
            table.column("E_B_opt")[0] = 0.0
        with pytest.raises(ValueError, match="equal length"):
            SweepTable({"d": [0, 1, 2], "E_B_opt": energy})

    def test_csv_layout(self):
        config = RunConfig(mode="size-sweep", alpha=0.9, n_list=(6, 8), threads=1)
        text = render_csv(sweep_size(config))
        lines = text.strip().split("\n")
        assert lines[0] == "N,delta_E_N,E_B_abs,beta"
        assert len(lines) == 3
        assert lines[1].startswith("6,")
