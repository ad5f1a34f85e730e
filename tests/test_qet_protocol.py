import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

import qetchain
from qetchain import (
    ALPHA_PRESETS,
    ChainParams,
    DisplacementPlan,
    MeasurementSpec,
    NumericsError,
    RunConfig,
    build_quadratics,
    correlation_vectors,
    ground_covariance,
    log_negativity,
    mutual_information,
    optimal_plan,
    optimized_energy,
    post_measurement_covariance,
    reduce,
    run_setting1,
    run_setting2,
    sweep_setting2,
    sweep_size,
)
from qetchain.cli import cli_main
from qetchain.experiment import render_csv
from qetchain.qet_protocol import group_forms, setting2_forms, setting2_terms, target_x2m1

A1, A2, A3, A4 = (ALPHA_PRESETS[k] for k in ("a1", "a2", "a3", "a4"))
T_P_FROZEN = 0.9618290801532325  # h0 + 1/2 at N=4, alpha=0.9, omega=1


def plan_energy(quad, plan):
    """Displacement energy of an arbitrary plan, evaluated from the quadratic form directly."""
    theta, phi = plan.theta, plan.phi
    return float(
        0.5 * theta @ quad.t_p @ theta
        + quad.j_p @ theta
        + 0.5 * phi @ quad.t_q @ phi
        + quad.j_q @ phi
    )


class TestBuildQuadratics:
    def test_decoupled_chain_has_no_coupling(self):
        params = ChainParams(n_sites=8, alpha=0.0)
        quad = build_quadratics(params, MeasurementSpec(measured_sites=(0, 1)), 4)
        np.testing.assert_allclose(quad.j_p, 0.0, atol=1e-15)
        np.testing.assert_allclose(quad.j_q, 0.0, atol=1e-15)

    def test_frozen_momentum_form(self):
        params = ChainParams(n_sites=4, alpha=0.9)
        quad = build_quadratics(params, MeasurementSpec(measured_sites=(0,)), 2)
        assert quad.t_p[0, 0] == pytest.approx(T_P_FROZEN, abs=1e-12)

    def test_target_inside_measured_group_rejected(self):
        params = ChainParams(n_sites=8, alpha=0.9)
        with pytest.raises(ValueError):
            build_quadratics(params, MeasurementSpec(measured_sites=(0, 1)), 1)

    @pytest.mark.parametrize("target", [1.7, 0.5, 2.5])
    def test_non_integral_target_rejected(self, target):
        # correlation_submatrices would truncate 0.5 to the measured site 0.
        params, spec = ChainParams(n_sites=10, alpha=0.9), MeasurementSpec(measured_sites=(0,))
        with pytest.raises(ValueError, match=f"^target site {target} is not an integer$"):
            build_quadratics(params, spec, target)
        with pytest.raises(ValueError, match=f"^target site {target} is not an integer$"):
            group_forms(params, spec, [5, target])

    @pytest.mark.parametrize("target", [5.0, np.int64(5)])
    def test_integral_target_accepted(self, target):
        params, spec = ChainParams(n_sites=10, alpha=0.9), MeasurementSpec(measured_sites=(0, 2))
        got, want = build_quadratics(params, spec, target), build_quadratics(params, spec, 5)
        for name in ("t_p", "t_q", "j_p", "j_q"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(group_forms(params, spec, [target]), group_forms(params, spec, [5]))

    @pytest.mark.parametrize("site", [-1, 13])
    def test_out_of_range_measured_site_rejected(self, site):
        params = ChainParams(n_sites=10, alpha=0.9)
        with pytest.raises(ValueError, match=f"site index {site} out of range for N=10"):
            build_quadratics(params, MeasurementSpec(measured_sites=(site,)), 5)

    def test_couplings_depend_on_periodic_distance_only(self):
        # Shifting the measured group and target together changes nothing.
        params = ChainParams(n_sites=10, alpha=0.95)
        a = build_quadratics(params, MeasurementSpec(measured_sites=(0, 1, 2)), 6)
        b = build_quadratics(params, MeasurementSpec(measured_sites=(3, 4, 5)), 9)
        np.testing.assert_allclose(a.j_p, b.j_p, atol=1e-12)
        np.testing.assert_allclose(a.j_q, b.j_q, atol=1e-12)
        np.testing.assert_allclose(a.t_p, b.t_p, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 10, 100, 400])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, A1, A4])
    def test_position_coupling_is_the_momentum_correlator(self, n, alpha):
        # J_q was once built as g_r - (alpha/2)(g_{r-1} + g_{r+1}) over the
        # target's neighbors; on the ring that combination is h_r.
        g, h = correlation_vectors(n, alpha)
        r = np.arange(n)
        neighbor_form = g - (alpha / 2.0) * (g[(r - 1) % n] + g[(r + 1) % n])
        assert np.abs(neighbor_form - h).max() <= 1e-13
        quad = build_quadratics(ChainParams(n_sites=n, alpha=alpha), MeasurementSpec(measured_sites=(0, 1)), n // 2)
        np.testing.assert_array_equal(quad.j_q, quad.j_p)

    def test_forms_positive_definite(self):
        params = ChainParams(n_sites=12, alpha=0.99, omega=0.5)
        quad = build_quadratics(params, MeasurementSpec(measured_sites=(0, 1, 2)), 6)
        assert np.linalg.eigvalsh(quad.t_p).min() > 0
        assert np.linalg.eigvalsh(quad.t_q).min() > 0


class TestOptimalPlan:
    def test_zero_couplings_give_zero_plan(self):
        params = ChainParams(n_sites=8, alpha=0.0)
        plan = optimal_plan(build_quadratics(params, MeasurementSpec(measured_sites=(0,)), 4))
        np.testing.assert_allclose(plan.theta, 0.0, atol=1e-15)
        np.testing.assert_allclose(plan.phi, 0.0, atol=1e-15)

    def test_stationarity(self):
        params = ChainParams(n_sites=100, alpha=A4)
        quad = build_quadratics(params, MeasurementSpec(measured_sites=(0,)), 5)
        plan = optimal_plan(quad)
        assert np.abs(quad.t_p @ plan.theta + quad.j_p).max() < 1e-9
        assert np.abs(quad.t_q @ plan.phi + quad.j_q).max() < 1e-9

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            DisplacementPlan(theta=[1.0, np.inf], phi=[0.0, 0.0])
        with pytest.raises(ValueError):
            DisplacementPlan(theta=[1.0], phi=[0.0, 0.0])


class TestOptimizedEnergy:
    def test_decoupled_chain_extracts_nothing(self):
        params = ChainParams(n_sites=8, alpha=0.0)
        assert optimized_energy(build_quadratics(params, MeasurementSpec(measured_sites=(0,)), 4)) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_never_positive(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            n = 2 * int(rng.integers(4, 30))
            alpha = float(rng.uniform(0.0, 1.0 - 1e-9))
            params = ChainParams(n_sites=n, alpha=alpha, omega=float(rng.uniform(0.3, 3.0)))
            spec = MeasurementSpec(measured_sites=(0, 1, 2))
            assert optimized_energy(build_quadratics(params, spec, n // 2)) <= 0.0

    def test_two_code_paths_agree_at_the_optimum(self):
        params = ChainParams(n_sites=100, alpha=A4)
        spec = MeasurementSpec(measured_sites=tuple(range(5)))
        quad = build_quadratics(params, spec, 52)
        plan = optimal_plan(quad)
        assert plan_energy(quad, plan) == pytest.approx(optimized_energy(quad), abs=1e-10)

    def test_any_other_plan_does_worse(self):
        params = ChainParams(n_sites=20, alpha=0.9)
        quad = build_quadratics(params, MeasurementSpec(measured_sites=(0, 1)), 10)
        plan = optimal_plan(quad)
        best = optimized_energy(quad)
        rng = np.random.default_rng(0)
        for _ in range(10):
            other = DisplacementPlan(
                theta=plan.theta + rng.normal(scale=0.1, size=plan.theta.size),
                phi=plan.phi + rng.normal(scale=0.1, size=plan.phi.size),
            )
            assert plan_energy(quad, other) > best

    def test_invariant_under_measured_site_relabeling(self):
        params = ChainParams(n_sites=12, alpha=0.95)
        a = MeasurementSpec(measured_sites=(0, 1, 2))
        b = MeasurementSpec(measured_sites=(2, 0, 1))
        assert optimized_energy(build_quadratics(params, a, 7)) == pytest.approx(
            optimized_energy(build_quadratics(params, b, 7)), abs=1e-14
        )


class TestRunSetting1:
    def test_geometry_validation(self):
        params = ChainParams(n_sites=10, alpha=0.9)
        with pytest.raises(ValueError):
            run_setting1(params, -1)
        with pytest.raises(ValueError):
            run_setting1(params, 9)  # target would wrap onto the measured site

    def test_separability_structure(self):
        params = ChainParams(n_sites=20, alpha=0.9)
        adjacent = run_setting1(params, 0)
        assert adjacent.e_n_before > 0
        assert adjacent.e_n_after < 1e-10
        for d in (1, 2, 4):
            rep = run_setting1(params, d)
            assert rep.e_n_before < 1e-10
            assert rep.e_n_after < 1e-10
            assert rep.optimized_energy < 0

    def test_entanglement_cost_grows_with_coupling(self):
        drops = [run_setting1(ChainParams(n_sites=20, alpha=a), 0).delta_log_negativity
                 for a in (0.90, 0.95, 0.99)]
        assert drops[0] < drops[1] < drops[2]

    @pytest.mark.parametrize("alpha", [0.0, 0.3, A1, A2, A3, A4])
    @pytest.mark.parametrize("n", [10, 40, 100, 400])
    def test_energy_and_plan_match_the_quadratic_forms(self, n, alpha):
        # The scalar closed form against the 1 x 1 Cholesky route; up to
        # 5.3e-16 relative over this grid.  The layout engine's E_B, every
        # target at once: up to 5.3e-16.
        for omega in (0.5, 1.0, 2.0):
            params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
            spec = MeasurementSpec(measured_sites=(0,))
            dp, _, jq = group_forms(params, spec, range(1, n))
            for d in range(n - 1):
                rep = run_setting1(params, d)
                quad = build_quadratics(params, spec, d + 1)
                plan = optimal_plan(quad)
                got = (rep.optimized_energy, *rep.plan.theta, *rep.plan.phi)
                ref = (optimized_energy(quad), *plan.theta, *plan.phi)
                assert all(abs(a - b) <= 1e-15 * abs(b) for a, b in zip(got, ref)), (omega, d, got, ref)
                engine = -0.5 * (dp[d] + jq[d])
                assert abs(rep.optimized_energy - engine) <= 1e-15 * abs(engine), (omega, d, rep, engine)

    @pytest.mark.parametrize("omega", [0.5, 0.7, 2.0])
    @pytest.mark.parametrize("alpha", [0.3, A1, A4])
    def test_full_state_route_reads_the_chain_omega(self, alpha, omega):
        # The measured group carries no frequency: the full-state route takes omega from params, as the closed
        # form does.
        params = ChainParams(n_sites=100, alpha=alpha, omega=omega)
        spec = MeasurementSpec(measured_sites=(0,))
        for d in (1, 5, 20):
            want = run_setting1(params, d).optimized_energy
            assert abs(optimized_energy(build_quadratics(params, spec, d + 1)) - want) <= 1e-12 * abs(want), d
        post = post_measurement_covariance(params, spec)
        assert (post.q[0, 0], post.p[0, 0]) == (1.0 / (2.0 * omega), omega / 2.0)

    def test_report_deltas(self):
        rep = run_setting1(ChainParams(n_sites=20, alpha=0.9), 1)
        assert rep.delta_log_negativity == rep.e_n_before - rep.e_n_after
        assert rep.delta_mutual_information == rep.s_m_before - rep.s_m_after
        assert rep.s_m_after < 1e-10  # measured/unmeasured pair decorrelates


class TestRunSetting2:
    def test_block_bounds(self):
        params = ChainParams(n_sites=12, alpha=0.9)
        with pytest.raises(ValueError):
            run_setting2(params, 0)
        with pytest.raises(ValueError):
            run_setting2(params, 5)  # N/2 - 2 = 4 is the maximum

    def test_measurement_only_consumes_entanglement(self):
        params = ChainParams(n_sites=16, alpha=0.95)
        for ell in range(1, 7):
            rep = run_setting2(params, ell)
            assert rep.delta_log_negativity >= -1e-10
            assert rep.optimized_energy < 0

    def test_energy_to_entanglement_ratio_monotone(self):
        params = ChainParams(n_sites=20, alpha=0.9)
        ratios = []
        for ell in range(1, 9):
            rep = run_setting2(params, ell)
            ratios.append(abs(rep.optimized_energy) / rep.delta_log_negativity)
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert max(ratios) == ratios[-1]
        assert all(r < 1 for r in ratios)


# The full-state route: whole-chain ground and post-measurement covariances,
# then negativity and mutual information from their symplectic spectra.
ENTANGLEMENT_FLOOR = 1e-10
ENERGY_FLOOR = 1e-20


def _close(got, ref, floor):
    return abs(got - ref) <= 1e-9 * abs(ref) + floor


class TestClosedFormsMatchFullStateRoute:
    # Every row of N in {10, 40, 100} x alpha x omega in {0.5, 1, 2}.  The
    # ground state does not depend on omega, so its route runs once per row.
    OMEGAS = (0.5, 1.0, 2.0)

    @pytest.mark.parametrize("alpha", [0.3, A1, A3, A4])
    @pytest.mark.parametrize("n", [10, 40, 100])
    def test_setting1(self, n, alpha):
        ground = ground_covariance(ChainParams(n_sites=n, alpha=alpha))
        before = [(log_negativity(reduce(ground, [0, d + 1]), [1]), mutual_information(ground, [0], [d + 1]))
                  for d in range(n - 1)]
        for omega in self.OMEGAS:
            params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
            spec = MeasurementSpec(measured_sites=(0,))
            measured = post_measurement_covariance(params, spec)
            for d, (e_n_before, s_m_before) in enumerate(before):
                rep = run_setting1(params, d)
                ref = (e_n_before, log_negativity(reduce(measured, [0, d + 1]), [1]),
                       s_m_before, mutual_information(measured, [0], [d + 1]))
                got = (rep.e_n_before, rep.e_n_after, rep.s_m_before, rep.s_m_after)
                assert all(_close(a, b, ENTANGLEMENT_FLOOR) for a, b in zip(got, ref)), (omega, d, got, ref)
                assert rep.delta_log_negativity == rep.e_n_before - rep.e_n_after

    @pytest.mark.parametrize("alpha", [0.3, A1, A3, A4])
    @pytest.mark.parametrize("n", [10, 40, 100])
    def test_setting2(self, n, alpha):
        g, h = correlation_vectors(n, alpha)
        ground = ground_covariance(ChainParams(n_sites=n, alpha=alpha))
        ells = range(1, n // 2 - 1)
        rests = {ell: [s for s in range(n) if s != n // 2 + ell] for ell in ells}
        before = {ell: (log_negativity(ground, [n // 2 + ell]), mutual_information(ground, rests[ell], [n // 2 + ell]))
                  for ell in ells}
        for omega in self.OMEGAS:
            params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
            for ell in ells:
                rep = run_setting2(params, ell)
                target, size = n // 2 + ell, 2 * ell + 1
                spec = MeasurementSpec(measured_sites=tuple(range(size)))
                after = post_measurement_covariance(params, spec)
                ref = (before[ell][0], log_negativity(after, [target]),
                       before[ell][1], mutual_information(after, rests[ell], [target]))
                got = (rep.e_n_before, rep.e_n_after, rep.s_m_before, rep.s_m_after)
                assert all(_close(a, b, ENTANGLEMENT_FLOOR) for a, b in zip(got, ref)), (omega, ell, got, ref)
                assert _close(rep.delta_log_negativity, ref[0] - ref[1], ENTANGLEMENT_FLOOR), (omega, ell)
                assert _close(rep.optimized_energy, optimized_energy(build_quadratics(params, spec, target)),
                              ENERGY_FLOOR), (omega, ell)
                # Backward error of the Levinson plan on the dense Toeplitz
                # forms; up to 5e-15 relative over N <= 400.
                j = h[target - np.arange(size)]
                for t, x in ((toeplitz(h[:size]) + (omega / 2) * np.eye(size), rep.plan.theta),
                             (toeplitz(g[:size]) + np.eye(size) / (2 * omega), rep.plan.phi)):
                    scale = np.abs(t).max() * np.abs(x).max() + np.abs(j).max()
                    assert np.abs(t @ x + j).max() <= 1e-13 * scale, (omega, ell)


class TestBorderedRecursion:
    # sweep_setting2 runs one bordered Durbin recursion over every ell;
    # run_setting2 solves each ell afresh with Levinson, so it is the
    # independent reference here.

    @staticmethod
    def _rows(table):
        return list(zip(*map(table.column, table.columns)))

    @staticmethod
    def _assert_rows_match(params, rows, ells, rel, energy_floor, entanglement_floor):
        for row, ell in zip(rows, ells, strict=True):
            rep = run_setting2(params, ell)
            ref = (ell, rep.delta_log_negativity, abs(rep.optimized_energy))
            assert row[0] == ell
            assert abs(row[1] - ref[1]) <= rel * abs(ref[1]) + entanglement_floor, (params, row, ref)
            assert abs(row[2] - ref[2]) <= rel * abs(ref[2]) + energy_floor, (params, row, ref)
            assert np.isnan(row[3]) if row[1] == 0.0 else row[3] == row[2] / row[1]

    @pytest.mark.parametrize("alpha", [0.0, 0.3, A1, A3, A4])
    @pytest.mark.parametrize("n", [10, 40, 100, 400])
    def test_every_row_matches_run_setting2(self, n, alpha):
        for omega in (0.5, 1.0, 2.0):
            config = RunConfig(mode="setting2", n_sites=n, alpha=alpha, omega=omega, threads=1)
            rows = self._rows(sweep_setting2(config))
            self._assert_rows_match(config.params(), rows, range(1, n // 2 - 1), 1e-9, ENERGY_FLOOR,
                                    ENTANGLEMENT_FLOOR)

    @pytest.mark.parametrize("alpha", [A3, A4])
    def test_near_critical_rows_at_n_2000(self, alpha):
        # Durbin's recursion is only weakly stable, and T_q is at its worst
        # conditioned near alpha = 1 on a long ring.  Measured: 1.5e-15 at
        # a3 and 2.3e-15 at a4.
        params = ChainParams(n_sites=2000, alpha=alpha)
        ells = (1, 10, 100, 500, 998)
        rows = self._rows(sweep_setting2(RunConfig(mode="setting2", n_sites=2000, alpha=alpha, threads=1)))
        self._assert_rows_match(params, [rows[ell - 1] for ell in ells], ells, 1e-12, 0.0, 0.0)

    @pytest.mark.parametrize("bounds", [(1, 1), (1, 5), (7, 7), (3, 12), (20, 23), (12, 23), (None, 4), (9, None)])
    def test_sub_range_is_a_slice_of_the_full_sweep(self, bounds):
        full = RunConfig(mode="setting2", n_sites=50, alpha=A3, omega=0.7, threads=1)
        lo, hi = bounds
        part = RunConfig(mode="setting2", n_sites=50, alpha=A3, omega=0.7, ell_min=lo, ell_max=hi, threads=1)
        lines = render_csv(sweep_setting2(full)).splitlines()
        first, last = lo or 1, hi or 23
        assert render_csv(sweep_setting2(part)).splitlines() == [lines[0], *lines[first:last + 1]]

    @pytest.mark.parametrize("hi", [-1, 9])
    def test_forms_range_is_checked(self, hi):
        with pytest.raises(ValueError, match=rf"^hi must lie in \[0, N/2 - 2\] = \[0, 8\], got {hi}$"):
            next(setting2_forms(ChainParams(n_sites=20, alpha=0.9), hi))

    def test_no_forms_below_the_first_block(self):
        assert list(setting2_forms(ChainParams(n_sites=20, alpha=0.9), 0)) == []

    @pytest.mark.parametrize("alpha", [0.0, 0.3, A1, A4])
    @pytest.mark.parametrize("n", [6, 8, 20, 64])
    def test_forms_match_dense_solves(self, n, alpha):
        # The dense centred block: T = toeplitz(t[:2 ell + 1]) plus the
        # detector noise, right-hand sides h[N/2 - i] and g[N/2 - i] for
        # i = -ell..ell.  Measured worst relative difference 2.5e-14.  The
        # layout engine on the block {0..2 ell} and its target N/2 + ell:
        # 4.2e-14.
        g, h = correlation_vectors(n, alpha)
        half = n // 2
        for omega in (0.5, 1.0, 2.0):
            params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
            forms = list(setting2_forms(params, half - 2))
            assert len(forms) == half - 2
            for ell, form in enumerate(forms, start=1):
                size = 2 * ell + 1
                t_p = toeplitz(h[:size]) + (omega / 2) * np.eye(size)
                t_q = toeplitz(g[:size]) + np.eye(size) / (2 * omega)
                j, g_b = h[half - ell:half + ell + 1], g[half - ell:half + ell + 1]
                dense = (j @ np.linalg.solve(t_p, j), g_b @ np.linalg.solve(t_q, g_b), j @ np.linalg.solve(t_q, j))
                engine = np.concatenate(group_forms(params, MeasurementSpec(measured_sites=tuple(range(size))),
                                                     [half + ell]))
                for refs in (dense, engine):
                    for got, ref in zip(form, refs, strict=True):
                        assert abs(got - ref) <= 1e-12 * abs(ref), (omega, ell, form, refs)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 150).map(lambda k: 2 * k), alpha=st.floats(0.0, 1.0 - 1e-7),
           omega=st.floats(0.05, 20.0))
    def test_forms_never_decrease_with_the_block(self, n, alpha, omega):
        # Each step adds 2 (c - y^T b)^2 / (beta (1 + a)) >= 0 to every form.
        forms = np.array(list(setting2_forms(ChainParams(n_sites=n, alpha=alpha, omega=omega), n // 2 - 2)))
        assert forms.shape == (n // 2 - 2, 3)
        assert np.all(np.diff(forms, axis=0) >= 0.0)

    @staticmethod
    def _plant_t_q_positive_definite_to_order_5(monkeypatch):
        # T_q = toeplitz(1, c, 0, ...) is positive definite exactly up to the
        # order m with 2 c cos(pi / (m + 1)) < 1: at c = 0.56 up to m = 5, so
        # the recursion yields ell = 1, 2 and raises at ell = 3 (order 7).
        import qetchain.qet_protocol as qet_protocol

        g, h = correlation_vectors(20, 0.9)
        g_bad = np.zeros_like(g)
        g_bad[0], g_bad[1] = 0.5, 0.56
        monkeypatch.setattr(qet_protocol, "correlation_vectors", lambda n, alpha: (g_bad, h))

    def test_form_that_is_not_positive_definite_fails_at_its_block(self, monkeypatch):
        self._plant_t_q_positive_definite_to_order_5(monkeypatch)
        forms = setting2_forms(ChainParams(n_sites=20, alpha=0.9), 8)
        next(forms), next(forms)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            next(forms)

    def test_size_row_whose_recursion_stops_names_its_size_and_block(self, monkeypatch, capsys):
        # The size sweep evaluates only the row at ell = N/2 - 2 = 8, so the
        # stop at ell = 3 is what it reports.
        self._plant_t_q_positive_definite_to_order_5(monkeypatch)
        assert cli_main(["size-sweep", "--alpha", "a1", "--n-list", "20"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: N=20: ell=3: Toeplitz form not positive definite" in err

    @pytest.mark.parametrize("alpha", [0.0, 0.3, A1, A3, A4])
    def test_size_rows_match_run_setting2(self, alpha):
        # Each size row is the last form of its own recursion; measured
        # worst relative difference 1.2e-14 (a4, N = 10, delta_E_N).
        sizes = (6, 10, 40, 100, 400, 2000)
        for omega in (0.5, 1.0, 2.0):
            table = sweep_size(RunConfig(mode="size-sweep", alpha=alpha, omega=omega, n_list=sizes, threads=1))
            assert table.column("N").tolist() == list(sizes)
            for n, delta, e_abs, beta in zip(*map(table.column, table.columns), strict=True):
                rep = run_setting2(ChainParams(n_sites=int(n), alpha=alpha, omega=omega), n // 2 - 2)
                ref = (rep.delta_log_negativity, abs(rep.optimized_energy))
                assert abs(delta - ref[0]) <= 1e-12 * abs(ref[0]), (n, omega, delta, ref)
                assert abs(e_abs - ref[1]) <= 1e-12 * abs(ref[1]), (n, omega, e_abs, ref)
                assert np.isnan(beta) if delta == 0.0 else beta == e_abs / delta

    def test_sweep_needs_no_scipy_linalg(self):
        script = (
            "import sys, qetchain\n"
            "qetchain.sweep_setting2(qetchain.RunConfig(mode='setting2', n_sites=40, alpha=0.9, threads=1))\n"
            "qetchain.sweep_size(qetchain.RunConfig(mode='size-sweep', alpha=0.9, n_list=(6, 40), threads=1))\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        src = str(Path(qetchain.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_failure_inside_the_recursion_names_its_block(self, monkeypatch):
        import qetchain.experiment as experiment

        def failing(params, hi):
            yield from list(setting2_forms(params, hi))[:2]
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(experiment, "setting2_forms", failing)
        with pytest.raises(np.linalg.LinAlgError, match="^ell=3: synthetic failure$"):
            sweep_setting2(RunConfig(mode="setting2", n_sites=20, alpha=0.9, ell_min=5, threads=1))

    @pytest.mark.parametrize("unphysical, stop, named", [((3, 5), None, 3), ((4,), 6, 4), ((6,), 4, 4)])
    def test_first_failing_block_is_named(self, monkeypatch, unphysical, stop, named):
        # dp + 1 drives nu_1 below 1/2 at the blocks in unphysical (at
        # N = 20, a1 the true shrink is at most 0.012 against x^2 - 1 = 0.24);
        # the recursion raises at stop.  Rows before the stop are checked first.
        import qetchain.experiment as experiment

        def planted(params, hi):
            for ell, (dp, dq, jq) in enumerate(setting2_forms(params, hi), start=1):
                if ell == stop:
                    raise np.linalg.LinAlgError("synthetic failure")
                yield (dp + 1.0 if ell in unphysical else dp), dq, jq

        monkeypatch.setattr(experiment, "setting2_forms", planted)
        error = np.linalg.LinAlgError if named == stop else NumericsError
        message = "synthetic failure" if named == stop else r"target symplectic eigenvalue\^2 -?[0-9.e+-]+ < 1/4 "
        with pytest.raises(error, match=f"^ell={named}: {message}"):
            sweep_setting2(RunConfig(mode="setting2", n_sites=20, alpha=0.9, ell_min=5, threads=1))

    def test_run_setting2_names_its_unphysical_block(self, monkeypatch):
        # A target that starts as a pure product state (x^2 - 1 = 0) has no
        # entanglement to lose; the measurement's shrink at ell = 5 is 1.2e-3.
        import qetchain.qet_protocol as qet_protocol

        monkeypatch.setattr(qet_protocol, "target_x2m1", lambda g, h: 0.0)
        with pytest.raises(NumericsError, match=r"^ell=5: target symplectic eigenvalue\^2 "):
            run_setting2(ChainParams(n_sites=20, alpha=0.9), 5)

    @pytest.mark.parametrize("alpha", [0.0, A1, A4])
    def test_column_terms_equal_scalar_terms_bitwise(self, alpha):
        params = ChainParams(n_sites=100, alpha=alpha, omega=0.7)
        g, h = correlation_vectors(100, alpha)
        before = (float(g[0]), float(h[0]), target_x2m1(g, h))
        forms = list(setting2_forms(params, 48))
        columns = setting2_terms(*before, *np.array(forms).T)
        for ell, form in enumerate(forms, start=1):
            scalars = setting2_terms(*before, *form, ell_min=ell)
            for column, scalar in zip(columns, scalars, strict=True):
                assert np.shape(scalar) == ()
                assert column[ell - 1].tobytes() == np.float64(scalar).tobytes(), ell


def _bound_sides(n, alpha, omega, hi):
    """Both sides of each step of the setting-2 bound, for ell = 1..hi."""
    params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
    return _step_sides(params, *np.array(list(setting2_forms(params, hi))).T)


def _step_sides(params, dp, dq, jq):
    """Both sides of each step of the bound (qet_protocol docstring), for columns of forms.

    Each step reads lhs <= rhs, multiplied out so that a row whose forms
    underflow to 0 compares 0 with 0 instead of dividing by it.
    """
    alpha, omega = params.alpha, params.omega
    g, h = correlation_vectors(params.n_sites, alpha)
    g_0, h_0, x2m1 = float(g[0]), float(h[0]), target_x2m1(g, h)
    energy, _, delta = setting2_terms(g_0, h_0, x2m1, dp, dq, jq)
    shrink = 4.0 * (g_0 * dp + h_0 * dq - dq * dp)
    slope = omega * np.sqrt(1.0 + alpha)
    # delta >= c |E| with c = 2 arcsinh(1/2) / ((1 + slope) x sqrt(x^2 - 1) h_0 ln 2)
    scale = (1.0 + slope) * np.sqrt(1.0 + x2m1) * np.sqrt(x2m1) * h_0 * np.log(2.0)
    return {"jq": (jq, slope * dp), "shrink": (dp, shrink * h_0),
            "bound": (2.0 * np.arcsinh(0.5) * np.abs(energy), delta * scale)}


@st.composite
def _groups_and_targets(draw):
    """(N, group, targets): a measured group that is not one arc of an even ring N <= 40, and every
    site with no measured neighbour."""
    n = 2 * draw(st.integers(3, 20))
    group = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n // 2, unique=True))
    arcs = sum((s + 1) % n not in group for s in group)
    targets = [t for t in range(n) if not {(t - 1) % n, t, (t + 1) % n} & set(group)]
    assume(arcs >= 2 and targets)
    return n, tuple(group), targets


class TestEntanglementBound:
    """Delta E_N >= c |E_B| in setting 2 and on any group, step by step (derivation in the qet_protocol
    docstring)."""

    @pytest.mark.parametrize("alpha", [0.3, A1, A2, A3, A4])
    @pytest.mark.parametrize("n", [10, 40, 100, 400, 2000])
    def test_every_step_holds_on_the_grid(self, n, alpha):
        for omega in (0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0):
            for step, (lhs, rhs) in _bound_sides(n, alpha, omega, n // 2 - 2).items():
                bad = np.flatnonzero(~(lhs <= rhs))
                assert bad.size == 0, (step, omega, bad[:5] + 1, lhs[bad[:5]], rhs[bad[:5]])

    def test_bound_is_nearly_tight_far_from_criticality(self):
        # At alpha = 0.3, omega = 0.01 the bound is within 6 % of the largest |E_B| / delta E_N.
        lhs, rhs = _bound_sides(100, 0.3, 0.01, 48)["bound"]
        assert np.max(lhs / rhs) > 0.94

    # From alpha = 1e-9: as alpha -> 0, jq / (omega dp) -> 1 while the jq step allows sqrt(1 + alpha), a slack
    # of alpha / 2 that rounding no longer resolves below alpha ~ 1e-14.
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 200).map(lambda k: 2 * k), alpha=st.floats(1e-9, 1.0 - 1e-7),
           omega=st.floats(-2.0, 2.0).map(lambda e: 10.0**e), share=st.floats(0.0, 1.0))
    def test_every_step_holds_at_a_random_block(self, n, alpha, omega, share):
        ell = 1 + int(share * (n // 2 - 3))
        for step, (lhs, rhs) in _bound_sides(n, alpha, omega, ell).items():
            assert lhs[-1] <= rhs[-1], (step, ell, lhs[-1], rhs[-1])

    # The layout engine against the full-state route, on targets with no measured neighbour: a
    # measured neighbour adds a bond term to J_q that neither route's forms carry.  Measured on 1000
    # such groups (9181 targets): E_B within 5.4e-16 relative, delta E_N within 1.7e-12 absolute,
    # smallest bound slack 1.161.
    @settings(max_examples=200, deadline=None)
    @given(case=_groups_and_targets(), alpha=st.sampled_from([0.3, 0.9, 0.99, 0.9999, A4]),
           omega=st.floats(-2.0, 2.0).map(lambda e: 10.0**e))
    def test_every_step_holds_on_any_group(self, case, alpha, omega):
        n, group, targets = case
        params, spec = ChainParams(n_sites=n, alpha=alpha, omega=omega), MeasurementSpec(measured_sites=group)
        dp, dq, jq = group_forms(params, spec, targets)
        g, h = correlation_vectors(n, alpha)
        energy, _, delta = setting2_terms(float(g[0]), float(h[0]), target_x2m1(g, h), dp, dq, jq)
        ground, after = ground_covariance(params), post_measurement_covariance(params, spec)
        for t, e_b, delta_e_n in zip(targets, energy, delta, strict=True):
            want = optimized_energy(build_quadratics(params, spec, t))
            assert abs(e_b - want) <= 1e-12 * abs(want), (t, e_b, want)
            drop = log_negativity(ground, [t]) - log_negativity(after, [t])
            assert abs(delta_e_n - drop) <= 1e-11, (t, delta_e_n, drop)
        for step, (lhs, rhs) in _step_sides(params, dp, dq, jq).items():
            bad = np.flatnonzero(~(lhs <= rhs))
            assert bad.size == 0, (step, [targets[i] for i in bad], lhs[bad], rhs[bad])

    @pytest.mark.xfail(strict=True, reason="at alpha = 0 the FFT leaves off-site correlators of 1e-17, so |E_B| "
                       "is 1e-38 while x^2 - 1 is clamped to 0 and delta E_N is exactly 0")
    def test_bound_at_the_uncoupled_chain(self):
        lhs, rhs = _bound_sides(38, 0.0, 1.0, 1)["bound"]
        assert lhs[0] <= rhs[0]


# Calls that need scipy.linalg (a setting-2 row, a dense optimal plan and the
# layout engine on a non-contiguous group) and a Schur complement, which
# needs only numpy.  Run both in a fresh interpreter and in this one.
SCIPY_CALLS = """
params = qetchain.ChainParams(n_sites=40, alpha=0.9, omega=0.7)
spec = qetchain.MeasurementSpec(measured_sites=(0, 1, 2))
row = qetchain.run_setting2(params, 3)
plan = qetchain.optimal_plan(qetchain.build_quadratics(params, spec, 20))
forms = qetchain.qet_protocol.group_forms(params, qetchain.MeasurementSpec(measured_sites=(0, 3, 4, 11)), [8, 20, 31])
values = [row.optimized_energy, row.e_n_before, row.e_n_after, row.s_m_before, row.s_m_after,
          row.delta_log_negativity, *row.plan.theta.tolist(), *row.plan.phi.tolist(),
          *plan.theta.tolist(), *plan.phi.tolist(), *qetchain.build_m_matrix(params, spec).ravel().tolist(),
          *(x for form in forms for x in form.tolist())]
"""


def test_setting1_needs_no_scipy_linalg():
    script = (
        "import json, sys, qetchain\n"
        "params = qetchain.ChainParams(n_sites=40, alpha=0.9)\n"
        "qetchain.run_setting1(params, 3)\n"
        "qetchain.sweep_setting1(qetchain.RunConfig(mode='setting1', n_sites=40, d_max=5, threads=1))\n"
        "qetchain.post_measurement_covariance(params, qetchain.MeasurementSpec(measured_sites=(0, 1)))\n"
        "print('scipy.linalg' in sys.modules)\n"
        + SCIPY_CALLS
        + "print(json.dumps(values))\n"
    )
    src = str(Path(qetchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, fresh = done.stdout.splitlines()
    assert loaded == "False"
    here = {"qetchain": qetchain}
    exec(SCIPY_CALLS, here)
    assert json.loads(fresh) == here["values"]
