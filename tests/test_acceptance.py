"""Acceptance gates, one test per criterion, each printing a pass/fail line.

Criteria 6 and 8 gate power-law fit parameters against quoted target
values at pinned windows; the measured exponents for the energy scaling
(criterion 6) and the entanglement-drop size scaling (criterion 8) land
outside their bands on this exact configuration, and the corresponding
tests fail by design rather than loosening the gates.  The printed lines
carry the measured values; the repository notes document the analysis
(the same code reproduces the quoted scalings at N = 200 for criterion 6
and at an infrared cutoff of 1e-6 for criterion 8).
"""

import time

import numpy as np
import pytest

from qetchain import (
    ALPHA_PRESETS,
    ChainParams,
    MeasurementSpec,
    RunConfig,
    build_quadratics,
    fit_power_law,
    ground_covariance,
    log_negativity,
    optimized_energy,
    post_measurement_covariance,
    reduce,
    sweep_setting1,
    sweep_setting2,
    sweep_size,
)
from qetchain.experiment import render_csv
from qetchain.invariants import (
    fock_negativity_deviation,
    general_dyne_deviation,
    inverse_pair_deviation,
    sampled_plan_energies,
    unmeasured_purity_deviation,
    virial_deviation,
)
from qetchain.oracle import fock_ground_state

A1, A2, A3, A4 = (ALPHA_PRESETS[k] for k in ("a1", "a2", "a3", "a4"))


def _finish(criterion, gates):
    failed = [f"{name}: {detail}" for name, ok, detail in gates if not ok]
    status = "PASS" if not failed else "FAIL"
    body = "; ".join(f"{name}={'ok' if ok else 'FAIL'} ({detail})" for name, ok, detail in gates)
    print(f"[acceptance] criterion {criterion}: {status} | {body}")
    assert not failed, f"criterion {criterion}: " + " | ".join(failed)


def _window_fit(xs, ys, lo, hi, with_offset=False):
    keep = (xs >= lo) & (xs <= hi) & (xs > 0)
    return fit_power_law(list(zip(xs[keep], ys[keep])), with_offset=with_offset)


def test_criterion_1_correlator_inverse_identity():
    start = time.perf_counter()
    worst = inverse_pair_deviation((4, 10, 100), (0.0, 0.9, 0.99, A4))
    elapsed = time.perf_counter() - start
    _finish(1, [
        ("max |GH - I/4|", worst < 1e-10, f"{worst:.2e}"),
        ("runtime", elapsed < 1.0, f"{elapsed:.2f}s < 1s"),
    ])


def test_criterion_2_post_measurement_purity():
    worst = 0.0
    grids = [
        (4, 0.9, 1.0, (0,)),
        (10, 0.99, 0.5, (0, 1, 2)),
        (10, 0.5, 2.0, (1, 4)),
        (100, A4, 1.0, tuple(range(49))),
        (100, A4, 2.0, (0,)),
        (100, 0.9, 0.5, tuple(range(3))),
    ]
    for n, alpha, omega, measured in grids:
        spec = MeasurementSpec(measured_sites=measured, omega=omega)
        worst = max(worst, unmeasured_purity_deviation(ChainParams(n_sites=n, alpha=alpha, omega=omega), spec))
    _finish(2, [("max |nu - 1/2| over grids", worst < 1e-8, f"{worst:.2e}")])


def test_criterion_3_oracle_equivalence():
    worst = general_dyne_deviation((4, 6, 8, 12), (0.0, 0.5, 0.9, 0.99), (0.5, 1.0, 2.0), ((0,), (0, 1), (0, 2)))
    fock_devs = [fock_negativity_deviation(fock_ground_state(alpha, cutoff=25), alpha) for alpha in (0.5, 0.9)]
    _finish(3, [
        ("general-dyne vs Schur, entrywise", worst < 1e-10, f"{worst:.2e}"),
        ("fock vs gaussian negativity", max(fock_devs) < 1e-3, f"{max(fock_devs):.2e} at cutoff 25"),
    ])


def test_criterion_4_monte_carlo_energy():
    start = time.perf_counter()
    gates = []
    params = ChainParams(n_sites=100, alpha=0.9)
    spec = MeasurementSpec(measured_sites=(0,))
    for d in (1, 2, 5):
        analytic, [(mean, se)] = sampled_plan_energies(params, spec, d + 1, [(1.0, 1.0, 4000 + d)], 10**6)
        z = abs(mean - analytic) / se
        gates.append((f"d={d} |z|", z <= 3.0, f"analytic {analytic:.4e}, sampled {mean:.4e}, z={z:.2f}"))
    elapsed = time.perf_counter() - start
    gates.append(("runtime", elapsed < 30.0, f"{elapsed:.1f}s < 30s"))
    _finish(4, gates)


def test_criterion_5_setting1_separability_structure():
    gates = []
    drops = []
    for name in ("a1", "a2", "a3", "a4"):
        params = ChainParams(n_sites=100, alpha=ALPHA_PRESETS[name])
        v0 = ground_covariance(params)
        vm = post_measurement_covariance(params, MeasurementSpec(measured_sites=(0,)))
        before = max(log_negativity(reduce(v0, [0, d + 1]), [1]) for d in range(1, 41))
        after = max(log_negativity(reduce(vm, [0, d + 1]), [1]) for d in range(0, 41))
        gates.append((f"{name} E_N before, d>=1", before < 1e-10, f"max {before:.2e}"))
        gates.append((f"{name} E_N after, d>=0", after < 1e-10, f"max {after:.2e}"))
        drops.append(log_negativity(reduce(v0, [0, 1]), [1]) - log_negativity(reduce(vm, [0, 1]), [1]))
    gates.append(("delta E_N at d=0 positive", all(x > 0 for x in drops),
                  "drops " + ", ".join(f"{x:.4f}" for x in drops)))
    gates.append(("delta E_N grows toward criticality", all(b > a for a, b in zip(drops, drops[1:])),
                  "a1 < a2 < a3 < a4"))
    _finish(5, gates)


def test_criterion_6_setting1_scalings():
    start = time.perf_counter()
    table = sweep_setting1(RunConfig(mode="setting1", n_sites=100, alpha=A4, omega=1.0, d_max=40))
    ds = table.column("d").astype(float)
    fit_e = _window_fit(ds, np.abs(table.column("E_B_opt")), 10, 40)
    fit_s = _window_fit(ds, table.column("delta_S_M"), 10, 40)
    elapsed = time.perf_counter() - start

    # Sensitivity to the measurement frequency: the separation profile of
    # the extracted energy scales only through the two scalar noise terms,
    # so omega moves the amplitude and leaves the exponent unchanged; the
    # information drop does not involve omega at all.
    amps = {}
    for omega in (0.5, 2.0):
        t = sweep_setting1(RunConfig(mode="setting1", n_sites=100, alpha=A4, omega=omega, d_max=40))
        f = _window_fit(ds, np.abs(t.column("E_B_opt")), 10, 40)
        amps[omega] = (f.amplitude, f.exponent)
    print(f"[acceptance] criterion 6 omega sensitivity: at omega=1 amp={fit_e.amplitude:.3e} "
          f"exp={fit_e.exponent:.3f}; omega=0.5 amp={amps[0.5][0]:.3e} exp={amps[0.5][1]:.3f}; "
          f"omega=2 amp={amps[2.0][0]:.3e} exp={amps[2.0][1]:.3f} "
          f"(amplitude-only shift, gate evaluated at omega=1)")

    ratio = fit_e.amplitude / 2e-3
    _finish(6, [
        ("|E_B| exponent in -3.6 +- 0.4", abs(fit_e.exponent + 3.6) <= 0.4,
         f"measured {fit_e.exponent:.3f} over d in [10, 40] at N=100 (flattens toward d ~ N/2)"),
        ("|E_B| amplitude within 3x of 2e-3", 1 / 3 <= ratio <= 3, f"measured {fit_e.amplitude:.3e}"),
        ("delta_S_M exponent in -0.11 +- 0.04", abs(fit_s.exponent + 0.11) <= 0.04,
         f"measured {fit_s.exponent:.4f}"),
        ("delta_S_M amplitude in 1.55 +- 0.3", abs(fit_s.amplitude - 1.55) <= 0.3,
         f"measured {fit_s.amplitude:.3f}"),
        ("runtime", elapsed < 60.0, f"{elapsed:.1f}s < 60s"),
    ])


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_criterion_7_setting2_ratio_monotonicity(name):
    config = RunConfig(mode="setting2", n_sites=100, alpha=ALPHA_PRESETS[name])
    table = sweep_setting2(config)
    ratio = table.column("ratio")
    ells = table.column("ell")
    monotone = bool(np.all(np.diff(ratio) >= -1e-12))
    _finish(f"7[{name}]", [
        ("ratio monotone non-decreasing", monotone, f"{len(ratio)} block sizes"),
        ("maximum at ell = N/2 - 2", int(ells[np.argmax(ratio)]) == 48,
         f"argmax ell = {int(ells[np.argmax(ratio)])}, max = {ratio.max():.3e}"),
        ("ratio below one everywhere", bool(np.all(ratio < 1.0)), f"max {ratio.max():.3e}"),
    ])


def test_criterion_8_size_sweep_scalings():
    start = time.perf_counter()
    n_list = tuple(range(20, 101, 10))
    table = sweep_size(RunConfig(mode="size-sweep", alpha=A4, n_list=n_list))
    ns = table.column("N").astype(float)
    fit_den = _window_fit(ns, table.column("delta_E_N"), 40, 100)
    fit_eb = _window_fit(ns, table.column("E_B_abs"), 40, 100, with_offset=True)
    fit_beta = _window_fit(ns, table.column("beta"), 40, 100)

    plateaus = []
    for name in ("a1", "a2", "a3"):
        t = sweep_size(RunConfig(mode="size-sweep", alpha=ALPHA_PRESETS[name], n_list=(80, 100)))
        den = t.column("delta_E_N")
        eb = t.column("E_B_abs")
        plateaus.append(max(abs(den[1] - den[0]) / den[1], abs(eb[1] - eb[0]) / eb[1]))
    elapsed = time.perf_counter() - start

    _finish(8, [
        ("delta_E_N exponent in -0.32 +- 0.06", abs(fit_den.exponent + 0.32) <= 0.06,
         f"measured {fit_den.exponent:.4f} over N in [40, 100] (drop is logarithmic at this cutoff)"),
        ("delta_E_N amplitude in 8 +- 2", abs(fit_den.amplitude - 8.0) <= 2.0,
         f"measured {fit_den.amplitude:.3f}"),
        ("|E_B| large-N offset = 0.0020613 +- 10%", abs(fit_eb.offset - 0.0020613) <= 0.10 * 0.0020613,
         f"measured {fit_eb.offset:.7f}"),
        ("beta exponent in +0.32 +- 0.06", abs(fit_beta.exponent - 0.32) <= 0.06,
         f"measured {fit_beta.exponent:.4f}"),
        ("non-critical plateau < 5% between N=80 and N=100", max(plateaus) < 0.05,
         f"worst relative change {max(plateaus):.2e}"),
        ("runtime", elapsed < 120.0, f"{elapsed:.1f}s < 120s"),
    ])


def test_criterion_9_determinism():
    config = RunConfig(mode="setting1", n_sites=30, alpha=A2, d_max=10, seed=42, threads=1)
    first = render_csv(sweep_setting1(config))
    second = render_csv(sweep_setting1(config))
    pooled = render_csv(sweep_setting1(
        RunConfig(mode="setting1", n_sites=30, alpha=A2, d_max=10, seed=42, threads=4)))
    size_a = render_csv(sweep_size(RunConfig(mode="size-sweep", alpha=A1, n_list=(6, 8, 10), seed=7)))
    size_b = render_csv(sweep_size(RunConfig(mode="size-sweep", alpha=A1, n_list=(6, 8, 10), seed=7)))
    _finish(9, [
        ("repeated setting1 byte-identical", first == second, f"{len(first)} bytes"),
        ("thread pool does not change bytes", first == pooled, "threads 1 vs 4"),
        ("repeated size-sweep byte-identical", size_a == size_b, f"{len(size_a)} bytes"),
    ])


def test_criterion_10_property_suite():
    rng = np.random.default_rng(99)
    gates = []

    worst_energy = -np.inf
    for _ in range(25):
        n = 2 * int(rng.integers(4, 40))
        alpha = float(rng.uniform(0.0, 1.0 - 1e-9))
        omega = float(rng.uniform(0.3, 3.0))
        params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
        count = int(rng.integers(1, min(5, n // 2 - 1)))
        spec = MeasurementSpec(measured_sites=tuple(range(count)), omega=omega)
        worst_energy = max(worst_energy, optimized_energy(build_quadratics(params, spec, n // 2 + 1)))
    gates.append(("optimized energy never positive", worst_energy <= 0.0, f"max {worst_energy:.2e}"))

    zero = optimized_energy(build_quadratics(
        ChainParams(n_sites=12, alpha=0.0), MeasurementSpec(measured_sites=(0,)), 6))
    gates.append(("decoupled chain extracts nothing", zero == 0.0, f"value {zero:.1e}"))

    plans = [(1.1, 1.1, 51), (1.5, 1.5, 52), (0.8, 0.8, 53)]  # (theta factor, phi factor, seed)
    params, spec = ChainParams(n_sites=100, alpha=0.9), MeasurementSpec(measured_sites=(0,))
    analytic, sampled = sampled_plan_energies(params, spec, 2, plans, 200_000)
    ok = all(mean >= analytic - 3 * se for mean, se in sampled)
    details = [f"x{scale}: {mean:.3e}" for (scale, _, _), (mean, _) in zip(plans, sampled)]
    gates.append(("perturbed plans never beat the optimum", ok,
                  f"optimum {analytic:.3e}; " + ", ".join(details)))

    worst_virial = virial_deviation(rng, 50, 100)
    gates.append(("virial identity to 1e-12", worst_virial < 1e-12, f"max dev {worst_virial:.2e}"))

    _finish(10, gates)
