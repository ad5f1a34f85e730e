"""Invariants checked by both `qetchain validate` and the acceptance tests.

Each function measures one invariant over the grid, seed or sample count it
is given and returns the deviation; the caller owns the tolerance.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .chain_model import ChainParams, correlation_vectors, ground_covariance
from .gaussian_state import CovarianceMatrix, _symmetrized, log_negativity, reduce, symplectic_eigenvalues
from .oracle import FockState, _condition_sectors, fock_log_negativity, monte_carlo_energy
from .oracle import two_mode_ground_covariance
from .povm_measurement import MeasurementSpec, _schur_complement, post_measurement_covariance
from .povm_measurement import quarter_inverse, unmeasured_sites
from .qet_protocol import DisplacementPlan, build_quadratics, optimal_plan, optimized_energy


def inverse_pair_deviation(sizes, alphas) -> float:
    """max |G H - I/4| over every (N, alpha) of the grid."""
    dev = 0.0
    for n, alpha in product(sizes, alphas):
        g, h = correlation_vectors(n, alpha)
        dist = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        dev = max(dev, float(np.abs(g[dist] @ h[dist] - np.eye(n) / 4).max()))
    return dev


def virial_deviation(rng: np.random.Generator, draws: int, half_size_bound: int) -> float:
    """max |h0 - g0 + alpha g1| over draws of N = 2 * [2, half_size_bound) and alpha in [0, 1)."""
    dev = 0.0
    for _ in range(draws):
        n = 2 * int(rng.integers(2, half_size_bound))
        alpha = float(rng.uniform(0.0, 1.0 - 1e-9))
        g, h = correlation_vectors(n, alpha)
        dev = max(dev, abs(h[0] - (g[0] - alpha * g[1])))
    return dev


def purity_deviation(state: CovarianceMatrix) -> float:
    """max |nu - 1/2| over the symplectic spectrum; 0 for a pure state."""
    return float(np.abs(symplectic_eigenvalues(state) - 0.5).max())


def unmeasured_purity_deviation(params: ChainParams, spec: MeasurementSpec) -> float:
    """Purity deviation of the unmeasured sites after the measurement."""
    return purity_deviation(reduce(post_measurement_covariance(params, spec), unmeasured_sites(params, spec)))


def general_dyne_deviation(sizes, alphas, omegas, groups) -> float:
    """Largest entry difference between general-dyne conditioning and the Schur construction.

    The Schur side is the unmeasured block (M^{-1}/4, M) straight from M.
    Each (N, group) is one stacked evaluation over every (alpha, omega):
    every point's parameters are checked as a lone call checks them, and
    each matrix meets the LAPACK calls a lone call makes, so the deviation
    is the per-point loop's to the bit.
    """
    dev = 0.0
    for n in sizes:
        ground = {alpha: ground_covariance(ChainParams(n_sites=n, alpha=alpha)) for alpha in alphas}
        for measured in groups:
            points = [(ChainParams(n_sites=n, alpha=alpha, omega=omega),
                       MeasurementSpec(measured_sites=measured, omega=omega)) for alpha, omega in product(alphas, omegas)]
            rest = {unmeasured_sites(*point) for point in points}.pop()  # one N and one group: one complement
            sites = list(measured) + list(rest)
            q = np.stack([ground[params.alpha].q for params, _ in points])
            p = np.stack([ground[params.alpha].p for params, _ in points])
            omega = np.array([spec.omega for _, spec in points])
            m = _schur_complement(p[:, sites][:, :, sites], len(measured), omega)  # [[L, K], [K^T, H_u]] per point
            cond_q, cond_p, _, _ = _condition_sectors(q, p, measured, omega)
            dev = max(dev, float(np.abs(_symmetrized(cond_q) - quarter_inverse(m)).max()),
                      float(np.abs(_symmetrized(cond_p) - m).max()))
    return dev


def fock_negativity_deviation(fock: FockState, alpha: float) -> float:
    """|E_N in the number basis - E_N of the Gaussian pair|."""
    return abs(fock_log_negativity(fock) - log_negativity(two_mode_ground_covariance(alpha), [1]))


def sampled_plan_energies(params: ChainParams, spec: MeasurementSpec, target: int, scaled_plans,
                          samples: int) -> tuple[float, list[tuple[float, float]]]:
    """The analytic optimum at target, and the Monte Carlo (mean, standard error) of the optimal
    plan with theta and phi scaled, for each (theta factor, phi factor, seed) in scaled_plans.
    Plans that share a seed share one Monte Carlo draw."""
    quad = build_quadratics(params, spec, target)
    plan = optimal_plan(quad)
    analytic = optimized_energy(quad)
    plans = [DisplacementPlan(plan.theta * t, plan.phi * p) for t, p, _ in scaled_plans]
    seeds = [seed for _, _, seed in scaled_plans]
    sampled = {}
    for seed in dict.fromkeys(seeds):
        group = [i for i, s in enumerate(seeds) if s == seed]
        sampled.update(zip(group, monte_carlo_energy(params, spec, target, [plans[i] for i in group], samples, seed)))
    return analytic, [sampled[i] for i in range(len(plans))]
