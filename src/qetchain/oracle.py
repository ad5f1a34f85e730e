"""Independent validation routes for the measurement and protocol algebra.

Two oracles, neither of which reuses the Schur-complement construction it
is checking:

* a general-dyne conditioning update that derives the post-measurement
  covariance and the outcome-to-mean gains directly from the ground
  covariance (of the whole chain, or of any set of sites, since a
  Gaussian marginal is the exact sub-block), and a Monte Carlo estimator
  that replays the protocol (sample outcome, condition, displace, read
  off the target energy) sample by sample, evaluating several plans on
  one draw.  It conditions only the group, the target and the target's
  unmeasured neighbors, and reads both halves of the draw in cache-sized
  blocks of rows as they are drawn, pooling each block's count, mean and
  centred sum of squares exactly: neither half is held whole, so its
  working set is one block at any sample count and any chain size.  The
  conditioning runs sector by sector, positions on X and
  momenta on P: the state and the detector noise have no q-p
  cross-covariance, so the joint 2n x 2n update is block-diagonal and
  equals the two sector updates exactly.  The sector update also runs on
  stacks of blocks, so a grid of (alpha, omega) points of one size and
  group is conditioned in one call, each matrix with the LAPACK calls a
  lone point gets;
* a truncated two-oscillator number-basis diagonalization whose exact
  state cross-checks the Gaussian negativity and correlators.  The ground
  state has even n0 + n1 and is symmetric under n0 <-> n1, so only the
  block of such states is solved (169 states at cutoff 25, not the 313 of
  even n0 + n1); the negativity of that pure state is read from its
  Schmidt coefficients.

The module also holds the invariants that ``qetchain validate`` and the
acceptance tests share, one function each: it measures one invariant over
the grid, seed or sample count it is given and returns the deviation; the
caller owns the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.linalg import eigh

from .chain_model import ChainParams, correlation_submatrices, correlation_vectors, ground_covariance
from .gaussian_state import CovarianceMatrix, NumericsError, _mode_indices, _symmetrized, log_negativity
from .gaussian_state import reduce, symplectic_eigenvalues
from .povm_measurement import MeasurementSpec, _check_sites, _outcome_blocks, _schur_complement, outcome_distribution
from .povm_measurement import post_measurement_covariance, quarter_inverse, unmeasured_sites
from .qet_protocol import DisplacementPlan, build_quadratics, optimal_plan, optimized_energy

TOP_LEVEL_POPULATION_TOL = 1e-6


@dataclass(frozen=True)
class GeneralDyneUpdate:
    """Conditional covariance of the unmeasured modes and the outcome gains.

    gain_x maps the position outcomes X of the measured modes, in the order
    they were passed, to the conditional q means of the unmeasured modes in
    ascending order; gain_p maps the momentum outcomes P to their p means.
    No other outcome moves a mean.  The conditional covariance is
    outcome-independent.
    """

    conditional_covariance: CovarianceMatrix
    gain_x: np.ndarray
    gain_p: np.ndarray


def general_dyne_update(V: CovarianceMatrix, measured, omega: float) -> GeneralDyneUpdate:
    """Condition a Gaussian state on a coherent-state measurement of some modes.

    Standard Gaussian conditioning with detector covariance
    diag(1/(2 omega), omega/2) per measured mode:

        V_cond = V_BB - V_BA (V_AA + V_det)^{-1} V_AB
        gain   = V_BA (V_AA + V_det)^{-1}

    The state and V_det are both block-diagonal in (q, p), so V_AA + V_det
    is too, its inverse is, and the joint update splits exactly into two
    independent ones: Q conditioned on X with noise 1/(2 omega), and P on
    P with noise omega/2.  Each sector is solved on its own.
    """
    cond_q, cond_p, gain_x, gain_p = _condition_sectors(V.q, V.p, measured, omega)
    return GeneralDyneUpdate(CovarianceMatrix(cond_q, cond_p), gain_x, gain_p)


def _condition_sectors(q: np.ndarray, p: np.ndarray, measured, omega):
    """The two sector updates on (..., n, n) stacks of q and p blocks.

    omega broadcasts over the stack, so one call conditions many grid
    points; each matrix meets the same LAPACK calls that a lone one would.
    Returns (conditional q, conditional p, gain_x, gain_p), the conditional
    blocks not yet symmetrized.
    """
    meas = _mode_indices(measured, q.shape[-1])
    if not meas:
        raise ValueError("measured subset must be non-empty")
    measured_set = set(meas)
    rest = [s for s in range(q.shape[-1]) if s not in measured_set]
    if not rest:
        raise ValueError("measured subset must be a proper subset of the modes")
    ia, ib = np.array(meas)[:, None], np.array(rest)[:, None]  # column index vectors
    omega = np.asarray(omega, dtype=float)[..., None, None]
    blocks, gains = [], []
    for block, noise in ((q, 1.0 / (2.0 * omega)), (p, omega / 2.0)):
        v_ab = np.swapaxes(block[..., ib, ia.T], -1, -2)
        gain = np.swapaxes(np.linalg.solve(block[..., ia, ia.T] + noise * np.eye(len(meas)), v_ab), -1, -2)
        blocks.append(block[..., ib, ib.T] - gain @ v_ab)
        gains.append(gain)
    return (*blocks, *gains)


def monte_carlo_energy(
    params: ChainParams,
    spec: MeasurementSpec,
    target_site: int,
    plans,
    n_samples: int,
    seed: int,
) -> list[tuple[float, float]]:
    """Sampled mean and standard error of the target-site energy under each plan.

    All plans are evaluated on one draw of n_samples outcomes, so a plan's
    result does not depend on which other plans share the call.  Per
    sample: draw an outcome (X, P), form the conditional means of the
    target and its neighbors through the general-dyne gains, shift the
    target means by (phi . X, theta . P), and evaluate the target energy

        (1/2) <p_B^2> + (1/2) <q_B^2> - (alpha/2) <q_B (q_{B-1} + q_{B+1})>

    minus its ground-state value, counting the target's bonds in full (a
    displacement at B changes the chain energy only through these terms,
    so for a target with no measured neighbor the sample mean of this
    quantity is exactly the displacement energy that the analytic
    quadratic form minimizes).

    Only the group, the target and the target's unmeasured neighbors are
    conditioned (at most |A| + 3 sites, from their ground sub-block), and
    the site checks cost O(|A|), so past the correlator vectors no work
    grows with the chain size.

    The draw is read in blocks of rows: each block of X and of P is drawn
    into a reused buffer and read before the next is drawn, so neither
    half is held whole (see povm_measurement._outcome_blocks), and the
    stream and the bits are those of sample_outcomes.  Per block, each
    mean is one matvec on X or on P and the energy is formed in place; the
    block's count, mean and centred sum of squares are merged into the
    plan's running totals by the pairwise update of Chan, Golub and
    LeVeque, which is exact, so the mean and the standard error are those
    of the whole draw up to round-off.
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    plans = list(plans)
    if any(plan.theta.size != len(spec.measured_sites) for plan in plans):
        raise ValueError("plan length does not match the measured group")
    g, h = correlation_vectors(params.n_sites, params.alpha)
    alpha = params.alpha
    measured = spec.measured_sites
    _check_sites(params, spec)
    if not 0 <= target_site < params.n_sites or target_site != int(target_site) or target_site in measured:
        raise ValueError(f"target site {target_site} is not unmeasured")
    # A Gaussian marginal is the exact sub-block, so conditioning the sites
    # read below on the group alone gives the same gains and covariances.
    neighbor_sites = ((target_site - 1) % params.n_sites, (target_site + 1) % params.n_sites)
    kept = [target_site] + [s for s in neighbor_sites if s not in measured]
    sites = list(measured) + kept
    upd = general_dyne_update(CovarianceMatrix(*correlation_submatrices(params, sites, sites)),
                              range(len(measured)), params.omega)
    cond = upd.conditional_covariance
    pos = {s: i for i, s in enumerate(kept)}  # rows of the gains and the conditional blocks

    b = pos[target_site]
    # Coefficients on X of the summed neighbor position means: a gain row for
    # an unmeasured neighbor; for a measured one the outcome itself, since its
    # post-measurement mean is X and it carries no covariance with the target.
    neighbor_x = np.zeros(len(measured))
    constant = 0.5 * (cond.q[b, b] + cond.p[b, b])
    constant -= 0.5 * (h[0] + g[0]) - alpha * g[1]  # ground-state value
    for s in neighbor_sites:
        if s in pos:
            neighbor_x += upd.gain_x[pos[s]]
            constant -= (alpha / 2.0) * cond.q[b, pos[s]]
        else:
            neighbor_x[measured.index(s)] += 1.0

    # Every plan reads the same blocks and the same neighbor means, and its
    # own vectors otherwise, so its result does not depend on the other plans.
    blocks = _outcome_blocks(outcome_distribution(params, spec), seed, n_samples)
    gains = [(upd.gain_x[b] + plan.phi, upd.gain_p[b] + plan.theta) for plan in plans]
    totals = [(0, 0.0, 0.0)] * len(plans)
    for start, stop, x, p in blocks:
        neighbors = np.dot(x, neighbor_x)
        for i, (gain_q, gain_p) in enumerate(gains):
            mean_q_b, energy = np.dot(x, gain_q), np.dot(p, gain_p)
            energy *= energy
            energy += np.square(mean_q_b)
            energy *= 0.5
            mean_q_b *= alpha / 2.0
            mean_q_b *= neighbors
            energy -= mean_q_b
            energy += constant
            block_mean = float(energy.mean())
            energy -= block_mean
            totals[i] = _merge_moments(totals[i], (stop - start, block_mean, float(np.dot(energy, energy))))
    return [(mean, float(np.sqrt(m2 / (n_samples - 1) / n_samples))) for _, mean, m2 in totals]


def _merge_moments(a, b):
    """Pool two (count, mean, centred sum of squares) triples exactly.

    Chan, Golub and LeVeque, The American Statistician 37, 242 (1983).
    """
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


@dataclass(frozen=True)
class FockState:
    """Two-oscillator pure state in the truncated number basis."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes)
        if amp.shape != (self.cutoff, self.cutoff):
            raise ValueError(f"amplitudes must have shape ({self.cutoff}, {self.cutoff})")
        norm = np.sqrt(np.sum(np.abs(amp) ** 2))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-8")
        object.__setattr__(self, "amplitudes", amp)


def _ladder(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1)


def _position_operator(cutoff: int) -> np.ndarray:
    a = _ladder(cutoff)
    return (a + a.T) / np.sqrt(2.0)


def _symmetric_hamiltonian(alpha: float, cutoff: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of the coupled-pair Hamiltonian between the states s_ab listed by (a, b).

    Two sites on a ring of two: both bonds join the same pair, so the
    coupling is -alpha q0 q1 in total.  With c_ab = 1/sqrt(2), or 1/2 when
    a = b, the entries are

        (a + b + 1) delta - 2 alpha c_ab c_cd (q[a, c] q[b, d] + q[a, d] q[b, c]).
    """
    q = _position_operator(cutoff)
    qa, qb = q[:, a], q[:, b]  # row gathers of these are q[a, c], q[b, d], q[a, d] and q[b, c]
    c = np.where(a == b, 0.5, np.sqrt(0.5))
    # In place, in the order of 2 c c^T (qa[a] qb[b] + qb[a] qa[b]), so that
    # no more than three len(a)^2 arrays are alive at once.
    h = qa[a]
    h *= qb[b]
    term = qb[a]
    term *= qa[b]
    h += term
    np.multiply(c[:, None], c, out=term)  # np.outer(c, c)
    term *= 2.0
    h *= term
    del term
    h *= alpha
    return np.subtract(np.diag(a + b + 1.0), h, out=h)


def fock_ground_state(alpha: float, cutoff: int = 25) -> FockState:
    """Exact ground state of two coupled oscillators in a truncated number basis.

    The coupling changes n0 + n1 by 0 or +-2 and commutes with the exchange
    n0 <-> n1, and the ground state is even under both, so only the block of
    exchange-symmetric states with even n0 + n1 is diagonalized: 169 states
    at cutoff 25, against 313 in the even block and 625 in all.  The
    amplitude matrix is symmetric exactly.

    Raises NumericsError when the truncation is too tight, i.e. when the
    top number level of either mode holds more than 1e-6 population.
    """
    if cutoff < 10:
        raise ValueError(f"cutoff must be >= 10, got {cutoff}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    a, b = np.triu_indices(cutoff)
    even = (a + b) % 2 == 0
    a, b = a[even], b[even]  # the states s_ab = c_ab (|ab> + |ba>) with a <= b and a + b even
    h = _symmetric_hamiltonian(alpha, cutoff, a, b)
    # h equals its transpose bit for bit, and LAPACK overwrites that Fortran-ordered view without a copy.
    _, vec = eigh(h.T, subset_by_index=[0, 0], overwrite_a=True)
    amp = np.zeros((cutoff, cutoff))
    amp[a, b] = amp[b, a] = vec[:, 0] * np.where(a == b, 1.0, np.sqrt(0.5))  # <ab|s_ab> = <ba|s_ab>
    amp *= np.sign(amp.flat[np.argmax(np.abs(amp))])
    top = np.sum(amp[-1] ** 2)  # the same for both modes, since amp is symmetric
    if top > TOP_LEVEL_POPULATION_TOL:
        raise NumericsError(f"top-level population {top:.3e} exceeds 1e-6; raise the cutoff")
    return FockState(cutoff=cutoff, amplitudes=amp)


def fock_energy(state: FockState, alpha: float) -> float:
    """Variational energy of a two-mode state under the coupled-pair Hamiltonian.

    <n0 + n1 + 1> from the level populations, minus alpha <q0 q1>.
    """
    levels = np.add.outer(np.arange(state.cutoff), np.arange(state.cutoff)) + 1.0
    return float(np.sum(levels * np.abs(state.amplitudes) ** 2)) - alpha * fock_position_correlator(state)


def fock_position_correlator(state: FockState) -> float:
    """<q0 q1> evaluated directly in the number basis: sum of conj(a) * (q a q^T)."""
    q = _position_operator(state.cutoff)
    amp = state.amplitudes
    return float(np.real(np.sum(np.conj(amp) * (q @ amp @ q.T))))


def fock_log_negativity(state: FockState) -> float:
    """log2 of the trace norm of the density matrix partially transposed on mode 1.

    For a pure state that trace norm is (sum_k s_k)^2 over the Schmidt
    coefficients s_k, the singular values of the amplitude matrix
    (Vidal and Werner, PRA 65, 032314 (2002)).
    """
    schmidt = np.linalg.svd(state.amplitudes, compute_uv=False)
    return float(2.0 * np.log2(np.sum(schmidt)))


def two_mode_ground_covariance(alpha: float) -> CovarianceMatrix:
    """Gaussian description of the coupled pair, for cross-checks against the Fock route."""
    g, h = correlation_vectors(2, alpha)
    dist = np.array([[0, 1], [1, 0]])
    return CovarianceMatrix(g[dist], h[dist])


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
            points = [ChainParams(n_sites=n, alpha=alpha, omega=omega) for alpha, omega in product(alphas, omegas)]
            sites = list(measured) + list(unmeasured_sites(points[0], MeasurementSpec(measured_sites=measured)))
            q = np.stack([ground[params.alpha].q for params in points])
            p = np.stack([ground[params.alpha].p for params in points])
            omega = np.array([params.omega for params in points])
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
