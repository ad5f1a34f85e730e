"""Independent validation routes for the measurement and protocol algebra.

Two oracles, neither of which reuses the Schur-complement construction it
is checking:

* a general-dyne conditioning update that derives the post-measurement
  covariance and the outcome-to-mean gains directly from the ground
  covariance of the whole chain, and a Monte Carlo estimator that replays
  the protocol (sample outcome, condition, displace, read off the target
  energy) sample by sample, evaluating several plans on one draw.  The
  conditioning runs sector by sector, positions on X and momenta on P:
  the state and the detector noise have no q-p cross-covariance, so the
  joint 2n x 2n update is block-diagonal and equals the two sector
  updates exactly;
* a truncated two-oscillator number-basis diagonalization whose exact
  state cross-checks the Gaussian negativity and correlators.  It solves
  only the block of even n0 + n1, where the ground state lies, and reads
  the negativity of that pure state from its Schmidt coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .chain_model import ChainParams, correlation_vectors, ground_covariance
from .gaussian_state import CovarianceMatrix, NumericsError, _mode_indices
from .povm_measurement import (
    MeasurementSpec,
    outcome_distribution,
    sample_outcomes,
    unmeasured_sites,
)
from .qet_protocol import DisplacementPlan

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
    meas = _mode_indices(measured, V.n_modes)
    if not meas:
        raise ValueError("measured subset must be non-empty")
    measured_set = set(meas)
    rest = [s for s in range(V.n_modes) if s not in measured_set]
    if not rest:
        raise ValueError("measured subset must be a proper subset of the modes")
    ia, ib = np.array(meas)[:, None], np.array(rest)[:, None]  # column index vectors
    blocks, gains = [], []
    for block, noise in ((V.q, 1.0 / (2.0 * omega)), (V.p, omega / 2.0)):
        v_ba = block[ib, ia.T]
        gain = np.linalg.solve(block[ia, ia.T] + noise * np.eye(len(meas)), v_ba.T).T
        blocks.append(block[ib, ib.T] - gain @ v_ba.T)
        gains.append(gain)
    return GeneralDyneUpdate(CovarianceMatrix(*blocks), *gains)


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
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    plans = list(plans)
    if any(plan.theta.size != len(spec.measured_sites) for plan in plans):
        raise ValueError("plan length does not match the measured group")
    g, h = correlation_vectors(params.n_sites, params.alpha)
    alpha = params.alpha
    rest = unmeasured_sites(params, spec)
    if target_site not in rest:
        raise ValueError(f"target site {target_site} is not unmeasured")
    pos = {s: i for i, s in enumerate(rest)}
    upd = general_dyne_update(ground_covariance(params), spec.measured_sites, spec.omega)
    cond = upd.conditional_covariance

    b = pos[target_site]
    # Coefficients on X of the summed neighbor position means: a gain row for
    # an unmeasured neighbor; for a measured one the outcome itself, since its
    # post-measurement mean is X and it carries no covariance with the target.
    neighbor_x = np.zeros(len(spec.measured_sites))
    constant = 0.5 * (cond.q[b, b] + cond.p[b, b])
    constant -= 0.5 * (h[0] + g[0]) - alpha * g[1]  # ground-state value
    for s in ((target_site - 1) % params.n_sites, (target_site + 1) % params.n_sites):
        if s in pos:
            neighbor_x += upd.gain_x[pos[s]]
            constant -= (alpha / 2.0) * cond.q[b, pos[s]]
        else:
            neighbor_x[spec.measured_sites.index(s)] += 1.0

    # Each mean is one matvec on the stacked draw (X, P); q means read X only
    # and p means P only.  A matvec's bits do not depend on the other rows,
    # so a plan's result does not depend on the other plans.
    zero = np.zeros_like(neighbor_x)
    draw = np.concatenate(sample_outcomes(outcome_distribution(params, spec), seed, n_samples), axis=1)
    neighbors = draw @ np.concatenate([neighbor_x, zero])

    def estimate(plan: DisplacementPlan) -> tuple[float, float]:
        mean_q_b = draw @ np.concatenate([upd.gain_x[b] + plan.phi, zero])
        mean_p_b = draw @ np.concatenate([zero, upd.gain_p[b] + plan.theta])
        energy = 0.5 * (mean_p_b**2 + mean_q_b**2) - (alpha / 2.0) * mean_q_b * neighbors + constant
        return float(energy.mean()), float(energy.std(ddof=1) / np.sqrt(n_samples))

    return [estimate(plan) for plan in plans]


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


def _number_basis(cutoff: int) -> np.ndarray:
    """All (n0, n1) pairs below the cutoff, rows in the order of amplitudes.reshape(-1)."""
    return np.indices((cutoff, cutoff)).reshape(2, -1).T


def _two_mode_hamiltonian(alpha: float, cutoff: int, basis: np.ndarray) -> np.ndarray:
    """Matrix of the coupled-pair Hamiltonian between the (n0, n1) states listed in basis.

    Two sites on a ring of two: both bonds join the same pair, so the
    coupling is -alpha q0 q1 in total, and the entries are
    (n0 + n1 + 1) delta - alpha q[n0, n0'] q[n1, n1'].
    """
    q = _position_operator(cutoff)
    n0, n1 = basis[:, 0], basis[:, 1]
    return np.diag(n0 + n1 + 1.0) - alpha * (q[np.ix_(n0, n0)] * q[np.ix_(n1, n1)])


def fock_ground_state(alpha: float, cutoff: int = 25) -> FockState:
    """Exact ground state of two coupled oscillators in a truncated number basis.

    The coupling changes n0 + n1 by 0 or +-2, and the ground state lies in
    the block of even n0 + n1, so only that block is diagonalized.

    Raises NumericsError when the truncation is too tight, i.e. when the
    top number level of either mode holds more than 1e-6 population.
    """
    if cutoff < 10:
        raise ValueError(f"cutoff must be >= 10, got {cutoff}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    basis = _number_basis(cutoff)
    basis = basis[basis.sum(axis=1) % 2 == 0]
    _, vec = eigh(_two_mode_hamiltonian(alpha, cutoff, basis), subset_by_index=[0, 0])
    psi = vec[:, 0]
    psi = psi * np.sign(psi[np.argmax(np.abs(psi))])
    amp = np.zeros((cutoff, cutoff))
    amp[basis[:, 0], basis[:, 1]] = psi
    top = max(np.sum(amp[-1, :] ** 2), np.sum(amp[:, -1] ** 2))
    if top > TOP_LEVEL_POPULATION_TOL:
        raise NumericsError(f"top-level population {top:.3e} exceeds 1e-6; raise the cutoff")
    return FockState(cutoff=cutoff, amplitudes=amp)


def fock_energy(state: FockState, alpha: float) -> float:
    """Variational energy of a two-mode state under the coupled-pair Hamiltonian."""
    h = _two_mode_hamiltonian(alpha, state.cutoff, _number_basis(state.cutoff))
    psi = state.amplitudes.reshape(-1)
    return float(np.real(np.conj(psi) @ h @ psi))


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
