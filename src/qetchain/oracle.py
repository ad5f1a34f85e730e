"""Independent validation routes for the measurement and protocol algebra.

Two oracles, neither of which reuses the Schur-complement construction it
is checking:

* a general-dyne conditioning update that derives the post-measurement
  covariance and the outcome-to-mean gain directly from the full
  phase-space covariance, and a Monte Carlo estimator that replays the
  protocol (sample outcome, condition, displace, read off the target
  energy) sample by sample;
* a truncated two-oscillator number-basis diagonalization whose exact
  density matrix cross-checks the Gaussian negativity and correlators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .chain_model import ChainParams, build_correlations, correlation_vectors, ground_covariance
from .gaussian_state import CovarianceMatrix, NumericsError
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
    """Conditional covariance of the unmeasured modes and the outcome gain.

    gain maps the interleaved outcome vector (X_1, P_1, X_2, P_2, ...) of
    the measured modes, in the order they were passed, to the interleaved
    (q, p) conditional means of the unmeasured modes in ascending order.
    The conditional covariance is outcome-independent.
    """

    conditional_covariance: CovarianceMatrix
    gain: np.ndarray


def general_dyne_update(V: CovarianceMatrix, measured, omega: float) -> GeneralDyneUpdate:
    """Condition a Gaussian state on a coherent-state measurement of some modes.

    Standard Gaussian conditioning with detector covariance
    diag(1/(2 omega), omega/2) per measured mode:

        V_cond = V_BB - V_BA (V_AA + V_det)^{-1} V_AB
        gain   = V_BA (V_AA + V_det)^{-1}
    """
    meas = list(measured)
    if not meas:
        raise ValueError("measured subset must be non-empty")
    rest = [s for s in range(V.n_modes) if s not in set(meas)]
    if not rest:
        raise ValueError("measured subset must be a proper subset of the modes")
    mi = np.array([j for s in meas for j in (2 * s, 2 * s + 1)])
    ui = np.array([j for s in rest for j in (2 * s, 2 * s + 1)])
    m = V.matrix
    v_aa = m[np.ix_(mi, mi)]
    v_ba = m[np.ix_(ui, mi)]
    v_bb = m[np.ix_(ui, ui)]
    v_det = np.zeros_like(v_aa)
    for i in range(len(meas)):
        v_det[2 * i, 2 * i] = 1.0 / (2.0 * omega)
        v_det[2 * i + 1, 2 * i + 1] = omega / 2.0
    cho = cho_factor(v_aa + v_det)
    gain = cho_solve(cho, v_ba.T).T
    cond = v_bb - gain @ v_ba.T
    return GeneralDyneUpdate(conditional_covariance=CovarianceMatrix(cond), gain=gain)


def monte_carlo_energy(
    params: ChainParams,
    spec: MeasurementSpec,
    target_site: int,
    plan: DisplacementPlan,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Sampled mean and standard error of the target-site energy under a plan.

    Per sample: draw an outcome (X, P), form the conditional means of the
    target and its neighbors through the general-dyne gain, shift the
    target means by (phi . X, theta . P), and evaluate the target energy

        (1/2) <p_B^2> + (1/2) <q_B^2> - (alpha/2) <q_B (q_{B-1} + q_{B+1})>

    minus its ground-state value, counting the target's bonds in full (a
    displacement at B changes the chain energy only through these terms,
    so the sample mean of this quantity is exactly the displacement
    energy that the analytic quadratic form minimizes).
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    if plan.theta.size != len(spec.measured_sites):
        raise ValueError("plan length does not match the measured group")
    corr = build_correlations(params)
    alpha = params.alpha
    rest = unmeasured_sites(params, spec)
    if target_site not in rest:
        raise ValueError(f"target site {target_site} is not unmeasured")
    pos = {s: i for i, s in enumerate(rest)}
    upd = general_dyne_update(ground_covariance(params), spec.measured_sites, spec.omega)
    cond = upd.conditional_covariance.matrix

    b = pos[target_site]
    var_q = cond[2 * b, 2 * b]
    var_p = cond[2 * b + 1, 2 * b + 1]
    neighbors = [(target_site - 1) % params.n_sites, (target_site + 1) % params.n_sites]

    xs, ps = sample_outcomes(outcome_distribution(params, spec), seed, n_samples)
    z = np.empty((n_samples, 2 * len(spec.measured_sites)))
    z[:, 0::2] = xs
    z[:, 1::2] = ps
    mean_q_b = z @ upd.gain[2 * b] + xs @ plan.phi
    mean_p_b = z @ upd.gain[2 * b + 1] + ps @ plan.theta

    energy = 0.5 * (var_p + mean_p_b**2) + 0.5 * (var_q + mean_q_b**2)
    for s in neighbors:
        if s in pos:
            j = pos[s]
            mean_q_s = z @ upd.gain[2 * j]
            energy -= (alpha / 2.0) * (cond[2 * b, 2 * j] + mean_q_b * mean_q_s)
        else:
            # Measured neighbor: its post-measurement mean is the outcome
            # itself and it carries no covariance with the target.
            col = spec.measured_sites.index(s)
            energy -= (alpha / 2.0) * mean_q_b * xs[:, col]
    ground_value = 0.5 * (corr.h[0] + corr.g[0]) - alpha * corr.g[1]
    energy -= ground_value
    return float(energy.mean()), float(energy.std(ddof=1) / np.sqrt(n_samples))


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


def _two_mode_hamiltonian(alpha: float, cutoff: int) -> np.ndarray:
    # Two sites on a ring of two: both bonds join the same pair, so the
    # coupling is -alpha q0 q1 in total.
    number = np.diag(np.arange(cutoff) + 0.5)
    eye = np.eye(cutoff)
    q = _position_operator(cutoff)
    return np.kron(number, eye) + np.kron(eye, number) - alpha * np.kron(q, q)


def fock_ground_state(alpha: float, cutoff: int = 25) -> FockState:
    """Exact ground state of two coupled oscillators in a truncated number basis.

    Raises NumericsError when the truncation is too tight, i.e. when the
    top number level of either mode holds more than 1e-6 population.
    """
    if cutoff < 10:
        raise ValueError(f"cutoff must be >= 10, got {cutoff}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    h = _two_mode_hamiltonian(alpha, cutoff)
    _, vec = eigh(h, subset_by_index=[0, 0])
    psi = vec[:, 0]
    psi = psi * np.sign(psi[np.argmax(np.abs(psi))])
    amp = psi.reshape(cutoff, cutoff)
    top = max(np.sum(amp[-1, :] ** 2), np.sum(amp[:, -1] ** 2))
    if top > TOP_LEVEL_POPULATION_TOL:
        raise NumericsError(f"top-level population {top:.3e} exceeds 1e-6; raise the cutoff")
    return FockState(cutoff=cutoff, amplitudes=amp)


def fock_energy(state: FockState, alpha: float) -> float:
    """Variational energy of a two-mode state under the coupled-pair Hamiltonian."""
    h = _two_mode_hamiltonian(alpha, state.cutoff)
    psi = state.amplitudes.reshape(-1)
    return float(np.real(np.conj(psi) @ h @ psi))


def fock_position_correlator(state: FockState) -> float:
    """<q0 q1> evaluated directly in the number basis."""
    q = _position_operator(state.cutoff)
    amp = state.amplitudes
    return float(np.real(np.einsum("ij,ik,jl,kl->", np.conj(amp), q, q, amp)))


def fock_log_negativity(state: FockState) -> float:
    """log2 of the trace norm of the density matrix partially transposed on mode 1."""
    amp = state.amplitudes
    rho = np.einsum("ij,kl->ijkl", amp, np.conj(amp))
    c = state.cutoff
    rho_pt = rho.transpose(0, 3, 2, 1).reshape(c * c, c * c)
    eigenvalues = np.linalg.eigvalsh((rho_pt + rho_pt.conj().T) / 2)
    return float(np.log2(np.sum(np.abs(eigenvalues))))


def two_mode_ground_covariance(alpha: float) -> CovarianceMatrix:
    """Gaussian description of the coupled pair, for cross-checks against the Fock route."""
    g, h = correlation_vectors(2, alpha)
    dist = np.array([[0, 1], [1, 0]])
    return CovarianceMatrix(g[dist], h[dist])
