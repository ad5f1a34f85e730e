"""Energy extraction by outcome-conditioned displacement of a distant site.

After the group A is measured, a displacement of the target site B with
outcome-weighted amplitudes (theta . P, phi . X) changes the expected
energy localized at B by the quadratic form

    E(theta, phi) = (1/2) theta^T T_p theta + J_p . theta
                  + (1/2) phi^T  T_q phi  + J_q . phi

where T_p, T_q add the detector noise (omega/2, 1/(2 omega)) to the
measured-site correlation blocks and J_p, J_q couple the measured sites to
the target through the ground-state correlators (J_q carries the
-(alpha/2) combination with the target's two neighbors).  The unique
minimizer theta = -T_p^{-1} J_p, phi = -T_q^{-1} J_q extracts

    E_opt = -(1/2) J_p^T T_p^{-1} J_p - (1/2) J_q^T T_q^{-1} J_q <= 0,

strictly negative whenever either coupling vector is nonzero.

Two standard site layouts are provided: a single measured site against a
single target at separation d (run_setting1), and a measured block of
2 ell + 1 sites against the antipodal site with everything else grouped
alongside the measured block (run_setting2).  Neither the ground state nor
the post-measurement state depends on the target, so a run first builds
both (build_states) and then accounts for one target; a separation sweep
builds them once (setting1_states) and accounts per d (setting1_report).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .chain_model import ChainParams, build_correlations, ground_covariance
from .gaussian_state import CovarianceMatrix, log_negativity, mutual_information, reduce
from .povm_measurement import MeasurementSpec, post_measurement_covariance


@dataclass(frozen=True)
class ProtocolStates:
    """The chain before and after one measurement; shared by every target."""

    params: ChainParams
    spec: MeasurementSpec
    ground: CovarianceMatrix
    measured: CovarianceMatrix


@dataclass(frozen=True)
class QetQuadratics:
    """SPD forms and coupling vectors of the displacement energy."""

    t_p: np.ndarray
    t_q: np.ndarray
    j_p: np.ndarray
    j_q: np.ndarray


@dataclass(frozen=True)
class DisplacementPlan:
    """Outcome weights: momentum shift theta . P and position shift phi . X."""

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        if theta.shape != phi.shape or theta.ndim != 1:
            raise ValueError("theta and phi must be vectors of equal length")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
            raise ValueError("plan entries must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class QetReport:
    """One full protocol run: extracted energy plus correlation accounting."""

    optimized_energy: float
    plan: DisplacementPlan
    e_n_before: float
    e_n_after: float
    s_m_before: float
    s_m_after: float

    @property
    def delta_log_negativity(self) -> float:
        return self.e_n_before - self.e_n_after

    @property
    def delta_mutual_information(self) -> float:
        return self.s_m_before - self.s_m_after


def build_quadratics(params: ChainParams, spec: MeasurementSpec, target_site: int) -> QetQuadratics:
    """Assemble T_p, T_q, J_p, J_q for a target outside the measured group."""
    if target_site in spec.measured_sites:
        raise ValueError(f"target site {target_site} is inside the measured group")
    if not 0 <= target_site < params.n_sites:
        raise ValueError(f"target site {target_site} out of range for N={params.n_sites}")
    corr = build_correlations(params)
    n = params.n_sites
    meas = np.asarray(spec.measured_sites, dtype=int)
    dist = (meas[:, None] - meas[None, :]) % n
    eye = np.eye(meas.size)
    t_p = corr.h[dist] + (spec.omega / 2.0) * eye
    t_q = corr.g[dist] + eye / (2.0 * spec.omega)
    j_p = corr.h[(meas - target_site) % n]
    left, right = (target_site - 1) % n, (target_site + 1) % n
    j_q = corr.g[(meas - target_site) % n] - (params.alpha / 2.0) * (
        corr.g[(meas - left) % n] + corr.g[(meas - right) % n]
    )
    return QetQuadratics(t_p=t_p, t_q=t_q, j_p=j_p, j_q=j_q)


def optimal_plan(quadratics: QetQuadratics) -> DisplacementPlan:
    """The unique minimizer of the displacement energy form."""
    theta = -cho_solve(cho_factor(quadratics.t_p), quadratics.j_p)
    phi = -cho_solve(cho_factor(quadratics.t_q), quadratics.j_q)
    return DisplacementPlan(theta=theta, phi=phi)


def optimized_energy(quadratics: QetQuadratics) -> float:
    """Minimum of the displacement energy: -(1/2) J^T T^{-1} J summed over both channels."""
    p_part = quadratics.j_p @ cho_solve(cho_factor(quadratics.t_p), quadratics.j_p)
    q_part = quadratics.j_q @ cho_solve(cho_factor(quadratics.t_q), quadratics.j_q)
    return float(-0.5 * (p_part + q_part))


def plan_energy(quadratics: QetQuadratics, plan: DisplacementPlan) -> float:
    """Displacement energy of an arbitrary plan; independent check of optimized_energy."""
    theta, phi = plan.theta, plan.phi
    return float(
        0.5 * theta @ quadratics.t_p @ theta
        + quadratics.j_p @ theta
        + 0.5 * phi @ quadratics.t_q @ phi
        + quadratics.j_q @ phi
    )


def build_states(params: ChainParams, spec: MeasurementSpec) -> ProtocolStates:
    """Ground covariance and post-measurement covariance of the whole chain."""
    return ProtocolStates(
        params=params,
        spec=spec,
        ground=ground_covariance(params),
        measured=post_measurement_covariance(params, spec).covariance,
    )


def _report(states: ProtocolStates, target, a_sites, b_sites, reduce_pair) -> QetReport:
    v0, vm = states.ground, states.measured
    if reduce_pair:
        # Negativity of the (A : B) pair needs the two-party reduced state;
        # after reduction B is the last kept mode.
        pair = list(a_sites) + list(b_sites)
        b_local = [len(pair) - 1]
        e_n_before = log_negativity(reduce(v0, pair), b_local)
        e_n_after = log_negativity(reduce(vm, pair), b_local)
    else:
        e_n_before = log_negativity(v0, b_sites)
        e_n_after = log_negativity(vm, b_sites)
    s_m_before = mutual_information(v0, a_sites, b_sites)
    s_m_after = mutual_information(vm, a_sites, b_sites)
    quad = build_quadratics(states.params, states.spec, target)
    return QetReport(
        optimized_energy=optimized_energy(quad),
        plan=optimal_plan(quad),
        e_n_before=e_n_before,
        e_n_after=e_n_after,
        s_m_before=s_m_before,
        s_m_after=s_m_after,
    )


def setting1_states(params: ChainParams) -> ProtocolStates:
    """States of setting 1: the single site 0 measured; independent of d."""
    return build_states(params, MeasurementSpec(measured_sites=(0,), omega=params.omega))


def setting1_report(states: ProtocolStates, d: int) -> QetReport:
    """Setting-1 accounting for the target at d + 1, from setting1_states."""
    if states.spec.measured_sites != (0,):
        raise ValueError(f"setting 1 measures site 0 alone, got {states.spec.measured_sites}")
    if d < 0:
        raise ValueError(f"separation d must be >= 0, got {d}")
    target = d + 1
    if target >= states.params.n_sites:
        raise ValueError(f"separation d={d} wraps past the ring size N={states.params.n_sites}")
    return _report(states, target, a_sites=[0], b_sites=[target], reduce_pair=True)


def run_setting1(params: ChainParams, d: int) -> QetReport:
    """Single measured site at 0, single target at d + 1.

    d counts the sites strictly between the pair, so d = 0 means nearest
    neighbors, the only separation at which the ground state holds
    two-site entanglement.
    """
    return setting1_report(setting1_states(params), d)


def run_setting2(params: ChainParams, ell: int) -> QetReport:
    """Measured block {0..2 ell}, target at the antipodal site N/2 + ell.

    The bipartition puts the single target site on one side and the other
    N - 1 sites (measured block included) on the other.  ell runs from 1 to
    N/2 - 2, which keeps the target and both its neighbors unmeasured.
    """
    half = params.n_sites // 2
    if not 1 <= ell <= half - 2:
        raise ValueError(f"ell must lie in [1, N/2 - 2] = [1, {half - 2}], got {ell}")
    target = half + ell
    spec = MeasurementSpec(measured_sites=tuple(range(2 * ell + 1)), omega=params.omega)
    a_sites = [s for s in range(params.n_sites) if s != target]
    return _report(build_states(params, spec), target, a_sites=a_sites, b_sites=[target], reduce_pair=False)
