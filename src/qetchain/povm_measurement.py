"""Coherent-state measurement of a site group and its back-action.

Measuring a group A of sites with the coherent-state POVM of frequency
omega projects each measured site onto a coherent state (position variance
1/(2 omega), momentum variance omega/2) and leaves the remaining sites in
a pure Gaussian state whose momentum block is the Schur complement

    M = H_u - K^T (L + (omega/2) I)^{-1} K

of the ground-state momentum correlations (L: measured block, H_u:
unmeasured block, K: cross block).  The position block is (1/4) M^{-1},
so the unmeasured sector stays pure, and none of the second moments
depend on the measurement outcome.  The outcome pair (X, P) itself is
drawn from two independent zero-mean Gaussians with covariances
C + (1/(2 omega)) I and L + (omega/2) I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import ChainParams, correlation_submatrices
from .gaussian_state import CovarianceMatrix

# Rows per block of the Monte Carlo draw, and of the oracle's walk over it:
# a block of normals and the estimator's per-block vectors stay in L2.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class MeasurementSpec:
    """Sites hit by the coherent-state POVM; its oscillator frequency is ChainParams.omega."""

    measured_sites: tuple[int, ...]

    def __post_init__(self):
        sites = tuple(int(s) for s in self.measured_sites)
        if not sites:
            raise ValueError("measured_sites must be non-empty")
        if len(set(sites)) != len(sites):
            raise ValueError(f"measured_sites contains duplicates: {sites}")
        object.__setattr__(self, "measured_sites", sites)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Zero-mean Gaussian law of the measured (X, P) amplitude vectors."""

    x_covariance: np.ndarray
    p_covariance: np.ndarray


def unmeasured_sites(params: ChainParams, spec: MeasurementSpec) -> tuple[int, ...]:
    """Complement of the measured set, ascending; orders the rows of M."""
    measured = set(spec.measured_sites)
    for s in measured:
        if not 0 <= s < params.n_sites:
            raise ValueError(f"measured site {s} out of range for N={params.n_sites}")
    rest = tuple(s for s in range(params.n_sites) if s not in measured)
    if not rest:
        raise ValueError("at least one site must stay unmeasured")
    return rest


def build_m_matrix(params: ChainParams, spec: MeasurementSpec) -> np.ndarray:
    """Schur complement of the momentum correlations over the unmeasured sites.

    Symmetric positive definite of size N - |A|.  With C the Cholesky factor
    of L + (omega/2) I and Y = C^{-1} K, M = H_u - Y^T Y; the factorization
    raises LinAlgError if the inputs are not physical.
    """
    a = len(spec.measured_sites)
    sites = list(spec.measured_sites) + list(unmeasured_sites(params, spec))
    _, h = correlation_submatrices(params, sites, sites)  # [[L, K], [K^T, H_u]]
    return _schur_complement(h, a, params.omega)


def _schur_complement(h: np.ndarray, a: int, omega) -> np.ndarray:
    """M for a (..., n, n) stack of momentum blocks whose first a sites are measured.

    omega broadcasts over the stack, so one call conditions many grid
    points; each matrix meets the same LAPACK calls that a lone one would.
    """
    noise = (np.asarray(omega, dtype=float) / 2.0)[..., None, None] * np.eye(a)
    chol = np.linalg.cholesky(h[..., :a, :a] + noise)
    y = np.linalg.solve(chol, h[..., :a, a:])
    m = h[..., a:, a:] - np.swapaxes(y, -1, -2) @ y
    return (m + np.swapaxes(m, -1, -2)) / 2


def quarter_inverse(m: np.ndarray) -> np.ndarray:
    """(1/4) M^{-1}, symmetrized: the unmeasured sites' position block.

    M^{-1} = C^{-T} C^{-1} from the Cholesky factor C of M, which raises
    LinAlgError if M is not positive definite.  M may be a (..., n, n)
    stack, inverted matrix by matrix.
    """
    c_inv = np.linalg.inv(np.linalg.cholesky(m))
    m_inv = np.swapaxes(c_inv, -1, -2) @ c_inv
    return (m_inv + np.swapaxes(m_inv, -1, -2)) / 2 / 4.0


def post_measurement_covariance(params: ChainParams, spec: MeasurementSpec) -> CovarianceMatrix:
    """The whole chain's outcome-independent covariance after the measurement.

    Measured sites carry the coherent-state variances 1/(2 omega) and
    omega/2; the unmeasured sites carry (1/4) M^{-1} and M; every cross
    block between the two groups vanishes identically.
    """
    m = build_m_matrix(params, spec)
    n = params.n_sites
    q, p = np.zeros((n, n)), np.zeros((n, n))
    meas = list(spec.measured_sites)
    q[meas, meas] = 1.0 / (2.0 * params.omega)
    p[meas, meas] = params.omega / 2.0
    rest = unmeasured_sites(params, spec)
    block = np.ix_(rest, rest)
    q[block] = quarter_inverse(m)
    p[block] = m
    return CovarianceMatrix(q, p)


def outcome_distribution(params: ChainParams, spec: MeasurementSpec) -> OutcomeDistribution:
    """Gaussian law of the measured amplitudes: ground correlations plus detector noise."""
    meas = list(spec.measured_sites)
    unmeasured_sites(params, spec)  # validates the site range
    c_block, l_block = correlation_submatrices(params, meas, meas)
    eye = np.eye(len(meas))
    return OutcomeDistribution(
        x_covariance=c_block + eye / (2.0 * params.omega),
        p_covariance=l_block + (params.omega / 2.0) * eye,
    )


def sample_outcomes(dist: OutcomeDistribution, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw outcome vectors; rows of the returned (count, |A|) arrays pair up as (X, P).

    Deterministic for a given seed: standard normals are multiplied by the
    Cholesky factors of the two covariances, X stream first.  Each array is
    filled block by block (see _row_blocks) from one reused block of
    normals.  The generator's stream runs on across blocks, and each block
    meets the same BLAS product as the whole array would, so the stream and
    the bits are those of the one-shot standard_normal((count, |A|)) @
    cholesky.T.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    m = dist.x_covariance.shape[0]
    blocks = _row_blocks(count)
    normals = np.empty((max(stop - start for start, stop in blocks), m))
    draw = []
    for covariance in (dist.x_covariance, dist.p_covariance):
        factor = np.linalg.cholesky(covariance).T
        out = np.empty((count, m))
        for start, stop in blocks:
            z = rng.standard_normal(out=normals[:stop - start])
            # np.dot, not @: for one measured site matmul takes a slow (rows, 1) x (1, 1) loop.
            np.dot(z, factor, out=out[start:stop])
        draw.append(out)
    return tuple(draw)


def _row_blocks(count: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of _BLOCK_ROWS rows covering count rows.

    A one-row remainder joins the block before it: numpy multiplies a lone
    row through gemv, whose bits can differ from gemm's for the same row.
    """
    stops = list(range(_BLOCK_ROWS, count, _BLOCK_ROWS))
    if stops and count - stops[-1] == 1:
        stops.pop()
    return list(zip([0] + stops, stops + [count]))
