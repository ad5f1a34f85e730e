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
        for s in self.measured_sites:
            if s != int(s):
                raise ValueError(f"measured site {s} is not an integer")
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
    _check_sites(params, spec)
    measured = set(spec.measured_sites)
    return tuple(s for s in range(params.n_sites) if s not in measured)


def _check_sites(params: ChainParams, spec: MeasurementSpec) -> None:
    """Raise ValueError unless every measured site lies in [0, N) and one site stays unmeasured.

    O(|A|): the sites of a MeasurementSpec are distinct, so once each lies
    in range, some site stays unmeasured exactly when |A| < N.
    """
    for s in set(spec.measured_sites):
        if not 0 <= s < params.n_sites:
            raise ValueError(f"measured site {s} out of range for N={params.n_sites}")
    if len(spec.measured_sites) >= params.n_sites:
        raise ValueError("at least one site must stay unmeasured")


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
    _check_sites(params, spec)
    c_block, l_block = correlation_submatrices(params, meas, meas)
    eye = np.eye(len(meas))
    return OutcomeDistribution(
        x_covariance=c_block + eye / (2.0 * params.omega),
        p_covariance=l_block + (params.omega / 2.0) * eye,
    )


def sample_outcomes(dist: OutcomeDistribution, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw outcome vectors; rows of the returned (count, |A|) arrays pair up as (X, P).

    Deterministic for a given seed: standard normals are multiplied by the
    Cholesky factors of the two covariances, X stream first.  The two
    arrays are copied from the blocks of _outcome_blocks.  The Monte Carlo
    estimator reads that walk directly instead, so it holds neither half
    whole, and it conditions only the target's neighborhood.  The
    generator's stream runs on across blocks, and each block meets the
    same BLAS product as the whole array would, so the stream and the bits
    are those of the one-shot standard_normal((count, |A|)) @ cholesky.T.
    """
    blocks = _outcome_blocks(dist, seed, count)
    xs = np.empty((count, dist.x_covariance.shape[0]))
    ps = np.empty_like(xs)
    for start, stop, x, p in blocks:
        xs[start:stop] = x
        ps[start:stop] = p
    return xs, ps


def _outcome_blocks(dist: OutcomeDistribution, seed: int, count: int):
    """The draw of sample_outcomes, one block of rows at a time: yields (start, stop, x, p).

    x and p hold the X and P rows start:stop of the draw (see _row_blocks)
    in buffers that the next block overwrites, so neither half is held
    whole.  Two generators run on the one stream of the seed: the P
    cursor first skips the count * |A| normals that X takes, block by
    block into the reused normals buffer, and then each block draws its X
    rows on the X cursor and its P rows on the P cursor.  The Monte Carlo
    estimator reads these blocks with the gains of the target's
    neighborhood alone, so its working set is one block.  Checks count at
    the call, not at the first block.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    blocks = _row_blocks(count)
    normals = np.empty((max(stop - start for start, stop in blocks), dist.x_covariance.shape[0]))
    x_factor, p_factor = (np.linalg.cholesky(c).T for c in (dist.x_covariance, dist.p_covariance))

    def walk():
        x_rng, p_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for start, stop in blocks:
            p_rng.standard_normal(out=normals[:stop - start])
        x, p = np.empty_like(normals), np.empty_like(normals)
        for start, stop in blocks:
            rows = stop - start
            # np.dot, not @: for one measured site matmul takes a slow (rows, 1) x (1, 1) loop.
            np.dot(x_rng.standard_normal(out=normals[:rows]), x_factor, out=x[:rows])
            np.dot(p_rng.standard_normal(out=normals[:rows]), p_factor, out=p[:rows])
            yield start, stop, x[:rows], p[:rows]

    return walk()


def _row_blocks(count: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of _BLOCK_ROWS rows covering count rows.

    A one-row remainder joins the block before it: numpy multiplies a lone
    row through gemv, whose bits can differ from gemm's for the same row.
    """
    stops = list(range(_BLOCK_ROWS, count, _BLOCK_ROWS))
    if stops and count - stops[-1] == 1:
        stops.pop()
    return list(zip([0] + stops, stops + [count]))
