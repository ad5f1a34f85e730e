"""Ground state of the periodic harmonic chain.

The chain Hamiltonian is

    H = (1/2) sum_j (p_j^2 + q_j^2 - alpha q_j q_{j-1}),   j = 0..N-1 (periodic)

with even N and coupling 0 <= alpha < 1; alpha -> 1 is the critical
(massless) limit, regularized in practice by a small cutoff such as
alpha = 1 - 1e-7.  Normal modes have frequencies
omega_k = sqrt(1 - alpha cos(2 pi k / N)), and the translation-invariant
ground-state correlators

    g_r = <q_i q_{i+r}> = (1/N) sum_k cos(r theta_k) / (2 omega_k)
    h_r = <p_i p_{i+r}> = (1/N) sum_k (omega_k / 2) cos(r theta_k)

assemble into circulant matrices G and H with G H = (1/4) I.  Both sums are
the real parts of one discrete Fourier transform, so the vectors cost
O(N log N) time and O(N) memory; no N x N matrix is built unless a caller
asks for the full ground covariance.  Since (1 - alpha cos theta_k) /
(2 omega_k) = omega_k / 2, the correlators obey the virial identity
h_0 = g_0 - alpha g_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian_state import CovarianceMatrix


@dataclass(frozen=True)
class ChainParams:
    """Chain size, coupling, and the measurement oscillator frequency."""

    n_sites: int
    alpha: float
    omega: float = 1.0

    def __post_init__(self):
        if self.n_sites < 4 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites must be even and >= 4, got {self.n_sites}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0.0 < self.omega < np.inf:  # NaN fails both comparisons
            raise ValueError(f"omega must be finite and positive, got {self.omega}")


def mode_frequencies(n_sites: int, alpha: float) -> np.ndarray:
    """All N normal-mode frequencies sqrt(1 - alpha cos(2 pi k / N))."""
    theta = 2.0 * np.pi * np.arange(n_sites) / n_sites
    return np.sqrt(1.0 - alpha * np.cos(theta))


# Sweeps ask for the same few (n_sites, alpha) pairs over and over; the
# results are small (2N floats) and read-only, so sharing them is safe.
@lru_cache(maxsize=16)
def correlation_vectors(n_sites: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Correlator vectors (g, h) for any even ring size >= 2, as read-only arrays.

    One real FFT of the two spectra 1/(2 omega_k) and omega_k / 2 gives
    g_r and h_r for r = 0..N/2 in O(N log N) time and O(N) memory; the rest
    mirror them, so g[r] == g[N - r] exactly.  Memoised per
    (n_sites, alpha).  Accepts n_sites = 2 so that exact two-oscillator
    cross-checks can reuse the same sums that ChainParams-based code does.
    """
    if n_sites < 2 or n_sites % 2 != 0:
        raise ValueError(f"ring size must be even and >= 2, got {n_sites}")
    w = mode_frequencies(n_sites, alpha)
    half = np.fft.rfft(np.stack([1.0 / (2.0 * w), w / 2.0]), axis=-1).real / n_sites
    g, h = np.concatenate([half, half[:, -2:0:-1]], axis=-1)
    g.setflags(write=False)
    h.setflags(write=False)
    return g, h


def correlation_submatrices(params: ChainParams, row_sites, col_sites) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the position and momentum correlation matrices.

    Returns (G_block, H_block) with G_block[a, b] = g at the periodic
    separation of row_sites[a] and col_sites[b], and likewise for h.  Every
    site must lie in [0, N); none wraps.
    """
    n = params.n_sites
    rows = np.asarray(list(row_sites), dtype=int)
    cols = np.asarray(list(col_sites), dtype=int)
    sites = np.concatenate([rows, cols])
    outside = (sites < 0) | (sites >= n)
    if outside.any():
        raise ValueError(f"site index {sites[outside.argmax()]} out of range for N={n}")
    g, h = correlation_vectors(n, params.alpha)
    # g and h are periodic-symmetric, so the mod-N index difference suffices.
    dist = (rows[:, None] - cols[None, :]) % n
    return g[dist], h[dist]


def ground_covariance(params: ChainParams) -> CovarianceMatrix:
    """Full-chain ground-state covariance: position block G, momentum block H.

    The ground state is pure, so every symplectic eigenvalue equals 1/2.
    """
    sites = range(params.n_sites)
    return CovarianceMatrix(*correlation_submatrices(params, sites, sites))
