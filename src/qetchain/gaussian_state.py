"""Covariance-matrix algebra for Gaussian states with uncorrelated q and p sectors.

Every state in this package (the chain's ground state, the state after a
coherent-state measurement, and their reductions and partial transposes)
has zero q-p cross-covariance.  A state is therefore carried as two real
symmetric n x n blocks, Q[j, k] = <q_j q_k> and P[j, k] = <p_j p_k>
(symmetrized second moments, zero means).  Physical states have every
symplectic eigenvalue >= 1/2 (vacuum units, hbar = 1).

The symplectic eigenvalues are the square roots of the eigenvalues of the
symmetric matrix L^T P L, where Q = L L^T is the Cholesky factorization
(Audenaert, Eisert, Plenio and Werner, PRA 66, 042327 (2002)).  A partial
transpose flips the sign of the transposed modes' momenta: P -> D P D.

Entanglement bookkeeping follows the usual continuous-variable recipe:
logarithmic negativity from the partially transposed covariance matrix in
log base 2, von Neumann entropy in natural-log units.  The mixed bases are
deliberate and are kept throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
# A symplectic eigenvalue this far below 1/2 means the state is unphysical.
PHYSICALITY_TOL = 1e-6


class NumericsError(RuntimeError):
    """A linear-algebra result fell outside its validity tolerance."""


@dataclass(frozen=True, init=False)
class CovarianceMatrix:
    """Position block q and momentum block p of a state without q-p correlations.

    CovarianceMatrix(q, p) takes the two symmetric n x n blocks.  Both
    blocks are read-only, so one state can be shared across threads.
    """

    q: np.ndarray
    p: np.ndarray

    def __init__(self, q, p):
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or p.shape != q.shape:
            raise ValueError(f"q and p blocks must be square of equal size, got {q.shape} and {p.shape}")
        q, p = _symmetrized(q), _symmetrized(p)
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n_modes(self) -> int:
        return self.q.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The read-only 2n x 2n matrix in interleaved (q0, p0, q1, p1, ...) ordering.

        An output only: the benchmark tracer reads its order for max_dim, and
        tests compare against it.
        """
        m = np.zeros((2 * self.n_modes, 2 * self.n_modes))
        m[0::2, 0::2] = self.q
        m[1::2, 1::2] = self.p
        m.flags.writeable = False
        return m


def _symmetrized(block: np.ndarray) -> np.ndarray:
    """(B + B^T) / 2 of a block or a (..., n, n) stack of blocks, each symmetric within 1e-12."""
    block_t = np.swapaxes(block, -1, -2)
    if np.abs(block - block_t).max() > SYMMETRY_TOL:
        raise ValueError("covariance matrix is not symmetric within 1e-12")
    return (block + block_t) / 2


def _mode_indices(sites, n_modes: int) -> list[int]:
    sites = list(sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate mode indices in {sites}")
    for s in sites:
        if not 0 <= s < n_modes:
            raise ValueError(f"mode index {s} out of range for {n_modes} modes")
    return sites


def symplectic_eigenvalues(V: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    Square roots of the eigenvalues of L^T P L with Q = L L^T.  Q must be
    positive definite (LinAlgError otherwise); a negative eigenvalue of
    L^T P L means P is indefinite and raises NumericsError.
    """
    chol = np.linalg.cholesky(V.q)
    nu2 = np.linalg.eigvalsh(chol.T @ V.p @ chol)
    if nu2[0] < 0.0:
        raise NumericsError(f"eigenvalue {nu2[0]:.3e} of L^T P L is negative: momentum block is indefinite")
    return np.sqrt(nu2)


def reduce(V: CovarianceMatrix, sites) -> CovarianceMatrix:
    """Principal blocks on the given modes, kept in the given order."""
    sites = _mode_indices(sites, V.n_modes)
    if not sites:
        raise ValueError("cannot reduce to an empty mode subset")
    idx = np.ix_(sites, sites)
    return CovarianceMatrix(V.q[idx], V.p[idx])


def partial_transpose(V: CovarianceMatrix, b_sites) -> CovarianceMatrix:
    """Flip the sign of the momenta of the given modes: P -> D P D.

    Phase-space transcription of transposing party B; an involution.
    """
    flip = np.ones(V.n_modes)
    flip[_mode_indices(b_sites, V.n_modes)] = -1.0
    return CovarianceMatrix(V.q, flip[:, None] * V.p * flip[None, :])


def log_negativity(V: CovarianceMatrix, b_sites) -> float:
    """Logarithmic negativity -sum_n min(0, log2(2 nu_n)) of the partial transpose.

    Zero whenever the partially transposed spectrum stays at or above 1/2,
    which is the separability test for this bipartition.
    """
    nu = symplectic_eigenvalues(partial_transpose(V, b_sites))
    return float(-np.sum(np.minimum(0.0, np.log2(2.0 * nu)))) + 0.0  # avoid -0.0


def _entropy_terms(nu: np.ndarray) -> np.ndarray:
    # (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2), with the removable
    # singularity at x = 1/2 evaluated as 0.
    x = np.maximum(nu, 0.5)
    upper = (x + 0.5) * np.log(x + 0.5)
    t = x - 0.5
    lower = np.where(t < 1e-12, 0.0, t * np.log(np.where(t < 1e-12, 1.0, t)))
    return upper - lower


def von_neumann_entropy(V: CovarianceMatrix) -> float:
    """Entropy (natural-log units) of a Gaussian state from its symplectic spectrum."""
    nu = symplectic_eigenvalues(V)
    if nu.min() < 0.5 - PHYSICALITY_TOL:
        raise NumericsError(f"symplectic eigenvalue {nu.min():.6g} < 1/2: unphysical state")
    return float(np.sum(_entropy_terms(nu)))


def mutual_information(V: CovarianceMatrix, a_sites, b_sites) -> float:
    """S(A) + S(B) - S(A+B) for disjoint mode subsets A and B."""
    a_sites, b_sites = list(a_sites), list(b_sites)
    if set(a_sites) & set(b_sites):
        raise ValueError(f"subsets overlap: {sorted(set(a_sites) & set(b_sites))}")
    s_a = von_neumann_entropy(reduce(V, a_sites))
    s_b = von_neumann_entropy(reduce(V, b_sites))
    s_ab = von_neumann_entropy(reduce(V, a_sites + b_sites))
    return s_a + s_b - s_ab
