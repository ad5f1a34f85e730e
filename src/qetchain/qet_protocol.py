"""Energy extraction by outcome-conditioned displacement of a distant site.

After the group A is measured, a displacement of the target site B with
outcome-weighted amplitudes (theta . P, phi . X) changes the expected
energy localized at B by the quadratic form

    E(theta, phi) = (1/2) theta^T T_p theta + J_p . theta
                  + (1/2) phi^T  T_q phi  + J_q . phi

where T_p, T_q add the detector noise (omega/2, 1/(2 omega)) to the
measured-site correlation blocks and J_p, J_q couple the measured sites to
the target through the ground-state correlators.  J_q is the combination
g_r - (alpha/2)(g_{r-1} + g_{r+1}) with the target's two neighbors, which
equals h_r on the ring because (1 - alpha cos theta_k) / (2 omega_k) =
omega_k / 2; so J_q = J_p.  The unique minimizer theta = -T_p^{-1} J_p,
phi = -T_q^{-1} J_q extracts

    E_opt = -(1/2) J_p^T T_p^{-1} J_p - (1/2) J_q^T T_q^{-1} J_q <= 0,

strictly negative whenever either coupling vector is nonzero.

Two standard site layouts are provided, and each row is a closed form in a
few correlators; no N x N state is built.

* run_setting1 measures site 0 and targets site r = d + 1, so every form
  above is 1 x 1 and each row is a scalar formula in g_0, h_0, g_r, h_r:
  theta = -h_r / (h_0 + omega/2), phi = -h_r / (g_0 + 1/(2 omega)) and
  E_opt = -(1/2) h_r^2 (1/(h_0 + omega/2) + 1/(g_0 + 1/(2 omega))).  The
  ground pair is mirror-symmetric, so its sum and difference modes
  decouple, with symplectic eigenvalues nu_pm^2 = (g_0 +- g_r)(h_0 +- h_r),
  and (g_0 +- g_r)(h_0 -+ h_r) after the partial transpose.  After the
  measurement site 0 is a coherent state in product with the rest, so the
  pair's negativity and mutual information are exactly zero.
  setting1_columns evaluates these formulas for a whole range of d as numpy
  columns over the slices g[1 + d], h[1 + d]; run_setting1 is its
  one-element slice.
* run_setting2 measures the block {0..2 ell} and splits the pure chain
  into the antipodal target against the other N - 1 sites.  Such a split
  is locally two-mode squeezed (Botero and Reznik, PRA 67, 052311 (2003)):
  with nu^2 = Q_bb P_bb at the target, E_N = arccosh(2 nu) / ln 2 and
  S_M = 2 S(nu).  Before the measurement nu_0^2 = g_0 h_0; after it
  nu_1^2 = (g_0 - dq)(h_0 - dp) with dp = J^T T_p^{-1} J and
  dq = g_bA^T T_q^{-1} g_Ab.  The block is contiguous, so T_p and T_q are
  symmetric Toeplitz, and one row is two Levinson solves in O(ell^2).
* setting2_forms gives the same three quadratic forms for every ell = 1..hi
  from one bordered recursion.  Shifted to {-ell..ell}, the block puts the
  target at N/2, so each system is centrosymmetric with a palindromic
  right-hand side (g[r] == g[N - r]), and ell -> ell + 1 adds one row and
  one column at each end.  With m = 2 ell + 1, border u = (t_1..t_m), J the
  reversal and y = T_m^{-1} u from Durbin's recursion (two steps per ell;
  Golub and Van Loan, Matrix Computations, ch. 4), the solution of the
  bordered system with new end entries c is [z, x - z (y + J y), z], where
  z = (c - u^T x) / (beta_m (1 + a_m)), Durbin's error and reflection
  coefficient.  T_m is symmetric and b palindromic, so u^T x = y^T b and
  b^T J y = y^T b, and the form grows by a non-negative increment:
  b'^T x' = b^T x + 2 (c - y^T b)^2 / (beta_m (1 + a_m)).  So only
  Durbin's state is kept, no solution vector is formed, the forms never
  decrease with ell, and each step costs O(ell), a whole sweep O(N^2) time
  and O(N) memory.  Durbin's recursion is only weakly stable (Cybenko,
  SIAM J. Sci. Stat. Comput. 1, 303 (1980)); the tests hold it to
  run_setting2 near the critical point.

The entanglement consumed in setting 2 bounds the energy extracted:
delta E_N >= c |E_opt|, with x = 2 nu_0 and

    c = 2 arcsinh(1/2) / ((1 + omega sqrt(1 + alpha)) x sqrt(x^2 - 1) h_0 ln 2),

in three steps on the quantities setting2_terms reads.

1. jq <= omega sqrt(1 + alpha) dp.  H and G have eigenvalues omega_k / 2
   and 1 / (2 omega_k), so by Cauchy interlacing T_p <= (sqrt(1 + alpha)
   + omega) / 2 and T_q >= (1 / sqrt(1 + alpha) + 1 / omega) / 2, and
   jq / dp <= lambda_max(T_p) / lambda_min(T_q) = omega sqrt(1 + alpha).
2. shrink = 4 (g_0 dp + h_0 dq - dq dp) >= dp / h_0.  The shrink is at
   least 4 dp (g_0 - dq), and the target stays physical after the
   measurement, (g_0 - dq)(h_0 - dp) >= 1/4, so g_0 - dq >= 1 / (4 h_0).
3. delta E_N >= 2 arcsinh(1/2) shrink / (2 x sqrt(x^2 - 1) ln 2).  As
   y <= x, the denominator of setting2_terms is at most 2 x sqrt(x^2 - 1),
   so the arcsinh argument is at least z = shrink / (2 x sqrt(x^2 - 1)),
   and z <= sqrt(x^2 - 1) / (2 x) < 1/2 because shrink <= x^2 - 1.
   arcsinh is concave on z >= 0, so arcsinh z >= 2 arcsinh(1/2) z there.

With |E_opt| = (dp + jq) / 2 <= (1 + omega sqrt(1 + alpha)) h_0 shrink / 2
the steps combine into the bound.  Far from the critical point at small
omega it is nearly tight (alpha = 0.3, omega = 0.01, N = 100: the largest
|E_opt| / delta E_N is 0.0377 against 1 / c = 0.0398); near the critical
point and at large omega it is loose.

The full-state route (ground_covariance, post_measurement_covariance,
log_negativity, mutual_information) and the dense quadratic forms
(build_quadratics, optimal_plan, optimized_energy) stay in the package as
the oracles these closed forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chain_model import ChainParams, correlation_submatrices, correlation_vectors
from .gaussian_state import PHYSICALITY_TOL, NumericsError, _entropy_terms
from .povm_measurement import MeasurementSpec


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
    """One full protocol run: extracted energy plus correlation accounting.

    delta_log_negativity is stored rather than derived, so that a layout
    can form it without subtracting two nearly equal numbers.
    """

    optimized_energy: float
    plan: DisplacementPlan
    e_n_before: float
    e_n_after: float
    s_m_before: float
    s_m_after: float
    delta_log_negativity: float

    @property
    def delta_mutual_information(self) -> float:
        return self.s_m_before - self.s_m_after


def build_quadratics(params: ChainParams, spec: MeasurementSpec, target_site: int) -> QetQuadratics:
    """Assemble T_p, T_q, J_p, J_q for a target outside the measured group."""
    if target_site in spec.measured_sites:
        raise ValueError(f"target site {target_site} is inside the measured group")
    meas = list(spec.measured_sites)
    g, h = correlation_submatrices(params, meas, meas + [target_site])  # columns: group, then target
    eye = np.eye(len(meas))
    t_p = h[:, :-1] + (params.omega / 2.0) * eye
    t_q = g[:, :-1] + eye / (2.0 * params.omega)
    j = h[:, -1]
    return QetQuadratics(t_p=t_p, t_q=t_q, j_p=j, j_q=j)


def optimal_plan(quadratics: QetQuadratics) -> DisplacementPlan:
    """The unique minimizer of the displacement energy form."""
    from scipy.linalg import cho_factor, cho_solve

    theta = -cho_solve(cho_factor(quadratics.t_p), quadratics.j_p)
    phi = -cho_solve(cho_factor(quadratics.t_q), quadratics.j_q)
    return DisplacementPlan(theta=theta, phi=phi)


def optimized_energy(quadratics: QetQuadratics) -> float:
    """Minimum of the displacement energy: -(1/2) J^T T^{-1} J summed over both channels."""
    from scipy.linalg import cho_factor, cho_solve

    p_part = quadratics.j_p @ cho_solve(cho_factor(quadratics.t_p), quadratics.j_p)
    q_part = quadratics.j_q @ cho_solve(cho_factor(quadratics.t_q), quadratics.j_q)
    return float(-0.5 * (p_part + q_part))


def setting1_columns(params: ChainParams, d_max: int, d_min: int = 0) -> tuple[np.ndarray, ...]:
    """(E_opt, theta, phi, E_N_before, S_M_before) of run_setting1 for d = d_min..d_max, as columns.

    One correlator lookup and one numpy evaluation per column serve every
    separation; g_0, h_0, t_p, t_q and S(nu_0) are formed once.  Raises
    NumericsError naming the first d with a non-finite cell, as when a
    pair's nu^2 product is negative.
    """
    if d_min < 0:
        raise ValueError(f"separation d must be >= 0, got {d_min}")
    if d_max + 1 >= params.n_sites:
        raise ValueError(f"separation d={d_max} wraps past the ring size N={params.n_sites}")
    g, h = correlation_vectors(params.n_sites, params.alpha)
    g_0, h_0, g_r, h_r = g[0], h[0], g[d_min + 1:d_max + 2], h[d_min + 1:d_max + 2]
    t_p, t_q = h_0 + params.omega / 2.0, g_0 + 1.0 / (2.0 * params.omega)
    energy = -0.5 * (h_r * h_r / t_p + h_r * h_r / t_q)
    with np.errstate(invalid="ignore", divide="ignore"):  # a bad cell is caught below as non-finite
        nu_transposed = np.sqrt([(g_0 + g_r) * (h_0 - h_r), (g_0 - g_r) * (h_0 + h_r)])
        e_n_before = np.sum(np.maximum(0.0, -np.log2(2.0 * nu_transposed)), axis=0)
        s_plus, s_minus = _entropy_terms(np.sqrt([(g_0 + g_r) * (h_0 + h_r), (g_0 - g_r) * (h_0 - h_r)]))
    s_m_before = 2.0 * _entropy_terms(np.sqrt(g_0 * h_0)) - (s_plus + s_minus)
    bad = np.flatnonzero(~np.isfinite(energy + e_n_before + s_m_before))
    if bad.size:
        i = bad[0]
        raise NumericsError(f"d={d_min + i}: non-finite cell: E_B_opt {energy[i]:.6g}, "
                            f"E_N_before {e_n_before[i]:.6g}, S_M_before {s_m_before[i]:.6g}")
    return energy, -h_r / t_p, -h_r / t_q, e_n_before, s_m_before


def run_setting1(params: ChainParams, d: int) -> QetReport:
    """Single measured site at 0, single target at d + 1: the d row of setting1_columns.

    d counts the sites strictly between the pair, so d = 0 means nearest
    neighbors, the only separation at which the ground state holds
    two-site entanglement.
    """
    energy, theta, phi, e_n_before, s_m_before = (float(c[0]) for c in setting1_columns(params, d, d))
    return QetReport(optimized_energy=energy, plan=DisplacementPlan(theta=theta, phi=phi),
                     e_n_before=e_n_before, e_n_after=0.0, s_m_before=s_m_before, s_m_after=0.0,
                     delta_log_negativity=e_n_before)


def target_x2m1(g: np.ndarray, h: np.ndarray) -> float:
    """x^2 - 1 = 4 nu_0^2 - 1 of a site in the ground state, formed without cancellation.

    4 g_0 h_0 - 1 = -4 sum_{r != 0} g_r h_r because G H = I/4, a sum whose
    terms share one sign.
    """
    return max(-4.0 * float(g[1:] @ h[1:]), 0.0)


def setting2_terms(g_0: float, h_0: float, x2m1: float, dp, dq, jq,
                   ell_min: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E_opt, y^2 - 1, delta E_N) of setting-2 rows from their quadratic forms, elementwise.

    dp = J^T T_p^{-1} J, dq = g_bA^T T_q^{-1} g_Ab and jq = J^T T_q^{-1} J are
    scalars, or columns for ell = ell_min, ell_min + 1, ...; x = 2 nu_0 and
    y = 2 nu_1.  x^2 - y^2 = 4 (g_0 dp + h_0 dq - dq dp) is formed from its
    parts, and so is delta E_N = arcsinh of the shrink over y sqrt(x^2 - 1)
    + x sqrt(y^2 - 1), never a difference of two arccosh.  Raises
    NumericsError naming the first ell where nu_1 < 1/2 - PHYSICALITY_TOL.
    """
    shrink = 4.0 * (g_0 * dp + h_0 * dq - dq * dp)
    y2m1 = np.asarray(x2m1 - shrink)
    bad = np.flatnonzero(~(y2m1 >= -4.0 * PHYSICALITY_TOL))
    if bad.size:
        i = bad[0]
        raise NumericsError(f"ell={ell_min + i}: target symplectic eigenvalue^2 {(1.0 + y2m1.flat[i]) / 4:.6g} "
                            "< 1/4 after the measurement")
    y2m1 = np.maximum(y2m1, 0.0)
    x, y = np.sqrt(1.0 + x2m1), np.sqrt(1.0 + y2m1)
    denominator = y * np.sqrt(x2m1) + x * np.sqrt(y2m1)
    sinh = np.divide(shrink, denominator, out=np.zeros_like(denominator), where=denominator > 0.0)
    delta = np.arcsinh(sinh) / np.log(2.0)
    return -0.5 * (dp + jq), y2m1, delta


def run_setting2(params: ChainParams, ell: int) -> QetReport:
    """Measured block {0..2 ell}, target at the antipodal site N/2 + ell.

    The bipartition puts the single target site on one side and the other
    N - 1 sites (measured block included) on the other.  ell runs from 1 to
    N/2 - 2, which keeps the target and both its neighbors unmeasured.
    """
    from scipy.linalg import solve_toeplitz

    half = params.n_sites // 2
    if not 1 <= ell <= half - 2:
        raise ValueError(f"ell must lie in [1, N/2 - 2] = [1, {half - 2}], got {ell}")
    g, h = correlation_vectors(params.n_sites, params.alpha)
    size = 2 * ell + 1
    to_target = half + ell - np.arange(size)
    j, g_b = h[to_target], g[to_target]
    t_p = h[:size].copy()
    t_p[0] += params.omega / 2.0
    t_q = g[:size].copy()
    t_q[0] += 1.0 / (2.0 * params.omega)
    t_p_inv_j = solve_toeplitz(t_p, j)
    t_q_inv_j, t_q_inv_g_b = solve_toeplitz(t_q, np.column_stack([j, g_b])).T
    x2m1 = target_x2m1(g, h)
    energy, y2m1, delta = setting2_terms(g[0], h[0], x2m1, j @ t_p_inv_j, g_b @ t_q_inv_g_b, j @ t_q_inv_j, ell)
    x, y = np.sqrt(1.0 + x2m1), np.sqrt(1.0 + y2m1)
    return QetReport(
        optimized_energy=float(energy),
        plan=DisplacementPlan(theta=-t_p_inv_j, phi=-t_q_inv_j),
        e_n_before=float(np.arcsinh(np.sqrt(x2m1)) / np.log(2.0)),
        e_n_after=float(np.arcsinh(np.sqrt(y2m1)) / np.log(2.0)),
        s_m_before=float(2.0 * _entropy_terms(x / 2.0)),
        s_m_after=float(2.0 * _entropy_terms(y / 2.0)),
        delta_log_negativity=float(delta),
    )


def setting2_forms(params: ChainParams, hi: int) -> Iterator[tuple[float, float, float]]:
    """(dp, dq, jq) of run_setting2 for ell = 1..hi, in order, by one bordered recursion.

    dp = J^T T_p^{-1} J, dq = g_bA^T T_q^{-1} g_Ab and jq = J^T T_q^{-1} J,
    the arguments of setting2_terms.  Each step grows every form by a
    non-negative increment in O(ell) (module docstring) and keeps O(hi)
    memory; no solution vector is formed.  Raises LinAlgError at the first
    ell where T_p or T_q is found not positive definite.
    """
    half = params.n_sites // 2
    if not 0 <= hi <= half - 2:
        raise ValueError(f"hi must lie in [0, N/2 - 2] = [0, {half - 2}], got {hi}")
    g, h = correlation_vectors(params.n_sites, params.alpha)
    # Right-hand sides h[N/2 - i] and g[N/2 - i] for i = -hi..hi, one per row.
    j, g_b = h[half - hi:half + hi + 1], g[half - hi:half + hi + 1]
    t_p = h[:2 * hi + 1].copy()
    t_p[0] += params.omega / 2.0
    t_q = g[:2 * hi + 1].copy()
    t_q[0] += 1.0 / (2.0 * params.omega)
    p_side, q_side = _BorderedToeplitz(t_p, j[np.newaxis]), _BorderedToeplitz(t_q, np.vstack([j, g_b]))
    for _ in range(hi):
        (dp,), (jq, dq) = p_side.grow(), q_side.grow()
        yield dp, dq, jq


class _BorderedToeplitz:
    """The forms b^T T_m^{-1} b of orders m = 1, 3, 5, ..., each grown from the last.

    T_m is the symmetric Toeplitz matrix with first column t[:m], and each
    row b of rhs is a palindrome of odd length stored centred, so its
    order-m part is the middle m entries.  Only Durbin's state is kept:
    y = T_k^{-1} (t_1..t_k), held as v = [1, -y], and
    beta = t_0 - (t_1..t_k) . y, which is det T_{k+1} / det T_k: T_{k+1} is
    positive definite (given T_k) iff beta > 0.  T_{k+1} v = [beta, 0..0],
    so v / beta is the first column of T_{k+1}^{-1}.
    """

    def __init__(self, t: np.ndarray, rhs: np.ndarray):
        if not t[0] > 0.0:
            raise np.linalg.LinAlgError(f"Toeplitz form has diagonal {t[0]:.6g} <= 0")
        size = rhs.shape[1]
        self.t, self.rhs, self.m = t, rhs, 1
        self.forms = [b * b / float(t[0]) for b in rhs[:, size // 2].tolist()]
        self.v, self.k, self.beta = np.zeros(size), 0, float(t[0])
        self.v[0] = 1.0

    def _reflection(self) -> float:
        """Durbin's coefficient a_k = (t_{k+1} - (t_1..t_k) . J y) / beta = (t_{k+1}..t_1) . v / beta."""
        k = self.k
        return float(self.t[k + 1:0:-1].dot(self.v[:k + 1])) / self.beta

    def _extend(self, a: float) -> None:
        """Durbin's step to order k + 1: y <- [y - a J y, a] and beta <- beta (1 - a^2).

        In v = [1, -y] the step reads v <- [v, 0] - a J [v, 0].
        """
        k = self.k
        head = self.v[1:k + 2]
        head -= a * self.v[k::-1]  # on the view, so no copy back into v
        self.k, self.beta = k + 1, self.beta * (1.0 - a) * (1.0 + a)
        if not self.beta > 0.0:
            raise np.linalg.LinAlgError(f"Toeplitz form not positive definite at order {k + 2}")

    def grow(self) -> list[float]:
        """Each form from order m to m + 2, grown by 2 (c - y_m^T b)^2 / (beta_m (1 + a_m)); returns them.

        Durbin's two steps per call take y from order m - 1 to m + 1, so
        their checks cover T_{m+1} and T_{m+2}, the new order, and nothing
        beyond it.  Between them v = [1, -y_m], so one matvec of v with
        [c, b_m] gives every residual c - y_m^T b.
        """
        m = self.m
        self._extend(self._reflection())
        a = self._reflection()
        denominator = self.beta * (1.0 + a)  # = t_0 + t_{m+1} - u^T (y + J y)
        if not denominator > 0.0:
            raise np.linalg.LinAlgError(f"Toeplitz form not positive definite at order {m + 2}")
        lo = (self.rhs.shape[1] - m) // 2
        residuals = self.rhs[:, lo - 1:lo + m].dot(self.v[:m + 1]).tolist()
        self.forms = [form + 2.0 * r * r / denominator for form, r in zip(self.forms, residuals)]
        self._extend(a)
        self.m = m + 2
        return self.forms
