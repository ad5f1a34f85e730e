import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, eigh

from qetchain import (
    ChainParams,
    CovarianceMatrix,
    DisplacementPlan,
    MeasurementSpec,
    NumericsError,
    build_quadratics,
    correlation_vectors,
    ground_covariance,
    log_negativity,
    optimal_plan,
    optimized_energy,
    outcome_distribution,
    post_measurement_covariance,
    reduce,
    sample_outcomes,
    unmeasured_sites,
)
from qetchain import oracle
from qetchain.experiment import ALPHA_PRESETS
from qetchain.gaussian_state import _symmetrized
from qetchain.oracle import (
    FockState,
    fock_energy,
    fock_ground_state,
    fock_log_negativity,
    fock_position_correlator,
    general_dyne_deviation,
    general_dyne_update,
    monte_carlo_energy,
    two_mode_ground_covariance,
)
from qetchain.povm_measurement import _BLOCK_ROWS, _schur_complement, build_m_matrix, quarter_inverse


# Every (alpha, cutoff) at which the tests, validate and the acceptance criteria solve the pair.
GROUND_STATE_PAIRS = [(0.0, 12), (0.5, 25), (0.9, 12), (0.9, 16), (0.9, 20), (0.9, 25)]


def reference_position_operator(cutoff):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    return (a + a.T) / np.sqrt(2.0)


def full_basis_ground_state(alpha, cutoff):
    """Slow reference: lowest eigenvector of the full cutoff**2 Hamiltonian built with np.kron."""
    number = np.diag(np.arange(cutoff) + 0.5)
    eye = np.eye(cutoff)
    q = reference_position_operator(cutoff)
    h = np.kron(number, eye) + np.kron(eye, number) - alpha * np.kron(q, q)
    _, vec = eigh(h, subset_by_index=[0, 0])
    psi = vec[:, 0]
    return (psi * np.sign(psi[np.argmax(np.abs(psi))])).reshape(cutoff, cutoff)


def partial_transpose_log_negativity(amp):
    """Slow reference: log2 trace norm of the explicit partially transposed density matrix."""
    c = amp.shape[0]
    rho = np.einsum("ij,kl->ijkl", amp, np.conj(amp))
    rho_pt = rho.transpose(0, 3, 2, 1).reshape(c * c, c * c)
    return float(np.log2(np.sum(np.abs(np.linalg.eigvalsh((rho_pt + rho_pt.conj().T) / 2)))))


def einsum_position_correlator(amp):
    """Slow reference: <q0 q1> as the four-index sum over number states."""
    q = reference_position_operator(amp.shape[0])
    return float(np.real(np.einsum("ij,ik,jl,kl->", np.conj(amp), q, q, amp)))


def interleaved_general_dyne(v, measured, omega):
    """Slow reference: joint conditioning on the interleaved 2n x 2n matrix.

    Returns the conditional covariance and the gain from the interleaved
    outcome (X_1, P_1, X_2, P_2, ...) to the interleaved unmeasured means.
    """
    rest = [s for s in range(v.n_modes) if s not in measured]
    mi = np.array([j for s in measured for j in (2 * s, 2 * s + 1)])
    ui = np.array([j for s in rest for j in (2 * s, 2 * s + 1)])
    m = v.matrix
    v_det = np.diag(np.tile([1.0 / (2.0 * omega), omega / 2.0], len(measured)))
    cho = cho_factor(m[np.ix_(mi, mi)] + v_det)
    gain = cho_solve(cho, m[np.ix_(ui, mi)].T).T
    return m[np.ix_(ui, ui)] - gain @ m[np.ix_(ui, mi)].T, gain


def replayed_energy(params, spec, target, plans, n_samples, seed):
    """Slow reference: the protocol replayed sample by sample in a Python loop.

    Per outcome (X, P): conditional means from the general-dyne gains, the
    displacement at the target, then the target energy from its second
    moments (conditional covariance plus products of means), minus the
    ground-state value.
    """
    n, alpha = params.n_sites, params.alpha
    g, h = correlation_vectors(n, alpha)
    rest = list(unmeasured_sites(params, spec))
    upd = general_dyne_update(ground_covariance(params), spec.measured_sites, params.omega)
    cq, cp = upd.conditional_covariance.q, upd.conditional_covariance.p
    b = rest.index(target)
    xs, ps = sample_outcomes(outcome_distribution(params, spec), seed, n_samples)
    results = []
    for plan in plans:
        energies = []
        for x, p in zip(xs, ps):
            q_means = {s: float(upd.gain_x[i] @ x) for i, s in enumerate(rest)}
            q_means.update({s: float(x[i]) for i, s in enumerate(spec.measured_sites)})
            q_b = q_means[target] + float(plan.phi @ x)
            p_b = float(upd.gain_p[b] @ p) + float(plan.theta @ p)
            energy = 0.5 * (cp[b, b] + p_b**2) + 0.5 * (cq[b, b] + q_b**2)
            for s in ((target - 1) % n, (target + 1) % n):
                covariance = cq[b, rest.index(s)] if s in rest else 0.0
                energy -= (alpha / 2.0) * (covariance + q_b * q_means[s])
            energies.append(energy - (0.5 * (h[0] + g[0]) - alpha * g[1]))
        mean = math.fsum(energies) / n_samples
        variance = math.fsum((e - mean) ** 2 for e in energies) / (n_samples - 1)
        results.append((mean, math.sqrt(variance / n_samples)))
    return results


def fsum_energy(params, spec, target, plans, n_samples, seed):
    """Reference for long draws: every sample's energy at once, pooled with math.fsum.

    The per-sample energies are the full-length form the blocked estimator
    replaced, one matvec per mean on the stacked draw (X, P); the mean and
    the centred sum of squares are then summed exactly, as replayed_energy
    sums them.
    """
    n, alpha = params.n_sites, params.alpha
    g, h = correlation_vectors(n, alpha)
    rest = list(unmeasured_sites(params, spec))
    upd = general_dyne_update(ground_covariance(params), spec.measured_sites, params.omega)
    cq, cp = upd.conditional_covariance.q, upd.conditional_covariance.p
    b = rest.index(target)
    neighbor_x = np.zeros(len(spec.measured_sites))
    constant = 0.5 * (cq[b, b] + cp[b, b]) - (0.5 * (h[0] + g[0]) - alpha * g[1])
    for s in ((target - 1) % n, (target + 1) % n):
        if s in rest:
            neighbor_x += upd.gain_x[rest.index(s)]
            constant -= (alpha / 2.0) * cq[b, rest.index(s)]
        else:
            neighbor_x[spec.measured_sites.index(s)] += 1.0
    zero = np.zeros_like(neighbor_x)
    draw = np.concatenate(sample_outcomes(outcome_distribution(params, spec), seed, n_samples), axis=1)
    neighbors = draw @ np.concatenate([neighbor_x, zero])
    results = []
    for plan in plans:
        mean_q_b = draw @ np.concatenate([upd.gain_x[b] + plan.phi, zero])
        mean_p_b = draw @ np.concatenate([zero, upd.gain_p[b] + plan.theta])
        energies = 0.5 * (mean_p_b**2 + mean_q_b**2) - (alpha / 2.0) * mean_q_b * neighbors + constant
        mean = math.fsum(energies) / n_samples
        variance = math.fsum((energies - mean) ** 2) / (n_samples - 1)
        results.append((mean, math.sqrt(variance / n_samples)))
    return results


@st.composite
def pure_two_mode_states(draw):
    """Normalised real or complex amplitude matrices with cutoff 1..6."""
    c = draw(st.integers(1, 6))
    entries = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=c * c, max_size=c * c)
    amp = np.array(draw(entries)).reshape(c, c)
    if draw(st.booleans()):
        amp = amp + 1j * np.array(draw(entries)).reshape(c, c)
    norm = np.sqrt(np.sum(np.abs(amp) ** 2))
    assume(norm > 1e-3)
    return FockState(cutoff=c, amplitudes=amp / norm)


class TestGeneralDyneUpdate:
    def test_product_state_unchanged(self):
        v = CovarianceMatrix(0.5 * np.eye(4), 0.5 * np.eye(4))
        upd = general_dyne_update(v, [0, 2], omega=1.0)
        np.testing.assert_allclose(upd.conditional_covariance.matrix, 0.5 * np.eye(4), atol=1e-14)
        np.testing.assert_allclose(upd.gain_x, 0.0, atol=1e-14)
        np.testing.assert_allclose(upd.gain_p, 0.0, atol=1e-14)

    def test_gain_vanishes_for_uncorrelated_modes(self):
        v = ground_covariance(ChainParams(n_sites=6, alpha=0.0))
        upd = general_dyne_update(v, [0], omega=2.0)
        np.testing.assert_allclose(upd.gain_x, 0.0, atol=1e-14)
        np.testing.assert_allclose(upd.gain_p, 0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_matches_schur_construction(self, n, alpha, omega):
        params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
        spec = MeasurementSpec(measured_sites=(0, 1))
        upd = general_dyne_update(ground_covariance(params), spec.measured_sites, omega)
        built = post_measurement_covariance(params, spec)
        ref = reduce(built, unmeasured_sites(params, spec)).matrix
        np.testing.assert_allclose(upd.conditional_covariance.matrix, ref, atol=1e-10)

    def test_deviation_reference_is_the_assembled_state(self):
        # general_dyne_deviation reads (M^{-1}/4, M) from M directly; on
        # criterion 3's grid that is bit for bit the unmeasured block of the
        # assembled N x N post-measurement state.
        grid = ((4, 6, 8, 12), (0.0, 0.5, 0.9, 0.99), (0.5, 1.0, 2.0), ((0,), (0, 1), (0, 2)))
        dev = 0.0
        for n, alpha, omega, measured in itertools.product(*grid):
            params = ChainParams(n_sites=n, alpha=alpha, omega=omega)
            spec = MeasurementSpec(measured_sites=measured)
            assembled = reduce(post_measurement_covariance(params, spec), unmeasured_sites(params, spec))
            m = build_m_matrix(params, spec)
            np.testing.assert_array_equal(quarter_inverse(m), assembled.q)
            np.testing.assert_array_equal(m, assembled.p)
            got = general_dyne_update(ground_covariance(params), measured, omega).conditional_covariance
            dev = max(dev, float(np.abs(got.q - assembled.q).max()), float(np.abs(got.p - assembled.p).max()))
        assert general_dyne_deviation(*grid) == dev

    def test_rejects_degenerate_subsets(self):
        v = CovarianceMatrix(0.5 * np.eye(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            general_dyne_update(v, [], omega=1.0)
        with pytest.raises(ValueError):
            general_dyne_update(v, [0, 1], omega=1.0)
        v4 = ground_covariance(ChainParams(n_sites=4, alpha=0.5))
        with pytest.raises(ValueError, match="out of range"):
            general_dyne_update(v4, [-1], omega=1.0)
        with pytest.raises(ValueError, match="out of range"):
            general_dyne_update(v4, [4], omega=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            general_dyne_update(v4, [0, 0], omega=1.0)

    # Criterion 3's grid, plus N = 100 at a4 with a one- and a three-site group.
    SECTOR_GRID = ([(n, alpha, omega, measured) for n, alpha, omega, measured in itertools.product(
                       (4, 6, 8, 12), (0.0, 0.5, 0.9, 0.99), (0.5, 1.0, 2.0), ((0,), (0, 1), (0, 2)))]
                   + [(100, ALPHA_PRESETS["a4"], 1.0, (0,)), (100, ALPHA_PRESETS["a4"], 1.0, (0, 1, 2))])

    def test_sector_split_matches_interleaved_conditioning(self):
        worst = 0.0
        for n, alpha, omega, measured in self.SECTOR_GRID:
            v = ground_covariance(ChainParams(n_sites=n, alpha=alpha))
            upd = general_dyne_update(v, measured, omega)
            cond, gain = interleaved_general_dyne(v, measured, omega)
            diffs = [upd.conditional_covariance.matrix - cond, upd.gain_x - gain[0::2, 0::2],
                     upd.gain_p - gain[1::2, 1::2],
                     gain[0::2, 1::2], gain[1::2, 0::2]]  # X moves no p mean and P no q mean
            scale = max(np.abs(cond).max(), np.abs(gain).max())
            worst = max(worst, max(np.abs(d).max() for d in diffs) / scale)
        assert worst < 1e-12


class TestStackedKernels:
    """The stacked kernels against a loop over the public per-point functions, bit for bit."""

    @staticmethod
    def stacks():
        """SECTOR_GRID's points grouped by (N, group); the N = 100, a4 three-site stack gains two omegas."""
        grid = TestGeneralDyneUpdate.SECTOR_GRID + [(100, ALPHA_PRESETS["a4"], omega, (0, 1, 2)) for omega in (0.5, 2.0)]
        by_stack = {}
        for n, alpha, omega, measured in grid:
            by_stack.setdefault((n, measured), []).append((ChainParams(n_sites=n, alpha=alpha, omega=omega),
                                                           MeasurementSpec(measured_sites=measured)))
        return list(by_stack.values())

    def test_general_dyne_stack_equals_loop(self):
        for points in self.stacks():
            measured = points[0][1].measured_sites
            grounds = [ground_covariance(params) for params, _ in points]
            cond_q, cond_p, gain_x, gain_p = oracle._condition_sectors(
                np.stack([v.q for v in grounds]), np.stack([v.p for v in grounds]), measured,
                np.array([params.omega for params, _ in points]))
            for i, (v, (params, _)) in enumerate(zip(grounds, points)):
                upd = general_dyne_update(v, measured, params.omega)
                np.testing.assert_array_equal(_symmetrized(cond_q[i]), upd.conditional_covariance.q)
                np.testing.assert_array_equal(_symmetrized(cond_p[i]), upd.conditional_covariance.p)
                np.testing.assert_array_equal(gain_x[i], upd.gain_x)
                np.testing.assert_array_equal(gain_p[i], upd.gain_p)

    def test_schur_stack_equals_loop(self):
        for points in self.stacks():
            measured = points[0][1].measured_sites
            sites = list(measured) + list(unmeasured_sites(*points[0]))
            h = np.stack([ground_covariance(params).p[np.ix_(sites, sites)] for params, _ in points])
            m = _schur_complement(h, len(measured), np.array([params.omega for params, _ in points]))
            quarter = quarter_inverse(m)
            for i, point in enumerate(points):
                np.testing.assert_array_equal(m[i], build_m_matrix(*point))
                np.testing.assert_array_equal(quarter[i], quarter_inverse(build_m_matrix(*point)))

    def test_one_unphysical_item_fails_the_stack(self):
        params = ChainParams(n_sites=6, alpha=0.9)
        h = np.stack([ground_covariance(params).p] * 3)
        h[1, 0, 0] = -1.0  # L + (omega/2) I is not positive definite for this item alone
        with pytest.raises(np.linalg.LinAlgError):
            _schur_complement(h, 1, np.ones(3))
        m = np.stack([np.eye(3), -np.eye(3)])
        with pytest.raises(np.linalg.LinAlgError):
            quarter_inverse(m)

    def test_one_asymmetric_item_fails_the_stack(self):
        blocks = np.stack([np.eye(3)] * 2)
        blocks[1, 0, 2] = 1e-6
        with pytest.raises(ValueError, match="not symmetric within 1e-12"):
            _symmetrized(blocks)

    GRID = ((4, 6), (0.0, 0.9), (0.5, 1.0), ((0,), (0, 2)))

    @pytest.mark.parametrize("axis, value", [(0, (4, 5)), (1, (0.5, 1.0)), (2, (0.5, 0.0)), (2, (-1.0,)),
                                             (3, ((0, 0),)), (3, ((0,), (6,))), (3, ((-1,),)), (3, ((0, 1, 2, 3),))])
    def test_deviation_rejects_bad_grid_points(self, axis, value):
        grid = list(self.GRID)
        grid[axis] = value
        with pytest.raises(ValueError):
            general_dyne_deviation(*grid)


class TestMonteCarloEnergy:
    def test_zero_plan_on_decoupled_chain(self):
        params = ChainParams(n_sites=8, alpha=0.0)
        spec = MeasurementSpec(measured_sites=(0,))
        plan = DisplacementPlan(theta=[0.0], phi=[0.0])
        [(mean, se)] = monte_carlo_energy(params, spec, 4, [plan], 10_000, seed=1)
        assert abs(mean) <= 3 * se
        assert abs(mean) < 1e-3

    def test_agrees_with_analytic_optimum(self):
        params = ChainParams(n_sites=100, alpha=0.9)
        spec = MeasurementSpec(measured_sites=(0,))
        quad = build_quadratics(params, spec, 2)
        plan = optimal_plan(quad)
        [(mean, se)] = monte_carlo_energy(params, spec, 2, [plan], 200_000, seed=2024)
        assert abs(mean - optimized_energy(quad)) <= 3 * se

    def test_agrees_for_multi_site_group(self):
        params = ChainParams(n_sites=8, alpha=0.9, omega=0.7)
        spec = MeasurementSpec(measured_sites=(0, 1, 2))
        quad = build_quadratics(params, spec, 5)
        plan = optimal_plan(quad)
        [(mean, se)] = monte_carlo_energy(params, spec, 5, [plan], 200_000, seed=7)
        assert abs(mean - optimized_energy(quad)) <= 3 * se

    def test_agrees_on_a_wider_small_grid(self):
        params = ChainParams(n_sites=12, alpha=0.99, omega=2.0)
        spec = MeasurementSpec(measured_sites=(0, 1))
        quad = build_quadratics(params, spec, 7)
        plan = optimal_plan(quad)
        [(mean, se)] = monte_carlo_energy(params, spec, 7, [plan], 200_000, seed=17)
        assert abs(mean - optimized_energy(quad)) <= 3 * se

    def test_standard_error_scales_as_inverse_root_n(self):
        params = ChainParams(n_sites=20, alpha=0.9)
        spec = MeasurementSpec(measured_sites=(0,))
        quad = build_quadratics(params, spec, 3)
        plan = optimal_plan(quad)
        [(_, se_small)] = monte_carlo_energy(params, spec, 3, [plan], 20_000, seed=5)
        [(_, se_large)] = monte_carlo_energy(params, spec, 3, [plan], 80_000, seed=6)
        assert se_small / se_large == pytest.approx(2.0, rel=0.2)

    def test_perturbed_plan_is_strictly_worse(self):
        # Common random numbers: one shared draw isolates the plan difference.
        params = ChainParams(n_sites=100, alpha=0.9)
        spec = MeasurementSpec(measured_sites=(0,))
        quad = build_quadratics(params, spec, 2)
        plan = optimal_plan(quad)
        bumped = DisplacementPlan(theta=plan.theta * 1.1, phi=plan.phi * 1.1)
        [(mean_opt, _), (mean_bad, _)] = monte_carlo_energy(params, spec, 2, [plan, bumped], 200_000, seed=31)
        assert mean_bad > mean_opt
        # the excess is the quadratic form of the bump: 0.01/2 * J T^-1 J per channel
        gap = 0.005 * (quad.j_p @ np.linalg.solve(quad.t_p, quad.j_p)
                       + quad.j_q @ np.linalg.solve(quad.t_q, quad.j_q))
        assert mean_bad - mean_opt == pytest.approx(gap, rel=0.1)

    def test_input_validation(self):
        params = ChainParams(n_sites=8, alpha=0.9)
        spec = MeasurementSpec(measured_sites=(0,))
        plan = DisplacementPlan(theta=[0.0], phi=[0.0])
        with pytest.raises(ValueError):
            monte_carlo_energy(params, spec, 4, [plan], 999, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_energy(params, spec, 0, [plan], 10_000, seed=1)  # target measured
        long_plan = DisplacementPlan(theta=[0.0, 0.0], phi=[0.0, 0.0])
        with pytest.raises(ValueError):
            monte_carlo_energy(params, spec, 4, [long_plan], 10_000, seed=1)
        for plans in ([plan, long_plan], [long_plan, plan]):
            with pytest.raises(ValueError, match="plan length"):
                monte_carlo_energy(params, spec, 4, plans, 10_000, seed=1)

    @pytest.mark.parametrize("measured,target", [
        ((0,), 1), ((0,), 4),          # target beside the group, and away from it
        ((0, 1), 7), ((0, 1), 4),      # 7 borders site 0 across the wrap
        ((0, 1, 2), 3), ((0, 1, 2), 5),
    ])
    def test_matches_sample_by_sample_replay(self, measured, target):
        params = ChainParams(n_sites=8, alpha=0.9, omega=0.7)
        spec = MeasurementSpec(measured_sites=measured)
        plan = optimal_plan(build_quadratics(params, spec, target))
        bumped = DisplacementPlan(theta=plan.theta * 1.3, phi=plan.phi * 0.6)
        got = monte_carlo_energy(params, spec, target, [plan, bumped], 2000, seed=29)
        for (mean, se), (ref_mean, ref_se) in zip(got, replayed_energy(params, spec, target, [plan, bumped], 2000, 29)):
            assert mean == pytest.approx(ref_mean, rel=1e-12, abs=0)
            assert se == pytest.approx(ref_se, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n_samples", [_BLOCK_ROWS - 1, _BLOCK_ROWS, 3 * _BLOCK_ROWS + 17])
    @pytest.mark.parametrize("n_sites, omega, measured, target", [
        (100, 1.0, (0,), 2),
        (8, 0.7, (0, 1, 2), 3), (8, 0.7, (0, 1, 2), 5), (8, 0.7, (0, 1), 7),
    ])
    def test_blocks_pool_to_the_exactly_summed_draw(self, n_sites, omega, measured, target, n_samples):
        # Below one block, exactly one, and a ragged fourth: the pooled block moments against
        # the whole draw's energies summed with math.fsum.
        params = ChainParams(n_sites=n_sites, alpha=0.9, omega=omega)
        spec = MeasurementSpec(measured_sites=measured)
        plan = optimal_plan(build_quadratics(params, spec, target))
        bumped = DisplacementPlan(theta=plan.theta * 1.3, phi=plan.phi * 0.6)
        got = monte_carlo_energy(params, spec, target, [plan, bumped], n_samples, seed=41)
        for (mean, se), (ref_mean, ref_se) in zip(got, fsum_energy(params, spec, target, [plan, bumped],
                                                                   n_samples, 41)):
            assert mean == pytest.approx(ref_mean, rel=1e-12, abs=0)
            assert se == pytest.approx(ref_se, rel=1e-12, abs=0)

    def test_traced_peak_stays_near_the_draw(self):
        # A 10^6-sample, one-site, two-plan call: the draw (X and P, 16 MB) plus blocks, no
        # full-length temporaries.
        params = ChainParams(n_sites=100, alpha=0.9)
        spec = MeasurementSpec(measured_sites=(0,))
        plan = optimal_plan(build_quadratics(params, spec, 2))
        bumped = DisplacementPlan(theta=plan.theta * 1.1, phi=plan.phi)
        monte_carlo_energy(params, spec, 2, [plan, bumped], 1000, seed=1)  # fills the correlator cache
        n_samples = 1_000_000
        tracemalloc.start()
        try:
            monte_carlo_energy(params, spec, 2, [plan, bumped], n_samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * (2 * n_samples * 8)

    @pytest.mark.parametrize("target", [3, 5])  # 3 has a measured neighbor, 5 does not
    def test_shared_draw_equals_one_plan_calls(self, monkeypatch, target):
        params = ChainParams(n_sites=8, alpha=0.9, omega=0.7)
        spec = MeasurementSpec(measured_sites=(0, 1, 2))
        plan = optimal_plan(build_quadratics(params, spec, target))
        bumped = DisplacementPlan(theta=plan.theta * 1.1, phi=plan.phi * 0.8)
        separate = (monte_carlo_energy(params, spec, target, [plan], 20_000, seed=3)
                    + monte_carlo_energy(params, spec, target, [bumped], 20_000, seed=3))
        draws = []

        def counted(*args):
            draws.append(args)
            return sample_outcomes(*args)

        monkeypatch.setattr(oracle, "sample_outcomes", counted)
        shared = monte_carlo_energy(params, spec, target, [plan, bumped], 20_000, seed=3)
        assert shared == separate
        assert len(draws) == 1


class TestFockGroundState:
    def test_decoupled_pair_is_vacuum(self):
        state = fock_ground_state(0.0, cutoff=12)
        assert abs(state.amplitudes[0, 0]) ** 2 > 1 - 1e-10

    def test_norm_and_cutoff_validation(self):
        state = fock_ground_state(0.9, cutoff=25)
        assert np.sum(state.amplitudes**2) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ValueError):
            fock_ground_state(0.9, cutoff=8)
        with pytest.raises(NumericsError):
            fock_ground_state(0.9, cutoff=10)  # top level holds > 1e-6

    def test_energy_decreases_with_cutoff(self):
        energies = [fock_energy(fock_ground_state(0.9, cutoff=c), 0.9) for c in (12, 16, 20, 25)]
        assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
        # variational limit: mean of the two normal-mode frequencies
        exact = (np.sqrt(0.1) + np.sqrt(1.9)) / 2
        assert energies[-1] == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("alpha,cutoff", GROUND_STATE_PAIRS)
    def test_symmetric_block_matches_full_basis(self, alpha, cutoff):
        got = fock_ground_state(alpha, cutoff=cutoff).amplitudes
        np.testing.assert_allclose(got, full_basis_ground_state(alpha, cutoff), rtol=0, atol=1e-12)
        # exchange-symmetric exactly, and odd n0 + n1 amplitudes are exactly zero
        np.testing.assert_array_equal(got, got.T)
        assert np.all(got[np.add.outer(np.arange(cutoff), np.arange(cutoff)) % 2 == 1] == 0.0)

    @pytest.mark.parametrize("alpha,cutoff", GROUND_STATE_PAIRS)
    def test_correlator_matches_four_index_sum(self, alpha, cutoff):
        state = fock_ground_state(alpha, cutoff=cutoff)
        assert fock_position_correlator(state) == pytest.approx(einsum_position_correlator(state.amplitudes),
                                                                rel=0, abs=1e-12)

    def test_correlator_matches_mode_sum(self):
        state = fock_ground_state(0.9, cutoff=25)
        g, _ = correlation_vectors(2, 0.9)
        assert fock_position_correlator(state) == pytest.approx(g[1], abs=1e-6)


class TestFockLogNegativity:
    def test_vacuum_is_separable(self):
        assert abs(fock_log_negativity(fock_ground_state(0.0, cutoff=12))) < 1e-8

    def test_matches_gaussian_negativity(self):
        state = fock_ground_state(0.9, cutoff=25)
        reference = log_negativity(two_mode_ground_covariance(0.9), [1])
        assert fock_log_negativity(state) == pytest.approx(reference, abs=1e-3)

    def test_convergence_toward_gaussian_is_monotone(self):
        reference = log_negativity(two_mode_ground_covariance(0.9), [1])
        errors = [abs(fock_log_negativity(fock_ground_state(0.9, cutoff=c)) - reference)
                  for c in (12, 16, 20, 25)]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("cutoff", [12, 16, 20, 25])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_schmidt_route_matches_partial_transpose(self, alpha, cutoff):
        state = fock_ground_state(alpha, cutoff=cutoff)
        reference = partial_transpose_log_negativity(state.amplitudes)
        assert fock_log_negativity(state) == pytest.approx(reference, rel=0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(pure_two_mode_states())
    def test_schmidt_and_contraction_on_random_pure_states(self, state):
        amp = state.amplitudes
        assert fock_log_negativity(state) == pytest.approx(partial_transpose_log_negativity(amp), rel=0, abs=1e-12)
        assert fock_position_correlator(state) == pytest.approx(einsum_position_correlator(amp), rel=0, abs=1e-12)

    def test_coherent_product_state_is_separable(self):
        import math

        cutoff = 25

        def coherent(beta):
            amp = np.array([beta**k / math.sqrt(math.factorial(k)) for k in range(cutoff)])
            return amp * np.exp(-beta**2 / 2)

        product = np.outer(coherent(0.6), coherent(-0.3))
        product /= np.sqrt(np.sum(product**2))
        state = FockState(cutoff=cutoff, amplitudes=product)
        assert abs(fock_log_negativity(state)) < 1e-8
