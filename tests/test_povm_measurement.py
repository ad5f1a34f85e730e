import numpy as np
import pytest

from qetchain import (
    ChainParams,
    MeasurementSpec,
    build_m_matrix,
    ground_covariance,
    log_negativity,
    outcome_distribution,
    post_measurement_covariance,
    reduce,
    sample_outcomes,
    symplectic_eigenvalues,
    unmeasured_sites,
)
from qetchain.povm_measurement import _BLOCK_ROWS, _outcome_blocks, _row_blocks

A4 = 1.0 - 1e-7
X_COV_FROZEN = 1.2359692387847989  # g0 + 1/2 at N=4, alpha=0.9, omega=1


class TestMeasurementSpec:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            MeasurementSpec(measured_sites=())
        with pytest.raises(ValueError):
            MeasurementSpec(measured_sites=(0, 0))

    @pytest.mark.parametrize("site", [1.7, 0.5, 2.5])
    def test_non_integral_site_rejected(self, site):
        # int() would truncate 1.7 to site 1.
        with pytest.raises(ValueError, match=f"^measured site {site} is not an integer$"):
            MeasurementSpec(measured_sites=(0, site))

    @pytest.mark.parametrize("site", [2.0, np.int64(2)])
    def test_integral_site_accepted(self, site):
        sites = MeasurementSpec(measured_sites=(0, site)).measured_sites
        assert sites == (0, 2) and all(type(s) is int for s in sites)

    def test_site_range_checked_against_params(self):
        params = ChainParams(n_sites=4, alpha=0.5)
        with pytest.raises(ValueError):
            unmeasured_sites(params, MeasurementSpec(measured_sites=(4,)))

    def test_all_sites_measured_rejected(self):
        params = ChainParams(n_sites=4, alpha=0.5)
        with pytest.raises(ValueError):
            unmeasured_sites(params, MeasurementSpec(measured_sites=(0, 1, 2, 3)))


class TestBuildMMatrix:
    def test_decoupled_chain_keeps_bare_block(self):
        params = ChainParams(n_sites=6, alpha=0.0)
        m = build_m_matrix(params, MeasurementSpec(measured_sites=(0, 1)))
        np.testing.assert_allclose(m, 0.5 * np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("measured", [(0,), (0, 1, 2), (1, 5, 7)])
    def test_symmetric_positive_definite(self, measured):
        params = ChainParams(n_sites=10, alpha=0.95, omega=0.7)
        m = build_m_matrix(params, MeasurementSpec(measured_sites=measured))
        assert np.abs(m - m.T).max() < 1e-12
        assert np.linalg.eigvalsh(m).min() > 0


class TestPostMeasurementCovariance:
    def test_vacuum_measurement_changes_nothing(self):
        params = ChainParams(n_sites=4, alpha=0.0, omega=1.0)
        state = post_measurement_covariance(params, MeasurementSpec(measured_sites=(0, 2)))
        np.testing.assert_allclose(state.matrix, 0.5 * np.eye(8), atol=1e-14)

    def test_block_structure(self):
        params = ChainParams(n_sites=8, alpha=0.9, omega=2.0)
        spec = MeasurementSpec(measured_sites=(1, 2))
        v = post_measurement_covariance(params, spec).matrix
        for s in spec.measured_sites:
            assert v[2 * s, 2 * s] == 0.25          # 1/(2 omega)
            assert v[2 * s + 1, 2 * s + 1] == 1.0   # omega/2
        # cross blocks between measured and unmeasured vanish exactly
        rest = unmeasured_sites(params, spec)
        for s in spec.measured_sites:
            for u in rest:
                block = v[2 * s : 2 * s + 2, 2 * u : 2 * u + 2]
                assert np.all(block == 0.0)

    @pytest.mark.parametrize("n,alpha,measured", [
        (8, 0.9, (0,)),
        (12, 0.99, (0, 1, 2)),
        (100, A4, tuple(range(49))),
    ])
    def test_unmeasured_block_stays_pure(self, n, alpha, measured):
        params = ChainParams(n_sites=n, alpha=alpha)
        spec = MeasurementSpec(measured_sites=measured)
        state = post_measurement_covariance(params, spec)
        block = reduce(state, unmeasured_sites(params, spec))
        np.testing.assert_allclose(symplectic_eigenvalues(block), 0.5, atol=1e-8)

    def test_position_momentum_blocks_are_inverse_pair(self):
        params = ChainParams(n_sites=10, alpha=0.95)
        spec = MeasurementSpec(measured_sites=(0, 1, 2))
        state = post_measurement_covariance(params, spec)
        rest = np.array(unmeasured_sites(params, spec))
        v = state.matrix
        qq = v[np.ix_(2 * rest, 2 * rest)]
        pp = v[np.ix_(2 * rest + 1, 2 * rest + 1)]
        np.testing.assert_allclose(qq @ pp, np.eye(rest.size) / 4, atol=1e-10)

    def test_measurement_disentangles_the_pair(self):
        # Adjacent single-site groups lose their negativity entirely.
        params = ChainParams(n_sites=100, alpha=A4)
        state = post_measurement_covariance(params, MeasurementSpec(measured_sites=(0,)))
        pair = reduce(state, [0, 1])
        assert log_negativity(pair, [1]) < 1e-10


class TestOutcomeDistribution:
    def test_decoupled_chain(self):
        params = ChainParams(n_sites=4, alpha=0.0, omega=1.0)
        dist = outcome_distribution(params, MeasurementSpec(measured_sites=(0, 1)))
        np.testing.assert_allclose(dist.x_covariance, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(dist.p_covariance, np.eye(2), atol=1e-15)

    def test_frozen_single_site_variance(self):
        params = ChainParams(n_sites=4, alpha=0.9)
        dist = outcome_distribution(params, MeasurementSpec(measured_sites=(0,)))
        assert dist.x_covariance[0, 0] == pytest.approx(X_COV_FROZEN, abs=1e-12)

    def test_covariances_positive_definite(self):
        params = ChainParams(n_sites=12, alpha=0.99, omega=0.5)
        dist = outcome_distribution(params, MeasurementSpec(measured_sites=(0, 3, 4)))
        assert np.linalg.eigvalsh(dist.x_covariance).min() > 0
        assert np.linalg.eigvalsh(dist.p_covariance).min() > 0


class TestSampleOutcomes:
    def test_deterministic_given_seed(self):
        params = ChainParams(n_sites=6, alpha=0.9)
        dist = outcome_distribution(params, MeasurementSpec(measured_sites=(0, 1)))
        first = sample_outcomes(dist, seed=77, count=100)
        second = sample_outcomes(dist, seed=77, count=100)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_count_validated(self):
        params = ChainParams(n_sites=6, alpha=0.9)
        dist = outcome_distribution(params, MeasurementSpec(measured_sites=(0,)))
        with pytest.raises(ValueError):
            sample_outcomes(dist, seed=1, count=0)

    def test_sample_moments(self):
        params = ChainParams(n_sites=4, alpha=0.9)
        dist = outcome_distribution(params, MeasurementSpec(measured_sites=(0,)))
        xs, ps = sample_outcomes(dist, seed=5, count=100_000)
        # mean within 4 standard errors of zero
        for data, cov in ((xs, dist.x_covariance), (ps, dist.p_covariance)):
            se = np.sqrt(np.diag(cov) / data.shape[0])
            assert np.all(np.abs(data.mean(axis=0)) < 4 * se)
        assert np.cov(xs.T) == pytest.approx(X_COV_FROZEN, rel=0.05)

    @pytest.mark.parametrize("measured", [(0,), (0, 1, 2)])
    def test_draw_equals_matmul_form_bitwise(self, measured):
        # validate's Monte Carlo draw (N = 100, alpha = 0.9, seed 1) and a three-site group
        # against the matmul form standard_normal @ cholesky.T, bit for bit.
        dist = outcome_distribution(ChainParams(n_sites=100, alpha=0.9), MeasurementSpec(measured_sites=measured))
        rng = np.random.default_rng(1)
        xs_ref = rng.standard_normal((200_000, len(measured))) @ np.linalg.cholesky(dist.x_covariance).T
        ps_ref = rng.standard_normal((200_000, len(measured))) @ np.linalg.cholesky(dist.p_covariance).T
        xs, ps = sample_outcomes(dist, seed=1, count=200_000)
        np.testing.assert_array_equal(xs, xs_ref)
        np.testing.assert_array_equal(ps, ps_ref)

    @pytest.mark.parametrize("count", [_BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
    @pytest.mark.parametrize("measured", [(0,), (0, 1), (0, 1, 2)])
    def test_blocked_draw_equals_one_shot_form_bitwise(self, measured, count):
        # Below one block, a one-row remainder (which a lone gemv would round differently),
        # and a ragged last block: each bit for bit the one-shot draw.
        dist = outcome_distribution(ChainParams(n_sites=100, alpha=0.9), MeasurementSpec(measured_sites=measured))
        rng = np.random.default_rng(5)
        xs_ref = rng.standard_normal((count, len(measured))) @ np.linalg.cholesky(dist.x_covariance).T
        ps_ref = rng.standard_normal((count, len(measured))) @ np.linalg.cholesky(dist.p_covariance).T
        xs, ps = sample_outcomes(dist, seed=5, count=count)
        np.testing.assert_array_equal(xs, xs_ref)
        np.testing.assert_array_equal(ps, ps_ref)

    @pytest.mark.parametrize("count", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
    @pytest.mark.parametrize("measured", [(0,), (0, 1), (0, 1, 2)])
    def test_block_walk_equals_the_whole_draw_bitwise(self, measured, count):
        # The blocks the Monte Carlo estimator reads: X and P rows from reused buffers, copied
        # out as they come, against the one-shot single-generator draw bit for bit.
        dist = outcome_distribution(ChainParams(n_sites=100, alpha=0.9), MeasurementSpec(measured_sites=measured))
        bounds, x_rows, p_rows = [], [], []
        for start, stop, x, p in _outcome_blocks(dist, seed=5, count=count):
            bounds.append((start, stop))
            x_rows.append(x.copy())
            p_rows.append(p.copy())
        assert bounds == _row_blocks(count)
        rng = np.random.default_rng(5)
        xs_ref = rng.standard_normal((count, len(measured))) @ np.linalg.cholesky(dist.x_covariance).T
        ps_ref = rng.standard_normal((count, len(measured))) @ np.linalg.cholesky(dist.p_covariance).T
        np.testing.assert_array_equal(np.concatenate(x_rows), xs_ref)
        np.testing.assert_array_equal(np.concatenate(p_rows), ps_ref)

    def test_decoupled_sample_covariance(self):
        params = ChainParams(n_sites=4, alpha=0.0)
        dist = outcome_distribution(params, MeasurementSpec(measured_sites=(0, 1)))
        xs, _ = sample_outcomes(dist, seed=9, count=100_000)
        np.testing.assert_allclose(np.cov(xs.T), np.eye(2), atol=0.05)
