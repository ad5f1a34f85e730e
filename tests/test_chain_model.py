import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qetchain import (
    ChainParams,
    correlation_submatrices,
    correlation_vectors,
    ground_covariance,
    symplectic_eigenvalues,
)
from qetchain.chain_model import mode_frequencies

A1, A4 = 0.9, 1.0 - 1e-7
DATA = Path(__file__).resolve().parent / "data"


def cosine_table_correlators(n, alpha):
    """The direct mode sum over an N x N cosine table: O(N^2) time and memory."""
    w = mode_frequencies(n, alpha)
    theta = 2.0 * np.pi * np.arange(n) / n
    cos_table = np.cos(np.outer(np.arange(n), theta))
    return cos_table @ (1.0 / (2.0 * w)) / n, cos_table @ (w / 2.0) / n


def brute_force_correlators(n, alpha):
    """Plain-Python mode sums, independent of the vectorized implementation."""
    g = [0.0] * n
    h = [0.0] * n
    for r in range(n):
        for k in range(n):
            theta = 2.0 * math.pi * k / n
            w = math.sqrt(1.0 - alpha * math.cos(theta))
            g[r] += math.cos(r * theta) / (2.0 * w) / n
            h[r] += (w / 2.0) * math.cos(r * theta) / n
    return np.array(g), np.array(h)


class TestChainParams:
    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ValueError):
            ChainParams(n_sites=5, alpha=0.5)
        with pytest.raises(ValueError):
            ChainParams(n_sites=2, alpha=0.5)

    def test_rejects_bad_alpha_and_omega(self):
        with pytest.raises(ValueError):
            ChainParams(n_sites=4, alpha=1.0)
        with pytest.raises(ValueError):
            ChainParams(n_sites=4, alpha=-0.1)
        with pytest.raises(ValueError):
            ChainParams(n_sites=4, alpha=0.5, omega=0.0)
        for omega in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="omega must be finite and positive"):
                ChainParams(n_sites=4, alpha=0.5, omega=omega)

    def test_critical_cutoff_is_an_ordinary_value(self):
        ChainParams(n_sites=100, alpha=A4)


class TestDispersion:
    def test_decoupled_chain_is_flat(self):
        assert all(mode_frequencies(4, 0.0) == 1.0)

    def test_frozen_values(self):
        w = mode_frequencies(4, 0.9)
        assert w[0] == pytest.approx(0.3162277660168379, abs=1e-12)
        assert w[2] == pytest.approx(1.378404875209022, abs=1e-12)


class TestBuildCorrelations:
    def test_decoupled_chain(self):
        g, h = correlation_vectors(4, 0.0)
        np.testing.assert_allclose(g, [0.5, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(h, [0.5, 0, 0, 0], atol=1e-15)

    def test_frozen_mode_sums(self):
        g, h = correlation_vectors(4, 0.9)
        assert g[0] == pytest.approx(0.7359692387847989, abs=1e-12)
        assert g[1] == pytest.approx(0.3046001762572960, abs=1e-12)
        assert h[0] == pytest.approx(0.4618290801532325, abs=1e-12)

    def test_matches_plain_python_sums(self):
        g, h = correlation_vectors(6, 0.7)
        g_ref, h_ref = brute_force_correlators(6, 0.7)
        np.testing.assert_allclose(g, g_ref, atol=1e-13)
        np.testing.assert_allclose(h, h_ref, atol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_virial_identity_random_draws(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = 2 * int(rng.integers(2, 80))
            alpha = float(rng.uniform(0.0, 1.0 - 1e-9))
            g, h = correlation_vectors(n, alpha)
            assert abs(h[0] - (g[0] - alpha * g[1])) < 1e-12

    @pytest.mark.parametrize("n", [4, 10, 100, 400])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, A1, A4])
    def test_matches_cosine_table(self, n, alpha):
        # The table's round-off grows like N eps; the FFT's is smaller.
        g, h = correlation_vectors(n, alpha)
        g_ref, h_ref = cosine_table_correlators(n, alpha)
        tol = 2e-16 * n * g_ref[0]
        assert np.abs(g - g_ref).max() <= tol
        assert np.abs(h - h_ref).max() <= tol

    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("alpha", [0.3, A1, A4])
    def test_no_less_accurate_than_cosine_table(self, n, alpha):
        # 50-digit sums from scripts/high_precision_correlators.py, r = 0..N/2;
        # errors are taken exactly, so the table's last digits are not lost.
        with open(DATA / f"correlators_n{n}.csv") as f:
            rows = [row for row in csv.DictReader(f) if float(row["alpha"]) == alpha]
        assert [int(row["r"]) for row in rows] == list(range(n // 2 + 1))

        def worst_error(vectors):
            return max(abs(Fraction(float(vec[int(row["r"])])) - Fraction(row[name]))
                       for row in rows for name, vec in zip("gh", vectors))

        assert worst_error(correlation_vectors(n, alpha)) <= worst_error(cosine_table_correlators(n, alpha))

    @pytest.mark.parametrize("n", [2, 4, 10, 100, 400])
    @pytest.mark.parametrize("alpha", [0.3, 0.95, A4])
    def test_reflection_symmetry_is_exact(self, n, alpha):
        g, h = correlation_vectors(n, alpha)
        assert g.shape == h.shape == (n,)
        np.testing.assert_array_equal(g[1:], g[1:][::-1])
        np.testing.assert_array_equal(h[1:], h[1:][::-1])

    def test_memoised_vectors_are_read_only(self):
        g, h = correlation_vectors(12, 0.9)
        g_ref, h_ref = g.copy(), h.copy()
        with pytest.raises(ValueError):
            g[0] = 0.0
        with pytest.raises(ValueError):
            h += 1.0
        again = correlation_vectors(12, 0.9)
        correlation_vectors.cache_clear()
        fresh = correlation_vectors(12, 0.9)
        for g_got, h_got in (again, fresh):
            np.testing.assert_array_equal(g_got, g_ref)
            np.testing.assert_array_equal(h_got, h_ref)

    def test_two_site_ring_for_oracles(self):
        g, h = correlation_vectors(2, 0.9)
        wp, wm = math.sqrt(0.1), math.sqrt(1.9)
        assert g[0] == pytest.approx((1 / wp + 1 / wm) / 4, abs=1e-12)
        assert g[1] == pytest.approx((1 / wp - 1 / wm) / 4, abs=1e-12)
        assert h[0] == pytest.approx((wp + wm) / 4, abs=1e-12)


class TestCorrelationSubmatrices:
    @pytest.mark.parametrize("n,alpha", [(4, 0.0), (4, 0.9), (10, 0.99), (100, A4)])
    def test_full_blocks_are_inverse_pair(self, n, alpha):
        params = ChainParams(n_sites=n, alpha=alpha)
        sites = list(range(n))
        g_block, h_block = correlation_submatrices(params, sites, sites)
        np.testing.assert_allclose(g_block @ h_block, np.eye(n) / 4, atol=1e-10)

    def test_single_pair_entry(self):
        params = ChainParams(n_sites=4, alpha=0.9)
        g_block, _ = correlation_submatrices(params, [0], [1])
        assert g_block[0, 0] == pytest.approx(0.3046001762572960, abs=1e-12)

    def test_decoupled_identity_block(self):
        params = ChainParams(n_sites=4, alpha=0.0)
        g_block, _ = correlation_submatrices(params, [0, 1], [0, 1])
        np.testing.assert_allclose(g_block, 0.5 * np.eye(2), atol=1e-15)

    def test_out_of_range_site(self):
        params = ChainParams(n_sites=4, alpha=0.9)
        with pytest.raises(ValueError):
            correlation_submatrices(params, [0, 4], [0])

    @pytest.mark.parametrize("rows,cols,first", [
        ([0, 5, -1], [0, 6], 5),  # out-of-range row, rows checked before columns
        ([0, 1], [2, -3, 7], -3),  # out-of-range column
    ])
    def test_error_names_first_out_of_range_index(self, rows, cols, first):
        params = ChainParams(n_sites=4, alpha=0.9)
        with pytest.raises(ValueError, match=rf"^site index {first} out of range for N=4$"):
            correlation_submatrices(params, rows, cols)

    @pytest.mark.parametrize("site", [1.7, 0.5])
    def test_non_integral_site_rejected(self, site):
        # An int cast would truncate the site to 1 or 0 and return that site's block.
        params = ChainParams(n_sites=10, alpha=0.9)
        for rows, cols in (([site], [3]), ([3], [site]), ([0, 2, site], [1, site])):
            with pytest.raises(ValueError, match=f"^site {site} is not an integer$"):
                correlation_submatrices(params, rows, cols)

    @pytest.mark.parametrize("site", [2.0, np.int64(2)])
    def test_integral_site_accepted(self, site):
        params = ChainParams(n_sites=10, alpha=0.9)
        got = correlation_submatrices(params, [site, 5], [0, site])
        want = correlation_submatrices(params, [2, 5], [0, 2])
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestGroundCovariance:
    def test_decoupled_vacuum(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.0))
        np.testing.assert_allclose(v.matrix, 0.5 * np.eye(8), atol=1e-15)

    def test_frozen_cross_entry(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.9))
        assert v.matrix[0, 2] == pytest.approx(0.3046001762572960, abs=1e-12)
        assert v.matrix[0, 1] == 0.0

    @pytest.mark.parametrize("n,alpha", [(4, 0.9), (10, 0.5), (100, A4)])
    def test_ground_state_is_pure(self, n, alpha):
        v = ground_covariance(ChainParams(n_sites=n, alpha=alpha))
        nu = symplectic_eigenvalues(v)
        np.testing.assert_allclose(nu, 0.5, atol=1e-9)

    def test_traced_peak(self, traced_peak):
        # The G and H tables and their two symmetrized copies; a temporary per sector would make it five.
        n = 400
        assert traced_peak(ground_covariance, ChainParams(n_sites=n, alpha=0.9)) <= 4.3 * n * n * 8
