import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetchain import (
    ChainParams,
    CovarianceMatrix,
    MeasurementSpec,
    NumericsError,
    ground_covariance,
    log_negativity,
    mutual_information,
    partial_transpose,
    post_measurement_covariance,
    reduce,
    symplectic_eigenvalues,
    von_neumann_entropy,
)

A4 = 1.0 - 1e-7

# Independent evaluations frozen from the N=4, alpha=0.9 mode sums.
G0 = 0.7359692387847989
H0 = 0.4618290801532325
NU_SITE = 0.5830025699506465       # sqrt(G0 * H0)
F_NU_SITE = 0.2929394893388816     # entropy term at NU_SITE
F_ONE = 0.9547712524422192         # 1.5 ln 1.5 - 0.5 ln 0.5


def vacuum(n_modes):
    return CovarianceMatrix(0.5 * np.eye(n_modes), 0.5 * np.eye(n_modes))


def interleaved_symplectic_eigenvalues(m):
    """Slow reference: square roots of the eigenvalues of -(Omega V)^2, paired.

    Works on the interleaved 2n x 2n matrix and needs no q-p structure.
    """
    n = m.shape[0] // 2
    omega = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    a = omega @ m
    ev = np.sort(np.linalg.eigvals(-(a @ a)).real)
    nu = np.sqrt(np.clip(ev, 0.0, None))
    return (nu[0::2] + nu[1::2]) / 2


def assert_matches_interleaved(nu, m):
    """nu against the slow reference, at the reference's own accuracy.

    The eigenvalues of -(Omega V)^2 carry absolute round-off of order
    eps ||V||^2, which is large relative to nu^2 for strongly squeezed or
    partially transposed states, so nu^2 is compared with that floor.
    """
    ref = interleaved_symplectic_eigenvalues(m)
    floor = 1e-12 * np.abs(m).sum(axis=1).max() ** 2
    np.testing.assert_allclose(nu**2, ref**2, rtol=1e-9, atol=floor)


@st.composite
def physical_states(draw):
    """(Q, P, nu, flips) with Q = A diag(nu) A^T and P = A^-T diag(nu) A^-1.

    A = U diag(s) W with orthogonal U, W and s in [0.2, 5], so cond(A) <= 25;
    flips marks the modes of a random partial-transpose subset.
    """
    n = draw(st.integers(1, 6))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    nu = np.array(draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n)))
    s = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n)))
    u, _ = np.linalg.qr(np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n))
    w, _ = np.linalg.qr(np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n))
    a = u @ np.diag(s) @ w
    a_inv = w.T @ np.diag(1.0 / s) @ u.T
    q = a @ np.diag(nu) @ a.T
    p = a_inv.T @ np.diag(nu) @ a_inv
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (q + q.T) / 2, (p + p.T) / 2, np.sort(nu), [j for j in range(n) if flips[j]]


class TestCovarianceMatrix:
    def test_rejects_mismatched_blocks(self):
        for q_shape, p_shape in (((2, 2), (3, 3)), ((2, 3), (2, 3)), ((2,), (2,))):
            with pytest.raises(ValueError, match="square of equal size"):
                CovarianceMatrix(np.ones(q_shape), np.ones(p_shape))

    def test_rejects_asymmetric_sector_entry(self):
        q = 0.5 * np.eye(2)
        q[1, 0] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(0.5 * np.eye(2), q)

    def test_blocks_are_read_only_copies(self):
        q, p = np.array([[1.0, 0.2], [0.2, 1.0]]), 0.5 * np.eye(2)
        state = CovarianceMatrix(q, p)
        with pytest.raises(ValueError):
            state.q[0, 0] = 5.0
        with pytest.raises(ValueError):
            state.p[1, 1] = 5.0
        q[0, 0] = 5.0
        assert state.q[0, 0] == 1.0


class TestSymplecticEigenvalues:
    def test_vacuum_is_exact(self):
        assert np.all(symplectic_eigenvalues(vacuum(3)) == 0.5)

    def test_single_mode_squeezed_form(self):
        v = CovarianceMatrix([[2.0]], [[0.25]])
        assert symplectic_eigenvalues(v)[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_ground_state_purity(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.9))
        np.testing.assert_allclose(symplectic_eigenvalues(v), 0.5, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(physical_states())
    def test_known_spectrum_and_interleaved_reference(self, state):
        q, p, nu, flips = state
        v = CovarianceMatrix(q, p)
        got = symplectic_eigenvalues(v)
        np.testing.assert_allclose(got, nu, rtol=1e-9)
        assert_matches_interleaved(got, v.matrix)
        # The partial transpose is the interleaved momentum sign flip, and
        # its (possibly sub-1/2) spectrum matches the interleaved route too.
        flipped = v.matrix.copy()
        rows = [2 * j + 1 for j in flips]
        flipped[rows, :] *= -1.0
        flipped[:, rows] *= -1.0
        pt = partial_transpose(v, flips)
        np.testing.assert_array_equal(pt.matrix, flipped)
        assert_matches_interleaved(symplectic_eigenvalues(pt), flipped)


class TestReduce:
    def test_full_set_is_identity(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.9))
        np.testing.assert_array_equal(reduce(v, range(4)).matrix, v.matrix)

    def test_vacuum_subset(self):
        np.testing.assert_array_equal(reduce(vacuum(4), [1, 3]).matrix, 0.5 * np.eye(4))

    def test_single_site_block(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.9))
        got = reduce(v, [0]).matrix
        np.testing.assert_allclose(got, [[G0, 0.0], [0.0, H0]], atol=1e-12)

    def test_empty_and_duplicate_subsets(self):
        v = vacuum(3)
        with pytest.raises(ValueError):
            reduce(v, [])
        with pytest.raises(ValueError):
            reduce(v, [1, 1])


class TestPartialTranspose:
    def test_empty_subset_is_noop(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.9))
        np.testing.assert_array_equal(partial_transpose(v, []).matrix, v.matrix)

    def test_involution_is_exact(self):
        v = ground_covariance(ChainParams(n_sites=6, alpha=0.8))
        twice = partial_transpose(partial_transpose(v, [1, 4]), [1, 4])
        np.testing.assert_array_equal(twice.matrix, v.matrix)

    def test_ground_state_half_chain_is_entangled(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.9))
        nu = symplectic_eigenvalues(partial_transpose(v, [2, 3]))
        assert nu.min() < 0.5

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            partial_transpose(vacuum(2), [2])


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        assert log_negativity(vacuum(4), [0, 1]) == 0.0

    def test_distant_site_pairs_unentangled(self):
        # Single-site pairs at separation >= 1 carry no two-site
        # entanglement in the ground state, even at criticality.
        v = ground_covariance(ChainParams(n_sites=100, alpha=A4))
        for d in (1, 2, 5, 20):
            pair = reduce(v, [0, d + 1])
            assert log_negativity(pair, [1]) < 1e-10

    def test_adjacent_pair_entangled(self):
        v = ground_covariance(ChainParams(n_sites=100, alpha=0.9))
        assert log_negativity(reduce(v, [0, 1]), [1]) > 0.01

    def test_nonnegative_and_no_negative_zero(self):
        value = log_negativity(vacuum(2), [1])
        assert value == 0.0 and str(value) == "0.0"


class TestVonNeumannEntropy:
    def test_pure_state_has_zero_entropy(self):
        assert von_neumann_entropy(vacuum(5)) == 0.0

    def test_frozen_kernel_value(self):
        v = CovarianceMatrix([[1.0]], [[1.0]])
        assert von_neumann_entropy(v) == pytest.approx(F_ONE, abs=1e-12)

    def test_single_site_of_coupled_chain(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.9))
        assert von_neumann_entropy(reduce(v, [0])) == pytest.approx(F_NU_SITE, abs=1e-12)

    def test_unphysical_state_rejected(self):
        with pytest.raises(NumericsError):
            von_neumann_entropy(CovarianceMatrix([[0.4]], [[0.4]]))

    def test_mode_permutation_invariance(self):
        v = ground_covariance(ChainParams(n_sites=6, alpha=0.9))
        a = von_neumann_entropy(reduce(v, [0, 2, 3]))
        b = von_neumann_entropy(reduce(v, [3, 0, 2]))
        assert a == pytest.approx(b, abs=1e-10)


class TestMutualInformation:
    def test_product_vacuum(self):
        assert abs(mutual_information(vacuum(4), [0, 1], [2, 3])) < 1e-12

    def test_pure_state_doubles_marginal_entropy(self):
        v = ground_covariance(ChainParams(n_sites=4, alpha=0.9))
        s_m = mutual_information(v, [0, 1], [2, 3])
        s_a = von_neumann_entropy(reduce(v, [0, 1]))
        assert s_m == pytest.approx(2.0 * s_a, abs=1e-8)

    def test_symmetry_in_the_arguments(self):
        v = ground_covariance(ChainParams(n_sites=6, alpha=0.95))
        assert mutual_information(v, [0], [3]) == pytest.approx(
            mutual_information(v, [3], [0]), abs=1e-12
        )

    def test_overlapping_subsets_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(vacuum(3), [0, 1], [1, 2])

    def test_ground_state_correlations_decay_with_distance(self):
        # The information the measurement converts to classical data decays
        # monotonically with separation (the post-measurement pair state is
        # a product, so the drop equals the ground-state value).
        params = ChainParams(n_sites=100, alpha=A4)
        v0 = ground_covariance(params)
        vm = post_measurement_covariance(params, MeasurementSpec((0,)))
        values = [mutual_information(v0, [0], [d + 1]) for d in range(8)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert abs(mutual_information(vm, [0], [3])) < 1e-10
