import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddrom.pod import (
    PodBasis,
    compute_basis,
    cumulative_energy,
    energy_rank,
    singular_spectrum,
)


def planted_matrix(rows, cols, sigma, seed=0):
    """Matrix with a prescribed singular spectrum."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    w, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    return u @ np.diag(sigma) @ w.T


class TestEnergy:
    def test_retained_energy_is_cumulative_sigma_squared(self):
        sv = np.array([3.0, 2.0, 1.0])
        assert cumulative_energy(sv)[2 - 1] == pytest.approx(13.0 / 14.0)

    def test_energy_rank_smallest_sufficient(self):
        sv = np.array([3.0, 2.0, 1.0])
        assert energy_rank(sv, 0.5) == 1
        assert energy_rank(sv, 0.92) == 2  # cumulative 13/14 just clears it
        assert energy_rank(sv, 1.0) == 3

    def test_energy_rank_exact_boundary(self):
        sv = np.array([1.0, 1.0])
        assert energy_rank(sv, 0.5) == 1

    def test_all_zero_spectrum_reads_zeros_and_has_no_rank(self):
        np.testing.assert_array_equal(cumulative_energy(np.zeros(3)), np.zeros(3))
        with pytest.raises(ValueError, match="all-zero spectrum"):
            energy_rank(np.zeros(3), 0.5)

    @given(
        sv=hnp.arrays(np.float64, st.integers(1, 300),
                      elements=st.floats(0.0, 1e100)).filter(lambda sv: any(sv**2)),
        energy=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_energy_rank_stays_within_the_spectrum(self, sv, energy):
        # the whole spectrum keeps exactly 1.0, so no target in (0, 1]
        # asks for more modes than there are values
        assert cumulative_energy(sv)[-1] == 1.0
        assert 1 <= energy_rank(sv, energy) <= sv.size

    def test_full_energy_keeps_every_mode_of_a_full_rank_matrix(self):
        # 200 jittered, decaying values whose cumsum and pairwise sum of
        # squares differ by more than the 1e-15 slack: dividing by the sum
        # left the cumulative energy below 1 and asked for mode 201
        cols = 200
        jitter = np.random.default_rng(28).uniform(0.5, 1.5, cols)
        sigma = np.sort(np.geomspace(1.0, 1e-3, cols) * jitter)[::-1]
        m = planted_matrix(400, cols, sigma, seed=28)
        assert compute_basis(m, energy=1.0).r == cols


class TestComputeBasis:
    def test_exactly_one_selector(self):
        m = planted_matrix(20, 5, np.geomspace(1, 0.1, 5))
        with pytest.raises(ValueError, match="exactly one"):
            compute_basis(m, r=2, energy=0.9)
        with pytest.raises(ValueError, match="exactly one"):
            compute_basis(m)

    def test_energy_target(self):
        sigma = np.array([10.0, 1.0, 0.1, 0.01])
        m = planted_matrix(30, 4, sigma, seed=6)
        basis = compute_basis(m, energy=0.99)
        assert basis.r == 1  # 100/101.0101 > 0.99 already

    def test_truncation_error_equals_tail_energy(self):
        sigma = np.geomspace(10.0, 1e-3, 9)
        m = planted_matrix(50, 9, sigma, seed=7)
        basis = compute_basis(m, r=4)
        resid = m - basis.basis @ (basis.basis.T @ m)
        tail = np.sum(sigma[4:] ** 2)
        assert np.linalg.norm(resid) ** 2 == pytest.approx(tail, rel=1e-8)

    def test_wide_matrix_is_fine(self):
        # more columns than rows: modes limited by the row count
        m = planted_matrix(90, 6, np.geomspace(1, 0.01, 6), seed=8).T
        basis = compute_basis(m, r=3)
        assert basis.basis.shape == (6, 3)

    def test_sign_convention(self):
        m = np.random.default_rng(2).standard_normal((25, 6))
        u = compute_basis(m, r=6).basis
        lead = np.abs(u).argmax(axis=0)
        assert np.all(u[lead, np.arange(6)] > 0.0)

    def test_refuses_r_out_of_range_or_beyond_rank(self):
        m = planted_matrix(20, 5, np.geomspace(1, 0.1, 5))
        for r in (0, 6):
            with pytest.raises(ValueError, match=r"^r must lie in \[1, 5\]$"):
                compute_basis(m, r=r)
        rank_one = np.zeros((8, 4))
        rank_one[:, 1] = np.arange(1.0, 9.0)
        with pytest.raises(ValueError,
                           match=r"^requested r=2 exceeds the numerical rank$"):
            compute_basis(rank_one, r=2)


class TestRSvdAgainstThinSvd:
    """The QR-then-SVD-of-R route against ``la.svd`` of the whole matrix."""

    SHAPES = {"tall": (60, 9), "square": (9, 9), "wide": (9, 60)}
    # ranks below, equal to and not a multiple of the QR block size (32),
    # tall and wide
    BLOCK_SHAPES = {"70x5": (70, 5), "64x32": (64, 32), "200x45": (200, 45),
                    "45x200": (45, 200)}
    ALL_SHAPES = {**SHAPES, **BLOCK_SHAPES}

    @staticmethod
    def oracle(m, r):
        u, sigma, _ = la.svd(m, full_matrices=False)
        u = u[:, :r]
        lead = np.abs(u).argmax(axis=0)
        u = u * np.sign(u[lead, np.arange(r)])
        return u, sigma

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("select", [{"r": 5}, {"energy": 0.9995}])
    def test_spectrum_projector_and_coordinates(self, shape, select):
        rows, cols = self.SHAPES[shape]
        k = min(rows, cols)
        m = planted_matrix(max(rows, cols), k, np.geomspace(10.0, 1e-3, k),
                           seed=11)
        m = m if rows >= cols else m.T
        basis = compute_basis(m, **select)
        r = basis.r
        u, sigma = self.oracle(m, r)
        if "energy" in select:
            # sigma_j^2 falls tenfold per mode: three modes keep 0.9990
            # of the energy, four 0.99990
            assert r == energy_rank(sigma, 0.9995) == 4
        assert basis.basis.shape == (rows, r)
        assert np.abs(basis.singular_values - sigma).max() <= 1e-14 * sigma[0]
        gap = np.abs(basis.basis @ basis.basis.T - u @ u.T).max()
        assert gap <= 1e-12
        np.testing.assert_allclose(basis.basis, u, rtol=0, atol=1e-12)
        want = u.T @ m
        assert basis.coordinates.shape == (r, cols)
        assert np.abs(basis.coordinates - want).max() <= 1e-13 * sigma[0]
        np.testing.assert_allclose(basis.coordinates, basis.basis.T @ m,
                                   rtol=0, atol=1e-13 * sigma[0])

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_every_mode_against_thin_svd_around_the_qr_block_size(self, shape):
        rows, cols = self.BLOCK_SHAPES[shape]
        k = min(rows, cols)
        m = planted_matrix(max(rows, cols), k, np.geomspace(10.0, 0.1, k),
                           seed=15)
        m = m if rows >= cols else m.T
        basis = compute_basis(m, r=k)
        u, sigma = self.oracle(m, k)
        assert np.abs(basis.singular_values - sigma).max() <= 1e-14 * sigma[0]
        assert np.abs(basis.basis @ basis.basis.T - u @ u.T).max() <= 1e-12
        np.testing.assert_allclose(basis.basis, u, rtol=0, atol=1e-12)
        assert np.abs(basis.coordinates - u.T @ m).max() <= 1e-13 * sigma[0]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rank_deficient_input_is_refused(self, shape):
        rows, cols = self.SHAPES[shape]
        k = min(rows, cols)
        sigma = np.concatenate([np.geomspace(1.0, 0.1, 3), np.zeros(k - 3)])
        m = planted_matrix(max(rows, cols), k, sigma, seed=12)
        m = m if rows >= cols else m.T
        assert compute_basis(m, r=3).r == 3
        with pytest.raises(ValueError,
                           match=r"^requested r=4 exceeds the numerical rank$"):
            compute_basis(m, r=4)
        # an energy target stops at the rank
        assert compute_basis(m, energy=1.0).r == 3

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_m_is_kept_unless_given_up(self, shape, order):
        rows, cols = self.ALL_SHAPES[shape]
        m = np.array(np.random.default_rng(13).standard_normal((rows, cols)),
                     order=order)
        before = m.copy(order="K")
        kept = compute_basis(m, r=3)
        np.testing.assert_array_equal(m, before)
        given_up = compute_basis(m, r=3, overwrite_m=True)
        # the same factorization of the same values, in place or not
        np.testing.assert_array_equal(given_up.basis, kept.basis)
        np.testing.assert_array_equal(given_up.coordinates, kept.coordinates)
        # only a float64 column-major matrix is factored in place
        assert np.array_equal(m, before) == (order == "C")

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_spectrum_alone_is_the_stored_one(self, shape):
        rows, cols = self.ALL_SHAPES[shape]
        m = np.asfortranarray(
            np.random.default_rng(14).standard_normal((rows, cols)))
        before = m.copy(order="K")
        stored = compute_basis(m, r=3).singular_values
        np.testing.assert_array_equal(singular_spectrum(m), stored)
        np.testing.assert_array_equal(m, before)
        np.testing.assert_array_equal(singular_spectrum(m, overwrite_m=True),
                                      stored)
        assert not np.array_equal(m, before)  # factored in place
        with pytest.raises(ValueError, match="^an empty matrix has no modes$"):
            singular_spectrum(np.zeros((0, cols)))

    def test_a_stored_basis_has_no_coordinates(self):
        basis = PodBasis(basis=np.eye(3)[:, :2], singular_values=np.ones(2))
        assert basis.coordinates is None
        with pytest.raises(ValueError, match="one row of coordinates per mode"):
            PodBasis(basis=np.eye(3)[:, :2], singular_values=np.ones(2),
                     coordinates=np.ones((3, 4)))


def test_pod_basis_validates_orthonormality():
    bad = np.ones((4, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        PodBasis(basis=bad, singular_values=np.array([2.0, 1.0]))
