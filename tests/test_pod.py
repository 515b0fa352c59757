import numpy as np
import pytest

from ddrom.pod import (
    PodBasis,
    compute_basis,
    energy_rank,
    retained_energy,
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
        assert retained_energy(sv, 2) == pytest.approx(13.0 / 14.0)

    def test_energy_rank_smallest_sufficient(self):
        sv = np.array([3.0, 2.0, 1.0])
        assert energy_rank(sv, 0.5) == 1
        assert energy_rank(sv, 0.92) == 2  # cumulative 13/14 just clears it
        assert energy_rank(sv, 1.0) == 3

    def test_energy_rank_exact_boundary(self):
        sv = np.array([1.0, 1.0])
        assert energy_rank(sv, 0.5) == 1


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


def test_pod_basis_validates_orthonormality():
    bad = np.ones((4, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        PodBasis(basis=bad, singular_values=np.array([2.0, 1.0]))
