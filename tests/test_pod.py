import numpy as np
import pytest
import scipy.linalg as la

from ddrom import pod
from ddrom.fomlab import FomSpec, simulate
from ddrom.pod import (
    PodBasis,
    compute_basis,
    energy_rank,
    retained_energy,
    singular_spectrum,
)


def planted_matrix(rows, cols, sigma, seed=0):
    """Matrix with a prescribed singular spectrum."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    w, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    return u @ np.diag(sigma) @ w.T


class TestMethodOfSnapshots:
    def test_matches_direct_svd(self):
        sigma = np.geomspace(100.0, 1e-4, 12)
        m = planted_matrix(60, 12, sigma, seed=3)
        r = 5
        snap = compute_basis(m, r=r, method="snapshots")
        u, s, _ = la.svd(m, full_matrices=False)
        np.testing.assert_allclose(snap.singular_values[:r], s[:r], rtol=1e-10)
        # projectors agree even if individual modes could differ by sign
        p_snap = snap.basis @ snap.basis.T
        p_svd = u[:, :r] @ u[:, :r].T
        assert np.abs(p_snap - p_svd).max() <= 1e-8

    def test_block_size_does_not_change_the_answer(self, monkeypatch):
        m = planted_matrix(40, 17, np.geomspace(5.0, 1e-2, 17), seed=4)
        a = compute_basis(m, r=6, method="snapshots")
        monkeypatch.setattr(pod, "GRAM_BLOCK", 3)
        b = compute_basis(m, r=6, method="snapshots")
        np.testing.assert_allclose(a.basis, b.basis, atol=1e-10)
        np.testing.assert_allclose(a.singular_values, b.singular_values,
                                   rtol=1e-10)

    def test_rank_guard(self):
        m = np.outer(np.arange(1.0, 9.0), np.ones(4))  # rank one
        with pytest.raises(ValueError, match="numerical rank"):
            compute_basis(m, r=3, method="snapshots")

    def test_gram_route_handles_many_rows(self, monkeypatch):
        # the selling point: only cols x cols products are ever formed
        m = planted_matrix(500, 10, np.geomspace(1.0, 1e-3, 10), seed=5)
        monkeypatch.setattr(pod, "GRAM_BLOCK", 4)
        basis = compute_basis(m, r=4, method="snapshots")
        np.testing.assert_allclose(basis.basis.T @ basis.basis, np.eye(4),
                                   atol=1e-10)


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

    def test_methods_agree(self):
        m = planted_matrix(45, 9, np.geomspace(8.0, 1e-2, 9), seed=9)
        a = compute_basis(m, r=4, method="svd")
        b = compute_basis(m, r=4, method="snapshots")
        assert np.abs(a.basis @ a.basis.T - b.basis @ b.basis.T).max() <= 1e-8

    def test_sign_convention(self):
        m = np.random.default_rng(2).standard_normal((25, 6))
        for method in ("svd", "snapshots"):
            u = compute_basis(m, r=6, method=method).basis
            lead = np.abs(u).argmax(axis=0)
            assert np.all(u[lead, np.arange(6)] > 0.0), method

    @pytest.mark.parametrize("method", ["svd", "snapshots"])
    def test_both_routes_refuse_the_same_ranks(self, method):
        m = planted_matrix(20, 5, np.geomspace(1, 0.1, 5))
        for r in (0, 6):
            with pytest.raises(ValueError, match=r"^r must lie in \[1, 5\]$"):
                compute_basis(m, r=r, method=method)
        rank_one = np.zeros((8, 4))
        rank_one[:, 1] = np.arange(1.0, 9.0)  # an exact Gram matrix, too
        with pytest.raises(ValueError,
                           match=r"^requested r=2 exceeds the numerical rank$"):
            compute_basis(rank_one, r=2, method=method)


def test_singular_spectrum_routes_agree():
    m = planted_matrix(35, 11, np.geomspace(2.0, 1e-3, 11), seed=15)
    a = singular_spectrum(m, method="svd")
    b = singular_spectrum(m, method="snapshots")
    np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("call", [
    lambda m: compute_basis(m, energy=0.999, method="snapshots"),
    lambda m: compute_basis(m, r=3, method="snapshots"),
    lambda m: singular_spectrum(m, method="snapshots"),
], ids=["energy", "rank", "spectrum"])
def test_gram_route_solves_one_eigenproblem(call, monkeypatch):
    eigh, calls = pod.la.eigh, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(pod.la, "eigh", counted)
    call(planted_matrix(30, 8, np.geomspace(3.0, 1e-3, 8), seed=16))
    assert calls == [(8, 8)]


def test_pod_basis_validates_orthonormality():
    bad = np.ones((4, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        PodBasis(basis=bad, singular_values=np.array([2.0, 1.0]))


def test_gram_route_names_its_loss_of_orthonormality():
    """The README Burgers snapshots, unscaled: the Gram route keeps r = 5
    orthonormal and refuses r = 6 by name, pointing to the SVD route."""
    data = simulate(FomSpec(kind="burgers", n_x=64, nu=0.02, dt=1e-4,
                            n_steps=3000, stride=100)).data
    assert compute_basis(data, r=5, method="snapshots").r == 5
    with pytest.raises(ValueError, match=r"lost orthonormality at r=6 "
                       r"\(sigma_r/sigma_1 = 9\.\d+e-05\); use \[pod\] method = svd"):
        compute_basis(data, r=6, method="snapshots")
    assert compute_basis(data, r=6, method="svd").r == 6
