"""Proper orthogonal decomposition of snapshot matrices.

Two routes to the same basis: a thin SVD of the snapshot matrix, and the
method of snapshots, which works from the much smaller Gram matrix of the
columns and never factorizes the full matrix.  Both apply the same sign
convention (the largest-magnitude entry of every mode is positive) so
results are comparable across routes and runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

__all__ = [
    "PodBasis",
    "method_of_snapshots",
    "retained_energy",
    "energy_rank",
    "singular_spectrum",
    "compute_basis",
]

RANK_RTOL = 1e-12  # modes with sigma_j <= RANK_RTOL * sigma_1 are unusable
ORTHO_TOL = 1e-10
GRAM_BLOCK = 64  # columns per block of the accumulated Gram matrix


@dataclass
class PodBasis:
    """Orthonormal spatial modes for one subdomain.

    basis has shape (rows, r); singular_values holds the full computed
    spectrum (descending), of which the first r belong to the retained
    modes.
    """

    basis: np.ndarray
    singular_values: np.ndarray
    subdomain_id: int = 0

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        sv = np.asarray(self.singular_values, dtype=np.float64)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D matrix")
        if sv.ndim != 1 or sv.size < basis.shape[1]:
            raise ValueError("need at least one singular value per mode")
        if not np.all(np.isfinite(sv)):
            raise ValueError("non-finite singular values")
        if np.any(sv < 0.0) or np.any(np.diff(sv) > 0.0):
            raise ValueError("singular values must be nonnegative and descending")
        if basis.shape[1] > basis.shape[0]:
            raise ValueError("more modes than rows")
        problem = _orthonormality_problem(basis)
        if problem:
            raise ValueError(problem)
        self.basis = basis
        self.singular_values = sv

    @property
    def r(self) -> int:
        return self.basis.shape[1]

    @property
    def rows(self) -> int:
        return self.basis.shape[0]


def _orthonormality_problem(basis: np.ndarray) -> str | None:
    """Why the columns of ``basis`` are not orthonormal, or None if they are."""
    # entries of unit columns are at most 1 in magnitude; checked first so
    # a non-finite or huge entry cannot reach (or overflow) the product
    if not np.all(np.abs(basis) <= 1.0 + ORTHO_TOL):
        return "basis entries must be finite and at most 1 in magnitude"
    gram = basis.T @ basis
    if np.abs(gram - np.eye(basis.shape[1])).max() > ORTHO_TOL:
        return "basis columns are not orthonormal"
    return None


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Flip mode signs so each column's largest-magnitude entry is positive."""
    cols = np.arange(u.shape[1])
    lead = np.abs(u).argmax(axis=0)
    signs = np.sign(u[lead, cols])
    signs[signs == 0.0] = 1.0
    return u * signs


def _gram_eigen(m: np.ndarray):
    """Singular values (descending) and right singular vectors of ``m`` from
    the eigendecomposition of its column Gram matrix.

    The Gram matrix M^T M is accumulated block against block
    (``GRAM_BLOCK`` columns at a time) so no product of the full matrix with
    itself is ever formed in one piece.
    """
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    q = m.shape[1]
    gram = np.empty((q, q))
    for a in range(0, q, GRAM_BLOCK):
        aa = slice(a, min(a + GRAM_BLOCK, q))
        for b in range(a, q, GRAM_BLOCK):
            bb = slice(b, min(b + GRAM_BLOCK, q))
            g = m[:, aa].T @ m[:, bb]
            gram[aa, bb] = g
            if b > a:
                gram[bb, aa] = g.T

    evals, evecs = la.eigh(gram)
    order = np.argsort(evals)[::-1]
    return np.sqrt(np.clip(evals[order], 0.0, None)), evecs[:, order]


def _gram_modes(m: np.ndarray, sigma, evecs, r: int) -> PodBasis:
    """Leading r modes M w_j / sigma_j from a Gram eigendecomposition."""
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"r must lie in [1, {min(m.shape)}]")
    if sigma[0] == 0.0 or sigma[r - 1] <= RANK_RTOL * sigma[0]:
        raise ValueError(f"requested r={r} exceeds the numerical rank")
    basis = _fix_signs(m @ (evecs[:, :r] / sigma[:r]))
    # the Gram matrix squares the spectrum's condition number, so modes of
    # small sigma_j / sigma_1 come out of M w_j / sigma_j no longer
    # orthogonal; the SVD route does not square it
    if _orthonormality_problem(basis):
        raise ValueError(
            f"method of snapshots lost orthonormality at r={r} "
            f"(sigma_r/sigma_1 = {sigma[r - 1] / sigma[0]:.3e}); "
            "use [pod] method = svd"
        )
    return PodBasis(basis=basis, singular_values=sigma)


def method_of_snapshots(m: np.ndarray, r: int) -> PodBasis:
    """Leading r modes via the eigendecomposition of the column Gram matrix;
    modes come out as M w_j / sigma_j."""
    m = np.asarray(m, dtype=np.float64)
    return _gram_modes(m, *_gram_eigen(m), r)


def retained_energy(singular_values: np.ndarray, r: int) -> float:
    """Fraction of squared-singular-value energy kept by the first r modes."""
    sv = np.asarray(singular_values, dtype=np.float64)
    if not 0 <= r <= sv.size:
        raise ValueError("r out of range")
    total = float(np.sum(sv**2))
    if total == 0.0:
        raise ValueError("all-zero spectrum has no energy to retain")
    return float(np.sum(sv[:r] ** 2) / total)


def energy_rank(singular_values: np.ndarray, energy: float) -> int:
    """Smallest r whose retained energy reaches ``energy``."""
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy target must lie in (0, 1]")
    sv = np.asarray(singular_values, dtype=np.float64)
    total = float(np.sum(sv**2))
    if total == 0.0:
        raise ValueError("all-zero spectrum has no energy to retain")
    cum = np.cumsum(sv**2) / total
    return int(np.searchsorted(cum, energy - 1e-15) + 1)


def singular_spectrum(m: np.ndarray, method: str = "svd") -> np.ndarray:
    """Full singular-value spectrum of a snapshot matrix, by either route."""
    m = np.asarray(m, dtype=np.float64)
    if method == "svd":
        return la.svd(m, compute_uv=False)
    if method != "snapshots":
        raise ValueError(f"unknown method {method!r}")
    return _gram_eigen(m)[0]


def compute_basis(
    m: np.ndarray,
    r: int | None = None,
    energy: float | None = None,
    method: str = "svd",
    subdomain_id: int = 0,
) -> PodBasis:
    """Basis of a snapshot matrix by mode count or energy target.

    Exactly one of ``r`` and ``energy`` must be given.  ``method`` selects
    the SVD route or the Gram-matrix route ("snapshots").
    """
    if (r is None) == (energy is None):
        raise ValueError("give exactly one of r and energy")
    if method not in ("svd", "snapshots"):
        raise ValueError(f"unknown method {method!r}")
    m = np.asarray(m, dtype=np.float64)

    if method == "snapshots":
        sigma, evecs = _gram_eigen(m)
        if r is None:
            r = energy_rank(sigma, energy)
        out = _gram_modes(m, sigma, evecs, r)
        out.subdomain_id = subdomain_id
        return out

    u, s, _ = la.svd(m, full_matrices=False)
    if r is None:
        r = energy_rank(s, energy)
    if not 1 <= r <= u.shape[1]:
        raise ValueError(f"r must lie in [1, {u.shape[1]}]")
    if s[0] == 0.0 or s[r - 1] <= RANK_RTOL * s[0]:
        raise ValueError(f"requested r={r} exceeds the numerical rank")
    # a column's sign depends on that column alone, so fixing the retained
    # ones keeps the bits and lets the full U go
    basis = _fix_signs(u[:, :r])
    return PodBasis(basis=basis, singular_values=s, subdomain_id=subdomain_id)

