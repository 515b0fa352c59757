"""Proper orthogonal decomposition of snapshot matrices.

Every basis and spectrum comes from a thin SVD of the snapshot matrix.
Modes follow one sign convention (the largest-magnitude entry of every
mode is positive) so results are comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

__all__ = [
    "PodBasis",
    "retained_energy",
    "energy_rank",
    "singular_spectrum",
    "compute_basis",
]

RANK_RTOL = 1e-12  # modes with sigma_j <= RANK_RTOL * sigma_1 are unusable
ORTHO_TOL = 1e-10


@dataclass
class PodBasis:
    """Orthonormal spatial modes for one subdomain.

    basis has shape (rows, r); singular_values holds the full computed
    spectrum (descending), of which the first r belong to the retained
    modes.
    """

    basis: np.ndarray
    singular_values: np.ndarray

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


def singular_spectrum(m: np.ndarray) -> np.ndarray:
    """Full singular-value spectrum of a snapshot matrix."""
    return la.svd(np.asarray(m, dtype=np.float64), compute_uv=False)


def compute_basis(
    m: np.ndarray, r: int | None = None, energy: float | None = None
) -> PodBasis:
    """Basis of a snapshot matrix by mode count or energy target.

    Exactly one of ``r`` and ``energy`` must be given.
    """
    if (r is None) == (energy is None):
        raise ValueError("give exactly one of r and energy")
    m = np.asarray(m, dtype=np.float64)
    u, sigma, _ = la.svd(m, full_matrices=False)
    if r is None:
        r = energy_rank(sigma, energy)
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"r must lie in [1, {min(m.shape)}]")
    if sigma[0] == 0.0 or sigma[r - 1] <= RANK_RTOL * sigma[0]:
        raise ValueError(f"requested r={r} exceeds the numerical rank")
    # a column's sign depends on that column alone, so fixing the
    # retained ones keeps the bits and lets the full U go
    return PodBasis(basis=_fix_signs(u[:, :r]), singular_values=sigma)
