"""Proper orthogonal decomposition of snapshot matrices.

A basis and a spectrum both come from the R-SVD of the snapshot matrix
(Chan 1982): LAPACK's recursive blocked QR factorization (``dgeqrt``, after
Elmroth & Gustavson 2000), in place when the caller gives the matrix up,
then the SVD of the small triangular factor R, whose left singular vectors
Q turns into the retained modes (``dgemqrt``).  The matrix is read once, no
copy of it or full set of its left singular vectors is formed, and the
reduced coordinates follow from R.  Modes follow one sign convention (the
largest-magnitude entry of every mode is positive) so results are
comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.linalg import lapack

__all__ = [
    "PodBasis",
    "cumulative_energy",
    "energy_rank",
    "singular_spectrum",
    "compute_basis",
]

RANK_RTOL = 1e-12  # modes with sigma_j <= RANK_RTOL * sigma_1 are unusable
ORTHO_TOL = 1e-10
QR_BLOCK = 32  # columns per block reflector of the QR factorization


@dataclass
class PodBasis:
    """Orthonormal spatial modes for one subdomain.

    basis has shape (rows, r); singular_values holds the full computed
    spectrum (descending), of which the first r belong to the retained
    modes.  coordinates, when known, holds the (r, columns) projection
    basisᵀ m of the snapshot matrix the basis was computed from; a basis
    read back from a model file has none.
    """

    basis: np.ndarray
    singular_values: np.ndarray
    coordinates: np.ndarray | None = None

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
        if self.coordinates is not None:
            coords = np.asarray(self.coordinates, dtype=np.float64)
            if coords.ndim != 2 or coords.shape[0] != basis.shape[1]:
                raise ValueError("need one row of coordinates per mode")
            self.coordinates = coords
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


def _mode_signs(u: np.ndarray) -> np.ndarray:
    """The sign of each column's largest-magnitude entry (1 where it is 0),
    by which the columns are multiplied to make that entry positive."""
    cols = np.arange(u.shape[1])
    lead = np.abs(u).argmax(axis=0)
    signs = np.sign(u[lead, cols])
    signs[signs == 0.0] = 1.0
    return signs


def cumulative_energy(singular_values: np.ndarray) -> np.ndarray:
    """Squared-singular-value energy fraction kept by each first j + 1 modes:
    exactly 1.0 for the whole spectrum, all zeros for an all-zero one."""
    cum = np.cumsum(np.asarray(singular_values, dtype=np.float64) ** 2)
    return cum / cum[-1] if cum.any() else cum


def energy_rank(singular_values: np.ndarray, energy: float) -> int:
    """Smallest r whose retained energy reaches ``energy``."""
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy target must lie in (0, 1]")
    cum = cumulative_energy(singular_values)
    if not cum.any():
        raise ValueError("all-zero spectrum has no energy to retain")
    return int(np.searchsorted(cum, energy - 1e-15) + 1)


def _call(routine, *args, **kwargs):
    """``routine``'s outputs but its trailing info, refusing a nonzero info."""
    *out, info = routine(*args, **kwargs)
    if info != 0:
        raise ValueError(f"LAPACK {routine.__name__} failed with info = {info}")
    return out


def _factor(m: np.ndarray, overwrite_m: bool):
    """m's QR factors and block reflector factors, its R, and U and sigma of
    R's SVD."""
    m = np.asarray(m, dtype=np.float64)
    rank = min(m.shape)
    if rank == 0:
        raise ValueError("an empty matrix has no modes")
    # m = Q R with Q's reflectors below R's diagonal; the SVD of the
    # (rank, columns) R = U S Vᵀ gives m = (Q U) S Vᵀ
    qr = np.asfortranarray(m) if overwrite_m else np.array(m, order="F")
    qr, t = _call(lapack.dgeqrt, min(QR_BLOCK, rank), qr, overwrite_a=1)
    r_factor = np.triu(qr[:rank])
    u, sigma, _ = la.svd(r_factor, full_matrices=False)
    return qr, t, r_factor, u, sigma


def singular_spectrum(m: np.ndarray, *, overwrite_m: bool = False) -> np.ndarray:
    """The full spectrum ``compute_basis`` stores; ``overwrite_m`` as there."""
    return _factor(m, overwrite_m)[-1]


def compute_basis(
    m: np.ndarray, r: int | None = None, energy: float | None = None,
    *, overwrite_m: bool = False,
) -> PodBasis:
    """Basis and reduced coordinates of a snapshot matrix, by mode count or
    energy target.

    Exactly one of ``r`` and ``energy`` must be given.  With
    ``overwrite_m`` a float64 column-major ``m`` is factored in place and
    holds its QR factors afterwards; otherwise it is copied and left as it
    was.
    """
    if (r is None) == (energy is None):
        raise ValueError("give exactly one of r and energy")
    rank = min(np.shape(m))
    if r is not None and not 1 <= r <= rank:
        raise ValueError(f"r must lie in [1, {rank}]")
    qr, t, r_factor, u, sigma = _factor(m, overwrite_m)
    if r is None:
        r = energy_rank(sigma, energy)
    if sigma[0] == 0.0 or sigma[r - 1] <= RANK_RTOL * sigma[0]:
        raise ValueError(f"requested r={r} exceeds the numerical rank")
    # Q applied to the retained columns of U, padded with zero rows to m's
    # row count; a wide m has only `rank` reflectors
    modes = np.zeros((qr.shape[0], r), order="F")
    modes[:rank] = u[:, :r]
    (modes,) = _call(lapack.dgemqrt, qr[:, :rank], t, modes, overwrite_c=1)
    signs = _mode_signs(modes)
    # basisᵀ m = (U_r signs)ᵀ Qᵀ Q R, taken as its transpose Rᵀ (U_r signs)
    # with scipy's BLAS, which the factorization uses: numpy may link an
    # OpenBLAS of its own, whose threads spin on after a product and halve
    # the speed of the next block's factorization on a two-core machine
    coordinates = la.blas.dgemm(1.0, r_factor.T, u[:, :r] * signs).T
    modes *= signs
    return PodBasis(basis=modes, singular_values=sigma,
                    coordinates=coordinates)
