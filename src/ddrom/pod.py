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
    "thin_svd",
    "method_of_snapshots",
    "retained_energy",
    "energy_rank",
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
    subdomain_id: int = 0

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        sv = np.asarray(self.singular_values, dtype=np.float64)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D matrix")
        if sv.ndim != 1 or sv.size < basis.shape[1]:
            raise ValueError("need at least one singular value per mode")
        if np.any(sv < 0.0) or np.any(np.diff(sv) > 0.0):
            raise ValueError("singular values must be nonnegative and descending")
        if basis.shape[1] > basis.shape[0]:
            raise ValueError("more modes than rows")
        gram = basis.T @ basis
        if np.abs(gram - np.eye(basis.shape[1])).max() > ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal")
        self.basis = basis
        self.singular_values = sv

    @property
    def r(self) -> int:
        return self.basis.shape[1]

    @property
    def rows(self) -> int:
        return self.basis.shape[0]


def _fix_signs(u: np.ndarray, w: np.ndarray | None = None):
    """Flip mode signs so each column's largest-magnitude entry is positive."""
    cols = np.arange(u.shape[1])
    lead = np.abs(u).argmax(axis=0)
    signs = np.sign(u[lead, cols])
    signs[signs == 0.0] = 1.0
    u = u * signs
    if w is None:
        return u
    return u, w * signs


def _economy_svd(m: np.ndarray):
    u, s, vh = la.svd(m, full_matrices=False)
    return _fix_signs(u, vh.T) + (s,)


def thin_svd(m: np.ndarray):
    """Thin SVD of a tall matrix: M = U diag(S) W^T.

    Returns (U, S, W) with U of shape (p, q), S descending, W of shape
    (q, q), signs fixed so each column of U has a positive largest-magnitude
    entry.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if m.shape[0] < m.shape[1]:
        raise ValueError("matrix must be tall (rows >= columns)")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    u, w, s = _economy_svd(m)
    return u, s, w


def method_of_snapshots(m: np.ndarray, r: int, block: int = 64) -> PodBasis:
    """Leading r modes via the eigendecomposition of the column Gram matrix.

    The Gram matrix M^T M is accumulated block against block (``block``
    columns at a time) so no product of the full matrix with itself is ever
    formed in one piece.  Modes come out as M w_j / sigma_j.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    q = m.shape[1]
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"r must lie in [1, {min(m.shape)}]")
    if block < 1:
        raise ValueError("block size must be positive")

    gram = np.empty((q, q))
    starts = range(0, q, block)
    for a in starts:
        aa = slice(a, min(a + block, q))
        for b in range(a, q, block):
            bb = slice(b, min(b + block, q))
            g = m[:, aa].T @ m[:, bb]
            gram[aa, bb] = g
            if b > a:
                gram[bb, aa] = g.T

    evals, evecs = la.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    if sigma[0] == 0.0 or sigma[r - 1] <= RANK_RTOL * sigma[0]:
        raise ValueError(f"requested r={r} exceeds the numerical rank")
    basis = m @ (evecs[:, :r] / sigma[:r])
    return PodBasis(basis=_fix_signs(basis), singular_values=sigma)


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


def singular_spectrum(m: np.ndarray, method: str = "svd", block: int = 64) -> np.ndarray:
    """Full singular-value spectrum of a snapshot matrix, by either route."""
    m = np.asarray(m, dtype=np.float64)
    if method == "svd":
        return la.svd(m, compute_uv=False)
    if method != "snapshots":
        raise ValueError(f"unknown method {method!r}")
    probe = method_of_snapshots(m, 1, block=block)
    return probe.singular_values


def compute_basis(
    m: np.ndarray,
    r: int | None = None,
    energy: float | None = None,
    method: str = "svd",
    subdomain_id: int = 0,
    block: int = 64,
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
        if r is None:
            # need the spectrum first; the Gram route computes it anyway
            probe = method_of_snapshots(m, 1, block=block)
            r = energy_rank(probe.singular_values, energy)
        out = method_of_snapshots(m, r, block=block)
        out.subdomain_id = subdomain_id
        return out

    u, w, s = _economy_svd(m)
    if r is None:
        r = energy_rank(s, energy)
    if not 1 <= r <= u.shape[1]:
        raise ValueError(f"r must lie in [1, {u.shape[1]}]")
    if s[0] == 0.0 or s[r - 1] <= RANK_RTOL * s[0]:
        raise ValueError(f"requested r={r} exceeds the numerical rank")
    return PodBasis(basis=u[:, :r], singular_values=s, subdomain_id=subdomain_id)

