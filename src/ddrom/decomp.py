"""Overlapping domain decomposition with linear blending.

A domain is split into k subdomains of equal nominal extent.  Each
subdomain is extended half the overlap width past each interior boundary,
so neighbors share a strip (or arc) of points.  Blending weights are 1 on
a subdomain's closed interior, ramp linearly to 0 across each shared
region, and vanish elsewhere; at every point the weights of all subdomains
sum to one, so recombining subdomain fields is a weighted average that
reproduces any consistently restricted global field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Geometry

__all__ = [
    "Decomposition",
    "decompose",
    "decompose_interval",
    "decompose_sectors",
    "blending_weights",
    "recombine",
]

TOPOLOGIES = ("single", "interval", "annular")


@dataclass(frozen=True)
class Decomposition:
    """Partition of a point set into overlapping subdomains.

    dof_indices holds each subdomain's point indices in ascending order;
    adjacency lists which subdomains share points.
    """

    topology: str
    n_x: int
    dof_indices: tuple[np.ndarray, ...]
    adjacency: tuple[frozenset[int], ...]
    overlap: float

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        k = len(self.dof_indices)
        if k < 1 or len(self.adjacency) != k:
            raise ValueError("inconsistent subdomain counts")
        frozen = []
        seen = np.zeros(self.n_x, dtype=bool)
        for idx in self.dof_indices:
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size == 0:
                raise ValueError("empty subdomain")
            if np.any(idx < 0) or np.any(idx >= self.n_x):
                raise ValueError("point index out of range")
            if np.unique(idx).size != idx.size:
                raise ValueError("duplicate point indices in a subdomain")
            idx.setflags(write=False)
            frozen.append(idx)
            seen[idx] = True
        if not seen.all():
            raise ValueError("subdomains do not cover every point")
        object.__setattr__(self, "dof_indices", tuple(frozen))
        adj = tuple(frozenset(int(j) for j in s) for s in self.adjacency)
        for i, nbrs in enumerate(adj):
            for j in nbrs:
                if j == i or not 0 <= j < k:
                    raise ValueError("bad adjacency entry")
                if i not in adj[j]:
                    raise ValueError("adjacency is not symmetric")
        object.__setattr__(self, "adjacency", adj)

    @property
    def k(self) -> int:
        return len(self.dof_indices)

    def subdomain_sizes(self) -> tuple[int, ...]:
        return tuple(idx.size for idx in self.dof_indices)


def _axis(topology: str, geometry: Geometry):
    """The coordinate a topology splits: (values, lo, hi, wraps).

    A ring splits each point's angle over [0, 2*pi) and wraps; an interval
    splits the first coordinate over its extent, whose two ends belong to
    no neighbor.
    """
    if topology == "interval":
        if geometry.dim != 1 or geometry.periodic:
            raise ValueError("interval decomposition needs a non-periodic 1-D geometry")
        x = geometry.coords[:, 0]
        lo, hi = float(x.min()), float(x.max())
        if hi <= lo:
            raise ValueError("degenerate interval")
        return x, lo, hi, False
    if not geometry.periodic or geometry.angular is None:
        raise ValueError(
            "sector decomposition needs a periodic geometry with angles attached"
        )
    return geometry.angular, 0.0, 2.0 * np.pi, True


def _span(axis, lo, hi, wraps, k, overlap, i):
    """Subdomain i of the one rule: how deep each point lies inside its
    support (distance to the nearer end, negative outside), and its closed
    interior.  The support reaches overlap/2 past both nominal ends
    lo + (hi - lo)*i/k and lo + (hi - lo)*(i+1)/k; the interior stops
    overlap/2 short of every end shared with a neighbor."""
    length, half = hi - lo, 0.5 * overlap
    start = lo + length * i / k
    rel = axis - (start - half)
    if wraps:
        rel = np.mod(rel, length)
    interior = (
        start + half if wraps or i > 0 else lo,
        start + length / k - half if wraps or i < k - 1 else hi,
    )
    return np.minimum(rel, length / k + overlap - rel), interior


def decompose(topology: str, geometry: Geometry, k: int,
              overlap: float) -> Decomposition:
    """The one partition rule: ``geometry`` split by ``topology`` (a name in
    TOPOLOGIES) into k subdomains with the given overlap.

    ``single`` is the whole domain as one subdomain, and takes k = 1 and no
    overlap; ``interval`` and ``annular`` take k >= 2 and an overlap width
    or angle in (0, extent / k).
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    if topology == "single":
        if k != 1 or overlap != 0.0:
            raise ValueError("topology = single has one subdomain and no "
                             f"overlap, not k = {k}, overlap = {overlap:g}")
        return Decomposition(
            topology=topology, n_x=geometry.n_x,
            dof_indices=(np.arange(geometry.n_x),), adjacency=(frozenset(),),
            overlap=0.0)
    axis, lo, hi, wraps = _axis(topology, geometry)
    length = hi - lo
    what = "overlap width" if topology == "interval" else "overlap angle"
    if k < 2:
        raise ValueError(f"topology = {topology} needs at least two "
                         "subdomains; for one, use topology = single")
    if k > geometry.n_x:
        raise ValueError("more subdomains than grid points")
    if not np.isfinite(overlap) or overlap <= 0.0:
        raise ValueError(f"{what} must be positive")
    if overlap >= length / k:
        raise ValueError(
            f"{what} {overlap:g} too large: non-adjacent subdomains would "
            f"intersect (limit {length / k:g})"
        )
    dof, adjacency = [], []
    for i in range(k):
        depth, _ = _span(axis, lo, hi, wraps, k, overlap, i)
        dof.append(np.nonzero(depth >= 0.0)[0])
        adjacency.append(
            frozenset(j % k for j in (i - 1, i + 1) if wraps or 0 <= j < k)
        )
    dec = Decomposition(
        topology=topology,
        n_x=geometry.n_x,
        dof_indices=tuple(dof),
        adjacency=tuple(adjacency),
        overlap=float(overlap),
    )
    _check_overlap_points(dec)
    return dec


def decompose_interval(geometry: Geometry, k: int, overlap_width: float) -> Decomposition:
    """Split a non-periodic 1-D grid into k overlapping segments."""
    return decompose("interval", geometry, k, overlap_width)


def decompose_sectors(geometry: Geometry, k: int, overlap_angle: float) -> Decomposition:
    """Split a circular or annular grid into k overlapping angular sectors,
    sector 0 starting at angle 0 and the last wrapping around the seam."""
    return decompose("annular", geometry, k, overlap_angle)


def _check_overlap_points(dec: Decomposition) -> None:
    member = np.zeros((dec.k, dec.n_x), dtype=bool)
    for i, idx in enumerate(dec.dof_indices):
        member[i, idx] = True
    for i, idx in enumerate(dec.dof_indices):
        shared = member[:, idx].any(axis=1)  # which subdomains hold i's points
        for j in range(i + 1, dec.k):
            if j in dec.adjacency[i] and not shared[j]:
                raise ValueError(
                    f"overlap between subdomains {i} and {j} contains no grid points"
                )
            if j not in dec.adjacency[i] and shared[j]:
                raise ValueError(
                    f"non-adjacent subdomains {i} and {j} share grid points"
                )


def blending_weights(dec: Decomposition, geometry: Geometry) -> np.ndarray:
    """Linear partition-of-unity weights for a decomposition: a read-only
    float64 (k, n_x) matrix whose columns sum to one.

    Weight is 1 on a subdomain's closed interior, ramps linearly with slope
    1/overlap across each overlap from the subdomain's own interior
    boundary (1) to the neighbor's (0), and is 0 off the subdomain.
    """
    if geometry.n_x != dec.n_x:
        raise ValueError("geometry and decomposition disagree on the point count")
    if dec.topology == "single":
        w = np.ones((1, dec.n_x))
    else:
        axis, lo, hi, wraps = _axis(dec.topology, geometry)
        w = np.empty((dec.k, dec.n_x))
        for i in range(dec.k):
            depth, (int_lo, int_hi) = _span(axis, lo, hi, wraps, dec.k, dec.overlap, i)
            np.clip(depth / dec.overlap, 0.0, 1.0, out=w[i])
            w[i, (axis >= int_lo) & (axis <= int_hi)] = 1.0
    w.setflags(write=False)
    return w


def recombine(fields, weights: np.ndarray) -> np.ndarray:
    """Blend full-length subdomain fields into one global field.

    Each field is a length-n vector (or (n, n_t) matrix) that is zero off
    its subdomain; n must be a multiple of the point count so weights are
    tiled across variable blocks; ``weights`` is the (k, n_x) matrix of
    :func:`blending_weights`.  Returns sum_i weight_i * field_i.
    """
    fields = [np.asarray(f, dtype=np.float64) for f in fields]
    k, n_x = weights.shape
    if len(fields) != k:
        raise ValueError("need one field per subdomain")
    n = fields[0].shape[0]
    if n % n_x != 0:
        raise ValueError("field length must be a multiple of the point count")
    reps = n // n_x
    out = None
    for f, w in zip(fields, weights):
        if f.shape[0] != n or f.ndim not in (1, 2):
            raise ValueError("fields must share one length and be 1-D or 2-D")
        wf = np.tile(w, reps)
        term = f * (wf[:, None] if f.ndim == 2 else wf)
        out = term if out is None else out + term
    return out

