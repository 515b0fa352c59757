"""Error metrics and diagnostic extracts.

Model quality is reported three ways: squared relative Frobenius errors
per variable (split into training and prediction horizons), distributions
of pointwise relative errors over binned magnitudes, and one-dimensional
profiles along a probe of spatial points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import SnapshotSet

__all__ = [
    "ErrorReport",
    "BinReport",
    "LineProbe",
    "error_report",
    "pointwise_error_bins",
    "line_probe",
]

DEFAULT_THRESHOLDS = (0.05, 0.10, 0.20)


@dataclass(frozen=True)
class ErrorReport:
    """Squared relative errors per variable over both horizons."""

    variables: tuple[str, ...]
    training: tuple[float, ...]
    prediction: tuple[float | None, ...]

    def __post_init__(self):
        for err in self.training + self.prediction:
            if err is not None and err < 0.0:
                raise ValueError("errors must be nonnegative")


@dataclass(frozen=True)
class BinReport:
    """Fractions of spatial DOFs per relative-error bin, per time instant.

    With thresholds (t1 < t2 < ... < tB) the bins are [0, t1], (t1, t2],
    ..., (tB, inf): upper edges closed, B+1 bins in total.
    """

    thresholds: tuple[float, ...]
    times: np.ndarray
    fractions: np.ndarray  # (n_t, len(thresholds) + 1)

    def __post_init__(self):
        fr = np.asarray(self.fractions, dtype=np.float64)
        if fr.ndim != 2 or fr.shape[1] != len(self.thresholds) + 1:
            raise ValueError("need one fraction column per bin")
        if np.abs(fr.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("per-instant fractions must sum to 1")


@dataclass(frozen=True)
class LineProbe:
    """Field values along an ordered list of points, one column per instant."""

    coordinate: np.ndarray
    values: np.ndarray  # (|probe|, number of instants)
    times: np.ndarray


def _check_pair(ref: SnapshotSet, approx: SnapshotSet):
    if ref.data.shape != approx.data.shape or ref.layout.n_s != approx.layout.n_s:
        raise ValueError("reference and approximation dimensions do not match")


def squared_l2_relative_error(
    ref: SnapshotSet, approx: SnapshotSet, variable: int = 0, columns=None
) -> float:
    """||ref - approx||_F^2 / ||ref||_F^2 over one variable's block,
    restricted to a column range given as ``(start, stop)``."""
    _check_pair(ref, approx)
    cols = slice(None) if columns is None else slice(*columns)
    r = ref.variable_block(variable)[:, cols]
    a = approx.variable_block(variable)[:, cols]
    denom = float(np.sum(r * r))
    if denom == 0.0:
        raise ValueError("reference block is identically zero on the range")
    diff = r - a
    diff *= diff  # in place: one block-sized temporary, not two
    return float(np.sum(diff) / denom)


def error_report(ref: SnapshotSet, approx: SnapshotSet) -> ErrorReport:
    """Training and prediction errors for every variable.

    The split follows the reference set's training column count; the
    prediction entry is None when there is no prediction horizon.
    """
    _check_pair(ref, approx)
    m = ref.time.n_train
    training, prediction = [], []
    for v in range(ref.layout.n_s):
        training.append(squared_l2_relative_error(ref, approx, v, (0, m)))
        if m < ref.n_t:
            prediction.append(
                squared_l2_relative_error(ref, approx, v, (m, ref.n_t))
            )
        else:
            prediction.append(None)
    return ErrorReport(
        variables=ref.layout.variable_names,
        training=tuple(training),
        prediction=tuple(prediction),
    )


def pointwise_error_bins(
    ref: SnapshotSet,
    approx: SnapshotSet,
    variable: int = 0,
    thresholds=DEFAULT_THRESHOLDS,
) -> BinReport:
    """Distribution of pointwise relative errors over time.

    Per instant and spatial DOF, the relative error is
    |approx - ref| / max(|ref|, floor); the report holds the fraction of
    DOFs in each threshold bin (upper edges closed).  The floor is 1e-12
    times the binned variable's largest reference magnitude, guarding
    near-zero denominators; the other variables do not move it.
    """
    _check_pair(ref, approx)
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds or any(t <= 0 for t in thresholds):
        raise ValueError("thresholds must be positive")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    r = ref.variable_block(variable)
    a = approx.variable_block(variable)
    # column chunks, so no temporary is full size; every value is the one
    # the whole matrix gives
    width = core._chunk_width(ref.n)
    chunks = [slice(c, c + width) for c in range(0, ref.n_t, width)]
    floor = 1e-12 * float(max(np.abs(r[:, c]).max() for c in chunks))
    if floor <= 0.0:
        floor = np.finfo(np.float64).tiny
    n_bins = len(thresholds) + 1
    n_x = r.shape[0]
    fractions = np.empty((ref.n_t, n_bins))
    for c in chunks:
        rel = np.abs(a[:, c] - r[:, c]) / np.maximum(np.abs(r[:, c]), floor)
        # side="left" puts values equal to a threshold into the bin below
        # it, which closes every bin's upper edge
        bins = np.searchsorted(thresholds, rel, side="left")
        for kcol, kbins in enumerate(bins.T, start=c.start):
            fractions[kcol] = np.bincount(kbins, minlength=n_bins) / n_x
    return BinReport(
        thresholds=thresholds, times=ref.time.timestamps, fractions=fractions
    )


def line_probe(sset: SnapshotSet, variable: int, probe, instants) -> LineProbe:
    """Values along an ordered list of point indices, with the probe's own
    coordinate axis attached (angles for annular geometries, else the
    first coordinate), at the column indices ``instants``; refuses indices
    outside the set, negative ones included."""
    probe = np.asarray(probe)
    if probe.ndim != 1 or probe.size < 1:
        raise ValueError("probe must be a non-empty 1-D list of point indices")
    if not np.issubdtype(probe.dtype, np.integer):
        raise ValueError("probe indices must be integers")
    if np.any(probe < 0) or np.any(probe >= sset.layout.n_x):
        raise ValueError("probe index out of range")
    instants = np.asarray(instants)
    if instants.ndim != 1 or not np.issubdtype(instants.dtype, np.integer):
        raise ValueError("probe instants must be a 1-D list of column indices")
    for idx in instants:
        if not 0 <= idx < sset.n_t:
            raise ValueError(f"probe instant {idx} out of range")
    block = sset.variable_block(variable)
    geom = sset.geometry
    coord = (geom.angular if geom.angular is not None else geom.coords[:, 0])[probe]
    return LineProbe(
        coordinate=coord,
        values=block[np.ix_(probe, instants)],
        times=sset.time.timestamps[instants],
    )
