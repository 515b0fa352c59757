"""Error metrics and diagnostic extracts.

Model quality is reported three ways: squared relative Frobenius errors
per variable (split into training and prediction horizons), distributions
of pointwise relative errors over binned magnitudes, and one-dimensional
profiles along a probe of spatial points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ErrorReport",
    "BinReport",
    "LineProbe",
    "error_report",
    "pointwise_error_bins",
    "compare",
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


def _headers(ref, approx):
    """The reference's header, once both sets have the same shape."""
    head, other = ref.header, approx.header
    if (
        (ref.n, head.time.n_t) != (approx.n, other.time.n_t)
        or head.layout.n_s != other.layout.n_s
    ):
        raise ValueError("reference and approximation dimensions do not match")
    return head


class _ErrorSums:
    """Squared-error and squared-reference sums per horizon and variable,
    added one column chunk at a time.  A single chunk gives the bits of one
    ``np.sum`` over each whole block; more chunks add their sums in column
    order."""

    def __init__(self, head):
        self.head = head
        m, n_t = head.time.n_train, head.time.n_t
        self.horizons = [(0, m)] + ([(m, n_t)] if m < n_t else [])
        self.err = np.zeros((len(self.horizons), head.layout.n_s))
        self.ref = np.zeros_like(self.err)

    def add(self, j: int, ref: np.ndarray, approx: np.ndarray) -> None:
        for h, (lo, hi) in enumerate(self.horizons):
            cols = slice(max(lo - j, 0), min(hi - j, ref.shape[1]))
            if cols.start >= cols.stop:
                continue
            for v in range(self.head.layout.n_s):
                rows = self.head.layout.rows(v)
                r, a = ref[rows, cols], approx[rows, cols]
                # column-major temporaries: a view of a row-major set sums
                # in the order a file's chunk does
                self.ref[h, v] += np.sum(np.multiply(r, r, order="F"))
                diff = np.subtract(r, a, order="F")
                diff *= diff  # in place: one chunk-sized temporary, not two
                self.err[h, v] += np.sum(diff)

    def report(self) -> ErrorReport:
        if np.any(self.ref == 0.0):
            raise ValueError("reference block is identically zero on the range")
        errors = [tuple(float(e) for e in row) for row in self.err / self.ref]
        return ErrorReport(
            variables=self.head.layout.variable_names,
            training=errors[0],
            prediction=errors[1] if len(errors) > 1 else (None,) * len(errors[0]),
        )


class _Bins:
    """Per-column bin fractions of one variable's pointwise relative errors,
    added one column chunk at a time."""

    def __init__(self, ref, head, variable: int, thresholds, peak=None):
        self.thresholds = tuple(float(t) for t in thresholds)
        if not self.thresholds or any(t <= 0 for t in self.thresholds):
            raise ValueError("thresholds must be positive")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        self.rows = head.layout.rows(variable)
        if peak is None:
            peak = ref.check_finite(0, head.time.n_t)[variable]
        self.floor = 1e-12 * float(peak)
        if self.floor <= 0.0:
            self.floor = np.finfo(np.float64).tiny
        self.times = head.time.timestamps
        self.fractions = np.empty((head.time.n_t, len(self.thresholds) + 1))

    def add(self, j: int, ref: np.ndarray, approx: np.ndarray) -> None:
        # column by column, so the temporaries stay one column long
        block, other = ref[self.rows], approx[self.rows]
        n_x = block.shape[0]
        for c in range(block.shape[1]):
            r = block[:, c]
            rel = np.abs(other[:, c] - r)
            rel /= np.maximum(np.abs(r), self.floor)
            # counting values <= t puts a value equal to a threshold into
            # the bin below it, which closes every bin's upper edge
            at_most = [np.count_nonzero(rel <= t) for t in self.thresholds]
            self.fractions[j + c] = np.diff([0, *at_most, n_x]) / n_x

    def report(self) -> BinReport:
        return BinReport(
            thresholds=self.thresholds, times=self.times, fractions=self.fractions
        )


def _scan(ref, approx, *accumulators) -> None:
    """One lockstep pass over both sets' column chunks, each pair added to
    every accumulator in turn."""
    n_t = ref.header.time.n_t
    for (j, r), (_, a) in zip(ref.chunks(0, n_t), approx.chunks(0, n_t)):
        for acc in accumulators:
            acc.add(j, r, a)


def error_report(ref, approx) -> ErrorReport:
    """Training and prediction errors for every variable: the squared
    relative Frobenius error ``||ref - approx||^2 / ||ref||^2`` of each
    variable's block over each horizon.

    ``ref`` and ``approx`` are anything read in column chunks (snapshot
    sets, open snapshot files, predictions), read in one lockstep pass.
    The split follows the reference's training column count; the
    prediction entry is None when there is no prediction horizon.
    """
    sums = _ErrorSums(_headers(ref, approx))
    _scan(ref, approx, sums)
    return sums.report()


def pointwise_error_bins(
    ref,
    approx,
    variable: int = 0,
    thresholds=DEFAULT_THRESHOLDS,
) -> BinReport:
    """Distribution of pointwise relative errors over time.

    Per instant and spatial DOF, the relative error is
    |approx - ref| / max(|ref|, floor); the report holds the fraction of
    DOFs in each threshold bin (upper edges closed).  The floor is 1e-12
    times the binned variable's largest reference magnitude, guarding
    near-zero denominators; the other variables do not move it.  The sets
    are taken as :func:`error_report` takes them, after one pass over
    ``ref`` for the floor.
    """
    bins = _Bins(ref, _headers(ref, approx), variable, thresholds)
    _scan(ref, approx, bins)
    return bins.report()


def compare(
    ref, approx, variable: int = 0, thresholds=DEFAULT_THRESHOLDS, peak=None
) -> tuple[ErrorReport, BinReport]:
    """:func:`error_report` and :func:`pointwise_error_bins` from one
    lockstep pass over both sets.  ``peak``, if given, is the binned
    variable's largest reference magnitude, as ``check_finite`` returns it;
    otherwise a pass over ``ref`` takes it first.
    """
    head = _headers(ref, approx)
    sums, bins = _ErrorSums(head), _Bins(ref, head, variable, thresholds, peak)
    _scan(ref, approx, sums, bins)
    return sums.report(), bins.report()


def line_probe(sset, variable: int, probe, instants) -> LineProbe:
    """Values along an ordered list of point indices, with the probe's own
    coordinate axis attached (angles for annular geometries, else the
    first coordinate), at the column indices ``instants``; refuses indices
    outside the set, negative ones included.  ``sset`` is taken as
    :func:`error_report` takes it; only the instants' columns are read."""
    head = sset.header
    probe = np.asarray(probe)
    if probe.ndim != 1 or probe.size < 1:
        raise ValueError("probe must be a non-empty 1-D list of point indices")
    if not np.issubdtype(probe.dtype, np.integer):
        raise ValueError("probe indices must be integers")
    if np.any(probe < 0) or np.any(probe >= head.layout.n_x):
        raise ValueError("probe index out of range")
    instants = np.asarray(instants)
    if instants.ndim != 1 or not np.issubdtype(instants.dtype, np.integer):
        raise ValueError("probe instants must be a 1-D list of column indices")
    for idx in instants:
        if not 0 <= idx < head.time.n_t:
            raise ValueError(f"probe instant {idx} out of range")
    rows = head.layout.rows(variable)
    values = np.empty((probe.size, instants.size))
    for c, idx in enumerate(instants):
        for _, column in sset.chunks(idx, idx + 1):
            values[:, c] = column[rows][probe, 0]
    geom = head.geometry
    coord = (geom.angular if geom.angular is not None else geom.coords[:, 0])[probe]
    return LineProbe(
        coordinate=coord, values=values, times=head.time.timestamps[instants]
    )
