"""Variable transforms, centering, and scaling, with exact inversion.

States are prepared for model learning in three steps: an optional
per-variable change of variables (identity or reciprocal), centering around
the mean field of the training columns, and division by one scalar scale
per variable.  A :class:`ScalingRecord` captures everything needed to map
model output back to the original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SnapFormatError, SnapshotFile, SnapshotSet, StateLayout

__all__ = [
    "ScalingRecord",
    "BlockSource",
    "transform_variables",
    "center_scale",
    "apply_record",
    "invert_record",
]

TRANSFORMS = ("identity", "reciprocal")
SCALING_KINDS = ("max_abs", "std_dev")


@dataclass(frozen=True)
class ScalingRecord:
    """Centering/scaling parameters fixed on the training horizon.

    mean_field has one entry per DOF; scale has one strictly positive
    factor per variable.  transform_spec records the change of variables
    applied before centering so the inverse map can undo it.
    """

    mean_field: np.ndarray = field(compare=False)
    scale: np.ndarray = field(compare=False)
    scaling_kind: str = "max_abs"
    transform_spec: tuple[str, ...] = ()

    def __post_init__(self):
        mean = np.asarray(self.mean_field, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        if mean.ndim != 1 or scale.ndim != 1:
            raise ValueError("mean_field and scale must be 1-D")
        if self.scaling_kind not in SCALING_KINDS:
            raise ValueError(f"unknown scaling kind {self.scaling_kind!r}")
        spec = _check_transforms(scale.size, tuple(self.transform_spec) or None)
        if mean.size % scale.size != 0:
            raise ValueError("mean_field length must be a multiple of n_s")
        if not np.all(np.isfinite(scale)) or np.any(scale <= 0.0):
            raise ValueError("scale entries must be strictly positive and finite")
        if not np.all(np.isfinite(mean)):
            raise ValueError("non-finite mean field")
        object.__setattr__(self, "mean_field", mean)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "transform_spec", spec)

    @property
    def n_s(self) -> int:
        return self.scale.size

    @property
    def n(self) -> int:
        return self.mean_field.size


def _check_transforms(n_s: int, transforms) -> tuple[str, ...]:
    if transforms is None:
        return ("identity",) * n_s
    transforms = tuple(transforms)
    if len(transforms) != n_s:
        raise ValueError("expected one transform per variable")
    for t in transforms:
        if t not in TRANSFORMS:
            raise ValueError(f"unknown transform {t!r}")
    return transforms


# a scale at most this fraction of its variable's largest |mean| is
# round-off: centring n_train equal values leaves about n_train * eps of
# their magnitude, so a variable constant in time is refused
ZERO_SCALE_RTOL = 1e-10


def _checked_scale(s, mean: np.ndarray, name: str) -> float:
    """``s``, unless it is not finite or at most ZERO_SCALE_RTOL times the
    largest |mean| of the variable (``mean``, its part of the mean field)."""
    if not np.isfinite(s) or s <= ZERO_SCALE_RTOL * np.abs(mean).max():
        raise ValueError(
            f"zero scale for variable {name!r}: constant over the training horizon"
        )
    return s


def _variable_rows(layout: StateLayout) -> list[slice]:
    return [layout.rows(v) for v in range(layout.n_s)]


def _transform_in_place(
    work: np.ndarray, rows, transforms, names,
    at_zero: str = "reciprocal transform hit zero",
) -> None:
    """Apply the per-variable transforms to ``work``, whose variable v
    occupies the rows ``rows[v]``; each transform is its own inverse.
    ``at_zero`` begins the message refusing a reciprocal of zero."""
    for v, t in enumerate(transforms):
        if t == "reciprocal":
            block = work[rows[v]]
            if np.any(block == 0.0):
                raise ValueError(f"{at_zero} in variable {names[v]!r}")
            np.divide(1.0, block, out=block)


def _center_scale_in_place(work: np.ndarray, rows, mean: np.ndarray, scale) -> None:
    work -= mean[:, None]
    for v, s in enumerate(scale):
        work[rows[v]] /= s


def _transform_matrix(data: np.ndarray, layout: StateLayout, transforms) -> np.ndarray:
    out = np.array(data, dtype=np.float64)
    _transform_in_place(out, _variable_rows(layout), transforms, layout.variable_names)
    return out


def transform_variables(sset: SnapshotSet, transforms) -> SnapshotSet:
    """Apply per-variable transforms; ``transforms`` holds one of
    ``"identity"`` or ``"reciprocal"`` per variable."""
    transforms = _check_transforms(sset.layout.n_s, transforms)
    return sset.with_data(_transform_matrix(sset.data, sset.layout, transforms))


def center_scale(
    sset: SnapshotSet,
    kind: str = "max_abs",
    transforms=None,
) -> tuple[SnapshotSet, ScalingRecord]:
    """Center on the training-mean field and scale each variable.

    The mean is taken over the set's training columns only.  For ``max_abs``
    the scale is the largest centered magnitude in the training block,
    putting training values in [-1, 1]; for ``std_dev`` it is the standard
    deviation of the centered training block.  ``transforms`` documents any
    change of variables already applied, so it can be inverted later; it
    does not transform anything here.
    """
    if kind not in SCALING_KINDS:
        raise ValueError(f"unknown scaling kind {kind!r}")
    layout = sset.layout
    transforms = _check_transforms(layout.n_s, transforms)
    m = sset.time.n_train

    mean_field = sset.data[:, :m].mean(axis=1)
    centered = sset.data - mean_field[:, None]
    scale = np.empty(layout.n_s)
    for v in range(layout.n_s):
        block = centered[layout.rows(v), :m]
        s = np.abs(block).max() if kind == "max_abs" else block.std()
        scale[v] = _checked_scale(
            s, mean_field[layout.rows(v)], layout.variable_names[v]
        )
        centered[layout.rows(v)] /= s
    record = ScalingRecord(mean_field, scale, kind, transforms)
    return sset.with_data(centered), record


def apply_record(data: np.ndarray, layout: StateLayout, record: ScalingRecord):
    """Map raw states (vector or matrix) into scaled coordinates using an
    existing record: transform, subtract the mean field, divide by scale."""
    data = np.asarray(data, dtype=np.float64)
    vec = data.ndim == 1
    work = data[:, None] if vec else data
    if work.shape[0] != record.n or record.n != layout.n:
        raise ValueError("record dimensions do not match the state layout")
    work = _transform_matrix(work, layout, record.transform_spec)
    rows = _variable_rows(layout)
    _center_scale_in_place(work, rows, record.mean_field, record.scale)
    return work[:, 0] if vec else work


def invert_record(data: np.ndarray, layout: StateLayout, record: ScalingRecord):
    """Inverse of :func:`apply_record`."""
    data = np.asarray(data, dtype=np.float64)
    vec = data.ndim == 1
    work = np.array(data[:, None] if vec else data, dtype=np.float64)
    _invert_in_place(work, layout, record)
    return work[:, 0] if vec else work


def _invert_in_place(work: np.ndarray, layout: StateLayout, record: ScalingRecord):
    """:func:`invert_record` on a float64 (n, m) matrix, overwriting it."""
    if work.shape[0] != record.n or record.n != layout.n:
        raise ValueError("record dimensions do not match the state layout")
    rows = _variable_rows(layout)
    for v, s in enumerate(record.scale):
        work[rows[v]] *= s
    work += record.mean_field[:, None]
    _transform_in_place(
        work, rows, record.transform_spec, layout.variable_names,
        at_zero="cannot invert reciprocal transform at zero",
    )


class BlockSource(SnapshotFile):
    """The training blocks of a snapshot file, transformed, centred and
    scaled, read one subdomain at a time.

    No step holds the snapshot matrix: opening parses the header, with
    ``n_train`` as :class:`SnapshotFile` takes it, and checks the
    prediction columns for non-finite values through one bounded buffer;
    :meth:`fit` takes the :class:`ScalingRecord` in passes over the
    training columns through that buffer; :meth:`blocks` reads each
    subdomain's rows of the training columns into a fresh array.  The
    record and the blocks carry the same bits as :func:`transform_variables`
    and :func:`center_scale` give on the column-major matrix the file holds
    (``std_dev`` scales to within a few ulp: they sum in another order).
    """

    def __init__(self, path, n_train: int | None = None):
        super().__init__(path, n_train)
        try:
            self.check_finite(self.header.time.n_train, self.header.time.n_t)
        except BaseException:
            self.close()
            raise
        self._record: ScalingRecord | None = None

    def _training(self, transforms, check: bool = False):
        """The transformed training columns, in chunks of the read buffer;
        with ``check``, non-finite values are refused as the loaders refuse
        them."""
        layout = self.header.layout
        rows, names = _variable_rows(layout), layout.variable_names
        for _, chunk in self.chunks(0, self.header.time.n_train):
            if check and not np.isfinite(chunk).all():
                raise SnapFormatError("non-finite data")
            _transform_in_place(chunk, rows, transforms, names)
            yield chunk

    def fit(self, kind: str = "max_abs", transforms=None) -> ScalingRecord:
        """The scaling record of the training columns, as
        :func:`center_scale` takes it after :func:`transform_variables`."""
        if kind not in SCALING_KINDS:
            raise ValueError(f"unknown scaling kind {kind!r}")
        layout = self.header.layout
        transforms = _check_transforms(layout.n_s, transforms)
        mean, lo, hi = self._mean(transforms, extremes=kind == "max_abs")
        if kind == "max_abs":
            # x - mean rounds monotonically in x, so each row's largest
            # |x - mean| is that of its largest or its smallest value
            largest = np.maximum(hi - mean, mean - lo)
            scale = np.array([largest[r].max() for r in _variable_rows(layout)])
        else:
            # two passes per variable, as ndarray.std takes them: the mean
            # of the centred block, then the mean square deviation from it
            count = layout.n_x * self.header.time.n_train
            means = self._sums(transforms, mean) / count
            scale = np.sqrt(self._sums(transforms, mean, means) / count)
        for v, s in enumerate(scale):
            _checked_scale(s, mean[layout.rows(v)], layout.variable_names[v])
        self._record = ScalingRecord(mean, scale, kind, transforms)
        return self._record

    # Each pass is a method of its own: a loop variable that outlived its
    # loop would keep the read buffer alive beside the next pass's buffer.

    def _mean(self, transforms, extremes: bool = False):
        """Each row's mean training value, and with ``extremes`` its
        smallest and largest one (None and None without)."""
        # one column after another, as numpy sums the rows of the
        # column-major matrix in data[:, :m].mean(axis=1)
        n = self.header.layout.n
        total, lo, hi = np.zeros(n), None, None
        if extremes:
            lo, hi = np.full(n, np.inf), np.full(n, -np.inf)
        for chunk in self._training(transforms, check=True):
            if extremes:
                np.minimum(lo, chunk.min(axis=1), out=lo)
                np.maximum(hi, chunk.max(axis=1), out=hi)
            for column in chunk.T:
                total += column
        return total / self.header.time.n_train, lo, hi

    def _sums(self, transforms, mean, means=None) -> np.ndarray:
        """Per variable, the sum of the centred training values, or with
        ``means`` the sum of their squared deviations from those means,
        column after column."""
        rows = _variable_rows(self.header.layout)
        sums = np.zeros(len(rows))
        for chunk in self._training(transforms):
            chunk -= mean[:, None]
            for v, r in enumerate(rows):
                part = chunk[r]
                if means is not None:
                    part -= means[v]
                    part *= part
                for s in part.sum(axis=0):
                    sums[v] += s
        return sums

    def blocks(self, dof_indices):
        """Yield each subdomain's scaled training block, a fresh
        ``(n_s * |idx|, n_train)`` array of the rows ``point_rows(idx)``.

        Only the caller holds a block: drop it before asking for the next
        one, and at most one block is alive at a time.
        """
        if self._record is None:
            raise ValueError("fit the scaling record before reading blocks")
        for idx in dof_indices:
            yield self._block(np.asarray(idx))

    def _block(self, idx: np.ndarray) -> np.ndarray:
        layout, record = self.header.layout, self._record
        m, n = self.header.time.n_train, self.n
        rows = layout.point_rows(idx)
        # column-major, so a QR factorization takes it in place; each
        # column's spans are read on their own, a run the block keeps in
        # order straight into it, any other span into ``buf`` to pick from
        block = np.empty((rows.size, m), order="F")
        spans = _spans(rows)
        buf = np.empty(max([stop - first for first, stop, _, pick in spans
                            if pick is not None], default=0))
        for j in range(m):
            for first, stop, at, pick in spans:
                if pick is None:
                    self.read(block[at : at + stop - first, j], j * n + first)
                else:
                    block[at, j] = self.read(buf[: stop - first], j * n + first)[pick]
        names = layout.variable_names
        var_rows = [slice(v * idx.size, (v + 1) * idx.size) for v in range(layout.n_s)]
        _transform_in_place(block, var_rows, record.transform_spec, names)
        _center_scale_in_place(block, var_rows, record.mean_field[rows], record.scale)
        return block


# a block reads each column in at most this many spans of rows
SPANS_PER_COLUMN = 8


def _spans(rows: np.ndarray) -> list:
    """The spans of file rows that cover ``rows``, at most SPANS_PER_COLUMN
    of them: the runs of consecutive rows, merged across their narrowest
    gaps.  Each is ``(first, stop, at, pick)``: a run that the block stores
    in order at positions ``at .. at + stop - first - 1`` has ``pick`` None;
    any other span puts its rows ``first + pick`` at the positions ``at``.
    """
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    gaps = np.diff(ordered)
    starts = np.flatnonzero(gaps != 1) + 1
    if starts.size >= SPANS_PER_COLUMN:
        widest = np.argsort(gaps[starts - 1], kind="stable")
        starts = np.sort(starts[widest[starts.size - SPANS_PER_COLUMN + 1 :]])
    spans = []
    for lo, hi in zip([0, *starts], [*starts, rows.size]):
        first, stop, at = int(ordered[lo]), int(ordered[hi - 1]) + 1, order[lo:hi]
        if stop - first == hi - lo and np.array_equal(at, at[0] + np.arange(hi - lo)):
            spans.append((first, stop, int(at[0]), None))
        else:
            spans.append((first, stop, at, ordered[lo:hi] - first))
    return spans
