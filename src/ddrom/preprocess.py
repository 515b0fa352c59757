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

from .core import SnapshotSet, StateLayout

__all__ = [
    "ScalingRecord",
    "transform_variables",
    "center_scale",
    "unscale",
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
        spec = tuple(self.transform_spec) or ("identity",) * scale.size
        if len(spec) != scale.size:
            raise ValueError("expected one transform per variable")
        for t in spec:
            if t not in TRANSFORMS:
                raise ValueError(f"unknown transform {t!r}")
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

    def slice_points(self, indices, n_x: int) -> "ScalingRecord":
        """Record restricted to a subset of spatial points.

        The mean field is sliced per variable block; scales are global per
        variable and carry over unchanged.
        """
        indices = np.asarray(indices)
        rows = (np.arange(self.n_s)[:, None] * n_x + indices[None, :]).ravel()
        return ScalingRecord(
            self.mean_field[rows], self.scale, self.scaling_kind, self.transform_spec
        )


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


def _transform_matrix(data: np.ndarray, layout: StateLayout, transforms) -> np.ndarray:
    out = np.array(data, dtype=np.float64)
    for v, t in enumerate(transforms):
        if t == "reciprocal":
            block = out[layout.rows(v)]
            if np.any(block == 0.0):
                raise ValueError(
                    f"reciprocal transform hit zero in variable "
                    f"{layout.variable_names[v]!r}"
                )
            out[layout.rows(v)] = 1.0 / block
    return out


def transform_variables(sset: SnapshotSet, transforms) -> SnapshotSet:
    """Apply per-variable transforms; ``transforms`` holds one of
    ``"identity"`` or ``"reciprocal"`` per variable."""
    transforms = _check_transforms(sset.layout.n_s, transforms)
    return sset.with_data(_transform_matrix(sset.data, sset.layout, transforms))


def center_scale(
    sset: SnapshotSet,
    kind: str = "max_abs",
    train_count: int | None = None,
    transforms=None,
) -> tuple[SnapshotSet, ScalingRecord]:
    """Center on the training-mean field and scale each variable.

    The mean is taken over the first ``train_count`` columns only
    (defaulting to the set's training split).  For ``max_abs`` the scale is
    the largest centered magnitude in the training block, putting training
    values in [-1, 1]; for ``std_dev`` it is the standard deviation of the
    centered training block.  ``transforms`` documents any change of
    variables already applied, so it can be inverted later; it does not
    transform anything here.
    """
    if kind not in SCALING_KINDS:
        raise ValueError(f"unknown scaling kind {kind!r}")
    layout = sset.layout
    transforms = _check_transforms(layout.n_s, transforms)
    m = sset.time.n_train if train_count is None else int(train_count)
    if not 1 <= m <= sset.n_t:
        raise ValueError("train_count must lie in [1, n_t]")

    mean_field = sset.data[:, :m].mean(axis=1)
    centered = sset.data - mean_field[:, None]
    scale = np.empty(layout.n_s)
    for v in range(layout.n_s):
        block = centered[layout.rows(v), :m]
        s = np.abs(block).max() if kind == "max_abs" else block.std()
        if not np.isfinite(s) or s <= 0.0:
            raise ValueError(
                f"zero scale for variable {layout.variable_names[v]!r}: "
                "constant over the training horizon"
            )
        scale[v] = s
        centered[layout.rows(v)] /= s
    record = ScalingRecord(mean_field, scale, kind, transforms)
    return sset.with_data(centered), record


def unscale(scaled: SnapshotSet, record: ScalingRecord) -> SnapshotSet:
    """Invert :func:`center_scale` and then any recorded reciprocal
    transform, returning values in the original coordinates."""
    return scaled.with_data(invert_record(scaled.data, scaled.layout, record))


def apply_record(data: np.ndarray, layout: StateLayout, record: ScalingRecord):
    """Map raw states (vector or matrix) into scaled coordinates using an
    existing record: transform, subtract the mean field, divide by scale."""
    data = np.asarray(data, dtype=np.float64)
    vec = data.ndim == 1
    work = data[:, None] if vec else data
    if work.shape[0] != record.n or record.n != layout.n:
        raise ValueError("record dimensions do not match the state layout")
    work = _transform_matrix(work, layout, record.transform_spec)
    work -= record.mean_field[:, None]
    for v in range(layout.n_s):
        work[layout.rows(v)] /= record.scale[v]
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
    for v in range(layout.n_s):
        work[layout.rows(v)] *= record.scale[v]
    work += record.mean_field[:, None]
    for v, t in enumerate(record.transform_spec):
        if t == "reciprocal":
            block = work[layout.rows(v)]
            if np.any(block == 0.0):
                raise ValueError(
                    "cannot invert reciprocal transform at zero in variable "
                    f"{layout.variable_names[v]!r}"
                )
            np.divide(1.0, block, out=block)
