"""Snapshot data model and binary storage.

A snapshot set holds a dense matrix of time-sampled state vectors together
with the bookkeeping needed to interpret its rows: which variable each row
belongs to (variable-major layout), where each spatial point sits, and when
each column was recorded.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StateLayout",
    "Geometry",
    "TimeGrid",
    "SnapshotSet",
    "SnapshotHeader",
    "SnapFormatError",
    "save_snapshots",
    "load_snapshots",
    "load_initial_state",
]

SNAP_MAGIC = b"DDOI"
SNAP_VERSION = 1

# flags word: bit 0 = periodic geometry, bits 1..31 = training column count
# (0 means "all columns are training").
_FLAG_PERIODIC = 0x1
_TRAIN_SHIFT = 1
_TRAIN_MAX = 2**31 - 1

_TWO_PI = 2.0 * np.pi

# largest read buffer used to check the columns of a file that are not kept
_SCAN_BYTES = 1 << 22


class SnapFormatError(ValueError):
    """A snapshot file is malformed, truncated, or of an unknown version."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only float64 array.

    An array that owns its memory and is already read-only is adopted
    without a copy; anything else is copied.
    """
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and arr.flags.owndata
        and not arr.flags.writeable
    ):
        return arr
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateLayout:
    """Variable-major layout of a state vector.

    A state vector stacks ``n_s`` variables over ``n_x`` spatial points;
    row ``v * n_x + x`` holds variable ``v`` at point ``x``.
    """

    n_s: int
    n_x: int
    variable_names: tuple[str, ...]
    variable_units: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.n_s < 1 or self.n_x < 1:
            raise ValueError("layout needs at least one variable and one point")
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        units = tuple(self.variable_units)
        if not units:
            units = ("",) * self.n_s
        object.__setattr__(self, "variable_units", units)
        if len(self.variable_names) != self.n_s:
            raise ValueError("expected one name per variable")
        if len(self.variable_units) != self.n_s:
            raise ValueError("expected one unit per variable")
        for name in self.variable_names:
            if "\x00" in name:
                raise ValueError("variable names must not contain NUL")

    @property
    def n(self) -> int:
        """Total state dimension n_s * n_x."""
        return self.n_s * self.n_x

    def rows(self, variable: int) -> slice:
        """Row slice of one variable's block."""
        if not 0 <= variable < self.n_s:
            raise ValueError(f"variable index {variable} out of range")
        return slice(variable * self.n_x, (variable + 1) * self.n_x)

    def point_rows(self, indices) -> np.ndarray:
        """Full-state rows of the given points, variable-major: every
        variable's rows at ``indices``, in the given order."""
        indices = np.asarray(indices)
        if np.any(indices < 0) or np.any(indices >= self.n_x):
            raise ValueError("point index out of range")
        return (np.arange(self.n_s)[:, None] * self.n_x + indices[None, :]).ravel()

    def variable_index(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None


class Geometry:
    """Spatial point set for an interval or a circular/annular topology.

    Parameters
    ----------
    coords : (n_x,) or (n_x, d) array
        Point coordinates, d in {1, 2}.
    periodic : bool
        Whether the underlying topology wraps around.
    angular : (n_x,) array, optional
        Angle of each point in [0, 2*pi), required for sector decomposition.
    """

    def __init__(self, coords, periodic: bool = False, angular=None):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[1] not in (1, 2):
            raise ValueError("coords must be (n_x,) or (n_x, d) with d in {1, 2}")
        if coords.shape[0] < 1:
            raise ValueError("geometry needs at least one point")
        if not np.all(np.isfinite(coords)):
            raise ValueError("non-finite coordinates")
        self.coords = _readonly(coords)
        self.periodic = bool(periodic)
        if angular is not None:
            angular = np.asarray(angular, dtype=np.float64)
            if angular.shape != (coords.shape[0],):
                raise ValueError("angular coordinate must have one angle per point")
            if np.any(angular < 0.0) or np.any(angular >= _TWO_PI):
                raise ValueError("angles must lie in [0, 2*pi)")
            angular = _readonly(angular)
        self.angular = angular

    @property
    def n_x(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @classmethod
    def interval(cls, n_x: int, start: float = 0.0, end: float = 1.0) -> "Geometry":
        """Uniform non-periodic grid on [start, end], endpoints included."""
        if n_x < 2:
            raise ValueError("an interval grid needs at least two points")
        return cls(np.linspace(start, end, n_x), periodic=False)

    @classmethod
    def circle(cls, n_x: int, length: float = 1.0) -> "Geometry":
        """Uniform periodic grid on [0, length); angles attached."""
        if n_x < 2:
            raise ValueError("a circular grid needs at least two points")
        j = np.arange(n_x)
        return cls(j * (length / n_x), periodic=True, angular=j * (_TWO_PI / n_x))

    @classmethod
    def annulus(cls, n_theta: int, radii=(1.0,)) -> "Geometry":
        """Polar product grid: all angles at each radius, radius-major order."""
        if n_theta < 2:
            raise ValueError("an annular grid needs at least two angles")
        radii = np.asarray(radii, dtype=np.float64)
        theta = np.arange(n_theta) * (_TWO_PI / n_theta)
        pts = []
        for r in radii:
            pts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        coords = np.concatenate(pts, axis=0)
        angular = np.tile(theta, len(radii))
        return cls(coords, periodic=True, angular=angular)

    def __eq__(self, other):
        # angular is derived bookkeeping, not persisted state; equality is
        # decided by coordinates and topology alone
        if not isinstance(other, Geometry):
            return NotImplemented
        return self.periodic == other.periodic and np.array_equal(
            self.coords, other.coords
        )

    def __repr__(self):
        kind = "periodic" if self.periodic else "non-periodic"
        return f"Geometry(n_x={self.n_x}, dim={self.dim}, {kind})"


class TimeGrid:
    """Strictly increasing sample times with a training/prediction split.

    Columns ``0 .. n_train-1`` are the training horizon; anything beyond is
    the prediction horizon.  ``n_train`` defaults to all columns.
    """

    def __init__(self, timestamps, n_train: int | None = None):
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if timestamps.ndim != 1 or timestamps.size < 1:
            raise ValueError("timestamps must be a non-empty 1-D array")
        if not np.all(np.isfinite(timestamps)):
            raise ValueError("non-finite timestamps")
        if timestamps.size > 1 and not np.all(np.diff(timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")
        self.timestamps = _readonly(timestamps)
        if n_train is None:
            n_train = timestamps.size
        n_train = int(n_train)
        if not 1 <= n_train <= timestamps.size:
            raise ValueError("n_train must lie in [1, n_t]")
        self.n_train = n_train

    @property
    def n_t(self) -> int:
        return self.timestamps.size

    @property
    def t_init(self) -> float:
        return float(self.timestamps[0])

    @property
    def t_train(self) -> float:
        return float(self.timestamps[self.n_train - 1])

    @property
    def t_final(self) -> float:
        return float(self.timestamps[-1])

    def with_train_count(self, n_train: int) -> "TimeGrid":
        return TimeGrid(self.timestamps, n_train)

    def __eq__(self, other):
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return self.n_train == other.n_train and np.array_equal(
            self.timestamps, other.timestamps
        )

    def __repr__(self):
        return f"TimeGrid(n_t={self.n_t}, n_train={self.n_train})"


class SnapshotSet:
    """A dense snapshot matrix plus the layout, geometry, and times of its
    rows and columns.

    ``data`` has shape (layout.n, time.n_t); column k is the full state at
    ``time.timestamps[k]``.  Instances are immutable: the arrays are stored
    read-only.  A float64 ``data`` array that owns its memory and is already
    read-only is kept as is, not copied.
    """

    def __init__(self, layout: StateLayout, geometry: Geometry, time: TimeGrid, data):
        if geometry.n_x != layout.n_x:
            raise ValueError("geometry and layout disagree on the point count")
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (layout.n, time.n_t):
            raise ValueError(
                f"data must have shape ({layout.n}, {time.n_t}), got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite data")
        self.layout = layout
        self.geometry = geometry
        self.time = time
        self.data = _readonly(data)

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def n_t(self) -> int:
        return self.time.n_t

    def variable_block(self, variable: int) -> np.ndarray:
        """View of one variable's rows, shape (n_x, n_t)."""
        return self.data[self.layout.rows(variable)]

    def with_data(self, data, n_train: int | None = None) -> "SnapshotSet":
        """Same layout/geometry/times, different matrix."""
        time = self.time if n_train is None else self.time.with_train_count(n_train)
        return SnapshotSet(self.layout, self.geometry, time, data)

    def __eq__(self, other):
        if not isinstance(other, SnapshotSet):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.geometry == other.geometry
            and self.time == other.time
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return (
            f"SnapshotSet(n_s={self.layout.n_s}, n_x={self.layout.n_x}, "
            f"n_t={self.n_t})"
        )


def _pack_header(sset: SnapshotSet) -> bytes:
    layout, geom, time = sset.layout, sset.geometry, sset.time
    flags = _FLAG_PERIODIC if geom.periodic else 0
    if time.n_train != time.n_t:
        if time.n_train > _TRAIN_MAX:
            raise SnapFormatError("training column count too large to store")
        flags |= time.n_train << _TRAIN_SHIFT
    parts = [
        SNAP_MAGIC,
        struct.pack(
            "<IIQQQQ",
            SNAP_VERSION,
            flags,
            layout.n_s,
            layout.n_x,
            time.n_t,
            geom.dim,
        ),
    ]
    for name in layout.variable_names:
        parts.append(name.encode("utf-8") + b"\x00")
    parts.append(np.ascontiguousarray(geom.coords, dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(time.timestamps, dtype="<f8").tobytes())
    return b"".join(parts)


def save_snapshots(sset: SnapshotSet, path) -> None:
    """Write a snapshot set to ``path``.

    Layout: magic ``DDOI``, u32 version, u32 flags, u64 n_s/n_x/n_t/d,
    NUL-terminated variable names, point coordinates, timestamps, then the
    data matrix column by column (each column variable-major), all values
    little-endian float64.
    """
    if not np.all(np.isfinite(sset.data)):
        raise SnapFormatError("non-finite data")
    header = _pack_header(sset)
    # the transpose of a column-major matrix is row-major, so the file
    # takes the payload straight from the array's memory
    payload = np.asfortranarray(sset.data, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload.T))


class _Reader:
    """Little-endian reads from a binary file that never ask for more bytes
    than the file still holds, so a forged count cannot size an allocation."""

    def __init__(self, fh, kind: str = "file"):
        self.fh = fh
        self.kind = kind
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def _truncated(self, what: str) -> SnapFormatError:
        return SnapFormatError(f"truncated {self.kind} while reading {what}")

    def take(self, count: int, what: str) -> bytes:
        if count > self.left:
            raise self._truncated(what)
        buf = self.fh.read(count)
        if len(buf) != count:
            raise self._truncated(what)
        self.left -= count
        return buf

    def pack(self, fmt: str, what: str):
        size = struct.calcsize("<" + fmt)
        return struct.unpack("<" + fmt, self.take(size, what))

    def array(self, shape, what: str, order="C") -> np.ndarray:
        count = math.prod(shape)
        raw = np.frombuffer(self.take(8 * count, what), dtype="<f8")
        return raw.reshape(shape, order=order)

    def columns(self, out: np.ndarray, what: str) -> np.ndarray:
        """Fill the column-major float64 matrix ``out`` from the file."""
        view = memoryview(out.T).cast("B")
        if view.nbytes > self.left or self.fh.readinto(view) != view.nbytes:
            raise self._truncated(what)
        self.left -= view.nbytes
        return out

    def name(self, what: str) -> str:
        chunks = bytearray()
        while True:
            b = self.take(1, what)
            if b == b"\x00":
                try:
                    return chunks.decode("utf-8")
                except UnicodeDecodeError:
                    raise SnapFormatError(f"bad UTF-8 in {what}") from None
            chunks.extend(b)
            if len(chunks) > 4096:
                raise SnapFormatError(f"unterminated string in {what}")


@dataclass(frozen=True)
class SnapshotHeader:
    """Everything a snapshot file states before its data matrix."""

    layout: StateLayout
    geometry: Geometry
    time: TimeGrid


def _read_header(reader: _Reader) -> SnapshotHeader:
    """Parse and check a snapshot file's header, leaving ``reader`` at the
    first payload byte.  The file must hold exactly the declared payload."""
    if reader.take(4, "magic") != SNAP_MAGIC:
        raise SnapFormatError("bad magic; not a snapshot file")
    version, flags, n_s, n_x, n_t, dim = reader.pack("IIQQQQ", "header")
    if version != SNAP_VERSION:
        raise SnapFormatError(f"unknown version {version}")
    if n_s < 1 or n_x < 1 or n_t < 1 or dim not in (1, 2):
        raise SnapFormatError("implausible header dimensions")
    payload = 8 * n_s * n_x * n_t
    # each name takes at least its NUL byte
    if n_s + 8 * (n_x * dim + n_t) + payload > reader.left:
        raise SnapFormatError(
            f"truncated file: the header declares more than the "
            f"{reader.left} bytes that follow it"
        )
    names = tuple(reader.name("variable names") for _ in range(n_s))
    coords = reader.array((n_x, dim), "coordinates")
    stamps = reader.array((n_t,), "timestamps")
    if reader.left < payload:
        raise SnapFormatError("truncated file while reading data")
    if reader.left > payload:
        raise SnapFormatError("trailing bytes after data")

    periodic = bool(flags & _FLAG_PERIODIC)
    n_train = flags >> _TRAIN_SHIFT
    if n_train == 0:
        n_train = n_t
    if n_train > n_t:
        raise SnapFormatError("training column count exceeds column count")
    angular = None
    with np.errstate(invalid="ignore", over="ignore"):
        if periodic and dim == 1:
            # angles are not persisted; rebuild them for the uniform
            # circular grids this package writes
            span = coords[:, 0].max() - coords[:, 0].min()
            if n_x > 1 and np.allclose(np.diff(coords[:, 0]), span / (n_x - 1)):
                angular = np.arange(n_x) * (_TWO_PI / n_x)
            elif n_x == 1:
                angular = np.zeros(1)
        elif periodic and dim == 2:
            angular = np.mod(np.arctan2(coords[:, 1], coords[:, 0]), _TWO_PI)
            angular[angular >= _TWO_PI] = 0.0
    try:
        return SnapshotHeader(
            StateLayout(n_s=n_s, n_x=n_x, variable_names=names),
            Geometry(coords, periodic=periodic, angular=angular),
            TimeGrid(stamps, n_train=n_train),
        )
    except ValueError as exc:
        raise SnapFormatError(f"bad header: {exc}") from exc


def load_snapshots(path) -> SnapshotSet:
    """Read a snapshot set written by :func:`save_snapshots`.

    Raises :class:`SnapFormatError` on a malformed, truncated, or padded
    file and on non-finite values.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        head = _read_header(reader)
        data = np.empty((head.layout.n, head.time.n_t), dtype="<f8", order="F")
        reader.columns(data, "data")
    data.setflags(write=False)
    try:
        return SnapshotSet(head.layout, head.geometry, head.time, data)
    except ValueError as exc:
        raise SnapFormatError(str(exc)) from exc


def load_initial_state(path) -> tuple[SnapshotHeader, np.ndarray]:
    """Read a snapshot file's header and its first column.

    The remaining columns are read and checked as :func:`load_snapshots`
    checks them, through one buffer of at most 4 MiB (or one column, if
    that is larger, and never more than those columns), then dropped.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        head = _read_header(reader)
        n, rest = head.layout.n, head.time.n_t - 1
        state = reader.columns(np.empty(n, dtype="<f8"), "data")
        width = min(rest, max(1, _SCAN_BYTES // (8 * n)))
        scan = np.empty((n, width), dtype="<f8", order="F")
        finite = np.isfinite(state).all()
        while finite and rest > 0:
            count = min(width, rest)
            finite = np.isfinite(reader.columns(scan[:, :count], "data")).all()
            rest -= count
    if not finite:
        raise SnapFormatError("non-finite data")
    return head, state

