"""Snapshot data model and binary storage.

A snapshot set holds a dense matrix of time-sampled state vectors together
with the bookkeeping needed to interpret its rows: which variable each row
belongs to (variable-major layout), where each spatial point sits, and when
each column was recorded.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, replace

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
    "SnapshotFile",
]

SNAP_MAGIC = b"DDOI"
SNAP_VERSION = 1

# flags word: bit 0 = periodic geometry, bits 1..31 = training column count
# (0 means "all columns are training").
_FLAG_PERIODIC = 0x1
_TRAIN_SHIFT = 1
_TRAIN_MAX = 2**31 - 1

_TWO_PI = 2.0 * np.pi

# largest column-chunk buffer: SnapshotFile.chunks reads into one, and
# rom.Prediction.chunks blends each chunk of a prediction into one
_SCAN_BYTES = 1 << 22


def _chunk_width(rows: int) -> int:
    """Columns of ``rows`` float64 values that fit one chunk buffer (at least one)."""
    return max(1, _SCAN_BYTES // (8 * rows))


def _column_ranges(rows: int, start: int, stop: int) -> list[slice]:
    """Slices that split columns ``start .. stop-1`` into chunks of at most
    4 MiB of ``rows`` float64 values (or one column, if that is larger)."""
    width = _chunk_width(rows)
    return [slice(j, min(j + width, stop)) for j in range(start, stop, width)]


def _column_buffers(rows: int, start: int, stop: int):
    """``(first column, matrix)`` for each of :func:`_column_ranges`, every
    matrix a column-major view of one reused buffer, which is never wider
    than the range."""
    ranges = _column_ranges(rows, start, stop)
    if ranges:
        buf = np.empty((rows, ranges[0].stop - ranges[0].start), "<f8", order="F")
    for cols in ranges:
        yield cols.start, buf[:, : cols.stop - cols.start]


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

    def __post_init__(self):
        if self.n_s < 1 or self.n_x < 1:
            raise ValueError("layout needs at least one variable and one point")
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        if len(self.variable_names) != self.n_s:
            raise ValueError("expected one name per variable")
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

    ``angular`` holds each point's angle in [0, 2*pi), which sector
    decomposition splits, or None.  It follows from the coordinates: a
    uniform 1-D periodic grid of n_x points gets ``j * 2*pi/n_x``, a single
    point gets 0, a 2-D periodic grid gets ``atan2(y, x)``, and any other
    grid gets None.
    """

    def __init__(self, coords, periodic: bool = False):
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
        n_x, dim = coords.shape
        angular = None
        with np.errstate(invalid="ignore", over="ignore"):
            if periodic and dim == 1:
                span = coords[:, 0].max() - coords[:, 0].min()
                if n_x > 1 and np.allclose(np.diff(coords[:, 0]), span / (n_x - 1)):
                    angular = np.arange(n_x) * (_TWO_PI / n_x)
                elif n_x == 1:
                    angular = np.zeros(1)
            elif periodic and dim == 2:
                angular = np.mod(np.arctan2(coords[:, 1], coords[:, 0]), _TWO_PI)
                angular[angular >= _TWO_PI] = 0.0
        if angular is not None:
            angular.setflags(write=False)
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
        """Uniform periodic grid on [0, length)."""
        if n_x < 2:
            raise ValueError("a circular grid needs at least two points")
        return cls(np.arange(n_x) * (length / n_x), periodic=True)

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
        return cls(np.concatenate(pts, axis=0), periodic=True)

    def __eq__(self, other):
        # the angles follow from the coordinates and the topology
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


class _Columns:
    """A snapshot matrix read in column chunks: an in-memory
    :class:`SnapshotSet`, an open :class:`SnapshotFile` or a
    :class:`ddrom.rom.Prediction`, each with a ``header`` and ``chunks``."""

    def check_finite(self, start: int, stop: int) -> np.ndarray:
        """Raise :class:`SnapFormatError` if columns ``start .. stop-1`` hold
        a non-finite value; return each variable's largest magnitude over
        them (0 on an empty range)."""
        layout = self.header.layout
        peaks = np.zeros(layout.n_s)
        for _, chunk in self.chunks(start, stop):
            for v in range(layout.n_s):
                # a NaN makes both extremes NaN; no temporary is formed
                block = chunk[layout.rows(v)]
                hi, lo = block.max(), block.min()
                if not (np.isfinite(hi) and np.isfinite(lo)):
                    raise SnapFormatError("non-finite data")
                peaks[v] = max(peaks[v], hi, -lo)
        return peaks


class SnapshotSet(_Columns):
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
        self.layout = layout
        self.geometry = geometry
        self.time = time
        self.data = _readonly(data)
        # one chunk at a time, so no (n, n_t) mask is formed
        self.check_finite(0, time.n_t)

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def n_t(self) -> int:
        return self.time.n_t

    @property
    def header(self) -> "SnapshotHeader":
        return SnapshotHeader(self.layout, self.geometry, self.time)

    def chunks(self, start: int, stop: int):
        """Columns ``start .. stop-1`` in the chunks that
        :meth:`SnapshotFile.chunks` reads, as ``(first column, matrix)``
        pairs; each matrix is a read-only view of ``data``."""
        for cols in _column_ranges(self.n, start, stop):
            yield cols.start, self.data[:, cols]

    def variable_block(self, variable: int) -> np.ndarray:
        """View of one variable's rows, shape (n_x, n_t)."""
        return self.data[self.layout.rows(variable)]

    def with_data(self, data) -> "SnapshotSet":
        """Same layout/geometry/times, different matrix."""
        return SnapshotSet(self.layout, self.geometry, self.time, data)

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


class _Writer:
    """Little-endian writes to a binary file, the counterpart of
    :class:`_Reader`."""

    def __init__(self, fh):
        self.fh = fh

    def pack(self, fmt: str, *values) -> None:
        self.fh.write(struct.pack("<" + fmt, *values))

    def array(self, arr, order="C") -> None:
        """Write ``arr`` as float64 in ``order``; an array already laid out
        that way is written straight from its memory, without a copy."""
        arr = np.asarray(arr, dtype="<f8")
        # the transpose of a column-major matrix is row-major
        flat = np.ascontiguousarray(arr if order == "C" else arr.T)
        self.fh.write(memoryview(flat))

    def name(self, text: str) -> None:
        self.fh.write(text.encode("utf-8") + b"\x00")


def save_snapshots(sset, path) -> None:
    """Write a snapshot set to ``path``; anything else with its ``header``
    and ``chunks`` (an open :class:`SnapshotFile`, a
    :class:`ddrom.rom.Prediction`) is written the same way.

    Layout: magic ``DDOI``, u32 version, u32 flags, u64 n_s/n_x/n_t/d,
    NUL-terminated variable names, point coordinates, timestamps, then the
    data matrix column by column (each column variable-major), all values
    little-endian float64.  The matrix is written one column chunk at a
    time; a column-major chunk is written from its memory, without a copy.
    The first chunk is made before the file is opened, so a failure there
    leaves ``path`` as it was; once the file is open, a failure while making
    or writing a chunk removes it, and the error is re-raised.
    """
    head = sset.header
    layout, geom, time = head.layout, head.geometry, head.time
    flags = _FLAG_PERIODIC if geom.periodic else 0
    if time.n_train != time.n_t:
        if time.n_train > _TRAIN_MAX:
            raise SnapFormatError("training column count too large to store")
        flags |= time.n_train << _TRAIN_SHIFT
    chunks = sset.chunks(0, time.n_t)
    first = next(chunks)
    fh = open(path, "wb")
    try:
        with fh:
            w = _Writer(fh)
            fh.write(SNAP_MAGIC)
            w.pack(
                "IIQQQQ", SNAP_VERSION, flags, layout.n_s, layout.n_x, time.n_t,
                geom.dim,
            )
            for name in layout.variable_names:
                w.name(name)
            w.array(geom.coords)
            w.array(time.timestamps)
            for _, chunk in itertools.chain([first], chunks):
                w.array(chunk, order="F")
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


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
    try:
        return SnapshotHeader(
            StateLayout(n_s=n_s, n_x=n_x, variable_names=names),
            Geometry(coords, periodic=periodic),
            TimeGrid(stamps, n_train=n_train),
        )
    except ValueError as exc:
        raise SnapFormatError(f"bad header: {exc}") from exc


class SnapshotFile(_Columns):
    """A snapshot file opened for positional reads of its data matrix.

    The header is parsed and checked on opening (see :func:`load_snapshots`);
    the data matrix stays on disk.  ``n_train``, if given, replaces the
    file's training split.  Reads name values by their flat index in the
    column-major payload, ``column * n + row``.  Use as a context manager,
    or call :meth:`close`.
    """

    def __init__(self, path, n_train: int | None = None):
        self._fh = open(path, "rb")
        try:
            head = _read_header(_Reader(self._fh))
            if n_train is not None:
                head = replace(head, time=head.time.with_train_count(n_train))
        except BaseException:
            self._fh.close()
            raise
        self.header = head
        self._start = self._fh.tell()
        self.n = head.layout.n
        self._size = head.layout.n * head.time.n_t

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SnapshotFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, out: np.ndarray, index: int) -> np.ndarray:
        """Fill ``out`` (1-D, or a column-major matrix) with consecutive
        payload values from flat index ``index`` on."""
        view = memoryview(out.T).cast("B")
        if index < 0 or 8 * index + view.nbytes > 8 * self._size:
            raise ValueError("read past the end of the data matrix")
        self._fh.seek(self._start + 8 * index)
        if self._fh.readinto(view) != view.nbytes:
            raise SnapFormatError("truncated file while reading data")
        return out

    def chunks(self, start: int, stop: int):
        """Columns ``start .. stop-1`` as ``(first column, matrix)`` pairs.

        Each matrix is a column-major view of one buffer of at most 4 MiB
        (or one column, if that is larger, and never wider than the range),
        filled with one read.  The buffer is reused: a matrix is valid until
        the next one is produced.
        """
        for j, buf in _column_buffers(self.n, start, stop):
            yield j, self.read(buf, j * self.n)


def load_snapshots(path, n_train: int | None = None) -> SnapshotSet:
    """Read a snapshot set written by :func:`save_snapshots` (``n_train``
    as :class:`SnapshotFile` takes it).

    Raises :class:`SnapFormatError` on a malformed, truncated, or padded
    file and on non-finite values.
    """
    with SnapshotFile(path, n_train) as snap:
        head = snap.header
        data = np.empty((head.layout.n, head.time.n_t), dtype="<f8", order="F")
        snap.read(data, 0)
    data.setflags(write=False)
    try:
        return SnapshotSet(head.layout, head.geometry, head.time, data)
    except ValueError as exc:
        raise SnapFormatError(str(exc)) from exc


def load_initial_state(
    path, n_train: int | None = None
) -> tuple[SnapshotHeader, np.ndarray]:
    """Read a snapshot file's header (``n_train`` as :class:`SnapshotFile`
    takes it) and its first column.

    The remaining columns are checked as :func:`load_snapshots` checks them,
    through :meth:`SnapshotFile.chunks`, then dropped.
    """
    with SnapshotFile(path, n_train) as snap:
        state = snap.read(np.empty(snap.n, dtype="<f8"), 0)
        if not np.isfinite(state).all():
            raise SnapFormatError("non-finite data")
        snap.check_finite(1, snap.header.time.n_t)
    return snap.header, state
