"""Coupled reduced-order models: assembly, time integration, prediction,
and binary model artifacts.

A coupled ROM carries one basis and one operator set per subdomain plus
the decomposition, blending weights, and scaling record needed to map
between reduced coordinates and the original full state.  Integration
advances all subdomains together: every right-hand-side evaluation sees
its neighbors at the same stage values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import preprocess
from .core import (
    Geometry,
    SnapFormatError,
    SnapshotHeader,
    SnapshotSet,
    StateLayout,
    TimeGrid,
    _Columns,
    _column_buffers,
    _column_ranges,
    _Reader,
    _Writer,
)
from .decomp import (
    TOPOLOGIES,
    BlendingWeights,
    Decomposition,
    blending_weights,
    decompose,
)
from .decomp import recombine  # noqa: F401  perfbench/tracing.py wraps rom.recombine
from .opinf import FORMS, RomOperators, _pair_indices, quadratic_dim
from .pod import PodBasis

__all__ = [
    "CoupledRom",
    "DivergenceError",
    "integrate",
    "roll_reduced",
    "Prediction",
    "predict_full",
    "save_rom",
    "load_rom",
]

ROM_MAGIC = b"DDRM"
ROM_VERSION = 1


class DivergenceError(RuntimeError):
    """A reduced trajectory left the range of finite floats."""

    def __init__(self, step: int):
        super().__init__(f"diverged at step {step}")
        self.step = step


@dataclass
class CoupledRom:
    """Everything needed to run a learned model and map back to full state."""

    layout: StateLayout
    geometry: Geometry
    decomposition: Decomposition
    bases: list[PodBasis]
    operators: list[RomOperators]
    scaling: preprocess.ScalingRecord
    form: str
    dt: float
    weights: BlendingWeights = field(init=False)

    def __post_init__(self):
        dec = self.decomposition
        if len(self.bases) != dec.k or len(self.operators) != dec.k:
            raise ValueError("need one basis and one operator set per subdomain")
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.layout.n_x != dec.n_x or self.geometry.n_x != dec.n_x:
            raise ValueError("decomposition does not match the layout")
        if self.scaling.n != self.layout.n or self.scaling.n_s != self.layout.n_s:
            raise ValueError("scaling record does not match the layout")
        for i in range(dec.k):
            basis, ops = self.bases[i], self.operators[i]
            if ops.form != self.form:
                raise ValueError("operator form does not match the model form")
            if basis.rows != self.layout.n_s * dec.dof_indices[i].size:
                raise ValueError(f"basis rows of subdomain {i} do not match its DOFs")
            if basis.r != ops.r:
                raise ValueError(f"basis and operators of subdomain {i} disagree on r")
            if set(ops.coupling) != set(dec.adjacency[i]):
                raise ValueError(
                    f"coupling blocks of subdomain {i} do not match its adjacency"
                )
            for j, block in ops.coupling.items():
                if block.shape[1] != self.bases[j].r:
                    raise ValueError(
                        f"coupling block {i}->{j} does not match neighbor dimension"
                    )
        self.weights = blending_weights(dec, self.geometry)

    @property
    def k(self) -> int:
        return self.decomposition.k


def reduce_initial_condition(rom: CoupledRom, full_state: np.ndarray):
    """Scale a raw full state and project it into each subdomain's basis."""
    full_state = np.asarray(full_state, dtype=np.float64)
    if full_state.shape != (rom.layout.n,):
        raise ValueError(f"initial state must have length {rom.layout.n}")
    scaled = preprocess.apply_record(full_state, rom.layout, rom.scaling)
    return [
        basis.basis.T @ scaled[rom.layout.point_rows(idx)]
        for basis, idx in zip(rom.bases, rom.decomposition.dof_indices)
    ]


def _stacked_operators(candidates, parts):
    """The coupled right-hand sides (or one-step maps) of C candidate models,
    C = ``len(candidates)``, as stacked arrays with a leading candidate axis.

    Each candidate is one operator set per subdomain, subdomain i in rows
    ``parts[i]`` of the stacked state.  ``a`` (C, N, N), N = sum of r_i,
    holds each subdomain's own block and its coupling blocks; ``b``
    (C, N, 1) the constants, or is None if no candidate has one.  ``h``
    (C, k, r_max, s_max) applies every subdomain's ``H_i`` to its own
    compressed products in one batched product, zero-padded where the r_i
    differ; a dense block-diagonal ``H`` would be k times larger and loses
    from k = 16, r = 16 onward.  ``ia``/``ib`` (k, s_max) are the state rows
    of each subdomain's pair factors; padded products repeat the subdomain's
    first one, so a product that overflows there overflows in its real slot
    too.  ``rows`` are the real rows of the (k * r_max) product stack, in
    state order.
    """
    k, n = len(parts), parts[-1].stop
    r = [p.stop - p.start for p in parts]
    r_max = max(r)
    s_max = quadratic_dim(r_max)
    a = np.zeros((len(candidates), n, n))
    h = np.zeros((len(candidates), k, r_max, s_max))
    b = None
    for c, operators in enumerate(candidates):
        for i, op in enumerate(operators):
            own = parts[i]
            a[c, own, own] = op.linear
            for j, block in op.coupling.items():
                if not 0 <= j < k:
                    raise ValueError(
                        f"coupling block {i}->{j} names an unknown neighbor"
                    )
                if block.shape[1] != r[j]:
                    raise ValueError(
                        f"coupling block {i}->{j} does not match neighbor dimension"
                    )
                a[c, own, parts[j]] += block
            h[c, i, : op.r, : quadratic_dim(op.r)] = op.quadratic
            if op.constant is not None:
                if b is None:
                    b = np.zeros((len(candidates), n, 1))
                b[c, own, 0] = op.constant

    starts = np.array([[p.start] for p in parts], dtype=np.intp)
    ia, ib = starts.repeat(s_max, axis=1), starts.repeat(s_max, axis=1)
    for i, own in enumerate(parts):
        pa, pb = _pair_indices(r[i])
        ia[i, : pa.size], ib[i, : pb.size] = pa + own.start, pb + own.start
    rows = np.concatenate([i * r_max + np.arange(ri) for i, ri in enumerate(r)])
    return a, h, b, ia, ib, rows


def _roll_candidates(candidates, form: str, dt: float, init, steps: int):
    """Advance C candidate models, each a list of per-subdomain operator
    sets, from the same reduced states ``init``, all together.

    Every rollout, one model's too, steps a (C, N, 1) stack of states
    through :func:`_stacked_operators`.  Every product is a BLAS
    matrix-vector one, so each candidate's state rounds as it would alone.
    Returns one (C, r_i, steps+1) trajectory per subdomain, with the initial
    state as column 0, and each candidate's divergence step (0 if it stayed
    finite).  After every step the candidates whose state stopped being
    finite are dropped from the states and operators; their trajectories
    are filled only up to the step before.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if form == "continuous" and (not np.isfinite(dt) or dt <= 0.0):
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    init = [np.asarray(q, dtype=np.float64) for q in init]
    for operators in candidates:
        if len(init) != len(operators):
            raise ValueError("need one initial state per subdomain")
        if not operators:
            raise ValueError("need at least one subdomain")
        for q, op in zip(init, operators):
            if op.form != form:
                raise ValueError("operator form does not match the model form")
            if q.shape != (op.r,):
                raise ValueError("initial state dimension mismatch")
    parts, start = [], 0
    for q in init:
        parts.append(slice(start, start + q.size))
        start += q.size
    a, h, b, ia, ib, rows = _stacked_operators(candidates, parts)
    k, r_max = h.shape[1:3]

    def rhs(q):
        z = np.matmul(h, q.take(ia, axis=1) * q.take(ib, axis=1))
        f = a @ q + z.reshape(len(q), k * r_max, 1).take(rows, axis=1)
        if b is not None:
            f += b
        return f

    c = len(candidates)
    out = np.empty((c, start, steps + 1))
    out[:, :, 0] = np.concatenate(init)
    diverged = np.zeros(c, dtype=np.intp)
    # a slice stores cheaper than an index array: ids only once one diverged
    ids, live = np.arange(c), slice(None)
    q = out[:, :, :1].copy()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for s in range(1, steps + 1):
            if form == "discrete":
                q = rhs(q)
            else:
                k1 = rhs(q)
                k2 = rhs(q + (0.5 * dt) * k1)
                k3 = rhs(q + (0.5 * dt) * k2)
                k4 = rhs(q + dt * k3)
                q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(q).all():
                finite = np.isfinite(q).all(axis=(1, 2))
                diverged[ids[~finite]] = s
                ids = live = ids[finite]
                if not ids.size:
                    break
                q, a, h = q[finite], a[finite], h[finite]
                if b is not None:
                    b = b[finite]
            out[live, :, s : s + 1] = q
    return [out[:, p] for p in parts], diverged


def _candidate_bytes(init, steps: int) -> int:
    """Bytes one candidate's stacked operator and trajectory take in
    :func:`_roll_candidates` from reduced states ``init``."""
    n, r_max = sum(q.size for q in init), max(q.size for q in init)
    return 8 * (n * n + len(init) * r_max * quadratic_dim(r_max) + n * (steps + 1))


def roll_reduced(operators, form: str, dt: float, init, steps: int):
    """Advance coupled reduced states; returns one (r_i, steps+1) matrix per
    subdomain with the initial state as column 0.

    Continuous models advance with the classical fourth-order Runge-Kutta
    scheme, all subdomains synchronously; discrete models iterate the
    learned map.  The subdomain states are stacked in one vector, subdomain
    i in rows ``parts[i]``, and each step evaluates one stacked operator,
    ``A q + [H_i c(q_i)]_i (+ b)``; the matrices returned are row views of
    one (sum of r_i, steps+1) trajectory.  Raises :class:`DivergenceError`
    when a state stops being finite.
    """
    trajectories, diverged = _roll_candidates([operators], form, dt, init, steps)
    if diverged[0]:
        raise DivergenceError(int(diverged[0]))
    return [t[0] for t in trajectories]


def integrate(rom: CoupledRom, init, steps: int):
    """Advance the coupled model ``steps`` steps from reduced states ``init``."""
    return roll_reduced(rom.operators, rom.form, rom.dt, init, steps)


class Prediction(_Columns):
    """A model's blended, unscaled trajectory from a raw full state, initial
    state included, made a column chunk at a time.

    The rollout runs on construction and only the reduced trajectories are
    kept; like a snapshot set or file, a prediction has a ``header`` and
    gives its columns through :meth:`chunks`, so it can be written with
    :func:`ddrom.core.save_snapshots` or compared with the metrics without
    its (n, steps+1) matrix ever being formed.
    """

    def __init__(self, rom: CoupledRom, initial_state: np.ndarray, steps: int,
                 t_start: float = 0.0):
        reduced0 = reduce_initial_condition(rom, initial_state)
        self.trajectories = integrate(rom, reduced0, steps)
        time = TimeGrid(t_start + rom.dt * np.arange(steps + 1))
        self.header = SnapshotHeader(rom.layout, rom.geometry, time)
        self.n = rom.layout.n
        self.rom = rom

    def chunks(self, start: int, stop: int):
        """Columns ``start .. stop-1`` as ``(first column, matrix)`` pairs.

        Each matrix is made in one reused buffer of at most 4 MiB (or one
        column, if larger, and never wider than the range), valid until the
        next one is made.  Memory: the buffer and one lifted subdomain block
        of its columns.  Each block ``w_i * (V_i @ Q_i)`` is added into its
        rows in ascending subdomain order, which sums the same terms in the
        same order as :func:`ddrom.decomp.recombine` on zero-padded fields.
        A chunk holding a non-finite value is refused.
        """
        return self._blend(_column_buffers(self.n, start, stop))

    def _blend(self, pieces):
        """Fill each ``(first column, matrix)`` of ``pieces`` with those columns."""
        rom, layout = self.rom, self.rom.layout
        lifts = []
        for i in range(rom.k):
            rows = layout.point_rows(rom.decomposition.dof_indices[i])
            weight = np.tile(rom.weights.weights[i], layout.n_s)[rows]
            lifts.append((rows, weight[:, None]))
        for j, chunk in pieces:
            chunk.fill(0.0)
            # a one-column product would take BLAS's matrix-vector route,
            # which rounds differently from the matrix-matrix one: lift a
            # neighbouring column along and drop it
            width = chunk.shape[1]
            lo = max(j - 1, 0) if width == 1 else j
            cols = slice(lo, max(j + width, lo + 2))
            keep = slice(j - lo, j - lo + width)
            for basis, q, (rows, weight) in zip(rom.bases, self.trajectories, lifts):
                block = (basis.basis @ q[:, cols])[:, keep]
                block *= weight
                chunk[rows] += block
                del block  # freed before the next block's product is formed
            preprocess._invert_in_place(chunk, layout, rom.scaling)
            if not np.isfinite(chunk).all():
                raise ValueError("non-finite data")
            yield j, chunk


def predict_full(
    rom: CoupledRom, initial_state: np.ndarray, steps: int, t_start: float = 0.0
) -> SnapshotSet:
    """A :class:`Prediction` made in one (n, steps+1) output, each chunk in
    its own columns, and returned as a snapshot set."""
    pred = Prediction(rom, initial_state, steps, t_start)
    out = np.empty((rom.layout.n, steps + 1), order="F")
    ranges = _column_ranges(rom.layout.n, 0, steps + 1)
    for _ in pred._blend((c.start, out[:, c]) for c in ranges):
        pass
    out.setflags(write=False)
    head = pred.header
    return SnapshotSet(head.layout, head.geometry, head.time, out)


# ---------------------------------------------------------------------------
# model artifact serialization


def save_rom(rom: CoupledRom, path) -> None:
    """Write a model artifact: magic, version, form, subdomain count, time
    step, layout and geometry, decomposition, scaling record, then each
    subdomain's dimensions, spectrum, basis, and operators."""
    with open(path, "wb") as fh:
        w = _Writer(fh)
        fh.write(ROM_MAGIC)
        w.pack("II", ROM_VERSION, FORMS.index(rom.form))
        w.pack("Qd", rom.k, rom.dt)

        layout, geom = rom.layout, rom.geometry
        geo_flags = (1 if geom.periodic else 0) | (
            2 if geom.angular is not None else 0
        )
        w.pack("QQQI", layout.n_s, layout.n_x, geom.dim, geo_flags)
        for name in layout.variable_names:
            w.name(name)
        w.array(geom.coords)
        if geom.angular is not None:
            w.array(geom.angular)

        dec = rom.decomposition
        w.pack("Id", TOPOLOGIES.index(dec.topology), dec.overlap)
        for i in range(dec.k):
            idx = dec.dof_indices[i]
            w.pack("Q", idx.size)
            fh.write(np.ascontiguousarray(idx, dtype="<u8").tobytes())
            w.pack("dd", *dec.interior[i])
            nbrs = sorted(dec.adjacency[i])
            w.pack("Q", len(nbrs))
            for j in nbrs:
                w.pack("Q", j)

        rec = rom.scaling
        w.pack("I", preprocess.SCALING_KINDS.index(rec.scaling_kind))
        for t in rec.transform_spec:
            w.pack("I", preprocess.TRANSFORMS.index(t))
        w.array(rec.mean_field)
        w.array(rec.scale)

        for i in range(rom.k):
            basis, ops = rom.bases[i], rom.operators[i]
            w.pack("QQQ", ops.r, basis.rows, basis.singular_values.size)
            w.array(basis.singular_values)
            w.array(basis.basis, order="F")
            w.array(ops.linear)
            w.array(ops.quadratic)
            w.pack("Q", len(ops.coupling))
            for j in sorted(ops.coupling):
                block = ops.coupling[j]
                w.pack("QQ", j, block.shape[1])
                w.array(block)
            w.pack("B", 0 if ops.constant is None else 1)
            if ops.constant is not None:
                w.array(ops.constant)


def load_rom(path) -> CoupledRom:
    """Read a model artifact written by :func:`save_rom`.

    Raises :class:`SnapFormatError` on a malformed, truncated, or padded
    file, and on one whose contents do not make a consistent model.
    """
    try:
        return _read_rom(path)
    except SnapFormatError:
        raise
    except ValueError as exc:
        raise SnapFormatError(f"bad model: {exc}") from exc


def _named(names: tuple[str, ...], code: int, what: str) -> str:
    """The name an artifact code stands for: its position in ``names``."""
    if code >= len(names):
        raise SnapFormatError(f"unknown {what}")
    return names[code]


def _read_rom(path) -> CoupledRom:
    with open(path, "rb") as fh:
        r = _Reader(fh, "model file")
        if r.take(4, "magic") != ROM_MAGIC:
            raise SnapFormatError("bad magic; not a model artifact")
        version, form_code = r.pack("II", "header")
        if version != ROM_VERSION:
            raise SnapFormatError(f"unknown version {version}")
        form = _named(FORMS, form_code, "model form")
        k, dt = r.pack("Qd", "header")
        if k < 1 or k > 10**6:
            raise SnapFormatError("implausible subdomain count")

        n_s, n_x, dim, geo_flags = r.pack("QQQI", "layout")
        if n_s < 1 or n_x < 1 or dim not in (1, 2):
            raise SnapFormatError("implausible layout dimensions")
        if geo_flags & ~3:
            raise SnapFormatError("unknown geometry flags")
        names = tuple(r.name("variable names") for _ in range(n_s))
        coords = r.array((n_x, dim), "coordinates")
        stored = r.array((n_x,), "angles") if geo_flags & 2 else None
        layout = StateLayout(n_s=n_s, n_x=n_x, variable_names=names)
        geometry = Geometry(coords, periodic=bool(geo_flags & 1))
        derived = geometry.angular
        if (stored is None) != (derived is None) or (
            stored is not None and not np.array_equal(stored, derived)
        ):
            raise SnapFormatError("stored angles are not those of the coordinates")

        # the partition follows from the geometry, k and the overlap; the
        # stored point and neighbor lists must be the rule's, and the stored
        # interiors (which older code saved ulps away from the rule's) are
        # skipped
        topo_code, overlap = r.pack("Id", "decomposition")
        topology = _named(TOPOLOGIES, topo_code, "topology")
        decomposition = decompose(topology, geometry, k, overlap)
        for i in range(k):
            idx = decomposition.dof_indices[i]
            (n_pts,) = r.pack("Q", "subdomain size")
            if n_pts != idx.size or not np.array_equal(
                np.frombuffer(r.take(8 * n_pts, "point indices"), dtype="<u8"), idx
            ):
                raise SnapFormatError(f"subdomain {i} does not hold the points "
                                      "the partition rule gives it")
            r.take(16, "interior delimiters")
            nbrs = decomposition.adjacency[i]
            (n_adj,) = r.pack("Q", "adjacency size")
            if n_adj != len(nbrs) or set(
                np.frombuffer(r.take(8 * n_adj, "adjacency"), dtype="<u8").tolist()
            ) != nbrs:
                raise SnapFormatError(
                    f"subdomain {i} neighbors do not follow the partition rule"
                )

        (kind_code,) = r.pack("I", "scaling kind")
        kind = _named(preprocess.SCALING_KINDS, kind_code, "scaling kind")
        transforms = tuple(
            _named(preprocess.TRANSFORMS, r.pack("I", "transform")[0], "transform")
            for _ in range(n_s)
        )
        mean_field = r.array((n_s * n_x,), "mean field")
        scale = r.array((n_s,), "scale")
        scaling = preprocess.ScalingRecord(
            mean_field, scale, kind, transforms
        )

        bases, operators = [], []
        for i in range(k):
            ri, rows, n_sigma = r.pack("QQQ", "subdomain dimensions")
            if not 1 <= ri <= rows or n_sigma < ri:
                raise SnapFormatError("implausible basis dimensions")
            sigma = r.array((n_sigma,), "singular values")
            basis = r.array((rows, ri), "basis", order="F")
            linear = r.array((ri, ri), "linear operator")
            quadratic = r.array((ri, quadratic_dim(ri)), "quadratic operator")
            (n_cpl,) = r.pack("Q", "coupling count")
            coupling = {}
            for _ in range(n_cpl):
                j, rj = r.pack("QQ", "coupling header")
                if j in coupling:
                    raise SnapFormatError(
                        f"subdomain {i} lists coupling block {j} twice"
                    )
                coupling[int(j)] = r.array((ri, rj), "coupling block")
            (has_c,) = r.pack("B", "constant flag")
            constant = r.array((ri,), "constant term") if has_c else None
            bases.append(PodBasis(basis=basis, singular_values=sigma))
            operators.append(
                RomOperators(
                    linear=linear,
                    quadratic=quadratic,
                    coupling=coupling,
                    form=form,
                    constant=constant,
                )
            )
        if fh.read(1):
            raise SnapFormatError("trailing bytes after model data")

    return CoupledRom(
        layout=layout,
        geometry=geometry,
        decomposition=decomposition,
        bases=bases,
        operators=operators,
        scaling=scaling,
        form=form,
        dt=dt,
    )
