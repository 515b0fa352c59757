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
    SnapshotSet,
    StateLayout,
    TimeGrid,
    _Reader,
    _Writer,
    _chunk_width,
)
from .decomp import TOPOLOGIES, BlendingWeights, Decomposition, blending_weights
from .decomp import recombine  # noqa: F401  perfbench/tracing.py wraps rom.recombine
from .opinf import FORMS, RomOperators, quadratic_dim
from .pod import PodBasis

__all__ = [
    "CoupledRom",
    "DivergenceError",
    "reduce_initial_condition",
    "integrate",
    "roll_reduced",
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


def roll_reduced(operators, form: str, dt: float, init, steps: int):
    """Advance coupled reduced states; returns one (r_i, steps+1) matrix per
    subdomain with the initial state as column 0.

    Continuous models advance with the classical fourth-order Runge-Kutta
    scheme, all subdomains synchronously; discrete models iterate the
    learned map.  The subdomain states are stacked in one vector, subdomain
    i in rows ``parts[i]``, and the matrices returned are row views of one
    (sum of r_i, steps+1) trajectory.  Raises :class:`DivergenceError` when
    a state stops being finite.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    init = [np.asarray(q, dtype=np.float64) for q in init]
    if len(init) != len(operators):
        raise ValueError("need one initial state per subdomain")
    parts, start = [], 0
    for q, op in zip(init, operators):
        if q.shape != (op.r,):
            raise ValueError("initial state dimension mismatch")
        parts.append(slice(start, start + op.r))
        start += op.r

    def rhs(q):
        own = [q[p] for p in parts]
        return np.concatenate(
            [op.apply(own[i], own) for i, op in enumerate(operators)]
        )

    q = np.concatenate(init)
    out = np.empty((q.size, steps + 1))
    out[:, 0] = q
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
            if not np.all(np.isfinite(q)):
                raise DivergenceError(s)
            out[:, s] = q
    return [out[p] for p in parts]


def integrate(rom: CoupledRom, init, steps: int):
    """Advance the coupled model ``steps`` steps from reduced states ``init``."""
    return roll_reduced(rom.operators, rom.form, rom.dt, init, steps)


def predict_full(
    rom: CoupledRom, initial_state: np.ndarray, steps: int, t_start: float = 0.0
) -> SnapshotSet:
    """Run the model from a raw full state and return the blended,
    unscaled trajectory as a snapshot set (initial state included).

    Memory: one (n, steps+1) output, one lifted subdomain block and a
    copy of at most 4 MiB (or one block column, if larger) of its rows.
    Each block ``w_i * (V_i @ Q_i)`` is added into its rows of the output
    in ascending subdomain order, which sums the same terms in the same
    order as :func:`ddrom.decomp.recombine` on zero-padded fields.
    """
    reduced0 = reduce_initial_condition(rom, initial_state)
    trajectories = integrate(rom, reduced0, steps)
    out = np.zeros((rom.layout.n, steps + 1), order="F")
    for i in range(rom.k):
        rows = rom.layout.point_rows(rom.decomposition.dof_indices[i])
        weight = np.tile(rom.weights.weights[i], rom.layout.n_s)[rows]
        block = rom.bases[i].basis @ trajectories[i]
        block *= weight[:, None]
        # a fancy-indexed += gathers and scatters a copy of what it adds
        # to; in column chunks that copy stays within 4 MiB
        width = _chunk_width(rows.size)
        for c in range(0, steps + 1, width):
            out[rows, c : c + width] += block[:, c : c + width]
        del block  # freed before the next block's product is formed
    preprocess._invert_in_place(out, rom.layout, rom.scaling)
    out.setflags(write=False)
    time = TimeGrid(t_start + rom.dt * np.arange(steps + 1))
    return SnapshotSet(rom.layout, rom.geometry, time, out)


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
        names = tuple(r.name("variable names") for _ in range(n_s))
        coords = r.array((n_x, dim), "coordinates")
        angular = r.array((n_x,), "angles") if geo_flags & 2 else None
        layout = StateLayout(n_s=n_s, n_x=n_x, variable_names=names)
        geometry = Geometry(coords, periodic=bool(geo_flags & 1), angular=angular)

        topo_code, overlap = r.pack("Id", "decomposition")
        topology = _named(TOPOLOGIES, topo_code, "topology")
        dof, interior, adjacency = [], [], []
        for _ in range(k):
            (n_pts,) = r.pack("Q", "subdomain size")
            if not 1 <= n_pts <= n_x:
                raise SnapFormatError("implausible subdomain size")
            idx = np.frombuffer(r.take(8 * n_pts, "point indices"), dtype="<u8")
            dof.append(idx.astype(np.int64))
            interior.append(tuple(r.pack("dd", "interior delimiters")))
            (n_adj,) = r.pack("Q", "adjacency size")
            if n_adj >= k:
                raise SnapFormatError("implausible adjacency size")
            adjacency.append(
                frozenset(r.pack("Q", "adjacency")[0] for _ in range(n_adj))
            )
        decomposition = Decomposition(
            topology=topology,
            n_x=n_x,
            dof_indices=tuple(dof),
            interior=tuple(interior),
            adjacency=tuple(adjacency),
            overlap=overlap,
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
        for _ in range(k):
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
