"""Coupled reduced-order models: assembly, time integration, prediction,
and binary model artifacts.

A coupled ROM carries one basis and one operator set per subdomain plus
the decomposition, blending weights, and scaling record needed to map
between reduced coordinates and the original full state.  Integration
advances all subdomains together: every right-hand-side evaluation sees
its neighbors at the same stage values.
"""

from __future__ import annotations

import struct
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
)
from .decomp import BlendingWeights, Decomposition, blending_weights
from .decomp import recombine  # noqa: F401  perfbench/tracing.py wraps rom.recombine
from .opinf import RomOperators, quadratic_dim
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

_FORM_CODE = {"continuous": 0, "discrete": 1}
_TOPOLOGY_CODE = {"single": 0, "interval": 1, "annular": 2}
_KIND_CODE = {"max_abs": 0, "std_dev": 1}
_TRANSFORM_CODE = {"identity": 0, "reciprocal": 1}


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
        if self.form not in _FORM_CODE:
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


def _apply_all(operators, states):
    return [op.apply(states[i], states) for i, op in enumerate(operators)]


def roll_reduced(operators, form: str, dt: float, init, steps: int):
    """Advance coupled reduced states; returns one (r_i, steps+1) matrix per
    subdomain with the initial state as column 0.

    Continuous models advance with the classical fourth-order Runge-Kutta
    scheme, all subdomains synchronously; discrete models iterate the
    learned map.  Raises :class:`DivergenceError` when a state stops being
    finite.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    states = [np.array(q, dtype=np.float64) for q in init]
    if len(states) != len(operators):
        raise ValueError("need one initial state per subdomain")
    for q, op in zip(states, operators):
        if q.shape != (op.r,):
            raise ValueError("initial state dimension mismatch")
    out = [np.empty((q.size, steps + 1)) for q in states]
    for traj, q in zip(out, states):
        traj[:, 0] = q
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for s in range(1, steps + 1):
            if form == "discrete":
                states = _apply_all(operators, states)
            else:
                k1 = _apply_all(operators, states)
                mid1 = [q + (0.5 * dt) * v for q, v in zip(states, k1)]
                k2 = _apply_all(operators, mid1)
                mid2 = [q + (0.5 * dt) * v for q, v in zip(states, k2)]
                k3 = _apply_all(operators, mid2)
                end = [q + dt * v for q, v in zip(states, k3)]
                k4 = _apply_all(operators, end)
                states = [
                    q + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                    for q, a, b, c, d in zip(states, k1, k2, k3, k4)
                ]
            for q in states:
                if not np.all(np.isfinite(q)):
                    raise DivergenceError(s)
            for traj, q in zip(out, states):
                traj[:, s] = q
    return out


def integrate(rom: CoupledRom, init, steps: int):
    """Advance the coupled model ``steps`` steps from reduced states ``init``."""
    return roll_reduced(rom.operators, rom.form, rom.dt, init, steps)


def predict_full(
    rom: CoupledRom, initial_state: np.ndarray, steps: int, t_start: float = 0.0
) -> SnapshotSet:
    """Run the model from a raw full state and return the blended,
    unscaled trajectory as a snapshot set (initial state included).

    Memory: one (n, steps+1) output plus about two lifted subdomain blocks.
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
        out[rows] += block
        del block  # freed before the next block's product is formed
    preprocess._invert_in_place(out, rom.layout, rom.scaling)
    out.setflags(write=False)
    time = TimeGrid(t_start + rom.dt * np.arange(steps + 1))
    return SnapshotSet(rom.layout, rom.geometry, time, out)


# ---------------------------------------------------------------------------
# model artifact serialization


class _Writer:
    def __init__(self, fh):
        self.fh = fh

    def pack(self, fmt, *values):
        self.fh.write(struct.pack("<" + fmt, *values))

    def array(self, arr, order="C"):
        self.fh.write(np.ascontiguousarray(
            arr if order == "C" else np.asfortranarray(arr), dtype="<f8"
        ).tobytes(order=order))

    def name(self, text: str):
        self.fh.write(text.encode("utf-8") + b"\x00")


def save_rom(rom: CoupledRom, path) -> None:
    """Write a model artifact: magic, version, form, subdomain count, time
    step, layout and geometry, decomposition, scaling record, then each
    subdomain's dimensions, spectrum, basis, and operators."""
    with open(path, "wb") as fh:
        w = _Writer(fh)
        fh.write(ROM_MAGIC)
        w.pack("II", ROM_VERSION, _FORM_CODE[rom.form])
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
        w.pack("Id", _TOPOLOGY_CODE[dec.topology], dec.overlap)
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
        w.pack("I", _KIND_CODE[rec.scaling_kind])
        for t in rec.transform_spec:
            w.pack("I", _TRANSFORM_CODE[t])
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


def _read_rom(path) -> CoupledRom:
    code_form = {v: k for k, v in _FORM_CODE.items()}
    code_topology = {v: k for k, v in _TOPOLOGY_CODE.items()}
    code_kind = {v: k for k, v in _KIND_CODE.items()}
    code_transform = {v: k for k, v in _TRANSFORM_CODE.items()}

    with open(path, "rb") as fh:
        r = _Reader(fh, "model file")
        if r.take(4, "magic") != ROM_MAGIC:
            raise SnapFormatError("bad magic; not a model artifact")
        version, form_code = r.pack("II", "header")
        if version != ROM_VERSION:
            raise SnapFormatError(f"unknown version {version}")
        if form_code not in code_form:
            raise SnapFormatError("unknown model form")
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
        if topo_code not in code_topology:
            raise SnapFormatError("unknown topology")
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
            topology=code_topology[topo_code],
            n_x=n_x,
            dof_indices=tuple(dof),
            interior=tuple(interior),
            adjacency=tuple(adjacency),
            overlap=overlap,
        )

        (kind_code,) = r.pack("I", "scaling kind")
        if kind_code not in code_kind:
            raise SnapFormatError("unknown scaling kind")
        transforms = []
        for _ in range(n_s):
            (t_code,) = r.pack("I", "transform")
            if t_code not in code_transform:
                raise SnapFormatError("unknown transform")
            transforms.append(code_transform[t_code])
        mean_field = r.array((n_s * n_x,), "mean field")
        scale = r.array((n_s,), "scale")
        scaling = preprocess.ScalingRecord(
            mean_field, scale, code_kind[kind_code], tuple(transforms)
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
                coupling[int(j)] = r.array((ri, rj), "coupling block")
            (has_c,) = r.pack("B", "constant flag")
            constant = r.array((ri,), "constant term") if has_c else None
            bases.append(
                PodBasis(basis=basis, singular_values=sigma, subdomain_id=i)
            )
            operators.append(
                RomOperators(
                    linear=linear,
                    quadratic=quadratic,
                    coupling=coupling,
                    form=code_form[form_code],
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
        form=code_form[form_code],
        dt=dt,
    )
