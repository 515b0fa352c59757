"""Desk-scale full-order models for generating snapshot data.

Three generators cover the testing needs of the whole pipeline: a 1D
periodic viscous Burgers solver (a genuine nonlinear simulation whose
discrete right-hand side is exactly linear-plus-quadratic), an analytic
field of co-rotating Gaussian pulses on a circle (translation dynamics
with exact values on any horizon), and a static damped sinusoid (a known
spatial profile for decomposition checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Geometry, SnapshotSet, StateLayout, TimeGrid
from .opinf import RomOperators, quadratic_dim
from .pod import PodBasis

__all__ = ["FomSpec", "simulate", "rhs_burgers", "galerkin_operators"]

KINDS = ("burgers", "rotating_pulse", "damped_sine")


@dataclass(frozen=True)
class FomSpec:
    """Configuration of one snapshot generator.

    ``dt`` is the integration (or evaluation) step, ``n_steps`` the number
    of steps taken, and ``stride`` the recording stride: snapshots land at
    steps 0, stride, 2*stride, ...  Parameters irrelevant to a kind are
    ignored by it.
    """

    kind: str
    n_x: int = 256
    length: float = 1.0
    nu: float = 0.01            # burgers viscosity
    amplitude: float = 1.0      # burgers initial sine amplitude
    wave_speed: float = 1.0     # rotating_pulse
    n_pulses: int = 2           # rotating_pulse
    pulse_width: float = 0.05   # rotating_pulse, Gaussian sigma
    decay: float = 3.0          # damped_sine
    frequency: float = 20.0     # damped_sine
    dt: float = 1e-4
    n_steps: int = 49_900
    stride: int = 100

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n_x < 2:
            raise ValueError("n_x must be at least 2")
        if not np.isfinite(self.length) or self.length <= 0.0:
            raise ValueError("domain length must be positive")
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.n_steps < 0:
            raise ValueError("step count must be nonnegative")
        if self.nu < 0.0:
            raise ValueError("viscosity must be nonnegative")
        if self.kind == "rotating_pulse":
            if self.n_pulses < 1:
                raise ValueError("need at least one pulse")
            if self.pulse_width <= 0.0:
                raise ValueError("pulse width must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n_x


def _periodic_pad(u: np.ndarray) -> np.ndarray:
    """Rows of ``u`` between a copy of its last row and of its first row."""
    return np.concatenate((u[-1:], u, u[:1]))


def _dx_central(p: np.ndarray, dx: float) -> np.ndarray:
    """Central first difference of the rows inside the padded ``p``."""
    return (p[2:] - p[:-2]) / (2.0 * dx)


def _dxx_central(p: np.ndarray, dx: float) -> np.ndarray:
    """Central second difference of the rows inside the padded ``p``."""
    return (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (dx * dx)


def rhs_burgers(spec: FomSpec, state: np.ndarray) -> np.ndarray:
    """Discrete right-hand side -u * Dx(u) + nu * Dxx(u), periodic stencils."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (spec.n_x,):
        raise ValueError(f"state must have length {spec.n_x}")
    p = _periodic_pad(state)
    return -state * _dx_central(p, spec.dx) + spec.nu * _dxx_central(p, spec.dx)


def _check_cfl(spec: FomSpec, u0: np.ndarray) -> None:
    dx = spec.dx
    if spec.nu > 0.0 and spec.dt > 0.5 * dx * dx / spec.nu:
        raise ValueError(
            f"CFL violation: dt={spec.dt:g} exceeds diffusive limit "
            f"{0.5 * dx * dx / spec.nu:g}"
        )
    umax = float(np.abs(u0).max())
    if umax > 0.0 and spec.dt > dx / umax:
        raise ValueError(
            f"CFL violation: dt={spec.dt:g} exceeds advective limit {dx / umax:g}"
        )


def _recorded_times(spec: FomSpec) -> np.ndarray:
    n_rec = spec.n_steps // spec.stride + 1
    return (spec.dt * spec.stride) * np.arange(n_rec)


def _simulate_burgers(spec: FomSpec) -> np.ndarray:
    x = np.arange(spec.n_x) * spec.dx
    u = spec.amplitude * np.sin(2.0 * np.pi * x / spec.length)
    _check_cfl(spec, u)
    n_rec = spec.n_steps // spec.stride + 1
    out = np.empty((spec.n_x, n_rec), order="F")
    out[:, 0] = u
    col = 1
    dt = spec.dt
    for step in range(1, spec.n_steps + 1):
        k1 = rhs_burgers(spec, u)
        k2 = rhs_burgers(spec, u + 0.5 * dt * k1)
        k3 = rhs_burgers(spec, u + 0.5 * dt * k2)
        k4 = rhs_burgers(spec, u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % spec.stride == 0:
            out[:, col] = u
            col += 1
    return out


def _pulse_field(spec: FomSpec, x: np.ndarray, t: float) -> np.ndarray:
    length = spec.length
    total = np.zeros_like(x)
    for w in range(1, spec.n_pulses + 1):
        s = np.mod(x - spec.wave_speed * t - w * length / spec.n_pulses, length)
        d = s - length * np.round(s / length)  # wrapped distance to the bump
        total += np.exp(-(d * d) / (2.0 * spec.pulse_width**2))
    return total


def _simulate_rotating_pulse(spec: FomSpec) -> np.ndarray:
    x = np.arange(spec.n_x) * spec.dx
    times = _recorded_times(spec)
    out = np.empty((spec.n_x, times.size), order="F")
    for k, t in enumerate(times):
        out[:, k] = _pulse_field(spec, x, t)
    return out


def simulate(spec: FomSpec, n_train: int | None = None) -> SnapshotSet:
    """Run (or evaluate) the generator and package the recorded snapshots,
    the first ``n_train`` (default: all) for training.  The generators fill
    one column-major matrix, which the set adopts read-only."""
    time = TimeGrid(_recorded_times(spec), n_train)
    if spec.kind == "burgers":
        data = _simulate_burgers(spec)
        geometry = Geometry.circle(spec.n_x, spec.length)
    elif spec.kind == "rotating_pulse":
        data = _simulate_rotating_pulse(spec)
        geometry = Geometry.circle(spec.n_x, spec.length)
    else:
        x = np.linspace(0.0, spec.length, spec.n_x)
        profile = np.exp(-spec.decay * x) * np.sin(spec.frequency * x)
        data = np.empty((spec.n_x, time.n_t), order="F")
        data[:] = profile[:, None]
        geometry = Geometry.interval(spec.n_x, 0.0, spec.length)
    data.setflags(write=False)
    layout = StateLayout(n_s=1, n_x=spec.n_x, variable_names=("u",))
    return SnapshotSet(layout, geometry, time, data)


def galerkin_operators(spec: FomSpec, basis: PodBasis) -> RomOperators:
    """Intrusively projected Burgers operators for a given basis.

    The linear part projects the discrete diffusion operator; the
    quadratic part projects the advection form pair by pair using the same
    compressed product convention as the regression (each distinct pair
    once, cross products folded into a single column).
    """
    if spec.kind != "burgers":
        raise ValueError("intrusive projection is defined for the burgers kind")
    v = basis.basis
    if v.shape[0] != spec.n_x:
        raise ValueError("grid mismatch: basis rows must equal n_x")
    r = basis.r
    dx = spec.dx

    padded = _periodic_pad(v)
    dv = _dx_central(padded, dx)
    diffusion = _dxx_central(padded, dx)
    linear = spec.nu * (v.T @ diffusion)

    quadratic = np.empty((r, quadratic_dim(r)))
    col = 0
    for a in range(r):
        for b in range(a, r):
            if a == b:
                full = -v[:, a] * dv[:, a]
            else:
                full = -(v[:, a] * dv[:, b] + v[:, b] * dv[:, a])
            quadratic[:, col] = v.T @ full
            col += 1
    return RomOperators(
        linear=linear, quadratic=quadratic, coupling={}, form="continuous"
    )
