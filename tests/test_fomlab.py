import numpy as np
import pytest

from ddrom.fomlab import FomSpec, galerkin_operators, rhs_burgers, simulate
from ddrom.opinf import compress_quadratic
from ddrom.pod import compute_basis


class TestSpec:
    def test_defaults_give_500_snapshots(self):
        spec = FomSpec(kind="burgers")
        assert spec.n_x == 256
        assert spec.dt == 1e-4
        assert spec.n_steps == 49_900
        assert spec.stride == 100
        assert spec.n_steps // spec.stride + 1 == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            FomSpec(kind="unknown")
        with pytest.raises(ValueError):
            FomSpec(kind="burgers", nu=-1.0)
        with pytest.raises(ValueError):
            FomSpec(kind="burgers", stride=0)


@pytest.mark.parametrize("kind", ["burgers", "rotating_pulse", "damped_sine"])
def test_simulate_applies_the_split_to_an_adopted_column_major_matrix(kind):
    # 11 recorded columns
    spec = FomSpec(kind=kind, n_x=32, n_steps=100, stride=10)
    assert simulate(spec).time.n_train == 11
    sset = simulate(spec, n_train=7)
    assert sset.time.n_train == 7
    assert sset.data.flags.f_contiguous and sset.data.flags.owndata
    assert not sset.data.flags.writeable
    with pytest.raises(ValueError, match=r"n_train must lie in \[1, n_t\]"):
        simulate(spec, n_train=12)


class TestDampedSine:
    def test_field_is_analytic(self):
        spec = FomSpec(kind="damped_sine", n_x=1000, decay=3.0,
                       frequency=20.0, n_steps=30, stride=10)
        sset = simulate(spec)
        x = sset.geometry.coords[:, 0]
        expected = np.exp(-3.0 * x) * np.sin(20.0 * x)
        for j in range(sset.n_t):
            np.testing.assert_allclose(sset.data[:, j], expected, atol=1e-15)
        assert not sset.geometry.periodic

    def test_snapshot_count(self):
        spec = FomSpec(kind="damped_sine", n_x=50, n_steps=40, stride=8)
        assert simulate(spec).n_t == 6


class TestRotatingPulse:
    def test_exact_rotation_period(self):
        spec = FomSpec(kind="rotating_pulse", n_x=128, wave_speed=2.0,
                       length=1.0, n_pulses=2, dt=1e-3, n_steps=500, stride=50)
        sset = simulate(spec)
        # period L/c = 0.5 -> snapshot 10 lands exactly one period after 0
        dt_snap = spec.dt * spec.stride
        period_cols = int(round((spec.length / spec.wave_speed) / dt_snap))
        np.testing.assert_allclose(sset.data[:, period_cols], sset.data[:, 0],
                                   atol=1e-12)

    def test_pulses_are_evenly_spaced(self):
        spec = FomSpec(kind="rotating_pulse", n_x=256, n_pulses=2,
                       pulse_width=0.02, n_steps=0, stride=1)
        u0 = simulate(spec).data[:, 0]
        peaks = np.sort(np.argsort(u0)[-2:])
        assert abs((peaks[1] - peaks[0]) - 128) <= 1

    def test_wrapped_distance(self):
        # a pulse near x = 0 must spill over to the far end of the grid
        spec = FomSpec(kind="rotating_pulse", n_x=200, n_pulses=1,
                       pulse_width=0.05, n_steps=0, stride=1)
        u0 = simulate(spec).data[:, 0]
        assert u0[-1] > 1e-8 or u0[1] > 1e-8
        assert u0.max() == pytest.approx(spec.amplitude, rel=1e-12)

    def test_geometry_is_circular(self):
        spec = FomSpec(kind="rotating_pulse", n_x=64, n_steps=0, stride=1)
        sset = simulate(spec)
        assert sset.geometry.periodic
        assert sset.geometry.angular is not None


class TestBurgers:
    def test_snapshots_shape_and_time_axis(self):
        spec = FomSpec(kind="burgers", n_x=64, nu=0.01, dt=1e-4,
                       n_steps=2000, stride=200)
        sset = simulate(spec)
        assert sset.data.shape == (64, 11)
        np.testing.assert_allclose(np.diff(sset.time.timestamps), 0.02,
                                   atol=1e-15)

    def test_mass_is_conserved(self):
        # periodic central differences conserve the spatial mean exactly in
        # the continuum; RK4 keeps it to round-off
        spec = FomSpec(kind="burgers", n_x=128, nu=0.02, dt=1e-4,
                       n_steps=5000, stride=500)
        sset = simulate(spec)
        means = sset.data.mean(axis=0)
        assert np.abs(means - means[0]).max() <= 1e-12

    def test_viscosity_dissipates_energy(self):
        spec = FomSpec(kind="burgers", n_x=128, nu=0.05, dt=1e-4,
                       n_steps=8000, stride=800)
        sset = simulate(spec)
        energy = (sset.data**2).sum(axis=0)
        assert np.all(np.diff(energy) < 0.0)

    def test_diffusive_cfl_guard(self):
        spec = FomSpec(kind="burgers", n_x=512, nu=1.0, dt=1e-3, n_steps=10,
                       stride=1)
        with pytest.raises(ValueError, match="CFL violation"):
            simulate(spec)

    def test_advective_cfl_guard(self):
        spec = FomSpec(kind="burgers", n_x=256, nu=1e-6, amplitude=500.0,
                       dt=1e-3, n_steps=10, stride=1)
        with pytest.raises(ValueError, match="CFL violation"):
            simulate(spec)

    def test_rhs_is_quadratic_plus_linear(self):
        # scaling the state scales the advection quadratically and the
        # diffusion linearly
        rng = np.random.default_rng(60)
        u = rng.standard_normal(64)
        inviscid = FomSpec(kind="burgers", n_x=64, nu=0.0)
        viscous = FomSpec(kind="burgers", n_x=64, nu=0.3)
        full = rhs_burgers(inviscid, u)
        np.testing.assert_allclose(rhs_burgers(inviscid, 2.0 * u), 4.0 * full,
                                   atol=1e-10)
        lin = rhs_burgers(viscous, u) - full
        np.testing.assert_allclose(
            rhs_burgers(viscous, 2.0 * u) - rhs_burgers(inviscid, 2.0 * u),
            2.0 * lin, atol=1e-10)


class TestGalerkinOperators:
    def test_projected_rhs_matches_operator_form(self):
        spec = FomSpec(kind="burgers", n_x=128, nu=0.01, dt=1e-4,
                       n_steps=4000, stride=100)
        sset = simulate(spec)
        basis = compute_basis(sset.data, r=8)
        ops = galerkin_operators(spec, basis)
        assert ops.form == "continuous"
        rng = np.random.default_rng(61)
        for _ in range(5):
            q = rng.standard_normal(8)
            u = basis.basis @ q
            projected = basis.basis.T @ rhs_burgers(spec, u)
            modeled = ops.linear @ q + ops.quadratic @ compress_quadratic(q)
            np.testing.assert_allclose(modeled, projected, atol=1e-10)

    def test_grid_mismatch(self):
        spec = FomSpec(kind="burgers", n_x=128)
        with pytest.raises(ValueError, match="grid mismatch"):
            galerkin_operators(spec, compute_basis(np.eye(64), r=4))

    def test_only_burgers_has_intrusive_operators(self):
        spec = FomSpec(kind="damped_sine", n_x=64)
        with pytest.raises(ValueError):
            galerkin_operators(spec, compute_basis(np.eye(64), r=4))
