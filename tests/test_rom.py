import struct

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddrom.core import Geometry, SnapFormatError, StateLayout
from ddrom.decomp import Decomposition, decompose_interval, recombine
from ddrom.opinf import RomOperators, quadratic_dim
from ddrom.pod import PodBasis
from ddrom.preprocess import ScalingRecord
from ddrom.rom import (
    CoupledRom,
    DivergenceError,
    integrate,
    load_rom,
    predict_full,
    reduce_initial_condition,
    roll_reduced,
    save_rom,
)


def orthonormal_basis(rows, r, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((rows, r)))
    return PodBasis(basis=q, singular_values=np.geomspace(1.0, 0.1, r))


def identity_scaling(n):
    return ScalingRecord(np.zeros(n), np.array([1.0]), "max_abs", ("identity",))


def single_domain_rom(n_x=16, r=3, form="discrete", dt=0.1, seed=0,
                      operators=None):
    layout = StateLayout(n_s=1, n_x=n_x, variable_names=("u",))
    geometry = Geometry.interval(n_x)
    dec = Decomposition.single(n_x)
    basis = orthonormal_basis(n_x, r, seed=seed)
    if operators is None:
        rng = np.random.default_rng(seed + 1)
        operators = RomOperators(
            linear=0.5 * rng.standard_normal((r, r)),
            quadratic=0.05 * rng.standard_normal((r, quadratic_dim(r))),
            coupling={},
            form=form,
        )
    return CoupledRom(
        layout=layout, geometry=geometry, decomposition=dec, bases=[basis],
        operators=[operators], scaling=identity_scaling(n_x), form=form, dt=dt,
    )


def coupled_pair_rom(form="discrete", dt=0.05, coupling_scale=0.1, seed=3):
    n_x, r = 30, 3
    layout = StateLayout(n_s=1, n_x=n_x, variable_names=("u",))
    geometry = Geometry.interval(n_x)
    dec = decompose_interval(geometry, 2, 0.2)
    rng = np.random.default_rng(seed)
    bases, operators = [], []
    for i in range(2):
        rows = dec.dof_indices[i].size
        bases.append(orthonormal_basis(rows, r, seed=seed + i))
        operators.append(
            RomOperators(
                linear=0.4 * rng.standard_normal((r, r)),
                quadratic=0.02 * rng.standard_normal((r, quadratic_dim(r))),
                coupling={1 - i: coupling_scale * rng.standard_normal((r, r))},
                form=form,
            )
        )
    return CoupledRom(
        layout=layout, geometry=geometry, decomposition=dec, bases=bases,
        operators=operators, scaling=identity_scaling(n_x), form=form, dt=dt,
    )


class TestRollReduced:
    def test_discrete_map_iteration(self):
        rom = single_domain_rom(form="discrete")
        q0 = np.array([0.3, -0.2, 0.1])
        traj, = integrate(rom, [q0], 5)
        # hand iteration must match bit for bit
        state = q0.copy()
        np.testing.assert_array_equal(traj[:, 0], q0)
        for s in range(5):
            state = rom.operators[0].apply(state, [state])
            np.testing.assert_array_equal(traj[:, s + 1], state)

    def test_pure_linear_map_flips_sign(self):
        r = 3
        ops = RomOperators(linear=-np.eye(r),
                           quadratic=np.zeros((r, quadratic_dim(r))),
                           coupling={}, form="discrete")
        rom = single_domain_rom(r=r, operators=ops)
        e1 = np.array([1.0, 0.0, 0.0])
        traj, = integrate(rom, [e1], 1)
        np.testing.assert_array_equal(traj[:, 1], -e1)

    def test_rk4_matches_exponential_decay(self):
        # dq/dt = -q from e_1: |q(1) - exp(-1) e_1| small at dt = 0.01
        r = 2
        ops = RomOperators(linear=-np.eye(r),
                           quadratic=np.zeros((r, quadratic_dim(r))),
                           coupling={}, form="continuous")
        rom = single_domain_rom(r=r, form="continuous", dt=0.01, operators=ops)
        e1 = np.array([1.0, 0.0])
        traj, = integrate(rom, [e1], 100)
        assert abs(traj[0, -1] - np.exp(-1.0)) <= 1e-9
        assert abs(traj[1, -1]) <= 1e-15

    def test_rk4_step_against_hand_stages(self):
        r = 2
        rng = np.random.default_rng(9)
        a = rng.standard_normal((r, r))
        ops = RomOperators(linear=a, quadratic=np.zeros((r, quadratic_dim(r))),
                           coupling={}, form="continuous")
        dt = 0.2
        q0 = rng.standard_normal(r)
        traj, = roll_reduced([ops], "continuous", dt, [q0], 1)
        k1 = a @ q0
        k2 = a @ (q0 + 0.5 * dt * k1)
        k3 = a @ (q0 + 0.5 * dt * k2)
        k4 = a @ (q0 + dt * k3)
        expected = q0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(traj[:, 1], expected, atol=1e-15)

    def test_zero_steps(self):
        rom = single_domain_rom()
        traj, = integrate(rom, [np.zeros(3)], 0)
        assert traj.shape == (3, 1)

    def test_divergence_reports_the_step(self):
        r = 2
        ops = RomOperators(linear=3.0 * np.eye(r),
                           quadratic=np.ones((r, quadratic_dim(r))),
                           coupling={}, form="discrete")
        with pytest.raises(DivergenceError, match=r"diverged at step \d+") as ei:
            roll_reduced([ops], "discrete", 1.0, [np.full(r, 50.0)], 400)
        assert ei.value.step >= 1

    def test_coupling_off_equals_independent_runs(self):
        rom = coupled_pair_rom(coupling_scale=0.0)
        init = [np.array([0.2, -0.1, 0.3]), np.array([-0.4, 0.1, 0.0])]
        coupled = integrate(rom, init, 20)
        for i in range(2):
            solo_ops = RomOperators(
                linear=rom.operators[i].linear,
                quadratic=rom.operators[i].quadratic,
                coupling={},
                form="discrete",
            )
            solo, = roll_reduced([solo_ops], "discrete", rom.dt, [init[i]], 20)
            assert np.abs(coupled[i] - solo).max() <= 1e-12

    def test_single_subdomain_path_is_bit_identical(self):
        rom = single_domain_rom(form="continuous", dt=0.05)
        q0 = np.array([0.5, 0.2, -0.3])
        via_rom = integrate(rom, [q0], 40)[0]
        direct = roll_reduced(rom.operators, "continuous", 0.05, [q0], 40)[0]
        np.testing.assert_array_equal(via_rom, direct)


class TestCoupledRomValidation:
    def test_coupling_keys_must_match_adjacency(self):
        rom_parts = coupled_pair_rom()
        bad_ops = [
            RomOperators(
                linear=rom_parts.operators[0].linear,
                quadratic=rom_parts.operators[0].quadratic,
                coupling={},  # missing the declared neighbor
                form="discrete",
            ),
            rom_parts.operators[1],
        ]
        with pytest.raises(ValueError, match="coupling"):
            CoupledRom(
                layout=rom_parts.layout, geometry=rom_parts.geometry,
                decomposition=rom_parts.decomposition, bases=rom_parts.bases,
                operators=bad_ops, scaling=rom_parts.scaling,
                form="discrete", dt=0.05,
            )

    def test_basis_rows_must_cover_subdomain_dofs(self):
        rom_parts = coupled_pair_rom()
        bad_bases = [orthonormal_basis(7, 3), rom_parts.bases[1]]
        with pytest.raises(ValueError, match="rows"):
            CoupledRom(
                layout=rom_parts.layout, geometry=rom_parts.geometry,
                decomposition=rom_parts.decomposition, bases=bad_bases,
                operators=rom_parts.operators, scaling=rom_parts.scaling,
                form="discrete", dt=0.05,
            )


class TestPredictFull:
    def test_in_span_initial_state_round_trips(self):
        rom = single_domain_rom(form="discrete")
        q0 = np.array([0.4, -0.2, 0.7])
        full0 = rom.bases[0].basis @ q0  # identity scaling
        reduced = reduce_initial_condition(rom, full0)
        np.testing.assert_allclose(reduced[0], q0, atol=1e-12)

    def test_timestamps_and_first_column(self):
        rom = single_domain_rom(form="discrete", dt=0.25)
        q0 = np.array([0.4, -0.2, 0.7])
        full0 = rom.bases[0].basis @ q0
        out = predict_full(rom, full0, steps=4, t_start=2.0)
        np.testing.assert_allclose(out.time.timestamps,
                                   2.0 + 0.25 * np.arange(5), atol=1e-15)
        np.testing.assert_allclose(out.data[:, 0], full0, atol=1e-12)

    def test_k1_prediction_equals_unblended_lift(self):
        rom = single_domain_rom(form="discrete", dt=0.1)
        q0 = np.array([0.1, 0.2, -0.1])
        full0 = rom.bases[0].basis @ q0
        out = predict_full(rom, full0, steps=6)
        traj, = integrate(rom, reduce_initial_condition(rom, full0), 6)
        np.testing.assert_allclose(out.data, rom.bases[0].basis @ traj,
                                   atol=1e-12)

    def test_coupled_prediction_matches_recombined_lift(self):
        rom = coupled_pair_rom(form="discrete")
        rng = np.random.default_rng(8)
        full0 = rng.standard_normal(rom.layout.n)
        out = predict_full(rom, full0, steps=7)
        trajs = integrate(rom, reduce_initial_condition(rom, full0), 7)
        fields = []
        for i in range(rom.k):
            field = np.zeros((rom.layout.n, 8))
            rows = rom.layout.point_rows(rom.decomposition.dof_indices[i])
            field[rows] = rom.bases[i].basis @ trajs[i]
            fields.append(field)
        expected = recombine(fields, rom.weights)
        np.testing.assert_array_equal(out.data, expected)
        assert not out.data.flags.writeable

    def test_wrong_state_length(self):
        rom = single_domain_rom()
        with pytest.raises(ValueError, match="length"):
            predict_full(rom, np.zeros(5), steps=1)


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("form", ["continuous", "discrete"])
    def test_everything_survives(self, tmp_path, form):
        rom = coupled_pair_rom(form=form)
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        back = load_rom(path)
        assert back.form == rom.form
        assert back.dt == rom.dt
        assert back.layout == rom.layout
        assert back.geometry == rom.geometry
        assert back.decomposition.topology == rom.decomposition.topology
        for i in range(2):
            np.testing.assert_array_equal(
                back.decomposition.dof_indices[i],
                rom.decomposition.dof_indices[i],
            )
            assert back.decomposition.adjacency[i] == rom.decomposition.adjacency[i]
            np.testing.assert_array_equal(back.bases[i].basis,
                                          rom.bases[i].basis)
            np.testing.assert_array_equal(back.bases[i].singular_values,
                                          rom.bases[i].singular_values)
            np.testing.assert_array_equal(back.operators[i].linear,
                                          rom.operators[i].linear)
            np.testing.assert_array_equal(back.operators[i].quadratic,
                                          rom.operators[i].quadratic)
            np.testing.assert_array_equal(back.operators[i].coupling[1 - i],
                                          rom.operators[i].coupling[1 - i])
        np.testing.assert_array_equal(back.scaling.mean_field,
                                      rom.scaling.mean_field)
        np.testing.assert_array_equal(back.scaling.scale, rom.scaling.scale)
        assert back.scaling.scaling_kind == rom.scaling.scaling_kind
        assert back.scaling.transform_spec == rom.scaling.transform_spec

    def test_loaded_model_predicts_identically(self, tmp_path):
        rom = coupled_pair_rom(form="discrete")
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        back = load_rom(path)
        init = [np.array([0.1, 0.0, -0.2]), np.array([0.3, -0.1, 0.2])]
        a = integrate(rom, init, 15)
        b = integrate(back, init, 15)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_truncation_is_detected(self, tmp_path):
        rom = single_domain_rom()
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-4])
        with pytest.raises(SnapFormatError, match="truncated"):
            load_rom(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"WHAT" + bytes(100))
        with pytest.raises(SnapFormatError, match="magic"):
            load_rom(path)

    def test_huge_declared_point_count(self, tmp_path):
        path = tmp_path / "model.bin"
        save_rom(single_domain_rom(), path)
        raw = bytearray(path.read_bytes())
        # magic, u32 version and form, u64 k, f64 dt, u64 n_s, then n_x
        struct.pack_into("<Q", raw, 36, 2**50)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapFormatError, match="truncated"):
            load_rom(path)


_MODEL_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(0, 7)), min_size=1, max_size=8)),
)


class TestModelLoaderFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutation=_MODEL_MUTATIONS)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_malformed_models_raise_only_format_errors(self, tmp_path, mutation):
        path = tmp_path / "model.bin"
        save_rom(coupled_pair_rom(form="continuous"), path)
        raw = bytearray(path.read_bytes())
        kind, arg = mutation
        if kind == "truncate":
            raw = raw[: int(arg * (len(raw) - 1))]
        else:
            for where, bit in arg:
                raw[int(where * (len(raw) - 1))] ^= 1 << bit
        path.write_bytes(bytes(raw))
        try:
            load_rom(path)
        except SnapFormatError:
            pass


def test_continuous_rk4_converges_at_fourth_order():
    rng = np.random.default_rng(40)
    r = 3
    a = rng.standard_normal((r, r))
    a = a - a.T - 0.5 * np.eye(r)  # mildly dissipative
    ops = RomOperators(linear=a, quadratic=np.zeros((r, quadratic_dim(r))),
                       coupling={}, form="continuous")
    q0 = rng.standard_normal(r)
    horizon = 1.0
    exact = la.expm(horizon * a) @ q0

    def error(dt):
        steps = int(round(horizon / dt))
        traj, = roll_reduced([ops], "continuous", dt, [q0], steps)
        return np.abs(traj[:, -1] - exact).max()

    assert error(0.02) / error(0.01) >= 14.0
