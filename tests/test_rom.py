import struct

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddrom import core, preprocess
from ddrom.core import (
    Geometry,
    SnapFormatError,
    SnapshotFile,
    StateLayout,
    save_snapshots,
)
from ddrom.metrics import compare, line_probe
from ddrom.decomp import (
    Decomposition,
    decompose_interval,
    decompose_sectors,
    recombine,
)
from ddrom.opinf import RomOperators, quadratic_dim
from ddrom.pod import PodBasis
from ddrom.preprocess import ScalingRecord
from ddrom.rom import (
    CoupledRom,
    DivergenceError,
    integrate,
    Prediction,
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


def coupled_pair_rom(form="discrete", dt=0.05, coupling_scale=0.1, seed=3,
                     ring=False):
    n_x, r = 30, 3
    layout = StateLayout(n_s=1, n_x=n_x, variable_names=("u",))
    if ring:
        geometry = Geometry.circle(n_x)
        dec = decompose_sectors(geometry, 2, 0.6)
    else:
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


def coupled_chain_rom(k, r=3, seed=5):
    """k subdomains along an interval, each coupled to its neighbors."""
    n_x = 10 * k
    geometry = Geometry.interval(n_x)
    dec = decompose_interval(geometry, k, 0.1)
    rng = np.random.default_rng(seed)
    bases = [orthonormal_basis(idx.size, r, seed=seed + i)
             for i, idx in enumerate(dec.dof_indices)]
    operators = [
        RomOperators(
            linear=0.4 * rng.standard_normal((r, r)),
            quadratic=0.02 * rng.standard_normal((r, quadratic_dim(r))),
            coupling={j: 0.1 * rng.standard_normal((r, r)) for j in nbrs},
            form="discrete",
        )
        for nbrs in dec.adjacency
    ]
    return CoupledRom(
        layout=StateLayout(n_s=1, n_x=n_x, variable_names=("u",)),
        geometry=geometry, decomposition=dec, bases=bases, operators=operators,
        scaling=identity_scaling(n_x), form="discrete", dt=0.1,
    )


def loop_roll(operators, form, dt, init, steps):
    """Reference rollout: each right-hand side concatenates
    ``op.apply(own[i], own)`` over the subdomains, one at a time."""
    parts, start = [], 0
    for op in operators:
        parts.append(slice(start, start + op.r))
        start += op.r

    def rhs(q):
        own = [q[p] for p in parts]
        return np.concatenate(
            [op.apply(own[i], own) for i, op in enumerate(operators)]
        )

    q = np.concatenate(init)
    columns = [q]
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
            columns.append(q)
    out = np.stack(columns, axis=1)
    return [out[p] for p in parts]


@st.composite
def coupled_models(draw):
    """Random coupled operators: k in 1..4, unequal r_i in 1..5, a random
    coupling graph, constants on some subdomains, either form; with
    ``diverge`` the model blows up within a few steps."""
    k = draw(st.integers(1, 4))
    rs = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    edges = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    constants = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    form = draw(st.sampled_from(["continuous", "discrete"]))
    diverge = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = -1.0 if form == "continuous" else 0.5
    ops = []
    for i, r in enumerate(rs):
        linear = base * np.eye(r) + 0.1 * rng.standard_normal((r, r))
        quadratic = 0.05 * rng.standard_normal((r, quadratic_dim(r)))
        if diverge:
            linear, quadratic = linear + 3.0 * np.eye(r), np.abs(quadratic) + 1.0
        coupling = {j: 0.1 * rng.standard_normal((r, rs[j]))
                    for j in range(k) if j != i and edges[i * k + j]}
        constant = 0.1 * rng.standard_normal(r) if constants[i] else None
        ops.append(RomOperators(linear=linear, quadratic=quadratic,
                                coupling=coupling, form=form, constant=constant))
    scale = 50.0 if diverge else 0.5
    init = [scale * rng.uniform(0.5, 1.0, r) for r in rs]
    return ops, form, init, diverge


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

    def test_misspelt_form_is_refused(self):
        ops = RomOperators(linear=0.5 * np.eye(2), quadratic=np.zeros((2, 3)),
                           coupling={}, form="discrete")
        with pytest.raises(ValueError, match=r"^unknown form 'Discrete'$"):
            roll_reduced([ops], "Discrete", 0.1, [np.ones(2)], 2)

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

    @settings(max_examples=80, deadline=None)
    @given(model=coupled_models())
    def test_stacked_step_follows_the_per_subdomain_loop(self, model):
        ops, form, init, diverge = model
        dt, steps = 0.05, 30
        if diverge:
            with pytest.raises(DivergenceError) as want:
                loop_roll(ops, form, dt, init, steps)
            with pytest.raises(DivergenceError) as got:
                roll_reduced(ops, form, dt, init, steps)
            assert got.value.step == want.value.step
            return
        want = np.concatenate(loop_roll(ops, form, dt, init, steps))
        got = np.concatenate(roll_reduced(ops, form, dt, init, steps))
        if len(ops) == 1:
            np.testing.assert_array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_continuous_rollout_refuses_a_bad_dt(self, dt):
        ops = RomOperators(linear=0.5 * np.eye(2), quadratic=np.zeros((2, 3)),
                           coupling={}, form="continuous")
        with pytest.raises(ValueError, match=r"^dt must be positive$"):
            roll_reduced([ops], "continuous", dt, [np.ones(2)], 2)
        discrete = RomOperators(linear=0.5 * np.eye(2),
                                quadratic=np.zeros((2, 3)), form="discrete")
        traj, = roll_reduced([discrete], "discrete", dt, [np.ones(2)], 2)
        np.testing.assert_array_equal(traj[:, 2], [0.25, 0.25])

    @pytest.mark.parametrize("ops_form, form", [("discrete", "continuous"),
                                                ("continuous", "discrete")])
    def test_operators_of_another_form_are_refused(self, ops_form, form):
        ops = RomOperators(linear=0.5 * np.eye(2), quadratic=np.zeros((2, 3)),
                           coupling={}, form=ops_form)
        with pytest.raises(ValueError,
                           match=r"^operator form does not match the model form$"):
            roll_reduced([ops], form, 0.1, [np.ones(2)], 2)

    @pytest.mark.parametrize("neighbor", [1, -1])
    def test_coupling_to_an_unknown_neighbor_is_refused(self, neighbor):
        ops = RomOperators(linear=0.5 * np.eye(2), quadratic=np.zeros((2, 3)),
                           coupling={neighbor: np.ones((2, 2))}, form="discrete")
        with pytest.raises(ValueError, match=rf"^coupling block 0->{neighbor} "
                                             r"names an unknown neighbor$"):
            roll_reduced([ops], "discrete", 0.1, [np.ones(2)], 2)

    def test_coupling_block_of_the_wrong_width_is_refused(self):
        rom = coupled_pair_rom()
        wide = RomOperators(linear=rom.operators[0].linear,
                            quadratic=rom.operators[0].quadratic,
                            coupling={1: np.ones((3, 4))}, form="discrete")
        init = [np.zeros(3), np.zeros(3)]
        with pytest.raises(ValueError, match=r"^coupling block 0->1 does not "
                                             r"match neighbor dimension$"):
            roll_reduced([wide, rom.operators[1]], "discrete", 0.1, init, 2)


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

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_chunks_give_the_whole_prediction(self, monkeypatch, width):
        rom = coupled_pair_rom(ring=True)
        full0 = np.random.default_rng(9).standard_normal(30)
        whole = predict_full(rom, full0, steps=7, t_start=1.5)
        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 30 * width)
        pred = Prediction(rom, full0, steps=7, t_start=1.5)
        assert pred.header.time == whole.time
        parts = [(j, chunk.copy()) for j, chunk in pred.chunks(0, 8)]
        assert [j for j, _ in parts] == list(range(0, 8, width))
        assert all(c.shape[1] <= width for _, c in parts)
        np.testing.assert_array_equal(np.hstack([c for _, c in parts]), whole.data)

    def test_a_prediction_reads_like_its_written_file(self, tmp_path):
        rom = coupled_pair_rom(ring=True)
        pred = Prediction(rom, np.random.default_rng(10).standard_normal(30), 9)
        save_snapshots(pred, tmp_path / "pred.bin")
        with SnapshotFile(tmp_path / "pred.bin") as snap:
            assert snap.header == pred.header
            report, bins = compare(snap, pred)
            np.testing.assert_array_equal(
                line_probe(snap, 0, [3, 29], [9, 0]).values,
                line_probe(pred, 0, [3, 29], [9, 0]).values)
        assert report.training == (0.0,)
        np.testing.assert_array_equal(bins.fractions[:, 0], 1.0)

    def test_a_non_finite_chunk_is_refused(self, monkeypatch):
        # an unscaling that overflows in the second chunk's last column
        def overflow(work, layout, record):
            if work.shape[1] < 4:
                work[-1, -1] = np.inf

        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 30 * 4)
        monkeypatch.setattr(preprocess, "_invert_in_place", overflow)
        chunks = Prediction(coupled_pair_rom(), np.ones(30), steps=6).chunks(0, 7)
        assert next(chunks)[0] == 0
        with pytest.raises(ValueError, match="non-finite data"):
            next(chunks)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [
        "singular_values", "basis", "linear", "quadratic", "coupling", "constant",
    ])
    def test_non_finite_values_are_refused(self, tmp_path, where, bad):
        rom = coupled_pair_rom(form="continuous")
        ops = rom.operators[1]
        rom.operators[1] = RomOperators(
            linear=ops.linear, quadratic=ops.quadratic, coupling=ops.coupling,
            form=ops.form, constant=np.array([0.25, -0.5, 0.125]),
        )
        rom.bases[1] = PodBasis(basis=rom.bases[1].basis,
                                singular_values=np.array([3.5, 2.25, 1.375]))
        ops, basis = rom.operators[1], rom.bases[1]
        value = {
            "singular_values": basis.singular_values[0],
            "basis": basis.basis[2, 1],
            "linear": ops.linear[0, 1],
            "quadratic": ops.quadratic[1, 2],
            "coupling": ops.coupling[0][2, 0],
            "constant": ops.constant[1],
        }[where]
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        raw = path.read_bytes()
        old = struct.pack("<d", value)
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, struct.pack("<d", bad)))
        with pytest.raises(SnapFormatError, match="finite"):
            load_rom(path)

    def test_neighbor_listed_twice_is_refused(self, tmp_path):
        # k = 4 along an interval: subdomain 1 lists neighbors 0 and 2,
        # forged into the list 0, 2, 2 (three entries, still below k), which
        # is not the rule's list
        rom = coupled_chain_rom(4)
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        raw = path.read_bytes()
        old = struct.pack("<QQQ", 2, 0, 2)
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, struct.pack("<QQQQ", 3, 0, 2, 2)))
        with pytest.raises(SnapFormatError, match="subdomain 1 neighbors do "
                           "not follow the partition rule"):
            load_rom(path)

    def test_coupling_block_listed_twice_is_refused(self, tmp_path):
        # subdomain 0's one coupling block, forged into two blocks from
        # subdomain 1, the second with other values
        rom = coupled_pair_rom()
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        raw = path.read_bytes()
        block = rom.operators[0].coupling[1]
        old = struct.pack("<QQQ", 1, 1, 3) + block.tobytes()
        assert raw.count(old) == 1
        new = (struct.pack("<QQQ", 2, 1, 3) + block.tobytes()
               + struct.pack("<QQ", 1, 3) + (2.0 * block).tobytes())
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(SnapFormatError,
                           match="subdomain 0 lists coupling block 1 twice"):
            load_rom(path)

    def test_sector_model_without_angles_is_refused(self, tmp_path):
        # clear the angles flag (2) of geo_flags, which follows magic, u32
        # version and form, u64 k, f64 dt and u64 n_s, n_x, dim, and drop
        # the stored angles
        rom = coupled_pair_rom(ring=True)
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        raw = bytearray(path.read_bytes())
        (flags,) = struct.unpack_from("<I", raw, 52)
        assert flags == 3
        struct.pack_into("<I", raw, 52, 1)
        angles = rom.geometry.angular.tobytes()
        assert raw.count(angles) == 1
        path.write_bytes(bytes(raw).replace(angles, b""))
        with pytest.raises(SnapFormatError,
                           match="stored angles are not those of the coordinates"):
            load_rom(path)

    def test_unknown_geometry_flags_are_refused(self, tmp_path):
        # geo_flags sits at byte 52 (see above); bits 0 and 1 are the only
        # ones defined
        rom = coupled_pair_rom(ring=True)
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        raw = bytearray(path.read_bytes())
        assert struct.unpack_from("<I", raw, 52) == (3,)
        struct.pack_into("<I", raw, 52, 0x80000003)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapFormatError, match="unknown geometry flags"):
            load_rom(path)

    @pytest.mark.parametrize("ring", [False, True])
    def test_stored_interiors_do_not_move_the_weights(self, tmp_path, ring):
        # the weights follow from the geometry, k and the overlap alone
        rom = coupled_pair_rom(ring=ring)
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        old = struct.pack("<dd", *rom.decomposition.interior[0])
        new = struct.pack("<dd", rom.decomposition.interior[0][0],
                          rom.decomposition.interior[0][1] + 0.5)
        raw = path.read_bytes()
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, new))
        back = load_rom(path)
        np.testing.assert_array_equal(back.weights.weights, rom.weights.weights)

    def test_a_point_swapped_between_subdomains_is_refused(self, tmp_path):
        # ring of 30 points, k 2, overlap 0.6: subdomain 0 holds point 0
        # (in the overlap); the forged list holds point 23 (in subdomain 1's
        # interior) in its place, which every stored count still allows
        rom = coupled_pair_rom(ring=True)
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        idx = rom.decomposition.dof_indices[0]
        assert 0 in idx and 23 not in idx
        assert 23 in rom.decomposition.dof_indices[1]
        old = idx.astype("<u8").tobytes()
        raw = path.read_bytes()
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, np.where(idx == 0, 23, idx)
                                     .astype("<u8").tobytes()))
        with pytest.raises(SnapFormatError, match="subdomain 0 does not hold "
                           "the points the partition rule gives it"):
            load_rom(path)

    def test_reversed_angles_are_refused(self, tmp_path):
        # the angles follow from the coordinates, so stored ones that differ
        # are refused before the partition is built
        rom = coupled_pair_rom(ring=True)
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        angles = rom.geometry.angular
        raw = path.read_bytes()
        assert raw.count(angles.tobytes()) == 1
        path.write_bytes(raw.replace(angles.tobytes(), angles[::-1].tobytes()))
        with pytest.raises(SnapFormatError,
                           match="stored angles are not those of the coordinates"):
            load_rom(path)

    @pytest.mark.parametrize("ring", [False, True])
    def test_loaded_decomposition_is_the_rule(self, tmp_path, ring):
        rom = coupled_pair_rom(ring=ring)
        path = tmp_path / "model.bin"
        save_rom(rom, path)
        dec, back = rom.decomposition, load_rom(path).decomposition
        assert back.interior == dec.interior
        assert back.adjacency == dec.adjacency
        for a, b in zip(back.dof_indices, dec.dof_indices):
            np.testing.assert_array_equal(a, b)

    def test_single_domain_model_with_two_subdomains_is_refused(self, tmp_path):
        path = tmp_path / "model.bin"
        save_rom(single_domain_rom(), path)
        raw = bytearray(path.read_bytes())
        # magic, u32 version and form, then u64 k
        assert struct.unpack_from("<Q", raw, 12) == (1,)
        struct.pack_into("<Q", raw, 12, 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapFormatError,
                           match="a single-domain model has one subdomain"):
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


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _load_mutated(path, rom, mutation):
    """Save ``rom``, mutate its bytes and load it: a format error or a model
    whose every value is finite."""
    save_rom(rom, path)
    raw = bytearray(path.read_bytes())
    kind, arg = mutation
    if kind == "truncate":
        raw = raw[: int(arg * (len(raw) - 1))]
    else:
        for where, bit in arg:
            raw[int(where * (len(raw) - 1))] ^= 1 << bit
    path.write_bytes(bytes(raw))
    try:
        model = load_rom(path)
    except SnapFormatError:
        return
    values = [model.dt, model.decomposition.overlap, model.decomposition.interior,
              model.geometry.coords, model.scaling.mean_field, model.scaling.scale]
    for basis, ops in zip(model.bases, model.operators):
        values += [basis.basis, basis.singular_values, ops.linear,
                   ops.quadratic, *ops.coupling.values()]
        if ops.constant is not None:
            values.append(ops.constant)
    assert all(np.all(np.isfinite(v)) for v in values)


class TestModelLoaderFuzz:
    @_FUZZ
    @given(mutation=_MODEL_MUTATIONS)
    def test_malformed_models_raise_only_format_errors(self, tmp_path, mutation):
        _load_mutated(tmp_path / "model.bin", coupled_pair_rom(form="continuous"),
                      mutation)

    @_FUZZ
    @given(mutation=_MODEL_MUTATIONS)
    def test_malformed_sector_models_raise_only_format_errors(self, tmp_path,
                                                              mutation):
        # a ring model also stores angles, which the loader checks
        _load_mutated(tmp_path / "model.bin",
                      coupled_pair_rom(form="continuous", ring=True), mutation)


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
