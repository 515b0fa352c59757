import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddrom.core import (
    Geometry,
    SnapFormatError,
    SnapshotSet,
    StateLayout,
    TimeGrid,
    load_initial_state,
    load_snapshots,
    save_snapshots,
)

from conftest import make_set


class TestStateLayout:
    def test_row_layout_is_variable_major(self):
        layout = StateLayout(n_s=2, n_x=5, variable_names=("rho", "u"))
        assert layout.n == 10
        assert layout.rows(0) == slice(0, 5)
        assert layout.rows(1) == slice(5, 10)
        assert layout.variable_index("u") == 1

    def test_unknown_variable(self):
        layout = StateLayout(n_s=1, n_x=4, variable_names=("p",))
        with pytest.raises(ValueError, match="unknown variable 'q'"):
            layout.variable_index("q")

    def test_name_count_must_match(self):
        with pytest.raises(ValueError):
            StateLayout(n_s=2, n_x=4, variable_names=("only",))

    def test_point_rows_are_variable_major(self):
        layout = StateLayout(n_s=2, n_x=6, variable_names=("rho", "u"))
        np.testing.assert_array_equal(layout.point_rows([4, 1]), [4, 1, 10, 7])

    def test_point_rows_out_of_range(self):
        layout = StateLayout(n_s=2, n_x=6, variable_names=("rho", "u"))
        for bad in ([6], [-1]):
            with pytest.raises(ValueError, match="range"):
                layout.point_rows(np.array(bad))

    def test_units_do_not_affect_equality(self):
        a = StateLayout(n_s=1, n_x=4, variable_names=("p",), variable_units=("Pa",))
        b = StateLayout(n_s=1, n_x=4, variable_names=("p",))
        assert a == b


class TestGeometry:
    def test_circle_angles_cover_the_period(self):
        g = Geometry.circle(8, length=2.0)
        assert g.periodic
        assert g.n_x == 8
        np.testing.assert_allclose(g.angular, np.arange(8) * (2 * np.pi / 8))
        assert np.all(g.angular < 2 * np.pi)

    def test_interval_is_not_periodic(self):
        g = Geometry.interval(11, 0.0, 1.0)
        assert not g.periodic
        assert g.angular is None
        assert g.coords[0, 0] == 0.0 and g.coords[-1, 0] == 1.0

    def test_annulus_tiles_angles_over_radii(self):
        g = Geometry.annulus(6, radii=(1.0, 2.0))
        assert g.n_x == 12
        assert g.dim == 2
        np.testing.assert_allclose(g.angular[:6], g.angular[6:])
        np.testing.assert_allclose(np.hypot(g.coords[6:, 0], g.coords[6:, 1]), 2.0)

    def test_angular_range_is_validated(self):
        with pytest.raises(ValueError):
            Geometry(np.arange(4.0), periodic=True, angular=[0.0, 1.0, 2.0, 7.0])


class TestTimeGrid:
    def test_split_defaults_to_everything(self):
        t = TimeGrid([0.0, 0.1, 0.2])
        assert t.n_t == 3
        assert t.n_train == 3
        assert t.t_init == 0.0
        assert t.t_final == pytest.approx(0.2)

    def test_training_horizon_end(self):
        t = TimeGrid([0.0, 0.1, 0.2, 0.3], n_train=3)
        assert t.t_train == pytest.approx(0.2)

    def test_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeGrid([0.0, 0.2, 0.1])

    def test_train_count_bounds(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0, 0.1], n_train=3)
        with pytest.raises(ValueError):
            TimeGrid([0.0, 0.1], n_train=0)

    def test_with_train_count(self):
        t = TimeGrid([0.0, 0.1, 0.2]).with_train_count(2)
        assert t.n_train == 2


class TestSnapshotSet:
    def test_data_is_read_only(self):
        sset = make_set(np.zeros((6, 4)), n_s=2)
        with pytest.raises(ValueError):
            sset.data[0, 0] = 1.0

    def test_rejects_non_finite(self):
        data = np.zeros((4, 3))
        data[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            make_set(data)

    def test_owned_read_only_array_is_adopted(self):
        data = np.ones((4, 3))
        data.setflags(write=False)
        assert make_set(data).data is data

    def test_writable_or_borrowed_arrays_are_copied(self):
        data = np.ones((4, 3))
        sset = make_set(data)
        assert sset.data is not data and not sset.data.flags.writeable
        view = data[:, :2]
        view.setflags(write=False)
        assert make_set(view).data is not view

    def test_variable_block(self):
        data = np.arange(12.0).reshape(6, 2)
        sset = make_set(data, n_s=2)
        np.testing.assert_array_equal(sset.variable_block(1), data[3:6])

    def test_shape_must_match_layout(self):
        layout = StateLayout(n_s=1, n_x=4, variable_names=("u",))
        geometry = Geometry.interval(4)
        time = TimeGrid([0.0, 1.0])
        with pytest.raises(ValueError):
            SnapshotSet(layout=layout, geometry=geometry, time=time,
                        data=np.zeros((5, 2)))


class TestSnapshotFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        sset = make_set(rng.standard_normal((10, 6)), n_s=2, periodic=True,
                        n_train=4, names=("rho", "u"))
        path = tmp_path / "snaps.bin"
        save_snapshots(sset, path)
        back = load_snapshots(path)
        assert back.layout == sset.layout
        assert back.geometry == sset.geometry
        assert back.time.n_train == 4
        np.testing.assert_array_equal(back.time.timestamps, sset.time.timestamps)
        np.testing.assert_array_equal(back.data, sset.data)

    def test_round_trip_non_periodic(self, tmp_path):
        sset = make_set(np.eye(5), n_s=1)
        path = tmp_path / "s.bin"
        save_snapshots(sset, path)
        back = load_snapshots(path)
        assert back.geometry == sset.geometry
        assert not back.geometry.periodic
        assert back.time.n_train == back.n_t

    def test_circle_angles_survive_the_trip(self, tmp_path):
        # angles are not stored; the loader rebuilds them from the grid
        sset = make_set(np.ones((8, 3)), periodic=True)
        path = tmp_path / "c.bin"
        save_snapshots(sset, path)
        back = load_snapshots(path)
        np.testing.assert_allclose(back.geometry.angular, sset.geometry.angular,
                                   atol=1e-15)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SnapFormatError, match="magic"):
            load_snapshots(path)

    def test_truncated_file(self, tmp_path):
        sset = make_set(np.ones((4, 3)))
        path = tmp_path / "t.bin"
        save_snapshots(sset, path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 9])
        with pytest.raises(SnapFormatError, match="truncated"):
            load_snapshots(path)

    def test_trailing_bytes(self, tmp_path):
        sset = make_set(np.ones((4, 3)))
        path = tmp_path / "t.bin"
        save_snapshots(sset, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(SnapFormatError, match="trailing"):
            load_snapshots(path)

    def test_fortran_order_on_disk(self, tmp_path):
        # first column must appear contiguously before the second
        sset = make_set(np.array([[1.0, 3.0], [2.0, 4.0]]))
        path = tmp_path / "f.bin"
        save_snapshots(sset, path)
        raw = path.read_bytes()
        tail = np.frombuffer(raw[-32:], dtype="<f8")
        np.testing.assert_array_equal(tail, [1.0, 2.0, 3.0, 4.0])


    def test_column_major_data_writes_the_same_bytes(self, tmp_path):
        data = np.arange(12.0).reshape(4, 3)
        save_snapshots(make_set(data), tmp_path / "c.bin")
        save_snapshots(make_set(np.asfortranarray(data)), tmp_path / "f.bin")
        assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "f.bin").read_bytes()


def _header_offset(field: str) -> int:
    # magic, u32 version, u32 flags, then u64 n_s, n_x, n_t, d
    return {"n_s": 12, "n_x": 20, "n_t": 28, "dim": 36}[field]


def _forge(raw: bytes, field: str, value: int) -> bytes:
    out = bytearray(raw)
    struct.pack_into("<Q", out, _header_offset(field), value)
    return bytes(out)


READERS = [load_snapshots, load_initial_state]


class TestInitialState:
    def test_header_and_first_column(self, tmp_path):
        rng = np.random.default_rng(3)
        sset = make_set(rng.standard_normal((8, 5)), n_s=2, periodic=True,
                        n_train=3, names=("rho", "u"))
        path = tmp_path / "s.bin"
        save_snapshots(sset, path)
        head, state = load_initial_state(path)
        assert head.layout == sset.layout
        assert head.geometry == sset.geometry
        assert head.time == sset.time
        np.testing.assert_array_equal(state, sset.data[:, 0])

    def test_single_column_file(self, tmp_path):
        sset = make_set(np.arange(4.0)[:, None])
        path = tmp_path / "s.bin"
        save_snapshots(sset, path)
        head, state = load_initial_state(path)
        assert head.time.n_t == 1
        np.testing.assert_array_equal(state, np.arange(4.0))

    def test_scan_buffer_never_exceeds_the_payload(self, tmp_path):
        sset = make_set(np.ones((64, 31)))
        path = tmp_path / "s.bin"
        save_snapshots(sset, path)
        tracemalloc.start()
        try:
            load_initial_state(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rest: the file object's own 8 KiB buffer and the header arrays
        assert peak < sset.data.nbytes + 16384

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("column", [0, 1, 4])
    def test_non_finite_value_in_any_column(self, tmp_path, reader, column):
        sset = make_set(np.ones((6, 5)))
        path = tmp_path / "s.bin"
        save_snapshots(sset, path)
        raw = bytearray(path.read_bytes())
        at = len(raw) - 8 * 6 * (5 - column) + 8 * 2
        raw[at:at + 8] = struct.pack("<d", np.inf)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapFormatError, match="non-finite"):
            reader(path)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("field", ["n_s", "n_x", "n_t"])
    def test_huge_declared_count_is_a_format_error(self, tmp_path, reader, field):
        path = tmp_path / "s.bin"
        save_snapshots(make_set(np.ones((4, 3))), path)
        path.write_bytes(_forge(path.read_bytes(), field, 2**50))
        with pytest.raises(SnapFormatError, match="truncated"):
            reader(path)

    @pytest.mark.parametrize("reader", READERS)
    def test_same_refusals_as_the_full_reader(self, tmp_path, reader):
        path = tmp_path / "s.bin"
        save_snapshots(make_set(np.ones((4, 3)), n_train=2), path)
        whole = path.read_bytes()
        cases = {
            "magic": b"NOPE" + whole[4:],
            "version": whole[:4] + struct.pack("<I", 9) + whole[8:],
            "truncated": whole[:-9],
            "trailing": whole + b"extra",
            # training count 7 in the flags word, above n_t = 3
            "exceeds": whole[:8] + struct.pack("<I", 7 << 1) + whole[12:],
        }
        for match, raw in cases.items():
            path.write_bytes(raw)
            with pytest.raises(SnapFormatError, match=match):
                reader(path)


def _valid_file_bytes(tmp_path) -> bytes:
    rng = np.random.default_rng(11)
    sset = make_set(rng.standard_normal((6, 4)), n_s=2, periodic=True,
                    n_train=3, names=("rho", "u"))
    path = tmp_path / "valid.bin"
    save_snapshots(sset, path)
    return path.read_bytes()


_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(0, 7)), min_size=1, max_size=8)),
    st.tuples(st.just("count"), st.tuples(
        st.sampled_from(["n_s", "n_x", "n_t", "dim"]),
        st.one_of(st.integers(0, 64), st.integers(2**31, 2**64 - 1)))),
)


def _mutate(raw: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return raw[: int(arg * (len(raw) - 1))]
    if kind == "flip":
        out = bytearray(raw)
        for where, bit in arg:
            out[int(where * (len(out) - 1))] ^= 1 << bit
        return bytes(out)
    return _forge(raw, *arg)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutation=_MUTATIONS)
    def test_malformed_files_raise_only_format_errors(self, tmp_path, mutation):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(_mutate(_valid_file_bytes(tmp_path), mutation))
        for reader in READERS:
            try:
                reader(path)
            except SnapFormatError:
                pass
