import ast
import importlib
import os
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ddrom
from ddrom.core import (
    Geometry,
    SnapFormatError,
    SnapshotFile,
    SnapshotSet,
    StateLayout,
    TimeGrid,
    load_initial_state,
    load_snapshots,
    save_snapshots,
)
from ddrom import core
from ddrom.preprocess import BlockSource

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


class TestGeometry:
    def test_circle_angles_cover_the_period(self):
        g = Geometry.circle(8, length=2.0)
        assert g.periodic
        assert g.n_x == 8
        # bit for bit: these are the angles a model file stores
        np.testing.assert_array_equal(g.angular, np.arange(8) * (2 * np.pi / 8))
        assert np.all(g.angular < 2 * np.pi)
        assert not g.angular.flags.writeable

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

    def test_permuted_annulus_gets_the_angles_of_its_coordinates(self):
        ring = Geometry.annulus(12, radii=(1.0, 2.5))
        perm = np.random.default_rng(3).permutation(ring.n_x)
        x, y = ring.coords[perm, 0], ring.coords[perm, 1]
        expected = np.mod(np.arctan2(y, x), 2 * np.pi)
        expected[expected >= 2 * np.pi] = 0.0
        g = Geometry(ring.coords[perm], periodic=True)
        np.testing.assert_array_equal(g.angular, expected)
        np.testing.assert_array_equal(g.angular, ring.angular[perm])

    def test_only_periodic_grids_get_angles(self):
        assert Geometry(np.ones((3, 2)), periodic=False).angular is None
        np.testing.assert_array_equal(Geometry([0.5], periodic=True).angular, [0.0])


class TestTimeGrid:
    def test_split_defaults_to_everything(self):
        t = TimeGrid([0.0, 0.1, 0.2])
        assert t.n_t == 3
        assert t.n_train == 3
        assert t.t_init == 0.0

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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_finiteness_check_forms_no_mask(self, order):
        # a 16 MiB matrix: a whole-matrix mask would take 2 MiB
        data = np.ones((4096, 512), order=order)
        data.setflags(write=False)
        tracemalloc.start()
        try:
            sset = make_set(data, n_s=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sset.data is data
        assert peak < 1 << 20

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


def _time_as_opened(opener: str, path, n_train):
    """The time grid that ``opener`` gives the file at ``path``."""
    if opener == "load_snapshots":
        return load_snapshots(path, n_train).time
    if opener == "load_initial_state":
        return load_initial_state(path, n_train)[0].time
    with {"SnapshotFile": SnapshotFile, "BlockSource": BlockSource}[opener](
            path, n_train) as snap:
        return snap.header.time


@pytest.mark.parametrize(
    "opener", ["SnapshotFile", "BlockSource", "load_snapshots", "load_initial_state"])
def test_every_opener_applies_the_training_split(tmp_path, opener):
    path = tmp_path / "s.bin"
    save_snapshots(make_set(np.arange(1.0, 13.0).reshape(3, 4), n_train=3), path)
    assert _time_as_opened(opener, path, None).n_train == 3
    assert _time_as_opened(opener, path, 2).n_train == 2
    assert _time_as_opened(opener, path, 4).n_train == 4
    with pytest.raises(ValueError, match=r"n_train must lie in \[1, n_t\]"):
        _time_as_opened(opener, path, 5)


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
        # angles are not stored; the geometry derives them from the grid
        sset = make_set(np.ones((8, 3)), periodic=True)
        path = tmp_path / "c.bin"
        save_snapshots(sset, path)
        back = load_snapshots(path)
        np.testing.assert_array_equal(back.geometry.angular, sset.geometry.angular)

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


class TestColumnChunks:
    """A set and the file that holds it give the same chunks; the writer
    takes them back."""

    @pytest.mark.parametrize("width", [1, 2, 3, 7])
    def test_set_and_file_split_the_columns_alike(self, tmp_path, monkeypatch,
                                                  width):
        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 6 * width)
        sset = make_set(np.arange(42.0).reshape(6, 7), n_s=2)
        save_snapshots(sset, tmp_path / "s.bin")
        with SnapshotFile(tmp_path / "s.bin") as snap:
            for start, stop in ((0, 7), (2, 7), (3, 4), (5, 5)):
                got = [(j, m.copy()) for j, m in snap.chunks(start, stop)]
                want = list(sset.chunks(start, stop))
                assert [j for j, _ in got] == [j for j, _ in want]
                for (_, x), (_, y) in zip(got, want):
                    assert x.shape[1] <= width
                    np.testing.assert_array_equal(x, y)
                if stop > start:
                    np.testing.assert_array_equal(
                        np.hstack([m for _, m in got]), sset.data[:, start:stop])

    def test_check_finite_gives_each_variables_largest_magnitude(self, tmp_path):
        data = np.array([[1.0, -4.0], [2.0, 0.5], [-0.25, 0.0], [0.125, 3.0]])
        sset = make_set(data, n_s=2)
        save_snapshots(sset, tmp_path / "s.bin")
        with SnapshotFile(tmp_path / "s.bin") as snap:
            np.testing.assert_array_equal(snap.check_finite(0, 2), [4.0, 3.0])
            np.testing.assert_array_equal(snap.check_finite(0, 1), [2.0, 0.25])
        np.testing.assert_array_equal(sset.check_finite(1, 2), [4.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_finite_refuses_a_value_in_any_variable(self, tmp_path, bad):
        raw = bytearray(_valid_file_bytes(tmp_path))
        # the last payload value belongs to the second variable
        raw[-8:] = np.array([bad]).tobytes()
        (tmp_path / "bad.bin").write_bytes(bytes(raw))
        with SnapshotFile(tmp_path / "bad.bin") as snap:
            with pytest.raises(SnapFormatError, match="non-finite data"):
                snap.check_finite(0, snap.header.time.n_t)

    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_every_source_is_written_to_the_same_bytes(self, tmp_path,
                                                       monkeypatch, width):
        # a row-major set, the column-major set and the file that holds it
        data = np.arange(42.0).reshape(6, 7) + 0.5
        sset = make_set(data, n_s=2, n_train=4)
        save_snapshots(sset, tmp_path / "saved.bin")
        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 6 * width)
        save_snapshots(sset.with_data(np.asfortranarray(data)), tmp_path / "f.bin")
        with SnapshotFile(tmp_path / "saved.bin") as snap:
            save_snapshots(snap, tmp_path / "copy.bin")
        saved = (tmp_path / "saved.bin").read_bytes()
        assert (tmp_path / "f.bin").read_bytes() == saved
        assert (tmp_path / "copy.bin").read_bytes() == saved

    class _Failing:
        """A chunk source whose chunks fail after ``good`` of them."""

        def __init__(self, sset, good):
            self.header, self.sset, self.good = sset.header, sset, good

        def chunks(self, start, stop):
            yield from list(self.sset.chunks(start, start + 2))[: self.good]
            raise RuntimeError("lifting failed")

    def test_a_failure_after_opening_removes_the_file(self, tmp_path):
        sset = make_set(np.arange(42.0).reshape(6, 7), n_s=2)
        path = tmp_path / "out.bin"
        path.write_bytes(b"stale")
        with pytest.raises(RuntimeError, match="lifting failed"):
            save_snapshots(self._Failing(sset, 1), path)
        assert not path.exists()

    def test_a_failure_before_the_first_chunk_leaves_the_path_alone(self, tmp_path):
        sset = make_set(np.arange(42.0).reshape(6, 7), n_s=2)
        path = tmp_path / "out.bin"
        path.write_bytes(b"stale")
        with pytest.raises(RuntimeError, match="lifting failed"):
            save_snapshots(self._Failing(sset, 0), path)
        assert path.read_bytes() == b"stale"


def _header_offset(field: str) -> int:
    # magic, u32 version, u32 flags, then u64 n_s, n_x, n_t, d
    return {"n_s": 12, "n_x": 20, "n_t": 28, "dim": 36}[field]


def _forge(raw: bytes, field: str, value: int) -> bytes:
    out = bytearray(raw)
    struct.pack_into("<Q", out, _header_offset(field), value)
    return bytes(out)


def read_blocks(path):
    """Everything the training block source reads of a file: the header,
    the prediction columns, the scaling passes and two blocks, one of them
    a run of single rows."""
    with BlockSource(path) as source:
        source.fit("max_abs")
        n_x = source.header.layout.n_x
        for _ in source.blocks([np.arange(0, n_x, 2), np.arange(n_x)]):
            pass


READERS = [load_snapshots, load_initial_state, read_blocks]


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


def test_file_cut_short_after_opening_is_a_format_error(tmp_path):
    path = tmp_path / "s.bin"
    save_snapshots(make_set(np.arange(24.0).reshape(6, 4), n_s=2, n_train=3), path)
    with BlockSource(path) as source:
        # into the last training column
        os.truncate(path, path.stat().st_size - 8 * 6 - 8)
        with pytest.raises(SnapFormatError, match="truncated"):
            source.fit()


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
            except ValueError:
                # the scaling may refuse the values of a well-formed file
                # (a flipped exponent overflows the mean); the format
                # itself must then pass the full reader
                assert reader is read_blocks
                load_snapshots(path)


def test_package_exports_are_exported_by_their_modules():
    missing = [
        name
        for name in ddrom.__all__
        if name != "__version__"
        and name not in sys.modules[getattr(ddrom, name).__module__].__all__
    ]
    assert missing == []


def test_modules_use_every_name_they_import():
    """A name a module imports must appear in its code; docstrings and
    ``__all__`` strings do not count.  Lines marked ``# noqa`` keep an
    import on purpose (``rom.recombine`` is there to be wrapped)."""
    unused = []
    for path in sorted(Path(ddrom.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def test_modules_use_every_name_they_define():
    """Every module-level function, class and constant is referenced in the
    package outside the statement that defines it, or is listed in its
    module's ``__all__``."""
    refs = []  # (module, statement index, names the statement references)
    defined = []  # (module, statement index, name)
    exported = set()
    for path in sorted(Path(ddrom.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "ddrom" if path.stem == "__init__" else f"ddrom.{path.stem}")
        exported |= {(path.name, n) for n in getattr(module, "__all__", ())}
        for s, stmt in enumerate(ast.parse(path.read_text()).body):
            refs.append((path.name, s, {
                getattr(node, "id", None) or node.attr
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute)
            }))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(path.name, s, n) for n in names if not n.startswith("__")]
    unused = [
        f"{module}: {name}"
        for module, s, name in defined
        if (module, name) not in exported
        and not any(name in used for m, t, used in refs if (m, t) != (module, s))
    ]
    assert unused == []
