from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddrom import core, preprocess
from ddrom.core import (
    Geometry,
    SnapshotFile,
    SnapshotSet,
    StateLayout,
    TimeGrid,
    load_snapshots,
    save_snapshots,
)
from ddrom.decomp import decompose_sectors
from ddrom.preprocess import (
    BlockSource,
    ScalingRecord,
    apply_record,
    center_scale,
    invert_record,
    transform_variables,
)

from conftest import make_set


def test_reciprocal_worked_example():
    sset = make_set(np.array([[2.0], [4.0]]), n_s=1)
    out = transform_variables(sset, ("reciprocal",))
    np.testing.assert_array_equal(out.data, [[0.5], [0.25]])


def test_reciprocal_refuses_zero():
    sset = make_set(np.array([[2.0], [0.0]]), n_s=1)
    with pytest.raises(ValueError, match="reciprocal transform hit zero"):
        transform_variables(sset, ("reciprocal",))


def test_identity_leaves_data_alone():
    sset = make_set(np.arange(6.0).reshape(3, 2) + 1.0)
    out = transform_variables(sset, None)
    np.testing.assert_array_equal(out.data, sset.data)


def test_max_abs_puts_training_block_in_unit_box():
    rng = np.random.default_rng(0)
    sset = make_set(10.0 * rng.standard_normal((8, 12)), n_s=2, n_train=9)
    scaled, record = center_scale(sset, kind="max_abs")
    train = scaled.data[:, :9]
    assert np.abs(train[:4]).max() == pytest.approx(1.0)
    assert np.abs(train[4:]).max() == pytest.approx(1.0)
    # centering removes the training mean of every row
    np.testing.assert_allclose(train.mean(axis=1) * record.scale[0], 0.0,
                               atol=1e-12)
    assert record.scaling_kind == "max_abs"


def test_std_dev_normalizes_variance():
    rng = np.random.default_rng(1)
    sset = make_set(3.0 + 0.5 * rng.standard_normal((5, 40)))
    scaled, _ = center_scale(sset, kind="std_dev")
    assert scaled.data.std() == pytest.approx(1.0)


def test_round_trip_within_tolerance():
    rng = np.random.default_rng(2)
    sset = make_set(rng.standard_normal((12, 7)) * 50.0 + 4.0, n_s=3, n_train=5)
    scaled, record = center_scale(sset)
    back = invert_record(scaled.data, sset.layout, record)
    err = np.abs(back - sset.data).max() / np.abs(sset.data).max()
    assert err <= 1e-12


def test_round_trip_with_reciprocal():
    rng = np.random.default_rng(3)
    raw = 2.0 + rng.random((6, 9))  # bounded away from zero
    sset = make_set(raw, n_s=2)
    transformed = transform_variables(sset, ("reciprocal", "identity"))
    scaled, record = center_scale(transformed, transforms=("reciprocal", "identity"))
    back = invert_record(scaled.data, sset.layout, record)
    np.testing.assert_allclose(back, raw, rtol=1e-12, atol=1e-14)


def test_constant_variable_is_an_error():
    data = np.ones((4, 5))
    data[2:] = np.arange(5.0)
    sset = make_set(data, n_s=2, names=("flat", "ramp"))
    with pytest.raises(ValueError, match="zero scale for variable 'flat'"):
        center_scale(sset)


@pytest.mark.parametrize("kind", ["max_abs", "std_dev"])
def test_variable_constant_in_time_is_an_error(tmp_path, kind):
    # the mean of three 0.1s is 0.1 + 2.8e-17, so centring leaves round-off,
    # not a zero, and both the whole-matrix and the streamed fit see it
    data = np.full((4, 3), 0.1)
    data[2:] = np.arange(3.0)
    sset = make_set(data, n_s=2, names=("flat", "ramp"))
    with pytest.raises(ValueError, match="zero scale for variable 'flat'"):
        center_scale(sset, kind)
    path = tmp_path / "s.bin"
    save_snapshots(sset, path)
    with BlockSource(path) as source:
        with pytest.raises(ValueError, match="zero scale for variable 'flat'"):
            source.fit(kind)


def test_scale_is_training_only():
    # prediction columns may exceed the unit box; the scale must ignore them
    data = np.zeros((2, 4))
    data[:, :3] = [[1.0, -2.0, 0.5], [0.0, 1.0, -1.0]]
    data[:, 3] = 100.0
    sset = make_set(data, n_train=3)
    scaled, record = center_scale(sset)
    assert np.abs(scaled.data[:, :3]).max() == pytest.approx(1.0)
    assert np.abs(scaled.data[:, 3]).max() > 1.0


def test_apply_record_matches_center_scale():
    rng = np.random.default_rng(4)
    sset = make_set(rng.standard_normal((6, 8)), n_s=2)
    scaled, record = center_scale(sset)
    again = apply_record(sset.data, sset.layout, record)
    np.testing.assert_allclose(again, scaled.data, atol=1e-15)


def test_apply_and_invert_on_vectors():
    rng = np.random.default_rng(5)
    sset = make_set(rng.standard_normal((6, 8)) + 2.0, n_s=2)
    _, record = center_scale(sset)
    vec = sset.data[:, 3]
    fwd = apply_record(vec, sset.layout, record)
    assert fwd.ndim == 1
    np.testing.assert_allclose(invert_record(fwd, sset.layout, record), vec,
                               rtol=1e-12, atol=1e-14)


def test_invert_record_leaves_its_input_alone():
    rng = np.random.default_rng(7)
    sset = make_set(rng.standard_normal((6, 8)) + 2.0, n_s=2)
    scaled, record = center_scale(sset, transforms=("reciprocal", "identity"))
    data = np.array(scaled.data)
    invert_record(data, sset.layout, record)
    np.testing.assert_array_equal(data, scaled.data)


def test_record_validates_scale():
    with pytest.raises(ValueError):
        ScalingRecord(np.zeros(4), np.array([0.0]), "max_abs", ("identity",))


@settings(max_examples=40, deadline=None)
@given(
    data=hnp.arrays(
        np.float64,
        (6, 5),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
)
def test_round_trip_property(data):
    # degenerate draws (a variable constant over training) are rejected by
    # center_scale; everything it accepts must round-trip
    sset = make_set(data, n_s=2)
    try:
        scaled, record = center_scale(sset)
    except ValueError:
        return
    back = invert_record(scaled.data, sset.layout, record)
    scale = max(np.abs(data).max(), 1.0)
    assert np.abs(back - data).max() <= 1e-12 * scale


def _ulps(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.spacing(np.abs(b))))


@pytest.mark.parametrize("kind", ["max_abs", "std_dev"])
@pytest.mark.parametrize("n_s", [1, 2])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_block_source_matches_the_whole_matrix(tmp_path, kind, n_s, order):
    """The streamed record and blocks against transform_variables and
    center_scale on the whole matrix: the mean field and max_abs scales bit
    for bit, std_dev scales to 4 ulp, and every block the rows of the
    scaled matrix (bit for bit where the scales are), whether a subdomain's
    points are stored together or scattered through the file."""
    rng = np.random.default_rng(40 + n_s)
    n_x, n_t, m = 300, 40, 31
    # the last variable is positive and goes through the reciprocal
    n = n_s * n_x
    data = rng.standard_normal((n, n_t)) * rng.uniform(0.1, 10.0, (n, 1))
    data[-n_x:] = np.abs(data[-n_x:]) + 0.5
    names = tuple(f"v{i}" for i in range(n_s))
    transforms = ("identity",) * (n_s - 1) + ("reciprocal",)
    geometry = Geometry.circle(n_x)
    if order == "shuffled":
        ring = Geometry.annulus(n_x)
        perm = rng.permutation(n_x)
        geometry = Geometry(ring.coords[perm], periodic=True)
    sset = SnapshotSet(StateLayout(n_s, n_x, names), geometry,
                       TimeGrid(0.1 * np.arange(n_t), n_train=m), data)
    path = tmp_path / "s.bin"
    save_snapshots(sset, path)
    # the oracle works on the column-major matrix the file holds, whose
    # row means numpy sums one column after another
    sset = load_snapshots(path)
    scaled, expected = center_scale(transform_variables(sset, transforms),
                                    kind=kind, transforms=transforms)

    # sorted: blocks that wrap past point 0 take two runs of rows per
    # variable; shuffled: about one run per point
    dec = decompose_sectors(sset.geometry, 3, 0.3)
    with BlockSource(path) as source:
        record = source.fit(kind, transforms)
        blocks = list(source.blocks(dec.dof_indices))
    assert np.array_equal(record.mean_field, expected.mean_field)
    assert record.transform_spec == expected.transform_spec
    if kind == "max_abs":
        assert np.array_equal(record.scale, expected.scale)
    else:
        assert _ulps(record.scale, expected.scale) <= 4
    for idx, block in zip(dec.dof_indices, blocks):
        want = scaled.data[sset.layout.point_rows(idx), :m]
        if np.array_equal(record.scale, expected.scale):
            assert np.array_equal(block, want)
        else:
            np.testing.assert_allclose(block, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("width", [3, 40])
def test_max_abs_fit_reads_each_training_column_once(tmp_path, monkeypatch,
                                                     width):
    # one pass takes the mean and each row's range, in chunks of ``width``
    # columns, and reads no prediction column; u's largest deviation lies
    # below its mean and v's above, and both scales are center_scale's
    data = np.random.default_rng(7).standard_normal((100, 40))
    data[3, 5], data[60, 7] = -50.0, 50.0
    sset = SnapshotSet(StateLayout(2, 50, ("u", "v")), Geometry.circle(50),
                       TimeGrid(0.1 * np.arange(40), n_train=31), data)
    path = tmp_path / "s.bin"
    save_snapshots(sset, path)
    _, expected = center_scale(load_snapshots(path))
    monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 100 * width)
    columns, read = [], SnapshotFile.read

    def spy(self, out, index):
        columns.extend(range(index // self.n, (index + out.size) // self.n))
        return read(self, out, index)

    with BlockSource(path) as source:
        monkeypatch.setattr(SnapshotFile, "read", spy)
        record = source.fit("max_abs")
    assert sorted(columns) == list(range(31))
    assert np.array_equal(record.scale, expected.scale)
    assert np.array_equal(record.scale, [50.0 + expected.mean_field[3],
                                         50.0 - expected.mean_field[60]])


def _spied_blocks(monkeypatch, path, dof_indices):
    """The blocks of ``path``'s file and, for each block, its reads as
    (first column, last column, values) triples."""
    blocks, reads, read = [], [], SnapshotFile.read

    def spy(self, out, index):
        last = (index + out.size - 1) // self.n
        reads[-1].append((index // self.n, last, out.size))
        return read(self, out, index)

    with BlockSource(path) as source:
        source.fit("max_abs", ("identity", "reciprocal"))
        monkeypatch.setattr(SnapshotFile, "read", spy)
        for idx in dof_indices:
            reads.append([])
            blocks += source.blocks([idx])
    return blocks, reads


def _reads_per_column(block_reads) -> Counter:
    """How many reads took each training column; none spans two."""
    assert all(first == last for first, last, _ in block_reads)
    counts = Counter(first for first, _, _ in block_reads)
    assert sorted(counts) == list(range(31))
    return counts


def _two_variable_ring(tmp_path, geometry):
    rng = np.random.default_rng(9)
    n_x = geometry.n_x
    data = rng.standard_normal((2 * n_x, 40))
    data[n_x:] = np.abs(data[n_x:]) + 0.5
    sset = SnapshotSet(StateLayout(2, n_x, ("u", "v")), geometry,
                       TimeGrid(0.1 * np.arange(40), n_train=31), data)
    path = tmp_path / "s.bin"
    save_snapshots(sset, path)
    scaled, _ = center_scale(
        transform_variables(load_snapshots(path), ("identity", "reciprocal")),
        transforms=("identity", "reciprocal"))
    return path, scaled


@pytest.mark.parametrize("k", [2, 4])
def test_blocks_read_only_their_own_rows(tmp_path, monkeypatch, k):
    # points stored in angle order: each variable's rows of a sector are
    # one run, or two where it wraps past point 0, and no other value of
    # a training column is read
    path, scaled = _two_variable_ring(tmp_path, Geometry.circle(300))
    dec = decompose_sectors(scaled.geometry, k, 0.3)
    blocks, reads = _spied_blocks(monkeypatch, path, dec.dof_indices)
    read_bytes = sum(8 * size for r in reads for _, _, size in r)
    assert read_bytes == sum(8 * 2 * idx.size * 31 for idx in dec.dof_indices)
    for idx, block, block_reads in zip(dec.dof_indices, blocks, reads):
        _reads_per_column(block_reads)
        assert np.array_equal(block, scaled.data[scaled.layout.point_rows(idx), :31])


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
def test_scattered_blocks_read_each_column_in_a_few_spans(tmp_path, monkeypatch,
                                                          order):
    # shuffled: points stored in random order, about one run of a block's
    # rows per point; reversed: runs that the block keeps in the other
    # order.  Each block still reads each column in at most
    # SPANS_PER_COLUMN spans and is bit for bit the scaled matrix's rows.
    geometry = Geometry.circle(300)
    if order == "shuffled":
        ring = Geometry.annulus(300)
        perm = np.random.default_rng(10).permutation(300)
        geometry = Geometry(ring.coords[perm], periodic=True)
    path, scaled = _two_variable_ring(tmp_path, geometry)
    dof_indices = decompose_sectors(geometry, 3, 0.3).dof_indices
    if order == "reversed":
        dof_indices = [idx[::-1] for idx in dof_indices]
    blocks, reads = _spied_blocks(monkeypatch, path, dof_indices)
    for idx, block, block_reads in zip(dof_indices, blocks, reads):
        counts = _reads_per_column(block_reads)
        assert max(counts.values()) <= preprocess.SPANS_PER_COLUMN
        assert np.array_equal(block, scaled.data[scaled.layout.point_rows(idx), :31])


def test_block_source_refuses_reading_before_fitting(tmp_path):
    path = tmp_path / "s.bin"
    save_snapshots(make_set(np.arange(8.0).reshape(4, 2)), path)
    with BlockSource(path) as source:
        with pytest.raises(ValueError, match="fit the scaling record"):
            next(source.blocks([np.arange(4)]))
