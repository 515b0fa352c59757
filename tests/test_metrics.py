import math
import tracemalloc

import numpy as np
import pytest

from ddrom import core
from ddrom.core import SnapshotFile, save_snapshots
from ddrom.metrics import (
    DEFAULT_THRESHOLDS,
    compare,
    error_report,
    line_probe,
    pointwise_error_bins,
)

from conftest import make_set


def _check_pair(ref, approx):
    if ref.data.shape != approx.data.shape or ref.layout.n_s != approx.layout.n_s:
        raise ValueError("reference and approximation dimensions do not match")


def squared_l2_relative_error(ref, approx, variable=0, columns=None):
    """Oracle: ||ref - approx||_F^2 / ||ref||_F^2 over one variable's block
    of two in-memory sets, restricted to a column range ``(start, stop)``,
    as one ``np.sum`` over the whole block."""
    _check_pair(ref, approx)
    cols = slice(None) if columns is None else slice(*columns)
    r = ref.data[ref.layout.rows(variable)][:, cols]
    a = approx.data[approx.layout.rows(variable)][:, cols]
    denom = float(np.sum(r * r))
    if denom == 0.0:
        raise ValueError("reference block is identically zero on the range")
    diff = r - a
    diff *= diff
    return float(np.sum(diff) / denom)


def brute_force_error(ref, approx):
    """Double-loop squared relative Frobenius error."""
    num = den = 0.0
    for i in range(ref.shape[0]):
        for j in range(ref.shape[1]):
            num += (approx[i, j] - ref[i, j]) ** 2
            den += ref[i, j] ** 2
    return num / den


class TestSquaredError:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(50)
        ref = rng.standard_normal((8, 6)) + 2.0
        approx = ref + 0.01 * rng.standard_normal((8, 6))
        a = make_set(ref, n_s=2)
        b = make_set(approx, n_s=2)
        got = squared_l2_relative_error(a, b, variable=1)
        want = brute_force_error(ref[4:], approx[4:])
        assert got == pytest.approx(want, rel=1e-12)

    def test_column_range(self):
        rng = np.random.default_rng(51)
        ref = rng.standard_normal((4, 10)) + 1.0
        approx = ref + 0.1
        a, b = make_set(ref), make_set(approx)
        got = squared_l2_relative_error(a, b, columns=(2, 7))
        want = brute_force_error(ref[:, 2:7], approx[:, 2:7])
        assert got == pytest.approx(want, rel=1e-12)

    def test_identical_sets_give_zero(self):
        a = make_set(np.arange(12.0).reshape(4, 3) + 1.0)
        assert squared_l2_relative_error(a, a) == 0.0

    def test_zero_reference_block(self):
        a = make_set(np.zeros((4, 3)))
        b = make_set(np.ones((4, 3)))
        with pytest.raises(ValueError, match="identically zero"):
            squared_l2_relative_error(a, b)

    def test_shape_mismatch(self):
        a = make_set(np.ones((4, 3)))
        b = make_set(np.ones((4, 4)))
        with pytest.raises(ValueError):
            squared_l2_relative_error(a, b)


class TestErrorReport:
    def test_split_follows_training_horizon(self):
        rng = np.random.default_rng(53)
        ref = rng.standard_normal((6, 10)) + 2.0
        approx = ref + 0.01
        a = make_set(ref, n_s=2, n_train=7, names=("p", "T"))
        b = make_set(approx, n_s=2, n_train=7, names=("p", "T"))
        rep = error_report(a, b)
        assert rep.variables == ("p", "T")
        for v in range(2):
            block = slice(3 * v, 3 * v + 3)
            assert rep.training[v] == pytest.approx(
                brute_force_error(ref[block, :7], approx[block, :7]), rel=1e-12
            )
            assert rep.prediction[v] == pytest.approx(
                brute_force_error(ref[block, 7:], approx[block, 7:]), rel=1e-12
            )

    def test_no_prediction_horizon_reports_none(self):
        ref = np.arange(8.0).reshape(2, 4) + 1.0
        a = make_set(ref)
        rep = error_report(a, a)
        assert rep.prediction == (None,)

    def test_peak_is_one_training_block(self):
        rng = np.random.default_rng(54)
        ref = rng.standard_normal((2000, 500))
        a = make_set(ref, n_train=400)
        b = make_set(ref + 0.01, n_train=400)
        block = 2000 * 400 * 8
        tracemalloc.start()
        try:
            error_report(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * block, f"peak {peak / block:.2f} training blocks"


class TestPointwiseBins:
    def test_fractions_per_hand_computed_case(self):
        ref = np.full((4, 1), 1.0)
        approx = np.array([[1.01], [1.07], [1.15], [1.80]])
        a, b = make_set(ref), make_set(approx)
        rep = pointwise_error_bins(a, b, thresholds=(0.05, 0.10, 0.20))
        np.testing.assert_allclose(rep.fractions[0],
                                   [0.25, 0.25, 0.25, 0.25])

    def test_upper_edges_are_closed(self):
        # an error exactly on a threshold belongs to the lower bin; dyadic
        # values keep the ratio exact in floating point
        ref = np.full((2, 1), 1.0)
        approx = np.array([[1.25], [1.2500001]])
        a, b = make_set(ref), make_set(approx)
        rep = pointwise_error_bins(a, b, thresholds=(0.25, 0.5))
        np.testing.assert_allclose(rep.fractions[0], [0.5, 0.5, 0.0])

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(54)
        ref = rng.standard_normal((30, 8)) + 4.0
        approx = ref * (1.0 + 0.2 * rng.standard_normal((30, 8)))
        rep = pointwise_error_bins(make_set(ref), make_set(approx))
        np.testing.assert_allclose(rep.fractions.sum(axis=1), 1.0, atol=1e-12)

    def test_near_zero_reference_uses_the_floor(self):
        # both fields vanish at one point; the floored denominator keeps the
        # ratio finite and the point lands in the innermost bin
        ref = np.array([[0.0], [10.0]])
        approx = np.array([[0.0], [10.0]])
        rep = pointwise_error_bins(make_set(ref), make_set(approx))
        np.testing.assert_allclose(rep.fractions[0], [1.0, 0.0, 0.0, 0.0])

    def test_default_thresholds(self):
        assert DEFAULT_THRESHOLDS == (0.05, 0.10, 0.20)
        ref = np.ones((2, 2))
        rep = pointwise_error_bins(make_set(ref), make_set(ref))
        assert rep.thresholds == DEFAULT_THRESHOLDS
        assert rep.fractions.shape == (2, 4)


    def test_floor_comes_from_the_binned_variable_only(self):
        # variable 1 is about 1e-3 and its approximation is 50% off; a unit
        # change of variable 0 must not move variable 1's bins
        rng = np.random.default_rng(56)
        small = 1e-3 * (1.0 + rng.random((30, 5)))
        approx = np.vstack([np.zeros((30, 5)), 1.5 * small])
        for magnitude in (1.0, 1e12):
            ref = np.vstack([magnitude * (1.0 + rng.random((30, 5))), small])
            rep = pointwise_error_bins(make_set(ref, n_s=2),
                                       make_set(approx, n_s=2), variable=1)
            np.testing.assert_array_equal(rep.fractions[:, -1], 1.0)

    def test_column_chunks_give_the_whole_matrix_answer(self, monkeypatch):
        rng = np.random.default_rng(55)
        ref = rng.standard_normal((40, 9)) * 3.0
        ref[5, 2] = 0.0
        approx = ref * (1.0 + 0.2 * rng.standard_normal((40, 9)))
        a, b = make_set(ref, n_s=2), make_set(approx, n_s=2)
        # one pass over variable 1's whole block, as the report once was taken
        floor = 1e-12 * np.abs(ref[20:]).max()
        rel = np.abs(approx[20:] - ref[20:]) / np.maximum(np.abs(ref[20:]), floor)
        bins = np.searchsorted(DEFAULT_THRESHOLDS, rel, side="left")
        whole = np.stack([np.bincount(bins[:, k], minlength=4) / 20 for k in range(9)])
        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 40 * 2)  # two columns
        rep = pointwise_error_bins(a, b, variable=1)
        np.testing.assert_array_equal(rep.fractions, whole)


class TestLineProbe:
    def test_only_the_asked_instants(self):
        data = np.arange(30.0).reshape(6, 5)
        sset = make_set(data)
        for instants in ([3, 0, 3], (3, 0, 3)):
            lp = line_probe(sset, 0, np.array([4, 1]), instants)
            np.testing.assert_array_equal(lp.values, data[[4, 1]][:, [3, 0, 3]])
            np.testing.assert_array_equal(lp.times, sset.time.timestamps[[3, 0, 3]])

    def test_circle_probe_reports_angles(self):
        data = np.arange(16.0).reshape(8, 2)
        sset = make_set(data, periodic=True)
        probe = np.array([0, 3, 5])
        lp = line_probe(sset, 0, probe, range(sset.n_t))
        np.testing.assert_allclose(lp.coordinate,
                                   sset.geometry.angular[probe])
        np.testing.assert_array_equal(lp.values, data[probe])

    def test_interval_probe_reports_positions(self):
        data = np.arange(12.0).reshape(6, 2)
        sset = make_set(data)
        lp = line_probe(sset, 0, np.array([1, 4]), range(sset.n_t))
        np.testing.assert_allclose(lp.coordinate,
                                   sset.geometry.coords[[1, 4], 0])

    def test_second_variable(self):
        data = np.arange(24.0).reshape(12, 2)
        sset = make_set(data, n_s=2)
        lp = line_probe(sset, 1, np.array([0, 5]), range(sset.n_t))
        np.testing.assert_array_equal(lp.values, data[[6, 11]])

    def test_bad_indices(self):
        sset = make_set(np.ones((6, 2)))
        with pytest.raises(ValueError, match="range"):
            line_probe(sset, 0, np.array([9]), range(sset.n_t))
        with pytest.raises(ValueError, match="integer"):
            line_probe(sset, 0, np.array([0.5]), range(sset.n_t))

    @pytest.mark.parametrize("instant", [-1, 5])
    def test_instant_outside_the_set(self, instant):
        # -1 would read the last column, 5 = n_t would raise IndexError
        sset = make_set(np.ones((6, 5)))
        with pytest.raises(ValueError, match=f"probe instant {instant} out of range"):
            line_probe(sset, 0, [0, 1], [instant])


def _chunk_sets(tmp_path):
    """Two variables of 7 points over 9 columns, 5 of them training, as
    in-memory sets and as the snapshot files that hold them."""
    rng = np.random.default_rng(57)
    ref = rng.standard_normal((14, 9)) * 3.0
    ref[9, 4] = 0.0
    approx = ref * (1.0 + 0.2 * rng.standard_normal((14, 9)))
    sets = [make_set(m, n_s=2, n_train=5, names=("p", "T"))
            for m in (ref, approx)]
    for name, sset in zip(("ref.bin", "approx.bin"), sets):
        save_snapshots(sset, tmp_path / name)
    return ref, approx, sets


class TestChunkedScan:
    """Every metric has one implementation for in-memory sets and open
    files, read through the same column chunks; 14 rows of float64 make
    one column 112 bytes, so the widths below cross chunk boundaries, one
    of them straddling the training split at column 5."""

    @pytest.mark.parametrize("width", [1, 2, 3, 9])
    def test_sets_and_files_give_the_same_bits(self, tmp_path, monkeypatch,
                                               width):
        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 14 * width)
        _, _, (a, b) = _chunk_sets(tmp_path)
        with SnapshotFile(tmp_path / "ref.bin") as fa, \
                SnapshotFile(tmp_path / "approx.bin") as fb:
            for variable in (0, 1):
                assert error_report(a, b) == error_report(fa, fb)
                np.testing.assert_array_equal(
                    pointwise_error_bins(a, b, variable).fractions,
                    pointwise_error_bins(fa, fb, variable).fractions)
                lp_set = line_probe(b, variable, [6, 0, 3], [8, 4, 4])
                lp_file = line_probe(fb, variable, [6, 0, 3], [8, 4, 4])
                np.testing.assert_array_equal(lp_set.values, lp_file.values)
                np.testing.assert_array_equal(lp_set.coordinate,
                                              lp_file.coordinate)
            both, bins = compare(fa, fb, 1, peak=fa.check_finite(0, 9)[1])
            assert both == error_report(a, b)
            np.testing.assert_array_equal(
                bins.fractions, pointwise_error_bins(a, b, 1).fractions)

    @pytest.mark.parametrize("width", [1, 2, 3, 9])
    def test_error_sums_match_an_exact_sum(self, tmp_path, monkeypatch, width):
        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 14 * width)
        ref, approx, (a, b) = _chunk_sets(tmp_path)
        rep = error_report(a, b)
        for v in range(2):
            for got, cols in ((rep.training[v], slice(0, 5)),
                              (rep.prediction[v], slice(5, 9))):
                r = ref[7 * v : 7 * v + 7, cols].ravel()
                d = (approx[7 * v : 7 * v + 7, cols] - ref[7 * v : 7 * v + 7, cols]).ravel()
                want = math.fsum(d * d) / math.fsum(r * r)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_one_chunk_gives_the_whole_block_bits(self, tmp_path):
        _, _, (a, b) = _chunk_sets(tmp_path)
        rep = error_report(a, b)
        for v in range(2):
            assert rep.training[v] == squared_l2_relative_error(a, b, v, (0, 5))
            assert rep.prediction[v] == squared_l2_relative_error(a, b, v, (5, 9))

    def test_shape_mismatch_is_refused(self):
        a = make_set(np.ones((4, 3)))
        b = make_set(np.ones((4, 4)))
        for metric in (error_report, pointwise_error_bins, compare):
            with pytest.raises(ValueError, match="dimensions do not match"):
                metric(a, b)
