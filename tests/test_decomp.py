import numpy as np
import pytest

from ddrom.core import Geometry
from ddrom.decomp import (
    Decomposition,
    blending_weights,
    decompose,
    decompose_interval,
    decompose_sectors,
    recombine,
)
from ddrom.decomp import _check_overlap_points

TWO_PI = 2.0 * np.pi


def uniform_interval(n):
    return Geometry(np.arange(n) / (n - 1), periodic=False)


class TestDecompose:
    def test_single_is_every_point_in_one_subdomain(self):
        dec = decompose("single", Geometry.circle(12), 1, 0.0)
        assert dec.topology == "single" and dec.k == 1 and dec.n_x == 12
        np.testing.assert_array_equal(dec.dof_indices[0], np.arange(12))
        assert dec.adjacency == (frozenset(),) and dec.overlap == 0.0

    @pytest.mark.parametrize("k, overlap", [(4, 0.0), (1, -3.0), (0, 0.0),
                                            (1, np.nan)])
    def test_single_refuses_more_subdomains_or_an_overlap(self, k, overlap):
        with pytest.raises(ValueError, match="topology = single has one "
                           "subdomain and no overlap"):
            decompose("single", uniform_interval(16), k, overlap)

    @pytest.mark.parametrize("topology, geo", [
        ("interval", Geometry.interval(16)), ("annular", Geometry.circle(16))])
    def test_one_subdomain_split_names_single(self, topology, geo):
        with pytest.raises(ValueError, match=f"topology = {topology} needs at "
                           "least two subdomains; for one, use topology = single"):
            decompose(topology, geo, 1, 0.1)

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology 'voronoi'"):
            decompose("voronoi", Geometry.circle(16), 2, 0.1)

    def test_wrappers_are_the_rule(self):
        for wrapper, topology, geo in (
                (decompose_interval, "interval", uniform_interval(50)),
                (decompose_sectors, "annular", Geometry.circle(50))):
            a, b = wrapper(geo, 3, 0.2), decompose(topology, geo, 3, 0.2)
            assert (a.topology, a.adjacency) == (b.topology, b.adjacency)
            for x, y in zip(a.dof_indices, b.dof_indices):
                np.testing.assert_array_equal(x, y)

    def test_shared_points_must_follow_adjacency(self):
        def dec(dof, adjacency):
            return Decomposition(
                topology="interval", n_x=6,
                dof_indices=tuple(np.array(i) for i in dof),
                adjacency=tuple(frozenset(a) for a in adjacency), overlap=0.1)

        with pytest.raises(ValueError, match="overlap between subdomains 0 "
                           "and 1 contains no grid points"):
            _check_overlap_points(dec([[0, 1, 2], [3, 4, 5]], [{1}, {0}]))
        with pytest.raises(ValueError, match="non-adjacent subdomains 0 and 2 "
                           "share grid points"):
            _check_overlap_points(dec([[0, 1, 2], [2, 3, 4], [1, 4, 5]],
                                      [{1}, {0, 2}, {1}]))
        _check_overlap_points(dec([[0, 1, 2], [2, 3, 4], [4, 5]],
                                  [{1}, {0, 2}, {1}]))


class TestIntervalDecomposition:
    def test_two_subdomains_on_unit_interval(self):
        # overlap 0.2 about the midpoint: interiors [0, 0.5 - 0.1] and
        # [0.5 + 0.1, 1], supports meeting at the neighbor's interior boundary
        geo = uniform_interval(100)
        dec = decompose_interval(geo, 2, 0.2)
        assert dec.k == 2
        assert dec.topology == "interval"
        assert dec.subdomain_sizes() == (60, 60)
        assert dec.adjacency == ({1}, {0})
        hi0, lo1 = 0.5 - 0.1, 0.5 + 0.1
        x = geo.coords[:, 0]
        np.testing.assert_array_equal(dec.dof_indices[0], np.where(x <= lo1)[0])
        np.testing.assert_array_equal(dec.dof_indices[1], np.where(x >= hi0)[0])
        w = blending_weights(dec, geo)
        np.testing.assert_array_equal(w[0, x <= hi0], 1.0)
        np.testing.assert_array_equal(w[1, x >= lo1], 1.0)

    def test_three_subdomains_chain_adjacency(self):
        geo = uniform_interval(90)
        dec = decompose_interval(geo, 3, 0.1)
        assert dec.adjacency == ({1}, {0, 2}, {1})

    def test_overlap_regions_are_pairwise_intersections(self):
        geo = uniform_interval(200)
        dec = decompose_interval(geo, 4, 0.05)
        for i in range(dec.k):
            for j in dec.adjacency[i]:
                shared = np.intersect1d(dec.dof_indices[i], dec.dof_indices[j])
                assert shared.size > 0
        # non-adjacent pairs must not intersect
        assert np.intersect1d(dec.dof_indices[0], dec.dof_indices[2]).size == 0

    def test_empty_overlap_is_an_error(self):
        geo = uniform_interval(10)
        with pytest.raises(ValueError, match="no grid points"):
            decompose_interval(geo, 5, 1e-6)

    def test_overlap_too_large(self):
        geo = uniform_interval(100)
        with pytest.raises(ValueError):
            decompose_interval(geo, 4, 0.3)

    def test_periodic_geometry_rejected(self):
        with pytest.raises(ValueError, match="non-periodic"):
            decompose_interval(Geometry.circle(32), 2, 0.2)


class TestSectorDecomposition:
    def test_four_sectors_with_published_overlap(self):
        geo = Geometry.circle(360)
        dec = decompose_sectors(geo, 4, np.pi / 9)
        assert dec.topology == "annular"
        # each sector spans a quarter turn plus the overlap angle
        extent = TWO_PI / 4 + np.pi / 9
        expected = round(360 * extent / TWO_PI)
        for idx in dec.dof_indices:
            assert abs(idx.size - expected) <= 1
        assert dec.adjacency == ({1, 3}, {0, 2}, {1, 3}, {0, 2})

    def test_two_sectors_overlap_at_both_seams(self):
        geo = Geometry.circle(64)
        dec = decompose_sectors(geo, 2, 0.4)
        assert dec.adjacency == ({1}, {0})
        shared = np.intersect1d(dec.dof_indices[0], dec.dof_indices[1])
        gaps = np.diff(shared)
        assert shared.size > 0 and np.any(gaps > 1)  # two disjoint arcs

    def test_all_sectors_pairwise_adjacent_for_k3_wide_overlap(self):
        geo = Geometry.circle(360)
        dec = decompose_sectors(geo, 3, 2.0)
        assert dec.adjacency == ({1, 2}, {0, 2}, {0, 1})

    def test_needs_angular_coordinates(self):
        # a non-uniform periodic 1-D grid gets no angles
        geo = Geometry(np.arange(16) ** 2 / 256.0, periodic=True)
        assert geo.angular is None
        with pytest.raises(ValueError, match="angles attached"):
            decompose_sectors(geo, 2, 0.3)

    def test_overlap_bound(self):
        with pytest.raises(ValueError):
            decompose_sectors(Geometry.circle(64), 4, TWO_PI / 4)


class TestBlendingWeights:
    def test_interior_points_get_weight_one(self):
        geo = uniform_interval(101)
        dec = decompose_interval(geo, 2, 0.2)
        w = blending_weights(dec, geo)
        x = geo.coords[:, 0]
        inside0 = x <= 0.4
        np.testing.assert_array_equal(w[0, inside0], 1.0)
        np.testing.assert_array_equal(w[1, inside0], 0.0)

    def test_ramp_midpoint_is_half(self):
        # dyadic layout keeps the arithmetic exact: interiors end at 0.375
        # and 0.625, so the ramp at x = 0.5 is (0.5-0.625)/(0.375-0.625)
        geo = Geometry(np.arange(17) / 16.0, periodic=False)
        dec = decompose_interval(geo, 2, 0.25)
        w = blending_weights(dec, geo)
        mid = 8  # x = 0.5
        assert w[0, mid] == 0.5
        assert w[1, mid] == 0.5

    def test_ramps_are_monotone(self):
        geo = uniform_interval(400)
        dec = decompose_interval(geo, 3, 0.07)
        w = blending_weights(dec, geo)
        for i in range(3):
            steps = np.diff(w[i])
            if i == 0:
                assert np.all(steps <= 0.0)
            elif i == dec.k - 1:
                assert np.all(steps >= 0.0)

    def test_partition_of_unity_interval(self):
        geo = uniform_interval(333)
        dec = decompose_interval(geo, 4, 0.05)
        w = blending_weights(dec, geo)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-14)

    def test_partition_of_unity_sectors(self):
        geo = Geometry.circle(512)
        dec = decompose_sectors(geo, 4, np.pi / 9)
        w = blending_weights(dec, geo)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-14)

    def test_single_domain_weights_are_exactly_one(self):
        geo = uniform_interval(32)
        dec = decompose("single", geo, 1, 0.0)
        w = blending_weights(dec, geo)
        assert np.all(w == 1.0)

    def test_sector_weights_refuse_a_geometry_without_angles(self):
        dec = decompose_sectors(Geometry.circle(64), 2, 0.4)
        with pytest.raises(ValueError, match="angles attached"):
            blending_weights(dec, Geometry.interval(64))

    @pytest.mark.parametrize("name", ["interval", "circle", "annulus"])
    def test_weights_agree_with_supports_and_interiors(self, name):
        # 0 off each subdomain, exactly 1 on its closed interior (in the
        # coordinate the topology splits), and a partition of unity, over
        # seeded random admissible overlaps.  The documented rule puts
        # subdomain i's interior at [L*i/k + overlap/2, L*(i+1)/k - overlap/2]
        # along an axis of extent L starting at 0; an interval's two outer
        # ends reach its first and last point.
        rng = np.random.default_rng(23)
        if name == "interval":
            geo = Geometry.interval(257)
            decompose, axis, length = decompose_interval, geo.coords[:, 0], 1.0
        else:
            geo = (Geometry.circle(256) if name == "circle"
                   else Geometry.annulus(256, (1.0, 1.5)))
            decompose, axis, length = decompose_sectors, geo.angular, TWO_PI
        for k in (2, 3, 4, 8):
            for _ in range(20):
                overlap = rng.uniform(6.0 * length / 256.0, 0.9 * length / k)
                dec = decompose(geo, k, overlap)
                w = blending_weights(dec, geo)
                for i in range(k):
                    lo = length * i / k + overlap / 2
                    hi = length * (i + 1) / k - overlap / 2
                    if name == "interval":
                        lo, hi = (0.0 if i == 0 else lo), (1.0 if i == k - 1 else hi)
                    off = np.ones(geo.n_x, dtype=bool)
                    off[dec.dof_indices[i]] = False
                    assert np.all(w[i, off] == 0.0)
                    inside = (axis >= lo) & (axis <= hi)
                    assert inside.any() and np.all(w[i, inside] == 1.0)
                np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0.0,
                                           atol=1e-13)

    @pytest.mark.parametrize("topology, k, overlap", [
        ("single", 1, 0.0), ("interval", 3, 0.1)])
    def test_weights_are_a_read_only_matrix(self, topology, k, overlap):
        geo = uniform_interval(40)
        w = blending_weights(decompose(topology, geo, k, overlap), geo)
        assert w.dtype == np.float64 and w.shape == (k, 40)
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 0.5


class TestRecombine:
    def test_restrictions_of_one_field_reassemble_exactly(self):
        geo = uniform_interval(500)
        dec = decompose_interval(geo, 3, 0.08)
        w = blending_weights(dec, geo)
        g = np.sin(7.0 * geo.coords[:, 0]) + 0.3
        fields = []
        for idx in dec.dof_indices:
            f = np.zeros_like(g)
            f[idx] = g[idx]
            fields.append(f)
        out = recombine(fields, w)
        assert np.abs(out - g).max() <= 1e-13

    def test_interior_values_come_from_the_owner(self):
        geo = uniform_interval(100)
        dec = decompose_interval(geo, 2, 0.2)
        w = blending_weights(dec, geo)
        fields = [np.zeros(100), np.zeros(100)]
        fields[0][dec.dof_indices[0]] = 5.0
        fields[1][dec.dof_indices[1]] = 9.0
        out = recombine(fields, w)
        x = geo.coords[:, 0]
        np.testing.assert_array_equal(out[x < 0.4], 5.0)
        np.testing.assert_array_equal(out[x > 0.6], 9.0)

    def test_multiple_variables_tile_the_weights(self):
        geo = uniform_interval(50)
        dec = decompose_interval(geo, 2, 0.2)
        w = blending_weights(dec, geo)
        g = np.concatenate([np.linspace(0, 1, 50), np.linspace(2, 3, 50)])
        fields = []
        for idx in dec.dof_indices:
            f = np.zeros(100)
            rows = np.concatenate([idx, idx + 50])
            f[rows] = g[rows]
            fields.append(f)
        np.testing.assert_allclose(recombine(fields, w), g, atol=1e-14)

    def test_matrix_fields(self):
        geo = uniform_interval(40)
        dec = decompose_interval(geo, 2, 0.2)
        w = blending_weights(dec, geo)
        g = np.outer(np.linspace(-1, 1, 40), [1.0, 2.0, 3.0])
        fields = []
        for idx in dec.dof_indices:
            f = np.zeros_like(g)
            f[idx] = g[idx]
            fields.append(f)
        np.testing.assert_allclose(recombine(fields, w), g, atol=1e-14)

    def test_single_field_is_identity(self):
        geo = uniform_interval(8)
        dec = decompose("single", geo, 1, 0.0)
        w = blending_weights(dec, geo)
        f = np.arange(8.0)
        np.testing.assert_array_equal(recombine([f], w), f)

    def test_length_mismatch(self):
        dec = decompose("single", uniform_interval(8), 1, 0.0)
        w = blending_weights(dec, uniform_interval(8))
        with pytest.raises(ValueError):
            recombine([np.zeros(9)], w)


def test_sector_fraction_worked_value():
    # four sectors with a pi/9 shared band: each holds 11/36 of the circle,
    # and so does each sector the partition rule cuts from a fine ring
    frac = (TWO_PI / 4 + np.pi / 9) / TWO_PI
    assert frac == pytest.approx(11.0 / 36.0, rel=1e-15)
    sizes = decompose_sectors(Geometry.circle(3600), 4, np.pi / 9).subdomain_sizes()
    assert all(abs(size - frac * 3600) <= 1 for size in sizes)


def test_decomposition_requires_coverage():
    with pytest.raises(ValueError):
        Decomposition(
            topology="interval",
            n_x=10,
            dof_indices=(np.arange(5, dtype=np.int64),),
            adjacency=(frozenset(),),
            overlap=0.0,
        )
