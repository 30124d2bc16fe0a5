"""Divisor I/O, constructions, and disc-geometry scans."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdiv.divisor as dv
from conftest import (child_peak_rss_mb, circle_intersections,
                      dense_count_scan, dense_disjointness_check,
                      dense_margin_scan, dense_overlap_constant,
                      lens_area_grid, random_divisor)
from fockdiv.divisor import (Divisor, Region, _circle_intersections,
                             _count_scan, _lens_area,
                             _margin_scan, _worst_overlap, covering_margin,
                             disjointness_check, lattice, overlap_constant,
                             overlap_count, radial_rings, thin_subdivisor,
                             triple_disc_witness)
from fockdiv.errors import (DomainError, ParameterError, PreconditionError,
                            ResourceError)


class TestDivisorModel:
    def test_radii(self):
        X = Divisor(np.array([0j, 1 + 0j]), np.array([4, 9]), alpha=1.0)
        assert np.allclose(X.radii, [2.0, 3.0])

    def test_alpha_scaling(self):
        X = Divisor(np.array([0j]), np.array([8]), alpha=2.0)
        assert X.radii[0] == pytest.approx(2.0)

    def test_total_multiplicity(self):
        X = Divisor(np.array([0j, 1j, 2j]), np.array([1, 2, 3]))
        assert X.total_multiplicity == 6

    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            Divisor(np.array([1 + 0j, 1 + 0j]), np.array([1, 1]))

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(DomainError):
            Divisor(np.array([0j]), np.array([0]))

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            Divisor(np.array([0j]), np.array([1]), alpha=0.0)

    @pytest.mark.parametrize("re", ["nan", "inf", "-inf", "1e233", "2e150"])
    def test_rejects_nonfinite_and_huge_centers(self, re):
        # beyond 1e150 squared distances overflow in the neighbour scans
        with pytest.raises(DomainError):
            Divisor.loads(f"re,im,multiplicity\n0,0,1\n{re},1,2\n")

    def test_accepts_centers_up_to_limit(self):
        X = Divisor.loads("re,im,multiplicity\n1e150,0,1\n0,-1e150,1\n")
        assert len(X) == 2


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        X = random_divisor(rng)
        p = tmp_path / "d.csv"
        X.to_csv(p)
        Y = Divisor.from_csv(p)
        assert np.allclose(X.centers, Y.centers)
        assert np.array_equal(X.mults, Y.mults)

    def test_header_exact(self):
        X = Divisor(np.array([1.5 - 2j]), np.array([3]))
        text = X.dumps()
        assert text.splitlines()[0] == "re,im,multiplicity"
        assert text.splitlines()[1] == "1.5,-2,3"

    def test_bad_header_names_line(self):
        with pytest.raises(ParameterError, match=":1:"):
            Divisor.loads("x,y,m\n1,2,3\n")

    def test_bad_field_names_line(self):
        with pytest.raises(ParameterError, match=":3:"):
            Divisor.loads("re,im,multiplicity\n1,2,3\n1,oops,3\n")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParameterError, match=":2:"):
            Divisor.loads("re,im,multiplicity\n1,2\n")

    def test_empty_body_rejected(self):
        with pytest.raises(ParameterError):
            Divisor.loads("re,im,multiplicity\n")


class TestConstructions:
    def test_lattice_counts(self):
        X = lattice(spacing=1.0, mult=2, extent=2.0)
        assert len(X) == 25 and np.all(X.mults == 2)

    def test_lattice_hole(self):
        X = lattice(spacing=1.0, mult=1, extent=3.0, hole_radius=1.5)
        assert np.all(np.abs(X.centers) >= 1.5)
        assert len(X) == 49 - 9  # removes (0,0) and the 8 neighbours

    def test_rings_counts(self):
        X = radial_rings([4.0], [4], counts=[10])
        assert len(X) == 10
        assert np.allclose(np.abs(X.centers), 4.0)

    def test_rings_center(self):
        X = radial_rings([3.0], [1], counts=[6], include_center=True,
                         center_mult=9)
        assert X.mults[0] == 9 and X.centers[0] == 0

    def test_rings_default_density_overlaps(self):
        X = radial_rings([5.0], [4])
        ring = np.sort(np.angle(X.centers))
        gap = 2 * 5.0 * math.sin((ring[1] - ring[0]) / 2)
        assert gap < 2 * 2.0  # adjacent discs of radius 2 overlap


class TestRegion:
    def test_disc_grid_inside(self):
        W = Region.disc(2.0, 0.25)
        pts = W.grid()
        assert np.all(np.abs(pts) <= 2.0 + 1e-12)
        # grid count approximates the disc area
        assert pts.size * 0.25 ** 2 == pytest.approx(math.pi * 4, rel=0.05)

    def test_rectangle_contains(self):
        W = Region.rectangle(-1, 1, 0, 2, 0.5)
        assert W.contains(np.array([0.5 + 1j]))[0]
        assert not W.contains(np.array([0.5 - 1j]))[0]

    def test_rejects_bad_region(self):
        with pytest.raises(ParameterError):
            Region.disc(-1.0, 0.1)
        with pytest.raises(ParameterError):
            Region.rectangle(1, -1, 0, 1, 0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_window(self, bad):
        with pytest.raises(DomainError):
            Region.disc(bad, 0.1)
        with pytest.raises(DomainError):
            Region.disc(5.0, bad)
        for k in range(4):
            rect = [-1.0, 1.0, -1.0, 1.0]
            rect[k] = bad
            with pytest.raises(DomainError):
                Region.rectangle(*rect, 0.1)

    def test_mesh_cap_raises_before_allocating(self, monkeypatch):
        # 2e8 x 2e8 points: the count alone must stop it
        def no_alloc(*args, **kwargs):
            raise AssertionError("the capped mesh allocated a lattice")
        monkeypatch.setattr(np, "meshgrid", no_alloc)
        monkeypatch.setattr(np, "arange", no_alloc)
        with pytest.raises(ResourceError):
            Region.disc(10.0, 1e-7).mesh()
        with pytest.raises(ResourceError):
            Region.rectangle(0, 1, 0, 1, 1e-4).grid()

    def test_mesh_cap_is_the_arange_size(self, monkeypatch):
        # n x n points with n = ceil((2 r + h / 2) / h): r = 9.75 and h = 1
        # give n = 20, exactly at a cap of 400; r = 10.25 gives n = 21
        monkeypatch.setattr(dv, "MAX_GRID_POINTS", 400)
        assert Region.disc(9.75, 1.0).mesh().size == 400
        with pytest.raises(ResourceError):
            Region.disc(10.25, 1.0).mesh()


class TestOverlap:
    def test_count_single(self):
        X = Divisor(np.array([0j]), np.array([4]))
        assert overlap_count(X, 1.0) == 1
        assert overlap_count(X, 3.0) == 0

    def test_constant_two_discs(self):
        X = Divisor(np.array([0j, 1 + 0j]), np.array([1, 1]))
        W = Region.disc(3.0, 0.1)
        assert overlap_constant(X, W) == 2

    def test_thin_lens_detected(self):
        # the doubly covered lens is thinner than the scan resolution;
        # the circle-intersection enrichment still finds it
        X = Divisor(np.array([0j, 1.99 + 0j]), np.array([1, 1]))
        W = Region.disc(4.0, 0.5)
        assert overlap_constant(X, W) == 2

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_under_adding_nodes(self, seed):
        rng = np.random.default_rng(seed)
        X = random_divisor(rng, max_nodes=5)
        W = Region.disc(8.0, 0.4)
        full = overlap_constant(X, W)
        sub = X.subset(np.arange(len(X)) < max(1, len(X) - 1))
        assert overlap_constant(sub, W) <= full


@st.composite
def scan_cases(draw):
    """(points, centers, radii, C): centers on a half-integer grid (exact
    distance ties) or anywhere, equal or mixed radii, and points at random,
    at the centers, on every circle at c +- r and c +- i r, on the
    half-integer grid, and far outside every disc."""
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        coord = st.integers(min_value=-8, max_value=8).map(lambda k: k / 2)
    else:
        coord = st.floats(min_value=-5, max_value=5)
    xy = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n,
                       unique=True))
    centers = np.array([complex(x, y) for x, y in xy])
    if draw(st.booleans()):
        radii = np.full(n, draw(st.sampled_from([0.5, 1.0, math.sqrt(2),
                                                 2.0])))
    else:
        mults = draw(st.lists(st.integers(min_value=1, max_value=9),
                              min_size=n, max_size=n))
        alpha = draw(st.sampled_from([0.5, 1.0, 3.0]))
        radii = np.sqrt(np.array(mults) / alpha)
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2 ** 32 - 1)))
    ks = np.arange(-16, 17) / 2
    points = np.concatenate([
        rng.uniform(-7, 7, 40) + 1j * rng.uniform(-7, 7, 40),
        centers,
        (centers[:, None] + radii[:, None] * np.array([1, -1, 1j, -1j])
         ).ravel(),
        (ks[:, None] + 1j * ks[None, :]).ravel(),
        1e3 * np.exp(2j * np.pi * np.arange(5) / 5),
    ])
    C = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return points, centers, radii, C


class TestNeighbourScans:
    @given(case=scan_cases())
    @settings(max_examples=80, deadline=None)
    def test_scans_match_dense_oracles(self, case):
        points, centers, radii, C = case
        systems = [(centers, radii), (centers, radii + C)]
        eligible = radii > C  # the shrunk system of covering_margin
        if eligible.any():
            systems.append((centers[eligible], radii[eligible] - C))
        for c, r in systems:
            assert np.array_equal(_count_scan(points, c, r),
                                  dense_count_scan(points, c, r))
            assert np.array_equal(_margin_scan(points, c, r),
                                  dense_margin_scan(points, c, r))
            assert _worst_overlap(c, r) == dense_disjointness_check(c, r)
            # shifted apart along the real axis (the centers lie within 15
            # of each other) until no two discs meet
            far = c + (2 * r.max() + 15) * np.arange(c.size)
            assert dense_disjointness_check(far, r)[0]
            assert _worst_overlap(far, r) == dense_disjointness_check(far, r)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           grid=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_circle_intersections_match_pairwise_formula(self, seed, grid):
        # on the half-integer grid: concentric pairs, tangent pairs and
        # exact distance ties; elsewhere generic pairs
        rng = np.random.default_rng(seed)
        n = 60
        if grid:
            c1, c2 = (rng.integers(-4, 5, (2, n)) / 2
                      + 1j * rng.integers(-4, 5, (2, n)) / 2)
            r1, r2 = rng.choice([0.5, 1.0, 1.5, math.sqrt(2)], (2, n))
        else:
            c1, c2 = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
            r1, r2 = rng.uniform(0.1, 2.0, (2, n))
        meets, p, q = _circle_intersections(c1, r1, c2, r2)
        expected = [circle_intersections(*args)
                    for args in zip(c1, r1, c2, r2)]
        assert meets.tolist() == [bool(e) for e in expected]
        assert np.column_stack((p, q)).tolist() \
            == [list(e) for e in expected if e]

    def test_single_node(self):
        c, r = np.array([1 + 1j]), np.array([2.0])
        points = np.array([1 + 1j, 3 + 1j, 1 + 3j, -1 + 1j, 4 + 1j, 1e3 + 0j])
        assert _count_scan(points, c, r).tolist() == [1, 0, 0, 0, 0, 0]
        assert np.array_equal(_margin_scan(points, c, r),
                              dense_margin_scan(points, c, r))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_overlap_constant_matches_dense_enrichment(self, seed):
        rng = np.random.default_rng(seed)
        X = random_divisor(rng, max_nodes=12, max_mult=6, scale=1.5)
        W = Region.disc(5.0, 0.7)
        assert overlap_constant(X, W) == dense_overlap_constant(X, W)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           C=st.sampled_from([-4.0, 0.0, 0.5, 1.5, 2.5]),
           scale=st.sampled_from([0.5, 1.5, 8.0]))
    @settings(max_examples=40, deadline=None)
    def test_disjointness_check_matches_dense_loop(self, seed, C, scale):
        rng = np.random.default_rng(seed)
        X = random_divisor(rng, max_nodes=12, max_mult=9, scale=scale)
        r = X.radii
        assert disjointness_check(X, C, expand=True) == \
            dense_disjointness_check(X.centers, r + C)
        assert disjointness_check(X, C, expand=False) == \
            dense_disjointness_check(X.centers[r > C], r[r > C] - C)

    def test_overlap_constant_lattice(self):
        X = lattice(1.5, 2, 6.0, hole_radius=2.0)
        W = Region.disc(7.0, 0.3)
        assert overlap_constant(X, W) == dense_overlap_constant(X, W)

    def test_uniqueness_config_scans_bounded_memory(self):
        # the dense scans peaked above 600 MB on this lattice and window
        config = Path(__file__).resolve().parents[1] / "configs" / \
            "uniqueness.ini"
        code = (
            "import configparser\n"
            "from fockdiv.cli import load_divisor, load_window\n"
            "from fockdiv.divisor import _count_scan, covering_margin\n"
            "cfg = configparser.ConfigParser()\n"
            f"cfg.read({str(config)!r})\n"
            "X, W = load_divisor(cfg), load_window(cfg)\n"
            "covering_margin(X, 0.0, W)\n"
            "_count_scan(W.grid(), X.centers, X.radii)\n")
        assert child_peak_rss_mb(code) < 200


@st.composite
def margin_cases(draw):
    """(divisor, window, margins): mixed multiplicities, so the shrunk node
    sets differ between margins, and margins from below zero to past the
    largest radius (an empty shrunk system)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2 ** 32 - 1)))
    X = random_divisor(rng, max_nodes=12, max_mult=9, scale=1.5)
    alpha = draw(st.sampled_from([0.5, 1.0, 3.0]))
    X = Divisor(X.centers, X.mults, alpha)
    r = X.radii
    margins = draw(st.lists(st.sampled_from(
        [-1.0, 0.0, 0.25, 0.5, float(r.min()), float(np.median(r)),
         float(r.max()) - 1e-3, float(r.max()), float(r.max()) + 0.5]),
        min_size=1, max_size=6))
    W = draw(st.sampled_from([Region.disc(5.0, 0.4),
                              Region.rectangle(-4.0, 3.0, -2.0, 5.0, 0.3)]))
    return X, W, margins


class TestCoveringAndDisjointness:
    def test_covering_margin_sign(self):
        X = Divisor(np.array([0j]), np.array([16]))
        W = Region.disc(3.0, 0.1)
        (_, margin), _ = covering_margin(X, 0.0, W)
        assert margin <= 0  # disc of radius 4 covers the window
        (_, margin), _ = covering_margin(X, 0.0, Region.disc(5.0, 0.1))
        assert margin == pytest.approx(1.0, abs=0.05)

    def test_covering_margin_nonincreasing_in_C_expand(self):
        X = Divisor(np.array([0j, 3 + 0j]), np.array([1, 1]))
        W = Region.disc(4.0, 0.2)
        vals = [expand[1] for expand, _
                in covering_margin(X, [0.0, 0.5, 1.0, 2.0], W)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_covering_margin_nondecreasing_in_C_shrink(self):
        X = Divisor(np.array([0j]), np.array([25]))
        W = Region.disc(3.0, 0.1)
        vals = [shrink[1] for _, shrink
                in covering_margin(X, [0.0, 1.0, 1.9], W)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_shrink_empty_system(self):
        # no radius exceeds C: the shrunk entry is None, the expanded one
        # is still measured
        X = Divisor(np.array([0j]), np.array([1]))
        expand, shrink = covering_margin(X, 2.0, Region.disc(2.0, 0.1))
        assert shrink is None
        assert expand[1] == pytest.approx(-1.0, abs=0.01)

    @given(case=margin_cases())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_dense_oracle(self, case):
        X, W, margins = case
        pts, c, r = W.grid(), X.centers, X.radii
        rows = covering_margin(X, margins, W)
        assert len(rows) == len(margins)
        eps = np.finfo(float).eps
        for C, (expand, shrink) in zip(margins, rows):
            systems = [(expand, c, r + C)]
            if (r > C).any():
                systems.append((shrink, c[r > C], r[r > C] - C))
            else:
                assert shrink is None
            for (wz, margin), cs, rho in systems:
                dense = dense_margin_scan(pts, cs, rho)
                tol = 8 * eps * (np.abs(pts).max() + np.abs(cs).max()
                                 + r.max() + abs(C))
                assert abs(margin - dense.max()) <= tol
                at_wz = dense_margin_scan(np.array([wz]), cs, rho)[0]
                assert wz in pts and abs(at_wz - dense.max()) <= tol
        assert covering_margin(X, margins[0], W) == rows[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_margin(self, bad):
        X = Divisor(np.array([0j, 1 + 0j]), np.array([1, 2]))
        W = Region.disc(2.0, 0.5)
        for C in (bad, [0.0, bad]):
            with pytest.raises(ParameterError):
                covering_margin(X, C, W)
        for expand in (True, False):
            with pytest.raises(ParameterError):
                disjointness_check(X, bad, expand=expand)

    def test_disjointness(self):
        X = Divisor(np.array([0j, 5 + 0j]), np.array([1, 1]))
        ok, worst = disjointness_check(X, 0.0)
        assert ok
        ok, worst = disjointness_check(X, 2.0)
        assert not ok and worst[2] == pytest.approx(1.0)

    def test_tangency_counts_as_disjoint(self):
        X = Divisor(np.array([0j, 2 + 0j]), np.array([1, 1]))
        ok, _ = disjointness_check(X, 0.0)
        assert ok


class TestLensArea:
    @given(d=st.floats(min_value=0.0, max_value=5.0),
           r1=st.floats(min_value=0.2, max_value=2.5),
           r2=st.floats(min_value=0.2, max_value=2.5))
    @settings(max_examples=50, deadline=None)
    def test_grid_matches_closed_form(self, d, r1, r2):
        grid = lens_area_grid(0j, r1, complex(d), r2)
        exact = _lens_area(d, r1, r2)
        assert grid == pytest.approx(exact, abs=0.02 * min(r1, r2) ** 2 + 1e-6)

    def test_degenerate_distances(self):
        # a subnormal distance and the tangency limits, where the cosines
        # of the half angles round past +-1
        assert _lens_area(5e-324, 0.25, 0.25) == pytest.approx(math.pi / 16)
        r1, r2 = 0.8, 0.74
        inner = math.nextafter(r1 - r2, math.inf)
        outer = math.nextafter(r1 + r2, 0.0)
        assert _lens_area(inner, r1, r2) == pytest.approx(math.pi * r2 ** 2)
        assert _lens_area(outer, r1, r2) == pytest.approx(0.0, abs=1e-12)


class TestTripleDisc:
    def test_rejects_empty_intersection(self):
        with pytest.raises(PreconditionError):
            triple_disc_witness((0j, 1.0), (10 + 0j, 1.0), (5j, 1.0))

    def test_symmetric_triple(self):
        (i, j), slack, area_ratio = triple_disc_witness(
            (0j, 1.0), (1 + 0j, 1.0), (0.5 + 0.8j, 1.0))
        assert slack > 0 and area_ratio > 0

    @staticmethod
    def _intersecting_triple(seed):
        rng = np.random.default_rng(seed)
        while True:
            centers = rng.normal(size=3) + 1j * rng.normal(size=3)
            radii = rng.uniform(0.3, 2.0, size=3)
            # force a common point by construction: shift centers toward it
            p = complex(rng.normal(), rng.normal())
            centers = p + (centers - p) * np.minimum(
                1.0, 0.9 * radii / np.abs(centers - p + 1e-12))
            if np.all(np.abs(centers - p) < radii):
                return list(zip(centers, radii))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_uniform_lower_bound(self, seed):
        # intersecting triples never have vanishing pair overlap: the best
        # pair keeps normalized slack and lens-area ratio bounded below
        _, slack, area_ratio = triple_disc_witness(
            *self._intersecting_triple(seed))
        assert slack >= 0.1
        assert area_ratio >= 0.01

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_area_ratio_matches_grid_oracle(self, seed):
        discs = self._intersecting_triple(seed)
        (i, j), _, area_ratio = triple_disc_witness(*discs)
        (ci, ri), (cj, rj) = discs[i], discs[j]
        rmin_sq = min(ri, rj) ** 2
        grid = lens_area_grid(complex(ci), ri, complex(cj), rj)
        assert area_ratio * rmin_sq == pytest.approx(
            grid, abs=0.02 * rmin_sq + 1e-6)


class TestThinning:
    def _big_family(self):
        return radial_rings([4.0, 7.0, 10.0, 13.0, 16.0, 19.0], [25] * 6,
                            counts=[max(1, int(math.ceil(2 * math.pi * r / 2)))
                                    for r in [4, 7, 10, 13, 16, 19]],
                            include_center=True, center_mult=36)

    def test_subset_property(self):
        base = self._big_family()
        extra = Divisor(
            np.concatenate([base.centers, [14.3 * np.exp(0.7j)]]),
            np.concatenate([base.mults, [1]]))
        W = Region.disc(23.0, 0.15)
        thin = thin_subdivisor(extra, W, [1.0, 2.0])
        assert len(thin) <= len(extra)
        kept = set(map(complex, thin.centers))
        assert kept <= set(map(complex, extra.centers))

    def test_removes_far_low_mult_nodes(self):
        base = self._big_family()
        planted = [14.3 * np.exp(0.7j), 17.1 * np.exp(2.1j)]
        extra = Divisor(np.concatenate([base.centers, planted]),
                        np.concatenate([base.mults, [1, 1]]))
        W = Region.disc(23.0, 0.15)
        thin = thin_subdivisor(extra, W, [1.0, 2.0, 3.0])
        kept = set(map(complex, thin.centers))
        for p in planted:
            assert complex(p) not in kept

    def test_covering_preserved(self):
        base = self._big_family()
        W = Region.disc(23.0, 0.15)
        thin = thin_subdivisor(base, W, [1.0, 2.0, 3.0])
        # explicit recheck: shrunk discs still cover a smaller window
        inner = Region.disc(17.0, 0.15)
        for _, (_, margin) in covering_margin(thin, [1.0, 2.0, 3.0], inner):
            assert margin <= 0

    def test_rejects_bad_c_list(self):
        X = Divisor(np.array([0j]), np.array([25]))
        W = Region.disc(2.0, 0.1)
        with pytest.raises(ParameterError):
            thin_subdivisor(X, W, [])
        with pytest.raises(ParameterError):
            thin_subdivisor(X, W, [1.0, 1.0])  # duplicates after sorting

    def test_rejects_broken_hypothesis(self):
        X = Divisor(np.array([0j]), np.array([4]))
        W = Region.disc(10.0, 0.2)
        with pytest.raises(PreconditionError):
            thin_subdivisor(X, W, [1.0])
