"""Divisor I/O, constructions, and disc-geometry scans."""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockdiv.divisor as dv
from conftest import (child_peak_rise_mb, child_peak_rss_mb,
                      circle_intersections, dense_count_scan,
                      dense_disjointness_check,
                      dense_margin_scan, dense_overlap_constant,
                      lens_area_grid, random_divisor)
from fockdiv.divisor import (Divisor, Region, _circle_intersections,
                             _count_scan, _lens_area,
                             _margin_scan, _worst_overlap, covering_margin,
                             disjointness_check, lattice, overlap_constant,
                             radial_rings, thin_subdivisor,
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

    @pytest.mark.parametrize("mult,alpha,radius", [
        (1, 1e-299, 3.16e149), (10 ** 6, 1e-288, 1e147)])
    def test_accepts_radii_up_to_limit(self, mult, alpha, radius):
        X = Divisor(np.array([0j]), np.array([mult]), alpha)
        assert X.radii[0] == pytest.approx(radius, rel=0.01)

    @pytest.mark.parametrize("mult,alpha", [
        (1, 1e-301), (10 ** 6, 1e-296), (10 ** 6, 1e-308)])
    def test_rejects_radii_beyond_limit(self, mult, alpha):
        # m / alpha overflows at 1e6 / 1e-308; sqrt(m) / sqrt(alpha) does not
        with pytest.raises(DomainError, match="sqrt"):
            Divisor(np.array([0j]), np.array([mult]), alpha)


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

    def test_byte_order_mark_is_dropped(self, tmp_path, rng):
        # a CSV saved with a BOM failed its header check
        X = random_divisor(rng)
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf" + X.dumps().encode("utf-8"))
        Y = Divisor.from_csv(p)
        assert np.array_equal(X.centers, Y.centers)
        assert np.array_equal(X.mults, Y.mults)

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

    @pytest.mark.parametrize("bad", [
        {"spacing": math.nan}, {"extent": math.inf},
        {"hole_radius": math.nan}, {"alpha": math.nan},
        {"alpha": math.inf}], ids=str)
    def test_lattice_rejects_non_finite(self, bad):
        # a NaN hole radius used to pass silently: nan > 0 is false
        with pytest.raises(DomainError):
            lattice(**{"spacing": 1.0, "mult": 1, "extent": 3.0, **bad})

    @pytest.mark.parametrize("bad", [
        {"ring_radii": [3.0, math.nan]}, {"ring_radii": [math.inf]},
        {"ring_mults": [2, 0]}, {"alpha": math.nan}, {"alpha": math.inf},
        {"alpha": 0.0}], ids=str)
    def test_rings_reject_bad_values(self, bad):
        with pytest.raises(DomainError):
            radial_rings(**{"ring_radii": [3.0, 4.0], "ring_mults": [2, 2],
                            **bad})

    @pytest.mark.parametrize("bad", [
        {"ring_mults": [2]}, {"ring_mults": [2, 2, 2]}, {"counts": [6]}],
        ids=str)
    def test_rings_reject_lists_of_other_lengths(self, bad):
        # zip used to drop the ring at 4 without a word
        with pytest.raises(ParameterError):
            radial_rings(**{"ring_radii": [3.0, 4.0], "ring_mults": [2, 2],
                            **bad})

    @pytest.mark.parametrize("build", [
        lambda: lattice(0.005, 1, 5.0),  # 2001^2 = 4,004,001 nodes
        lambda: lattice(1e-320, 1, 5.0),  # extent / spacing = inf
        lambda: radial_rings([1.9e6], [2]),  # about 4.2e6 nodes
        lambda: radial_rings([1e200], [1], alpha=1e300),  # count = inf
        # extent / spacing finite, its square not
        lambda: lattice(1e-300, 1, 2.2), lambda: lattice(2.2, 1, 1e200)],
        ids=["lattice", "lattice-inf", "rings", "rings-inf",
             "lattice-tiny-spacing", "lattice-huge-extent"])
    def test_generator_cap_raises_before_allocating(self, build,
                                                    monkeypatch):
        # just above MAX_GRID_POINTS: the node count alone must stop it
        def no_alloc(*args, **kwargs):
            raise AssertionError("the capped generator allocated its nodes")
        monkeypatch.setattr(np, "meshgrid", no_alloc)
        monkeypatch.setattr(np, "arange", no_alloc)
        with pytest.raises(ResourceError):
            build()

    def test_generator_cap_is_the_node_count(self, monkeypatch):
        # 21 x 21 lattice nodes, and 1 + 20 ring nodes, at a cap of 441
        # and one below it
        monkeypatch.setattr(dv, "MAX_GRID_POINTS", 441)
        assert len(lattice(1.0, 1, 10.0)) == 441
        assert len(radial_rings([5.0], [1], counts=[440],
                                include_center=True)) == 441
        monkeypatch.setattr(dv, "MAX_GRID_POINTS", 440)
        with pytest.raises(ResourceError):
            lattice(1.0, 1, 10.0)
        with pytest.raises(ResourceError):
            radial_rings([5.0], [1], counts=[440], include_center=True)


class TestRegion:
    def test_disc_grid_inside(self):
        W = Region.disc(2.0, 0.25)
        pts = W.grid()
        assert np.all(np.abs(pts) <= 2.0 + 1e-12)
        # grid count approximates the disc area
        assert pts.size * 0.25 ** 2 == pytest.approx(math.pi * 4, rel=0.05)

    def test_rectangle_contains(self):
        W = Region((-1, 1, 0, 2), 0.5)
        assert W.contains(np.array([0.5 + 1j]))[0]
        assert not W.contains(np.array([0.5 - 1j]))[0]

    def test_rejects_bad_region(self):
        with pytest.raises(ParameterError):
            Region.disc(-1.0, 0.1)
        with pytest.raises(ParameterError):
            Region((1, -1, 0, 1), 0.1)

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
                Region(tuple(rect), 0.1)

    def test_rejects_far_window(self):
        # beyond _CENTER_LIMIT the k-nearest fallback of the margin scan
        # squared distances to inf and indexed past the centres
        with pytest.raises(DomainError):
            Region((1e200, 1.00000000001e200, 0, 1e190), 1e189)
        with pytest.raises(DomainError):
            Region((0, 1, -1.0000001e150, 0), 0.5)
        with pytest.raises(DomainError):
            Region.disc(1.0, 2e150)
        assert Region.disc(1e150, 1e150).grid().size == 5

    def test_empty_interior_raises(self):
        # no grid point lies sqrt(2) inside a window of radius 1: the
        # interior, and so the thinning, refuse it as a bad window, not as
        # a failed covering hypothesis
        W = Region.disc(1.0, 0.1)
        with pytest.raises(ParameterError, match="too small for the collar"):
            W.interior(math.sqrt(2))
        assert W.interior(0.9)[0].size > 0
        with pytest.raises(ParameterError, match="too small for the collar"):
            thin_subdivisor(lattice(1.5, 2, 6.0), W, [0.0])

    def test_mesh_cap_raises_before_allocating(self, monkeypatch):
        # 2e8 x 2e8 points: the count alone must stop it
        def no_alloc(*args, **kwargs):
            raise AssertionError("the capped mesh allocated a lattice")
        monkeypatch.setattr(np, "meshgrid", no_alloc)
        monkeypatch.setattr(np, "arange", no_alloc)
        with pytest.raises(ResourceError):
            Region.disc(10.0, 1e-7).mesh()
        with pytest.raises(ResourceError):
            Region((0, 1, 0, 1), 1e-4).grid()

    def test_mesh_count_of_any_size(self):
        # a 1.4e301-point side: the exact count used to go through a float
        # format and overflow ("int too large to convert to float"), then
        # was printed in all its 603 digits; a side past any float counts
        # as inf
        with pytest.raises(ResourceError, match=r"^scan lattice points of "
                           r"at least 10\^602 exceeds the cap of 4000000$"):
            Region.disc(7.0, 1e-300).grid()
        with pytest.raises(ResourceError, match="points of inf exceeds"):
            Region.disc(7.0, 5e-324).grid()

    @pytest.mark.parametrize("count,shown", [
        (10 ** 18 - 1, "999999999999999999"), (10 ** 18, "at least 10^18"),
        (2 * 10 ** 18, "at least 10^18"), (10 ** 19 - 1, "at least 10^18"),
        (1e300, "at least 10^300"), (2.0 ** 1023, "at least 10^307"),
        (10 ** 5000, "at least 10^5000"), (math.inf, "inf")],
        ids=["below", "at", "twice", "below-next", "float", "float-max",
             "huge", "inf"])
    def test_size_shown_as_a_power_of_ten(self, count, shown):
        # read off the integer itself, with no float: 2^1023 is 8.99e307,
        # and 10^5000 is past any float and past int-to-str's digit limit
        with pytest.raises(ResourceError) as err:
            dv._check_size(count, "points", 4)
        assert str(err.value) == f"points of {shown} exceeds the cap of 4"

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
        counts = _count_scan(np.array([1.0 + 0j, 3.0 + 0j]), X.centers,
                             X.radii)
        assert counts[0] == 1
        assert counts[1] == 0

    def test_constant_two_discs(self):
        X = Divisor(np.array([0j, 1 + 0j]), np.array([1, 1]))
        assert overlap_constant(X) == 2

    def test_nested_circles_at_a_tiny_distance(self):
        # centres 1e-300 apart with unequal radii: the crossing formula's
        # a^2 overflowed, and the geometry study exited 1 on the warning
        X = Divisor(np.array([0j, 1e-300 + 0j]), np.array([4, 3]), 2.0)
        assert overlap_constant(X) == 2

    def test_thin_lens_detected(self):
        # the doubly covered lens is thinner than any scan resolution; the
        # nudged crossings find it
        X = Divisor(np.array([0j, 1.99 + 0j]), np.array([1, 1]))
        assert overlap_constant(X) == 2

    @pytest.mark.parametrize("centers,mults,depth,alpha", [
        # the circles of 2 u(0) (radius 2), u(60) and u(175) all pass
        # through 0, u(d) the unit vector at d degrees; the triple face is
        # a thin wedge there, holding 0.003381774294767273 +
        # 0.11625687406113995j inside every disc by at least 3.8e-12
        # (mpmath, 50 digits).  A nudge toward the middle of two centres,
        # or a mesh at h = 0.01, finds only 2.
        (np.array([2, 1, 1]) * np.exp(1j * np.radians([0, 60, 175])),
         [4, 1, 1], 3, 1.0),
        # a fixed nudge of 1e-9 is below the spacing of floats past 1e8
        *[(off + np.array([0.75j, -0.75j]), [1, 1], 2, 1.0)
          for off in (0.0, 1e6, 1e7, 1e8, 1e9)],
        (np.zeros(0, complex), np.zeros(0, int), 0, 1.0),
        # the same figures scaled by 1 / sqrt(alpha): a nudge that does not
        # scale with the radii leaves the lens of radius 1e-10 and the
        # wedge at either scale
        (np.array([0, 1.5e-10]), [1, 1], 2, 1e20),
        *[(np.array([2, 1, 1]) * np.exp(1j * np.radians([0, 60, 175]))
           / np.sqrt(alpha), [4, 1, 1], 3, alpha) for alpha in (1e20, 1e-20)],
    ], ids=["triple-point", "lens-0", "lens-1e6", "lens-1e7", "lens-1e8",
            "lens-1e9", "empty", "lens-alpha-1e20", "triple-point-alpha-1e20",
            "triple-point-alpha-1e-20"])
    def test_exact_depth(self, centers, mults, depth, alpha):
        X = Divisor(centers, np.array(mults), alpha)
        assert overlap_constant(X) == depth

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_under_adding_nodes(self, seed):
        rng = np.random.default_rng(seed)
        X = random_divisor(rng, max_nodes=5)
        full = overlap_constant(X)
        sub = X.subset(np.arange(len(X)) < max(1, len(X) - 1))
        assert overlap_constant(sub) <= full


@st.composite
def scan_cases(draw):
    """(points, h, centers, radii, C): the grid, full mesh, collar-masked
    grid or grid jittered by less than half a step of a disc or rectangle
    window at several steps and origins, or as many free floats in its box
    with a quarter of them repeated;
    centers on a half-integer grid (exact distance ties; at h = 0.25 or 0.5
    from a half-integer origin, grid points lie exactly on every circle of
    radius 0.5, 1 or 2), anywhere, or on a translated lattice, some outside
    the window and optionally three 1e6 away, with equal or mixed radii."""
    h = draw(st.sampled_from([0.25, 0.5, 0.3, 0.7]))
    if draw(st.booleans()):
        W = Region.disc(draw(st.sampled_from([3.0, 4.0, 5.5])), h)
    else:
        x0, y0 = (draw(st.sampled_from([-4.0, -3.5, -2.7]))
                  for _ in range(2))
        W = Region((x0, x0 + 7.0, y0, y0 + 6.5), h)
    part = draw(st.sampled_from(["grid", "mesh", "collar", "jitter",
                                 "scattered"]))
    points = W.mesh().ravel() if part == "mesh" else W.grid()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if part == "collar":
        points = points[W.contains(points, 1.0)]
    if part == "jitter":  # all but the first off their nodes
        shift = rng.uniform(-0.45 * h, 0.45 * h, (2, points.size))
        points = points + (shift[0] + 1j * shift[1]) * (
            np.arange(points.size) > 0)
    if part == "scattered":  # free floats in the box, a quarter repeated
        xmin, xmax, ymin, ymax = W.bounds
        points = (rng.uniform(xmin, xmax, points.size)
                  + 1j * rng.uniform(ymin, ymax, points.size))
        points = np.r_[points, rng.choice(points, points.size // 4)]
    layout = draw(st.sampled_from(["half", "any", "lattice"]))
    if layout == "lattice":
        dx, dy = (draw(st.floats(min_value=-0.5, max_value=0.5))
                  for _ in range(2))
        spacing = draw(st.sampled_from([1.0, 1.5, 1.8]))
        centers = lattice(spacing, 1, 6.0).centers + complex(dx, dy)
    else:
        n = draw(st.integers(min_value=1, max_value=12))
        if layout == "half":
            coord = st.integers(min_value=-12, max_value=12).map(
                lambda k: k / 2)
        else:
            coord = st.floats(min_value=-6, max_value=6)
        xy = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n,
                           unique=True))
        centers = np.array([complex(x, y) for x, y in xy])
    if draw(st.booleans()):
        centers = np.concatenate(
            [centers, 1e6 * np.exp(2j * np.pi * np.arange(3) / 3)])
    n = centers.size
    if draw(st.booleans()):
        radii = np.full(n, draw(st.sampled_from([0.5, 1.0, math.sqrt(2),
                                                 2.0])))
    else:
        mults = draw(st.lists(st.integers(min_value=1, max_value=9),
                              min_size=n, max_size=n))
        alpha = draw(st.sampled_from([0.5, 1.0, 3.0]))
        radii = np.sqrt(np.array(mults) / alpha)
    C = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return points, h, centers, radii, C


class TestNeighbourScans:
    @given(case=scan_cases())
    @settings(max_examples=80, deadline=None)
    def test_scans_match_dense_oracles(self, case):
        points, h, centers, radii, C = case
        systems = [(centers, radii), (centers, radii + C)]
        eligible = radii > C  # the shrunk system of covering_margin
        if eligible.any():
            systems.append((centers[eligible], radii[eligible] - C))
        for c, r in systems:
            assert np.array_equal(_count_scan(points, c, r),
                                  dense_count_scan(points, c, r))
            assert np.array_equal(_margin_scan(points, c, r),
                                  dense_margin_scan(points, c, r))
            # one pair search for every margin, each bitwise the dense
            # loop's, from disjoint (-C) to overlapping (+C)
            margins = [0.0, -C, C]
            assert _worst_overlap(c, r, margins) == [
                dense_disjointness_check(c, r + m) for m in margins]
            # shifted apart along the real axis until no two discs meet:
            # the centers near the window lie within 15 of each other,
            # those 1e6 away farther from every other than any shift
            far = c + (2 * r.max() + 15) * np.arange(c.size)
            assert dense_disjointness_check(far, r)[0]
            assert _worst_overlap(far, r, margins) == [
                dense_disjointness_check(far, r + m) for m in margins]

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
        # the center, four points on the circle, one beyond it and one far
        # away
        c, r = np.array([1 + 1j]), np.array([2.0])
        points = np.array([1 + 1j, 3 + 1j, 1 + 3j, -1 + 1j, 4 + 1j, 1e3 + 0j])
        assert _count_scan(points, c, r).tolist() == [1, 0, 0, 0, 0, 0]
        assert np.array_equal(_margin_scan(points, c, r),
                              dense_margin_scan(points, c, r))

    def test_empty_divisor(self):
        points = Region.disc(3.0, 0.5).grid()
        c, r = np.array([], dtype=complex), np.array([])
        assert np.array_equal(_count_scan(points, c, r),
                              dense_count_scan(points, c, r))
        assert not any(pi.size for pi, _, _ in dv._near_pairs(points, c,
                                                               1.0))

    def test_window_far_from_origin(self):
        # np.arange builds these grids with a rounded step, whose drift puts
        # points up to 7e-6 and 1.2e-5 of h off their mesh nodes
        for W in (Region((1e7, 1e7 + 3, 0, 3), 0.01),
                  Region((1e8, 1e8 + 10, -5, 5), 0.05)):
            points, lo = W.grid(), W.bounds[0]
            X = Divisor(lo + np.array([0.9 + 0.5j, 2 + 1j, 1.5 - 0.1j]),
                        np.array([1, 2, 1]))
            c, r = X.centers, X.radii
            assert np.array_equal(_count_scan(points, c, r),
                                  dense_count_scan(points, c, r))
            assert np.array_equal(_margin_scan(points, c, r),
                                  dense_margin_scan(points, c, r))
            assert overlap_constant(X) == dense_overlap_constant(X, W)

    def test_point_off_the_mesh_alone_in_its_cell(self):
        # 0.75 lies half a step off the mesh through 0
        c, r = np.array([0.2 + 0.1j]), np.array([1.0])
        points = np.array([0j, 0.5 + 0j, 0.5j, 1 + 1.5j, 0.75 + 0j])
        assert np.array_equal(_count_scan(points, c, r),
                              dense_count_scan(points, c, r))
        assert np.array_equal(_margin_scan(points, c, r),
                              dense_margin_scan(points, c, r))

    @pytest.mark.parametrize("scan", [_count_scan, _margin_scan])
    def test_points_sharing_a_cell_match_dense_oracles(self, scan):
        # several points in one cell, and a span that would fill a table
        # of 1e8 cells of side 1
        dense = {_count_scan: dense_count_scan,
                 _margin_scan: dense_margin_scan}[scan]
        c, r = np.array([0.2 + 0.1j]), np.array([1.0])
        on = np.array([0j, 0.5 + 0j, 0.5j, 1 + 1.5j])
        for points in (
                np.r_[on, 1 + 1.5j + 1e-5 * 0.5],  # 5e-6 off a point
                np.r_[on, 0.5 + 0j],  # a duplicate
                np.r_[on, 1e-9 + 0.5j],  # two points 1e-9 apart
                np.array([0j, 1e4 + 1e4j])):
            assert np.array_equal(scan(points, c, r), dense(points, c, r))

    @pytest.mark.parametrize("points,centers,reach", [
        # a single point: no span, so the cells are sized by the reach
        (np.array([0.5 + 0.5j]), np.array([0j, 1.5 + 0.5j, 3 + 0j, 9j]), 1.0),
        # points 1e6 apart at reach 1, each with a center inside, one at
        # the reach and one beyond it
        (1e6 * np.arange(5) * (0.6 + 0.8j),
         (1e6 * np.arange(5) * (0.6 + 0.8j))[:, None]
         + np.array([0.5, 1j, -1.5]), 1.0),
        # a reach far beyond the points' span
        (np.array([0j, 0.25 + 0j, 0.5j, 0.25 + 0.5j]),
         np.array([1e6 + 0j, -9e5j, 2e6 + 0j, 3 + 4j]), 1e6),
    ])
    def test_near_pairs_match_dense_oracle(self, points, centers, reach):
        centers = centers.ravel()
        dist = np.abs(points[:, None] - centers)
        within = np.argwhere(dist <= reach * dv._REACH_PAD)
        expected = sorted((p, n, dist[p, n]) for p, n in within.tolist())
        found = sorted(zip(*(np.concatenate(part).tolist() for part in zip(
            *dv._near_pairs(points, centers, reach)))))
        assert found == expected

    def test_near_pairs_where_spans_overflow(self):
        # coordinate differences of these points overflow to inf
        points = np.array([-1.7e308, 1.7e308j, 0.5 + 0j, 1.7e308 + 0j])
        c = np.array([0.2 + 0.1j, 1.7e308 - 1j, -1e300 + 0j])
        pairs = sorted((int(p), int(n)) for chunk in dv._near_pairs(
            points, c, 2.0) for p, n in zip(*chunk[:2]))
        assert pairs == [(2, 0), (3, 1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_near_pairs_per_node_reach_match_dense_oracle(self, seed):
        # reaches from 0 to 2, one of them 1,000 times the largest of the
        # others, and points and centers sharing a window
        rng = np.random.default_rng(seed)
        points = [1, 1j] @ rng.uniform(-20, 20, (2, 300))
        centers = [1, 1j] @ rng.uniform(-25, 25, (2, 80))
        reach = rng.uniform(0, 2, centers.size)
        reach[seed] = 1000 * reach.max()
        mine = reach.copy()
        dist = np.abs(points[:, None] - centers)
        within = np.argwhere(dist <= reach * dv._REACH_PAD)
        expected = sorted((p, n, dist[p, n]) for p, n in within.tolist())
        chunks = list(dv._near_pairs(points, centers, reach))
        found = sorted(zip(*(np.concatenate(part).tolist()
                             for part in zip(*chunks))))
        assert found == expected
        # node order, and the caller's reaches left as they were
        nodes = np.concatenate([n for _, n, _ in chunks])
        assert np.all(np.diff(nodes) >= 0)
        assert np.array_equal(reach, mine)

    @pytest.mark.parametrize("seed", range(6))
    def test_node_pairs_within_the_larger_reach_once(self, seed):
        # tied reaches, a zero reach and one reach 1,000 times the others
        rng = np.random.default_rng(seed)
        centers = [1, 1j] @ rng.uniform(-10, 10, (2, 120))
        reach = rng.choice([0.0, 0.5, 1.0, 2.5], centers.size)
        reach[seed] = 1000.0
        i, j, d = dv._node_pairs(centers, reach)
        dist = np.abs(centers[:, None] - centers)
        larger = np.maximum(reach[:, None], reach)
        expected = [(a, b) for a, b in np.argwhere(
            dist <= larger * dv._REACH_PAD).tolist() if a < b]
        assert sorted(zip(i.tolist(), j.tolist())) == expected
        assert np.array_equal(d, dist[i, j])

    @pytest.mark.parametrize("margins", [
        [0.0, 0.5], [-0.5], [-0.5, -3.0, 0.0], [-30.0, -3.0]])
    def test_disjointness_with_a_heavy_disc_matches_dense_loop(self,
                                                                margins):
        # tangent unit discs, a disc of radius 20 near them and one of
        # radius 30 far away: at C = -0.5 no pair overlaps, at -3 and -30
        # every light disc has a negative radius
        L = lattice(2.0, 1, 8.0)
        X = Divisor(np.append(L.centers, [14 + 3j, 200 - 50j]),
                    np.append(L.mults, [400, 900]))
        assert disjointness_check(X, margins) == [
            dense_disjointness_check(X.centers, X.radii + C)
            for C in margins]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @example(seed=10000)  # a nudge toward the middle of the centres gave 1
    @settings(max_examples=25, deadline=None)
    def test_overlap_constant_matches_dense_enrichment(self, seed):
        rng = np.random.default_rng(seed)
        X = random_divisor(rng, max_nodes=12, max_mult=6, scale=1.5)
        W = Region.disc(5.0, 0.7)
        assert overlap_constant(X) == dense_overlap_constant(X, W)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           margins=st.lists(st.sampled_from([-4.0, 0.0, 0.5, 1.5, 2.5]),
                            max_size=5),
           scale=st.sampled_from([0.5, 1.5, 8.0]))
    @settings(max_examples=40, deadline=None)
    def test_disjointness_check_matches_dense_loop(self, seed, margins,
                                                   scale):
        rng = np.random.default_rng(seed)
        X = random_divisor(rng, max_nodes=12, max_mult=9, scale=scale)
        r = X.radii
        assert disjointness_check(X, margins) == [
            dense_disjointness_check(X.centers, r + C) for C in margins]

    @pytest.mark.parametrize("centers,mults", [
        ([0j, 2 + 0j], [1, 1]),  # externally tangent
        ([0j, 1 + 0j], [4, 1]),  # internally tangent
        ([0j, 1.5 + 0j, 0.75 + 1.2j], [1, 1, 1]),  # crossing pairs
        # three unit circles through the origin, a grid point
        (np.exp(2j * np.pi * np.arange(3) / 3), [1, 1, 1]),
        (lattice(2.0, 1, 4.0).centers, None),  # tangent lattice
        (lattice(1.0, 2, 3.0).centers + (0.1 - 0.3j), None),  # crossings
    ])
    def test_overlap_constant_tangent_and_crossing(self, centers, mults):
        centers = np.asarray(centers, dtype=complex)
        X = Divisor(centers, np.ones(centers.size, int) if mults is None
                    else np.array(mults))
        for W in (Region.disc(5.0, 0.25),
                  Region((-2.6, 3.1, -1.9, 2.3), 0.3)):
            assert overlap_constant(X) == dense_overlap_constant(X, W)

    def test_overlap_constant_lattice(self):
        X = lattice(1.5, 2, 6.0, hole_radius=2.0)
        W = Region.disc(7.0, 0.3)
        assert overlap_constant(X) == dense_overlap_constant(X, W)

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
            "covering_margin(X, [0.0], W)\n"
            "_count_scan(W.grid(), X.centers, X.radii)\n")
        assert child_peak_rss_mb(code) < 200

    @pytest.mark.parametrize("workload,scans", [
        ("uniqueness", "covering_margin(X, [0.0], W)\n"
                       "_count_scan(W.grid(), X.centers, X.radii)\n"),
        ("geometry", "covering_margin(X, [0.0, 0.5], W)\n"
                     "overlap_constant(X)\n"),
    ])
    def test_bench_config_scans_peak_memory(self, workload, scans,
                                            tmp_path):
        # the scans of a benchmark config raise the peak resident memory by
        # at most 16 MB over the peak once divisor and window are loaded
        bench = Path(__file__).resolve().parents[1] / "bench"
        setup = (
            "import configparser, sys\n"
            "from pathlib import Path\n"
            f"sys.path.insert(0, {str(bench)!r})\n"
            "from run import make_config\n"
            "from fockdiv.cli import load_divisor, load_window\n"
            "from fockdiv.divisor import (_count_scan, covering_margin,\n"
            "                             overlap_constant)\n"
            "cfg = configparser.ConfigParser()\n"
            f"cfg.read(make_config({workload!r}, 0, Path({str(tmp_path)!r})))\n"
            "X, W = load_divisor(cfg), load_window(cfg)\n")
        assert child_peak_rise_mb(setup, scans) <= 16.0

    def test_knn_fallback_queries_in_blocks(self):
        # a window 1e12 away ties every node of the lattice under the
        # relative pad of the k-nearest fallback, so k grows to the node
        # count.  Querying every point at once raised the peak by 308 MB
        # here; in blocks of about _SCAN_CHUNK entries, by 3 MB
        setup = ("from fockdiv.divisor import Region, lattice, _margin_scan\n"
                 "L = lattice(1.0, 1, 15.0, hole_radius=3.0)\n"
                 "pts = Region((1e12 - 4, 1e12 + 4, -4, 4), 0.1).grid()\n")
        assert child_peak_rise_mb(
            setup, "_margin_scan(pts, L.centers, L.radii)\n") <= 12.0
        # several blocks of the last k (the node count, 936) on a coarser
        # window
        L = lattice(1.0, 1, 15.0, hole_radius=3.0)
        c, r = L.centers, L.radii
        points = Region((1e12 - 4, 1e12 + 4, -4, 4), 0.5).grid()
        assert points.size > 4 * (dv._SCAN_CHUNK // c.size)
        assert np.array_equal(_margin_scan(points, c, r),
                              dense_margin_scan(points, c, r))


class TestHeavyDisc:
    """One heavy disc among many light ones: each node reaches as far as
    its own disc, so the light nodes never read the whole divisor."""

    def test_geometry_within_time_and_memory(self, tmp_path):
        # light rings at radii 1.5, 1.75, ..., 51.25 (alpha 2, multiplicities
        # 3 and 2, a centre node of multiplicity 4), the first ring one disc
        # of radius 707 holding all the others: 15,138 nodes.  A reach of
        # twice the largest radius listed 114.6 million node pairs, and
        # geometry exited 1 with MemoryError under a 3 GB address-space
        # limit.  Per-node reaches: 1.0-1.2 s, 155 MB peak
        radii = ",".join(f"{1.5 + 0.25 * i:g}" for i in range(200))
        mults = ",".join(["1000000"] + ["3", "2"] * 99 + ["3"])
        config = tmp_path / "heavy.ini"
        config.write_text(
            f"[divisor]\nsource = rings\nring_radii = {radii}\n"
            f"ring_mults = {mults}\ninclude_center = yes\n"
            "center_mult = 4\nalpha = 2\n[window]\nkind = rect\n"
            "xmin = -7\nxmax = 7\nymin = -5\nymax = 5\nh = 0.25\n"
            "[geometry]\nmargins = 0,0.5\n", encoding="utf-8")
        code = (
            "import resource, warnings\n"
            "warnings.simplefilter('error', RuntimeWarning)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9,\n"
            "    resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from fockdiv.cli import main\n"
            f"code = main(['geometry', '--config', {str(config)!r},\n"
            f"             '--out', {str(tmp_path / 'out')!r}])\n"
            "assert code == 0, code\n")
        start = time.perf_counter()
        peak = child_peak_rss_mb(code)
        assert time.perf_counter() - start <= 10.0
        assert peak <= 500.0

    def test_scaled_down_copy_matches_dense_oracles(self):
        # the rings to radius 10: 590 nodes, one of them heavy
        radii = np.arange(1.5, 10.1, 0.25)
        mults = np.where(np.arange(radii.size) % 2, 3, 2)
        mults[0] = 10 ** 6
        X = radial_rings(radii.tolist(), mults.tolist(), alpha=2.0,
                         include_center=True, center_mult=4)
        W = Region((-7.0, 7.0, -5.0, 5.0), 0.25)
        c, r = X.centers, X.radii
        assert len(X) == 590
        assert overlap_constant(X) == dense_overlap_constant(X, W)
        margins = [0.0, 0.5, -0.5, -2.0]
        assert disjointness_check(X, margins) == [
            dense_disjointness_check(c, r + C) for C in margins]
        pts = W.grid()
        (expand, shrink), = covering_margin(X, [0.0], W)
        assert expand[1] == shrink[1] == dense_margin_scan(pts, c, r).max()
        assert np.array_equal(_count_scan(pts, c, r),
                              dense_count_scan(pts, c, r))

    @pytest.mark.parametrize("heavy, mults", [
        ([6.5 + 6.5j], [9]),              # near, inside the window
        ([1100], [10 ** 6]),              # far outside, never the minimum
        ([1004 + 0j], [10 ** 6]),         # far, its circle through the hole
        ([-40 + 3j, 60j], [900, 10 ** 5]),
        ([30, 30j, -30, -30j], [400] * 4),  # equal radii, tied in rank
        ([1004 + 0j, -1004 + 0j], [10 ** 6] * 2),
    ])
    def test_margin_scan_mixed_radii(self, heavy, mults):
        L = lattice(1.0, 1, 15.0, hole_radius=6.0)
        X = Divisor(np.append(L.centers, heavy), np.append(L.mults, mults))
        c, r, pts = X.centers, X.radii, Region.disc(8.0, 0.2).grid()
        assert np.array_equal(_margin_scan(pts, c, r),
                              dense_margin_scan(pts, c, r))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_margin_scan_matches_dense_with_heavy_nodes(self, seed):
        # light nodes and up to three heavy ones whose circles pass within
        # a few units of the window, radii drawn from three values (ties)
        rng = np.random.default_rng(seed)
        light = random_divisor(rng, max_nodes=60, max_mult=3, scale=4.0)
        n = int(rng.integers(1, 4))
        radius = rng.choice([3.0, 40.0, 900.0], size=n)
        heavy = (radius + rng.uniform(-2.0, 8.0, size=n)) * np.exp(
            2j * np.pi * rng.random(n))
        X = Divisor(np.append(light.centers, heavy),
                    np.append(light.mults, (radius ** 2).astype(int)))
        c, r, pts = X.centers, X.radii, Region.disc(6.0, 0.3).grid()
        assert np.array_equal(_margin_scan(pts, c, r),
                              dense_margin_scan(pts, c, r))

    def test_margin_scan_lattice_with_eight_heavy_nodes(self):
        # 1,636 light nodes and eight discs of radius 20 on a ring of
        # radius 25: 301,885 window points, 3,000 of them checked densely
        L = lattice(1.5, 2, 30.0, hole_radius=6.0)
        X = Divisor(np.append(L.centers,
                              25 * np.exp(2j * np.pi * np.arange(8) / 8)),
                    np.append(L.mults, [400] * 8))
        c, r, pts = X.centers, X.radii, Region.disc(31.0, 0.1).grid()
        field = _margin_scan(pts, c, r)
        at = np.random.default_rng(8).choice(pts.size, 3000, replace=False)
        assert np.array_equal(field[at], dense_margin_scan(pts[at], c, r))

    def test_far_heavy_disc_within_time_and_memory(self):
        # one disc of radius 1,000 centred 1,100 away from a holed lattice
        # of 14,336 unit discs.  A fallback reach of d1 + (max radius - min
        # radius) took k to the node count for every point of the hole:
        # 105 s.  Settled by the k largest discs: 0.06 s, a 8 MB rise
        setup = ("import numpy as np\n"
                 "from fockdiv.divisor import (Divisor, Region, lattice,\n"
                 "                             covering_margin)\n"
                 "L = lattice(1.0, 1, 60.0, hole_radius=10.0)\n"
                 "X = Divisor(np.append(L.centers, 1100),\n"
                 "            np.append(L.mults, 10 ** 6))\n"
                 "worst = (-4.263256414560601e-14 - 4.263256414560601e-14j,\n"
                 "         8.99999999999994)\n")
        code = ("assert (covering_margin(X, [0.0], Region.disc(12.0, 0.1))\n"
                "        == [(worst, worst)])\n")
        start = time.perf_counter()
        assert child_peak_rise_mb(setup, code) <= 16.0
        assert time.perf_counter() - start <= 5.0

    def test_far_heavy_disc_queries_at_most_16_neighbours(self,
                                                          monkeypatch):
        asked = []

        class Counted(dv.cKDTree):
            def query(self, x, k):
                asked.append(k[-1])
                return super().query(x, k=k)
        monkeypatch.setattr(dv, "cKDTree", Counted)
        L = lattice(1.0, 1, 60.0, hole_radius=10.0)
        X = Divisor(np.append(L.centers, 1100), np.append(L.mults, 10 ** 6))
        covering_margin(X, [0.0], Region.disc(12.0, 0.1))
        assert asked and max(asked) <= 16


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
                              Region((-4.0, 3.0, -2.0, 5.0), 0.3)]))
    return X, W, margins


class TestCoveringAndDisjointness:
    def test_covering_margin_sign(self):
        X = Divisor(np.array([0j]), np.array([16]))
        W = Region.disc(3.0, 0.1)
        (_, margin), _ = covering_margin(X, [0.0], W)[0]
        assert margin <= 0  # disc of radius 4 covers the window
        (_, margin), _ = covering_margin(X, [0.0], Region.disc(5.0, 0.1))[0]
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
        expand, shrink = covering_margin(X, [2.0], Region.disc(2.0, 0.1))[0]
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

    def test_one_margin_field_alive_at_a_time(self):
        # radii 1, 2, 3, 4 and four margins: four node sets on a window of
        # 502,000 points (4 MB a field).  Keeping every field until the
        # call returned raised the peak by 64 MB; one at a time, by 43 MB
        setup = ("import numpy as np\n"
                 "from fockdiv.divisor import (Divisor, Region,\n"
                 "                             covering_margin, lattice)\n"
                 "L = lattice(1.5, 1, 40.0)\n"
                 "X = Divisor(L.centers, (1 + np.arange(len(L)) % 4) ** 2)\n"
                 "W = Region.disc(40.0, 0.1)\n")
        assert child_peak_rise_mb(
            setup, "covering_margin(X, [0.0, 1.5, 2.5, 3.5], W)\n") <= 52.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_margin(self, bad):
        X = Divisor(np.array([0j, 1 + 0j]), np.array([1, 2]))
        W = Region.disc(2.0, 0.5)
        for C in ([bad], [0.0, bad]):
            with pytest.raises(ParameterError):
                covering_margin(X, C, W)
            with pytest.raises(ParameterError):
                disjointness_check(X, C)

    @pytest.mark.parametrize("bad", [1e308, -1e308, 8.99e307])
    def test_rejects_margin_whose_radius_sums_overflow(self, bad):
        # radius 2 + 8.99e307, doubled, overflows
        X = Divisor(np.array([0j, 1 + 0j]), np.array([1, 4]))
        W = Region.disc(2.0, 0.5)
        with pytest.raises(ParameterError):
            covering_margin(X, [0.0, bad], W)
        with pytest.raises(ParameterError):
            disjointness_check(X, [0.0, bad])
        disjointness_check(X, [8.98e307])

    def test_disjointness(self):
        X = Divisor(np.array([0j, 5 + 0j]), np.array([1, 1]))
        (ok, _), (ok2, worst) = disjointness_check(X, [0.0, 2.0])
        assert ok
        assert not ok2 and worst[2] == pytest.approx(1.0)

    def test_tangency_counts_as_disjoint(self):
        X = Divisor(np.array([0j, 2 + 0j]), np.array([1, 1]))
        ((ok, _),) = disjointness_check(X, [0.0])
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

    @pytest.mark.parametrize("discs", [
        [(0.22234377860987703 + 0.2604827574978832j, 0.7353137511488772),
         (1.672952493676314 - 1.8258814969158963j, 1.8057847212292135),
         (0.893489127256494 - 0.1684621671703103j, 1.8605378865040645)],
        [(1.0161414869746983 + 0.7687555504711374j, 0.6330270362745114),
         (-1.4357015596749696 + 1.6977400319098008j, 1.9889086021724331),
         (0.420262628989588 + 0.9827039165455101j, 0.226533457044521)]],
        ids=["wide-third", "narrow-third"])
    def test_tangent_pair_under_third_disc(self, discs):
        # the first two discs touch (|c2 - c1| = r1 + r2 in double) and the
        # third covers the touching point: the common part is that point
        (c1, r1), (c2, r2), _ = discs
        assert abs(c2 - c1) == r1 + r2
        (i, j), slack, _ = triple_disc_witness(*discs)
        assert slack > 0

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


def dense_uncovered_radius(divisor, C, window, collar):
    """Per-shrink oracle of the thinning's uncovered radius: one dense scan
    of the open discs shrunk by C over the window grid minus the collar; a
    point on a shrunk circle is uncovered."""
    nodes = divisor.radii > C
    pts = window.grid()
    pts = pts[window.contains(pts, collar)]
    if not nodes.any():
        return None
    margins = dense_margin_scan(pts, divisor.centers[nodes],
                                divisor.radii[nodes] - C)
    uncovered = pts[margins >= 0]
    if uncovered.size == 0:
        return 0.0
    r = float(np.abs(uncovered).max())
    # the edge is the largest centred disc inside the window minus the
    # collar, less one step, for a disc or a rectangle alike
    xmin, xmax, ymin, ymax = window.bounds
    if r >= min(-xmin, xmax, -ymin, ymax) - collar - window.h:
        return None
    return r


def dense_thinning(X, window, c_list):
    """thin_subdivisor with one dense scan per shrink and divisor."""
    collar = float(X.radii.max())
    for C in c_list:
        if dense_uncovered_radius(X, C, window, collar) is None:
            raise PreconditionError(
                f"shrink-covering hypothesis fails for C={C}")
    keep = np.ones(len(X), dtype=bool)
    for s in range(1, int(math.ceil(math.sqrt(X.mults.max()))) + 1):
        r_s = dense_uncovered_radius(X, float(s), window, collar)
        if r_s is not None:
            keep &= ~((np.abs(X.centers) > r_s + s)
                      & (X.mults >= (s - 1) ** 2) & (X.mults < s * s))
    thinned = X.subset(keep)
    for C in c_list:
        if dense_uncovered_radius(thinned, C, window, collar) is None:
            raise PreconditionError(f"thinning broke the covering for C={C}")
    return thinned


class TestThinning:
    def _big_family(self):
        return radial_rings([4.0, 7.0, 10.0, 13.0, 16.0, 19.0], [25] * 6,
                            counts=[max(1, int(math.ceil(2 * math.pi * r / 2)))
                                    for r in [4, 7, 10, 13, 16, 19]],
                            include_center=True, center_mult=36)

    @staticmethod
    def _count_scans(monkeypatch) -> list:
        scanned = []
        scan = dv._margin_scan

        def counted(points, centers, radii):
            scanned.append(centers.size)
            return scan(points, centers, radii)
        monkeypatch.setattr(dv, "_margin_scan", counted)
        return scanned

    def test_one_margin_scan_per_node_set(self, monkeypatch):
        # the scripts/thinning_demo.py divisor: every C and every step
        # read the field of the 220 heavy nodes {r > c0}, c0 = 1, and
        # the thinning removes only the three planted nodes of radius 1,
        # so the thinned divisor reads it too: one scan in all
        base = self._big_family()
        planted = np.array([14.3 * np.exp(0.7j), 17.1 * np.exp(2.1j),
                            15.6 * np.exp(4.4j)])
        X = Divisor(np.concatenate([base.centers, planted]),
                    np.concatenate([base.mults, [1, 1, 1]]))
        scanned = self._count_scans(monkeypatch)
        thin = thin_subdivisor(X, Region.disc(23.0, 0.1), [1.0, 2.0, 3.0])
        assert len(thin) == len(base)
        assert scanned == [len(base)]

    def test_multi_class_lattice_scans_once(self, monkeypatch):
        # multiplicities cycling 1, 4, 9, 16: four node sets {r > C} over
        # the shrinks and steps, one field of {r > 0.5}, every node
        L = lattice(1.5, 1, 30.0)
        X = Divisor(L.centers, np.resize([1, 4, 9, 16], len(L)))
        scanned = self._count_scans(monkeypatch)
        thin = thin_subdivisor(X, Region.disc(28.0, 0.08), [0.5, 1.0, 1.5])
        assert len(thin) == len(X)
        assert scanned == [len(X)]

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_dense_per_shrink_thinning(self, seed, monkeypatch):
        # jittered lattices of mixed multiplicity, shrinks from below zero:
        # the thinning equals the one that scans every shrink densely, and
        # scans twice only when it removed a node of radius above c0
        rng = np.random.default_rng(seed)
        spacing = rng.uniform(0.8, 1.6)
        L = lattice(spacing, 1, 6 * spacing)
        jitter = np.array([1, 1j]) @ rng.uniform(-0.2, 0.2, (2, len(L)))
        X = Divisor(L.centers + spacing * jitter,
                    rng.choice([1, 2, 4, 9, 16, 25], len(L),
                               p=[.3, .2, .2, .15, .1, .05]),
                    rng.uniform(0.5, 2.0))
        c_list = sorted({float(c) for c in
                         np.round(rng.uniform(-0.5, 3.0, 3), 2)})
        W = Region.disc(6 * spacing + rng.uniform(-1.0, 3.0), 0.25)
        scanned = self._count_scans(monkeypatch)
        try:
            thin = thin_subdivisor(X, W, c_list)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as want:
                dense_thinning(X, W, c_list)
            assert str(exc).startswith(str(want.value))
            return
        want = dense_thinning(X, W, c_list)
        assert np.array_equal(thin.centers, want.centers)
        c0 = min(c_list[0], 1.0)
        lost = set(map(complex, X.centers[X.radii > c0])) \
            - set(map(complex, thin.centers))
        assert len(scanned) == 1 + bool(lost)

    @given(case=margin_cases(), collar=st.sampled_from([0.0, 0.6, 2.0]))
    @example(case=(Divisor(np.array([0j]), np.array([4])),
                   Region.disc(1.0, 0.5), [1.0]), collar=0.0)
    @settings(max_examples=60, deadline=None)
    def test_uncovered_radius_matches_dense_oracle(self, case, collar):
        # shrinks from below zero to past the largest radius, all read off
        # one field, of the nodes {r > min(shrinks)}, as in thin_subdivisor;
        # the example puts grid points exactly on a shrunk circle, which
        # counts as uncovered: the discs are open
        X, W, shrinks = case
        pts = W.grid()
        pts = pts[W.contains(pts, collar)]
        xmin, xmax, ymin, ymax = W.bounds
        edge = min(-xmin, xmax, -ymin, ymax) - collar - W.h
        field = dv._margin_field(X, X.radii > min(shrinks), pts)
        for C in shrinks:
            assert dv._uncovered_radius(X, C, pts, field, edge) \
                == dense_uncovered_radius(X, C, W, collar)

    @pytest.mark.parametrize("window", [
        Region.disc(14.0, 0.2), Region((-14, 14, -14, 14), 0.2)],
        ids=["disc", "rect"])
    def test_uncovered_set_reaching_the_collar_raises(self, window):
        # the 81 nodes cover only |Re|, |Im| <= 6 + sqrt(2): on a disc or
        # a rectangle alike, the uncovered set reaches the collar
        with pytest.raises(PreconditionError):
            thin_subdivisor(lattice(1.5, 2, 6.0), window, [0.0])

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
        # the margin check of covering_margin: these used to report a
        # failed shrink-covering hypothesis for C=nan
        for bad in ([math.nan], [0.5, math.inf], [0.1, math.nan, 0.2],
                    [1e308]):
            with pytest.raises(ParameterError, match="max radius"):
                thin_subdivisor(X, W, bad)

    def test_thinning_that_breaks_the_covering_raises(self):
        # at alpha = 1/4 a node of multiplicity 3 has radius 2 sqrt(3) > 2,
        # so it counts among the discs shrunk by s = 2 that justify its own
        # removal.  In the lattice of radius-4 discs at spacing 2.2 it
        # replaces the node at 6.6; the other discs shrunk by 2 leave the
        # points within 0.2 of it uncovered, and 6.5 lies past the edge
        # 10.5 - 4 - 0.1
        X = lattice(2.2, 4, 13.2, alpha=0.25)
        W = Region.disc(10.5, 0.1)
        assert len(thin_subdivisor(X, W, [2.0])) == len(X)
        light = Divisor(X.centers, np.where(
            np.isclose(X.centers, 6.6), 3, X.mults), 0.25)
        with pytest.raises(PreconditionError, match="thinning broke"):
            thin_subdivisor(light, W, [2.0])

    def test_rejects_broken_hypothesis(self):
        X = Divisor(np.array([0j]), np.array([4]))
        W = Region.disc(10.0, 0.2)
        with pytest.raises(PreconditionError):
            thin_subdivisor(X, W, [1.0])
