"""Redistribution functional, subharmonic checks, radial weights, cut-offs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import fockdiv.potential as pt
from conftest import (child_peak_rss_mb, radial_glue_errors,
                      ring_log_oracle, weight_v_loop)
from fockdiv.divisor import (Divisor, Region, disjointness_check, lattice,
                             radial_rings, thin_subdivisor)
from fockdiv.errors import (DomainError, ParameterError, PreconditionError,
                             VerificationError)
from fockdiv.fock import CoefVec
from fockdiv.potential import (LaplacianReport, RedistributionCurve,
                               build_radial_weight,
                               cutoff_interpolant_field,
                               redistribution_integral,
                               uniqueness_certificate, verify_psi_laplacian,
                               weight_v)


def disc_log_oracle(lam: complex, r: float, R: float) -> float:
    """int over D(lam, r) cap D(R) of log(R/|z|), by 1-D quadrature in
    polar coordinates about the origin: the arc of the circle |z| = rho
    inside D(lam, r) has angular width 2 acos((rho^2 + |lam|^2 - r^2) /
    (2 rho |lam|))."""
    d = abs(lam)

    def arc(rho):
        if rho == 0:
            return 2 * math.pi if d < r else 0.0
        if d == 0:
            return 2 * math.pi if rho < r else 0.0
        c = (rho * rho + d * d - r * r) / (2 * rho * d)
        if c >= 1:
            return 0.0
        if c <= -1:
            return 2 * math.pi
        return 2 * math.acos(c)

    pts = sorted({p for p in (abs(d - r), d + r) if 0 < p < R})
    val, _ = integrate.quad(
        lambda rho: rho * math.log(R / rho) * arc(rho), 0.0, R,
        points=pts or None, limit=400, epsabs=1e-12, epsrel=1e-10)
    return val


class TestRedistributionIntegral:
    def test_centered_disc_closed_form(self):
        # 2 pi int_0^r s log(R/s) ds
        r, R = 2.0, 10.0
        expect = 2 * math.pi * (r * r / 2 * math.log(R / r) + r * r / 4)
        X = Divisor(np.array([0j]), np.array([4]))
        assert redistribution_integral(X, R)[0] == pytest.approx(
            expect, rel=1e-10)

    def test_offcenter_inside_closed_form(self):
        # disc wholly inside, not meeting the origin: mean-value property
        lam, r, R = 5.0 + 0j, 2.0, 10.0
        expect = math.pi * r * r * math.log(R / abs(lam))
        X = Divisor(np.array([lam]), np.array([4]))
        assert redistribution_integral(X, R)[0] == pytest.approx(
            expect, rel=1e-10)

    def test_disc_fully_outside(self):
        X = Divisor(np.array([20.0 + 0j]), np.array([4]))
        assert redistribution_integral(X, 10.0)[0] == 0.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_polar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lam = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        r = rng.uniform(0.5, 4.0)
        R = rng.uniform(3.0, 12.0)
        X = Divisor(np.array([lam]), np.array([max(1, int(r * r))]))
        # use the divisor's own radius for the oracle
        r = float(X.radii[0])
        got = redistribution_integral(X, R)[0]
        want = disc_log_oracle(lam, r, R)
        assert got == pytest.approx(want, rel=1e-10)

    @given(kind=st.sampled_from(["any", "origin", "rim", "centred",
                                 "outside", "covers"]),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_ring_oracle(self, kind, seed):
        # rings about the center against circles about the origin
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        m = k * k  # r = k exactly, so |lam| = r is representable
        r = float(k)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi))
        R = rng.uniform(0.5, 12.0)
        lam = {"any": complex(rng.uniform(-8, 8), rng.uniform(-8, 8)),
               "origin": rng.uniform(0, r) * u,  # disc contains 0
               "rim": complex(r * (1j ** int(rng.integers(4)))),  # |lam| = r
               "centred": 0j,
               "outside": (R + r + rng.uniform(0, 5)) * u,
               "covers": rng.uniform(0, r) * u}[kind]
        if kind == "covers":  # D(R) inside the disc: R < r - |lam|
            R = rng.uniform(0.01, 0.99) * (r - abs(lam))
        X = Divisor(np.array([lam]), np.array([m]))
        got = redistribution_integral(X, R)[0]
        want = ring_log_oracle(lam, r, R)
        if kind == "outside":
            assert got == want == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-9)
        if kind == "covers":
            assert got == pytest.approx(math.pi * R * R / 2, rel=1e-12)

    def test_coarse_rule_disagreement_raises(self, monkeypatch):
        # a rule that has not converged is never returned as I(R)
        monkeypatch.setattr(pt, "_COARSE_RULE", pt._polar_rule(3))
        X = Divisor(np.array([5.0 + 1j]), np.array([9]))
        with pytest.raises(VerificationError):
            redistribution_integral(X, 6.0)
        with pytest.raises(VerificationError):
            uniqueness_certificate(lattice(1.2, 2, 14.0),
                                   Region.disc(14.0, 0.3),
                                   [5.0, 7.0, 9.0, 11.0])

    def test_rejects_bad_radius(self):
        X = Divisor(np.array([0j]), np.array([1]))
        with pytest.raises(DomainError):
            redistribution_integral(X, 0.0)

    @pytest.mark.parametrize("R", [math.inf, math.nan, 1e300])
    def test_rejects_radius_with_infinite_square(self, R):
        # inf used to end in a LAPACK failure of the certificate's fit, and
        # 1e300 in a nan slope; R = 1e150 has R^2 finite and runs clean
        X = lattice(1.2, 2, 14.0)
        with pytest.raises(DomainError):
            redistribution_integral(X, R)
        with pytest.raises(DomainError):
            uniqueness_certificate(X, Region.disc(14.0, 0.3),
                                   [5.0, 7.0, 9.0, R])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            value, _ = redistribution_integral(X, 1e150)
        assert math.isfinite(value) and value > 0


class TestRedistributionCurve:
    def test_csv_header(self):
        c = RedistributionCurve(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        lines = c.csv().splitlines()
        assert lines[0] == "R,I,piR2_half,excess"
        assert len(lines) == 3

    def test_excess(self):
        c = RedistributionCurve(np.array([2.0]), np.array([10.0]))
        assert c.excess[0] == pytest.approx(10.0 - 2 * math.pi)

    def test_rejects_decreasing(self):
        with pytest.raises(ParameterError):
            RedistributionCurve(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        with pytest.raises(ParameterError):
            RedistributionCurve(np.array([2.0, 1.0]), np.array([1.0, 2.0]))


class TestUniquenessCertificate:
    def test_rejects_few_radii(self):
        X = Divisor(np.array([0j]), np.array([4]))
        W = Region.disc(6.0, 0.2)
        with pytest.raises(ParameterError):
            uniqueness_certificate(X, W, [5.0, 6.0])

    def test_covering_hypothesis_enforced(self):
        # a single far node leaves the window uncovered out to the collar
        X = Divisor(np.array([0j]), np.array([4]))
        W = Region.disc(20.0, 0.25)
        with pytest.raises(PreconditionError):
            uniqueness_certificate(X, W, [5.0, 8.0, 11.0, 14.0])

    windows_12 = pytest.mark.parametrize("window", [
        Region.disc(12.0, 0.1), Region((-12, 12, -12, 12), 0.1)],
        ids=["disc", "rect"])

    @windows_12
    def test_hole_at_the_collar_raises(self, window):
        # lattice(1.5, 2, 16) less its node at 10.5 leaves a hole just
        # inside |z| = 12 - collar (the collar is the disc radius sqrt(2)).
        # One interior rule for both windows: the rectangle used to allow
        # uncovered points up to 12 - collar and returned a verdict here
        X = lattice(1.5, 2, 16.0)
        with pytest.raises(PreconditionError):
            uniqueness_certificate(X.subset(X.centers != 10.5), window,
                                   [3.0, 4.0, 5.0, 6.0])

    @windows_12
    def test_uncovered_edge(self, window, monkeypatch):
        # the grid points at one radius made uncovered in a covering
        # lattice: the largest radius below the edge 12 - collar - h
        # passes, the smallest at or above it raises
        X = lattice(1.5, 2, 16.0)
        collar = float(X.radii.max())
        inner, edge = window.interior(collar)
        assert edge == 12.0 - collar - 0.1
        radius = np.abs(inner)
        scan = pt._count_scan

        def certify_with_uncovered(target):
            def uncover(points, centers, radii):
                counts = scan(points, centers, radii)
                counts[np.abs(points) == target] = 0
                return counts
            monkeypatch.setattr(pt, "_count_scan", uncover)
            return uniqueness_certificate(X, window, [3.0, 4.0, 5.0, 6.0])
        assert certify_with_uncovered(radius[radius < edge].max()).area_K > 0
        with pytest.raises(PreconditionError):
            certify_with_uncovered(radius[radius >= edge].min())

    def test_window_too_small_for_the_collar(self):
        # Region.interior's check, the one the thinning meets too
        with pytest.raises(ParameterError, match="too small for the collar"):
            uniqueness_certificate(lattice(1.5, 2, 6.0), Region.disc(1.0, 0.1),
                                   [3.0, 4.0, 5.0, 6.0])

    def test_empty_divisor_fails_the_covering(self):
        X = Divisor(np.array([], dtype=complex), np.array([], dtype=int))
        with pytest.raises(PreconditionError):
            uniqueness_certificate(X, Region.disc(6.0, 0.2),
                                   [2.0, 3.0, 4.0, 5.0])

    def test_multiply_covered_set_too_small(self):
        # one disc covers the whole interior once: no point of depth 2
        X = Divisor(np.array([0j]), np.array([4]))
        with pytest.raises(PreconditionError, match="multiply covered"):
            uniqueness_certificate(X, Region.disc(3.0, 0.25),
                                   [0.5, 1.0, 1.5, 2.0])

    def test_inconclusive_inside_a_hole(self):
        # radii inside the hole of radius 4: I(R) stands still while the
        # benchmark grows, so the excess falls
        X = lattice(1.2, 2, 14.0, hole_radius=4.0)
        report = uniqueness_certificate(X, Region.disc(14.0, 0.3),
                                        [2.0, 3.0, 4.0, 5.0])
        assert not report.grows
        assert report.verdict.startswith("inconclusive")
        assert report.area_K > 0
        assert report.slope < 0.8 * report.slope_benchmark

    def test_dense_lattice_grows(self):
        X = lattice(spacing=1.2, mult=2, extent=18.0)
        W = Region.disc(18.0, 0.3)
        report = uniqueness_certificate(X, W, [6.0, 8.0, 10.0, 12.0, 14.0])
        assert report.grows
        assert report.area_K == pytest.approx(0.0, abs=1e-9)
        assert report.slope >= 0.8 * report.slope_benchmark

    def test_fixed_rule_without_quad(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("adaptive quad on the I(R) path")

        monkeypatch.setattr(pt.integrate, "quad", no_quad)
        report = uniqueness_certificate(lattice(1.2, 2, 14.0),
                                        Region.disc(14.0, 0.3),
                                        [5.0, 7.0, 9.0, 11.0])
        assert report.grows
        # worst |I_64 - I_32| / I over the radii
        assert math.isfinite(report.quad_error)
        assert 0.0 <= report.quad_error <= pt.RULE_RTOL

    def test_integrate_hook(self):
        # bench/tracer.py wraps pt.integrate.quad; the name resolves on
        # demand and hides no other missing attribute
        assert pt.integrate is integrate
        assert callable(pt.integrate.quad)
        assert not hasattr(pt, "no_such_name")


class TestOneCoveringRule:
    @pytest.mark.parametrize("alpha,covered", [(1.0, False), (0.999, True)])
    def test_thinning_and_certificate_agree(self, alpha, covered):
        # at alpha = 1 the mesh points (odd, odd) lie exactly on the four
        # circles of radius sqrt(2) around them, so no open disc holds
        # them, out to the edge; the thinning kept every node while the
        # certificate refused the window.  At alpha = 0.999 the discs
        # grow past them and both accept
        X, W = lattice(2.0, 2, 20.0, alpha=alpha), Region.disc(20.0, 0.5)
        if not covered:
            with pytest.raises(PreconditionError):
                thin_subdivisor(X, W, [0.0])
            with pytest.raises(PreconditionError):
                uniqueness_certificate(X, W, [5.0, 8.0, 11.0, 14.0])
            return
        assert len(thin_subdivisor(X, W, [0.0])) == len(X) == 441
        report = uniqueness_certificate(X, W, [5.0, 8.0, 11.0, 14.0])
        assert report.grows and "grows" in report.verdict


class TestWeightV:
    def test_zero_outside_discs(self):
        X = Divisor(np.array([0j]), np.array([4]))
        assert weight_v(X, 3.0) == 0.0

    def test_neg_infinity_at_center(self):
        X = Divisor(np.array([1 + 1j]), np.array([4]))
        assert weight_v(X, 1 + 1j) == -math.inf

    def test_continuous_at_disc_boundary(self):
        X = Divisor(np.array([0j]), np.array([9]))
        assert weight_v(X, 3.0 - 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_array_matches_pointwise_loop(self):
        # overlapping discs of mixed multiplicity at alpha 1.5, on a mesh
        # through every center, with one point outside every disc.  np.abs
        # and np.log may differ from abs and math.log by an ulp or two, so
        # each term m (log u + 1 - u) by a few ulps of m (|log u| + 2)
        X = Divisor(np.array([0j, 1 + 1j, 2.5 + 0j]), np.array([4, 2, 9]),
                    alpha=1.5)
        zs = np.r_[Region((-3, 5, -3, 4), 0.25).grid(), 40.0 + 0j]
        v = weight_v(X, zs.reshape(1, -1))
        assert v.shape == (1, zs.size)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(
            v[0], [weight_v_loop(X, z) for z in zs], rtol=64 * eps,
            atol=64 * eps * X.mults.sum())
        assert v[0, np.isin(zs, X.centers)].tolist() == [-math.inf] * 3
        assert v[0, -1] == 0.0
        empty = Divisor(np.array([], dtype=complex), np.array([], dtype=int))
        assert weight_v(empty, zs).tolist() == [0.0] * zs.size

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.inf),
                                   np.array([0.5, math.nan])])
    def test_rejects_non_finite_points(self, z):
        X = Divisor(np.array([0j]), np.array([4]))
        with pytest.raises(DomainError, match="finite points"):
            weight_v(X, z)

    @given(x=st.floats(min_value=-4, max_value=4),
           y=st.floats(min_value=-4, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_nonpositive(self, x, y):
        X = Divisor(np.array([0j, 1 + 1j]), np.array([4, 2]))
        assert weight_v(X, complex(x, y)) <= 0.0


class TestPsiLaplacian:
    def test_empty_divisor_pure_quadratic(self):
        X = Divisor(np.array([], dtype=complex), np.array([], dtype=int))
        W = Region.disc(3.0, 0.05)
        rep = verify_psi_laplacian(X, W)
        assert rep.max_dev_outside <= rep.tol
        assert rep.n_inside == 0

    def test_single_node(self):
        X = Divisor(np.array([0j]), np.array([4]))
        W = Region.disc(5.0, 0.04)
        rep = verify_psi_laplacian(X, W)
        assert rep.ok
        assert rep.n_inside > 0 and rep.n_outside > 0

    def test_two_disjoint_nodes(self):
        X = Divisor(np.array([0j, 5.0 + 0j]), np.array([4, 4]))
        W = Region.disc(8.0, 0.04)
        rep = verify_psi_laplacian(X, W)
        assert rep.ok

    def test_reports_pinned(self):
        # disjoint discs of mixed multiplicity, in a disc window and in a
        # rectangle over a translated lattice, reported exactly as by the
        # k-d tree pair search the mesh scan replaced
        X = Divisor(np.array([0j, 5 + 0j, 2.5 + 4j]), np.array([4, 2, 3]))
        assert verify_psi_laplacian(X, Region.disc(8.0, 0.05)) \
            == LaplacianReport(
                h=0.05, tol=0.15000000000000002, n_inside=7654,
                n_outside=65800, max_dev_inside=0.03662137315245672,
                max_dev_outside=6.45732356474582e-11)
        L = lattice(3.0, 1, 6.0)
        X = Divisor(L.centers + (0.3 - 0.2j), 1 + np.arange(len(L)) % 2)
        W = Region((-5.1, 4.3, -3.7, 5.9), 0.06)
        assert verify_psi_laplacian(X, W) == LaplacianReport(
            h=0.06, tol=0.21599999999999997, n_inside=7011, n_outside=8794,
            max_dev_inside=0.05317259294399277,
            max_dev_outside=2.511191254939149e-11)

    def test_coarse_grid_rejected(self):
        X = Divisor(np.array([0j]), np.array([4]))
        with pytest.raises(ParameterError):
            verify_psi_laplacian(X, Region.disc(5.0, 0.5))

    def test_overlapping_discs_rejected(self):
        # the centre disc (radius 2) overlaps the inner ring's (radius
        # sqrt 2) by 1.414, and the Laplacian there is -4, not 0: reported
        # as max_dev_inside 8.01 against tol 0.15 when the overlap passed
        X = radial_rings([2, 4], [2, 3], include_center=True, center_mult=4)
        assert disjointness_check(X, [0.0])[0][0] is False
        with pytest.raises(PreconditionError, match="discs overlap"):
            verify_psi_laplacian(X, Region.disc(6.0, 0.05))

    def test_bounded_memory(self):
        # 620 disjoint unit discs on a 445 x 445 mesh: points x nodes
        # complex arrays alone would take 2 GB
        code = ("from fockdiv.divisor import Region, lattice\n"
                "from fockdiv.potential import verify_psi_laplacian\n"
                "verify_psi_laplacian(lattice(2.1, 1, 25.2, hole_radius=2.5),"
                " Region.disc(20.0, 0.09))\n")
        assert child_peak_rss_mb(code) < 400


class TestRadialWeight:
    @pytest.mark.parametrize("q,a", [(1, 1), (2, 4), (7, 2), (10, 10)])
    def test_glue_conditions(self, q, a):
        w = build_radial_weight(float(q), float(a))
        value_error, slope_error = radial_glue_errors(w)
        assert value_error <= 1e-12
        assert slope_error <= 1e-4
        assert math.isfinite(w.origin_limit)

    @pytest.mark.parametrize("q,a", [(1, 1), (2, 4), (7, 2), (10, 10)])
    def test_laplacian_lower_bound_and_mass(self, q, a):
        w = build_radial_weight(float(q), float(a))
        assert np.all(w.laplacian_lhs >= w.laplacian_rhs - 1e-9)
        assert 0.0 < w.mass <= w.mass_bound + 1e-9

    def test_outside_is_quadratic(self):
        w = build_radial_weight(2.0, 3.0)
        edge = 5.0
        out = w.grid > edge
        assert np.allclose(w.y[out], w.grid[out] ** 2)

    def test_c1_across_edge_numeric(self):
        # one-sided difference quotients agree at the glue radius
        w = build_radial_weight(3.0, 2.0)
        edge = 5.0
        i = int(np.argmin(np.abs(w.grid - edge)))
        left = (w.y[i] - w.y[i - 1]) / (w.grid[i] - w.grid[i - 1])
        right = (w.y[i + 1] - w.y[i]) / (w.grid[i + 1] - w.grid[i])
        assert left == pytest.approx(2 * edge, rel=0.01)
        assert right == pytest.approx(2 * edge, rel=0.01)

    def test_origin_singularity_coefficient(self):
        # y - 2 q^2 log r tends to a finite limit: successive grid values
        # of the difference settle down near the origin
        w = build_radial_weight(2.0, 2.0)
        inner = w.grid[:16]
        sing = w.y[:16] - 2 * 4.0 * np.log(inner)
        assert np.max(np.abs(np.diff(sing))) <= 0.01

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0, 7.0, 10.0])
    def test_closed_form_matches_quadrature(self, q):
        # g against adaptive quadrature of g'(r) = 4 M(r)/r - const r from
        # the glue radius, M(r) = int_0^r s a/(c - s)^2 ds with c = q + 2a
        for a in [1.0, 2.0, 4.0, 7.0, 10.0]:
            w = build_radial_weight(q, a)
            edge, c = q + a, q + 2 * a
            const = 2 * w.mass / (math.pi * edge * edge)

            def gprime(r):
                m = a * (c / (c - r) + math.log1p(-r / c) - 1.0)
                return 4 * m / r - const * r

            for i in np.linspace(0, pt.RADIAL_GRID_N - 1, 9).astype(int):
                r = float(w.grid[i])
                ref, _ = integrate.quad(gprime, edge, r, epsabs=1e-14,
                                        epsrel=1e-13)
                assert abs(w.g[i] - ref) <= 1e-13 * edge * edge

    def test_csv_header(self):
        w = build_radial_weight(1.0, 1.0)
        assert w.csv().splitlines()[0] == \
            "r,gamma,g,h,y,laplacian_lhs,laplacian_rhs"

    def test_rejects_small_parameters(self):
        with pytest.raises(DomainError):
            build_radial_weight(0.5, 1.0)


class TestCutoffField:
    def _system(self):
        X = Divisor(np.array([0j, 8.0 + 0j]), np.array([4, 4]))
        payloads = [CoefVec(np.array([1.0 + 0j])),
                    CoefVec(np.array([0.0, 2.0 + 0j]))]
        return X, payloads

    def test_outside_everything_zero(self):
        X, payloads = self._system()
        F, bound = cutoff_interpolant_field(X, payloads, 4.0 + 20j, 0.5)
        assert F == 0 and bound == 0.0

    def test_deep_inside_matches_payload(self):
        X, payloads = self._system()
        F, bound = cutoff_interpolant_field(X, payloads, 0.0, 0.5)
        assert F == pytest.approx(1.0)
        assert bound == 0.0

    def test_transition_band_bound(self):
        X, payloads = self._system()
        z = 2.25 + 0j  # inside the band (2.0, 2.5) around the first disc
        F, bound = cutoff_interpolant_field(X, payloads, z, 0.5)
        assert bound > 0.0

    def test_overlapping_expansion_rejected(self):
        X = Divisor(np.array([0j, 3.0 + 0j]), np.array([4, 4]))
        payloads = [CoefVec(np.array([1.0 + 0j]))] * 2
        with pytest.raises(PreconditionError):
            cutoff_interpolant_field(X, payloads, 0.0, 0.5)

    def test_rejects_non_finite_point(self):
        # the nodes holding z come from one distance test, which no nan
        # passes: F would read 0
        X, payloads = self._system()
        with pytest.raises(DomainError):
            cutoff_interpolant_field(X, payloads, complex(math.nan, 0), 0.5)

    def test_rejects_bad_margin_and_alpha(self):
        X, payloads = self._system()
        with pytest.raises(ParameterError):
            cutoff_interpolant_field(X, payloads, 0.0, 0.0)
        Y = Divisor(X.centers, X.mults, alpha=2.0)
        with pytest.raises(ParameterError):
            cutoff_interpolant_field(Y, payloads, 0.0, 0.5)
