"""Restriction matrices, truncated frame bounds, interpolation constants."""

import configparser
import math
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

import fockdiv.divisor as dv
import fockdiv.frame as fr
from conftest import (child_peak_rise_mb, child_peak_rss_mb, frame_oracle,
                      random_divisor)
from fockdiv.cli import EXIT_OK, main
from fockdiv.divisor import Divisor, lattice, overlap_constant, radial_rings
from fockdiv.errors import (DomainError, NotInterpolatingError,
                            ParameterError, ResourceError, VerificationError)
from fockdiv.fock import CoefVec, coherent_coefficients, restriction_values
from fockdiv.frame import (RANK_RTOL, ROW_BLOCK, WINDOW_FLOOR, FrameReport,
                           _row_blocks, frame_bounds, frame_sweep,
                           interpolation_constant, interpolation_witness,
                           restriction_matrix, sampling_defect_path,
                           symmetric_pair_report)

ROOT = Path(__file__).resolve().parents[1]


class TestRestrictionMatrix:
    def test_rows_match_restriction_values(self, rng):
        X = random_divisor(rng, max_nodes=3, max_mult=4)
        n = 40
        rmat = restriction_matrix(X, n)
        f = CoefVec(rng.normal(size=n) + 1j * rng.normal(size=n))
        data = rmat @ f.coeffs
        pos = 0
        for c, m in zip(X.centers, X.mults):
            vals = restriction_values(f, complex(c), int(m))
            assert np.max(np.abs(data[pos:pos + m] - vals)) <= 1e-10
            pos += m

    def test_alpha_equivalence(self):
        # weight alpha with center z == weight 1 with center sqrt(alpha) z
        z = 1.2 + 0.4j
        a = restriction_matrix(Divisor(np.array([z]), np.array([3]),
                                       alpha=2.0), 30)
        b = restriction_matrix(Divisor(np.array([math.sqrt(2.0) * z]),
                                       np.array([3])), 30)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_row_orders(self):
        X = Divisor(np.array([0j, 2 + 0j]), np.array([2, 1]))
        orders = np.full(3, -1)
        for index, order, _ in _row_blocks(X, 10):
            orders[index] = order
        assert orders.tolist() == [0, 1, 0]

    def test_stacks_conjugated_row_blocks(self):
        # the blocks carry conj(R) for the Gram; R itself is their stack,
        # conjugated once
        X = Divisor(np.array([0j, 1.1 - 0.7j, -1.3 + 0.4j, 2j]),
                    np.array([1, 4, 2, 1]), alpha=1.5)
        n = 12
        stacked = np.zeros((X.total_multiplicity, n), dtype=complex)
        for index, _, block in _row_blocks(X, n):
            stacked[index] = block.conj()
        assert np.array_equal(restriction_matrix(X, n), stacked)

    def test_overfull_pads(self):
        X = Divisor(np.array([0j]), np.array([5]))
        rmat = restriction_matrix(X, 3)
        assert rmat.shape[0] == 5
        assert np.all(rmat[3:] == 0)

    def test_resource_cap(self):
        X = Divisor(np.array([0j]), np.array([100_000]))
        with pytest.raises(ResourceError):
            restriction_matrix(X, 10_000)

    @pytest.mark.parametrize("build", [
        lambda X: frame_sweep(X, [4, 10]), lambda X: restriction_matrix(X, 4)],
        ids=["sweep", "restriction"])
    def test_normalized_center_limit(self, build, monkeypatch):
        # sqrt(alpha) |center| at 0.9e150 is built without a warning; at
        # 1.1e150, and at alpha = 1e308 on a small lattice, it is refused
        # before any row is built (its squared modulus used to overflow)
        centers, mults = np.array([0j, 0.9e150 + 0j]), np.array([1, 3])
        build(Divisor(centers, mults, 1.0))

        def unreachable(*args):
            raise AssertionError("rows built past the center limit")
        monkeypatch.setattr(fr, "displacement_matrix", unreachable)
        for X in (Divisor(centers, mults, 1.5),
                  lattice(2.0, 1, 4.0, alpha=1e308)):
            with pytest.raises(DomainError, match="normalized centers"):
                build(X)


class TestFrameBounds:
    def test_empty_divisor(self):
        X = Divisor(np.array([], dtype=complex), np.array([], dtype=int))
        rep = frame_bounds(X, 10)
        assert rep.lower == rep.upper == 0.0

    def test_single_saturating_node(self):
        # one node of multiplicity >= N restricts to the identity: A = B = 1
        X = Divisor(np.array([0j]), np.array([12]))
        rep = frame_bounds(X, 12)
        assert rep.lower == pytest.approx(1.0, abs=1e-12)
        assert rep.upper == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_svd_oracle(self, rng):
        X = random_divisor(rng, max_nodes=4, max_mult=5)
        n = 60
        rmat = restriction_matrix(X, n)
        svals = np.linalg.svd(rmat, compute_uv=False)
        rep = frame_bounds(X, n)
        assert rep.upper == pytest.approx(float(svals[0] ** 2), rel=1e-9)
        lo = float(svals[-1] ** 2) if rmat.shape[0] >= n else 0.0
        assert rep.lower == pytest.approx(lo, abs=1e-9)

    def test_upper_bounded_by_overlap_heuristic(self):
        # B is controlled by the covering count of slightly expanded discs
        X = lattice(spacing=1.5, mult=2, extent=8.0)
        rep = frame_bounds(X, 80)
        s_est = overlap_constant(X)
        assert rep.upper <= 3.0 * s_est

    def test_wide_r_at_large_truncation(self):
        # 6 rows, 2001 columns: the Gram matrix is singular, which broke
        # shift-invert iteration on it
        X = Divisor(np.array([0j, 3 + 0j]), np.array([3, 3]))
        n = 2001
        smax = np.linalg.svd(restriction_matrix(X, n), compute_uv=False)[0]
        rep = frame_bounds(X, n)
        assert rep.lower == 0.0
        assert rep.upper == pytest.approx(float(smax ** 2), rel=1e-12,
                                         abs=0.0)

    @pytest.mark.parametrize("param", [1.0, 1.1, 1.2, 1.3])
    def test_lower_matches_mp_inverse(self, param):
        # the square two-node R at m = 16, N = 32: A = 1 / ||R^-1||_2^2
        # with R^-1 from 80-digit LU; eigvalsh(R* R) squares the condition
        # number and loses A here
        mult = 16
        r = math.sqrt(mult)
        X = Divisor(np.array([-param * r + 0j, param * r + 0j]),
                    np.array([mult, mult]))
        rmat = restriction_matrix(X, 2 * mult)
        with mp.workdps(80):
            inv = mp.inverse(mp.matrix(rmat.tolist()))
            inv = np.array(inv.tolist(), dtype=complex)
        oracle = 1.0 / np.linalg.norm(inv, 2) ** 2
        # abs=0: pytest.approx would otherwise accept any A below 1e-12
        assert frame_bounds(X, 2 * mult).lower == pytest.approx(
            oracle, rel=1e-6, abs=0.0)

    def test_mx_by_shape_of_r(self, rng):
        X = random_divisor(rng, max_nodes=4, max_mult=5)
        total = X.total_multiplicity
        for n in [total - 1, total, total + 20]:
            rep = frame_bounds(X, n)
            if n < total:
                assert math.isinf(rep.mx)
            else:
                assert rep.mx == interpolation_constant(X, n)
                assert (rep.lower > 0) == (n == total)

    def test_report_validation(self):
        with pytest.raises(VerificationError):
            FrameReport(truncation=5, lower=2.0, upper=1.0, tail_bound=0.0)

    def test_csv_row_shape(self):
        rep = FrameReport(truncation=5, lower=0.5, upper=2.0, tail_bound=1e-8)
        assert rep.csv_row().split(",")[0] == "5"
        assert len(rep.csv_row().split(",")) == 4


@st.composite
def sweep_cases(draw):
    """A divisor on a 0.6-spaced grid, optionally with a node at 0, mixed
    multiplicities and weight, and unsorted, possibly repeated truncations
    on both sides of the total multiplicity."""
    points = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                           min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        points = [(0, 0)] + [p for p in points if p != (0, 0)]
    centers = np.array([0.6 * complex(a, b) for a, b in points])
    mults = draw(st.lists(st.integers(1, 6), min_size=len(points),
                          max_size=len(points)))
    alpha = draw(st.sampled_from([1.0, 0.5, 1.7]))
    truncations = draw(st.lists(st.integers(1, sum(mults) + 6),
                                min_size=1, max_size=5))
    return Divisor(centers, np.array(mults), alpha), truncations


def assert_sweep_matches_oracle(X, truncations):
    reports = frame_sweep(X, truncations)
    assert [rep.truncation for rep in reports] == list(truncations)
    eps = np.finfo(float).eps
    for rep in reports:
        want = frame_oracle(X, rep.truncation)
        if (rep.lower == 0.0) != (want["lower"] == 0.0):
            # the two Gram sums fell on either side of the floor N eps B
            # below which A reads 0: the measured one sits at that floor
            measured = max(rep.lower, want["lower"])
            assert abs(measured - rep.truncation * eps * want["upper"]) \
                <= 2 * eps * want["upper"]
        else:
            # Gram eigenvalues resolve A only to about eps * B, and the
            # shared Gram sums in another order than the oracle's, so A
            # gets that floor (measured up to 0.93 eps * B); pytest's
            # default abs of 1e-12 would accept any A below 1e-12
            assert rep.lower == pytest.approx(want["lower"], rel=1e-10,
                                              abs=16 * eps * want["upper"])
        assert rep.upper == pytest.approx(want["upper"], rel=1e-10, abs=0.0)
        assert rep.mx == pytest.approx(want["mx"], rel=1e-10, abs=0.0)
        assert abs(rep.tail_bound - want["tail_bound"]) <= 1e-15


class TestFrameSweep:
    @given(case=sweep_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_truncation_oracle(self, case):
        assert_sweep_matches_oracle(*case)

    def test_every_shape_in_one_sweep(self):
        # 7 rows: wide, square, tall, tall with the order-2 and order-3 jets
        # of the heavy node cut (N = 2), and N = 1, unsorted and repeated
        X = Divisor(np.array([0j, 1.1 - 0.7j, -1.3 + 0.4j]),
                    np.array([1, 4, 2]), alpha=1.5)
        truncations = [11, 2, 7, 2, 6, 1, 7]
        assert_sweep_matches_oracle(X, truncations)
        shapes = [(math.isfinite(rep.mx), rep.lower > 0)
                  for rep in frame_sweep(X, truncations)]
        assert shapes[:3] == [(True, False), (False, True), (True, True)]

    def test_gram_floor_reads_zero(self):
        # cut jets at N = 60: eigvalsh left A = 2.74e-19 beside B = 3.71,
        # far below its resolution N eps B = 4.9e-14, and the digits moved
        # with the order of the Gram sum
        X = radial_rings([1.5, 3.0, 4.5], [2, 3, 4], include_center=True,
                         center_mult=5)
        truncations = [3, 5, 10, 20, 30, 40, 50, 60, 70, 80, 100, 120, 150,
                       200]
        assert X.total_multiplicity > 60
        rep = frame_sweep(X, truncations)[truncations.index(60)]
        assert rep.lower == 0.0
        assert rep.upper == pytest.approx(3.71101238634, rel=1e-10, abs=0.0)
        assert frame_oracle(X, 60)["lower"] == 0.0

    def test_held_rows_every_cut_tall(self):
        # every N is below the total multiplicity 14, and the centre's jets
        # of order 3 to 7 are not live at the smallest N: they are held
        # until N = 5 and N = 8 (order 8 is never live)
        X = Divisor(np.array([0j, 1.2 + 0.5j, -0.9 + 1.1j]),
                    np.array([9, 2, 3]), alpha=1.3)
        truncations = [8, 3, 5, 3]
        assert X.total_multiplicity > max(truncations)
        assert X.mults.max() > min(truncations)
        assert_sweep_matches_oracle(X, truncations)

    def test_gram_reads_filled_triangle(self):
        # the Gram holds one triangle; its diagonal alone would give
        # A = 0.64 and B = 2.29 where R* R has 0.167 and 2.68
        X = Divisor(np.array([0j, 1.0 + 0.5j, -0.5 + 1.0j]),
                    np.array([2, 2, 2]))
        [rep] = frame_sweep(X, [4])
        want = frame_oracle(X, 4)
        assert rep.lower == pytest.approx(want["lower"], rel=1e-10, abs=0.0)
        assert rep.upper == pytest.approx(want["upper"], rel=1e-10, abs=0.0)
        assert rep.lower < 0.2 and rep.upper > 2.6

    def test_tall_sweep_past_the_restriction_cap(self, monkeypatch):
        # 169 nodes x N = 40 entries exceed the cap and N^2 does not: the
        # sweep never stores a tall R, so it runs where R is refused
        X, truncations = lattice(1.0, 1, 6), [20, 40]
        want = frame_sweep(X, truncations)
        monkeypatch.setattr("fockdiv.frame.MAX_ENTRIES", 5_000)
        with pytest.raises(ResourceError):
            restriction_matrix(X, 40)
        assert frame_sweep(X, truncations) == want
        monkeypatch.undo()
        assert_sweep_matches_oracle(X, truncations)

    @pytest.mark.parametrize("mults, truncations, cap", [
        ([1] * 150, [60, 120], 10_000),  # N^2 = 14,400
        ([200, 1], [10, 100], 15_000),   # N^2 = 10,000 + 90 held x 100
        # the 25 x 25 stored R and the 24 x 24 Gram side by side, 1,201
        # entries, where N^2 alone passed the cap
        ([1] * 25, [24, 25], 700),
    ])
    def test_cap_raises_before_allocating(self, monkeypatch, mults,
                                          truncations, cap):
        X = Divisor(np.arange(len(mults)) * (1.0 + 0.5j), np.array(mults))
        monkeypatch.setattr("fockdiv.frame.MAX_ENTRIES", cap)

        def unreachable(*args):
            raise AssertionError("rows built past the entry cap")
        monkeypatch.setattr("fockdiv.frame.displacement_matrix", unreachable)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                frame_sweep(X, truncations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000  # the smallest buffer of any case: 9 KB

    def test_cap_counts_the_stored_r_alone(self, tmp_path):
        # a wide sweep stores R (25 rows x 9,000 columns) and holds no Gram:
        # 225,000 entries, where N^2 = 81 million exceeded the cap
        config = configparser.ConfigParser()
        config.read(ROOT / "configs" / "frame.ini")
        config["frame"]["truncations"] = "9000"
        path = tmp_path / "wide.ini"
        with open(path, "w", encoding="utf-8") as fh:
            config.write(fh)
        assert main(["frame", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == EXIT_OK

    def test_holed_lattice_pinned(self):
        # 600 nodes, tall R at every N; (A, B, tail_bound) as the sweep
        # gave them with one complex exponential per phase entry
        X = lattice(1.0, 1, 12, hole_radius=3.0)
        pinned = {
            60: (0.0004822871102853966, 3.1943528123743206, 1.0),
            120: (0.000482287023749371, 3.2092257199493965, 1.0),
            180: (0.0004822870237479535, 3.2115151007629508,
                  0.9999999999966696),
            240: (4.0772991080092704e-07, 3.2117284903781216,
                  0.9983279304601232)}
        for rep in frame_sweep(X, list(pinned)):
            lower, upper, tail = pinned[rep.truncation]
            assert rep.upper == pytest.approx(upper, rel=1e-12, abs=0.0)
            assert rep.tail_bound == pytest.approx(tail, rel=1e-12, abs=0.0)
            assert abs(rep.lower - lower) <= 1e-12 * upper
            assert math.isinf(rep.mx)

    @staticmethod
    def record_updates(monkeypatch):
        """Every Gram update of the next sweeps, as (gram width, part, lo,
        hi), each passed on to the real one."""
        seen, herk = [], fr._herk

        def record(gram, part, lo, hi):
            seen.append((len(gram), np.array(part), lo, hi))
            herk(gram, part, lo, hi)
        monkeypatch.setattr(fr, "_herk", record)
        return seen

    def test_window_gram_against_dense_oracle(self, monkeypatch):
        # the windowed Gram at N = 240 on the holed lattice against R* R
        # from the stored R: they differ by the dropped entries (at most
        # 3 eps^2 B sqrt(c M N) in norm, see frame_sweep) and by the
        # rounding of two Gram sums, each within gamma_{M+2} |R|^T |R|
        # entrywise (complex inner products, u = eps/2)
        X, n = lattice(1.0, 1, 12, hole_radius=3.0), 240
        grams, eigvalsh = [], linalg.eigvalsh

        def capture(a, **kwargs):
            grams.append(np.array(a))
            return eigvalsh(a, **kwargs)
        monkeypatch.setattr(fr.linalg, "eigvalsh", capture)
        seen = self.record_updates(monkeypatch)
        [rep] = frame_sweep(X, [n])
        monkeypatch.undo()
        lower = np.tril(grams[0])
        gram = lower + np.tril(lower, -1).conj().T
        r = restriction_matrix(X, n)
        eps, rows = np.finfo(float).eps, len(r)
        assert sum(len(part) for _, part, _, _ in seen) == rows
        window = 3 * eps ** 2 * rep.upper * math.sqrt(len(seen) * rows * n)
        u = (rows + 2) * eps / 2
        rounding = 2 * u / (1 - u) * np.linalg.norm(
            np.abs(r).T @ np.abs(r), 2)
        gap = np.linalg.norm(gram - r.conj().T @ r, 2)
        assert gap <= window + rounding
        assert window < 1e-25 * rep.upper
        # measured 6.6e-15: inside the floor N eps B below which A reads 0
        assert gap < n * eps * rep.upper

    def test_window_drops_within_stated_bound(self, monkeypatch):
        # each part enters on the fewest columns holding every entry with
        # |P_ij| >= eps^2 max|P|; the rest E meets ||E||_F <= eps^2
        # sqrt(r N) max|P|, and the Weyl sum of the eigenvalue shifts,
        # 3 sum ||P||_2 ||E||_F, meets 3 eps^2 B sqrt(c M N)
        X, n = lattice(1.0, 1, 12, hole_radius=3.0), 240
        seen = self.record_updates(monkeypatch)
        [rep] = frame_sweep(X, [n])
        eps, shift = np.finfo(float).eps, 0.0
        for width, part, lo, hi in seen:
            part = part[:, :width]
            mass = np.abs(part) ** 2
            floor = WINDOW_FLOOR * mass.max()
            assert mass[:, lo].max() >= floor
            assert mass[:, hi - 1].max() >= floor
            dropped = part.copy()
            dropped[:, lo:hi] = 0
            assert (np.abs(dropped) ** 2 < floor).all()
            frob = np.linalg.norm(dropped)
            assert frob <= eps ** 2 * math.sqrt(part.size) * \
                np.abs(part).max()
            shift += 3 * np.linalg.norm(part, 2) * frob
        assert any(hi - lo < width for width, _, lo, hi in seen)
        rows = sum(len(part) for _, part, _, _ in seen)
        assert shift <= 3 * eps ** 2 * rep.upper * math.sqrt(
            len(seen) * rows * n)

    def test_far_cluster_keeps_its_small_b(self):
        # 702 nodes within 1.1 of c = 36 at N = 600: every entry of R is
        # below 1e-40, so a floor set by anything but each part's own
        # largest entry would drop them all and read B = 0
        grid = 0.08 * np.arange(-13, 14)
        X = Divisor((36.0 + grid[:, None] + 1j * grid[None, :26]).ravel(),
                    np.ones(27 * 26, dtype=int))
        assert np.abs(restriction_matrix(X, 600)).max() < 1e-40
        [rep] = frame_sweep(X, [600])
        want = frame_oracle(X, 600)
        assert 0.0 < rep.upper < 1e-80
        assert rep.upper == pytest.approx(want["upper"], rel=1e-10, abs=0.0)
        assert rep.lower == want["lower"] == 0.0

    @pytest.mark.parametrize("X, truncations", [
        # tall at every N, tied radii, mixed multiplicities
        (Divisor(lattice(1.0, 1, 4.0).centers,
                 1 + np.arange(81) % 3 // 2), [10, 20, 40]),
        # tall, square (N = 10) and wide
        (Divisor(np.array([0j, 2.5, 2.5j, -2.5, -2.5j, 1.8 + 1.8j]),
                 np.array([3, 1, 2, 1, 2, 1])), [5, 10, 16])])
    def test_node_order(self, X, truncations):
        # the rows run by radius inside the sweep, and R keeps input order:
        # a shuffled divisor gives the same reports
        perm = np.random.default_rng(7).permutation(len(X))
        shuffled = Divisor(X.centers[perm], X.mults[perm], X.alpha)
        for rep, other in zip(frame_sweep(X, truncations),
                              frame_sweep(shuffled, truncations)):
            for a, b in zip(astuple(rep), astuple(other)):
                assert b == pytest.approx(a, rel=1e-12, abs=0.0)

    def test_window_keeps_dropping(self, monkeypatch):
        # the sampling lattice at N = 150 to 600: the windows hold 0.48 of
        # the full-width work, rows x columns^2, one update per row block
        # and none for the held rows (there are none)
        X = lattice(1.0, 1, 27, hole_radius=3.0)
        seen = self.record_updates(monkeypatch)
        frame_sweep(X, [150, 300, 450, 600])
        work = sum(len(part) * (hi - lo) ** 2 for _, part, lo, hi in seen)
        assert len(seen) == math.ceil(len(X) / ROW_BLOCK)
        assert work < 0.5 * len(X) * 600 ** 2

    def test_empty_truncation_list(self):
        X = Divisor(np.array([0j]), np.array([2]))
        assert frame_sweep(X, []) == []

    def test_rejects_nonpositive_truncation(self):
        X = Divisor(np.array([0j]), np.array([2]))
        with pytest.raises(ParameterError):
            frame_sweep(X, [5, 0])

    @pytest.mark.parametrize("truncations", [[0, -3], [4, 0]])
    def test_empty_divisor_rejects_nonpositive_truncation(self, truncations):
        # the empty divisor's shortcut must not skip the check
        X = Divisor(np.array([], dtype=complex), np.array([], dtype=int))
        with pytest.raises(ParameterError):
            frame_sweep(X, truncations)

    def test_sampling_sweep_bounded_memory(self):
        # R(600) for the 3,000-node lattice would be 29 MB complex; the
        # sweep streams its rows into one 6 MB Gram and never stores it
        # (child peak 113 MB when it did, 88 MB streamed)
        code = ("from fockdiv.divisor import lattice\n"
                "from fockdiv.frame import frame_sweep\n"
                "frame_sweep(lattice(1.0, 1, 27, hole_radius=3.0),"
                " [150, 300, 450, 600])")
        assert child_peak_rss_mb(code) < 105.0

    def test_sweep_memory_flat_in_node_count(self):
        # 10,140 nodes at N = 300: R would be 49 MB (child peak 121 MB
        # when it was stored, 77 MB streamed)
        code = ("from fockdiv.divisor import lattice\n"
                "from fockdiv.frame import frame_sweep\n"
                "frame_sweep(lattice(0.7, 1, 35, hole_radius=3.0), [300])")
        assert child_peak_rss_mb(code) < 95.0


def symmetric_pair(a: float, mult: int) -> Divisor:
    return Divisor(np.array([-a + 0j, a + 0j]), np.array([mult, mult]))


def read_dichotomy_config():
    cfg = configparser.ConfigParser()
    cfg.read(ROOT / "configs" / "dichotomy.ini")
    sec = cfg["dichotomy"]
    return ([int(m) for m in sec["multiplicities"].split(",")],
            [float(p) for p in sec["params"].split(",")])


class TestSymmetricPair:
    """The parity split against the generic path on the same divisor: both
    are backward stable, so A and M_X may differ by N eps kappa relative,
    kappa = sigma_max / sigma_min of R."""

    @given(mult=st.integers(1, 40), param=st.floats(0.05, 2.0),
           extra=st.sampled_from([0, 1, 7]))
    @settings(max_examples=60, deadline=None)
    def test_matches_frame_bounds(self, mult, param, extra):
        a, n = param * math.sqrt(mult), 2 * mult + extra
        X = symmetric_pair(a, mult)
        rep, want = symmetric_pair_report(a, mult, n), frame_bounds(X, n)
        svals = linalg.svd(restriction_matrix(X, n), compute_uv=False,
                           lapack_driver="gesvd")
        ratio = svals[-1] / svals[0]
        assert rep.truncation == n
        assert rep.upper == pytest.approx(want.upper, rel=1e-13, abs=0.0)
        assert abs(rep.tail_bound - want.tail_bound) <= 1e-15
        assert (rep.lower > 0) == (n == 2 * mult and math.isfinite(rep.mx))
        if not RANK_RTOL / 2 < ratio < 2 * RANK_RTOL:
            assert math.isinf(rep.mx) == math.isinf(want.mx)
        if math.isfinite(rep.mx) and math.isfinite(want.mx):
            tol = 2 * n * np.finfo(float).eps / ratio
            assert rep.lower == pytest.approx(want.lower, rel=tol, abs=0.0)
            assert rep.mx == pytest.approx(want.mx, rel=tol, abs=0.0)

    def test_flags_shipped_dichotomy_points(self):
        mults, params = read_dichotomy_config()
        for mult in mults:
            for param in params:
                a = param * math.sqrt(mult)
                assert math.isinf(
                    symmetric_pair_report(a, mult, 2 * mult).mx) == \
                    math.isinf(frame_bounds(symmetric_pair(a, mult),
                                            2 * mult).mx), (mult, param)

    @pytest.mark.parametrize("mult,param", [
        (16, 1.0), (16, 1.1), (16, 1.2), (16, 1.3),
        (36, 0.7), (36, 0.8), (36, 0.9)])
    def test_within_backward_error_of_mp_inverse(self, mult, param):
        # A = 1 / ||R^-1||_2^2 and M_X = the largest column norm of R^-1,
        # with R^-1 from 80-digit LU of the double R.  R is real up to the
        # rounding of the -a rows' phases e^{-i pi k}, so its real part is
        # inverted (about a third of the complex time)
        a, n = param * math.sqrt(mult), 2 * mult
        rows = restriction_matrix(symmetric_pair(a, mult), n)
        with mp.workdps(80):
            inv = mp.inverse(mp.matrix(rows.real.tolist()))
            inv = np.array(inv.tolist(), dtype=float)
        lower = 1.0 / np.linalg.norm(inv, 2) ** 2
        mx = math.sqrt((inv ** 2).sum(axis=0).max())
        kappa = np.linalg.norm(rows, 2) * np.linalg.norm(inv, 2)
        rep = symmetric_pair_report(a, mult, n)
        tol = 2 * n * np.finfo(float).eps * kappa
        assert rep.lower == pytest.approx(lower, rel=tol, abs=0.0)
        assert rep.mx == pytest.approx(mx, rel=tol, abs=0.0)

    @pytest.mark.parametrize("a,mult,n", [
        (0.0, 4, 8), (-1.0, 4, 8), (math.nan, 4, 8), (math.inf, 4, 8),
        (1.0, 4, 7), (1.0, 0, 4), (1.5e150, 4, 8)])
    def test_rejects_bad_arguments(self, a, mult, n):
        with pytest.raises(ParameterError):
            symmetric_pair_report(a, mult, n)

    def test_cap_counts_the_bytes_of_the_build(self, monkeypatch):
        # PAIR_BYTES per entry of the N x m table against the 16 bytes of
        # MAX_ENTRIES complex entries: at N = 2m, m = 4,961 is the last
        # multiplicity admitted and 4,962 the first refused, before any
        # row is built
        built = []

        def unbuilt(a, n, ncols):
            built.append(ncols)
            raise RuntimeError("past the cap")
        monkeypatch.setattr(fr, "displacement_matrix", unbuilt)
        with pytest.raises(ResourceError, match="symmetric pair bytes"):
            symmetric_pair_report(1.0, 4962, 2 * 4962)
        assert built == []
        with pytest.raises(RuntimeError, match="past the cap"):
            symmetric_pair_report(1.0, 4961, 2 * 4961)
        assert built == [4961]
        assert fr.PAIR_BYTES * 2 * 4961 ** 2 <= 16 * fr.MAX_ENTRIES \
            < fr.PAIR_BYTES * 2 * 4962 ** 2

    def test_build_holds_what_the_cap_counts(self):
        # the real table and the SVDs of its parity blocks, at most
        # PAIR_BYTES per entry and a few MB of BLAS and LAPACK workspace;
        # the complex build and its real copy peaked at 45 per entry
        setup = ("import math\n"
                 "from fockdiv.frame import symmetric_pair_report\n"
                 "symmetric_pair_report(0.9 * math.sqrt(8), 8, 16)")
        rise = child_peak_rise_mb(
            setup, "symmetric_pair_report(0.9 * math.sqrt(400), 400, 800)")
        assert rise <= fr.PAIR_BYTES * 400 * 800 / 2 ** 20 + 4.0


class TestInterpolationConstant:
    def test_single_node_is_one(self):
        X = Divisor(np.array([1 + 2j]), np.array([4]))
        assert interpolation_constant(X, 60) == pytest.approx(1.0, abs=1e-9)

    def test_two_kernel_closed_form(self):
        d = 2.0
        X = Divisor(np.array([0j, d + 0j]), np.array([1, 1]))
        expect = (1 - math.exp(-d * d)) ** -0.5
        assert interpolation_constant(X, 40) == pytest.approx(expect,
                                                              abs=1e-10)

    def test_nonincreasing_in_truncation(self):
        X = Divisor(np.array([0j, 1.5 + 0.5j, -1 + 1j]),
                    np.array([2, 1, 2]))
        vals = [interpolation_constant(X, n) for n in [8, 12, 20, 40, 80]]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_grows_with_proximity(self):
        vals = []
        for d in [2.0, 1.0, 0.5, 0.25]:
            X = Divisor(np.array([0j, d + 0j]), np.array([1, 1]))
            vals.append(interpolation_constant(X, 40))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_overfull_raises(self):
        X = Divisor(np.array([0j]), np.array([10]))
        with pytest.raises(NotInterpolatingError):
            interpolation_constant(X, 5)

    def test_overfull_raises_before_building_r(self):
        # R would exceed the entry cap; the overfull check comes first
        X = Divisor(np.array([0j]), np.array([100_000]))
        with pytest.raises(NotInterpolatingError):
            interpolation_constant(X, 10_000)

    def test_rank_deficiency_raises(self):
        # two far nodes with heavy jets at a tiny truncation: the basis
        # cannot separate them and sigma_min collapses
        X = Divisor(np.array([-8.0 + 0j, 8.0 + 0j]), np.array([6, 6]))
        with pytest.raises(NotInterpolatingError):
            interpolation_constant(X, 12)


class TestWitnessAndPath:
    def test_sampling_defect_path(self):
        X = Divisor(np.array([0j]), np.array([4]))
        path = [0.0, 3.0, 6.0]
        out = sampling_defect_path(X, path)
        dists = [d for d, _ in out]
        energies = [e for _, e in out]
        assert dists[0] == 0.0 and dists[1] == pytest.approx(1.0)
        assert energies[0] > energies[1] > energies[2]

    def test_defect_path_distance_is_the_margin_field(self, rng):
        # bit for bit the per-point min(|z - c| - r), clipped at 0, on
        # points in discs, between them and far outside
        X = random_divisor(rng, max_nodes=12, max_mult=9, scale=1.5)
        path = np.r_[np.linspace(-6, 6, 41) + 0.3j, X.centers, 40j]
        dists = [d for d, _ in sampling_defect_path(X, path)]
        want = [max(float(np.min(np.abs(z - X.centers) - X.radii)), 0.0)
                for z in path]
        assert dists == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf),
                                     1e200])
    def test_defect_path_refuses_far_points_before_any_scan(
            self, monkeypatch, bad):
        # a nan point used to reach kernel_sampling_energy after a nan
        # distance
        def unreachable(*args):
            raise AssertionError("scanned a non-finite path")
        monkeypatch.setattr(dv, "_margin_scan", unreachable)
        monkeypatch.setattr(fr, "kernel_sampling_energy", unreachable)
        X = Divisor(np.array([0j]), np.array([4]))
        with pytest.raises(DomainError, match="path points"):
            sampling_defect_path(X, [0.0, bad])

    def test_witness_grows_with_overlap(self):
        vals = []
        for d in [4.0, 3.0, 2.5]:
            X = Divisor(np.array([0j, d + 0j]), np.array([2, 2]))
            vals.append(interpolation_witness(X, d / 2, 60))
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # pinned: the right-hand side comes from R's own rows
        assert vals == pytest.approx(
            [0.3026231058011432, 0.5881342934559707, 0.7620361732825427],
            rel=1e-12, abs=0.0)

    def test_witness_ignores_later_nodes(self):
        X = Divisor(np.array([0j, 2 + 1j, 5j]), np.array([7, 3, 1]),
                    alpha=1.3)
        assert interpolation_witness(X, 1 + 0.5j, 14) == pytest.approx(
            interpolation_witness(X.subset(np.array([True, True, False])),
                                  1 + 0.5j, 14), rel=1e-12, abs=0.0)

    def test_witness_rejects_second_jet_over_truncation(self):
        X = Divisor(np.array([0j, 3 + 0j]), np.array([2, 5]))
        with pytest.raises(ParameterError):
            interpolation_witness(X, 1.0, 4)

    def test_witness_needs_two_nodes(self):
        X = Divisor(np.array([0j]), np.array([2]))
        with pytest.raises(ParameterError):
            interpolation_witness(X, 1.0, 20)

    def test_kernel_coefvec_normalized(self):
        # the normalized kernel T_z 1 at weight alpha, as the coefficient
        # vector of the scaled center sqrt(alpha) z
        v = CoefVec(coherent_coefficients(math.sqrt(1.5) * (1.3 - 0.4j), 120))
        assert v.norm_sq == pytest.approx(1.0, abs=1e-10)


class TestFramePropertyRandom:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_bounds_ordered_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        X = random_divisor(rng, max_nodes=4, max_mult=4)
        rep = frame_bounds(X, 50)
        assert 0.0 <= rep.lower <= rep.upper

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_upper_monotone_under_adding_nodes(self, seed):
        rng = np.random.default_rng(seed)
        X = random_divisor(rng, max_nodes=4, max_mult=3)
        if len(X) < 2:
            return
        sub = X.subset(np.arange(len(X)) < len(X) - 1)
        assert frame_bounds(sub, 50).upper <= frame_bounds(X, 50).upper + 1e-9
