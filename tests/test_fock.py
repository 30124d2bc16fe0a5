"""Coefficient vectors, translation matrices, and local norms."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import displacement_entry_mp, displacement_oracle
from fockdiv.errors import DomainError, ParameterError
from fockdiv.fock import (CoefVec, basis_disc_norm, coherent_coefficients,
                          disc_local_norm_sq, displacement_matrix,
                          kernel_sampling_energy, local_concentration_check,
                          quotient_norm_sq, restriction_values)
from fockdiv.divisor import Divisor
from fockdiv.specfun import omega, sigma

complex_st = st.builds(complex,
                       st.floats(min_value=-3, max_value=3),
                       st.floats(min_value=-3, max_value=3))


class TestCoefVec:
    def test_norm(self):
        v = CoefVec(np.array([3.0, 4.0j]))
        assert v.norm_sq == pytest.approx(25.0)

    def test_basis(self):
        v = CoefVec.basis(2, 5)
        assert v.coeffs[2] == 1.0 and v.norm_sq == 1.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ParameterError):
            CoefVec(np.array([]))
        with pytest.raises(DomainError):
            CoefVec(np.array([1.0, np.nan]))


class TestCoherent:
    def test_unit_norm(self):
        for z in [0.3, 1 + 1j, 4 - 2j]:
            c = coherent_coefficients(z, 400)
            assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_small_case_by_hand(self):
        z = 1 + 1j
        c = coherent_coefficients(z, 3)
        pref = math.exp(-abs(z) ** 2 / 2)
        assert c[0] == pytest.approx(pref)
        assert c[1] == pytest.approx(np.conj(z) * pref)
        assert c[2] == pytest.approx(np.conj(z) ** 2 * pref / math.sqrt(2))

    def test_large_center_no_overflow(self):
        c = coherent_coefficients(20 + 0j, 600)
        assert np.all(np.isfinite(c))
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("z", [20 * np.exp(2.5j), 3 - 4j, -7 + 0.1j,
                                   -5 - 1e-12j],
                             ids=["r20", "3-4j", "-7+0.1j", "branch-cut"])
    def test_matches_mpmath(self, z):
        # the phase e^{-ik arg z} is a product of two table entries; up to
        # k = 599, near the branch cut too, every entry that is not lost
        # to underflow keeps 12 digits against a 30-digit reference
        n = 600
        c = coherent_coefficients(z, n)
        with mp.workdps(30):
            w = mp.conj(mp.mpc(z.real, z.imag))
            term = mp.exp(-abs(w) ** 2 / 2)
            checked = 0
            for k in range(n):
                if abs(term) > 1e-280:
                    assert abs(c[k] - term) <= 1e-12 * abs(term), k
                    checked += 1
                term *= w / mp.sqrt(k + 1)
        assert checked > n // 2


class TestDisplacementMatrix:
    def test_identity_at_origin(self):
        d = displacement_matrix(0.0, 6)
        assert np.allclose(d, np.eye(6), atol=1e-15)

    @pytest.mark.parametrize("z", [0.5, 1 + 1j, 2 - 0.3j])
    def test_matches_quadrature_oracle(self, z):
        n = 12
        d = displacement_matrix(z, n)
        oracle = displacement_oracle(z, n)
        assert np.max(np.abs(d - oracle)) <= 1e-10

    @given(z=complex_st)
    @settings(max_examples=40, deadline=None)
    def test_columns_near_isometric(self, z):
        # column norms approach 1 from below as rows are exact truncations
        n = 40 + int(8 * abs(z) ** 2)
        d = displacement_matrix(z, n, ncols=8)
        norms = np.sum(np.abs(d) ** 2, axis=0)
        assert np.all(norms <= 1.0 + 1e-9)
        assert np.all(norms >= 1.0 - 1e-6)

    @given(z=complex_st)
    @settings(max_examples=25, deadline=None)
    def test_group_property(self, z):
        # T_z T_{-z} = I up to truncation tails
        n = 60 + int(10 * abs(z) ** 2)
        a = displacement_matrix(z, n)
        b = displacement_matrix(-z, n)
        prod = a @ b
        m = 8
        assert np.max(np.abs(prod[:m, :m] - np.eye(m))) <= 1e-6

    def test_row_truncation_exact(self):
        z = 1.2 - 0.7j
        big = displacement_matrix(z, 30)
        small = displacement_matrix(z, 12)
        assert np.max(np.abs(big[:12, :12] - small)) <= 1e-13

    def test_large_center_matches_quadrature(self):
        z = 5.5 + 1.5j  # |z|^2 = 32.5
        d = displacement_matrix(z, 120, ncols=6)
        oracle = displacement_oracle(z, 120, rmax=13.0, n_rad=400)[:, :6]
        assert np.max(np.abs(d - oracle)) <= 1e-9

    @pytest.mark.parametrize("zsq,n,ncols", [
        (16, 128, 64), (31.4, 128, 64), (64, 256, 128), (144, 300, 100),
        (600, 1000, 400), (1e-4, 1000, 400)])
    def test_matches_laguerre_closed_form(self, zsq, n, ncols):
        z = math.sqrt(zsq) * np.exp(0.7j)
        d = displacement_matrix(z, n, ncols)
        rng = np.random.default_rng(7)
        corners = [(0, 0), (n - 1, ncols - 1), (n - 1, 0), (0, ncols - 1),
                   (ncols - 1, ncols - 1)]
        # the bulk of each column sits near sqrt(k) = sqrt(j) +- |z|
        band = []
        for j in rng.integers(0, ncols, size=12):
            for shift in (1.0, -1.0, rng.uniform(-1.0, 1.0)):
                k = round(max(math.sqrt(j) + shift * math.sqrt(zsq), 0.0) ** 2)
                band.append((min(k, n - 1), int(j)))
        spread = zip(rng.integers(0, n, size=12), rng.integers(0, ncols, 12))
        for k, j in corners + band + list(spread):
            assert abs(d[k, j] - displacement_entry_mp(z, int(k), int(j))) \
                <= 1e-12, (k, j)

    def test_large_center_columns_bounded(self):
        d = displacement_matrix(7.8 + 0j, 160, ncols=10)
        norms = np.sum(np.abs(d) ** 2, axis=0)
        assert np.all(norms <= 1.0 + 1e-9)

    @pytest.mark.parametrize("n,ncols", [(1, 1), (9, 1), (9, 4), (9, 9)])
    def test_array_of_centers_stacks_scalar_calls(self, n, ncols):
        # the origin, the real and imaginary axes and mixed phases, in a
        # 2-D array of centers
        zs = np.array([[0j, 1.3, -0.4 + 2.2j, -3j],
                       [2.5 - 0.5j, -1.7 - 1.1j, 0.2j, -2.0]])
        d = displacement_matrix(zs, n, ncols)
        assert d.shape == (2, 4, n, ncols)
        stacked = np.array([[displacement_matrix(z, n, ncols) for z in row]
                            for row in zs])
        assert np.array_equal(d, stacked)

    @pytest.mark.parametrize("z", [
        -5 - 1e-12j,
        np.array([[0j, 1.3, -0.4 + 2.2j], [20 * np.exp(2.5j), -3j, -2.0]])],
        ids=["scalar", "array"])
    @pytest.mark.parametrize("ncols", [1, 7])
    def test_first_column_is_coherent_vector(self, z, ncols):
        # both take their phases from the same table, bit for bit
        d = displacement_matrix(z, 50, ncols)
        assert np.array_equal(d[..., 0], coherent_coefficients(z, 50))

    @pytest.mark.parametrize("z", [0.0, 2.5, 9, np.array([0.0, 0.3, 7.5])],
                             ids=["origin", "float", "int", "array"])
    @pytest.mark.parametrize("ncols", [1, 6])
    def test_real_center_gives_the_real_matrix(self, z, ncols):
        # every phase is 1 at a real z >= 0: the real matrix is the real
        # part of the complex build bit for bit, whose imaginary part is 0
        d = displacement_matrix(z, 40, ncols)
        full = displacement_matrix(np.asarray(z, dtype=complex), 40, ncols)
        assert d.dtype == float
        assert np.array_equal(d, full.real) and not full.imag.any()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ParameterError):
            displacement_matrix(1.0, 0)
        with pytest.raises(ParameterError):
            displacement_matrix(1.0, 5, ncols=6)


class TestRestriction:
    def test_matches_matrix_column(self):
        z = 0.8 + 0.4j
        n = 30
        d = displacement_matrix(z, n, ncols=4)
        for k in range(4):
            f = CoefVec.basis(k, n)
            # <e_k, T_z e_j> = conj(D[k, j])
            vals = restriction_values(CoefVec(d[:, k]), z, 4)
            assert np.all(np.isfinite(vals))
        f = CoefVec(np.arange(1, n + 1, dtype=complex) / n)
        vals = restriction_values(f, z, 4)
        expect = d.conj().T @ f.coeffs
        assert np.max(np.abs(vals - expect)) <= 1e-10

    def test_quotient_norm_of_kernel(self):
        # ||T_z 1||_{quotient at z, order m}^2 = 1 exactly (it is the
        # coherent state itself): first value 1, higher derivatives 0
        z = 1.1 - 0.6j
        n = 80
        f = CoefVec(coherent_coefficients(z, n))
        q = quotient_norm_sq(f, z, 3)
        assert q == pytest.approx(1.0, abs=1e-10)

    def test_quotient_vanishing_function(self):
        # z e_1-like vector recentred: e_1 vanishes to order 1 at 0
        f = CoefVec.basis(1, 10)
        assert quotient_norm_sq(f, 0.0, 1) == 0.0

    def test_rejects_m_over_truncation(self):
        f = CoefVec.basis(0, 5)
        with pytest.raises(ParameterError):
            restriction_values(f, 0.0, 6)


class TestKernelEnergy:
    def test_single_node_closed_form(self):
        X = Divisor(np.array([2.0 + 0j]), np.array([3]))
        z = 0.5 + 0.5j
        expect = omega(2, abs(z - 2.0) ** 2)
        assert kernel_sampling_energy(z, X) == pytest.approx(expect, abs=1e-13)

    def test_two_path_agreement(self):
        # energy via omega sums vs explicit quotient norms of the kernel
        X = Divisor(np.array([1.0 + 0j, -0.5 + 1j]), np.array([2, 4]))
        z = 0.3 - 0.2j
        n = 120
        f = CoefVec(coherent_coefficients(z, n))
        direct = sum(quotient_norm_sq(f, c, int(m))
                     for c, m in zip(X.centers, X.mults))
        assert kernel_sampling_energy(z, X) == pytest.approx(direct, abs=1e-9)

    def test_empty_divisor(self):
        X = Divisor(np.array([], dtype=complex), np.array([], dtype=int))
        assert kernel_sampling_energy(0.0, X) == 0.0


class TestLocalNorms:
    def test_basis_disc_norm_is_sigma(self):
        assert basis_disc_norm(4, 2.0) == pytest.approx(sigma(4, 4.0))

    def test_disc_norm_central_basis(self):
        f = CoefVec.basis(3, 20)
        assert disc_local_norm_sq(f, 0.0, 1.5) == pytest.approx(
            sigma(3, 2.25), abs=1e-12)

    def test_disc_norm_translation_invariance(self):
        # ||T_z 1||^2 over D(z, r) equals sigma_0(r^2)
        z = 1.4 + 0.9j
        f = CoefVec(coherent_coefficients(z, 100))
        assert disc_local_norm_sq(f, z, 1.2) == pytest.approx(
            sigma(0, 1.44), abs=1e-9)

    def test_disc_norm_monotone_in_radius(self):
        f = CoefVec(np.linspace(1, 0.1, 25).astype(complex))
        vals = [disc_local_norm_sq(f, 0.3 + 0.1j, r)
                for r in np.linspace(0.1, 4.0, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLocalConcentration:
    def test_tail_vector_passes(self):
        # all mass in modes >= m with moderate disc mass
        m = 16
        n = 64
        c = np.zeros(n)
        c[40:60] = 1.0
        c /= np.linalg.norm(c)
        f = CoefVec(c)
        ok, a = local_concentration_check(f, m, eta=0.5)
        assert ok and a >= 0.0

    def test_small_eta(self):
        # eta = 1e-3 asks for the shift at epsilon = 2.5e-4, which a search
        # over k <= 10 never found
        c = np.zeros(32)
        c[4:12] = 1.0
        c /= np.linalg.norm(c)
        ok, a = local_concentration_check(CoefVec(c), 4, eta=1e-3)
        assert ok and 0.5 <= a <= 1.5

    def test_shrink_is_a_grid_point(self):
        # the tenth step of the 0.1 grid is 1.0 itself, not the
        # 0.9999999999999999 that ten additions of 0.1 reach
        f = CoefVec(np.r_[np.zeros(4), np.full(8, 0.9 / 8 ** 0.5)])
        ok, a = local_concentration_check(f, 4, eta=1e-3)
        assert ok and a == 1.0

    def test_rejects_heavy_head(self):
        f = CoefVec.basis(0, 20)
        with pytest.raises(ParameterError):
            local_concentration_check(f, 4, eta=0.5)
