"""Acceptance suite: twelve desk-scale criteria, one pass/fail line each.

Each test prints `ACCEPT <nn> <name>: PASS|FAIL` so the suite output can be
scanned at a glance; the assertion carries the same condition.
"""

import math
import time

import numpy as np
import pytest

from conftest import (displacement_oracle, radial_glue_errors,
                      random_divisor)
from fockdiv.cli import dichotomy_sweep
from fockdiv.divisor import (Divisor, Region, covering_margin, lattice,
                             radial_rings, thin_subdivisor)
from fockdiv.fock import (CoefVec, coherent_coefficients, displacement_matrix,
                          kernel_sampling_energy, quotient_norm_sq)
from fockdiv.frame import frame_bounds, interpolation_constant
from fockdiv.potential import (build_radial_weight, redistribution_integral,
                               uniqueness_certificate)
from fockdiv.specfun import find_tail_ratio_t, omega, sigma


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPT {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_tail_identity():
    t0 = time.monotonic()
    k, x = np.meshgrid(np.arange(501), np.logspace(-3, 4, 40))
    worst = float(np.max(np.abs(sigma(k, x) + omega(k, x) - 1.0)))
    ok = worst <= 1e-15 and time.monotonic() - t0 < 10
    report(1, "tail identity sigma+omega=1", ok)


def test_02_upper_tail_at_mean():
    t0 = time.monotonic()
    vals = [omega(k, float(k)) for k in range(501)]
    ok = min(vals) >= 0.5 and time.monotonic() - t0 < 5
    report(2, "upper tail at the mean >= 1/2", ok)


def test_03_tail_ratio_constant():
    t0 = time.monotonic()
    t = find_tail_ratio_t(math.exp(-2))
    ok = 2.0 <= t <= 4.0 and time.monotonic() - t0 < 60
    report(3, "tail-ratio shift within factor 2 of sqrt(2 log(1/eps))", ok)


def test_04_displacement_quadrature():
    t0 = time.monotonic()
    worst = 0.0
    for z in [0.5, 1 + 1j, 2 - 0.3j]:
        d = displacement_matrix(z, 12)
        worst = max(worst, float(np.max(np.abs(
            d - displacement_oracle(z, 12)))))
    ok = worst <= 1e-8 and time.monotonic() - t0 < 120
    report(4, "displacement matrix matches 2-D quadrature", ok)


def test_05_kernel_energy_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(515151)
    worst = 0.0
    for _ in range(100):
        X = random_divisor(rng, max_nodes=4, max_mult=4, scale=1.5)
        z = complex(rng.normal(), rng.normal())
        f = CoefVec(coherent_coefficients(z, 160))
        direct = sum(quotient_norm_sq(f, complex(c), int(m))
                     for c, m in zip(X.centers, X.mults))
        worst = max(worst, abs(kernel_sampling_energy(z, X) - direct))
    ok = worst <= 1e-9 and time.monotonic() - t0 < 30
    report(5, "kernel energy equals summed quotient norms", ok)


def test_06_sampling_necessity_hole():
    t0 = time.monotonic()
    extent = math.sqrt(300) + 2
    baseline = frame_bounds(lattice(1.0, 1, extent), 300).lower
    lowers = [frame_bounds(lattice(1.0, 1, extent, hole_radius=rho),
                           300).lower
              for rho in [2.0, 3.0, 4.0, 5.0]]
    monotone = all(b <= a + 1e-12 for a, b in zip(lowers, lowers[1:]))
    ok = (monotone and lowers[-1] < 0.1 * baseline
          and time.monotonic() - t0 < 300)
    report(6, "frame lower bound collapses as the hole grows", ok)


def test_07_interpolation_necessity_proximity():
    t0 = time.monotonic()

    def mx(d):
        X = Divisor(np.array([-d / 2 + 0j, d / 2 + 0j]), np.array([25, 25]))
        return interpolation_constant(X, 120)

    ref = mx(12.0)
    vals = [mx(d) for d in [10.5, 10.0, 9.5, 9.0, 8.5, 8.0, 7.5, 7.0]]
    monotone = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    ok = monotone and vals[-1] > 10 * ref and time.monotonic() - t0 < 300
    report(7, "interpolation constant blows up as heavy discs overlap", ok)


def test_08_two_kernel_closed_form():
    t0 = time.monotonic()
    X = Divisor(np.array([0j, 2.0 + 0j]), np.array([1, 1]))
    expect = (1 - math.exp(-4.0)) ** -0.5
    worst = max(abs(interpolation_constant(X, n) - expect) for n in [40, 80])
    ok = worst <= 1e-6 and time.monotonic() - t0 < 10
    report(8, "two-kernel interpolation constant closed form", ok)


def test_09_dichotomy():
    t0 = time.monotonic()
    params = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3]
    best = []
    for mult in [4, 16, 36, 64]:
        rows = dichotomy_sweep([mult], params)
        best.append(min(r["max_metric"] for r in rows))
    monotone = all(b >= a for a, b in zip(best, best[1:]))
    ok = monotone and best[-1] >= 3 * best[0] and time.monotonic() - t0 < 900
    report(9, "no family parameter keeps sampling and interpolation "
              "simultaneously bounded", ok)


def test_10_uniqueness_certificate():
    t0 = time.monotonic()
    X = lattice(spacing=1.8, mult=2, extent=45.0, hole_radius=2.5)
    W = Region.disc(45.0, 0.3)
    cert = uniqueness_certificate(
        X, W, [10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 40.0])
    grows = cert.grows and cert.slope >= 0.8 * (cert.area_K + 1.0)

    m = 25
    Z = Divisor(np.array([0j]), np.array([m]))
    radii = np.linspace(math.sqrt(m) + 1, 10 * math.sqrt(m), 45)
    excess = [2 * redistribution_integral(Z, float(r))[0] - math.pi * r * r
              for r in radii]
    bounded = max(excess) <= excess[0] + 0.05 * abs(excess[0]) + 1e-9
    ok = grows and bounded and time.monotonic() - t0 < 600
    report(10, "redistribution excess grows for coverings, stays bounded "
               "for a single zero", ok)


def test_11_radial_weight():
    t0 = time.monotonic()
    ok = True
    for q in [1.0, 2.0, 4.0, 7.0, 10.0]:
        for a in [1.0, 2.0, 4.0, 7.0, 10.0]:
            w = build_radial_weight(q, a)
            inner = w.grid <= q + a
            value_error, slope_error = radial_glue_errors(w)
            ok &= value_error <= 1e-12 and slope_error <= 1e-4
            ok &= w.mass <= w.mass_bound + 1e-9
            ok &= bool(np.all(w.laplacian_lhs[inner]
                              >= w.laplacian_rhs[inner] - 1e-6))
    ok = ok and time.monotonic() - t0 < 120
    report(11, "radial weight glue, mass, and Laplacian bounds", ok)


def test_12_thinning():
    t0 = time.monotonic()
    ring_radii = [4.0, 7.0, 10.0, 13.0, 16.0, 19.0]
    base = radial_rings(
        ring_radii, [25] * 6,
        counts=[max(1, int(math.ceil(2 * math.pi * r / 2.0)))
                for r in ring_radii],
        include_center=True, center_mult=36)
    planted = np.array([14.3 * np.exp(0.7j), 17.1 * np.exp(2.1j),
                        15.6 * np.exp(4.4j)])
    X = Divisor(np.concatenate([base.centers, planted]),
                np.concatenate([base.mults, [1, 1, 1]]))
    W = Region.disc(23.0, 0.1)
    thin = thin_subdivisor(X, W, [1.0, 2.0, 3.0])
    removed = set(map(complex, X.centers)) - set(map(complex, thin.centers))
    exact = removed == set(map(complex, planted))
    inner = Region.disc(17.0, 0.1)
    margins_ok = all(margin <= 0 for _, (_, margin)
                     in covering_margin(thin, [1.0, 2.0, 3.0], inner))
    ok = exact and margins_ok and time.monotonic() - t0 < 180
    report(12, "thinning removes exactly the planted far nodes and keeps "
               "the shrunk coverings", ok)
