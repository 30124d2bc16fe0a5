"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the library's own fast paths: matrix
elements come from dense 2-D quadrature over the plane or from the
closed Laguerre form in extended precision, frame bounds from a
restriction matrix built anew at each truncation, areas from plain grid
counts, disc scans from comparing every point with every node, the
redistribution integral from adaptive quadrature over rings about each
center.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, linalg
from scipy.special import gammaln

import fockdiv.divisor as dv
from fockdiv.fock import displacement_matrix
from fockdiv.frame import RANK_RTOL


def displacement_oracle(z: complex, n: int, n_rad: int = 240,
                        n_ang: int = 256, rmax: float = 9.0) -> np.ndarray:
    """2-D quadrature of <T_z e_j, e_k> = (1/pi) int T_z e_j conj(e_k) dmu.

    Polar product rule: Gauss-Legendre radially (the integrand decays like
    e^{-r^2}), uniform angles (exact for trigonometric polynomials of the
    occurring degrees)."""
    nodes, wts = np.polynomial.legendre.leggauss(n_rad)
    r = (nodes + 1) * rmax / 2
    wr = wts * rmax / 2
    th = 2 * np.pi * np.arange(n_ang) / n_ang
    wth = 2 * np.pi / n_ang
    pts = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    weight = (wr * r)[:, None].repeat(n_ang, axis=1).ravel() * wth
    k = np.arange(n)
    lg = gammaln(k + 1)
    logw = np.log(np.where(pts == 0, 1e-300, pts))
    basis = np.exp(k[None, :] * logw[:, None] - 0.5 * lg[None, :])
    pref = np.exp(np.conj(z) * pts - abs(z) ** 2 / 2)
    shifted = pts - z
    logs = np.log(np.where(shifted == 0, 1e-300, shifted))
    translated = pref[:, None] * np.exp(k[None, :] * logs[:, None]
                                        - 0.5 * lg[None, :])
    envelope = (weight * np.exp(-np.abs(pts) ** 2))[:, None]
    return (np.conj(basis) * envelope).T @ translated / np.pi


def displacement_entry_mp(z: complex, k: int, j: int) -> complex:
    """<T_z e_j, e_k> from the closed form of Cahill and Glauber (Phys. Rev.
    177, 1857 (1969)): with r = |z|, lo = min(k, j), d = |k - j|,
    sqrt(lo!/(lo + d)!) r^d e^{-r^2/2} L_lo^{(d)}(r^2), times (-1)^d when
    k < j and the phase e^{-i (k - j) arg z}.  mpmath's hypergeometric
    evaluation raises its working precision past the cancellation in L."""
    lo, d = min(k, j), abs(k - j)
    with mp.workdps(30):
        r = mp.mpf(abs(z))
        x = r * r
        val = (mp.sqrt(mp.factorial(lo) / mp.factorial(lo + d)) * r ** d
               * mp.exp(-x / 2) * mp.laguerre(lo, d, x))
        if k < j and d % 2:
            val = -val
        return complex(val) * np.exp(-1j * (k - j) * np.angle(z))


def frame_oracle(divisor: dv.Divisor, n: int) -> dict:
    """A, B, M_X and the tail at one truncation N from R(N) built for that
    N alone: one displacement_matrix call per node (zero rows for the jets
    of order >= N), then eigvalsh of R* R when R is tall (A <= N eps B,
    below its resolution, reads 0) and one gesvd SVD otherwise, with the
    library's rank rule.  The tail is the largest unit mass a represented
    column of a displacement matrix loses to the truncation."""
    rows, tail = [], 0.0
    for z, m in zip(math.sqrt(divisor.alpha) * divisor.centers,
                    divisor.mults):
        d = displacement_matrix(z, n, ncols=int(min(m, n)))
        rows += [d.conj().T, np.zeros((int(m) - d.shape[1], n))]
        norms = np.sum(np.abs(d) ** 2, axis=0)
        tail = max(tail, float(np.clip(1.0 - norms.min(), 0.0, 1.0)))
    r = np.vstack(rows)
    if r.shape[0] > n:
        vals = np.linalg.eigvalsh(r.conj().T @ r)
        resolved = vals[0] > n * np.finfo(float).eps * vals[-1]
        return {"lower": float(vals[0]) if resolved else 0.0,
                "upper": float(vals[-1]), "mx": math.inf, "tail_bound": tail}
    u, svals, _ = linalg.svd(r, full_matrices=False, lapack_driver="gesvd")
    lower, mx = 0.0, math.inf
    if svals[-1] > RANK_RTOL * svals[0]:
        lower = float(svals[-1] ** 2) if r.shape[0] == n else 0.0
        mx = math.sqrt((np.abs(u) ** 2 / svals ** 2).sum(axis=1).max())
    return {"lower": lower, "upper": float(svals[0] ** 2), "mx": mx,
            "tail_bound": tail}


def lens_area_grid(c1, r1, c2, r2, n: int = 400) -> float:
    """Grid count of the area of the intersection of two discs."""
    rmin = min(r1, r2)
    h = max(rmin / n, 1e-9)
    xmin = max(c1.real - r1, c2.real - r2)
    xmax = min(c1.real + r1, c2.real + r2)
    ymin = max(c1.imag - r1, c2.imag - r2)
    ymax = min(c1.imag + r1, c2.imag + r2)
    if xmin >= xmax or ymin >= ymax:
        return 0.0
    xs = np.arange(xmin + h / 2, xmax, h)
    ys = np.arange(ymin + h / 2, ymax, h)
    gx, gy = np.meshgrid(xs, ys)
    pts = gx + 1j * gy
    inside = (np.abs(pts - c1) < r1) & (np.abs(pts - c2) < r2)
    return float(inside.sum()) * h * h


def dense_count_scan(points, centers, radii) -> np.ndarray:
    """Number of open discs containing each point, every node compared."""
    return (np.abs(points[:, None] - centers[None, :])
            < radii[None, :]).sum(axis=1)


def dense_margin_scan(points, centers, radii) -> np.ndarray:
    """min over all nodes of |z - center| - radius."""
    return (np.abs(points[:, None] - centers[None, :])
            - radii[None, :]).min(axis=1)


def dense_disjointness_check(centers, rho) -> tuple[bool, tuple]:
    """Worst pair violation rho_i + rho_j - |c_j - c_i| over every pair
    i < j, the first maximum in (i, j) order."""
    worst = (None, None, -np.inf)
    for i in range(centers.size):
        d = np.abs(centers[i + 1:] - centers[i])
        viol = rho[i] + rho[i + 1:] - d
        if viol.size:
            j = int(np.argmax(viol))
            if viol[j] > worst[2]:
                worst = (i, i + 1 + j, float(viol[j]))
    if worst[0] is None:
        return True, (None, None, 0.0)
    return worst[2] <= 1e-12, worst


def circle_intersections(c1, r1, c2, r2) -> tuple:
    """Intersection points of two circles, one pair at a time (empty tuple
    if none)."""
    d = abs(c2 - c1)
    if d == 0 or d > r1 + r2 or d < abs(r1 - r2):
        return ()
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    h_sq = r1 * r1 - a * a
    if h_sq < 0:
        return ()
    h = math.sqrt(h_sq)
    mid = c1 + a * (c2 - c1) / d
    off = 1j * h * (c2 - c1) / d
    return (mid + off, mid - off)


def dense_overlap_constant(divisor: dv.Divisor, window: dv.Region) -> int:
    """overlap_constant with the intersection points of every node pair
    and dense counts."""
    c, r = divisor.centers, divisor.radii
    extra = [c]
    for i in range(len(divisor)):
        for j in range(i + 1, len(divisor)):
            pts_ij = circle_intersections(c[i], r[i], c[j], r[j])
            if pts_ij:
                mid = (c[i] + c[j]) / 2
                extra.append(np.array([p + 1e-9 * (mid - p) for p in pts_ij]))
    pts = np.concatenate([window.grid()] + extra)
    return int(dense_count_scan(pts, c, r).max())


def _ring_log_integral(lam_abs: float, s: float, R: float) -> float:
    """int over theta of log(R/|lam + s e^{i theta}|), restricted to the
    arc inside D(R)."""
    if lam_abs + s <= R:
        # full circle inside: circular mean of log|.| is log(max(|lam|, s))
        return 2 * math.pi * math.log(R / max(lam_abs, s)) \
            if max(lam_abs, s) > 0 else 0.0
    if abs(lam_abs - s) >= R:
        return 0.0
    # partial arc: with psi = pi - phi, |lam + s e^{i phi}|^2 =
    # (|lam| - s)^2 + 4 |lam| s sin^2(psi / 2), inside D(R) for psi below
    # psi1 (doubled by symmetry); near-singular at psi = 0 when s ~ |lam|
    c = (lam_abs * lam_abs + s * s - R * R) / (2 * lam_abs * s)
    psi1 = math.acos(min(1.0, max(-1.0, c)))
    gap = (lam_abs - s) ** 2
    width = 2 * abs(lam_abs - s) / math.sqrt(lam_abs * s)
    val, _ = integrate.quad(
        lambda psi: math.log(R * R / (gap + 4 * lam_abs * s
                                      * math.sin(psi / 2) ** 2)),
        0.0, psi1, epsabs=1e-15, epsrel=1e-12, limit=200,
        points=[width] if 0.0 < width < psi1 else None)
    return val


def ring_log_oracle(lam: complex, r: float, R: float) -> float:
    """int over D(lam, r) cap D(R) of log(R/|z|) dm, as adaptive quadrature
    over the rings |z - lam| = s, each ring's arc inside D(R) integrated
    adaptively in the angle: coordinates about the center, not about the
    origin as in the library."""
    lam_abs = abs(lam)
    val, _ = integrate.quad(
        lambda s: s * _ring_log_integral(lam_abs, s, R), 0.0, r,
        epsabs=0.0, epsrel=1e-11, limit=200,
        points=[p for p in (abs(R - lam_abs), lam_abs, R + lam_abs)
                if 0.0 < p < r] or None)
    return val


def child_peak_rss_mb(code: str) -> float:
    """Peak resident memory of a fresh interpreter running code.  Read as
    VmHWM, the peak of the child's own address space: on Linux the child's
    getrusage ru_maxrss starts from the peak of the process that spawned
    it, here the whole pytest run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += ("\nwith open('/proc/self/status') as fh:\n"
             "    print(next(ln for ln in fh if ln.startswith('VmHWM:')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return int(proc.stdout.split()[-2]) / 1024.0


def random_divisor(rng: np.random.Generator, max_nodes: int = 4,
                   max_mult: int = 5, scale: float = 2.0) -> dv.Divisor:
    n = int(rng.integers(1, max_nodes + 1))
    while True:
        centers = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        if np.unique(centers).size == n:
            break
    mults = rng.integers(1, max_mult + 1, size=n)
    return dv.Divisor(centers, mults)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
