"""Subharmonic-potential computations: the mass-redistribution functional
with its uniqueness certificate, and the explicit weight constructions.

I(R) is one vectorized pass over all nodes: closed forms inside D(R), a
fixed 64-node polar Gauss-Legendre rule across |z| = R checked by 32 nodes.

Laplacian normalization used throughout (checked once, here):
Delta |z|^2 = 4 and Delta log|z| = 2 pi delta_0, so the redistributed
profile (|z - c|^2 - m)/2 on D(c, sqrt(m)) has constant Laplacian 2 and
total mass 2 pi m, matching the point mass m * 2 pi delta_c."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spence, xlogy

from .divisor import (Divisor, Region, _count_scan, _near_pairs,
                      _uncovered_reach, disjointness_check)
from .errors import (DomainError, ParameterError, PreconditionError,
                     VerificationError)
from .fock import coherent_coefficients

RADIAL_GRID_N = 4096
RULE_RTOL = 1e-9  # |I_64 - I_32| / I above this: the rule has not converged


def __getattr__(name: str):
    # bench/tracer.py (QUAD_MODULE) wraps integrate.quad here and reads it
    # after every sample; loaded on demand, so no study imports it
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _polar_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule in u on [0, 1] for rho = lo + (hi - lo) t,
    t = (1 - cos pi u) / 2, which absorbs the square-root arc endpoints:
    the nodes t and 1 - t, and the weights dt."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = np.pi * (x + 1) / 4  # pi u / 2
    return (np.sin(half) ** 2, np.cos(half) ** 2,
            w * np.pi * np.sin(2 * half) / 4)


_FINE_RULE, _COARSE_RULE = _polar_rule(64), _polar_rule(32)


# ---------------------------------------------------------------------------
# mass redistribution
# ---------------------------------------------------------------------------

def _anti(s: np.ndarray, R: float) -> np.ndarray:
    """int_0^s rho log(R/rho) d(rho)."""
    return s * s / 4 - xlogy(s * s / 2, s / R)


def redistribution_integral(divisor: Divisor, R: float
                            ) -> tuple[float, float]:
    """I(R) = sum over nodes of int_{D(center, radius) cap D(R)}
    log(R/|z|) dm, the radial growth functional of the redistributed mass,
    by the 64-node polar rule, and its relative distance from the 32-node
    rule, which must not exceed RULE_RTOL."""
    if not (R > 0 and math.isfinite(R * R)):
        raise DomainError(f"R must be positive with R^2 finite, got {R!r}")
    d, r = np.abs(divisor.centers), divisor.radii
    # discs wholly inside D(R), exact via circular means of the harmonic log
    inside = d + r <= R
    off, on = inside & (d >= r), inside & (d < r)
    closed = (math.pi * (r[off] ** 2 * np.log(R / d[off])).sum()
              + 2 * math.pi * (_anti(r[on], R) - d[on] ** 2 / 4).sum())
    # the other discs, in polar coordinates: the circles |z| = rho below
    # min(R, r - |lam|) lie in the disc, ...
    d, r = d[~inside], r[~inside]
    closed += 2 * math.pi * _anti(np.clip(r - d, 0.0, R), R).sum()
    # ... for lo = ||lam| - r| < rho < R an arc of width 2 acos(c) does,
    # c = (rho^2 + |lam|^2 - r^2) / (2 rho |lam|).  With e = rho - lo, 1 - c
    # and 1 + c are factored free of cancellation at either end:
    # rho + r - |lam| = e + gap and rho + |lam| - r = e + 2 lo - gap.
    lo = np.abs(d - r)
    arc = lo < R
    d, r, lo = d[arc, None], r[arc, None], lo[arc, None]
    gap = np.where(d >= r, 0.0, 2 * lo)

    def rule(t, t_bar, w):
        e = (R - lo) * t
        rho = lo + e
        one_minus = (d + r - rho) * (e + gap)
        one_plus = (e + 2 * lo - gap) * (rho + d + r)
        vals = (rho * np.log1p((R - lo) * t_bar / rho)
                * 4 * np.arctan2(np.sqrt(one_minus), np.sqrt(one_plus)))
        return float(closed + ((R - lo[:, 0]) * (vals @ w)).sum())

    fine, coarse = rule(*_FINE_RULE), rule(*_COARSE_RULE)
    error = abs(fine - coarse) / fine if fine != coarse else 0.0
    if error > RULE_RTOL:
        raise VerificationError(
            f"I({R:g}) = {fine:.6g}: the 64- and 32-node polar rules differ"
            f" by {error:.3g} relative")
    return fine, error


@dataclass(frozen=True)
class RedistributionCurve:
    """I(R) against the pi R^2 / 2 benchmark."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(radii) <= 0):
            raise ParameterError("radii must be strictly increasing")
        if np.any(values < -1e-9) or np.any(np.diff(values) < -1e-6):
            raise ParameterError("I(R) must be nonnegative and nondecreasing")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)

    @property
    def benchmark(self) -> np.ndarray:
        return math.pi * self.radii ** 2 / 2

    @property
    def excess(self) -> np.ndarray:
        return self.values - self.benchmark

    def csv(self) -> str:
        lines = ["R,I,piR2_half,excess"]
        for r, v, b, e in zip(self.radii, self.values, self.benchmark,
                              self.excess):
            lines.append(f"{r:.12g},{v:.12g},{b:.12g},{e:.12g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class UniquenessReport:
    verdict: str
    grows: bool
    area_K: float
    area_error: float
    R0: float
    slope: float
    slope_benchmark: float
    curve: RedistributionCurve
    quad_error: float  # worst |I_64 - I_32| / I over the radii


def uniqueness_certificate(divisor: Divisor, window: Region, r_list
                           ) -> UniquenessReport:
    """Certificate that a divisor whose discs cover the window outside a
    compact set cannot annihilate a nonzero function: the excess
    I(R) - pi R^2 / 2 must outgrow (area(K) + 1) log R."""
    r_list = sorted(float(r) for r in r_list)
    if len(r_list) < 4:
        raise ParameterError("need at least 4 radii for the certificate")
    radii = divisor.radii
    inner, edge = window.interior(float(radii.max(initial=0.0)))
    counts = _count_scan(inner, divisor.centers, radii)
    h2 = window.h ** 2
    uncovered = inner[counts == 0]
    if _uncovered_reach(uncovered, edge) is None:
        raise PreconditionError(
            "uncovered set reaches the window collar: the covering "
            "hypothesis (complement compact) fails")
    area_K = uncovered.size * h2
    need = area_K + 1.0
    multi_radii = np.sort(np.abs(inner[counts >= 2]))
    n_need = int(math.ceil(need / h2))
    if multi_radii.size < n_need:
        raise PreconditionError(
            "multiply covered set too small inside the window; "
            "cannot anchor the certificate")
    R0 = float(multi_radii[n_need - 1])
    values, errors = np.array([redistribution_integral(divisor, r)
                               for r in r_list]).T
    curve = RedistributionCurve(np.array(r_list), values)
    half = len(r_list) // 2
    logs = np.log(np.array(r_list[half:]))
    slope = float(np.polyfit(logs, curve.excess[half:], 1)[0])
    grows = slope >= 0.8 * need
    verdict = ("not a zero divisor (certificate grows)" if grows
               else "inconclusive (excess does not outgrow the benchmark)")
    return UniquenessReport(verdict=verdict, grows=grows, area_K=area_K,
                            area_error=2 * window.h * math.sqrt(area_K * math.pi)
                            if area_K > 0 else h2,
                            R0=R0, slope=slope, slope_benchmark=need,
                            curve=curve, quad_error=float(errors.max()))


# ---------------------------------------------------------------------------
# explicit weights
# ---------------------------------------------------------------------------

def weight_v(divisor: Divisor, z):
    """Nonpositive correction sum m [log u + 1 - u] over the discs
    containing z, with u = alpha |z - center|^2 / m, at one point z or an
    array of them.  Returns -inf exactly at a node center."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise DomainError("weight_v needs finite points")
    flat, v = z.ravel(), np.zeros(z.size)
    # the pairs come in node order, so each point sums its terms node by node
    for pi, ni, dist in _near_pairs(flat, divisor.centers, divisor.radii):
        m = divisor.mults[ni]
        u = divisor.alpha * dist ** 2 / m
        hit = (u < 1.0) & (u > 0.0)
        np.add.at(v, pi[hit], m[hit] * (np.log(u[hit]) + 1.0 - u[hit]))
        v[pi[u == 0.0]] = -np.inf
    return v.reshape(z.shape)[()]


@dataclass(frozen=True)
class LaplacianReport:
    h: float
    tol: float
    n_inside: int
    n_outside: int
    max_dev_inside: float
    max_dev_outside: float

    @property
    def ok(self) -> bool:
        return (self.max_dev_inside <= self.tol
                and self.max_dev_outside <= self.tol)


def verify_psi_laplacian(divisor: Divisor, window: Region
                         ) -> LaplacianReport:
    """Five-point stencil check of the distributional identities for
    psi = alpha |z|^2 + v: Laplacian 0 inside each disc off the center
    (the point mass lives at the center only) and 4 alpha outside all
    discs.  Points near centers, disc boundaries, or the window edge are
    excluded (the stencil is invalid across the C^1 interface).  Requires
    pairwise disjoint discs: where k of them overlap the Laplacian is
    4 alpha (1 - k)."""
    h = window.h
    tol = 60.0 * h * h
    if tol > 0.5:
        raise ParameterError(
            f"resolution too coarse: stencil error bound {tol:.3g} > 0.5")
    ((ok, worst),) = disjointness_check(divisor, [0.0])
    if not ok:
        raise PreconditionError(
            f"discs overlap: pair {worst[:2]} by {worst[2]:.3g}")
    zs = window.mesh()
    flat = zs.ravel()
    # The log singularity at each center has fourth derivative of order
    # m / d^4, so the stencil error near a center is ~ 8 m h^2 / d^4.
    # Excluding d <= (8 m / 60)^{1/4} (h-independent) keeps that error
    # below the quoted tolerance 60 h^2.
    eps = np.maximum(10.0 * h, (8.0 * divisor.mults / 60.0) ** 0.25)
    # Every mask below is decided within these reaches: a node farther away
    # has |z - c| - r > 2 h and |z - c| > eps.
    reach = np.maximum(divisor.radii + 2 * h, eps)
    in_some_disc = np.zeros(flat.size, dtype=bool)
    outside_all = np.ones(flat.size, dtype=bool)
    near_edge = np.zeros(flat.size, dtype=bool)
    clear_of_centers = np.ones(flat.size, dtype=bool)
    for pi, ni, dists in _near_pairs(flat, divisor.centers, reach):
        excess = dists - divisor.radii[ni]
        in_some_disc[pi[excess < 0]] = True
        outside_all[pi[excess <= 0]] = False
        near_edge[pi[np.abs(excess) <= 2 * h]] = True
        clear_of_centers[pi[dists <= eps[ni]]] = False
    psi = divisor.alpha * np.abs(zs) ** 2 + weight_v(divisor, zs)
    lap = np.full(zs.shape, np.nan)
    lap[1:-1, 1:-1] = (psi[2:, 1:-1] + psi[:-2, 1:-1] + psi[1:-1, 2:]
                       + psi[1:-1, :-2] - 4 * psi[1:-1, 1:-1]) / (h * h)
    lap = lap.ravel()
    valid = (np.isfinite(lap) & ~near_edge
             & (np.abs(flat) <= window.radius - 2 * h))
    inside = valid & in_some_disc & clear_of_centers
    outside = valid & outside_all
    dev_in = float(np.max(np.abs(lap[inside]))) if inside.any() else 0.0
    dev_out = float(np.max(np.abs(lap[outside] - 4 * divisor.alpha))) \
        if outside.any() else 0.0
    return LaplacianReport(h=h, tol=tol, n_inside=int(inside.sum()),
                           n_outside=int(outside.sum()),
                           max_dev_inside=dev_in, max_dev_outside=dev_out)


# ---------------------------------------------------------------------------
# radial weight y_{q,a}
# ---------------------------------------------------------------------------

def _mass_antiderivative(r: float, q: float, a: float) -> float:
    """int_0^r s * a / (q + 2a - s)^2 ds, closed form."""
    c = q + 2 * a
    return a * (c / (c - r) + math.log(c - r) - 1.0 - math.log(c))


@dataclass(frozen=True)
class RadialWeight:
    """Radial building block y equal to r^2 outside radius q + a, glued
    C^1 at the boundary, with logarithmic singularity 2 q^2 log r at the
    origin and Laplacian bounded below by 4 gamma."""

    q: float
    a: float
    grid: np.ndarray
    gamma: np.ndarray
    g: np.ndarray
    h: np.ndarray
    y: np.ndarray
    laplacian_lhs: np.ndarray
    laplacian_rhs: np.ndarray
    mass: float
    origin_limit: float

    @property
    def mass_bound(self) -> float:
        return 2 * math.pi * (self.q + self.a) ** 2 / (self.q + 2 * self.a)

    def csv(self) -> str:
        lines = ["r,gamma,g,h,y,laplacian_lhs,laplacian_rhs"]
        for row in zip(self.grid, self.gamma, self.g, self.h, self.y,
                       self.laplacian_lhs, self.laplacian_rhs):
            lines.append(",".join(f"{v:.12g}" for v in row))
        return "\n".join(lines) + "\n"


def build_radial_weight(q: float, a: float) -> RadialWeight:
    """Construct y = r^2 + g + h inside radius q + a (r^2 outside) where g
    solves the radial Dirichlet problem Delta g = 4 gamma - 4 b/(pi (q+a)^2)
    with zero boundary values and h carries the log singularity.

    Radial convention: Delta u = u'' + u'/r, so g'(r) = 4 M(r)/r - const r
    with M(r) = int_0^r s gamma(s) ds.  Both are in closed form: with
    c = q + 2a, int_0^r M(s)/s ds = a (log(c/(c - r)) - Li_2(r/c)), and
    Li_2(x) = spence(1 - x)."""
    if q < 1 or a < 1:
        raise DomainError(f"the construction assumes q, a >= 1, got {q}, {a}")
    edge = q + a
    c = q + 2 * a
    mass = 2 * math.pi * _mass_antiderivative(edge, q, a)
    # (1/r) int_0^r s * (4 b / (pi edge^2)) ds = (2 b / (pi edge^2)) r
    const = 2 * mass / (math.pi * edge * edge)

    inner = np.linspace(edge / RADIAL_GRID_N, edge, RADIAL_GRID_N)
    outer = np.linspace(edge, 1.25 * edge, RADIAL_GRID_N // 8)[1:]
    grid = np.concatenate([inner, outer])

    # g = G - G(edge) with G' = g'; the last grid point is edge
    g_in = (4 * a * (np.log(c / (c - inner)) - spence(1 - inner / c))
            - const * inner * inner / 2)
    g_in -= g_in[-1]
    h_in = q * q * (2 * np.log(inner / edge) + 1 - (inner / edge) ** 2)
    y_in = inner ** 2 + g_in + h_in
    gamma_in = a / (c - inner) ** 2
    lap_in = 4.0 + 4 * gamma_in - 4 * mass / (math.pi * edge ** 2) \
        - 4 * q * q / edge ** 2
    rhs_in = 4 * gamma_in

    gamma_out = a / (c - np.minimum(outer, c - 1e-9)) ** 2

    # finite limit of y - 2 q^2 log r at the origin
    sing = y_in - 2 * q * q * np.log(inner)
    origin_limit = float(sing[0])
    if not math.isfinite(origin_limit) or abs(sing[1] - sing[0]) > 1.0:
        raise VerificationError(
            f"radial weight (q={q}, a={a}) lost its smooth origin limit")

    return RadialWeight(
        q=float(q), a=float(a), grid=grid,
        gamma=np.concatenate([gamma_in, gamma_out]),
        g=np.concatenate([g_in, np.zeros(outer.size)]),
        h=np.concatenate([h_in, np.zeros(outer.size)]),
        y=np.concatenate([y_in, outer ** 2]),
        laplacian_lhs=np.concatenate([lap_in, np.full(outer.size, 4.0)]),
        laplacian_rhs=np.concatenate([rhs_in, np.zeros(outer.size)]),
        mass=mass,
        origin_limit=origin_limit,
    )


# ---------------------------------------------------------------------------
# cut-off interpolant
# ---------------------------------------------------------------------------

def _smoothstep(x: np.ndarray | float) -> np.ndarray | float:
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))

# max slope of the quintic smoothstep on [0, 1]
_SMOOTHSTEP_MAX_SLOPE = 15.0 / 8.0


def cutoff_interpolant_field(divisor: Divisor, payloads, z: complex,
                             margin: float) -> tuple[complex, float]:
    """Evaluate the glued interpolant F(z) = sum_node (translated payload)
    * eta(|z - center| - (radius + margin)) and the pointwise bound
    sup|eta'| * |payload(z)| on the transition annulus (0 elsewhere).

    eta is the fixed quintic smoothstep over the margin-wide band, so
    sup|eta'| = 1.875 / margin; requires the expanded discs to be pairwise
    disjoint.  Weight parameter must be 1 (rescale first)."""
    if margin <= 0:
        raise ParameterError(f"margin must be positive, got {margin!r}")
    if abs(divisor.alpha - 1.0) > 1e-12:
        raise ParameterError("cut-off field assumes alpha = 1; rescale first")
    ((ok, worst),) = disjointness_check(divisor, [margin])
    if not ok:
        raise PreconditionError(
            f"expanded discs overlap: pair {worst[:2]} by {worst[2]:.3g}")
    if len(payloads) != len(divisor):
        raise ParameterError("one payload coefficient vector per node required")
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    sup_slope = _SMOOTHSTEP_MAX_SLOPE / margin
    F = 0.0 + 0.0j
    bound = 0.0
    depth = np.abs(z - divisor.centers) - (divisor.radii + margin)
    for k in np.flatnonzero(depth < 0):
        lam, s = complex(divisor.centers[k]), float(depth[k])
        coeffs = np.asarray(getattr(payloads[k], "coeffs", payloads[k]),
                            dtype=complex)
        # sum_j c_j w^j / sqrt(j!) is e^{|w|^2/2} c . (coherent vector at
        # conj w); that factor joins the exponent
        w = z - lam
        jets = complex(coeffs @ coherent_coefficients(w.conjugate(),
                                                      coeffs.size))
        Q = cmath.exp(lam.conjugate() * z
                      - (abs(lam) ** 2 - abs(w) ** 2) / 2) * jets
        if s <= -margin:
            eta = 1.0
        else:
            eta = 1.0 - _smoothstep((s + margin) / margin)
            bound = max(bound, sup_slope * abs(Q))
        F += Q * eta
    return F, bound
