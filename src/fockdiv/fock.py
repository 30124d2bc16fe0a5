"""Coefficient-space model of the Gaussian-weighted entire-function space.

Everything is expressed in the orthonormal monomial basis
e_k(z) = z^k / sqrt(k!) (weight parameter normalized to 1 internally;
callers rescale centers by sqrt(alpha)).  The weighted translation T_z
acts isometrically; its matrix in the basis is built in double precision
from the coherent vector through a normalized Laguerre recurrence, so
entries carry no truncation error beyond floating point rounding.  One
call builds the matrices of a whole array of centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, ParameterError
from .specfun import find_tail_ratio_t, omega, sigma


@dataclass(frozen=True)
class CoefVec:
    """Finite coefficient vector in the orthonormal basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ParameterError("coefficients must form a nonempty 1-D vector")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree_bound(self) -> int:
        return self.coeffs.size

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)

    @classmethod
    def basis(cls, k: int, n: int) -> "CoefVec":
        if not 0 <= k < n:
            raise ParameterError(f"basis index {k} out of range for size {n}")
        c = np.zeros(n, dtype=complex)
        c[k] = 1.0
        return cls(c)


def _phase(z: np.ndarray, n: int) -> np.ndarray:
    """e^{-ik arg z}, k < n, per center from n/32 + 32 exponentials: the
    product of e^{-i(k mod 32) arg z} and e^{-i 32 floor(k/32) arg z}."""
    angle = -1j * np.angle(z)[..., None, None]
    return (np.exp(angle * np.arange(0, n, 32)[:, None])
            * np.exp(angle * np.arange(32))).reshape(*z.shape, -1)[..., :n]


def _modulus(z: np.ndarray, n: int) -> np.ndarray:
    """|z|^k e^{-|z|^2/2} / sqrt(k!) for k < n, one row per center, in the
    log domain so large |z| does not overflow; one (centers x n) buffer."""
    r, k = np.abs(z)[..., None], np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = k * np.log(r)
    # z = 0 leaves e_0 alone: k log|z| is 0 at k = 0, -inf beyond
    out[..., 0] = 0.0
    out -= 0.5 * gammaln(k + 1)
    out -= 0.5 * r ** 2
    return np.exp(out, out=out)


def coherent_coefficients(z, n: int) -> np.ndarray:
    """Coefficients of T_z 1: conj(z)^k e^{-|z|^2/2} / sqrt(k!), column 0
    of displacement_matrix.  z is one center (result shape (n,)) or an
    array of them (one row of n coefficients per center)."""
    return displacement_matrix(z, n, 1)[..., 0]


def displacement_matrix(z, n: int, ncols: int | None = None) -> np.ndarray:
    """Matrix D with D[k, j] = <T_z e_j, e_k>, k < n, j < ncols, built from
    its real form at r = |z|.  z is one center (result shape (n, ncols))
    or an array of them (one matrix per center, shape (..., n, ncols)).

    Column 0 is the coherent vector.  Below the diagonal, k = j + d,
    D[k, j](r) = sqrt(j!/k!) r^d e^{-r^2/2} L_j^{(d)}(r^2) (Cahill and
    Glauber); the normalized Laguerre recurrence in j runs on these scaled
    entries, vectorized over d and over the centers, so nothing overflows
    or cancels catastrophically.  Above the diagonal
    D[k, j] = (-1)^{j-k} D[j, k], and the phase of z enters as
    e^{-i(k-j) arg z}; a z >= 0 of real type has every phase 1 and gets D
    real, without the complex products.  Row truncation is exact: row k
    of column j+1 only references rows < k of columns j and j-1, so the
    entries do not depend on n."""
    if n < 1:
        raise ParameterError(f"matrix size must be positive, got {n}")
    on_axis = np.isrealobj(z) and bool(np.all(np.asarray(z) >= 0))
    z = np.asarray(z, dtype=complex)
    ncols = n if ncols is None else int(ncols)
    if not 1 <= ncols <= n:
        raise ParameterError(f"ncols must lie in [1, {n}], got {ncols}")
    modulus, phase = _modulus(z, n), _phase(z, n)
    if ncols == 1:  # in place: a view of rows padded to 32 entries
        phase *= modulus
        return phase[..., None].real if on_axis else phase[..., None]
    x = np.abs(z)[..., None] ** 2
    real = np.zeros((*z.shape, n, ncols))
    # f[d] = D[j + d, j](r) and step[d] = f[d] - D[j - 1 + d, j - 1](r).
    # With s_j = sqrt(j (j + d)) and u_j = (sqrt(j + d) - sqrt(j))^2 / 2 the
    # recurrence reads s_{j+1} step' = (u_j + u_{j+1} - x) f + s_j step:
    # no cancellation near the double root at small r^2, where the plain
    # form loses ~ j^2 ulps.
    f = step = modulus
    real[..., 0] = f
    root = np.sqrt(np.arange(n + 1))
    for j in range(ncols - 1):
        m = n - j - 1
        rj, rj1 = root[j:j + m], root[j + 1:j + 1 + m]
        u = 0.5 * ((rj - root[j]) ** 2 + (rj1 - root[j + 1]) ** 2)
        step = ((u - x) * f[..., :m] + root[j] * rj * step[..., :m]) \
            / (root[j + 1] * rj1)
        f = f[..., :m] + step
        real[..., j + 1:, j + 1] = f
    lo, hi = np.triu_indices(ncols, 1)
    real[..., lo, hi] = (1 - 2 * ((hi - lo) % 2)) * real[..., hi, lo]
    if on_axis:
        return real
    return real * phase[..., :, None] * phase[..., None, :ncols].conj()


def restriction_values(f: CoefVec, lam: complex, m: int) -> np.ndarray:
    """(<f, T_lam e_k>)_{k<m}."""
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    n = f.degree_bound
    if m > n:
        raise ParameterError(f"m={m} exceeds truncation degree {n}")
    return displacement_matrix(lam, n, ncols=m).conj().T @ f.coeffs


def quotient_norm_sq(f: CoefVec, lam: complex, m: int) -> float:
    """Squared distance from f to the functions vanishing to order m at lam."""
    v = restriction_values(f, lam, m)
    return float(np.vdot(v, v).real)


def basis_disc_norm(k: int, radius: float) -> float:
    """Mass of |e_k|^2 d(mu) inside the centered disc of the given radius."""
    if radius < 0:
        raise DomainError(f"radius must be nonnegative, got {radius!r}")
    return sigma(k, radius * radius)


def kernel_sampling_energy(z: complex, divisor) -> float:
    """Total quotient-norm energy of the normalized kernel T_z 1 against the
    divisor: sum over nodes of omega_{m-1}(alpha |z - center|^2)."""
    rho_sq = divisor.alpha * np.abs(z - divisor.centers) ** 2
    return float(omega(divisor.mults - 1, rho_sq).sum())


def disc_local_norm_sq(f: CoefVec, center: complex, radius: float) -> float:
    """Integral of |f|^2 d(mu) over the disc D(center, radius), up to the
    truncation tail: recenter and weight squared coefficients by the basis
    disc masses."""
    n = f.degree_bound
    weights = basis_disc_norm(np.arange(n), radius)
    b = f.coeffs if center == 0 else restriction_values(f, center, n)
    return float(np.sum(np.abs(b) ** 2 * weights))


def local_concentration_check(f: CoefVec, m: int, eta: float
                              ) -> tuple[bool, float]:
    """Check the local-concentration mechanism: if the first m squared
    coefficients carry at most eta/2 and the disc D(sqrt(m)) carries at
    most 1, a slightly smaller disc carries at most eta.

    Scans the smallest shrink a on a 0.1 grid achieving the eta bound and
    reports whether the uniform a(eta) given by the tail-ratio shift
    suffices.  Returns (passes, a_used)."""
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"eta must lie in (0, 1], got {eta!r}")
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    head = float(np.sum(np.abs(f.coeffs[:m]) ** 2))
    if head > eta / 2 + 1e-12:
        raise ParameterError(
            f"first {m} squared coefficients carry {head:.3g} > eta/2")
    if disc_local_norm_sq(f, 0.0, math.sqrt(m)) > 1.0 + 1e-9:
        raise ParameterError("disc norm on D(sqrt(m)) exceeds 1")
    # The tail-ratio shift guarantees sigma_k(m - a sqrt(m)) <=
    # 2 epsilon sigma_k(m); eta/4 leaves room for that factor of 2.
    a_pred = find_tail_ratio_t(eta / 4)
    root = math.sqrt(m)
    i = 0
    while (a := i / 10) < root:  # the grid point itself: a += 0.1 drifts
        if disc_local_norm_sq(f, 0.0, root - a) <= eta:
            return a <= a_pred + 1e-12, a
        i += 1
    return False, float("nan")
