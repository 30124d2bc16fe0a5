"""Incomplete-gamma tail functions and the radial profile t^2/2 - m log t.

The lower tail sigma_k and upper tail omega_k are normalized so that
sigma_k(x) + omega_k(x) = 1: they are the regularized incomplete gamma
functions P(k + 1, x) and Q(k + 1, x), each evaluated directly by
scipy.special, so neither loses digits to 1 - the other.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import DomainError, ParameterError, VerificationError

# Step of the t grid in find_tail_ratio_t.
T_STEP = 0.05


def _check_kx(k, x):
    k, x = np.asarray(k), np.asarray(x, dtype=float)
    if np.any(np.floor(k) != k) or np.any(k < 0):
        raise DomainError(f"k must be a nonnegative integer, got {k!r}")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise DomainError(f"x must be a finite nonnegative real, got {x!r}")
    return k, x


def omega(k, x):
    """Upper tail e^{-x} sum_{s<=k} x^s/s! = Q(k + 1, x), for scalars or
    arrays of k and x."""
    k, x = _check_kx(k, x)
    return gammaincc(k + 1, x)


def sigma(k, x):
    """Lower tail (1/k!) int_0^x y^k e^{-y} dy = P(k + 1, x), for scalars
    or arrays of k and x."""
    k, x = _check_kx(k, x)
    return gammainc(k + 1, x)


def _check_tail_args(t: float, k_max: int) -> None:
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"t must be a finite nonnegative real, got {t!r}")
    if k_max < 10:
        raise ParameterError(f"k_max must be at least 10, got {k_max}")


def _tail_floor(vals: np.ndarray, label: str, ratio: float) -> float:
    """Minimum of the tail values vals, which must be positive and must
    not decay: the second half's minimum is at least ratio times the
    first half's (the bound is supposed to stabilize, not vanish)."""
    eps = float(vals.min())
    if eps <= 0.0:
        raise VerificationError(f"tail lower bound ({label}) is not positive")
    half = vals.size // 2
    if half >= 1:
        lo, hi = float(vals[:half].min()), float(vals[half:].min())
        if hi < ratio * lo:
            raise VerificationError(
                f"tail lower bound ({label}) decays: first half {lo:.3g}, "
                f"second half {hi:.3g}")
    return eps


def verify_tail_lower_a(t: float, k_max: int) -> tuple[float, int]:
    """Empirical lower bound for sigma_k(k - t sqrt(k)) over k0 <= k <= k_max,
    k0 the smallest k making the argument positive; see _tail_floor."""
    _check_tail_args(t, k_max)
    k0 = int(math.floor(t * t)) + 1
    if k0 > k_max:
        raise ParameterError(
            f"k - t*sqrt(k) <= 0 for every k <= {k_max}: empty range")
    ks = np.arange(k0, k_max + 1)
    return _tail_floor(sigma(ks, ks - t * np.sqrt(ks)), "a", 0.9), k0


def verify_tail_lower_b(t: float, k_max: int) -> float:
    """Empirical lower bound for omega_k(k + t sqrt(k)) over 0 <= k <= k_max."""
    _check_tail_args(t, k_max)
    ks = np.arange(0, k_max + 1)
    return _tail_floor(omega(ks, ks + t * np.sqrt(ks)), "b", 0.8)


def find_tail_ratio_t(epsilon: float) -> float:
    """Smallest grid t making the shifted integrand dominate:
    (y - t sqrt(y))^k e^{-(y - t sqrt(y))} <= epsilon * y^k e^{-y} for every
    pair t^2 <= y <= k.  Integrating yields
    sigma_k(m - t sqrt(m)) <= 2 epsilon sigma_k(m).

    The log ratio at (y, k) is t sqrt(y) + k log(1 - t/sqrt(y)); its log
    factor is <= 0, so the worst k is k = y, where the series
    t sqrt(y) + y log(1 - t/sqrt(y)) = -t^2/2 - sum_{n>=3} t^n y^{1-n/2}/n
    lies below its large-y limit -t^2/2.  So t is the smallest multiple of
    T_STEP with -t^2/2 <= log(epsilon), close to sqrt(2 log(1/epsilon))."""
    if not (0.0 < epsilon <= 1.0):
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    log_eps, i = math.log(epsilon), 0
    while -(i * T_STEP) * (i * T_STEP) / 2.0 > log_eps + 1e-12:
        i += 1
    return i * T_STEP


def phi(m: float, t: float) -> float:
    """Radial profile t^2/2 - m log t (minimized at t = sqrt(m))."""
    if m <= 0:
        raise DomainError(f"m must be positive, got {m!r}")
    if t <= 0:
        raise DomainError(f"t must be positive, got {t!r}")
    return t * t / 2.0 - m * math.log(t)
