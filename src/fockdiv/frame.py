"""Truncated frame bounds, interpolation constants, and the necessity-side
experiments.

All computations live on the degree-truncated coefficient space; bounds are
therefore one-sided estimates of the untruncated quantities and every report
carries the truncation tail."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .divisor import Divisor
from .errors import (NotInterpolatingError, ParameterError, ResourceError,
                     VerificationError)
from .fock import CoefVec, coherent_coefficients, displacement_matrix, \
    kernel_sampling_energy

# Caps and thresholds (see module design notes in README).
MAX_ENTRIES = 80_000_000
RANK_RTOL = 1e-12


@dataclass(frozen=True)
class RestrictionMatrix:
    """Stacked restriction functionals: row (node, k) holds
    (<e_j, T_center e_k>)_j, so applying the matrix to a coefficient vector
    yields the jet data (<f, T_center e_k>)."""

    matrix: np.ndarray
    row_index: tuple  # ((node_index, k), ...) in input order, k ascending
    truncation: int
    tail_bound: float

    @property
    def nrows(self) -> int:
        return self.matrix.shape[0]

    def apply(self, a: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(a, dtype=complex)


@dataclass(frozen=True)
class FrameReport:
    """Frame bounds and interpolation constant of the truncated restriction
    matrix R.  lower (A) is an upper estimate of the true lower frame
    bound, upper (B) a lower estimate of the true upper bound (truncation
    shrinks the test space); mx (M_X) is inf when R has more rows than
    columns or is rank deficient."""

    truncation: int
    lower: float
    upper: float
    tail_bound: float
    test_space: str = "coefficient vectors of degree < truncation"
    mx: float = math.inf

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper + 1e-12:
            raise VerificationError(
                f"frame bounds out of order: {self.lower}, {self.upper}")

    def csv_row(self) -> str:
        return (f"{self.truncation},{self.lower:.12g},{self.upper:.12g},"
                f"{self.tail_bound:.6g}")


def _scaled_centers(divisor: Divisor) -> np.ndarray:
    # Internal weight normalization: center z at weight alpha behaves like
    # sqrt(alpha) z at weight 1, multiplicities unchanged.
    return math.sqrt(divisor.alpha) * divisor.centers


def restriction_matrix(divisor: Divisor, truncation: int) -> RestrictionMatrix:
    """Assemble the (sum of multiplicities) x truncation restriction matrix."""
    if truncation < 1:
        raise ParameterError(f"truncation must be positive, got {truncation}")
    total = divisor.total_multiplicity
    if total * truncation > MAX_ENTRIES:
        raise ResourceError(
            f"restriction matrix would hold {total * truncation} entries "
            f"(cap {MAX_ENTRIES})")
    centers = _scaled_centers(divisor)
    rows = np.empty((total, truncation), dtype=complex)
    index = []
    tail = 0.0
    pos = 0
    for node, (z, m) in enumerate(zip(centers, divisor.mults)):
        m = int(min(m, truncation))
        d = displacement_matrix(z, truncation, ncols=m)
        rows[pos:pos + m, :] = d.entries.conj().T
        tail = max(tail, d.tail_bound)
        index.extend((node, k) for k in range(m))
        pos += m
        for k in range(m, int(divisor.mults[node])):
            # jets beyond the truncation cannot be represented; keep zero
            # rows so the shape stays sum(m)
            rows[pos, :] = 0.0
            index.append((node, k))
            pos += 1
    return RestrictionMatrix(matrix=rows, row_index=tuple(index),
                             truncation=truncation, tail_bound=tail)


def frame_bounds(divisor: Divisor, truncation: int) -> FrameReport:
    """A, B and M_X from one restriction matrix R.  With more rows than
    columns M_X is inf and A, B are the extreme eigenvalues of G = R* R;
    otherwise one SVD gives B = sigma_max^2, A = sigma_min^2 (0 for wide
    R) and M_X^2 = max_i (R R*)^{-1}_{ii}.  One rank test flags both: if
    sigma_min <= RANK_RTOL sigma_max, then A = 0 and M_X = inf."""
    if len(divisor) == 0:
        return FrameReport(truncation=truncation, lower=0.0, upper=0.0,
                           tail_bound=0.0)
    rmat = restriction_matrix(divisor, truncation)
    if rmat.nrows > truncation:
        vals = np.linalg.eigvalsh(rmat.matrix.conj().T @ rmat.matrix)
        return FrameReport(truncation=truncation,
                           lower=max(float(vals[0]), 0.0),
                           upper=float(vals[-1]), tail_bound=rmat.tail_bound)
    # QR-iteration SVD: divide and conquer (gesdd) fails to converge on
    # some of the near-singular square R of the dichotomy family
    u, svals, _ = linalg.svd(rmat.matrix, full_matrices=False,
                             lapack_driver="gesvd")
    lower, mx = 0.0, math.inf
    if svals[-1] > RANK_RTOL * svals[0]:
        if rmat.nrows == truncation:
            lower = float(svals[-1] ** 2)
        gram_inv_diag = (np.abs(u) ** 2 / svals[None, :] ** 2).sum(axis=1)
        mx = math.sqrt(gram_inv_diag.max())
    return FrameReport(truncation=truncation, lower=lower,
                       upper=float(svals[0] ** 2), tail_bound=rmat.tail_bound,
                       mx=mx)


def interpolation_constant(divisor: Divisor, truncation: int) -> float:
    """Largest norm among the minimal-norm interpolants of the elementary
    unit data vectors: M_X(N)^2 = max_i (G^{-1})_{ii} with G = R R* the
    jet Gram matrix.  Nonincreasing in the truncation; its limit
    lower-bounds the true interpolation constant."""
    total = divisor.total_multiplicity
    if total > truncation:
        raise NotInterpolatingError(
            f"total multiplicity {total} exceeds truncation {truncation}")
    mx = frame_bounds(divisor, truncation).mx
    if math.isinf(mx):
        raise NotInterpolatingError(
            f"restriction matrix is rank deficient at truncation "
            f"{truncation} (sigma_min/sigma_max <= {RANK_RTOL:g})")
    return mx


def sampling_defect_path(divisor: Divisor, path) -> list[tuple[float, float]]:
    """(distance to the union of node discs, kernel sampling energy) at each
    path point; exhibits the collapse of the lower frame bound when the
    expanded discs fail to cover."""
    out = []
    radii = divisor.radii
    for z in path:
        z = complex(z)
        if len(divisor) == 0:
            out.append((math.inf, 0.0))
            continue
        dist = float(np.max([np.min(np.abs(z - divisor.centers) - radii), 0.0]))
        out.append((dist, kernel_sampling_energy(z, divisor)))
    return out


def interpolation_witness(divisor: Divisor, w: complex, truncation: int
                          ) -> float:
    """Norm of the minimal-norm truncated solution of: vanish to full order
    at the first node, match the jet of the normalized kernel at w on the
    second node.  A lower bound for the interpolation constant; grows as
    the two discs overlap more deeply."""
    if len(divisor) < 2:
        raise ParameterError("witness needs at least two nodes")
    rmat = restriction_matrix(divisor, truncation)
    centers = _scaled_centers(divisor)
    w = math.sqrt(divisor.alpha) * complex(w)
    kernel = coherent_coefficients(w, truncation)
    m0, m1 = int(divisor.mults[0]), int(divisor.mults[1])
    d1 = displacement_matrix(centers[1], truncation, ncols=m1)
    rhs = np.zeros(rmat.nrows, dtype=complex)
    rhs[m0:m0 + m1] = d1.apply_adjoint(kernel)
    rows = rmat.matrix[:m0 + m1]
    sol, _, rank, svals = np.linalg.lstsq(rows, rhs[:m0 + m1], rcond=RANK_RTOL)
    residual = np.linalg.norm(rows @ sol - rhs[:m0 + m1])
    if residual > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise VerificationError(
            f"witness problem infeasible at truncation {truncation} "
            f"(residual {residual:.3g})")
    return float(np.linalg.norm(sol))


def kernel_coefvec(z: complex, truncation: int, alpha: float = 1.0) -> CoefVec:
    """Normalized kernel T_z 1 as a truncated coefficient vector."""
    return CoefVec(coherent_coefficients(math.sqrt(alpha) * complex(z),
                                         truncation))
