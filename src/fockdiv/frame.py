"""Truncated frame bounds, interpolation constants, and the necessity-side
experiments.

All computations live on the degree-truncated coefficient space; bounds are
therefore one-sided estimates of the untruncated quantities and every report
carries the truncation tail."""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import cython_blas

from .divisor import (_CENTER_LIMIT, Divisor, _check_limit, _check_size,
                      _margin_field)
from .errors import NotInterpolatingError, ParameterError, VerificationError
from .fock import coherent_coefficients, displacement_matrix, \
    kernel_sampling_energy

# Caps and thresholds (see module design notes in README).
MAX_ENTRIES = 80_000_000
# Peak bytes of symmetric_pair_report per entry of its real N x m table
# (24.4-25.1 at m = 1,000-2,000); its cap is MAX_ENTRIES complex entries.
PAIR_BYTES = 26
RANK_RTOL = 1e-12
# Rows per block: bounds the temporaries of the row build and of the Gram
# and squared-norm sums, whatever the node count.
ROW_BLOCK = 256
# A block enters the Gram on the columns holding an entry with
# |P_ij|^2 >= WINDOW_FLOOR max|P|^2, i.e. |P_ij| >= eps^2 max|P|.
WINDOW_FLOOR = np.finfo(float).eps ** 4


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
    mx: float = math.inf

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper + 1e-12:
            raise VerificationError(
                f"frame bounds out of order: {self.lower}, {self.upper}")

    def csv_row(self) -> str:
        return (f"{self.truncation},{self.lower:.12g},{self.upper:.12g},"
                f"{self.tail_bound:.6g}")


def _row_blocks(divisor: Divisor, truncation: int):
    """(row indices, jet orders, conj(R) on those rows), one block of at
    most ROW_BLOCK rows (or one node's) per displacement_matrix call: a
    node of multiplicity m gives the first min(m, truncation) columns of
    its displacement matrix, unconjugated, as its rows.  The nodes of each
    multiplicity run by increasing |center| (stable), so a block's rows
    peak at nearby degrees: the row of a node lambda lives near degree
    |lambda|^2.  The generator keeps no reference to a block it yielded.
    A normalized center beyond _CENTER_LIMIT raises DomainError before
    any block is built."""
    # Internal weight normalization: center z at weight alpha behaves like
    # sqrt(alpha) z at weight 1, multiplicities unchanged.  Finite, as
    # |z| <= _CENTER_LIMIT and sqrt(alpha) < 1.4e154.
    centers = math.sqrt(divisor.alpha) * divisor.centers
    _check_limit(centers, "normalized centers sqrt(alpha) |center|")
    mults = divisor.mults
    first_row = np.cumsum(mults) - mults
    for m in np.unique(mults):
        nodes = np.flatnonzero(mults == m)
        nodes = nodes[np.argsort(np.abs(centers[nodes]), kind="stable")]
        width = int(min(m, truncation))
        per_block = max(1, ROW_BLOCK // width)
        for i in range(0, nodes.size, per_block):
            block = nodes[i:i + per_block]
            yield ((first_row[block, None] + np.arange(width)).ravel(),
                   np.tile(np.arange(width), block.size),
                   displacement_matrix(centers[block], truncation, width)
                   .swapaxes(1, 2).reshape(-1, truncation))


def restriction_matrix(divisor: Divisor, truncation: int) -> np.ndarray:
    """The (sum of multiplicities) x truncation restriction matrix, the
    row blocks frame_sweep streams, stacked: row (node, k) holds
    (<e_j, T_center e_k>)_j, so applying it to a coefficient vector yields
    the jet data (<f, T_center e_k>).  Rows run over the nodes in input
    order, k ascending.  Jets of order >= truncation cannot be represented
    and keep zero rows."""
    if truncation < 1:
        raise ParameterError(f"truncation must be positive, got {truncation}")
    total = divisor.total_multiplicity
    _check_size(total * truncation, "restriction matrix entries",
                MAX_ENTRIES)
    rows = np.zeros((total, truncation), dtype=complex)
    for index, _, block in _row_blocks(divisor, truncation):
        rows[index] = block.conj()
    return rows


def _row_mass(mass: np.ndarray, cuts: list[int]) -> np.ndarray:
    """Squared norm of each row's first N entries, one column per N in the
    ascending cuts (the last one mass's width), summed over the segments
    between them; mass holds the squared moduli of the rows' entries."""
    return np.cumsum(np.add.reduceat(mass, [0, *cuts[:-1]], axis=1), axis=1)


def _blas_zherk():
    """BLAS zherk (the one scipy.linalg.blas wraps) as a C function of raw
    pointers: with the leading dimensions of its own, it updates a
    sub-block of a larger Gram in place, where the f2py wrapper copies
    any sub-block it is given, in and out.  The pointer comes from the
    table of C functions that the Cython module cython_blas exports,
    each named by its C signature, checked here before any call."""
    capsule = cython_blas.__pyx_capi__["zherk"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    if not name.startswith(b"void (char *, char *, int *, int *, "):
        raise ImportError(f"unexpected zherk signature {name!r}")
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    c_int, c_double = ctypes.POINTER(ctypes.c_int), \
        ctypes.POINTER(ctypes.c_double)
    return ctypes.CFUNCTYPE(
        None, ctypes.c_char_p, ctypes.c_char_p, c_int, c_int, c_double,
        ctypes.c_void_p, c_int, c_double, ctypes.c_void_p, c_int)(address)


_ZHERK = _blas_zherk()


def _herk(gram: np.ndarray, part: np.ndarray, lo: int, hi: int) -> None:
    """gram[lo:hi, lo:hi] += part[:, lo:hi]^T conj(part[:, lo:hi]) in
    place, lower triangle: with gram Fortran-ordered and the rows of part
    contiguous (part is copied if they are not), the window of each is a
    Fortran matrix at an offset."""
    lda, pad = divmod(part.strides[0], part.itemsize)
    if not (part.dtype == complex and part.strides[1] == part.itemsize
            and pad == 0 and lda >= part.shape[1]):
        part = np.ascontiguousarray(part, dtype=complex)
        lda = part.shape[1]
    if not (gram.flags.f_contiguous and gram.dtype == complex
            and 0 <= lo < hi <= min(*gram.shape, part.shape[1])):
        raise ValueError("zherk operands do not fit the window")
    n, k, lda, ldc = (ctypes.c_int(v) for v in
                      (hi - lo, len(part), lda, len(gram)))
    one, ref = ctypes.c_double(1.0), ctypes.byref
    _ZHERK(b"L", b"N", ref(n), ref(k), ref(one),
           part.ctypes.data + part.itemsize * lo, ref(lda), ref(one),
           gram.ctypes.data + gram.itemsize * lo * (len(gram) + 1), ref(ldc))


def _tail(mass: np.ndarray) -> float:
    """Largest unit mass a represented jet functional loses to the
    truncation, from the masses its rows keep (or the smallest of them)."""
    return min(1.0, float(np.max(1.0 - mass, initial=0.0)))


def _svd_report(truncation: int, blocks, tail: float) -> FrameReport:
    """Report of R = sqrt(K) Q blockdiag(blocks) Pi, K = len(blocks), with
    Q unitary and Pi a column permutation: one SVD per block gives B = K
    max sigma_max^2, A = K min sigma_min^2 (0 unless R is square, i.e.
    every block is) and M_X^2 = max_i sum_blocks (|U|^2 / S^2)_i / K^2,
    i.e. max_i (R R*)^{-1}_{ii}.
    One rank test flags both: if sigma_min <= RANK_RTOL sigma_max, then
    A = 0 and M_X = inf."""
    k = len(blocks)
    # QR-iteration SVD: divide and conquer (gesdd) fails to converge on
    # some of the near-singular square R of the dichotomy family
    svds = [linalg.svd(b, full_matrices=False, lapack_driver="gesvd")[:2]
            for b in blocks]
    smax, smin = max(s[0] for _, s in svds), min(s[-1] for _, s in svds)
    lower, mx = 0.0, math.inf
    if smin > RANK_RTOL * smax:
        if all(b.shape[0] == b.shape[1] for b in blocks):
            lower = k * float(smin) ** 2
        mx = math.sqrt(sum((np.abs(u) ** 2 / s ** 2).sum(axis=1)
                           for u, s in svds).max() / k ** 2)
    return FrameReport(truncation, lower, k * float(smax) ** 2, tail, mx)


def frame_sweep(divisor: Divisor, truncations) -> list[FrameReport]:
    """A, B and M_X at each truncation N, one report per N in input order,
    from one pass over the row blocks of the restriction matrix R at the
    largest N.  Its entries do not depend on N (row truncation is exact),
    so R(N) is its first N columns with the rows of order k >= N set to
    zero; each block updates every N's smallest live-row mass.

    With more rows than columns M_X is inf and A, B are the extreme
    eigenvalues of G_N = R(N)* R(N), the leading N x N block of one
    Hermitian Gram matrix (lower triangle) as wide as the largest such N.
    Each row enters it once, when it becomes live (k < N): at once, or
    held until the ascending walk over the N reaches it; A <= N eps B,
    below eigvalsh's resolution, reads 0.  Otherwise R, at most N x N, is
    stored, conjugated, and R(N) goes to _svd_report as one block.
    Memory: at most N^2 each for the stored R and the Gram, and the held rows.

    A part P of r rows (a block's live rows, or held rows as they become
    live) enters the Gram only on [lo, hi), the fewest columns that hold
    every entry with |P_ij| >= eps^2 max|P|.  The dropped rest E has
    ||E||_F <= eps^2 sqrt(r N) max|P| <= eps^2 sqrt(r N B), as
    max|P| <= ||P||_2 <= sqrt(B) with B the largest eigenvalue at the
    widest tall N, and P* P moves by P'* E + E* P' + E* E, P' = P - E.  So
    by Weyl every eigenvalue of every G_N moves by at most
    3 eps^2 B sum sqrt(r N) <= 3 eps^2 B sqrt(c M N) over c parts of M
    rows in all: 7e-28 B on the 3,000-node lattice at N = 600, some 1e14
    times below N eps B.  The floor is relative to each part's largest
    entry, so nodes far from the origin keep their small B."""
    truncations = [int(n) for n in truncations]
    if min(truncations, default=1) < 1:
        raise ParameterError(
            f"truncation must be positive, got {min(truncations)}")
    if len(divisor) == 0 or not truncations:
        return [FrameReport(truncation=n, lower=0.0, upper=0.0,
                            tail_bound=0.0) for n in truncations]
    cuts = sorted(set(truncations))
    top, total = cuts[-1], divisor.total_multiplicity
    tall = [n for n in cuts if total > n]
    first, width = (tall[0], tall[-1]) if tall else (0, 0)
    entries = total * top * (total <= top) + width * (width + int(
        np.clip(np.minimum(divisor.mults, width) - first, 0, None).sum()))
    _check_size(entries, "frame sweep entries", MAX_ENTRIES)
    rows = np.zeros((total, top), dtype=complex) if total <= top else None
    gram = np.zeros((width, width), dtype=complex, order="F")
    held, least = [], np.ones(len(cuts))  # held: (orders, rows, |rows|^2)

    def enter(part, mass):  # mass = |part|^2; see the window rule above
        if width and len(part):
            peak = mass[:, :width].max(axis=0)
            live = np.flatnonzero(peak >= WINDOW_FLOOR * peak.max())
            _herk(gram, part, int(live[0]), int(live[-1]) + 1)
    for index, orders, block in _row_blocks(divisor, top):
        if rows is not None:
            rows[index] = block.conj()
        mass = np.abs(block)
        mass *= mass
        least = np.minimum(least, np.where(
            orders[:, None] < np.array(cuts),
            _row_mass(mass, cuts), 1.0).min(axis=0))
        late = (orders >= first) & (orders < width)
        if late.any():
            held.append((orders[late], block[late, :width],
                         mass[late, :width]))
        if not (orders < first).all():
            block, mass = block[orders < first], mass[orders < first]
        enter(block, mass)
        del block, mass  # freed before the next block is built
    reports, prev = {}, first
    for n, tail in zip(cuts, map(_tail, least)):
        if n not in tall:  # total multiplicity <= N, so no row is cut
            reports[n] = _svd_report(n, [rows[:, :n]], tail)
            continue
        for orders, part, mass in held:
            live = (orders >= prev) & (orders < n)
            enter(part[live], mass[live])
        prev = n
        # scipy's, on zherk's OpenBLAS: numpy's wheel has its own, and its
        # idle threads slowed each eigensolve 3x on two cores
        vals = linalg.eigvalsh(gram[:n, :n], driver="evd")
        upper = float(vals[-1])
        lower = float(vals[0]) if vals[0] > n * np.finfo(float).eps * upper \
            else 0.0
        reports[n] = FrameReport(n, lower, upper, tail)
    return [reports[n] for n in truncations]


def frame_bounds(divisor: Divisor, truncation: int) -> FrameReport:
    """A, B and M_X from one restriction matrix R: frame_sweep at one
    truncation."""
    return frame_sweep(divisor, [truncation])[0]


def symmetric_pair_report(a: float, mult: int, truncation: int
                          ) -> FrameReport:
    """frame_bounds of the nodes -a and +a (0 < a <= _CENTER_LIMIT, the
    limit Divisor puts on centers; weight 1), each of multiplicity m = mult,
    at N = truncation >= 2m.  The -a rows are (-1)^(j+k) times the real +a
    rows, so R = sqrt(2) Q blockdiag(E, O) Pi (Q orthogonal; E, O the even
    and odd columns of the +a rows): two real m x N/2 SVDs in _svd_report,
    not one complex 2m x N.  Tail as in frame_sweep."""
    if not 0 < a <= _CENTER_LIMIT or truncation < 2 * mult:
        raise ParameterError(f"symmetric pair needs 0 < a <= "
                             f"{_CENTER_LIMIT:g}, truncation >= 2 mult; "
                             f"got {a}, {mult}, {truncation}")
    _check_size(PAIR_BYTES * truncation * mult, "symmetric pair bytes",
                16 * MAX_ENTRIES)
    rows = displacement_matrix(a, truncation, mult).T  # real: a > 0
    return _svd_report(truncation, [rows[:, 0::2], rows[:, 1::2]],
                       _tail((rows ** 2).sum(axis=1)))


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
    expanded discs fail to cover.  The distance is the margin field of
    every node, clipped at 0; a path point beyond _CENTER_LIMIT raises
    DomainError before any scan."""
    path = np.array([complex(z) for z in path], dtype=complex)
    _check_limit(path, "path points")
    if len(divisor) == 0:
        return [(math.inf, 0.0)] * path.size
    dist = np.maximum(_margin_field(divisor, np.ones(len(divisor), bool),
                                    path), 0.0)
    return [(float(d), kernel_sampling_energy(complex(z), divisor))
            for z, d in zip(path, dist)]


def interpolation_witness(divisor: Divisor, w: complex, truncation: int
                          ) -> float:
    """Norm of the minimal-norm truncated solution of: vanish to full order
    at the first node, match the jet of the normalized kernel at w on the
    second node.  A lower bound for the interpolation constant; grows as
    the two discs overlap more deeply."""
    if len(divisor) < 2:
        raise ParameterError("witness needs at least two nodes")
    m0, m1 = int(divisor.mults[0]), int(divisor.mults[1])
    if m1 > truncation:
        raise ParameterError(f"second node's multiplicity {m1} exceeds "
                             f"truncation {truncation}")
    rows = restriction_matrix(divisor.subset(np.arange(len(divisor)) < 2),
                              truncation)
    kernel = coherent_coefficients(math.sqrt(divisor.alpha) * complex(w),
                                   truncation)
    rhs = np.zeros(m0 + m1, dtype=complex)
    rhs[m0:] = rows[m0:] @ kernel
    sol = np.linalg.lstsq(rows, rhs, rcond=RANK_RTOL)[0]
    residual = np.linalg.norm(rows @ sol - rhs)
    if residual > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise VerificationError(
            f"witness problem infeasible at truncation {truncation} "
            f"(residual {residual:.3g})")
    return float(np.linalg.norm(sol))
