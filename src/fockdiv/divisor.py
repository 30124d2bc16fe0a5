"""Divisor data model and planar disc geometry.

A divisor is a finite weighted point set; each node (center, multiplicity)
carries the disc of radius sqrt(multiplicity / alpha).  The plane is
replaced by a finite window with a boundary collar (all covering-type
conditions in the source problem are "outside a compact", so verdicts are
reported on the window minus the collar).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (DomainError, ParameterError, PreconditionError,
                     ResourceError)

# Relative padding of every neighbour reach.  np.abs(z - c) differs from
# the coordinates that bound a node's box of cells, and from the k-d tree
# distances of _margin_scan's k-nearest fallback, by a few ulps at most, so
# the padded candidate sets hold every node the exact comparisons select.
_REACH_PAD = 1.0 + 1e-9
# Candidate (point, node) pairs of a neighbour scan alive at once.
_SCAN_CHUNK = 1 << 15
# Largest center modulus and window bound: squared distances stay finite.
_CENTER_LIMIT = 1e150
# Largest scan lattice of Region.mesh, and largest lattice or ring family,
# in points (64 MB as complex).
MAX_GRID_POINTS = 4_000_000


def _check_limit(values, what: str) -> None:
    """DomainError unless every |value| is at most _CENTER_LIMIT."""
    if not np.all(np.abs(values) <= _CENTER_LIMIT):
        raise DomainError(f"{what} must be finite, at most {_CENTER_LIMIT:g}")


def _check_size(count, what: str, cap: int) -> None:
    """ResourceError, before any allocation, when count passes cap; the
    exact integer count is shown below 10^18, else its power of ten."""
    if count > cap:
        shown = count if count == math.inf else int(count)
        if shown != math.inf and shown >= 10 ** 18:
            digits = (shown.bit_length() - 1) * 30102 // 100000  # <= log10
            while 10 ** (digits + 1) <= shown:
                digits += 1
            shown = f"at least 10^{digits}"
        raise ResourceError(f"{what} of {shown} exceeds the cap of {cap}")


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")


@dataclass(frozen=True)
class Divisor:
    """Weighted point set {(center, multiplicity)} with weight parameter
    alpha; derived disc radii are sqrt(multiplicity / alpha)."""

    centers: np.ndarray
    mults: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=complex).ravel()
        mults = np.asarray(self.mults, dtype=np.int64).ravel()
        if centers.size != mults.size:
            raise ParameterError("centers and multiplicities differ in length")
        if np.any(mults < 1):
            raise DomainError("multiplicities must be >= 1")
        _check_limit(centers, "centers")
        _check_alpha(self.alpha)
        # sqrt(m) / sqrt(alpha) stays finite where m / alpha may overflow
        _check_limit(np.sqrt(mults.max(initial=1)) / math.sqrt(self.alpha),
                     "disc radii sqrt(m / alpha)")
        if centers.size != np.unique(centers).size:
            raise ParameterError("centers must be pairwise distinct")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "mults", mults)

    def __len__(self) -> int:
        return self.centers.size

    @property
    def radii(self) -> np.ndarray:
        return np.sqrt(self.mults / self.alpha)

    @property
    def total_multiplicity(self) -> int:
        return int(self.mults.sum())

    def subset(self, mask: np.ndarray) -> "Divisor":
        return Divisor(self.centers[mask], self.mults[mask], self.alpha)

    # -- file format: UTF-8 CSV, header re,im,multiplicity ----------------

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    def dumps(self) -> str:
        buf = io.StringIO()
        buf.write("re,im,multiplicity\n")
        for c, m in zip(self.centers, self.mults):
            buf.write(f"{c.real:.17g},{c.imag:.17g},{int(m)}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path, alpha: float = 1.0) -> "Divisor":
        with open(path, encoding="utf-8-sig") as fh:  # a BOM is dropped
            return cls.loads(fh.read(), alpha=alpha, name=str(path))

    @classmethod
    def loads(cls, text: str, alpha: float = 1.0, name: str = "<string>"
              ) -> "Divisor":
        lines = text.splitlines()
        if not lines or lines[0].strip() != "re,im,multiplicity":
            raise ParameterError(
                f"{name}:1: expected header 're,im,multiplicity'")
        centers, mults = [], []
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ParameterError(f"{name}:{i}: expected 3 fields")
            try:
                re, im = float(parts[0]), float(parts[1])
                m = int(parts[2])
            except ValueError as exc:
                raise ParameterError(f"{name}:{i}: {exc}") from None
            centers.append(complex(re, im))
            mults.append(m)
        if not centers:
            raise ParameterError(f"{name}: no nodes")
        return cls(np.array(centers), np.array(mults), alpha)


def lattice(spacing: float, mult: int, extent: float, alpha: float = 1.0,
            hole_radius: float = 0.0) -> Divisor:
    """Square lattice of constant multiplicity within |Re|,|Im| <= extent,
    optionally with the nodes inside a centered hole removed."""
    if not all(map(math.isfinite, (spacing, extent, hole_radius))):
        raise DomainError("spacing, extent and hole_radius must be finite")
    if spacing <= 0 or extent <= 0:
        raise ParameterError("spacing and extent must be positive")
    n = float(extent) / float(spacing)  # a tiny spacing gives inf
    # the node count exact, or inf where the ratio overflowed
    side = 2 * math.floor(n) + 1 if n < math.inf else n
    _check_size(side * side, "lattice nodes", MAX_GRID_POINTS)
    coords = spacing * (np.arange(side) - side // 2)
    xs, ys = np.meshgrid(coords, coords)
    centers = (xs + 1j * ys).ravel()
    if hole_radius > 0:
        centers = centers[np.abs(centers) >= hole_radius]
    if centers.size == 0:
        raise ParameterError("lattice is empty")
    return Divisor(centers, np.full(centers.size, mult), alpha)


def radial_rings(ring_radii, ring_mults, counts=None, alpha: float = 1.0,
                 include_center: bool = False, center_mult: int = 1) -> Divisor:
    """Nodes equally spaced on concentric rings; by default each ring gets
    enough nodes for adjacent discs to overlap along the ring."""
    _check_alpha(alpha)
    if not all(map(math.isfinite, ring_radii)) or min(ring_mults,
                                                      default=1) < 1:
        raise DomainError(f"ring radii must be finite and multiplicities "
                          f">= 1, got {ring_radii!r}, {ring_mults!r}")
    if len(ring_mults) != len(ring_radii) or (
            counts is not None and len(counts) != len(ring_radii)):
        raise ParameterError("ring radii, multiplicities and counts differ "
                             "in length")
    if counts is None:  # in floats, where a count may overflow to inf
        with np.errstate(over="ignore"):
            counts = np.maximum(1, np.ceil(
                np.pi * np.asarray(ring_radii, float)
                / np.sqrt(np.divide(ring_mults, alpha))))
    _check_size(sum(counts) + include_center, "ring nodes", MAX_GRID_POINTS)
    centers, mults = ([0j], [center_mult]) if include_center else ([], [])
    for radius, m, count in zip(ring_radii, ring_mults, map(int, counts)):
        angles = 2 * np.pi * np.arange(count) / count
        for ang in angles:
            centers.append(radius * complex(math.cos(ang), math.sin(ang)))
        mults.extend([m] * count)
    if not centers:
        raise ParameterError("ring family is empty")
    return Divisor(np.array(centers), np.array(mults), alpha)


@dataclass(frozen=True)
class Region:
    """Finite window: the points of the box bounds = (xmin, xmax, ymin,
    ymax) within radius of the origin, scanned at resolution h.  A disc is
    the box (-r, r, -r, r) cut to radius r; a rectangle is the box alone."""

    bounds: tuple
    h: float
    radius: float = math.inf

    def __post_init__(self):
        _check_limit((self.h, *self.bounds), "window bounds and h")
        if self.h <= 0:
            raise ParameterError(f"grid resolution must be positive, got {self.h!r}")
        xmin, xmax, ymin, ymax = self.bounds
        if xmin >= xmax or ymin >= ymax or not self.radius > 0:
            raise ParameterError(f"window {self.bounds} cut to radius "
                                 f"{self.radius!r} is empty")

    @classmethod
    def disc(cls, radius: float, h: float) -> "Region":
        return cls((-radius, radius, -radius, radius), h, radius)

    def mesh(self) -> np.ndarray:
        """The scan lattice over the box, as a 2-D array; more than
        MAX_GRID_POINTS points raise ResourceError before any allocation."""
        (xmin, xmax, ymin, ymax), h = self.bounds, self.h
        n = (xmax + h / 2 - xmin) / h, (ymax + h / 2 - ymin) / h
        _check_size(math.ceil(n[0]) * math.ceil(n[1]) if max(n) < math.inf
                    else math.inf, "scan lattice points", MAX_GRID_POINTS)
        gx, gy = np.meshgrid(np.arange(xmin, xmax + h / 2, h),
                             np.arange(ymin, ymax + h / 2, h))
        return gx + 1j * gy

    def grid(self) -> np.ndarray:
        """The mesh points within radius; none raises ParameterError."""
        pts = self.mesh().ravel()
        pts = pts[np.abs(pts) <= self.radius]
        if pts.size == 0:
            raise ParameterError("window grid is empty")
        return pts

    def contains(self, pts: np.ndarray, collar: float = 0.0) -> np.ndarray:
        """Membership in the window shrunk by the boundary collar: the box
        shrunk by it, within radius - collar of the origin."""
        pts = np.asarray(pts, dtype=complex)
        xmin, xmax, ymin, ymax = self.bounds
        return ((pts.real >= xmin + collar) & (pts.real <= xmax - collar)
                & (pts.imag >= ymin + collar) & (pts.imag <= ymax - collar)
                & (np.abs(pts) <= self.radius - collar))

    def interior(self, collar: float) -> tuple[np.ndarray, float]:
        """The grid points at least collar inside the window (none raise
        ParameterError), and the edge: the radius of the largest centred
        disc inside them, less one step.  An uncovered point at or beyond
        the edge fails a covering hypothesis ("outside a compact set")."""
        pts = self.grid()
        pts = pts[self.contains(pts, collar)]
        if pts.size == 0:
            raise ParameterError("window too small for the collar")
        xmin, xmax, ymin, ymax = self.bounds
        return (pts,
                min(-xmin, xmax, -ymin, ymax, self.radius) - collar - self.h)


def _xy(z: np.ndarray) -> np.ndarray:
    return np.column_stack((z.real, z.imag))


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """start[i] + arange(length[i]) for every i, concatenated."""
    ends = np.cumsum(length)
    return np.repeat(start - ends + length, length) + np.arange(length.sum())


def _near_pairs(points: np.ndarray, centers: np.ndarray, reach):
    """Chunks (point, node, distance), in node order, of the pairs with
    |point - center| <= reach[node] * _REACH_PAD, one reach or one per node,
    for n finite points in square cells of side max(mid / 8, span / sqrt(n)),
    mid the median reach (no sum to overflow): about one point per cell, at
    most about n cells, a median node's box within 18 rows of cells.  Each
    node reads the cells meeting its box widened by half a cell, row by row
    (a slice of the points sorted by cell), ~_SCAN_CHUNK pairs at once."""
    if points.size == 0 or centers.size == 0:
        return
    reach = np.broadcast_to(reach, centers.shape)
    # halved coordinates, so that the spans of finite points stay finite
    xy = np.array([points.real, points.imag]) / 2
    lo = xy.min(axis=1, keepdims=True)
    mid = np.partition(reach, reach.size // 2)[reach.size // 2]
    side = max(mid / 16, np.ptp(xy, axis=1).max() / math.sqrt(points.size))
    cell = np.floor((xy - lo) / side).astype(np.intp)
    nx, ny = cell.max(axis=1) + 1
    key = cell[1] * nx + cell[0]
    order = np.argsort(key, kind="stable")  # a mesh comes nearly sorted
    ordered = points[order]
    box = np.pad(np.bincount(key, minlength=nx * ny).reshape(ny, nx).cumsum(
        0).cumsum(1), (1, 0))  # box[y, x]: the points in rows < y, cols < x
    # boxes clipped in floats, so that far nodes cannot overflow the indices
    reach = reach * _REACH_PAD
    xy = np.array([centers.real, centers.imag]) / 2
    n = np.array([[nx], [ny]])
    blo = np.clip(np.floor((xy - reach / 2 - lo) / side - 0.5), 0, n)
    bhi = np.clip(np.floor((xy + reach / 2 - lo) / side + 0.5) + 1, blo, n)
    (lx, ly), (hx, hy) = blo.astype(np.intp), bhi.astype(np.intp)
    wy = hy - ly
    size = box[hy, hx] - box[ly, hx] - box[hy, lx] + box[ly, lx]
    chunk = (np.cumsum(size + wy) - size - wy) // _SCAN_CHUNK  # pairs, rows
    for nodes in np.split(np.arange(centers.size),
                          np.flatnonzero(np.diff(chunk)) + 1):
        # the rows of the boxes, then each row's slice of the sorted points
        row_node = np.repeat(nodes, wy[nodes])
        row = _ranges(ly[nodes], wy[nodes])
        x0, x1 = lx[row_node], hx[row_node]
        before = box[row + 1, x0] - box[row, x0]
        length = box[row + 1, x1] - box[row, x1] - before
        at = _ranges(box[row, nx] + before, length)
        node = np.repeat(row_node, length)
        dist = np.abs(ordered[at] - centers[node])
        close = dist <= reach[node]
        yield order[at[close]], node[close], dist[close]


def _node_pairs(centers: np.ndarray, reach: np.ndarray):
    """(i, j, |c_j - c_i|) for the pairs i < j within the larger of their
    reaches (one per node) times _REACH_PAD, each found once, by its node
    of larger (reach, index)."""
    found = [(np.zeros(0, np.intp),) * 2 + (np.zeros(0),)]
    for p, q, d in _near_pairs(centers, centers, reach):
        k = (reach[q] > reach[p]) | (reach[q] == reach[p]) & (q > p)
        found.append((np.minimum(p, q)[k], np.maximum(p, q)[k], d[k]))
    return tuple(map(np.concatenate, zip(*found)))


def _margin_scan(points: np.ndarray, centers: np.ndarray, radii: np.ndarray
                 ) -> np.ndarray:
    """min over nodes of |z - center| - radius, for any points z.  A
    minimum at most 0 is decided by the pairs within each node's radius.
    Above 0 (z in no disc), z reads its k nearest centers, the k-th at d_k.
    A node past them beats their minimum m only with a radius above gap =
    d_k / _REACH_PAD - m: z is settled once at most the k largest discs
    pass gap, and those are read too; else k grows 4x, to the node count."""
    out = np.full(points.size, np.inf)
    for pi, ni, dist in _near_pairs(points, centers, radii):
        np.minimum.at(out, pi, dist - radii[ni])
    todo, k, n = np.flatnonzero(out > 0), 4, centers.size
    tree = cKDTree(_xy(centers)) if todo.size else None
    heavy = np.argsort(-radii)  # top[k]: the largest radius past heavy[:k]
    top = np.append(radii[heavy], -np.inf)

    def field(at, j):  # min over the nodes j, a row of them per point
        return (np.abs(points[at, None] - centers[j]) - radii[j]).min(axis=1)
    while todo.size:  # ~_SCAN_CHUNK (point, node) entries at once
        k, left = min(k, n), []
        step = max(1, _SCAN_CHUNK // k)
        for part in np.split(todo, range(step, todo.size, step)):
            d, j = tree.query(_xy(points[part]), k=list(range(1, k + 1)))
            out[part] = field(part, j)
            gap = d[:, -1] / _REACH_PAD - out[part]
            some = part[(top[k] <= gap) & (gap < top[0]) & (k < n)]
            out[some] = np.minimum(out[some], field(some, heavy[:k]))
            left.append(part[top[k] > gap])
        todo, k = np.concatenate(left), 4 * k
    return out


def _count_scan(points: np.ndarray, centers: np.ndarray, radii: np.ndarray
                ) -> np.ndarray:
    """Number of open discs D(center, radius) containing each point."""
    counts = np.zeros(points.size, dtype=np.intp)
    for pi, ni, dist in _near_pairs(points, centers, radii):
        counts += np.bincount(pi[dist < radii[ni]], minlength=points.size)
    return counts


def _circle_intersections(c1, r1, c2, r2):
    """Intersection points of the circles |z - c1| = r1 and |z - c2| = r2,
    elementwise over arrays: (meets, p, q), with p and q the two points of
    each pair where meets holds.  Concentric circles never meet."""
    delta = c2 - c1
    d = np.hypot(delta.real, delta.imag)  # the scalar abs; np.abs may differ
    with np.errstate(all="ignore"):  # d = 0, or so small that a^2 overflows
        a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
        h_sq = r1 * r1 - a * a
    meets = (d > 0) & (d <= r1 + r2) & (d >= abs(r1 - r2)) & (h_sq >= 0)
    d, a, delta = d[meets], a[meets], delta[meets]
    mid = c1[meets] + a * delta / d
    off = 1j * np.sqrt(h_sq[meets]) * delta / d
    return meets, mid + off, mid - off


def overlap_constant(divisor: Divisor) -> int:
    """Most open discs sharing a point.  The deepest face holds a center or
    has a circle crossing as a corner; that crossing, nudged along the sum
    of its two inward unit normals by 1e-9 of the smaller radius or 4 ulp
    of the crossing, whichever is larger, lies in the face unless the face
    is narrower than the nudge.  A lower bound always, exact but for that."""
    c, r = divisor.centers, divisor.radii
    # Circles meet only at center distance <= r_i + r_j <= 2 max(r_i, r_j).
    i, j, _ = _node_pairs(c, 2 * r)
    meets, p, q = _circle_intersections(c[i], r[i], c[j], r[j])
    i, j, pq = i[meets, None], j[meets, None], np.column_stack((p, q))
    pq += (np.maximum(1e-9 * np.minimum(r[i], r[j]), 4 * np.spacing(abs(pq)))
           * ((c[i] - pq) / r[i] + (c[j] - pq) / r[j]))
    return int(_count_scan(np.append(c, pq), c, r).max(initial=0))


def _margins(radii: np.ndarray, margins) -> list:
    """The margins C as floats, each with 2 (max radius + |C|) finite."""
    margins, top = [float(c) for c in margins], float(radii.max(initial=0.0))
    if not all(math.isfinite(2 * (top + abs(c))) for c in margins):
        raise ParameterError(f"margin C must keep 2 (max radius + |C|) "
                             f"finite, got {margins!r}")
    return margins


def _margin_field(divisor, nodes, pts) -> np.ndarray | None:
    """min over the nodes of |z - center| - radius at pts, from one scan;
    None when there are no nodes.  Shifting the radii by C shifts it by -C."""
    if nodes.any():
        return _margin_scan(pts, divisor.centers[nodes], divisor.radii[nodes])


def covering_margin(divisor: Divisor, margins, window: Region) -> list:
    """Worst covering margins over the window, one result per margin C in
    the sequence margins.  A result is (expand, shrink), each a (worst
    point, margin) with margin max_z min_node (|z - center| - rho),
    rho = radius + C (expand) or radius - C over the nodes with radius > C
    (shrink; None when no radius exceeds C).  margin < 0 means covered.
    The worst point is taken on the unshifted field, then the shift is
    added, so every C and both modes read one scan per node set.  Only
    each node set's worst point and maximum are kept, so one field lives
    at a time."""
    radii = divisor.radii
    margins, pts, worst = _margins(radii, margins), window.grid(), {}

    def entry(nodes: np.ndarray, shift: float):
        if not nodes.any():
            return None
        key = nodes.tobytes()
        if key not in worst:
            m = _margin_field(divisor, nodes, pts)
            k = m.argmax()
            worst[key] = complex(pts[k]), float(m[k])
        z, top = worst[key]
        return z, top + shift

    return [(entry(np.ones(radii.size, bool), -c), entry(radii > c, c))
            for c in margins]


def disjointness_check(divisor: Divisor, margins) -> list:
    """Pairwise disjointness of the discs with radii + C (tangency counts
    as disjoint): (ok, (i, j, violation)) of the worst pair per margin C."""
    radii = divisor.radii
    return _worst_overlap(divisor.centers, radii, _margins(radii, margins))


def _worst_overlap(centers, radii, margins) -> list:
    """(ok, (i, j, violation)) per margin C for the pair i < j maximizing
    rho_i + rho_j - |c_j - c_i|, rho = radii + C, the smallest (i, j) among
    ties; ok when the violation is at most 1e-12.  Node i reaches
    max(2 rho_i(C_max), 0) + slack, so a pair beyond both reaches violates
    by less than min(0, 2 max(rho)) - slack at every C: one search serves
    every C, its slack 0, then doubled from the median reach (or 1) until
    each best candidate reaches that bound or every pair is one."""
    n, rhos = centers.size, [radii + c for c in margins]
    if n < 2 or not margins:
        return [(True, (None, None, 0.0))] * len(margins)
    own = np.maximum(2 * (radii + max(margins)), 0.0)
    bounds, slack = [min(0.0, 2 * rho.max()) for rho in rhos], 0.0
    while True:
        i, j, dist = _node_pairs(centers, own + slack)
        viols = [rho[i] + rho[j] - dist for rho in rhos]
        if i.size == n * (n - 1) // 2 or i.size and all(
                viol.max() >= bound - slack
                for viol, bound in zip(viols, bounds)):
            break
        slack = 2 * slack or float(np.partition(own, n // 2)[n // 2]) or 1.0
    ks = [np.where(v == v.max(), i * n + j, n * n).argmin() for v in viols]
    worst = [(int(i[k]), int(j[k]), float(v[k])) for v, k in zip(viols, ks)]
    return [(w[2] <= 1e-12, w) for w in worst]


def _lens_area(d: float, r1: float, r2: float) -> float:
    """Area of the intersection of two discs at center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2) or d <= 1e-16 * min(r1, r2):
        # nested, or concentric to double precision
        return math.pi * min(r1, r2) ** 2
    # clamped: rounding pushes the cosines past +-1 near tangency
    a1 = math.acos(min(1.0, max(-1.0, (d * d + r1 * r1 - r2 * r2)
                                / (2 * d * r1))))
    a2 = math.acos(min(1.0, max(-1.0, (d * d + r2 * r2 - r1 * r1)
                                / (2 * d * r2))))
    return (r1 * r1 * (a1 - math.sin(2 * a1) / 2)
            + r2 * r2 * (a2 - math.sin(2 * a2) / 2))


def _discs_meet(discs) -> bool:
    """Whether three closed discs (center, radius) share a point.  Their
    common part, when nonempty, is a whole disc (holding its center), has
    a corner where two circles cross inside the third, or is the touching
    point of a tangent pair, the middle c_i + (d + r_i - r_j)/2 (c_j - c_i)/d
    of the pair's overlap along the line of centers.  So it holds one of
    these candidates, up to the 1e-12 tolerance."""
    centers = np.array([c for c, _ in discs])
    radii = np.array([r for _, r in discs])
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    _, p, q = _circle_intersections(centers[i], radii[i], centers[j], radii[j])
    d = np.abs(centers[j] - centers[i])
    i, j, d = i[d > 0], j[d > 0], d[d > 0]
    touch = centers[i] + ((d + radii[i] - radii[j]) / 2
                          * (centers[j] - centers[i]) / d)
    z = np.concatenate([centers, p, q, touch])
    depth = (np.abs(z[:, None] - centers) - radii).max(axis=1)
    return float(depth.min()) <= 1e-12


def triple_disc_witness(d1, d2, d3) -> tuple[tuple[int, int], float, float]:
    """For three discs (center, radius) with nonempty common intersection,
    return the pair (i, j) maximizing the normalized overlap slack
    (r_i + r_j - |Z_i - Z_j|) / min(r_i, r_j), together with that slack and
    the intersection area of the pair divided by min(r_i, r_j)^2.

    Both returned quantities are bounded below by a positive constant
    uniformly over intersecting triples (estimated by the property suite)."""
    discs = [(complex(c), float(r)) for c, r in (d1, d2, d3)]
    for _, r in discs:
        if r <= 0:
            raise DomainError("disc radii must be positive")
    if not _discs_meet(discs):
        raise PreconditionError("the three discs have empty common intersection")
    best = None
    for i in range(3):
        for j in range(i + 1, 3):
            (ci, ri), (cj, rj) = discs[i], discs[j]
            slack = (ri + rj - abs(ci - cj)) / min(ri, rj)
            if best is None or slack > best[1]:
                best = ((i, j), slack)
    (i, j), slack = best
    (ci, ri), (cj, rj) = discs[i], discs[j]
    area_ratio = _lens_area(abs(ci - cj), ri, rj) / min(ri, rj) ** 2
    return (i, j), slack, area_ratio


def _uncovered_reach(uncovered: np.ndarray, edge: float) -> float | None:
    """Largest |z| over the points in no open disc, 0.0 if none; None when
    one lies at or beyond edge (a covering outside a compact fails)."""
    if uncovered.size == 0:
        return 0.0
    r = float(np.abs(uncovered).max())
    return None if r >= edge else r


def _uncovered_radius(divisor: Divisor, C: float, pts: np.ndarray,
                      field: np.ndarray | None, edge: float) -> float | None:
    """Smallest R such that the open discs shrunk by C cover pts outside
    the centered disc of radius R; None when no disc survives the shrink
    or the uncovered points reach edge.  field is the margin field at pts
    of the nodes {radius > c0}, c0 <= C: a point is uncovered where it is
    >= -C, which no node of radius r <= C decides (|z - c| - r >= -C)."""
    if not (divisor.radii > C).any():
        return None
    return _uncovered_reach(pts[field >= -C], edge)


def thin_subdivisor(divisor: Divisor, window: Region, c_list) -> Divisor:
    """Iterative thinning: for step s = 1, 2, ... remove the far nodes of
    low multiplicity {|center| > R_s + s, (s-1)^2 <= mult < s^2}, where R_s
    is the radius outside of which the discs shrunk by s still cover the
    window.  The result keeps the covering property for every shrink in
    c_list while its far nodes have growing multiplicity.  Every shrink
    tested is at least c0 = min(c_list[0], 1), so all read one margin field,
    of the nodes {radius > c0}, rescanned only if thinning removed one."""
    c_list = sorted(_margins(divisor.radii, c_list))
    if not c_list or any(c2 <= c1 for c1, c2 in zip(c_list, c_list[1:])):
        raise ParameterError("c_list must be strictly increasing and nonempty")
    pts, edge = window.interior(float(divisor.radii.max(initial=0.0)))
    c0 = min(c_list[0], 1.0)
    field = _margin_field(divisor, divisor.radii > c0, pts)
    for C in c_list:
        if _uncovered_radius(divisor, C, pts, field, edge) is None:
            raise PreconditionError(
                f"shrink-covering hypothesis fails for C={C}")
    keep = np.ones(len(divisor), dtype=bool)
    s_max = int(math.ceil(math.sqrt(float(divisor.mults.max()))))
    for s in range(1, s_max + 1):
        r_s = _uncovered_radius(divisor, float(s), pts, field, edge)
        if r_s is None:
            continue  # no eligible discs at this shrink inside the window
        mask = ((np.abs(divisor.centers) > r_s + s)
                & (divisor.mults >= (s - 1) ** 2)
                & (divisor.mults < s * s))
        keep &= ~mask
    thinned = divisor.subset(keep)
    if (divisor.radii[~keep] > c0).any():
        field = _margin_field(thinned, thinned.radii > c0, pts)
    for C in c_list:
        if _uncovered_radius(thinned, C, pts, field, edge) is None:
            raise PreconditionError(
                f"thinning broke the covering for C={C} (resolution too "
                "coarse or window too small)")
    return thinned
