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

# Relative padding of every neighbour reach.  The tree's distances and
# np.abs(z - c) differ by a few ulps at most, so the padded candidate sets
# hold every node the exact comparisons below can select.
_REACH_PAD = 1.0 + 1e-9
# Largest center modulus: squared distances stay finite below it.
_CENTER_LIMIT = 1e150
# Largest scan lattice of Region.mesh, in points (64 MB as complex).
MAX_GRID_POINTS = 4_000_000


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
        if not np.all(np.abs(centers) <= _CENTER_LIMIT):
            raise DomainError(f"|center| must be finite, <= {_CENTER_LIMIT:g}")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha!r}")
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
        with open(path, encoding="utf-8") as fh:
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
    if spacing <= 0 or extent <= 0:
        raise ParameterError("spacing and extent must be positive")
    n = int(math.floor(extent / spacing))
    coords = spacing * np.arange(-n, n + 1)
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
    centers, mults = [], []
    if include_center:
        centers.append(0.0 + 0.0j)
        mults.append(center_mult)
    for i, (radius, m) in enumerate(zip(ring_radii, ring_mults)):
        r_disc = math.sqrt(m / alpha)
        if counts is None:
            count = max(1, int(math.ceil(math.pi * radius / r_disc)))
        else:
            count = counts[i]
        angles = 2 * np.pi * np.arange(count) / count
        for ang in angles:
            centers.append(radius * complex(math.cos(ang), math.sin(ang)))
        mults.extend([m] * count)
    if not centers:
        raise ParameterError("ring family is empty")
    return Divisor(np.array(centers), np.array(mults), alpha)


@dataclass(frozen=True)
class Region:
    """Finite window: a disc (center 0, given radius) or a rectangle, with
    a scan resolution h."""

    kind: str
    h: float
    radius: float = 0.0
    rect: tuple = ()  # (xmin, xmax, ymin, ymax)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.h, self.radius, *self.rect))):
            raise DomainError("window radius, bounds and h must be finite")
        if self.h <= 0:
            raise ParameterError(f"grid resolution must be positive, got {self.h!r}")
        if self.kind == "disc":
            if self.radius <= 0:
                raise ParameterError("disc window needs a positive radius")
        elif self.kind == "rect":
            if len(self.rect) != 4 or self.rect[0] >= self.rect[1] \
                    or self.rect[2] >= self.rect[3]:
                raise ParameterError("rectangle window is empty")
        else:
            raise ParameterError(f"unknown window kind {self.kind!r}")

    @classmethod
    def disc(cls, radius: float, h: float) -> "Region":
        return cls(kind="disc", h=h, radius=radius)

    @classmethod
    def rectangle(cls, xmin, xmax, ymin, ymax, h) -> "Region":
        return cls(kind="rect", h=h, rect=(xmin, xmax, ymin, ymax))

    def mesh(self) -> np.ndarray:
        """The scan lattice over the bounding box, as a 2-D array; more than
        MAX_GRID_POINTS points raise ResourceError before any allocation."""
        r, h = self.radius, self.h
        xmin, xmax, ymin, ymax = self.rect or (-r, r, -r, r)
        size = (math.ceil((xmax + h / 2 - xmin) / h)
                * math.ceil((ymax + h / 2 - ymin) / h))
        if size > MAX_GRID_POINTS:
            raise ResourceError(f"scan lattice of {size:.3g} points exceeds "
                                f"the cap of {MAX_GRID_POINTS}")
        gx, gy = np.meshgrid(np.arange(xmin, xmax + h / 2, h),
                             np.arange(ymin, ymax + h / 2, h))
        return gx + 1j * gy

    def grid(self) -> np.ndarray:
        pts = self.mesh().ravel()
        return pts[np.abs(pts) <= self.radius] if self.kind == "disc" else pts

    def contains(self, pts: np.ndarray, collar: float = 0.0) -> np.ndarray:
        """Membership in the window shrunk by the boundary collar."""
        pts = np.asarray(pts, dtype=complex)
        if self.kind == "disc":
            return np.abs(pts) <= self.radius - collar
        xmin, xmax, ymin, ymax = self.rect
        return ((pts.real >= xmin + collar) & (pts.real <= xmax - collar)
                & (pts.imag >= ymin + collar) & (pts.imag <= ymax - collar))


def _xy(z: np.ndarray) -> np.ndarray:
    return np.column_stack((z.real, z.imag))


def _near_pairs(points: np.ndarray, centers: np.ndarray, reach: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """(point, node) index pairs with |point - center| <= reach, the reach
    padded by _REACH_PAD."""
    pairs = cKDTree(_xy(points)).sparse_distance_matrix(
        cKDTree(_xy(centers)), reach * _REACH_PAD, output_type="ndarray")
    return pairs["i"], pairs["j"]


def _margin_scan(points: np.ndarray, centers: np.ndarray, radii: np.ndarray
                 ) -> np.ndarray:
    """min over nodes of |z - center| - radius.  Every minimizing node lies
    within d1 + (max radius - min radius) of z, d1 the distance from z to
    its nearest center, so each point takes its k nearest centers, with k
    grown until the k-th lies beyond that reach or k is the node count."""
    tree = cKDTree(_xy(centers))
    spread = radii.max() - radii.min()
    out = np.empty(points.size)
    todo, k = np.arange(points.size), 4
    while todo.size:
        k = min(k, centers.size)
        d, j = tree.query(_xy(points[todo]), k=list(range(1, k + 1)))
        out[todo] = (np.abs(points[todo, None] - centers[j]) - radii[j]
                     ).min(axis=1)
        reach = (d[:, 0] + spread) * _REACH_PAD
        todo = todo[(d[:, -1] <= reach) & (k < centers.size)]
        k *= 4
    return out


def _count_scan(points: np.ndarray, centers: np.ndarray, radii: np.ndarray
                ) -> np.ndarray:
    """Number of open discs D(center, radius) containing each point."""
    pi, ni = _near_pairs(points, centers, radii.max(initial=0.0))
    inside = np.abs(points[pi] - centers[ni]) < radii[ni]
    return np.bincount(pi[inside], minlength=points.size)


def _circle_intersections(c1, r1, c2, r2):
    """Intersection points of the circles |z - c1| = r1 and |z - c2| = r2,
    elementwise over arrays: (meets, p, q), with p and q the two points of
    each pair where meets holds.  Concentric circles never meet."""
    delta = c2 - c1
    d = np.hypot(delta.real, delta.imag)  # the scalar abs; np.abs may differ
    with np.errstate(divide="ignore", invalid="ignore"):  # d = 0
        a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
        h_sq = r1 * r1 - a * a
    meets = (d > 0) & (d <= r1 + r2) & (d >= abs(r1 - r2)) & (h_sq >= 0)
    d, a, delta = d[meets], a[meets], delta[meets]
    mid = c1[meets] + a * delta / d
    off = 1j * np.sqrt(h_sq[meets]) * delta / d
    return meets, mid + off, mid - off


def overlap_count(divisor: Divisor, z: complex) -> int:
    """Number of node discs containing z (open discs)."""
    return int(_count_scan(np.array([complex(z)]), divisor.centers,
                           divisor.radii)[0])


def overlap_constant(divisor: Divisor, window: Region) -> int:
    """Max covering count over the window grid, enriched with centers and
    pairwise circle intersection points (one vectorized pass over the near
    pairs).  A certified lower bound for (and a heuristic estimate of) the
    true overlap constant."""
    pts = window.grid()
    if pts.size == 0:
        raise ParameterError("window grid is empty")
    centers, radii = divisor.centers, divisor.radii
    # circles meet only at center distance <= r_i + r_j <= 2 max radius
    pairs = cKDTree(_xy(centers)).query_pairs(
        2 * radii.max(initial=0.0) * _REACH_PAD, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    meets, p, q = _circle_intersections(centers[i], radii[i],
                                        centers[j], radii[j])
    # Nudge inward so open-disc membership is unambiguous.
    mid = ((centers[i] + centers[j]) / 2)[meets, None]
    pq = np.column_stack((p, q))
    all_pts = np.concatenate([pts, centers, (pq + 1e-9 * (mid - pq)).ravel()])
    return int(_count_scan(all_pts, centers, radii).max())


def covering_margin(divisor: Divisor, C, window: Region):
    """Worst covering margins over the window, for one margin C (a result)
    or a sequence of them (a list).  A result is (expand, shrink), each a
    (worst point, margin) with margin max_z min_node (|z - center| - rho),
    rho = radius + C (expand) or radius - C over the nodes with radius > C
    (shrink; None when no radius exceeds C).  margin <= 0 means covered.
    A common shift of the radii shifts the margin back, so one scan of
    rho = radius per distinct node set serves every C and both modes."""
    margins = np.asarray(C, dtype=float)
    if not np.all(np.isfinite(margins)):
        raise ParameterError(f"margin C must be finite, got {C!r}")
    pts = window.grid()
    if pts.size == 0:
        raise ParameterError("window grid is empty")
    radii = divisor.radii
    worst = {}  # node set -> (worst point, margin at C = 0)

    def entry(nodes: np.ndarray, shift: float):
        if not nodes.any():
            return None
        key = nodes.tobytes()
        if key not in worst:
            m = _margin_scan(pts, divisor.centers[nodes], radii[nodes])
            worst[key] = complex(pts[m.argmax()]), float(m.max())
        wz, m = worst[key]
        return wz, m + shift

    rows = [(entry(np.ones(radii.size, bool), -c), entry(radii > c, c))
            for c in margins.ravel().tolist()]
    return rows if margins.ndim else rows[0]


def disjointness_check(divisor: Divisor, C: float, expand: bool = True
                       ) -> tuple[bool, tuple]:
    """Pairwise disjointness of the discs with radii +- C (tangency counts
    as disjoint).  Returns (ok, (i, j, violation)) for the worst pair."""
    if not math.isfinite(C):
        raise ParameterError(f"margin C must be finite, got {C!r}")
    radii = divisor.radii
    if expand:
        return _worst_overlap(divisor.centers, radii + C)
    eligible = radii > C
    return _worst_overlap(divisor.centers[eligible], radii[eligible] - C)


def _worst_overlap(centers: np.ndarray, rho: np.ndarray
                   ) -> tuple[bool, tuple]:
    """(ok, (i, j, violation)) for the pair i < j maximizing rho_i + rho_j
    - |c_j - c_i|, the smallest (i, j) among ties; ok when the violation is
    at most 1e-12.  A pair farther apart than the reach violates by less
    than 2 max(rho) - reach, so the reach starts at 2 max(rho) and doubles
    until the best candidate beats that or every pair is a candidate."""
    n = centers.size
    if n < 2:
        return True, (None, None, 0.0)
    tree = cKDTree(_xy(centers))
    top = 2 * rho.max()
    reach = top if top > 0 else 1.0
    while True:
        pairs = tree.query_pairs(reach * _REACH_PAD, output_type="ndarray")
        if len(pairs):
            i, j = pairs[:, 0], pairs[:, 1]
            viol = rho[i] + rho[j] - np.abs(centers[j] - centers[i])
            best = viol.max()
            if best >= top - reach or len(pairs) == n * (n - 1) // 2:
                break
        reach *= 2
    ties = np.flatnonzero(viol == best)
    k = ties[np.lexsort((j[ties], i[ties]))[0]]
    worst = (int(i[k]), int(j[k]), float(viol[k]))
    return worst[2] <= 1e-12, worst


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


def _common_point(discs) -> complex | None:
    """A point of the triple intersection, or None."""
    from scipy.optimize import minimize

    centers = np.array([complex(c) for c, _ in discs])
    radii = np.array([r for _, r in discs])

    def depth(xy):
        z = complex(xy[0], xy[1])
        return float(np.max(np.abs(z - centers) - radii))

    start = centers.mean()
    best = minimize(depth, [start.real, start.imag], method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    if best.fun < -1e-12:
        return complex(best.x[0], best.x[1])
    # Enrich with pairwise circle intersections before giving up.
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    _, p, q = _circle_intersections(centers[i], radii[i], centers[j], radii[j])
    for z in np.column_stack((p, q)).ravel().tolist():
        if depth([z.real, z.imag]) < 1e-12:
            return z
    if best.fun <= 1e-12:
        return complex(best.x[0], best.x[1])
    return None


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
    if _common_point(discs) is None:
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


def _uncovered_radius(divisor: Divisor, C: float, window: Region,
                      collar: float) -> float | None:
    """Smallest R such that the shrunk discs cover the window (minus the
    boundary collar) outside the centered disc of radius R.  None when no
    disc survives the shrink or nothing is covered."""
    radii = divisor.radii
    eligible = radii > C
    if not eligible.any():
        return None
    pts = window.grid()
    pts = pts[window.contains(pts, collar)]
    if pts.size == 0:
        return None
    margins = _margin_scan(pts, divisor.centers[eligible],
                           radii[eligible] - C)
    uncovered = pts[margins > 0]
    if uncovered.size == 0:
        return 0.0
    r = float(np.abs(uncovered).max())
    if window.kind == "disc" and r >= window.radius - collar - window.h:
        return None  # uncovered all the way to the window edge
    return r


def thin_subdivisor(divisor: Divisor, window: Region, c_list) -> Divisor:
    """Iterative thinning: for step s = 1, 2, ... remove the far nodes of
    low multiplicity {|center| > R_s + s, (s-1)^2 <= mult < s^2}, where R_s
    is the radius outside of which the discs shrunk by s still cover the
    window.  The result keeps the covering property for every shrink in
    c_list while its far nodes have growing multiplicity."""
    c_list = sorted(float(c) for c in c_list)
    if not c_list or any(c2 <= c1 for c1, c2 in zip(c_list, c_list[1:])):
        raise ParameterError("c_list must be strictly increasing and nonempty")
    collar = float(divisor.radii.max()) if len(divisor) else 0.0
    for C in c_list:
        r = _uncovered_radius(divisor, C, window, collar)
        if r is None:
            raise PreconditionError(
                f"shrink-covering hypothesis fails for C={C}")
    keep = np.ones(len(divisor), dtype=bool)
    s_max = int(math.ceil(math.sqrt(float(divisor.mults.max()))))
    for s in range(1, s_max + 1):
        r_s = _uncovered_radius(divisor, float(s), window, collar)
        if r_s is None:
            continue  # no eligible discs at this shrink inside the window
        mask = ((np.abs(divisor.centers) > r_s + s)
                & (divisor.mults >= (s - 1) ** 2)
                & (divisor.mults < s * s))
        keep &= ~mask
    thinned = divisor.subset(keep)
    for C in c_list:
        if _uncovered_radius(thinned, C, window, collar) is None:
            raise PreconditionError(
                f"thinning broke the covering for C={C} (resolution too "
                "coarse or window too small)")
    return thinned
