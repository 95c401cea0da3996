"""Forwarding decision regions and nearest-neighbour distance laws.

Two region families are supported, both subsets of the source's range disk:

* a circular sector aimed at the destination, and
* a convex lens formed by intersecting the range disk with a disk centred on
  an anchor placed one transmission range along the source-destination axis.

Points are placed by a binomial point process (a fixed count, uniform over
the region).  Everything distance-related reduces to the region's radial
mass function p(d) = P(uniform point lies within d of the source), which for
these shapes is available in closed form from two-circle intersection areas.

Regions carry an inner/outer bound on their defining radial coordinate, so a
priority band produced by :func:`partition_region` is just another region and
can be partitioned again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InfeasibleRegionError

_TWO_PI = 2.0 * math.pi
# Array arguments are told apart by ``type(x) is _NDARRAY``: on the scalar
# paths, which the auction and the median's bisection call per point, it
# costs a fraction of ``isinstance(x, np.ndarray)``.
_NDARRAY = np.ndarray
_MASS_BISECT_TOL = 1e-10
# expected distances: nodes per half panel, the agreement (in units of R) that
# closes a panel, and a cap on the open panels, which rounding noise in the
# mass of a sliver region would otherwise keep doubling
_GL_NODES = 32
_GL_TOL = 1e-14
_GL_MAX_PANELS = 256
# lens placement: a start interpolated in a table of this many anchor
# distances, then Newton steps to rounding
_PLACEMENT_TABLE_POINTS = 4097
_PLACEMENT_NEWTON_STEPS = 3


class Point2(NamedTuple):
    """A planar point in metres."""

    x: float
    y: float


def circle_intersection_area(r1, r2, d):
    """Area of the intersection of two discs with radii ``r1``, ``r2`` and
    centre separation ``d``.

    Handles the disjoint and contained configurations; the general case is
    the sum of the two circular segments cut off by the common chord.  Any
    argument may be an ndarray, and then the areas come back as one, by the
    same expressions.
    """
    if type(r1) is _NDARRAY or type(r2) is _NDARRAY or type(d) is _NDARRAY:
        return _intersection_areas(r1, r2, d)
    if r1 <= 0.0 or r2 <= 0.0:
        return 0.0
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    x1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    x2 = d - x1
    c1 = min(1.0, max(-1.0, x1 / r1))
    c2 = min(1.0, max(-1.0, x2 / r2))
    seg1 = r1 * r1 * math.acos(c1) - x1 * math.sqrt(max(r1 * r1 - x1 * x1, 0.0))
    seg2 = r2 * r2 * math.acos(c2) - x2 * math.sqrt(max(r2 * r2 - x2 * x2, 0.0))
    return seg1 + seg2


def _intersection_areas(r1, r2, d) -> np.ndarray:
    r1, r2, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (r1, r2, d)))
    out = np.zeros(r1.shape)
    meet = (r1 > 0.0) & (r2 > 0.0) & (d < r1 + r2)
    inside = meet & (d <= np.abs(r1 - r2))
    r = np.minimum(r1, r2)[inside]
    out[inside] = math.pi * r * r
    cut = meet & ~inside
    r1, r2, d = r1[cut], r2[cut], d[cut]
    x1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    x2 = d - x1
    c1 = np.clip(x1 / r1, -1.0, 1.0)
    c2 = np.clip(x2 / r2, -1.0, 1.0)
    seg1 = r1 * r1 * _acos(c1) - x1 * np.sqrt(np.maximum(r1 * r1 - x1 * x1, 0.0))
    seg2 = r2 * r2 * _acos(c2) - x2 * np.sqrt(np.maximum(r2 * r2 - x2 * x2, 0.0))
    out[cut] = seg1 + seg2
    return out


def _acos(c: np.ndarray) -> np.ndarray:
    # libm's acos, as on the scalar path: numpy's SIMD arccos differs from it
    # in the last place on ~9% of arguments, and the segment differences and
    # the binomial sum amplify that past 1e-15 in the CCDF near d = R.
    return np.fromiter(map(math.acos, c.tolist()), float, c.size)


def _check_distance(d, radius: float) -> None:
    """Raise unless every distance in ``d`` (a float or an ndarray) lies in
    [0, radius], with a relative slack of 1e-12 at the top; NaN is outside."""
    top = radius * (1.0 + 1e-12)
    if type(d) is _NDARRAY:
        bad = ~((d >= 0.0) & (d <= top))
        if bad.any():
            raise DomainError(f"distance {d[bad].flat[0]} outside [0, {radius}]")
    elif not 0.0 <= d <= top:
        raise DomainError(f"distance {d} outside [0, {radius}]")


def _unit(v: tuple[float, float]) -> tuple[float, float]:
    norm = math.hypot(v[0], v[1])
    if norm == 0.0 or not math.isfinite(norm):
        raise DomainError("axis vector must be non-zero and finite")
    return (v[0] / norm, v[1] / norm)


@dataclass(frozen=True)
class SectorRegion:
    """Circular sector of the range disk, opened symmetrically about ``axis``.

    ``inner_radius`` is zero for the full sector; partition bands reuse the
    class with a non-trivial annular bound.
    """

    center: Point2 = Point2(0.0, 0.0)
    radius: float = 1.0
    aperture: float = math.pi
    axis: tuple[float, float] = (1.0, 0.0)
    inner_radius: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise DomainError("radius must be positive and finite")
        if not 0.0 < self.aperture <= _TWO_PI + 1e-12:
            raise DomainError("aperture must lie in (0, 2*pi]")
        if not 0.0 <= self.inner_radius < self.radius:
            raise DomainError("inner radius must lie in [0, radius)")
        object.__setattr__(self, "center", Point2(*self.center))
        object.__setattr__(self, "axis", _unit(self.axis))

    # -- region protocol ---------------------------------------------------

    @property
    def source(self) -> Point2:
        return self.center

    def area(self) -> float:
        return 0.5 * self.aperture * (self.radius**2 - self.inner_radius**2)

    def source_radial_mass(self, d):
        """Mass within source distance ``d`` (a float or an ndarray)."""
        _check_distance(d, self.radius)
        mass = (d * d - self.inner_radius**2) / (self.radius**2 - self.inner_radius**2)
        return np.maximum(mass, 0.0) if type(mass) is _NDARRAY else max(0.0, mass)

    def source_radial_mass_derivative(self, d):
        inside = (d >= self.inner_radius) & (d <= self.radius)
        return 2.0 * d / (self.radius**2 - self.inner_radius**2) * inside

    def kinks(self) -> tuple[float, ...]:
        """Source distances where the radial mass is not smooth."""
        return (self.inner_radius,)

    def contains(self, p: Point2) -> bool:
        dx, dy = p[0] - self.center.x, p[1] - self.center.y
        r = math.hypot(dx, dy)
        # the same rounding slack at the rim as the lens: place(u, v) with u
        # just below 1 lands on it
        if r > self.radius * (1.0 + 1e-12) or (r <= self.inner_radius and self.inner_radius > 0.0):
            return False
        if r == 0.0:
            return True
        ang = abs(math.atan2(self.axis[0] * dy - self.axis[1] * dx,
                             self.axis[0] * dx + self.axis[1] * dy))
        return ang <= 0.5 * self.aperture + 1e-12

    def place(self, u, v) -> np.ndarray:
        """Points at area-uniform radius fraction ``u`` and angle fraction ``v``.

        ``u`` and ``v`` are arrays of uniforms in [0, 1) of one shape; the
        points come back with a trailing axis of (x, y).  Uniform ``u`` and
        ``v`` give points uniform over the sector.
        """
        base = math.atan2(self.axis[1], self.axis[0])
        lo2 = self.inner_radius**2
        r = np.sqrt(lo2 + u * (self.radius**2 - lo2))
        theta = base + (v - 0.5) * self.aperture
        return np.stack(
            (self.center.x + r * np.cos(theta), self.center.y + r * np.sin(theta)), axis=-1
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.place(rng.random(n), rng.random(n))

    def partition(self, q: int) -> list["SectorRegion"]:
        """Equal-mass annular bands by source distance, outermost first."""
        lo2, hi2 = self.inner_radius**2, self.radius**2
        inner = [math.sqrt(lo2 + (j / q) * (hi2 - lo2)) for j in range(1, q)]
        edges = [self.inner_radius, *inner, self.radius]  # exact ends, even where r^2 underflows
        bands = [
            SectorRegion(self.center, edges[j + 1], self.aperture, self.axis, edges[j])
            for j in range(q)
        ]
        return bands[::-1]

    def to_spec(self) -> dict:
        return {
            "kind": "sector",
            "center": [self.center.x, self.center.y],
            "radius": self.radius,
            "aperture": self.aperture,
            "axis": list(self.axis),
            "inner_radius": self.inner_radius,
        }


@dataclass(frozen=True)
class LensRegion:
    """Convex lens: range disk intersected with a disk around the anchor.

    The anchor sits one transmission range from the source along the
    destination axis, so the separation between the two disc centres is
    always ``radius``.  ``inner_rho`` > 0 selects the annular slice between
    two anchor-centred radii, which is how priority bands are represented.
    """

    source: Point2 = Point2(0.0, 0.0)
    radius: float = 1.0
    rho: float | None = None
    axis: tuple[float, float] = (1.0, 0.0)
    inner_rho: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise DomainError("radius must be positive and finite")
        if self.rho is None:
            object.__setattr__(self, "rho", self.radius)
        if not 0.0 < self.rho <= 2.0 * self.radius + 1e-12:
            raise DomainError("rho must lie in (0, 2*radius]")
        if not 0.0 <= self.inner_rho < self.rho:
            raise DomainError("inner rho must lie in [0, rho)")
        object.__setattr__(self, "source", Point2(*self.source))
        object.__setattr__(self, "axis", _unit(self.axis))
        if self.area() <= 0.0:
            raise InfeasibleRegionError("lens slice has no area")

    @cached_property
    def anchor(self) -> Point2:
        return Point2(
            self.source.x + self.radius * self.axis[0],
            self.source.y + self.radius * self.axis[1],
        )

    def _overlap(self, r_source: float, s_anchor: float) -> float:
        # disk(source, r) with disk(anchor, s); the centres are radius apart
        return circle_intersection_area(r_source, s_anchor, self.radius)

    @cached_property
    def _inner_overlap(self) -> float:
        return self._overlap(self.radius, self.inner_rho)

    @cached_property
    def _area(self) -> float:
        return self._overlap(self.radius, self.rho) - self._inner_overlap

    def area(self) -> float:
        return self._area

    def source_radial_mass(self, d):
        """Mass within source distance ``d`` (a float or an ndarray)."""
        _check_distance(d, self.radius)
        mass = (self._overlap(d, self.rho) - self._overlap(d, self.inner_rho)) / self.area()
        return np.clip(mass, 0.0, 1.0) if type(mass) is _NDARRAY else min(1.0, max(0.0, mass))

    def kinks(self) -> tuple[float, ...]:
        """Source distances where the radial mass is not smooth: where the
        source disk meets each anchor circle, from outside (d = R - rho) or
        from inside it (d = rho - R).  Past each one the mass departs from
        its course by a 3/2 power of the distance."""
        return (abs(self.radius - self.rho), abs(self.radius - self.inner_rho))

    def anchor_radial_mass(self, s: float) -> float:
        """Mass of the slice within anchor distance ``s``; drives partitioning."""
        s = min(max(s, self.inner_rho), self.rho)
        return (self._overlap(self.radius, s) - self._inner_overlap) / self._area

    def contains(self, p: Point2) -> bool:
        dxs, dys = p[0] - self.source.x, p[1] - self.source.y
        if dxs * dxs + dys * dys > self.radius**2 * (1.0 + 1e-12):
            return False
        a = self.anchor
        da = math.hypot(p[0] - a.x, p[1] - a.y)
        if da > self.rho * (1.0 + 1e-12):
            return False
        return da > self.inner_rho or self.inner_rho == 0.0

    def _disk_overlap(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Area of the range disk within anchor distance ``s``, and its
        derivative in ``s``, by numpy's ufuncs.

        With the centres ``R`` apart and ``t = s / 2R`` the two-circle area
        reduces to ``R^2 (2 asin t + 4 t^2 acos t - 2 t sqrt(1 - t^2))``, and
        its derivative is the arc length ``2 s acos t``.  Placement only: the
        laws use :func:`circle_intersection_area`, with libm's ``acos``.
        """
        t = np.minimum(s / (2.0 * self.radius), 1.0)
        half_arc = np.arccos(t)
        area = self.radius**2 * (
            2.0 * np.arcsin(t) + 4.0 * t * t * half_arc - 2.0 * t * np.sqrt(1.0 - t * t)
        )
        return area, 2.0 * s * half_arc

    @cached_property
    def _placement_table(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        # Chebyshev-spaced anchor distances crowd both ends, where the mass
        # goes flat (as s^2 at s = 0, as 1 - (2R - s)^1.5 at s = 2R) and a
        # linear start would cost Newton its quadratic convergence.
        k = np.arange(_PLACEMENT_TABLE_POINTS)
        frac = 0.5 * (1.0 - np.cos(np.pi * k / (_PLACEMENT_TABLE_POINTS - 1)))
        s = self.inner_rho + (self.rho - self.inner_rho) * frac
        overlap, _ = self._disk_overlap(s)
        lo, span = float(overlap[0]), float(overlap[-1] - overlap[0])
        return s, (overlap - lo) / span, lo, span

    def place(self, u, v) -> np.ndarray:
        """Points whose anchor mass is ``u``, at arc fraction ``v``.

        The anchor distance ``s`` solves ``anchor_radial_mass(s) = u``: a start
        interpolated in a table of the slice's mass, then Newton steps.  The
        angle is uniform on the arc ``|phi| <= acos(s / 2R)`` of the anchor
        circle inside the range disk, measured from the anchor-to-source
        direction; the arc is the same for every slice.  ``u`` and ``v`` are
        arrays of uniforms in [0, 1) of one shape, and uniform ``u`` and ``v``
        give points uniform over the slice, with ``u`` their anchor mass.
        """
        table_s, table_mass, lo, span = self._placement_table
        target = lo + u * span
        s = np.interp(u, table_mass, table_s)
        for _ in range(_PLACEMENT_NEWTON_STEPS):
            area, slope = self._disk_overlap(s)
            step = np.divide(area - target, slope, out=np.zeros_like(s), where=slope > 0.0)
            s = np.clip(s - step, self.inner_rho, self.rho)
        half_arc = np.arccos(np.minimum(s / (2.0 * self.radius), 1.0))
        phi = math.atan2(-self.axis[1], -self.axis[0]) + (2.0 * v - 1.0) * half_arc
        a = self.anchor
        return np.stack((a.x + s * np.cos(phi), a.y + s * np.sin(phi)), axis=-1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` points uniform over the slice, by inverse transform."""
        return self.place(rng.random(n), rng.random(n))

    def partition(self, q: int) -> list["LensRegion"]:
        """Equal-mass anchor-centred slices, the slice nearest the anchor first.

        Band edges come from bisection on the anchor radial mass, to within
        1e-10 of the target mass fraction.
        """
        edges = [self.inner_rho]
        for j in range(1, q):
            target = j / q
            lo, hi = self.inner_rho, self.rho
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                m = self.anchor_radial_mass(mid)
                if abs(m - target) <= _MASS_BISECT_TOL:
                    lo = hi = mid
                    break
                if m < target:
                    lo = mid
                else:
                    hi = mid
            edges.append(0.5 * (lo + hi))
        edges.append(self.rho)
        return [
            LensRegion(self.source, self.radius, edges[j + 1], self.axis, edges[j])
            for j in range(q)
        ]

    def to_spec(self) -> dict:
        return {
            "kind": "lens",
            "source": [self.source.x, self.source.y],
            "radius": self.radius,
            "rho": self.rho,
            "axis": list(self.axis),
            "inner_rho": self.inner_rho,
        }


Region = SectorRegion | LensRegion


def region_from_spec(spec: dict) -> Region:
    kind = spec.get("kind")
    if kind == "sector":
        return SectorRegion(
            center=Point2(*spec.get("center", (0.0, 0.0))),
            radius=spec["radius"],
            aperture=spec["aperture"],
            axis=tuple(spec.get("axis", (1.0, 0.0))),
            inner_radius=spec.get("inner_radius", 0.0),
        )
    if kind == "lens":
        return LensRegion(
            source=Point2(*spec.get("source", (0.0, 0.0))),
            radius=spec["radius"],
            rho=spec.get("rho"),
            axis=tuple(spec.get("axis", (1.0, 0.0))),
            inner_rho=spec.get("inner_rho", 0.0),
        )
    raise DomainError(f"unknown region kind {kind!r}")


# ---------------------------------------------------------------------------
# module-level operations


def nth_neighbor_ccdf(region: Region, rank: int, n_points: int, d):
    """P(the rank-th nearest of ``n_points`` uniform points lies beyond ``d``).

    Equivalently the probability that fewer than ``rank`` points fall within
    distance ``d`` of the source.  ``d`` may be an ndarray of distances.
    """
    if not 1 <= rank <= n_points:
        raise DomainError(f"rank {rank} outside [1, {n_points}]")
    p = region.source_radial_mass(d)
    total = 0.0
    for k in range(rank):
        total += math.comb(n_points, k) * p**k * (1.0 - p) ** (n_points - k)
    return np.clip(total, 0.0, 1.0) if type(total) is _NDARRAY else min(1.0, max(0.0, total))


def nth_neighbor_pdf(region: Region, rank: int, n_points: int, d):
    """Density of the rank-th nearest distance.

    Closed form where the region exposes the radial-mass derivative (the
    sector family); otherwise a central difference of the CCDF with step
    1e-5 * radius, clamped to [0, radius].  ``d`` may be an ndarray of
    distances.
    """
    if not 1 <= rank <= n_points:
        raise DomainError(f"rank {rank} outside [1, {n_points}]")
    deriv = getattr(region, "source_radial_mass_derivative", None)
    if deriv is not None:
        p = region.source_radial_mass(d)
        dens = (
            rank
            * math.comb(n_points, rank)
            * p ** (rank - 1)
            * (1.0 - p) ** (n_points - rank)
            * deriv(d)
        )
        return np.maximum(dens, 0.0) if type(dens) is _NDARRAY else max(0.0, dens)
    _check_distance(d, region.radius)
    h = 1e-5 * region.radius
    if type(d) is _NDARRAY:
        lo, hi = np.maximum(d - h, 0.0), np.minimum(d + h, region.radius)
    else:
        lo, hi = max(0.0, d - h), min(region.radius, d + h)
    slope = (
        nth_neighbor_ccdf(region, rank, n_points, lo)
        - nth_neighbor_ccdf(region, rank, n_points, hi)
    ) / (hi - lo)
    return np.maximum(slope, 0.0) if type(slope) is _NDARRAY else max(0.0, slope)


def expected_nth_distance(region: Region, rank: int, n_points: int) -> float:
    """E[rank-th nearest distance]: the integral of the CCDF over [0, R].

    A composite Gauss-Legendre rule on the array CCDF.  The panels split
    [0, R] at the region's kinks, and on each panel d = a + (b - a) t^2
    makes the integrand smooth in t despite the mass's (d - a)^{3/2} onset.
    Every pass evaluates both halves of every open panel in one CCDF call;
    a panel closes once its halves agree with the whole to 1e-14 R, and the
    rest are halved again, up to 256 open panels.
    """
    if not 1 <= rank <= n_points:
        raise DomainError(f"rank {rank} outside [1, {n_points}]")
    nodes, weights = _gauss_legendre()
    big_r = region.radius
    edges = np.array(sorted({0.0, big_r, *(k for k in region.kinks() if 0.0 < k < big_r)}))
    # open panels: d = start + width * t^2 over t in [t0, t1], and the
    # whole-panel estimate of each, made on the first pass
    start, width = edges[:-1], np.diff(edges)
    t0, t1 = np.zeros(len(start)), np.ones(len(start))
    whole = None
    total = 0.0
    while True:
        mid = 0.5 * (t0 + t1)
        # both halves, and on the first pass each panel whole
        lo = np.array([t0, mid] if whole is not None else [t0, mid, t0])
        hi = np.array([mid, t1] if whole is not None else [mid, t1, t1])
        h = 0.5 * (hi - lo)[..., None]
        t = lo[..., None] + h * (1.0 + nodes)
        w = width[:, None]
        d = start[:, None] + w * t * t
        ccdf = nth_neighbor_ccdf(region, rank, n_points, d.ravel()).reshape(d.shape)
        sums = (ccdf * (2.0 * w * t * h * weights)).sum(axis=-1)
        if whole is None:
            whole = sums[2]
        halves = sums[0] + sums[1]
        open_ = np.abs(halves - whole) > _GL_TOL * big_r
        total += float(halves[~open_].sum())
        if not open_.any():
            return total
        if open_.sum() > _GL_MAX_PANELS:
            return total + float(halves[open_].sum())
        start, width = np.repeat(start[open_], 2), np.repeat(width[open_], 2)
        t0 = np.column_stack((t0[open_], mid[open_])).ravel()
        t1 = np.column_stack((mid[open_], t1[open_])).ravel()
        whole = sums[:2, open_].T.ravel()


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # numpy.polynomial is imported on first use: at import it costs start-up
    from numpy.polynomial.legendre import leggauss

    return leggauss(_GL_NODES)


def median_nth_distance(region: Region, rank: int, n_points: int) -> float:
    """Distance at which the rank-th neighbour CCDF crosses one half, by
    bisection down to adjacent floats."""
    lo, hi = 0.0, region.radius
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if nth_neighbor_ccdf(region, rank, n_points, mid) > 0.5:
            lo = mid
        else:
            hi = mid


def calibrate_sdr(lens: LensRegion) -> SectorRegion:
    """Sector with the same source, range and area as ``lens``.

    Matching areas equalises the chance of finding nodes inside the two
    decision-region designs.
    """
    aperture = 2.0 * lens.area() / lens.radius**2
    if aperture > _TWO_PI + 1e-9:
        raise DomainError("required aperture exceeds a full circle")
    return SectorRegion(
        center=lens.source,
        radius=lens.radius,
        aperture=min(aperture, _TWO_PI),
        axis=lens.axis,
    )


def partition_region(region: Region, q: int) -> list[Region]:
    """Split a region into ``q`` equal-probability-mass bands in priority order.

    Priority 1 is the band offering the most forward progress: the slice
    closest to the anchor for a lens, the outermost annulus for a sector.
    """
    if q < 2:
        raise DomainError("need at least two bands")
    if region.area() <= 0.0:
        raise DomainError("cannot partition an empty region")
    return region.partition(q)


def iterated_priority_region(region: Region, rounds: int, q: int = 2) -> Region:
    """Region the election narrows to after repeatedly taking the priority-1 band.

    ``rounds=1`` is the region itself; each further round re-partitions and
    keeps the highest-priority band.
    """
    if rounds < 1:
        raise DomainError("rounds start at 1")
    current = region
    for _ in range(rounds - 1):
        current = partition_region(current, q)[0]
    return current


# ---------------------------------------------------------------------------
# point processes


@dataclass(frozen=True)
class Topology:
    """One sampled deployment: source, destination and candidate relays."""

    source: Point2
    destination: Point2
    relays: tuple[tuple[Point2, bool], ...]
    region: Region

    def __post_init__(self):
        r2 = self.region.radius**2 * (1.0 + 1e-9)
        for pos, _ in self.relays:
            dx = pos.x - self.source.x
            dy = pos.y - self.source.y
            if dx * dx + dy * dy > r2:
                raise DomainError("relay outside the source's transmission range")

    @cached_property
    def _eligible(self) -> tuple[int, ...]:
        return tuple(i for i, (_, awake) in enumerate(self.relays) if awake)

    def eligible_ids(self) -> list[int]:
        return list(self._eligible)

    @cached_property
    def _positions(self) -> np.ndarray:
        if not self.relays:
            return np.empty((0, 2))
        return np.array([[p.x, p.y] for p, _ in self.relays])

    def positions(self) -> np.ndarray:
        return self._positions

    @cached_property
    def _separations(self) -> np.ndarray:
        sx, sy = self.source
        return np.array([math.hypot(p.x - sx, p.y - sy) for p, _ in self.relays])

    def separations(self) -> np.ndarray:
        return self._separations

    def projection_of(self, relay_id: int) -> float:
        """Progress of one relay along the source-destination axis."""
        ux = self.destination.x - self.source.x
        uy = self.destination.y - self.source.y
        norm = math.hypot(ux, uy)
        p = self.relays[relay_id][0]
        return ((p.x - self.source.x) * ux + (p.y - self.source.y) * uy) / norm

    def projections(self) -> np.ndarray:
        """Progress of every relay along the source-destination axis."""
        return np.array([self.projection_of(i) for i in range(len(self.relays))])


def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_topology(
    region: Region,
    n: int,
    seed,
    awake_prob: float = 1.0,
    destination: Point2 | None = None,
) -> Topology:
    """Draw ``n`` uniform relays on the region; deterministic given the seed."""
    if n < 0:
        raise DomainError("relay count must be >= 0")
    rng = as_generator(seed)
    src = region.source if isinstance(region, LensRegion) else region.center
    if destination is None:
        destination = Point2(
            src.x + 3.0 * region.radius * region.axis[0],
            src.y + 3.0 * region.radius * region.axis[1],
        )
    pts = region.sample(n, rng).tolist() if n else []
    if awake_prob >= 1.0:
        awake = [True] * n
    else:
        awake = (rng.random(n) < awake_prob).tolist()
    relays = tuple((Point2(x, y), a) for (x, y), a in zip(pts, awake))
    return Topology(source=src, destination=destination, relays=relays, region=region)


def sample_sorted_separations(
    region: Region, n_points: int, draws: int, rng: np.random.Generator
) -> np.ndarray:
    """(draws, n_points) source separations, row-sorted; bulk path for experiments."""
    pts = region.sample(draws * n_points, rng)
    src = region.source if isinstance(region, LensRegion) else region.center
    d = np.hypot(pts[:, 0] - src.x, pts[:, 1] - src.y).reshape(draws, n_points)
    d.sort(axis=1)
    return d
