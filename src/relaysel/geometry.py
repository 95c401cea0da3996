"""Forwarding decision regions and nearest-neighbour distance laws.

Two region families are supported, both subsets of the source's range disk:

* a circular sector aimed at the destination, and
* a convex lens formed by intersecting the range disk with a disk centred on
  an anchor placed one transmission range along the source-destination axis.

Every region lives in the source's frame: the source is the origin and the
destination lies along +x, so the lens's anchor is (R, 0).  Every law
depends on distances alone, so no other frame is needed.

Points are placed by a binomial point process (a fixed count, uniform over
the region), at the counter-addressed uniforms of :mod:`relaysel.streams`
that the simulator's episodes deploy their relays at.  Everything
distance-related reduces to the region's radial mass function p(d) =
P(uniform point lies within d of the source), which for these shapes is
available in closed form from two-circle intersection areas.

Regions carry an inner/outer bound on their defining radial coordinate, so a
priority band produced by :func:`partition_region` is just another region and
can be partitioned again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InfeasibleRegionError, ResourceLimitError, as_real, check_fields
from .streams import PLACE_U, PLACE_V, episode_seeds, relay_uniforms, stream_keys

_TWO_PI = 2.0 * math.pi
# t - sin t = t^3 (1/3! - t^2/5! + t^4/7! - ...): the coefficients in t^2
_SIN_TAIL = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(7))
# expected distances: nodes per half panel, the agreement (in units of R) that
# closes a panel, and a cap on the open panels, which rounding noise in the
# mass of a sliver region would otherwise keep doubling
_GL_NODES = 32
_GL_TOL = 1e-14
_GL_MAX_PANELS = 256
# lens placement: the anchor distance is tabled at w = sqrt(anchor mass) =
# j / _PLACEMENT_GRID, where it is smooth up to rho < 2R however the mass
# goes flat at the ends; a point starts on the cubic Hermite through its two
# nodes and their slopes, then takes one Newton step, and up to this many in
# all where a step's second-order term is still above rounding
_PLACEMENT_GRID = 1024
_PLACEMENT_NEWTON_STEPS = 8
# bisection: levels of each interval's bisection tree taken per call of the
# crossing test, 2**6 - 1 points an interval, so ~9 calls instead of ~54
_BISECT_LEVELS = 6
# points are placed or measured this many at a time: each float64 temporary is 64 KB,
# under glibc's 128 KB mmap threshold, so a block's ufuncs reuse heap memory
# where whole-array temporaries would each map and fault in fresh pages
_PLACE_BLOCK = 8192
# No episode deploys more relays, no separation sample holds more points and
# no batch runs more episodes than this: 1024 placement blocks.  An episode's
# splitting tree peaks near 120 bytes per relay (1.0 GB at the cap), and a
# sample holds 24 bytes per point whole.
MAX_POINTS = 1024 * _PLACE_BLOCK
# a region's radius: its square is a normal float, and so is (2 r)^2 finite
_RADIUS_RANGE = (math.sqrt(sys.float_info.min), 0.5 * math.sqrt(sys.float_info.max))
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class Point2(NamedTuple):
    """A planar point in metres."""

    x: float
    y: float


def circle_intersection_area(r1, r2, d):
    """Area of the intersection of two discs with radii ``r1``, ``r2`` and
    centre separation ``d``; any argument may be an ndarray, and floats give a float.

    The sum of the two segments beyond the common chord, r^2 theta - x h for
    a disc of radius r: theta is the angle of the triangle r1, r2, d at the
    disc's centre, by Kahan's tan(theta / 2) = sqrt(Q / P) with P = 4 s (s - r')
    and Q = 4 (s - r)(s - d) (s the half-perimeter, r' the other radius); half
    the chord is h = sqrt(P Q) / 2d, and x = (P - Q) / 4d.  Disjoint, contained
    and tangent discs make no triangle: a factor clamped to 0 gives theta = 0
    or pi.  Concentric discs share the smaller one; a radius <= 0 meets nothing.
    The lengths are first scaled by a power of two to below 1, which is exact:
    a product of four of them then neither overflows nor underflows at any
    radius in ``_RADIUS_RANGE``, and the area is scaled back at the end.
    """
    a, b, d = (np.asarray(x, dtype=float) for x in (r1, r2, d))
    _, scale = np.frexp(np.maximum(np.maximum(a, b), d))
    a, b, d = (np.ldexp(x, -scale) for x in (a, b, d))
    # 2 (s - x) for each side x, and 2 s: x comes off the larger other side,
    # exactly (Sterbenz) where x is a triangle's longest side, so no factor
    # cancels however thin the triangle
    f_a = np.maximum((np.maximum(b, d) - a) + np.minimum(b, d), 0.0)
    f_b = np.maximum((np.maximum(a, d) - b) + np.minimum(a, d), 0.0)
    f_d = np.maximum((np.maximum(a, b) - d) + np.minimum(a, b), 0.0)
    f_s = a + b + d
    with np.errstate(divide="ignore", invalid="ignore"):
        area = _segment(a, f_s * f_b, f_a * f_d, d) + _segment(b, f_s * f_a, f_b * f_d, d)
    r = np.minimum(a, b)
    area = np.where(d > 0.0, area, math.pi * r * r)
    return _as_float(np.ldexp(np.where(r > 0.0, area, 0.0), 2 * scale))


def _segment(r: np.ndarray, p: np.ndarray, q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The segment of the disc of radius ``r`` beyond the chord, from P = ``p``
    and Q = ``q`` of :func:`circle_intersection_area`.  Below t = 2 theta = 0.5,
    r^2 theta - x h = (r^2 / 2)(t - sin t) would lose up to six bits, and the
    odd series of t - sin t, cut below 1e-18 of its sum, takes over."""
    root_p, root_q = np.sqrt(p), np.sqrt(q)
    theta = 2.0 * np.arctan2(root_q, root_p)
    t = 2.0 * theta
    s = t * t
    series = _SIN_TAIL[-1]
    for c in _SIN_TAIL[-2::-1]:
        series = c + s * series
    # x h = ((p - q) / 4d)(sqrt(p q) / 2d), which is 0 wherever h is, however small d
    chord = r * r * theta - (p - q) * (root_p * root_q) / (8.0 * d) / d
    return np.where(t < 0.5, 0.5 * r * r * (t * s * series), chord)


def _as_float(x: np.ndarray):
    """``x`` itself, or a Python float where ``x`` holds a single value of
    no dimension: ``repr`` of a numpy scalar would not print as a number."""
    return x if x.ndim else float(x)


def _check_distance(d, radius: float) -> None:
    """Raise unless every distance in ``d`` (a float or an ndarray) lies in
    [0, radius], with a relative slack of 1e-12 at the top; NaN is outside."""
    d = np.asarray(d)
    bad = ~((d >= 0.0) & (d <= radius * (1.0 + 1e-12)))
    if bad.any():
        raise DomainError(f"distance {d[bad].flat[0]} outside [0, {radius}]")


def _check_radius(radius: float) -> None:
    lo, hi = _RADIUS_RANGE
    if not lo <= radius <= hi:
        raise DomainError(f"radius must lie in [{lo:.4g}, {hi:.4g}], got {radius}")


@dataclass(frozen=True)
class SectorRegion:
    """Circular sector of the range disk about the source at the origin,
    opened symmetrically about +x, the direction of the destination.

    ``inner_radius`` is zero for the full sector; partition bands reuse the
    class with a non-trivial annular bound.
    """

    radius: float = 1.0
    aperture: float = math.pi
    inner_radius: float = 0.0

    def __post_init__(self):
        check_fields(self)
        _check_radius(self.radius)
        if not 0.0 < self.aperture <= _TWO_PI + 1e-12:
            raise DomainError("aperture must lie in (0, 2*pi]")
        if not 0.0 <= self.inner_radius < self.radius:
            raise DomainError("inner radius must lie in [0, radius)")

    # -- region protocol ---------------------------------------------------

    def area(self) -> float:
        return 0.5 * self.aperture * (self.radius**2 - self.inner_radius**2)

    def source_radial_mass(self, d):
        """Mass within source distance ``d`` (a float or an ndarray)."""
        _check_distance(d, self.radius)
        d = np.asarray(d, dtype=float)
        mass = (d * d - self.inner_radius**2) / (self.radius**2 - self.inner_radius**2)
        return _as_float(np.maximum(mass, 0.0))

    def source_radial_mass_derivative(self, d):
        """Density of the radial mass at source distance ``d``, checked as
        :meth:`source_radial_mass` checks it."""
        _check_distance(d, self.radius)
        inside = (d >= self.inner_radius) & (d <= self.radius)
        return 2.0 * d / (self.radius**2 - self.inner_radius**2) * inside

    def kinks(self) -> tuple[float, ...]:
        """Source distances where the radial mass is not smooth."""
        return (self.inner_radius,)

    def contains(self, p: Point2) -> bool:
        r = math.hypot(p[0], p[1])
        # the same rounding slack at the rim as the lens: place(u, v) with u
        # just below 1 lands on it
        if r > self.radius * (1.0 + 1e-12) or (r <= self.inner_radius and self.inner_radius > 0.0):
            return False
        if r == 0.0:
            return True
        return abs(math.atan2(p[1], p[0])) <= 0.5 * self.aperture + 1e-12

    def place(self, u, v) -> np.ndarray:
        """Points at area-uniform radius fraction ``u`` and angle fraction ``v``.

        ``u`` and ``v`` are arrays of uniforms in [0, 1) of one shape; the
        points come back with a trailing axis of (x, y).  Uniform ``u`` and
        ``v`` give points uniform over the sector.
        """
        return _in_blocks(self._place_block, u, v, 2)

    def separations(self, u, v=None) -> np.ndarray:
        """Source distances of :meth:`place`'s points, of the shape of ``u``:
        the radius alone, so ``v`` is not read and need not be drawn."""
        return _in_blocks(self._separation_block, u, u)

    def _place_block(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        r = self._radii(u)
        theta = (v - 0.5) * self.aperture
        out[:, 0] = r * np.cos(theta)
        out[:, 1] = r * np.sin(theta)

    def _separation_block(self, u: np.ndarray, _, out: np.ndarray) -> None:
        out[:] = self._radii(u)

    def _radii(self, u: np.ndarray) -> np.ndarray:
        lo2 = self.inner_radius**2
        return np.sqrt(lo2 + u * (self.radius**2 - lo2))

    def partition(self, q: int) -> list["SectorRegion"]:
        """Equal-mass annular bands by source distance, outermost first."""
        lo2, hi2 = self.inner_radius**2, self.radius**2
        inner = [math.sqrt(lo2 + (j / q) * (hi2 - lo2)) for j in range(1, q)]
        edges = [self.inner_radius, *inner, self.radius]  # exact ends, even where r^2 underflows
        bands = [
            SectorRegion(radius=edges[j + 1], aperture=self.aperture, inner_radius=edges[j])
            for j in range(q)
        ]
        return bands[::-1]


@dataclass(frozen=True)
class LensRegion:
    """Convex lens: range disk intersected with a disk around the anchor.

    The source sits at the origin and the anchor one transmission range
    along +x, toward the destination, so the separation between the two
    disc centres is always ``radius``.  ``inner_rho`` > 0 selects the
    annular slice between two anchor-centred radii, which is how priority
    bands are represented.
    """

    radius: float = 1.0
    rho: float | None = None
    inner_rho: float = 0.0

    def __post_init__(self):
        check_fields(self)
        _check_radius(self.radius)
        if self.rho is None:
            object.__setattr__(self, "rho", self.radius)
        if not 0.0 < self.rho <= 2.0 * self.radius + 1e-12:
            raise DomainError("rho must lie in (0, 2*radius]")
        if not 0.0 <= self.inner_rho < self.rho:
            raise DomainError("inner rho must lie in [0, rho)")
        if self.area() <= 0.0:
            raise InfeasibleRegionError("lens slice has no area")

    @property
    def anchor(self) -> Point2:
        return Point2(self.radius, 0.0)

    def _overlap(self, r_source, s_anchor):
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
        # a full lens's inner circle has no area: skip the array work of its overlap
        inner = self._overlap(d, self.inner_rho) if self.inner_rho > 0.0 else 0.0
        mass = (self._overlap(d, self.rho) - inner) / self.area()
        return _as_float(np.clip(mass, 0.0, 1.0))

    def kinks(self) -> tuple[float, ...]:
        """Source distances where the radial mass is not smooth: where the
        source disk meets each anchor circle, from outside (d = R - rho) or
        from inside it (d = rho - R).  Past each one the mass departs from
        its course by a 3/2 power of the distance."""
        return (abs(self.radius - self.rho), abs(self.radius - self.inner_rho))

    def anchor_radial_mass(self, s):
        """Mass of the slice within anchor distance ``s`` (a float or an
        ndarray); drives partitioning."""
        s = np.minimum(np.maximum(s, self.inner_rho), self.rho)
        return (self._overlap(self.radius, s) - self._inner_overlap) / self._area

    def contains(self, p: Point2) -> bool:
        if not p[0] * p[0] + p[1] * p[1] <= self.radius**2 * (1.0 + 1e-12):  # NaN is outside
            return False
        da = math.hypot(p[0] - self.radius, p[1])
        if da > self.rho * (1.0 + 1e-12):
            return False
        return da > self.inner_rho or self.inner_rho == 0.0

    def _disk_overlap(self, s: np.ndarray) -> tuple[np.ndarray, ...]:
        """Area of the range disk within anchor distance ``s``, by numpy's
        ufuncs, with its derivative in ``s`` and half the size of its second
        as a ratio ``bend / root``.

        With the centres ``R`` apart and ``t = s / 2R`` the two-circle area
        reduces to ``2 R^2 (asin t + t (2 t acos t - sqrt(1 - t^2)))``, its
        derivative is the arc length ``2 s acos t``, and half the second
        derivative is ``acos t - t / sqrt(1 - t^2)``.  The root is taken of
        ``(1 - t)(1 + t)``, which keeps its digits as t nears 1.  Placement
        only: the laws use :func:`circle_intersection_area`'s half-angle formula.
        """
        t = np.minimum(s / (2.0 * self.radius), 1.0)
        half_arc = np.arccos(t)
        root = np.sqrt((1.0 - t) * (1.0 + t))
        area = (2.0 * self.radius**2) * (np.arcsin(t) + t * (2.0 * t * half_arc - root))
        return area, 2.0 * s * half_arc, np.abs(half_arc * root - t), root

    def _settle(self, s: np.ndarray, target: np.ndarray, tol: float) -> np.ndarray:
        """Newton steps from the anchor distances ``s`` toward the areas
        ``target``: one on every point, then more only on the points whose
        last step left them loose, at most ``_PLACEMENT_NEWTON_STEPS`` in all."""
        s, loose = self._newton_step(s, target, tol)
        todo = np.flatnonzero(loose)
        for _ in range(_PLACEMENT_NEWTON_STEPS - 1):
            if not todo.size:
                break
            s[todo], loose = self._newton_step(s[todo], target[todo], tol)
            todo = todo[loose]
        return s

    def _newton_step(self, s: np.ndarray, target: np.ndarray, tol: float):
        """(new s, loose): one Newton step of the anchor distances ``s``
        toward the areas ``target``, and where the step ``h`` left an error
        ``|A''| h^2 / 2`` above ``tol``, clear of rounding."""
        area, slope, bend, root = self._disk_overlap(s)
        area -= target
        step = np.divide(area, slope, out=np.zeros_like(s), where=slope > 0.0)
        return np.clip(s - step, self.inner_rho, self.rho), bend * (step * step) > tol * root

    @cached_property
    def _placement_table(self) -> tuple[np.ndarray, float, float, float]:
        """(coefficients, lo, span, tol): the cubic in f of the anchor
        distance at w = sqrt(anchor mass) = (j + f) / _PLACEMENT_GRID, one
        column per node j (the last node's a constant, for u = 1); the area
        ``lo`` within ``inner_rho``, the slice's area ``span``, and the
        Newton tolerance, rounding of the area within ``rho``.

        The nodes settle from a linear start on Chebyshev-spaced anchor
        distances, which crowd both ends where the mass goes flat.  A node's
        slope is ds/dw = 2 w span / (dA/ds), or where dA/ds vanishes (s = 0
        and s = 2R) that of the chord to its neighbour.
        """
        grid = _PLACEMENT_GRID
        frac = 0.5 * (1.0 - np.cos(np.pi * np.arange(grid + 1) / grid))
        s = self.inner_rho + (self.rho - self.inner_rho) * frac
        area = self._disk_overlap(s)[0]
        lo, span = float(area[0]), float(area[-1] - area[0])
        tol = 2.0**-53 * float(area[-1])
        w = np.arange(grid + 1) / grid
        s = self._settle(np.interp(w, np.sqrt((area - lo) / span), s), lo + w * w * span, tol)
        slope = self._disk_overlap(s)[1]
        rise = np.diff(s)
        chord = rise * grid
        m = np.divide(2.0 * w * span, slope, out=np.append(chord[:1], chord), where=slope > 0.0) / grid
        coeffs = np.zeros((4, grid + 1))
        coeffs[0] = s
        coeffs[1:, :-1] = m[:-1], 3.0 * rise - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * rise
        return coeffs, lo, span, tol

    def _anchor_distance(self, u: np.ndarray) -> np.ndarray:
        """The anchor distance whose anchor mass is ``u``: a Hermite start
        looked up by ``sqrt(u)``, settled by :meth:`_settle`."""
        coeffs, lo, span, tol = self._placement_table
        x = np.sqrt(u) * _PLACEMENT_GRID
        j = x.astype(np.intp)
        f = x - j
        c0, c1, c2, c3 = np.take(coeffs, j, axis=1)
        return self._settle(c0 + f * (c1 + f * (c2 + f * c3)), lo + u * span, tol)

    def _polar(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s, psi / 2): the anchor distance of mass ``u`` and half the angle
        at fraction ``v`` of the arc ``|psi| <= acos(s / 2R)``, measured at
        the anchor from the anchor-to-source direction."""
        s = self._anchor_distance(u)
        return s, (v - 0.5) * np.arccos(np.minimum(s / (2.0 * self.radius), 1.0))

    def place(self, u, v) -> np.ndarray:
        """Points whose anchor mass is ``u``, at arc fraction ``v``.

        The anchor distance ``s`` solves ``anchor_radial_mass(s) = u``
        (:meth:`_anchor_distance`).  The angle is uniform on the arc
        ``|psi| <= acos(s / 2R)`` of the anchor circle inside the range disk,
        measured from the anchor-to-source direction; the arc is the same for
        every slice.  ``u`` and ``v`` are arrays of uniforms in [0, 1) of one
        shape, and uniform ``u`` and ``v`` give points uniform over the
        slice, with ``u`` their anchor mass.
        """
        return _in_blocks(self._place_block, u, v, 2)

    def separations(self, u, v) -> np.ndarray:
        """Source distances of :meth:`place`'s points, of the shape of ``u``,
        by the law of cosines in its half-angle form
        ``sqrt((R - s)^2 + 4 R s sin^2(psi / 2))``: a sum of two terms >= 0,
        so nothing cancels, and no point is built."""
        return _in_blocks(self._separation_block, u, v)

    def _place_block(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        s, half = self._polar(u, v)
        # psi = 2 * half turns from the anchor-to-source direction, -x at angle -pi
        phi = 2.0 * half - math.pi
        out[:, 0] = self.radius + s * np.cos(phi)
        out[:, 1] = s * np.sin(phi)

    def _separation_block(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        s, half = self._polar(u, v)
        sine = np.sin(half)
        big_r = self.radius
        np.sqrt((big_r - s) ** 2 + (4.0 * big_r) * s * (sine * sine), out=out)

    def partition(self, q: int) -> list["LensRegion"]:
        """Equal-mass anchor-centred slices, the slice nearest the anchor first.

        The inner edges bisect the anchor radial mass at 1/q, 2/q, ... down
        to adjacent floats, all of them in one call per step.
        """
        targets, ones = np.arange(1, q) / q, np.ones(q - 1)
        inner = _bisect(lambda s: self.anchor_radial_mass(s) < targets, self.inner_rho * ones, self.rho * ones)
        edges = [self.inner_rho, *inner.tolist(), self.rho]
        return [LensRegion(radius=self.radius, rho=edges[j + 1], inner_rho=edges[j]) for j in range(q)]


Region = SectorRegion | LensRegion


def _in_blocks(fill, u, v, *point: int) -> np.ndarray:
    """``fill(u, v, out)`` over flat blocks of at most ``_PLACE_BLOCK`` of
    the uniforms ``u`` and ``v`` (of one shape), into an array of their shape
    with the trailing axes ``point``: (2,) for (x, y), none for a distance."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    out = np.empty(u.shape + point)
    flat_u, flat_v, flat_out = u.reshape(-1), v.reshape(-1), out.reshape(-1, *point)
    for start in range(0, flat_u.size, _PLACE_BLOCK):
        block = slice(start, start + _PLACE_BLOCK)
        fill(flat_u[block], flat_v[block], flat_out[block])
    return out


# ---------------------------------------------------------------------------
# module-level operations


def check_binomials(rank: int, n_points: int, density: bool = False) -> None:
    """Refuse, with a ``ResourceLimitError``, the law of the rank-th nearest
    of ``n_points`` whose float sums would meet a binomial coefficient
    beyond the float range, where Python's int times a float overflows:
    C(n, k) for every k < rank in the CCDF and the laws built on it, or
    rank * C(n, rank) in the sector's closed-form density."""
    k, factor = (rank, rank) if density else (min(rank - 1, n_points // 2), 1)
    if not _fits_float(factor, n_points, k):
        raise ResourceLimitError(
            f"the rank-{rank} law of {n_points} points needs a binomial coefficient beyond the float range"
        )


def _fits_float(factor: int, n: int, k: int) -> bool:
    """Whether ``factor * C(n, k)`` converts to a float: by lgamma where its
    logarithm is clear of the limit, else from the exact int."""
    log = math.log(factor) + math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    if abs(log - _LOG_FLOAT_MAX) > 1.0:
        return log < _LOG_FLOAT_MAX
    try:
        float(factor * math.comb(n, k))
    except OverflowError:
        return False
    return True


def nth_neighbor_ccdf(region: Region, rank: int, n_points: int, d):
    """P(the rank-th nearest of ``n_points`` uniform points lies beyond ``d``).

    Equivalently the probability that fewer than ``rank`` points fall within
    distance ``d`` of the source.  ``d`` may be an ndarray of distances.
    """
    if not 1 <= rank <= n_points:
        raise DomainError(f"rank {rank} outside [1, {n_points}]")
    check_binomials(rank, n_points)
    return _as_float(np.clip(_fewer_than(rank, n_points, region.source_radial_mass(d)), 0.0, 1.0))


def _fewer_than(rank: int, n_points: int, p):
    """P(fewer than ``rank`` of ``n_points`` uniform points fall in a part of
    mass ``p``), a float or an ndarray, unclamped."""
    total = 0.0
    for k in range(rank):
        total += math.comb(n_points, k) * p**k * (1.0 - p) ** (n_points - k)
    return total


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
        check_binomials(rank, n_points, density=True)
        p = region.source_radial_mass(d)
        dens = (
            rank
            * math.comb(n_points, rank)
            * p ** (rank - 1)
            * (1.0 - p) ** (n_points - rank)
            * deriv(d)
        )
        return _as_float(np.maximum(dens, 0.0))
    _check_distance(d, region.radius)
    h = 1e-5 * region.radius
    lo, hi = np.maximum(d - h, 0.0), np.minimum(d + h, region.radius)
    slope = (
        nth_neighbor_ccdf(region, rank, n_points, lo)
        - nth_neighbor_ccdf(region, rank, n_points, hi)
    ) / (hi - lo)
    return _as_float(np.maximum(slope, 0.0))


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
    check_binomials(rank, n_points)
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
    bisection on the array CCDF down to adjacent floats."""

    def above_half(d):  # its first call checks the rank and the binomials
        return nth_neighbor_ccdf(region, rank, n_points, d) > 0.5

    return float(_bisect(above_half, np.zeros(()), np.full((), region.radius)))


def _bisect(below, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Crossings of ``below`` bisected down to adjacent floats, for all the
    intervals [lo, hi] (arrays of one shape): ``below(x)`` is true where
    ``x`` lies left of its interval's crossing.

    Each call of ``below`` takes the next ``_BISECT_LEVELS`` levels of every
    interval's bisection tree at once: the midpoints ``0.5 * (lo + hi)`` of
    every interval the search can reach in that many halvings, an array of
    shape ``(2**_BISECT_LEVELS - 1, *lo.shape)``.  The walk down the tree is
    then the binary search's own, midpoint for midpoint, and so is the
    crossing.
    """
    shape, width = lo.shape, lo.size
    lo, hi = lo.ravel().tolist(), hi.ravel().tolist()
    found = [None] * width
    while None in found:
        # the tree in heap order: node i's halves are nodes 2i + 1 and 2i + 2
        a, b = np.array([lo]), np.array([hi])
        nodes = [0.5 * (a + b)]
        while len(nodes) < _BISECT_LEVELS:
            a, b = np.repeat(a, 2, axis=0), np.repeat(b, 2, axis=0)
            a[1::2] = b[0::2] = nodes[-1]
            nodes.append(0.5 * (a + b))
        mids = np.concatenate(nodes)
        left = np.asarray(below(mids.reshape(-1, *shape))).reshape(-1, width)
        for j, (mid_j, left_j) in enumerate(zip(mids.T.tolist(), left.T.tolist())):
            i = 0
            while found[j] is None and i < len(mid_j):
                if not lo[j] < mid_j[i] < hi[j]:
                    found[j] = mid_j[i]
                elif left_j[i]:
                    lo[j], i = mid_j[i], 2 * i + 2
                else:
                    hi[j], i = mid_j[i], 2 * i + 1
    return np.array(found).reshape(shape)


def calibrate_sdr(lens: LensRegion) -> SectorRegion:
    """Sector with the same range and area as ``lens``.

    Matching areas equalises the chance of finding nodes inside the two
    decision-region designs.
    """
    aperture = 2.0 * lens.area() / lens.radius**2
    if aperture > _TWO_PI + 1e-9:
        raise DomainError("required aperture exceeds a full circle")
    return SectorRegion(radius=lens.radius, aperture=min(aperture, _TWO_PI))


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
    """One sampled deployment: the candidate relays of the source at the
    origin, in their region's frame."""

    relays: tuple[Point2, ...]
    region: Region

    def __post_init__(self):
        if not isinstance(self.region, Region):
            raise DomainError(f"region must be a SectorRegion or a LensRegion, got {self.region!r}")
        try:
            relays = tuple(self.relays)
        except TypeError:
            relays = None
        if relays is None or not all(isinstance(pos, Point2) for pos in relays):
            raise DomainError(f"relays must be a sequence of Point2, got {self.relays!r}")
        object.__setattr__(self, "relays", relays)
        r2 = self.region.radius**2 * (1.0 + 1e-9)
        for pos in relays:
            x, y = as_real(pos.x, "a relay's x"), as_real(pos.y, "a relay's y")
            if not x * x + y * y <= r2:
                raise DomainError("relay outside the source's transmission range")

    def separations(self) -> np.ndarray:
        return np.array([math.hypot(p.x, p.y) for p in self.relays])


def sample_topology(region: Region, n: int, seed) -> Topology:
    """Episode 0's ``n`` relays under the master ``seed``, placed on the
    region at their uniforms (see :func:`sample_sorted_separations`)."""
    if n < 0:
        raise DomainError("relay count must be >= 0")
    keys = episode_seeds(seed, 1)
    u, v = (relay_uniforms(stream_keys(keys, stream), n)[:, 0] for stream in (PLACE_U, PLACE_V))
    pts = region.place(u, v).tolist()
    return Topology(tuple(Point2(x, y) for x, y in pts), region)


def sample_sorted_separations(region: Region, n_points: int, draws: int, seed) -> np.ndarray:
    """(draws, n_points) source separations, row-sorted; bulk path for experiments.

    Row i is episode i's deployment under the master ``seed`` (any seed a
    simulator batch takes), measured by the region's ``separations`` with no
    point built: a sector's separation is its radius alone, so its second
    uniform is never drawn.  The rows are drawn, measured and sorted a block
    of about ``_PLACE_BLOCK`` points at a time, so no whole-size temporary
    but the keys is held.  More than ``MAX_POINTS`` points or draws in all
    are refused before any is drawn.
    """
    if draws * max(n_points, 1) > MAX_POINTS:
        raise ResourceLimitError(f"{draws} draws of {n_points} points exceed the limit of {MAX_POINTS}")
    episodes = episode_seeds(seed, draws)
    streams = (PLACE_U, PLACE_V) if isinstance(region, LensRegion) else (PLACE_U,)
    keys = [stream_keys(episodes, stream) for stream in streams]
    out = np.empty((draws, n_points))
    rows = max(1, _PLACE_BLOCK // max(n_points, 1))
    for start in range(0, draws, rows):
        block = slice(start, start + rows)
        out[block] = region.separations(*(relay_uniforms(k[block], n_points) for k in keys)).T
        out[block].sort(axis=1)
    return out
