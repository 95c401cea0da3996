"""Decision regions, distance laws, partitioning and point-process sampling."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from relaysel import geometry
from relaysel.errors import DomainError, ResourceLimitError
from relaysel.geometry import (
    LensRegion,
    Point2,
    SectorRegion,
    Topology,
    calibrate_sdr,
    circle_intersection_area,
    expected_nth_distance,
    iterated_priority_region,
    median_nth_distance,
    nth_neighbor_ccdf,
    nth_neighbor_pdf,
    partition_region,
    sample_sorted_separations,
    sample_topology,
)
from relaysel.streams import PLACE_U, PLACE_V, episode_seeds, relay_uniforms, stream_keys

from oracles import (
    anchor_mass_by_quadrature,
    anchor_mass_exact,
    circle_intersection_area_exact,
    lens_mass_by_quadrature,
    lens_separation_exact,
)

LENS_AREA_RHO_EQ_R = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0


# ---------------------------------------------------------------------------
# two-circle building block


def test_disjoint_circles_have_no_overlap():
    assert circle_intersection_area(1.0, 1.0, 2.5) == 0.0


def test_contained_circle_overlap_is_smaller_disk():
    assert circle_intersection_area(3.0, 1.0, 0.5) == pytest.approx(math.pi, rel=1e-14)


def test_equal_circles_at_unit_separation():
    assert circle_intersection_area(1.0, 1.0, 1.0) == pytest.approx(
        LENS_AREA_RHO_EQ_R, rel=1e-14
    )


@st.composite
def disc_pairs(draw):
    """Radii and a separation: anywhere, a tiny disc on the other's rim, two
    discs near outer or inner tangency, or concentric discs; half of them
    scaled by up to 1e140 either way, where a product of four lengths would
    overflow or underflow."""
    r1 = draw(st.floats(0.5, 4.0))
    kind = draw(st.sampled_from(["any", "rim", "tangent", "contained", "concentric"]))
    if kind == "any":
        pair = r1, draw(st.floats(0.01, 8.0)), draw(st.floats(0.0, 12.0))
    elif kind == "rim":
        r2 = r1 * 10 ** draw(st.floats(-9.0, -2.0))
        pair = r1, r2, r1 + r2 * draw(st.floats(-1.0, 1.0))
    else:
        r2 = r1 * draw(st.floats(0.05, 3.0))
        gap = 10 ** draw(st.floats(-12.0, -2.0))
        if kind == "tangent":
            pair = r1, r2, (r1 + r2) * (1.0 - gap)
        elif kind == "contained":
            pair = r1, r2, abs(r1 - r2) * (1.0 + gap) if r1 != r2 else gap * r1
        else:
            pair = r1, r2, 0.0
    scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-140, 140)))
    return tuple(x * scale for x in pair)


@settings(max_examples=400, deadline=None)
@given(pair=disc_pairs())
@example(pair=(3.5, 1.26e-6, 3.5))  # once off by a factor of 250, from acos near 1
@example(pair=(1.0, 1.0, 1.9999))
@example(pair=(1.0, 0.5, 5e-324))  # a chord of length 0 at a subnormal separation
@example(pair=(1.0, 1.0, 1e-6))  # nearly concentric equal discs
@example(pair=(1e150, 1e150, 1e150))  # the ends of a region's radius range
@example(pair=(1e-150, 1e-150, 1e-150))
def test_intersection_area_matches_a_60_digit_oracle(pair):
    exact = circle_intersection_area_exact(*pair)
    got = circle_intersection_area(*pair)
    assert type(got) is float
    assert abs(got - exact) <= 1e-13 * exact


# ---------------------------------------------------------------------------
# areas


def test_sector_area():
    assert SectorRegion(radius=1.0, aperture=math.pi).area() == pytest.approx(
        math.pi / 2.0, rel=1e-14
    )


def test_lens_area_closed_form():
    mass = LensRegion(radius=1.0).source_radial_mass(0.5)
    # the ends of the radius range too, where a product of four lengths would
    # overflow or underflow
    for radius in [1.0, *geometry._RADIUS_RANGE, 1e-100, 1e100]:
        lens = LensRegion(radius=radius)
        assert lens.area() == pytest.approx(LENS_AREA_RHO_EQ_R * radius * radius, rel=1e-14)
        assert lens.source_radial_mass(0.5 * radius) == pytest.approx(mass, rel=1e-14)


def test_full_reach_lens_covers_the_range_disk():
    lens = LensRegion(radius=1.0, rho=2.0)
    assert lens.area() == pytest.approx(math.pi, rel=1e-14)


def test_lens_area_against_hit_or_miss():
    lens = LensRegion(radius=1.0)
    rng = np.random.default_rng(2024)
    total = 10_000_000
    x = rng.uniform(0.0, 1.0, total)  # lens bounding box: [0, R] x [-R, R]
    y = rng.uniform(-1.0, 1.0, total)
    inside = (x * x + y * y <= 1.0) & ((x - 1.0) ** 2 + y * y <= 1.0)
    p_hat = inside.mean()
    box = 2.0
    se = math.sqrt(p_hat * (1.0 - p_hat) / total) * box
    assert abs(p_hat * box - lens.area()) <= 3.0 * se


# ---------------------------------------------------------------------------
# radial mass


def test_sector_radial_mass_is_squared_distance():
    sector = SectorRegion(radius=1.0, aperture=math.pi)
    assert sector.source_radial_mass(1.0) == 1.0
    assert sector.source_radial_mass(0.5) == pytest.approx(0.25, abs=1e-15)


def test_radial_mass_rejects_out_of_range():
    with pytest.raises(DomainError):
        SectorRegion(radius=1.0).source_radial_mass(1.5)
    with pytest.raises(DomainError):
        LensRegion(radius=1.0).source_radial_mass(-0.1)


@pytest.mark.parametrize("d", [2.0, -1.0, math.nan, np.array([0.5, 2.0]), np.array([math.nan])])
def test_radial_mass_derivative_rejects_what_the_mass_rejects(d):
    sector = SectorRegion(radius=1.0)
    with pytest.raises(DomainError):
        sector.source_radial_mass(d)
    with pytest.raises(DomainError):
        sector.source_radial_mass_derivative(d)


def test_lens_radial_mass_against_quadrature_oracle():
    lens = LensRegion(radius=1.0)
    for d in (0.2, 0.5, 0.8, 0.95):
        assert lens.source_radial_mass(d) == pytest.approx(
            lens_mass_by_quadrature(lens, d), abs=1e-9
        )


def test_lens_radial_mass_against_monte_carlo():
    lens = LensRegion(radius=1.0)
    rng = np.random.default_rng(99)
    total = 10_000_000
    pts = lens.place(rng.random(total), rng.random(total))
    d = np.hypot(pts[:, 0], pts[:, 1])
    p_hat = float((d <= 0.8).mean())
    se = math.sqrt(p_hat * (1.0 - p_hat) / total)
    assert abs(p_hat - lens.source_radial_mass(0.8)) <= 3.0 * se


@pytest.mark.parametrize(
    "region",
    [
        SectorRegion(radius=1.0, aperture=math.pi),
        LensRegion(radius=1.0),
        LensRegion(radius=2.0, rho=3.1),
        partition_region(LensRegion(radius=1.0), 2)[0],
        partition_region(SectorRegion(radius=1.0, aperture=2.0), 3)[1],
    ],
)
def test_radial_mass_monotone_on_grid(region):
    grid = np.linspace(0.0, region.radius, 1000)
    values = [region.source_radial_mass(float(d)) for d in grid]
    assert values[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# neighbour-distance laws


def test_ccdf_vanishes_at_the_range_boundary():
    sector = SectorRegion(radius=1.0)
    for rank in range(1, 6):
        assert nth_neighbor_ccdf(sector, rank, 5, 1.0) == 0.0


def test_single_point_ccdf_closed_form():
    sector = SectorRegion(radius=1.0)
    for d in (0.1, 0.4, 0.9):
        assert nth_neighbor_ccdf(sector, 1, 1, d) == pytest.approx(1.0 - d * d, abs=1e-14)


def test_median_nearest_of_five():
    sector = SectorRegion(radius=1.0)
    expected = math.sqrt(1.0 - 2.0 ** (-1.0 / 5.0))
    assert median_nth_distance(sector, 1, 5) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.35982, abs=1e-4)


def test_ccdf_rejects_bad_rank():
    with pytest.raises(DomainError):
        nth_neighbor_ccdf(SectorRegion(radius=1.0), 6, 5, 0.5)


def test_sector_pdf_closed_forms():
    sector = SectorRegion(radius=1.0)
    for d in (0.2, 0.6, 0.9):
        assert nth_neighbor_pdf(sector, 1, 1, d) == pytest.approx(2.0 * d, abs=1e-12)
        assert nth_neighbor_pdf(sector, 5, 5, d) == pytest.approx(10.0 * d**9, abs=1e-12)


@pytest.mark.parametrize("region", [SectorRegion(radius=1.0), LensRegion(radius=1.0)])
@pytest.mark.parametrize("rank", [1, 3, 5])
def test_pdf_integrates_to_one(region, rank):
    val, _ = quad(lambda d: nth_neighbor_pdf(region, rank, 5, d), 0.0, region.radius, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_lens_pdf_against_sampled_distances():
    lens = LensRegion(radius=1.0)
    draws = 200_000
    sorted_d = sample_sorted_separations(lens, 5, draws, 5150)
    for rank in (1, 3, 5):
        samples = np.sort(sorted_d[:, rank - 1])
        cdf = 1.0 - nth_neighbor_ccdf(lens, rank, 5, samples)
        hi = np.arange(1, draws + 1) / draws
        lo = np.arange(0, draws) / draws
        ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(lo - cdf)))
        assert ks <= 0.01


# ---------------------------------------------------------------------------
# array-valued laws: each element equals the scalar call


@st.composite
def regions(draw):
    """A sector, a lens with rho in (0, 2R], or a priority slice of either."""
    radius = draw(st.floats(0.5, 4.0))
    if draw(st.booleans()):
        aperture = draw(st.floats(0.05, 2.0 * math.pi))
        inner = draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.95))])) * radius
        return SectorRegion(radius=radius, aperture=aperture, inner_radius=inner)
    rho = draw(st.floats(0.05, 2.0)) * radius
    inner_rho = draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.95))])) * rho
    return LensRegion(radius=radius, rho=rho, inner_rho=inner_rho)


def _edges(region) -> list[float]:
    """0, R and the source distances where the radial mass has a kink: the
    sector band's inner radius, and where the source disk meets an anchor
    circle from outside (R - rho) or from inside (rho - R)."""
    big_r = region.radius
    if isinstance(region, SectorRegion):
        return [0.0, region.inner_radius, big_r]
    return [0.0, abs(big_r - region.rho), abs(big_r - region.inner_rho), big_r]


@settings(max_examples=150, deadline=None)
@given(
    region=regions(),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=40),
    n_points=st.integers(1, 12),
    data=st.data(),
)
def test_array_laws_equal_scalar_calls(region, fractions, n_points, data):
    rank = data.draw(st.integers(1, n_points))
    d = np.array(_edges(region) + [f * region.radius for f in fractions])
    masses = region.source_radial_mass(d)
    ccdf = nth_neighbor_ccdf(region, rank, n_points, d)
    pdf = nth_neighbor_pdf(region, rank, n_points, d)
    # the lens density is a central difference of step 1e-5 R
    pdf_tol = 1e-15 if isinstance(region, SectorRegion) else 1e-9
    for j, x in enumerate(d.tolist()):
        assert abs(masses[j] - region.source_radial_mass(x)) <= 1e-15
        assert abs(ccdf[j] - nth_neighbor_ccdf(region, rank, n_points, x)) <= 1e-15
        scalar_pdf = nth_neighbor_pdf(region, rank, n_points, x)
        assert abs(pdf[j] - scalar_pdf) <= pdf_tol * max(1.0, abs(scalar_pdf))
    if isinstance(region, SectorRegion):
        deriv = region.source_radial_mass_derivative(d)
        assert deriv.tolist() == [region.source_radial_mass_derivative(x) for x in d.tolist()]


@settings(max_examples=150, deadline=None)
@given(
    r1=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=20),
    r2=st.floats(0.0, 3.0),
    sep=st.floats(0.0, 6.0),
)
def test_array_intersection_areas_equal_scalar_calls(r1, r2, sep):
    areas = circle_intersection_area(np.array(r1), r2, sep)
    assert areas.tolist() == [circle_intersection_area(x, r2, sep) for x in r1]


@pytest.mark.parametrize("region", [SectorRegion(radius=2.0), LensRegion(radius=2.0, rho=1.5, inner_rho=0.5)])
def test_scalar_laws_return_python_floats(region):
    # repr of a numpy scalar reads np.float64(...), which would spoil CSV cells
    values = [
        region.source_radial_mass(1.2),
        nth_neighbor_ccdf(region, 2, 3, 1.2),
        nth_neighbor_pdf(region, 2, 3, 1.2),
        median_nth_distance(region, 2, 3),
        expected_nth_distance(region, 2, 3),
        circle_intersection_area(1.0, 0.5, 0.7),
    ]
    if isinstance(region, LensRegion):
        values.append(region.anchor_radial_mass(1.0))
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize(
    "region", [SectorRegion(radius=2.0), LensRegion(radius=2.0, rho=1.5, inner_rho=0.5)]
)
@pytest.mark.parametrize("bad", [-1e-9, 2.0 * (1.0 + 1e-11), math.nan, math.inf])
def test_array_laws_reject_any_distance_outside_the_range(region, bad):
    d = np.array([0.0, 1.0, bad, 2.0])
    for law in (
        region.source_radial_mass,
        lambda x: nth_neighbor_ccdf(region, 2, 3, x),
        lambda x: nth_neighbor_pdf(region, 2, 3, x),
    ):
        with pytest.raises(DomainError):
            law(d)
        with pytest.raises(DomainError):
            law(bad)


@pytest.mark.parametrize("region", [SectorRegion(radius=1.0), LensRegion(radius=1.0, inner_rho=0.3)])
def test_array_laws_of_no_distances_are_empty(region):
    empty = np.empty(0)
    for values in (
        region.source_radial_mass(empty),
        nth_neighbor_ccdf(region, 1, 4, empty),
        nth_neighbor_pdf(region, 1, 4, empty),
    ):
        assert isinstance(values, np.ndarray) and values.shape == (0,)


def test_expected_nearest_distance_single_point():
    assert expected_nth_distance(SectorRegion(radius=1.0), 1, 1) == pytest.approx(
        2.0 / 3.0, abs=1e-8
    )


def test_expected_nearest_distance_decreases_with_crowding():
    sector = SectorRegion(radius=1.0)
    values = [expected_nth_distance(sector, 1, n) for n in range(1, 21)]
    assert all(b < a for a, b in zip(values, values[1:]))


_LENS = LensRegion(radius=1.0)
_SECTOR = calibrate_sdr(_LENS)
LAW_REGIONS = {
    "lens_rho_0.5R": LensRegion(radius=1.0, rho=0.5),
    "lens": _LENS,
    "lens_rho_1.7R": LensRegion(radius=1.0, rho=1.7),
    "thin_slice_1.9R_2R": LensRegion(radius=1.0, rho=2.0, inner_rho=1.9),
    **{f"lens_round{t}": iterated_priority_region(_LENS, t) for t in (2, 3, 4)},
    "sector": _SECTOR,
    **{f"sector_band{j}": band for j, band in enumerate(partition_region(_SECTOR, 3))},
}
LAW_CELLS = [(n, rank) for n in (1, 5, 30, 200, 500) for rank in sorted({1, max(n // 2, 1), n})]


def _expected_distance_oracle(region, rank: int, n_points: int) -> float:
    """The CCDF integral by scipy's quad, one call per stretch between the
    kinks, with the CCDF as a regularized incomplete beta function."""
    def ccdf(d: float) -> float:
        return betainc(n_points - rank + 1, rank, 1.0 - region.source_radial_mass(d))

    edges = sorted(set(_edges(region)))
    return sum(
        quad(ccdf, a, b, epsabs=1e-16, epsrel=1e-15, limit=1000)[0]
        for a, b in zip(edges, edges[1:])
    )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("name", LAW_REGIONS)
def test_expected_distance_matches_a_tight_quad_oracle(name, monkeypatch):
    region = LAW_REGIONS[name]
    calls = []
    ccdf = geometry.nth_neighbor_ccdf

    def counted_ccdf(*args):
        calls.append(args)
        return ccdf(*args)

    monkeypatch.setattr(geometry, "nth_neighbor_ccdf", counted_ccdf)
    for n, rank in LAW_CELLS:
        exact = _expected_distance_oracle(region, rank, n)
        calls.clear()
        assert abs(expected_nth_distance(region, rank, n) - exact) <= 1e-12, (n, rank)
        # the kink splits and the t^2 substitution keep the halving short
        assert len(calls) <= 6, (n, rank)


def test_expected_distance_on_a_sliver_caps_its_open_panels(monkeypatch):
    # rounding noise in a sliver's mass keeps halves and whole from agreeing
    # to 1e-14, so without the cap the open panels would double each pass
    sliver = LensRegion(radius=1.0, rho=1e-5)
    ccdf = geometry.nth_neighbor_ccdf
    limit = 4 * geometry._GL_MAX_PANELS * geometry._GL_NODES

    def bounded_ccdf(region, rank, n_points, d):
        assert d.size <= limit
        return ccdf(region, rank, n_points, d)

    monkeypatch.setattr(geometry, "nth_neighbor_ccdf", bounded_ccdf)
    assert 1.0 - 1e-5 < expected_nth_distance(sliver, 1, 5) < 1.0


@pytest.mark.parametrize("name", LAW_REGIONS)
def test_median_is_where_the_ccdf_crosses_one_half(name):
    region = LAW_REGIONS[name]
    for n, rank in LAW_CELLS:
        median = median_nth_distance(region, rank, n)
        # on a steep CCDF one float's step can exceed 1e-12; then one half
        # must fall between the floats either side of the median
        before, after = (
            nth_neighbor_ccdf(region, rank, n, math.nextafter(median, x)) for x in (0.0, math.inf)
        )
        assert after - 1e-12 <= 0.5 <= before + 1e-12, (n, rank)
        step = max(before - after, 1e-12)
        assert abs(nth_neighbor_ccdf(region, rank, n, median) - 0.5) <= step, (n, rank)


def test_expected_furthest_distance_matches_sampling():
    lens = LensRegion(radius=1.0)
    draws = 1_000_000
    d = sample_sorted_separations(lens, 5, draws, 808)[:, 4]
    se = d.std(ddof=1) / math.sqrt(draws)
    assert abs(d.mean() - expected_nth_distance(lens, 5, 5)) <= 3.0 * se


# ---------------------------------------------------------------------------
# calibration


def test_calibrated_sector_aperture_value():
    lens = LensRegion(radius=1.0)
    sector = calibrate_sdr(lens)
    assert sector.aperture == pytest.approx(2.0 * LENS_AREA_RHO_EQ_R, abs=1e-12)
    assert math.degrees(sector.aperture) == pytest.approx(140.77, abs=0.01)


def test_calibration_preserves_area_exactly():
    for rho in (0.4, 1.0, 1.7, 2.0):
        lens = LensRegion(radius=1.0, rho=rho)
        assert calibrate_sdr(lens).area() == pytest.approx(lens.area(), abs=1e-12)


def test_calibration_of_vanishing_lens():
    lens = LensRegion(radius=1.0, rho=1e-3)
    assert calibrate_sdr(lens).aperture < 1e-4


# ---------------------------------------------------------------------------
# partitioning


def test_lens_partition_halves_mass():
    lens = LensRegion(radius=1.0)
    bands = partition_region(lens, 2)
    for band in bands:
        assert band.area() / lens.area() == pytest.approx(0.5, abs=1e-9)


def test_nested_partition_quarters_mass():
    lens = LensRegion(radius=1.0)
    top = partition_region(lens, 2)[0]
    nested = partition_region(top, 2)[0]
    assert nested.area() / lens.area() == pytest.approx(0.25, abs=1e-9)


def test_lens_priority_band_is_nearest_the_anchor():
    bands = partition_region(LensRegion(radius=1.0), 2)
    assert bands[0].inner_rho == 0.0
    assert bands[0].rho < bands[1].rho
    assert bands[1].rho == pytest.approx(1.0)


def test_sector_priority_band_is_outermost():
    bands = partition_region(SectorRegion(radius=1.0), 2)
    assert bands[0].radius == pytest.approx(1.0)
    assert bands[0].inner_radius == pytest.approx(math.sqrt(0.5), abs=1e-12)
    total = sum(b.area() for b in bands)
    assert total == pytest.approx(SectorRegion(radius=1.0).area(), rel=1e-12)


def test_partition_membership_matches_monte_carlo():
    lens = LensRegion(radius=1.0)
    band = partition_region(lens, 2)[0]
    rng = np.random.default_rng(31337)
    total = 1_000_000
    pts = lens.place(rng.random(total), rng.random(total))
    hits = sum(band.contains(Point2(float(x), float(y))) for x, y in pts[:100_000])
    n = 100_000
    se = math.sqrt(0.5 * 0.5 / n)
    assert abs(hits / n - 0.5) <= 3.0 * se


def _band_bounds(region) -> tuple[float, float]:
    if isinstance(region, SectorRegion):
        return region.inner_radius, region.radius
    return region.inner_rho, region.rho


@settings(max_examples=100, deadline=None)
@given(region=regions(), q=st.integers(2, 5))
# the inner radius squared underflows to 0
@example(region=SectorRegion(radius=1.0, aperture=1.0, inner_radius=3.3e-276), q=2)
# a slice whose inner anchor circle barely enters the range disk
@example(region=LensRegion(radius=3.5, rho=1.26, inner_rho=1.26e-6), q=2)
def test_partition_bands_hold_equal_mass_nest_and_cover(region, q):
    bands = partition_region(region, q)
    assert len(bands) == q
    if isinstance(region, SectorRegion):
        bands = bands[::-1]  # the outermost band has priority; walk outward
    edges = [_band_bounds(band) for band in bands]
    # the bands tile the region's radial bounds in order, with no gap
    assert edges[0][0] == _band_bounds(region)[0]
    assert edges[-1][1] == _band_bounds(region)[1]
    assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
    for band, (lo, hi) in zip(bands, edges):
        assert lo < hi
        assert type(band) is type(region)
        if isinstance(region, SectorRegion):
            assert band.aperture == region.aperture
        else:
            assert band.radius == region.radius
        # mass as the region measures it, which the partition bisects on to
        # adjacent floats, and as the independent quadrature measures it
        assert abs(band.area() / region.area() - 1.0 / q) <= 1e-13
        if isinstance(region, LensRegion):
            mass = anchor_mass_by_quadrature(region, hi) - anchor_mass_by_quadrature(region, lo)
            assert abs(mass - 1.0 / q) <= 1e-12
    assert sum(band.area() for band in bands) == pytest.approx(region.area(), rel=1e-12)


def _binary_bisect(below, lo, hi):
    """One midpoint per interval a step: the search the tree bisection retraces."""
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            return mid
        left = open_ & below(mid)
        lo = np.where(left, mid, lo)
        hi = np.where(open_ & ~left, mid, hi)


@settings(max_examples=60, deadline=None)
@given(region=regions(), q=st.integers(2, 5), rank=st.integers(1, 12), extra=st.integers(0, 11))
# here numpy's power of an array differs in the last bit from libm's power of
# a float, and a median bisected on the scalar CCDF lies two floats higher
@example(region=SectorRegion(radius=1.0, aperture=1.0), q=2, rank=6, extra=1)
def test_tree_bisection_retraces_the_binary_one(region, q, rank, extra):
    n_points = rank + extra
    # the median against the CCDF of one distance a step, as a one-element array
    median = _binary_bisect(
        lambda d: nth_neighbor_ccdf(region, rank, n_points, np.reshape(d, 1))[0] > 0.5,
        np.zeros(()),
        np.full((), region.radius),
    )
    assert median_nth_distance(region, rank, n_points) == float(median)
    if isinstance(region, LensRegion):
        targets = np.arange(1, q) / q

        def below(s):
            return region.anchor_radial_mass(s) < targets

        lo, hi = np.full(q - 1, region.inner_rho), np.full(q - 1, region.rho)
        assert geometry._bisect(below, lo, hi).tolist() == _binary_bisect(below, lo, hi).tolist()


def test_partition_rejects_single_band():
    with pytest.raises(DomainError):
        partition_region(LensRegion(radius=1.0), 1)


def test_priority_rounds_push_mass_outward():
    lens = LensRegion(radius=1.0)
    for n in (2, 5, 10):
        means = [
            expected_nth_distance(iterated_priority_region(lens, t), 1, n) for t in (1, 2, 3)
        ]
        assert means[0] < means[1] < means[2]


# ---------------------------------------------------------------------------
# sampling and topologies


def test_sample_topology_empty():
    topo = sample_topology(LensRegion(radius=1.0), 0, 7)
    assert topo.relays == ()
    assert topo.separations().size == 0


def test_sample_topology_is_deterministic():
    region = LensRegion(radius=1.0)
    a = sample_topology(region, 5, 424242)
    b = sample_topology(region, 5, 424242)
    assert a.relays == b.relays


def test_sampled_points_lie_in_region():
    for region in (LensRegion(radius=1.0), SectorRegion(radius=1.0, aperture=2.1)):
        topo = sample_topology(region, 200, 5)
        for pos in topo.relays:
            assert region.contains(pos)


def test_sub_band_counts_follow_the_mass():
    lens = LensRegion(radius=1.0)
    band = partition_region(lens, 2)[0]
    rng = np.random.default_rng(11)
    draws, n = 100_000, 5
    pts = lens.place(rng.random(draws * n), rng.random(draws * n))
    dax = np.hypot(pts[:, 0] - 1.0, pts[:, 1])  # anchor sits at (R, 0)
    count = float((dax <= band.rho).sum()) / draws
    se = math.sqrt(n * 0.5 * 0.5 / draws)
    assert abs(count - n * 0.5) <= 3.0 * se


def test_thin_far_band_samples_inside_the_band():
    # 5e-4 of its anchor annulus lies in range, too little to sample by
    # rejection; inverse transform places every point exactly
    band = LensRegion(radius=1.0, rho=2.0, inner_rho=1.99999)
    rng = np.random.default_rng(0)
    pts = band.place(rng.random(1000), rng.random(1000))
    assert all(band.contains(Point2(x, y)) for x, y in pts.tolist())


@settings(max_examples=150, deadline=None)
@given(
    region=regions(),
    # u from 1e-9: a smaller u puts a slice's point within rounding of its
    # inner edge, which the region's open inner bound leaves out
    uv=st.lists(
        st.tuples(st.floats(1e-9, 1.0, exclude_max=True), st.floats(0.0, 1.0)), min_size=1, max_size=20
    ),
)
def test_placed_points_lie_in_the_region_at_their_anchor_mass(region, uv):
    u, v = np.array(uv).T
    pts = region.place(u, v)
    assert pts.shape == (len(uv), 2)
    for (x, y), mass in zip(pts.tolist(), u.tolist()):
        assert region.contains(Point2(x, y))
        if isinstance(region, LensRegion):
            s = math.hypot(x - region.anchor.x, y - region.anchor.y)
            assert abs(anchor_mass_by_quadrature(region, s) - mass) <= 1e-12


def _whole_array_polar(region, u):
    """The lens's anchor distance of mass ``u`` over the whole array: the
    Hermite start in one lookup, then Newton steps on every point whose
    previous step left it loose, the settled points masked out."""
    coeffs, lo, span, tol = region._placement_table
    x = np.sqrt(u) * geometry._PLACEMENT_GRID
    j = x.astype(np.intp)
    f = x - j
    c0, c1, c2, c3 = coeffs[:, j]
    s = c0 + f * (c1 + f * (c2 + f * c3))
    target = lo + u * span
    live = np.ones(u.shape, dtype=bool)
    for _ in range(geometry._PLACEMENT_NEWTON_STEPS):
        area, slope, bend, root = region._disk_overlap(s)
        step = np.divide(area - target, slope, out=np.zeros_like(s), where=slope > 0.0)
        s = np.where(live, np.clip(s - step, region.inner_rho, region.rho), s)
        live &= bend * (step * step) > tol * root
    return s


def _whole_array_place(region, u, v) -> np.ndarray:
    """The placement formulas over whole arrays: the reference that blocked
    placement must match byte for byte."""
    if isinstance(region, SectorRegion):
        lo2 = region.inner_radius**2
        r = np.sqrt(lo2 + u * (region.radius**2 - lo2))
        theta = (v - 0.5) * region.aperture
        return np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)
    s = _whole_array_polar(region, u)
    half = (v - 0.5) * np.arccos(np.minimum(s / (2.0 * region.radius), 1.0))
    phi = 2.0 * half - math.pi
    return np.stack((region.radius + s * np.cos(phi), s * np.sin(phi)), axis=-1)


def _whole_array_separations(region, n_points, draws, seed) -> np.ndarray:
    """Sorted separations from one whole-array pass over every point of the
    first ``draws`` episodes' deployments: the sector's radius, the lens's
    half-angle law of cosines."""
    keys = episode_seeds(seed, draws)
    u, v = (relay_uniforms(stream_keys(keys, stream), n_points).T for stream in (PLACE_U, PLACE_V))
    if isinstance(region, SectorRegion):
        lo2 = region.inner_radius**2
        d = np.sqrt(lo2 + u * (region.radius**2 - lo2))
    else:
        big_r = region.radius
        s = _whole_array_polar(region, u)
        sine = np.sin((v - 0.5) * np.arccos(np.minimum(s / (2.0 * big_r), 1.0)))
        d = np.sqrt((big_r - s) ** 2 + (4.0 * big_r) * s * (sine * sine))
    d.sort(axis=1)
    return d


_B = geometry._PLACE_BLOCK


@settings(max_examples=30, deadline=None)
@given(region=regions(), seed=st.integers(0, 2**32 - 1))
def test_blocked_placement_equals_the_whole_array_formulas(region, seed):
    rng = np.random.default_rng(seed)
    for shape in [(0,), (1,), (_B - 1,), (_B,), (_B + 1,), (3, _B + 5)]:
        u, v = rng.random(shape), rng.random(shape)
        u.flat[::97] = 0.5  # repeated uniforms
        pts = region.place(u, v)
        assert pts.shape == shape + (2,)
        assert pts.tobytes() == _whole_array_place(region, u, v).tobytes()


@settings(max_examples=20, deadline=None)
@given(region=regions(), seed=st.integers(0, 2**32 - 1))
@example(region=LensRegion(), seed=0)
def test_blocked_separations_equal_the_whole_array_pipeline(region, seed):
    # row blocks of _B // n_points rows: no draws at all, no points per
    # draw, a last block short of the others, and rows wider than a block
    for draws, n_points in [(0, 5), (5, 0), (1700, 5), (7, 3), (3, _B + 3)]:
        got = sample_sorted_separations(region, n_points, draws, seed)
        want = _whole_array_separations(region, n_points, draws, seed)
        assert got.shape == (draws, n_points)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    region=regions(),
    uv=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0)), min_size=1, max_size=20),
)
def test_separations_are_the_source_distances_of_the_placed_points(region, uv):
    u, v = np.array(uv).T
    pts = region.place(u, v)
    d = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all(np.abs(region.separations(u, v) - d) <= 1e-13 * region.radius)


# u: 300 uniforms and the ends of [0, 1).  Per region, the worst residual
# |anchor mass(s(u)) - u| over them of the earlier inversion (a start
# interpolated in a Chebyshev table, then three Newton steps), which the
# inversion must not exceed.  The thin far band's is set by measuring a
# sliver of ~8e-8 R^2 as the difference of two areas near pi R^2, not by
# the inversion.
_ORACLE_U = [
    *np.random.default_rng(21).random(300).tolist(),
    0.0, 1e-300, 1e-15, 1e-9, 1 - 1e-9, 1 - 1e-15, math.nextafter(1.0, 0.0),
]
_ORACLE_REGIONS = [
    (LensRegion(), 4.9e-16),
    (iterated_priority_region(LensRegion(), 3), 5.2e-16),
    (LensRegion(rho=1.7), 5.6e-16),
    (LensRegion(rho=2.0), 7.0e-15),
    (LensRegion(rho=2.0, inner_rho=1.99999), 1.1e-6),
]


@pytest.mark.parametrize("region,worst", _ORACLE_REGIONS, ids=["full", "nested2", "rho1.7", "rho2", "thin"])
def test_lens_inversion_and_separations_against_a_40_digit_oracle(region, worst):
    u = np.array(_ORACLE_U)
    v = np.random.default_rng(22).random(u.size)
    s = region._anchor_distance(u)
    d = region.separations(u, v)
    with mpmath.workdps(40):
        residual = max(abs(anchor_mass_exact(region, si) - ui) for si, ui in zip(s.tolist(), u.tolist()))
        error = max(
            abs(di / lens_separation_exact(region.radius, si, vi) - 1)
            for di, si, vi in zip(d.tolist(), s.tolist(), v.tolist())
        )
    assert residual <= worst
    assert error <= 1e-15


def test_sorted_separations_hold_no_whole_size_temporary():
    # the output is 1.6 MB and the episode and stream keys 1 MB; the
    # uniforms are drawn a block at a time (whole, they would add 3.2 MB),
    # and a block's temporaries and the lens's placement table stay within
    # ~2 MB of them
    draws, n_points = 40_000, 5
    tracemalloc.start()
    try:
        sample_sorted_separations(LensRegion(), n_points, draws, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= draws * n_points * 8 + 3 * draws * 8 + 2.5e6


def test_topology_rejects_out_of_range_relay():
    region = LensRegion(radius=1.0)
    for pos in (Point2(2.0, 0.0), Point2(math.nan, 0.0)):
        with pytest.raises(DomainError):
            Topology(relays=(pos,), region=region)
        assert not region.contains(pos)


@pytest.mark.parametrize(
    "relays, region",
    [
        (((0.5, 0.0),), LensRegion()),  # a pair, no Point2
        ((Point2(0.5, 0.0),), "x"),
        (3, LensRegion()),
        ((Point2("0.5", 0.0),), LensRegion()),
    ],
    ids=["relay-not-a-point", "region-not-a-region", "relays-not-a-sequence", "coordinate-not-a-real"],
)
def test_topology_refuses_wrong_typed_fields(relays, region):
    with pytest.raises(DomainError):
        Topology(relays=relays, region=region)


def test_sorted_separations_refuse_more_points_than_the_cap_before_drawing(monkeypatch):
    def drawn(*args):
        raise AssertionError("a key was drawn before the sample was checked")

    monkeypatch.setattr(geometry, "episode_seeds", drawn)
    # draws of no points count as episodes, no more of which a batch runs
    for n_points, draws in [
        (8, geometry.MAX_POINTS // 8 + 1),
        (geometry.MAX_POINTS + 1, 1),
        (10**9, 10**9),
        (0, geometry.MAX_POINTS + 1),
    ]:
        with pytest.raises(ResourceLimitError):
            sample_sorted_separations(LensRegion(), n_points, draws, 1)
