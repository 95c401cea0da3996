"""Tests of the benchmark's oracles, gates, clock and tracer.

    python3 -m pytest bench -q
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from clock import REF_NOMINAL_S, DriftClock  # noqa: E402

HALF = (Fraction(1, 2), Fraction(1, 2))
THIRDS = (Fraction(1, 3),) * 3
BIASED = (Fraction(3, 10), Fraction(7, 10))


def test_nine_slot_masses_match_known_rationals():
    assert oracles.sta_pmf(4, HALF)[9] == Fraction(69, 256)
    assert oracles.auction_pmf(4, Fraction(1, 2), skip=False)[9] == Fraction(20385351, 2**30)


@pytest.mark.parametrize("protocol", ["sta", "auction", "auction_skip"])
@pytest.mark.parametrize("probs", [HALF, BIASED])
def test_mean_recursion_agrees_with_propagation(protocol, probs):
    for n in range(0, 6):
        pmf = oracles.slot_pmf(protocol, n, probs)
        assert all(mass >= 0 for mass in pmf)
        assert 1 - sum(pmf) < Fraction(1, 10**15)
        by_pmf = sum(k * mass for k, mass in enumerate(pmf))
        assert abs(float(by_pmf) - float(oracles.slot_mean(protocol, n, probs))) < 1e-12


def test_qary_tree_mean_agrees_with_propagation():
    for n in range(0, 6):
        pmf = oracles.sta_pmf(n, THIRDS)
        by_pmf = sum(k * mass for k, mass in enumerate(pmf))
        assert abs(float(by_pmf) - float(oracles.sta_mean(n, THIRDS))) < 1e-12


def test_pair_means():
    assert oracles.slot_mean("sta", 2, HALF) == 5
    assert oracles.slot_mean("auction", 2, HALF) == Fraction(7, 2)
    assert oracles.slot_mean("auction_skip", 2, HALF) == 3


def test_lone_contender_costs_one_slot():
    for protocol in ("sta", "auction", "auction_skip"):
        assert oracles.slot_pmf(protocol, 1, HALF)[1] == 1


def test_lens_area_and_priority_slices():
    lens = oracles.LensSlice(1.0)
    assert lens.area == pytest.approx(2 * math.pi / 3 - math.sqrt(3) / 2, abs=1e-13)
    assert lens.mass(1.0) == 1.0
    for rounds, share in ((2, 0.5), (3, 0.25)):
        piece = oracles.priority_slice(1.0, rounds)
        assert piece.area / lens.area == pytest.approx(share, abs=1e-12)
        # the slice's support starts at R - outer; just past it the mass is small but not 0
        assert 0.0 < piece.mass(piece.nearest + 1e-3) < 1e-3


def test_lens_mass_is_increasing_and_density_integrates():
    lens = oracles.LensSlice(1.0)
    ds = np.linspace(0.0, 1.0, 41)
    masses = [lens.mass(d) for d in ds]
    assert all(b >= a for a, b in zip(masses, masses[1:]))
    total, _ = quad(lens.density, 0.0, 1.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_sector_closed_forms_match_quadrature():
    for n in (2, 3, 5):
        for rank in (1, n):
            closed = oracles.expected_order_sector(rank, n)
            numeric = oracles.expected_order(oracles.sector_mass, rank, n, 0.0, 1.0)
            assert closed == pytest.approx(numeric, abs=1e-10)


def test_dkw_epsilon_value():
    assert oracles.dkw_epsilon(100_000, 1e-3) == pytest.approx(0.0061648, abs=1e-7)


def test_tv_gate_holds_under_the_null_and_shrinks_with_samples():
    law = [float(x) for x in oracles.sta_pmf(4, HALF)]
    law[-1] += 1.0 - sum(law)
    gate = oracles.tv_gate(2000, law, 1e-3)
    rng = np.random.default_rng(5)
    for _ in range(300):
        counts = rng.multinomial(2000, law)
        emp = counts / 2000
        assert 0.5 * np.abs(emp - np.array(law)).sum() <= gate
    assert oracles.tv_gate(8000, law, 1e-3) < gate


def test_nominal_seconds_divide_by_local_speed():
    clock = DriftClock()
    slow = 2.0 * REF_NOMINAL_S
    # probes at 0, 1, 2 s, each twice the nominal probe time: 2 s of gaps at half speed
    clock.probes = [(t, t + slow) for t in (0.0, 1.0, 2.0)]
    nominal, wall = clock.nominal_seconds(0, 2)
    assert wall == pytest.approx(2.0 - 2 * slow)
    assert nominal == pytest.approx(wall / 2.0)


def test_timed_reports_probe_free_wall_time():
    clock = DriftClock()
    result, nominal, wall = clock.timed(lambda: sum(range(10_000)))
    assert result == sum(range(10_000))
    assert len(clock.probes) == 2 and 0.0 < wall and 0.0 < nominal


def test_tracer_counts_spans_and_restores_functions():
    from relaysel import pgf
    from spans import Tracer

    original = pgf.build_pgf
    tracer = Tracer()
    tracer.install()
    try:
        series = pgf.build_pgf("sta", pgf.SplitModel(3))
        pgf.moments(series)
    finally:
        tracer.uninstall()
    assert pgf.build_pgf is original
    selfs = tracer.self_times()
    assert selfs["pgf.build_pgf"][0] == 1
    assert selfs["pgf.builder"][0] >= 1
    assert selfs["pgf.moments"][0] == 1
    assert all(seconds >= 0.0 for _, seconds in selfs.values())
    assert tracer.counters["pgf.build_pgf.coeffs"] == len(series.coeffs)
