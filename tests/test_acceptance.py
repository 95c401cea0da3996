"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion.  Criterion 2 pins the nine-slot masses of the splitting tree and
the auction (n = 4) to exact rationals from a ``Fraction`` enumeration of
each protocol's states.  Criterion 6 pins both designs' distance laws to
binomial tails of independently derived radial masses (d^2 for the sector,
polar quadrature for the lens), and the cross-design gap to the gap between
those oracles.  The oracles live in ``tests/oracles.py``.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom

from relaysel.cli import cli_main
from relaysel.geometry import (
    LensRegion,
    SectorRegion,
    calibrate_sdr,
    expected_nth_distance,
    iterated_priority_region,
    nth_neighbor_ccdf,
    nth_neighbor_pdf,
    sample_sorted_separations,
)
from relaysel.pgf import SplitModel, build_pgf, invert_fourier, moments
from relaysel.simulator import EpisodeConfig, run_episode_batch, total_variation

from oracles import auction_slot_mass, lens_mass_by_quadrature, sta_slot_mass

PROTOCOLS = ("sta", "auction", "auction_skip")
ACCEPTANCE_SEED = 20260808


def _report(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_ac1_exact_base_means():
    targets = {"sta": 5.0, "auction": 3.5, "auction_skip": 3.0}
    results = {}
    for protocol, target in targets.items():
        mean = moments(build_pgf(protocol, SplitModel(2))).mean
        results[protocol] = abs(mean - target) <= 1e-6
    ok = all(results.values())
    detail = ", ".join(
        f"{p}: E[pair] = {moments(build_pgf(p, SplitModel(2))).mean:.9f}" for p in targets
    )
    assert _report("AC-1", ok, detail)


def test_ac2_nine_slot_anchor_values():
    start = time.time()
    sta9 = build_pgf("sta", SplitModel(4)).coefficient(9)
    auction9 = build_pgf("auction", SplitModel(4)).coefficient(9)
    elapsed = time.time() - start
    sta_exact = sta_slot_mass(4, 9)
    auction_exact = auction_slot_mass(4, 9)
    sta_ok = abs(sta9 - float(sta_exact)) <= 1e-12
    auction_ok = abs(auction9 - float(auction_exact)) <= 1e-12
    ok = sta_ok and auction_ok and elapsed < 1.0
    detail = (
        f"sta pmf@9 = {sta9:.6f} (exact {sta_exact}: {'ok' if sta_ok else 'MISS'}), "
        f"auction pmf@9 = {auction9:.6f} (exact {auction_exact}: "
        f"{'ok' if auction_ok else 'MISS'}), {elapsed:.2f}s"
    )
    assert _report("AC-2", ok, detail)


def test_ac3_inversion_consistency():
    start = time.time()
    worst = 0.0
    for protocol in PROTOCOLS:
        for n in range(0, 9):
            series = build_pgf(protocol, SplitModel(n))
            for k in range(1, 31):
                err = abs(invert_fourier(series, k).prob - series.coefficient(k))
                worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    assert _report(
        "AC-3", ok, f"max |inversion - coefficient| = {worst:.2e} over n<=8, k<=30, {elapsed:.1f}s"
    )


def test_ac4_analytic_simulation_agreement():
    start = time.time()
    lens = LensRegion(radius=1.0)
    sector = SectorRegion(radius=1.0)
    worst = ("", 0.0)
    for protocol in PROTOCOLS:
        region = sector if protocol == "sta" else lens
        for n in (2, 3, 4, 5):
            series = build_pgf(protocol, SplitModel(n))
            analytic = {
                k: float(series.coeffs[k])
                for k in range(series.truncation_index(0.999) + 1)
                if series.coeffs[k] > 0
            }
            cfg = EpisodeConfig(protocol=protocol, n=n, region=region)
            _, summary = run_episode_batch(cfg, 100_000, ACCEPTANCE_SEED + n)
            tv = total_variation(analytic, summary.pmf)
            if tv > worst[1]:
                worst = (f"{protocol}/n={n}", tv)
            assert tv <= 0.01, f"{protocol} n={n}: tv={tv:.5f}"
    elapsed = time.time() - start
    ok = elapsed < 120.0
    assert _report(
        "AC-4", ok, f"12 protocol/multiplicity cells, worst tv = {worst[1]:.5f} ({worst[0]}), {elapsed:.0f}s"
    )


def test_ac5_distance_law_agreement():
    start = time.time()
    lens = LensRegion(radius=1.0)
    sector = calibrate_sdr(lens)
    worst = 0.0
    reps = 100_000
    for label, region in (("sdr", sector), ("cdr", lens)):
        sorted_d = sample_sorted_separations(region, 5, reps, ACCEPTANCE_SEED)
        for rank in range(1, 6):
            samples = np.sort(sorted_d[:, rank - 1])
            cdf = 1.0 - nth_neighbor_ccdf(region, rank, 5, samples)
            hi = np.arange(1, reps + 1) / reps
            lo = np.arange(0, reps) / reps
            ks = float(max(np.max(np.abs(hi - cdf)), np.max(np.abs(lo - cdf))))
            worst = max(worst, ks)
            assert ks <= 0.01, f"{label} rank {rank}: ks={ks:.5f}"
    elapsed = time.time() - start
    ok = elapsed < 120.0
    assert _report("AC-5", ok, f"worst ks = {worst:.5f} over ranks 1..5, both designs, {elapsed:.0f}s")


def test_ac6_calibration_identity():
    lens = LensRegion(radius=1.0)
    sector = calibrate_sdr(lens)
    target = 2.0 * (2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0)
    aperture_ok = abs(sector.aperture - target) <= 1e-9
    area_ok = abs(sector.area() - lens.area()) <= 1e-12
    grid = np.linspace(0.0, 1.0, 2001)
    # a unit-radius sector holds mass d^2 within distance d, whatever its aperture
    oracle_mass = {
        "sdr": grid**2,
        "cdr": np.array([lens_mass_by_quadrature(lens, float(d)) for d in grid]),
    }
    law_err = 0.0
    gap = 0.0
    oracle_gap = 0.0
    for rank in range(1, 6):
        program = {
            label: nth_neighbor_ccdf(region, rank, 5, grid)
            for label, region in (("sdr", sector), ("cdr", lens))
        }
        # fewer than `rank` of the 5 points fall within d
        oracle = {label: binom.cdf(rank - 1, 5, mass) for label, mass in oracle_mass.items()}
        for label in program:
            law_err = max(law_err, float(np.max(np.abs(program[label] - oracle[label]))))
        gap = max(gap, float(np.max(np.abs(program["sdr"] - program["cdr"]))))
        oracle_gap = max(oracle_gap, float(np.max(np.abs(oracle["sdr"] - oracle["cdr"]))))
    laws_ok = law_err <= 1e-9
    gap_ok = abs(gap - oracle_gap) <= 1e-9
    ok = aperture_ok and area_ok and laws_ok and gap_ok
    detail = (
        f"aperture = {sector.aperture:.12f} (target {target:.12f}: "
        f"{'ok' if aperture_ok else 'MISS'}), equal areas ({'ok' if area_ok else 'MISS'}), "
        f"ccdf vs oracle err = {law_err:.1e} ({'ok' if laws_ok else 'MISS'}), "
        f"cross-design ks = {gap:.4f} (oracle {oracle_gap:.4f}: {'ok' if gap_ok else 'MISS'})"
    )
    assert _report("AC-6", ok, detail)


def test_ac7_iteration_gain_properties():
    lens = LensRegion(radius=1.0)
    rounds_ok = True
    for n in range(2, 11):
        means = [expected_nth_distance(iterated_priority_region(lens, t), 1, n) for t in (1, 2, 3)]
        rounds_ok = rounds_ok and means[0] < means[1] < means[2]
    crowding_ok = True
    for t in (1, 2, 3):
        region = iterated_priority_region(lens, t)
        means_n = [expected_nth_distance(region, 1, n) for n in range(2, 11)]
        crowding_ok = crowding_ok and all(b < a for a, b in zip(means_n, means_n[1:]))
    ok = rounds_ok and crowding_ok
    assert _report(
        "AC-7",
        ok,
        f"nearest-relay distance strictly grows per round ({'ok' if rounds_ok else 'MISS'}) "
        f"and shrinks with crowding ({'ok' if crowding_ok else 'MISS'})",
    )


def test_ac8_mean_ordering():
    ok = True
    worst_gap = math.inf
    for n in range(2, 11):
        sta = moments(build_pgf("sta", SplitModel(n))).mean
        auc = moments(build_pgf("auction", SplitModel(n))).mean
        skip = moments(build_pgf("auction_skip", SplitModel(n))).mean
        ok = ok and skip <= auc <= sta
        worst_gap = min(worst_gap, auc - skip, sta - auc)
    assert _report("AC-8", ok, f"skip <= auction <= tree for n = 2..10, min gap {worst_gap:.3f}")


def test_ac9_normalization_suite():
    series_ok = True
    for protocol in PROTOCOLS:
        for n in range(0, 26):
            series = build_pgf(protocol, SplitModel(n))
            series_ok = series_ok and abs(float(series.coeffs.sum()) - 1.0) <= 1e-9
    pdf_ok = True
    for region in (SectorRegion(radius=1.0), LensRegion(radius=1.0)):
        for rank in range(1, 6):
            integral, _ = quad(
                lambda d: nth_neighbor_pdf(region, rank, 5, d), 0.0, region.radius, limit=400
            )
            pdf_ok = pdf_ok and abs(integral - 1.0) <= 1e-6
    ok = series_ok and pdf_ok
    assert _report(
        "AC-9",
        ok,
        f"series mass ({'ok' if series_ok else 'MISS'}) for n <= 25, "
        f"pdf integrals ({'ok' if pdf_ok else 'MISS'})",
    )


def test_ac10_cli_determinism(tmp_path):
    cases = [
        ["pmf", "--protocol", "auction", "--n", "4"],
        ["simulate", "--protocol", "auction_skip", "--n", "3", "--reps", "500",
         "--seed", "7", "--format", "records"],
        ["validate", "--n", "2..3", "--reps", "5000", "--seed", "7"],
    ]
    ok = True
    for idx, args in enumerate(cases):
        a = tmp_path / f"{idx}_a.out"
        b = tmp_path / f"{idx}_b.out"
        code_a = cli_main(args + ["--out", str(a)])
        code_b = cli_main(args + ["--out", str(b)])
        ok = ok and code_a == code_b == 0 and a.read_bytes() == b.read_bytes()
    assert _report("AC-10", ok, f"{len(cases)} command shapes re-run byte-identically")
