"""Series construction, inversion and moments of the election slot counts."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from relaysel import pgf
from relaysel.errors import DomainError, ResourceLimitError, TruncationError
from relaysel.geometry import SectorRegion
from relaysel.pgf import (
    PROTOCOLS,
    InversionParams,
    SplitModel,
    TruncatedSeries,
    _binomial_row,
    _divide,
    _shift,
    auction_pgf,
    auction_skip_pgf,
    build_pgf,
    evaluate,
    invert_fourier,
    moments,
    sta_pgf_binary,
    sta_pgf_qary,
)
from relaysel.simulator import EpisodeConfig, run_episode_batch

from oracles import auction_mean, auction_mean_40, auction_slot_pmf, sta_mean, tree_slot_pmf

PROTOCOL_BUILDERS = {
    "sta": sta_pgf_binary,
    "auction": auction_pgf,
    "auction_skip": auction_skip_pgf,
}


# ---------------------------------------------------------------------------
# binomial split rows


def test_binomial_row_symmetric_pair():
    assert _binomial_row(2, 0.5)[1] == pytest.approx(0.5, abs=1e-15)


def test_binomial_row_all_zero_tosses():
    assert _binomial_row(4, 0.5)[0] == pytest.approx(0.0625, abs=1e-15)


def test_binomial_row_against_factorial_oracle():
    # direct factorial evaluation, independent of math.comb
    n, i, p = 10, 3, 0.3
    oracle = (
        math.factorial(n) / (math.factorial(i) * math.factorial(n - i)) * p**i * (1 - p) ** (n - i)
    )
    assert oracle == pytest.approx(0.266827932, abs=1e-9)
    assert _binomial_row(10, 0.3)[3] == pytest.approx(oracle, rel=1e-13)


def test_binomial_row_log_path_matches_exact_binomial():
    # above the exact-arithmetic cutoff the log-space path takes over
    row = _binomial_row(120, 0.37)
    for i in (0, 1, 17, 60, 119, 120):
        exact = math.comb(120, i) * 0.37**i * 0.63 ** (120 - i)
        assert row[i] == pytest.approx(exact, rel=1e-10)


def test_split_model_validation():
    with pytest.raises(DomainError):
        SplitModel(-1)
    with pytest.raises(DomainError):
        SplitModel(2, q=1)
    with pytest.raises(DomainError):
        SplitModel(2, p=(0.6, 0.6))
    with pytest.raises(DomainError):
        SplitModel(2, p=(1.2, -0.2))


# ---------------------------------------------------------------------------
# series invariants


def test_series_rejects_negative_coefficients():
    with pytest.raises(DomainError):
        TruncatedSeries(np.array([0.5, -0.1, 0.6]), 0.0)


def test_series_rejects_bad_total_mass():
    with pytest.raises(DomainError):
        TruncatedSeries(np.array([0.2, 0.2]), 0.0)


def test_series_is_immutable():
    series = sta_pgf_binary(SplitModel(2), 64)
    with pytest.raises(ValueError):
        series.coeffs[3] = 0.9


# ---------------------------------------------------------------------------
# recurrence division


@settings(max_examples=200, deadline=None)
@given(
    lags=st.sampled_from([(1,), (2,), (3,), (1, 2)]),
    weights=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2),
    rhs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
)
def test_divide_matches_lfilter_bit_for_bit(lags, weights, rhs):
    # the builders' lag sets: the tree (in w = z^q) and skip {1}, auction {1, 2}
    lag_weights = dict(zip(lags, weights))
    den = np.zeros(max(lags) + 1)
    den[0] = 1.0
    for lag, w in lag_weights.items():
        den[lag] -= w
    rhs = np.array(rhs)
    assert _divide(rhs, lag_weights).tobytes() == lfilter([1.0], den, rhs).tobytes()


# ---------------------------------------------------------------------------
# splitting-tree series


def test_sta_base_cases_are_one_slot():
    for n in (0, 1):
        series = sta_pgf_binary(SplitModel(n), 32)
        assert series.coefficient(1) == 1.0
        assert series.coeffs.sum() == pytest.approx(1.0, abs=1e-15)


def test_sta_two_contenders_follows_halving_law():
    # two contenders finish in 2m+3 slots iff the first m splits fail
    series = sta_pgf_binary(SplitModel(2), 128)
    for m in range(0, 20):
        assert series.coefficient(2 * m + 3) == pytest.approx(0.5 ** (m + 1), abs=1e-15)
    assert all(series.coefficient(k) == 0.0 for k in range(0, 40, 2))


def test_sta_two_contenders_mean_is_five():
    est = moments(build_pgf("sta", SplitModel(2)))
    assert est.mean == pytest.approx(5.0, abs=1e-6)
    assert est.variance == pytest.approx(8.0, abs=1e-6)


def test_sta_rejects_bad_k_max():
    with pytest.raises(DomainError):
        sta_pgf_binary(SplitModel(2), 0)


# Largest |coefficient - exact mass| at n = 0..6 of the builders that the one
# sta_pgf_qary replaced (a binary recursion at q = 2, an enumeration of the
# split compositions above), on the same cells with tail_tol=1e-13; 0.0 stands
# for anything below 1e-18.
_TREE_COINS = {
    (Fraction(1, 2),) * 2: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (Fraction(1, 3),) * 3: (0.0, 0.0, 3.70e-17, 4.20e-17, 9.41e-17, 1.57e-16, 1.13e-16),
    (Fraction(1, 4),) * 4: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.14e-18),
    (Fraction(3, 10), Fraction(7, 10)):
        (0.0, 0.0, 3.08e-17, 8.26e-17, 1.03e-16, 1.40e-16, 1.84e-16),
    (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)):
        (0.0, 0.0, 4.44e-18, 5.60e-17, 5.94e-17, 4.67e-17, 1.43e-16),
    (Fraction(1, 2), Fraction(1, 2), Fraction(0)): (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (Fraction(0), Fraction(1, 2), Fraction(1, 2)): (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("probs", list(_TREE_COINS), ids=lambda c: ",".join(map(str, c)))
def test_tree_series_match_exact_propagation(probs):
    # every coefficient against the Fraction slot-by-slot law of the tree
    dyadic = all(x.denominator & (x.denominator - 1) == 0 for x in probs)
    for n, before in enumerate(_TREE_COINS[probs]):
        model = SplitModel(n, q=len(probs), p=tuple(map(float, probs)))
        series = build_pgf("sta", model, tail_tol=1e-13)
        exact = tree_slot_pmf(n, series.k_max, probs)
        worst = max(abs(float(m - Fraction(c))) for m, c in zip(exact, series.coeffs.tolist()))
        assert worst <= before + 2.2e-16, f"n={n}: {worst:.3e}"
        assert not dyadic or worst <= 1e-15, f"n={n}: {worst:.3e}"
        assert abs(series.tail_mass - float(1 - sum(exact))) <= 1e-14


def test_qary_base_case():
    series = sta_pgf_qary(SplitModel(0, q=3), 32)
    assert series.coefficient(1) == 1.0


def test_qary_three_groups_two_contenders_mean():
    # conditioning on whether the pair separates: E = (2/3)*4 + (1/3)*(3 + E)
    series = build_pgf("sta", SplitModel(2, q=3))
    assert moments(series).mean == pytest.approx(5.5, abs=1e-9)


def test_qary_mean_matches_simulation():
    series = build_pgf("sta", SplitModel(2, q=3))
    analytic = moments(series).mean
    cfg = EpisodeConfig(protocol="sta", n=2, region=SectorRegion(radius=1.0), q=3)
    reps = 100_000
    _, summary = run_episode_batch(cfg, reps, 20260808)
    se = math.sqrt(summary.var_slots / reps)
    assert abs(summary.mean_slots - analytic) <= 3.0 * se


def test_qary_composition_limit():
    with pytest.raises(ResourceLimitError):
        sta_pgf_qary(SplitModel(400, q=5), 64)


def test_binary_tree_work_limit(monkeypatch):
    # `pmf --n 200` ends at k_max = 1024 and stays under the bound
    assert sta_pgf_binary(SplitModel(200), 1024).tail_mass < 1e-9

    def no_work(*args):
        raise AssertionError("the builder started work before checking its bound")

    # n = 400 at the same k_max is over it, and is refused before any work
    monkeypatch.setattr(pgf, "_binomial_row", no_work)
    with pytest.raises(ResourceLimitError):
        sta_pgf_binary(SplitModel(400), 1024)


@pytest.mark.parametrize("builder", [auction_pgf, auction_skip_pgf])
def test_auction_work_limit(builder, monkeypatch):
    # the auction's levels, their stacked sums, binomial rows and divisions,
    # are bounded by the tree's own limit: n = 600 builds, n = 100000 is
    # refused before any work
    assert builder(SplitModel(600), 128).tail_mass < 1e-9

    def no_work(*args):
        raise AssertionError("the builder started work before checking its bound")

    monkeypatch.setattr(pgf, "_binomial_row", no_work)
    with pytest.raises(ResourceLimitError):
        builder(SplitModel(100_000), 128)


# ---------------------------------------------------------------------------
# the held family: slices and extensions of the last family built


def fresh(build, *args, **kwargs):
    """``build`` run with no family held, as on a first call."""
    pgf._held = None
    return build(*args, **kwargs)


def same_series(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    return a.coeffs.tobytes() == b.coeffs.tobytes() and repr(a.tail_mass) == repr(b.tail_mass)


# (protocol, fair coin, biased coin) of every law family
_FAMILIES = [
    ("sta", (0.5, 0.5), (0.3, 0.7)),
    ("sta", (1 / 3,) * 3, (0.3, 0.2, 0.5)),
    ("sta", (0.25,) * 4, (0.3, 0.1, 0.2, 0.4)),
    ("auction", (0.5, 0.5), (0.3, 0.7)),
    ("auction_skip", (0.5, 0.5), (0.3, 0.7)),
]


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(_FAMILIES),
    biased=st.booleans(),
    n=st.integers(0, 24),
    k0=st.integers(1, 200),
)
def test_wider_builds_extend_narrower_ones_bit_for_bit(family, biased, n, k0):
    protocol, fair, skewed = family
    p = skewed if biased else fair
    model = SplitModel(n, q=len(p), p=p)
    # np.convolve sums a product of under pgf._SLICE_MIN coefficients in its
    # own order, so the tree's prefix property starts at that many w terms
    assume(protocol != "sta" or -(-k0 // len(p)) >= pgf._SLICE_MIN)
    builder = sta_pgf_qary if protocol == "sta" else PROTOCOL_BUILDERS[protocol]
    narrow = fresh(builder, model, k0)
    for k in (2 * k0, 4 * k0):
        wide = fresh(builder, model, k)
        cut = wide.coeffs[: k0 + 1]
        assert cut.tobytes() == narrow.coeffs.tobytes()
        assert same_series(TruncatedSeries.from_coeffs(cut), narrow)
        # and the held wide family serves the narrow request as its slice
        assert same_series(builder(model, k0), narrow)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_FAMILIES),
            st.booleans(),
            st.integers(0, 20),
            st.sampled_from([1e-6, 1e-9, 1e-12]),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_build_order_does_not_change_any_series(calls):
    # families mixed, n rising and falling, tails loose and tight: every
    # series equals the one built with nothing held
    def call(family, biased, n, tail_tol):
        protocol, fair, skewed = family
        p = skewed if biased else fair
        return build_pgf(protocol, SplitModel(n, q=len(p), p=p), tail_tol=tail_tol)

    pgf._held = None
    in_order = [call(*c) for c in calls]
    for c, series in zip(calls, in_order):
        assert same_series(series, fresh(call, *c))


def test_a_request_under_the_slice_minimum_is_built_at_its_own_width():
    # np.convolve's small-kernel path sums in its own order, so no wider
    # family's prefix stands in for a series under pgf._SLICE_MIN w terms
    model = SplitModel(6, q=4, p=(0.1, 0.2, 0.3, 0.4))
    narrow = fresh(sta_pgf_qary, model, 40)
    sta_pgf_qary(model, 400)
    assert same_series(sta_pgf_qary(model, 40), narrow)
    assert pgf._held.size == 10 < pgf._SLICE_MIN


def test_only_the_last_family_is_held(monkeypatch):
    import gc
    import weakref

    fresh(build_pgf, "sta", SplitModel(10, q=3))
    first_levels = [weakref.ref(level) for level in pgf._held.levels]

    def first_family_gone():
        gc.collect()
        return all(ref() is None for ref in first_levels)

    # the first family is gone before the second builds its first level
    real_row = pgf._binomial_row

    def row(*args):
        assert first_family_gone(), "two families held at once"
        return real_row(*args)

    monkeypatch.setattr(pgf, "_binomial_row", row)
    build_pgf("auction", SplitModel(6, p=(0.3, 0.7)))
    assert pgf._held.key == ("auction", (0.3, 0.7))
    assert len(pgf._held.levels) == 7
    assert first_family_gone()


def test_builders_share_the_held_family_across_threads():
    import threading

    models = [("sta", SplitModel(n, q=q)) for q in (2, 3) for n in range(0, 14, 3)]
    models += [(p, SplitModel(n, p=(0.3, 0.7))) for p in ("auction", "auction_skip") for n in range(0, 14, 3)]
    expected = [fresh(build_pgf, protocol, model) for protocol, model in models]
    failures = []

    def worker(offset):
        try:
            for i in range(len(models)):
                j = (i + offset) % len(models)
                if not same_series(build_pgf(*models[j]), expected[j]):
                    failures.append(models[j])
        except Exception as exc:  # reported below: a thread's exception is lost otherwise
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_held_family_keeps_every_work_limit_refusal(monkeypatch):
    # an auction of n at 129 coefficients is charged pgf._auction_cost(n, 129):
    # 4,366,770 at n = 20 fits a limit of 4.5e6 and 4,665,300 at n = 21 does
    # not; a family held at 4,096 coefficients would charge n = 20 1.0e8
    wide = 4095
    fresh(auction_pgf, SplitModel(10), wide)
    monkeypatch.setattr(pgf, "WORK_LIMIT", 4_500_000)
    series = build_pgf("auction", SplitModel(20))
    assert pgf._held.size == 129  # not extended at the held width, whose build is over the limit
    assert same_series(series, fresh(build_pgf, "auction", SplitModel(20)))
    with pytest.raises(ResourceLimitError):
        build_pgf("auction", SplitModel(21))
    # a level already held is refused as its direct build is
    monkeypatch.undo()
    fresh(auction_pgf, SplitModel(30), wide)
    monkeypatch.setattr(pgf, "WORK_LIMIT", 4_500_000)
    with pytest.raises(ResourceLimitError):
        build_pgf("auction", SplitModel(25))


def test_held_family_at_the_real_work_limit(capsys, monkeypatch):
    from relaysel.cli import EXIT_RESOURCE, cli_main

    fresh(auction_pgf, SplitModel(8), 4095)
    assert build_pgf("auction", SplitModel(1298)).tail_mass < 1e-9

    def no_level(*args):
        raise AssertionError("a level was built past the work limit")

    monkeypatch.setattr(pgf, "_binomial_row", no_level)
    assert cli_main(["pmf", "--protocol", "auction", "--n", "1299"]) == EXIT_RESOURCE
    assert "over the limit" in capsys.readouterr().err


def _auction_levels_by_sums(p0: float, skip: bool, size: int):
    """The auction's levels built one scaled sum at a time, as before the
    stacked reduction: the reference that reduction must match bit for bit."""
    fam = [pgf._base_coeffs(size), pgf._base_coeffs(size)]
    yield from fam
    for m in itertools.count(2):
        row = _binomial_row(m, p0)
        rhs = np.zeros(size)
        for i in range(2, m):
            rhs += row[i] * fam[i]
        rhs = _shift(rhs, 1)
        if size > 2:
            rhs[2] += row[1]
        if skip:
            fam.append(_divide(rhs, {1: row[0] + row[m]}))
        else:
            fam.append(_divide(rhs, {1: row[m], 2: row[0]}))
        yield fam[m]


def _tree_levels_by_convolution(p: tuple[float, ...], size: int):
    """The tree's levels with every product an np.convolve, f_1's among
    them: the reference that taking f_1's products as their other factor
    must match bit for bit."""
    q = len(p)
    shares = pgf._tree_shares(p)
    one = np.zeros(size)
    one[0] = 1.0
    f = [one, one]
    g = [None] + [[one, one] for _ in range(q - 2)]
    yield from f
    for m in itertools.count(2):
        rest, stay = [None] * (q - 1), [0.0] * (q - 1)
        row = _binomial_row(m, shares[q - 2])
        part = np.zeros(size)
        for c in range(1, m // 2 + 1):
            weight = row[c] + row[m - c] if 2 * c < m else row[c]
            if weight:
                part += weight * np.convolve(f[c], f[m - c])[:size]
        rest[q - 2], stay[q - 2] = part, row[0] + row[m]
        for j in range(q - 3, -1, -1):
            row = _binomial_row(m, shares[j])
            part = row[0] * part
            for c in range(1, m):
                if row[c]:
                    part += row[c] * np.convolve(f[c], g[j + 1][m - c])[:size]
            rest[j], stay[j] = part, row[m] + row[0] * stay[j + 1]
        f.append(_divide(_shift(part, 1), {1: sum(pj**m for pj in p)}))
        for j in range(1, q - 1):
            g[j].append(rest[j] + stay[j] * f[m])
        yield f[m]


@pytest.mark.parametrize(
    "p",
    [(0.5, 0.5), (0.3, 0.7), (1 / 3,) * 3, (0.2, 0.5, 0.3), (0.25,) * 4, (0.1, 0.2, 0.3, 0.4)],
    ids=str,
)
@pytest.mark.parametrize("size", [3, pgf._SLICE_MIN - 1, 43, 129])
def test_tree_levels_equal_the_ones_that_convolve_with_f1(p, size):
    levels = pgf._tree_levels(p, size)
    reference = _tree_levels_by_convolution(p, size)
    for m in range(16):
        assert next(levels).tobytes() == next(reference).tobytes(), f"level {m}"


@settings(max_examples=60, deadline=None)
@given(
    p0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    skip=st.booleans(),
    size=st.one_of(
        st.integers(pgf._SLICE_MIN - 3, pgf._SLICE_MIN + 3),
        st.integers(129, 700),
        st.sampled_from([2, 3, 129, 257]),
    ),
    n=st.integers(0, 80),
)
def test_stacked_levels_equal_the_sums_one_at_a_time(p0, skip, size, n):
    stacked = pgf._auction_levels(p0, skip, size)
    by_sums = _auction_levels_by_sums(p0, skip, size)
    for m in range(n + 1):
        assert next(stacked).tobytes() == next(by_sums).tobytes(), f"level {m}"


# ---------------------------------------------------------------------------
# auction series


def test_auction_two_contenders_leading_coefficients():
    series = auction_pgf(SplitModel(2), 256)
    assert series.coefficient(2) == pytest.approx(0.5, abs=1e-15)
    assert series.coefficient(3) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert series.coefficient(4) == pytest.approx(5.0 / 32.0, abs=1e-15)


def test_auction_two_contenders_normalizes():
    series = auction_pgf(SplitModel(2), 4096)
    assert series.coeffs.sum() == pytest.approx(1.0, abs=1e-9)


def test_auction_two_contenders_mean():
    assert moments(build_pgf("auction", SplitModel(2))).mean == pytest.approx(3.5, abs=1e-6)


def test_auction_base_cases_return_single_slot():
    for n in (0, 1):
        assert auction_pgf(SplitModel(n), 32).coefficient(1) == 1.0
        assert auction_skip_pgf(SplitModel(n), 32).coefficient(1) == 1.0


def test_auction_skip_two_contenders_geometric():
    series = auction_skip_pgf(SplitModel(2), 256)
    assert series.coefficient(0) == 0.0
    assert series.coefficient(1) == 0.0
    for k in range(2, 30):
        assert series.coefficient(k) == pytest.approx(0.5 ** (k - 1), abs=1e-15)


def test_auction_skip_two_contenders_moments():
    est = moments(build_pgf("auction_skip", SplitModel(2)))
    assert est.mean == pytest.approx(3.0, abs=1e-6)
    assert est.variance == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("protocol", ["auction", "auction_skip"])
def test_biased_auction_series_match_exact_propagation(protocol):
    # p_0 = 3/10: every coefficient against the Fraction state propagation
    for n in range(0, 7):
        series = build_pgf(protocol, SplitModel(n, p=(0.3, 0.7)))
        exact = auction_slot_pmf(n, series.k_max, Fraction(3, 10), skip=protocol == "auction_skip")
        worst = max(abs(float(mass) - c) for mass, c in zip(exact, series.coeffs))
        assert worst <= 1e-12, f"n={n}: {worst:.3e}"
        assert abs(series.tail_mass - float(1 - sum(exact))) <= 1e-12


def test_auction_minimum_support_is_two_slots():
    for builder in (auction_pgf, auction_skip_pgf):
        for n in range(2, 11):
            series = builder(SplitModel(n), 256)
            assert series.coefficient(0) == 0.0
            assert series.coefficient(1) == 0.0
            assert series.coefficient(2) > 0.0


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_single_slot_series():
    series = sta_pgf_binary(SplitModel(1), 32)
    assert evaluate(series, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_evaluate_at_one_recovers_total_mass():
    for protocol in PROTOCOL_BUILDERS:
        series = build_pgf(protocol, SplitModel(4))
        assert abs(evaluate(series, 1.0) - 1.0) <= series.tail_mass + 1e-12


def test_evaluate_matches_geometric_closed_form():
    # sum over m of (1/2)^(m+1) z^(2m+3) at z = 0.9
    series = build_pgf("sta", SplitModel(2))
    closed = (0.9**3 / 2.0) / (1.0 - 0.81 / 2.0)
    assert evaluate(series, 0.9).real == pytest.approx(closed, abs=1e-12)


def test_evaluate_rejects_outside_unit_disk():
    series = sta_pgf_binary(SplitModel(2), 64)
    with pytest.raises(DomainError):
        evaluate(series, 1.5)


@settings(max_examples=100, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(0, 8),
    radii=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=40, max_size=40),
)
def test_evaluate_on_an_array_equals_the_scalar_calls(protocol, n, radii, angles):
    series = PROTOCOL_BUILDERS[protocol](SplitModel(n), 256)
    zs = np.array([cmath.rect(r, a) for r, a in zip(radii, angles)])
    values = evaluate(series, zs)
    assert isinstance(values, np.ndarray) and values.shape == zs.shape
    assert values.tolist() == [evaluate(series, z) for z in zs.tolist()]
    assert type(evaluate(series, complex(zs[0]))) is complex


_UNIT_REALS = st.floats(-1.0, 1.0)
_UNIT_POINTS = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


@settings(max_examples=150, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(0, 8),
    p0=st.one_of(st.just(0.5), st.floats(0.1, 0.9)),
    form=st.sampled_from(["scalar", "0-d", "1-d", "2-d"]),
    points=st.one_of(st.lists(_UNIT_REALS, min_size=6, max_size=6), st.lists(_UNIT_POINTS, min_size=6, max_size=6)),
)
def test_evaluate_equals_np_polyval_bit_for_bit(protocol, n, p0, form, points):
    series = build_pgf(protocol, SplitModel(n, p=(p0, 1.0 - p0)))
    z = {
        "scalar": points[0],
        "0-d": np.array(points[0]),
        "1-d": np.array(points),
        "2-d": np.array(points).reshape(2, 3),
    }[form]
    expected = np.polyval(series.coeffs[::-1], z)
    got = evaluate(series, z)
    if form in ("scalar", "0-d"):
        assert type(got) is complex
        assert np.array(got).tobytes() == np.array(complex(expected)).tobytes()
    else:
        assert type(got) is np.ndarray
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    inside=st.lists(st.floats(0.0, 1.0), max_size=20),
    outside=st.floats(1.0 + 1e-6, 1e6),
    angle=st.floats(-math.pi, math.pi),
    at=st.integers(0, 20),
)
def test_evaluate_rejects_an_array_with_one_point_outside(inside, outside, angle, at):
    series = sta_pgf_binary(SplitModel(3), 64)
    points = [complex(r) for r in inside]
    points.insert(min(at, len(points)), cmath.rect(outside, angle))
    with pytest.raises(DomainError):
        evaluate(series, np.array(points))


# ---------------------------------------------------------------------------
# contour inversion


def test_inversion_of_single_slot_series_is_exact():
    series = TruncatedSeries.from_coeffs(np.array([0.0, 1.0]))
    result = invert_fourier(series, 1)
    assert result.prob == pytest.approx(1.0, abs=1e-12)


def test_inversion_matches_direct_coefficient_sta():
    series = build_pgf("sta", SplitModel(2))
    assert invert_fourier(series, 3).prob == pytest.approx(0.5, abs=1e-6)


def test_inversion_matches_direct_coefficient_auction():
    series = build_pgf("auction", SplitModel(4))
    assert invert_fourier(series, 9).prob == pytest.approx(series.coefficient(9), abs=1e-6)


def test_inversion_rejects_k_zero():
    series = sta_pgf_binary(SplitModel(2), 64)
    with pytest.raises(DomainError):
        invert_fourier(series, 0)


def test_inversion_radius_default_controls_aliasing():
    params = InversionParams(gamma=8.0)
    assert params.radius_for(5) == pytest.approx(10.0 ** (-0.8), rel=1e-12)
    with pytest.raises(DomainError):
        InversionParams(r=1.5)


def test_inversion_with_explicit_radius():
    series = build_pgf("auction_skip", SplitModel(3))
    result = invert_fourier(series, 4, InversionParams(r=0.3))
    assert result.prob == pytest.approx(series.coefficient(4), abs=1e-4)


def _invert_point_by_point(series, k, params):
    # one scalar evaluation per contour point, summed in order
    r = params.radius_for(k)
    total = 0.0
    sign = -1.0
    for j in range(1, 2 * k + 1):
        zj = r * cmath.exp(1j * math.pi * j / k)
        total += sign * complex(np.polyval(series.coeffs[::-1], zj)).real
        sign = -sign
    return total / (2.0 * k * r**k)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_inversion_equals_the_point_by_point_loop(protocol):
    # the fair coin at the default radius, then a biased coin and an explicit radius
    few = (1, 2, 3, 7, 16, 29, 30)
    cases = [(0.5, None, range(0, 9), range(1, 31)), (0.3, None, (3, 8), few), (0.5, 0.3, (3, 8), few)]
    for p0, r, ns, ks in cases:
        params = InversionParams(r=r)
        for n in ns:
            series = build_pgf(protocol, SplitModel(n, p=(p0, 1.0 - p0)))
            for k in ks:
                raw = invert_fourier(series, k, params).raw
                assert raw == _invert_point_by_point(series, k, params), (p0, r, n, k)


@settings(max_examples=150, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(0, 8),
    p0=st.one_of(st.just(0.5), st.floats(0.1, 0.9)),
    k=st.integers(1, 30),
)
def test_inversion_recovers_the_coefficient(protocol, n, p0, k):
    series = build_pgf(protocol, SplitModel(n, p=(p0, 1.0 - p0)))
    assert abs(invert_fourier(series, k).prob - series.coefficient(k)) <= 1e-6


def test_inversion_consistency_subset():
    # the full sweep over every protocol, multiplicity and index runs in the
    # acceptance suite; this is the fast regression slice
    for protocol in PROTOCOL_BUILDERS:
        series = build_pgf(protocol, SplitModel(5))
        for k in (2, 3, 7, 15):
            est = invert_fourier(series, k).prob
            assert est == pytest.approx(series.coefficient(k), abs=1e-6)


# ---------------------------------------------------------------------------
# moments


def test_moments_of_degenerate_series():
    est = moments(sta_pgf_binary(SplitModel(1), 64))
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.variance == pytest.approx(0.0, abs=1e-12)
    assert est.mean_error <= 1e-9


def test_moments_requires_small_tail():
    stub = sta_pgf_binary(SplitModel(6), 8)  # far too short for six contenders
    assert stub.tail_mass >= 1e-6
    with pytest.raises(TruncationError):
        moments(stub)


def test_moment_error_bound_brackets_truth():
    series = build_pgf("sta", SplitModel(4))
    est = moments(series)
    # hand recursion on conditional means: E2 = 5, E3 = 23/3, then
    # E4 = 221/24 + E4/8, so E4 = 221/21
    exact = 221.0 / 21.0
    assert abs(est.mean - exact) <= max(est.mean_error, 1e-9)


@pytest.mark.parametrize(
    "protocol, exact",
    [
        ("sta", sta_mean),
        ("auction", auction_mean),
        ("auction_skip", lambda n: auction_mean(n, skip=True)),
    ],
)
@pytest.mark.parametrize("n", [8, 16, 24, 60, 73, 91, 118])
def test_mean_error_bounds_the_exact_mean(protocol, exact, n):
    # the tree's odd-only support once hid part of its truncation error, and
    # from n = 60 the rounding of the auctions' log-space binomial rows
    est = moments(build_pgf(protocol, SplitModel(n)))
    assert est.mean_error >= abs(Fraction(est.mean) - exact(n))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_moments_are_plain_floats(protocol):
    est = moments(build_pgf(protocol, SplitModel(4)))
    assert [type(x) for x in est] == [float, float, float]


@pytest.mark.parametrize("skip", [False, True])
def test_mean_error_bounds_the_40_digit_mean_at_n_400(skip):
    # 1.03e-12 off at n = 400, where the bound once read 3.02e-13
    est = moments(build_pgf("auction_skip" if skip else "auction", SplitModel(400)))
    assert est.mean_error >= abs(est.mean - auction_mean_40(400, skip=skip))


@pytest.mark.parametrize("p0", [Fraction(1, 2), Fraction(3, 10)])
@pytest.mark.parametrize("skip", [False, True])
def test_the_40_digit_auction_mean_matches_the_exact_one(p0, skip):
    import mpmath

    for n in (0, 1, 2, 5, 40):
        exact = auction_mean(n, p0, skip)
        with mpmath.workdps(60):
            exact = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(auction_mean_40(n, p0, skip) - exact) <= exact * 1e-38


@pytest.mark.parametrize("p0", [0.5, 0.3, 0.7, 0.01, 0.999, 1e-5])
def test_row_error_bounds_each_binomial_mass(p0):
    import mpmath

    with mpmath.workdps(40):
        for n in (10, 50, 51, 91, 400, 1298):
            bound = pgf._row_error(n, p0)
            p = mpmath.mpf(p0)
            for i, mass in enumerate(_binomial_row(n, p0)):
                exact = mpmath.binomial(n, i) * p**i * (1 - p) ** (n - i)
                if exact >= mpmath.mpf("1e-300"):
                    assert abs(mass - exact) <= bound * exact, (n, i)


# ---------------------------------------------------------------------------
# cross-protocol invariants


def test_normalization_after_adaptive_truncation():
    for protocol in PROTOCOL_BUILDERS:
        for n in (2, 7, 13, 25):
            series = build_pgf(protocol, SplitModel(n))
            assert series.tail_mass < 1e-9
            assert series.coeffs.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(0, 8),
    q=st.integers(2, 5),
    weights=st.lists(st.integers(0, 10), min_size=5, max_size=5),
)
def test_mass_is_conserved_and_the_tree_lives_on_k_1_mod_q(protocol, n, q, weights):
    q = q if protocol == "sta" else 2  # the auction constructions are binary
    weights = weights[:q]
    assume(sum(w > 0 for w in weights) >= 2)  # a coin that never splits has no series
    model = SplitModel(n, q=q, p=tuple(w / sum(weights) for w in weights))
    series = build_pgf(protocol, model)
    assert abs(float(series.coeffs.sum()) + series.tail_mass - 1.0) <= 1e-12
    if protocol == "sta":
        off_support = np.arange(len(series.coeffs)) % q != 1
        assert np.all(series.coeffs[off_support] == 0.0)


def test_sta_minimum_support_nondecreasing():
    mins = []
    for n in range(2, 11):
        series = build_pgf("sta", SplitModel(n))
        mins.append(int(np.flatnonzero(series.coeffs > pgf.COEFF_SLACK)[0]))
    assert mins[0] == 3
    assert all(b >= a for a, b in zip(mins, mins[1:]))


def test_mean_ordering_across_protocols():
    for n in range(2, 11):
        sta_mean = moments(build_pgf("sta", SplitModel(n))).mean
        auc_mean = moments(build_pgf("auction", SplitModel(n))).mean
        skip_mean = moments(build_pgf("auction_skip", SplitModel(n))).mean
        assert skip_mean <= auc_mean <= sta_mean


def test_truncation_cap_raises():
    with pytest.raises(TruncationError, match=f"k_max {pgf.K_CAP}"):
        # a coin that almost never separates the pair needs far more than K_CAP slots
        build_pgf("sta", SplitModel(2, p=(1.0 - 1e-9, 1e-9)))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_coin_that_never_splits_has_no_series(protocol):
    coins = [(1.0, 0.0), (0.0, 1.0)]
    for coin in coins:
        for n in (2, 3, 8):
            with pytest.raises(DomainError):
                build_pgf(protocol, SplitModel(n, p=coin))
        # a lone contender never collides, so it keeps its one-slot law
        for n in (0, 1):
            series = build_pgf(protocol, SplitModel(n, p=coin))
            assert series.coefficient(1) == 1.0 and series.tail_mass == 0.0
    with pytest.raises(DomainError):
        build_pgf("sta", SplitModel(3, q=3, p=(0.0, 1.0, 0.0)))


@pytest.mark.parametrize(
    "params,k",
    [
        (dict(gamma=1e-300), 5),  # the derived radius rounds to 1
        (dict(gamma=8.0), 10**300),  # as it does at any gamma for a k this large
        (dict(gamma=1e6), 5),  # the derived radius underflows to 0
        (dict(r=1e-300), 5),  # r**k underflows to 0
        (dict(r=0.5), pgf.K_CAP),
    ],
)
def test_inversion_radius_must_lie_in_the_open_unit_interval_with_positive_power(params, k):
    with pytest.raises(DomainError):
        InversionParams(**params).radius_for(k)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_inversion_gamma_must_be_finite_and_positive(gamma):
    with pytest.raises(DomainError):
        InversionParams(gamma=gamma)


def test_inversion_refuses_k_beyond_the_longest_series_before_any_point():
    series = build_pgf("sta", SplitModel(3))

    def no_points(zs):
        raise AssertionError("a contour point was evaluated")

    with pytest.raises(ResourceLimitError):
        invert_fourier(no_points, pgf.K_CAP + 1)
    with pytest.raises(ResourceLimitError):
        invert_fourier(no_points, 10**8)
    # the last index a series can hold still inverts
    assert invert_fourier(series, pgf.K_CAP).prob == pytest.approx(series.coefficient(pgf.K_CAP), abs=1e-6)


def test_split_model_refuses_more_groups_than_the_longest_series_allows():
    assert SplitModel(2, q=pgf.K_CAP).q == pgf.K_CAP
    with pytest.raises(ResourceLimitError):
        SplitModel(2, q=pgf.K_CAP + 1)
    with pytest.raises(ResourceLimitError):
        SplitModel(2, q=10**30)  # refused before the fair coin's q entries are built
