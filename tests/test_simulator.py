"""Episode semantics, protocol invariants and batch machinery."""

import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysel import geometry, simulator
from relaysel.errors import DomainError, ResourceLimitError
from relaysel.geometry import (
    MAX_POINTS,
    LensRegion,
    Point2,
    SectorRegion,
    Topology,
    nth_neighbor_ccdf,
    partition_region,
    sample_sorted_separations,
    sample_topology,
)
from relaysel.pgf import SplitModel, build_pgf, moments
from relaysel.simulator import (
    CriRecord,
    EpisodeConfig,
    RecordBatch,
    SlotFeedback,
    _block_size,
    empirical_pmf,
    run_auction,
    run_episode_batch,
    run_single_episode,
    run_sta,
    total_variation,
)

from relaysel.streams import COIN, PLACE_U, PLACE_V, episode_seeds, stream_keys, word_thresholds

from oracles import auction_slot_pmf
from test_geometry import regions

LENS = LensRegion(radius=1.0)
SECTOR = SectorRegion(radius=1.0)


def lens_topology(anchor_distances, region=LENS):
    """Relays placed on the source->anchor axis at given anchor distances."""
    relays = tuple(Point2(region.radius - a, 0.0) for a in anchor_distances)
    return Topology(relays=relays, region=region)


# ---------------------------------------------------------------------------
# splitting-tree episodes


def test_sta_empty_field_is_one_idle_slot():
    topo = sample_topology(SECTOR, 0, 3)
    rec = run_sta(topo, SplitModel(0), 4)
    assert rec.slots == 1
    assert rec.feedback_trace == (SlotFeedback.IDLE,)
    assert rec.winner is None
    assert rec.backoff


def test_sta_lone_relay_wins_in_one_slot():
    topo = sample_topology(SECTOR, 1, 3)
    rec = run_sta(topo, SplitModel(1), 4)
    assert rec.slots == 1
    assert rec.feedback_trace == (SlotFeedback.SINGLE,)
    assert rec.winner == 0


def test_sta_multiplicity_must_match_topology():
    topo = sample_topology(SECTOR, 3, 3)
    with pytest.raises(DomainError):
        run_sta(topo, SplitModel(4), 1)


def test_sta_pair_resolves_in_three_slots_half_the_time():
    cfg = EpisodeConfig(protocol="sta", n=2, region=SECTOR)
    _, summary = run_episode_batch(cfg, 100_000, 1234)
    assert summary.pmf[3] == pytest.approx(0.5, abs=0.005)


def test_sta_mean_slots_matches_series():
    cfg = EpisodeConfig(protocol="sta", n=4, region=SECTOR)
    reps = 100_000
    _, summary = run_episode_batch(cfg, reps, 777)
    analytic = moments(build_pgf("sta", SplitModel(4))).mean
    se = math.sqrt(summary.var_slots / reps)
    assert abs(summary.mean_slots - analytic) <= 3.0 * se


def test_sta_every_relay_transmits_alone_once():
    for seed in range(20):
        topo = sample_topology(SECTOR, 5, seed)
        rec = run_sta(topo, SplitModel(5), seed + 100)
        singles = [who[0] for who, fb in zip(rec.transmitters, rec.feedback_trace)
                   if fb is SlotFeedback.SINGLE]
        assert sorted(singles) == [0, 1, 2, 3, 4]


def test_sta_blocked_access_never_adds_contenders():
    topo = sample_topology(SECTOR, 6, 9)
    rec = run_sta(topo, SplitModel(6), 10)
    initial = set(rec.transmitters[0])
    for who in rec.transmitters:
        assert set(who) <= initial


def test_sta_winner_maximizes_separation():
    topo = sample_topology(SECTOR, 5, 21)
    rec = run_sta(topo, SplitModel(5), 22)
    seps = topo.separations()
    assert rec.winner == int(np.argmax(seps))
    assert rec.winner_rank == 5
    assert rec.winner_distance == pytest.approx(float(seps.max()))


def test_request_slot_accounting_flag():
    topo = sample_topology(SECTOR, 1, 3)
    rec = run_sta(topo, SplitModel(1), 4, include_request_slot=True)
    assert rec.slots == 2
    assert len(rec.feedback_trace) == 1


# ---------------------------------------------------------------------------
# auction episodes


def test_auction_empty_field_backs_off():
    topo = sample_topology(LENS, 0, 3)
    rec = run_auction(topo)
    assert rec.slots == 1
    assert rec.feedback_trace == (SlotFeedback.IDLE,)
    assert rec.backoff
    assert rec.winner is None


@pytest.mark.parametrize("skip", [False, True])
def test_auction_lone_relay_wins_in_one_slot(skip):
    # the gating slot's single reply is already a win, as in the splitting
    # tree and the auction's slot-count law
    topo = sample_topology(LENS, 1, 3)
    rec = run_auction(topo, skip=skip)
    assert rec.slots == 1
    assert rec.feedback_trace == (SlotFeedback.SINGLE,)
    assert rec.winner == 0


def test_auction_needs_a_lens_region():
    topo = sample_topology(SECTOR, 2, 3)
    with pytest.raises(DomainError):
        run_auction(topo)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda topo: run_auction(topo, p=(0.6, 0.6)), id="auction-sum"),
        pytest.param(lambda topo: run_auction(topo, q=3, p=(0.5, 0.5)), id="auction-length"),
        pytest.param(lambda topo: run_auction(topo, skip=True, p=(0.0, 1.0)), id="skip-empty-top"),
        pytest.param(lambda topo: run_auction(topo, q=3, skip=True), id="skip-three-bands"),
        # a coin with p_j = 1 never splits the pair's collision
        pytest.param(lambda topo: run_sta(topo, SplitModel(2, p=(1.0, 0.0)), 1), id="sta-sure-coin"),
    ],
)
def test_scalar_runs_check_their_coin_as_a_batch_does(run):
    with pytest.raises(DomainError):
        run(lens_topology([0.2, 0.7]))


def test_auction_walkthrough_collision_then_single():
    # three bidders collide in the gating slot; the split that follows puts
    # the best one alone in the top band, so it replies alone and wins.
    # ids: 0 = "87", 1 = "21", 2 = "55".
    topo = lens_topology([0.2, 0.7, 0.8])
    rec = run_auction(topo)
    assert rec.feedback_trace == (SlotFeedback.COLLISION, SlotFeedback.SINGLE)
    assert rec.winner == 0
    assert rec.slots == 2


def test_auction_prunes_lower_band_after_collision():
    # a fourth bidder sits in the low-priority band; it hears the gating
    # collision, then the high band's collision, and never transmits again
    topo = lens_topology([0.2, 0.5, 0.6, 0.9])
    rec = run_auction(topo)
    assert rec.feedback_trace == (
        SlotFeedback.COLLISION,  # gating reply of all four
        SlotFeedback.COLLISION,  # high-priority band {0, 1, 2}
        SlotFeedback.SINGLE,     # relay 0 alone after the re-split
    )
    assert rec.winner == 0
    low_priority = 3
    assert all(low_priority not in who for who in rec.transmitters[1:])


def test_auction_winner_is_closest_to_the_anchor():
    for seed in range(30):
        topo = sample_topology(LENS, 5, seed)
        anchor = LENS.anchor
        best = min(
            range(len(topo.relays)),
            key=lambda rid: math.hypot(topo.relays[rid].x - anchor.x, topo.relays[rid].y - anchor.y),
        )
        for skip in (False, True):
            rec = run_auction(topo, skip=skip)
            assert rec.winner == best


def test_auction_idle_handling_differs_between_variants():
    # both bidders in the low band: the gating collision is followed by an
    # idle of the high band; without skip the field regathers (one extra
    # collision), with skip the refreshed partition answers at once
    topo = lens_topology([0.8, 0.9])
    plain = run_auction(topo, skip=False)
    assert plain.feedback_trace[:3] == (
        SlotFeedback.COLLISION,
        SlotFeedback.IDLE,
        SlotFeedback.COLLISION,
    )
    skipped = run_auction(topo, skip=True)
    assert skipped.feedback_trace[0] is SlotFeedback.COLLISION
    assert skipped.feedback_trace[1] is SlotFeedback.IDLE
    # after the idle the refreshed top band holds the better bidder alone
    assert skipped.feedback_trace[2] is SlotFeedback.SINGLE
    assert skipped.slots == 3


@pytest.mark.parametrize("protocol,n", [("auction", 4), ("auction_skip", 4)])
def test_auction_pmf_matches_series(protocol, n):
    cfg = EpisodeConfig(protocol=protocol, n=n, region=LENS)
    _, summary = run_episode_batch(cfg, 100_000, 4242)
    series = build_pgf(protocol, SplitModel(n))
    analytic = {
        k: float(series.coeffs[k])
        for k in range(series.truncation_index(0.999) + 1)
        if series.coeffs[k] > 0
    }
    assert total_variation(analytic, summary.pmf) <= 0.01


@pytest.mark.parametrize("protocol", ["auction", "auction_skip"])
def test_biased_auction_pmf_matches_exact_law(protocol):
    # the top band holds p_0 = 3/10 of every interval's anchor mass
    cfg = EpisodeConfig(protocol=protocol, n=4, region=LENS, p=(0.3, 0.7))
    _, summary = run_episode_batch(cfg, 100_000, 4242)
    exact = [float(m) for m in auction_slot_pmf(4, 200, Fraction(3, 10), protocol == "auction_skip")]
    cut = int(np.searchsorted(np.cumsum(exact), 0.999))
    analytic = {k: mass for k, mass in enumerate(exact[: cut + 1]) if mass > 0}
    assert total_variation(analytic, summary.pmf) <= 0.01


def test_auction_three_band_descent():
    # q = 3: idle high band, then the middle band's lone bidder wins without
    # any regather slot in between
    bands = partition_region(LENS, 3)
    inside_middle = 0.5 * (bands[1].inner_rho + bands[1].rho)
    inside_low = 0.5 * (bands[2].inner_rho + bands[2].rho)
    topo = lens_topology([inside_middle, inside_low])
    rec = run_auction(topo, q=3)
    assert rec.feedback_trace == (
        SlotFeedback.COLLISION,
        SlotFeedback.IDLE,
        SlotFeedback.SINGLE,
    )
    assert rec.winner == 0


# ---------------------------------------------------------------------------
# batches and the record stream


def test_batch_is_deterministic():
    cfg = EpisodeConfig(protocol="auction", n=3, region=LENS)
    first = run_episode_batch(cfg, 200, 3131)
    second = run_episode_batch(cfg, 200, 3131)
    assert first[0] == second[0]
    assert first[1] == second[1]


def _outcome(record):
    """(slots, winner, rank, distance, backoff) in the batch's column coding."""
    if record.winner is None:
        return (record.slots, -1, 0, None, record.backoff)
    return (record.slots, record.winner, record.winner_rank, record.winner_distance, record.backoff)


def _column_outcomes(records):
    return [
        (slots, winner, rank, None if math.isnan(dist) else dist, backoff)
        for slots, winner, rank, dist, backoff in zip(
            records.slots.tolist(),
            records.winner.tolist(),
            records.winner_rank.tolist(),
            records.winner_distance.tolist(),
            records.backoff.tolist(),
        )
    ]


def test_single_replication_equals_direct_call():
    # episode i of a batch is the direct run at (seed, i), wherever the
    # batch's blocks fall: first, last and middle episodes of a three-block batch
    cfg = EpisodeConfig(protocol="sta", n=3, region=SECTOR)
    block = _block_size(cfg.n, cfg.q)
    reps = 2 * block + 7
    records, _ = run_episode_batch(cfg, reps, 555)
    columns = _column_outcomes(records)
    for i in (0, 1, block - 1, block, block + 1, reps // 2, reps - 1):
        direct = run_single_episode(cfg, 555, i)
        assert _outcome(direct) == columns[i]
        assert records[i] == direct
    assert records[-1] == records[reps - 1]


BIASED = {2: (0.3, 0.7), 3: (0.3, 0.35, 0.35)}
# cuts on binary fractions, which a coin word meets exactly at its threshold,
# and at q = 3 a repeated cut: an empty middle group
DYADIC = {2: (0.25, 0.75), 3: (0.5, 0.0, 0.5)}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 64])
@pytest.mark.parametrize("protocol", ["sta", "auction", "auction_skip"])
def test_replay_equals_the_columnar_engine_exactly(protocol, n, q):
    region = SECTOR if protocol == "sta" else LENS
    if protocol == "auction_skip" and q > 2:  # refused: its idle recut reads only p_0
        with pytest.raises(DomainError, match="binary"):
            EpisodeConfig(protocol=protocol, n=n, region=region, q=q, p=BIASED[q])
        return
    for p in (None, BIASED[q], DYADIC[q]):
        cfg = EpisodeConfig(protocol=protocol, n=n, region=region, q=q, p=p)
        records, _ = run_episode_batch(cfg, 150, 97)
        assert [_outcome(r) for r in records] == _column_outcomes(records)


@settings(max_examples=200, deadline=None)
@given(cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
@example(cuts=[0.25, 0.5, 1 / 3, 1 - 2.0**-53, 0.5])
@example(cuts=[0.0, 5e-324, 2.0**-53, 1.0])
def test_a_coin_word_meets_a_cut_exactly_when_its_uniform_does(cuts):
    # the engine's integer coin against the replay's float one: word m is the
    # uniform m * 2^-53, at and on either side of each cut's threshold
    cuts = sorted(cuts)
    thresholds = word_thresholds(cuts)
    for c, t in zip(cuts, thresholds.tolist()):
        for m in (t - 1, t, t + 1):
            if 0 <= m < 2**53:
                assert (m >= t) == (m * 2.0**-53 >= c)
                word = np.array([m], dtype=np.uint64)
                assert np.searchsorted(thresholds, word, side="right")[0] == bisect_right(cuts, m * 2.0**-53)


@pytest.mark.parametrize("protocol", ["sta", "auction", "auction_skip"])
def test_replayed_transmitters_stay_within_the_gating_set(protocol):
    # gated access: nobody outside the first slot's repliers ever transmits
    q = 2 if protocol == "auction_skip" else 3
    cfg = EpisodeConfig(protocol=protocol, n=6, region=SECTOR if protocol == "sta" else LENS, q=q)
    records, _ = run_episode_batch(cfg, 400, 23)
    for rec in records:
        gating = set(rec.transmitters[0])
        assert len(gating) == rec.n
        assert all(set(who) <= gating for who in rec.transmitters)


def _columns(records):
    return (records.slots, records.winner, records.winner_rank, records.winner_distance)


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from(["sta", "auction", "auction_skip"]),
    n=st.integers(0, 8),
    seed=st.integers(0, 2**70),
    cuts=st.lists(st.integers(1, 59), max_size=3),
)
def test_episode_outcomes_do_not_depend_on_the_block(protocol, n, seed, cuts):
    # a batch in blocks of c episodes has a seam at every multiple of c
    cfg = EpisodeConfig(protocol=protocol, n=n, region=SECTOR if protocol == "sta" else LENS)
    assert _block_size(n, cfg.q) >= 60
    whole = _columns(RecordBatch(cfg, 60, seed))
    for c in cuts:
        with mock.patch.object(simulator, "_BLOCK_RELAYS", c * max(n, 1)):
            assert _block_size(n, cfg.q) == c
            parts = _columns(RecordBatch(cfg, 60, seed))
        for column, joined in zip(whole, parts):
            assert np.array_equal(column, joined, equal_nan=column.dtype.kind == "f")


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("protocol", ["sta", "auction", "auction_skip"])
def test_lines_from_the_columns_equal_the_replayed_lines(monkeypatch, protocol, q):
    # blocks of 40 relays put several block seams in every batch
    monkeypatch.setattr(simulator, "_BLOCK_RELAYS", 40)
    region = SECTOR if protocol == "sta" else LENS
    if protocol == "auction_skip" and q > 2:  # refused: its idle recut reads only p_0
        with pytest.raises(DomainError, match="binary"):
            EpisodeConfig(protocol=protocol, n=5, region=region, q=q)
        return
    for p in (None, BIASED[q]):
        for n in (0, 1, 2, 5, 8):
            for request in (False, True):
                cfg = EpisodeConfig(protocol=protocol, n=n, region=region, q=q, p=p, include_request_slot=request)
                replayed = list(RecordBatch(cfg, 45, 313))
                outcomes, lines = [_outcome(r) for r in replayed], [r.to_line() for r in replayed]
                # the columns read before the lines, and after them
                first = RecordBatch(cfg, 45, 313)
                assert _column_outcomes(first) == outcomes
                assert list(first.lines()) == lines
                after = RecordBatch(cfg, 45, 313)
                assert list(after.lines()) == lines
                assert _column_outcomes(after) == outcomes


@pytest.mark.parametrize("protocol", ["sta", "auction", "auction_skip"])
def test_record_lines_place_no_relay(monkeypatch, protocol):
    # the traces need the tree's coins and the auction's anchor masses, not the places
    region = SECTOR if protocol == "sta" else LENS
    records, _ = run_episode_batch(EpisodeConfig(protocol=protocol, n=5, region=region), 300, 29)

    def no_placement(*args):
        raise AssertionError("record lines placed relays")

    monkeypatch.setattr(type(region), "place", no_placement)
    assert len(list(records.lines())) == 300


@pytest.mark.parametrize("protocol", ["sta", "auction"])
def test_lines_from_the_columns_cross_a_full_block(protocol):
    cfg = EpisodeConfig(protocol=protocol, n=8, region=SECTOR if protocol == "sta" else LENS)
    block = _block_size(cfg.n, cfg.q)
    reps = block + 40
    records, _ = run_episode_batch(cfg, reps, 71)
    lines = list(records.lines())
    assert len(lines) == reps
    for i in (0, reps // 2, block - 1, block, reps - 1):
        assert lines[i] == records[i].to_line()


@settings(max_examples=80, deadline=None)
@given(
    protocol=st.sampled_from(["sta", "auction", "auction_skip"]),
    n=st.integers(0, 9),
    q=st.integers(2, 4),
    coin=st.lists(st.integers(1, 20), min_size=4, max_size=4),
    request=st.booleans(),
    seed=st.integers(0, 2**64),
)
def test_record_lines_round_trip_and_keep_the_tree_shape(protocol, n, q, coin, request, seed):
    # every line parses back to itself; a splitting tree's trace is a full
    # q-ary tree whose leaves are its n solo replies and idle sub-groups
    q = 2 if protocol == "auction_skip" else q
    p = tuple(c / sum(coin[:q]) for c in coin[:q])
    cfg = EpisodeConfig(
        protocol=protocol, n=n, region=SECTOR if protocol == "sta" else LENS, q=q, p=p,
        include_request_slot=request,
    )
    records, _ = run_episode_batch(cfg, 30, seed)
    for line in records.lines():
        rec = CriRecord.from_line(line)
        assert rec.to_line() == line
        trace = rec.trace_symbols()
        assert len(trace) == rec.slots - request
        if protocol == "sta":
            assert trace.count("S") == rec.n
            assert trace.count("I") + trace.count("S") == (q - 1) * trace.count("C") + 1


def test_plain_auction_steps_over_an_empty_top_band():
    # p_0 = 0 only costs the plain auction an idle probe per round
    cfg = EpisodeConfig(protocol="auction", n=3, region=LENS, q=3, p=(0.0, 0.5, 0.5))
    records, _ = run_episode_batch(cfg, 200, 8)
    assert all(r.trace_symbols()[1] == "I" for r in records)
    assert all(r.winner is not None for r in records)


def test_batch_rejects_zero_replications():
    cfg = EpisodeConfig(protocol="sta", n=2, region=SECTOR)
    with pytest.raises(DomainError):
        run_episode_batch(cfg, 0, 1)


def test_winner_distance_follows_the_furthest_neighbor_law():
    # splitting-tree winner = max separation, so winner distances sample the
    # furthest-of-n law of the region
    n, reps = 3, 100_000
    cfg = EpisodeConfig(protocol="sta", n=n, region=SECTOR)
    records, _ = run_episode_batch(cfg, reps, 20240101)
    samples = np.sort(records.winner_distance)
    cdf = 1.0 - nth_neighbor_ccdf(SECTOR, n, n, samples)
    hi = np.arange(1, reps + 1) / reps
    lo = np.arange(0, reps) / reps
    ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(lo - cdf)))
    assert ks <= 0.01


def test_record_line_round_trip():
    topo = sample_topology(LENS, 3, 17)
    rec = run_auction(topo)
    line = rec.to_line()
    parsed = CriRecord.from_line(line)
    assert parsed.protocol == "auction"
    assert parsed.n == rec.n
    assert parsed.slots == rec.slots
    assert parsed.winner_distance == rec.winner_distance
    assert parsed.feedback_trace == rec.feedback_trace


def test_backoff_record_line_round_trip():
    topo = sample_topology(LENS, 0, 17)
    rec = run_auction(topo)
    parsed = CriRecord.from_line(rec.to_line())
    assert math.isnan(parsed.winner_distance)
    assert parsed.backoff


def test_malformed_record_line_rejected():
    with pytest.raises(DomainError):
        CriRecord.from_line("sta 3 5")


@pytest.mark.parametrize("line", ["sta 2 x nan C", "sta 2 3 nan CX", "sta two 3 0.5 CSS", "sta 2 3 abc CSS"])
def test_every_malformed_record_field_is_a_domain_error(line):
    # a count that is not an integer, an unknown slot symbol, a distance that is not a float
    with pytest.raises(DomainError, match="malformed record line"):
        CriRecord.from_line(line)


def test_empirical_pmf_and_total_variation_helpers():
    records, summary = run_episode_batch(
        EpisodeConfig(protocol="sta", n=2, region=SECTOR), 500, 99
    )
    assert empirical_pmf(records) == summary.pmf
    assert empirical_pmf(list(records)) == summary.pmf  # the replayed records agree
    assert total_variation(summary.pmf, summary.pmf) == 0.0
    assert total_variation({1: 1.0}, {2: 1.0}) == 1.0


def test_batch_winner_ranks_cover_all_ranks():
    records, summary = run_episode_batch(
        EpisodeConfig(protocol="auction", n=4, region=LENS), 2000, 6
    )
    assert set(records.winner_rank.tolist()) <= {1, 2, 3, 4}
    assert not records.backoff.any()
    total = sum(summary.pmf.values())
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "protocol,region",
    [("sta", SECTOR), ("sta", LENS), ("auction", LENS), ("auction_skip", LENS)],
    ids=["sta-sector", "sta-lens", "auction", "auction_skip"],
)
def test_batch_summaries_measure_no_separation(monkeypatch, protocol, region):
    def separations(*args):
        raise AssertionError("a slot-only caller measured a separation")

    monkeypatch.setattr(LensRegion, "separations", separations)
    monkeypatch.setattr(SectorRegion, "separations", separations)
    for n in (0, 1, 5):
        records, summary = run_episode_batch(EpisodeConfig(protocol=protocol, n=n, region=region), 300, 41)
        assert sum(summary.pmf.values()) == pytest.approx(1.0)
        assert len(records) == 300
        with pytest.raises(AssertionError, match="measured a separation"):
            records.winner_distance.size


@pytest.mark.parametrize("protocol", ["sta", "auction", "auction_skip"])
def test_reading_outcomes_runs_no_election(monkeypatch, protocol):
    # every protocol's winner is read off the deployment: the farthest
    # relay, or the one of least anchor mass
    def elect(*args):
        raise AssertionError("an outcome column ran an election")

    monkeypatch.setattr(simulator, "_elect", elect)
    region = SECTOR if protocol == "sta" else LENS
    for n in (0, 1, 5):
        records = RecordBatch(EpisodeConfig(protocol=protocol, n=n, region=region), 300, 41)
        for column in (records.winner, records.winner_rank, records.winner_distance, records.backoff):
            assert column.shape == (300,)
        assert records.backoff.all() == (n == 0)


def test_a_batch_is_refused_before_any_election(monkeypatch):
    def elect(*args):
        raise AssertionError("elected before the batch was checked")

    monkeypatch.setattr(simulator, "_elect", elect)
    cfg = EpisodeConfig(protocol="sta", n=2, region=SECTOR)
    with pytest.raises(DomainError):
        RecordBatch(cfg, 0, 1)
    with pytest.raises(ResourceLimitError):
        RecordBatch(cfg, MAX_POINTS + 1, 1)
    with pytest.raises(DomainError, match="non-negative"):
        RecordBatch(cfg, 10, -1)
    assert len(RecordBatch(cfg, 10, 1)) == 10  # the length runs no election


def test_a_sector_draws_no_second_uniform(monkeypatch):
    # the sector's separation is its radius alone, so v is never drawn
    streams = []

    def spy(keys, stream):
        streams.append(stream)
        return stream_keys(keys, stream)

    monkeypatch.setattr(geometry, "stream_keys", spy)
    monkeypatch.setattr(simulator, "stream_keys", spy)
    draws, n = 300, 4
    for region, drawn in ((SECTOR, [PLACE_U]), (LENS, [PLACE_U, PLACE_V])):
        streams.clear()
        sample_sorted_separations(region, n, draws, 5)
        assert streams == drawn
        streams.clear()
        records, _ = run_episode_batch(EpisodeConfig(protocol="sta", n=n, region=region), draws, 5)
        assert records.winner_distance.size == draws
        assert sorted(stream for stream in streams if stream < COIN) == drawn  # the rest are the tree's coins


@settings(max_examples=20, deadline=None)
@given(region=regions(), seed=st.integers(0, 2**70))
@example(region=LensRegion(rho=2.0, inner_rho=1.99999), seed=7)
def test_samples_and_topologies_are_the_batch_deployments(region, seed):
    # row i of a sample is episode i's relays sorted by separation, and a
    # topology is episode 0's relays placed, in relay order: its hypot
    # distances are the engine's half-angle separations to rounding
    for n, draws in [(0, 3), (1, 40), (5, 300), (geometry._PLACE_BLOCK + 2, 2)]:
        config = EpisodeConfig(protocol="sta", n=n, region=region)
        batch = RecordBatch(config, draws, seed)
        seps = np.concatenate([simulator._Deployment(config, block).separations for block in batch._blocks()])
        assert sample_sorted_separations(region, n, draws, seed).tobytes() == np.sort(seps, axis=1).tobytes()
        topology = sample_topology(region, n, seed)
        assert np.all(np.abs(topology.separations() - seps[0]) <= 1e-13 * region.radius)


def test_relay_counts_above_the_cap_are_refused_before_any_allocation():
    # a splitting tree's frontier counts the q sub-groups of up to n / 2 groups
    assert EpisodeConfig(protocol="sta", n=MAX_POINTS, region=LENS).n == MAX_POINTS
    assert EpisodeConfig(protocol="sta", n=MAX_POINTS // 8, region=LENS, q=16).q == 16
    assert EpisodeConfig(protocol="auction", n=MAX_POINTS, region=LENS, q=3).q == 3
    tracemalloc.start()
    try:
        for n, q in [(MAX_POINTS + 1, 2), (10**8, 2), (10**30, 2), (MAX_POINTS, 3), (MAX_POINTS // 8 + 1, 16)]:
            with pytest.raises(ResourceLimitError):
                EpisodeConfig(protocol="sta", n=n, region=LENS, q=q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("q,per_contender,limit", [(2, 3, 8), (3, 4, 7), (3, 1, 6)])
def test_both_engines_cap_the_tree_at_the_same_collisions(monkeypatch, q, per_contender, limit):
    # a collision spends 1 + q slots, so the tree counts its collisions
    # against (cap - 1) // q, the collisions within the cap, but allows at
    # least n + 1 of them (the last case)
    monkeypatch.setattr(simulator, "_SLOT_CAP_PER_CONTENDER", per_contender)
    cfg = EpisodeConfig(protocol="sta", n=5, region=SECTOR, q=q)
    cap = per_contender * (cfg.n + 1)
    assert limit == max((cap - 1) // q, cfg.n + 1)
    refused = 0
    for i in range(200):
        try:
            slots = simulator._tree_slots(episode_seeds(11, 1, i), cfg.n, q, simulator._cuts(q, None), None)[0]
        except ResourceLimitError as exc:
            assert f"{limit} collisions" in str(exc)
            refused += 1
            with pytest.raises(ResourceLimitError, match=f"{limit} collisions"):
                run_single_episode(cfg, 11, i)
        else:
            assert run_single_episode(cfg, 11, i).slots == slots <= 1 + q * limit
            assert slots <= max(cap, 1 + q * (cfg.n + 1))
    assert 0 < refused < 200


def test_slot_counts_run_an_auction_in_blocks_of_n_alone(monkeypatch):
    # the slots note no descent step, so an auction's block holds
    # _BLOCK_RELAYS / n episodes at any q; the record lines, which read the
    # noted steps, keep the frontier's blocks of episodes * n * q / 2 relays
    cfg = EpisodeConfig(protocol="auction", n=2, region=LENS, q=16384)
    descents = []
    descend = simulator._auction_descent

    def noted(u, q, cuts, skip, steps):
        descents.append((u.shape[0], steps is None))
        return descend(u, q, cuts, skip, steps)

    monkeypatch.setattr(simulator, "_auction_descent", noted)
    slots = RecordBatch(cfg, 1000, 5).slots
    assert descents == [(1000, True)]
    descents.clear()
    lines = list(RecordBatch(cfg, 12, 5).lines())
    assert descents == [(4, False)] * 3
    assert [CriRecord.from_line(line).slots for line in lines] == slots[:12].tolist()


def test_many_splitting_groups_keep_the_tree_frontier_small():
    # each crowded group counts its q sub-groups: a block of 300 episodes of
    # a crowded pair at q = 16384 would count 39 MB of them at depth 0
    cfg = EpisodeConfig(protocol="sta", n=2, region=SECTOR, q=16384)
    assert _block_size(cfg.n, cfg.q) == 4
    tracemalloc.start()
    try:
        _, summary = run_episode_batch(cfg, 300, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert min(summary.pmf) == 1 + cfg.q  # the pair's one sure collision
