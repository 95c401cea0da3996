"""Slot-synchronous Monte Carlo simulator of the relay-election protocols.

The channel is a collision channel with ternary observable feedback per slot
(idle / single / collision) and gated access: only relays present in the
episode's first reply slot ever contend, so the contender set never grows
during an election.

Episode accounting starts at that first reply slot; the source's request
slot is excluded by default and can be re-added with ``include_request_slot``.
Every episode is an isolated state machine driven by an explicit seed, so
batches can derive independent per-episode seeds from one master seed and
aggregate in any order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, ResourceLimitError
from .geometry import LensRegion, Region, Topology, as_generator, sample_topology
from .pgf import SplitModel

PROGRESS_METRICS = ("separation", "projection")


class SlotFeedback(enum.Enum):
    IDLE = "I"
    SINGLE = "S"
    COLLISION = "C"


@dataclass(frozen=True)
class CriRecord:
    """Outcome of one simulated contention episode.

    ``winner_rank`` is the winner's position among the episode's eligible
    relays when ordered by source separation (1 = nearest).
    """

    protocol: str
    n: int
    slots: int
    winner: int | None
    winner_distance: float
    winner_progress: float
    winner_rank: int | None
    feedback_trace: tuple[SlotFeedback, ...]
    transmitters: tuple[tuple[int, ...], ...]
    backoff: bool = False

    def trace_symbols(self) -> str:
        return "".join(f.value for f in self.feedback_trace)

    def to_line(self) -> str:
        dist = repr(self.winner_distance) if self.winner is not None else "nan"
        return f"{self.protocol} {self.n} {self.slots} {dist} {self.trace_symbols()}"

    @classmethod
    def from_line(cls, line: str) -> "CriRecord":
        """Parse the wire form; the winner's identity is not serialized."""
        parts = line.split()
        if len(parts) != 5:
            raise DomainError(f"malformed record line: {line!r}")
        protocol, n, slots, dist, symbols = parts
        trace = tuple(SlotFeedback(ch) for ch in symbols)
        d = float(dist)
        return cls(
            protocol=protocol,
            n=int(n),
            slots=int(slots),
            winner=None,
            winner_distance=d,
            winner_progress=float("nan"),
            winner_rank=None,
            feedback_trace=trace,
            transmitters=tuple(() for _ in trace),
            backoff=math.isnan(d),
        )


class _CoinStream:
    """Chunked group-index draws, one numpy call per refill instead of per slot."""

    __slots__ = ("rng", "q", "probs", "fair", "buf", "pos")

    def __init__(self, rng, model: SplitModel, chunk: int = 64):
        self.rng = rng
        self.q = model.q
        self.probs = np.array(model.p)
        self.fair = all(abs(x - 1.0 / model.q) < 1e-15 for x in model.p)
        self.buf = ()
        self.pos = 0

    def _refill(self, at_least: int):
        size = max(64, at_least)
        if self.fair:
            self.buf = self.rng.integers(0, self.q, size=size).tolist()
        else:
            self.buf = self.rng.choice(self.q, size=size, p=self.probs).tolist()
        self.pos = 0

    def take(self, m: int) -> list[int]:
        if self.pos + m > len(self.buf):
            self._refill(m)
        out = self.buf[self.pos : self.pos + m]
        self.pos += m
        return out


_IDLE = SlotFeedback.IDLE
_SINGLE = SlotFeedback.SINGLE
_COLLISION = SlotFeedback.COLLISION


# An episode that spends this many slots per contender (plus one) is
# abandoned.  A fair election of n contenders takes ~2.89 n slots on average
# and its length has a geometric tail; the cap is at least 20,000 slots, past
# build_pgf's longest series (16,384 slots), so it stops only coins too close
# to degenerate for the analytic side to resolve either.
_SLOT_CAP_PER_CONTENDER = 10_000


class _EpisodeLog:
    __slots__ = ("trace", "transmitters", "initial", "cap")

    def __init__(self, initial_set):
        self.trace: list[SlotFeedback] = []
        self.transmitters: list[tuple[int, ...]] = []
        self.initial = frozenset(initial_set)
        self.cap = _SLOT_CAP_PER_CONTENDER * (len(self.initial) + 1)

    def slot(self, who) -> SlotFeedback:
        if len(self.trace) >= self.cap:
            raise ResourceLimitError(
                f"episode unresolved after {self.cap} slots; is a group probability near 0 or 1?"
            )
        if type(who) is not tuple:
            who = tuple(who)
        # gated access: nobody outside the initial colliding set may appear
        assert self.initial.issuperset(who), "blocked-access violation"
        size = len(who)
        fb = _IDLE if size == 0 else (_SINGLE if size == 1 else _COLLISION)
        self.trace.append(fb)
        self.transmitters.append(who)
        return fb


def _finish(protocol, topology, n, log, winner, include_request_slot, backoff=False):
    if winner is None:
        dist = prog = float("nan")
        rank = None
    else:
        separations = topology.separations()
        dist = float(separations[winner])
        prog = topology.projection_of(winner)
        rank = 1 + sum(
            1
            for rid in topology._eligible
            if separations[rid] < dist or (separations[rid] == dist and rid < winner)
        )
    return CriRecord(
        protocol=protocol,
        n=n,
        slots=len(log.trace) + (1 if include_request_slot else 0),
        winner=winner,
        winner_distance=dist,
        winner_progress=prog,
        winner_rank=rank,
        feedback_trace=tuple(log.trace),
        transmitters=tuple(log.transmitters),
        backoff=backoff,
    )


def run_sta(
    topology: Topology,
    model: SplitModel,
    seed=None,
    progress: str = "separation",
    include_request_slot: bool = False,
) -> CriRecord:
    """Simulate one splitting-tree election over the topology's eligible set.

    All eligible relays reply in the first slot; every collision splits the
    colliding group by an i.i.d. coin with the model's group probabilities,
    and the sub-groups reply depth-first.  The election ends when every relay
    has transmitted alone, after which the source picks the relay with the
    largest progress metric (lowest id on ties).
    """
    if progress not in PROGRESS_METRICS:
        raise DomainError(f"progress must be one of {PROGRESS_METRICS}")
    eligible = topology._eligible
    n = len(eligible)
    if n != model.n:
        raise DomainError(f"topology has {n} eligible relays, model says {model.n}")
    rng = as_generator(seed)
    log = _EpisodeLog(eligible)

    if n == 0:
        log.slot(())
        return _finish("sta", topology, n, log, None, include_request_slot, backoff=True)

    log.slot(eligible)
    if n >= 2:
        coins = _CoinStream(rng, model)
        q = model.q
        stack = [eligible]
        first = True
        while stack:
            group = stack.pop()
            if not first:
                fb = log.slot(group)
                if fb is not _COLLISION:
                    continue
            first = False
            buckets = [[] for _ in range(q)]
            for rid, g in zip(group, coins.take(len(group))):
                buckets[g].append(rid)
            for b in reversed(buckets):
                stack.append(tuple(b))

    metric = topology.separations() if progress == "separation" else topology.projections()
    winner = max(eligible, key=lambda rid: (metric[rid], -rid))
    return _finish("sta", topology, n, log, winner, include_request_slot)


def run_auction(
    topology: Topology,
    q: int = 2,
    skip: bool = False,
    seed=None,
    progress: str = "separation",
    include_request_slot: bool = False,
    p: tuple[float, ...] | None = None,
) -> CriRecord:
    """Simulate one priority-band auction election.

    Every eligible relay replies in the gating slot: an idle slot backs off
    and a single reply wins at once.  After a collision each relay's place
    in the lens is its anchor mass ``u``, the lens mass within its anchor
    distance, which is Uniform(0, 1) for a uniform relay.  The contenders'
    interval of ``u`` is cut into ``q`` priority bands of masses ``p`` (the
    fair default is ``1/q`` each), nearest the anchor first, and bands answer
    in priority order.  A single reply wins immediately; a collision drops
    every lower-priority band for the rest of the episode and cuts the
    colliding band the same way; an idle slot hands over to the rest of the
    field, either by cutting it at once (``skip``: the idle doubles as the
    regather slot) or by letting it regather and collide in an extra slot
    first.  ``p`` is taken as checked, as :class:`EpisodeConfig` does once
    per batch.

    The ``progress`` argument is accepted for interface symmetry; the
    auction's winner is always the first solo replier.
    """
    protocol = "auction_skip" if skip else "auction"
    if progress not in PROGRESS_METRICS:
        raise DomainError(f"progress must be one of {PROGRESS_METRICS}")
    region = topology.region
    if not isinstance(region, LensRegion):
        raise DomainError("the auction needs a lens decision region to form bands")
    eligible = topology._eligible
    n = len(eligible)
    log = _EpisodeLog(eligible)

    fb = log.slot(eligible)  # the gating slot that fixes the contender set
    if fb is not _COLLISION:
        winner = eligible[0] if fb is _SINGLE else None
        return _finish(
            protocol, topology, n, log, winner, include_request_slot, backoff=winner is None
        )

    ax, ay = region.anchor
    mass, relays = region.anchor_radial_mass, topology.relays
    u = {}
    for rid in eligible:
        x, y = relays[rid][0]
        u[rid] = mass(math.hypot(x - ax, y - ay))
    # lower band edges as fractions of the contenders' interval (lo, hi]
    cuts = [j / q for j in range(q)] if p is None else list(accumulate(p[:-1], initial=0.0))
    active = eligible
    lo, hi, j = 0.0, 1.0, 0
    while True:
        width = hi - lo
        top = hi if j == q - 1 else lo + cuts[j + 1] * width
        # no active u lies at or below band j's lower edge, so u <= top is band j
        members = [rid for rid in active if u[rid] <= top]
        fb = log.slot(members)
        if fb is _SINGLE:
            return _finish(protocol, topology, n, log, members[0], include_request_slot)
        if fb is _COLLISION:
            # tree pruning: every lower-priority band drops out for good
            active, lo, hi, j = members, lo + cuts[j] * width, top, 0
        elif skip:
            lo = top
        else:
            j += 1


# ---------------------------------------------------------------------------
# batches


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything one episode needs besides its seed.

    ``n`` is the deployed relay count; the realized conflict multiplicity is
    the number of relays that are awake (all of them at the default
    ``awake_prob`` of 1).
    """

    protocol: str
    n: int
    region: Region
    q: int = 2
    p: tuple[float, ...] | None = None
    awake_prob: float = 1.0
    progress: str = "separation"
    include_request_slot: bool = False

    def __post_init__(self):
        # check q and p once per batch rather than once per episode, and turn
        # away the coins under which no election can ever end
        model = SplitModel(n=self.n, q=self.q, p=self.p)
        if max(model.p) == 1.0:
            raise DomainError("a coin with some p_j = 1 never splits a collision")
        if self.protocol == "auction_skip" and model.p[0] == 0.0:
            raise DomainError("auction_skip re-probes an empty top band forever when p_0 = 0")


@dataclass
class BatchSummary:
    protocol: str
    n: int
    replications: int
    pmf: dict[int, float]
    mean_slots: float
    var_slots: float
    backoff_rate: float
    mean_winner_distance: float
    mean_winner_distance_by_rank: dict[int, float]


def run_single_episode(config: EpisodeConfig, seed) -> CriRecord:
    """One episode: sample the deployment, then run the protocol on it."""
    rng = as_generator(seed)
    topo = sample_topology(config.region, config.n, rng, awake_prob=config.awake_prob)
    if config.protocol == "sta":
        model = SplitModel(n=len(topo.eligible_ids()), q=config.q, p=config.p)
        return run_sta(
            topo,
            model,
            rng,
            progress=config.progress,
            include_request_slot=config.include_request_slot,
        )
    if config.protocol in ("auction", "auction_skip"):
        return run_auction(
            topo,
            q=config.q,
            skip=config.protocol == "auction_skip",
            seed=rng,
            progress=config.progress,
            include_request_slot=config.include_request_slot,
            p=config.p,
        )
    raise DomainError(f"unknown protocol {config.protocol!r}")


def episode_seeds(master_seed, replications: int) -> list[np.random.SeedSequence]:
    """Counter-split per-episode seeds, reproducible from the master seed."""
    return np.random.SeedSequence(master_seed).spawn(replications)


def run_episode_batch(
    config: EpisodeConfig, replications: int, seed
) -> tuple[list[CriRecord], BatchSummary]:
    """Independent episodes with per-episode seeds split off the master seed."""
    if replications < 1:
        raise DomainError("need at least one replication")
    records = [run_single_episode(config, s) for s in episode_seeds(seed, replications)]

    slots = np.array([r.slots for r in records], dtype=float)
    dist_sum = 0.0
    dist_n = 0
    rank_sums: dict[int, float] = {}
    rank_counts: dict[int, int] = {}
    for r in records:
        if r.winner is None:
            continue
        dist_sum += r.winner_distance
        dist_n += 1
        rank_sums[r.winner_rank] = rank_sums.get(r.winner_rank, 0.0) + r.winner_distance
        rank_counts[r.winner_rank] = rank_counts.get(r.winner_rank, 0) + 1

    summary = BatchSummary(
        protocol=config.protocol,
        n=config.n,
        replications=replications,
        pmf=empirical_pmf(records),
        mean_slots=float(slots.mean()),
        var_slots=float(slots.var()),
        backoff_rate=sum(1 for r in records if r.backoff) / replications,
        mean_winner_distance=dist_sum / dist_n if dist_n else float("nan"),
        mean_winner_distance_by_rank={
            rank: rank_sums[rank] / rank_counts[rank] for rank in sorted(rank_sums)
        },
    )
    return records, summary


def empirical_pmf(records) -> dict[int, float]:
    """Slot-count relative frequencies of a record collection."""
    counts: dict[int, int] = {}
    for r in records:
        counts[r.slots] = counts.get(r.slots, 0) + 1
    total = len(records)
    return {k: c / total for k, c in sorted(counts.items())}


def total_variation(analytic: dict[int, float], empirical: dict[int, float]) -> float:
    """Half the L1 distance between two PMFs over the union of their supports."""
    keys = set(analytic) | set(empirical)
    return 0.5 * sum(abs(analytic.get(k, 0.0) - empirical.get(k, 0.0)) for k in keys)
