"""Slot-synchronous Monte Carlo simulator of the relay-election protocols.

The channel is a collision channel with ternary observable feedback per slot
(idle / single / collision) and gated access: only relays present in the
episode's first reply slot ever contend, so the contender set never grows
during an election.

Episode accounting starts at that first reply slot; the source's request
slot is excluded by default and can be re-added with ``include_request_slot``.

Every draw is one of :mod:`relaysel.streams`' counter-addressed uniforms, a
pure function of (master seed, episode, stream, index), so an episode's
draws do not depend on which episodes run beside it, in what order or in
what block, and two engines run the same episodes:

* the columnar engine behind :class:`RecordBatch` runs blocks of episodes
  as arrays (the tree as a frontier of groups split depth by depth, the
  auction as an interval descent on each episode's two least anchor masses).
  A column is measured when first read: the slots from the elections, and
  the winner (the tree's farthest relay, the auction's least anchor mass),
  its rank and its distance from the deployment alone.  The frontier notes
  every sub-group's size and the descent every step's reply count, from
  which :meth:`RecordBatch.lines` places each slot's feedback symbol in the
  episode's trace and writes the record lines;
* the scalar replay walks one episode slot by slot, the tree depth first,
  and builds its :class:`CriRecord` with the feedback trace and the
  transmitters.  A :class:`RecordBatch` replays an episode only when it is
  read, and :func:`run_sta` and :func:`run_auction` walk the one episode
  of a given :class:`Topology` through the same body.

Both give the same values and record lines for every episode, exactly.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import DomainError, ResourceLimitError, check_fields
from .geometry import MAX_POINTS, LensRegion, Region, Topology
from .pgf import PROTOCOLS, SplitModel
from .streams import COIN, PLACE_U, PLACE_V, draw, episode_seeds, master_seed, relay_uniforms, seed_key
from .streams import stream_key, stream_keys, uniform, weyl_steps
from .streams import as_generator  # noqa: F401  kept only so that bench/spans.py's traced name resolves


class SlotFeedback(enum.Enum):
    IDLE = "I"
    SINGLE = "S"
    COLLISION = "C"


@dataclass(frozen=True)
class CriRecord:
    """Outcome of one simulated contention episode.

    ``winner_rank`` is the winner's position among the episode's relays
    when ordered by source separation (1 = nearest).
    """

    protocol: str
    n: int
    slots: int
    winner: int | None
    winner_distance: float
    winner_rank: int | None
    feedback_trace: tuple[SlotFeedback, ...]
    transmitters: tuple[tuple[int, ...], ...]
    backoff: bool = False

    def trace_symbols(self) -> str:
        return "".join(f.value for f in self.feedback_trace)

    def to_line(self) -> str:
        # the distance is NaN when nobody won, so a parsed record, whose
        # winner is unknown, writes its line unchanged
        dist = repr(self.winner_distance)
        return f"{self.protocol} {self.n} {self.slots} {dist} {self.trace_symbols()}"

    @classmethod
    def from_line(cls, line: str) -> "CriRecord":
        """Parse the wire form; the winner's identity is not serialized."""
        try:
            protocol, n, slots, dist, symbols = line.split()
            trace = tuple(SlotFeedback(ch) for ch in symbols)
            n, slots, d = int(n), int(slots), float(dist)
        except ValueError:
            raise DomainError(f"malformed record line: {line!r}") from None
        return cls(
            protocol=protocol,
            n=n,
            slots=slots,
            winner=None,
            winner_distance=d,
            winner_rank=None,
            feedback_trace=trace,
            transmitters=tuple(() for _ in trace),
            backoff=math.isnan(d),
        )


# ---------------------------------------------------------------------------
# the scalar replay

# feedback of a slot by the number of its transmitters: 0, 1, 2 or more
_FEEDBACK = (SlotFeedback.IDLE, SlotFeedback.SINGLE, SlotFeedback.COLLISION)
_SYMBOLS = np.frombuffer(b"ISC", dtype=np.uint8)


# An episode that spends this many slots per contender (plus one) is
# abandoned.  A fair election of n contenders takes ~2.89 n slots on average
# and its length has a geometric tail; the cap is at least 20,000 slots, past
# build_pgf's longest series (16,384 slots), so it stops only coins too close
# to degenerate for the analytic side to resolve either.
_SLOT_CAP_PER_CONTENDER = 10_000


def _unresolved(cap: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"episode unresolved after {cap} slots; is a group probability near 0 or 1?"
    )


def _cuts(q: int, p) -> list[float]:
    """Lower edges of the q groups (or bands) as fractions of [0, 1)."""
    return [j / q for j in range(q)] if p is None else list(accumulate(p[:-1], initial=0.0))


def _walk_tree(relays: tuple[int, ...], key: int, q: int, cuts) -> list[tuple[int, ...]]:
    """Each slot's transmitters in the splitting tree, depth first.

    All relays reply in the gating slot; every collision splits the
    colliding group by each member's coin at the group's depth, and the
    sub-groups reply in order, each one's subtree before the next.
    """
    cap = _SLOT_CAP_PER_CONTENDER * (len(relays) + 1)
    sent = [relays]
    inner = cuts[1:]
    stack = [(relays, 0)] if len(relays) > 1 else []
    while stack:
        group, depth = stack.pop()
        if depth:  # the root's slot is the gating one
            if len(sent) >= cap:
                raise _unresolved(cap)
            sent.append(group)
            if len(group) < 2:
                continue
        coins = stream_key(key, COIN + depth)
        buckets = [[] for _ in range(q)]
        for rid in group:
            buckets[bisect_right(inner, uniform(coins, rid))].append(rid)
        for bucket in reversed(buckets):
            stack.append((tuple(bucket), depth + 1))
    return sent


def _walk_auction(relays: tuple[int, ...], u, q: int, cuts, skip: bool):
    """(each slot's transmitters, winner or None) of the priority-band
    auction on anchor masses ``u``."""
    sent = [relays]  # the gating slot that fixes the contender set
    if len(relays) < 2:
        return sent, (relays[0] if relays else None)
    cap = _SLOT_CAP_PER_CONTENDER * (len(relays) + 1)
    active = relays
    lo, hi, j = 0.0, 1.0, 0
    while True:
        if len(sent) >= cap:
            raise _unresolved(cap)
        width = hi - lo
        top = hi if j == q - 1 else lo + cuts[j + 1] * width
        # no active u lies at or below band j's lower edge, so u <= top is band j
        members = tuple(rid for rid in active if u[rid] <= top)
        sent.append(members)
        if len(members) == 1:
            return sent, members[0]
        if members:
            # tree pruning: every lower-priority band drops out for good
            active, lo, hi, j = members, lo + cuts[j] * width, top, 0
        elif skip:
            lo = top
        else:
            j += 1


def _episode(config: EpisodeConfig, key, u, separations) -> CriRecord:
    """One episode walked slot by slot: the splitting tree on the coins under
    ``key`` or the auction on the anchor masses ``u``, over relays whose
    source ``separations`` are given."""
    q, protocol = config.q, config.protocol
    relays = tuple(range(config.n))
    cuts = _cuts(q, config.p)
    if protocol == "sta":
        sent = _walk_tree(relays, key, q, cuts)
        # the farthest relay wins, the lowest id on ties
        winner = max(relays, key=lambda rid: (separations[rid], -rid)) if relays else None
    else:
        sent, winner = _walk_auction(relays, u, q, cuts, protocol == "auction_skip")
    if winner is None:
        dist, rank = float("nan"), None
    else:
        dist = separations[winner]
        rank = 1 + sum(s < dist or (s == dist and rid < winner) for rid, s in enumerate(separations))
    return CriRecord(
        protocol=protocol,
        n=config.n,
        slots=len(sent) + config.include_request_slot,
        winner=winner,
        winner_distance=dist,
        winner_rank=rank,
        feedback_trace=tuple(_FEEDBACK[min(len(who), 2)] for who in sent),
        transmitters=tuple(sent),
        backoff=winner is None,
    )


def run_sta(
    topology: Topology,
    model: SplitModel,
    seed=None,
    include_request_slot: bool = False,
) -> CriRecord:
    """Simulate one splitting-tree election over the topology's relays.

    All relays reply in the first slot; every collision splits the colliding
    group by an i.i.d. coin with the model's group probabilities, and the
    sub-groups reply depth-first.  The election ends when every relay has
    transmitted alone, after which the source picks the farthest relay
    (lowest id on ties).  The coins are those of episode 0 under ``seed``.
    The arguments are checked as :class:`EpisodeConfig` checks a batch's.
    """
    n = len(topology.relays)
    if n != model.n:
        raise DomainError(f"topology has {n} relays, model says {model.n}")
    config = EpisodeConfig(
        "sta", n, topology.region, model.q, model.p, include_request_slot=include_request_slot
    )
    key = int(episode_seeds(seed, 1)[0])
    return _episode(config, key, None, topology.separations().tolist())


def run_auction(
    topology: Topology,
    q: int = 2,
    skip: bool = False,
    include_request_slot: bool = False,
    p: tuple[float, ...] | None = None,
) -> CriRecord:
    """Simulate one priority-band auction election.

    Every relay replies in the gating slot: an idle slot backs off
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
    first.  The auction draws no random numbers.  The arguments are checked
    as :class:`EpisodeConfig` checks a batch's.
    """
    region = topology.region
    config = EpisodeConfig(
        "auction_skip" if skip else "auction", len(topology.relays), region, q, p,
        include_request_slot=include_request_slot,
    )
    s = np.array([math.hypot(pos.x - region.radius, pos.y) for pos in topology.relays])
    return _episode(config, None, region.anchor_radial_mass(s).tolist(), topology.separations().tolist())


# ---------------------------------------------------------------------------
# batches


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything one episode needs besides its seed.

    ``n`` is the deployed relay count, at most ``MAX_POINTS``, and every
    relay contends: ``n`` is the episode's conflict multiplicity.
    """

    protocol: str
    n: int
    region: Region
    q: int = 2
    p: tuple[float, ...] | None = None
    include_request_slot: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.n > MAX_POINTS:
            raise ResourceLimitError(f"{self.n} relays exceed the limit of {MAX_POINTS} per episode")
        if not isinstance(self.region, Region):
            raise DomainError(f"region must be a LensRegion or a SectorRegion, got {self.region!r}")
        if self.protocol not in PROTOCOLS:
            raise DomainError(f"unknown protocol {self.protocol!r}")
        if self.protocol != "sta" and not isinstance(self.region, LensRegion):
            raise DomainError("the auction needs a lens decision region to form bands")
        # check q and p once per batch rather than once per episode, and turn
        # away the coins under which no election can ever end
        model = SplitModel(n=self.n, q=self.q, p=self.p)
        if max(model.p) == 1.0:
            raise DomainError("a coin with some p_j = 1 never splits a collision")
        if self.protocol == "auction_skip" and model.p[0] == 0.0:
            raise DomainError("auction_skip re-probes an empty top band forever when p_0 = 0")
        if self.protocol == "auction_skip" and self.q > 2:
            # after an idle it recuts the rest of the field, so it reads only p_0
            raise DomainError("auction_skip is binary (q = 2): its idle recut reads only p_0")
        if self.protocol == "sta" and self.n * self.q > 2 * MAX_POINTS:
            # one episode's tree frontier counts the q sub-groups of up to n / 2 groups
            raise ResourceLimitError(
                f"{self.n} relays in {self.q} groups exceed the tree frontier's limit of {MAX_POINTS}"
            )


@dataclass
class BatchSummary:
    """What a batch's slot counts give: their relative frequencies, mean
    and variance."""

    pmf: dict[int, float]
    mean_slots: float
    var_slots: float


# Episodes run in blocks of about this many relays, so a block's arrays stay
# a few megabytes whatever the batch size.
_BLOCK_RELAYS = 1 << 16


def _block_size(n: int, q: int) -> int:
    """Episodes per block.  A splitting tree's frontier counts the q
    sub-groups of up to n / 2 crowded groups per episode, so a block holds
    episodes * n * q / 2 <= _BLOCK_RELAYS: at q = 2, n relays per episode."""
    return max(1, 2 * _BLOCK_RELAYS // max(n * q, 2))


def _block_keys(seed, replications: int, config: EpisodeConfig):
    """The keys of episodes 0 .. replications - 1, a block at a time."""
    size = _block_size(config.n, config.q)
    for start in range(0, replications, size):
        yield episode_seeds(seed, min(size, replications - start), start)


class _Deployment:
    """A block of episodes' relays as (episodes, n) arrays: ``u``, the
    placement's first uniform and the lens relay's anchor mass, and the
    source ``separations``, which the region measures from ``u`` (and, on a
    lens, the second uniform) without placing any relay.

    The auction's election and winner read ``u``; the tree's winner, and
    every winner's rank and distance, read the separations, which no
    election reads.  Each array is drawn when first read, each block at
    most once, so an election measures no relay.
    """

    def __init__(self, config: EpisodeConfig, keys: np.ndarray):
        self.region = config.region
        self.protocol = config.protocol
        self.n = config.n
        self.keys = keys

    @cached_property
    def u(self) -> np.ndarray:
        return relay_uniforms(stream_keys(self.keys, PLACE_U), self.n).T

    @cached_property
    def separations(self) -> np.ndarray:
        # a sector's separation is its radius alone: its second uniform is never drawn
        lens = isinstance(self.region, LensRegion)
        v = relay_uniforms(stream_keys(self.keys, PLACE_V), self.n).T if lens else None
        return self.region.separations(self.u, v)

    @cached_property
    def winner(self) -> np.ndarray:
        """Each episode's winner, -1 for none: the tree's is the farthest
        relay, the auction's the one of least anchor mass, which its descent
        always elects; the lowest id on ties, as argmax and argmin pick."""
        if not self.n:  # nobody replies in the gating slot: the source backs off
            return np.full(self.keys.size, -1)
        return self.separations.argmax(axis=1) if self.protocol == "sta" else self.u.argmin(axis=1)

    def distance(self) -> np.ndarray:
        """The winners' source separations, NaN where nobody won."""
        seps = self.separations
        return seps[np.arange(seps.shape[0]), self.winner] if self.n else np.full(seps.shape[0], np.nan)


def _tree_slots(keys, n: int, q: int, cuts):
    """(slots, sizes) of the splitting tree over n >= 2 relays: 1 + q slots
    per collision, the collisions counted over a frontier of crowded groups
    split one depth at a time.  ``sizes[d]`` holds the sizes of the q
    sub-groups of each crowded group at depth d, in frontier order; the
    crowded ones, in that order, are the groups at depth d + 1."""
    inner = np.array(cuts[1:])
    cap = _SLOT_CAP_PER_CONTENDER * (n + 1)
    collisions = np.ones(keys.size, dtype=np.int64)
    group = np.repeat(np.arange(keys.size), n)  # one root group per episode
    step = np.tile(weyl_steps(n), keys.size)
    group_ep = np.arange(keys.size)
    sizes = []
    depth = 0
    while group.size:
        # a group's relays share its episode's coin stream at this depth: one key per group
        coins = draw(stream_keys(keys[group_ep], COIN + depth)[group], step)
        coin = np.searchsorted(inner, coins, side="right")
        child = group * q + coin
        sizes.append(np.bincount(child, minlength=group_ep.size * q))
        crowd = sizes[-1] >= 2
        kids = np.flatnonzero(crowd)
        group_ep = group_ep[kids // q]
        collisions += np.bincount(group_ep, minlength=collisions.size)
        if 1 + q * int(collisions.max()) > cap:
            raise _unresolved(cap)
        keep = crowd[child]
        group = (np.cumsum(crowd) - 1)[child[keep]]
        step = step[keep]
        depth += 1
    return 1 + q * collisions, sizes


def _tree_marks(sizes, q: int, roots: np.ndarray):
    """(positions, sizes) of the sub-groups' slots depth by depth, the
    roots' slots being at ``roots`` and each subtree replying before the next."""
    # bottom up: a sub-group spans its own slot, plus its sub-groups' spans if crowded
    spans = [np.zeros(0, dtype=np.int64)]
    for size in reversed(sizes):
        span = np.ones(size.size, dtype=np.int64)
        span[size >= 2] += spans[-1].reshape(-1, q).sum(axis=1)
        spans.append(span)
    # top down: a sub-group follows its parent's slot and its elder siblings' spans
    at = roots
    for size, span in zip(sizes, reversed(spans)):
        span = span.reshape(-1, q)
        at = (at[:, None] + 1 + np.cumsum(span, axis=1) - span).ravel()
        yield at, size
        at = at[size >= 2]


def _auction_descent(u: np.ndarray, q: int, cuts, skip: bool):
    """(slots, steps) of the auction over n >= 2 relays' anchor masses
    ``u``, every unresolved episode descending its interval one slot per
    step; a step is noted as (its rows, their slots' position, their reply
    counts, 2 for a collision).  The unresolved episodes are all at the
    same slot.  A band's repliers are the contenders at or below its top,
    and every collision keeps the two least masses in contention, so a slot
    is idle, single or a collision as none, one or both of them lie at or
    below the top: only they are read, and the least of them wins."""
    episodes, n = u.shape
    cap = _SLOT_CAP_PER_CONTENDER * (n + 1)
    slots = np.ones(episodes, dtype=np.int64)
    rows = np.arange(episodes)
    least = np.partition(u, 1, axis=1)[:, :2].T.copy()  # each episode's two least masses, a column
    lo, hi = np.zeros(episodes), np.ones(episodes)
    j = np.zeros(episodes, dtype=np.int64)
    edge = np.array(list(cuts) + [1.0])  # the last entry stands in for hi
    steps = []
    slot = 1
    while rows.size:
        if slot >= cap:
            raise _unresolved(cap)
        width = hi - lo
        top = np.where(j == q - 1, hi, lo + edge[j + 1] * width)
        count = (least <= top).sum(axis=0)
        steps.append((rows, slot, count))
        slot += 1
        won = count == 1
        slots[rows[won]] = slot
        crowd = count == 2
        idle = count == 0
        lo = np.where(crowd, lo + edge[j] * width, lo)
        if skip:
            lo = np.where(idle, top, lo)
        else:
            j = j + idle
        hi = np.where(crowd, top, hi)
        j = np.where(crowd, 0, j)
        go = ~won
        rows, lo, hi, j, least = rows[go], lo[go], hi[go], j[go], np.compress(go, least, axis=1)
    return slots, steps


def _elect(config: EpisodeConfig, keys: np.ndarray):
    """(deployment, slots, marks) of a block of elections, the request slot
    counted if the config counts it; ``marks(at)`` yields the (positions,
    sizes) of every slot after the gating one, the episodes' gating slots
    being at positions ``at``.  The winners are the deployment's."""
    dep = _Deployment(config, keys)
    q, cuts, request = config.q, _cuts(config.q, config.p), config.include_request_slot
    if config.n < 2:
        return dep, np.full(keys.size, 1 + request), lambda at: ()
    if config.protocol == "sta":
        slots, sizes = _tree_slots(keys, config.n, q, cuts)
        return dep, slots + request, lambda at: _tree_marks(sizes, q, at)
    slots, steps = _auction_descent(dep.u, q, cuts, config.protocol == "auction_skip")
    return dep, slots + request, lambda at: ((at[rows] + pos, count) for rows, pos, count in steps)


def _lines(config: EpisodeConfig, keys: np.ndarray) -> list[str]:
    """Each episode's record line from one election of the block: the
    slots and the marks, whose symbols are scattered into one byte buffer
    of traces, and the winners' distances on the same deployment."""
    dep, slots, marks = _elect(config, keys)
    distance = dep.distance()
    length = slots - config.include_request_slot
    at = np.cumsum(length) - length
    trace = np.empty(int(length.sum()), dtype=np.uint8)
    trace[at] = _SYMBOLS[min(config.n, 2)]
    for pos, size in marks(at):
        trace[pos] = _SYMBOLS[np.minimum(size, 2)]
    text = trace.tobytes().decode("ascii")
    head = f"{config.protocol} {config.n}"
    return [
        f"{head} {k} {d!r} {text[a:a + m]}"
        for k, d, a, m in zip(slots.tolist(), distance.tolist(), at.tolist(), length.tolist())
    ]


def _replay(config: EpisodeConfig, keys: np.ndarray):
    """The block's episodes walked slot by slot, yielded as records."""
    dep = _Deployment(config, keys)
    for key, u, seps in zip(keys.tolist(), dep.u.tolist(), dep.separations.tolist()):
        yield _episode(config, key, u, seps)


def run_single_episode(config: EpisodeConfig, seed, episode: int = 0) -> CriRecord:
    """Episode ``episode`` under the master seed, replayed on its own: the
    same record as that episode of any batch run with the seed."""
    return next(_replay(config, episode_seeds(seed, 1, episode)))


class RecordBatch(Sequence):
    """Episodes 0 .. replications - 1 under the master seed, as columns over
    the episodes.

    Every draw is addressed by (seed, episode, stream, index), so each
    column is a pure function of the batch and is measured block by block
    when first read:

    * ``slots`` from the elections;
    * ``winner`` (-1 for none), ``winner_rank`` (0 for none) and
      ``winner_distance`` (NaN for none) from the deployment alone: the
      tree's winner from the relays' separations, the auction's from their
      anchor masses;
    * ``backoff``, where there is no winner.

    Only ``slots`` and :meth:`lines`, which writes the record lines from one
    election per block without a replay, run an election; where it never
    ends they raise its ``ResourceLimitError``.  Reading an item replays that
    episode into a :class:`CriRecord`, the one source of its transmitters;
    iterating replays the batch block by block.
    """

    def __init__(self, config: EpisodeConfig, replications: int, seed):
        if replications < 1:
            raise DomainError("need at least one replication")
        if replications > MAX_POINTS:
            raise ResourceLimitError(f"{replications} replications exceed the limit of {MAX_POINTS} per batch")
        self.config = config
        self.seed = master_seed(seed)
        seed_key(self.seed)  # a bad seed is refused before any work
        self._replications = replications

    def __len__(self) -> int:
        return self._replications

    def _blocks(self):
        return _block_keys(self.seed, len(self), self.config)

    @cached_property
    def slots(self) -> np.ndarray:
        return np.concatenate([_elect(self.config, keys)[1] for keys in self._blocks()])

    @cached_property
    def _outcomes(self) -> tuple[np.ndarray, ...]:
        """(winner, winner_rank, winner_distance) off each block's
        deployment; a rank counts the relays nearer the source, ties by id."""
        blocks = []
        for keys in self._blocks():
            dep = _Deployment(self.config, keys)
            seps, winner, dist = dep.separations, dep.winner, dep.distance()
            dist_col = dist[:, None]
            ahead = (seps < dist_col) | ((seps == dist_col) & (np.arange(self.config.n) < winner[:, None]))
            blocks.append((winner, np.where(winner < 0, 0, 1 + ahead.sum(axis=1)), dist))
        return tuple(np.concatenate(col) for col in zip(*blocks))

    @property
    def winner(self) -> np.ndarray:
        return self._outcomes[0]

    @property
    def winner_rank(self) -> np.ndarray:
        return self._outcomes[1]

    @property
    def winner_distance(self) -> np.ndarray:
        return self._outcomes[2]

    @property
    def backoff(self) -> np.ndarray:
        return self.winner < 0

    def __getitem__(self, i: int) -> CriRecord:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("episode index out of range")
        return run_single_episode(self.config, self.seed, i)

    def __iter__(self):
        for keys in self._blocks():
            yield from _replay(self.config, keys)

    def lines(self):
        """Each episode's ``to_line()``, every block elected once for its
        slots, trace and winners' distances: no episode is replayed and no
        column is read or kept."""
        for keys in self._blocks():
            yield from _lines(self.config, keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return (
            self.config == other.config
            and self.seed == other.seed
            and all(
                np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
                for a, b in zip(self._arrays(), other._arrays())
            )
        )

    def _arrays(self):
        return (self.slots, self.winner, self.winner_rank, self.winner_distance)


def run_episode_batch(
    config: EpisodeConfig, replications: int, seed
) -> tuple[RecordBatch, BatchSummary]:
    """Episodes 0 .. replications - 1 under the master seed, and the summary
    of their slot counts, the one column it measures."""
    records = RecordBatch(config, replications, seed)
    slots = records.slots.astype(float)
    return records, BatchSummary(
        pmf=empirical_pmf(records), mean_slots=float(slots.mean()), var_slots=float(slots.var())
    )


def empirical_pmf(records) -> dict[int, float]:
    """Slot-count relative frequencies of a record collection; a
    :class:`RecordBatch`'s are read off its ``slots`` column."""
    slots = records.slots if isinstance(records, RecordBatch) else [r.slots for r in records]
    values, counts = np.unique(np.asarray(slots, dtype=np.int64), return_counts=True)
    return {k: c / len(records) for k, c in zip(values.tolist(), counts.tolist())}


def total_variation(analytic: dict[int, float], empirical: dict[int, float]) -> float:
    """Half the L1 distance between two PMFs over the union of their supports."""
    keys = set(analytic) | set(empirical)
    return 0.5 * sum(abs(analytic.get(k, 0.0) - empirical.get(k, 0.0)) for k in keys)
