"""Independent oracles and statistical gates for the benchmark's checks.

Nothing here imports relaysel.  The slot-count laws come from exact
``Fraction`` propagation over each protocol's states and the mean slot counts
from expectation recursions written from the same state machines; the
distance laws come from radial masses (d^2/R^2 for a sector, polar
quadrature for a lens slice) fed to scipy's binomial distribution.  The gates
turn a sample size and a stated false-alarm probability into a threshold, so
a correct program fails a statistical row with probability below that
probability.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import binom, norm

TAIL = Fraction(1, 10**15)
CUT_LEVEL = 0.999  # relaysel compares PMFs up to this cumulative mass


# ---------------------------------------------------------------------------
# slot-count laws


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _split_law(m: int, probs: tuple[Fraction, ...]):
    """(group sizes, probability) for every way ``m`` contenders pick groups."""
    out = []
    for comp in _compositions(m, len(probs)):
        weight = Fraction(math.factorial(m))
        for c, p in zip(comp, probs):
            weight = weight / math.factorial(c) * p**c
        if weight:
            out.append((comp, weight))
    return out


def sta_pmf(n: int, probs: tuple[Fraction, ...]) -> list[Fraction]:
    """Exact P(K = k) for the splitting tree, until the unfinished mass is below 1e-15.

    The state is the multiset of groups still to reply.  Each slot one group
    replies: an empty or singleton group is then done, a larger one collides
    and is replaced by its ``q`` sub-groups.  Order does not change the slot
    count, so states are sorted tuples.
    """
    laws = {}
    states = {(n,): Fraction(1)}
    pmf = [Fraction(0)]
    while states:
        nxt: dict = defaultdict(Fraction)
        done = Fraction(0)
        for pending, weight in states.items():
            group, rest = pending[0], pending[1:]
            if group <= 1:
                if rest:
                    nxt[rest] += weight
                else:
                    done += weight
                continue
            if group not in laws:
                laws[group] = _split_law(group, probs)
            for comp, prob in laws[group]:
                nxt[tuple(sorted(rest + comp))] += weight * prob
        pmf.append(done)
        states = dict(nxt)
        if sum(states.values()) < TAIL:
            break
    return pmf


def auction_pmf(n: int, p0: Fraction, skip: bool) -> list[Fraction]:
    """Exact P(K = k) for the priority-band auction, until the unfinished mass is below 1e-15.

    A gather slot has every active contender reply: zero or one reply ends
    the election, a collision moves on to a probe.  In a probe slot the
    priority band replies and holds each active contender with probability
    ``p0``: a solo reply wins, a collision keeps only that band, and an idle
    slot sends the active set back to a gather slot, or, with ``skip``, is
    itself the gather slot, so the next slot probes again.
    """
    states = {("gather", n): Fraction(1)}
    pmf = [Fraction(0)]
    while states:
        nxt: dict = defaultdict(Fraction)
        done = Fraction(0)
        for (phase, m), weight in states.items():
            if phase == "gather":
                if m <= 1:
                    done += weight
                else:
                    nxt[("probe", m)] += weight
                continue
            for heads in range(m + 1):
                prob = math.comb(m, heads) * p0**heads * (1 - p0) ** (m - heads)
                if heads == 1:
                    done += weight * prob
                elif heads == 0:
                    nxt[("probe" if skip else "gather", m)] += weight * prob
                else:
                    nxt[("probe", heads)] += weight * prob
        pmf.append(done)
        states = dict(nxt)
        if sum(states.values()) < TAIL:
            break
    return pmf


def slot_pmf(protocol: str, n: int, probs: tuple[Fraction, ...]) -> list[Fraction]:
    if protocol == "sta":
        return sta_pmf(n, probs)
    return auction_pmf(n, probs[0], skip=protocol == "auction_skip")


def sta_mean(n: int, probs: tuple[Fraction, ...]) -> Fraction:
    """Exact E[K] of the splitting tree.

    A group of m >= 2 costs its collision slot plus the sum of its q
    sub-groups' costs, and group j holds Binomial(m, p_j) contenders, so
    L_m = 1 + sum_j sum_c P(Bin(m, p_j) = c) L_c with L_0 = L_1 = 1.  The
    c = m terms hold L_m itself and move to the left-hand side.
    """
    costs = [Fraction(1), Fraction(1)]
    for m in range(2, n + 1):
        rhs = Fraction(1)
        stay = Fraction(0)
        for p in probs:
            for c in range(m):
                rhs += math.comb(m, c) * p**c * (1 - p) ** (m - c) * costs[c]
            stay += p**m
        costs.append(rhs / (1 - stay))
    return costs[n]


def auction_mean(n: int, p0: Fraction, skip: bool) -> Fraction:
    """Exact E[K] of the auction.

    From a probe over m active contenders with i ~ Binomial(m, p0) in the
    priority band: i = 1 ends it, i >= 2 probes those i again, and i = 0
    costs a gather slot and a probe of all m (only a probe with ``skip``).
    An election over n >= 2 is its gather collision plus one probe phase.
    """
    if n <= 1:
        return Fraction(1)
    probe = {}
    for m in range(2, n + 1):
        row = [math.comb(m, i) * p0**i * (1 - p0) ** (m - i) for i in range(m + 1)]
        rhs = 1 + (0 if skip else row[0]) + sum(row[i] * probe[i] for i in range(2, m))
        probe[m] = rhs / (1 - row[0] - row[m])
    return 1 + probe[n]


def slot_mean(protocol: str, n: int, probs: tuple[Fraction, ...]) -> Fraction:
    if protocol == "sta":
        return sta_mean(n, probs)
    return auction_mean(n, probs[0], skip=protocol == "auction_skip")


# ---------------------------------------------------------------------------
# distance laws


def sector_mass(d: float, radius: float = 1.0) -> float:
    """Share of a sector (any aperture) within distance d of its apex."""
    return min(1.0, (d / radius) ** 2)


def _arc(r: float, big_r: float, s: float) -> float:
    """Angle of the circle of radius r about the source inside the disk of
    radius s about the anchor, which sits big_r from the source."""
    if s <= 0.0:
        return 0.0
    if r == 0.0:
        return 2.0 * math.pi if s >= big_r else 0.0
    c = (r * r + big_r * big_r - s * s) / (2.0 * r * big_r)
    if c >= 1.0:
        return 0.0
    if c <= -1.0:
        return 2.0 * math.pi
    return 2.0 * math.acos(c)


class LensSlice:
    """Range disk of radius R intersected with the disk of radius ``outer``
    about the anchor, which sits R from the source.

    Every mass is a polar integral about the source; no circle-intersection
    formula is used.  The slice holds source distances from R - outer to R
    only, so the integrals start there: an adaptive rule started at 0 can
    miss a thin support entirely.
    """

    def __init__(self, radius: float = 1.0, outer: float | None = None):
        self.radius = radius
        self.outer = radius if outer is None else outer
        self.nearest = max(0.0, radius - self.outer)
        self.area = self._integral(radius)

    def _ring(self, r: float) -> float:
        return r * _arc(r, self.radius, self.outer)

    def _integral(self, d: float) -> float:
        if d <= self.nearest:
            return 0.0
        val, _ = quad(self._ring, self.nearest, d, limit=300, epsabs=1e-14, epsrel=1e-13)
        return val

    def mass(self, d: float) -> float:
        """P(a uniform point of the slice lies within d of the source)."""
        return min(1.0, self._integral(d) / self.area)

    def density(self, d: float) -> float:
        return self._ring(d) / self.area


def anchor_mass(radius: float, s: float) -> float:
    """Share of the full lens within anchor distance s, by polar integration about the anchor."""

    def ring(t: float) -> float:
        return t * _arc(t, radius, radius)  # the source disk seen from the anchor

    num, _ = quad(ring, 0.0, s, limit=300, epsabs=1e-14, epsrel=1e-13)
    den, _ = quad(ring, 0.0, radius, limit=300, epsabs=1e-14, epsrel=1e-13)
    return num / den


@lru_cache(maxsize=None)
def priority_slice(radius: float, rounds: int, q: int = 2) -> LensSlice:
    """The slice an election narrows to after ``rounds - 1`` priority splits:
    the anchor-nearest share q^-(rounds-1) of the lens."""
    if rounds == 1:
        return LensSlice(radius)
    target = float(q) ** -(rounds - 1)
    edge = brentq(lambda s: anchor_mass(radius, s) - target, 0.0, radius, xtol=1e-15, rtol=1e-15)
    return LensSlice(radius, outer=edge)


def order_ccdf(mass: float, rank: int, n: int) -> float:
    """P(fewer than ``rank`` of n i.i.d. points fall inside a set of this mass)."""
    return float(binom.cdf(rank - 1, n, mass))


def order_pdf(mass: float, density: float, rank: int, n: int) -> float:
    """Density of the rank-th smallest of n i.i.d. distances with this CDF and density."""
    return float(n * binom.pmf(rank - 1, n - 1, mass) * density)


def expected_order(mass_fn, rank: int, n: int, lo: float, hi: float) -> float:
    """E[rank-th smallest distance] = lo + integral over [lo, hi] of its CCDF,
    for a law whose mass is zero below lo and one at hi."""
    val, _ = quad(lambda d: order_ccdf(mass_fn(d), rank, n), lo, hi, limit=200, epsabs=1e-12)
    return lo + val


def expected_order_sector(rank: int, n: int) -> float:
    """Closed forms on the unit sector: nearest 4^n n!^2/(2n+1)!, furthest 2n/(2n+1)."""
    if rank == 1:
        return 4**n * math.factorial(n) ** 2 / math.factorial(2 * n + 1)
    if rank == n:
        return 2 * n / (2 * n + 1)
    return expected_order(sector_mass, rank, n, 0.0, 1.0)


def expected_order_slice(piece: LensSlice, rank: int, n: int) -> float:
    return expected_order(piece.mass, rank, n, piece.nearest, piece.radius)


# ---------------------------------------------------------------------------
# gates


def dkw_epsilon(samples: int, alpha: float) -> float:
    """KS gate: P(sup |F_N - F| > eps) <= 2 exp(-2 N eps^2) (Massart, 1990)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


def tv_gate(samples: int, pmf: list, alpha: float) -> float:
    """TV gate for relaysel's total variation against the exact PMF ``pmf``.

    relaysel keeps the analytic masses up to the cumulative level 0.999, so
    the cells k <= cut plus one pooled tail cell T form a partition with
    K = cut + 2 cells.  By the Bretagnolle-Huber-Carol inequality the pooled
    L1 distance exceeds t = sqrt(2 (K ln 2 + ln(1/alpha)) / N) with
    probability at most alpha.  The unpooled tail adds at most 2 p(T) to the
    L1 distance, and dropping the analytic tail adds at most
    (1 - 0.999) / 2 to the reported TV.
    """
    cum = 0.0
    cut = len(pmf) - 1
    for k, mass in enumerate(pmf):
        cum += float(mass)
        if cum >= CUT_LEVEL:
            cut = k
            break
    tail = max(0.0, 1.0 - cum)
    cells = cut + 2
    t = math.sqrt(2.0 * (cells * math.log(2.0) + math.log(1.0 / alpha)) / samples)
    return 0.5 * t + tail + 0.5 * (1.0 - CUT_LEVEL) + 1e-9


def z_gate(alpha: float) -> float:
    """Two-sided normal gate for a standardised mean."""
    return float(norm.isf(alpha / 2.0))
