"""Independent oracles for the exact laws the package computes.

Nothing here calls the package's series builders or radial-mass code, so a
check against these helpers is a second derivation, not a rerun of the
program: the slot-count masses come from exact ``Fraction`` propagation over
each protocol's states, the lens radial and anchor masses from polar
quadrature, and two-circle areas from the textbook closed form in 60-digit
arithmetic.
"""

import math
from collections import defaultdict
from fractions import Fraction

import mpmath
from scipy.integrate import quad


HALF = Fraction(1, 2)


def _split(m: int, p0: Fraction = HALF):
    """(i, P[i of m contenders join the first group]) as exact rationals."""
    return [(i, math.comb(m, i) * p0**i * (1 - p0) ** (m - i)) for i in range(m + 1)]


def _tree_split(m: int, probs: tuple) -> list:
    """(sorted sub-group sizes, probability) for m contenders each joining group j w.p. probs[j]."""
    law = defaultdict(Fraction)

    def place(j: int, left: int, sizes: tuple, mass: Fraction) -> None:
        if j == len(probs) - 1:
            law[tuple(sorted(sizes + (left,)))] += mass * probs[j] ** left
            return
        for c in range(left + 1):
            place(j + 1, left - c, sizes + (c,), mass * math.comb(left, c) * probs[j] ** c)

    place(0, m, (), Fraction(1))
    return [(sizes, prob) for sizes, prob in law.items() if prob]


def tree_slot_pmf(n: int, k_max: int, probs: tuple = (HALF, HALF)) -> list:
    """P(the splitting tree over ``n`` contenders takes exactly k slots), k <= k_max.

    Every contender of a collision joins sub-group j with probability
    ``probs[j]``, a rational.  The state is the multiset of groups still to
    reply.  Each slot one group replies; an empty or singleton group is then
    done, a larger one collides and is replaced by its ``len(probs)``
    sub-groups.  The election ends when no group is left.  Group order does
    not change the slot count, so states are kept as sorted tuples.
    """
    laws = {}
    states = {(n,): Fraction(1)}
    pmf = [Fraction(0)]
    for _ in range(k_max):
        nxt = defaultdict(Fraction)
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
                laws[group] = _tree_split(group, probs)
            for sizes, prob in laws[group]:
                nxt[tuple(sorted(rest + sizes))] += weight * prob
        states = nxt
        pmf.append(done)
    return pmf


def sta_slot_mass(n: int, k: int) -> Fraction:
    """P(the fair binary splitting tree over ``n`` contenders takes exactly ``k`` slots)."""
    return tree_slot_pmf(n, k)[k]


def auction_slot_pmf(n: int, k_max: int, p0: Fraction = HALF, skip: bool = False) -> list:
    """P(the binary priority-band auction over ``n`` contenders takes exactly k slots), k <= k_max.

    A gather slot has every active contender reply: zero or one reply ends
    the election, a collision moves on to probing.  A probe slot has the
    higher-priority band reply, which holds a share ``p0`` of the active
    contenders' mass and so each of them with probability ``p0``: a solo
    reply wins, a collision keeps only that band's contenders, and an idle
    slot sends the whole active set back to a gather slot, or, with
    ``skip``, straight to the next probe.
    """
    states = {("gather", n): Fraction(1)}
    pmf = [Fraction(0)]
    idle_phase = "probe" if skip else "gather"
    for _ in range(k_max):
        nxt = defaultdict(Fraction)
        done = Fraction(0)
        for (phase, m), weight in states.items():
            if phase == "gather":
                if m <= 1:
                    done += weight
                else:
                    nxt[("probe", m)] += weight
                continue
            for heads, prob in _split(m, p0):
                if heads == 1:
                    done += weight * prob
                elif heads == 0:
                    nxt[(idle_phase, m)] += weight * prob
                else:
                    nxt[("probe", heads)] += weight * prob
        states = nxt
        pmf.append(done)
    return pmf


def auction_slot_mass(n: int, k: int, p0: Fraction = HALF, skip: bool = False) -> Fraction:
    """P(the binary priority-band auction over ``n`` contenders takes exactly ``k`` slots)."""
    return auction_slot_pmf(n, k, p0, skip)[k]


def sta_mean(n: int, p0: Fraction = HALF) -> Fraction:
    """Exact E[slots] of the binary splitting tree over ``n`` contenders.

    A group of m >= 2 costs its collision slot plus both halves' costs, the
    first half holding Binomial(m, p0) contenders:
    L_m = 1 + sum_c P(Bin(m, p0) = c) (L_c + L_{m-c}), with L_0 = L_1 = 1.
    The c = 0 and c = m terms hold L_m itself and move to the left-hand side.
    """
    costs = [Fraction(1), Fraction(1)]
    for m in range(2, n + 1):
        split = _split(m, p0)
        stay = split[0][1] + split[m][1]
        rhs = 1 + stay + sum(prob * (costs[c] + costs[m - c]) for c, prob in split[1:m])
        costs.append(rhs / (1 - stay))
    return costs[n]


def auction_mean(n: int, p0: Fraction = HALF, skip: bool = False) -> Fraction:
    """Exact E[slots] of the binary priority-band auction over ``n`` contenders.

    From a probe over m active contenders with i ~ Binomial(m, p0) in the
    priority band: i = 1 ends it, i >= 2 probes those i again, and i = 0
    costs a gather slot and a probe of all m (only the probe with ``skip``).
    An election over n >= 2 is its gather collision plus one probe phase.
    """
    if n <= 1:
        return Fraction(1)
    probe = {}
    for m in range(2, n + 1):
        row = [prob for _, prob in _split(m, p0)]
        rhs = 1 + (0 if skip else row[0]) + sum(row[i] * probe[i] for i in range(2, m))
        probe[m] = rhs / (1 - row[0] - row[m])
    return 1 + probe[n]


def lens_mass_by_quadrature(lens, d: float) -> float:
    """Independent radial-mass oracle: polar integration about the source.

    At source distance r the arc inside the anchor disk of radius s spans
    the angles with cos(phi) >= (r^2 + R^2 - s^2) / (2 r R).
    """
    big_r = lens.radius

    def arc(r: float, s: float) -> float:
        if r == 0.0:
            return 2.0 * math.pi if s >= big_r else 0.0
        c = (r * r + big_r * big_r - s * s) / (2.0 * r * big_r)
        if c >= 1.0:
            return 0.0
        if c <= -1.0:
            return 2.0 * math.pi
        return 2.0 * math.acos(c)

    def ring(r: float) -> float:
        return r * (arc(r, lens.rho) - arc(r, lens.inner_rho))

    num, _ = quad(ring, 0.0, d, limit=300)
    den, _ = quad(ring, 0.0, big_r, limit=300)
    return num / den


def anchor_mass_by_quadrature(lens, s: float) -> float:
    """Independent anchor-mass oracle: polar integration about the anchor.

    The circle of radius x about the anchor lies inside the range disk on
    the arc |phi| <= acos(x / 2R) about the anchor-to-source direction, since
    the source sits R away from the anchor.
    """
    two_r = 2.0 * lens.radius

    def ring(x: float) -> float:
        return 2.0 * x * math.acos(min(x / two_r, 1.0))

    num, _ = quad(ring, lens.inner_rho, s, epsabs=0.0, epsrel=2e-14, limit=300)
    den, _ = quad(ring, lens.inner_rho, lens.rho, epsabs=0.0, epsrel=2e-14, limit=300)
    return num / den


def circle_intersection_area_exact(r1: float, r2: float, d: float) -> float:
    """Two-disc intersection area at 60 significant digits: the textbook sum
    of segments r^2 acos(x / r) - x sqrt(r^2 - x^2), whose cancellation in
    double precision the digits absorb."""
    with mpmath.workdps(60):
        a, b, d = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(d)
        if a <= 0 or b <= 0 or d >= a + b:
            return 0.0
        if d <= abs(a - b):
            return float(mpmath.pi * min(a, b) ** 2)
        x1 = (d * d + a * a - b * b) / (2 * d)
        x2 = d - x1
        segments = (
            r * r * mpmath.acos(x / r) - x * mpmath.sqrt(r * r - x * x) for r, x in ((a, x1), (b, x2))
        )
        return float(sum(segments))


def _anchor_overlap_exact(radius, s):
    """Area of the range disk within anchor distance s, the centres radius
    apart, as an mpf: R^2 (2 asin t + 4 t^2 acos t - 2 t sqrt(1 - t^2)) with
    t = s / 2R, which the working digits keep from cancelling."""
    big_r = mpmath.mpf(radius)
    t = min(mpmath.mpf(s) / (2 * big_r), mpmath.mpf(1))
    return big_r**2 * (2 * mpmath.asin(t) + 4 * t * t * mpmath.acos(t) - 2 * t * mpmath.sqrt(1 - t * t))


def anchor_mass_exact(lens, s: float):
    """The lens slice's anchor mass within anchor distance ``s``, an mpf of
    40 significant digits."""
    with mpmath.workdps(40):
        lo = _anchor_overlap_exact(lens.radius, lens.inner_rho)
        return (_anchor_overlap_exact(lens.radius, s) - lo) / (_anchor_overlap_exact(lens.radius, lens.rho) - lo)


def lens_separation_exact(radius: float, s: float, v: float):
    """Source distance of the point at anchor distance ``s`` and arc fraction
    ``v``, an mpf of 40 digits: the law of cosines in the triangle source,
    anchor, point, whose sides at the anchor are R and s and whose angle
    there is psi = (2v - 1) acos(s / 2R)."""
    with mpmath.workdps(40):
        big_r, s = mpmath.mpf(radius), mpmath.mpf(s)
        psi = (2 * mpmath.mpf(v) - 1) * mpmath.acos(min(s / (2 * big_r), mpmath.mpf(1)))
        return mpmath.sqrt(big_r**2 + s**2 - 2 * big_r * s * mpmath.cos(psi))
