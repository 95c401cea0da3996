"""Probability generating functions of relay-election slot counts.

Every relay-selection protocol supported here resolves an initial collision
among ``n`` contenders by randomized splitting, and the number of slots it
spends admits a PGF recursion over the conflict multiplicity.  The
self-referential term of each recursion is moved to the left-hand side,
leaving a rational form whose power-series coefficients follow from plain
convolution plus a short linear recurrence.  The splitting tree only spends
1 + q * (collisions) slots, so its series is built in w = z^q and divided
with lag 1 there; the auctions divide with lag 1, or lags 1 and 2, in z.
Everything is numeric array arithmetic on truncated series with an explicit
tail mass; no symbolic algebra is used anywhere.
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, ResourceLimitError, TruncationError, check_fields

COEFF_SLACK = 1e-12
# One builder call, the tree's or an auction's, may spend WORK_LIMIT units of
# work, about a second on one core, where a unit is one multiply-add of the
# tree's np.convolve.  Each tree product also costs a fixed call overhead
# worth PRODUCT_OVERHEAD units, which dominates short products.
WORK_LIMIT = 6_000_000_000
PRODUCT_OVERHEAD = 30_000
# An auction level m costs one stacked product of (m - 2) * width
# multiply-adds, the m + 1 terms of its binomial row, the width steps of
# _divide and PRODUCT_OVERHEAD, charged at these units each (measured at up
# to ~5 ns, ~0.5 us and ~0.17 us): the fair auction at 129 coefficients, the
# width build_pgf starts from, is built up to n = 1,298 in about a second.
STACKED_STEP = 30
BINOMIAL_TERM = 3_000
DIVIDE_STEP = 1_000
# build_pgf's longest series: no law resolves, and no inversion recovers a
# mass, beyond this many slots.  One collision among q groups spends 1 + q
# slots, so no series of this length holds a split into more groups.
K_CAP = 16384


@dataclass(frozen=True)
class SplitModel:
    """Contention parameters: multiplicity, group count, group probabilities.

    ``p[j]`` is the probability that a contender joins splitting group ``j``;
    the default is the fair ``q``-sided coin.
    """

    n: int
    q: int = 2
    p: tuple[float, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        if self.n < 0:
            raise DomainError(f"multiplicity must be >= 0, got {self.n}")
        if self.q < 2:
            raise DomainError(f"need at least 2 splitting groups, got {self.q}")
        if self.q > K_CAP:
            raise ResourceLimitError(f"{self.q} splitting groups exceed the limit of {K_CAP}")
        if self.p is None:
            object.__setattr__(self, "p", (1.0 / self.q,) * self.q)
        if len(self.p) != self.q:
            raise DomainError(f"probability vector has {len(self.p)} entries for q={self.q}")
        if any(x < 0.0 or x > 1.0 for x in self.p):
            raise DomainError("group probabilities must lie in [0, 1]")
        if abs(sum(self.p) - 1.0) > 1e-12:
            raise DomainError("group probabilities must sum to 1 within 1e-12")


@dataclass(frozen=True)
class InversionParams:
    """Contour parameters for series inversion.

    When ``r`` is unset it is chosen as ``10**(-gamma / (2 k))``, which keeps
    the aliasing error of the estimate near ``10**-gamma``.  Either way the
    radius at ``k`` must lie in (0, 1) with ``r**k`` > 0, the estimate's
    divisor.
    """

    r: float | None = None
    gamma: float = 8.0

    def __post_init__(self):
        check_fields(self)
        if self.r is not None and not 0.0 < self.r < 1.0:
            raise DomainError(f"evaluation radius must lie in (0, 1), got {self.r}")
        if self.gamma <= 0.0:
            raise DomainError("gamma must be positive")

    def radius_for(self, k: int) -> float:
        r = self.r if self.r is not None else 10.0 ** (-self.gamma / (2.0 * k))
        if not (r < 1.0 and r**k > 0.0):
            raise DomainError(f"evaluation radius {r!r} at k = {k} needs 0 < r**k and r < 1; adjust gamma or r")
        return r


@dataclass(frozen=True)
class TruncatedSeries:
    """PMF of a non-negative integer variable, stored as power-series coefficients.

    ``coeffs[k]`` is the mass at ``k``; ``tail_mass`` is the mass attributed
    beyond the truncation index ``k_max = len(coeffs) - 1``.  ``slot_error``
    bounds the build's rounding: ``coeffs[k]`` lies within a relative
    ``k * slot_error`` of the exact law's mass at ``k``.
    """

    coeffs: np.ndarray
    tail_mass: float
    slot_error: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a non-empty 1-d array")
        if arr.min() < -COEFF_SLACK or arr.max() > 1.0 + COEFF_SLACK:
            raise DomainError("coefficients must lie in [0, 1] up to numerical slack")
        total = float(arr.sum()) + self.tail_mass
        if not (1.0 - 1e-9 <= total <= 1.0 + 1e-9):
            raise DomainError(f"total mass {total} is not 1 within 1e-9")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray, slot_error: float = 0.0) -> "TruncatedSeries":
        arr = np.asarray(coeffs, dtype=float)
        tail = max(0.0, 1.0 - float(arr.sum()))
        return cls(arr, tail, slot_error)

    @property
    def k_max(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> float:
        if k < 0:
            raise DomainError("index must be non-negative")
        return float(self.coeffs[k]) if k <= self.k_max else 0.0

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.coeffs)

    def truncation_index(self, level: float = 0.999) -> int:
        """Smallest index whose cumulative mass reaches ``level`` (or k_max)."""
        cdf = self.cdf()
        idx = np.searchsorted(cdf, level)
        return int(min(idx, self.k_max))

    def __call__(self, z: complex | np.ndarray) -> complex | np.ndarray:
        return evaluate(self, z)


# ---------------------------------------------------------------------------
# building blocks


def _binomial_row(n: int, p0: float) -> np.ndarray:
    """All binomial(n, p0) masses; log-space above n = 50 to stay stable."""
    out = np.zeros(n + 1)
    if p0 == 0.0:
        out[0] = 1.0
        return out
    if p0 == 1.0:
        out[n] = 1.0
        return out
    if n <= 50:
        for i in range(n + 1):
            out[i] = math.comb(n, i) * p0**i * (1.0 - p0) ** (n - i)
        return out
    lg = math.lgamma(n + 1)
    lp, lq = math.log(p0), math.log1p(-p0)
    for i in range(n + 1):
        log_c = lg - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        out[i] = math.exp(log_c + i * lp + (n - i) * lq)
    return out


# the unit roundoff of a float
_EPS = 2.0**-53


def _row_error(n: int, p0: float) -> float:
    """A bound on the relative error of every mass of ``_binomial_row(n, p0)``
    of at least 1e-300.  At n <= 50 a mass is a product of a few rounded
    powers; above, the rounding of its log-space exponent, whose terms reach
    lgamma(n + 1) + n (|log p0| + |log(1 - p0)|), scales it.  The factors
    hold at least four times the largest error of a 40-digit comparison at
    n <= 1,298 and six coins from 1e-5 to 0.999."""
    if p0 in (0.0, 1.0):
        return 0.0
    if n <= 50:
        return 4 * (n + 2) * _EPS
    return 16 * _EPS * (math.lgamma(n + 1) - n * (math.log(p0) + math.log1p(-p0)))


def _base_coeffs(size: int) -> np.ndarray:
    # an empty or singleton group costs exactly the one slot it replies in
    arr = np.zeros(size)
    if size > 1:
        arr[1] = 1.0
    return arr


def _shift(arr: np.ndarray, by: int) -> np.ndarray:
    out = np.zeros_like(arr)
    if by < len(arr):
        out[by:] = arr[: len(arr) - by]
    return out


def _divide(rhs: np.ndarray, lag_weights: dict[int, float]) -> np.ndarray:
    """Solve a_k = rhs_k + sum_j w_j * a_{k-j} coefficient by coefficient.

    Takes one lag, or lags 1 and 2: the tree divides with lag 1 in w = z^q,
    the skip auction with lag 1 and the auction with lags 1 and 2, both in
    z.  The sums run in the order of a
    direct-form-II-transposed filter, so the result matches
    ``scipy.signal.lfilter([1], den, rhs)`` bit for bit.
    """
    if len(lag_weights) == 1:
        ((lag, c),) = lag_weights.items()
        a = [0.0] * lag + rhs.tolist()
        for k in range(lag, len(a)):
            a[k] = c * a[k - lag] + a[k]
        return np.array(a[lag:])
    w1, w2 = lag_weights[1], lag_weights[2]
    a = [0.0, 0.0] + rhs.tolist()
    for k in range(2, len(a)):
        a[k] = (w2 * a[k - 2] + w1 * a[k - 1]) + a[k]
    return np.array(a[2:])


def _work(products: int, product_size: int) -> int:
    """Cost of ``products`` series products of ``product_size`` multiply-adds
    each, call overhead included."""
    return products * (product_size + PRODUCT_OVERHEAD)


def _auction_cost(n: int, width: int) -> tuple[int, str]:
    """Work of the auction's levels 2..n at ``width`` coefficients, and a
    phrase naming it."""
    levels = max(n - 1, 0)
    work = 0
    if levels:
        work = (
            STACKED_STEP * width * ((n - 1) * (n - 2) // 2)
            + BINOMIAL_TERM * ((n + 1) * (n + 2) // 2 - 3)
            + levels * (DIVIDE_STEP * width + PRODUCT_OVERHEAD)
        )
    return work, f"work worth {work} multiply-adds in {levels} levels of {width} coefficients"


def _check_k_max(k_max: int) -> None:
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")


# ---------------------------------------------------------------------------
# the held family
#
# Level f_m of each recursion is built from f_0 .. f_{m-1}, so building f_n
# builds every level below it, and a level's low coefficients do not depend
# on the series length: np.convolve's prefix, the _divide recurrence and the
# binomial rows are the same at every width.  The builders therefore keep the
# levels of the last family they built, one (protocol, p) at one width, and
# serve a later request of that family by slicing and extending them, bit
# for bit what a fresh build at the requested width gives.  One family at a
# time: every caller walks n upwards within a family, and the memory held is
# what that family's build peaks at anyway.

# np.convolve of two series shorter than this sums their product's last
# coefficient in another order than a longer product sums it (numpy's
# small-kernel path), so the two may differ in the last bit: a request this
# narrow is served only by a family of exactly its width.
_SLICE_MIN = 12


class _Family:
    """Levels f_0, f_1, ... of one law family, ``size`` coefficients each,
    drawn one at a time from the generator ``levels``."""

    def __init__(self, key: tuple, size: int, levels: Iterator[np.ndarray]):
        self.key, self.size, self._levels = key, size, levels
        self.levels: list[np.ndarray] = []

    def level(self, n: int) -> np.ndarray:
        while len(self.levels) <= n:
            self.levels.append(next(self._levels))
        return self.levels[n]


_held: _Family | None = None
# one builder at a time reads, extends or replaces the held family
_held_lock = threading.Lock()


def _held_level(
    key: tuple,
    n: int,
    size: int,
    what: str,
    cost: Callable[[int], tuple[int, str]],
    levels: Callable[[int], Iterator[np.ndarray]],
) -> np.ndarray:
    """Level f_n of family ``key`` at ``size`` coefficients.

    Refused as a direct build of n at ``size`` is: when its ``cost(size)``,
    the work and a phrase naming it, exceeds the limit.  Otherwise sliced
    from the held family when that serves it, extended first when n is past
    its last level and its own width allows that build too, and else built
    in its place by a fresh ``levels(size)``.
    """
    global _held
    work, needs = cost(size)
    if work > WORK_LIMIT:
        raise ResourceLimitError(f"{what} needs {needs}, over the limit of {WORK_LIMIT}")
    with _held_lock:
        family = _held
        serves = family is not None and family.key == key and (
            size == family.size or _SLICE_MIN <= size < family.size
        )
        if not serves or (n >= len(family.levels) and cost(family.size)[0] > WORK_LIMIT):
            # the old family is let go here, before the new one builds a level
            family = _held = _Family(key, size, levels(size))
        try:
            return family.level(n)[:size]
        except BaseException:
            # an interrupted build leaves its generator spent: start afresh next time
            _held = None
            raise


# ---------------------------------------------------------------------------
# series constructors


def sta_pgf_binary(model: SplitModel, k_max: int) -> TruncatedSeries:
    """Slot-count PGF of the binary splitting-tree election: :func:`sta_pgf_qary` at q = 2."""
    if model.q != 2:
        raise DomainError("binary construction needs q = 2")
    return sta_pgf_qary(model, k_max)


def sta_pgf_qary(model: SplitModel, k_max: int) -> TruncatedSeries:
    """Slot-count PGF of the q-ary splitting-tree election for ``model.n`` contenders.

    A collision costs its slot and hands the colliding set to q sub-groups,
    and an empty or singleton group costs one slot, so an election spends
    1 + q * (collisions) slots: F_m(z) = z f_m(w) with w = z^q.  The build
    runs on the w coefficients of f_m (see :func:`_tree_levels`).
    """
    _check_k_max(k_max)
    n, q = model.n, model.q
    size = -(-k_max // q)  # the w coefficients that land at z^1, z^(1+q), ... <= z^k_max
    out = np.zeros(k_max + 1)
    # m // 2 + (q - 2) * (m - 1) products at each level m = 2..n, each a
    # full np.convolve of size * size multiply-adds
    products = n * n // 4 + (q - 2) * n * (n - 1) // 2
    out[1::q] = _held_level(
        ("sta", model.p),
        n,
        size,
        f"the splitting tree for n={n}, q={q}",
        lambda width: (
            _work(products, width * width),
            f"{products} series products of {width * width} multiply-adds",
        ),
        lambda width: _tree_levels(model.p, width),
    )
    return TruncatedSeries.from_coeffs(out, _tree_slot_error(model, size))


def _tree_slot_error(model: SplitModel, size: int) -> float:
    """A bound on the tree's rounding per slot, at ``size`` coefficients in w.

    Each collision spends q slots.  Per group it weighs its products by a
    binomial row of a rounded share s, whose masses move by up to
    n (q + 1) eps / (1 - s) beyond the row's own error, and sums products of
    up to ``size`` terms, up to n of them.  Every term is non-negative, so
    each rounding adds its relative error along every path of collisions.
    """
    n, q = model.n, model.q
    if n < 2:
        return 0.0
    shares = [s for s in _tree_shares(model.p) if 0.0 < s < 1.0]
    rows = max((_row_error(n, s) + n * (q + 1) * _EPS / (1.0 - s) for s in shares), default=0.0)
    return rows + (size + n + 8) * _EPS


def _tree_shares(p: tuple[float, ...]) -> list[float]:
    """Share j of the tree's coin: p_j / (p_j + ... + p_{q-1}), j < q - 1."""
    q = len(p)
    shares, left = [0.0] * (q - 1), p[q - 1]
    for j in range(q - 2, -1, -1):
        left += p[j]
        shares[j] = p[j] / left if left > 0.0 else 0.0
    return shares


def _tree_levels(p: tuple[float, ...], size: int) -> Iterator[np.ndarray]:
    """The w coefficients of f_0, f_1, ... for the q-ary tree with coin ``p``.

    Let G_j(t) be the law of t contenders spread over groups j..q-1, so
    G_{q-1}(t) = f_t; then G_j(t) = sum_c b_j(c) f_c G_{j+1}(t - c), with b_j
    the binomial row of the share p_j / (p_j + ... + p_{q-1}), and
    f_m = w G_0(m).  The terms of G_0(m) that put all m contenders in one
    group add up to (sum_j p_j^m) f_m, so the division is a_i = b_i + c a_{i-1}
    in w.
    """
    q = len(p)
    shares = _tree_shares(p)
    one = np.zeros(size)
    one[0] = 1.0
    f = [one, one]
    # g[j][t] = G_j(t) for j = 1..q-2: G_{q-1} is f itself, and G_0 is needed at t = m only
    g = [None] + [[one, one] for _ in range(q - 2)]
    yield one
    yield one
    for m in itertools.count(2):
        # rest[j]: G_j(m) less its f_m terms; stay[j]: the weight of f_m in G_j(m)
        rest, stay = [None] * (q - 1), [0.0] * (q - 1)
        row = _binomial_row(m, shares[q - 2])
        part = np.zeros(size)
        for c in range(1, m // 2 + 1):
            # c and m - c contenders share one product f_c f_{m-c}
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


def _auction_series(model: SplitModel, k_max: int, skip: bool) -> TruncatedSeries:
    if model.q != 2:
        raise DomainError("the auction constructions are binary (q = 2)")
    _check_k_max(k_max)
    n = model.n
    level = _held_level(
        ("auction_skip" if skip else "auction", model.p),
        n,
        k_max + 1,
        f"the auction for n={n}",
        lambda width: _auction_cost(n, width),
        lambda width: _auction_levels(model.p[0], skip, width),
    )
    # each slot of a level's series passes one binomial mass and at most
    # n + 8 roundings of non-negative terms: its product, its sum of up to
    # n - 2 of them and the steps of _divide
    slot_error = _row_error(n, model.p[0]) + (n + 8) * _EPS if n >= 2 else 0.0
    return TruncatedSeries.from_coeffs(level, slot_error)


def _auction_levels(p0: float, skip: bool, size: int) -> Iterator[np.ndarray]:
    """The coefficients of f_0, f_1, ... for either auction with first-group share ``p0``.

    The levels are the rows of one C-contiguous buffer, grown by doubling, so
    that each level's right-hand side is one reduction over the rows below it.
    Over C-order rows ``np.add.reduce(..., axis=0)`` adds them one by one, in
    the order i = 2, 3, ..., m - 1 of a running sum, so each level keeps the
    bits of that sum.
    """
    fam = np.zeros((8, size))
    fam[0] = fam[1] = _base_coeffs(size)
    yield fam[0]
    yield fam[1]
    for m in itertools.count(2):
        row = _binomial_row(m, p0)
        # pruned sibling groups never add a second recursive factor
        rhs = _shift(np.add.reduce(row[2:m, None] * fam[2:m], axis=0), 1)
        if size > 2:
            rhs[2] += row[1]
        if m == len(fam):
            fam = np.concatenate([fam, np.zeros_like(fam)])
        fam[m] = _divide(rhs, {1: row[0] + row[m]} if skip else {1: row[m], 2: row[0]})
        yield fam[m]


def auction_pgf(model: SplitModel, k_max: int) -> TruncatedSeries:
    """Slot-count PGF of the priority-band auction election.

    An empty first group costs the idle slot plus the regather slot before the
    remaining contenders collide again, so the denominator couples lags 1 and
    2: a_k = b_k + B(m,0) a_{k-2} + B(m,m) a_{k-1}.
    """
    return _auction_series(model, k_max, skip=False)


def auction_skip_pgf(model: SplitModel, k_max: int) -> TruncatedSeries:
    """Auction PGF with the idle slot doubling as the next round's gather slot.

    Identical to :func:`auction_pgf` except the empty-first-group branch costs
    one slot instead of two, collapsing the denominator to a single lag.
    """
    return _auction_series(model, k_max, skip=True)


# ---------------------------------------------------------------------------
# evaluation, inversion, moments


def evaluate(series: TruncatedSeries, z: complex | np.ndarray) -> complex | np.ndarray:
    """Horner evaluation of the series at ``z``, one point or an ndarray of points.

    Every point must satisfy ``|z| <= 1``.  A scalar gives a ``complex``; an
    array gives an array of values of the same shape.
    """
    zs = np.asarray(z)
    peak = float(np.abs(zs).max(initial=0.0))
    if peak > 1.0 + 1e-9:
        raise DomainError(f"|z| must be <= 1, got {peak}")
    values = np.polyval(series.coeffs[::-1], zs)
    return complex(values) if values.ndim == 0 else values


class InversionResult(NamedTuple):
    prob: float  # clamped to [0, 1]
    raw: float   # pre-clamp estimate, kept for diagnostics


def invert_fourier(
    pgf_eval: Callable[[np.ndarray], np.ndarray],
    k: int,
    params: InversionParams | None = None,
) -> InversionResult:
    """Recover the mass at ``k`` from PGF evaluations on a circle of radius r < 1.

    Averages (-1)^j Re G(r e^{i pi j / k}) over j = 1..2k and rescales by
    1 / (2 k r^k).  ``pgf_eval`` is called once, with all 2k contour points
    as one complex ndarray, and returns an array of their values.  Undefined
    at k = 0; read the mass at zero directly off the series coefficients
    instead, and refused above ``K_CAP``, where no series reaches.
    """
    if k == 0:
        raise DomainError("inversion is undefined at k = 0; use the direct coefficient")
    if k < 0:
        raise DomainError("k must be positive")
    if k > K_CAP:
        raise ResourceLimitError(f"k = {k} is beyond the longest series, {K_CAP} slots")
    params = params or InversionParams()
    r = params.radius_for(k)
    # cmath.exp, not np.exp: the two differ in the last bit on some points
    zs = np.array([r * cmath.exp(1j * math.pi * j / k) for j in range(1, 2 * k + 1)])
    total = 0.0
    sign = -1.0
    # summed in order, point by point: a vector sum would round differently
    for value in np.asarray(pgf_eval(zs)).real.tolist():
        total += sign * value
        sign = -sign
    raw = total / (2.0 * k * r**k)
    return InversionResult(prob=min(max(raw, 0.0), 1.0), raw=raw)


class MomentEstimate(NamedTuple):
    mean: float
    variance: float
    mean_error: float  # truncation bound from the trailing blocks' decay, plus rounding


# Block length of the tail-decay estimate: a multiple of the support's period
# (the binary tree only takes odd slot counts, the ternary one k = 1 mod 3).
_TAIL_BLOCK = 12


def moments(series: TruncatedSeries) -> MomentEstimate:
    """Mean and variance of the truncated PMF with an upper bound on the mean's error.

    The mass beyond ``k_max`` is taken to decay geometrically from block to
    block at the ratio R of the last two blocks of ``_TAIL_BLOCK``
    coefficients.  Block i beyond ``k_max`` then lies at k <= k_max + i*w,
    so the missing part of the mean is at most tail * (k_max + w / (1 - R)).
    The build's rounding, a relative k * slot_error at each k, adds
    slot_error * E[K^2], and the rounding of the sum len * eps * mean.
    """
    if series.tail_mass >= 1e-6:
        raise TruncationError(
            f"tail mass {series.tail_mass:.3e} >= 1e-6; rebuild the series with a larger k_max"
        )
    c = series.coeffs
    k = np.arange(len(c), dtype=float)
    mean = float(k @ c)
    second = (k * k) @ c
    variance = float(second - mean * mean)
    w = _TAIL_BLOCK
    before, last = float(c[-2 * w : -w].sum()), float(c[-w:].sum())
    ratio = min(last / before, 1.0 - 1e-9) if before > 0.0 else 0.0
    geom_tail = last * ratio / (1.0 - ratio)
    tail = max(series.tail_mass, geom_tail)
    rounding = len(c) * np.finfo(float).eps * mean
    mean_error = tail * (series.k_max + w / (1.0 - ratio)) + rounding + series.slot_error * float(second)
    return MomentEstimate(mean=mean, variance=variance, mean_error=mean_error)


# ---------------------------------------------------------------------------
# adaptive truncation

PROTOCOLS = ("sta", "auction", "auction_skip")


def _builder_for(protocol: str):
    if protocol == "sta":
        return sta_pgf_qary
    if protocol == "auction":
        return auction_pgf
    if protocol == "auction_skip":
        return auction_skip_pgf
    raise DomainError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")


def build_pgf(protocol: str, model: SplitModel, tail_tol: float = 1e-9) -> TruncatedSeries:
    """Build a protocol PGF, doubling k_max from 128 until the tail mass
    clears ``tail_tol``, and giving up past ``K_CAP``.

    A coin with some p_j = 1 never splits a collision of two or more, so no
    series exists there; a lone contender still takes its one slot.
    """
    builder = _builder_for(protocol)
    if model.n >= 2 and max(model.p) == 1.0:
        raise DomainError("a coin with some p_j = 1 never splits a collision")
    k = 128
    if protocol == "sta" and model.n >= 2 and tail_tol <= 1.0:
        # every collision adds at most q - 1 groups, so a tree of n contenders
        # spends at least 1 + q * ceil((n - 1) / (q - 1)) slots: a shorter
        # series holds no mass and would fail the tail check, so none is built
        least = 1 + model.q * -(-(model.n - 1) // (model.q - 1))
        while k < min(least, K_CAP):
            k *= 2
    while True:
        series = builder(model, k)
        if series.tail_mass < tail_tol:
            return series
        if k >= K_CAP:
            raise TruncationError(
                f"tail mass {series.tail_mass:.3e} still above {tail_tol} at k_max {K_CAP}"
            )
        k *= 2
