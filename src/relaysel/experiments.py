"""Desk-scale experiment families pairing analysis with simulation.

Each experiment produces one :class:`ResultTable` holding the analytic series
and the Monte Carlo series side by side, plus agreement diagnostics (total
variation for slot-count PMFs, Kolmogorov-Smirnov for distance laws,
z-scores for scalar means).  Tables embed the config hash and seed so a rerun
with the same inputs is byte-identical.

Every table, ``validate``'s included, gates its statistical rows alike
(:class:`_Checks`): at a family-wise ``ALPHA`` per table, split evenly over its
rows (Bonferroni), KS rows by the DKW bound, TV rows by Bretagnolle-Huber-Carol
over the analytic cells and z-scores by the two-sided normal quantile.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DomainError, ResourceLimitError, check_fields
from .geometry import (
    MAX_POINTS,
    LensRegion,
    SectorRegion,
    calibrate_sdr,
    check_binomials,
    expected_nth_distance,
    nth_neighbor_ccdf,
    nth_neighbor_pdf,
    partition_region,
    sample_sorted_separations,
)
from .pgf import K_CAP, PROTOCOLS, SplitModel, build_pgf, moments
from .simulator import EpisodeConfig, run_episode_batch, total_variation

DEFAULT_SEED = 12345
DEFAULT_REPLICATIONS = 100_000
ALPHA = 1e-3  # family-wise false-alarm probability of one table's statistical rows
CUT_LEVEL = 0.999  # analytic slot-count masses are kept up to this quantile
PRIORITY_ROUNDS = 3  # the iterated-priority families' lens rounds


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment run; defaults mirror the usual setup
    (range 1 m, five contenders, two splitting groups, fair coin)."""

    experiment: str
    n_values: tuple[int, ...] = (2, 3, 4, 5)
    q: int = 2
    p: tuple[float, ...] | None = None
    r: float = 1.0
    rho: float | None = None
    aperture: float = math.pi
    replications: int = DEFAULT_REPLICATIONS
    seed: int = DEFAULT_SEED
    skip: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.experiment not in EXPERIMENT_IDS:
            raise DomainError(
                f"unknown experiment {self.experiment!r}; expected one of {', '.join(EXPERIMENT_IDS)}"
            )
        if self.r <= 0.0:
            raise DomainError("transmission range must be positive")
        if self.replications < 1:
            raise DomainError("need at least one replication")
        # the distance families build no SplitModel, yet split regions into q bands
        if self.q > K_CAP:
            raise ResourceLimitError(f"{self.q} splitting groups exceed the limit of {K_CAP}")
        if not self.n_values:
            raise DomainError("empty multiplicity range")
        # every family but the slot-count PMFs draws neighbour distances, at
        # most replications rows of at most the largest multiplicity's points
        if not self.experiment.startswith("cri_pmf"):
            least, most = _bounds(self.n_values)
            if least < 1:
                raise DomainError(f"{self.experiment} needs at least one relay per multiplicity")
            if self.replications * most > MAX_POINTS:
                raise ResourceLimitError(
                    f"{self.replications} replications of {most} relays exceed "
                    f"the limit of {MAX_POINTS} points"
                )
            # the largest cell and binomial of the family's laws, refused before
            # any sampling: the dist_pdf and iter_gain families take the last
            # multiplicity only
            n = self.n_values[-1] if self.experiment.startswith(("dist_pdf", "iter_gain")) else most
            rows = self.rows_per_cell()
            if rows * n > MAX_POINTS:
                raise ResourceLimitError(f"{rows} draws of {n} relays exceed the limit of {MAX_POINTS} points")
            check_binomials(1 if self.experiment.endswith("nearest") else n, n)
            if self.experiment == "dist_pdf_sdr":  # every rank's sector density
                check_binomials(min(n, n // 2 + 1), n, density=True)

    def rows_per_cell(self) -> int:
        """Draws of relays in each cell of a distance family: its share of
        the replications, and at least the family's floor."""
        if self.experiment.startswith("dist_pdf"):
            return self.replications
        if self.experiment.startswith("iter_gain"):  # one cell per priority round
            return max(self.replications // (PRIORITY_ROUNDS + 1), 1000)
        if self.experiment.startswith("exp_dist"):  # one per round and multiplicity
            return max(self.replications // ((PRIORITY_ROUNDS + 1) * len(self.n_values)), 500)
        return max(self.replications // len(self.n_values), 1000)

    def config_hash(self) -> str:
        blob = json.dumps(
            {k: (list(v) if isinstance(v, (tuple, range)) else v) for k, v in self.__dict__.items()},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def lens(self) -> LensRegion:
        return LensRegion(radius=self.r, rho=self.rho)

    def sector(self) -> SectorRegion:
        return SectorRegion(radius=self.r, aperture=self.aperture)


@dataclass
class ResultTable:
    """Columns, numeric rows and a provenance block."""

    columns: list[str]
    rows: list[tuple]
    provenance: dict
    diagnostics: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.provenance):
            buf.write(f"# {key} = {self.provenance[key]}\n")
        for key in sorted(self.diagnostics):
            buf.write(f"# diag {key} = {self.diagnostics[key]!r}\n")
        for msg in self.failures:
            buf.write(f"# FAIL {msg}\n")
        buf.write(",".join(self.columns) + "\n")
        buf.write(format_rows(self.rows))
        return buf.getvalue()

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())


def format_rows(rows) -> str:
    """CSV lines of the rows: a float cell by ``repr``, any other by ``str``."""
    cell = _cell
    return "".join([",".join(map(cell, row)) + "\n" for row in rows])


def _cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _bounds(n_values) -> tuple[int, int]:
    """(least, largest) multiplicity; a range's from its ends, since a
    command-line range stays lazy and may hold millions of them."""
    if isinstance(n_values, range):
        return min(n_values[0], n_values[-1]), max(n_values[0], n_values[-1])
    return min(n_values), max(n_values)


def _laws(protocol: str, n_values, q: int = 2, p=None) -> dict:
    """Each multiplicity's slot-count series, the largest built first: a
    refusal there comes before any other build or batch, and the held
    family, built up to the largest n, serves every smaller n by slicing,
    bit for bit."""
    top = _bounds(n_values)[1]
    laws = {top: build_pgf(protocol, SplitModel(n=top, q=q, p=p))}
    for n in n_values:
        if n not in laws:
            laws[n] = build_pgf(protocol, SplitModel(n=n, q=q, p=p))
    return laws


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "toolkit_version": __version__,
    }


def _protocol(cfg: ExperimentConfig, auction: bool) -> str:
    if not auction:
        return "sta"
    return "auction_skip" if cfg.skip else "auction"


def _hash_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# agreement gates


def _tv_gate(samples: int, series, alpha: float) -> float:
    """Gate for the TV of ``samples`` episodes against ``_analytic_pmf(series)``.

    The cells k <= cut and one pooled tail cell T make K = cut + 2 cells, whose
    L1 distance exceeds t = sqrt(2 (K ln 2 + ln(1/alpha)) / N) with probability
    at most alpha (Bretagnolle-Huber-Carol).  Leaving T unpooled adds at most
    2 p(T) to that, and the dropped analytic tail (1 - CUT_LEVEL) / 2 to the TV;
    1e-9 absorbs rounding in both sums.
    """
    cut = series.truncation_index(CUT_LEVEL)
    tail = max(0.0, 1.0 - float(series.cdf()[cut]))
    t = math.sqrt(2.0 * ((cut + 2) * math.log(2.0) + math.log(1.0 / alpha)) / samples)
    return 0.5 * t + tail + 0.5 * (1.0 - CUT_LEVEL) + 1e-9


def _ks_gate(samples: int, alpha: float) -> float:
    """DKW: P(sup |F_N - F| > eps) <= 2 exp(-2 N eps^2) (Massart, 1990)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


def _z_gate(alpha: float) -> float:
    """Two-sided normal quantile: the z with erfc(z / sqrt 2) = alpha.  Taken
    from the lower tail, which keeps its precision where 1 - alpha / 2 rounds."""
    # statistics is imported on first use: with fractions and decimal it
    # costs ~5 ms of start-up
    from statistics import NormalDist

    return -NormalDist().inv_cdf(alpha / 2.0)


class _Checks:
    """The agreement checks of one table.

    Statistical rows are gated together once all are in, each at
    ALPHA / (number of rows).  Exact checks (``require``) pass or fail
    outright and take no share of ALPHA.
    """

    def __init__(self) -> None:
        self.diagnostics: dict = {}
        self._rows: list = []
        self._exact: list[str] = []

    def _add(self, label: str, statistic: float, gate, diag: bool = True) -> None:
        self._rows.append((label, statistic, gate))
        if diag:
            self.diagnostics[label] = statistic

    def tv(self, label: str, statistic: float, samples: int, series) -> None:
        self._add(label, statistic, lambda alpha: _tv_gate(samples, series, alpha))

    def ks(self, label: str, statistic: float, samples: int) -> None:
        self._add(label, statistic, lambda alpha: _ks_gate(samples, alpha))

    def z(self, label: str, statistic: float, diag: bool = True) -> None:
        self._add(label, statistic, _z_gate, diag)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self._exact.append(message)

    def verdicts(self) -> list[tuple[str, float, float, int]]:
        """(label, statistic, gate, passed) for every statistical row."""
        alpha = ALPHA / max(len(self._rows), 1)
        gated = [(label, stat, gate_of(alpha)) for label, stat, gate_of in self._rows]
        return [(label, stat, gate, int(stat <= gate)) for label, stat, gate in gated]

    def table(self, columns: list[str], rows: list[tuple], provenance: dict) -> ResultTable:
        failures = [f"{label}: {stat:.5f} > {gate:.5f}" for label, stat, gate, ok in self.verdicts() if not ok]
        return ResultTable(columns, rows, provenance, self.diagnostics, failures + self._exact)


def _analytic_pmf(series) -> dict[int, float]:
    """The series' positive masses up to its CUT_LEVEL quantile."""
    cut = series.truncation_index(CUT_LEVEL)
    return {k: float(series.coeffs[k]) for k in range(cut + 1) if series.coeffs[k] > 0}


_KS_STRIDE_DIVISOR = 8  # the KS's first pass evaluates every (sqrt(N) / 8)-th sample
_KS_SLACK = 1e-9  # the KS skips a gap whose bound is below its best deviation by more than this


def _ks_distance(region, rank: int, n_points: int, distances: np.ndarray) -> float:
    """KS statistic of sampled rank-th neighbour distances against their law F:
    the largest max(|(i + 1)/N - F_i|, |i/N - F_i|) over the N sorted samples.

    A bracketed maximum, which evaluates F at a fraction of the samples.
    First at every m-th sample and the last, m = isqrt(N) //
    ``_KS_STRIDE_DIVISOR`` (at least 1): their deviations bound the maximum
    below by ``best``.  Between two of them, a < b, a monotone F keeps each
    sample's deviation within max(b/N - F_a, F_b - (a + 1)/N); one more call
    evaluates the samples of every gap whose bound reaches ``best -
    _KS_SLACK``.  An evaluated sample takes the same elementwise law and
    expression as in one call on all N samples, so the statistic is that
    exhaustive maximum bit for bit wherever the computed F is monotone to
    within ``_KS_SLACK``.  At N = 40,000 about 8% of the samples are
    evaluated; below N = 256 all are, in the first call.
    """
    samples = np.sort(distances)
    n = len(samples)

    def deviations(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cdf = 1.0 - nth_neighbor_ccdf(region, rank, n_points, samples[index])
        return cdf, np.maximum(np.abs((index + 1) / n - cdf), np.abs(index / n - cdf))

    probes = np.append(np.arange(0, n - 1, max(1, math.isqrt(n) // _KS_STRIDE_DIVISOR)), n - 1)
    cdf, dev = deviations(probes)
    best = dev.max()
    a, b = probes[:-1], probes[1:]
    bound = np.maximum(b / n - cdf[:-1], cdf[1:] - (a + 1) / n)
    inside = np.repeat(bound >= best - _KS_SLACK, b - a)  # samples a .. b - 1 of each gap
    inside[a] = False  # a gap's left end is a probe
    if inside.any():
        best = max(best, deviations(np.flatnonzero(inside))[1].max())
    return float(best)


def _mean_check(checks: _Checks, label: str, distances: np.ndarray, analytic: float) -> tuple[float, float]:
    """(mean, standard error) of the sampled distances, their z-score
    against the analytic mean gated as ``label`` (no diagnostic line)."""
    mean = float(distances.mean())
    se = float(distances.std(ddof=1) / math.sqrt(len(distances)))
    checks.z(label, abs(mean - analytic) / se if se > 0 else 0.0, diag=False)
    return mean, se


def _empirical_pdf(distances: np.ndarray, radius: float, grid: np.ndarray) -> np.ndarray:
    """A 50-bin histogram density of the distances over [0, radius], read on the grid."""
    hist, edges = np.histogram(distances, bins=50, range=(0.0, radius), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return np.interp(grid, centers, hist, left=0.0, right=0.0)


# ---------------------------------------------------------------------------
# slot-count PMF families


def _cri_pmf(cfg: ExperimentConfig, auction: bool) -> ResultTable:
    protocol = _protocol(cfg, auction)
    region = cfg.lens() if auction else cfg.sector()
    rows = []
    checks = _Checks()
    laws = _laws(protocol, cfg.n_values, cfg.q, cfg.p)
    for n in cfg.n_values:
        series = laws[n]
        analytic = _analytic_pmf(series)
        episode = EpisodeConfig(protocol=protocol, n=n, region=region, q=cfg.q, p=cfg.p)
        _, summary = run_episode_batch(episode, cfg.replications, _hash_seed(cfg.seed, f"pmf:{n}"))
        checks.tv(f"tv_n{n}", total_variation(analytic, summary.pmf), cfg.replications, series)
        for k in sorted(set(analytic) | set(summary.pmf)):
            rows.append((n, k, analytic.get(k, 0.0), summary.pmf.get(k, 0.0)))
    return checks.table(["n", "k_slots", "analytic_pmf", "empirical_pmf"], rows, _provenance(cfg))


# ---------------------------------------------------------------------------
# distance-law families


def _dist_pdf(cfg: ExperimentConfig, region, label: str) -> ResultTable:
    n_points = cfg.n_values[-1]
    sorted_d = sample_sorted_separations(region, n_points, cfg.replications, _hash_seed(cfg.seed, f"dist:{label}"))
    grid = np.linspace(0.0, region.radius, 201)
    rows = []
    checks = _Checks()
    for rank in range(1, n_points + 1):
        distances = sorted_d[:, rank - 1]
        checks.ks(f"ks_rank{rank}", _ks_distance(region, rank, n_points, distances), cfg.replications)
        emp_pdf = _empirical_pdf(distances, region.radius, grid)
        pdf = nth_neighbor_pdf(region, rank, n_points, grid)
        ccdf = nth_neighbor_ccdf(region, rank, n_points, grid)
        for d, an, ep, cc in zip(grid.tolist(), pdf.tolist(), emp_pdf.tolist(), ccdf.tolist()):
            rows.append((rank, d, an, ep, cc))
    columns = ["rank", "d", "analytic_pdf", "empirical_pdf", "analytic_ccdf"]
    return checks.table(columns, rows, _provenance(cfg))


def _priority_rounds(cfg: ExperimentConfig) -> list:
    """Round 0's calibrated sector, then the lens after 1..PRIORITY_ROUNDS
    priority rounds, each the priority-1 band of the one before (see
    ``iterated_priority_region``)."""
    lens = cfg.lens()
    regions = [calibrate_sdr(lens)]
    for t in range(PRIORITY_ROUNDS):
        regions.append(partition_region(regions[-1], cfg.q)[0] if t else lens)
    return regions


def _iter_gain(cfg: ExperimentConfig, nearest: bool) -> ResultTable:
    n_points = cfg.n_values[-1]
    rank = 1 if nearest else n_points
    grid = np.linspace(0.0, cfg.r, 201)
    rows = []
    checks = _Checks()
    regions = _priority_rounds(cfg)
    per_round = cfg.rows_per_cell()
    for t, region in enumerate(regions):
        label = "cdr" if t else "sdr"
        seed = _hash_seed(cfg.seed, f"iter:{label}:{t}")
        distances = sample_sorted_separations(region, n_points, per_round, seed)[:, rank - 1]
        checks.ks(f"ks_{label}_round{t}", _ks_distance(region, rank, n_points, distances), per_round)
        emp_pdf = _empirical_pdf(distances, cfg.r, grid)
        pdf = nth_neighbor_pdf(region, rank, n_points, grid)
        for d, an, ep in zip(grid.tolist(), pdf.tolist(), emp_pdf.tolist()):
            rows.append((label, t, d, an, ep))
    means = [expected_nth_distance(region, rank, n_points) for region in regions[1:]]
    checks.diagnostics["round_means"] = tuple(round(m, 6) for m in means)
    if nearest:
        checks.require(
            all(b > a for a, b in zip(means, means[1:])), f"round means not strictly increasing: {means}"
        )
    return checks.table(["region", "round", "d", "analytic_pdf", "empirical_pdf"], rows, _provenance(cfg))


def _exp_dist(cfg: ExperimentConfig, nearest: bool) -> ResultTable:
    regions = _priority_rounds(cfg)
    labels = ["sdr"] + [f"cdr_round{t}" for t in range(1, len(regions))]
    rows = []
    checks = _Checks()
    means = {}
    per_cell = cfg.rows_per_cell()
    for label, region in zip(labels, regions):
        for n in cfg.n_values:
            rank = 1 if nearest else n
            analytic = means[label, n] = expected_nth_distance(region, rank, n)
            d = sample_sorted_separations(region, n, per_cell, _hash_seed(cfg.seed, f"expdist:{label}:{n}"))
            emp, se = _mean_check(checks, f"z:{label}:n{n}", d[:, rank - 1], analytic)
            rows.append((label, n, analytic, emp, se))
    if nearest:
        # nearest-relay progress grows with every extra priority round
        for n in cfg.n_values:
            by_round = [means[f"cdr_round{t}", n] for t in range(1, PRIORITY_ROUNDS + 1)]
            checks.require(
                all(b > a for a, b in zip(by_round, by_round[1:])), f"rounds not increasing at n={n}: {by_round}"
            )
        for label in labels:
            by_n = [means[label, n] for n in cfg.n_values]
            checks.require(
                all(b < a for a, b in zip(by_n, by_n[1:])), f"{label}: nearest distance not decreasing in n"
            )
        checks.diagnostics["monotone_rounds"] = True
    columns = ["series", "n", "analytic_mean_distance", "empirical_mean_distance", "empirical_se"]
    return checks.table(columns, rows, _provenance(cfg))


def _progress_vs_cri(cfg: ExperimentConfig, auction: bool) -> ResultTable:
    protocol = _protocol(cfg, auction)
    region = cfg.lens() if auction else calibrate_sdr(cfg.lens())
    rows = []
    checks = _Checks()
    per_cell = cfg.rows_per_cell()
    laws = _laws(protocol, cfg.n_values, cfg.q, cfg.p)
    for n in cfg.n_values:
        cri_mean = moments(laws[n]).mean
        episode = EpisodeConfig(protocol=protocol, n=n, region=region, q=cfg.q, p=cfg.p)
        _, summary = run_episode_batch(episode, per_cell, _hash_seed(cfg.seed, f"prog:{n}"))
        sorted_d = sample_sorted_separations(region, n, per_cell, _hash_seed(cfg.seed, f"prog-dist:{n}"))
        ranks = {"nearest": 1, "second_furthest": max(n - 1, 1), "furthest": n}
        for label, rank in ranks.items():
            mean_d = expected_nth_distance(region, rank, n)
            emp, _ = _mean_check(checks, f"dist_z_n{n}_{label}", sorted_d[:, rank - 1], mean_d)
            rows.append((n, label, cri_mean, summary.mean_slots, mean_d, emp))
        z_denom = math.sqrt(max(summary.var_slots, 1e-12) / per_cell)
        checks.z(f"cri_z_n{n}", abs(summary.mean_slots - cri_mean) / z_denom if z_denom else 0.0)
    columns = ["n", "rank", "analytic_mean_cri", "empirical_mean_cri"]
    return checks.table(columns + ["analytic_mean_distance", "empirical_mean_distance"], rows, _provenance(cfg))


# ---------------------------------------------------------------------------

_FAMILIES = {
    "cri_pmf_sta": lambda cfg: _cri_pmf(cfg, auction=False),
    "cri_pmf_auction": lambda cfg: _cri_pmf(cfg, auction=True),
    "dist_pdf_sdr": lambda cfg: _dist_pdf(cfg, cfg.sector(), "sdr"),
    "dist_pdf_cdr": lambda cfg: _dist_pdf(cfg, cfg.lens(), "cdr"),
    "iter_gain_nearest": lambda cfg: _iter_gain(cfg, nearest=True),
    "iter_gain_furthest": lambda cfg: _iter_gain(cfg, nearest=False),
    "exp_dist_nearest": lambda cfg: _exp_dist(cfg, nearest=True),
    "exp_dist_furthest": lambda cfg: _exp_dist(cfg, nearest=False),
    "progress_vs_cri_sta": lambda cfg: _progress_vs_cri(cfg, auction=False),
    "progress_vs_cri_auction": lambda cfg: _progress_vs_cri(cfg, auction=True),
}
EXPERIMENT_IDS = tuple(_FAMILIES)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run one experiment family; see ``EXPERIMENT_IDS``."""
    return _FAMILIES[config.experiment](config)


def validate_agreement(
    n_values=(2, 3, 4, 5),
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = DEFAULT_SEED,
    r: float = 1.0,
    rho: float | None = None,
    protocols=PROTOCOLS,
    distance_n: int = 5,
) -> ResultTable:
    """Full analytic-versus-simulation agreement suite.

    Slot-count PMFs are compared by total variation for every protocol and
    multiplicity; the distance laws of both region designs are compared by
    the KS statistic for every neighbour rank at ``distance_n`` relays.  Each
    row reports its statistic, its derived gate and whether it passed.
    """
    if not n_values:
        raise DomainError("empty multiplicity range")
    if distance_n < 1:
        raise DomainError("the distance checks need at least one relay (distance_n >= 1)")
    if replications * distance_n > MAX_POINTS:
        raise ResourceLimitError(
            f"{replications} replications of {distance_n} relays exceed the limit of {MAX_POINTS} points"
        )
    check_binomials(distance_n, distance_n)
    lens = LensRegion(radius=r, rho=rho)
    sector = calibrate_sdr(lens)
    checks = _Checks()
    laws = {protocol: _laws(protocol, n_values) for protocol in protocols}
    for protocol in protocols:
        region = sector if protocol == "sta" else lens
        for n in n_values:
            series = laws[protocol][n]
            episode = EpisodeConfig(protocol=protocol, n=n, region=region)
            label = f"tv:{protocol}:{n}"
            _, summary = run_episode_batch(episode, replications, _hash_seed(seed, label))
            checks.tv(label, total_variation(_analytic_pmf(series), summary.pmf), replications, series)
    for label, region in (("sdr", sector), ("cdr", lens)):
        sorted_d = sample_sorted_separations(region, distance_n, replications, _hash_seed(seed, f"ks:{label}"))
        for rank in range(1, distance_n + 1):
            ks = _ks_distance(region, rank, distance_n, sorted_d[:, rank - 1])
            checks.ks(f"ks:{label}:rank{rank}", ks, replications)
    inputs = [list(n_values), replications, seed, r, rho, list(protocols), distance_n]
    provenance = {
        "experiment": "validate",
        "config_hash": hashlib.sha256(json.dumps(inputs).encode()).hexdigest()[:16],
        "seed": seed,
        "toolkit_version": __version__,
    }
    return checks.table(["check", "statistic", "threshold", "passed"], checks.verdicts(), provenance)
