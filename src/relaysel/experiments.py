"""Desk-scale experiment families pairing analysis with simulation.

Each experiment produces one :class:`ResultTable` holding the analytic series
and the Monte Carlo series side by side, plus agreement diagnostics (total
variation for slot-count PMFs, Kolmogorov-Smirnov for distance laws,
z-scores for scalar means).  Tables embed the config hash and seed so a rerun
with the same inputs is byte-identical.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DomainError
from .geometry import (
    LensRegion,
    SectorRegion,
    calibrate_sdr,
    expected_nth_distance,
    nth_neighbor_ccdf,
    nth_neighbor_pdf,
    partition_region,
    sample_sorted_separations,
)
from .pgf import SplitModel, build_pgf, moments
from .simulator import EpisodeConfig, run_episode_batch, total_variation

EXPERIMENT_IDS = (
    "cri_pmf_sta",
    "cri_pmf_auction",
    "dist_pdf_sdr",
    "dist_pdf_cdr",
    "iter_gain_nearest",
    "iter_gain_furthest",
    "exp_dist_nearest",
    "exp_dist_furthest",
    "progress_vs_cri_sta",
    "progress_vs_cri_auction",
)

DEFAULT_SEED = 12345
DEFAULT_REPLICATIONS = 100_000


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
    rounds: int = 3
    ranks: tuple[int, ...] | None = None
    tv_threshold: float = 0.01
    ks_threshold: float = 0.01
    z_threshold: float = 4.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise DomainError(
                f"unknown experiment {self.experiment!r}; expected one of {', '.join(EXPERIMENT_IDS)}"
            )
        if self.r <= 0.0:
            raise DomainError("transmission range must be positive")
        if self.replications < 1:
            raise DomainError("need at least one replication")
        if not self.n_values:
            raise DomainError("empty multiplicity range")

    def config_hash(self) -> str:
        blob = json.dumps(
            {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.__dict__.items()},
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
        for row in self.rows:
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        return buf.getvalue()

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
# slot-count PMF families


def _cri_pmf(cfg: ExperimentConfig, auction: bool) -> ResultTable:
    protocol = _protocol(cfg, auction)
    region = cfg.lens() if auction else cfg.sector()
    rows = []
    diagnostics = {}
    failures = []
    for n in cfg.n_values:
        series = build_pgf(protocol, SplitModel(n=n, q=cfg.q, p=cfg.p))
        cut = series.truncation_index(0.999)
        analytic = {k: float(series.coeffs[k]) for k in range(cut + 1) if series.coeffs[k] > 0}
        episode = EpisodeConfig(protocol=protocol, n=n, region=region, q=cfg.q, p=cfg.p)
        _, summary = run_episode_batch(episode, cfg.replications, _hash_seed(cfg.seed, f"pmf:{n}"))
        tv = total_variation(analytic, summary.pmf)
        diagnostics[f"tv_n{n}"] = tv
        if tv > cfg.tv_threshold:
            failures.append(f"tv_n{n} {tv:.5f} > {cfg.tv_threshold}")
        for k in sorted(set(analytic) | set(summary.pmf)):
            rows.append((n, k, analytic.get(k, 0.0), summary.pmf.get(k, 0.0)))
    return ResultTable(
        columns=["n", "k_slots", "analytic_pmf", "empirical_pmf"],
        rows=rows,
        provenance=_provenance(cfg),
        diagnostics=diagnostics,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# distance-law families


def _ks_distance(region, rank: int, n_points: int, distances: np.ndarray) -> float:
    """KS statistic of sampled rank-th neighbour distances against their law."""
    samples = np.sort(distances)
    cdf_values = 1.0 - nth_neighbor_ccdf(region, rank, n_points, samples)
    n = len(samples)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(steps_hi - cdf_values), np.abs(steps_lo - cdf_values))))


def _dist_pdf(cfg: ExperimentConfig, region, label: str) -> ResultTable:
    n_points = cfg.n_values[-1]
    ranks = cfg.ranks or tuple(range(1, n_points + 1))
    rng = np.random.default_rng(_hash_seed(cfg.seed, f"dist:{label}"))
    sorted_d = sample_sorted_separations(region, n_points, cfg.replications, rng)
    grid = np.linspace(0.0, region.radius, 201)
    rows = []
    diagnostics = {}
    failures = []
    for rank in ranks:
        ks = _ks_distance(region, rank, n_points, sorted_d[:, rank - 1])
        diagnostics[f"ks_rank{rank}"] = ks
        if ks > cfg.ks_threshold:
            failures.append(f"ks_rank{rank} {ks:.5f} > {cfg.ks_threshold}")
        hist, edges = np.histogram(sorted_d[:, rank - 1], bins=50, range=(0.0, region.radius), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        emp_pdf = np.interp(grid, centers, hist, left=0.0, right=0.0)
        pdf = nth_neighbor_pdf(region, rank, n_points, grid)
        ccdf = nth_neighbor_ccdf(region, rank, n_points, grid)
        for d, an, ep, cc in zip(grid.tolist(), pdf.tolist(), emp_pdf.tolist(), ccdf.tolist()):
            rows.append((rank, d, an, ep, cc))
    return ResultTable(
        columns=["rank", "d", "analytic_pdf", "empirical_pdf", "analytic_ccdf"],
        rows=rows,
        provenance=_provenance(cfg),
        diagnostics=diagnostics,
        failures=failures,
    )


def _priority_rounds(cfg: ExperimentConfig, lens: LensRegion) -> list[LensRegion]:
    """The lens after 1..cfg.rounds priority rounds, each the priority-1 band
    of the one before (see ``iterated_priority_region``)."""
    rounds = []
    for _ in range(cfg.rounds):
        rounds.append(partition_region(rounds[-1], cfg.q)[0] if rounds else lens)
    return rounds


def _iter_gain(cfg: ExperimentConfig, nearest: bool) -> ResultTable:
    n_points = cfg.n_values[-1]
    rank = 1 if nearest else n_points
    lens = cfg.lens()
    sector = calibrate_sdr(lens)
    grid = np.linspace(0.0, lens.radius, 201)
    rows = []
    diagnostics = {}
    failures = []
    rounds = _priority_rounds(cfg, lens)
    regions = [("sdr", 0, sector)] + [("cdr", t, region) for t, region in enumerate(rounds, 1)]
    per_round = max(cfg.replications // max(len(regions), 1), 1000)
    for label, t, region in regions:
        rng = np.random.default_rng(_hash_seed(cfg.seed, f"iter:{label}:{t}"))
        distances = sample_sorted_separations(region, n_points, per_round, rng)[:, rank - 1]
        ks = _ks_distance(region, rank, n_points, distances)
        diagnostics[f"ks_{label}_round{t}"] = ks
        if ks > cfg.ks_threshold * 2.0:  # fewer draws per round than a full batch
            failures.append(f"ks_{label}_round{t} {ks:.5f}")
        hist, edges = np.histogram(distances, bins=50, range=(0.0, lens.radius), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        emp_pdf = np.interp(grid, centers, hist, left=0.0, right=0.0)
        pdf = nth_neighbor_pdf(region, rank, n_points, grid)
        for d, an, ep in zip(grid.tolist(), pdf.tolist(), emp_pdf.tolist()):
            rows.append((label, t, d, an, ep))
    means = [expected_nth_distance(region, rank, n_points) for region in rounds]
    diagnostics["round_means"] = tuple(round(m, 6) for m in means)
    if nearest and any(b <= a for a, b in zip(means, means[1:])):
        failures.append(f"round means not strictly increasing: {means}")
    return ResultTable(
        columns=["region", "round", "d", "analytic_pdf", "empirical_pdf"],
        rows=rows,
        provenance=_provenance(cfg),
        diagnostics=diagnostics,
        failures=failures,
    )


def _exp_dist(cfg: ExperimentConfig, nearest: bool) -> ResultTable:
    lens = cfg.lens()
    rounds = _priority_rounds(cfg, lens)
    series_list = [("sdr", calibrate_sdr(lens))] + [
        (f"cdr_round{t}", region) for t, region in enumerate(rounds, 1)
    ]
    rows = []
    diagnostics = {}
    failures = []
    means = {}
    per_cell = max(cfg.replications // (len(series_list) * len(cfg.n_values)), 500)
    for label, region in series_list:
        for n in cfg.n_values:
            rank = 1 if nearest else n
            analytic = means[label, n] = expected_nth_distance(region, rank, n)
            rng = np.random.default_rng(_hash_seed(cfg.seed, f"expdist:{label}:{n}"))
            d = sample_sorted_separations(region, n, per_cell, rng)[:, rank - 1]
            emp = float(d.mean())
            se = float(d.std(ddof=1) / math.sqrt(len(d)))
            z = abs(emp - analytic) / se if se > 0 else 0.0
            rows.append((label, n, analytic, emp, se))
            if z > cfg.z_threshold:
                failures.append(f"{label} n={n}: z={z:.2f}")
    if nearest:
        # nearest-relay progress grows with every extra priority round
        for n in cfg.n_values:
            by_round = [means[f"cdr_round{t}", n] for t in range(1, cfg.rounds + 1)]
            if any(b <= a for a, b in zip(by_round, by_round[1:])):
                failures.append(f"rounds not increasing at n={n}: {by_round}")
        for label, _ in series_list:
            by_n = [means[label, n] for n in cfg.n_values]
            if any(b >= a for a, b in zip(by_n, by_n[1:])):
                failures.append(f"{label}: nearest distance not decreasing in n")
        diagnostics["monotone_rounds"] = True
    return ResultTable(
        columns=["series", "n", "analytic_mean_distance", "empirical_mean_distance", "empirical_se"],
        rows=rows,
        provenance=_provenance(cfg),
        diagnostics=diagnostics,
        failures=failures,
    )


def _progress_vs_cri(cfg: ExperimentConfig, auction: bool) -> ResultTable:
    protocol = _protocol(cfg, auction)
    region = cfg.lens() if auction else calibrate_sdr(cfg.lens())
    rows = []
    diagnostics = {}
    failures = []
    per_cell = max(cfg.replications // max(len(cfg.n_values), 1), 1000)
    for n in cfg.n_values:
        series = build_pgf(protocol, SplitModel(n=n, q=cfg.q, p=cfg.p))
        cri_mean = moments(series).mean
        episode = EpisodeConfig(protocol=protocol, n=n, region=region, q=cfg.q, p=cfg.p)
        _, summary = run_episode_batch(episode, per_cell, _hash_seed(cfg.seed, f"prog:{n}"))
        rng = np.random.default_rng(_hash_seed(cfg.seed, f"prog-dist:{n}"))
        sorted_d = sample_sorted_separations(region, n, per_cell, rng)
        ranks = {"nearest": 1, "second_furthest": max(n - 1, 1), "furthest": n}
        for label, rank in ranks.items():
            rows.append(
                (
                    n,
                    label,
                    cri_mean,
                    summary.mean_slots,
                    expected_nth_distance(region, rank, n),
                    float(sorted_d[:, rank - 1].mean()),
                )
            )
        z_denom = math.sqrt(max(summary.var_slots, 1e-12) / per_cell)
        z = abs(summary.mean_slots - cri_mean) / z_denom if z_denom else 0.0
        diagnostics[f"cri_z_n{n}"] = z
        if z > cfg.z_threshold:
            failures.append(f"cri mean mismatch at n={n}: z={z:.2f}")
    return ResultTable(
        columns=[
            "n",
            "rank",
            "analytic_mean_cri",
            "empirical_mean_cri",
            "analytic_mean_distance",
            "empirical_mean_distance",
        ],
        rows=rows,
        provenance=_provenance(cfg),
        diagnostics=diagnostics,
        failures=failures,
    )


# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Dispatch an experiment family; see ``EXPERIMENT_IDS``."""
    ex = config.experiment
    if ex == "cri_pmf_sta":
        return _cri_pmf(config, auction=False)
    if ex == "cri_pmf_auction":
        return _cri_pmf(config, auction=True)
    if ex == "dist_pdf_sdr":
        return _dist_pdf(config, config.sector(), "sdr")
    if ex == "dist_pdf_cdr":
        return _dist_pdf(config, config.lens(), "cdr")
    if ex == "iter_gain_nearest":
        return _iter_gain(config, nearest=True)
    if ex == "iter_gain_furthest":
        return _iter_gain(config, nearest=False)
    if ex == "exp_dist_nearest":
        return _exp_dist(config, nearest=True)
    if ex == "exp_dist_furthest":
        return _exp_dist(config, nearest=False)
    if ex == "progress_vs_cri_sta":
        return _progress_vs_cri(config, auction=False)
    if ex == "progress_vs_cri_auction":
        return _progress_vs_cri(config, auction=True)
    raise DomainError(f"unknown experiment {ex!r}")


def validate_agreement(
    n_values=(2, 3, 4, 5),
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = DEFAULT_SEED,
    r: float = 1.0,
    rho: float | None = None,
    tv_threshold: float = 0.01,
    ks_threshold: float = 0.01,
    protocols=("sta", "auction", "auction_skip"),
    distance_n: int = 5,
) -> ResultTable:
    """Full analytic-versus-simulation agreement suite.

    Slot-count PMFs are compared by total variation for every protocol and
    multiplicity; the distance laws of both region designs are compared by
    the KS statistic for every neighbour rank at ``distance_n`` relays.
    """
    lens = LensRegion(radius=r, rho=rho)
    sector = calibrate_sdr(lens)
    rows = []
    diagnostics = {}
    failures = []
    for protocol in protocols:
        region = sector if protocol == "sta" else lens
        for n in n_values:
            series = build_pgf(protocol, SplitModel(n))
            cut = series.truncation_index(0.999)
            analytic = {k: float(series.coeffs[k]) for k in range(cut + 1) if series.coeffs[k] > 0}
            episode = EpisodeConfig(protocol=protocol, n=n, region=region)
            label = f"tv:{protocol}:{n}"
            _, summary = run_episode_batch(episode, replications, _hash_seed(seed, label))
            tv = total_variation(analytic, summary.pmf)
            rows.append((label, tv, tv_threshold, int(tv <= tv_threshold)))
            diagnostics[label] = tv
            if tv > tv_threshold:
                failures.append(f"{label}: {tv:.5f} > {tv_threshold}")
    for label, region in (("sdr", sector), ("cdr", lens)):
        rng = np.random.default_rng(_hash_seed(seed, f"ks:{label}"))
        sorted_d = sample_sorted_separations(region, distance_n, replications, rng)
        for rank in range(1, distance_n + 1):
            ks = _ks_distance(region, rank, distance_n, sorted_d[:, rank - 1])
            key = f"ks:{label}:rank{rank}"
            rows.append((key, ks, ks_threshold, int(ks <= ks_threshold)))
            diagnostics[key] = ks
            if ks > ks_threshold:
                failures.append(f"{key}: {ks:.5f} > {ks_threshold}")
    return ResultTable(
        columns=["check", "statistic", "threshold", "passed"],
        rows=rows,
        provenance={
            "experiment": "validate",
            "config_hash": hashlib.sha256(
                json.dumps(
                    [list(n_values), replications, seed, r, rho, tv_threshold, ks_threshold],
                    sort_keys=True,
                ).encode()
            ).hexdigest()[:16],
            "seed": seed,
            "toolkit_version": __version__,
        },
        diagnostics=diagnostics,
        failures=failures,
    )
