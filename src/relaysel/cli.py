"""Command-line front end.

Subcommands: pmf, invert, distance, simulate, experiment, validate.
All output is CSV (or line-delimited episode records for ``simulate``) with
'#'-prefixed provenance comments; identical arguments and seed always yield
byte-identical output.  Exit codes: 0 success, 2 usage error, 3 validation
failure, 4 resource limit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError, InfeasibleRegionError, ResourceLimitError, TruncationError
from .experiments import (
    DEFAULT_REPLICATIONS,
    EXPERIMENT_IDS,
    ExperimentConfig,
    ResultTable,
    run_experiment,
    validate_agreement,
)
from .geometry import (
    LensRegion,
    SectorRegion,
    calibrate_sdr,
    expected_nth_distance,
    median_nth_distance,
    nth_neighbor_ccdf,
    nth_neighbor_pdf,
)
from .pgf import InversionParams, SplitModel, build_pgf, invert_fourier
from .simulator import EpisodeConfig, run_episode_batch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4

SEED_ENV_VAR = "RELAYSEL_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    return 12345


def _parse_range(text: str) -> tuple[int, ...]:
    """'2..5' -> (2,3,4,5); '4' -> (4,); '2,4,7' -> (2,4,7)."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
            values = tuple(range(lo, hi + 1))
        else:
            values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"malformed multiplicity range {text!r}") from exc
    if not values:
        raise DomainError(f"empty range {text!r}")
    return values


def _parse_probs(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"malformed group probabilities {text!r}") from exc
    if len(parts) == 1:
        return (parts[0], 1.0 - parts[0])
    return tuple(parts)


def _canon_protocol(name: str) -> str:
    return name.replace("-", "_")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _simple_table(columns, rows, seed=None) -> str:
    buf = io.StringIO()
    buf.write(f"# toolkit_version = {__version__}\n")
    if seed is not None:
        buf.write(f"# seed = {seed}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def _build_region(args):
    if args.region == "cdr":
        return LensRegion(radius=args.r, rho=args.rho)
    if args.aperture is not None:
        return SectorRegion(radius=args.r, aperture=args.aperture)
    return calibrate_sdr(LensRegion(radius=args.r, rho=args.rho))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_pmf(args) -> int:
    model = SplitModel(n=args.n, q=args.q, p=_parse_probs(args.p))
    series = build_pgf(_canon_protocol(args.protocol), model)
    rows = [
        (k, float(series.coeffs[k]))
        for k in range(series.k_max + 1)
        if series.coeffs[k] > args.min_prob
    ]
    _emit(_simple_table(["k_slots", "probability"], rows), args.out)
    return EXIT_OK


def _cmd_invert(args) -> int:
    model = SplitModel(n=args.n, q=args.q, p=_parse_probs(args.p))
    series = build_pgf(_canon_protocol(args.protocol), model)
    params = InversionParams(r=args.radius, gamma=args.gamma)
    result = invert_fourier(series, args.k, params)
    direct = series.coefficient(args.k)
    rows = [(args.k, result.prob, result.raw, direct)]
    _emit(_simple_table(["k_slots", "estimate", "raw_estimate", "direct_coefficient"], rows), args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    region = _build_region(args)
    n = args.of
    rank = args.rank
    if args.stat == "mean":
        rows = [(rank, n, expected_nth_distance(region, rank, n))]
        cols = ["rank", "n", "mean_distance"]
    elif args.stat == "median":
        rows = [(rank, n, median_nth_distance(region, rank, n))]
        cols = ["rank", "n", "median_distance"]
    else:
        grid = np.array([args.d]) if args.d is not None else region.radius * np.arange(201) / 200
        fn = nth_neighbor_ccdf if args.stat == "ccdf" else nth_neighbor_pdf
        rows = [(rank, n, d, v) for d, v in zip(grid.tolist(), fn(region, rank, n, grid).tolist())]
        cols = ["rank", "n", "d", args.stat]
    _emit(_simple_table(cols, rows), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    region = _build_region(args)
    config = EpisodeConfig(
        protocol=_canon_protocol(args.protocol),
        n=args.n,
        region=region,
        q=args.q,
        p=_parse_probs(args.p),
        include_request_slot=args.count_request_slot,
    )
    records, summary = run_episode_batch(config, args.reps, args.seed)
    if args.format == "records":
        buf = io.StringIO()
        buf.write(f"# toolkit_version = {__version__}\n")
        buf.write(f"# seed = {args.seed}\n")
        buf.writelines(f"{line}\n" for line in records.lines())
        _emit(buf.getvalue(), args.out)
    else:
        rows = [(k, v) for k, v in summary.pmf.items()]
        rows.append(("mean", summary.mean_slots))
        rows.append(("variance", summary.var_slots))
        _emit(_simple_table(["k_slots", "value"], rows, seed=args.seed), args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise DomainError("config file must hold a JSON object")

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        return base.get(key, fallback)

    experiment = pick(args.id, "experiment", None)
    if experiment is None:
        raise DomainError("an experiment id is required (--id or config file)")
    cfg = ExperimentConfig(
        experiment=experiment,
        n_values=_as_multiplicities(pick(args.n, "n_values", "2..5")),
        q=pick(args.q, "q", 2),
        p=_parse_probs(args.p) if args.p is not None else _as_probs(base.get("p")),
        r=pick(args.r, "r", 1.0),
        rho=pick(args.rho, "rho", None),
        aperture=pick(args.aperture, "aperture", 3.141592653589793),
        replications=pick(args.reps, "replications", DEFAULT_REPLICATIONS),
        seed=pick(args.seed, "seed", _default_seed()),
        skip=bool(pick(args.skip or None, "skip", False)),
    )
    table = run_experiment(cfg)
    _emit(table.to_csv(), args.out)
    return EXIT_OK if table.passed else EXIT_VALIDATION


def _as_multiplicities(value) -> tuple[int, ...]:
    """``--n`` text, or a config file's ``n_values``: such text or a list of integers."""
    if isinstance(value, str):
        return _parse_range(value)
    if not isinstance(value, list) or not all(type(n) is int for n in value):
        raise DomainError(f"n_values must be a range or a list of integers, got {value!r}")
    return tuple(value)


def _as_probs(value):
    if value is None:
        return None
    return tuple(float(x) for x in value)


def _cmd_validate(args) -> int:
    table = validate_agreement(
        n_values=_parse_range(args.n),
        replications=args.reps,
        seed=args.seed,
        r=args.r,
        rho=args.rho,
        protocols=tuple(_canon_protocol(p) for p in args.protocols.split(",")),
        distance_n=args.distance_n,
    )
    _emit(table.to_csv(), args.out)
    return EXIT_OK if table.passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------


def _add_common(sub, seed_default):
    sub.add_argument("--seed", type=int, default=seed_default, help="master random seed")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_model_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="initial conflict multiplicity")
    sub.add_argument("--q", type=int, default=2, help="number of splitting groups")
    sub.add_argument("--p", default=None, help="group probabilities, e.g. 0.4 or 0.2,0.3,0.5")


def _add_region_flags(sub):
    sub.add_argument("--region", choices=["sdr", "cdr"], default="cdr")
    sub.add_argument("--r", type=float, default=1.0, help="transmission range (m)")
    sub.add_argument("--rho", type=float, default=None, help="lens outer radius (default: r)")
    sub.add_argument("--aperture", type=float, default=None, help="sector aperture (rad)")


def build_parser(seed_default: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysel",
        description="Relay-election slot-count laws, decision-region geometry and simulation.",
    )
    parser.add_argument("--version", action="version", version=f"relaysel {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pmf", help="analytic slot-count PMF of a protocol")
    p.add_argument("--protocol", choices=["sta", "auction", "auction-skip", "auction_skip"], required=True)
    _add_model_flags(p)
    p.add_argument("--min-prob", type=float, default=1e-12, help="hide entries at or below this mass")
    _add_common(p, seed_default)
    p.set_defaults(func=_cmd_pmf)

    p = subs.add_parser("invert", help="contour inversion of a protocol PGF at one index")
    p.add_argument("--protocol", choices=["sta", "auction", "auction-skip", "auction_skip"], required=True)
    _add_model_flags(p)
    p.add_argument("--k", type=int, required=True, help="slot count to recover")
    p.add_argument("--radius", type=float, default=None, help="evaluation radius in (0,1)")
    p.add_argument("--gamma", type=float, default=8.0, help="aliasing exponent when radius unset")
    _add_common(p, seed_default)
    p.set_defaults(func=_cmd_invert)

    p = subs.add_parser("distance", help="neighbour-distance laws of a decision region")
    _add_region_flags(p)
    p.add_argument("--rank", type=int, required=True, help="neighbour rank (1 = nearest)")
    p.add_argument("--of", type=int, required=True, help="number of candidate relays")
    p.add_argument("--stat", choices=["ccdf", "pdf", "mean", "median"], default="ccdf")
    p.add_argument("--d", type=float, default=None, help="evaluate at one distance instead of a grid")
    _add_common(p, seed_default)
    p.set_defaults(func=_cmd_distance)

    p = subs.add_parser("simulate", help="run a batch of contention episodes")
    p.add_argument("--protocol", choices=["sta", "auction", "auction-skip", "auction_skip"], required=True)
    _add_model_flags(p)
    _add_region_flags(p)
    p.add_argument("--reps", type=int, default=DEFAULT_REPLICATIONS)
    p.add_argument("--format", choices=["csv", "records"], default="csv")
    p.add_argument("--count-request-slot", action="store_true",
                   help="include the source's request slot in the slot count")
    _add_common(p, seed_default)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("experiment", help="run one experiment family")
    p.add_argument("--id", choices=list(EXPERIMENT_IDS), default=None)
    p.add_argument("--config", default=None,
                   help="JSON config file; explicit flags take precedence")
    p.add_argument("--n", default=None, help="multiplicity range, e.g. 2..5")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--aperture", type=float, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--skip", action="store_true", help="use the idle-skip auction variant")
    p.add_argument("--seed", type=int, default=None, help="master random seed")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_experiment)

    p = subs.add_parser("validate", help="full analytic-vs-simulation agreement suite")
    p.add_argument("--n", default="2..5")
    p.add_argument("--reps", type=int, default=DEFAULT_REPLICATIONS)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--protocols", default="sta,auction,auction-skip")
    p.add_argument("--distance-n", type=int, default=5)
    _add_common(p, seed_default)
    p.set_defaults(func=_cmd_validate)

    return parser


def cli_main(argv=None) -> int:
    try:
        seed_default = _default_seed()
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    parser = build_parser(seed_default)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, InfeasibleRegionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ResourceLimitError, TruncationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    sys.exit(cli_main())
