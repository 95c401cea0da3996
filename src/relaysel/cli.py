"""Command-line front end.

Subcommands: pmf, invert, distance, simulate, experiment, validate.
All output is CSV (or line-delimited episode records for ``simulate``) with
'#'-prefixed provenance comments; identical arguments and seed always yield
byte-identical output.  Exit codes: 0 success, 2 usage error, 3 validation
failure, 4 resource limit.

Every option is one entry of ``OPTIONS``: argparse collects its text, its
converter types that text or its JSON value in an ``experiment --config``
file, and the constructor it is passed to checks its domain.  An option not
given is not passed, so the callee's own default applies.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    InfeasibleRegionError,
    ResourceLimitError,
    TruncationError,
    as_int,
    as_real,
    of_type,
)
from .experiments import (
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
    EXPERIMENT_IDS,
    ExperimentConfig,
    run_experiment,
    validate_agreement,
)
from .geometry import (
    MAX_POINTS,
    LensRegion,
    SectorRegion,
    calibrate_sdr,
    expected_nth_distance,
    median_nth_distance,
    nth_neighbor_ccdf,
    nth_neighbor_pdf,
)
from .pgf import InversionParams, SplitModel, build_pgf, invert_fourier
from .simulator import EpisodeConfig, RecordBatch, run_episode_batch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4

SEED_ENV_VAR = "RELAYSEL_SEED"


# ---------------------------------------------------------------------------
# converters: command-line text or a JSON value, and the name it came under,
# to a typed value or a DomainError naming the option


class _Text(str):
    """Command-line or environment text, which the numeric converters parse;
    a JSON string is no number."""


def _int(value, name: str) -> int:
    """Integer text, or a number with no fractional part; never a bool."""
    if isinstance(value, _Text):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    return as_int(value, name)


def _real(value, name: str) -> float:
    """Real text or a number, finite either way."""
    if isinstance(value, _Text):
        try:
            value = float(value)
        except ValueError:
            pass
    return as_real(value, name)


_text = of_type(str)
_flag = of_type(bool)  # a flag given on the command line is True


def _range(value, name: str) -> tuple[int, ...]:
    """'2..5' -> (2, 3, 4, 5); '2,4,7' or a JSON list of integers -> those.
    A range longer than 0..MAX_POINTS is refused before it is built: it
    holds a multiplicity below 0 or above ``MAX_POINTS``, which no command
    takes."""
    if isinstance(value, list):
        return tuple(_int(n, name) for n in value)
    if isinstance(value, str):
        lo, dots, hi = value.partition("..")
        try:
            if not dots:
                return tuple(int(n) for n in value.split(","))
            lo, hi = int(lo), int(hi)
        except ValueError:
            pass
        else:
            if hi - lo > MAX_POINTS:
                raise ResourceLimitError(f"{name} {value} spans more than {MAX_POINTS + 1} multiplicities")
            return tuple(range(lo, hi + 1))
    raise DomainError(f"malformed multiplicity range {value!r} for {name}")


def _probs(value, name: str) -> tuple[float, ...]:
    """'0.3' -> (0.3, 0.7); '0.2,0.3,0.5' or a JSON list of reals -> those."""
    if isinstance(value, str):
        try:
            value = [float(x) for x in value.split(",")]
        except ValueError:
            raise DomainError(f"malformed group probabilities {value!r} for {name}") from None
        if len(value) == 1:
            value.append(1.0 - value[0])
    if not isinstance(value, list):
        raise DomainError(f"malformed group probabilities {value!r} for {name}")
    return tuple(_real(x, name) for x in value)


def _protocol(value, name: str) -> str:
    return _text(value, name).replace("-", "_")


def _protocols(value, name: str) -> tuple[str, ...]:
    return tuple(_protocol(p, name) for p in _text(value, name).split(","))


def _one_of(*choices: str):
    def convert(value, name: str) -> str:
        if value not in choices:
            raise DomainError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        return value

    return convert


class Option(NamedTuple):
    flag: str
    key: str  # the keyword the value is passed as; for experiment, its config key
    convert: Callable
    commands: str  # the subcommands that take it
    help: str
    default: object = argparse.SUPPRESS  # SUPPRESS: not passed, the callee's default applies
    required: bool = False


OPTIONS = (
    Option("--protocol", "protocol", _protocol, "pmf invert simulate", "sta, auction or auction-skip",
           required=True),
    Option("--id", "experiment", _text, "experiment", f"experiment family: {', '.join(EXPERIMENT_IDS)}"),
    Option("--config", "config", _text, "experiment", "JSON file of config keys; flags take precedence"),
    Option("--n", "n", _int, "pmf invert simulate", "initial conflict multiplicity", required=True),
    Option("--n", "n_values", _range, "experiment validate", "multiplicity range, e.g. 2..5 or 2,4"),
    Option("--q", "q", _int, "pmf invert simulate experiment", "number of splitting groups"),
    Option("--p", "p", _probs, "pmf invert simulate experiment", "group probabilities, e.g. 0.4 or 0.2,0.5,0.3"),
    Option("--min-prob", "min_prob", _real, "pmf", "hide entries at or below this mass", default=1e-12),
    Option("--k", "k", _int, "invert", "slot count to recover", required=True),
    Option("--radius", "r", _real, "invert", "evaluation radius in (0,1)"),
    Option("--gamma", "gamma", _real, "invert", "aliasing exponent when radius unset"),
    Option("--region", "region", _one_of("sdr", "cdr"), "distance simulate", "sdr or cdr", default="cdr"),
    Option("--r", "r", _real, "distance simulate experiment validate", "transmission range (m)"),
    Option("--rho", "rho", _real, "distance simulate experiment validate", "lens outer radius (default: r)"),
    Option("--aperture", "aperture", _real, "distance simulate experiment", "sector aperture (rad)"),
    Option("--rank", "rank", _int, "distance", "neighbour rank (1 = nearest)", required=True),
    Option("--of", "n_points", _int, "distance", "number of candidate relays", required=True),
    Option("--stat", "stat", _one_of("ccdf", "pdf", "mean", "median"), "distance", "the law", default="ccdf"),
    Option("--d", "d", _real, "distance", "evaluate at one distance instead of a grid"),
    Option("--reps", "replications", _int, "simulate experiment validate", "number of replications"),
    Option("--format", "format", _one_of("csv", "records"), "simulate", "csv or records", default="csv"),
    Option("--count-request-slot", "include_request_slot", _flag, "simulate", "count the source's request slot"),
    Option("--skip", "skip", _flag, "experiment", "use the idle-skip auction variant"),
    Option("--protocols", "protocols", _protocols, "validate", "comma-separated protocols"),
    Option("--distance-n", "distance_n", _int, "validate", "relays in the distance-law checks"),
    Option("--seed", "seed", _int, "pmf invert distance simulate experiment validate",
           f"master random seed (default: ${SEED_ENV_VAR}, else {DEFAULT_SEED})"),
    Option("--out", "out", _text, "pmf invert distance simulate experiment validate",
           "output path (default: stdout)"),
)


def options_of(command: str) -> list[Option]:
    return [opt for opt in OPTIONS if command in opt.commands.split()]


# an experiment config file's keys: those of experiment's options that set ExperimentConfig fields
CONFIG_KEYS = {opt.key: opt for opt in options_of("experiment") if opt.key not in ("config", "out")}


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(config, dict):
        raise DomainError("config file must hold a JSON object")
    unknown = sorted(set(config) - set(CONFIG_KEYS))
    if unknown:
        raise DomainError(f"unknown config keys {unknown}; expected some of {sorted(CONFIG_KEYS)}")
    # a key set to null is as good as absent
    return {key: CONFIG_KEYS[key].convert(value, key) for key, value in config.items() if value is not None}


def _options(args) -> dict:
    """The seed's default, under a config file's keys, under the flags given."""
    given = {
        opt.key: opt.convert(getattr(args, opt.key), opt.flag)
        for opt in options_of(args.command)
        if hasattr(args, opt.key)
    }
    config = _read_config(given.pop("config")) if "config" in given else {}
    seed = _int(_Text(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)), SEED_ENV_VAR)
    return {"seed": seed, **config, **given}


def _take(opts: dict, *keys: str) -> dict:
    return {key: opts[key] for key in keys if key in opts}


# ---------------------------------------------------------------------------
# subcommands: each takes the typed options and returns (text, exit code)


def _simple_table(columns, rows, seed=None) -> str:
    buf = io.StringIO()
    buf.write(f"# toolkit_version = {__version__}\n")
    if seed is not None:
        buf.write(f"# seed = {seed}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def _build_region(opts):
    size = {"radius": opts["r"]} if "r" in opts else {}
    if opts["region"] == "sdr" and "aperture" in opts:
        return SectorRegion(aperture=opts["aperture"], **size)
    lens = LensRegion(**size, **_take(opts, "rho"))
    return lens if opts["region"] == "cdr" else calibrate_sdr(lens)


def _series(opts):
    return build_pgf(opts["protocol"], SplitModel(**_take(opts, "n", "q", "p")))


def _cmd_pmf(opts):
    series = _series(opts)
    rows = [
        (k, float(series.coeffs[k]))
        for k in range(series.k_max + 1)
        if series.coeffs[k] > opts["min_prob"]
    ]
    return _simple_table(["k_slots", "probability"], rows), EXIT_OK


def _cmd_invert(opts):
    series = _series(opts)
    k = opts["k"]
    result = invert_fourier(series, k, InversionParams(**_take(opts, "r", "gamma")))
    rows = [(k, result.prob, result.raw, series.coefficient(k))]
    return _simple_table(["k_slots", "estimate", "raw_estimate", "direct_coefficient"], rows), EXIT_OK


def _cmd_distance(opts):
    region = _build_region(opts)
    rank, n, stat = opts["rank"], opts["n_points"], opts["stat"]
    if stat in ("mean", "median"):
        law = expected_nth_distance if stat == "mean" else median_nth_distance
        rows, cols = [(rank, n, law(region, rank, n))], ["rank", "n", f"{stat}_distance"]
    else:
        grid = np.array([opts["d"]]) if "d" in opts else region.radius * np.arange(201) / 200
        fn = nth_neighbor_ccdf if stat == "ccdf" else nth_neighbor_pdf
        rows = [(rank, n, d, v) for d, v in zip(grid.tolist(), fn(region, rank, n, grid).tolist())]
        cols = ["rank", "n", "d", stat]
    return _simple_table(cols, rows), EXIT_OK


def _cmd_simulate(opts):
    episode = _take(opts, "protocol", "n", "q", "p", "include_request_slot")
    config = EpisodeConfig(region=_build_region(opts), **episode)
    seed, replications = opts["seed"], opts.get("replications", DEFAULT_REPLICATIONS)
    if opts["format"] == "records":  # the lines need no summary: one election per block
        lines = RecordBatch(config, replications, seed).lines()
        head = f"# toolkit_version = {__version__}\n# seed = {seed}\n"
        return head + "".join(f"{line}\n" for line in lines), EXIT_OK
    _, summary = run_episode_batch(config, replications, seed)
    rows = [(k, v) for k, v in summary.pmf.items()]
    rows.append(("mean", summary.mean_slots))
    rows.append(("variance", summary.var_slots))
    return _simple_table(["k_slots", "value"], rows, seed=seed), EXIT_OK


def _cmd_experiment(opts):
    if "experiment" not in opts:
        raise DomainError("an experiment id is required (--id or config file)")
    return _checked(run_experiment(ExperimentConfig(**opts)))


def _cmd_validate(opts):
    return _checked(validate_agreement(**opts))


def _checked(table):
    return table.to_csv(), EXIT_OK if table.passed else EXIT_VALIDATION


COMMANDS = {
    "pmf": (_cmd_pmf, "analytic slot-count PMF of a protocol"),
    "invert": (_cmd_invert, "contour inversion of a protocol PGF at one index"),
    "distance": (_cmd_distance, "neighbour-distance laws of a decision region"),
    "simulate": (_cmd_simulate, "run a batch of contention episodes"),
    "experiment": (_cmd_experiment, "run one experiment family"),
    "validate": (_cmd_validate, "full analytic-vs-simulation agreement suite"),
}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysel",
        description="Relay-election slot-count laws, decision-region geometry and simulation.",
    )
    parser.add_argument("--version", action="version", version=f"relaysel {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in COMMANDS.items():
        sub = subs.add_parser(command, help=text)
        for opt in options_of(command):
            store = {"action": "store_const", "const": True} if opt.convert is _flag else {"type": _Text}
            sub.add_argument(opt.flag, dest=opt.key, default=opt.default, required=opt.required, help=opt.help,
                             **store)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as it was built."""
    return build_parser()


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _options(args)
        out = opts.pop("out", None)
        text, code = COMMANDS[args.command][0](opts)  # looked up per call, so a rebound command is reached
        if out:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (DomainError, InfeasibleRegionError, OSError) as exc:
        error, code = exc, EXIT_USAGE
    except (ResourceLimitError, TruncationError) as exc:
        error, code = exc, EXIT_RESOURCE
    sys.stderr.write(f"error: {error}\n")
    return code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    sys.exit(cli_main())
