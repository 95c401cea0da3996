"""Command-line surface: golden outputs, determinism, exit codes."""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from datetime import timedelta
from math import inf, nan
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relaysel
from relaysel import cli, experiments, simulator
from relaysel.cli import (
    COMMANDS,
    CONFIG_KEYS,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_parser,
    cli_main,
    options_of,
)
from relaysel.experiments import EXPERIMENT_IDS, ExperimentConfig
from relaysel.geometry import LensRegion, SectorRegion
from relaysel.pgf import K_CAP


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pmf_golden_rows(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--protocol", "sta", "--n", "2")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "k_slots,probability"
    assert lines[1] == "3,0.5"
    assert lines[2] == "5,0.25"
    assert lines[3] == "7,0.125"


# tests/oracles.auction_mean_40(1000) and auction_mean_40(1000, skip=True),
# 40 digits each, computed once (~1.5 s apiece): the fair auctions' mean slot
# counts at n = 1,000
_AUCTION_MEANS_AT_1000 = {
    "auction": "11.87585656911026029090136702535544104307",
    "auction-skip": "11.46648873142815741900862504623280094122",
}


@pytest.mark.parametrize("protocol", sorted(_AUCTION_MEANS_AT_1000))
def test_pmf_builds_the_auctions_at_n_1000(capsys, protocol):
    from fractions import Fraction

    from relaysel import pgf

    pgf._held = None
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pmf", "--protocol", protocol, "--n", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK, err
    # the held family serves the series pmf printed
    est = pgf.moments(pgf.build_pgf(protocol.replace("-", "_"), pgf.SplitModel(1000)))
    assert abs(Fraction(est.mean) - Fraction(_AUCTION_MEANS_AT_1000[protocol])) <= est.mean_error


def test_pmf_auction_skip_alias(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--protocol", "auction-skip", "--n", "2")
    assert code == EXIT_OK
    assert "2,0.5" in out


def test_invert_agrees_with_direct_coefficient(capsys):
    code, out, _ = run_cli(capsys, "invert", "--protocol", "sta", "--n", "2", "--k", "5")
    assert code == EXIT_OK
    row = [l for l in out.splitlines() if not l.startswith(("#", "k_slots"))][0]
    _, estimate, _raw, direct = row.split(",")
    assert abs(float(estimate) - float(direct)) <= 1e-6
    assert float(direct) == 0.25


def test_distance_median_matches_root(capsys):
    code, out, _ = run_cli(
        capsys,
        "distance", "--region", "sdr", "--aperture", "3.14159265",
        "--rank", "1", "--of", "5", "--stat", "median",
    )
    assert code == EXIT_OK
    value = float(out.strip().splitlines()[-1].split(",")[-1])
    assert value == pytest.approx(0.35982, abs=1e-4)


def test_distance_ccdf_single_point(capsys):
    code, out, _ = run_cli(
        capsys,
        "distance", "--region", "cdr", "--rank", "1", "--of", "5",
        "--stat", "ccdf", "--d", "0.5",
    )
    assert code == EXIT_OK
    value = float(out.strip().splitlines()[-1].split(",")[-1])
    assert 0.0 < value < 1.0


def test_simulate_records_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--protocol", "auction", "--n", "3",
        "--reps", "4", "--seed", "11", "--format", "records",
    )
    assert code == EXIT_OK
    records = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(records) == 4
    for line in records:
        protocol, n, slots, dist, trace = line.split()
        assert protocol == "auction"
        assert int(n) == 3
        assert int(slots) == len(trace)
        assert trace[-1] == "S"
        assert 0.0 < float(dist) <= 1.0


def test_cli_output_files_are_bit_identical(tmp_path, capsys):
    args = [
        "validate", "--n", "2..3", "--reps", "2000", "--seed", "7",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(path_a)]) == EXIT_OK
    assert cli_main(args + ["--out", str(path_b)]) == EXIT_OK
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli_main([
        "experiment", "--id", "exp_dist_nearest", "--n", "2..3",
        "--reps", "3000", "--seed", "5", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith("#")
    assert "series,n," in text


def test_unknown_experiment_id_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "experiment", "--id", "nonsense")
    assert code == EXIT_USAGE


def test_validation_failure_exit_code(capsys, auction_law_on_skip_episodes):
    # the plain auction's law against idle-skip episodes fails every one of its
    # rows, and only those, at the derived gates
    code, out, _ = run_cli(capsys, "validate", "--n", "2..5", "--reps", "5000", "--seed", "7")
    assert code == EXIT_VALIDATION
    failed = [line.split()[2] for line in out.splitlines() if line.startswith("# FAIL")]
    assert failed == [f"tv:auction:{n}:" for n in range(2, 6)]
    rows = [line.split(",") for line in out.splitlines() if line.startswith(("tv:", "ks:"))]
    assert [label for label, _, _, passed in rows if passed == "0"] == [f"tv:auction:{n}" for n in range(2, 6)]


def test_validate_passes_correct_code_at_small_reps(capsys):
    code, out, _ = run_cli(capsys, "validate", "--n", "1..5", "--reps", "2000", "--seed", "7")
    assert code == EXIT_OK
    assert "# FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--id", "cri_pmf_sta", "--n", "2..x"],
        ["validate", "--n", "a,b"],
        ["simulate", "--protocol", "sta", "--n", "3", "--p", "0.3,x"],
        ["pmf", "--protocol", "sta", "--n", "3", "--p", "x"],
    ],
)
def test_malformed_range_or_coin_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error: malformed")


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--id", "iter_gain_nearest", "--n", "0"],
        ["experiment", "--id", "dist_pdf_sdr", "--n", "0"],
        ["experiment", "--id", "exp_dist_nearest", "--n", "0..2"],
        ["experiment", "--id", "progress_vs_cri_sta", "--n", "0..2"],
        ["validate", "--n", "2", "--distance-n", "0"],
    ],
)
def test_zero_distance_multiplicity_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--reps", "200")
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert out == ""


def test_domain_error_maps_to_usage_exit(capsys):
    code, _, err = run_cli(capsys, "pmf", "--protocol", "sta", "--n", "-3")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_resource_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "pmf", "--protocol", "sta", "--n", "400", "--q", "5")
    assert code == EXIT_RESOURCE
    assert "error:" in err


@pytest.mark.parametrize("protocol", ["auction", "auction-skip"])
def test_auction_beyond_the_work_limit_is_resource_exit(capsys, protocol):
    code, _, err = run_cli(capsys, "pmf", "--protocol", protocol, "--n", "100000")
    assert code == EXIT_RESOURCE
    assert "over the limit" in err


@pytest.mark.parametrize(
    "protocol,n,coin",
    [
        ("sta", 3, ["--p", "1.0"]),
        ("auction", 2, ["--p", "1.0"]),
        ("auction-skip", 2, ["--p", "1.0"]),
        ("auction-skip", 1, ["--q", "3", "--p", "0,0.5,0.5"]),
    ],
)
def test_coin_that_never_resolves_is_usage_error(capsys, protocol, n, coin):
    code, _, err = run_cli(
        capsys, "simulate", "--protocol", protocol, "--n", str(n), "--reps", "1", *coin
    )
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize("protocol", ["sta", "auction", "auction-skip"])
def test_a_sure_coin_is_refused_only_where_it_is_flipped(capsys, protocol):
    # fewer than two relays never collide, so the simulator, like the law,
    # takes one slot whatever the coin; two never split
    flags = ["simulate", "--protocol", protocol, "--p", "1,0", "--reps", "50"]
    for n in ("0", "1"):
        code, out, _ = run_cli(capsys, *flags, "--n", n)
        assert code == EXIT_OK
        assert out.splitlines()[-4:] == ["k_slots,value", "1,1.0", "mean,1.0", "variance,0.0"]
        code, out, _ = run_cli(capsys, *flags, "--n", n, "--format", "records")
        assert code == EXIT_OK
        slots = [line.split()[2] for line in out.splitlines() if not line.startswith("#")]
        assert slots == ["1"] * 50
        code, out, _ = run_cli(capsys, "pmf", "--protocol", protocol, "--p", "1,0", "--n", n)
        assert code == EXIT_OK and out.splitlines()[-1] == "1,1.0"
    code, out, err = run_cli(capsys, *flags, "--n", "2")
    assert code == EXIT_USAGE
    assert "never splits" in err and out == ""


@pytest.mark.parametrize("command", [["pmf"], ["invert", "--k", "3"]])
@pytest.mark.parametrize("protocol", ["sta", "auction", "auction-skip"])
def test_coin_that_never_splits_has_no_law(capsys, command, protocol):
    code, _, err = run_cli(capsys, *command, "--protocol", protocol, "--n", "3", "--p", "1.0")
    assert code == EXIT_USAGE
    assert "never splits" in err


@pytest.mark.parametrize("protocol", ["sta", "auction", "auction-skip"])
def test_nearly_degenerate_coin_is_resource_exit(capsys, protocol):
    for output in ("csv", "records"):
        code, out, err = run_cli(
            capsys, "simulate", "--protocol", protocol, "--n", "3", "--p", "0.9999999", "--reps", "1",
            "--format", output,
        )
        assert code == EXIT_RESOURCE
        assert "slots" in err and out == ""


@pytest.mark.parametrize("protocol", ["auction", "auction-skip"])
def test_nearly_degenerate_coin_spares_a_lone_relay(capsys, protocol):
    code, out, _ = run_cli(
        capsys, "simulate", "--protocol", protocol, "--n", "1", "--p", "0.9999999",
        "--reps", "20",
    )
    assert code == EXIT_OK
    assert "\n1,1.0\n" in out


def test_env_var_overrides_default_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RELAYSEL_SEED", "999")
    path_env = tmp_path / "env.csv"
    cli_main(["simulate", "--protocol", "sta", "--n", "2", "--reps", "50",
              "--out", str(path_env)])
    monkeypatch.delenv("RELAYSEL_SEED")
    path_explicit = tmp_path / "explicit.csv"
    cli_main(["simulate", "--protocol", "sta", "--n", "2", "--reps", "50",
              "--seed", "999", "--out", str(path_explicit)])
    capsys.readouterr()
    assert path_env.read_bytes() == path_explicit.read_bytes()


def test_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RELAYSEL_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "pmf", "--protocol", "sta", "--n", "2")
    assert code == EXIT_USAGE
    assert "RELAYSEL_SEED" in err


def test_biased_coin_flag(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--protocol", "sta", "--n", "2", "--p", "0.3")
    assert code == EXIT_OK
    rows = dict(
        (int(l.split(",")[0]), float(l.split(",")[1]))
        for l in out.splitlines()
        if l and not l.startswith(("#", "k_slots"))
    )
    # a biased pair separates with probability 2 p (1 - p) = 0.42
    assert rows[3] == pytest.approx(0.42, abs=1e-12)


def test_qary_flag_routes_to_multinomial_builder(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--protocol", "sta", "--n", "2", "--q", "3")
    assert code == EXIT_OK
    rows = dict(
        (int(l.split(",")[0]), float(l.split(",")[1]))
        for l in out.splitlines()
        if l and not l.startswith(("#", "k_slots"))
    )
    # three fair groups separate the pair with probability 2/3, in 4 slots
    assert rows[4] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == EXIT_OK
    assert "relaysel" in out


def test_experiment_accepts_config_file(tmp_path, capsys):
    config = {
        "experiment": "exp_dist_nearest",
        "n_values": [2, 3],
        "replications": 3000,
        "seed": 5,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out_file = tmp_path / "from_config.csv"
    code = cli_main(["experiment", "--config", str(cfg_path), "--out", str(out_file)])
    capsys.readouterr()
    assert code == EXIT_OK

    out_flags = tmp_path / "from_flags.csv"
    code = cli_main([
        "experiment", "--id", "exp_dist_nearest", "--n", "2..3",
        "--reps", "3000", "--seed", "5", "--out", str(out_flags),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    assert out_file.read_bytes() == out_flags.read_bytes()


def test_experiment_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"experiment": "exp_dist_nearest", "seed": 5,
                                    "n_values": [2], "replications": 2000}))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli_main(["experiment", "--config", str(cfg_path), "--out", str(a)])
    cli_main(["experiment", "--config", str(cfg_path), "--seed", "6", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "dist_pdf_sdr", "n_values": ["a"]},
        {"experiment": "cri_pmf_sta", "n_values": 3},
    ],
)
def test_malformed_config_n_values_is_usage_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path), "--reps", "200")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "n_values" in err
    assert out == ""


def test_experiment_without_id_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "experiment")
    assert code == EXIT_USAGE
    assert "error:" in err


def _subprocess_env():
    # a child interpreter imports this same relaysel source tree
    src = str(Path(relaysel.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs_the_cli(capsys):
    env = _subprocess_env()
    argv = ["simulate", "--protocol", "sta", "--n", "3", "--reps", "20", "--seed", "5"]
    done = subprocess.run(
        [sys.executable, "-m", "relaysel", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == EXIT_OK
    assert done.stdout == run_cli(capsys, *argv)[1]
    bad = subprocess.run(
        [sys.executable, "-m", "relaysel", "pmf", "--protocol", "sta", "--n", "3", "--p", "1.5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert bad.returncode == EXIT_USAGE
    assert "error:" in bad.stderr


def test_cli_import_leaves_out_scipy_signal_and_stats():
    # relaysel depends on numpy alone: neither importing the CLI nor running
    # the distance laws' mean and median, the slot-count checks or the
    # derived agreement gates loads any scipy module
    commands = [
        ["distance", "--region", "cdr", "--rank", "2", "--of", "5", "--stat", "mean"],
        ["distance", "--region", "sdr", "--rank", "2", "--of", "5", "--stat", "median"],
        ["experiment", "--id", "exp_dist_nearest", "--reps", "40000"],
        ["experiment", "--id", "iter_gain_nearest", "--reps", "40000"],
        ["experiment", "--id", "cri_pmf_auction", "--reps", "20000"],
        ["validate", "--reps", "2000"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from relaysel.cli import cli_main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print('import', scipy_modules())\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli_main(argv)\n"
        "    print(*argv[:3], code, scipy_modules())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_subprocess_env(), timeout=120
    )
    assert done.returncode == 0, done.stderr
    expected = ["import []"] + [f"{' '.join(argv[:3])} {EXIT_OK} []" for argv in commands]
    assert done.stdout.splitlines() == expected


# sha256 of `simulate --format records --seed 31` as the per-episode replay
# wrote it: (protocol, n, reps, extra flags, digest, digest of the elections
# alone, and the digest the case was first pinned under, which names it).
# The elections' digest strips each record's distance field: the distances
# moved in their last bits when separations stopped going through placed
# points (CHANGES.md lists every moved digest), and the elections did not.
RECORDS_GOLDEN = [
    ("sta", 4, 3000, [],
     "d777b2fdc84225560c98b60801c66f029a9f9e3a6a36236b660324472e463872",
     "3d8df1ee43fa053f8cfa5e0a88c1cbbc6b3dac0773c827a644213e7f0b42eed0",
     "6fee5a2cedbb6c15ad3436bbdc57708b55c6449ae3f18a14927f993324642bd7"),
    ("sta", 4, 3000, ["--region", "sdr"],
     "860e67e0e5ad2618b9f3120d7469fea085538accc9319eb589ca953ced774f21",
     "3d8df1ee43fa053f8cfa5e0a88c1cbbc6b3dac0773c827a644213e7f0b42eed0",
     "4e49dd46a720532f6cd14a3dde68eece088639ba052d41703063f608294a80f7"),
    ("sta", 5, 2000, ["--q", "3"],
     "cda1b8d8da543a1c12ade91f5efa29d66a038dd58e92a0eab61fa0e5946222be",
     "78114c90bdd45f8faf9d4a817ee9121f64ac74ff2a3277aa2b0476a00d108a32",
     "e3a2b4d0823e17be063b55777a953d4d80175d71bad8467d430f33643d6760a9"),
    ("sta", 5, 2000, ["--p", "0.3,0.7"],
     "15db9352ac2198725ce5977615b0fcbea54bd898cf092f24d09fd08eaa73de9d",
     "2cbd0bb3782d4eebdeb8db709af738175961a844ad486b3efeeae99a05dfde3f",
     "f98c20ca301e96ac1977bf636b83bb9995716f9c53697c3325bec2848f9dcdc8"),
    ("sta", 3, 2000, ["--count-request-slot"],
     "12fab42b8483d145538b2822988e52281303352833e4999eb07af1b1565961fc",
     "255dc48fb9059fc454afc7cdb086e202a5db10a00a4f5db53f4a7a6108ac2b9d",
     "b30ddc776c74f5362235a2f2120e3c3c41411b73aecd1ad380c0cfdff3a36ac7"),
    ("sta", 8, 9000, ["--region", "sdr"],
     "5d27dbc563e658a63ec85607a22cb0431c0d19eef65bcf66613746fc61e68017",
     "df8d1691e557e4f64fc99200b65b195d611cf25ed9965fdf15d59762763eb8e9",
     "4e1f8f1a3d3bc300bee2f58b385db6208557e5caae674b3b1532d542ef984d7a"),
    ("sta", 0, 50, [],
     "6cfc4a565cfa73095104c536e3d64b2ff3b41791ec5e3a14e40199b7a431655b",
     "709f02539f6ea4dd110a7a7c99c1c07985867dc69e54ca78d682b19dec9e72c2",
     "6cfc4a565cfa73095104c536e3d64b2ff3b41791ec5e3a14e40199b7a431655b"),
    ("sta", 1, 200, [],
     "e78d980906fe598b5c76b703adfecec244ba336fea4d525730a4a52e0534417e",
     "3fb29ba7221ea2eeb56452b3719617f124289c6c7a86b0f63a786836a1a58fea",
     "6551e8b1303956c427a85d58e648c0274f4eea325091c2f10569571b2fa88b6b"),
    ("auction", 4, 3000, [],
     "311fbe22dd6f15d015a4b1658148ed9bc6d3c22e915d019c066c6c8a5db4db33",
     "eaf50d805bc03918b12e9ea59dd903dfaa0ea20d290b3b5fea9c4696c35b61d3",
     "239a94d012de54caef74c5a1c03a76e4eddda921a9ebd7b687b83d9f4abfee98"),
    ("auction", 5, 2000, ["--q", "3"],
     "7c0d9606dc8b7ab4a622030f71b68278bdf2aee77ba752eeca16cd09891019e4",
     "212d647ecab91dcb210f1f6073c7cad2235cdf4a67f7cab6b9f90bf47f2c41d4",
     "159d008ec05393fff2cb166dd2291f214d87e90289e726fd71d9c2dbdedc4807"),
    ("auction", 5, 2000, ["--p", "0.3,0.7"],
     "b732660d98ab0922c8bfebf04cdf271c2a8a1cb02652b87eb7a8d344898a3705",
     "adbb2c267fb02f224192049b75c7ee6032e4d014d8efcb830ad1da4a7c6cf7ef",
     "6b191dc6f12761631360f17ca12e63eb94433569836720015f9193770a2c1338"),
    ("auction", 3, 2000, ["--count-request-slot"],
     "ceb0ce84c406b9ff70291b83c207b186838a196bc2f8ab7c9c07c7111c53bed6",
     "61f27584a43b329a67843e7dbba35020700654c50c20f7f88156937a1a174e78",
     "82d5992554c82cf7f7b2f6b96a09fddb470b673fa937cc98945d17b0e45b7122"),
    ("auction", 8, 9000, [],
     "56ecffdb803b2aef3c54936095a0d33da4e904ff39a5199d181c25529534cc69",
     "c033ef1a2f1ac8aa9164abff05e044ee868e0857f4e745b42892af66f653de35",
     "2bc2d1d263418f3d5169459b704523457d084cad58ab7644522b15063c125a9e"),
    ("auction", 0, 50, [],
     "6893f68c3b6e9500ebf4f399ec209eee2056340dafbbd23ce315f3314ab915eb",
     "15f21220319bcd292b38898c93b4deeb82d70939458f7245c8cb385572e57ce1",
     "6893f68c3b6e9500ebf4f399ec209eee2056340dafbbd23ce315f3314ab915eb"),
    ("auction", 1, 200, [],
     "d3c8753a9b07bb48b935db20390404888aa39fe617c843138547bfce3a076a47",
     "a16f1cff163cbcb59e7d23fe8c9ce10255a1d937336a710cba28200b58f965a2",
     "cd1bd14d4339eec39d0e7d661ce4a3c76b090c0bd0189a67cb3d67e6b80471b1"),
    ("auction-skip", 4, 3000, [],
     "24f3a5682828f235b248d77cde4c1e5609aeea08fb4a024bad801ab0e4e316d6",
     "10fe2140358a476956aaedae766ba309da7b5b0698a16327ac2315a532dad770",
     "3846a890b87b1f47c49d7f6965ad8dbae04f030099cc6c55fdfd0e0eb9ac7d50"),
    # the digest of the refused --q 3: the idle recut reads only p_0 = 1/3
    ("auction-skip", 5, 2000, ["--p", "0.3333333333333333,0.6666666666666667"],
     "e2c183cf6e65e49f3ec848b889158e403ea5e4b0b6d49795b711ea408e29a229",
     "b7b85698b41b57a6159316eaf0cba2a15cd60bc51311449e1f231d27cbb56ec7",
     "01910310944b32ff986a716e21903c8d83ec35ff241488063fb7722834490b56"),
    ("auction-skip", 5, 2000, ["--p", "0.3,0.7"],
     "36e4986c507515c64023cf5ecbccaf59d8bb6a1548b77194fae99dd7c91b473f",
     "47141b1b8565aeeae631172fe8a4efeddeb983640b5837ab2a988d49ead9b8dc",
     "0740e10f210ac6203b31e423255335b8940eda19b3c41957d7f73d963ce2b5ac"),
    ("auction-skip", 3, 2000, ["--count-request-slot"],
     "4ba7887730f23675860fc0d5f1d6ff64beeaf0310d909b231a3fede3379cc1c0",
     "3c7bf16cdfad58e625b02a40da888b35a1b5ee8928709b3550c5c6a88f5a6b1f",
     "5f1afa824a6fb7337dbbb0afcf586f5edc3c90e5cedfb078e5e776d782b5d6e3"),
    ("auction-skip", 0, 50, [],
     "09126b37402cbdfca5960ed4531d428412e4b3f730841a0ca84480f4e1f5138b",
     "7badd03a1051c698be32a9416c9b0d5a085b895f93ee5e39ad95e0916aa3e42f",
     "09126b37402cbdfca5960ed4531d428412e4b3f730841a0ca84480f4e1f5138b"),
    ("auction-skip", 1, 200, [],
     "6f0d94ab7db6804e224ef159eb9a2b9f55e20fe1687d1c3be2f0a1b473ba025c",
     "bf38da292651d629291186405b23d053cc521ce1228cb2641f47a8b834fff143",
     "34ef648c15c0672017e4ea3df26451c59723ddc61934c0cd1a18825c252a7f70"),
]


def _without_distances(records: str) -> str:
    """Record lines with their fourth field, the winner's distance, removed."""
    return "".join(
        line if line.startswith("#") else re.sub(r"^(\S+ \S+ \S+) \S+ ", r"\1 ", line)
        for line in records.splitlines(keepends=True)
    )


@pytest.mark.parametrize(
    "protocol,n,reps,extra,digest,elections",
    [row[:6] for row in RECORDS_GOLDEN],
    ids=[f"{p}-{n}-{reps}-extra{i}-{first}" for i, (p, n, reps, _, _, _, first) in enumerate(RECORDS_GOLDEN)],
)
def test_simulate_records_match_the_golden_digests(capsys, protocol, n, reps, extra, digest, elections):
    code, out, _ = run_cli(
        capsys, "simulate", "--protocol", protocol, "--n", str(n), "--reps", str(reps),
        "--seed", "31", "--format", "records", *extra,
    )
    assert code == EXIT_OK
    assert hashlib.sha256(_without_distances(out).encode()).hexdigest() == elections
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the analytic and distance-law outputs (run with --seed 31), as
# the code wrote them when the regions moved into the source's frame.  A
# change that moves these bits on purpose re-pins them and says so in
# CHANGES.md.
LAWS_GOLDEN = [
    ("pmf --protocol sta --n 5",
     "bc824b9f9f3da6f448f4b2072ce6194ced29d9843b92a6390758480ee69e56b2"),
    ("pmf --protocol sta --n 6 --q 3 --p 0.2,0.5,0.3",
     "21d8595fb568d66fcf3d6b9df234c032131b3ca2f7ad6ba9e74f1ec1168271b6"),
    ("pmf --protocol auction --n 5",
     "9b1e3367641f7e9f817dd5f2c763266ed5777fe4e290182f015e565d4726237f"),
    ("pmf --protocol auction-skip --n 5 --p 0.3",
     "9c9c4c6214cfba03a023383274461a47cdd1b3d4663fc41c4f91e42f70d869bf"),
    ("invert --protocol sta --n 5 --k 7",
     "6380a96642c78a8fd79990814d6f9bf7c3a89c24b6f198690f8b0adef2831ca1"),
    ("invert --protocol auction --n 4 --k 6 --radius 0.5",
     "efbe2bce204b913219dd12db5ecc56c0bf6535fb89678fb685b3b9e099b765fa"),
    ("invert --protocol auction-skip --n 5 --k 4",
     "93c2ae145742ba8990ce3c0816420338d25028fce172d6a35264bd0cef8c77b0"),
    # pinned before evaluate left np.polyval for its own Horner loop: the
    # first and last k of a fair coin, a biased one, a q = 3 tree and a radius
    ("invert --protocol sta --n 5 --k 1",
     "b14c8fdbda1559ba335e131bd7c6640cf954451f00b64b36067de422edc7edb9"),
    ("invert --protocol sta --n 5 --k 30",
     "65adae88ef8e99f5eaab55d539ee4382debbaecfcdb99ffdc899d031a55879a2"),
    ("invert --protocol auction --n 5 --p 0.3 --k 1",
     "7f0fd398f67362dc6bc23b928f080a8d5c36ecdc14bee9b21a71bb2ae0f581f8"),
    ("invert --protocol auction --n 5 --p 0.3 --k 30",
     "e19171a764d4235e7faa6f66ebd12f5306efb8c3020087fda08c0eeff5d572d4"),
    ("invert --protocol sta --n 6 --q 3 --k 1",
     "85808e19db46dd33e6c6a7d83a22a7d4a31a2fe83ab9573622874267d8395822"),
    ("invert --protocol sta --n 6 --q 3 --k 30",
     "c2b2f727b6180d8105be018163a04a9981ceef9a1db6d060ec17f199e01d610b"),
    ("invert --protocol auction-skip --n 5 --k 1 --radius 0.3",
     "afbcd6c68dd6d2f633c0f92c8ac00162bd799625a15d81fdb5b687dbb3429a28"),
    ("invert --protocol auction-skip --n 5 --k 30 --radius 0.3",
     "9aaf622cd31755f3fbdbfeca3ea1ba16bb9d74b9bf6bce39e195dd9953136db1"),
    ("distance --region cdr --rank 2 --of 5 --stat ccdf",
     "134f5261f3081bd6c37bce816955beea7459b59189687ae27f641b491da12e70"),
    ("distance --region cdr --rho 0.6 --rank 3 --of 4 --stat ccdf",
     "db95322c220882b7e588d18f485588cec577a4bacc5864b814f3d5065ec15be4"),
    ("distance --region sdr --rank 2 --of 5 --stat ccdf",
     "5fbdcce6819873ca021b96ee662a5a3bd7d5a2c1bbce7d34da07eeff19459c3e"),
    ("distance --region sdr --aperture 1.2 --rank 1 --of 3 --stat ccdf",
     "a581164d820c25782f7b3ef4d4b1eb5ed85ddd3d6d10a29efdaa1ece04002361"),
    ("distance --region cdr --rank 2 --of 5 --stat pdf",
     "957a99a6ad58c2cfc9e70c3bae59666149a6db4a80c4f8b31e0fe47358fc8ec2"),
    ("distance --region cdr --rho 0.6 --rank 3 --of 4 --stat pdf",
     "785c85e4ceeb36fcfc476355e7afb42b788b01496f77ce6fa74e1d69898dc096"),
    ("distance --region sdr --rank 2 --of 5 --stat pdf",
     "84e0b5f95ca2f229c217668c77ddedff00c646e88e79e0078348a57ce05643f0"),
    ("distance --region sdr --aperture 1.2 --rank 1 --of 3 --stat pdf",
     "8b77864d4d2e141ed040d8b8648ad6bfe2a8a5a11755b7f7750f9eee84be9175"),
    ("distance --region cdr --rank 2 --of 5 --stat mean",
     "eb8af255d15494a7b209726c546908817bd17eaecfb975feecfaaccbd5a8b80d"),
    ("distance --region cdr --rho 0.6 --rank 3 --of 4 --stat mean",
     "7f8ef02f7db55fc2ae336f48fd9776c8d056e61d932cdf3afef93c84a8ca9fc9"),
    ("distance --region sdr --rank 2 --of 5 --stat mean",
     "80db6e145f167953a529db75c63299fe9e0e8f00b6b6a580c2e4f3d79d8b08c8"),
    ("distance --region sdr --aperture 1.2 --rank 1 --of 3 --stat mean",
     "56a1c9d0e64de6c32058a77895c227098990ec73a9f59eb0d11191de948f6110"),
    ("distance --region cdr --rank 2 --of 5 --stat median",
     "92f288ba24683dcef370fc4aa46dce1f63054b14d850e2d9838b60975c732e88"),
    ("distance --region cdr --rho 0.6 --rank 3 --of 4 --stat median",
     "4c07ea42c84901e11efa5bb4d453c013e1f96699033a73fd467a9423f32d1de5"),
    ("distance --region sdr --rank 2 --of 5 --stat median",
     "154f00ecef43f778546fbb01b7469674b081eaaf52f401561406a498eac287d6"),
    ("distance --region sdr --aperture 1.2 --rank 1 --of 3 --stat median",
     "bd2bee94015f2f5a260ea0acac4332afed771a40017cfbc77751a9dcc46894c7"),
    ("experiment --id dist_pdf_sdr --n 2..4 --reps 2000",
     "a7c5254d3b8153068737ae0c04505b55b914779f301c8ab8bfdd1e4b9e1106d3"),
    ("experiment --id dist_pdf_cdr --n 2..4 --reps 2000",
     "788eb3efd5e394e63d443ea326e143e3272fd68521e940e7b668088e9df7bef3"),
    ("experiment --id iter_gain_nearest --n 2..4 --reps 2000",
     "a10c2fa9a3faa7701d93d78091ae9aca6001884f2c3b9f646212769d81d89810"),
    ("experiment --id iter_gain_furthest --n 2..4 --reps 2000",
     "3b4d9df2966b2c8156b63baa268cfd355922d9e995b92d977ea6de3924785b01"),
    ("experiment --id exp_dist_nearest --n 2..4 --reps 2000",
     "a5f6eec55377352d9077aceca82806fe723f6424b394305a9d435c097e23699f"),
    ("experiment --id exp_dist_furthest --n 2..4 --reps 2000",
     "d46699257c8e551509b8b1b46291661eaf11299ff84f2d52e740c2f26d5878df"),
    ("experiment --id dist_pdf_sdr --n 3..5 --reps 1000 --aperture 2.0",
     "ed13969a3f5d69dbed0282300c78d23f81b63be844d756a1009d989d7c4eff00"),
    ("experiment --id dist_pdf_cdr --n 3..5 --reps 1000 --rho 1.4",
     "e74de5dec35d54671109bace3ea3a87c1ab3e00fd9676837d5f2c47c3a20b7b3"),
    ("experiment --id exp_dist_furthest --n 3..5 --reps 1000 --rho 1.4",
     "d8f7a8e40618784f2353d790ae9a0b5cd282265c50fe4af765f761f5355a1ff4"),
    # pinned before validate and the families came to share one sizing rule
    # and one TV and KS cell: the simulated tables that no digest held
    ("validate --n 1..4 --reps 2000",
     "02c34c988067b0aaee333f91df01040dc555fe052aaa08267f4aa267c6a4fbd4"),
    ("experiment --id cri_pmf_sta --n 0..4 --reps 2000",
     "4442698b7b58dbb2c48abd498c2cf83d6469430ee382db6463bc31ac8c3eb8d4"),
    ("experiment --id cri_pmf_auction --n 2..4 --p 0.3 --reps 2000",
     "8c6c434cd0437c839c9dace7891ba30db9c67abc6fafbb47d88b4f8a84e509f2"),
    ("experiment --id iter_gain_nearest --n 3,5 --q 3 --reps 2000",
     "8a89364220f55c6e1b845cd7631c1c311002a65ddc5e5099df292fb6ae85a601"),
    ("experiment --id iter_gain_furthest --n 4 --rho 0.7 --reps 2000",
     "53756762a114ed179dd317043f4beaea393f34c8c8bda6f6e93033a970f136bd"),
    ("experiment --id progress_vs_cri_sta --n 2..4 --reps 2000",
     "2256d369430d3d375b469b6e29881b92d8274334d37a98b4959ae6fb8fc92641"),
    ("experiment --id progress_vs_cri_auction --n 2..4 --reps 2000",
     "6e3d61e5ac6e1a394f8e4a3087249abfa2ebc29e43d7afacf6cd2daaf2465fa6"),
]


@pytest.mark.parametrize("argv,digest", LAWS_GOLDEN, ids=[argv for argv, _ in LAWS_GOLDEN])
def test_laws_match_the_golden_digests(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split(), "--seed", "31")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_records_never_replay_an_episode(capsys, monkeypatch):
    def replay(*args):
        raise AssertionError("an episode was replayed")

    monkeypatch.setattr(simulator, "_walk_tree", replay)
    monkeypatch.setattr(simulator, "_walk_auction", replay)
    for protocol in ("sta", "auction", "auction-skip"):
        code, out, _ = run_cli(
            capsys, "simulate", "--protocol", protocol, "--n", "4", "--reps", "50",
            "--format", "records",
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 52


@pytest.mark.parametrize("output", ["csv", "records"])
def test_simulate_refuses_zero_replications_before_any_election(capsys, monkeypatch, output):
    def elect(*args):
        raise AssertionError("elected before the replications were checked")

    monkeypatch.setattr(simulator, "_elect", elect)
    code, out, err = run_cli(
        capsys, "simulate", "--protocol", "sta", "--n", "3", "--reps", "0", "--format", output
    )
    assert code == EXIT_USAGE
    assert "replication" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        *(["simulate", "--protocol", protocol, "--n", "5", "--reps", "300"]
          for protocol in ("sta", "auction", "auction-skip")),
        ["simulate", "--protocol", "sta", "--region", "sdr", "--n", "5", "--reps", "300"],
        ["experiment", "--id", "cri_pmf_auction", "--n", "2..4", "--reps", "300"],
        ["experiment", "--id", "cri_pmf_sta", "--n", "0..4", "--reps", "300"],
    ],
)
def test_slot_counts_are_summarized_without_measuring_a_separation(capsys, monkeypatch, argv):
    def separations(*args):
        raise AssertionError("a slot-only command measured a separation")

    monkeypatch.setattr(LensRegion, "separations", separations)
    monkeypatch.setattr(SectorRegion, "separations", separations)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err


@pytest.mark.parametrize("protocol", ["sta", "auction", "auction-skip"])
def test_simulate_records_elect_each_block_once(capsys, monkeypatch, protocol):
    # blocks of 40 relays hold 10 episodes of 4 relays: 35 episodes are 4 blocks
    monkeypatch.setattr(simulator, "_BLOCK_RELAYS", 40)
    calls = {"elections": 0, "separations": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(simulator, "_elect", counted("elections", simulator._elect))
    for region in (LensRegion, SectorRegion):
        monkeypatch.setattr(region, "separations", counted("separations", region.separations))
    code, out, _ = run_cli(
        capsys, "simulate", "--protocol", protocol, "--n", "4", "--reps", "35", "--format", "records"
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) == 2 + 35
    assert calls == {"elections": 4, "separations": 4}


def test_consecutive_calls_print_what_each_prints_alone(capsys, monkeypatch):
    # one parser serves every call of the process: no flag of one call leaks into the next
    argvs = [
        ["simulate", "--protocol", "sta", "--n", "3", "--reps", "40", "--count-request-slot", "--format", "records"],
        ["simulate", "--protocol", "sta", "--n", "3", "--reps", "40", "--format", "records"],
        ["pmf", "--protocol", "auction", "--n", "3", "--min-prob", "0.01"],
        ["pmf", "--protocol", "auction", "--n", "3"],
        ["experiment", "--id", "cri_pmf_auction", "--n", "2", "--reps", "200", "--skip"],
        ["experiment", "--id", "cri_pmf_auction", "--n", "2", "--reps", "200"],
        ["distance", "--rank", "1", "--of", "3", "--d", "0.5"],
    ]
    together = [run_cli(capsys, *argv) for argv in argvs]
    env = {**os.environ, "PYTHONPATH": str(Path(relaysel.__file__).resolve().parent.parent)}
    for argv, (code, out, err) in zip(argvs, together):
        alone = subprocess.run(
            [sys.executable, "-m", "relaysel", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv

    def pmf(opts):
        return "rebound\n", EXIT_OK

    monkeypatch.setitem(cli.COMMANDS, "pmf", (pmf, "rebound"))
    assert run_cli(capsys, "pmf", "--protocol", "sta", "--n", "2") == (EXIT_OK, "rebound\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--n", "2", "--reps", "300"],
        ["experiment", "--id", "dist_pdf_cdr", "--n", "3", "--reps", "300"],
        ["simulate", "--protocol", "sta", "--n", "4", "--reps", "50", "--format", "records"],
        ["simulate", "--protocol", "auction", "--n", "4", "--reps", "50", "--format", "records"],
        ["simulate", "--protocol", "sta", "--region", "sdr", "--n", "4", "--reps", "50", "--format", "records"],
    ],
)
def test_distances_are_measured_without_placing_a_point(capsys, monkeypatch, argv):
    def place(*args):
        raise AssertionError("a point was placed to measure a distance")

    monkeypatch.setattr(LensRegion, "place", place)
    monkeypatch.setattr(SectorRegion, "place", place)
    code, _, err = run_cli(capsys, *argv)
    assert code in (EXIT_OK, EXIT_VALIDATION), err


@pytest.mark.parametrize(
    "argv",
    [
        # C(1200, 599) and 600 C(1200, 600) exceed the float range: the float
        # sums of the distance laws would overflow converting them
        *(["distance", "--region", region, "--rank", "600", "--of", "1200", "--stat", stat]
          for region in ("sdr", "cdr") for stat in ("ccdf", "pdf", "mean")),
        ["distance", "--region", "sdr", "--rank", "1000", "--of", "2000", "--stat", "median"],
        ["distance", "--region", "cdr", "--rank", "1000", "--of", "2000", "--stat", "median"],
        ["experiment", "--id", "dist_pdf_cdr", "--n", "1200", "--reps", "10"],
        ["experiment", "--id", "dist_pdf_sdr", "--n", "1200", "--reps", "10"],
        ["experiment", "--id", "exp_dist_furthest", "--n", "1100", "--reps", "10"],
        ["validate", "--n", "2", "--distance-n", "1200", "--reps", "10"],
    ],
)
def test_a_binomial_beyond_the_float_range_is_refused_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_RESOURCE
    assert err.startswith("error:") and "float range" in err and out == ""
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        # the largest of each law's binomials still converts: these run as before
        ["distance", "--region", "sdr", "--rank", "1", "--of", "1200", "--stat", "ccdf", "--d", "0.5"],
        ["distance", "--region", "sdr", "--rank", "1029", "--of", "1030", "--stat", "pdf", "--d", "0.5"],
        ["experiment", "--id", "exp_dist_nearest", "--n", "1200", "--reps", "10"],
    ],
)
def test_a_binomial_within_the_float_range_is_admitted(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code in (EXIT_OK, EXIT_VALIDATION), err


# ---------------------------------------------------------------------------
# typed options: one table for flags and config keys


def _write_config(tmp_path, config) -> str:
    path = tmp_path / "run.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    return str(path)


@pytest.mark.parametrize(
    "config,key",
    [
        ({"experiment": "exp_dist_nearest", "seed": "a"}, "seed"),
        ({"experiment": "cri_pmf_sta", "p": 3}, "p"),
        ({"experiment": "cri_pmf_sta", "q": "3"}, "q"),
        ({"experiment": "cri_pmf_sta", "q": 2.5}, "q"),
        ({"experiment": "cri_pmf_sta", "r": "1"}, "r"),
        ({"experiment": "cri_pmf_sta", "n_values": ["2"]}, "n_values"),
        ({"experiment": "cri_pmf_sta", "r": float("nan")}, "r"),
        ({"experiment": "cri_pmf_sta", "replications": "x"}, "replications"),
        ({"experiment": "cri_pmf_sta", "replications": True}, "replications"),
        ({"experiment": "cri_pmf_sta", "replication": 200}, "replication"),
        ({"experiment": "cri_pmf_auction", "skip": "no"}, "skip"),
        ({"experiment": 3}, "experiment"),
        ("[1, 2]", "JSON object"),
        ("{not json", "not JSON"),
    ],
)
def test_malformed_or_unknown_config_key_is_usage_error(tmp_path, capsys, config, key):
    code, out, err = run_cli(capsys, "experiment", "--config", _write_config(tmp_path, config), "--reps", "200")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "config,flags",
    [
        ({"r": 1, "aperture": 3, "q": 2.0}, ["--r", "1", "--aperture", "3", "--q", "2"]),
        ({"n_values": "2..3", "p": "0.3"}, ["--n", "2,3", "--p", "0.3,0.7"]),
        ({"n_values": [2, 3], "rho": None, "skip": False}, ["--n", "2..3"]),
    ],
)
def test_config_keys_and_flags_make_the_same_table(tmp_path, capsys, config, flags):
    # one converter per option: a value means the same from either source,
    # config_hash included, and a null key is as good as absent
    base = ["experiment", "--id", "cri_pmf_auction", "--reps", "300", "--seed", "5"]
    code_a, from_config, _ = run_cli(capsys, *base, "--config", _write_config(tmp_path, config))
    code_b, from_flags, _ = run_cli(capsys, *base, *flags)
    assert code_a == code_b == EXIT_OK
    assert from_config == from_flags


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--gamma", "nan"], EXIT_USAGE),
        (["--gamma", "inf"], EXIT_USAGE),
        (["--gamma", "1e-300"], EXIT_USAGE),
        (["--gamma", "1e6"], EXIT_USAGE),
        (["--radius", "1e-300"], EXIT_USAGE),
        (["--k", "100000000"], EXIT_RESOURCE),
    ],
)
def test_inversion_outside_its_radius_or_length_is_refused(capsys, argv, code):
    flags = ["--protocol", "sta", "--n", "3", "--k", "5"]
    got, out, err = run_cli(capsys, "invert", *flags, *argv)
    assert got == code
    assert err.startswith("error:") and out == ""


def test_relay_count_above_the_cap_is_refused_at_once(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "simulate", "--protocol", "sta", "--n", "100000000", "--reps", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_RESOURCE
    assert err.startswith("error:") and out == ""
    assert peak < 2_000_000  # the parser's own allocations, and no relay


@pytest.mark.parametrize(
    "argv",
    [
        # 1.7M draws of 5 relays exceed the cap on points; the distance
        # sample that meets the cap runs only after the batches
        ["validate", "--n", "2..5", "--reps", "1700000"],
        ["experiment", "--id", "progress_vs_cri_sta", "--n", "5", "--reps", "1700000"],
        # a range's length is checked before its tuple is built
        ["validate", "--n", "1..1000000000"],
        ["experiment", "--id", "cri_pmf_sta", "--n", "0..1000000000"],
        # a range stays lazy, and the law at its largest n is refused first
        ["experiment", "--id", "cri_pmf_sta", "--n", "0..8388608", "--reps", "10"],
        ["validate", "--n", "2..400", "--reps", "10"],
        ["simulate", "--protocol", "sta", "--n", "2", "--reps", "1000000000000"],
        ["simulate", "--protocol", "sta", "--n", "2", "--reps", "1000000000000", "--format", "records"],
        # one rep, but every cell draws at least 500 rows, 500 x 8,388,608 relays at the top
        ["experiment", "--id", "exp_dist_nearest", "--n", "1..8388608", "--reps", "1"],
        # every cell fits, but 4 x 16,777 cells of 500 rows draw ~7e10 relays in all
        ["experiment", "--id", "exp_dist_nearest", "--n", "1..16777", "--reps", "1"],
        # past the auction's work limit, the furthest relay's distance law is refused first
        ["experiment", "--id", "progress_vs_cri_auction", "--n", "1295..1299", "--reps", "10"],
    ],
)
def test_oversize_work_is_refused_before_any_of_it(capsys, argv):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        elapsed = time.perf_counter() - start
        tracemalloc.stop()
    assert code == EXIT_RESOURCE
    assert err.startswith("error:") and out == ""
    assert elapsed < 1.0
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "argv",
    [
        # 187,500 rows in each of 4 cells at n = 2..5: 10.5M relays in all,
        # within the total bound, and no cell past the cap on points
        ["experiment", "--id", "exp_dist_nearest", "--n", "2..5", "--reps", "3000000"],
        ["experiment", "--id", "iter_gain_nearest", "--n", "5", "--reps", "2000000"],
        # dist_pdf draws the last multiplicity alone
        ["experiment", "--id", "dist_pdf_cdr", "--n", "10000,5", "--reps", "1000"],
    ],
)
def test_draws_within_both_limits_are_admitted(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert "# FAIL" not in out


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        # the skip auction's idle recut reads only p_0, so q > 2 has no model
        (["simulate", "--protocol", "auction-skip", "--n", "5", "--q", "3", "--p", "0.3,0.35,0.35"], EXIT_USAGE),
        # one episode's tree frontier would count 16,384 sub-groups of up to n / 2 groups
        (["simulate", "--protocol", "sta", "--n", "8388608", "--q", "16384"], EXIT_RESOURCE),
    ],
)
def test_episodes_outside_the_model_are_refused_before_any_work(capsys, argv, exit_code):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        elapsed = time.perf_counter() - start
        tracemalloc.stop()
    assert code == exit_code
    assert err.startswith("error:") and out == ""
    assert elapsed < 1.0
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--n", "2..400", "--reps", "10"],
        ["validate", "--n", "2..700", "--reps", "10", "--protocols", "auction,sta"],
        ["validate", "--n", "2..400", "--reps", "10", "--protocols", "auction,sta"],
        ["experiment", "--id", "cri_pmf_sta", "--n", "250..300", "--reps", "10"],
        ["experiment", "--id", "cri_pmf_auction", "--n", "1250..1350", "--reps", "10"],
        # (a wider range meets the family's total draws first)
        ["experiment", "--id", "progress_vs_cri_sta", "--n", "290..300", "--reps", "10"],
        # progress_vs_cri_auction's distance laws refuse n >= 1,030 first (see
        # test_oversize_work_is_refused_before_any_of_it), so the skip auction's
        # cap is met here
        ["experiment", "--id", "cri_pmf_auction", "--skip", "--n", "1295..1299", "--reps", "10"],
    ],
)
def test_a_range_past_the_work_limit_is_refused_before_any_batch(capsys, monkeypatch, argv):
    # each protocol's law at the range's largest n is built before its
    # smaller n, which are slices, and every law before any batch runs
    def no_batch(*args):
        raise AssertionError("a batch ran before the refusal")

    monkeypatch.setattr(experiments, "run_episode_batch", no_batch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_RESOURCE
    assert err.startswith("error:") and "over the limit" in err and out == ""
    assert time.perf_counter() - start < 1.0


def test_a_tree_at_the_largest_q_counts_collisions_not_slots(capsys):
    # one collision spends 1 + q = 16,385 slots; the cap of 30,000 slots
    # would refuse the pair's second one, the floor of n + 1 = 3 collisions does not
    code, out, err = run_cli(capsys, "simulate", "--protocol", "sta", "--n", "2", "--q", "16384", "--reps", "1000")
    assert code == EXIT_OK, err
    assert "k_slots,value\n16385," in out


def test_a_near_degenerate_coin_at_the_largest_q_notes_a_few_depths(capsys):
    # the pair stays crowded at nearly every depth: its 3 collisions are
    # refused after a block of 4 episodes notes 3 depths of 4 x 16,384
    # sub-groups, not the 14,999 depths (7.7 GB) of the binary tree's limit
    p = ",".join(["0.999999", "0.000001"] + ["0"] * (K_CAP - 2))
    argv = ["--protocol", "sta", "--n", "2", "--q", str(K_CAP), "--p", p, "--reps", "10", "--format", "records"]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "simulate", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_RESOURCE
    assert err.startswith("error: episode unresolved after 3 collisions") and out == ""
    assert peak < 10_000_000


@pytest.mark.parametrize("protocol", ["sta", "auction"])
def test_record_notes_past_their_budget_are_refused(capsys, protocol):
    # a pair at q = 2 stays crowded at nearly every depth or step: a block of
    # 32,768 episodes notes 0.5 MB a depth, 7.7 GB before the slot cap
    argv = ["--protocol", protocol, "--n", "2", "--p", "0.999999", "--reps", "40000", "--format", "records"]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "simulate", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_RESOURCE
    assert err.startswith(f"error: a block's record notes passed {simulator._NOTE_BYTES} bytes") and out == ""
    assert peak < 1.25 * simulator._NOTE_BYTES


def test_every_episode_field_is_set_by_a_simulate_option():
    # a field that no option sets is a dimension of the model nobody can reach
    fields = {f.name for f in dataclasses.fields(simulator.EpisodeConfig)} - {"region"}
    keys = {opt.key for opt in options_of("simulate")}
    assert fields <= keys, fields - keys


def test_every_traced_name_of_the_benchmark_resolves():
    # bench/spans.py rebinds these by getattr with no default, so a name
    # deleted here would break the traced benchmark
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, attr, *_ in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"relaysel.{module}"), attr)), (module, attr)


def test_each_subcommand_takes_exactly_its_table_entries():
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subs.choices) == set(COMMANDS)
    for command, sub in subs.choices.items():
        taken = [(a.option_strings, a.dest) for a in sub._actions if a.dest != "help"]
        assert taken == [([opt.flag], opt.key) for opt in options_of(command)], command


def test_every_settable_experiment_field_has_exactly_one_config_key():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    keys = [opt.key for opt in options_of("experiment") if opt.key in fields]
    assert sorted(keys) == sorted(set(keys)) == sorted(CONFIG_KEYS)
    assert fields - set(CONFIG_KEYS) == set()  # an option sets every field


def test_readme_lists_every_config_key_with_its_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for key, opt in CONFIG_KEYS.items():
        assert f"| `{key}` | `{opt.flag}` |" in readme, key


# The fuzz: generated argv and config files, every one of which must end in a
# documented exit with no traceback.  Half the examples are clean, each value
# of its option's type and range; in the others a value is junk one time in
# three.  Multiplicities stay at most 8 and replications at most 200; only k,
# q and a simulated n take huge values, whose refusals allocate nothing.  Near
# the caps, a simulation's command line may split it into K_CAP or K_CAP - 1
# groups, with at most 10 replications, and a range may end just past the tree's work limit (it
# builds up to n = 279): the law-building commands refuse such a range before
# any batch, and the distance families, which build no law, sample it.
_NON_NUMERIC = st.text(alphabet="abxyz_-. ,", max_size=6)
_FRACTIONAL = st.one_of(
    st.integers(-10**6, 10**6).map(lambda i: i + 0.5), st.sampled_from([nan, inf, -inf, 1e-300])
)
_JUNK = st.one_of(
    st.integers(-3, 0),
    st.recursive(
        st.one_of(_NON_NUMERIC, st.none(), st.booleans(), _FRACTIONAL),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NON_NUMERIC, inner, max_size=2),
        max_leaves=5,
    ),
)
_EDGES = st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308, -0.0, -1.0])
_REAL = st.one_of(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0), _EDGES)
_HUGE = st.integers(simulator.MAX_POINTS + 1, 10**30)
_PROTOCOL = st.sampled_from(["sta", "auction", "auction-skip", "auction_skip"])
_CAP_Q = st.sampled_from([K_CAP - 1, K_CAP])
_CAP_REPS = 10
# at most 8 multiplicities, the largest past the tree's limit
_PAST_THE_WORK_LIMIT = st.integers(280, 320).flatmap(
    lambda hi: st.integers(hi - 7, hi).map(lambda lo: f"{lo}..{hi}")
)

_VALUES = {
    "protocol": _PROTOCOL,
    "experiment": st.sampled_from(EXPERIMENT_IDS),
    "n": st.integers(0, 8),
    "n_values": st.one_of(
        st.lists(st.integers(1, 8), min_size=1, max_size=3),
        st.tuples(st.integers(0, 8), st.integers(0, 8)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    ),
    "q": st.one_of(st.integers(2, 4), st.integers(2, 4), _HUGE),
    "p": st.one_of(
        st.sampled_from([0.3, 0.5, [0.2, 0.3, 0.5], [0.6, 0.4]]), st.lists(_REAL, min_size=1, max_size=3)
    ),
    "min_prob": _REAL,
    "k": st.one_of(st.integers(1, 30), _HUGE),
    "gamma": _REAL,
    "region": st.sampled_from(["sdr", "cdr"]),
    "r": _REAL,
    "rho": _REAL,
    "aperture": _REAL,
    "rank": st.integers(1, 8),
    "n_points": st.integers(1, 8),
    "stat": st.sampled_from(["ccdf", "pdf", "mean", "median"]),
    "d": _REAL,
    "replications": st.integers(1, 200),
    "format": st.sampled_from(["csv", "records"]),
    "include_request_slot": st.booleans(),
    "skip": st.booleans(),
    "protocols": st.lists(_PROTOCOL, min_size=1, max_size=3).map(",".join),
    "distance_n": st.integers(1, 8),
    "seed": st.integers(-5, 10**30),
    "out": st.just("/nonexistent-relaysel-dir/out.csv"),
}


def _value(draw, key, command, dirty):
    if dirty and key != "out" and draw(st.sampled_from([False, False, True])):
        return draw(_JUNK)
    if key == "n" and command in ("simulate", "pmf", "invert"):
        return draw(st.one_of(_VALUES["n"], _HUGE))
    if key == "n_values":
        return draw(st.one_of(_VALUES["n_values"], _PAST_THE_WORK_LIMIT))
    return draw(_VALUES[key])


def _as_text(value) -> str:
    if isinstance(value, list):
        return ",".join(_as_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    dirty = draw(st.booleans())
    argv, config = [command], None
    for opt in options_of(command):
        # replications are always given: their default is far more than 200
        if not (opt.required or opt.key in ("experiment", "replications") or draw(st.booleans())):
            continue
        if opt.key == "config":
            keys = draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), unique=True, max_size=5))
            config = {key: _value(draw, key, command, dirty) for key in keys}
            if dirty and draw(st.booleans()):
                config["replication"] = 200
        elif opt.convert is cli._flag:
            argv.append(opt.flag)
        elif opt.key == "q" and command == "simulate" and draw(st.booleans()):
            argv.append(f"{opt.flag}={draw(_CAP_Q)}")  # never from a config file, whose reps reach 200
        elif opt.key == "replications" and {f"--q={K_CAP - 1}", f"--q={K_CAP}"} & set(argv):
            argv.append(f"{opt.flag}={draw(st.integers(1, _CAP_REPS))}")
        else:
            argv.append(f"{opt.flag}={_as_text(_value(draw, opt.key, command, dirty))}")
    if dirty and draw(st.sampled_from([False] * 9 + [True])):
        argv.append("--bogus=1")
    return argv, config


@settings(max_examples=300, deadline=timedelta(seconds=30), suppress_health_check=[HealthCheck.too_slow])
@given(invocation=_invocations())
def test_fuzzed_invocations_end_in_a_documented_exit(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = [*argv, f"--config={path}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RESOURCE), (argv, config)
    assert "Traceback" not in err.getvalue()
    if code in (EXIT_USAGE, EXIT_RESOURCE):
        assert err.getvalue().startswith(("error:", "usage:")), err.getvalue()
