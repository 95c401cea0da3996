"""Command-line surface: golden outputs, determinism, exit codes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaysel
from relaysel import simulator
from relaysel.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VALIDATION, cli_main


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
        "--tv-threshold", "0.08", "--ks-threshold", "0.08",
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


def test_validation_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate", "--n", "2", "--reps", "300", "--protocols", "sta",
        "--tv-threshold", "0.000001",
    )
    assert code == EXIT_VALIDATION
    assert "# FAIL" in out


def test_domain_error_maps_to_usage_exit(capsys):
    code, _, err = run_cli(capsys, "pmf", "--protocol", "sta", "--n", "-3")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_resource_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "pmf", "--protocol", "sta", "--n", "400", "--q", "5")
    assert code == EXIT_RESOURCE
    assert "error:" in err


@pytest.mark.parametrize(
    "protocol,n,coin",
    [
        ("sta", 3, ["--p", "1.0"]),
        ("auction", 1, ["--p", "1.0"]),
        ("auction-skip", 1, ["--p", "1.0"]),
        ("auction-skip", 1, ["--q", "3", "--p", "0,0.5,0.5"]),
    ],
)
def test_coin_that_never_resolves_is_usage_error(capsys, protocol, n, coin):
    code, _, err = run_cli(
        capsys, "simulate", "--protocol", protocol, "--n", str(n), "--reps", "1", *coin
    )
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize("command", [["pmf"], ["invert", "--k", "3"]])
@pytest.mark.parametrize("protocol", ["sta", "auction", "auction-skip"])
def test_coin_that_never_splits_has_no_law(capsys, command, protocol):
    code, _, err = run_cli(capsys, *command, "--protocol", protocol, "--n", "3", "--p", "1.0")
    assert code == EXIT_USAGE
    assert "never splits" in err


@pytest.mark.parametrize("protocol", ["sta", "auction", "auction-skip"])
def test_nearly_degenerate_coin_is_resource_exit(capsys, protocol):
    code, _, err = run_cli(
        capsys, "simulate", "--protocol", protocol, "--n", "3", "--p", "0.9999999", "--reps", "1"
    )
    assert code == EXIT_RESOURCE
    assert "slots" in err


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
    import json

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
    import json

    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"experiment": "exp_dist_nearest", "seed": 5,
                                    "n_values": [2], "replications": 2000}))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli_main(["experiment", "--config", str(cfg_path), "--out", str(a)])
    cli_main(["experiment", "--config", str(cfg_path), "--seed", "6", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


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
    # the distance laws' mean and median loads any scipy module
    commands = [
        ["distance", "--region", "cdr", "--rank", "2", "--of", "5", "--stat", "mean"],
        ["distance", "--region", "sdr", "--rank", "2", "--of", "5", "--stat", "median"],
        ["experiment", "--id", "exp_dist_nearest", "--reps", "40000"],
        ["experiment", "--id", "iter_gain_nearest", "--reps", "40000"],
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
# wrote it: (protocol, n, reps, extra flags, digest)
RECORDS_GOLDEN = [
    ("sta", 4, 3000, [],
     "6fee5a2cedbb6c15ad3436bbdc57708b55c6449ae3f18a14927f993324642bd7"),
    ("sta", 4, 3000, ["--region", "sdr"],
     "4e49dd46a720532f6cd14a3dde68eece088639ba052d41703063f608294a80f7"),
    ("sta", 5, 2000, ["--q", "3"],
     "e3a2b4d0823e17be063b55777a953d4d80175d71bad8467d430f33643d6760a9"),
    ("sta", 5, 2000, ["--p", "0.3,0.7"],
     "f98c20ca301e96ac1977bf636b83bb9995716f9c53697c3325bec2848f9dcdc8"),
    ("sta", 3, 2000, ["--count-request-slot"],
     "b30ddc776c74f5362235a2f2120e3c3c41411b73aecd1ad380c0cfdff3a36ac7"),
    ("sta", 8, 9000, ["--region", "sdr"],
     "4e1f8f1a3d3bc300bee2f58b385db6208557e5caae674b3b1532d542ef984d7a"),
    ("sta", 0, 50, [],
     "6cfc4a565cfa73095104c536e3d64b2ff3b41791ec5e3a14e40199b7a431655b"),
    ("sta", 1, 200, [],
     "6551e8b1303956c427a85d58e648c0274f4eea325091c2f10569571b2fa88b6b"),
    ("auction", 4, 3000, [],
     "239a94d012de54caef74c5a1c03a76e4eddda921a9ebd7b687b83d9f4abfee98"),
    ("auction", 5, 2000, ["--q", "3"],
     "159d008ec05393fff2cb166dd2291f214d87e90289e726fd71d9c2dbdedc4807"),
    ("auction", 5, 2000, ["--p", "0.3,0.7"],
     "6b191dc6f12761631360f17ca12e63eb94433569836720015f9193770a2c1338"),
    ("auction", 3, 2000, ["--count-request-slot"],
     "82d5992554c82cf7f7b2f6b96a09fddb470b673fa937cc98945d17b0e45b7122"),
    ("auction", 8, 9000, [],
     "2bc2d1d263418f3d5169459b704523457d084cad58ab7644522b15063c125a9e"),
    ("auction", 0, 50, [],
     "6893f68c3b6e9500ebf4f399ec209eee2056340dafbbd23ce315f3314ab915eb"),
    ("auction", 1, 200, [],
     "cd1bd14d4339eec39d0e7d661ce4a3c76b090c0bd0189a67cb3d67e6b80471b1"),
    ("auction-skip", 4, 3000, [],
     "3846a890b87b1f47c49d7f6965ad8dbae04f030099cc6c55fdfd0e0eb9ac7d50"),
    ("auction-skip", 5, 2000, ["--q", "3"],
     "01910310944b32ff986a716e21903c8d83ec35ff241488063fb7722834490b56"),
    ("auction-skip", 5, 2000, ["--p", "0.3,0.7"],
     "0740e10f210ac6203b31e423255335b8940eda19b3c41957d7f73d963ce2b5ac"),
    ("auction-skip", 3, 2000, ["--count-request-slot"],
     "5f1afa824a6fb7337dbbb0afcf586f5edc3c90e5cedfb078e5e776d782b5d6e3"),
    ("auction-skip", 0, 50, [],
     "09126b37402cbdfca5960ed4531d428412e4b3f730841a0ca84480f4e1f5138b"),
    ("auction-skip", 1, 200, [],
     "34ef648c15c0672017e4ea3df26451c59723ddc61934c0cd1a18825c252a7f70"),
]


@pytest.mark.parametrize("protocol,n,reps,extra,digest", RECORDS_GOLDEN)
def test_simulate_records_match_the_golden_digests(capsys, protocol, n, reps, extra, digest):
    code, out, _ = run_cli(
        capsys, "simulate", "--protocol", protocol, "--n", str(n), "--reps", str(reps),
        "--seed", "31", "--format", "records", *extra,
    )
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
