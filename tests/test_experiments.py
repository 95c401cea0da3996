"""Figure-family experiment tables: content, diagnostics, reproducibility."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysel import experiments, pgf, simulator
from relaysel.errors import DomainError, ResourceLimitError
from relaysel.experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    format_rows,
    run_experiment,
    validate_agreement,
)
from relaysel.geometry import (
    LensRegion,
    SectorRegion,
    nth_neighbor_ccdf,
    sample_sorted_separations,
    sample_topology,
)
from relaysel.pgf import SplitModel, build_pgf

from oracles import sta_slot_mass
from test_geometry import regions


def small(experiment, **kw):
    defaults = dict(
        experiment=experiment,
        n_values=(2, 3),
        replications=20_000,
        seed=31,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_unknown_experiment_id_is_rejected():
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="cri_pmf_everything")


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="cri_pmf_sta", r=-1.0)
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="cri_pmf_sta", replications=0)
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="cri_pmf_sta", n_values=())


def test_pmf_experiment_pairs_analytic_and_empirical():
    table = run_experiment(small("cri_pmf_sta"))
    assert table.columns == ["n", "k_slots", "analytic_pmf", "empirical_pmf"]
    assert table.passed, table.failures
    by_n = {}
    for n, k, analytic, empirical in table.rows:
        by_n.setdefault(n, 0.0)
        by_n[n] += analytic
    for n, mass in by_n.items():
        assert mass >= 0.999  # analytic column truncated at the 0.999 quantile


def test_pmf_experiment_matches_anchor_values():
    # four initial contenders: the splitting tree resolves in nine slots with
    # probability exactly 69/256
    table = run_experiment(small("cri_pmf_sta", n_values=(4,), replications=1000))
    sta_at_9 = {(n, k): a for n, k, a, _ in table.rows}[(4, 9)]
    assert sta_slot_mass(4, 9) * 256 == 69
    assert sta_at_9 == pytest.approx(float(sta_slot_mass(4, 9)), abs=1e-12)


def test_distance_experiment_has_ccdf_column():
    table = run_experiment(small("dist_pdf_cdr", n_values=(5,), replications=50_000))
    assert table.passed, table.failures
    assert table.columns[-1] == "analytic_ccdf"
    ranks = {row[0] for row in table.rows}
    assert ranks == {1, 2, 3, 4, 5}


def test_exp_dist_nearest_monotonicity_diagnostics():
    table = run_experiment(
        small("exp_dist_nearest", n_values=(2, 4, 6), replications=30_000)
    )
    assert table.passed, table.failures
    series = {row[0] for row in table.rows}
    assert series == {"sdr", "cdr_round1", "cdr_round2", "cdr_round3"}
    # analytic means: the later the round, the further the nearest relay
    means = {
        (row[0], row[1]): row[2] for row in table.rows
    }
    for n in (2, 4, 6):
        assert means[("cdr_round1", n)] < means[("cdr_round2", n)] < means[("cdr_round3", n)]


def test_exp_dist_single_contender_matches_closed_form():
    cfg = ExperimentConfig(
        experiment="exp_dist_nearest",
        n_values=(1,),
        aperture=math.pi,
        replications=20_000,
        seed=8,
    )
    table = run_experiment(cfg)
    sdr_row = next(r for r in table.rows if r[0] == "sdr")
    assert sdr_row[2] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_progress_experiment_links_cri_to_distance():
    table = run_experiment(small("progress_vs_cri_auction", n_values=(2, 3, 4)))
    assert table.passed, table.failures
    cri = {row[0]: row[2] for row in table.rows}
    assert cri[2] < cri[3] < cri[4]
    labels = {row[1] for row in table.rows}
    assert labels == {"nearest", "second_furthest", "furthest"}


@pytest.mark.parametrize("experiment", ["progress_vs_cri_sta", "progress_vs_cri_auction"])
def test_progress_tables_gate_their_sampled_mean_distances(monkeypatch, experiment):
    cfg = ExperimentConfig(experiment=experiment, n_values=(2, 3, 4), replications=4000, seed=5)
    table = run_experiment(cfg)
    assert table.passed, table.failures
    sample = experiments.sample_sorted_separations

    def nearer(*args):  # every sampled distance 5% short of its law
        return 0.95 * sample(*args)

    monkeypatch.setattr(experiments, "sample_sorted_separations", nearer)
    table = run_experiment(cfg)
    assert not table.passed
    assert all(f.startswith("dist_z_n") for f in table.failures), table.failures


def test_iter_gain_round_means_strictly_increase():
    table = run_experiment(small("iter_gain_nearest", n_values=(5,), replications=30_000))
    means = table.diagnostics["round_means"]
    assert means[0] < means[1] < means[2]


def test_every_experiment_id_dispatches():
    for ex in EXPERIMENT_IDS:
        cfg = ExperimentConfig(
            experiment=ex,
            n_values=(2, 3),
            replications=2000,
            seed=17,
        )
        table = run_experiment(cfg)
        assert table.rows
        assert table.provenance["config_hash"]


def test_tables_are_reproducible_bit_for_bit():
    cfg = small("cri_pmf_auction", n_values=(3,), replications=5000)
    first = run_experiment(cfg).to_csv()
    second = run_experiment(cfg).to_csv()
    assert first == second


def test_table_csv_embeds_provenance():
    cfg = small("cri_pmf_sta", n_values=(2,), replications=2000)
    text = run_experiment(cfg).to_csv()
    assert f"# seed = {cfg.seed}" in text
    assert f"# config_hash = {cfg.config_hash()}" in text
    assert "# toolkit_version = 0.1.0" in text


def test_failing_diagnostic_marks_table(auction_law_on_skip_episodes):
    # the plain auction's law against idle-skip episodes: every row must fail
    table = run_experiment(small("cri_pmf_auction", n_values=(2, 3, 4, 5), replications=5000))
    assert not table.passed
    assert [f.split(":")[0] for f in table.failures] == ["tv_n2", "tv_n3", "tv_n4", "tv_n5"]
    assert "# FAIL tv_n2" in table.to_csv()


def test_every_protocol_list_is_the_pgf_one():
    assert simulator.PROTOCOLS is pgf.PROTOCOLS
    assert inspect.signature(validate_agreement).parameters["protocols"].default is pgf.PROTOCOLS


def test_no_experiment_draws_from_a_numpy_generator(monkeypatch):
    # with int seeds every relay comes from the counter-addressed streams;
    # Generator's methods cannot be patched, so building one is refused
    def refused(*args, **kwargs):
        raise AssertionError("a numpy Generator was built")

    class NoGenerator:
        __init__ = refused

    monkeypatch.setattr(np.random, "default_rng", refused)
    monkeypatch.setattr(np.random, "Generator", NoGenerator)
    for experiment in EXPERIMENT_IDS:
        cfg = ExperimentConfig(experiment=experiment, n_values=(2, 3), replications=500, seed=9)
        assert run_experiment(cfg).rows
    assert validate_agreement(n_values=(2,), replications=500, seed=9).rows
    for region in (LensRegion(), SectorRegion()):
        assert sample_sorted_separations(region, 3, 50, 9).shape == (50, 3)
        assert len(sample_topology(region, 3, 9).relays) == 3


def test_validate_agreement_reports_every_check():
    table = validate_agreement(n_values=(2,), replications=5000, seed=3)
    checks = {row[0] for row in table.rows}
    assert "tv:sta:2" in checks
    assert "tv:auction:2" in checks
    assert "tv:auction_skip:2" in checks
    assert "ks:sdr:rank1" in checks
    assert "ks:cdr:rank5" in checks
    assert table.passed, table.failures


def test_derived_gates_follow_the_stated_alpha():
    # DKW at 100k samples and alpha 1e-3: sqrt(ln(2000) / 200000)
    assert experiments._ks_gate(100_000, 1e-3) == pytest.approx(0.0061648, abs=1e-7)
    assert experiments._ks_gate(400_000, 1e-3) == pytest.approx(0.0061648 / 2, abs=1e-7)
    # the two-sided normal quantile: erfc(z / sqrt 2) = alpha
    for alpha, z in ((0.05, 1.959963984540054), (1e-3, 3.290526731491926), (1e-9, 6.109410204869)):
        assert experiments._z_gate(alpha) == pytest.approx(z, rel=1e-12)
    # one statistical row more shrinks every row's share of ALPHA
    checks = experiments._Checks()
    checks.ks("a", 0.0, 1000)
    alone = checks.verdicts()[0][2]
    checks.ks("b", 0.0, 1000)
    assert checks.verdicts()[0][2] == pytest.approx(experiments._ks_gate(1000, experiments.ALPHA / 2))
    assert checks.verdicts()[0][2] > alone
    checks.require(False, "exact")
    assert len(checks.verdicts()) == 2  # exact checks take no share of ALPHA


def test_tv_gate_shrinks_with_samples_and_grows_with_confidence():
    series = build_pgf("sta", SplitModel(3))
    gate = experiments._tv_gate(2000, series, 1e-3)
    assert experiments._tv_gate(8000, series, 1e-3) < gate
    assert experiments._tv_gate(2000, series, 1e-6) > gate
    # every cell up to the cut and one pooled tail: sqrt(2 (K ln 2 + ln 1000) / N) / 2 + slack
    cut = series.truncation_index(0.999)
    t = math.sqrt(2.0 * ((cut + 2) * math.log(2.0) + math.log(1e3)) / 2000)
    tail = 1.0 - float(series.cdf()[cut])
    assert gate == pytest.approx(0.5 * t + tail + 0.0005, abs=1e-8)


@pytest.mark.parametrize("experiment", [ex for ex in EXPERIMENT_IDS if not ex.startswith("cri_pmf")])
def test_distance_families_reject_zero_relays_before_any_work(experiment):
    with pytest.raises(DomainError):
        ExperimentConfig(experiment=experiment, n_values=(0,))
    with pytest.raises(DomainError):
        ExperimentConfig(experiment=experiment, n_values=(0, 1, 2))


@pytest.mark.parametrize(
    "experiment, fits, refused",
    [
        # at least 500 rows per cell, 1,000 per round, 1,000 per multiplicity
        ("exp_dist_nearest", (16777,), (16778,)),
        # a range's largest cell alone: 1..16777 fits it, but not the total draws
        ("exp_dist_nearest", range(1, 183), range(1, 8388609)),
        ("iter_gain_nearest", (9000, 8388), (2, 8389)),
        # the furthest relay's distance law refuses n = 8,388 itself
        ("progress_vs_cri_sta", None, (8389,)),
    ],
)
def test_distance_families_refuse_their_largest_cell_before_any_sampling(experiment, fits, refused):
    if fits is not None:
        ExperimentConfig(experiment=experiment, n_values=fits, replications=1)
    with pytest.raises(ResourceLimitError, match="draws of"):
        ExperimentConfig(experiment=experiment, n_values=refused, replications=1)


@pytest.mark.parametrize(
    "experiment, fits, refused",
    [
        # 500 rows of 4 cells at each n: 500 x 4 x (1 + ... + 182) <= 4 x MAX_POINTS < ... + 183
        ("exp_dist_nearest", (16777,), range(1, 184)),
        ("exp_dist_furthest", range(1, 183), range(1, 16778)),
        ("exp_dist_nearest", range(1, 183), range(16777, 0, -100)),
        # 1,000 rows of a separation draw and an episode batch at each n
        ("progress_vs_cri_sta", range(1, 183), range(1, 184)),
        ("progress_vs_cri_auction", (2, 3, 4), (8000, 8000, 8000)),
    ],
)
def test_distance_families_refuse_their_total_draws_before_any_sampling(experiment, fits, refused):
    ExperimentConfig(experiment=experiment, n_values=fits, replications=1)
    with pytest.raises(ResourceLimitError, match="relays in all"):
        ExperimentConfig(experiment=experiment, n_values=refused, replications=1)


def test_a_range_is_summed_from_its_ends():
    for values in (range(1, 184), range(16777, 0, -100), range(5, 6), range(3, 50, 7)):
        assert experiments._total(values) == sum(values)
    # a range far too long to walk
    assert experiments._total(range(1, 10**15 + 1)) == 10**15 * (10**15 + 1) // 2


@pytest.mark.parametrize("experiment", [ex for ex in EXPERIMENT_IDS if not ex.startswith("cri_pmf")])
def test_distance_families_draw_the_rows_they_are_checked_for(monkeypatch, experiment):
    cfg = ExperimentConfig(experiment=experiment, n_values=(2, 3), replications=20_000)

    class Drawn(Exception):
        pass

    def record(*args):
        raise Drawn(args[2] if len(args) == 4 else args[1])

    monkeypatch.setattr(experiments, "sample_sorted_separations", record)
    monkeypatch.setattr(experiments, "run_episode_batch", record)
    with pytest.raises(Drawn) as drawn:
        run_experiment(cfg)
    assert drawn.value.args[0] == cfg.rows_per_cell()


def test_slot_count_families_and_validate_accept_zero_contenders(monkeypatch):
    table = run_experiment(ExperimentConfig(experiment="cri_pmf_sta", n_values=(0, 1), replications=200))
    assert table.passed, table.failures
    table = validate_agreement(n_values=(0,), replications=200, protocols=("sta",), distance_n=1)
    assert [row[0] for row in table.rows] == ["tv:sta:0", "ks:sdr:rank1", "ks:cdr:rank1"]

    def no_work(*args, **kwargs):
        raise AssertionError("sampled before the distance multiplicity was checked")

    monkeypatch.setattr(experiments, "run_episode_batch", no_work)
    with pytest.raises(DomainError):
        validate_agreement(n_values=(2,), replications=200, distance_n=0)


def test_validate_hash_covers_every_input():
    base = dict(n_values=(2,), replications=200, seed=3, protocols=("sta",), distance_n=2)

    def digest(**changes):
        return validate_agreement(**{**base, **changes}).provenance["config_hash"]

    first = digest()
    assert digest() == first
    assert digest(protocols=("sta", "auction")) != first
    assert digest(distance_n=3) != first
    assert digest(seed=4) != first


def test_rows_format_floats_by_repr_and_the_rest_by_str():
    # a float subclass keeps its own repr, as a numpy scalar does
    rows = [(1, 0.1, "sdr", True), (np.float64(0.5), -0.0, 1e-300, None)]
    assert format_rows(rows) == "1,0.1,sdr,True\nnp.float64(0.5),-0.0,1e-300,None\n"
    assert format_rows([]) == ""


# ---------------------------------------------------------------------------
# the KS statistic: a bracketed maximum equal to the exhaustive one


def exhaustive_ks(region, rank, n_points, distances):
    """The KS statistic with the law evaluated at every sorted sample."""
    samples = np.sort(distances)
    cdf_values = 1.0 - nth_neighbor_ccdf(region, rank, n_points, samples)
    n = len(samples)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(steps_hi - cdf_values), np.abs(steps_lo - cdf_values))))


THIN_FAR_BAND = LensRegion(rho=2.0, inner_rho=1.99999)


@settings(max_examples=60, deadline=None)
@given(
    region=regions(),
    n_points=st.integers(1, 9),
    # 1 to 50,000, from each scale alike
    draws=st.builds(int.__add__, st.sampled_from([1, 100, 1_000, 10_000, 40_000]), st.integers(0, 10_000)),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
@example(region=THIN_FAR_BAND, n_points=5, draws=40_000, seed=7, ties=False)
@example(region=LensRegion(), n_points=5, draws=40_000, seed=7, ties=False)
@example(region=LensRegion(), n_points=9, draws=1, seed=0, ties=False)
def test_ks_equals_the_exhaustive_statistic_bit_for_bit(region, n_points, draws, seed, ties):
    sorted_d = sample_sorted_separations(region, n_points, draws, seed)
    if ties:  # a coarse grid of distances: many samples share one
        sorted_d = np.round(sorted_d * (16 / region.radius)) * (region.radius / 16)
    for rank in range(1, n_points + 1):
        distances = sorted_d[:, rank - 1]
        ks = experiments._ks_distance(region, rank, n_points, distances)
        assert ks == exhaustive_ks(region, rank, n_points, distances)


def test_ks_evaluates_the_law_at_a_fifth_of_the_samples_at_most(monkeypatch):
    # ~7% on average at this size; the exhaustive statistic evaluates all
    evaluated = []

    def counted(region, rank, n_points, d):
        evaluated.append(len(d))
        return nth_neighbor_ccdf(region, rank, n_points, d)

    monkeypatch.setattr(experiments, "nth_neighbor_ccdf", counted)
    lens, draws = LensRegion(), 40_000
    sorted_d = sample_sorted_separations(lens, 5, draws, 2025)
    for rank in range(1, 6):
        experiments._ks_distance(lens, rank, 5, sorted_d[:, rank - 1])
    assert sum(evaluated) <= 0.2 * 5 * draws
