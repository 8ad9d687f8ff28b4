import csv
import math
import pathlib
import warnings

import numpy as np
import pytest

from fairbound import experiment, fairness
from fairbound.config import parse_config_text, parse_synthetic_spec
from fairbound.dataset import synthesize
from fairbound.exceptions import ConfigError
from fairbound.experiment import (
    ExperimentConfig,
    run_experiment,
    table_report,
    write_audit_csv,
    write_bound_report_csv,
)
from fairbound.fairness import coefficients, group_fairness_all
from fairbound.finite_sample import finite_sample_slacks
from fairbound.trainer import constants, fit_erm

from conftest import two_blob_spec
from test_acceptance import SPEC_TEXT as ACCEPTANCE_SPEC_TEXT

SPEC_TEXT = """\
features = 2
cell.0.0.count = 300
cell.0.0.mean = 2.0, 0.6
cell.0.0.cov = 1.0, 1.0
cell.0.1.count = 200
cell.0.1.mean = 2.0, -0.6
cell.0.1.cov = 1.0, 1.0
cell.1.0.count = 250
cell.1.0.mean = -2.0, -0.6
cell.1.0.cov = 1.0, 1.0
cell.1.1.count = 250
cell.1.1.mean = -2.0, 0.6
cell.1.1.cov = 1.0, 1.0
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text(SPEC_TEXT, encoding="utf-8")
    return str(path)


def base_config(spec_file, **overrides):
    kwargs = dict(
        data=spec_file,
        data_format="synthetic",
        lam=1.0,
        notions=("equality_of_opportunity", "accuracy_parity"),
        mechanism="output_perturbation",
        sweep_axis="n",
        grid_start=100,
        grid_stop=800,
        grid_count=3,
        draws=5,
        zeta=0.01,
        delta_policy="inverse_n_squared",
        seed=11,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class TestRunExperiment:
    def test_single_draw_min_equals_max(self, spec_file, tmp_path):
        cfg = base_config(spec_file, draws=1, grid_count=1, grid_start=200, grid_stop=200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
        assert not result.failures
        for row in read_rows(result.sweep_path):
            assert row["f_priv_min"] == row["f_priv_max"]

    def test_byte_identical_reruns(self, spec_file, tmp_path):
        cfg = base_config(spec_file)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r1 = run_experiment(cfg, str(tmp_path / "a"))
            r2 = run_experiment(cfg, str(tmp_path / "b"))
        for a, b in [(r1.sweep_path, r2.sweep_path), (r1.failures_path, r2.failures_path)]:
            assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()

    def test_every_stream_key_is_distinct_and_not_root(self, spec_file, tmp_path, monkeypatch):
        # the eval split once drew its permutation from the root stream that
        # had drawn the synthetic rows
        keys = []
        default_rng = np.random.default_rng

        def recording(seed=None):
            if not isinstance(seed, np.random.Generator):
                seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
                keys.append((seq.entropy, seq.spawn_key))
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        cfg = base_config(spec_file, grid_count=3, draws=4, eval_split="test")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
        assert not result.failures
        # the synthetic data, the eval split, then one stream per grid point
        assert keys[0] == (cfg.seed, ())
        assert len(set(keys)) == len(keys)
        assert len(keys) == 2 + cfg.grid_count

    def test_envelope_width_shrinks_with_n(self, spec_file, tmp_path):
        # frozen regression at fixed seeds: more data -> narrower attainable band
        cfg = base_config(spec_file, draws=30, grid_start=90, grid_stop=810, grid_count=3,
                          notions=("accuracy_parity",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
        rows = read_rows(result.sweep_path)
        widths = {}
        for row in rows:
            if row["k"] != "0":
                continue
            widths[int(row["n"])] = float(row["f_priv_max"]) - float(row["f_priv_min"])
        ns = sorted(widths)
        assert len(ns) == 3
        assert widths[ns[0]] > widths[ns[1]] > widths[ns[2]]

    def test_failure_recorded_and_sweep_continues(self, spec_file, tmp_path):
        # second grid point asks for more samples than exist
        cfg = base_config(spec_file, grid_start=100, grid_stop=10_000, grid_count=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
        assert result.rows > 0
        # the message holds a comma: hand-joined, its row read as 4 cells
        error = "ConfigError: grid n=10000 outside [2, 900]"
        assert result.failures == [(1, 10000.00000000001, error)]
        with open(result.failures_path, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == [["grid_index", "grid_value", "error"],
                                            ["1", "10000.00000000001", error]]

    def test_dpsgd_small_n_point_certifies(self, tmp_path):
        # a DP-SGD lemma distance far beyond every |margin|/L once aborted the
        # sweep with an OverflowError inside the bound layer
        spec_path = tmp_path / "synth.cfg"
        spec_path.write_text(ACCEPTANCE_SPEC_TEXT, encoding="utf-8")
        cfg = base_config(str(spec_path), mechanism="dp_sgd", grid_start=300,
                          grid_stop=300, grid_count=1, draws=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
        assert result.failures == []
        rows = read_rows(result.sweep_path)
        assert rows
        for row in rows:
            assert math.isfinite(float(row["bound_lemma"]))

    def test_epsilon_sweep(self, spec_file, tmp_path):
        cfg = base_config(spec_file, sweep_axis="epsilon", grid_start=0.1, grid_stop=1.0,
                          grid_count=2, draws=3, delta_policy="fixed", delta=1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
        assert not result.failures
        eps = {row["epsilon"] for row in read_rows(result.sweep_path)}
        assert len(eps) == 2

    def test_envelope_containment(self, spec_file, tmp_path):
        # fraction of draws outside the certificate is at most zeta + slack
        cfg = base_config(spec_file, draws=40, grid_count=1, grid_start=500, grid_stop=500,
                          zeta=0.05, notions=("accuracy_parity", "equalized_odds"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
        rows = read_rows(result.sweep_path)
        # the sweep stores only min/max; envelope containment means the whole
        # attained band sits inside the certificate around f_star
        for row in rows:
            bound = float(row["bound_lemma"])
            f_star = float(row["f_star"])
            worst = max(abs(float(row["f_priv_min"]) - f_star),
                        abs(float(row["f_priv_max"]) - f_star))
            assert worst <= bound + 1e-12

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sweep_axis="epsilon", grid_start=0.1, grid_stop=4.0, grid_count=4, draws=60,
                 notions=("equalized_odds", "accuracy_parity", "demographic_parity_binary")),
            dict(mechanism="dp_sgd", grid_start=150, grid_stop=300, grid_count=2, draws=3,
                 notions=("equalized_odds", "accuracy_parity")),
        ],
        ids=["epsilon-output-perturbation", "n-dp-sgd"],
    )
    def test_pruned_scoring_leaves_the_sweep_unchanged(self, spec_file, tmp_path, monkeypatch,
                                                       overrides):
        # at these sizes a DP-SGD draw lies far enough from h* to flip
        # every row, so only the epsilon sweep must score fewer rows
        scored = []
        real_correct = fairness._correct

        def counting(weights, features_t, y):
            scored[-1] += len(weights) * features_t.shape[1]
            return real_correct(weights, features_t, y)

        monkeypatch.setattr(fairness, "_correct", counting)
        cfg = base_config(spec_file, **overrides)
        results = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in ("pruned", "every_row"):
                if name == "every_row":
                    monkeypatch.setattr(experiment, "ScoringReference", lambda *a, **k: None)
                scored.append(0)
                results.append(run_experiment(cfg, str(tmp_path / name)))
        pruned, every_row = results
        assert pruned.failures == [] and pruned.rows > 0
        if cfg.mechanism == "output_perturbation":
            assert scored[0] < 0.7 * scored[1]
        for a, b in [(pruned.sweep_path, every_row.sweep_path),
                     (pruned.failures_path, every_row.failures_path)]:
            assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()

    @pytest.mark.parametrize("axis,grid,fits", [("epsilon", (0.1, 1.0), 1), ("n", (100, 800), 3)])
    def test_optimum_solved_once_per_training_set(self, spec_file, tmp_path, monkeypatch,
                                                  axis, grid, fits):
        calls = []
        real_fit = experiment.fit_erm

        def counting_fit(*args, **kwargs):
            calls.append(args[0].n)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(experiment, "fit_erm", counting_fit)
        cfg = base_config(spec_file, sweep_axis=axis, grid_start=grid[0], grid_stop=grid[1],
                          grid_count=3, draws=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
        assert result.failures == []
        assert len(calls) == fits
        assert len({row["grid_value"] for row in read_rows(result.sweep_path)}) == 3

    def test_shared_convergence_error_fails_every_epsilon_point(self, spec_file, tmp_path,
                                                                monkeypatch):
        calls = []
        real_fit = experiment.fit_erm

        def starved_fit(*args, **kwargs):
            calls.append(1)
            return real_fit(*args, max_iters=2, **kwargs)

        monkeypatch.setattr(experiment, "fit_erm", starved_fit)
        cfg = base_config(spec_file, sweep_axis="epsilon", grid_start=0.1, grid_stop=1.0,
                          grid_count=3, draws=2)
        result = run_experiment(cfg, str(tmp_path / "out"))
        assert len(calls) == 1
        assert result.rows == 0
        lines = pathlib.Path(result.failures_path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "grid_index,grid_value,error"
        assert len(lines) == 1 + cfg.grid_count
        message = lines[1].split(",", 2)[2]
        assert message.startswith("ConvergenceError: gradient norm ")
        assert message.endswith("after 2 iterations")
        for g, line in enumerate(lines[1:]):
            grid_value = repr(float(experiment._grid_values(cfg)[g]))
            assert line == f"{g},{grid_value},{message}"

    def test_bad_config_values(self, spec_file):
        with pytest.raises(ConfigError):
            base_config(spec_file, draws=0)
        with pytest.raises(ConfigError):
            base_config(spec_file, sweep_axis="gamma")
        with pytest.raises(ConfigError):
            base_config(spec_file, notions=("not_a_notion",))

    def test_negative_seed_is_config_error(self, spec_file):
        with pytest.raises(ConfigError, match="seed"):
            base_config(spec_file, seed=-1)
        values = dict(line.split(" = ", 1)
                      for line in base_config(spec_file).canonical_text().splitlines())
        values["seed"] = "-3"
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_mapping(values)

    def test_from_mapping_round_trip(self, spec_file):
        cfg = base_config(spec_file)
        values = {}
        for line in cfg.canonical_text().splitlines():
            key, _, value = line.partition(" = ")
            values[key] = value
        cfg2 = ExperimentConfig.from_mapping(values)
        assert cfg2 == cfg

    def test_readme_config_blocks_load(self):
        def block(heading):
            text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
                encoding="utf-8")
            return text.split(f"### {heading}\n", 1)[1].split("```\n", 2)[1]

        spec = parse_synthetic_spec(parse_config_text(block("Synthetic spec grammar")))
        assert spec.num_features == 2
        assert sorted(spec.cells) == [(0, 0), (1, 0)]
        assert spec.cells[(0, 0)].count == 500
        cfg = ExperimentConfig.from_mapping(parse_config_text(block("Experiment config keys")),
                                            seed=5)
        assert (cfg.data, cfg.data_format, cfg.mechanism) == (
            "synth.cfg", "synthetic", "output_perturbation")
        assert (cfg.sweep_axis, cfg.grid_start, cfg.grid_stop, cfg.grid_count, cfg.draws) == (
            "n", 100.0, 10000.0, 20, 100)
        assert (cfg.delta_policy, cfg.epsilon, cfg.eval_split, cfg.desirable) == (
            "inverse_n_squared", 1.0, "test", frozenset({1}))


class TestTableReport:
    def test_all_columns_present_and_finite(self):
        data = synthesize(two_blob_spec(per_cell=200), seed=5)
        from fairbound.dataset import split

        train, test = split(data, 0.9, seed=1)
        hstar = fit_erm(train, lam=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            row = table_report(hstar, train, test, lam=1.0, dataset_name="blobs")
        assert row["dataset"] == "blobs"
        for notion in ("equality_of_opportunity", "equalized_odds",
                       "demographic_parity_binary", "accuracy_parity", "accuracy"):
            value = float(row[notion])
            assert value >= 0.0 and math.isfinite(value)

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_cells_equal_one_report_per_notion(self, epsilon):
        from fairbound.bounds import theorem3_report
        from fairbound.dataset import split
        from fairbound.privacy import PrivacyParams

        data = synthesize(two_blob_spec(per_cell=200), seed=5)
        train, test = split(data, 0.9, seed=1)
        hstar = fit_erm(train, lam=1.0)
        c = constants(train, 1.0, hstar.radius)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pp = PrivacyParams(epsilon=epsilon, delta=1.0 / train.n**2, zeta=0.01,
                               mechanism="output_perturbation", seed=0)
        row = table_report(hstar, train, test, lam=1.0, pp=pp)
        for notion in experiment.TABLE_NOTIONS:
            spec = coefficients(test, notion, frozenset({1}))
            report = theorem3_report(hstar, test, spec, c, train.n, pp)
            assert row[notion] == report.aggregate, notion


class TestReportWriters:
    def test_infinite_chi_serialized_as_inf(self, tmp_path, rng):
        from fairbound.bounds import bound_report, margin_profile
        from fairbound.model import LinearModel
        from conftest import random_dataset

        d = random_dataset(rng, 10)
        m = LinearModel(np.zeros((2, 3)), 1.0)
        spec = coefficients(d, "accuracy_parity")
        prof = margin_profile(m, d)
        report = bound_report(prof, spec, 0.5, "measured")
        path = tmp_path / "r.csv"
        write_bound_report_csv(report, str(path))
        text = path.read_text(encoding="utf-8")
        assert ",inf," in text

    def test_audit_csv_slack_columns(self, tmp_path, rng):
        from fairbound.model import LinearModel
        from conftest import random_dataset

        d = random_dataset(rng, 60)
        m = LinearModel(rng.normal(size=(2, 3)), 100.0)
        spec = coefficients(d, "accuracy_parity")
        values = group_fairness_all(m, d, spec)
        empty = spec.partition.proportions == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            slack = finite_sample_slacks(spec, d.n, 0.05, 2, d.p, "independent")
        path = tmp_path / "audit.csv"
        write_audit_csv(spec, values, empty, str(path), slack=slack, combined_confidence=0.95)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",") == ["k", "group", "fairness", "flags",
                                       "slack", "combined_bound", "combined_confidence"]
        assert len(lines) == 3
