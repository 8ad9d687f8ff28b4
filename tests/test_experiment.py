import csv
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from fairbound import bounds, experiment, fairness
from fairbound.bounds import MarginProfile, bound_report, margin_profile, refined_lipschitz
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
from fairbound.model import LinearModel, frobenius_norms
from fairbound.privacy import PrivacyParams, release_many, resolve_distance, stream
from fairbound.trainer import constants, fit_erm

from conftest import readme_block, two_blob_spec
from test_acceptance import EXPERIMENT_TEXT as ACCEPTANCE_EXPERIMENT_TEXT
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


EPSILON_SWEEP = dict(sweep_axis="epsilon", grid_start=0.1, grid_stop=4.0, grid_count=4, draws=60,
                     notions=("equalized_odds", "accuracy_parity", "demographic_parity_binary"))


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

    # the allocations are mocked: a real 7 TiB request can succeed on a
    # machine that overcommits memory, and then the OOM killer ends the run
    TOO_LARGE = "Unable to allocate 7.28 TiB for an array with shape (100000000000, 2, 5)"

    @pytest.mark.parametrize("target", ["release_many", "ScoringReference"])
    def test_unallocatable_arrays_fail_point_by_point(self, spec_file, tmp_path, monkeypatch,
                                                      target):
        # release_many fails at the second point only; a shared h* whose
        # scoring reference cannot be built fails every point
        calls = []
        real = getattr(experiment, target)

        def starved(*args, **kwargs):
            calls.append(1)
            if target == "ScoringReference" or len(calls) == 2:
                raise MemoryError(self.TOO_LARGE)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, target, starved)
        cfg = base_config(spec_file, sweep_axis="epsilon", grid_start=1.0, grid_stop=4.0,
                          grid_count=3, draws=5, notions=("accuracy_parity",))
        result = run_experiment(cfg, str(tmp_path / "out"))
        failed = [1] if target == "release_many" else [0, 1, 2]
        assert [(g, error) for g, _, error in result.failures] == [
            (g, f"MemoryError: {self.TOO_LARGE}") for g in failed
        ]
        assert result.rows == (3 - len(failed)) * 2
        rows = pathlib.Path(result.failures_path).read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + len(failed)

    def test_unallocatable_grid_is_config_error(self, spec_file, tmp_path, monkeypatch):
        def starved(cfg):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

        monkeypatch.setattr(experiment, "_grid_values", starved)
        cfg = base_config(spec_file, sweep_axis="epsilon", grid_start=1.0, grid_stop=4.0,
                          grid_count=3, draws=5)
        with pytest.raises(ConfigError, match=r"^grid-count 3: the grid cannot be allocated"):
            run_experiment(cfg, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_one_label_data_fails_every_point_with_data_error(self, tmp_path):
        # a one-label h* has no margin; its failure rows once read
        # "ValueError: margin is undefined for a single-label model"
        spec_path = tmp_path / "one_label.cfg"
        spec_path.write_text(SPEC_TEXT.split("cell.1.0")[0], encoding="utf-8")
        cfg = base_config(str(spec_path), sweep_axis="epsilon", grid_start=0.5, grid_stop=1.0,
                          grid_count=2, draws=2, notions=("accuracy_parity",))
        result = run_experiment(cfg, str(tmp_path / "out"))
        assert result.rows == 0
        assert [error for _, _, error in result.failures] == 2 * [
            "DataError: the margin is undefined for a single-label model, "
            "as on data whose labels all have one value"
        ]

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
        "overrides, sharp_lipschitz",
        [
            (EPSILON_SWEEP, False),
            (dict(mechanism="dp_sgd", grid_start=150, grid_stop=300, grid_count=2, draws=3,
                  notions=("equalized_odds", "accuracy_parity")), False),
            (EPSILON_SWEEP, True),
        ],
        ids=["epsilon-output-perturbation", "n-dp-sgd", "epsilon-sqrt2-lipschitz"],
    )
    def test_pruned_scoring_leaves_the_sweep_unchanged(self, spec_file, tmp_path, monkeypatch,
                                                       overrides, sharp_lipschitz):
        # at these sizes a DP-SGD draw lies far enough from h* to flip
        # every row, so only the epsilon sweep must score fewer rows.  The
        # scorer derives its pruning key from h* alone, so the bound
        # layer's sharper margin factor sqrt(2), which scales both h*'s and
        # the refined constants, changes the certificates but leaves the
        # pruned and every-row sweeps alike
        if sharp_lipschitz:
            monkeypatch.setattr(bounds, "_MARGIN_FACTOR", math.sqrt(2.0))
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

    def test_each_bound_column_reads_its_profile_and_distance(self, spec_file, tmp_path):
        # recompute every certificate of an epsilon sweep from its parts:
        # h*'s profile at the lemma and at the measured distance, and the
        # refined profile of the farthest draw at the measured distance
        cfg = base_config(spec_file, sweep_axis="epsilon", grid_start=1.0, grid_stop=4.0,
                          grid_count=2, draws=7, delta_policy="fixed", delta=1e-5,
                          eval_split="train",
                          notions=("equalized_odds", "accuracy_parity",
                                   "demographic_parity_binary"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, str(tmp_path / "out"))
            data = experiment._load_base_data(cfg)
            hstar = fit_erm(data, cfg.lam, tol=cfg.tol)
            c = constants(data, cfg.lam, hstar.radius)
            profile = margin_profile(hstar, data)
            expected = {}
            for g, epsilon in enumerate(experiment._grid_values(cfg)):
                pp = PrivacyParams(epsilon=float(epsilon), delta=cfg.delta, zeta=cfg.zeta,
                                   mechanism=cfg.mechanism, seed=cfg.seed)
                weights = release_many(hstar, data, c, pp, stream(cfg.seed, (1, g)), cfg.draws)
                dists = frobenius_norms(hstar.weights - weights)
                farthest = LinearModel(weights[int(np.argmax(dists))], c.radius)
                refined = MarginProfile(profile.abs_margins,
                                        refined_lipschitz(hstar, farthest, data))
                dist_lemma, provenance = resolve_distance(hstar.num_params, c, data.n, pp)
                dist_measured = float(np.max(dists))
                for notion in cfg.notions:
                    spec = coefficients(data, notion, cfg.desirable)
                    expected[float(epsilon), notion] = (
                        bound_report(profile, spec, dist_lemma, provenance),
                        bound_report(profile, spec, dist_measured, "measured"),
                        bound_report(refined, spec, dist_measured, "measured"),
                    )
        rows = read_rows(result.sweep_path)
        assert not result.failures and len(rows) == 2 * (4 + 2 + 4)
        for row in rows:
            lemma, measured, refined = expected[float(row["grid_value"]), row["notion"]]
            k = int(row["k"])
            assert float(row["dist_lemma"]) == lemma.dist
            assert row["dist_provenance"] == lemma.dist_provenance
            assert float(row["dist_measured"]) == measured.dist == refined.dist
            assert float(row["bound_lemma"]) == lemma.entry(k).best
            assert float(row["bound_measured"]) == measured.entry(k).best
            assert float(row["bound_refined"]) == refined.entry(k).best
        # the three columns differ, so swapped columns cannot pass
        assert all(len({row["bound_lemma"], row["bound_measured"], row["bound_refined"]}) == 3
                   for row in rows)

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

    def test_dashed_names_load_the_underscored_config(self, spec_file):
        # an experiment config once refused the dashed names a CLI
        # --config file accepts
        values = dict(line.split(" = ", 1)
                      for line in base_config(spec_file).canonical_text().splitlines())
        underscored = ExperimentConfig.from_mapping(
            {**values, "mechanism": "dp_sgd", "notions": "accuracy_parity, equalized_odds",
             "delta-policy": "inverse_n_squared"})
        dashed = ExperimentConfig.from_mapping(
            {**values, "mechanism": "dp-sgd", "notions": "accuracy-parity, equalized-odds",
             "delta-policy": "inverse-n-squared"})
        assert dashed == underscored
        assert dashed.config_hash() == underscored.config_hash()
        assert dashed.notions == ("accuracy_parity", "equalized_odds")
        assert base_config(spec_file, mechanism="dp-sgd").mechanism == "dp_sgd"

    @pytest.mark.parametrize("overrides, message", [
        ({"data_format": "xml"}, "data-format must be one of csv, synthetic, got 'xml'"),
        ({"eval_split": "all"}, "eval-split must be one of train, test, got 'all'"),
        ({"grid_count": 0}, "grid-count must be an integer of at least 1, got 0"),
        ({"mechanism": "laplace"},
         "mechanism must be one of output_perturbation, dp_sgd, got 'laplace'"),
        ({"notions": ("accuracy", "fairness")},
         f"notions must be one of {', '.join(fairness.NOTIONS)}, got 'fairness'"),
        ({"notions": ()}, "notions must name at least one fairness notion"),
    ], ids=["choices", "eval_split", "min", "mechanism", "notion", "no_notion"])
    def test_each_field_is_checked_by_its_declared_domain(self, spec_file, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            base_config(spec_file, **overrides)

    def test_from_mapping_round_trip(self, spec_file):
        cfg = base_config(spec_file)
        values = {}
        for line in cfg.canonical_text().splitlines():
            key, _, value = line.partition(" = ")
            values[key] = value
        cfg2 = ExperimentConfig.from_mapping(values)
        assert cfg2 == cfg

    def test_readme_config_blocks_load(self):
        spec = parse_synthetic_spec(parse_config_text(readme_block("### Synthetic spec grammar")))
        assert spec.num_features == 2
        assert sorted(spec.cells) == [(0, 0), (1, 0)]
        assert spec.cells[(0, 0)].count == 500
        cfg = ExperimentConfig.from_mapping(
            parse_config_text(readme_block("### Experiment config keys")), seed=5)
        assert (cfg.data, cfg.data_format, cfg.mechanism) == (
            "synth.cfg", "synthetic", "output_perturbation")
        assert (cfg.sweep_axis, cfg.grid_start, cfg.grid_stop, cfg.grid_count, cfg.draws) == (
            "n", 100.0, 10000.0, 20, 100)
        assert (cfg.delta_policy, cfg.epsilon, cfg.eval_split, cfg.desirable) == (
            "inverse_n_squared", 1.0, "test", frozenset({1}))

    # the hash is in every sweep.csv preamble, so the canonical text of a
    # config must not change with the code that checks and formats it
    @pytest.mark.parametrize("text, canonical, digest", [
        (ACCEPTANCE_EXPERIMENT_TEXT.format(spec="synth.cfg"),
         "data = synth.cfg\ndata-format = synthetic\ndelta = 1e-06\n"
         "delta-policy = inverse_n_squared\ndesirable = 1\ndraws = 5\nepsilon = 1.0\n"
         "eval-split = test\ngrid-count = 2\ngrid-start = 100.0\ngrid-stop = 400.0\n"
         "label-col = y\nlambda = 1.0\nmechanism = output_perturbation\n"
         "notions = accuracy_parity,equality_of_opportunity\nseed = 5\nsensitive-col = s\n"
         "sweep-axis = n\ntest-fraction = 0.1\ntol = 1e-10\nzeta = 0.01",
         "b48b063244565c2a25d6cb9f136eb6104471ee828d211108586186a367b21a42"),
        (readme_block("### Experiment config keys"),
         "data = synth.cfg\ndata-format = synthetic\ndelta = 1e-06\n"
         "delta-policy = inverse_n_squared\ndesirable = 1\ndraws = 100\nepsilon = 1.0\n"
         "eval-split = test\ngrid-count = 20\ngrid-start = 100.0\ngrid-stop = 10000.0\n"
         "label-col = y\nlambda = 1.0\nmechanism = output_perturbation\n"
         "notions = equality_of_opportunity,accuracy_parity\nseed = 5\nsensitive-col = s\n"
         "sweep-axis = n\ntest-fraction = 0.1\ntol = 1e-10\nzeta = 0.01",
         "634cee4ea1d8e7a5ff8e1721b9286654ce44ffd82e3b3475a1eaac50c6335738"),
    ], ids=["criterion_9", "readme"])
    def test_canonical_text_and_hash_are_pinned(self, text, canonical, digest):
        cfg = ExperimentConfig.from_mapping(parse_config_text(text), seed=5)
        assert cfg.canonical_text() == canonical
        assert cfg.config_hash() == digest

    def test_readme_library_quick_start_runs(self, tmp_path, monkeypatch, capsys):
        import fairbound as fb

        code = readme_block("## Library quick start", fence="```python\n")
        monkeypatch.chdir(tmp_path)
        fb.write_csv(fb.synthesize(two_blob_spec(per_cell=100), seed=3), "data.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the epsilon >= 1 notice
            exec(compile(code, "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["y=0,s=0", "y=0,s=1", "y=1,s=0", "y=1,s=1"]
        assert all(0.0 <= float(line.split()[1]) < math.inf for line in lines)


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            slack = finite_sample_slacks(spec, d.n, 0.05, 2, d.p, "independent")
        path = tmp_path / "audit.csv"
        write_audit_csv(spec, values, str(path), slack=slack, combined_confidence=0.95)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",") == ["k", "group", "fairness", "flags",
                                       "slack", "combined_bound", "combined_confidence"]
        assert len(lines) == 3
