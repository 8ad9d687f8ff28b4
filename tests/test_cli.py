import argparse
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbound import experiment
from fairbound.cli import build_parser, main
from fairbound.dataset import load_csv
from fairbound.experiment import release
from fairbound.model import load_model, save_model
from fairbound.privacy import PrivacyParams
from fairbound.trainer import constants

SPEC_TEXT = """\
features = 2
cell.0.0.count = 150
cell.0.0.mean = 2.0, 0.5
cell.0.0.cov = 1.0, 1.0
cell.0.1.count = 100
cell.0.1.mean = 2.0, -0.5
cell.0.1.cov = 1.0, 1.0
cell.1.0.count = 120
cell.1.0.mean = -2.0, -0.5
cell.1.0.cov = 1.0, 1.0
cell.1.1.count = 130
cell.1.1.mean = -2.0, 0.5
cell.1.1.cov = 1.0, 1.0
"""

THREE_LABEL_SPEC_TEXT = SPEC_TEXT + """\
cell.2.0.count = 80
cell.2.0.mean = 0.0, 2.0
cell.2.0.cov = 1.0, 1.0
"""

EXPERIMENT_TEXT = """\
data = {spec}
data-format = synthetic
lambda = 1.0
notions = accuracy_parity
mechanism = output_perturbation
sweep-axis = n
grid-start = 100
grid-stop = 400
grid-count = 2
draws = 3
zeta = 0.01
delta-policy = inverse_n_squared
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "synth.cfg").write_text(SPEC_TEXT, encoding="utf-8")
    return tmp_path


def run(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args)


def _report_argv(command, data, model, notion, out):
    """``audit``, ``bound`` or ``table`` of ``model`` on ``data`` (which is
    also the training set of ``bound`` and ``table``), writing ``out``;
    ``table`` covers its fixed notions and ignores ``notion``."""
    if command == "audit":
        return ["audit", "--data", data, "--model", model, "--notion", notion,
                "--report", str(out)]
    if command == "table":
        return ["table", "--data", data, "--model", model, "--train-data", data,
                "--lambda", "1.0", "--out", str(out)]
    return ["bound", "--data", data, "--model", model, "--train-data", data,
            "--lambda", "1.0", "--notion", notion, "--out", str(out)]


def _assert_config_error(workdir, command, capsys):
    """``command`` on generated data and a trained model exits 2 with a
    config error and writes no output; ``DATA`` in it names the data."""
    data = str(workdir / "data.csv")
    model = str(workdir / "model.txt")
    run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
    run(["train", "--data", data, "--lambda", "1.0", "--out", model])
    out = workdir / "out.txt"
    args = [data if a == "DATA" else a for a in command]
    model_flag = [] if command[0] == "train" else ["--model", model]
    assert run(args + ["--data", data, *model_flag, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


class TestPipeline:
    def test_full_pipeline_exit_codes(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        priv = str(workdir / "priv.txt")

        assert run(["gen-data", "--spec", spec, "--seed", "3", "--out", data]) == 0
        assert run(["train", "--data", data, "--lambda", "1.0", "--tol", "1e-10",
                    "--out", model]) == 0
        assert run(["privatize", "--model", model, "--data", data, "--lambda", "1.0",
                    "--mechanism", "output-perturbation", "--epsilon", "1",
                    "--delta", "auto", "--seed", "42", "--out", priv]) == 0
        assert run(["audit", "--model", priv, "--data", data,
                    "--notion", "equalized-odds",
                    "--report", str(workdir / "audit.csv")]) == 0
        assert run(["bound", "--model", model, "--other", priv, "--data", data,
                    "--train-data", data, "--lambda", "1.0",
                    "--notion", "accuracy-parity", "--epsilon", "1",
                    "--zeta", "0.01",
                    "--out", str(workdir / "bound.csv")]) == 0

        audit = (workdir / "audit.csv").read_text(encoding="utf-8")
        assert "k,group,fairness,flags" in audit
        bound = (workdir / "bound.csv").read_text(encoding="utf-8")
        assert "markov,truncated,chernoff,best" in bound
        assert "measured" in bound

    def test_privatize_dpsgd(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        priv = str(workdir / "priv_sgd.txt")
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        assert run(["privatize", "--model", model, "--data", data, "--lambda", "1.0",
                    "--mechanism", "dp-sgd", "--epsilon", "1", "--delta", "auto",
                    "--seed", "7", "--out", priv]) == 0
        released = load_model(priv)
        assert np.all(np.isfinite(released.weights))

    def test_privatize_dpsgd_bytes_match_release(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        priv = workdir / "priv_sgd.txt"
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "0.5", "--out", model])
        assert run(["privatize", "--model", model, "--data", data, "--lambda", "0.5",
                    "--mechanism", "dp-sgd", "--epsilon", "0.7", "--delta", "auto",
                    "--seed", "9", "--out", str(priv)]) == 0
        d = load_csv(data, "s", "y")
        hstar = load_model(model)
        pp = PrivacyParams(epsilon=0.7, delta=1.0 / d.n**2, zeta=0.01, mechanism="dp_sgd", seed=9)
        expected = workdir / "expected.txt"
        save_model(release(hstar, d, constants(d, 0.5, hstar.radius), pp, substream=0), str(expected))
        assert priv.read_bytes() == expected.read_bytes()

    def test_deterministic_reruns(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        for out in ("p1.txt", "p2.txt"):
            run(["privatize", "--model", model, "--data", data, "--lambda", "1.0",
                 "--mechanism", "output-perturbation", "--epsilon", "1",
                 "--delta", "auto", "--seed", "42", "--out", str(workdir / out)])
        assert (workdir / "p1.txt").read_bytes() == (workdir / "p2.txt").read_bytes()

    def test_experiment_subcommand(self, workdir):
        exp = workdir / "exp.cfg"
        exp.write_text(EXPERIMENT_TEXT.format(spec=str(workdir / "synth.cfg")),
                       encoding="utf-8")
        out_dir = workdir / "results"
        assert run(["experiment", "--config", str(exp), "--seed", "5",
                    "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "failures.csv").exists()

    def test_table_subcommand(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        out = workdir / "table.csv"
        assert run(["table", "--model", model, "--data", data, "--train-data", data,
                    "--lambda", "1.0", "--name", "blobs", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("dataset,equality_of_opportunity,equalized_odds")
        assert lines[1].startswith("blobs,")


class TestConfigFileSupport:
    def test_flags_from_config_file(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        cfg = workdir / "train.cfg"
        cfg.write_text(f"data = {data}\nlambda = 1.0\nout = {workdir / 'm.txt'}\n",
                       encoding="utf-8")
        assert run(["train", "--config", str(cfg)]) == 0
        assert (workdir / "m.txt").exists()

    def test_flag_overrides_config(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        cfg = workdir / "train.cfg"
        cfg.write_text(f"data = {data}\nlambda = 1.0\nout = {workdir / 'ignored.txt'}\n",
                       encoding="utf-8")
        assert run(["train", "--config", str(cfg), "--out", str(workdir / "used.txt")]) == 0
        assert (workdir / "used.txt").exists()
        assert not (workdir / "ignored.txt").exists()

    @pytest.mark.parametrize("spelling", [["--config=CFG"], ["--conf", "CFG"]],
                             ids=["equals", "prefix"])
    def test_every_config_spelling_merges_the_file(self, workdir, spelling):
        data = str(workdir / "data.csv")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        cfg = workdir / "t.cfg"
        cfg.write_text("tol = 1e-3\n", encoding="utf-8")
        train = ["train", "--data", data, "--lambda", "1.0", "--out"]
        assert run(train + [str(workdir / "flag.txt"), "--tol", "1e-3"]) == 0
        assert run(train + [str(workdir / "default.txt")]) == 0
        args = [a.replace("CFG", str(cfg)) for a in spelling]
        assert run(train + [str(workdir / "config.txt"), *args]) == 0
        merged = (workdir / "config.txt").read_bytes()
        assert merged == (workdir / "flag.txt").read_bytes()
        assert merged != (workdir / "default.txt").read_bytes()

    def test_unknown_config_key_is_config_error(self, workdir):
        cfg = workdir / "bad.cfg"
        cfg.write_text("frobnicate = yes\n", encoding="utf-8")
        assert run(["train", "--config", str(cfg)]) == 2


class TestExitCodes:
    def test_config_error_is_2(self, workdir):
        missing = str(workdir / "nope.cfg")
        assert run(["experiment", "--config", missing, "--seed", "1",
                    "--out-dir", str(workdir / "r")]) == 2

    def test_unknown_experiment_config_key_is_config_error_2(self, workdir, capsys):
        exp = workdir / "exp.cfg"
        exp.write_text(EXPERIMENT_TEXT.format(spec=str(workdir / "synth.cfg")) + "varaint = markov\n",
                       encoding="utf-8")
        out_dir = workdir / "results"
        assert run(["experiment", "--config", str(exp), "--seed", "5",
                    "--out-dir", str(out_dir)]) == 2
        assert "varaint" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_convergence_error_is_3(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        assert run(["train", "--data", data, "--lambda", "1.0", "--max-iters", "2",
                    "--out", str(workdir / "m.txt")]) == 3

    def test_data_error_is_4(self, workdir):
        assert run(["train", "--data", str(workdir / "missing.csv"), "--lambda", "1.0",
                    "--out", str(workdir / "m.txt")]) == 4

    @pytest.mark.parametrize(
        "text",
        ["2 3 nan\n1 0 0\n0 1 0\n", "2 x 1\n1 0 0\n0 1 0\n", "2 3 5\n1 0 0\n0 1\n"],
        ids=["nan_radius", "non_numeric_header", "truncated_row"],
    )
    def test_malformed_model_is_data_error_4(self, workdir, text):
        data = str(workdir / "data.csv")
        assert run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3",
                    "--out", data]) == 0
        model = workdir / "bad_model.txt"
        model.write_text(text, encoding="utf-8")
        assert run(["audit", "--model", str(model), "--data", data,
                    "--notion", "accuracy-parity",
                    "--report", str(workdir / "audit.csv")]) == 4
        assert not (workdir / "audit.csv").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["privatize", "--lambda", "1.0", "--epsilon", "0.5", "--seed", "1"],
            ["bound", "--train-data", "DATA", "--lambda", "1.0", "--notion", "accuracy"],
            ["audit", "--notion", "accuracy-parity"],
        ],
        ids=["privatize", "bound", "audit"],
    )
    def test_infinite_model_radius_is_data_error_4(self, workdir, command, capsys):
        data = str(workdir / "data.csv")  # two features plus the intercept, two labels
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        model = workdir / "inf_radius.txt"
        model.write_text("2 3 inf\n0.5 0 0\n0 0.5 0\n", encoding="utf-8")
        out = workdir / "out.csv"
        out_flag = "--report" if command[0] == "audit" else "--out"
        args = [data if a == "DATA" else a for a in command]
        assert run(args + ["--data", data, "--model", str(model), out_flag, str(out)]) == 4
        assert "radius must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["privatize", "--lambda", "1.0", "--epsilon", "-1", "--seed", "1"],
            ["privatize", "--lambda", "1.0", "--epsilon", "1", "--zeta", "2", "--seed", "1"],
            ["bound", "--train-data", "DATA", "--lambda", "1.0", "--notion", "accuracy",
             "--epsilon", "0"],
            ["table", "--train-data", "DATA", "--lambda", "1.0", "--delta", "abc"],
            ["table", "--train-data", "DATA", "--lambda", "1.0", "--epsilon", "-1"],
            ["train", "--lambda", "0"],
            ["privatize", "--lambda", "-1", "--epsilon", "0.5", "--seed", "1"],
            ["bound", "--train-data", "DATA", "--lambda", "0", "--notion", "accuracy"],
            ["table", "--train-data", "DATA", "--lambda", "-0.5"],
        ],
        ids=["privatize_negative_epsilon", "privatize_zeta_above_one", "bound_zero_epsilon",
             "table_non_numeric_delta", "table_negative_epsilon", "train_zero_lambda",
             "privatize_negative_lambda", "bound_zero_lambda", "table_negative_lambda"],
    )
    def test_bad_privacy_flag_is_config_error_2(self, workdir, command, capsys):
        _assert_config_error(workdir, command, capsys)

    @pytest.mark.parametrize(
        "command",
        [
            ["privatize", "--lambda", "1.0", "--epsilon", "nan", "--seed", "1"],
            ["privatize", "--lambda", "1.0", "--epsilon", "inf", "--seed", "1"],
            ["bound", "--train-data", "DATA", "--lambda", "1.0", "--notion", "accuracy",
             "--epsilon", "nan"],
            ["bound", "--train-data", "DATA", "--lambda", "1.0", "--notion", "accuracy",
             "--epsilon", "inf"],
            ["table", "--train-data", "DATA", "--lambda", "1.0", "--epsilon", "inf"],
            ["train", "--lambda", "inf"],
            ["bound", "--train-data", "DATA", "--lambda", "nan", "--notion", "accuracy"],
            ["train", "--lambda", "1.0", "--tol", "nan"],
            ["train", "--lambda", "1.0", "--radius", "1e-3"],
            ["train", "--lambda", "1.0", "--radius", "inf"],
        ],
        ids=["privatize_nan_epsilon", "privatize_inf_epsilon", "bound_nan_epsilon",
             "bound_inf_epsilon", "table_inf_epsilon", "train_inf_lambda", "bound_nan_lambda",
             "train_nan_tol", "train_radius_below_optimum_norm", "train_inf_radius"],
    )
    def test_non_finite_or_unattainable_flag_is_config_error_2(self, workdir, command, capsys):
        _assert_config_error(workdir, command, capsys)

    def test_privatize_negative_seed_is_config_error_2(self, workdir, capsys):
        # NumPy's seeding used to reject it with a ValueError traceback (exit 1)
        _assert_config_error(
            workdir, ["privatize", "--lambda", "1.0", "--epsilon", "1", "--seed", "-1"], capsys)

    def test_gen_data_negative_seed_is_config_error_2(self, workdir, capsys):
        out = workdir / "data.csv"
        assert run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "-1",
                    "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_negative_seed_is_config_error_2(self, workdir, capsys):
        exp = workdir / "exp.cfg"
        exp.write_text(EXPERIMENT_TEXT.format(spec=str(workdir / "synth.cfg")),
                       encoding="utf-8")
        out_dir = workdir / "results"
        assert run(["experiment", "--config", str(exp), "--seed", "-5",
                    "--out-dir", str(out_dir)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("max_iters", ["0", "-1"])
    def test_max_iters_below_one_is_config_error_2(self, workdir, max_iters, capsys):
        _assert_config_error(workdir, ["train", "--lambda", "1.0", "--max-iters", max_iters],
                             capsys)

    @pytest.mark.parametrize(
        "lines",
        [
            ["epsilon = nan"],
            ["epsilon = inf"],
            ["epsilon = 0"],
            ["delta-policy = fixed", "delta = 2.0"],
            ["delta = 0"],
            ["zeta = 1"],
            ["mechanism = laplace"],
            ["lambda = 0"],
            ["lambda = inf"],
            ["tol = nan"],
            ["tol = -1e-10"],
            ["grid-start = 0"],
            ["grid-stop = inf"],
            ["grid-start = nan"],
            ["test-fraction = 1.0"],
            ["test-fraction = 0"],
            ["test-fraction = 0.9999"],
            ["notions ="],
            ["seed = x"],
            ["seed = -1"],
        ],
        ids=lambda lines: ";".join(lines),
    )
    def test_bad_experiment_config_value_is_config_error_2(self, workdir, lines, capsys):
        # each value used to surface only per grid point, as a failures.csv
        # row or a traceback, after the run had started
        exp = workdir / "exp.cfg"
        text = EXPERIMENT_TEXT.format(spec=str(workdir / "synth.cfg"))
        keys = {line.partition("=")[0].strip() for line in lines}
        kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
        exp.write_text("\n".join(kept + lines) + "\n", encoding="utf-8")
        out_dir = workdir / "results"
        assert run(["experiment", "--config", str(exp), "--seed", "5",
                    "--out-dir", str(out_dir)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_cell_is_data_error_4(self, workdir, cell, capsys):
        data = workdir / "data.csv"
        data.write_text(f"f0,s,y\n0.5,0,0\n{cell},1,1\n", encoding="utf-8")
        out = workdir / "m.txt"
        assert run(["train", "--data", str(data), "--lambda", "1.0", "--out", str(out)]) == 4
        assert "row 3" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_data_is_data_error_4(self, workdir, capsys):
        data = workdir / "data.csv"
        data.write_bytes(b"f0,s,y\n0.5,0,0\n-1.0,\xe9,1\n")
        out = workdir / "m.txt"
        assert run(["train", "--data", str(data), "--lambda", "1.0", "--out", str(out)]) == 4
        assert "UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["2 4 5\n1 0 0 0\n0 1 0 0\n", "3 3 5\n1 0 0\n0 1 0\n0 0 1\n"],
                             ids=["feature_count", "label_count"])
    @pytest.mark.parametrize(
        "command",
        [
            ["audit", "--notion", "accuracy-parity"],
            ["bound", "--train-data", "DATA", "--lambda", "1.0", "--notion", "accuracy"],
            ["privatize", "--lambda", "1.0", "--epsilon", "0.5", "--seed", "1"],
            ["table", "--train-data", "DATA", "--lambda", "1.0", "--epsilon", "0.5"],
        ],
        ids=["audit", "bound", "privatize", "table"],
    )
    def test_model_data_shape_mismatch_is_data_error_4(self, workdir, command, text, capsys):
        data = str(workdir / "data.csv")  # two features plus the intercept, two labels
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        model = workdir / "wrong_shape.txt"
        model.write_text(text, encoding="utf-8")
        out = workdir / "out.csv"
        out_flag = "--report" if command[0] == "audit" else "--out"
        args = [data if a == "DATA" else a for a in command]
        assert run(args + ["--data", data, "--model", str(model), out_flag, str(out)]) == 4
        assert "labels x" in capsys.readouterr().err
        assert not out.exists()

    def test_table_on_three_labels_is_data_error_4(self, workdir, capsys):
        spec = workdir / "three.cfg"
        spec.write_text(THREE_LABEL_SPEC_TEXT, encoding="utf-8")
        data = str(workdir / "three.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(spec), "--seed", "3", "--out", data])
        assert run(["train", "--data", data, "--lambda", "1.0", "--out", model]) == 0
        out = workdir / "table.csv"
        assert run(["table", "--model", model, "--data", data, "--train-data", data,
                    "--lambda", "1.0", "--out", str(out)]) == 4
        assert "binary labels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "bound"])
    @pytest.mark.parametrize(
        "flag",
        [["--fs-delta", "1.5"], ["--fs-delta", "0"]],
        ids=["fs_delta_above_one", "fs_delta_zero"],
    )
    def test_bad_finite_sample_flag_is_config_error_2(self, workdir, command, flag, capsys):
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        out = workdir / "out.csv"
        args = _report_argv(command, data, model, "accuracy-parity", out)
        assert run(args + ["--finite-sample", "dependent", *flag]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "bound"])
    @pytest.mark.parametrize("flag", ["b3", "b4", "natarajan-dim"])
    def test_removed_finite_sample_flags_exit_2(self, workdir, command, flag, capsys):
        # B3 = 2(K+1), B4 = 2 and d = |Y|*p are fixed: a larger B4 or a
        # smaller d prints a smaller slack at the same confidence
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        out = workdir / "out.csv"
        args = _report_argv(command, data, model, "accuracy-parity", out)
        args += ["--finite-sample", "dependent"]
        with pytest.raises(SystemExit) as exc:
            run(args + [f"--{flag}", "1000"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag} 1000" in capsys.readouterr().err
        cfg = workdir / "fs.cfg"
        cfg.write_text(f"{flag} = 1000\n", encoding="utf-8")
        assert run(args + ["--config", str(cfg)]) == 2
        assert f"config key {flag!r} does not match any flag" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_variant_key_is_config_error_2(self, workdir, capsys):
        # the sweep always reports the best variant
        exp = workdir / "exp.cfg"
        exp.write_text(EXPERIMENT_TEXT.format(spec=str(workdir / "synth.cfg")) + "variant = best\n",
                       encoding="utf-8")
        out_dir = workdir / "results"
        assert run(["experiment", "--config", str(exp), "--seed", "5",
                    "--out-dir", str(out_dir)]) == 2
        assert "unknown experiment config key(s): variant" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_finite_sample_on_one_label_data_is_data_error_4(self, workdir, capsys):
        data = workdir / "one_label.csv"
        data.write_text("f0,s,y\n0.5,0,0\n-1.0,1,0\n2.0,0,0\n", encoding="utf-8")
        model = workdir / "one_label_model.txt"
        model.write_text("1 2 5\n1 0\n", encoding="utf-8")
        out = workdir / "audit.csv"
        args = _report_argv("audit", str(data), str(model), "accuracy", out)
        assert run(args + ["--finite-sample", "independent"]) == 4
        assert "two or more labels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "bound", "table"])
    def test_desirable_label_outside_data_is_config_error_2(self, workdir, command, capsys):
        data = str(workdir / "data.csv")  # labels 0 and 1
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        out = workdir / "out.csv"
        args = _report_argv(command, data, model, "equality-of-opportunity", out)
        assert run(args + ["--desirable", "5"]) == 2
        assert "desirable labels out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "bound"])
    def test_demographic_parity_on_three_labels_is_data_error_4(self, workdir, command, capsys):
        spec = workdir / "three.cfg"
        spec.write_text(THREE_LABEL_SPEC_TEXT, encoding="utf-8")
        data = str(workdir / "three.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(spec), "--seed", "3", "--out", data])
        assert run(["train", "--data", data, "--lambda", "1.0", "--out", model]) == 0
        out = workdir / "out.csv"
        assert run(_report_argv(command, data, model, "demographic-parity-binary", out)) == 4
        assert "binary labels" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_bound_train_n_flag_exits_2(self, workdir, capsys):
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        out = workdir / "report.csv"
        argv = ["bound", "--model", model, "--data", data, "--lambda", "1.0",
                "--notion", "accuracy", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--train-data", data, "--train-n", "500"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --train-n 500" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--train-n", "500"])
        assert exc.value.code == 2
        assert "--train-data" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--steps", "50"], ["--noise-exponent", "T_linear"]],
                             ids=["steps", "noise_exponent"])
    def test_removed_privatize_flags_exit_2(self, workdir, flag, capsys):
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        out = workdir / "priv.txt"
        with pytest.raises(SystemExit) as exc:
            run(["privatize", "--model", model, "--data", data, "--lambda", "1.0",
                 "--mechanism", "dp-sgd", "--epsilon", "1", "--seed", "7", *flag,
                 "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_exits_2(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--no-such-flag"])
        assert exc.value.code == 2


TINY_SPEC_TEXT = "features = 2\n" + "".join(
    f"cell.{y}.{g}.count = 30\ncell.{y}.{g}.mean = {2 - 4 * y}.0, {g - 0.5}\n"
    f"cell.{y}.{g}.cov = 1.0, 1.0\n"
    for y in (0, 1) for g in (0, 1)
)

# Per experiment-config key: (values a working run may take, values that
# break it).  None leaves the key out.  The data is always the tiny
# synthetic spec (``SPEC`` in a value), never read as a CSV, so no run
# reaches a data error; grids stay at two points of two draws.
FUZZ_VALUES = {
    "data": (["SPEC"], [None, "", "missing.cfg"]),
    "data-format": (["synthetic"], ["", "xml"]),
    "lambda": (["1.0", "0.5"], [None, "", "0", "-1", "inf", "nan", "abc"]),
    "notions": (["accuracy_parity", "equalized_odds, accuracy", "demographic_parity_binary",
                 "equality_of_opportunity"], [None, "", ",", "fairness"]),
    "sweep-axis": (["n", "epsilon"], [None, "", "m"]),
    "grid-start": (["20", "60", "0.5", "4"], [None, "", "0", "-5", "inf", "nan", "x"]),
    "grid-stop": (["20", "90", "2"], [None, "", "0", "inf", "1e400", "x"]),
    "grid-count": (["1", "2"], [None, "", "0", "-1", "1.5", "x"]),
    "draws": (["1", "2"], [None, "", "0", "-3", "x"]),
    "seed": ([None, "3"], ["", "-1", "x"]),
    "mechanism": ([None, "output_perturbation", "dp_sgd"], ["", "laplace", "dp-sgd"]),
    "zeta": ([None, "0.01", "0.5"], ["", "0", "1", "nan", "x"]),
    "delta-policy": ([None, "inverse_n_squared", "fixed"], ["", "auto"]),
    "epsilon": ([None, "1.0", "0.1", "5"], ["", "0", "-1", "inf", "nan", "x"]),
    "delta": ([None, "1e-6", "0.5"], ["", "0", "1", "x"]),
    "sensitive-col": ([None, "s"], ["", "nope"]),
    "label-col": ([None, "y"], ["", "nope"]),
    "desirable": ([None, "1", "0,1"], ["", "5", "-1", "x"]),
    "eval-split": ([None, "test", "train"], ["", "all"]),
    "test-fraction": ([None, "0.1", "0.5"], ["", "0", "1", "1.5", "0.001", "x"]),
    "tol": ([None, "1e-8", "1e-3"], ["", "0", "-1", "nan", "x"]),
}


@st.composite
def experiment_config_texts(draw):
    """Config text with up to two keys set to a breaking value and every
    other key to a working one."""
    broken = draw(st.sets(st.sampled_from(sorted(FUZZ_VALUES)), max_size=2))
    lines = []
    for key, (working, breaking) in FUZZ_VALUES.items():
        value = draw(st.sampled_from(breaking if key in broken else working))
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestExperimentConfigFuzz:
    def test_keys_are_the_config_keys(self):
        assert sorted(FUZZ_VALUES) == sorted(experiment._CONFIG_KEYS)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(text=experiment_config_texts())
    def test_experiment_exits_0_or_2(self, tmp_path_factory, text):
        root = tmp_path_factory.mktemp("fuzz")
        spec = root / "spec.cfg"
        spec.write_text(TINY_SPEC_TEXT, encoding="utf-8")
        cfg = root / "exp.cfg"
        cfg.write_text(text.replace("SPEC", str(spec)), encoding="utf-8")
        code = run(["experiment", "--config", str(cfg), "--seed", "5",
                    "--out-dir", str(root / "out")])
        assert code in (0, 2), text


def readme_flags(text: str) -> set[str]:
    """``--flags`` on the ``fairbound`` command lines of the fenced blocks
    of ``text`` (with their continuation lines) and in its backticked
    prose.  Other command lines, such as ``pip install``, are not read."""
    prose, commands = [], []
    in_block = continued = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif not in_block:
            prose.append(line)
        elif continued or line.lstrip().startswith("fairbound "):
            commands.append(line)
            continued = line.endswith("\\")
    spans = re.findall(r"`([^`]+)`", "\n".join(prose))
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(commands + spans)))


def parser_flags() -> set[str]:
    """Every long flag some ``fairbound`` subcommand defines."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {opt for sub in subparsers.choices.values() for action in sub._actions
            for opt in action.option_strings if opt.startswith("--")}


class TestReadmeFlags:
    def test_reader_sees_commands_and_prose_only(self):
        text = ("run `fairbound bound --zeta 0.1` or `--fs-delta`\n"
                "```bash\npip install -e . --no-build-isolation\n"
                "fairbound train --data d.csv \\\n    --lambda 1.0\n--stray\n```\n")
        assert readme_flags(text) == {"--zeta", "--fs-delta", "--data", "--lambda"}

    def test_every_readme_flag_is_defined(self):
        text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        documented = readme_flags(text)
        assert {"--config", "--finite-sample", "--out-dir"} <= documented
        assert sorted(documented - parser_flags()) == []
