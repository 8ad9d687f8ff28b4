import warnings

import numpy as np
import pytest

from fairbound.cli import main
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
        [["--fs-delta", "1.5"], ["--fs-delta", "0"], ["--b3", "0"], ["--b4", "0"],
         ["--natarajan-dim", "-1"], ["--b3", "0.001", "--fs-delta", "0.5"]],
        ids=["fs_delta_above_one", "fs_delta_zero", "b3_zero", "b4_zero", "natarajan_dim_negative",
             "b3_below_delta_share"],
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
