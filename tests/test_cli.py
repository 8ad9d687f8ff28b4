import argparse
import csv
import functools
import importlib
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairbound
from fairbound import experiment, trainer
from fairbound.cli import build_parser, main
from fairbound.dataset import load_csv
from fairbound.fairness import NOTIONS
from fairbound.model import LinearModel, load_model, save_model
from fairbound.privacy import PrivacyParams, release
from fairbound.trainer import constants

from conftest import README, readme_block

NOTION_NAMES = ", ".join(NOTIONS)

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

    def test_privatize_dpsgd_at_large_radius(self, workdir, capsys):
        # the ball checks' rounding slack scales with the radius: at 1e10
        # a projected DP-SGD iterate's norm exceeds R by a few ulps of R,
        # more than an absolute 1e-9
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        priv = str(workdir / "priv_sgd.txt")
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        assert run(["train", "--data", data, "--lambda", "1.0", "--radius", "1e10",
                    "--out", model]) == 0
        assert run(["privatize", "--model", model, "--data", data, "--lambda", "1.0",
                    "--mechanism", "dp-sgd", "--epsilon", "0.5", "--seed", "1",
                    "--out", priv]) == 0, capsys.readouterr().err
        assert load_model(priv).radius == 1e10

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

    @pytest.mark.parametrize("name", ["my,data", 'say "hi"', "two\nlines"],
                             ids=["comma", "quote", "line-break"])
    def test_table_name_is_one_cell(self, workdir, name):
        # the row was hand-joined: --name "my,data" wrote 7 cells under 6 columns
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        out = workdir / "table.csv"
        assert run(["table", "--model", model, "--data", data, "--train-data", data,
                    "--lambda", "1.0", "--name", name, "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and None not in rows[0]
        assert rows[0]["dataset"] == name
        assert all(float(rows[0][notion]) >= 0 for notion in experiment.TABLE_NOTIONS)

    def test_audit_rows_of_group_values_with_commas_and_line_breaks(self, workdir):
        # a value with a line break split its audit row across two lines
        values = ["a\nb", "c,d", "e\rf", 'g"h']
        data = workdir / "odd.csv"
        rng = np.random.default_rng(0)
        with open(data, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(["f0", "s", "y"])
            for i in range(40):
                writer.writerow([repr(rng.normal()), values[i % 4], str(i // 2 % 2)])
        model = str(workdir / "model.txt")
        assert run(["train", "--data", str(data), "--lambda", "1.0", "--out", model]) == 0
        out = workdir / "audit.csv"
        assert run(_report_argv("audit", str(data), model, "accuracy-parity", out)) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [row["k"] for row in rows] == ["0", "1", "2", "3"]
        assert [row["group"] for row in rows] == ["s=a\nb", "s=c/d", "s=e\rf", 's=g"h']
        assert all(None not in row and abs(float(row["fairness"])) <= 1 for row in rows)


    @pytest.mark.parametrize("flag, name", [("--data", "a\nb.csv"), ("--model", "m\rn.txt")],
                             ids=["lf_in_data_path", "cr_in_model_path"])
    def test_audit_preamble_with_a_line_break_in_a_path(self, workdir, flag, name):
        # the path's line break split its preamble line, and a reader that
        # skips '#' lines took the rest of the path as the header
        data = str(workdir / (name if flag == "--data" else "data.csv"))
        model = str(workdir / (name if flag == "--model" else "model.txt"))
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        out = workdir / "audit.csv"
        assert run(_report_argv("audit", data, model, "accuracy-parity", out)) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        assert lines[0] == "k,group,fairness,flags\n"
        rows = list(csv.DictReader(lines))
        assert [row["group"] for row in rows] == ["s=0", "s=1"]
        assert name.replace("\n", "\\n").replace("\r", "\\r") in out.read_text(encoding="utf-8")


class TestImports:
    def test_cli_loads_no_scipy(self):
        # the package needs only NumPy; SciPy serves the benchmark and the
        # tests that compare against it
        src = pathlib.Path(experiment.__file__).parents[1]
        code = ("import sys, fairbound.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert result.stdout.strip() == "[]"


COMMANDS = ["gen-data", "train", "privatize", "audit", "bound", "experiment", "table"]


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def action_fields(action: argparse.Action) -> dict:
    """An action's settings; a ``partial`` converter is named by its
    function and arguments, since each parser build may make its own."""
    fields = dict(action._get_kwargs())
    if isinstance(fields["type"], functools.partial):
        fields["type"] = (fields["type"].func.__qualname__, fields["type"].args)
    return fields


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_parser_equals_the_full_one(self, command):
        built = subparsers(build_parser(command))
        one, full = built[command], subparsers(build_parser())[command]
        assert len(full._actions) > 1
        assert one.format_help() == full.format_help()
        assert [action_fields(a) for a in one._actions] == [action_fields(a) for a in full._actions]
        assert list(built) == COMMANDS
        assert all(len(p._actions) == 1 for name, p in built.items() if name != command)

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["-h"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(COMMANDS) + "}" in out
        for command in COMMANDS:
            assert re.search(rf"^ +{command} +\S", out, re.M), command

    def test_unknown_command_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["nope"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        choices = re.search(r"invalid choice: 'nope' \(choose from (.*)\)", err).group(1)
        assert re.findall(r"[\w-]+", choices) == COMMANDS


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

    @pytest.mark.parametrize("command, values", [
        ("audit", {"notion": "accuracy-parity", "desirable": "0"}),
        ("audit", {"notion": "equality-of-opportunity", "desirable": "0"}),
        ("privatize", {"mechanism": "dp-sgd"}),
    ], ids=["audit_accuracy_parity", "audit_equality_of_opportunity", "privatize_dpsgd"])
    def test_converted_values_from_config_match_flags(self, workdir, command, values):
        # a config value passes through the converter its flag has
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        base = {"audit": ["audit", "--data", data, "--model", model],
                "privatize": ["privatize", "--data", data, "--model", model, "--lambda", "1.0",
                              "--epsilon", "0.5", "--seed", "1"]}[command]
        out = {"audit": "--report", "privatize": "--out"}[command]
        flags = [f for key, value in values.items() for f in (f"--{key}", value)]
        assert run(base + flags + [out, str(workdir / "flags.txt")]) == 0
        cfg = workdir / "c.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        assert run(base + ["--config", str(cfg), out, str(workdir / "config.txt")]) == 0
        assert (workdir / "config.txt").read_bytes() == (workdir / "flags.txt").read_bytes()

    @pytest.mark.parametrize("command, values, message", [
        ("audit", {"notion": "bogus"}, f"--notion must be one of {NOTION_NAMES}, got 'bogus'"),
        ("privatize", {"mechanism": "laplace"},
         "--mechanism must be one of output_perturbation, dp_sgd, got 'laplace'"),
        ("audit", {"notion": "accuracy", "desirable": "x"},
         "--desirable must be comma-separated integer label ids, got 'x'"),
    ], ids=["notion", "mechanism", "desirable"])
    def test_bad_converted_value_in_config_is_config_error_2(self, workdir, command, values,
                                                             message, capsys):
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        cfg = workdir / "c.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        out = workdir / "out.txt"
        argv = {"audit": ["audit", "--report", str(out)],
                "privatize": ["privatize", "--lambda", "1.0", "--epsilon", "0.5", "--seed", "1",
                              "--out", str(out)]}[command]
        capsys.readouterr()
        assert run(argv + ["--data", data, "--model", model, "--config", str(cfg)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


EXTREME_BUDGETS = {
    "epsilon_tiny": ("--epsilon", "1e-300"),
    "epsilon_huge": ("--epsilon", "1e300"),
    "lambda_tiny": ("--lambda", "1e-300"),
    "lambda_huge": ("--lambda", "1e300"),
}
EXTREME_BUDGET_COMMANDS = {
    "privatize": ["privatize", "--mechanism", "output-perturbation", "--seed", "1"],
    "privatize_dpsgd": ["privatize", "--mechanism", "dp-sgd", "--seed", "1"],
    "bound": ["bound", "--train-data", "DATA", "--notion", "accuracy"],
    "bound_dpsgd": ["bound", "--train-data", "DATA", "--notion", "accuracy",
                    "--mechanism", "dp-sgd"],
    "table": ["table", "--train-data", "DATA"],
}


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

    def test_finite_sample_confidence_not_positive_is_2(self, workdir, capsys):
        # without --other the statement holds with probability
        # 1 - fs_delta - zeta; this one once exited 0 and wrote -0.3
        missing, model = str(workdir / "missing.csv"), str(workdir / "missing.txt")
        out = workdir / "out.csv"
        argv = _report_argv("bound", missing, model, "accuracy", out)
        assert run(argv + ["--finite-sample", "independent", "--fs-delta", "0.7",
                           "--zeta", "0.6"]) == 2
        assert re.search(r"config error: --fs-delta 0\.7 plus --zeta 0\.6 is at least 1",
                         capsys.readouterr().err)
        assert not out.exists()

    def test_convergence_error_is_3(self, workdir):
        spec = str(workdir / "synth.cfg")
        data = str(workdir / "data.csv")
        run(["gen-data", "--spec", spec, "--seed", "3", "--out", data])
        assert run(["train", "--data", data, "--lambda", "1.0", "--max-iters", "2",
                    "--out", str(workdir / "m.txt")]) == 3

    def test_data_error_is_4(self, workdir):
        assert run(["train", "--data", str(workdir / "missing.csv"), "--lambda", "1.0",
                    "--out", str(workdir / "m.txt")]) == 4

    def test_undefined_margin_is_data_error_4(self, workdir, capsys):
        # both scores of rows 0 and 1 overflow to +inf, so their margins are
        # NaN; the report once certified both groups with chernoff = 0.  The
        # training rows have finite norms: one whose norm overflows is
        # refused first (test_overflowing_feature_norm_is_data_error_4)
        data, train = workdir / "data.csv", workdir / "train.csv"
        data.write_text("f0,s,y\n1e160,0,0\n1e160,1,1\n1,0,1\n2,1,0\n", encoding="utf-8")
        train.write_text("f0,s,y\n3,0,0\n4,1,1\n1,0,1\n2,1,0\n", encoding="utf-8")
        model, other = workdir / "model.txt", workdir / "other.txt"
        model.write_text("2 2 2e154\n1e154 0.0\n5e153 0.0\n", encoding="utf-8")
        other.write_text("2 2 2e154\n1e154 1.0\n5e153 0.0\n", encoding="utf-8")
        out = workdir / "out.csv"
        assert run(["bound", "--model", str(model), "--other", str(other), "--data", str(data),
                    "--train-data", str(train), "--lambda", "1.0",
                    "--notion", "accuracy-parity", "--out", str(out)]) == 4
        assert "2 rows have a margin" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train", "--data", "BIG", "--out", "OUT"],
        ["privatize", "--data", "BIG", "--model", "MODEL", "--epsilon", "1", "--seed", "1",
         "--out", "OUT"],
        ["bound", "--data", "BIG", "--model", "MODEL", "--train-data", "BIG",
         "--notion", "accuracy", "--out", "OUT"],
        ["bound", "--data", "OK", "--model", "MODEL", "--train-data", "BIG",
         "--notion", "accuracy", "--out", "OUT"],
        ["table", "--data", "BIG", "--model", "MODEL", "--train-data", "BIG", "--out", "OUT"],
    ], ids=["train", "privatize", "bound", "bound_ok_eval_data", "table"])
    def test_overflowing_feature_norm_is_data_error_4(self, workdir, command, capsys):
        # every cell is finite, but the norms of rows 0 and 1 overflow;
        # privatize, bound and table once exited 2 blaming the budget, and
        # train 3, each after a RuntimeWarning, which now fails the test.
        # The message names the training file, which bound and table read
        # next to the evaluation file
        big, ok = workdir / "big.csv", workdir / "ok.csv"
        model, out = workdir / "model.txt", workdir / "out.txt"
        big.write_text("f0,s,y\n1e160,0,0\n1e160,1,1\n1,0,1\n2,1,0\n", encoding="utf-8")
        ok.write_text("f0,s,y\n3,0,0\n4,1,1\n1,0,1\n2,1,0\n", encoding="utf-8")
        model.write_text("2 2 1\n0.1 0.0\n0.2 0.0\n", encoding="utf-8")
        paths = {"BIG": str(big), "OK": str(ok), "MODEL": str(model), "OUT": str(out)}
        assert main([paths.get(a, a) for a in command] + ["--lambda", "1.0"]) == 4
        assert (f"data error: {big}: data row 0 (0-based) has a feature norm that overflows "
                "float64" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bound", "table"])
    def test_bad_lambda_fails_before_the_data_is_read(self, workdir, command, capsys):
        # --lambda was once checked after the data files were read, so a
        # missing file was reported first (exit 4)
        missing = str(workdir / "missing.csv")
        argv = _report_argv(command, missing, str(workdir / "model.txt"), "accuracy",
                            workdir / "out.csv")
        argv[argv.index("--lambda") + 1] = "0"
        assert run(argv) == 2
        assert "config error: --lambda must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("gen-data", "--seed", "-1"),
        ("experiment", "--seed", "-1"),
        ("train", "--tol", "0"),
        ("train", "--max-iters", "0"),
        ("train", "--radius", "-1"),
        ("privatize", "--epsilon", "inf"),
        ("privatize", "--delta", "1"),
        ("privatize", "--zeta", "nan"),
        ("privatize", "--seed", "-1"),
        ("bound", "--epsilon", "0"),
        ("bound", "--delta", "abc"),
        ("bound", "--zeta", "1.5"),
        ("bound", "--fs-delta", "2"),
        ("audit", "--fs-delta", "0"),
        ("table", "--epsilon", "-1"),
        ("table", "--delta", "0"),
        ("table", "--zeta", "1"),
    ])
    def test_bad_flag_value_fails_before_any_file_is_read(self, workdir, command, flag, value,
                                                          capsys):
        # each flag but gen-data's --seed was once checked after the input
        # files were read, so a missing file was reported first; --fs-delta
        # was reported as "finite-sample flags", which no flag is called
        missing, model = str(workdir / "missing.csv"), str(workdir / "missing.txt")
        out = workdir / "out.csv"
        argv = {
            "gen-data": ["gen-data", "--spec", missing, "--seed", "1", "--out", str(out)],
            "experiment": ["experiment", "--config", missing, "--seed", "1",
                           "--out-dir", str(workdir / "results")],
            "train": ["train", "--data", missing, "--lambda", "1.0", "--out", str(out)],
            "privatize": ["privatize", "--data", missing, "--model", model, "--lambda", "1.0",
                          "--epsilon", "1", "--seed", "1", "--out", str(out)],
            "audit": _report_argv("audit", missing, model, "accuracy", out),
            "bound": _report_argv("bound", missing, model, "accuracy", out),
            "table": _report_argv("table", missing, model, "accuracy", out),
        }[command]
        assert run(argv + [flag, value]) == 2
        assert f"config error: {flag} must " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "experiment"])
    @pytest.mark.parametrize("lines", [
        ["cell.0.0.count = -1"],
        ["cell.0.0.count = -1", "cell.0.1.count = 1", "cell.1.0.count = 0", "cell.1.1.count = 0"],
        ["cell.0.0.mean = nan, 0"],
        ["cell.0.0.cov = -1, 1"],
        ["cell.0.0.cov = 1, 2, 2, 1"],
    ], ids=["negative_count", "counts_summing_to_zero", "nan_mean", "negative_variance",
            "not_psd"])
    def test_bad_spec_value_is_config_error_2(self, workdir, command, lines, capsys):
        # each once exited 1 with a traceback, exited 4 for a zero total,
        # or (not_psd) drew its rows after a RuntimeWarning; later lines
        # override the spec's own
        spec = workdir / "bad.cfg"
        spec.write_text(SPEC_TEXT + "\n".join(lines) + "\n", encoding="utf-8")
        exp = workdir / "exp.cfg"
        exp.write_text(EXPERIMENT_TEXT.format(spec=str(spec)), encoding="utf-8")
        out = workdir / "out"
        argv = {"gen-data": ["gen-data", "--spec", str(spec), "--seed", "3", "--out", str(out)],
                "experiment": ["experiment", "--config", str(exp), "--seed", "3",
                               "--out-dir", str(out)]}[command]
        assert main(argv) == 2
        assert "config error: cell (0, 0): " in capsys.readouterr().err
        assert not out.exists()

    def test_label_column_holding_a_feature_is_data_error_4(self, workdir, monkeypatch, capsys):
        # --label-col f0 makes each of the 500 feature values a label; train
        # exits before the solver computes any objective
        data = str(workdir / "data.csv")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        monkeypatch.setattr(trainer, "_objective", None)
        out = workdir / "m.txt"
        assert run(["train", "--data", data, "--label-col", "f0", "--lambda", "1.0",
                    "--out", str(out)]) == 4
        assert "500 labels on 500 rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["2 3 nan\n1 0 0\n0 1 0\n", "2 x 1\n1 0 0\n0 1 0\n", "2 3 5\n1 0 0\n0 1\n",
         "2 3 5\n1 0 0\n0 1 0\n0 0 1\n", "2 3 5\n1 0 0\n0 1 0\n\ntrained on d.csv\n"],
        ids=["nan_radius", "non_numeric_header", "truncated_row", "extra_row", "trailing_text"],
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

    @pytest.mark.parametrize("notion", ["accuracy", "accuracy-parity"])
    @pytest.mark.parametrize("mechanism", ["output-perturbation", "dp-sgd"])
    def test_one_label_data_is_data_error_4(self, workdir, notion, mechanism, capsys):
        # train accepts a file whose labels all have one value, but a
        # one-label model has no margin; bound once died on it with a
        # ValueError, exit 1
        data = workdir / "one_label.csv"
        data.write_text("f0,f1,s,y\n" + "".join(f"{i % 7},{i % 3 - 1},{i % 2},yes\n"
                                                 for i in range(50)), encoding="utf-8")
        model, out = workdir / "model.txt", workdir / "out.csv"
        assert run(["train", "--data", str(data), "--lambda", "1.0", "--out", str(model)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # dp-sgd's notice, unrelated to the labels
            assert run(["bound", "--model", str(model), "--data", str(data),
                        "--train-data", str(data), "--lambda", "1.0", "--notion", notion,
                        "--mechanism", mechanism, "--out", str(out)]) == 4
        assert "single-label model" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command, budget",
        [(command, budget) for command in EXTREME_BUDGET_COMMANDS for budget in EXTREME_BUDGETS
         # the DP-SGD schedule takes no step at lambda 1e-300: a 2R bound, exit 0
         if not ("dp-sgd" in EXTREME_BUDGET_COMMANDS[command] and budget == "lambda_tiny")],
    )
    def test_extreme_budget_is_config_error_2(self, workdir, command, budget, capsys):
        # the closed-form noise scale or lemma distance divided by zero or
        # overflowed, a ZeroDivisionError or OverflowError traceback (exit 1)
        flag, value = EXTREME_BUDGETS[budget]
        values = {"--epsilon": "1.0", "--lambda": "1.0", flag: value}
        _assert_config_error(
            workdir, EXTREME_BUDGET_COMMANDS[command] + [f for kv in values.items() for f in kv],
            capsys)

    @pytest.mark.parametrize("mechanism", ["output_perturbation", "dp_sgd"])
    def test_extreme_epsilon_grid_points_are_failure_rows(self, workdir, mechanism):
        # an epsilon grid from 1e-300 to 1e300 aborted the whole sweep with a
        # ZeroDivisionError (exit 1) and wrote no sweep.csv
        exp = workdir / "exp.cfg"
        exp.write_text(
            EXPERIMENT_TEXT.format(spec=str(workdir / "synth.cfg"))
            .replace("sweep-axis = n", "sweep-axis = epsilon")
            .replace("grid-start = 100", "grid-start = 1e-300")
            .replace("grid-stop = 400", "grid-stop = 1e300")
            .replace("grid-count = 2", "grid-count = 3")
            .replace("output_perturbation", mechanism),
            encoding="utf-8")
        out_dir = workdir / "results"
        assert run(["experiment", "--config", str(exp), "--seed", "5",
                    "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "failures.csv", encoding="utf-8", newline="") as fh:
            header, *failures = csv.reader(fh)
        assert header == ["grid_index", "grid_value", "error"]
        assert [row[0] for row in failures] == ["0", "2"]
        assert all(row[2].startswith("ConfigError: ") and "finite positive" in row[2]
                   for row in failures)
        # the message holds commas; hand-joined, each row read as 5 cells
        what = {"output_perturbation": "output-perturbation noise variance",
                "dp_sgd": "DP-SGD noise scale"}[mechanism]
        assert failures == [
            [g, value, f"ConfigError: the {what} at epsilon={value}, lambda=1.0 is out of "
             "floating-point range, not a finite positive float; the privacy budget or the "
             "ridge weight lies outside the range it can represent"]
            for g, value in [("0", "1.0000000000000237e-300"), ("2", "9.999999999999763e+299")]
        ]
        with open(out_dir / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.DictReader(line for line in fh if not line.startswith("#"))
                    if row["axis"] == "epsilon"]
        assert len(rows) == 2 and all(row["grid_value"] == "1.0" for row in rows)

    def test_output_perturbation_above_its_crossover_is_failure_row(self, workdir):
        # at epsilon 16 the classical Gaussian calibration is not
        # (epsilon, 1/n^2)-private, and the point was swept as if it were
        exp = workdir / "exp.cfg"
        exp.write_text(
            EXPERIMENT_TEXT.format(spec=str(workdir / "synth.cfg"))
            .replace("sweep-axis = n", "sweep-axis = epsilon")
            .replace("grid-start = 100", "grid-start = 1")
            .replace("grid-stop = 400", "grid-stop = 16"),
            encoding="utf-8")
        out_dir = workdir / "results"
        assert run(["experiment", "--config", str(exp), "--seed", "5",
                    "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "failures.csv", encoding="utf-8", newline="") as fh:
            header, *failures = csv.reader(fh)
        assert [row[0] for row in failures] == ["1"]
        assert float(failures[0][1]) == pytest.approx(16.0)
        assert failures[0][2].startswith(
            f"ConfigError: output perturbation at epsilon={failures[0][1]}, delta=")
        assert "is not (epsilon, delta)-private" in failures[0][2]
        with open(out_dir / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.DictReader(line for line in fh if not line.startswith("#"))
                    if row["axis"] == "epsilon"]
        assert rows and all(row["grid_value"] == "1.0" for row in rows)

    def test_privatize_above_gaussian_crossover_is_config_error_2(self, workdir, capsys):
        # the release's exact delta is 33.6 times 1e-5, and it was written
        _assert_config_error(workdir, ["privatize", "--lambda", "1.0", "--epsilon", "16",
                                       "--delta", "1e-5", "--seed", "1"], capsys)

    @pytest.mark.parametrize("command", [
        ["bound", "--train-data", "DATA", "--notion", "accuracy"],
        ["table", "--train-data", "DATA"],
    ], ids=["bound", "table"])
    def test_report_above_gaussian_crossover_is_config_error_2(self, workdir, command, capsys):
        # the lemma-2 distance of a budget privatize refuses was certified
        _assert_config_error(workdir, command + ["--lambda", "1.0", "--epsilon", "16",
                                                 "--delta", "1e-5"], capsys)

    def test_bound_other_above_gaussian_crossover_exits_0(self, workdir):
        # the measured distance of --other does not depend on epsilon
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        assert run(["bound", "--data", data, "--model", model, "--other", model,
                    "--train-data", data, "--lambda", "1.0", "--notion", "accuracy",
                    "--epsilon", "16", "--delta", "1e-5",
                    "--out", str(workdir / "out.csv")]) == 0

    def test_bad_notion_fails_before_data_is_read(self, workdir, capsys):
        # the flag is converted while the flags are parsed; the missing data
        # file was read first, a data error (exit 4)
        missing = str(workdir / "missing.csv")
        assert run(["bound", "--notion", "bogus", "--data", missing, "--model",
                    str(workdir / "missing.txt"), "--train-data", missing, "--lambda", "1.0",
                    "--out", str(workdir / "out.csv")]) == 2
        assert (f"config error: --notion must be one of {NOTION_NAMES}, got 'bogus'"
                in capsys.readouterr().err)
        assert not (workdir / "out.csv").exists()

    def test_privatize_negative_seed_is_config_error_2(self, workdir, capsys):
        # NumPy's seeding used to reject it with a ValueError traceback (exit 1)
        _assert_config_error(
            workdir, ["privatize", "--lambda", "1.0", "--epsilon", "1", "--seed", "-1"], capsys)

    @pytest.mark.parametrize("roles", [["--sensitive-col", "f0"], ["--label-col", "f1"],
                                       ["--sensitive-col", "y"], ["--label-col", "s"],
                                       ["--sensitive-col", "z", "--label-col", "z"]],
                             ids=["sensitive-f0", "label-f1", "sensitive-y", "label-s", "both-z"])
    def test_gen_data_role_name_collision_is_config_error_2(self, workdir, roles, capsys):
        # --sensitive-col f0 wrote the header f0,f1,f0,y, whose second f0
        # no command could read as the sensitive attribute
        out = workdir / "data.csv"
        assert run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3",
                    *roles, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

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
            ["notions = equality_of_opportunity", "desirable ="],
            ["notions = equality_of_opportunity", "desirable = 7"],
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

    def test_experiment_demographic_parity_on_three_labels_is_data_error_4(self, workdir, capsys):
        spec = workdir / "three.cfg"
        spec.write_text(THREE_LABEL_SPEC_TEXT, encoding="utf-8")
        exp = workdir / "exp.cfg"
        text = EXPERIMENT_TEXT.format(spec=str(spec))
        exp.write_text(text.replace("notions = accuracy_parity", "notions = demographic_parity_binary"),
                       encoding="utf-8")
        out_dir = workdir / "results"
        assert run(["experiment", "--config", str(exp), "--seed", "5",
                    "--out-dir", str(out_dir)]) == 4
        assert "binary labels" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["gen-data", "--spec", "SPEC", "--seed", "3", "--out", "OUT"],
            ["train", "--data", "DATA", "--lambda", "1.0", "--out", "OUT"],
            ["privatize", "--data", "DATA", "--model", "MODEL", "--lambda", "1.0",
             "--epsilon", "1", "--seed", "1", "--out", "OUT"],
            ["audit", "--data", "DATA", "--model", "MODEL", "--notion", "accuracy",
             "--report", "OUT"],
            ["bound", "--data", "DATA", "--model", "MODEL", "--train-data", "DATA",
             "--lambda", "1.0", "--notion", "accuracy", "--out", "OUT"],
            ["table", "--data", "DATA", "--model", "MODEL", "--train-data", "DATA",
             "--lambda", "1.0", "--out", "OUT"],
            ["experiment", "--config", "EXP", "--seed", "5", "--out-dir", "OUT"],
        ],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize("out", ["under_a_file", "empty"])
    def test_unwritable_output_path_is_config_error_2(self, workdir, command, out, capsys):
        # an output the program cannot create once ended in an OSError
        # traceback (exit 1)
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        exp = workdir / "exp.cfg"
        exp.write_text(EXPERIMENT_TEXT.format(spec=str(workdir / "synth.cfg")), encoding="utf-8")
        (workdir / "a_file").write_text("", encoding="utf-8")
        paths = {"SPEC": str(workdir / "synth.cfg"), "DATA": data, "MODEL": model,
                 "EXP": str(exp), "OUT": str(workdir / "a_file" / "out") if out != "empty" else ""}
        assert run([paths.get(a, a) for a in command]) == 2
        assert "config error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["train", "experiment", "gen-data"])
    def test_non_utf8_config_or_spec_is_config_error_2(self, workdir, command, capsys):
        # the decode error escaped read_config with a traceback
        bad = workdir / "bad.cfg"
        bad.write_bytes(b"lambda = 1.0\n# caf\xff\n")
        data = str(workdir / "data.csv")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        out = workdir / "out"
        argv = {
            "train": ["train", "--config", str(bad), "--data", data, "--out", str(out)],
            "experiment": ["experiment", "--config", str(bad), "--seed", "1",
                           "--out-dir", str(out)],
            "gen-data": ["gen-data", "--spec", str(bad), "--seed", "3", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(bad) in err and "UTF-8" in err
        assert not out.exists()

    def test_non_utf8_model_is_data_error_4(self, workdir, capsys):
        # the header's decode error escaped load_model with a traceback
        data = str(workdir / "data.csv")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        model = workdir / "model.txt"
        model.write_bytes(b"2 3 5\xff\n1 0 0\n0 1 0\n")
        out = workdir / "audit.csv"
        capsys.readouterr()
        assert run(_report_argv("audit", data, str(model), "accuracy-parity", out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(model) in err and "UTF-8" in err
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

    @pytest.mark.parametrize("command", ["bound", "table"])
    def test_train_data_shape_mismatch_is_data_error_4(self, workdir, command, capsys):
        # the model fits --data (two features) but not --train-data (one)
        data, model = str(workdir / "data.csv"), str(workdir / "model.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        train = workdir / "one_feature.csv"
        train.write_text("x,s,y\n30,0,0\n40,1,0\n30,0,1\n40,1,1\n", encoding="utf-8")
        out = workdir / "out.csv"
        argv = _report_argv(command, data, model, "accuracy", out)
        argv[argv.index("--train-data") + 1] = str(train)
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and model in err and "labels x" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["privatize", "bound", "table"])
    def test_delta_auto_on_one_training_row_is_config_error_2(self, workdir, command, capsys):
        one_row = str(workdir / "one_row.csv")
        (workdir / "one_row.csv").write_text("x1,x2,s,y\n1.0,0.5,0,0\n", encoding="utf-8")
        model = str(workdir / "model.txt")
        save_model(LinearModel(np.zeros((1, 3)), 1.0), model)
        out = workdir / "out.txt"
        argv = (["privatize", "--data", one_row, "--model", model, "--lambda", "1.0",
                 "--epsilon", "0.5", "--seed", "1", "--out", str(out)] if command == "privatize"
                else _report_argv(command, one_row, model, "accuracy", out))
        assert run(argv + ["--delta", "auto"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --delta auto") and one_row in err
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

    @pytest.mark.parametrize("other, fs_delta, zeta, confidence",
                             [(False, "0.05", "0.01", 1 - 0.05 - 0.01),
                              (True, "0.05", "0.01", 1 - 0.05),
                              (True, "0.7", "0.6", 1 - 0.7)],
                             ids=["lemma", "other", "other-large-zeta"])
    def test_bound_combined_confidence(self, workdir, other, fs_delta, zeta, confidence):
        # --other once also subtracted zeta, though its measured distance
        # holds surely, so with it fs_delta + zeta may exceed 1
        data = str(workdir / "data.csv")
        model = str(workdir / "model.txt")
        priv = str(workdir / "priv.txt")
        run(["gen-data", "--spec", str(workdir / "synth.cfg"), "--seed", "3", "--out", data])
        run(["train", "--data", data, "--lambda", "1.0", "--out", model])
        run(["privatize", "--data", data, "--model", model, "--lambda", "1.0", "--epsilon", "1",
             "--seed", "1", "--out", priv])
        out = workdir / "bound.csv"
        args = _report_argv("bound", data, model, "accuracy-parity", out)
        assert run(args + ["--finite-sample", "independent", "--fs-delta", fs_delta,
                           "--zeta", zeta, *(["--other", priv] if other else [])]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")]
        column = rows[0].index("combined_confidence")
        assert {float(row[column]) for row in rows[1:]} == {confidence}

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
    "mechanism": ([None, "output_perturbation", "dp_sgd", "dp-sgd"], ["", "laplace"]),
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
def config_lines(draw, pool):
    """``key = value`` lines with up to two keys of ``pool`` set to a
    breaking value and every other key to a working one."""
    broken = draw(st.sets(st.sampled_from(sorted(pool)), max_size=2))
    lines = []
    for key, (working, breaking) in pool.items():
        value = draw(st.sampled_from(breaking if key in broken else working))
        if value is not None:
            lines.append(f"{key} = {value}")
    return lines


class TestExperimentConfigFuzz:
    def test_keys_are_the_config_keys(self):
        assert sorted(FUZZ_VALUES) == sorted(experiment._CONFIG_KEYS)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(lines=config_lines(FUZZ_VALUES))
    def test_experiment_exits_0_or_2(self, tmp_path_factory, lines):
        root = tmp_path_factory.mktemp("fuzz")
        spec = root / "spec.cfg"
        spec.write_text(TINY_SPEC_TEXT, encoding="utf-8")
        cfg = root / "exp.cfg"
        text = "\n".join(lines) + "\n"
        cfg.write_text(text.replace("SPEC", str(spec)), encoding="utf-8")
        code = run(["experiment", "--config", str(cfg), "--seed", "5",
                    "--out-dir", str(root / "out")])
        assert code in (0, 2), text


# Per synthetic-spec key of cells (0, 0) and (1, 1), as in FUZZ_VALUES; the
# other keys of TINY_SPEC_TEXT keep their values.
SPEC_FUZZ_VALUES = {
    key: values
    for cell in ("cell.0.0", "cell.1.1")
    for key, values in {
        f"{cell}.count": ([None, "30", "0"], ["-1", "1.5"]),
        f"{cell}.mean": ([None, "2.0, -0.5", "0, 0"], ["nan, 0", "inf, 0", "1", "1, 2, 3"]),
        f"{cell}.cov": ([None, "1.0, 1.0", "0, 2", "1, 0.3, 0.3, 1"],
                        ["-1, 1", "1e400, 1", "1, 2, 2, 1", "1, 0.5, 0.4, 1"]),
    }.items()
}
SPEC_FUZZ_EXPERIMENT = """\
data = {spec}
data-format = synthetic
lambda = 1.0
notions = accuracy_parity
sweep-axis = epsilon
grid-start = 0.5
grid-stop = 2
grid-count = 2
draws = 2
eval-split = train
"""


class TestSyntheticSpecFuzz:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(lines=config_lines(SPEC_FUZZ_VALUES))
    def test_gen_data_and_experiment_exit_0_2_or_4(self, tmp_path_factory, lines):
        # a bad value once exited 1 with a traceback or drew its rows after
        # a RuntimeWarning, which fails the test; 4 is a zero total count
        root = tmp_path_factory.mktemp("spec_fuzz")
        spec, exp = root / "spec.cfg", root / "exp.cfg"
        text = TINY_SPEC_TEXT + "".join(f"{line}\n" for line in lines)
        spec.write_text(text, encoding="utf-8")
        exp.write_text(SPEC_FUZZ_EXPERIMENT.format(spec=spec), encoding="utf-8")
        assert main(["gen-data", "--spec", str(spec), "--seed", "5",
                     "--out", str(root / "data.csv")]) in (0, 2, 4), lines
        assert main(["experiment", "--config", str(exp), "--seed", "5",
                     "--out-dir", str(root / "out")]) in (0, 2, 4), lines


def subcommand_keys(command: str) -> set[str]:
    """The config-file keys of ``command``: its long flags without the
    dashes, ``--config`` left out."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return {opt[2:] for action in sub._actions for opt in action.option_strings
            if opt.startswith("--") and opt not in ("--config", "--help")}


# Per audit/bound config key: (working values, breaking values), as in
# FUZZ_VALUES.  Upper-case names stand for the files of ``report_inputs``;
# NODIR is an output path whose directory does not exist.
_DATA_FLAG_VALUES = {
    "data": (["DATA"], [None, "", "missing.csv", "THREE"]),
    "sensitive-col": ([None, "s"], ["", "nope", "y"]),
    "label-col": ([None, "y"], ["", "nope", "f0"]),
    "model": (["MODEL", "PRIV"], [None, "", "missing.txt", "BADMODEL"]),
    "notion": (["accuracy", "accuracy-parity", "equalized_odds", "equality-of-opportunity",
                "demographic-parity-binary"], [None, "", "fairness"]),
    "desirable": ([None, "1", "0,1"], ["", "5", "-1", "x"]),
    "finite-sample": ([None, "off", "independent", "dependent"], ["", "both"]),
    "fs-delta": ([None, "0.05", "0.5"], ["", "0", "1", "1.5", "nan", "x"]),
}
REPORT_FUZZ_VALUES = {
    "audit": {**_DATA_FLAG_VALUES, "report": (["OUT"], [None, "", "NODIR"])},
    "bound": {
        **_DATA_FLAG_VALUES,
        "other": ([None, "PRIV", "MODEL"], ["missing.txt", "BADMODEL"]),
        "train-data": (["DATA"], [None, "", "missing.csv", "THREE"]),
        "lambda": (["1.0", "0.5"], [None, "", "0", "-1", "inf", "nan", "abc"]),
        "mechanism": ([None, "output-perturbation", "dp-sgd", "output_perturbation"],
                      ["", "laplace"]),
        "epsilon": ([None, "1.0", "0.1", "5"], ["", "0", "-1", "inf", "1e400", "nan", "x"]),
        "delta": ([None, "auto", "1e-6"], ["", "0", "1", "nan", "x"]),
        "zeta": ([None, "0.01", "0.5"], ["", "0", "1", "nan", "x"]),
        "out": (["OUT"], [None, "", "NODIR"]),
    },
}


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    """Binary and three-label data, h*, a private release and a malformed
    model, each written once."""
    root = tmp_path_factory.mktemp("report_inputs")
    paths = {name: str(root / f"{name.lower()}.txt") for name in ("MODEL", "PRIV", "BADMODEL")}
    for name, text in (("DATA", TINY_SPEC_TEXT), ("THREE", THREE_LABEL_SPEC_TEXT)):
        spec = root / f"{name.lower()}.cfg"
        spec.write_text(text, encoding="utf-8")
        paths[name] = str(root / f"{name.lower()}.csv")
        assert run(["gen-data", "--spec", str(spec), "--seed", "3", "--out", paths[name]]) == 0
    assert run(["train", "--data", paths["DATA"], "--lambda", "1.0", "--out", paths["MODEL"]]) == 0
    assert run(["privatize", "--data", paths["DATA"], "--model", paths["MODEL"], "--lambda", "1.0",
                "--epsilon", "1", "--seed", "1", "--out", paths["PRIV"]]) == 0
    pathlib.Path(paths["BADMODEL"]).write_text("2 3 nan\n1 0 0\n0 1 0\n", encoding="utf-8")
    return paths


def fuzz_config_file(tmp_path_factory, report_inputs, command, lines_strategy, exits):
    """Run ``command`` on 100 derandomized config files, each of the
    ``key = value`` lines ``lines_strategy`` draws, and assert that each
    ends with one of ``exits``."""
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(lines=lines_strategy)
    def check(lines):
        root = tmp_path_factory.mktemp("fuzz")
        paths = {**report_inputs, "OUT": str(root / "out.csv"),
                 "NODIR": str(root / "missing" / "out.csv")}
        cfg = root / "command.cfg"
        cfg.write_text("".join(
            f"{key} = {paths.get(value, value)}\n"
            for key, _, value in (line.partition(" = ") for line in lines)), encoding="utf-8")
        try:
            code = run([command, "--config", str(cfg)])
        except SystemExit as exc:  # argparse: a required key left out, or a bad number
            code = exc.code
        assert code in exits, lines

    check()


class TestReportConfigFuzz:
    @pytest.mark.parametrize("command", sorted(REPORT_FUZZ_VALUES))
    def test_keys_are_the_flags(self, command):
        assert sorted(REPORT_FUZZ_VALUES[command]) == sorted(subcommand_keys(command))

    @pytest.mark.parametrize("command", sorted(REPORT_FUZZ_VALUES))
    def test_config_file_exits_0_2_or_4(self, tmp_path_factory, report_inputs, command):
        fuzz_config_file(tmp_path_factory, report_inputs, command,
                         config_lines(REPORT_FUZZ_VALUES[command]), (0, 2, 4))


# Per train/privatize/table config key, as in REPORT_FUZZ_VALUES.  The
# budgets include 1e-300 and 1e300, where the closed-form noise scales and
# distances leave the float range.
_EXTREMES = ["1e-300", "1e300"]
_PRIVACY_VALUES = {
    "lambda": (["1.0", "0.5"], [None, "", "0", "-1", "inf", "nan", "abc", *_EXTREMES]),
    "epsilon": ([None, "1.0", "0.1", "5"], ["", "0", "-1", "inf", "1e400", "nan", "x", *_EXTREMES]),
    "delta": ([None, "auto", "1e-6"], ["", "0", "1", "nan", "x", *_EXTREMES]),
    "zeta": ([None, "0.01", "0.5"], ["", "0", "1", "nan", "x", *_EXTREMES]),
}
_INPUT_VALUES = {key: _DATA_FLAG_VALUES[key] for key in ("data", "sensitive-col", "label-col", "model")}
COMMAND_FUZZ_VALUES = {
    "train": {
        "data": (["DATA", "THREE"], [None, "", "missing.csv"]),
        "sensitive-col": _DATA_FLAG_VALUES["sensitive-col"],
        # a feature column as the label would train one label per row
        "label-col": ([None, "y"], ["", "nope"]),
        "lambda": _PRIVACY_VALUES["lambda"],
        "tol": ([None, "1e-8", "1e-3", "1e300"], ["", "0", "-1", "inf", "nan", "x", "1e-300"]),
        "max-iters": ([None, "1", "100"], ["", "0", "-1", "1.5", "x"]),
        "radius": ([None, "10", "1e300"], ["", "0", "-1", "inf", "nan", "x", "1e-300"]),
        "out": (["OUT"], [None, "", "NODIR"]),
    },
    "privatize": {
        **_INPUT_VALUES,
        **_PRIVACY_VALUES,
        "epsilon": (_PRIVACY_VALUES["epsilon"][0][1:], [None, *_PRIVACY_VALUES["epsilon"][1]]),
        "mechanism": ([None, "output-perturbation", "dp-sgd", "output_perturbation"],
                      ["", "laplace"]),
        "seed": (["1", "7"], [None, "", "-1", "1.5", "x"]),
        "out": (["OUT"], [None, "", "NODIR"]),
    },
    "table": {
        **_INPUT_VALUES,
        **_PRIVACY_VALUES,
        "train-data": (["DATA"], [None, "", "missing.csv", "THREE"]),
        "desirable": _DATA_FLAG_VALUES["desirable"],
        "name": ([None, "tiny"], ["", "a,b"]),
        "out": (["OUT"], [None, "", "NODIR"]),
    },
}


@st.composite
def extreme_budget_lines(draw, pool):
    """``key = value`` lines with one budget key of ``pool`` set to 1e-300 or
    1e300 and every other key to a working value.  Drawn from ``pool`` by
    :func:`config_lines`, such a config is rare: another broken key most
    often fails first."""
    extreme = draw(st.sampled_from(sorted(set(pool) & set(_PRIVACY_VALUES))))
    lines = []
    for key, (working, _) in pool.items():
        value = draw(st.sampled_from(_EXTREMES if key == extreme else working))
        if value is not None:
            lines.append(f"{key} = {value}")
    return lines


# train may also stop with a convergence error (exit 3)
COMMAND_FUZZ_EXITS = {"train": (0, 2, 3, 4), "privatize": (0, 2, 4), "table": (0, 2, 4)}


class TestCommandConfigFuzz:
    @pytest.mark.parametrize("command", sorted(COMMAND_FUZZ_VALUES))
    def test_keys_are_the_flags(self, command):
        assert sorted(COMMAND_FUZZ_VALUES[command]) == sorted(subcommand_keys(command))

    @pytest.mark.parametrize("command", sorted(COMMAND_FUZZ_VALUES))
    def test_config_file_exit_codes(self, tmp_path_factory, report_inputs, command):
        pool = COMMAND_FUZZ_VALUES[command]
        fuzz_config_file(tmp_path_factory, report_inputs, command,
                         st.one_of(config_lines(pool), extreme_budget_lines(pool)),
                         COMMAND_FUZZ_EXITS[command])


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
        documented = readme_flags(README.read_text(encoding="utf-8"))
        assert {"--config", "--finite-sample", "--out-dir"} <= documented
        assert sorted(documented - parser_flags()) == []


def readme_names(text: str) -> set[str]:
    """Dotted library names in the backticked spans of ``text`` outside
    fenced blocks: each ``fairbound.<...>`` and each ``<module>.<name>`` of a
    module of the package."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    modules = "|".join(sorted(m.name for m in pkgutil.iter_modules(fairbound.__path__)))
    pattern = rf"(?<![\w.])(?:fairbound|{modules})(?:\.\w+)+"
    return {name for span in re.findall(r"`([^`]+)`", prose)
            for name in re.findall(pattern, span) if name != "fairbound"}


def resolves(name: str) -> bool:
    """Whether ``name``, read under the package when it does not start
    with it, is a module or an attribute reached from the longest
    importable module prefix."""
    parts = name.split(".")
    if parts[0] != "fairbound":
        parts.insert(0, "fairbound")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


class TestReadmeNames:
    def test_reader_sees_dotted_library_names_only(self):
        text = ("`fairbound.dataset.split` and `model.margins_many`, not `sweep.csv`, "
                "`np.linalg.norm` or `fairbound`\n```python\nfairbound.model.distance\n```\n")
        assert readme_names(text) == {"fairbound.dataset.split", "model.margins_many"}

    def test_resolver_refuses_a_moved_name(self):
        assert resolves("fairbound.bounds.refined_lipschitz") and resolves("model.LinearModel")
        assert not resolves("model.pointwise_lipschitz_many")
        assert not resolves("fairbound.no_such_module.name")

    def test_every_readme_library_name_resolves(self):
        names = readme_names(README.read_text(encoding="utf-8"))
        assert len(names) >= 20
        assert sorted(name for name in names if not resolves(name)) == []


class TestReadmeCommands:
    def test_every_command_line_exits_0(self, tmp_path, monkeypatch):
        # the spec and config-keys blocks are the files the commands read
        monkeypatch.chdir(tmp_path)
        (tmp_path / "synth.cfg").write_text(readme_block("### Synthetic spec grammar"),
                                            encoding="utf-8")
        (tmp_path / "experiment.cfg").write_text(readme_block("### Experiment config keys"),
                                                 encoding="utf-8")
        block = readme_block("## Command line", fence="```bash\n")
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("fairbound ")]
        assert [argv[1] for argv in commands] == [
            "gen-data", "gen-data", "train", "privatize", "audit", "bound", "experiment", "table"]
        for argv in commands:
            assert run(argv[1:]) == 0, argv
