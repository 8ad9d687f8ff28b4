"""Command-line entry points.

Subcommands: gen-data, train, privatize, audit, bound, experiment, table.
Every subcommand but ``experiment`` takes a ``--config`` file of flags:
each of its long flags can equivalently be written as a key there (same
name, without the leading dashes), and flags given on the command line
override config values.  The parser resolves every flag, and a config value
passes through the same converter as the flag.  The ``--config`` of
``experiment`` is the experiment config itself
(``experiment.load_experiment_config``), whose keys are not flags, so its
``--seed`` and ``--out-dir`` are always given on the command line, and
``--seed`` overrides the config's ``seed`` key.  Every flag with a domain
takes as its argparse ``type`` the converter that experiment-config keys
and ``PrivacyParams`` use for the same value (``config.positive``,
``config.fraction``, ``config.seed_number`` and the others), bound to the
flag's name, so a value out of its domain is a configuration error that
names the flag, raised before any data, model or spec file is read.
Each subcommand is one entry of ``_COMMANDS``: its help line, the function
that adds its flags, and its handler; ``main`` adds the flags of the
invoked subcommand only.
Exit codes: 0 success, 2 configuration error, 3 optimizer convergence
error, 4 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import experiment as experiment_mod
from .config import at_least, fraction, label_ids, positive, read_config, read_synthetic_spec
from .config import seed_number
from .dataset import Dataset, load_csv, synthesize, write_csv, write_rows
from .exceptions import ConfigError, ConvergenceError, DataError
from .fairness import FairnessSpec, coefficients, group_fairness_all, notion_name
from .finite_sample import finite_sample_slacks
from .model import LinearModel, check_fits, load_model, save_model
from .privacy import PrivacyParams, default_delta, mechanism_name, release
from .trainer import DEFAULT_MAX_ITERS, DEFAULT_TOL, constants, fit_erm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_DATA = 4


def _delta(value: str) -> str | float:
    """The --delta converter: 'auto', or a fraction."""
    return value if value == "auto" else fraction("--delta", value)


def _privacy_params(
    args: argparse.Namespace, train: Dataset, path: str, mechanism: str, seed: int = 0
) -> PrivacyParams:
    """Privacy target from --epsilon, --delta ('auto' is 1/n^2 for the n
    rows of the training file ``path``) and --zeta."""
    delta = args.delta
    if delta == "auto":
        if train.n < 2:
            raise ConfigError(f"--delta auto is 1/n^2, which needs at least 2 training rows; "
                              f"{path} has {train.n}")
        delta = default_delta(train.n)
    return PrivacyParams(epsilon=args.epsilon, delta=delta, zeta=args.zeta,
                         mechanism=mechanism, seed=seed)


def _training_data(path: str, args: argparse.Namespace) -> Dataset:
    """The training CSV ``path``; a row whose feature norm overflows is a data error naming it."""
    d = load_csv(path, args.sensitive_col, args.label_col)
    try:
        d.feature_norm_bound  # the solver and every certificate read it; scoring does not
    except DataError as exc:
        raise DataError(f"{path}: {exc}")
    return d


def _load_model_for(path: str, *datasets: Dataset) -> LinearModel:
    """Load a model and check that it fits every given dataset's shape; a
    mismatch is a data error."""
    model = load_model(path)
    for d in datasets:
        try:
            check_fits(model.weights, d)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}")
    return model


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Merge the --config file's values into ``parser`` as defaults; flags
    on the command line still win.

    Config keys are the long flag names without the leading dashes (e.g.
    ``label-col``, ``lambda``); underscores are accepted as well.  The path
    comes from one pass of ``parser`` itself, with no flag required, so
    ``--config=FILE`` and every prefix such as ``--conf FILE`` resolve as
    the final parse resolves them.  Each value is a string default, which
    the final parse runs through the flag's ``type`` as it does a flag.
    """
    if not any(arg.startswith("--c") for arg in argv):
        return  # every spelling of --config starts so; most calls skip the pass
    required = [action for action in parser._actions if action.required]
    for action in required:
        action.required = False
    try:
        path = parser.parse_known_args(argv)[0].config
    finally:
        for action in required:
            action.required = True
    if path is None:
        return
    values = read_config(path)
    option_to_dest = {}
    for action in parser._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                option_to_dest[opt[2:]] = action.dest
    defaults = {}
    for key, value in values.items():
        dest = option_to_dest.get(key, option_to_dest.get(key.replace("_", "-")))
        if dest is None:
            raise ConfigError(f"config key {key!r} does not match any flag")
        defaults[dest] = value
    parser.set_defaults(**defaults)
    # required flags satisfied by config must not be demanded again
    for action in parser._actions:
        if action.dest in defaults:
            action.required = False


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--sensitive-col", default="s", help="sensitive attribute column name")
    parser.add_argument("--label-col", default="y", help="label column name")


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key-value config file; flags override its entries")


def _add_finite_sample_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--finite-sample",
        default="off",
        choices=("off", "independent", "dependent"),
        help="add true-vs-empirical slack columns",
    )
    parser.add_argument("--fs-delta", type=partial(fraction, "--fs-delta"), default=0.05,
                        help="slack failure probability")


# the converters of flags that several commands take
_seed = partial(seed_number, "--seed")
_lam = partial(positive, "--lambda")
_epsilon, _zeta = partial(positive, "--epsilon"), partial(fraction, "--zeta")
_mechanism, _notion = partial(mechanism_name, "--mechanism"), partial(notion_name, "--notion")
_desirable = partial(label_ids, "--desirable")


def _gen_data_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    p.add_argument("--spec", required=True, help="synthetic spec (key-value file)")
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--sensitive-col", default="s")
    p.add_argument("--label-col", default="y")


def _cmd_gen_data(args: argparse.Namespace) -> int:
    spec = read_synthetic_spec(args.spec)
    d = synthesize(spec, seed=args.seed)
    try:
        d = replace(d, sensitive_col=args.sensitive_col, label_col=args.label_col)
    except ValueError as exc:  # a role name that collides with another column
        raise ConfigError(f"--sensitive-col and --label-col: {exc}")
    write_csv(d, args.out)
    print(f"wrote {d.n} rows ({d.p - 1} features + intercept) to {args.out}")
    return EXIT_OK


def _train_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--lambda", dest="lam", required=True, type=_lam, help="ridge weight")
    p.add_argument("--tol", type=partial(positive, "--tol"), default=DEFAULT_TOL,
                   help="gradient-norm stopping tolerance")
    p.add_argument("--max-iters", type=partial(at_least(1), "--max-iters"),
                   default=DEFAULT_MAX_ITERS, help="cap on Newton iterations")
    p.add_argument("--radius", type=partial(positive, "--radius"), help="ball radius override")
    p.add_argument("--out", required=True, help="output model path")


def _cmd_train(args: argparse.Namespace) -> int:
    d = _training_data(args.data, args)
    try:
        model = fit_erm(d, args.lam, tol=args.tol, max_iters=args.max_iters, radius=args.radius)
    except ValueError as exc:  # a --radius below the optimum's norm
        raise ConfigError(str(exc))
    save_model(model, args.out)
    print(f"trained on n={d.n}; weight norm {np.linalg.norm(model.weights):.6g}, "
          f"radius {model.radius:.6g} -> {args.out}")
    return EXIT_OK


def _privatize_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="trained model path")
    p.add_argument("--lambda", dest="lam", required=True, type=_lam)
    p.add_argument("--mechanism", default="output-perturbation", type=_mechanism)
    p.add_argument("--epsilon", required=True, type=_epsilon)
    p.add_argument("--delta", default="auto", type=_delta, help="a fraction, or 'auto' for 1/n^2")
    p.add_argument("--zeta", type=_zeta, default=0.01, help="bound failure probability")
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--out", required=True, help="output model path")


def _cmd_privatize(args: argparse.Namespace) -> int:
    d = _training_data(args.data, args)
    hstar = _load_model_for(args.model, d)
    pp = _privacy_params(args, d, args.data, args.mechanism, seed=args.seed)
    save_model(release(hstar, d, constants(d, args.lam, hstar.radius), pp), args.out)
    print(f"released {pp.mechanism} model (epsilon={pp.epsilon}, delta={pp.delta}) -> {args.out}")
    return EXIT_OK


def _finite_sample(
    args: argparse.Namespace, spec: FairnessSpec, d: Dataset
) -> tuple[np.ndarray | None, float]:
    """Per-group true-vs-empirical slack on ``d`` and its confidence level
    1 - fs_delta, or (None, 1.0) under ``--finite-sample off``."""
    if args.finite_sample == "off":
        return None, 1.0
    if d.num_labels < 2:
        raise DataError(f"finite-sample slack needs two or more labels; the data has {d.num_labels}")
    slack = finite_sample_slacks(spec, d.n, args.fs_delta, d.num_labels, d.p, args.finite_sample)
    return slack, 1.0 - args.fs_delta


def _audit_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--notion", required=True, type=_notion)
    p.add_argument("--desirable", default="1", type=_desirable,
                   help="desirable label ids (equality of opportunity)")
    p.add_argument("--report", required=True, help="output CSV path")
    _add_finite_sample_flags(p)


def _cmd_audit(args: argparse.Namespace) -> int:
    d = load_csv(args.data, args.sensitive_col, args.label_col)
    model = _load_model_for(args.model, d)
    spec = coefficients(d, args.notion, args.desirable)
    values = group_fairness_all(model, d, spec)
    slack, confidence = _finite_sample(args, spec, d)
    experiment_mod.write_audit_csv(
        spec, values, args.report,
        metadata={"notion": args.notion, "data": args.data, "model": args.model},
        slack=slack, combined_confidence=confidence,
    )
    print(f"audited {args.notion} over {spec.num_groups} groups -> {args.report}")
    return EXIT_OK


def _bound_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="reference model")
    p.add_argument("--other", default=None, help="second model: use the measured distance")
    p.add_argument("--train-data", required=True, help="training CSV (for n and feature bound)")
    p.add_argument("--lambda", dest="lam", required=True, type=_lam)
    p.add_argument("--notion", required=True, type=_notion)
    p.add_argument("--desirable", default="1", type=_desirable)
    p.add_argument("--mechanism", default="output-perturbation", type=_mechanism)
    p.add_argument("--epsilon", type=_epsilon, default=1.0)
    p.add_argument("--delta", default="auto", type=_delta)
    p.add_argument("--zeta", type=_zeta, default=0.01)
    p.add_argument("--out", required=True)
    _add_finite_sample_flags(p)


def _cmd_bound(args: argparse.Namespace) -> int:
    # without --other the statement holds with probability 1 - fs_delta - zeta
    if args.finite_sample != "off" and not args.other and args.fs_delta + args.zeta >= 1:
        raise ConfigError(f"--fs-delta {args.fs_delta} plus --zeta {args.zeta} is at least 1, "
                          "so the finite-sample statement would hold with no positive "
                          "confidence; lower one of them, or give --other")
    eval_data = load_csv(args.data, args.sensitive_col, args.label_col)
    train = _training_data(args.train_data, args)
    reference = _load_model_for(args.model, eval_data, train)
    other = _load_model_for(args.other, eval_data) if args.other else None
    c = constants(train, args.lam, reference.radius)
    pp = _privacy_params(args, train, args.train_data, args.mechanism)
    spec = coefficients(eval_data, args.notion, args.desirable)
    report = bounds_mod.theorem3_report(reference, eval_data, spec, c, train.n, pp, other=other)
    slack, confidence = _finite_sample(args, spec, eval_data)
    experiment_mod.write_bound_report_csv(
        report, args.out,
        metadata={
            "notion": args.notion,
            "mechanism": args.mechanism,
            "zeta": pp.zeta,
            "statement": "true-vs-empirical" if slack is not None else "empirical",
        },
        # the measured distance of --other holds surely; the lemma's only
        # with probability 1 - zeta
        slack=slack, combined_confidence=confidence if other else confidence - pp.zeta,
    )
    print(f"bound report ({report.dist_provenance} dist={report.dist:.6g}) -> {args.out}")
    return EXIT_OK


def _experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--out-dir", required=True)


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = experiment_mod.load_experiment_config(args.config, seed=args.seed)
    result = experiment_mod.run_experiment(cfg, args.out_dir)
    print(f"sweep wrote {result.rows} rows -> {result.sweep_path} "
          f"({len(result.failures)} failed grid points)")
    return EXIT_OK


def _table_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--train-data", required=True)
    p.add_argument("--lambda", dest="lam", required=True, type=_lam)
    p.add_argument("--epsilon", type=_epsilon, default=1.0)
    p.add_argument("--delta", default="auto", type=_delta)
    p.add_argument("--zeta", type=_zeta, default=0.01)
    p.add_argument("--desirable", default="1", type=_desirable)
    p.add_argument("--name", default="dataset", help="dataset label for the row")
    p.add_argument("--out", required=True)


def _cmd_table(args: argparse.Namespace) -> int:
    eval_data = load_csv(args.data, args.sensitive_col, args.label_col)
    train = _training_data(args.train_data, args)
    model = _load_model_for(args.model, eval_data, train)
    pp = _privacy_params(args, train, args.train_data, "output_perturbation")
    row = experiment_mod.table_report(
        model, train, eval_data, args.lam, pp=pp,
        desirable=args.desirable, dataset_name=args.name,
    )
    write_rows(args.out, list(row), [list(row.values())])
    print(f"table row for {args.name!r} -> {args.out}")
    return EXIT_OK


class _Command(NamedTuple):
    help: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


# the subcommands, in the order the top-level help lists them
_COMMANDS = {
    "gen-data": _Command("synthesize a dataset from a spec file", _gen_data_flags, _cmd_gen_data),
    "train": _Command("fit the regularized optimum", _train_flags, _cmd_train),
    "privatize": _Command("release a private model", _privatize_flags, _cmd_privatize),
    "audit": _Command("per-group fairness levels of a model", _audit_flags, _cmd_audit),
    "bound": _Command("certified fairness-gap bounds", _bound_flags, _cmd_bound),
    "experiment": _Command("run a sweep experiment from a config file", _experiment_flags,
                           _cmd_experiment),
    "table": _Command("summary row of group-averaged bounds per notion", _table_flags,
                      _cmd_table),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``fairbound`` parser.  It has every subcommand, so the top-level
    help and an unknown command's error list them all, but it adds the
    flags of ``command`` alone, or of every subcommand when it is None, so
    that :func:`main` builds only the flags of the command it runs."""
    parser = argparse.ArgumentParser(prog="fairbound")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if command in (None, name):
            cmd.add_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        if command not in (None, "experiment"):
            _apply_config_file(_subparser_for(parser, command), argv[1:])
        args = parser.parse_args(argv)
        return _COMMANDS[args.command].run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # an output path; every input read maps its own OSError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _subparser_for(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise KeyError(command)


if __name__ == "__main__":
    sys.exit(main())
