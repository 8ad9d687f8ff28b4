"""Command-line entry points.

Subcommands: gen-data, train, privatize, audit, bound, experiment, table.
Every long flag can equivalently be written as a key in a ``--config`` file
(same name, without the leading dashes); flags given on the command line
override config values.  The parser resolves every flag, and a config value
passes through the same converter as the flag, so a bad ``--mechanism``,
``--notion`` or ``--desirable`` fails before any file is read.  Exit
codes: 0 success, 2 configuration error, 3 optimizer convergence error,
4 data error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import bounds as bounds_mod
from . import experiment as experiment_mod
from .config import label_ids, read_config, read_synthetic_spec
from .dataset import Dataset, load_csv, synthesize, write_csv, write_rows
from .exceptions import ConfigError, ConvergenceError, DataError
from .fairness import NOTIONS, FairnessSpec, coefficients, group_fairness_all
from .finite_sample import finite_sample_slacks
from .model import LinearModel, check_fits, load_model, save_model
from .privacy import MECHANISMS, PrivacyParams, default_delta, release
from .trainer import DEFAULT_MAX_ITERS, DEFAULT_TOL, constants, fit_erm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_DATA = 4


def _mechanism_key(flag_value: str) -> str:
    value = flag_value.replace("-", "_")
    if value not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {flag_value!r}")
    return value


def _notion_key(flag_value: str) -> str:
    value = flag_value.replace("-", "_")
    if value not in NOTIONS:
        raise ConfigError(f"unknown notion {flag_value!r}")
    return value


def _privacy_params(
    args: argparse.Namespace, n: int, mechanism: str, seed: int = 0
) -> PrivacyParams:
    """Privacy target from --epsilon, --delta ('auto' is 1/n^2 for n
    training rows) and --zeta; an out-of-range value is a config error."""
    if args.delta == "auto":
        delta = default_delta(n)
    else:
        try:
            delta = float(args.delta)
        except ValueError:
            raise ConfigError(f"--delta must be a number or 'auto', got {args.delta!r}")
    try:
        return PrivacyParams(epsilon=args.epsilon, delta=delta, zeta=args.zeta,
                             mechanism=mechanism, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _lambda(args: argparse.Namespace) -> float:
    """The --lambda ridge weight; a nonpositive or non-finite value is a
    config error."""
    if not 0 < args.lam < math.inf:
        raise ConfigError(f"--lambda must be positive and finite, got {args.lam!r}")
    return float(args.lam)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairbound")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a dataset from a spec file")
    _add_config_flag(p)
    p.add_argument("--spec", required=True, help="synthetic spec (key-value file)")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--sensitive-col", default="s")
    p.add_argument("--label-col", default="y")

    p = sub.add_parser("train", help="fit the regularized optimum")
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--lambda", dest="lam", required=True, type=float, help="ridge weight")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="gradient-norm stopping tolerance")
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS,
                   help="cap on Newton iterations")
    p.add_argument("--radius", type=float, default=None, help="ball radius override")
    p.add_argument("--out", required=True, help="output model path")

    p = sub.add_parser("privatize", help="release a private model")
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="trained model path")
    p.add_argument("--lambda", dest="lam", required=True, type=float)
    p.add_argument("--mechanism", default="output-perturbation", type=_mechanism_key)
    p.add_argument("--epsilon", required=True, type=float)
    p.add_argument("--delta", default="auto", help="number, or 'auto' for 1/n^2")
    p.add_argument("--zeta", type=float, default=0.01, help="bound failure probability")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output model path")

    p = sub.add_parser("audit", help="per-group fairness levels of a model")
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--notion", required=True, type=_notion_key)
    p.add_argument("--desirable", default="1", type=label_ids,
                   help="desirable label ids (equality of opportunity)")
    p.add_argument("--report", required=True, help="output CSV path")
    _add_finite_sample_flags(p)

    p = sub.add_parser("bound", help="certified fairness-gap bounds")
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="reference model")
    p.add_argument("--other", default=None, help="second model: use the measured distance")
    p.add_argument("--train-data", required=True, help="training CSV (for n and feature bound)")
    p.add_argument("--lambda", dest="lam", required=True, type=float)
    p.add_argument("--notion", required=True, type=_notion_key)
    p.add_argument("--desirable", default="1", type=label_ids)
    p.add_argument("--mechanism", default="output-perturbation", type=_mechanism_key)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", default="auto")
    p.add_argument("--zeta", type=float, default=0.01)
    p.add_argument("--out", required=True)
    _add_finite_sample_flags(p)

    p = sub.add_parser("experiment", help="run a sweep experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("table", help="summary row of group-averaged bounds per notion")
    _add_config_flag(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--train-data", required=True)
    p.add_argument("--lambda", dest="lam", required=True, type=float)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", default="auto")
    p.add_argument("--zeta", type=float, default=0.01)
    p.add_argument("--desirable", default="1", type=label_ids)
    p.add_argument("--name", default="dataset", help="dataset label for the row")
    p.add_argument("--out", required=True)

    return parser


def _add_finite_sample_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--finite-sample",
        default="off",
        choices=("off", "independent", "dependent"),
        help="add true-vs-empirical slack columns",
    )
    parser.add_argument("--fs-delta", type=float, default=0.05, help="slack failure probability")


def _cmd_gen_data(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    spec = read_synthetic_spec(args.spec)
    d = synthesize(spec, seed=int(args.seed))
    try:
        d = replace(d, sensitive_col=args.sensitive_col, label_col=args.label_col)
    except ValueError as exc:  # a role name that collides with another column
        raise ConfigError(f"--sensitive-col and --label-col: {exc}")
    write_csv(d, args.out)
    print(f"wrote {d.n} rows ({d.p - 1} features + intercept) to {args.out}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    lam = _lambda(args)
    d = load_csv(args.data, args.sensitive_col, args.label_col)
    try:
        model = fit_erm(d, lam, tol=float(args.tol), max_iters=int(args.max_iters),
                        radius=None if args.radius is None else float(args.radius))
    except ValueError as exc:  # a --tol, --max-iters or --radius the solver rejects
        raise ConfigError(str(exc))
    save_model(model, args.out)
    print(f"trained on n={d.n}; weight norm {np.linalg.norm(model.weights):.6g}, "
          f"radius {model.radius:.6g} -> {args.out}")
    return EXIT_OK


def _cmd_privatize(args: argparse.Namespace) -> int:
    lam = _lambda(args)
    d = load_csv(args.data, args.sensitive_col, args.label_col)
    hstar = _load_model_for(args.model, d)
    pp = _privacy_params(args, d.n, args.mechanism, seed=args.seed)
    save_model(release(hstar, d, constants(d, lam, hstar.radius), pp), args.out)
    print(f"released {pp.mechanism} model (epsilon={pp.epsilon}, delta={pp.delta}) -> {args.out}")
    return EXIT_OK


def _finite_sample(
    args: argparse.Namespace, spec: FairnessSpec, d: Dataset
) -> tuple[np.ndarray | None, float]:
    """Per-group true-vs-empirical slack on ``d`` and its confidence level
    1 - fs_delta, or (None, 1.0) under ``--finite-sample off``.  A flag
    value the slack formulas reject is a config error."""
    if args.finite_sample == "off":
        return None, 1.0
    if d.num_labels < 2:
        raise DataError(f"finite-sample slack needs two or more labels; the data has {d.num_labels}")
    try:
        slack = finite_sample_slacks(spec, d.n, args.fs_delta, d.num_labels, d.p, args.finite_sample)
    except ValueError as exc:
        raise ConfigError(f"finite-sample flags: {exc}")
    return slack, 1.0 - args.fs_delta


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


def _cmd_bound(args: argparse.Namespace) -> int:
    eval_data = load_csv(args.data, args.sensitive_col, args.label_col)
    reference = _load_model_for(args.model, eval_data)
    other = _load_model_for(args.other, eval_data) if args.other else None

    train = load_csv(args.train_data, args.sensitive_col, args.label_col)
    c = constants(train, _lambda(args), reference.radius)
    pp = _privacy_params(args, train.n, args.mechanism)
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


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = experiment_mod.load_experiment_config(args.config, seed=int(args.seed))
    result = experiment_mod.run_experiment(cfg, args.out_dir)
    print(f"sweep wrote {result.rows} rows -> {result.sweep_path} "
          f"({len(result.failures)} failed grid points)")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    eval_data = load_csv(args.data, args.sensitive_col, args.label_col)
    train = load_csv(args.train_data, args.sensitive_col, args.label_col)
    model = _load_model_for(args.model, eval_data, train)
    pp = _privacy_params(args, train.n, "output_perturbation")
    row = experiment_mod.table_report(
        model, train, eval_data, _lambda(args), pp=pp,
        desirable=args.desirable, dataset_name=args.name,
    )
    write_rows(args.out, list(row), [list(row.values())])
    print(f"table row for {args.name!r} -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "privatize": _cmd_privatize,
    "audit": _cmd_audit,
    "bound": _cmd_bound,
    "experiment": _cmd_experiment,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and argv[0] in _COMMANDS and argv[0] != "experiment":
            _apply_config_file(_subparser_for(parser, argv[0]), argv[1:])
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
