"""Sweep experiments and report serialization.

``run_experiment`` reproduces the envelope study at configurable scale: for
every point of a log-spaced grid over the sample size or the privacy budget
it samples M private models around the optimum and records the attained
fairness range next to three certificates per group:

- the a-priori bound using the mechanism's high-probability distance lemma,
- the same gap bound at the measured distance of the farthest draw (the
  diagnostic available when the optimum is known), and
- the refined direction-aware bound for that farthest draw.

Work that depends only on the training set runs once per training set: the
optimum, its loss constants, margin profile and scoring reference, and per
notion its fairness levels.  The epsilon axis trains every point on the
same set, so it solves the optimum once per run; the n axis draws a fresh
subsample, and solves once, per point.  Profiles carry no groups, so one
profile of h* and one refined profile per point serve every notion.  The
refined profile takes h*'s margins from h*'s profile and computes only its
direction-aware Lipschitz constants.  A point's certificates take three
``bound_reports`` passes, h*'s profile at the lemma and at the measured
distance and the refined profile at the measured distance, each over
every notion at once.  The fairness specs depend
only on the evaluation set; they are built once per run, before the output
directory is made, so a notion the evaluation data cannot carry (demographic
parity on non-binary labels, a desirable set that is empty or names a label
the data lacks) stops the run with its typed error and writes nothing.  If
the epsilon axis's shared optimum fails, every grid point fails with that
error, each with the failure row it would have had alone.

The M draws of a point are one (M, Y, p) weight array from release to
score: ``privacy.release_many`` draws them with the noise of the lemma
distance that ``privacy.resolve_distance`` gives, their distances to h*
are one vector pass, and ``group_fairness_many`` scores them once, per
(label, sensitive) cell, for every notion.  It takes the draws in
blocks, in order of their reach D, the largest norm of a difference of
two label rows of W - h*, and scores a block only on the evaluation rows
that its farthest-reaching draw could flip: the rows whose |m|/||x|| at
h* is at most that reach, with a rounding allowance.  The optimum's
scoring reference computes that key from h* alone, not from the margin
profile, so the scorer does not depend on the margin's Lipschitz
constant, which only the bounds read; it sorts the rows by label and key
once per h*, and supplies h*'s correct counts for the other rows, so every
count, and every sweep value, is what scoring every row gives, up to the
rounding-level ties noted at ``group_fairness_many``.  F(h*) is read from
the same reference.  Only the farthest draw becomes a ``LinearModel``,
for its refined profile.

All CSV output is byte-reproducible and goes through one writer,
``dataset.write_rows``: a ``#`` metadata preamble carries the config hash
and seed, floats are printed in shortest round-trip form, and a field that
holds a comma, quote or line break is quoted.  Every
random value comes from a NumPy stream of the seed,
``default_rng(SeedSequence(seed, spawn_key=key))``, keyed by role:

    key      stream of
    ()       the synthetic data (the root stream of the seed)
    (0,)     the eval split's train/test permutation
    (1, g)   grid point g: on the n axis its training subsample first,
             then its M private draws

A grid point's draws come from its stream one after another (all the
output-perturbation noise in one ``normal`` call), so draw j does not
depend on M.  The ``# streams=`` preamble line names this layout.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any

import numpy as np

from . import bounds as bounds_mod
from .config import at_least, fraction, label_ids, one_of, positive, read_config
from .config import list_items, read_synthetic_spec, seed_number
from .dataset import Dataset, format_value, load_csv, split, synthesize, write_rows
from .exceptions import ConfigError, FairboundError
from .fairness import (
    FairnessSpec,
    ScoringReference,
    coefficients,
    group_fairness_many,
    notion_name,
)
from .model import LinearModel, frobenius_norms
from .privacy import (
    PrivacyParams,
    default_delta,
    mechanism_name,
    release_many,
    resolve_distance,
    stream,
)
from .trainer import DEFAULT_TOL, constants, fit_erm


def _notion_names(key: str, value: str | tuple[str, ...]) -> tuple[str, ...]:
    """One or more fairness notions, comma-separated in a file."""
    if not (names := list_items(value)):
        raise ConfigError(f"{key} must name at least one fairness notion")
    return tuple(notion_name(key, name) for name in names)


def _converted(convert, key: str | None = None, **kwargs) -> Any:
    """A field that ``convert`` checks, read from the config key ``key``."""
    return field(metadata={"convert": convert, "key": key}, **kwargs)


def _config_key(f) -> str:
    return f.metadata.get("key") or f.name.replace("_", "-")


def _canonical(value: Any) -> str:
    """A field value as the config text that loads it."""
    if isinstance(value, (tuple, frozenset)):
        return ",".join(map(str, sorted(value) if isinstance(value, frozenset) else value))
    return format_value(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved sweep configuration; every field is a config-file key, named
    by the field with dashes for underscores unless its metadata says
    otherwise.  A field without a default is a required key.  Each field
    but the free-text ones declares its converter, which the CLI flags
    share; it takes the file's text or the value code passes, so the
    canonical text, and with it the config hash, names converted values."""

    data: str
    lam: float = _converted(positive, key="lambda")
    notions: tuple[str, ...] = _converted(_notion_names)
    sweep_axis: str = _converted(one_of("n", "epsilon"))
    grid_start: float = _converted(positive)
    grid_stop: float = _converted(positive)
    grid_count: int = _converted(at_least(1))
    draws: int = _converted(at_least(1))
    seed: int = _converted(seed_number)
    data_format: str = _converted(one_of("csv", "synthetic"), default="csv")
    mechanism: str = _converted(mechanism_name, default="output_perturbation")
    zeta: float = _converted(fraction, default=0.01)
    delta_policy: str = _converted(one_of("fixed", "inverse_n_squared"),
                                   default="inverse_n_squared")
    epsilon: float = _converted(positive, default=1.0)
    delta: float = _converted(fraction, default=1e-6)
    sensitive_col: str = "s"
    label_col: str = "y"
    desirable: frozenset[int] = _converted(label_ids, default=frozenset({1}))
    eval_split: str = _converted(one_of("train", "test"), default="test")
    test_fraction: float = _converted(fraction, default=0.1)
    tol: float = _converted(positive, default=DEFAULT_TOL)

    def __post_init__(self):
        for f in fields(self):
            if convert := f.metadata.get("convert"):
                object.__setattr__(self, f.name, convert(_config_key(f), getattr(self, f.name)))

    @classmethod
    def from_mapping(cls, values: dict[str, str], seed: int | None = None) -> "ExperimentConfig":
        """Config from file keys and their text; ``seed``, when given,
        overrides the file's once the file's own value has been checked."""
        unknown = sorted(set(values) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown experiment config key(s): {', '.join(unknown)}")
        kwargs: dict[str, Any] = {} if seed is None else {"seed": seed}
        for key, f in _CONFIG_KEYS.items():
            if key in values:
                kwargs[f.name] = values[key]
            elif f.default is MISSING and f.name not in kwargs:
                raise ConfigError(f"experiment config is missing {key!r}")
        cfg = cls(**kwargs)
        return cfg if seed is None else replace(cfg, seed=seed)

    def canonical_text(self) -> str:
        pairs = {key: _canonical(getattr(self, f.name)) for key, f in _CONFIG_KEYS.items()}
        return "\n".join(f"{k} = {v}" for k, v in sorted(pairs.items()))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


_CONFIG_KEYS = {_config_key(f): f for f in fields(ExperimentConfig)}


def load_experiment_config(path: str, seed: int | None = None) -> ExperimentConfig:
    return ExperimentConfig.from_mapping(read_config(path), seed=seed)


def _grid_values(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.grid_count == 1:
        return np.array([float(cfg.grid_start)])
    return np.exp(np.linspace(math.log(cfg.grid_start), math.log(cfg.grid_stop), cfg.grid_count))


def _load_base_data(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_format == "synthetic":
        return synthesize(read_synthetic_spec(cfg.data), seed=cfg.seed)
    return load_csv(cfg.data, cfg.sensitive_col, cfg.label_col)


@dataclass
class ExperimentResult:
    sweep_path: str
    failures_path: str
    rows: int = 0
    failures: list[tuple[int, float, str]] = field(default_factory=list)


SWEEP_COLUMNS = (
    "axis",
    "grid_value",
    "n",
    "epsilon",
    "delta",
    "notion",
    "k",
    "group",
    "f_star",
    "f_priv_min",
    "f_priv_max",
    "bound_lemma",
    "bound_measured",
    "bound_refined",
    "dist_lemma",
    "dist_measured",
    "dist_provenance",
    "flags",
)


class _Optimum:
    """h* of one training set with the work that depends only on it and the
    evaluation set: the loss constants, the margin profile of h*, the
    scoring reference that sorts the evaluation rows by label and |m|/||x||,
    and F(h*) per notion."""

    def __init__(
        self, cfg: ExperimentConfig, train: Dataset, eval_data: Dataset,
        specs: dict[str, FairnessSpec],
    ):
        self.hstar = fit_erm(train, cfg.lam, tol=cfg.tol)
        self.c = constants(train, cfg.lam, self.hstar.radius)
        self.profile = bounds_mod.margin_profile(self.hstar, eval_data)
        self.reference = ScoringReference(self.hstar, eval_data)
        # h* is the distance-0 model of its own reference, so F(h*) takes
        # its counts from the reference
        levels = group_fairness_many(
            self.hstar.weights[None], eval_data, list(specs.values()), self.reference
        )
        self.f_star = [level[0] for level in levels]


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> ExperimentResult:
    """Execute the sweep and write ``sweep.csv`` and ``failures.csv``.

    A failure at one grid point is recorded and the sweep continues; the
    whole run is deterministic given the config (including its seed).  A
    notion the evaluation data cannot carry raises the ``ConfigError`` or
    ``DataError`` of :func:`coefficients` before ``out_dir`` is made, and
    so does a grid of ``grid-count`` values that cannot be allocated, as a
    ``ConfigError``.  A point whose arrays cannot be allocated is a
    ``MemoryError`` failure of that point.
    """
    base = _load_base_data(cfg)
    if cfg.eval_split == "test":
        try:
            train_all, eval_data = split(base, 1.0 - cfg.test_fraction, seed=stream(cfg.seed, (0,)))
        except ValueError as exc:  # a test-fraction that leaves one part empty
            raise ConfigError(f"test-fraction {cfg.test_fraction!r}: {exc}")
    else:
        train_all, eval_data = base, base
    specs = {notion: coefficients(eval_data, notion, cfg.desirable) for notion in cfg.notions}
    try:
        grid = _grid_values(cfg)
    except MemoryError as exc:
        raise ConfigError(f"grid-count {cfg.grid_count}: the grid cannot be allocated ({exc})")
    os.makedirs(out_dir, exist_ok=True)

    rows: list[list] = []
    failures: list[tuple[int, float, str]] = []

    # every epsilon-axis point trains on train_all, so its h* is solved once;
    # an error solving it is raised again at every point
    shared_optimum: _Optimum | Exception | None = None
    if cfg.sweep_axis == "epsilon":
        try:
            shared_optimum = _Optimum(cfg, train_all, eval_data, specs)
        except (FairboundError, ValueError, MemoryError) as exc:
            shared_optimum = exc
    for g, grid_value in enumerate(map(float, grid)):
        try:
            rows.extend(
                _run_grid_point(cfg, g, grid_value, train_all, eval_data, specs, shared_optimum)
            )
        except FairboundError as exc:
            failures.append((g, grid_value, f"{type(exc).__name__}: {exc}"))
        except ValueError as exc:
            failures.append((g, grid_value, f"ValueError: {exc}"))
        except MemoryError as exc:  # NumPy cannot allocate the point's arrays
            failures.append((g, grid_value, f"MemoryError: {exc}"))

    sweep_path = os.path.join(out_dir, "sweep.csv")
    write_rows(sweep_path, SWEEP_COLUMNS, rows, preamble=[
        "fairbound experiment",
        f"config_hash={cfg.config_hash()}",
        f"seed={cfg.seed}",
        "streams=data:root,eval_split:(0,),grid_point:(1,grid_index)",
        f"eval_split={cfg.eval_split}",
    ])
    failures_path = os.path.join(out_dir, "failures.csv")
    write_rows(failures_path, ("grid_index", "grid_value", "error"), failures)
    return ExperimentResult(sweep_path, failures_path, len(rows), failures)


def _run_grid_point(
    cfg: ExperimentConfig,
    g: int,
    grid_value: float,
    train_all: Dataset,
    eval_data: Dataset,
    specs: dict[str, FairnessSpec],
    shared_optimum: _Optimum | Exception | None,
) -> list[list]:
    rng = stream(cfg.seed, (1, g))
    if cfg.sweep_axis == "n":
        n_g = int(round(grid_value))
        if n_g < 2 or n_g > train_all.n:
            raise ConfigError(f"grid n={n_g} outside [2, {train_all.n}]")
        idx = np.sort(rng.choice(train_all.n, size=n_g, replace=False))
        train = train_all.subset(idx)
        epsilon = cfg.epsilon
        optimum = _Optimum(cfg, train, eval_data, specs)
    else:
        train = train_all
        n_g = train.n
        epsilon = grid_value
        if isinstance(shared_optimum, Exception):
            raise shared_optimum
        optimum = shared_optimum

    hstar, c = optimum.hstar, optimum.c
    pp = PrivacyParams(
        epsilon=epsilon,
        delta=default_delta(n_g) if cfg.delta_policy == "inverse_n_squared" else cfg.delta,
        zeta=cfg.zeta,
        mechanism=cfg.mechanism,
        seed=cfg.seed,
    )

    weights = release_many(hstar, train, c, pp, rng, cfg.draws)
    dists = frobenius_norms(hstar.weights - weights)
    far_idx = int(np.argmax(dists))
    dist_measured = float(dists[far_idx])

    dist_lemma, provenance = resolve_distance(hstar.num_params, c, n_g, pp)
    spec_list = list(specs.values())
    f_draws_all = group_fairness_many(weights, eval_data, spec_list, optimum.reference)
    farthest = LinearModel(weights[far_idx], c.radius)
    refined_profile = bounds_mod.MarginProfile(
        optimum.profile.abs_margins, bounds_mod.refined_lipschitz(hstar, farthest, eval_data)
    )
    reports = zip(
        bounds_mod.bound_reports(optimum.profile, spec_list, dist_lemma, provenance),
        bounds_mod.bound_reports(optimum.profile, spec_list, dist_measured, "measured"),
        bounds_mod.bound_reports(refined_profile, spec_list, dist_measured, "measured"),
    )

    rows: list[list] = []
    for (notion, spec), f_star, f_draws, (lemma, measured, refined) in zip(
        specs.items(), optimum.f_star, f_draws_all, reports
    ):
        for k in range(spec.num_groups):
            entry = lemma.entry(k)
            rows.append([
                cfg.sweep_axis, grid_value, n_g, float(epsilon), pp.delta,
                notion, k, _group_cell(spec, k),
                f_star[k], np.min(f_draws[:, k]), np.max(f_draws[:, k]),
                entry.best, measured.entry(k).best, refined.entry(k).best,
                lemma.dist, dist_measured, lemma.dist_provenance,
                ";".join(entry.flags + spec.flags),
            ])
    return rows


def _group_cell(spec: FairnessSpec, k: int) -> str:
    """Group k's description as a report cell, each comma shown as ``/``
    (``y=1/s=0``)."""
    return spec.partition.descriptions[k].replace(",", "/")


TABLE_NOTIONS = (
    "equality_of_opportunity",
    "equalized_odds",
    "demographic_parity_binary",
    "accuracy_parity",
    "accuracy",
)


def table_report(
    hstar: LinearModel,
    train: Dataset,
    eval_data: Dataset,
    lam: float,
    pp: PrivacyParams | None = None,
    desirable: frozenset[int] = frozenset({1}),
    dataset_name: str = "dataset",
) -> dict[str, Any]:
    """One summary row: the group-averaged best-variant certificate for each
    notion plus plain accuracy, at the given privacy parameters (by default
    output perturbation at epsilon 1, zeta 0.01 and delta 1/n^2 over the
    training size).  One margin profile of h* and one ``bound_reports``
    pass at the mechanism's lemma distance serve every notion.  Non-binary
    labels (a ``DataError`` of the demographic parity column) or a bad
    ``desirable`` set (a ``ConfigError``) fail before any bound is
    computed."""
    specs = [coefficients(eval_data, notion, desirable) for notion in TABLE_NOTIONS]
    if pp is None:
        pp = PrivacyParams(epsilon=1.0, delta=default_delta(train.n), zeta=0.01,
                           mechanism="output_perturbation", seed=0)
    c = constants(train, lam, hstar.radius)
    dist, provenance = resolve_distance(hstar.num_params, c, train.n, pp)
    profile = bounds_mod.margin_profile(hstar, eval_data)
    reports = bounds_mod.bound_reports(profile, specs, dist, provenance)
    row: dict[str, Any] = {"dataset": dataset_name}
    for spec, report in zip(specs, reports):
        row[spec.notion] = report.aggregate
    return row


def _write_report(
    path: str,
    metadata: dict[str, Any] | None,
    columns: list[str],
    rows: list[list],
    levels: list[float],
    slack: np.ndarray | None,
    combined_confidence: float | None,
) -> None:
    """Write ``# key=value`` metadata lines, the header and one row per
    group.  With ``slack``, group k gains the slack, levels[k] + slack and
    the combined confidence level."""
    if slack is not None:
        columns = columns + ["slack", "combined_bound", "combined_confidence"]
        confidence = combined_confidence if combined_confidence is not None else 0.0
        rows = [
            row + [float(s), level + float(s), confidence]
            for row, level, s in zip(rows, levels, slack)
        ]
    preamble = [f"{key}={format_value(value)}" for key, value in (metadata or {}).items()]
    write_rows(path, columns, rows, preamble)


def write_bound_report_csv(
    report: bounds_mod.BoundReport,
    path: str,
    metadata: dict[str, Any] | None = None,
    slack: np.ndarray | None = None,
    combined_confidence: float | None = None,
) -> None:
    """Serialize a bound report; columns follow the documented interface.

    When finite-sample ``slack`` values are supplied, three extra columns
    carry the slack, the best-variant bound plus slack, and the combined
    confidence level of that statement.
    """
    columns = ["notion", "k", "chi", "dist", "dist_provenance", "markov", "truncated", "chernoff", "best", "flags"]
    rows = [
        [
            report.notion,
            entry.group,
            entry.chi,
            report.dist,
            report.dist_provenance,
            entry.markov,
            entry.truncated,
            entry.chernoff,
            entry.best,
            ";".join(entry.flags + report.flags),
        ]
        for entry in report.entries
    ]
    levels = [entry.best for entry in report.entries]
    _write_report(path, metadata, columns, rows, levels, slack, combined_confidence)


def write_audit_csv(
    spec: FairnessSpec,
    fairness_values: np.ndarray,
    path: str,
    metadata: dict[str, Any] | None = None,
    slack: np.ndarray | None = None,
    combined_confidence: float | None = None,
) -> None:
    """Audit rows: (k, group description, fairness level, flags); a group
    that the spec's partition leaves empty is flagged ``empty_group``.
    With ``slack``, the combined bound is |fairness level| plus slack."""
    columns = ["k", "group", "fairness", "flags"]
    rows = [
        [
            k,
            _group_cell(spec, k),
            float(fairness_values[k]),
            ";".join(spec.flags + (("empty_group",) if spec.partition.sizes[k] == 0 else ())),
        ]
        for k in range(spec.num_groups)
    ]
    levels = [abs(float(v)) for v in fairness_values]
    _write_report(path, metadata, columns, rows, levels, slack, combined_confidence)
