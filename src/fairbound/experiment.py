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
subsample, and solves once, per point.  Profiles carry no groups, so one profile of h* and one
refined profile per point serve every notion.  The fairness specs depend
only on the evaluation set and are built once per run on both axes.  An
error in shared work fails every grid point that needs it, with the same
failure row it would have had alone.

The M draws of a point are one (M, Y, p) weight array from release to
score: ``release_many`` draws and projects them together, their distances
to h* are one vector pass, and ``group_fairness_many`` scores them.  It
takes the draws in blocks, nearest to h* first, and scores a block only on
the evaluation rows that its largest distance lets a draw flip: the rows
whose |m|/L at h* is at most that distance, with a rounding allowance.
The optimum's scoring reference sorts the rows by label and |m|/L once
per h*, and supplies h*'s correct counts for the other rows, so every
count, and every sweep value, is what scoring every row gives.  F(h*) is
read from the same reference.  Only the farthest draw becomes a
``LinearModel``, for its refined profile.

All CSV output is byte-reproducible: a metadata preamble carries the config
hash and seed, floats are printed in shortest round-trip form, and every
random draw comes from its own PCG64 substream of the seed: draw j of grid
point g from key (g, j), and grid point g's n-axis training subsample from
key (g,).  A subsample key has one element and a draw key two, so no draw
shares the stream that chose its training rows.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from . import bounds as bounds_mod
from .config import parse_synthetic_spec, read_config
from .dataset import Dataset, load_csv, split, synthesize
from .exceptions import ConfigError, DataError, FairboundError
from .fairness import (
    NOTIONS,
    FairnessSpec,
    ScoringReference,
    coefficients,
    group_fairness_many,
)
from .model import LinearModel, frobenius_norms
from .privacy import (
    MECHANISMS,
    DpSgdConfig,
    PrivacyParams,
    dpsgd,
    dpsgd_distance_bound,
    output_perturb_many,
    _substream,
)
from .trainer import DEFAULT_TOL, constants, fit_erm

def _fmt(value) -> str:
    """Shortest round-trip decimal form for floats; str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _names(value: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in value.split(",") if t.strip())


def _label_ids(value: str) -> frozenset[int]:
    return frozenset(int(t) for t in value.split(",") if t.strip())


# config-file (parse, canonical format) per field annotation
_CODECS: dict[str, tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, _fmt),
    "tuple[str, ...]": (_names, ",".join),
    "frozenset[int]": (_label_ids, lambda v: ",".join(str(t) for t in sorted(v))),
}


# open interval (low, high) for a numeric field, in field metadata
_POSITIVE = {"range": (0.0, math.inf)}
_FRACTION = {"range": (0.0, 1.0)}


def _config_key(f) -> str:
    return f.metadata.get("key", f.name.replace("_", "-"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved sweep configuration; every field is a config-file key, named
    by the field with dashes for underscores unless its metadata says
    otherwise.  A field without a default is a required key; a field with
    a ``range`` must lie strictly inside it."""

    data: str
    lam: float = field(metadata={"key": "lambda", **_POSITIVE})
    notions: tuple[str, ...]
    sweep_axis: str  # "n" | "epsilon"
    grid_start: float = field(metadata=_POSITIVE)
    grid_stop: float = field(metadata=_POSITIVE)
    grid_count: int
    draws: int
    seed: int
    data_format: str = "csv"  # "csv" | "synthetic"
    mechanism: str = "output_perturbation"
    zeta: float = field(default=0.01, metadata=_FRACTION)
    delta_policy: str = "inverse_n_squared"  # "fixed" | "inverse_n_squared"
    epsilon: float = field(default=1.0, metadata=_POSITIVE)
    delta: float = field(default=1e-6, metadata=_FRACTION)
    sensitive_col: str = "s"
    label_col: str = "y"
    desirable: frozenset[int] = frozenset({1})
    eval_split: str = "test"
    test_fraction: float = field(default=0.1, metadata=_FRACTION)
    tol: float = field(default=DEFAULT_TOL, metadata=_POSITIVE)

    def __post_init__(self):
        if self.data_format not in ("csv", "synthetic"):
            raise ConfigError(f"unknown data format {self.data_format!r}")
        if self.sweep_axis not in ("n", "epsilon"):
            raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"unknown mechanism {self.mechanism!r}")
        if self.delta_policy not in ("fixed", "inverse_n_squared"):
            raise ConfigError(f"unknown delta policy {self.delta_policy!r}")
        if self.eval_split not in ("train", "test"):
            raise ConfigError(f"unknown eval split {self.eval_split!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.grid_count < 1:
            raise ConfigError("grid-count must be at least 1")
        if self.draws < 1:
            raise ConfigError("draws must be at least 1")
        for f in fields(self):
            if "range" in f.metadata:
                low, high = f.metadata["range"]
                value = getattr(self, f.name)
                if not low < value < high:
                    raise ConfigError(
                        f"{_config_key(f)} must lie strictly between {low} and {high}, "
                        f"got {value!r}"
                    )
        if not self.notions:
            raise ConfigError("notions must name at least one fairness notion")
        for notion in self.notions:
            if notion not in NOTIONS:
                raise ConfigError(f"unknown fairness notion {notion!r}")

    @classmethod
    def from_mapping(cls, values: dict[str, str], seed: int | None = None) -> "ExperimentConfig":
        """Config from file keys; ``seed``, when given, overrides the file's
        once the file's own value has been checked."""
        unknown = sorted(set(values) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown experiment config key(s): {', '.join(unknown)}")
        kwargs: dict[str, Any] = {} if seed is None else {"seed": seed}
        for key, f in _CONFIG_KEYS.items():
            if key in values:
                try:
                    kwargs[f.name] = _CODECS[f.type][0](values[key])
                except ValueError as exc:
                    raise ConfigError(f"bad experiment config value: {exc}")
            elif f.default is MISSING and f.name not in kwargs:
                raise ConfigError(f"experiment config is missing {key!r}")
        cfg = cls(**kwargs)
        return cfg if seed is None else replace(cfg, seed=seed)

    def canonical_text(self) -> str:
        pairs = {key: _CODECS[f.type][1](getattr(self, f.name)) for key, f in _CONFIG_KEYS.items()}
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
        spec = parse_synthetic_spec(read_config(cfg.data), source=cfg.data)
        return synthesize(spec, seed=cfg.seed)
    return load_csv(cfg.data, cfg.sensitive_col, cfg.label_col)


def _delta_for(cfg: ExperimentConfig, n: int) -> float:
    if cfg.delta_policy == "inverse_n_squared":
        return 1.0 / n**2
    return cfg.delta


def release_many(
    hstar: LinearModel,
    train: Dataset,
    c,
    pp: PrivacyParams,
    substreams: Sequence[int | tuple[int, ...]],
) -> np.ndarray:
    """(M, Y, p) stack of the private models that the lemma distance of
    ``pp.mechanism`` describes: output perturbation of h*, or DP-SGD on
    ``train`` for the lemma-3 schedule's T steps with T^2 noise.  Draw j
    is deterministic per (pp.seed, substreams[j])."""
    if pp.mechanism == "output_perturbation":
        return output_perturb_many(hstar, c, train.n, pp, substreams)
    steps = dpsgd_distance_bound(hstar.num_params, c, train.n, pp).steps
    cfg = DpSgdConfig.calibrated(c, train.n, pp, steps)
    return np.stack([dpsgd(train, c, pp, cfg, substream=s).weights for s in substreams])


def release(
    hstar: LinearModel,
    train: Dataset,
    c,
    pp: PrivacyParams,
    substream: int | tuple[int, ...] = 0,
) -> LinearModel:
    """One private model: the one-draw case of :func:`release_many`."""
    return LinearModel(release_many(hstar, train, c, pp, [substream])[0], c.radius)


@dataclass
class ExperimentResult:
    sweep_path: str
    failures_path: str
    rows: int = 0
    failures: list[str] = field(default_factory=list)


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


class _Memo:
    """Value of ``fn()``, computed on first use.  A ``FairboundError`` or
    ``ValueError`` it raises is kept and raised again at every later use, so
    each grid point fails at the step, and with the text, it would have had
    computing the value itself."""

    def __init__(self, fn: Callable[[], Any]):
        self._fn = fn
        self._outcome: tuple[bool, Any] | None = None

    def __call__(self) -> Any:
        if self._outcome is None:
            try:
                self._outcome = (True, self._fn())
            except (FairboundError, ValueError) as exc:
                self._outcome = (False, exc)
        ok, value = self._outcome
        if not ok:
            raise value
        return value


class _Optimum:
    """h* of one training set with the work that depends only on it and the
    evaluation set: the loss constants, the margin profile of h*, the
    scoring reference that sorts the evaluation rows by label and |m|/L,
    and F(h*) per notion (each computed on first use)."""

    def __init__(self, cfg: ExperimentConfig, train: Dataset, eval_data: Dataset, specs: _Memo):
        self.hstar = fit_erm(train, cfg.lam, tol=cfg.tol)
        self.c = constants(train, cfg.lam, self.hstar.radius)
        self._eval_data = eval_data
        self._specs = specs

    @cached_property
    def profile(self) -> bounds_mod.MarginProfile:
        return bounds_mod.margin_profile(self.hstar, self._eval_data)

    @cached_property
    def reference(self) -> ScoringReference:
        partitions = [spec.partition for spec in self._specs().values()]
        return ScoringReference(self.hstar.weights, self.profile.ratio, self._eval_data, partitions)

    @cached_property
    def f_star(self) -> list[np.ndarray]:
        """F(h*) per notion: h* scored as the distance-0 model of its own
        reference, so it takes its counts from the reference."""
        levels = group_fairness_many(
            self.hstar.weights[None], self._eval_data, list(self._specs().values()), self.reference
        )
        return [level[0] for level in levels]


def _specs(cfg: ExperimentConfig, eval_data: Dataset) -> dict[str, FairnessSpec]:
    return {notion: coefficients(eval_data, notion, cfg.desirable) for notion in cfg.notions}


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> ExperimentResult:
    """Execute the sweep and write ``sweep.csv`` and ``failures.csv``.

    A failure at one grid point is recorded and the sweep continues; the
    whole run is deterministic given the config (including its seed).
    """
    base = _load_base_data(cfg)
    if cfg.eval_split == "test":
        try:
            train_all, eval_data = split(base, 1.0 - cfg.test_fraction, seed=cfg.seed)
        except ValueError as exc:  # a test-fraction that leaves one part empty
            raise ConfigError(f"test-fraction {cfg.test_fraction!r}: {exc}")
    else:
        train_all, eval_data = base, base
    os.makedirs(out_dir, exist_ok=True)

    grid = _grid_values(cfg)
    header = [
        "# fairbound experiment",
        f"# config_hash={cfg.config_hash()}",
        f"# seed={cfg.seed}",
        "# substreams=(grid_index,draw_index)",
        f"# eval_split={cfg.eval_split}",
    ]
    lines = header + [",".join(SWEEP_COLUMNS)]
    failures: list[str] = []
    rows = 0

    specs = _Memo(lambda: _specs(cfg, eval_data))
    # every epsilon-axis point trains on train_all, so its h* is solved once
    shared_optimum = _Memo(lambda: _Optimum(cfg, train_all, eval_data, specs))
    for g, grid_value in enumerate(grid):
        try:
            new_rows = _run_grid_point(
                cfg, g, float(grid_value), train_all, eval_data, specs, shared_optimum
            )
            lines.extend(new_rows)
            rows += len(new_rows)
        except FairboundError as exc:
            failures.append(f"{g},{_fmt(float(grid_value))},{type(exc).__name__}: {exc}")
        except ValueError as exc:
            failures.append(f"{g},{_fmt(float(grid_value))},ValueError: {exc}")

    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    failures_path = os.path.join(out_dir, "failures.csv")
    with open(failures_path, "w", encoding="utf-8") as fh:
        fh.write("grid_index,grid_value,error\n")
        for row in failures:
            fh.write(row + "\n")

    return ExperimentResult(sweep_path=sweep_path, failures_path=failures_path, rows=rows, failures=failures)


def _run_grid_point(
    cfg: ExperimentConfig,
    g: int,
    grid_value: float,
    train_all: Dataset,
    eval_data: Dataset,
    specs: _Memo,
    shared_optimum: _Memo,
) -> list[str]:
    if cfg.sweep_axis == "n":
        n_g = int(round(grid_value))
        if n_g < 2 or n_g > train_all.n:
            raise ConfigError(f"grid n={n_g} outside [2, {train_all.n}]")
        # a one-element key, so it equals no draw key (g, j)
        rng = _substream(cfg.seed, (g,))
        idx = np.sort(rng.choice(train_all.n, size=n_g, replace=False))
        train = train_all.subset(idx)
        epsilon = cfg.epsilon
        optimum = _Optimum(cfg, train, eval_data, specs)
    else:
        train = train_all
        n_g = train.n
        epsilon = grid_value
        optimum = shared_optimum()

    hstar, c = optimum.hstar, optimum.c
    pp = PrivacyParams(
        epsilon=epsilon,
        delta=_delta_for(cfg, n_g),
        zeta=cfg.zeta,
        mechanism=cfg.mechanism,
        seed=cfg.seed,
    )

    weights = release_many(hstar, train, c, pp, [(g, j) for j in range(cfg.draws)])
    dists = frobenius_norms(hstar.weights - weights)
    far_idx = int(np.argmax(dists))
    dist_measured = float(dists[far_idx])

    notion_specs = specs()
    dist_lemma, provenance = bounds_mod.resolve_distance(hstar.num_params, c, n_g, pp)
    f_draws_all = group_fairness_many(
        weights, eval_data, list(notion_specs.values()), optimum.reference
    )
    farthest = LinearModel(weights[far_idx], c.radius)
    refined_profile = bounds_mod.refined_lipschitz_profile(hstar, farthest, eval_data)

    rows: list[str] = []
    for (notion, spec), f_star, f_draws in zip(notion_specs.items(), optimum.f_star, f_draws_all):
        lemma = bounds_mod.bound_report(optimum.profile, spec, dist_lemma, provenance)
        measured = bounds_mod.bound_report(optimum.profile, spec, dist_measured)
        refined = bounds_mod.bound_report(refined_profile, spec, dist_measured)
        for k in range(spec.num_groups):
            entry = lemma.entry(k)
            flags = ";".join(entry.flags + spec.flags)
            rows.append(
                ",".join(
                    [
                        cfg.sweep_axis,
                        _fmt(grid_value),
                        str(n_g),
                        _fmt(float(epsilon)),
                        _fmt(pp.delta),
                        notion,
                        str(k),
                        spec.partition.descriptions[k].replace(",", "/"),
                        _fmt(float(f_star[k])),
                        _fmt(float(np.min(f_draws[:, k]))),
                        _fmt(float(np.max(f_draws[:, k]))),
                        _fmt(entry.best),
                        _fmt(measured.entry(k).best),
                        _fmt(refined.entry(k).best),
                        _fmt(lemma.dist),
                        _fmt(dist_measured),
                        lemma.dist_provenance,
                        flags,
                    ]
                )
            )
    return rows


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
) -> dict[str, str]:
    """One summary row: the group-averaged best-variant certificate for each
    notion plus plain accuracy, at the given privacy parameters (by default
    output perturbation at epsilon 1, zeta 0.01 and delta 1/n^2 over the
    training size)."""
    if eval_data.num_labels != 2:
        raise DataError(
            f"table needs binary labels for its demographic_parity_binary column; "
            f"the evaluation data has {eval_data.num_labels}"
        )
    if pp is None:
        pp = PrivacyParams(epsilon=1.0, delta=1.0 / train.n**2, zeta=0.01,
                           mechanism="output_perturbation", seed=0)
    c = constants(train, lam, hstar.radius)
    row: dict[str, str] = {"dataset": dataset_name}
    for notion in TABLE_NOTIONS:
        spec = coefficients(eval_data, notion, desirable)
        report = bounds_mod.theorem3_report(hstar, eval_data, spec, c, train.n, pp)
        row[notion] = _fmt(report.aggregate)
    return row


def write_table_csv(rows: list[dict[str, str]], path: str) -> None:
    columns = ["dataset", *TABLE_NOTIONS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in columns) + "\n")


def _write_report(
    path: str,
    metadata: dict[str, str] | None,
    columns: list[str],
    rows: list[list[str]],
    levels: list[float],
    slack: np.ndarray | None,
    combined_confidence: float | None,
) -> None:
    """Write ``# key=value`` metadata lines, the header and one line per
    group.  With ``slack``, group k gains the slack, levels[k] + slack and
    the combined confidence level."""
    if slack is not None:
        columns = columns + ["slack", "combined_bound", "combined_confidence"]
        confidence = _fmt(combined_confidence if combined_confidence is not None else 0.0)
        rows = [
            row + [_fmt(float(s)), _fmt(level + float(s)), confidence]
            for row, level, s in zip(rows, levels, slack)
        ]
    lines = [f"# {key}={value}" for key, value in (metadata or {}).items()]
    lines.append(",".join(columns))
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bound_report_csv(
    report: bounds_mod.BoundReport,
    path: str,
    metadata: dict[str, str] | None = None,
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
            str(entry.group),
            _fmt(entry.chi),
            _fmt(report.dist),
            report.dist_provenance,
            _fmt(entry.markov),
            _fmt(entry.truncated),
            _fmt(entry.chernoff),
            _fmt(entry.best),
            ";".join(entry.flags + report.flags),
        ]
        for entry in report.entries
    ]
    levels = [entry.best for entry in report.entries]
    _write_report(path, metadata, columns, rows, levels, slack, combined_confidence)


def write_audit_csv(
    spec: FairnessSpec,
    fairness_values: np.ndarray,
    empty_groups: np.ndarray,
    path: str,
    metadata: dict[str, str] | None = None,
    slack: np.ndarray | None = None,
    combined_confidence: float | None = None,
) -> None:
    """Audit rows: (k, group description, fairness level, flags).  With
    ``slack``, the combined bound is |fairness level| plus slack."""
    columns = ["k", "group", "fairness", "flags"]
    rows = [
        [
            str(k),
            spec.partition.descriptions[k].replace(",", "/"),
            _fmt(float(fairness_values[k])),
            ";".join(spec.flags + (("empty_group",) if empty_groups[k] else ())),
        ]
        for k in range(spec.num_groups)
    ]
    levels = [abs(float(v)) for v in fairness_values]
    _write_report(path, metadata, columns, rows, levels, slack, combined_confidence)
