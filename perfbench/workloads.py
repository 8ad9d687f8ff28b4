"""Inputs, ops and correctness checks of the three workloads.

Every input is generated from the workload seed: synthetic spec files and
experiment configs for the sweeps, and the CSVs of ``cli-certify``.  The
program receives only these files.  ``GENERATOR`` holds every parameter the
generators use, and is printed with each result so the inputs can be made
again without committed data.

Synthetic data comes from Gaussian cells with unit diagonal covariance.
Label y has mean 2 on axis ``y mod p``; the sensitive value s shifts axis
``(y+1) mod p`` by -0.5 .. +0.5 (evenly spaced over the groups, so +-0.5
for two groups).
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil

import numpy as np

CONTAINMENT_TOL = 1e-12

GENERATOR = {
    "sweep-eps-op": {
        "labels": 2, "groups": 2, "features": 4, "rows_per_cell": 1000,
        "lambda": 1.0, "tol": 1e-10, "mechanism": "output_perturbation",
        "sweep_axis": "epsilon", "grid": [0.25, 4.0, 5], "draws": 400,
        "notions": "equalized_odds,accuracy_parity,demographic_parity_binary",
        "eval_split": "train", "seed_cycle": 4,
    },
    "sweep-n-dpsgd": {
        "labels": 2, "groups": 2, "features": 3, "rows_per_cell": 1500,
        "lambda": 1.0, "tol": 1e-10, "mechanism": "dp_sgd", "sweep_axis": "n",
        "n_points": [300, 600, 1200, 2400, 4800], "grid_count": 1, "draws": 40,
        "epsilon": 1.0, "notions": "equalized_odds,accuracy_parity",
        "eval_split": "test", "test_fraction": 0.1, "seed_cycle": 2,
        "cert_points": [1200, 2400, 4800],
    },
    "cli-certify": {
        "labels": 5, "groups": 3, "features": 6, "rows_per_cell": 2000,
        "split": "per cell: shuffle, first half train.csv, second half test.csv",
        "csv_rng": "numpy default_rng(workload seed), cells in (label, group) order",
        "lambda": 1.0, "tol": 1e-10, "mechanism": "output-perturbation",
        "epsilon": 0.5, "notion": "equalized-odds", "finite_sample": "independent",
        "privatize_seed": "workload seed * 100003 + op index",
    },
}

# Sizes for the smoke test: same shape, far less work.
TINY = {
    "sweep-eps-op": {"rows_per_cell": 60, "draws": 5, "grid": [0.25, 4.0, 2]},
    "sweep-n-dpsgd": {"rows_per_cell": 350, "draws": 2, "n_points": [300, 1200],
                      "cert_points": [1200]},
    "cli-certify": {"rows_per_cell": 40},
}

INPUTS = os.path.join("..", "..", "inputs")  # inputs seen from an op directory

# Round r of a sweep runs the experiment with seed
#     workload seed * 1000 + r mod seed_cycle,
# which draws the data, the subsample and the private draws.  A run thus
# averages over a few data sets, so a single seed's solver or SGD-schedule
# length does not set a run's timing, and every op still has repeats.


def cell_mean(label: int, group: int, groups: int, features: int) -> np.ndarray:
    mean = np.zeros(features)
    mean[label % features] += 2.0
    shift = 0.5 * (2.0 * group / (groups - 1) - 1.0) if groups > 1 else 0.0
    mean[(label + 1) % features] += shift
    return mean


def spec_text(g: dict) -> str:
    lines = [f"features = {g['features']}"]
    for y in range(g["labels"]):
        for s in range(g["groups"]):
            mean = cell_mean(y, s, g["groups"], g["features"])
            prefix = f"cell.{y}.{s}"
            lines += [
                f"{prefix}.count = {g['rows_per_cell']}",
                f"{prefix}.mean = {', '.join(repr(float(v)) for v in mean)}",
                f"{prefix}.cov = {', '.join(['1.0'] * g['features'])}",
            ]
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Outcome:
    """What the harness learns from one finished op."""

    def __init__(self):
        self.units = 0
        self.failures: dict[str, int] = {}  # exception type name -> units
        self.violations: list[str] = []  # failed correctness checks
        self.releases = 0
        self.cert: list[float] = []
        self.digest = ""
        self.parts: dict[str, str] = {}  # digests that must not vary between ops

    def fail(self, kind: str, units: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + units

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def check_sweep(result: dict, out_dir: str, grid_count: int, draws: int, cert: bool = True) -> Outcome:
    """Containment on every ``sweep.csv`` row, failure rows, releases, and
    the lemma certificates (when ``cert``).  An exception that escaped
    ``run_experiment``, or a missing output file, fails every grid point."""
    o = Outcome()
    o.units = grid_count
    error = result["units"][0]["error"]
    sweep = os.path.join(out_dir, "sweep.csv")
    failures = os.path.join(out_dir, "failures.csv")
    if error is None and not (os.path.isfile(sweep) and os.path.isfile(failures)):
        error = "MissingOutput"
    if error is not None:
        o.fail(error, grid_count)
        return o
    rows = _read_rows(sweep)
    failed_values = set()
    for row in _read_rows(failures):
        o.fail(row["error"].split(":", 1)[0])
        failed_values.add(float(row["grid_value"]))
    bad_values = set()
    for row in rows:
        f_star = float(row["f_star"])
        drift = max(abs(float(row["f_priv_min"]) - f_star), abs(float(row["f_priv_max"]) - f_star))
        if not drift <= float(row["bound_measured"]) + CONTAINMENT_TOL:
            bad_values.add(float(row["grid_value"]))
            o.violations.append(
                f"containment: grid {row['grid_value']} {row['notion']} group {row['k']}: "
                f"drift {drift!r} > bound_measured {row['bound_measured']}"
            )
    values = {float(row["grid_value"]) for row in rows}
    missing = grid_count - len(values | failed_values)
    if missing > 0:
        o.fail("MissingRows", missing)
    for _ in bad_values - failed_values:
        o.fail("ContainmentViolation")
    o.releases = draws * len(values - failed_values - bad_values)
    o.cert = [float(r["bound_lemma"]) for r in rows] if cert else []
    o.digest = digest([sweep, failures])
    return o


class Workload:
    name = ""
    cycle = 1  # rounds after which the op mix repeats
    setup_runs = 5  # set-ups per run; setup_s is their median
    reference = "parse_floats"  # kernel of reference.py that mimics its ops

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.g = dict(GENERATOR[self.name], **(TINY[self.name] if tiny else {}))

    def write_inputs(self, inputs: str) -> dict:
        """Write the inputs; returns the set-up op that validates them."""
        raise NotImplementedError

    def round(self, r: int) -> list[dict]:
        """Ops of round ``r``; the harness measures whole rounds only."""
        raise NotImplementedError

    def check(self, op: dict, result: dict) -> Outcome:
        raise NotImplementedError


class SweepEps(Workload):
    """One op is one ``run_experiment`` over the epsilon grid."""

    name = "sweep-eps-op"
    reference = "dense_steps"

    def config_text(self, grid: list[str]) -> str:
        g = self.g
        return "\n".join([
            f"data = {os.path.join(INPUTS, 'spec.txt')}",
            "data-format = synthetic",
            f"lambda = {g['lambda']!r}",
            f"notions = {g['notions']}",
            f"mechanism = {g['mechanism']}",
            f"sweep-axis = {g['sweep_axis']}",
            *grid,
            f"draws = {g['draws']}",
            f"eval-split = {g['eval_split']}",
            f"tol = {g['tol']!r}",
            f"seed = {self.experiment_seed(0)}",
        ]) + "\n"

    def configs(self) -> dict[str, str]:
        start, stop, count = self.g["grid"]
        grid = [f"grid-start = {start!r}", f"grid-stop = {stop!r}", f"grid-count = {count}"]
        return {"experiment.cfg": self.config_text(grid)}

    @property
    def cycle(self) -> int:
        return self.g["seed_cycle"]

    def experiment_seed(self, r: int) -> int:
        return self.seed * 1000 + r % self.g["seed_cycle"]

    def write_inputs(self, inputs: str) -> dict:
        _write(os.path.join(inputs, "spec.txt"), spec_text(self.g))
        for name, text in self.configs().items():
            _write(os.path.join(inputs, name), text)
        return {"kind": "warmup", "configs": sorted(self.configs()), "seed": self.experiment_seed(0)}

    def round(self, r: int) -> list[dict]:
        seed = self.experiment_seed(r)
        return [{"key": f"seed{seed}", "kind": "experiment", "config": os.path.join(INPUTS, "experiment.cfg"),
                 "seed": seed}]

    def check(self, op: dict, result: dict) -> Outcome:
        return check_sweep(result, os.path.join(op["cwd"], "out"), self.g["grid"][2], self.g["draws"])


class SweepN(SweepEps):
    """One op is a one-point ``run_experiment`` at one n, so a point that
    aborts is one failed unit and the other points are still timed."""

    name = "sweep-n-dpsgd"
    reference = "parse_floats"  # the DP-SGD loop is mostly Python-level

    def configs(self) -> dict[str, str]:
        g = self.g
        return {
            f"n{n}.cfg": self.config_text([
                f"grid-start = {n}", f"grid-stop = {n}", f"grid-count = {g['grid_count']}",
                f"epsilon = {g['epsilon']!r}", f"test-fraction = {g['test_fraction']!r}",
            ])
            for n in g["n_points"]
        }

    def round(self, r: int) -> list[dict]:
        seed = self.experiment_seed(r)
        return [{"key": f"n{n}-seed{seed}", "kind": "experiment", "n": n,
                 "config": os.path.join(INPUTS, f"n{n}.cfg"), "seed": seed}
                for n in self.g["n_points"]]

    def check(self, op: dict, result: dict) -> Outcome:
        return check_sweep(result, os.path.join(op["cwd"], "out"), 1, self.g["draws"],
                           cert=op["n"] in self.g["cert_points"])


class CliCertify(Workload):
    """One op is privatize -> audit -> bound -> bound --other, through
    ``fairbound.cli.main``; h* is trained and audited in set-up."""

    name = "cli-certify"
    setup_runs = 3  # each trains h*, about 4 s

    def write_inputs(self, inputs: str) -> dict:
        g = self.g
        rng = np.random.default_rng(self.seed)
        header = [f"f{j}" for j in range(g["features"])] + ["s", "y"]
        parts = {"train.csv": [",".join(header)], "test.csv": [",".join(header)]}
        half = g["rows_per_cell"] // 2
        for y in range(g["labels"]):
            for s in range(g["groups"]):
                mean = cell_mean(y, s, g["groups"], g["features"])
                block = mean + rng.standard_normal((g["rows_per_cell"], g["features"]))
                block = block[rng.permutation(g["rows_per_cell"])]
                for name, rows in (("train.csv", block[:half]), ("test.csv", block[half:])):
                    parts[name] += [",".join(map(repr, row)) + f",{s},{y}" for row in rows.tolist()]
        for name, lines in parts.items():
            _write(os.path.join(inputs, name), "\n".join(lines) + "\n")
        return {"kind": "cli", "commands": [
            ["train", "--data", "train.csv", "--lambda", repr(g["lambda"]), "--tol", repr(g["tol"]),
             "--out", "hstar.txt"],
            ["audit", "--data", "test.csv", "--model", "hstar.txt", "--notion", g["notion"],
             "--report", "audit_hstar.csv"],
        ]}

    def round(self, r: int) -> list[dict]:
        g = self.g
        data = os.path.join(INPUTS, "test.csv")
        train = os.path.join(INPUTS, "train.csv")
        hstar = os.path.join(INPUTS, "hstar.txt")
        common = ["--lambda", repr(g["lambda"]), "--epsilon", repr(g["epsilon"])]
        bound = ["bound", "--data", data, "--model", hstar, "--train-data", train,
                 "--notion", g["notion"], *common]
        return [{"key": f"op{r}", "kind": "cli", "commands": [
            ["privatize", "--data", train, "--model", hstar, "--mechanism", g["mechanism"],
             *common, "--seed", str(self.seed * 100003 + r), "--out", "release.txt"],
            ["audit", "--data", data, "--model", "release.txt", "--notion", g["notion"],
             "--report", "audit.csv"],
            bound + ["--out", "lemma.csv"],
            bound + ["--other", "release.txt", "--finite-sample", g["finite_sample"], "--out", "other.csv"],
        ]}]

    def check(self, op: dict, result: dict) -> Outcome:
        o = Outcome()
        o.units = len(op["commands"])
        for unit in result["units"]:
            if unit["error"] is not None:
                o.fail(unit["error"])
        skipped = o.units - len(result["units"])
        if skipped:
            o.fail("SkippedAfterFailure", skipped)
        cwd = op["cwd"]
        names = ["release.txt", "audit.csv", "lemma.csv", "other.csv"]
        if not o.failed and not all(os.path.isfile(os.path.join(cwd, n)) for n in names):
            o.fail("MissingOutput")
        if o.failed:
            return o
        audit = [float(r["fairness"]) for r in _read_rows(os.path.join(cwd, "audit.csv"))]
        base = [float(r["fairness"]) for r in _read_rows(os.path.join(cwd, INPUTS, "audit_hstar.csv"))]
        best = [float(r["best"]) for r in _read_rows(os.path.join(cwd, "other.csv"))]
        if not len(audit) == len(base) == len(best):
            o.violations.append(f"containment: {len(audit)}/{len(base)}/{len(best)} groups in audits/report")
        for k, (a, b, bound) in enumerate(zip(audit, base, best)):
            if not abs(a - b) <= bound + CONTAINMENT_TOL:
                o.violations.append(f"containment: group {k}: |{a!r} - {b!r}| > best {bound!r}")
        if o.violations:
            o.fail("ContainmentViolation")
        else:
            o.releases = 1
        o.cert = [float(r["best"]) for r in _read_rows(os.path.join(cwd, "lemma.csv"))]
        o.digest = digest([os.path.join(cwd, n) for n in names])
        o.parts = {"lemma.csv": digest([os.path.join(cwd, "lemma.csv")])}
        return o


WORKLOADS = {w.name: w for w in (SweepEps, SweepN, CliCertify)}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
