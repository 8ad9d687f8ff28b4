"""Key-value text configuration files.

Grammar (shared by experiment configs and synthetic dataset specs):

    # comment
    key = value

Keys are case-sensitive; whitespace around '=' is ignored; later duplicates
override earlier ones.  List-valued entries separate items with commas.

Synthetic dataset specs use the keys

    features = <int>                       number of feature columns
    cell.<label>.<sensitive>.count = <int>
    cell.<label>.<sensitive>.mean  = v1, v2, ...          (length = features)
    cell.<label>.<sensitive>.cov   = v1, v2, ...          diagonal entries,
                                     or features*features row-major values

Every (label, sensitive) cell present defines one Gaussian blob; labels and
sensitive values are dense nonnegative integers.
"""

from __future__ import annotations

import numpy as np

from .dataset import CellSpec, SyntheticSpec
from .exceptions import ConfigError


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        values[key] = value.strip()
    return values


def read_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read(), source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def label_ids(value: str) -> frozenset[int]:
    """A desirable label set written as comma-separated ids, such as
    ``"0, 2"``; a token that is not an integer is a config error."""
    try:
        return frozenset(int(t) for t in value.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"desirable labels must be comma-separated integer ids, got {value!r}")


def _floats(value: str) -> list[float]:
    try:
        return [float(tok) for tok in value.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {value!r}: {exc}")


def parse_synthetic_spec(values: dict[str, str], source: str = "<spec>") -> SyntheticSpec:
    if "features" not in values:
        raise ConfigError(f"{source}: synthetic spec needs a 'features' key")
    try:
        num_features = int(values["features"])
    except ValueError:
        raise ConfigError(f"{source}: 'features' must be an integer")
    if num_features < 1:
        raise ConfigError(f"{source}: 'features' must be positive")

    cell_fields: dict[tuple[int, int], dict[str, str]] = {}
    for key, value in values.items():
        if not key.startswith("cell."):
            continue
        parts = key.split(".")
        if len(parts) != 4:
            raise ConfigError(f"{source}: bad cell key {key!r}")
        try:
            label, sensitive = int(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"{source}: cell ids must be integers in {key!r}")
        if label < 0 or sensitive < 0:
            raise ConfigError(f"{source}: cell ids must be nonnegative in {key!r}")
        if parts[3] not in ("count", "mean", "cov"):
            raise ConfigError(f"{source}: unknown cell field {parts[3]!r}")
        cell_fields.setdefault((label, sensitive), {})[parts[3]] = value

    if not cell_fields:
        raise ConfigError(f"{source}: synthetic spec defines no cells")

    cells: dict[tuple[int, int], CellSpec] = {}
    for key, fields in cell_fields.items():
        missing = {"count", "mean", "cov"} - fields.keys()
        if missing:
            raise ConfigError(f"{source}: cell {key} is missing {sorted(missing)}")
        try:
            count = int(fields["count"])
        except ValueError:
            raise ConfigError(f"{source}: cell {key}: count must be an integer")
        mean = np.asarray(_floats(fields["mean"]))
        cov_vals = _floats(fields["cov"])
        if len(cov_vals) == num_features:
            cov = np.asarray(cov_vals)
        elif len(cov_vals) == num_features * num_features:
            cov = np.asarray(cov_vals).reshape(num_features, num_features)
        else:
            raise ConfigError(
                f"{source}: cell {key}: cov needs {num_features} diagonal or "
                f"{num_features * num_features} full-matrix values"
            )
        if mean.shape != (num_features,):
            raise ConfigError(f"{source}: cell {key}: mean needs {num_features} values")
        cells[key] = CellSpec(count=count, mean=mean, cov=cov)
    return SyntheticSpec(num_features=num_features, cells=cells)


def read_synthetic_spec(path: str) -> SyntheticSpec:
    return parse_synthetic_spec(read_config(path), source=path)
