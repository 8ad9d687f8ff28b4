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
sensitive values are dense nonnegative integers; ``dataset.synthesize``
checks the values.  CLI flags and experiment-config keys share the
converters :func:`label_ids`, :func:`mechanism_name` and :func:`notion_name`.
"""

from __future__ import annotations

import numpy as np

from .dataset import CellSpec, SyntheticSpec
from .exceptions import ConfigError
from .fairness import NOTIONS
from .privacy import MECHANISMS


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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})")


def label_ids(value: str) -> frozenset[int]:
    """A desirable label set written as comma-separated ids, such as
    ``"0, 2"``; a token that is not an integer is a config error."""
    try:
        return frozenset(int(t) for t in value.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"desirable labels must be comma-separated integer ids, got {value!r}")


def mechanism_name(value: str) -> str:
    """A release mechanism, with dashes or underscores (``dp-sgd`` or
    ``dp_sgd``), as its ``privacy.MECHANISMS`` name; any other name is a
    config error."""
    name = value.replace("-", "_")
    if name not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {value!r}")
    return name


def notion_name(value: str) -> str:
    """A fairness notion, with dashes or underscores, as its
    ``fairness.NOTIONS`` name; any other name is a config error."""
    name = value.replace("-", "_")
    if name not in NOTIONS:
        raise ConfigError(f"unknown notion {value!r}")
    return name


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
        cov = np.asarray(_floats(fields["cov"]))
        if num_features > 1 and cov.size == num_features**2:
            cov = cov.reshape(num_features, num_features)
        cells[key] = CellSpec(count=count, mean=np.asarray(_floats(fields["mean"])), cov=cov)
    return SyntheticSpec(num_features=num_features, cells=cells)


def read_synthetic_spec(path: str) -> SyntheticSpec:
    return parse_synthetic_spec(read_config(path), source=path)
