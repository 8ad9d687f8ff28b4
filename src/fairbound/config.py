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
checks the values.  Every other value is checked by one converter per kind
of value, which CLI flags (as argparse ``type``), experiment-config keys,
``PrivacyParams`` and the library functions that take such a value share:
``convert(key, value)`` takes text or the typed value code passes, returns
the typed value, and raises a ConfigError naming ``key``.
"""

from __future__ import annotations

import math
import operator

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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})")


def _converter(domain: str, parse, ok=lambda result: True):
    """The converter of the values ``parse`` turns into a result that passes
    ``ok``: ``convert(key, value)`` returns that result, or raises a
    ConfigError saying that ``key`` must ``domain``."""
    def convert(key: str, value):
        try:
            if ok(result := parse(value)):
                return result
        except (TypeError, ValueError):
            pass
        raise ConfigError(f"{key} must {domain}, got {value!r}")
    return convert


positive = _converter("be positive and finite", float, lambda x: 0 < x < math.inf)
nonnegative = _converter("be nonnegative and finite", float, lambda x: 0 <= x < math.inf)
fraction = _converter("lie strictly between 0 and 1", float, lambda x: 0 < x < 1)


def _integer(value) -> int:
    """An int from text or from an integer type; a float is refused."""
    return int(value) if isinstance(value, str) else operator.index(value)


def at_least(floor: int):
    """The converter of an integer of at least ``floor``."""
    return _converter(f"be an integer of at least {floor}", _integer, lambda x: x >= floor)


seed_number = at_least(0)


def one_of(*choices: str):
    """The converter of one of ``choices``, also spelled with dashes."""
    return _converter(f"be one of {', '.join(choices)}",
                      lambda v: str(v).replace("-", "_"), choices.__contains__)


def list_items(value) -> list:
    """The items of a list value: comma-separated in text, else the value's own."""
    if isinstance(value, str):
        return [t.strip() for t in value.split(",") if t.strip()]
    return list(value)


# desirable label ids, comma-separated in text ("0, 2")
label_ids = _converter("be comma-separated integer label ids",
                       lambda v: frozenset(map(_integer, list_items(v))))
_integer_text = _converter("be an integer", int)
_floats = _converter("be comma-separated numbers", lambda v: list(map(float, list_items(v))))


def parse_synthetic_spec(values: dict[str, str], source: str = "<spec>") -> SyntheticSpec:
    if "features" not in values:
        raise ConfigError(f"{source}: synthetic spec needs a 'features' key")
    num_features = _integer_text(f"{source}: features", values["features"])

    cell_fields: dict[tuple[int, int], dict[str, str]] = {}
    for key, value in values.items():
        if not key.startswith("cell."):
            continue
        parts = key.split(".")
        if len(parts) != 4:
            raise ConfigError(f"{source}: bad cell key {key!r}")
        label, sensitive = (_integer_text(f"{source}: a cell id of {key!r}", t)
                            for t in parts[1:3])
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
        count = _integer_text(f"{source}: cell {key} count", fields["count"])
        mean = np.asarray(_floats(f"{source}: cell {key} mean", fields["mean"]))
        cov = np.asarray(_floats(f"{source}: cell {key} cov", fields["cov"]))
        if num_features > 1 and cov.size == num_features**2:
            cov = cov.reshape(num_features, num_features)
        cells[key] = CellSpec(count=count, mean=mean, cov=cov)
    return SyntheticSpec(num_features=num_features, cells=cells)


def read_synthetic_spec(path: str) -> SyntheticSpec:
    return parse_synthetic_spec(read_config(path), source=path)
