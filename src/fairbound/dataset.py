"""Classification data with a sensitive attribute.

A dataset is a fixed collection of examples (features, sensitive group,
label).  Features always carry a trailing constant-1 intercept coordinate,
appended at load/synthesis time, so that downstream ridge regularization
covers the intercept and strong convexity holds for the full parameter
matrix.  Categorical sensitive/label values are mapped to dense integer ids
in first-appearance order; the mapping is stored on the dataset so CSV
round-trips reproduce it exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import warnings
import zipfile
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .exceptions import DataError, EmptyDatasetError, ParseError, SchemaError


class Example(NamedTuple):
    features: np.ndarray
    sensitive: int
    label: int


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled dataset.

    Attributes
    ----------
    features : (n, p) float64 array, last column the constant intercept
    sensitive : (n,) integer ids in [0, num_sensitive)
    labels : (n,) integer ids in [0, num_labels)
    label_values, sensitive_values : original categorical values, indexed
        by dense id (first-appearance order)
    feature_names : CSV column names, excluding the intercept
    """

    features: np.ndarray
    sensitive: np.ndarray
    labels: np.ndarray
    num_labels: int
    num_sensitive: int
    label_values: tuple[str, ...]
    sensitive_values: tuple[str, ...]
    feature_names: tuple[str, ...]
    sensitive_col: str = "s"
    label_col: str = "y"

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        sensitive = np.asarray(self.sensitive, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise EmptyDatasetError("dataset must contain at least one example")
        n = features.shape[0]
        if sensitive.shape != (n,) or labels.shape != (n,):
            raise ValueError("features, sensitive and labels must have matching length")
        if not np.all(np.isfinite(features)):
            raise ValueError("all feature entries must be finite")
        if labels.min() < 0 or labels.max() >= self.num_labels:
            raise ValueError("label id out of declared range")
        if sensitive.min() < 0 or sensitive.max() >= self.num_sensitive:
            raise ValueError("sensitive id out of declared range")
        for arr in (features, sensitive, labels):
            arr.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "sensitive", sensitive)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        """Feature dimension, intercept included."""
        return self.features.shape[1]

    @property
    def feature_norm_bound(self) -> float:
        """Largest Euclidean row norm, max_i ||x_i||_2."""
        return float(np.max(np.linalg.norm(self.features, axis=1)))

    def example(self, i: int) -> Example:
        return Example(self.features[i], int(self.sensitive[i]), int(self.labels[i]))

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Dataset restricted to ``indices``; id mappings are inherited."""
        indices = np.asarray(indices)
        return replace(
            self,
            features=self.features[indices],
            sensitive=self.sensitive[indices],
            labels=self.labels[indices],
        )


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint cover of a dataset's examples by K groups."""

    num_groups: int
    assignment: np.ndarray
    proportions: np.ndarray
    descriptions: tuple[str, ...]

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=np.int64)
        proportions = np.asarray(self.proportions, dtype=np.float64)
        if proportions.shape != (self.num_groups,):
            raise ValueError("proportions must have one entry per group")
        if abs(proportions.sum() - 1.0) > 1e-12:
            raise ValueError("group proportions must sum to 1")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= self.num_groups):
            raise ValueError("group assignment out of range")
        assignment.setflags(write=False)
        proportions.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "proportions", proportions)


_CACHE_DIR = "__fairbound_cache__"
# part of every cache key: change it whenever the parse rules or the entry
# layout change, so that no entry written under the old ones is ever a hit
_CACHE_FORMAT = "fairbound-load-csv-2"


def load_csv(path: str, sensitive_col: str, label_col: str) -> Dataset:
    """Load a UTF-8 comma-separated file with a mandatory header row.

    One column is the sensitive attribute, one is the label; every other
    column must be numeric and becomes a feature.  An intercept coordinate
    (constant 1) is appended after the named feature columns.  A header
    that names a role's column more than once is a schema error.

    The header is read with :mod:`csv`; the data rows are parsed in one
    C-level ``np.loadtxt`` pass.  A feature cell is a finite float in
    ``float()`` syntax between optional whitespace padding, with only
    ASCII characters and no digit-group underscores inside the padding;
    padding is any character ``str.isspace`` accepts.  A ragged row, any
    other feature cell, and a file that is not UTF-8 are data errors.

    Parse cache.  The file's bytes are read once.  When ``path`` is a
    regular file, the parsed dataset is kept in
    ``<directory of path>/__fairbound_cache__/<file name>.npz``, keyed by
    SHA-256 over a cache-format tag, both role names and those bytes (the
    hash-checked ``.pyc`` design of PEP 552).  A later load of the same
    bytes with the same roles reads that entry instead of parsing; any
    change to the content or the roles is a miss, whatever the file's size
    or modification time.  An entry that cannot be read or does not match
    is a miss and is rewritten; a file that fails to parse is never cached;
    writing is skipped when the directory cannot be written.  The cache
    never changes a result, so deleting the directory is always safe.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
            mode = os.fstat(fh.fileno()).st_mode
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if not stat.S_ISREG(mode):
        return _parse_csv(path, raw, sensitive_col, label_col)
    hasher = hashlib.sha256(json.dumps([_CACHE_FORMAT, sensitive_col, label_col]).encode("ascii"))
    hasher.update(raw)  # not one ``tag + raw`` call, which copies the bytes
    key = hasher.digest()
    entry = os.path.join(os.path.dirname(path), _CACHE_DIR, os.path.basename(path) + ".npz")
    d = _read_entry(entry, key, sensitive_col, label_col)
    if d is None:
        d = _parse_csv(path, raw, sensitive_col, label_col)
        _write_entry(entry, key, d, stat.S_IMODE(mode))
    return d


def _read_entry(entry: str, key: bytes, sensitive_col: str, label_col: str) -> Dataset | None:
    """The dataset cached in ``entry`` under ``key``, or None on a miss.

    The file is opened here, not by ``np.load``, which leaves its own
    handle open when the zip directory is unreadable.  An entry holding a
    bare ``.npy`` array loads as an ndarray, which ``with`` rejects with a
    TypeError."""
    try:
        with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            if z["key"].tobytes() != key:
                return None
            names = json.loads(z["names"].tobytes().decode("utf-8"))
            return Dataset(
                features=z["features"],
                sensitive=z["sensitive"],
                labels=z["labels"],
                num_labels=len(names["label_values"]),
                num_sensitive=len(names["sensitive_values"]),
                label_values=tuple(names["label_values"]),
                sensitive_values=tuple(names["sensitive_values"]),
                feature_names=tuple(names["feature_names"]),
                sensitive_col=sensitive_col,
                label_col=label_col,
            )
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile, EOFError):
        return None


def _write_entry(entry: str, key: bytes, d: Dataset, mode: int) -> None:
    """Best effort: store ``d`` in ``entry`` under ``key`` through a unique
    temporary file and an atomic rename, so that a concurrent reader sees
    the old entry or the new one, never a partial one.  The entry gets the
    read and write bits of the CSV's permission ``mode``, as a ``.pyc``
    gets its source's, so whoever may read the CSV may read its entry."""
    # JSON, not a NumPy string array: ``U`` arrays drop trailing NULs
    names = json.dumps({
        "label_values": d.label_values,
        "sensitive_values": d.sensitive_values,
        "feature_names": d.feature_names,
    }).encode("ascii")
    directory, name = os.path.split(entry)
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory)
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                key=np.frombuffer(key, np.uint8),
                names=np.frombuffer(names, np.uint8),
                features=d.features,
                sensitive=d.sensitive,
                labels=d.labels,
            )
        os.chmod(tmp, mode & 0o666)
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _parse_csv(path: str, raw: bytes, sensitive_col: str, label_col: str) -> Dataset:
    """The dataset in ``raw``, the bytes of the file at ``path``, which
    only names the file in error messages."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is None:
                raise EmptyDatasetError(f"{path}: file is empty")
            if sensitive_col not in header:
                raise SchemaError(f"{path}: no column named {sensitive_col!r} for the sensitive role")
            if label_col not in header:
                raise SchemaError(f"{path}: no column named {label_col!r} for the label role")
            if sensitive_col == label_col:
                raise SchemaError("sensitive and label roles must name distinct columns")
            for role, name in (("sensitive", sensitive_col), ("label", label_col)):
                if header.count(name) > 1:
                    raise SchemaError(f"{path}: {header.count(name)} columns are named "
                                      f"{name!r}, the {role} role's column")
            s_idx = header.index(sensitive_col)
            y_idx = header.index(label_col)
            feat_idx = [j for j in range(len(header)) if j not in (s_idx, y_idx)]
            dtype = np.dtype(
                [(f"c{j}", object if j in (s_idx, y_idx) else np.float64) for j in range(len(header))]
            )
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
                )
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})")
        except ValueError as exc:
            raise _parse_error(path, raw, len(header), feat_idx, fallback=str(exc))

    if table.shape[0] == 0:
        raise EmptyDatasetError(f"{path}: no data rows")
    features = np.empty((table.shape[0], len(feat_idx) + 1))
    for k, j in enumerate(feat_idx):
        features[:, k] = table[f"c{j}"]
    features[:, -1] = 1.0
    if not np.all(np.isfinite(features)):
        raise _parse_error(path, raw, len(header), feat_idx, fallback="non-finite feature cell")

    sens_ids, sens_values = _dense_ids(table[f"c{s_idx}"])
    lab_ids, lab_values = _dense_ids(table[f"c{y_idx}"])
    return Dataset(
        features=features,
        sensitive=sens_ids,
        labels=lab_ids,
        num_labels=len(lab_values),
        num_sensitive=len(sens_values),
        label_values=lab_values,
        sensitive_values=sens_values,
        feature_names=tuple(header[j] for j in feat_idx),
        sensitive_col=sensitive_col,
        label_col=label_col,
    )


def _dense_ids(values: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Dense integer ids of ``values`` in first-appearance order, and the
    distinct values indexed by id."""
    seen: dict[str, int] = {}
    ids = np.fromiter((seen.setdefault(v, len(seen)) for v in values), np.int64, len(values))
    return ids, tuple(seen)


def _parse_error(path: str, raw: bytes, width: int, feat_idx: list[int], fallback: str) -> ParseError:
    """The error for the first row, in file order, that :func:`load_csv`
    rejects in ``raw``, the bytes it parsed: a ragged row, or a feature
    cell that is not a finite ASCII float.  Row numbers are 1-based csv
    records, header included; blank lines count but are skipped.
    Undecodable bytes read as U+FFFD here, so the first bad row is found
    wherever they are.  ``fallback`` describes the failure when no single
    row is to blame."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                return ParseError(f"{path}: row {row_num} has {len(row)} cells, expected {width}")
            for j in feat_idx:
                # the loadtxt rule: strip Unicode whitespace, then parse ASCII
                cell = row[j]
                number = cell.strip()
                try:
                    value = float(number)
                except ValueError:
                    return ParseError(
                        f"{path}: row {row_num}: non-numeric feature cell "
                        f"(could not convert string to float: {cell!r})"
                    )
                if not number.isascii() or "_" in number:
                    return ParseError(
                        f"{path}: row {row_num}: feature cell {cell!r} is not an ASCII "
                        "float without underscores"
                    )
                if not math.isfinite(value):
                    return ParseError(f"{path}: row {row_num}: non-finite feature cell {cell!r}")
    return ParseError(f"{path}: {fallback}")


def format_value(value) -> str:
    """A cell of every output file: a float in the shortest decimal form
    that round-trips to the same float64, anything else by ``str``."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows(
    path: str, columns: Sequence[str], rows: Iterable[Sequence], preamble: Iterable[str] = ()
) -> None:
    """Write the UTF-8 CSV file ``path``: a ``# line`` per ``preamble``
    line, the ``columns`` header, then one record per row with every cell
    in :func:`format_value` form.  Records end in LF; a field that holds a
    comma, a double quote, a CR or an LF is quoted (RFC 4180), and every
    other field is written as it is.  Every output CSV is written here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in preamble)
        # the writer quotes a field that holds a character of its terminator,
        # so a CRLF one quotes a bare CR too; it writes one record per call,
        # whose CRLF becomes LF here
        lf = SimpleNamespace(write=lambda record: fh.write(record[:-2] + "\n"))
        writer = csv.writer(lf, lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows([format_value(v) for v in row] for row in rows)


def write_csv(d: Dataset, path: str) -> None:
    """Inverse of :func:`load_csv`: drops the intercept, restores original
    categorical values, prints features at full round-trip precision."""
    write_rows(
        path,
        list(d.feature_names) + [d.sensitive_col, d.label_col],
        (
            feats + [d.sensitive_values[s], d.label_values[y]]
            for feats, s, y in zip(d.features[:, :-1].tolist(), d.sensitive, d.labels)
        ),
    )


@dataclass(frozen=True)
class CellSpec:
    """Gaussian cell of a synthetic dataset: one (label, sensitive) pair."""

    count: int
    mean: np.ndarray
    cov: np.ndarray  # (p,) diagonal or (p, p) full, positive semi-definite


@dataclass(frozen=True)
class SyntheticSpec:
    num_features: int
    cells: dict[tuple[int, int], CellSpec]  # keyed by (label, sensitive)


def synthesize(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw a dataset from per-cell Gaussians, deterministically per seed.

    Cell counts are honored exactly; rows appear in sorted (label, sensitive)
    cell order.  Counts of zero are allowed (the cell simply contributes no
    rows); a zero total raises EmptyDatasetError.
    """
    total = sum(c.count for c in spec.cells.values())
    if total == 0:
        raise EmptyDatasetError("synthetic spec has zero total count")
    for key, cell in spec.cells.items():
        if cell.count < 0:
            raise ValueError(f"cell {key}: negative count")

    rng = np.random.default_rng(seed)
    blocks: list[np.ndarray] = []
    sens: list[np.ndarray] = []
    labs: list[np.ndarray] = []
    for (label, sensitive), cell in sorted(spec.cells.items()):
        if cell.count == 0:
            continue
        mean = np.asarray(cell.mean, dtype=np.float64)
        cov = np.asarray(cell.cov, dtype=np.float64)
        if mean.shape != (spec.num_features,):
            raise ValueError(f"cell ({label},{sensitive}): mean has wrong length")
        if cov.ndim == 1:
            if cov.shape != (spec.num_features,) or np.any(cov < 0):
                raise ValueError(f"cell ({label},{sensitive}): bad diagonal covariance")
            block = mean + np.sqrt(cov) * rng.standard_normal((cell.count, spec.num_features))
        else:
            block = rng.multivariate_normal(mean, cov, size=cell.count)
        blocks.append(block)
        sens.append(np.full(cell.count, sensitive))
        labs.append(np.full(cell.count, label))

    features = np.vstack(blocks)
    features = np.hstack([features, np.ones((features.shape[0], 1))])
    num_labels = max(k[0] for k in spec.cells) + 1
    num_sensitive = max(k[1] for k in spec.cells) + 1
    return Dataset(
        features=features,
        sensitive=np.concatenate(sens),
        labels=np.concatenate(labs),
        num_labels=num_labels,
        num_sensitive=num_sensitive,
        label_values=tuple(str(v) for v in range(num_labels)),
        sensitive_values=tuple(str(v) for v in range(num_sensitive)),
        feature_names=tuple(f"f{j}" for j in range(spec.num_features)),
    )


def split(
    d: Dataset, fraction: float, seed: int | np.random.SeedSequence | np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Random disjoint (train, test) split; deterministic per seed, which is
    anything ``np.random.default_rng`` accepts.

    ``fraction`` is the train share.  Both parts keep the parent's id
    mappings and appear in the parent's row order.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("split fraction must lie strictly between 0 and 1")
    n_train = int(round(fraction * d.n))
    if n_train == 0 or n_train == d.n:
        raise ValueError(f"fraction {fraction} leaves an empty part for n={d.n}")
    perm = np.random.default_rng(seed).permutation(d.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return d.subset(train_idx), d.subset(test_idx)


def partition(d: Dataset, grouping: str) -> GroupPartition:
    """Group the examples ``by_sensitive`` (K = |S|) or
    ``by_label_and_sensitive`` (K = |Y|*|S|, index = label*|S| + sensitive)."""
    if grouping == "by_sensitive":
        num_groups = d.num_sensitive
        assignment = d.sensitive.copy()
        descriptions = tuple(f"{d.sensitive_col}={v}" for v in d.sensitive_values)
    elif grouping == "by_label_and_sensitive":
        num_groups = d.num_labels * d.num_sensitive
        assignment = d.labels * d.num_sensitive + d.sensitive
        descriptions = tuple(
            f"{d.label_col}={ly},{d.sensitive_col}={sv}"
            for ly in d.label_values
            for sv in d.sensitive_values
        )
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    counts = np.bincount(assignment, minlength=num_groups)
    return GroupPartition(
        num_groups=num_groups,
        assignment=assignment,
        proportions=counts / d.n,
        descriptions=descriptions,
    )


def single_group_partition(d: Dataset) -> GroupPartition:
    """Trivial partition with every example in one group (used for plain
    accuracy bounds)."""
    return GroupPartition(
        num_groups=1,
        assignment=np.zeros(d.n, dtype=np.int64),
        proportions=np.array([1.0]),
        descriptions=("all",),
    )
