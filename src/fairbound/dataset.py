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
import functools
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .exceptions import ConfigError, DataError, EmptyDatasetError, ParseError, SchemaError


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
        by dense id (first-appearance order); ``num_labels`` and
        ``num_sensitive`` count them
    feature_names : CSV column names, one per feature column, excluding
        the intercept
    sensitive_col, label_col : the two role columns' names, distinct from
        each other and from every feature name

    A vocabulary that breaks these rules is a ValueError: :func:`write_csv`
    would write a header that miscounts its rows' cells or names a role twice.
    """

    features: np.ndarray
    sensitive: np.ndarray
    labels: np.ndarray
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
        if len(self.feature_names) != features.shape[1] - 1:
            raise ValueError(f"{len(self.feature_names)} feature names for "
                             f"{features.shape[1] - 1} feature columns")
        roles = (self.sensitive_col, self.label_col)
        if roles[0] == roles[1] or set(roles) & set(self.feature_names):
            raise ValueError(f"the sensitive column {roles[0]!r} and the label column "
                             f"{roles[1]!r} must differ from each other and from the "
                             f"feature columns {self.feature_names}")
        for arr in (features, sensitive, labels):
            arr.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "sensitive", sensitive)
        object.__setattr__(self, "labels", labels)

    @property
    def num_labels(self) -> int:
        return len(self.label_values)

    @property
    def num_sensitive(self) -> int:
        return len(self.sensitive_values)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        """Feature dimension, intercept included."""
        return self.features.shape[1]

    @functools.cached_property
    def feature_norm_bound(self) -> float:
        """Largest Euclidean row norm, max_i ||x_i||_2, computed once.  A row
        whose norm overflows float64 is a DataError naming the first one."""
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.features, axis=1)
        row = int(np.argmax(norms))
        if norms[row] == math.inf:
            raise DataError(f"data row {row} (0-based) has a feature norm that overflows float64")
        return float(norms[row])

    @property
    def cells(self) -> np.ndarray:
        """(n,) (label, sensitive) cell ids, label * num_sensitive + sensitive."""
        return self.labels * self.num_sensitive + self.sensitive

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
    """Disjoint cover of a dataset's examples by K = ``len(descriptions)``
    groups: ``assignment[i]`` is the group of example i.

    The group ``sizes`` (example counts) and ``proportions`` (sizes / n)
    are computed once, when the partition is built; every layer reads its
    group sizes here.  Both are 0 for an empty group, and for every group
    of an empty assignment.  The bound layer accepts any partition; scoring
    (``fairness``) needs each group to be a union of (label, sensitive)
    cells."""

    assignment: np.ndarray
    descriptions: tuple[str, ...]
    sizes: np.ndarray = field(init=False, repr=False)
    proportions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.size and (assignment.min() < 0 or assignment.max() >= self.num_groups):
            raise ValueError("group assignment out of range")
        sizes = np.bincount(assignment, minlength=self.num_groups)
        proportions = sizes / max(assignment.size, 1)
        for name, arr in (("assignment", assignment), ("sizes", sizes),
                          ("proportions", proportions)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_groups(self) -> int:
        return len(self.descriptions)


_CACHE_DIR = "__fairbound_cache__"
# part of every cache key: change it whenever the parse rules or the entry
# layout change, so that no entry written under the old ones is ever a hit
_CACHE_FORMAT = "fairbound-load-csv-4"
_KEY_BYTES = 32  # a SHA-256 digest
_ALIGN = 64  # the arrays of an entry start at a multiple of this many bytes


def load_csv(path: str, sensitive_col: str, label_col: str) -> Dataset:
    """Load a UTF-8 comma-separated file with a mandatory header row.  A
    leading UTF-8 byte-order mark, as spreadsheet programs write it, is
    skipped, so it never becomes part of the first column's name.

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
    ``<directory of path>/__fairbound_cache__/<file name>.bin``, keyed by
    SHA-256 over a cache-format tag, both role names and those bytes (the
    hash-checked ``.pyc`` design of PEP 552).  The entry is one raw
    buffer: the 32-byte key, an 8-byte little-endian header length, an
    ASCII JSON header holding the three vocabularies, ``n`` and ``p``,
    zero padding to a multiple of 64 bytes, then the features as ``<f8``
    in row-major order and the sensitive ids and the labels, each as
    ``<i8``.  A later load of the same bytes with the same roles reads
    that entry in one call and views its arrays in place, instead of
    parsing; any change to the content or the roles is a miss, whatever
    the file's size or modification time.  An entry that cannot be read or
    does not match is a miss and is rewritten; a file that fails to parse
    is never cached; writing is skipped when the directory cannot be
    written.  The cache never changes a result, so deleting the directory
    is always safe.
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
    entry = os.path.join(os.path.dirname(path), _CACHE_DIR, os.path.basename(path) + ".bin")
    d = _read_entry(entry, key, sensitive_col, label_col)
    if d is None:
        d = _parse_csv(path, raw, sensitive_col, label_col)
        _write_entry(entry, key, d, stat.S_IMODE(mode))
    return d


def _data_start(header_size: int) -> int:
    """Offset of an entry's arrays: past the key, the header length and a
    header of ``header_size`` bytes, rounded up to a multiple of ``_ALIGN``."""
    return -(-(_KEY_BYTES + 8 + header_size) // _ALIGN) * _ALIGN


def _read_entry(entry: str, key: bytes, sensitive_col: str, label_col: str) -> Dataset | None:
    """The dataset cached in ``entry`` under ``key``, or None on a miss.

    The arrays are read-only views of the one buffer read from the file.
    An entry whose length differs from what its header describes, or whose
    header is not JSON with the expected fields, is a miss; so is one that
    ``Dataset`` rejects, including a header that gives no rows
    (``EmptyDatasetError``, a ``DataError``)."""
    try:
        with open(entry, "rb") as fh:
            buf = fh.read()
        if buf[:_KEY_BYTES] != key:
            return None
        size = int.from_bytes(buf[_KEY_BYTES:_KEY_BYTES + 8], "little")
        header = json.loads(buf[_KEY_BYTES + 8:_KEY_BYTES + 8 + size])
        n, p = header["n"], header["p"]
        start = _data_start(size)
        if len(buf) != start + 8 * n * (p + 2):
            return None
        return Dataset(
            features=np.frombuffer(buf, "<f8", n * p, start).reshape(n, p),
            sensitive=np.frombuffer(buf, "<i8", n, start + 8 * n * p),
            labels=np.frombuffer(buf, "<i8", n, start + 8 * n * (p + 1)),
            label_values=tuple(header["label_values"]),
            sensitive_values=tuple(header["sensitive_values"]),
            feature_names=tuple(header["feature_names"]),
            sensitive_col=sensitive_col,
            label_col=label_col,
        )
    except (OSError, ValueError, KeyError, TypeError, DataError):
        return None


def _write_entry(entry: str, key: bytes, d: Dataset, mode: int) -> None:
    """Best effort: store ``d`` in ``entry`` under ``key``, in the layout
    :func:`load_csv` describes, through a unique temporary file and an
    atomic rename, so that a concurrent reader sees the old entry or the
    new one, never a partial one.  The entry gets the read and write bits
    of the CSV's permission ``mode``, as a ``.pyc`` gets its source's, so
    whoever may read the CSV may read its entry."""
    header = json.dumps({
        "label_values": d.label_values,
        "sensitive_values": d.sensitive_values,
        "feature_names": d.feature_names,
        "n": d.n,
        "p": d.p,
    }).encode("ascii")
    prefix = key + len(header).to_bytes(8, "little") + header
    directory, name = os.path.split(entry)
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory)
        with os.fdopen(fd, "wb") as fh:
            fh.write(prefix.ljust(_data_start(len(header)), b"\0"))
            for arr, dtype in ((d.features, "<f8"), (d.sensitive, "<i8"), (d.labels, "<i8")):
                fh.write(np.asarray(arr, dtype).tobytes())
        os.chmod(tmp, mode & 0o666)
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _parse_csv(path: str, raw: bytes, sensitive_col: str, label_col: str) -> Dataset:
    """The dataset in ``raw``, the bytes of the file at ``path``, which
    only names the file in error messages."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as fh:
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
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", errors="replace",
                          newline="") as fh:
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
    line, with each CR and LF in it written as the two characters ``\\r``
    and ``\\n``, the ``columns`` header, then one record per row with every
    cell in :func:`format_value` form.  Records end in LF; a field that
    holds a comma, a double quote, a CR or an LF is quoted (RFC 4180), and
    every other field is written as it is.  Every output CSV is written
    here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in preamble:
            fh.write("# " + line.replace("\r", "\\r").replace("\n", "\\n") + "\n")
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
    cell order.  Every rule on a spec's values is checked here, as a
    ConfigError: at least one feature; nonnegative cell ids and counts; a
    mean of ``num_features`` finite values; a covariance of
    ``num_features`` finite, nonnegative diagonal variances, or a full
    matrix that NumPy's ``multivariate_normal(check_valid="raise")``
    accepts as symmetric positive semi-definite.  Counts of zero are
    allowed (the cell simply contributes no rows); a zero total raises
    EmptyDatasetError.
    """
    p = spec.num_features
    if p < 1:
        raise ConfigError(f"a synthetic spec needs at least one feature, got {p}")
    cells = sorted(spec.cells.items())
    for key, cell in cells:
        if min(key) < 0 or cell.count < 0:
            raise ConfigError(f"cell {key}: ids and count must be nonnegative, "
                              f"got count {cell.count}")
        if np.shape(cell.mean) != (p,) or not np.all(np.isfinite(cell.mean)):
            raise ConfigError(f"cell {key}: mean needs {p} finite values")
        if np.shape(cell.cov) not in ((p,), (p, p)):
            raise ConfigError(f"cell {key}: cov needs {p} diagonal or {p * p} full-matrix values")
        if np.ndim(cell.cov) == 1 and not all(0 <= v < math.inf for v in cell.cov):
            raise ConfigError(f"cell {key}: diagonal variances must be finite and nonnegative")
    counts = [cell.count for _, cell in cells]
    if sum(counts) == 0:
        raise EmptyDatasetError("synthetic spec has zero total count")

    rng = np.random.default_rng(seed)
    blocks = []
    for key, cell in cells:  # a zero count draws no numbers from the stream
        if np.ndim(cell.cov) == 1:
            blocks.append(cell.mean + np.sqrt(cell.cov) * rng.standard_normal((cell.count, p)))
            continue
        try:
            blocks.append(rng.multivariate_normal(cell.mean, cell.cov, size=cell.count,
                                                  check_valid="raise"))
        except ValueError as exc:  # LinAlgError too
            raise ConfigError(f"cell {key}: bad full covariance: {exc}")
    return Dataset(
        features=np.hstack([np.vstack(blocks), np.ones((sum(counts), 1))]),
        sensitive=np.repeat([key[1] for key, _ in cells], counts),
        labels=np.repeat([key[0] for key, _ in cells], counts),
        label_values=tuple(str(v) for v in range(max(key[0] for key, _ in cells) + 1)),
        sensitive_values=tuple(str(v) for v in range(max(key[1] for key, _ in cells) + 1)),
        feature_names=tuple(f"f{j}" for j in range(p)),
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
        return GroupPartition(
            d.sensitive, tuple(f"{d.sensitive_col}={v}" for v in d.sensitive_values)
        )
    if grouping == "by_label_and_sensitive":
        return GroupPartition(d.cells, tuple(
            f"{d.label_col}={ly},{d.sensitive_col}={sv}"
            for ly in d.label_values
            for sv in d.sensitive_values
        ))
    raise ValueError(f"unknown grouping {grouping!r}")


def single_group_partition(d: Dataset) -> GroupPartition:
    """Trivial partition with every example in one group (used for plain
    accuracy bounds)."""
    return GroupPartition(np.zeros(d.n, dtype=np.int64), ("all",))
