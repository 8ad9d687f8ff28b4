import csv
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairbound.dataset as dataset_module
from fairbound.dataset import (
    CellSpec,
    Dataset,
    GroupPartition,
    SyntheticSpec,
    load_csv,
    partition,
    split,
    synthesize,
    write_csv,
    write_rows,
)
from fairbound.exceptions import ConfigError, DataError, EmptyDatasetError, ParseError, SchemaError
from fairbound.model import LinearModel, predict_many

from conftest import group_accuracies, make_dataset, random_dataset, two_blob_spec


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_load_csv(path: str, sensitive_col: str, label_col: str) -> Dataset:
    """The csv.reader + float() loader that ``load_csv`` replaced, kept
    verbatim as an oracle: one Python ``float()`` per cell and a
    ``list.index`` id lookup per value."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file is empty")
        if sensitive_col not in header:
            raise SchemaError(f"{path}: no column named {sensitive_col!r} for the sensitive role")
        if label_col not in header:
            raise SchemaError(f"{path}: no column named {label_col!r} for the label role")
        if sensitive_col == label_col:
            raise SchemaError("sensitive and label roles must name distinct columns")
        s_idx = header.index(sensitive_col)
        y_idx = header.index(label_col)
        feat_idx = [j for j in range(len(header)) if j not in (s_idx, y_idx)]
        feature_names = tuple(header[j] for j in feat_idx)

        rows: list[list[float]] = []
        sens_raw: list[str] = []
        lab_raw: list[str] = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
            try:
                rows.append([float(row[j]) for j in feat_idx])
            except ValueError as exc:
                raise ParseError(f"{path}: row {row_num}: non-numeric feature cell ({exc})")
            sens_raw.append(row[s_idx])
            lab_raw.append(row[y_idx])

    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")

    sens_values: list[str] = []
    lab_values: list[str] = []
    sens_ids = [_dense_id(v, sens_values) for v in sens_raw]
    lab_ids = [_dense_id(v, lab_values) for v in lab_raw]

    features = np.asarray(rows, dtype=np.float64)
    features = np.hstack([features, np.ones((features.shape[0], 1))])
    return Dataset(
        features=features,
        sensitive=np.asarray(sens_ids),
        labels=np.asarray(lab_ids),
        label_values=tuple(lab_values),
        sensitive_values=tuple(sens_values),
        feature_names=feature_names,
        sensitive_col=sensitive_col,
        label_col=label_col,
    )


def _dense_id(value: str, seen: list[str]) -> int:
    try:
        return seen.index(value)
    except ValueError:
        seen.append(value)
        return len(seen) - 1


def assert_same_dataset(got: Dataset, want: Dataset):
    assert got.features.shape == want.features.shape
    for field in ("features", "sensitive", "labels"):
        assert getattr(got, field).dtype == getattr(want, field).dtype
    assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))
    assert np.array_equal(got.sensitive, want.sensitive)
    assert np.array_equal(got.labels, want.labels)
    assert got.sensitive_values == want.sensitive_values
    assert got.label_values == want.label_values
    assert got.feature_names == want.feature_names
    assert (got.num_sensitive, got.num_labels) == (want.num_sensitive, want.num_labels)
    assert (got.sensitive_col, got.label_col) == (want.sensitive_col, want.label_col)


def _row_of(exc: Exception) -> str | None:
    found = re.search(r"row \d+", str(exc))
    return found.group(0) if found else None


def _outcome(loader, path: str):
    """The dataset ``loader`` returns, or the class and ``row N`` of the
    data error it raises."""
    try:
        return loader(path, "s", "y")
    except DataError as exc:
        return type(exc), _row_of(exc)


def _quote(cell: str, force: bool) -> str:
    if force or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.floats(min_value=0.0, max_value=1e-307, allow_subnormal=True).map(lambda v: repr(-v)),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0.0", "0", "+1e5", ".5", "5.", "1E-3", "-.0e+0", "00012.50"]),
)
_PADDING = st.sampled_from(["", " ", "  ", "\t", " \t", "\u00a0", "\u3000"])
_CATEGORY = st.text(alphabet='ab,"\n\r xé', max_size=4)
_BAD_CELL = st.sampled_from(["abc", "", "1 2", "0x10", "1e", "--1", "1.2.3", "e5"])


@st.composite
def csv_files(draw):
    """Text of a CSV file with feature columns and the roles ``s`` and
    ``y`` in a random order, and the encoding choices the loader must
    treat exactly like csv.reader + float(): quoting, CR / LF / CRLF line
    ends, blank lines, padded and 17-digit numbers, subnormals, -0.0, and
    categories holding commas, quotes and newlines.  Some files carry a
    ragged row, a whitespace-only line or a non-numeric feature cell."""
    num_features = draw(st.integers(0, 3))
    header = [f"f{j}" for j in range(num_features)] + ["s", "y"]
    header = draw(st.permutations(header))
    quote_all = draw(st.booleans())
    newline = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [",".join(_quote(h, quote_all) for h in header)]
    for _ in range(draw(st.integers(0, 6))):
        cells = []
        for name in header:
            if name in ("s", "y"):
                cells.append(_quote(draw(_CATEGORY), quote_all or draw(st.booleans())))
            else:
                number = draw(_PADDING) + draw(_NUMBER) + draw(_PADDING)
                cells.append(_quote(number, draw(st.booleans())))
        fault = draw(st.sampled_from(["none"] * 12 + ["ragged", "blank", "space", "bad"]))
        if fault == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        elif fault == "bad" and num_features:
            j = draw(st.sampled_from([k for k, h in enumerate(header) if h not in ("s", "y")]))
            cells[j] = draw(_BAD_CELL)
        if fault == "blank":
            lines.append("")
        elif fault == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        lines.append(",".join(cells))
    text = "".join(line + draw(newline) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


class TestLoadCsv:
    def test_basic_construction(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,f2,s,y", "1.0,2.0,a,0", "0.5,-1.0,b,1", "2.0,0.0,a,0"])
        d = load_csv(str(f), sensitive_col="s", label_col="y")
        assert d.n == 3
        assert d.p == 3  # two features + intercept
        assert d.num_labels == 2 and d.num_sensitive == 2

    def test_first_row_mapping(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,f2,s,y", "1.0,2.0,a,0", "0.5,-1.0,b,1"])
        d = load_csv(str(f), sensitive_col="s", label_col="y")
        ex = d.example(0)
        assert np.array_equal(ex.features, [1.0, 2.0, 1.0])
        assert ex.sensitive == 0 and ex.label == 0

    def test_feature_norm_bound(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,f2,s,y", "3.0,4.0,a,0", "0.0,0.0,b,1"])
        d = load_csv(str(f), sensitive_col="s", label_col="y")
        assert d.feature_norm_bound == pytest.approx(math.sqrt(26.0), rel=1e-15)

    def test_overflowing_feature_norm_is_data_error(self, tmp_path):
        # every cell is finite, but the squared norms of rows 1 and 2
        # overflow; the bound once read inf, with a RuntimeWarning
        f = tmp_path / "d.csv"
        write_lines(f, ["f0,s,y", "1,0,0", "1e160,1,1", "-2e160,0,1", "2,1,0"])
        d = load_csv(str(f), sensitive_col="s", label_col="y")
        with pytest.raises(DataError, match=r"^data row 1 \(0-based\) has a feature norm"):
            d.feature_norm_bound
        assert d.subset(np.array([0, 3])).feature_norm_bound == pytest.approx(math.sqrt(5.0))

    def test_missing_role_is_schema_error(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,f2,s,y", "1,2,a,0"])
        with pytest.raises(SchemaError):
            load_csv(str(f), sensitive_col="nope", label_col="y")

    @pytest.mark.parametrize("header, role", [("f0,f1,f0,y", "sensitive"), ("y,s,f1,y", "label")])
    def test_repeated_role_column_is_schema_error(self, tmp_path, header, role):
        # the first column of the name took the role, and the second became
        # a feature: a sensitive role of float strings, one group per row
        f = tmp_path / "d.csv"
        write_lines(f, [header, "0.5,1.5,2.5,0", "1.5,0.5,3.5,1"])
        for _ in range(2):  # the second load must not read a cache entry
            with pytest.raises(SchemaError, match=f"2 columns are named .* the {role} role"):
                load_csv(str(f), sensitive_col="f0" if role == "sensitive" else "s",
                         label_col="y")
        assert not (tmp_path / dataset_module._CACHE_DIR).exists()

    def test_non_numeric_feature_reports_row(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,s,y", "1.0,a,0", "oops,b,1"])
        with pytest.raises(ParseError, match="row 3"):
            load_csv(str(f), sensitive_col="s", label_col="y")

    def test_empty_file_and_header_only(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("", encoding="utf-8")
        with pytest.raises(EmptyDatasetError):
            load_csv(str(f), sensitive_col="s", label_col="y")
        write_lines(f, ["f1,s,y"])
        with pytest.raises(EmptyDatasetError):
            load_csv(str(f), sensitive_col="s", label_col="y")

    def test_round_trip_full_precision(self, tmp_path, rng):
        d = random_dataset(rng, 37)
        f = tmp_path / "out.csv"
        write_csv(d, str(f))
        d2 = load_csv(str(f), sensitive_col="s", label_col="y")
        assert np.array_equal(d.features, d2.features)
        assert np.array_equal(d.sensitive, d2.sensitive)
        assert np.array_equal(d.labels, d2.labels)
        assert d.label_values == d2.label_values
        assert d.sensitive_values == d2.sensitive_values


class TestWriteRows:
    def test_plain_fields_are_written_as_they_are(self, tmp_path):
        f = tmp_path / "r.csv"
        write_rows(str(f), ["a", "b", "c"], [[0.1, 2, np.float64(1e-300)], ["x y", "", math.inf]],
                   preamble=["note=1", "seed=7"])
        assert f.read_bytes() == b"# note=1\n# seed=7\na,b,c\n0.1,2,1e-300\nx y,,inf\n"

    def test_special_fields_read_back_intact(self, tmp_path):
        cells = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\nend", "plain"]
        f = tmp_path / "r.csv"
        write_rows(str(f), cells, [cells, list(reversed(cells))])
        with open(f, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == [cells, cells, list(reversed(cells))]
        assert f.read_bytes().endswith(
            b'plain,"crlf\r\nend","cr\rhere","two\nlines","say ""hi""","a,b"\n')


    def test_line_breaks_in_a_preamble_line_are_escaped(self, tmp_path):
        # a CR or LF inside a preamble line started a bare, uncommented line
        f = tmp_path / "r.csv"
        write_rows(str(f), ["a", "b"], [[1, 2]], preamble=["data=x\nb.csv", "model=m\rn", "seed=7"])
        assert f.read_bytes() == b"# data=x\\nb.csv\n# model=m\\rn\n# seed=7\na,b\n1,2\n"


class TestLoadCsvMatchesReference:
    """``load_csv`` against the csv.reader + float() oracle: the same
    dataset bit for bit on every file the oracle accepts, and the same
    error class and row on every file it rejects."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(text=csv_files())
    def test_generated_files(self, tmp_path_factory, text):
        """Each file is loaded twice, through a cold parse cache and then
        a warm one."""
        f = tmp_path_factory.mktemp("gen") / "d.csv"
        f.write_text(text, encoding="utf-8", newline="")
        want = _outcome(reference_load_csv, str(f))
        for _ in ("cold", "warm"):
            got = _outcome(load_csv, str(f))
            if isinstance(want, Dataset):
                assert isinstance(got, Dataset), got
                assert_same_dataset(got, want)
            else:
                assert got == want

    def test_cli_shaped_file(self, tmp_path, rng):
        d = random_dataset(rng, 300, p=5, num_labels=4, num_sensitive=3)
        f = tmp_path / "d.csv"
        write_csv(d, str(f))
        assert_same_dataset(load_csv(str(f), "s", "y"), reference_load_csv(str(f), "s", "y"))

    @pytest.mark.parametrize(
        "lines, row",
        [
            (["f1,s,y", "1.0,a,0", "", "", "2.0,b"], "row 5"),
            (["f1,s,y", "1.0,a,0", "oops,b,1", "2.0,b"], "row 3"),
            (["f1,s,y", "1.0,a,0", "2.0,b", "oops,b,1"], "row 3"),
            (["f1,s,y", '1.0,"a', 'b",0', " ", "2.0,b,1"], "row 3"),
        ],
        ids=["ragged_after_blank_lines", "bad_cell_before_ragged", "ragged_before_bad_cell",
             "whitespace_line_after_quoted_newline"],
    )
    def test_first_bad_row_in_file_order(self, tmp_path, lines, row):
        f = tmp_path / "d.csv"
        write_lines(f, lines)
        with pytest.raises(ParseError, match=row + r"\b"):
            reference_load_csv(str(f), "s", "y")
        with pytest.raises(ParseError, match=row + r"\b"):
            load_csv(str(f), "s", "y")

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "2.\uff15"],
                             ids=["underscore", "arabic_indic_digit", "fullwidth_digit"])
    def test_float_only_forms_are_rejected(self, tmp_path, cell):
        """Python's float() accepts these; a feature cell must be ASCII
        inside its padding and carry no digit-group underscores."""
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,s,y", "1.0,a,0", f"{cell},b,1", "2.0,b"])
        with pytest.raises(ParseError, match=r"row 4\b"):
            reference_load_csv(str(f), "s", "y")  # float() takes row 3
        with pytest.raises(ParseError, match=r"row 3\b.*ASCII"):
            load_csv(str(f), "s", "y")

    def test_unicode_whitespace_padding_is_accepted(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,s,y", "\u00a01.5\u2003,a,0", "\x0b-2e3\u3000,b,1"])
        assert_same_dataset(load_csv(str(f), "s", "y"), reference_load_csv(str(f), "s", "y"))

    def test_separator_control_padding_is_accepted(self, tmp_path):
        """U+001C..U+001F are whitespace to str.isspace and loadtxt but not
        to float(): the one form accepted now that was rejected before."""
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,s,y", "\x1c1.5\x1f,a,0", "oops,b,1"])
        with pytest.raises(ParseError, match=r"row 2\b"):
            reference_load_csv(str(f), "s", "y")
        with pytest.raises(ParseError, match=r"row 3\b"):
            load_csv(str(f), "s", "y")
        write_lines(f, ["f1,s,y", "\x1c1.5\x1f,a,0"])
        assert load_csv(str(f), "s", "y").features[0, 0] == 1.5

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_reports_row(self, tmp_path, cell):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,f2,s,y", "1.0,2.0,a,0", f"0.5,{cell},b,1"])
        with pytest.raises(ParseError, match=r"row 3\b.*non-finite"):
            load_csv(str(f), "s", "y")

    def test_non_utf8_is_data_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"f1,s,y\n1.0,a,0\n2.0,\xff,1\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(str(f), "s", "y")

    def test_blank_lines_only_is_empty(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,s,y\r\n\r\n\n", encoding="utf-8", newline="")
        with pytest.raises(EmptyDatasetError):
            load_csv(str(f), "s", "y")


def _entry(path) -> str:
    """Where ``load_csv`` caches the dataset parsed from ``path``."""
    return os.path.join(os.path.dirname(path), "__fairbound_cache__", os.path.basename(path) + ".bin")


def forbid_parsing(monkeypatch) -> None:
    """Make every later load that parses, instead of reading its cache
    entry, fail."""

    def refuse(*args):
        raise AssertionError("parsed instead of reading the cache entry")

    monkeypatch.setattr(dataset_module, "_parse_csv", refuse)


def _load_repeatedly(path: str, worker: int, start) -> None:
    """Stress-test worker: ten loads of ``path`` once all workers are ready.
    The role order alternates, so most loads miss and rewrite the entry
    that the other workers are reading."""
    orders = [("s", "y"), ("y", "s")]
    want = {roles: reference_load_csv(path, *roles) for roles in orders}
    start.wait(timeout=60)
    for k in range(10):
        roles = orders[(worker + k) % 2]
        assert_same_dataset(load_csv(path, *roles), want[roles])


class TestParseCache:
    """The content-addressed parse cache of ``load_csv``: a warm load gives
    exactly what a cold one gives, and any change to the bytes or the roles
    is a miss."""

    def test_warm_load_reads_the_entry(self, tmp_path, rng, monkeypatch):
        f = str(tmp_path / "d.csv")
        write_csv(random_dataset(rng, 50, p=4, num_labels=3), f)
        want = reference_load_csv(f, "s", "y")
        assert_same_dataset(load_csv(f, "s", "y"), want)
        assert os.listdir(tmp_path / "__fairbound_cache__") == ["d.csv.bin"]
        forbid_parsing(monkeypatch)
        assert_same_dataset(load_csv(f, "s", "y"), want)

    def test_categories_and_header_names_round_trip(self, tmp_path, monkeypatch):
        """NumPy ``U`` arrays drop trailing NULs; the entry must not."""
        f = tmp_path / "d.csv"
        f.write_text(
            "größe,特征 ,s,y\n1.0,2,a\x00,é\n2.0,3,,a\x00\n3.0,4,c ,x\n4.0,5,é,\n",
            encoding="utf-8",
        )
        cold = load_csv(str(f), "s", "y")
        assert cold.sensitive_values == ("a\x00", "", "c ", "é")
        assert cold.label_values == ("é", "a\x00", "x", "")
        assert cold.feature_names == ("größe", "特征 ")
        forbid_parsing(monkeypatch)
        assert_same_dataset(load_csv(str(f), "s", "y"), cold)

    def test_non_ascii_role_names(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,gruppe€,étiquette", "1.0,a,0", "2.0,b,1"])
        for _ in ("cold", "warm"):
            d = load_csv(str(f), "gruppe€", "étiquette")
            assert (d.sensitive_col, d.label_col) == ("gruppe€", "étiquette")
            assert d.sensitive_values == ("a", "b")

    @pytest.mark.parametrize("old_format", [1, 2])
    def test_entry_of_the_first_format_is_not_read(self, tmp_path, rng, old_format):
        # format 1 parsed a header that repeats a role's column name, so its
        # entry for this file holds a dataset that the current rules reject;
        # format 2 kept its entries as .npz files, one array per member
        f = tmp_path / "d.csv"
        write_lines(f, ["f0,f1,f0,y", "0.5,1.5,2.5,0", "1.5,0.5,3.5,1"])
        tag = json.dumps([f"fairbound-load-csv-{old_format}", "f0", "y"]).encode("ascii")
        key = hashlib.sha256(tag + f.read_bytes()).digest()
        d = random_dataset(rng, 5)
        if old_format == 1:
            entry = Path(_entry(str(f)))
            dataset_module._write_entry(str(entry), key, d, 0o644)
        else:
            entry = tmp_path / "__fairbound_cache__" / "d.csv.npz"
            entry.parent.mkdir()
            names = json.dumps({"label_values": d.label_values, "sensitive_values":
                                d.sensitive_values, "feature_names": d.feature_names})
            np.savez(entry, key=np.frombuffer(key, np.uint8),
                     names=np.frombuffer(names.encode("ascii"), np.uint8),
                     features=d.features, sensitive=d.sensitive, labels=d.labels)
        assert entry.exists()
        with pytest.raises(SchemaError, match="2 columns are named 'f0'"):
            load_csv(str(f), "f0", "y")

    def test_roles_are_part_of_the_key(self, tmp_path):
        f = str(tmp_path / "d.csv")
        write_lines(tmp_path / "d.csv", ["f1,s,y", "1.0,a,0", "2.0,b,1", "3.0,b,2"])
        for roles in [("s", "y"), ("y", "s"), ("s", "y")]:
            assert_same_dataset(load_csv(f, *roles), reference_load_csv(f, *roles))

    def test_same_size_rewrite_with_old_mtime_is_a_miss(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,s,y", "1.0,a,0", "2.0,b,1"])
        assert load_csv(str(f), "s", "y").features[:, 0].tolist() == [1.0, 2.0]
        before = os.stat(f)
        write_lines(f, ["f1,s,y", "3.0,a,0", "4.0,b,1"])
        os.utime(f, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(f)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert load_csv(str(f), "s", "y").features[:, 0].tolist() == [3.0, 4.0]

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "npy_array",
                                        "extended", "zero_rows", "bad_header"])
    def test_damaged_entry_is_a_miss_and_is_rewritten(self, tmp_path, rng, damage, monkeypatch):
        f = str(tmp_path / "d.csv")
        write_csv(random_dataset(rng, 40), f)
        want = reference_load_csv(f, "s", "y")
        load_csv(f, "s", "y")
        entry = _entry(f)
        good = Path(entry).read_bytes()
        key, size = good[:32], int.from_bytes(good[32:40], "little")
        if damage == "truncated":
            bad = good[: len(good) // 2]
        elif damage == "garbage":
            bad = b"not a cache entry\n" * 10
        elif damage == "empty":
            bad = b""
        elif damage == "npy_array":
            buf = io.BytesIO()
            np.save(buf, np.arange(3), allow_pickle=False)
            bad = buf.getvalue()
        elif damage == "extended":  # the right key and header, 8 bytes too many
            bad = good + bytes(8)
        else:  # the right key, then a header giving 0 rows and no data, or one not JSON
            header = json.loads(good[40:40 + size])
            header["n"] = 0
            header = (json.dumps(header).encode("ascii") if damage == "zero_rows"
                      else b"{" * size)
            bad = (key + len(header).to_bytes(8, "little") + header).ljust(
                dataset_module._data_start(len(header)), b"\0")
        Path(entry).write_bytes(bad)
        assert_same_dataset(load_csv(f, "s", "y"), want)
        assert Path(entry).read_bytes() != bad
        forbid_parsing(monkeypatch)
        assert_same_dataset(load_csv(f, "s", "y"), want)

    def test_entry_takes_the_csv_permission_bits(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,s,y", "1.0,a,0"])
        os.chmod(f, 0o640)
        load_csv(str(f), "s", "y")
        assert os.stat(_entry(str(f))).st_mode & 0o777 == 0o640

    def test_regular_file_at_the_cache_directory_name(self, tmp_path, rng):
        f = str(tmp_path / "d.csv")
        write_csv(random_dataset(rng, 20), f)
        blocker = tmp_path / "__fairbound_cache__"
        blocker.write_bytes(b"not a directory")
        want = reference_load_csv(f, "s", "y")
        for _ in ("cold", "warm"):
            assert_same_dataset(load_csv(f, "s", "y"), want)
        assert blocker.read_bytes() == b"not a directory"

    def test_malformed_file_is_never_cached(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,s,y", "1.0,a,0", "oops,b,1"])
        messages = []
        for _ in ("first", "second"):
            with pytest.raises(ParseError, match=r"row 3\b") as info:
                load_csv(str(f), "s", "y")
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert not (tmp_path / "__fairbound_cache__").exists()

    def test_bad_row_is_found_in_the_parsed_bytes(self, tmp_path, monkeypatch):
        """The error names the first bad row of the bytes that were parsed,
        without opening the file a second time."""
        f = tmp_path / "d.csv"
        write_lines(f, ["f1,s,y", "1.0,a,0", "2.0,b", "oops,b,1"])
        opened = []
        real_open = open

        def recording_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        with pytest.raises(ParseError, match=r"row 3 has 2 cells"):
            load_csv(str(f), "s", "y")
        assert opened.count(str(f)) == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_not_cached(self, tmp_path):
        f = tmp_path / "d.csv"
        os.mkfifo(f)
        writer = threading.Thread(target=f.write_text, args=("f1,s,y\n1.0,a,0\n",), daemon=True)
        writer.start()
        d = load_csv(str(f), "s", "y")
        writer.join(timeout=10)
        assert d.n == 1 and not writer.is_alive()
        assert not (tmp_path / "__fairbound_cache__").exists()

    def test_concurrent_processes_share_one_entry(self, tmp_path, rng):
        """Four processes, more than a 2-core machine has cores, race on one
        entry from a cold cache; every load is exact and no temporary file
        is left behind."""
        f = str(tmp_path / "d.csv")
        write_csv(random_dataset(rng, 3000, p=5, num_labels=3, num_sensitive=2), f)
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(4)
        workers = [ctx.Process(target=_load_repeatedly, args=(f, i, start)) for i in range(4)]
        for w in workers:
            w.start()
        try:
            for w in workers:
                w.join(timeout=120)
                assert not w.is_alive()
                assert w.exitcode == 0
        finally:
            for w in workers:
                if w.is_alive():
                    w.kill()
                    w.join()
        assert os.listdir(tmp_path / "__fairbound_cache__") == ["d.csv.bin"]


class TestSynthesize:
    def test_deterministic_and_exact_counts(self):
        spec = two_blob_spec(per_cell=5)
        d1 = synthesize(spec, seed=7)
        d2 = synthesize(spec, seed=7)
        assert d1.n == 20
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)

    def test_zero_count_cell_gives_zero_proportion(self):
        cells = dict(two_blob_spec(per_cell=5).cells)
        cells[(1, 1)] = CellSpec(count=0, mean=np.zeros(2), cov=np.ones(2))
        d = synthesize(SyntheticSpec(2, cells), seed=1)
        part = partition(d, "by_label_and_sensitive")
        assert part.proportions[1 * 2 + 1] == 0.0

    def test_zero_total_is_empty_dataset_error(self):
        cells = {(0, 0): CellSpec(count=0, mean=np.zeros(2), cov=np.ones(2))}
        with pytest.raises(EmptyDatasetError):
            synthesize(SyntheticSpec(2, cells), seed=1)

    def test_intercept_appended(self):
        d = synthesize(two_blob_spec(per_cell=3), seed=0)
        assert np.all(d.features[:, -1] == 1.0)

    def test_zero_count_cells_leave_the_draws_unchanged(self):
        # a zero-count cell draws nothing from the stream, whatever its form
        spec = two_blob_spec(per_cell=4)
        cells = {**spec.cells,
                 (0, 2): CellSpec(0, np.ones(2), np.eye(2)),
                 (1, 2): CellSpec(0, np.ones(2), np.ones(2))}
        d, d_zero = synthesize(spec, seed=9), synthesize(SyntheticSpec(2, cells), seed=9)
        assert np.array_equal(d.features, d_zero.features)
        assert np.array_equal(d.sensitive, d_zero.sensitive)
        assert d_zero.sensitive_values == ("0", "1", "2")

    @pytest.mark.parametrize("cell, message", [
        (CellSpec(-1, np.zeros(2), np.ones(2)), "nonnegative"),
        (CellSpec(3, np.array([math.nan, 0.0]), np.ones(2)), "finite"),
        (CellSpec(3, np.array([math.inf, 0.0]), np.ones(2)), "finite"),
        (CellSpec(3, np.zeros(3), np.ones(2)), "mean needs 2"),
        (CellSpec(3, np.zeros(2), np.array([-1.0, 1.0])), "diagonal variances"),
        (CellSpec(3, np.zeros(2), np.array([math.inf, 1.0])), "diagonal variances"),
        (CellSpec(3, np.zeros(2), np.array([math.nan, 1.0])), "diagonal variances"),
        (CellSpec(3, np.zeros(2), np.ones(3)), "cov needs 2"),
        (CellSpec(3, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]])), "positive-semidefinite"),
        (CellSpec(3, np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]])), "positive-semidefinite"),
        (CellSpec(0, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]])), "positive-semidefinite"),
        (CellSpec(3, np.zeros(2), np.array([[math.nan, 0.0], [0.0, 1.0]])), "full covariance"),
    ], ids=["negative_count", "nan_mean", "inf_mean", "long_mean", "negative_variance",
            "inf_variance", "nan_variance", "long_diagonal", "not_psd", "asymmetric",
            "not_psd_zero_count", "nan_full"])
    def test_bad_cell_is_config_error(self, cell, message):
        # each once raised ValueError or LinAlgError, or drew with a
        # RuntimeWarning, or (a negative count) was an empty-data error
        cells = {(0, 0): cell, (1, 0): CellSpec(1, np.zeros(2), np.ones(2))}
        with pytest.raises(ConfigError, match=message):
            synthesize(SyntheticSpec(2, cells), seed=1)

    @pytest.mark.parametrize("key, features", [((0, -1), 2), ((0, 0), 0)],
                             ids=["negative_id", "no_features"])
    def test_bad_ids_or_width_are_config_errors(self, key, features):
        cells = {key: CellSpec(2, np.zeros(features), np.ones(features))}
        with pytest.raises(ConfigError):
            synthesize(SyntheticSpec(features, cells), seed=1)

    def test_full_covariance_accepted(self):
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        cells = {(0, 0): CellSpec(3, np.zeros(2), cov), (1, 0): CellSpec(3, np.ones(2), cov)}
        d = synthesize(SyntheticSpec(2, cells), seed=5)
        assert d.n == 6


class TestSplit:
    def test_sizes(self, rng):
        d = random_dataset(rng, 10)
        train, test = split(d, 0.9, seed=0)
        assert (train.n, test.n) == (9, 1)

    def test_deterministic(self, rng):
        d = random_dataset(rng, 30)
        a1, b1 = split(d, 0.7, seed=3)
        a2, b2 = split(d, 0.7, seed=3)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)

    def test_disjoint_union(self, rng):
        d = random_dataset(rng, 20)
        train, test = split(d, 0.5, seed=3)
        assert train.n + test.n == 20
        rows = {tuple(r) for r in train.features} | {tuple(r) for r in test.features}
        assert len(rows) == 20  # continuous features: collisions impossible

    def test_bad_fraction(self, rng):
        d = random_dataset(rng, 10)
        for frac in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                split(d, frac, seed=0)


class TestDatasetCounts:
    def test_counts_are_read_off_the_declared_values(self):
        d = Dataset(
            features=np.ones((2, 1)), sensitive=[0, 1], labels=[0, 0],
            label_values=("a", "b", "c"), sensitive_values=("u", "v"), feature_names=(),
        )
        assert (d.num_labels, d.num_sensitive) == (3, 2)
        names = {f.name for f in dataclasses.fields(Dataset)}
        assert not names & {"num_labels", "num_sensitive"}

    @pytest.mark.parametrize("ids", [{"labels": [0, 2]}, {"sensitive": [0, 2]}],
                             ids=["label", "sensitive"])
    def test_id_beyond_the_declared_values_is_value_error(self, ids):
        fields = dict(features=np.ones((2, 1)), sensitive=[0, 1], labels=[0, 1],
                      label_values=("a", "b"), sensitive_values=("u", "v"), feature_names=())
        with pytest.raises(ValueError, match="out of declared range"):
            Dataset(**{**fields, **ids})

    @pytest.mark.parametrize(
        "change",
        [{"feature_names": ("x",)}, {"feature_names": ("x", "y", "z")},
         {"sensitive_col": "y", "label_col": "y"}, {"sensitive_col": "f1"},
         {"label_col": "f0"}],
        ids=["too_few_names", "too_many_names", "same_role_column", "sensitive_is_feature",
             "label_is_feature"],
    )
    def test_inconsistent_vocabulary_is_value_error(self, rng, change):
        # two feature columns named ("x",) wrote a file that load_csv
        # rejected, and roles both named "y" beside a feature "y" wrote the
        # header y,y,y
        d = random_dataset(rng, 10)
        assert d.feature_names == ("f0", "f1")
        with pytest.raises(ValueError, match="feature"):
            dataclasses.replace(d, **change)

    def test_cells_index_label_then_sensitive(self, rng):
        d = random_dataset(rng, 40, num_labels=3, num_sensitive=2)
        assert np.array_equal(d.cells, d.labels * 2 + d.sensitive)
        assert np.array_equal(partition(d, "by_label_and_sensitive").assignment, d.cells)


class TestPartition:
    def test_counts_are_derived_from_the_assignment(self):
        part = GroupPartition(np.array([0, 0, 2, 0]), ("a", "b", "c"))
        assert part.num_groups == 3
        assert part.sizes.dtype == np.int64 and part.sizes.tolist() == [3, 0, 1]
        assert part.proportions.tolist() == [0.75, 0.0, 0.25]
        for arr in (part.assignment, part.sizes, part.proportions):
            assert not arr.flags.writeable
        init = [f.name for f in dataclasses.fields(GroupPartition) if f.init]
        assert init == ["assignment", "descriptions"]

    def test_empty_assignment_has_zero_counts(self):
        part = GroupPartition(np.zeros(0, dtype=np.int64), ("a", "b"))
        assert part.sizes.tolist() == [0, 0]
        assert part.proportions.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("assignment, descriptions",
                             [([0, 1, 3], ("a", "b", "c")), ([0, -1], ("a", "b")),
                              ([0, 1, 2], ("a",))],
                             ids=["beyond", "negative", "one_description"])
    def test_assignment_outside_the_descriptions_is_value_error(self, assignment, descriptions):
        # three groups with one description built, and bound_report then
        # raised IndexError
        with pytest.raises(ValueError, match="out of range"):
            GroupPartition(np.array(assignment), descriptions)

    def test_group_counts(self, rng):
        d = random_dataset(rng, 40)
        assert partition(d, "by_label_and_sensitive").num_groups == 4
        assert partition(d, "by_sensitive").num_groups == 2

    def test_degenerate_single_sensitive(self, rng):
        features = np.hstack([rng.normal(size=(6, 2)), np.ones((6, 1))])
        d = make_dataset(features, [0] * 6, [0, 1, 0, 1, 0, 1])
        part = partition(d, "by_sensitive")
        assert np.array_equal(part.proportions, [1.0, 0.0])

    def test_proportions_sum_to_one(self, rng):
        d = random_dataset(rng, 33)
        for grouping in ("by_sensitive", "by_label_and_sensitive"):
            part = partition(d, grouping)
            assert np.all(part.proportions >= 0)
            assert abs(part.proportions.sum() - 1.0) <= 1e-12

    def test_weighted_conditional_accuracy_is_overall(self, rng):
        d = random_dataset(rng, 50)
        m = LinearModel(rng.normal(size=(2, 3)), 100.0)
        overall = float(np.mean(predict_many(m, d.features) == d.labels))
        for grouping in ("by_sensitive", "by_label_and_sensitive"):
            part = partition(d, grouping)
            values, _ = group_accuracies(m, d, part)
            assert float(part.proportions @ values) == pytest.approx(overall, abs=1e-12)
