"""Dataset synthesis, splitting, and the text serialization format."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltlab import data
from ltlab.data import (
    Dataset,
    FormatError,
    atomic_write,
    exp_profile,
    load_dataset,
    save_dataset,
    split_meta,
    synth_gaussian,
)


# ---------------------------------------------------------------- exp_profile

def test_exp_profile_small_frozen():
    p = exp_profile(5, 100, 100.0)
    assert p.counts.tolist() == [100, 32, 10, 3, 1]


def test_exp_profile_tail_endpoints():
    # published split construction: 490 head samples, tail 49 at ratio 10
    # and tail 2 at ratio 200
    assert exp_profile(100, 490, 10.0).counts[99] == 49
    assert exp_profile(100, 490, 200.0).counts[99] == 2


def test_exp_profile_head_is_n_max():
    p = exp_profile(7, 123, 50.0)
    assert p.counts[0] == 123
    assert p.class_count == 7


def test_exp_profile_balanced_when_ratio_one():
    assert exp_profile(4, 10, 1.0).counts.tolist() == [10, 10, 10, 10]


def test_exp_profile_rejects_bad_args():
    with pytest.raises(ValueError):
        exp_profile(1, 100, 10.0)
    with pytest.raises(ValueError):
        exp_profile(5, 100, 0.5)
    with pytest.raises(ValueError):
        exp_profile(5, 0, 10.0)


@given(
    c=st.integers(2, 40),
    n_max=st.integers(1, 5000),
    imb=st.floats(1.0, 1e4, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_exp_profile_properties(c, n_max, imb):
    p = exp_profile(c, n_max, imb)
    counts = p.counts
    assert counts.shape == (c,)
    assert counts[0] == n_max
    assert (counts >= 1).all()
    assert (np.diff(counts) <= 0).all()  # non-increasing in class index


def test_realized_imbalance_close_to_requested():
    p = exp_profile(10, 2300, 100.0)
    # rounding moves the realized ratio a bit; it must stay within one
    # rounding unit of the request (23 -> ratio 100, 22.5 would be 102)
    assert abs(p.counts.max() / p.counts.min() - 100.0) <= 100.0 / (p.counts[-1] - 0.5) * 0.5 + 5


# -------------------------------------------------------------- synth_gaussian

def test_synth_deterministic():
    p = exp_profile(3, 50, 10.0)
    a = synth_gaussian(p, dim=4, separation=2.0, seed=7)
    b = synth_gaussian(p, dim=4, separation=2.0, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_seed_changes_data():
    p = exp_profile(3, 50, 10.0)
    a = synth_gaussian(p, dim=4, separation=2.0, seed=7)
    b = synth_gaussian(p, dim=4, separation=2.0, seed=8)
    assert not np.array_equal(a.features, b.features)


def test_synth_counts_follow_profile():
    p = exp_profile(4, 40, 20.0)
    d = synth_gaussian(p, dim=3, separation=1.5, seed=0)
    assert d.per_class_counts.tolist() == p.counts.tolist()
    assert d.dim == 3
    assert d.size == int(p.counts.sum())


def test_synth_rejects_zero_separation():
    p = exp_profile(2, 10, 2.0)
    with pytest.raises(ValueError):
        synth_gaussian(p, dim=2, separation=0.0, seed=0)


def test_synth_class_mean_norm_tracks_separation():
    # class means sit on a sphere of radius `separation`; with enough samples
    # the empirical mean lands near it (noise is unit isotropic)
    p = exp_profile(2, 4000, 1.0)
    d = synth_gaussian(p, dim=8, separation=3.0, seed=3)
    for c in range(2):
        mu = d.features[d.labels == c].mean(axis=0)
        assert abs(np.linalg.norm(mu) - 3.0) < 0.15


def test_unweighted_training_favors_head_class(bench):
    # regression for the benchmark construction: plain CE on the default
    # imbalanced synthetic set nails the head class and fails the tail
    rec = bench.final_record("ce", 0)
    assert rec.accuracy[0] > 0.9
    assert rec.accuracy[9] < 0.5


# ----------------------------------------------------------------- split_meta

def test_split_meta_balanced_and_partition():
    p = exp_profile(4, 60, 5.0)
    pool = synth_gaussian(p, dim=3, separation=2.0, seed=1)
    train, meta = split_meta(pool, 6, seed=2)
    assert meta.per_class_counts.tolist() == [6, 6, 6, 6]
    assert (train.per_class_counts == pool.per_class_counts - 6).all()

    # multiset partition: every pool row appears in exactly one side
    def rows(ds):
        return {(int(l),) + tuple(f) for f, l in zip(ds.features, ds.labels)}

    r_pool, r_train, r_meta = rows(pool), rows(train), rows(meta)
    assert len(r_pool) == pool.size  # gaussian rows are unique a.s.
    assert r_train | r_meta == r_pool
    assert not (r_train & r_meta)


def test_split_meta_deterministic():
    p = exp_profile(3, 30, 3.0)
    pool = synth_gaussian(p, dim=2, separation=2.0, seed=0)
    a = split_meta(pool, 4, seed=9)
    b = split_meta(pool, 4, seed=9)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)


def test_split_meta_insufficient_samples():
    p = exp_profile(3, 30, 10.0)  # tail count 3
    pool = synth_gaussian(p, dim=2, separation=2.0, seed=0)
    with pytest.raises(ValueError, match="class"):
        split_meta(pool, 3, seed=0)  # needs 3+1 in the tail


@given(m=st.integers(1, 5), seed=st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_split_meta_partition_property(m, seed):
    p = exp_profile(3, 25, 3.0)
    pool = synth_gaussian(p, dim=2, separation=2.0, seed=0)
    train, meta = split_meta(pool, m, seed=seed)
    assert train.size + meta.size == pool.size
    assert (meta.per_class_counts == m).all()


# ------------------------------------------------------------- save / load

def test_round_trip_bit_exact(tmp_path):
    p = exp_profile(3, 20, 4.0)
    d = synth_gaussian(p, dim=5, separation=1.0, seed=11)
    path = tmp_path / "d.ltds"
    save_dataset(d, path)
    back = load_dataset(path)
    assert np.array_equal(back.features, d.features)  # exact, not approx
    assert np.array_equal(back.labels, d.labels)
    assert back.class_count == d.class_count


def test_header_format(tmp_path):
    d = Dataset(np.array([[1.5, -2.0], [0.25, 0.75]]), np.array([0, 1]), 2)
    path = tmp_path / "d.ltds"
    save_dataset(d, path)
    first = path.read_text().splitlines()[0]
    assert first == "#LTDS C=2 DIM=2"


def _write(tmp_path, text):
    path = tmp_path / "bad.ltds"
    path.write_text(text)
    return path


def test_load_rejects_missing_header(tmp_path):
    path = _write(tmp_path, "0,1.0,2.0\n")
    with pytest.raises(FormatError, match="line 1"):
        load_dataset(path)


def test_load_rejects_wrong_field_count(tmp_path):
    path = _write(tmp_path, "#LTDS C=2 DIM=2\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_dataset(path)


def test_load_rejects_non_numeric(tmp_path):
    path = _write(tmp_path, "#LTDS C=2 DIM=1\n0,1.0\n1,zap\n")
    with pytest.raises(FormatError, match="line 3"):
        load_dataset(path)


def test_load_rejects_label_out_of_range(tmp_path):
    path = _write(tmp_path, "#LTDS C=2 DIM=1\n0,1.0\n2,2.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_dataset(path)


def test_load_rejects_header_class_mismatch(tmp_path):
    # header says 3 classes but the labels never reach 2
    path = _write(tmp_path, "#LTDS C=3 DIM=1\n0,1.0\n1,2.0\n")
    with pytest.raises(FormatError):
        load_dataset(path)


def test_load_rejects_empty_body(tmp_path):
    path = _write(tmp_path, "#LTDS C=2 DIM=1\n")
    with pytest.raises(FormatError):
        load_dataset(path)


def test_load_rejects_non_finite(tmp_path):
    path = _write(tmp_path, "#LTDS C=2 DIM=1\n0,1.0\n1,inf\n")
    with pytest.raises(FormatError, match="line 3"):
        load_dataset(path)


def test_load_peak_memory_is_near_the_arrays(tmp_path):
    # Rows are parsed into typed buffers, so the traced peak stays near the
    # size of the arrays returned; a parser keeping per-row float lists peaks
    # at 5.5 times that.
    rng = np.random.default_rng(0)
    n, dim = 6000, 16
    path = tmp_path / "big.ltds"
    save_dataset(Dataset(rng.standard_normal((n, dim)), np.arange(n) % 7, 7), path)
    tracemalloc.start()
    try:
        back = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.size == n
    assert peak < 2 * (back.features.nbytes + back.labels.nbytes)


# ------------------------------------- the C reader and the line parser

def test_c_reader_carries_valid_files_bit_exact(tmp_path, monkeypatch):
    # more than one chunk, with signed zero, subnormal, smallest normal and
    # largest finite values; the line parser must not run
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((data._CHUNK_LINES + 3, 5))
    feats[1] = [-0.0, 5e-324, 2.2250738585072009e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
    d = Dataset(feats, np.arange(feats.shape[0]) % 4, 4)
    path = tmp_path / "d.ltds"
    save_dataset(d, path)

    def no_line_parser(*args):
        raise AssertionError("the line parser ran")

    monkeypatch.setattr(data, "_line_rows", no_line_parser)
    back = load_dataset(path)
    assert back.features.tobytes() == d.features.tobytes()
    assert back.labels.tobytes() == d.labels.tobytes()
    assert back.class_count == 4


@pytest.mark.parametrize("row, error", [
    ("\n1,2.0", "blank line"),
    ("1,inf", "non-finite"),
    ("2,2.0", "label 2 outside"),
    ("1\x1c,2.0", "non-numeric"),  # np.loadtxt skips \x1c around a field, int() does not
    ("1,1_0", None),
], ids=["blank", "non_finite", "label_range", "c_only_space", "underscore"])
def test_line_parser_takes_what_the_c_reader_does_not(row, error, tmp_path, monkeypatch):
    # the row follows a full chunk the C reader accepts, so the line
    # parser takes the row's chunk alone
    calls = []
    line_rows = data._line_rows
    monkeypatch.setattr(data, "_line_rows", lambda *a: calls.append(a) or line_rows(*a))
    path = tmp_path / "d.ltds"
    path.write_text("#LTDS C=2 DIM=1\n" + "0,1.0\n" * data._CHUNK_LINES + row + "\n",
                    encoding="ascii")
    if error is None:
        back = load_dataset(path)
        assert back.features.ravel().tolist() == [1.0] * data._CHUNK_LINES + [10.0]
    else:
        with pytest.raises(FormatError, match=f"line {data._CHUNK_LINES + 2}: {error}"):
            load_dataset(path)
    assert len(calls) == 1


def test_one_pass_reads_the_file_once_and_hands_only_the_bad_chunk_on(tmp_path, monkeypatch):
    # 2,000 rows whose only defect is on the last line: the file is opened
    # once, the three full chunks before it go through np.loadtxt alone, and
    # the line parser gets the last chunk and names the defect's line
    rng = np.random.default_rng(7)
    path = tmp_path / "d.ltds"
    save_dataset(Dataset(rng.standard_normal((2000, 3)), np.arange(2000) % 5, 5), path)
    text = path.read_text(encoding="ascii")
    path.write_text(text[: text.rindex(",")] + ",zap\n", encoding="ascii")

    opened, parsed = [], []
    monkeypatch.setattr(data, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                        raising=False)
    line_rows = data._line_rows
    monkeypatch.setattr(data, "_line_rows", lambda *a: parsed.append(a) or line_rows(*a))
    with pytest.raises(FormatError, match="^line 2001: non-numeric field$"):
        load_dataset(path)
    assert opened == [path]
    full = 3 * data._CHUNK_LINES
    assert [(len(lines), first) for lines, first, *_ in parsed] == [(2000 - full, 2 + full)]


# --------------------------------------------- load_dataset against an oracle

def list_loader(path):
    """The loader as it was before rows went into typed buffers, frozen: every
    row a list of Python floats, copied into arrays at the end."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header:
            raise FormatError("empty file", line=1)
        parts = header.strip().split()
        if (
            len(parts) != 3
            or parts[0] != "#LTDS"
            or not parts[1].startswith("C=")
            or not parts[2].startswith("DIM=")
        ):
            raise FormatError("expected header '#LTDS C=<int> DIM=<int>'", line=1)
        try:
            class_count = int(parts[1][2:])
            dim = int(parts[2][4:])
        except ValueError:
            raise FormatError("header C and DIM must be integers", line=1) from None
        if class_count < 1 or dim < 1:
            raise FormatError("header C and DIM must be positive", line=1)

        labels, rows = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                raise FormatError("blank line inside data section", line=lineno)
            fields = line.split(",")
            if len(fields) != dim + 1:
                raise FormatError(
                    f"expected {dim + 1} comma-separated fields, got {len(fields)}",
                    line=lineno,
                )
            try:
                label = int(fields[0])
                values = [float(v) for v in fields[1:]]
            except ValueError:
                raise FormatError("non-numeric field", line=lineno) from None
            if not (0 <= label < class_count):
                raise FormatError(
                    f"label {label} outside [0, {class_count})", line=lineno
                )
            if not all(math.isfinite(v) for v in values):
                raise FormatError("non-finite feature value", line=lineno)
            labels.append(label)
            rows.append(values)

    if not rows:
        raise FormatError("no data rows")
    if max(labels) != class_count - 1:
        raise FormatError(
            f"header C={class_count} does not match max label {max(labels)}"
        )
    return Dataset(
        np.asarray(rows, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        class_count,
    )


def outcome(loader, path):
    """What a loader makes of a file: its arrays' dtypes, shapes, bytes and
    writeable flags, or the FormatError's message and line."""
    try:
        d = loader(path)
    except FormatError as e:
        return "error", str(e), e.line
    return ("ok", d.class_count) + tuple(
        (a.dtype.str, a.shape, a.tobytes(), a.flags.writeable) for a in (d.features, d.labels))


_PAD = st.sampled_from(["", "", " ", "  ", "\t"])
_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([
        "0.0", "-0.0", "-0", "5e-324", "-5e-324", "2.2250738585072009e-308",
        "1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e+308",
        "1_0", "1_000.5", "1e1_0", "+.5", "5.", "1E5", "00.25",
    ]),
)
_LABEL_TEXT = {"plain": str, "signed": lambda c: f"+{c}", "zeros": lambda c: f"0{c}"}
_NON_NUMERIC = ["zap", "", "1..2", "0x10", "1e", "--1", "1_", "_1", "1 2"]
_NON_FINITE = ["nan", "-nan", "inf", "-inf", "Infinity", "1e309", "-1e400"]
_DEFECTS = ("blank", "fields", "non_numeric", "label_range", "non_finite",
            "no_rows", "max_label")


def _padded(draw, text):
    return draw(_PAD) + text + draw(_PAD)


@st.composite
def ltds_texts(draw, defects=()):
    """An LTDS file's text. Without defects it is valid, with varied spellings
    of the same numbers; each defect named is applied once."""
    class_count, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, class_count - 1), min_size=1, max_size=8))
    labels[draw(st.integers(0, len(labels) - 1))] = class_count - 1
    rows = []
    for label in labels:
        spell = _LABEL_TEXT[draw(st.sampled_from(sorted(_LABEL_TEXT)))]
        rows.append([_padded(draw, spell(label))]
                    + [_padded(draw, draw(_FLOAT_TEXT)) for _ in range(dim)])
    header_c = class_count
    for defect in defects:
        i = draw(st.integers(0, len(rows) - 1))
        if defect == "blank":
            rows.insert(i, [draw(st.sampled_from(["", " ", "\t"]))])
        elif defect == "fields":
            if len(rows[i]) > 2 and draw(st.booleans()):
                rows[i].pop()
            else:
                rows[i].append(draw(_FLOAT_TEXT))
        elif defect == "non_numeric":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_NON_NUMERIC))
        elif defect == "label_range":
            rows[i][0] = str(draw(st.sampled_from([-1, class_count, class_count + 5])))
        elif defect == "non_finite":
            row = rows[i] if len(rows[i]) > 1 else rows[i] + [""]  # a blank line's one field
            row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(_NON_FINITE))
            rows[i] = row
        elif defect == "no_rows":
            rows = []
        elif defect == "max_label":
            header_c = class_count + draw(st.integers(1, 3))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"#LTDS C={header_c} DIM={dim}"] + [",".join(r) for r in rows]
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _same_outcome(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "oracle.ltds"
    path.write_bytes(text.encode("ascii"))
    got, want = outcome(load_dataset, path), outcome(list_loader, path)
    assert got == want
    return got


@given(text=ltds_texts())
@settings(max_examples=300, deadline=None)
def test_load_matches_list_oracle_on_valid_files(tmp_path_factory, text):
    assert _same_outcome(tmp_path_factory, text)[0] == "ok"


@given(text=st.sampled_from(_DEFECTS).flatmap(lambda d: ltds_texts(defects=(d,))))
@settings(max_examples=300, deadline=None)
def test_load_matches_list_oracle_on_malformed_files(tmp_path_factory, text):
    assert _same_outcome(tmp_path_factory, text)[0] == "error"


@given(text=ltds_texts(defects=_DEFECTS[:5]))
@settings(max_examples=100, deadline=None)
def test_load_reports_the_first_defect_like_the_oracle(tmp_path_factory, text):
    assert _same_outcome(tmp_path_factory, text)[0] == "error"


# ------------------------------------------------------------------- Dataset

def test_dataset_validates_labels():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)


def test_dataset_counts():
    d = Dataset(np.zeros((4, 1)), np.array([1, 0, 1, 1]), 2)
    assert d.per_class_counts.tolist() == [1, 3]


def test_dataset_arrays_read_only():
    d = Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        d.features[0, 0] = 1.0


def test_atomic_write_interrupted_keeps_old_file(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(str(path), "w", encoding="ascii") as fh:
            fh.write("new, partial")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["f.csv"]
    with atomic_write(str(path), "w", encoding="ascii") as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["f.csv"]
