"""Long-tailed dataset synthesis, splitting, and text serialization."""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

from .rng import consumer_rng


class FormatError(ValueError):
    """Malformed input file (dataset, checkpoint or run file). Carries the
    1-based line number when one applies."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus integer labels in [0, class_count)."""

    features: np.ndarray  # (n, dim) float64
    labels: np.ndarray  # (n,) int64
    class_count: int
    per_class_counts: np.ndarray = field(init=False)  # (class_count,) int64

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("labels must be 1-D and match the feature row count")
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise ValueError("labels must lie in [0, class_count)")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        counts = np.bincount(labels, minlength=self.class_count).astype(np.int64)
        # Read-only views make accidental in-place edits after construction loud.
        feats.setflags(write=False)
        labels.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "per_class_counts", counts)

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def exp_profile(class_count: int, n_max: int, imbalance: float) -> np.ndarray:
    """Exponentially decaying class counts from n_max down to ~n_max/imbalance,
    as a read-only int64 vector.

    counts[c] = max(1, round_half_up(n_max * imbalance**(-c / (C - 1)))).
    Class 0 holds exactly n_max; counts never increase with c.
    """
    if class_count < 2:
        raise ValueError("need at least two classes for a decay profile")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if not (np.isfinite(imbalance) and imbalance >= 1):
        raise ValueError("imbalance must be finite and >= 1")
    c = np.arange(class_count, dtype=np.float64)
    raw = n_max * imbalance ** (-c / (class_count - 1))
    counts = np.maximum(1, np.floor(raw + 0.5).astype(np.int64))
    counts.setflags(write=False)
    return counts


def synth_gaussian(counts: np.ndarray, dim: int, separation: float, seed: int) -> Dataset:
    """Isotropic unit-variance Gaussian blobs on seeded unit directions,
    counts[c] of class c.

    Class means are separation * u_c with u_c a random unit vector drawn from
    a stream keyed only by (seed, class_count, dim), so changing the counts
    reshuffles nothing about the geometry.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty vector")
    if counts.min() < 1:
        raise ValueError("every class needs at least one sample")
    if dim < 1:
        raise ValueError("dim must be positive")
    if separation <= 0:
        raise ValueError("separation must be positive")
    mean_rng = consumer_rng(seed, "synth", "means")
    dirs = mean_rng.standard_normal((counts.size, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = separation * dirs / norms

    noise_rng = consumer_rng(seed, "synth", "noise")
    feats = np.empty((int(counts.sum()), dim), dtype=np.float64)
    labels = np.empty(feats.shape[0], dtype=np.int64)
    row = 0
    for c, n in enumerate(counts):
        n = int(n)
        feats[row : row + n] = means[c] + noise_rng.standard_normal((n, dim))
        labels[row : row + n] = c
        row += n
    return Dataset(feats, labels, counts.size)


def split_meta(pool: Dataset, m_per_class: int, seed: int) -> tuple[Dataset, Dataset]:
    """Carve a balanced meta set (m_per_class each) off a pool; rest is train.

    Selection is a seeded shuffle per class, without replacement. Every class
    must be able to give up m_per_class samples and still keep at least one.
    """
    if m_per_class < 1:
        raise ValueError("m_per_class must be positive")
    short = np.flatnonzero(pool.per_class_counts < m_per_class + 1)
    if short.size:
        raise ValueError(
            f"insufficient samples: classes {short.tolist()} have fewer than "
            f"{m_per_class + 1} samples"
        )
    rng = consumer_rng(seed, "split_meta")
    meta_idx, train_idx = [], []
    for c in range(pool.class_count):
        idx = np.flatnonzero(pool.labels == c)
        idx = idx[rng.permutation(idx.size)]
        meta_idx.append(idx[:m_per_class])
        train_idx.append(idx[m_per_class:])
    meta_idx = np.concatenate(meta_idx)
    train_idx = np.concatenate(train_idx)
    meta = Dataset(pool.features[meta_idx], pool.labels[meta_idx], pool.class_count)
    train = Dataset(pool.features[train_idx], pool.labels[train_idx], pool.class_count)
    return train, meta


@contextlib.contextmanager
def atomic_write(path: str, mode: str, **open_kwargs):
    """open(path, mode) for writing through a temp file next to path, moved
    onto path when the block ends without error. An interrupted write leaves
    the previous file, not part of the new one, and no temp file behind.
    A failed write raises its OSError under path, not the temp file's name."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as e:
        if e.filename not in (tmp, None):
            raise
        raise OSError(e.errno, e.strerror, path) from None
    finally:
        if os.path.exists(tmp):  # the write failed
            os.unlink(tmp)


# LTDS rows save_dataset formats at a time: Python floats for every row at
# once would raise the peak by about 30 bytes per value.
_CHUNK_LINES = 512


def save_dataset(ds: Dataset, path: str) -> None:
    """Write the LTDS text form: header line, then one label,f1,...,fD row each."""
    row = "%d" + ",%r" * ds.dim + "\n"  # %r of a float is its repr: round-trips exactly
    # the old text's twin: left, it would cost each later load a read and a hash
    with contextlib.suppress(FileNotFoundError):
        os.remove(f"{path}.bin")
    with atomic_write(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"#LTDS C={ds.class_count} DIM={ds.dim}\n")
        for start in range(0, ds.size, _CHUNK_LINES):
            chunk = slice(start, start + _CHUNK_LINES)
            for label, values in zip(ds.labels[chunk].tolist(), ds.features[chunk].tolist()):
                fh.write(row % (label, *values))


_TWIN = struct.Struct("<8s32sQQQ")  # magic, the text's SHA-256, class count, rows, dim
_TWIN_MAGIC = b"LTDSBIN1"


def save_twin(ds: Dataset, path: str) -> None:
    """Write <path>.bin, the binary twin of the LTDS text that save_dataset just
    wrote from ds at path: a _TWIN header, then ds's int64 labels and float64 features."""
    with open(path, "rb") as fh:
        digest = _digest(fh)
    with atomic_write(f"{path}.bin", "wb") as fh:
        fh.write(_TWIN.pack(_TWIN_MAGIC, digest, ds.class_count, ds.size, ds.dim))
        fh.write(ds.labels.astype("<i8", copy=False))
        fh.write(ds.features.astype("<f8", copy=False))


def _digest(fh, head: bytes = b"") -> bytes:
    """SHA-256 of head and the rest of the binary file fh, read 1 MiB at a time."""
    h = hashlib.sha256(head)
    while block := fh.read(1 << 20):
        h.update(block)
    return h.digest()


def load_dataset(path: str) -> Dataset:
    """Parse an LTDS file back into a Dataset, bit-exact with what was saved.

    The arrays come from the binary twin <path>.bin when it matches the
    text's bytes, so an edited text parses again. Otherwise the text is read
    once, a line at a time, and its first defect is named with its line."""
    class_count, labels, features = _twin_rows(path) or _text_rows(path)
    # what the text parser rejects beyond single rows, checked on either path
    if not labels.size:
        raise FormatError("no data rows")
    if labels.max() != class_count - 1:
        raise FormatError(f"header C={class_count} does not match max label {labels.max()}")
    return Dataset(features, labels, class_count)


def _twin_rows(path) -> tuple[int, np.ndarray, np.ndarray] | None:
    """The class count, labels and features in the twin of the LTDS file at
    path; None when there is none or it is malformed or does not match the text."""
    if not os.path.isfile(twin := f"{os.fspath(path)}.bin"):  # no open(): a lone text opens once
        return None
    try:
        with open(twin, "rb") as fh:
            raw = fh.read()
        magic, digest, class_count, size, dim = _TWIN.unpack_from(raw)
        # the text's header pins the class count and dim, the twin's length the rows
        header = b"#LTDS C=%d DIM=%d\n" % (class_count, dim)
        if magic != _TWIN_MAGIC or dim < 1 or len(raw) != _TWIN.size + 8 * size * (1 + dim):
            return None
        with open(path, "rb") as fh:
            if fh.readline(len(header)) != header or _digest(fh, header) != digest:
                return None
    except (FileNotFoundError, struct.error):  # gone since isfile() saw it, or cut short
        return None  # a missing text then fails in _text_rows, as without a twin
    labels = np.frombuffer(raw, "<i8", size, _TWIN.size)
    features = np.frombuffer(raw, "<f8", size * dim, _TWIN.size + labels.nbytes)
    return class_count, labels, features.reshape(size, dim)


def _text_rows(path) -> tuple[int, np.ndarray, np.ndarray]:
    """The header's class count and the labels and features of the LTDS text
    at path, parsed one line at a time with int() and float(); the first
    defect raises a FormatError with its line number."""
    # no per-row lists: the arrays returned are views of these buffers
    labels, values = array("q"), array("d")
    isfinite = math.isfinite
    try:
        with open(path, "r", encoding="ascii") as fh:
            class_count, dim = _read_header(fh)
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
                    row = list(map(float, fields[1:]))
                except ValueError:
                    raise FormatError("non-numeric field", line=lineno) from None
                if not (0 <= label < class_count):
                    raise FormatError(
                        f"label {label} outside [0, {class_count})", line=lineno
                    )
                if not all(map(isfinite, row)):
                    raise FormatError("non-finite feature value", line=lineno)
                try:
                    labels.append(label)
                except OverflowError:  # only a header C beyond int64 lets one through
                    raise FormatError(f"label {label} does not fit int64", line=lineno) from None
                values.extend(row)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not an ASCII text file") from None
    features = np.frombuffer(values, dtype=np.float64).reshape(-1, dim)
    return class_count, np.frombuffer(labels, dtype=np.int64), features


def _read_header(fh) -> tuple[int, int]:
    """The class count and feature width from an LTDS header line."""
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
    return class_count, dim
