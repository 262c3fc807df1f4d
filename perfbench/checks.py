"""Output checks and digests for a workload's run directories.

The checks read the program's files with their own parsers (CSV rows, the
LTNN1 checkpoint layout, the LTDS header), so a broken writer cannot hide
behind a matching reader.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

from workloads import CLASS_DIFFICULTY_METHODS, DNET_METHODS, Plan, Run

SPLITS = ("overall", "many", "medium", "few")


def _rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="ascii") as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def read_checkpoint(path: str) -> list[tuple]:
    """LTNN1 layers as (rows, cols, weight bytes, bias bytes, act tag)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != b"LTNN1":
        raise ValueError("bad magic")
    (count,), off, layers = struct.unpack_from("<I", raw, 5), 9, []
    for _ in range(count):
        rows, cols = struct.unpack_from("<II", raw, off)
        off += 8
        w, b = raw[off:off + 8 * rows * cols], raw[off + 8 * rows * cols:off + 8 * rows * (cols + 1)]
        off += 8 * rows * (cols + 1)
        if len(b) != 8 * rows or off >= len(raw):
            raise ValueError("truncated layer")
        layers.append((rows, cols, w, b, raw[off]))
        off += 1
    if off != len(raw):
        raise ValueError("trailing bytes")
    for _, _, w, b, _ in layers:
        if not all(map(math.isfinite, struct.unpack(f"<{(len(w) + len(b)) // 8}d", w + b))):
            raise ValueError("non-finite parameter")
    return layers


def _check_splits(values, where: str, problems: list) -> None:
    for value in values:
        if value and not (math.isfinite(float(value)) and 0.0 <= float(value) <= 1.0):
            problems.append(f"{where}: accuracy {value} outside [0, 1]")


def final_rows(plan: Plan) -> list[dict]:
    """The last metrics.csv row of every run, as {column: value}."""
    out = []
    for r in plan.runs:
        header, rows = _rows(f"{plan.runs_dir}/{r.method}/seed{r.seed}/metrics.csv")
        out.append(dict(zip(header, rows[-1])))
    return out


def _check_run(plan: Plan, r: Run) -> list[str]:
    classes, dim, hidden = plan.config["classes"], plan.config["dim"], plan.config["hidden"]
    d = f"{plan.runs_dir}/{r.method}/seed{r.seed}"
    need = ["metrics.csv", "run_config.txt", "classifier.ltnn", "manifest.json"]
    need += ["dnet.ltnn"] if r.method in DNET_METHODS else []
    need += ["classifier_crt.ltnn"] if r.crt else []
    need += ["weights_trace.csv"] if r.method in CLASS_DIFFICULTY_METHODS else []
    missing = [f for f in need if not os.path.isfile(f"{d}/{f}")]
    if missing:
        return [f"{d}: missing {missing}"]

    problems = []
    with open(f"{d}/run_config.txt", encoding="utf-8") as fh:
        config = fh.read().splitlines()
    if f"method = {r.method}" not in config or f"seeds = {r.seed}" not in config:
        problems.append(f"{d}/run_config.txt: wrong method or seed")

    header, rows = _rows(f"{d}/metrics.csv")
    epochs = [str(e) for e in range(r.epochs + r.crt)]
    if header[:5] != ["epoch", *SPLITS] or [row[0] for row in rows] != epochs:
        return problems + [f"{d}/metrics.csv: {len(rows)} rows, expected {len(epochs)}"]
    for row in rows:
        _check_splits(row[1:5], f"{d}/metrics.csv", problems)
    if float(rows[-1][1]) < 2.0 / classes:
        problems.append(f"{d}: final overall accuracy {rows[-1][1]} near chance")

    stage1 = read_checkpoint(f"{d}/classifier.ltnn")
    shapes = [(rows_, cols) for rows_, cols, *_ in stage1]
    if shapes != [(hidden, dim), (classes, hidden)]:
        problems.append(f"{d}/classifier.ltnn: layer shapes {shapes}")
    if r.crt:
        stage2 = read_checkpoint(f"{d}/classifier_crt.ltnn")
        if stage2[:-1] != stage1[:-1]:
            problems.append(f"{d}: cRT changed a frozen feature layer")
        if stage2[-1][2] == stage1[-1][2]:
            problems.append(f"{d}: cRT left the final layer as it was")
    if r.method in DNET_METHODS:
        read_checkpoint(f"{d}/dnet.ltnn")
    return problems


def check(plan: Plan) -> list[str]:
    """Every problem found in the files the plan's commands should have left."""
    problems: list[str] = []
    for path, classes, n in plan.ltds:
        try:
            with open(path, encoding="ascii") as fh:
                header, lines = fh.readline().strip(), sum(1 for _ in fh)
        except OSError as e:
            problems.append(f"{path}: {e}")
            continue
        if header != f"#LTDS C={classes} DIM={plan.config['dim']}" or lines != n:
            problems.append(f"{path}: header {header!r} with {lines} rows, expected {n}")

    for r in plan.runs:
        try:
            problems += _check_run(plan, r)
        except (OSError, ValueError, IndexError) as e:
            problems.append(f"{plan.runs_dir}/{r.method}/seed{r.seed}: {e}")

    try:
        if plan.ensemble_csv:
            header, rows = _rows(plan.ensemble_csv)
            if header != ["name", *SPLITS] or len(rows) != 3 or rows[-1][0] != "ensemble":
                problems.append(f"{plan.ensemble_csv}: unexpected layout")
            for row in rows:
                _check_splits(row[1:], plan.ensemble_csv, problems)
        if plan.summary_csv:
            _, rows = _rows(plan.summary_csv)
            if [row[0] for row in rows] != sorted({r.method for r in plan.runs}):
                problems.append(f"{plan.summary_csv}: methods {[row[0] for row in rows]}")
    except (OSError, ValueError) as e:
        problems.append(str(e))
    return problems


def _files(plan: Plan):
    roots = [plan.runs_dir] + sorted({os.path.dirname(p) for p, _, _ in plan.ltds})
    for root in roots:
        for dirpath, dirnames, names in os.walk(root):
            dirnames.sort()
            for name in sorted(names):
                yield os.path.join(dirpath, name)
    if plan.summary_csv:
        yield plan.summary_csv


def digest(plan: Plan) -> str:
    """SHA-256 over every output file but manifest.json, path and content."""
    h = hashlib.sha256()
    for path in _files(plan):
        if os.path.basename(path) == "manifest.json" or not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            h.update(path.replace(os.sep, "/").encode() + b"\0")
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def artifact_bytes(plan: Plan) -> int:
    """Bytes of every file in the run directories, manifest.json included."""
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, names in os.walk(plan.runs_dir) for f in names)
