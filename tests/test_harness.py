"""Config parsing, run layout, reproducibility of outputs, second-stage and
ensemble entry points, aggregation, and the CLI's exit codes."""

import builtins
import errno
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

import ltlab
from ltlab import data, harness, metatrain
from ltlab.cli import main
from ltlab.data import Dataset, load_dataset, save_dataset, save_twin
from ltlab.harness import (
    METHODS,
    ConfigError,
    ExperimentConfig,
    build_datasets,
    collect_rows,
    config_text,
    crt_existing,
    ensemble_existing,
    gen_data,
    parse_config,
    report_text,
    run,
    summarize,
    train_one,
)
from ltlab.metatrain import NumericError
from ltlab.nnet import load_checkpoint, save_checkpoint


def base_cfg(out_dir, **kw):
    kw.setdefault("classes", 3)
    kw.setdefault("n_max", 60)
    kw.setdefault("imbalance", 10.0)
    kw.setdefault("dim", 4)
    kw.setdefault("m_per_class", 4)
    kw.setdefault("epochs", 2)
    kw.setdefault("batch_size", 8)
    kw.setdefault("meta_batch_size", 8)
    kw.setdefault("hidden", 8)
    kw.setdefault("seeds", (0,))
    kw.setdefault("crt_steps", 8)
    return ExperimentConfig(out_dir=str(out_dir), **kw)


@pytest.fixture(scope="module")
def runs_dir(tmp_path_factory):
    """One dnet run and one ce run sharing an out_dir, reused read-only."""
    out = tmp_path_factory.mktemp("runs")
    run(base_cfg(out, method="dnet"))
    run(base_cfg(out, method="ce"))
    return out


# ------------------------------------------------------------------- parsing

def test_defaults_without_any_input():
    cfg = parse_config(None)
    assert cfg == ExperimentConfig()
    assert cfg.method == "dnet" and cfg.seeds == (0, 1, 2, 3, 4)


def test_parse_file_with_comments_and_overrides(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# comparison run\n"
        "\n"
        "method = cdb\n"
        "lambda = 0.5\n"
        "seeds = 3, 4\n"
        "trace_classes = 0,2\n",
        encoding="utf-8",
    )
    cfg = parse_config(str(p), overrides=("method=focal", "epochs=7"))
    assert cfg.method == "focal"  # --set wins over the file
    assert cfg.lam == 0.5
    assert cfg.seeds == (3, 4)
    assert cfg.trace_classes == (0, 2)
    assert cfg.epochs == 7


def test_unknown_key_named_in_error(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("lamda = 0.3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="lamda"):
        parse_config(str(p))


def test_bad_value_and_bad_line_report_position(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("epochs = ten\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config(str(p))
    p.write_text("method dnet\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":1"):
        parse_config(str(p))


def test_override_requires_key_value():
    with pytest.raises(ConfigError, match="--set"):
        parse_config(None, overrides=("alpha",))


def test_missing_config_file_rejected(tmp_path):
    # the library raises the OS's error, and the CLI exits 2 on it
    with pytest.raises(FileNotFoundError):
        parse_config(str(tmp_path / "nope.cfg"))
    assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize(
    "override",
    [
        "method=bogus",
        "stage2=warm",
        "head=tanh",
        "classifier_optimizer=lbfgs",
        "seeds=",
        "seeds=3,3",
        "seeds=-1",
        "seeds=0,-2",
        "data_seed=-1",
        "trace_classes=1,2,1",
        "epochs=-1",
        "batch_size=0",
        "alpha=0",
        "lambda=-0.1",
        "many_min=20",  # equals few_max
        "train_file=only_one.ltds",
        "crt_lr=0",
        "focal_gamma=-1",
        "cdb_tau=-1",
        "effnum_beta=1.5",
    ],
)
def test_validation_rejects(override):
    with pytest.raises(ConfigError):
        parse_config(None, overrides=(override,))


def test_trace_spellings():
    assert parse_config(None, overrides=("trace_classes=auto",)).trace_classes == "auto"
    assert parse_config(None, overrides=("trace_classes=none",)).trace_classes == "none"
    assert parse_config(None, overrides=("trace_classes=1,2",)).trace_classes == (1, 2)


def test_config_text_round_trips(tmp_path):
    cfg = base_cfg(tmp_path, method="effnum", lam=0.125, seeds=(7,),
                   trace_classes=(0, 2), ensemble_members=("a/b", "c/d"))
    p = tmp_path / "resolved.cfg"
    p.write_text(config_text(cfg), encoding="utf-8")
    assert parse_config(str(p)) == cfg
    assert "lambda = 0.125" in config_text(cfg)  # file key, not the attr name
    # every key parses back to its field, whatever its type
    changed = ExperimentConfig(
        train_file="t.ltds", meta_file="m.ltds", classes=5, n_max=500, imbalance=10.0, dim=8,
        separation=1.5, m_per_class=10, data_seed=3, method="effnum", stage2="crt",
        seeds=(7, 8), epochs=3, batch_size=16, meta_batch_size=32, alpha=0.05, beta=0.01,
        lam=0.125, hidden=32, head="cosine", cosine_scale=8.0, classifier_optimizer="adam",
        classifier_momentum=0.5, classifier_weight_decay=2e-4, dnet_optimizer="sgd",
        dnet_weight_decay=1e-3, cdb_tau=2.0, effnum_beta=0.99,
        focal_gamma=2.0, crt_steps=100, crt_batch_size=32, crt_lr=0.05, out_dir="elsewhere",
        trace_classes=(0, 2), many_min=50, few_max=10,
        ensemble_members=("a/b", "c/d"))
    assert all(getattr(changed, f.name) != f.default for f in fields(ExperimentConfig))
    p.write_text(config_text(changed), encoding="utf-8")
    assert parse_config(str(p)) == changed


# ---------------------------------------------------------------------- data

def test_gen_data_then_train_from_files(tmp_path):
    cfg = base_cfg(tmp_path / "data")
    train_path, meta_path = gen_data(cfg)
    t_direct, m_direct = build_datasets(cfg)
    t_file, m_file = build_datasets(
        ExperimentConfig(train_file=train_path, meta_file=meta_path)
    )
    assert np.array_equal(t_file.features, t_direct.features)
    assert np.array_equal(t_file.labels, t_direct.labels)
    assert np.array_equal(m_file.features, m_direct.features)
    assert np.all(m_file.per_class_counts == cfg.m_per_class)


def _no_text_parse(monkeypatch):
    def parse(*args, **kwargs):
        raise AssertionError("an LTDS text was parsed")

    monkeypatch.setattr(data, "_text_rows", parse)


def test_gen_data_files_load_from_their_twins_bit_exact(tmp_path, monkeypatch):
    # gen-data leaves a twin <file>.bin beside each file, and a load takes
    # the arrays from it, parsing no text, byte for byte what the text gives
    train_path, meta_path = gen_data(base_cfg(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["meta.ltds", "meta.ltds.bin", "train.ltds",
                                             "train.ltds.bin"]
    for path in (train_path, meta_path):
        with monkeypatch.context() as m:
            _no_text_parse(m)
            twin = load_dataset(path)
        os.remove(f"{path}.bin")
        text = load_dataset(path)
        assert twin.features.tobytes() == text.features.tobytes()
        assert twin.labels.tobytes() == text.labels.tobytes()
        assert twin.class_count == text.class_count


def test_gen_data_writes_the_same_twins_every_time(tmp_path):
    first = gen_data(base_cfg(tmp_path / "a"))
    second = gen_data(base_cfg(tmp_path / "b"))
    for a, b in zip(first, second):
        with open(f"{a}.bin", "rb") as fa, open(f"{b}.bin", "rb") as fb:
            assert fa.read() == fb.read()


def test_save_dataset_over_a_gen_data_file_leaves_no_twin(tmp_path):
    # the rewritten text loads without first reading and hashing a stale twin
    train_path, _ = gen_data(base_cfg(tmp_path))
    ds = load_dataset(train_path)
    save_dataset(Dataset(ds.features[1:], ds.labels[1:], ds.class_count), train_path)
    assert sorted(os.listdir(tmp_path)) == ["meta.ltds", "meta.ltds.bin", "train.ltds"]
    assert load_dataset(train_path).size == ds.size - 1


def test_files_must_agree_on_class_count(tmp_path):
    a = tmp_path / "a.ltds"
    b = tmp_path / "b.ltds"
    save_dataset(Dataset(np.zeros((2, 2)), np.array([0, 1]), 2), str(a))
    save_dataset(Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 3), str(b))
    with pytest.raises(ConfigError, match="class count"):
        build_datasets(ExperimentConfig(train_file=str(a), meta_file=str(b)))


@pytest.mark.parametrize("which, sets", [
    ("meta", ("method=ce",)),
    ("meta", ("method=dnet",)),
    ("train", ("method=invfreq",)),
    ("train", ("method=effnum",)),
    ("train", ("method=ce", "stage2=crt")),
    ("train", ("method=dnet",)),
], ids=["meta-ce", "meta-dnet", "train-invfreq", "train-effnum", "train-ce-crt", "train-dnet"])
def test_cli_a_file_without_rows_of_a_class_exits_2(which, sets, tmp_path, capsys):
    # a class without train rows has no frequency weight and no cRT sample,
    # and one without meta rows no accuracy: the file is rejected, by name,
    # before anything is written
    data = ["--set", "classes=3", "--set", "n_max=60", "--set", "imbalance=10",
            "--set", "dim=4", "--set", "m_per_class=4"]
    assert main(["gen-data", *data, "--set", f"out_dir={tmp_path}"]) == 0
    path = tmp_path / f"{which}.ltds"
    ds = load_dataset(str(path))
    keep = ds.labels != 1
    save_dataset(Dataset(ds.features[keep], ds.labels[keep], ds.class_count), str(path))
    out = tmp_path / "runs"
    args = ["--set", "seeds=0", "--set", "epochs=1", "--set", "batch_size=8",
            "--set", "meta_batch_size=8", "--set", "hidden=8", "--set", f"out_dir={out}",
            "--set", f"train_file={tmp_path / 'train.ltds'}",
            "--set", f"meta_file={tmp_path / 'meta.ltds'}"]
    for item in sets:
        args += ["--set", item]
    capsys.readouterr()
    assert main(["train", *args]) == 2
    assert capsys.readouterr().err == f"config error: {path}: no rows of classes [1]\n"
    assert not out.exists()


def test_cli_a_twin_loaded_file_without_rows_of_a_class_exits_2(tmp_path, capsys, monkeypatch):
    # a twin is taken only for a file the text parser accepts, and the class
    # check after either load rejects the file by name
    data_args = ["--set", "classes=3", "--set", "n_max=60", "--set", "imbalance=10",
                 "--set", "dim=4", "--set", "m_per_class=4"]
    assert main(["gen-data", *data_args, "--set", f"out_dir={tmp_path}"]) == 0
    path = tmp_path / "train.ltds"
    ds = load_dataset(str(path))
    keep = ds.labels != 1
    trimmed = Dataset(ds.features[keep], ds.labels[keep], ds.class_count)
    save_dataset(trimmed, str(path))
    save_twin(trimmed, str(path))
    _no_text_parse(monkeypatch)
    out = tmp_path / "runs"
    capsys.readouterr()
    assert main(["train", "--set", "method=ce", "--set", "seeds=0", "--set", f"out_dir={out}",
                 "--set", f"train_file={path}", "--set", f"meta_file={tmp_path / 'meta.ltds'}"]) == 2
    assert capsys.readouterr().err == f"config error: {path}: no rows of classes [1]\n"
    assert not out.exists()


def test_missing_dataset_file_is_config_error(tmp_path):
    # the library raises the OS's error, and the CLI exits 2 on it
    files = (f"train_file={tmp_path / 'no.ltds'}", f"meta_file={tmp_path / 'no2.ltds'}")
    with pytest.raises(FileNotFoundError):
        build_datasets(parse_config(None, files))
    assert main(["train", "--set", files[0], "--set", files[1]]) == 2


def test_impossible_synthetic_profile_is_config_error(tmp_path):
    # n_max too small to give the rarest class a single sample after the split
    with pytest.raises(ConfigError):
        build_datasets(base_cfg(tmp_path, n_max=4, imbalance=100.0))


# ------------------------------------------------------------------ run layout

def test_dnet_run_layout_and_schemas(runs_dir):
    d = runs_dir / "dnet" / "seed0"
    for name in ("metrics.csv", "weights_trace.csv", "classifier.ltnn",
                 "dnet.ltnn", "run_config.txt", "manifest.json"):
        assert (d / name).exists(), name

    lines = (d / "metrics.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "epoch,overall,many,medium,few,entropy,d_0,d_1,d_2"
    assert len(lines) == 3  # header + 2 epochs
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == ""  # no class exceeds many_min=100 at this scale
    assert 0.0 <= float(first[1]) <= 1.0
    for v in first[6:]:
        assert 0.0 < float(v) < 1.0  # sigmoid difficulties

    trace = (d / "weights_trace.csv").read_text(encoding="ascii").splitlines()
    assert trace[0] == "step,class,normalized_weight"
    # trace_classes=auto picks (0, C//2, C-1); 2 epochs of 73//8 steps each
    assert len(trace) == 1 + 3 * 2 * (73 // 8)

    rc = parse_config(str(d / "run_config.txt"))
    assert rc.method == "dnet" and rc.seeds == (0,)

    manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"started", "finished", "wall_seconds"}


def test_auto_trace_names_each_class_once_at_two_classes(tmp_path):
    # auto's (0, C//2, C-1) is (0, 1, 1) at C=2
    run(base_cfg(tmp_path, method="dnet", classes=2, epochs=1))
    _, rows = harness._read_csv(str(tmp_path / "dnet" / "seed0" / "weights_trace.csv"))
    steps = sorted({int(step) for step, _, _ in rows})
    assert steps == list(range(len(steps)))
    assert [(int(step), cls) for step, cls, _ in rows] == [(t, c) for t in steps for c in "01"]


def test_ce_run_uses_base_schema(runs_dir):
    d = runs_dir / "ce" / "seed0"
    lines = (d / "metrics.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "epoch,overall,many,medium,few"
    assert not (d / "weights_trace.csv").exists()
    assert not (d / "dnet.ltnn").exists()


def test_run_returns_final_epoch_rows(runs_dir):
    rows = run(base_cfg(runs_dir, method="dnet"))  # same dirs, same bytes
    assert len(rows) == 1
    r = rows[0]
    assert r.method == "dnet" and r.seed == 0
    assert 0.0 <= r.overall <= 1.0
    assert r.many is None  # counts (56, 15, 2) leave the many split empty


@pytest.mark.parametrize("method", list(METHODS))
def test_train_one_reaches_train_by_name(method, tmp_path, monkeypatch):
    # train_one is the one-seed entry: every method trains through
    # harness.train_seeds, for that one seed
    real, calls = harness.train_seeds, []

    def spy(tc, *args, **kwargs):
        calls.append(tc)
        return real(tc, *args, **kwargs)

    monkeypatch.setattr(harness, "train_seeds", spy)
    cfg = base_cfg(tmp_path, method=method, epochs=1)
    train_one(cfg, *build_datasets(cfg), 0)
    (tc,) = calls
    assert (tc.lam == 0.0) == (method == "dnet-nodriver")
    assert tc.focal_gamma == (cfg.focal_gamma if method == "focal" else None)


def test_runs_are_byte_reproducible(tmp_path):
    tracked = ("metrics.csv", "weights_trace.csv", "classifier.ltnn", "dnet.ltnn")
    blobs, configs = [], []
    for sub in ("one", "two"):
        run(base_cfg(tmp_path / sub, method="dnet", epochs=1))
        d = tmp_path / sub / "dnet" / "seed0"
        blobs.append({n: (d / n).read_bytes() for n in tracked})
        configs.append((d / "run_config.txt").read_text("utf-8").splitlines())
    assert blobs[0] == blobs[1]
    # the config echo differs only in where it was told to write
    diff = [(a, b) for a, b in zip(configs[0], configs[1]) if a != b]
    assert all(a.startswith("out_dir") for a, _ in diff)


def test_seeds_in_one_run_match_single_seed_runs(tmp_path):
    def outputs(sub, seeds):
        run(base_cfg(tmp_path / sub, method="ce", epochs=1, seeds=seeds))
        return [(tmp_path / sub / "ce" / f"seed{s}" / "metrics.csv").read_bytes()
                + (tmp_path / sub / "ce" / f"seed{s}" / "classifier.ltnn").read_bytes()
                for s in seeds]

    together = outputs("together", (0, 1, 2))
    alone = [outputs(f"alone{s}", (s,))[0] for s in (0, 1, 2)]
    assert together == alone


def test_seeds_of_a_command_train_in_one_stacked_call(tmp_path, monkeypatch):
    # one train_seeds call on the calling thread for all seeds; harness
    # binds nothing as train, so profilers that count harness.train calls
    # per run see none rather than one for several seeds
    calls = []
    stacked = harness.train_seeds

    def spy(tc, train_set, meta_set, classifiers, heads, seeds):
        calls.append((threading.get_ident(), tuple(seeds)))
        return stacked(tc, train_set, meta_set, classifiers, heads, seeds)

    def no_train(*args, **kwargs):
        raise AssertionError("harness.run called harness.train")

    monkeypatch.setattr(harness, "train_seeds", spy)
    monkeypatch.setattr(harness, "train", no_train, raising=False)
    monkeypatch.setenv("LTLAB_THREADS", "3")  # the old seed-pool cap is not read
    rows = run(base_cfg(tmp_path, method="ce", epochs=1, seeds=(0, 1, 2)))
    assert calls == [(threading.get_ident(), (0, 1, 2))]
    assert [r.seed for r in rows] == [0, 1, 2]


def run_files(run_dir):
    """Every file of a run directory but manifest.json, by name."""
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("method, head", [(m, "linear") for m in METHODS] + [("dnet", "cosine")])
def test_a_seeds_files_do_not_depend_on_the_seeds_it_trains_with(method, head, tmp_path):
    # seed 1 trained alone and stacked with seeds 0 and 2: the same bytes,
    # stage 2 included
    files = []
    for seeds in ((1,), (0, 1, 2)):
        run(base_cfg(tmp_path, method=method, head=head, seeds=seeds, stage2="crt"))
        files.append(run_files(tmp_path / method / "seed1"))
    alone, together = files
    assert "classifier_crt.ltnn" in alone
    assert together == alone


def test_run_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at C=100 the classifier's 64x64x100 products and the difficulty net's
    # 100x128 ones are large enough for OpenBLAS to split over threads
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ltlab.__file__)))
    sets = ["method=dnet", "classes=100", "n_max=20", "imbalance=2", "m_per_class=2",
            "epochs=1", "seeds=0,1", "out_dir=runs"]
    files = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        subprocess.run([sys.executable, "-m", "ltlab.cli", "train",
                        *(a for item in sets for a in ("--set", item))],
                       cwd=cwd, env=dict(env, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
        files.append({p.relative_to(cwd): p.read_bytes() for p in sorted(cwd.rglob("*"))
                      if p.is_file() and p.name != "manifest.json"})
    one, two = files
    assert len(one) == 10  # five files in each seed's directory
    assert two == one


def poison_seed(monkeypatch, row, from_step):
    """From step from_step on, the classifier cotangent of one seed turns
    NaN: the whole cotangent for row None (a lone seed), else the seed's
    row of the stack."""
    real, steps = metatrain.classifier_objective, []

    def objective(tape, weights, gamma):
        loss, cot = real(tape, weights, gamma)
        steps.append(len(steps))
        if steps[-1] >= from_step:
            (cot if row is None else cot[row])[...] = np.nan
        return loss, cot

    monkeypatch.setattr(metatrain, "classifier_objective", objective)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failing_seed_stops_alone(tmp_path, monkeypatch, capsys):
    # seed 1 fails at step 12 of 18: seeds 0 and 2 still train and leave
    # their solo files, seed 1 leaves its solo failed run's, and the command
    # exits 3 once all three are written
    sets = ["--set", "method=dnet", "--set", "classes=3", "--set", "n_max=60",
            "--set", "imbalance=10", "--set", "dim=4", "--set", "m_per_class=4",
            "--set", "epochs=2", "--set", "batch_size=8", "--set", "meta_batch_size=8",
            "--set", "hidden=8"]

    def train(sub, seeds, row=None):
        (tmp_path / sub).mkdir()
        with monkeypatch.context() as m:
            m.chdir(tmp_path / sub)  # the same relative out_dir in run_config.txt
            if row is not False:
                poison_seed(m, row, from_step=12)
            return main(["train", *sets, "--set", f"seeds={seeds}", "--set", "out_dir=runs"])

    assert train("together", "0,1,2", row=1) == 3
    err = capsys.readouterr().err
    assert "non-finite classifier gradient in the classifier phase at step 12" in err
    assert train("bad1", "1") == 3
    assert train("good", "0,2", row=False) == 0
    for seed, ref in ((0, "good"), (1, "bad1"), (2, "good")):
        got = run_files(tmp_path / "together" / "runs" / "dnet" / f"seed{seed}")
        assert got == run_files(tmp_path / ref / "runs" / "dnet" / f"seed{seed}"), seed
        assert ("classifier.ltnn" in got) == (seed != 1)
    lines = (tmp_path / "together" / "runs" / "dnet" / "seed1" / "metrics.csv").read_text(
        "ascii").splitlines()
    assert len(lines) == 2  # header and the first epoch of 9 steps


# ---------------------------------------------------------------- second stage

def test_crt_existing_appends_row_and_checkpoint(runs_dir, tmp_path):
    work = tmp_path / "copy"
    shutil.copytree(runs_dir / "ce", work / "ce")
    cfg = base_cfg(work, method="ce", crt_steps=8)
    before = (work / "ce" / "seed0" / "metrics.csv").read_text("ascii").splitlines()
    rows = crt_existing(cfg)
    after = (work / "ce" / "seed0" / "metrics.csv").read_text("ascii").splitlines()
    assert len(after) == len(before) + 1
    assert after[-1].split(",")[0] == str(int(before[-1].split(",")[0]) + 1)
    assert (work / "ce" / "seed0" / "classifier_crt.ltnn").exists()
    assert len(rows) == 1 and rows[0].method == "ce"


def test_crt_scores_with_the_runs_split_thresholds(runs_dir, tmp_path):
    # the stage-2 row joins stage-1 rows scored with the run's thresholds,
    # so the invoking command's thresholds change none of its cells
    for name in ("same", "other"):
        shutil.copytree(runs_dir / "ce", tmp_path / name / "ce")
    crt_existing(base_cfg(tmp_path / "same", method="ce"))
    crt_existing(base_cfg(tmp_path / "other", method="ce", many_min=30, few_max=25))
    same, other = ((tmp_path / name / "ce" / "seed0" / "metrics.csv").read_bytes()
                   for name in ("same", "other"))
    assert same == other


def test_crt_existing_is_idempotent(runs_dir, tmp_path):
    shutil.copytree(runs_dir / "dnet", tmp_path / "dnet")
    cfg = base_cfg(tmp_path, method="dnet")
    metrics = tmp_path / "dnet" / "seed0" / "metrics.csv"
    crt_existing(cfg)
    once = metrics.read_bytes()
    crt_existing(cfg)
    assert metrics.read_bytes() == once


class _HalfWriter:
    """A file whose first write stores half its text, then fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        self.write("".join(lines))


def test_interrupted_crt_leaves_metrics_csv_intact(runs_dir, tmp_path, monkeypatch):
    shutil.copytree(runs_dir / "ce", tmp_path / "ce")
    metrics = tmp_path / "ce" / "seed0" / "metrics.csv"
    before = metrics.read_bytes()
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if "metrics.csv" in str(file) and "w" in mode else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError):
        crt_existing(base_cfg(tmp_path, method="ce"))
    monkeypatch.undo()
    assert metrics.read_bytes() == before
    assert not [n for n in os.listdir(metrics.parent) if n.endswith(".tmp")]


@pytest.mark.parametrize("name, phase, method", [
    pytest.param("_meta_gradient", "meta", "dnet", id="_meta_gradient-meta"),
    pytest.param("dnet_forward", "weighting", "dnet", id="dnet_forward-weighting"),
    pytest.param("classifier_objective", "classifier", "dnet", id="classifier_objective-classifier"),
    # a fixed rule weights once per accuracy refresh, so its check runs then
    pytest.param("dnet_forward", "weighting", "cdb", id="dnet_forward-weighting-cdb"),
])
def test_non_finite_value_is_caught_in_its_phase(tmp_path, monkeypatch, name, phase, method):
    # from the first step of the second epoch on, the named function's
    # output turns NaN; the run stops there and flushes the first epoch
    cfg = base_cfg(tmp_path, method=method)
    epochs_done = []
    evaluate, real = metatrain.evaluate_epoch, getattr(metatrain, name)

    def counted(*args):
        out = evaluate(*args)
        epochs_done.append(out)
        return out

    def poisoned(*args):
        out = real(*args)
        if not epochs_done:
            return out
        return tuple(o * np.nan for o in out) if isinstance(out, tuple) else out * np.nan

    monkeypatch.setattr(metatrain, "evaluate_epoch", counted)
    monkeypatch.setattr(metatrain, name, poisoned)
    with pytest.raises(NumericError) as info:
        run(cfg)
    train_set, _ = build_datasets(cfg)
    assert (info.value.phase, info.value.step) == (phase, train_set.size // cfg.batch_size)
    assert f"in the {phase} phase at step" in str(info.value)
    rows = (tmp_path / method / "seed0" / "metrics.csv").read_text("ascii").splitlines()
    assert len(rows) == 2  # header and the first epoch


def test_crt_existing_uses_the_runs_recorded_head(tmp_path):
    # stage 2 under a default (linear) config must rebuild a cosine run as
    # cosine: the files equal those of an in-run cosine stage 2
    run(base_cfg(tmp_path / "later", method="dnet", head="cosine"))
    crt_existing(base_cfg(tmp_path / "later", method="dnet"))
    run(base_cfg(tmp_path / "inrun", method="dnet", head="cosine", stage2="crt"))
    for name in ("metrics.csv", "classifier_crt.ltnn"):
        assert ((tmp_path / "later" / "dnet" / "seed0" / name).read_bytes()
                == (tmp_path / "inrun" / "dnet" / "seed0" / name).read_bytes())


def test_crt_uses_the_runs_recorded_weight_decay(tmp_path):
    # stage 2 under the default decay must retrain a run trained with another
    # decay as that run's own in-run stage 2 does
    run(base_cfg(tmp_path / "later", method="ce", classifier_weight_decay=0.05))
    crt_existing(base_cfg(tmp_path / "later", method="ce"))
    run(base_cfg(tmp_path / "inrun", method="ce", classifier_weight_decay=0.05, stage2="crt"))
    for name in ("metrics.csv", "classifier_crt.ltnn"):
        assert ((tmp_path / "later" / "ce" / "seed0" / name).read_bytes()
                == (tmp_path / "inrun" / "ce" / "seed0" / name).read_bytes())


def test_crt_uses_the_runs_recorded_data(tmp_path):
    # a classes=3 run retrained by `ltlab crt` under the default classes=10
    # config: stage 2 must train on the run's own data, as in-run stage 2 does
    run(base_cfg(tmp_path / "later", method="ce"))
    assert main(["crt", "--set", "method=ce", "--set", "seeds=0", "--set", "crt_steps=8",
                 "--set", f"out_dir={tmp_path / 'later'}"]) == 0
    run(base_cfg(tmp_path / "inrun", method="ce", stage2="crt"))
    later, inrun = (tmp_path / d / "ce" / "seed0" for d in ("later", "inrun"))
    assert (later / "classifier_crt.ltnn").read_bytes() == (inrun / "classifier_crt.ltnn").read_bytes()
    assert ((later / "metrics.csv").read_text("ascii").splitlines()[-1]
            == (inrun / "metrics.csv").read_text("ascii").splitlines()[-1])


def test_a_retired_key_in_run_config_exits_2_in_report_and_crt(runs_dir, tmp_path, capsys):
    # record_losses was retired like any key that no file needs: a
    # run_config.txt that still holds it is read as holding an unknown key
    out = tmp_path / "old"
    shutil.copytree(runs_dir / "ce", out / "ce")
    rc = out / "ce" / "seed0" / "run_config.txt"
    rc.write_text(rc.read_text("utf-8") + "record_losses = false\n", encoding="utf-8")
    line = len(rc.read_text("utf-8").splitlines())
    before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
    capsys.readouterr()
    for argv in (["report", str(out)],
                 ["crt", "--set", "method=ce", "--set", "seeds=0", "--set", f"out_dir={out}"]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"config error: unknown config key 'record_losses' ({rc}:{line})\n")
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before


def test_crt_existing_requires_stage1_checkpoint(tmp_path):
    with pytest.raises(ConfigError, match="checkpoint"):
        crt_existing(base_cfg(tmp_path, method="ce"))


def test_stage2_in_run_adds_crt_record(tmp_path):
    cfg = base_cfg(tmp_path, method="ce", epochs=1, stage2="crt", crt_steps=8)
    rows = run(cfg)
    d = tmp_path / "ce" / "seed0"
    lines = (d / "metrics.csv").read_text("ascii").splitlines()
    assert len(lines) == 3  # header, epoch 0, crt row
    assert (d / "classifier_crt.ltnn").exists()
    assert rows[0].overall == float(lines[-1].split(",")[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stage2_divergence_exits_3_and_keeps_stage1_files(tmp_path):
    # a diverging stage 2 stops `ltlab train` and `ltlab crt` with exit 3;
    # the stage-1 files are those of a stage2=none run, and no stage-2
    # checkpoint is left, not even one from an earlier run in the directory
    small = ["--set", "method=ce", "--set", "classes=3", "--set", "n_max=60",
             "--set", "imbalance=10", "--set", "dim=4", "--set", "m_per_class=4",
             "--set", "epochs=2", "--set", "batch_size=8", "--set", "meta_batch_size=8",
             "--set", "hidden=8", "--set", "seeds=0", "--set", "crt_steps=8"]
    bad, ref = tmp_path / "bad", tmp_path / "ref"
    assert main(["train", *small, "--set", "stage2=crt", "--set", f"out_dir={bad}"]) == 0
    assert (bad / "ce" / "seed0" / "classifier_crt.ltnn").exists()
    diverge = ["--set", "crt_lr=1e300", "--set", f"out_dir={bad}"]
    assert main(["train", *small, "--set", "stage2=crt", *diverge]) == 3
    assert main(["train", *small, "--set", f"out_dir={ref}"]) == 0
    got, want = bad / "ce" / "seed0", ref / "ce" / "seed0"
    # run_config.txt too; the failed run also records its failure
    assert sorted(os.listdir(got)) == sorted(os.listdir(want) + ["failure.csv"])
    for name in ("classifier.ltnn", "metrics.csv"):
        assert (got / name).read_bytes() == (want / name).read_bytes()
    assert main(["crt", *small, *diverge]) == 3
    assert not (got / "classifier_crt.ltnn").exists()
    assert (got / "metrics.csv").read_bytes() == (want / "metrics.csv").read_bytes()


CRT_PAIR = ["--set", "method=ce", "--set", "classes=3", "--set", "n_max=60",
            "--set", "imbalance=2", "--set", "m_per_class=5", "--set", "epochs=1",
            "--set", "batch_size=16", "--set", "meta_batch_size=8", "--set", "crt_steps=8",
            "--set", "seeds=0,1"]


def test_a_seed_whose_crt_fails_stops_alone(tmp_path, monkeypatch):
    # `ltlab crt` keeps `ltlab train`'s rule: seed 0's stage 2 fails, seed 1
    # is still retrained, and the command exits 3 after both; each seed
    # leaves the files that `train --set stage2=crt` leaves under the same
    # failure, but for the stage2 line of run_config.txt
    real = harness.crt_retrain

    def retrain(model, train_set, steps, batch_size, opt_spec, seed):
        if seed == 0:
            raise NumericError("stage2", 3, "classifier gradient")
        return real(model, train_set, steps, batch_size, opt_spec, seed)

    later, ref = tmp_path / "later", tmp_path / "ref"
    assert main(["train", *CRT_PAIR, "--set", f"out_dir={later}"]) == 0
    monkeypatch.setattr(harness, "crt_retrain", retrain)
    assert main(["crt", *CRT_PAIR, "--set", f"out_dir={later}"]) == 3
    assert main(["train", *CRT_PAIR, "--set", "stage2=crt", "--set", f"out_dir={ref}"]) == 3
    for seed in (0, 1):
        got, want = (run_files(root / "ce" / f"seed{seed}") for root in (later, ref))
        assert got.pop("run_config.txt") != want.pop("run_config.txt")
        assert got == want, seed
    seed0, seed1 = (run_files(later / "ce" / f"seed{seed}") for seed in (0, 1))
    assert "failure.csv" in seed0 and "classifier_crt.ltnn" not in seed0
    assert "classifier_crt.ltnn" in seed1 and "failure.csv" not in seed1
    assert len(seed1["metrics.csv"].decode("ascii").splitlines()) == 3  # header, epoch 0, crt


def _tree(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("seed1", ["no-run", "malformed-metrics"])
def test_crt_that_cannot_read_a_seeds_run_writes_nothing(seed1, tmp_path, capsys):
    # every seed's run is read before any is retrained: seed 0's run stays
    # as it was when seed 1's cannot be read
    out = ["--set", f"out_dir={tmp_path}"]
    seeds = "0" if seed1 == "no-run" else "0,1"
    assert main(["train", *CRT_PAIR, "--set", f"seeds={seeds}", *out]) == 0
    if seed1 == "malformed-metrics":
        _non_ascii(tmp_path / "ce" / "seed1" / "metrics.csv")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(["crt", *CRT_PAIR, *out]) == 2
    assert str(tmp_path / "ce" / "seed1") in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failing_stage2_does_not_stop_the_next_seed(tmp_path):
    # both seeds' stage 2 diverge: each leaves its stage-1 files and its
    # manifest, and the first failure is raised after both
    with pytest.raises(NumericError) as info:
        run(base_cfg(tmp_path, method="ce", seeds=(0, 1), stage2="crt", crt_lr=1e300))
    assert info.value.phase == "stage2"
    for seed in (0, 1):
        names = set(os.listdir(tmp_path / "ce" / f"seed{seed}"))
        assert {"classifier.ltnn", "metrics.csv", "manifest.json"} <= names
        assert "classifier_crt.ltnn" not in names


def test_rerun_without_stage2_leaves_no_stage2_checkpoint(tmp_path):
    # ensemble scores classifier_crt.ltnn only for a metrics.csv row past
    # epochs, yet one left by an earlier stage2=crt run would still be a
    # model that this run's metrics.csv does not describe
    old, ref = tmp_path / "old", tmp_path / "ref"
    run(base_cfg(old, method="ce", stage2="crt"))
    assert (old / "ce" / "seed0" / "classifier_crt.ltnn").exists()
    run(base_cfg(old, method="ce", epochs=1))
    run(base_cfg(ref, method="ce", epochs=1))
    got, want = old / "ce" / "seed0", ref / "ce" / "seed0"
    assert sorted(os.listdir(got)) == sorted(os.listdir(want))
    assert (got / "classifier.ltnn").read_bytes() == (want / "classifier.ltnn").read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_rerun_leaves_no_checkpoint_of_the_earlier_run(tmp_path):
    # the failed run's metrics.csv and run_config.txt replace the good run's,
    # so none of the good run's models may stay for crt or ensemble to use
    run(base_cfg(tmp_path, method="dnet", stage2="crt"))
    d = tmp_path / "dnet" / "seed0"
    models = {"classifier.ltnn", "dnet.ltnn", "classifier_crt.ltnn"}
    assert models <= set(os.listdir(d))
    with pytest.raises(NumericError):
        run(base_cfg(tmp_path, method="dnet", alpha=1e200, classifier_optimizer="adam"))
    assert not models & set(os.listdir(d))
    assert (d / "metrics.csv").exists()
    with pytest.raises(ConfigError, match="checkpoint"):
        crt_existing(base_cfg(tmp_path, method="dnet"))


def test_an_interrupted_rerun_leaves_no_file_of_the_earlier_run(runs_dir, tmp_path, monkeypatch):
    # a rerun stopped after its first write: the earlier run's metrics,
    # config and models would pass for the new classifier's, and crt would
    # retrain that classifier into the earlier run's metrics.csv; without a
    # metrics.csv the run has no result for ensemble to score
    run(base_cfg(tmp_path, method="dnet", stage2="crt"))
    real = harness.save_checkpoint

    def interrupted(*args, **kwargs):
        real(*args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "save_checkpoint", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(base_cfg(tmp_path, method="dnet", epochs=1, alpha=0.05))
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path / "dnet" / "seed0")) == [
        "classifier.ltnn", "manifest.json", "run_config.txt"]
    with pytest.raises(ConfigError, match="dnet.ltnn"):
        crt_existing(base_cfg(tmp_path, method="dnet"))
    members = (str(runs_dir / "ce" / "seed0"), str(tmp_path / "dnet" / "seed0"))
    with pytest.raises(FileNotFoundError, match="metrics.csv"):
        ensemble_existing(base_cfg(tmp_path / "ens", ensemble_members=members))


@pytest.mark.parametrize("name", ["run_config.txt", "classifier.ltnn", "dnet.ltnn", "metrics.csv",
                                  "weights_trace.csv", "classifier_crt.ltnn"])
def test_no_interrupted_write_leaves_metrics_without_run_config(name, tmp_path, monkeypatch):
    # train stopped as it starts to write a file: report would leave out a
    # metrics.csv without its run_config.txt, so no directory may hold one
    def interrupt_at(write, path_arg):
        def hooked(*args, **kwargs):
            if os.path.basename(args[path_arg]) == name:
                raise KeyboardInterrupt
            return write(*args, **kwargs)

        return hooked

    monkeypatch.setattr(harness, "atomic_write", interrupt_at(harness.atomic_write, 0))
    monkeypatch.setattr(harness, "save_checkpoint", interrupt_at(harness.save_checkpoint, 1))
    with pytest.raises(KeyboardInterrupt):
        run(base_cfg(tmp_path, method="dnet", epochs=1, stage2="crt"))
    monkeypatch.undo()
    assert [p.parent for p in tmp_path.rglob("metrics.csv")
            if not (p.parent / "run_config.txt").exists()] == []


@pytest.mark.parametrize("file_at", ["dnet", "dnet/seed1"])
def test_train_rejects_a_run_dir_that_is_a_file_before_training(file_at, tmp_path, monkeypatch):
    # a file where a run directory or its parent must go: nothing trains,
    # and no seed's directory is written
    path = tmp_path / file_at
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("", encoding="ascii")
    real, calls = harness.train_seeds, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "train_seeds", spy)
    with pytest.raises(ConfigError) as info:
        run(base_cfg(tmp_path, method="dnet", seeds=(0, 1)))
    assert str(info.value) == f"{str(path)!r} is not a directory"
    assert calls == []
    assert not (tmp_path / "dnet" / "seed0").exists()


def test_a_rerun_leaves_no_foreign_file(tmp_path):
    old, ref = tmp_path / "old", tmp_path / "ref"
    run(base_cfg(old, method="ce"))
    (old / "ce" / "seed0" / "notes.txt").write_text("kept by hand\n", encoding="ascii")
    run(base_cfg(old, method="ce"))
    run(base_cfg(ref, method="ce"))
    assert sorted(os.listdir(old / "ce" / "seed0")) == sorted(os.listdir(ref / "ce" / "seed0"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stage2_overflowing_evaluation_exits_3(tmp_path, capsys):
    # one cRT step of lr 1e308 leaves a finite final layer whose meta-set
    # logits overflow: its evaluation stops both commands before the
    # stage-2 checkpoint is written
    small = ["--set", "method=ce", "--set", "classes=3", "--set", "n_max=60",
             "--set", "imbalance=10", "--set", "dim=4", "--set", "m_per_class=4",
             "--set", "epochs=1", "--set", "batch_size=8", "--set", "meta_batch_size=8",
             "--set", "hidden=8", "--set", "seeds=0", "--set", "crt_steps=1",
             "--set", "crt_lr=1e308", "--set", f"out_dir={tmp_path}"]
    assert main(["train", *small, "--set", "stage2=crt"]) == 3
    assert "evaluation phase" in capsys.readouterr().err
    assert main(["crt", *small]) == 3
    assert "evaluation phase" in capsys.readouterr().err
    assert not (tmp_path / "ce" / "seed0" / "classifier_crt.ltnn").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_manifest_is_written_last_and_only_by_train(tmp_path, monkeypatch):
    # manifest.json times the whole run: `ltlab train` writes it after stage
    # 2, also after a stage 2 that fails; `ltlab crt` leaves it as it was
    writes = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            writes.append(os.path.basename(args[1] if name == "save_checkpoint" else args[0]))
            return fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapped)

    spy("atomic_write", harness.atomic_write)
    spy("save_checkpoint", harness.save_checkpoint)
    real_retrain = harness.crt_retrain

    def retrain(*args, **kwargs):
        writes.append("stage 2")
        return real_retrain(*args, **kwargs)

    monkeypatch.setattr(harness, "crt_retrain", retrain)
    run(base_cfg(tmp_path, method="ce", stage2="crt"))
    assert writes.count("manifest.json") == 1 and writes[-1] == "manifest.json"
    assert writes.index("classifier_crt.ltnn") < writes.index("manifest.json")

    writes.clear()
    with pytest.raises(NumericError):
        run(base_cfg(tmp_path, method="ce", stage2="crt", crt_lr=1e300))
    assert "classifier_crt.ltnn" not in writes
    assert writes.count("manifest.json") == 1 and writes[-1] == "manifest.json"
    assert writes.index("stage 2") < writes.index("manifest.json")

    manifest = tmp_path / "ce" / "seed0" / "manifest.json"
    before = manifest.read_bytes()
    writes.clear()
    crt_existing(base_cfg(tmp_path, method="ce"))
    assert "classifier_crt.ltnn" in writes and "manifest.json" not in writes
    assert manifest.read_bytes() == before


# -------------------------------------------------------------------- ensemble

def test_ensemble_existing_writes_summary(runs_dir, tmp_path):
    members = (str(runs_dir / "dnet" / "seed0"), str(runs_dir / "ce" / "seed0"))
    cfg = base_cfg(tmp_path / "ens", ensemble_members=members)
    rows, csv_path = ensemble_existing(cfg)
    assert [name for name, _ in rows] == [*members, "ensemble"]
    assert rows[-1][1].overall is not None
    assert csv_path == str(tmp_path / "ens" / "ensemble_metrics.csv")
    csv = (tmp_path / "ens" / "ensemble_metrics.csv").read_text("ascii").splitlines()
    assert csv[0] == "name,overall,many,medium,few"
    assert len(csv) == 4  # two members + the ensemble line
    assert csv[-1].startswith("ensemble,")


def test_ensemble_uses_the_members_recorded_data(tmp_path):
    # classes=3, dim=4 runs ensembled under the default classes=10, dim=16
    # config: members are evaluated on their own data, as in their runs
    r = tmp_path / "r"
    for method in ("ce", "cdb"):
        assert main(["train", "--set", f"method={method}", "--set", "classes=3", "--set", "dim=4",
                     "--set", "meta_batch_size=32", "--set", "seeds=0", "--set", "epochs=1",
                     "--set", f"out_dir={r}"]) == 0
    members = [r / "ce" / "seed0", r / "cdb" / "seed0"]
    assert main(["ensemble", "--set", "ensemble_members=" + ",".join(map(str, members)),
                 "--set", f"out_dir={tmp_path / 'ens'}"]) == 0
    rows = (tmp_path / "ens" / "ensemble_metrics.csv").read_text("ascii").splitlines()[1:3]
    for row, d in zip(rows, members):
        final = (d / "metrics.csv").read_text("ascii").splitlines()[-1]
        assert row.split(",")[1:] == final.split(",")[1:5]


def test_ensemble_members_must_share_data(tmp_path):
    run(base_cfg(tmp_path / "a", method="ce", epochs=1))
    run(base_cfg(tmp_path / "b", method="ce", epochs=1, data_seed=1))
    members = (str(tmp_path / "a" / "ce" / "seed0"), str(tmp_path / "b" / "ce" / "seed0"))
    with pytest.raises(ConfigError, match="different data"):
        ensemble_existing(base_cfg(tmp_path / "ens", ensemble_members=members))


def test_ensemble_needs_two_members(tmp_path):
    with pytest.raises(ConfigError, match="two"):
        ensemble_existing(base_cfg(tmp_path, ensemble_members=("just_one",)))


@pytest.mark.parametrize("spelling", ["same", "dot"])
def test_ensemble_rejects_one_run_named_twice(spelling, runs_dir, tmp_path, capsys):
    # one run is no two-member ensemble, however its directory is spelled
    first = str(runs_dir / "ce" / "seed0")
    second = first if spelling == "same" else str(runs_dir / "ce" / "." / "seed0")
    out = tmp_path / "ens"
    assert main(["ensemble", "--set", f"ensemble_members={first},{second}",
                 "--set", f"out_dir={out}"]) == 2
    assert capsys.readouterr().err == \
        f"config error: ensemble members {first} and {second} are the same run directory\n"
    assert not out.exists()


def test_ensemble_needs_run_config(runs_dir, tmp_path):
    bogus = tmp_path / "notarun"
    bogus.mkdir()
    cfg = base_cfg(tmp_path, ensemble_members=(str(runs_dir / "ce" / "seed0"),
                                               str(bogus)))
    with pytest.raises(ConfigError, match="run_config"):
        ensemble_existing(cfg)


# ------------------------------------------------------------------- reporting

def test_collect_and_summarize(runs_dir):
    rows, failed = collect_rows([str(runs_dir)])
    assert failed == []
    methods = sorted({r.method for r in rows})
    assert methods == ["ce", "dnet"]
    summaries = summarize(rows)
    assert [s.method for s in summaries] == ["ce", "dnet"]
    for s in summaries:
        assert s.seeds == 1
        assert s.median.many is None  # empty split stays empty
        assert s.iqr.overall == 0.0
    text = report_text(summaries)
    assert "dnet" in text and "ce" in text
    assert "-" in text  # the empty many column


@pytest.mark.parametrize("stage2", ["none", "crt"])
def test_run_rows_equal_collected_rows(stage2, tmp_path):
    # run's rows and report's rows come from one builder, through the CSV
    # for report: every value survives the round trip, empty splits included
    out = tmp_path / stage2
    returned = run(base_cfg(out, method="dnet", seeds=(0, 1), stage2=stage2))
    collected, _ = collect_rows([str(out)])
    names = ("method", "seed", "overall", "many", "medium", "few")

    def key(r):
        return tuple(getattr(r, n) for n in names)

    assert sorted(map(key, collected)) == sorted(map(key, returned))
    assert all(r.many is None for r in returned)


@pytest.mark.parametrize("second", ["ce/seed0", "."])
def test_report_counts_each_run_directory_once(second, runs_dir, capsys):
    # a run that two paths reach is one run: one row, one seed in the table
    rows, _ = collect_rows([str(runs_dir), os.path.join(runs_dir, second)])
    assert sorted((r.method, r.seed) for r in rows) == [("ce", 0), ("dnet", 0)]
    assert main(["report", str(runs_dir), os.path.join(runs_dir, second)]) == 0
    table = capsys.readouterr().out.splitlines()[2:]
    assert [line.split()[:2] for line in table] == [["ce", "1"], ["dnet", "1"]]


def test_report_leaves_out_a_failed_run_once_in_its_first_spelling(runs_dir, tmp_path, capsys):
    shutil.copytree(runs_dir / "ce", tmp_path / "ce")
    (tmp_path / "ce" / "seed0" / "failure.csv").write_text(
        "phase,step,quantity\nclassifier,3,classifier gradient\n", encoding="ascii")
    first = os.path.join(tmp_path, "ce", ".", "seed0")
    assert main(["report", first, str(tmp_path)]) == 0
    failure = NumericError("classifier", 3, "classifier gradient")
    assert capsys.readouterr().out.splitlines()[2:] == [f"left out {first}: {failure}"]


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_cli_report_on_no_directory_exits_2(kind, tmp_path, capsys):
    path = tmp_path / "runs"
    if kind == "file":
        path.write_text("", encoding="ascii")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: no directory {str(path)!r} to report\n"
    # a directory without runs is an empty table
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_collect_rows_direct_run_dir(runs_dir):
    rows, _ = collect_rows([str(runs_dir / "dnet" / "seed0")])
    assert len(rows) == 1
    assert rows[0].method == "dnet" and rows[0].seed == 0


def test_report_leaves_out_a_run_without_run_config_or_epochs(runs_dir, tmp_path, capsys):
    # a run counts by its run_config.txt and the last row of its
    # metrics.csv: a metrics.csv without the config, wherever it lies, and
    # an epochs = 0 run, which train prints as overall=nan, give one line
    # each after the table and no row
    shutil.copytree(runs_dir / "ce", tmp_path / "ce")
    (tmp_path / "ce" / "seed0" / "run_config.txt").unlink()
    (tmp_path / "focal" / "latest").mkdir(parents=True)
    shutil.copy(runs_dir / "ce" / "seed0" / "metrics.csv", tmp_path / "focal" / "latest")
    (row,) = run(base_cfg(tmp_path, method="dnet", epochs=0))
    assert np.isnan(row.overall)
    assert collect_rows([str(tmp_path)])[0] == []
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"left out {tmp_path / 'ce' / 'seed0'}: no run_config.txt",
        f"left out {tmp_path / 'dnet' / 'seed0'}: no epochs in metrics.csv",
        f"left out {tmp_path / 'focal' / 'latest'}: no run_config.txt"]


def test_report_leaves_out_a_run_whose_stage2_did_not_finish(tmp_path, monkeypatch, capsys):
    # train with stage2 = crt stopped as stage 2 starts: the run's
    # metrics.csv holds stage 1 alone, no result of the config it records.
    # A stage2 = none run retrained by crt and a stage-2 run of no epochs
    # still count.
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "crt_retrain", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(base_cfg(tmp_path / "cut", method="ce", epochs=1, stage2="crt"))
    monkeypatch.undo()
    cut = tmp_path / "cut" / "ce" / "seed0"
    assert sorted(os.listdir(cut)) == [
        "classifier.ltnn", "manifest.json", "metrics.csv", "run_config.txt"]
    run(base_cfg(tmp_path / "later", method="ce", epochs=1))
    crt_existing(base_cfg(tmp_path / "later", method="ce"))
    run(base_cfg(tmp_path / "zero", method="ce", epochs=0, stage2="crt"))
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2].split()[:2] == ["ce", "2"]
    assert out[3:] == [f"left out {cut}: stage 2 did not finish"]


def _cut(monkeypatch, name, after):
    """Make harness.<name> raise KeyboardInterrupt, in place of its work or
    after it."""
    real = getattr(harness, name)

    def hooked(*args, **kwargs):
        if after:
            real(*args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, name, hooked)


COUNTED = ("stage2-none", "stage2-crt", "none-then-crt", "crt-cut-before-metrics")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("state", [*COUNTED, "crt-cut-at-retrain", "no-epochs", "stage2-diverged"])
def test_ensemble_takes_exactly_the_runs_report_counts(state, runs_dir, tmp_path, monkeypatch):
    # one rule decides a run's result: ensemble accepts a member exactly
    # when report counts its run, rejects it with report's reason
    # otherwise, and scores the checkpoint of the metrics.csv row that
    # report counts
    cfg = base_cfg(tmp_path / "runs", method="ce", epochs=0 if state == "no-epochs" else 2)
    crt_cfg = replace(cfg, stage2="crt")
    if state in ("stage2-none", "no-epochs"):
        run(cfg)
    elif state == "stage2-crt":
        run(crt_cfg)
    elif state == "crt-cut-at-retrain":
        _cut(monkeypatch, "crt_retrain", after=False)
        with pytest.raises(KeyboardInterrupt):
            run(crt_cfg)
    elif state == "stage2-diverged":
        with pytest.raises(NumericError):
            run(replace(crt_cfg, crt_lr=1e300))
    else:
        run(cfg)
        if state == "none-then-crt":
            crt_existing(cfg)
        else:  # classifier_crt.ltnn written, metrics.csv not yet
            _cut(monkeypatch, "save_checkpoint", after=True)
            with pytest.raises(KeyboardInterrupt):
                crt_existing(cfg)
    monkeypatch.undo()
    run_dir = tmp_path / "runs" / "ce" / "seed0"
    rows, left_out = collect_rows([str(run_dir)])
    assert len(rows) == (state in COUNTED)
    ens = base_cfg(tmp_path / "ens", ensemble_members=(str(runs_dir / "dnet" / "seed0"),
                                                       str(run_dir)))
    if not rows:
        (line,) = left_out
        with pytest.raises(ConfigError) as info:
            ensemble_existing(ens)
        assert str(info.value).startswith(f"ensemble member {run_dir} ")
        assert str(info.value).endswith(line.removeprefix(f"left out {run_dir}"))
        return
    ensemble_existing(ens)
    member = (tmp_path / "ens" / "ensemble_metrics.csv").read_text("ascii").splitlines()[2]
    counted = (run_dir / "metrics.csv").read_text("ascii").splitlines()[-1]
    assert member.split(",")[1:] == counted.split(",")[1:5]


@pytest.mark.parametrize("manifest", [b"[1,2]\n", b"{not json\xff"], ids=["list", "not-json"])
def test_report_reads_no_manifest(manifest, runs_dir, tmp_path, capsys):
    # manifest.json holds wall-clock times that report never prints: a bad
    # one changes neither its output nor its exit code
    shutil.copytree(runs_dir, tmp_path / "runs")
    outs = []
    for name in ("valid", "bad"):
        if name == "bad":
            for path in (tmp_path / "runs").glob("*/seed0/manifest.json"):
                path.write_bytes(manifest)
        csv_path = tmp_path / f"{name}.csv"
        capsys.readouterr()
        code = main(["report", str(tmp_path / "runs"), "--csv", str(csv_path)])
        outs.append((code, capsys.readouterr().out, csv_path.exists() and csv_path.read_bytes()))
    assert outs[0][0] == 0
    assert outs[1] == outs[0]


def _bad_float(path):
    """The last row's overall cell is no number."""
    header, *rows = path.read_text("ascii").splitlines()
    cells = rows[-1].split(",")
    cells[1] = "0.5x"
    path.write_text("\n".join([header, *rows[:-1], ",".join(cells)]) + "\n", encoding="ascii")


def _non_ascii(path):
    path.write_bytes(path.read_bytes() + b"\xff\n")


def _short_row(path):
    """The last row keeps its epoch and overall cells alone, under the full
    header: its other splits would read as empty."""
    header, *rows = path.read_text("ascii").splitlines()
    short = ",".join(rows[-1].split(",")[:2])
    path.write_text("\n".join([header, *rows[:-1], short]) + "\n", encoding="ascii")


@pytest.mark.parametrize("command, corrupt", [
    ("report", _bad_float),
    ("report", _non_ascii),
    ("crt", _non_ascii),
    ("report", _short_row),
    ("ensemble", _short_row),
], ids=["report-bad-float", "report-non-ascii", "crt-non-ascii", "report-short-row",
        "ensemble-short-row"])
def test_cli_malformed_run_file_exits_2(command, corrupt, runs_dir, tmp_path, capsys):
    shutil.copytree(runs_dir / "ce", tmp_path / "ce")
    path = tmp_path / "ce" / "seed0" / "metrics.csv"
    corrupt(path)
    if command == "crt":
        args = ["--set", "method=ce", "--set", "seeds=0", "--set", f"out_dir={tmp_path}"]
    elif command == "ensemble":
        members = f"{runs_dir / 'dnet' / 'seed0'},{tmp_path / 'ce' / 'seed0'}"
        args = ["--set", f"ensemble_members={members}", "--set", f"out_dir={tmp_path / 'ens'}"]
    else:
        args = [str(tmp_path)]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err


# ------------------------------------------------------------------------ CLI

def test_cli_gen_data_and_train(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config_text(base_cfg(tmp_path / "out", method="ce", epochs=1)),
                        encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    assert "train.ltds" in capsys.readouterr().out
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "ce seed=0 overall=" in out
    assert "many=-" in out  # empty split prints a dash


def test_cli_report(runs_dir, tmp_path, capsys):
    csv_path = tmp_path / "summary.csv"
    assert main(["report", str(runs_dir), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "method" in out and "dnet" in out
    header = csv_path.read_text("ascii").splitlines()[0]
    assert header == ("method,seeds,overall_median,overall_iqr,many_median,many_iqr,"
                      "medium_median,medium_iqr,few_median,few_iqr")


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["train", "--set", "method=bogus"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["train", "--set", "lamda=0.3"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.ltds"
    bad.write_text("not a header\n", encoding="ascii")
    code = main(["train", "--set", f"train_file={bad}",
                 "--set", f"meta_file={bad}"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_label_beyond_int64_exits_2(tmp_path, capsys):
    # a header C beyond int64 lets such a label pass the range check
    path = tmp_path / "huge.ltds"
    path.write_text("#LTDS C=100000000000000000000 DIM=1\n99999999999999999999,1.0\n",
                    encoding="ascii")
    assert main(["train", "--set", f"train_file={path}", "--set", f"meta_file={path}",
                 "--set", f"out_dir={tmp_path / 'out'}"]) == 2
    assert "line 2: label 99999999999999999999 does not fit int64" in capsys.readouterr().err


def test_cli_non_ascii_dataset_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.ltds"
    path.write_bytes(b"#LTDS C=2 DIM=1\n0,1.0\n1,2\xff\n")
    assert main(["train", "--set", f"train_file={path}", "--set", f"meta_file={path}",
                 "--set", f"out_dir={tmp_path / 'out'}"]) == 2
    assert f"{path}: not an ASCII text file" in capsys.readouterr().err


@pytest.mark.parametrize("bad, line, message", [
    ("meta", b"0,1.0,2.0", "line 2: expected 17 comma-separated fields, got 3"),
    ("train", b"0,1.0,2.0", "line 2: expected 17 comma-separated fields, got 3"),
    ("meta", b"0,1.0,2\xff", "not an ASCII text file"),
], ids=["meta-fields", "train-fields", "meta-non-ascii"])
def test_cli_malformed_dataset_names_its_file_once(bad, line, message, tmp_path, capsys):
    # gen-data's pair with one file cut to its header and a bad line 2: the
    # error names the file at fault, once
    data = tmp_path / "data"
    assert main(["gen-data", "--set", f"out_dir={data}"]) == 0
    path = data / f"{bad}.ltds"
    path.write_bytes(path.read_bytes().splitlines()[0] + b"\n" + line + b"\n")
    capsys.readouterr()
    assert main(["train", "--set", f"train_file={data / 'train.ltds'}",
                 "--set", f"meta_file={data / 'meta.ltds'}",
                 "--set", f"out_dir={tmp_path / 'out'}"]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"


def test_cli_oversized_meta_batch_exits_2(tmp_path, capsys):
    # 4 classes x 5 meta samples cannot fill the default meta batch of 64
    code = main(["train", "--set", "classes=4", "--set", "m_per_class=5",
                 "--set", f"out_dir={tmp_path}"])
    assert code == 2
    assert "meta_batch_size" in capsys.readouterr().err


@pytest.mark.parametrize("sets,keyword", [
    (("trace_classes=99",), "trace"),
], ids=["trace_classes"])
def test_cli_config_that_does_not_fit_the_data_exits_2(sets, keyword, tmp_path, capsys):
    # train checks these against the data; they exit 2 like any config error
    out = tmp_path / "x"
    argv = ["train", "--set", "epochs=1", "--set", "seeds=0", "--set", f"out_dir={out}"]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    assert keyword in capsys.readouterr().err
    assert not out.exists()


def test_cli_repeated_seed_exits_2(tmp_path, capsys):
    # a seed named twice would train twice in one stack into one directory
    out = tmp_path / "x"
    assert main(["train", "--set", "method=ce", "--set", "seeds=3,3", "--set", "epochs=1",
                 "--set", f"out_dir={out}"]) == 2
    assert capsys.readouterr().err == "config error: seeds must not list an item twice\n"
    assert not out.exists()


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    # numpy refuses a negative seed only once the data are built
    out = tmp_path / "x"
    assert main(["train", "--set", "method=ce", "--set", "seeds=-1", "--set", "epochs=1",
                 "--set", f"out_dir={out}"]) == 2
    assert capsys.readouterr().err == "config error: seeds must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["report-csv", "gen-data", "train", "crt"])
def test_cli_a_file_it_cannot_read_or_write_exits_2(case, runs_dir, tmp_path, monkeypatch,
                                                    capsys):
    # one config error line that names the user's path, not a temp file's
    path = tmp_path / "afile"
    path.write_text("", encoding="ascii")
    argv = [case, "--set", "method=ce", "--set", "seeds=0", "--set", "classes=3",
            "--set", "n_max=60", "--set", "imbalance=10", "--set", "m_per_class=4",
            "--set", f"out_dir={path}"]
    if case == "report-csv":
        path = tmp_path / "nodir" / "s.csv"
        argv = ["report", str(runs_dir), "--csv", str(path)]
    elif case == "train":  # rejected before the data are built
        monkeypatch.setattr(harness, "build_datasets", None)
    elif case == "crt":
        shutil.copytree(runs_dir / "ce", tmp_path / "ce")
        path = tmp_path / "ce" / "seed0" / "metrics.csv"
        path.unlink()
        argv = ["crt", "--set", "method=ce", "--set", "seeds=0", "--set", f"out_dir={tmp_path}"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(path) in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", *(["ce"] if case == "crt" else [])]


def test_cli_config_error_leaves_no_run_dir(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["train", "--set", "classes=4", "--set", "m_per_class=5",
                 "--set", f"out_dir={out}"])
    assert code == 2
    assert not out.exists()


def test_cli_non_positive_cosine_scale_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["train", "--set", "head=cosine", "--set", "cosine_scale=0", "--set", "epochs=1",
                 "--set", "seeds=0", "--set", f"out_dir={out}"])
    assert code == 2
    assert "cosine_scale" in capsys.readouterr().err
    assert not out.exists()


def test_cli_negative_focal_gamma_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["train", "--set", "method=focal", "--set", "focal_gamma=-1", "--set", "epochs=1",
                 "--set", "seeds=0", "--set", f"out_dir={out}"])
    assert code == 2
    assert "focal_gamma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [("crt", "classifier.ltnn"), ("crt", "dnet.ltnn"),
                                           ("ensemble", "classifier.ltnn")])
def test_cli_corrupt_checkpoint_exits_2(command, name, runs_dir, tmp_path, capsys):
    args = _copy_runs_for(command, runs_dir, tmp_path)
    path = tmp_path / "dnet" / "seed0" / name
    path.write_bytes(b"garbage")
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{path}: not a checkpoint file" in err


@pytest.mark.parametrize("command, name, other", [("crt", "dnet.ltnn", "classifier.ltnn"),
                                                  ("ensemble", "classifier.ltnn", "dnet.ltnn")])
def test_cli_checkpoint_of_another_net_exits_2(command, name, other, runs_dir, tmp_path, capsys):
    # a readable checkpoint, but of the run's other net
    args = _copy_runs_for(command, runs_dir, tmp_path)
    path = tmp_path / "dnet" / "seed0" / name
    shutil.copyfile(path.with_name(other), path)
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert f"{path}: layers" in err and "do not match the run's" in err


def _copy_runs_for(command, runs_dir, tmp_path):
    """Copies of runs_dir's dnet and ce runs in tmp_path, and the arguments
    that make command read the dnet run's checkpoints there."""
    for method in ("dnet", "ce"):
        shutil.copytree(runs_dir / method, tmp_path / method)
    if command == "crt":
        return ["--set", "method=dnet", "--set", "seeds=0", "--set", f"out_dir={tmp_path}"]
    members = ",".join(str(tmp_path / m / "seed0") for m in ("dnet", "ce"))
    return ["--set", f"ensemble_members={members}", "--set", f"out_dir={tmp_path / 'ens'}"]


DIVERGING = ["--set", "method=ce", "--set", "alpha=30", "--set", "seeds=0"]
DIVERGED = "non-finite classifier gradient in the classifier phase at step 150"


def overflow_checkpoint(path):
    """Scale the checkpoint at path by 1e306: its parameters stay finite
    and its logits overflow."""
    net = load_checkpoint(str(path))
    net.params *= 1e306
    save_checkpoint(net, str(path))


@pytest.mark.parametrize("command, message", [
    ("train", DIVERGED),
    ("crt", "non-finite classifier gradient in the stage2 phase at step 2"),
    ("ensemble", "non-finite meta-set logits in the evaluation phase at step 0"),
], ids=["train", "crt", "ensemble"])
def test_a_numeric_failure_prints_one_line(command, message, runs_dir, tmp_path):
    # numpy's floating-point warnings (overflow in matmul, and for train
    # overflow and invalid value in subtract) would come before the one line
    # that names the phase, step and quantity
    if command == "train":
        args = [*DIVERGING, "--set", f"out_dir={tmp_path}"]
    else:
        args = _copy_runs_for(command, runs_dir, tmp_path)
    if command == "crt":
        args += ["--set", "crt_lr=1e300"]
    if command == "ensemble":
        overflow_checkpoint(tmp_path / "dnet" / "seed0" / "classifier.ltnn")
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.path.dirname(os.path.dirname(ltlab.__file__)))
    done = subprocess.run([sys.executable, "-m", "ltlab.cli", command, *args],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 3
    assert done.stderr == f"numeric failure: {message}\n"


def test_a_crt_evaluation_failure_without_steps_names_step_0(runs_dir, tmp_path, capsys):
    # no stage-2 step ran, so the failure is at step 0, as in ensemble
    args = _copy_runs_for("crt", runs_dir, tmp_path)
    run_dir = tmp_path / "dnet" / "seed0"
    overflow_checkpoint(run_dir / "classifier.ltnn")
    assert main(["crt", *args, "--set", "crt_steps=0"]) == 3
    assert capsys.readouterr().err == \
        "numeric failure: non-finite meta-set logits in the evaluation phase at step 0\n"
    assert (run_dir / "failure.csv").read_text("ascii") == \
        "phase,step,quantity\nevaluation,0,meta-set logits\n"


def test_report_leaves_out_a_failed_run(tmp_path, capsys):
    # the failed run's partial metrics.csv is no result: report prints the
    # run after its table instead, until a run that succeeds replaces it
    sets = [*DIVERGING, "--set", f"out_dir={tmp_path}"]
    assert main(["train", *sets]) == 3
    run_dir = tmp_path / "ce" / "seed0"
    assert (run_dir / "failure.csv").read_text("ascii") == \
        "phase,step,quantity\nclassifier,150,classifier gradient\n"
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [f"left out {run_dir}: {DIVERGED}"]
    assert main(["train", *sets, "--set", "alpha=0.1"]) == 0
    assert "failure.csv" not in os.listdir(run_dir)
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 0
    (row,) = capsys.readouterr().out.splitlines()[2:]
    assert row.split()[:2] == ["ce", "1"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_stage2_is_recorded_until_a_stage2_succeeds(tmp_path):
    with pytest.raises(NumericError) as info:
        run(base_cfg(tmp_path, method="ce", stage2="crt", crt_lr=1e300))
    e = info.value
    failure = tmp_path / "ce" / "seed0" / "failure.csv"
    assert e.phase == "stage2"
    assert failure.read_text("ascii").splitlines() == [
        "phase,step,quantity", f"{e.phase},{e.step},{e.quantity}"]
    assert collect_rows([str(tmp_path)])[0] == []
    crt_existing(base_cfg(tmp_path, method="ce"))
    assert not failure.exists()
    assert len(collect_rows([str(tmp_path)])[0]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_crt_is_recorded_until_a_crt_succeeds(tmp_path, capsys):
    # `ltlab crt` records its failure as `ltlab train` does, so report leaves
    # the run out rather than list its earlier stage-2 result
    run(base_cfg(tmp_path, method="ce", stage2="crt"))
    run_dir = tmp_path / "ce" / "seed0"
    sets = ["--set", "method=ce", "--set", "seeds=0", "--set", "crt_steps=8",
            "--set", f"out_dir={tmp_path}"]
    assert main(["crt", *sets, "--set", "crt_lr=1e300"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    _, [(phase, step, quantity)] = harness._read_csv(str(run_dir / "failure.csv"))
    assert phase == "stage2"
    assert line == f"numeric failure: {NumericError(phase, int(step), quantity)}"
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [f"left out {run_dir}: {line[17:]}"]
    assert main(["crt", *sets]) == 0
    assert "failure.csv" not in os.listdir(run_dir)
    assert len(collect_rows([str(tmp_path)])[0]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ensemble_rejects_a_failed_member(runs_dir, tmp_path, capsys):
    # a run whose stage 2 failed keeps its stage-1 classifier, but it is no
    # result: ensemble rejects it, as report leaves it out
    with pytest.raises(NumericError) as info:
        run(base_cfg(tmp_path, method="ce", stage2="crt", crt_lr=1e300))
    failed = tmp_path / "ce" / "seed0"
    out = tmp_path / "ens"
    assert main(["ensemble", "--set", f"ensemble_members={runs_dir / 'dnet' / 'seed0'},{failed}",
                 "--set", f"out_dir={out}"]) == 2
    assert capsys.readouterr().err == \
        f"config error: ensemble member {failed} failed: {info.value}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_numeric_failure_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        config_text(base_cfg(tmp_path / "out", method="ce", epochs=1,
                             alpha=1e200, classifier_optimizer="adam")),
        encoding="utf-8",
    )
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert "numeric failure" in capsys.readouterr().err
    # the partial run was still flushed for post-mortems
    assert (tmp_path / "out" / "ce" / "seed0" / "metrics.csv").exists()
