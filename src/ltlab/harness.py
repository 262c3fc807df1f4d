"""Experiment harness: flat key=value configs, seeded reproducible runs laid
out one directory per (method, seed), CSV metrics, and report aggregation.

Everything a run writes is byte-reproducible for a fixed config; wall-clock
timestamps live only in manifest.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .baselines import cdb_weights, crt_retrain, effective_number_weights, ensemble_predict, inverse_frequency_weights
from .data import Dataset, FormatError, atomic_write, exp_profile, load_dataset, save_dataset, save_twin, split_meta, synth_gaussian
from .difficulty import DifficultyHead, head_init
from .metatrain import (
    SPLITS,
    ConfigError,
    EpochRecord,
    NumericError,
    OptSpec,
    RunMetrics,
    SplitAccuracy,
    TrainConfig,
    evaluate_epoch,
    evaluate_splits,
    train_seeds,
)
from .nnet import (
    HEADS,
    MLP,
    OPTIMIZERS,
    Classifier,
    check_finite,
    init_mlp,
    load_checkpoint,
    per_class_accuracy,
    save_checkpoint,
    score_accuracy,
)
from .rng import consumer_rng


@dataclass(frozen=True)
class Method:
    """How a method trains: the kind of difficulty head; for a fixed
    weighting scheme, the rule from (config, train class counts, accuracies)
    to class weights (uniform without one); whether the driver term is on
    (off means lam = 0); and whether the classifier loss is focal rather
    than weighted CE."""

    kind: str
    rule: Callable[["ExperimentConfig", np.ndarray, np.ndarray], np.ndarray] | None = None
    driver: bool = True
    focal: bool = False


METHODS = {
    "ce": Method("fixed"),
    "invfreq": Method("fixed", lambda cfg, n, acc: inverse_frequency_weights(n)),
    "effnum": Method("fixed", lambda cfg, n, acc: effective_number_weights(n, cfg.effnum_beta)),
    "cdb": Method("fixed", lambda cfg, n, acc: cdb_weights(acc, cfg.cdb_tau)),
    "focal": Method("fixed", focal=True),
    "dnet": Method("class"),
    "dnet-abs": Method("abs"),
    "dnet-sample": Method("sample"),
    "dnet-nodriver": Method("class", driver=False),
    "dnet-nometa": Method("nometa"),
}


def _parse_list(raw: str, cast: Callable[[str], object] = str) -> tuple:
    """Comma-separated items, each stripped and cast; empty text is ()."""
    raw = raw.strip()
    return tuple(cast(p.strip()) for p in raw.split(",")) if raw else ()


def _parse_trace(raw: str):
    raw = raw.strip()
    if raw in ("auto", "none"):
        return raw
    return _parse_list(raw, int)


@dataclass(frozen=True)
class ExperimentConfig:
    # dataset: explicit files, or synthetic parameters
    train_file: str = ""
    meta_file: str = ""
    classes: int = 10
    n_max: int = 2300
    imbalance: float = 100.0
    dim: int = 16
    separation: float = 2.5
    m_per_class: int = 20
    data_seed: int = 0
    # method and stages
    method: str = "dnet"
    stage2: str = "none"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    # training. The difficulty-net knobs (beta, lam, dnet_weight_decay) are
    # re-tuned for this benchmark's C=10: the driver-loss gradient scales as
    # 2/C, so the general-purpose lam=0.3 pins difficulties to near-uniform
    # targets here, and without decay an unanchored net saturates its sigmoid.
    epochs: int = 30
    batch_size: int = 64
    meta_batch_size: int = 64
    alpha: float = 0.1
    beta: float = 0.03
    lam: float = 0.25
    hidden: int = 64
    head: str = "linear"
    cosine_scale: float = 16.0
    classifier_optimizer: str = "momentum"
    classifier_momentum: float = 0.9
    classifier_weight_decay: float = 1e-4
    dnet_optimizer: str = "adam"
    dnet_weight_decay: float = 3e-3
    # baseline knobs
    cdb_tau: float = 1.0
    effnum_beta: float = 0.999
    focal_gamma: float = 1.0
    # decoupled second stage
    crt_steps: int = 500
    crt_batch_size: int = 64
    crt_lr: float = 0.1
    # output and evaluation
    out_dir: str = "runs"
    trace_classes: object = "auto"  # "auto" | "none" | tuple of ints
    many_min: int = 100
    few_max: int = 20
    ensemble_members: tuple[str, ...] = ()


# fields whose parser is not their default's type
_PARSERS = {"seeds": functools.partial(_parse_list, cast=int), "ensemble_members": _parse_list,
            "trace_classes": _parse_trace}

# config-file key -> (dataclass attr, parser). "lambda" is a Python keyword,
# so it maps onto the lam attribute.
SCHEMA: dict[str, tuple[str, object]] = {
    "lambda" if f.name == "lam" else f.name: (
        f.name,
        _PARSERS.get(f.name) or type(f.default))
    for f in fields(ExperimentConfig)
}

def _apply_kv(values: dict, key: str, raw: str, where: str) -> None:
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r} ({where})")
    attr, parser = SCHEMA[key]
    try:
        values[attr] = parser(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({e})") from None


def parse_config(path: str | None = None, overrides: tuple[str, ...] = ()) -> ExperimentConfig:
    """Read a flat key = value file (optional), then apply key=value overrides."""
    values: dict[str, object] = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            _apply_kv(values, key.strip(), raw.strip(), f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, raw = item.partition("=")
        _apply_kv(values, key.strip(), raw.strip(), "--set")
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    def need(cond, msg):
        if not cond:
            raise ConfigError(msg)

    need(cfg.method in METHODS, f"method must be one of {tuple(METHODS)}, got {cfg.method!r}")
    need(cfg.stage2 in ("none", "crt"), "stage2 must be 'none' or 'crt'")
    need(cfg.head in HEADS, f"head must be one of {HEADS}")
    need(cfg.head != "cosine" or cfg.cosine_scale > 0, "cosine_scale must be positive")
    need(cfg.classifier_optimizer in OPTIMIZERS, f"classifier_optimizer must be one of {OPTIMIZERS}")
    need(cfg.dnet_optimizer in OPTIMIZERS, f"dnet_optimizer must be one of {OPTIMIZERS}")
    need(bool(cfg.seeds), "seeds must list at least one seed")
    need(min(cfg.seeds) >= 0, "seeds must be non-negative")
    need(cfg.data_seed >= 0, "data_seed must be non-negative")
    for name in ("seeds", "trace_classes"):
        items = getattr(cfg, name)
        need(isinstance(items, str) or len(set(items)) == len(items),
             f"{name} must not list an item twice")
    need(cfg.epochs >= 0, "epochs must be non-negative")
    need(cfg.batch_size >= 1 and cfg.meta_batch_size >= 1, "batch sizes must be positive")
    need(cfg.alpha > 0 and cfg.beta > 0, "alpha and beta must be positive")
    need(cfg.lam >= 0, "lambda must be non-negative")
    need(cfg.hidden >= 1, "hidden must be positive")
    need(cfg.many_min > cfg.few_max, "many_min must exceed few_max")
    need(bool(cfg.train_file) == bool(cfg.meta_file),
         "train_file and meta_file must be given together")
    need(cfg.crt_steps >= 0 and cfg.crt_batch_size >= 1 and cfg.crt_lr > 0, "bad crt settings")
    need(cfg.focal_gamma >= 0, "focal_gamma must be non-negative")
    need(cfg.cdb_tau >= 0, "cdb_tau must be non-negative")
    need(0 <= cfg.effnum_beta < 1, "effnum_beta must lie in [0, 1)")


def config_text(cfg: ExperimentConfig) -> str:
    """Resolved config in the same flat format; deterministic content."""
    lines = []
    attr_to_key = {attr: key for key, (attr, _) in SCHEMA.items()}
    for f in fields(cfg):
        key = attr_to_key[f.name]
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            raw = ",".join(str(v) for v in val)
        elif isinstance(val, float):
            raw = repr(val)
        else:
            raw = str(val)
        lines.append(f"{key} = {raw}")
    return "\n".join(lines) + "\n"


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Load the configured files, or synthesize the pool and split it."""
    if cfg.train_file:
        with _malformed(cfg.train_file):
            train = load_dataset(cfg.train_file)
        with _malformed(cfg.meta_file):
            meta = load_dataset(cfg.meta_file)
        if train.class_count != meta.class_count:
            raise ConfigError("train and meta files disagree on class count")
        for path, ds in ((cfg.train_file, train), (cfg.meta_file, meta)):
            if (missing := np.flatnonzero(ds.per_class_counts == 0)).size:
                raise ConfigError(f"{path}: no rows of classes {missing.tolist()}")
        return train, meta
    try:
        counts = exp_profile(cfg.classes, cfg.n_max, cfg.imbalance)
        pool = synth_gaussian(counts, cfg.dim, cfg.separation, cfg.data_seed)
        return split_meta(pool, cfg.m_per_class, cfg.data_seed)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _data_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg's dataset settings, the fields build_datasets reads, on an
    otherwise default config, so runs on the same data compare equal."""
    names = ("train_file", "meta_file", "classes", "n_max", "imbalance", "dim", "separation",
             "m_per_class", "data_seed")
    return ExperimentConfig(**{name: getattr(cfg, name) for name in names})


def gen_data(cfg: ExperimentConfig) -> tuple[str, str]:
    """Write train.ltds and meta.ltds, each with its twin, under out_dir; returns the paths."""
    train, meta = build_datasets(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    train_path = os.path.join(cfg.out_dir, "train.ltds")
    meta_path = os.path.join(cfg.out_dir, "meta.ltds")
    for ds, path in ((train, train_path), (meta, meta_path)):
        save_dataset(ds, path)
        save_twin(ds, path)
    return train_path, meta_path


@dataclass
class ReportRow(SplitAccuracy):
    method: str
    seed: int


def _resolve_trace(cfg: ExperimentConfig, class_count: int) -> tuple[int, ...]:
    if cfg.trace_classes == "auto":
        return tuple(dict.fromkeys((0, class_count // 2, class_count - 1)))  # once each at C < 3
    if cfg.trace_classes == "none":
        return ()
    return tuple(cfg.trace_classes)


def _train_config(cfg: ExperimentConfig, train_set: Dataset) -> TrainConfig:
    """The method's stage-1 settings, its flags as plain values: lam 0
    without the driver term, focal_gamma None unless the loss is focal."""
    method = METHODS[cfg.method]
    return TrainConfig(
        T=cfg.epochs * (train_set.size // cfg.batch_size),
        b=cfg.batch_size,
        m=cfg.meta_batch_size,
        alpha=cfg.alpha,
        lam=cfg.lam if method.driver else 0.0,
        classifier_opt=OptSpec(cfg.classifier_optimizer, cfg.alpha,
                               cfg.classifier_momentum, cfg.classifier_weight_decay),
        dnet_opt=OptSpec(cfg.dnet_optimizer, cfg.beta, 0.9, cfg.dnet_weight_decay),
        many_min=cfg.many_min,
        few_max=cfg.few_max,
        focal_gamma=cfg.focal_gamma if method.focal else None,
        trace_classes=_resolve_trace(cfg, train_set.class_count),
    )


def _fmt(value) -> str:
    """A CSV cell: the float's repr, or empty for None (an empty split)."""
    if value is None:
        return ""
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows) -> None:
    """Every CSV file ltlab writes: the header, then one line per row of
    cells, ASCII with LF line ends, replacing path atomically."""
    with atomic_write(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in rows)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """A CSV file as _write_csv wrote it: (header, rows), blank lines skipped."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        return header, [line.strip().split(",") for line in fh if line.strip()]


def _metrics_row(rec: EpochRecord) -> list[str]:
    """One metrics.csv row; records with a difficulty snapshot fill the
    extended columns."""
    row = [str(rec.epoch), *(_fmt(getattr(rec, name)) for name in SPLITS)]
    if rec.difficulty is not None:
        row.append(_fmt(rec.entropy))
        row += [_fmt(v) for v in rec.difficulty]
    return row


def _build_model(cfg: ExperimentConfig, dim: int, class_count: int, seed: int) -> Classifier:
    rng = consumer_rng(seed, "init", "classifier")
    net = init_mlp([dim, cfg.hidden, class_count], "identity", rng)
    return Classifier(net, cfg.head, cfg.cosine_scale)


def _difficulty_head(cfg: ExperimentConfig, train_set: Dataset, seed: int,
                     run_dir: str | None = None) -> DifficultyHead:
    """The method's difficulty head: freshly initialized, or around the net
    saved in run_dir."""
    method = METHODS[cfg.method]
    width = cfg.batch_size if method.kind == "sample" else train_set.class_count
    rule = method.rule and functools.partial(method.rule, cfg, train_set.per_class_counts)
    head = head_init(method.kind, width, seed, rule)
    if run_dir is None or head.net is None:
        return head
    path = os.path.join(run_dir, "dnet.ltnn")
    if not os.path.exists(path):
        raise ConfigError(f"no dnet.ltnn in {run_dir}")
    return replace(head, net=_load_net(path, head.net))


def _load_net(path: str, like: MLP) -> MLP:
    """The checkpoint at path, which must have like's layer shapes and
    activations."""
    net = load_checkpoint(path)
    if net.layout != like.layout:
        got, want = (", ".join(f"{l.w.shape[1]}->{l.w.shape[0]} {l.act}" for l in n.layers)
                     for n in (net, like))
        raise FormatError(f"{path}: layers {got} do not match the run's {want}")
    return net


def _load_run(run_dir: str, datasets, checkpoint: str
              ) -> tuple[ExperimentConfig, Classifier, Dataset, Dataset]:
    """A run's recorded config, its train and meta sets (datasets maps
    _data_config of the config to them) and its classifier, loaded from
    checkpoint and rebuilt with the head that run trained with. The
    checkpoint must have the shape that config and data give."""
    rc_path, path = (os.path.join(run_dir, n) for n in ("run_config.txt", checkpoint))
    if not (os.path.exists(path) and os.path.exists(rc_path)):
        raise ConfigError(f"{run_dir} needs run_config.txt and a checkpoint ({checkpoint})")
    rcfg = parse_config(rc_path)
    train_set, meta_set = datasets(_data_config(rcfg))
    like = _build_model(rcfg, train_set.dim, train_set.class_count, 0)
    return rcfg, replace(like, net=_load_net(path, like.net)), train_set, meta_set


def train_one(cfg: ExperimentConfig, train_set: Dataset, meta_set: Dataset, seed: int):
    """Stage-1 training for one (method, seed): train_all for that seed
    alone. Returns (model, head, metrics) with the method's trained
    DifficultyHead, or raises the seed's NumericError."""
    (out,) = train_all(replace(cfg, seeds=(seed,)), train_set, meta_set)
    if isinstance(out, NumericError):
        raise out
    return out


def train_all(cfg: ExperimentConfig, train_set: Dataset, meta_set: Dataset) -> list:
    """Stage-1 training for cfg.method and every seed of cfg.seeds in one
    stacked call; per seed, what train_one returns for it, or the
    NumericError that stopped it."""
    seeds = cfg.seeds
    return train_seeds(_train_config(cfg, train_set), train_set, meta_set,
                       [_build_model(cfg, train_set.dim, train_set.class_count, s) for s in seeds],
                       [_difficulty_head(cfg, train_set, s) for s in seeds], seeds)


def _run_dir(cfg: ExperimentConfig, seed: int) -> str:
    return os.path.join(cfg.out_dir, cfg.method, f"seed{seed}")


def _crt_run(cfg: ExperimentConfig, run_dir: str, seed: int, datasets) -> Callable[[], ReportRow]:
    """Stage 2 of one trained run: read its stage-1 checkpoint, head, rows
    and data as it recorded them (datasets maps _data_config of its config
    to the train and meta sets), then hand back the step that writes. That
    retrains the final layer with the run's weight decay, saves it, and
    rewrites metrics.csv as the stage-1 rows plus one stage-2 row, so
    running it again gives the same files; failure.csv records a failure."""
    rcfg, model, train_set, meta_set = _load_run(run_dir, datasets, "classifier.ltnn")
    head = _difficulty_head(rcfg, train_set, seed, run_dir)
    metrics_path = os.path.join(run_dir, "metrics.csv")
    with _malformed(metrics_path):
        header, stage1 = _read_csv(metrics_path)
    stage1 = stage1[: rcfg.epochs]  # one row per epoch

    def retrain() -> ReportRow:
        with _recording_failure(run_dir):
            opt = OptSpec("momentum", cfg.crt_lr, 0.9, rcfg.classifier_weight_decay)
            trained = crt_retrain(model, train_set, cfg.crt_steps, cfg.crt_batch_size, opt, seed)
            acc = per_class_accuracy(trained, meta_set)
            check_finite(acc, "evaluation", max(cfg.crt_steps - 1, 0), "meta-set logits")
            (rec,) = evaluate_epoch(len(stage1), acc, [0], head, train_set,
                                    (rcfg.many_min, rcfg.few_max))[1]
            save_checkpoint(trained.net, os.path.join(run_dir, "classifier_crt.ltnn"))
            _write_csv(metrics_path, header, stage1 + [_metrics_row(rec)])
            return _report_row(rcfg.method, seed, vars(rec))

    return retrain


@contextlib.contextmanager
def _recording_failure(run_dir: str):
    """A block that writes run_dir's files: its NumericError is recorded in
    failure.csv, and if it succeeds, an earlier run's failure.csv goes."""
    try:
        yield
    except NumericError as e:
        _write_csv(os.path.join(run_dir, "failure.csv"), ["phase", "step", "quantity"],
                   [[e.phase, str(e.step), e.quantity]])
        raise
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(run_dir, "failure.csv"))


def _write_run(cfg: ExperimentConfig, train_set: Dataset, meta_set: Dataset, seed: int,
               trained, started: float) -> ReportRow:
    """One seed's run directory, written from empty, from what train_all
    returned for it, with stage 2 when configured. A seed that failed in
    stage 1 leaves its flushed metrics, and one that failed in either stage
    a failure.csv; then its NumericError is raised. started is when the
    command's training started."""
    run_dir = _run_dir(cfg, seed)
    # emptied only after training, so that a rejected config leaves no
    # directory, and before the first write, so that no file of an earlier
    # run stays next to this run's
    with contextlib.suppress(FileNotFoundError):
        shutil.rmtree(run_dir)
    os.makedirs(run_dir)
    try:
        # first, so that no interrupted write leaves a metrics.csv that no
        # config describes
        with atomic_write(os.path.join(run_dir, "run_config.txt"), "w", encoding="utf-8",
                          newline="\n") as fh:
            fh.write(config_text(replace(cfg, seeds=(seed,))))
        with _recording_failure(run_dir):
            if isinstance(trained, NumericError):
                _flush_run(run_dir, trained.metrics, train_set.class_count)
                raise trained
            model, head, metrics = trained
            save_checkpoint(model.net, os.path.join(run_dir, "classifier.ltnn"))
            if head.net is not None:
                save_checkpoint(head.net, os.path.join(run_dir, "dnet.ltnn"))
            _flush_run(run_dir, metrics, train_set.class_count)
        if cfg.stage2 == "crt":
            row = _crt_run(cfg, run_dir, seed, lambda _: (train_set, meta_set))()
        else:
            final = vars(metrics.epochs[-1]) if metrics.epochs else None
            row = _report_row(cfg.method, seed, final)
    finally:
        # last, so that its times cover stage 2 too, also when a stage fails
        _write_manifest(run_dir, started)
    return row


def _report_row(method: str, seed: int, final: dict | None) -> ReportRow:
    """A run's result row from the fields of its final record: vars() of an
    EpochRecord, or a metrics.csv row by column name, where an empty cell
    is an empty split. Without a record, overall reads as nan."""
    final = final or {}

    def value(name, missing=None):
        v = final.get(name)
        return missing if v is None or v == "" else float(v)

    return ReportRow(value("overall", float("nan")), *(value(name) for name in SPLITS[1:]),
                     method=method, seed=seed)


def _flush_run(run_dir, metrics: RunMetrics, class_count) -> None:
    """Write a run's metrics.csv (one row per record in metrics.epochs) and
    weights_trace.csv for heads that record."""
    cols = ["epoch", *SPLITS]
    if metrics.records:
        cols += ["entropy"] + [f"d_{c}" for c in range(class_count)]
    _write_csv(os.path.join(run_dir, "metrics.csv"), cols, map(_metrics_row, metrics.epochs))
    if metrics.records:
        _write_csv(os.path.join(run_dir, "weights_trace.csv"), ["step", "class", "normalized_weight"],
                   ([str(step), str(cls), _fmt(w)] for step, cls, w in metrics.weight_trace))


def _write_manifest(run_dir: str, started: float) -> None:
    """manifest.json: the run's wall-clock start, end and duration."""
    manifest = {
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(started)),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_seconds": round(time.time() - started, 3),
    }
    with atomic_write(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def run(cfg: ExperimentConfig) -> list[ReportRow]:
    """Train cfg.method for every seed in one stacked call on this thread,
    then write each seed's run directory; a seed that fails stops alone
    (_each_seed). A run directory or parent that exists and is no directory
    is a ConfigError before training."""
    for path in (cfg.out_dir, os.path.join(cfg.out_dir, cfg.method),
                 *(_run_dir(cfg, seed) for seed in cfg.seeds)):
        if os.path.exists(path) and not os.path.isdir(path):
            raise ConfigError(f"{path!r} is not a directory")
    train_set, meta_set = build_datasets(cfg)
    started = time.time()
    trained = train_all(cfg, train_set, meta_set)
    return _each_seed(functools.partial(_write_run, cfg, train_set, meta_set, seed, out, started)
                      for seed, out in zip(cfg.seeds, trained))


def crt_existing(cfg: ExperimentConfig) -> list[ReportRow]:
    """Second stage over already-trained runs: _crt_run reads every seed's
    run before any is retrained, and a seed that fails stops alone."""
    datasets = functools.lru_cache(build_datasets)  # runs on the same data share it
    return _each_seed([_crt_run(cfg, _run_dir(cfg, seed), seed, datasets) for seed in cfg.seeds])


def _each_seed(steps) -> list[ReportRow]:
    """Each seed's step in turn, and their rows: a NumericError stops its
    seed alone, and the first is raised once every step has run."""
    rows, failure = [], None
    for step in steps:
        try:
            rows.append(step())
        except NumericError as e:
            failure = failure or e
    if failure is not None:
        raise failure
    return rows


def ensemble_existing(cfg: ExperimentConfig) -> tuple[list[tuple[str, SplitAccuracy]], str]:
    """Mean-probability ensemble of the runs named in ensemble_members,
    evaluated on the meta set their run_config.txt files describe. Members
    are runs that report counts, each with its counted row's checkpoint
    (_result); any other, or one trained on other data, is rejected.
    Returns (rows, csv_path): the (name, splits) rows written to csv_path,
    each member's, then the ensemble's."""
    if len(cfg.ensemble_members) < 2:
        raise ConfigError("ensemble_members must list at least two run directories")
    seen = {}  # real path -> (member, its counted row's checkpoint)
    for d in cfg.ensemble_members:
        if (real := os.path.realpath(d)) in seen:
            raise ConfigError(f"ensemble members {seen[real][0]} and {d} are the same run directory")
        row, found = _result(d)  # found: the row's checkpoint, or why d is left out
        if row is None:
            said = "failed" if isinstance(found, NumericError) else "is left out"
            raise ConfigError(f"ensemble member {d} {said}: {found}")
        seen[real] = d, found
    datasets = functools.lru_cache(build_datasets)
    runs = [_load_run(d, datasets, checkpoint) for d, checkpoint in seen.values()]
    if len({_data_config(rcfg) for rcfg, *_ in runs}) > 1:
        raise ConfigError("ensemble members were trained on different data")
    _, _, train_set, meta_set = runs[0]
    members = [model for _, model, *_ in runs]
    names = [d.rstrip("/").replace(os.sep, "/") for d in cfg.ensemble_members]

    def split_row(acc):
        # a member whose logits are not finite ranks nothing
        check_finite(acc, "evaluation", 0, "meta-set logits")
        return evaluate_splits(acc, train_set.per_class_counts, (cfg.many_min, cfg.few_max))

    rows = [(n, split_row(per_class_accuracy(m, meta_set))) for n, m in zip(names, members)]
    probs = ensemble_predict(members, meta_set.features)
    rows.append(("ensemble", split_row(score_accuracy(probs, meta_set))))
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "ensemble_metrics.csv")
    _write_csv(out_path, ["name", *SPLITS],
               ([n, *(_fmt(getattr(s, name)) for name in SPLITS)] for n, s in rows))
    return rows, out_path


# ---------------------------------------------------------------------------
# reporting


def collect_rows(paths: list[str]) -> tuple[list[ReportRow], list[str]]:
    """Find every run directory (one metrics.csv each) under the given
    paths, each counted once however many paths reach it: the rows of the
    runs that count (_result), and one `left out` line with the reason for
    each other directory. A path that is no directory is a ConfigError."""
    rows, left_out = [], []
    metric_files = {}  # real path of a run directory -> its metrics.csv, as first reached
    for p in paths:
        if not os.path.isdir(p):
            raise ConfigError(f"no directory {p!r} to report")
        direct = os.path.join(p, "metrics.csv")
        found = [direct] if os.path.isfile(direct) else [
            os.path.join(root, "metrics.csv") for root, _, names in sorted(os.walk(p))
            if "metrics.csv" in names]
        for mf in found:
            metric_files.setdefault(os.path.realpath(os.path.dirname(mf)), mf)
    for mf in sorted(metric_files.values()):
        row, reason = _result(os.path.dirname(mf))
        if row is None:
            left_out.append(f"left out {os.path.dirname(mf)}: {reason}")
        else:
            rows.append(row)
    return rows, left_out


def _result(run_dir: str) -> tuple[ReportRow | None, object]:
    """A run's result, for report and ensemble alike: (the last row of its
    metrics.csv, the checkpoint that row scores: classifier_crt.ltnn for a
    row past epochs, else classifier.ltnn), or (None, why it is left out: a
    failure.csv's failure, no run_config.txt, or no row, under stage2 = crt
    none past epochs). A row whose cell count is not the header's is a
    FormatError."""
    failure, rc, mf = (os.path.join(run_dir, n)
                       for n in ("failure.csv", "run_config.txt", "metrics.csv"))
    if os.path.exists(failure):
        with _malformed(failure):
            _, [(phase, step, quantity)] = _read_csv(failure)
            return None, NumericError(phase, int(step), quantity)
    if not os.path.exists(rc):
        return None, "no run_config.txt"
    rcfg = parse_config(rc)
    with _malformed(mf):
        header, body = _read_csv(mf)
        if any(len(cells) != len(header) for cells in body):
            raise ValueError(f"a row's cell count is not the header's {len(header)}")
        if len(body) > (rcfg.epochs if rcfg.stage2 == "crt" else 0):
            checkpoint = "classifier_crt.ltnn" if len(body) > rcfg.epochs else "classifier.ltnn"
            return _report_row(rcfg.method, rcfg.seeds[0], dict(zip(header, body[-1]))), checkpoint
    return None, "stage 2 did not finish" if rcfg.stage2 == "crt" else "no epochs in metrics.csv"


@contextlib.contextmanager
def _malformed(path: str):
    """A block that reads a file: a ValueError that its content raises
    comes out as a FormatError naming the file once."""
    try:
        yield
    except ValueError as e:
        named = str(e).startswith(f"{path}: ")
        raise FormatError(str(e) if named else f"{path}: {e}") from None


@dataclass
class MethodSummary:
    method: str
    seeds: int
    median: SplitAccuracy  # per split over seeds, None for an empty split
    iqr: SplitAccuracy


def summarize(rows: list[ReportRow]) -> list[MethodSummary]:
    """Per-method median and IQR over seeds, methods in name order."""
    by_method: dict[str, list[ReportRow]] = {}
    for r in rows:
        by_method.setdefault(r.method, []).append(r)
    out = []
    for method in sorted(by_method):
        group = by_method[method]
        medians, iqrs = [], []
        for name in SPLITS:
            vals = [getattr(r, name) for r in group if getattr(r, name) is not None]
            medians.append(float(np.median(vals)) if vals else None)
            iqrs.append(float(np.percentile(vals, 75) - np.percentile(vals, 25)) if vals else None)
        out.append(MethodSummary(method, len(group), SplitAccuracy(*medians), SplitAccuracy(*iqrs)))
    return out


def report_text(summaries: list[MethodSummary]) -> str:
    head = f"{'method':<14} {'seeds':>5}  " + "  ".join(
        f"{name:>15}" for name in SPLITS
    )
    lines = [head, "-" * len(head)]
    for s in summaries:
        cells = []
        for name in SPLITS:
            median, iqr = getattr(s.median, name), getattr(s.iqr, name)
            cells.append(f"{'-':>15}" if median is None else f"{median:>7.4f} ({iqr:.3f})")
        lines.append(f"{s.method:<14} {s.seeds:>5}  " + "  ".join(cells))
    return "\n".join(lines)


def report_csv(summaries: list[MethodSummary], path: str) -> None:
    """The summary table as CSV: a median and an IQR column per split."""
    cols = ["method", "seeds"]
    for name in SPLITS:
        cols += [f"{name}_median", f"{name}_iqr"]
    rows = []
    for s in summaries:
        row = [s.method, str(s.seeds)]
        for name in SPLITS:
            row += [_fmt(getattr(s.median, name)), _fmt(getattr(s.iqr, name))]
        rows.append(row)
    _write_csv(path, cols, rows)
