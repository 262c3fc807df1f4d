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
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .baselines import cdb_weights, crt_retrain, effective_number_weights, ensemble_predict, inverse_frequency_weights
from .data import Dataset, FormatError, atomic_write, exp_profile, load_dataset, save_dataset, split_meta, synth_gaussian
from .difficulty import DifficultyHead, head_init
from .metatrain import (
    SPLITS,
    ConfigError,
    EpochRecord,
    NumericError,
    OptSpec,
    RunMetrics,
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


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


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
    sample_width: int = 0  # 0: use batch_size
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
    record_losses: bool = False
    ensemble_members: tuple[str, ...] = ()


# fields whose parser is not their default's type
_PARSERS = {"seeds": functools.partial(_parse_list, cast=int), "ensemble_members": _parse_list,
            "trace_classes": _parse_trace}

# config-file key -> (dataclass attr, parser). "lambda" is a Python keyword,
# so it maps onto the lam attribute.
SCHEMA: dict[str, tuple[str, object]] = {
    "lambda" if f.name == "lam" else f.name: (
        f.name,
        _PARSERS.get(f.name) or (_parse_bool if isinstance(f.default, bool) else type(f.default)))
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path!r}: {e}") from None
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
    need(cfg.epochs >= 0, "epochs must be non-negative")
    need(cfg.batch_size >= 1 and cfg.meta_batch_size >= 1, "batch sizes must be positive")
    need(cfg.alpha > 0 and cfg.beta > 0, "alpha and beta must be positive")
    need(cfg.lam >= 0, "lambda must be non-negative")
    need(cfg.hidden >= 1, "hidden must be positive")
    need(cfg.many_min > cfg.few_max, "many_min must exceed few_max")
    need(bool(cfg.train_file) == bool(cfg.meta_file),
         "train_file and meta_file must be given together")
    need(cfg.sample_width >= 0, "sample_width must be non-negative")
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
        if isinstance(val, bool):
            raw = "true" if val else "false"
        elif isinstance(val, tuple):
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
        try:
            with _malformed(cfg.train_file):
                train = load_dataset(cfg.train_file)
            with _malformed(cfg.meta_file):
                meta = load_dataset(cfg.meta_file)
        except OSError as e:
            raise ConfigError(f"cannot read dataset: {e}") from None
        if train.class_count != meta.class_count:
            raise ConfigError("train and meta files disagree on class count")
        return train, meta
    try:
        profile = exp_profile(cfg.classes, cfg.n_max, cfg.imbalance)
        pool = synth_gaussian(profile, cfg.dim, cfg.separation, cfg.data_seed)
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
    """Write train.ltds and meta.ltds under out_dir; returns the two paths."""
    train, meta = build_datasets(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    train_path = os.path.join(cfg.out_dir, "train.ltds")
    meta_path = os.path.join(cfg.out_dir, "meta.ltds")
    save_dataset(train, train_path)
    save_dataset(meta, meta_path)
    return train_path, meta_path


@dataclass
class ReportRow:
    method: str
    seed: int
    overall: float
    many: float | None
    medium: float | None
    few: float | None
    entropy: float | None
    wall_seconds: float


def _resolve_trace(cfg: ExperimentConfig, class_count: int) -> tuple[int, ...]:
    if cfg.trace_classes == "auto":
        return (0, class_count // 2, class_count - 1)
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
        record_losses=cfg.record_losses,
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
    width = (cfg.sample_width or cfg.batch_size) if method.kind == "sample" else train_set.class_count
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


def _load_run(run_dir: str, datasets, *checkpoints: str
              ) -> tuple[ExperimentConfig, Classifier, Dataset, Dataset]:
    """A run's recorded config, its train and meta sets (datasets maps
    _data_config of the config to them) and its classifier, loaded from the
    first of checkpoints present and rebuilt with the head that run trained
    with. The checkpoint must have the shape that config and data give."""
    rc_path = os.path.join(run_dir, "run_config.txt")
    found = [p for p in (os.path.join(run_dir, n) for n in checkpoints) if os.path.exists(p)]
    if not found or not os.path.exists(rc_path):
        raise ConfigError(f"{run_dir} needs run_config.txt and a checkpoint "
                          f"({' or '.join(checkpoints)})")
    rcfg = parse_config(rc_path)
    train_set, meta_set = datasets(_data_config(rcfg))
    like = _build_model(rcfg, train_set.dim, train_set.class_count, 0)
    return rcfg, replace(like, net=_load_net(found[0], like.net)), train_set, meta_set


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


def _crt_run(cfg: ExperimentConfig, run_dir: str, seed: int, datasets) -> ReportRow:
    """Stage 2 of one trained run: load its stage-1 checkpoint, head and
    data (datasets maps _data_config of its run_config.txt to the train and
    meta sets) as the run recorded them, retrain the final layer, save it,
    and rewrite metrics.csv as the stage-1 rows plus one stage-2 row, so
    running this again gives the same files."""
    started = time.time()
    rcfg, model, train_set, meta_set = _load_run(run_dir, datasets, "classifier.ltnn")
    head = _difficulty_head(rcfg, train_set, seed, run_dir)
    metrics_path = os.path.join(run_dir, "metrics.csv")
    with _malformed(metrics_path):
        header, stage1 = _read_csv(metrics_path)
    stage1 = stage1[: rcfg.epochs]  # one row per epoch
    model = crt_retrain(model, train_set, cfg.crt_steps, cfg.crt_batch_size,
                        OptSpec("momentum", cfg.crt_lr, 0.9, cfg.classifier_weight_decay), seed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as crt_retrain
        acc = per_class_accuracy(model, meta_set)
    check_finite(acc, "evaluation", cfg.crt_steps - 1, "meta-set logits")
    (rec,) = evaluate_epoch(len(stage1), acc, [0], head, train_set,
                            (cfg.many_min, cfg.few_max))[1]
    save_checkpoint(model.net, os.path.join(run_dir, "classifier_crt.ltnn"))
    _write_csv(metrics_path, header, stage1 + [_metrics_row(rec)])
    _remove(run_dir, "failure.csv")  # of a stage 2 that failed before
    return _report_row(rcfg.method, seed, vars(rec), time.time() - started)


def _write_run(cfg: ExperimentConfig, train_set: Dataset, meta_set: Dataset, seed: int,
               trained, started: float) -> ReportRow:
    """One seed's run directory from what train_all returned for it, with
    stage 2 when configured. A seed that failed in stage 1 leaves its
    flushed metrics, and one that failed in either stage a failure.csv;
    then its NumericError is raised. started is when the command's training
    started."""
    run_dir = _run_dir(cfg, seed)
    try:
        if isinstance(trained, NumericError):
            # no checkpoint of an earlier run outlives the metrics of this one
            _remove(run_dir, "classifier.ltnn", "dnet.ltnn", "classifier_crt.ltnn")
            _flush_run(cfg, run_dir, trained.metrics, train_set.class_count, seed)
            raise trained
        model, head, metrics = trained
        # made only after training, so that a rejected config leaves no directory
        os.makedirs(run_dir, exist_ok=True)
        save_checkpoint(model.net, os.path.join(run_dir, "classifier.ltnn"))
        if head.net is not None:
            save_checkpoint(head.net, os.path.join(run_dir, "dnet.ltnn"))
        # a stage-2 checkpoint or a failure of an earlier run
        _remove(run_dir, "classifier_crt.ltnn", "failure.csv")
        _flush_run(cfg, run_dir, metrics, train_set.class_count, seed)
        if cfg.stage2 == "crt":
            row = _crt_run(cfg, run_dir, seed, lambda _: (train_set, meta_set))
        else:
            final = vars(metrics.epochs[-1]) if metrics.epochs else None
            row = _report_row(cfg.method, seed, final, 0.0)
    except NumericError as e:
        _write_csv(os.path.join(run_dir, "failure.csv"), ["phase", "step", "quantity"],
                   [[e.phase, str(e.step), e.quantity]])
        raise
    finally:
        # last, so that its times cover stage 2 too, also when a stage fails
        _write_manifest(run_dir, started)
    row.wall_seconds = time.time() - started
    return row


def _remove(run_dir: str, *names: str) -> None:
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(run_dir, name))


def _report_row(method: str, seed: int, final: dict | None, wall: float) -> ReportRow:
    """A run's result row from the fields of its final record: vars() of an
    EpochRecord, or a metrics.csv row by column name, where an empty cell
    is an empty split. Without a record, overall reads as nan."""
    final = final or {}

    def value(name, missing=None):
        v = final.get(name)
        return missing if v is None or v == "" else float(v)

    return ReportRow(method, seed, value("overall", float("nan")),
                     *(value(name) for name in SPLITS[1:]), value("entropy"), wall)


def _flush_run(cfg, run_dir, metrics: RunMetrics, class_count, seed) -> None:
    """Write a run's metrics.csv (one row per record in metrics.epochs),
    weights_trace.csv for heads that record, and run_config.txt."""
    os.makedirs(run_dir, exist_ok=True)
    cols = ["epoch", *SPLITS]
    if metrics.records:
        cols += ["entropy"] + [f"d_{c}" for c in range(class_count)]
    _write_csv(os.path.join(run_dir, "metrics.csv"), cols, map(_metrics_row, metrics.epochs))
    if metrics.records:
        _write_csv(os.path.join(run_dir, "weights_trace.csv"), ["step", "class", "normalized_weight"],
                   ([str(step), str(cls), _fmt(w)] for step, cls, w in metrics.weight_trace))
    with atomic_write(os.path.join(run_dir, "run_config.txt"), "w", encoding="utf-8",
                      newline="\n") as fh:
        fh.write(config_text(replace(cfg, seeds=(seed,))))


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
    then write each seed's run directory. A seed that fails stops alone:
    the others train on and write their files, and the first failure is
    raised once every seed's directory is written."""
    train_set, meta_set = build_datasets(cfg)
    started = time.time()
    rows, failure = [], None
    for seed, trained in zip(cfg.seeds, train_all(cfg, train_set, meta_set)):
        try:
            rows.append(_write_run(cfg, train_set, meta_set, seed, trained, started))
        except NumericError as e:
            failure = failure or e
    if failure is not None:
        raise failure
    return rows


def crt_existing(cfg: ExperimentConfig) -> list[ReportRow]:
    """Second stage over already-trained runs: _crt_run for each seed's run."""
    datasets = functools.lru_cache(build_datasets)  # runs on the same data share it
    return [_crt_run(cfg, _run_dir(cfg, seed), seed, datasets) for seed in cfg.seeds]


def ensemble_existing(cfg: ExperimentConfig) -> dict:
    """Mean-probability ensemble of the runs named in ensemble_members,
    evaluated on the meta set their run_config.txt files describe; members
    trained on different data are rejected."""
    if len(cfg.ensemble_members) < 2:
        raise ConfigError("ensemble_members must list at least two run directories")
    datasets = functools.lru_cache(build_datasets)
    runs = [_load_run(d, datasets, "classifier_crt.ltnn", "classifier.ltnn")
            for d in cfg.ensemble_members]
    if len({_data_config(rcfg) for rcfg, *_ in runs}) > 1:
        raise ConfigError("ensemble members were trained on different data")
    _, _, train_set, meta_set = runs[0]
    members = [model for _, model, *_ in runs]
    names = [d.rstrip("/").replace(os.sep, "/") for d in cfg.ensemble_members]

    def split_row(acc):
        # a member whose logits are not finite ranks nothing
        check_finite(acc, "evaluation", 0, "meta-set logits")
        return evaluate_splits(acc, train_set.per_class_counts, (cfg.many_min, cfg.few_max))

    probs = ensemble_predict(members, meta_set.features)
    result = {
        "members": [
            {"name": n, "splits": split_row(per_class_accuracy(m, meta_set))}
            for n, m in zip(names, members)
        ],
        "ensemble": split_row(score_accuracy(probs, meta_set)),
    }
    rows = [(e["name"], e["splits"]) for e in result["members"]]
    rows.append(("ensemble", result["ensemble"]))
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "ensemble_metrics.csv")
    _write_csv(out_path, ["name", *SPLITS],
               ([n, *(_fmt(getattr(s, name)) for name in SPLITS)] for n, s in rows))
    result["csv_path"] = out_path
    return result


# ---------------------------------------------------------------------------
# reporting


def collect_rows(paths: list[str]) -> tuple[list[ReportRow], list[str]]:
    """Find every run directory (one metrics.csv each) under the given
    paths: the rows of the runs that finished, and a line for each run that
    a failure.csv marks as failed, which gives no row."""
    rows, failed = [], []
    metric_files = []
    for p in paths:
        direct = os.path.join(p, "metrics.csv")
        if os.path.isfile(direct):
            metric_files.append(direct)
            continue
        for root, _, names in sorted(os.walk(p)):
            if "metrics.csv" in names:
                metric_files.append(os.path.join(root, "metrics.csv"))
    for mf in sorted(metric_files):
        run_dir = os.path.dirname(mf)
        failure = os.path.join(run_dir, "failure.csv")
        if os.path.exists(failure):
            with _malformed(failure):
                _, [(phase, step, quantity)] = _read_csv(failure)
                failed.append(f"left out {run_dir}: {NumericError(phase, int(step), quantity)}")
            continue
        rc = os.path.join(run_dir, "run_config.txt")
        if os.path.exists(rc):
            rcfg = parse_config(rc)
            method, seed = rcfg.method, rcfg.seeds[0]
        else:
            method = os.path.basename(os.path.dirname(run_dir))
            name = os.path.basename(run_dir)
            digits = name.removeprefix("seed")
            seed = int(digits) if name.startswith("seed") and digits.isdecimal() else -1
        with _malformed(mf):
            header, body = _read_csv(mf)
            if not body:
                continue
            row = _report_row(method, seed, dict(zip(header, body[-1])), 0.0)
        man = os.path.join(run_dir, "manifest.json")
        if os.path.exists(man):
            with open(man, "r", encoding="utf-8") as fh, _malformed(man, AttributeError, TypeError):
                row.wall_seconds = float(json.load(fh).get("wall_seconds", 0.0))
        rows.append(row)
    return rows, failed


@contextlib.contextmanager
def _malformed(path: str, *errors):
    """A block that reads a file: a ValueError, or one of errors, that its
    content raises comes out as a FormatError naming the file once."""
    try:
        yield
    except (ValueError, *errors) as e:
        named = str(e).startswith(f"{path}: ")
        raise FormatError(str(e) if named else f"{path}: {e}") from None


@dataclass
class MethodSummary:
    method: str
    seeds: int
    medians: dict  # split name -> float | None
    iqrs: dict


def summarize(rows: list[ReportRow]) -> list[MethodSummary]:
    """Per-method median and IQR over seeds, methods in name order."""
    by_method: dict[str, list[ReportRow]] = {}
    for r in rows:
        by_method.setdefault(r.method, []).append(r)
    out = []
    for method in sorted(by_method):
        group = by_method[method]
        medians, iqrs = {}, {}
        for name in SPLITS:
            vals = [getattr(r, name) for r in group if getattr(r, name) is not None]
            if vals:
                medians[name] = float(np.median(vals))
                iqrs[name] = float(np.percentile(vals, 75) - np.percentile(vals, 25))
            else:
                medians[name] = None
                iqrs[name] = None
        out.append(MethodSummary(method, len(group), medians, iqrs))
    return out


def report_text(summaries: list[MethodSummary]) -> str:
    head = f"{'method':<14} {'seeds':>5}  " + "  ".join(
        f"{name:>15}" for name in SPLITS
    )
    lines = [head, "-" * len(head)]
    for s in summaries:
        cells = []
        for name in SPLITS:
            if s.medians[name] is None:
                cells.append(f"{'-':>15}")
            else:
                cells.append(f"{s.medians[name]:>7.4f} ({s.iqrs[name]:.3f})")
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
            row += [_fmt(s.medians[name]), _fmt(s.iqrs[name])]
        rows.append(row)
    _write_csv(path, cols, rows)
