"""Training: a classifier updated with difficulty-weighted CE (or focal
loss) while, for heads with a net, the net learns from a one-step-lookahead
meta objective.

One iteration does three updates in order:
  1. virtual step: phi_hat = phi - alpha * grad_phi of the weighted CE (plain
     SGD, whatever the classifier's real optimizer is),
  2. difficulty-net step on grad_theta of lam * driver + mean meta CE at
     phi_hat, through the configured optimizer,
  3. actual classifier step on the same batch, with the weights re-computed
     from the just-updated difficulty net.
Heads without a net (nometa and the fixed weighting schemes) skip 1 and 2.

Per-class accuracies feeding the difficulty head are refreshed once per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import focal_logit_cotangent, focal_loss
from .difficulty import (
    DifficultyHead,
    difficulty_entropy,
    dnet_forward,
    head_signal,
    target_fit_loss,
)
from .nnet import (  # ConfigError and NumericError re-exported: the loop raises them
    Classifier,
    ConfigError,
    NumericError,
    OptimizerState,
    as_classifier,
    backward,
    check_finite,
    forward_tape,
    make_optimizer,
    optimizer_step,
    per_class_accuracy,
)
from .rng import consumer_rng


@dataclass(frozen=True)
class OptSpec:
    """Optimizer settings; build() turns them into fresh mutable state."""

    kind: str = "momentum"
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0

    def build(self) -> OptimizerState:
        return make_optimizer(
            self.kind, self.lr, momentum=self.momentum, weight_decay=self.weight_decay
        )


@dataclass(frozen=True)
class TrainConfig:
    """Stage-1 settings, built from a validated ExperimentConfig, which owns
    their defaults; train checks the ones that depend on the data."""

    T: int  # total iterations
    b: int  # train batch size
    m: int  # meta batch size
    alpha: float  # virtual (and usually actual) classifier step size
    lam: float  # driver loss coefficient; 0 turns the driver term off
    classifier_opt: OptSpec
    dnet_opt: OptSpec
    many_min: int
    few_max: int
    focal_gamma: float | None  # None: weighted CE; a gamma: the focal loss
    seed: int = 0
    steps_per_epoch: int | None = None  # default: train_size // b
    trace_classes: tuple[int, ...] = ()
    record_losses: bool = False


@dataclass(frozen=True)
class SplitAccuracy:
    overall: float
    many: float | None
    medium: float | None
    few: float | None


def evaluate_splits(acc, counts, thresholds) -> SplitAccuracy:
    """Unweighted split means: many (count > many_min), few (count < few_max),
    medium (in between, inclusive). Empty splits come back as None."""
    many_min, few_max = thresholds
    if many_min <= few_max:
        raise ValueError("many_min must exceed few_max")
    a = np.asarray(acc, dtype=np.float64)
    n = np.asarray(counts)
    if a.shape != n.shape or a.ndim != 1:
        raise ValueError("acc and counts must be matching vectors")
    many = n > many_min
    few = n < few_max
    medium = ~many & ~few

    def mean_of(mask):
        return float(a[mask].mean()) if mask.any() else None

    return SplitAccuracy(float(a.mean()), mean_of(many), mean_of(medium), mean_of(few))


@dataclass
class EpochRecord:
    epoch: int
    accuracy: np.ndarray  # (C,) per-class, on the meta/val set
    overall: float
    many: float | None
    medium: float | None
    few: float | None
    entropy: float | None
    difficulty: np.ndarray | None  # (C,) snapshot, for heads that record one


@dataclass
class RunMetrics:
    records: bool = False  # DifficultyHead.records: epochs carry difficulty snapshots
    epochs: list[EpochRecord] = field(default_factory=list)
    weight_trace: list[tuple[int, int, float]] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)


def virtual_step(model, batch_x, batch_y, weights, alpha: float):
    """One plain-SGD lookahead on the weighted CE; returns the same kind of
    model it was given and never touches optimizer state."""
    looked = _lookahead(forward_tape(model, batch_x).with_labels(batch_y), weights, alpha)
    return looked if isinstance(model, Classifier) else looked.net


def _lookahead(tape, weights, alpha: float) -> Classifier:
    """phi_hat = phi - alpha * grad_phi of the weighted CE, from the labelled
    tape at phi, built in the gradient's own vector."""
    step = tape.grads(tape.cotangent(weights))
    step *= -alpha
    clf = tape.clf
    return Classifier(clf.net.over(np.add(clf.net.params, step, out=step)), clf.head, clf.scale)


def meta_gradient(
    head: DifficultyHead, model, signal, batch_x, batch_y, meta_x, meta_y,
    alpha: float, lam: float,
):
    """Gradient wrt the head's net of lam * driver + mean meta CE at the
    virtual step phi_hat(theta). signal is the accuracy vector, or for the
    sample kind the batch's per-sample losses."""
    return _meta_gradient(head, forward_tape(model, batch_x).with_labels(batch_y), signal,
                          meta_x, meta_y, alpha, lam)


def _meta_gradient(head, tape, signal, meta_x, meta_y, alpha, lam):
    """meta_gradient from the classifier's labelled tape over the train batch
    at phi.

    phi_hat depends on theta only through the per-sample weights, so the
    whole meta term reduces to one backprop through the net with output
    cotangent v = -(alpha/b) * <g_i, g_meta>, summed per class for class-level
    kinds: v_c = -(alpha/b) * sum_{i: y_i = c} <g_i, g_meta>. The head's one
    forward pass gives d and is the tape that backprop runs on.
    """
    x = head_signal(head, signal)
    d_tape = forward_tape(head.net, head.embed(x))
    d = head.read(d_tape.logits, x.size)
    labels = tape.labels
    looked = _lookahead(tape, head.weights(d, labels), alpha)
    g_meta = backward(looked, meta_x, meta_y, np.ones(meta_y.size))
    v = head.reduce(tape.dots(g_meta), labels, d.size) * -(alpha / labels.size)
    _, driver_cot = target_fit_loss(d, head.target(x))
    u = lam * driver_cot + v
    # padding outputs of the sample kind are discarded: zero cotangent
    return d_tape.grads(head.embed(u, pad=0.0))


def classifier_objective(tape, weights, focal_gamma=None):
    """Mean weighted loss over the labelled tape's batch and its logit
    cotangent: w_i * CE_i, or with focal_gamma the focal loss
    w_i * (1 - p_i)^gamma * CE_i."""
    if focal_gamma is None:
        return float((weights * tape.ce).mean()), tape.cotangent(weights)
    _, per_sample = focal_loss(tape.logits, tape.labels, focal_gamma)
    cot = focal_logit_cotangent(tape.logits, tape.labels, focal_gamma)
    return float((weights * per_sample).mean()), cot * weights[:, None]


def evaluate_epoch(epoch: int, model, head: DifficultyHead, train_set, meta_set, thresholds,
                   step: int, metrics=None):
    """Per-class meta-set accuracy and the epoch's record: split means, and
    the class difficulty snapshot with its entropy when the head records
    them. Returns (AccuracyVector, EpochRecord). Non-finite logits raise
    NumericError in the evaluation phase at step, carrying metrics."""
    acc = per_class_accuracy(model, meta_set, "meta", step, metrics)
    splits = evaluate_splits(acc.per_class, train_set.per_class_counts, thresholds)
    d = dnet_forward(head, acc) if head.records else None
    return acc, EpochRecord(
        epoch=epoch,
        accuracy=acc.per_class,
        overall=splits.overall,
        many=splits.many,
        medium=splits.medium,
        few=splits.few,
        entropy=difficulty_entropy(d) if d is not None else None,
        difficulty=d,
    )


def train(cfg: TrainConfig, train_set, meta_set, classifier, head: DifficultyHead):
    """Run cfg.T iterations of the three-update step (the classifier step
    alone for heads without a net), with batching, a per-epoch accuracy
    refresh and metric records. The head's kind decides the step; plain CE
    is head_init("fixed", C, seed).

    Returns (classifier, the trained head, RunMetrics). The optimizers
    update in place, so for T > 0 both nets are copied once here and the
    caller's are never written; T=0 returns the inputs themselves with
    empty metrics. Settings that do not fit the data raise ConfigError.
    """
    n = train_set.size
    spe = cfg.steps_per_epoch if cfg.steps_per_epoch is not None else n // cfg.b
    if spe < 1 or spe * cfg.b > n:
        raise ConfigError(f"batch_size {cfg.b} and steps_per_epoch {spe} do not fit "
                          f"the train set of {n}")
    if cfg.m > meta_set.size:
        raise ConfigError(f"meta batch of {cfg.m} (meta_batch_size) exceeds the meta set "
                          f"of {meta_set.size}")
    if head.kind == "sample" and cfg.b > head.width:
        raise ConfigError(f"batch_size {cfg.b} exceeds the sample net width {head.width}")
    counts = meta_set.per_class_counts
    if head.net is not None and counts.min() != counts.max():
        raise ConfigError("meta set must be class-balanced")
    bad = [c for c in cfg.trace_classes if not 0 <= c < train_set.class_count]
    if bad:
        raise ConfigError(f"trace classes outside [0, C): {bad}")

    model = as_classifier(classifier)
    if cfg.T > 0:
        model = replace(model, net=model.net.copy())
        if head.net is not None:
            head = replace(head, net=head.net.copy())
    clf_opt = cfg.classifier_opt.build()
    dn_opt = cfg.dnet_opt.build() if head.net is not None else None
    rng = consumer_rng(cfg.seed, "batch")
    metrics = RunMetrics(records=head.records)
    acc = per_class_accuracy(model, meta_set, "meta", 0, metrics)
    perm = np.empty(0, dtype=np.int64)
    for t in range(cfg.T):
        pos = t % spe
        if pos == 0:
            perm = rng.permutation(n)
        idx = perm[pos * cfg.b : (pos + 1) * cfg.b]
        bx, by = train_set.features[idx], train_set.labels[idx]
        # drawn for every head, so all methods see the same train batches
        midx = rng.choice(meta_set.size, size=cfg.m, replace=False)
        mx, my = meta_set.features[midx], meta_set.labels[midx]

        # the classifier's one forward pass over the batch this step, with
        # its labels checked once: the virtual step, the per-sample dots,
        # the actual step and the sample kind's loss signal all reuse it
        tape = forward_tape(model, bx).with_labels(by)
        signal = acc if head.per_class else tape.ce
        if head.net is not None:
            g_theta = _meta_gradient(head, tape, signal, mx, my, cfg.alpha, cfg.lam)
            check_finite(g_theta, "meta", t, "difficulty-net gradient", metrics)
            optimizer_step(dn_opt, head.net, g_theta)
        # weights re-computed with the updated net before the actual step
        d = dnet_forward(head, signal)
        check_finite(d, "weighting", t, "difficulty vector", metrics)
        loss, cot = classifier_objective(tape, head.weights(d, by), cfg.focal_gamma)
        grads = tape.grads(cot)
        check_finite(grads, "classifier", t, "classifier gradient", metrics)
        check_finite(loss, "classifier", t, "training loss", metrics)
        optimizer_step(clf_opt, model.net, grads)

        if cfg.record_losses:
            metrics.step_losses.append(float(loss))
        if head.records and cfg.trace_classes:
            norm = d / d.sum()
            for c in cfg.trace_classes:
                metrics.weight_trace.append((t, c, float(norm[c])))

        if pos == spe - 1 or t == cfg.T - 1:
            acc, rec = evaluate_epoch(t // spe, model, head, train_set, meta_set,
                                      (cfg.many_min, cfg.few_max), t, metrics)
            metrics.epochs.append(rec)
    out_model = model if isinstance(classifier, Classifier) else model.net
    return out_model, head, metrics
