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
    head_init,
    head_signal,
    target_fit_loss,
)
from .nnet import (
    Classifier,
    OptimizerState,
    add_scaled,
    as_classifier,
    backward,
    ce_logit_cotangent,
    forward_tape,
    make_optimizer,
    optimizer_step,
    per_class_accuracy,
    weighted_ce_loss,
)
from .rng import consumer_rng

# variant -> the kind of difficulty head it trains; nodriver is the class
# kind with the driver term off, focal the fixed kind with the focal loss
VARIANTS = {"dnet": "class", "abs": "abs", "sample": "sample", "nodriver": "class",
            "nometa": "nometa", "fixed": "fixed", "focal": "fixed"}


class NumericError(ArithmeticError):
    """Training produced a non-finite value. Names the phase, the step and the
    quantity, and carries the metrics accumulated so far."""

    def __init__(self, phase: str, step: int, quantity: str, metrics: "RunMetrics"):
        super().__init__(f"non-finite {quantity} in the {phase} phase at step {step}")
        self.phase, self.step, self.quantity, self.metrics = phase, step, quantity, metrics


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
    T: int  # total iterations
    b: int  # train batch size
    m: int  # meta batch size
    alpha: float = 0.1  # virtual (and usually actual) classifier step size
    lam: float = 0.3  # driver loss coefficient; 0.3 is the recommended default
    variant: str = "dnet"
    seed: int = 0
    classifier_opt: OptSpec = field(default_factory=lambda: OptSpec("momentum", 0.1, 0.9, 1e-4))
    dnet_opt: OptSpec = field(default_factory=lambda: OptSpec("adam", 1e-3, 0.9, 1e-4))
    steps_per_epoch: int | None = None  # default: train_size // b
    trace_classes: tuple[int, ...] = ()
    many_min: int = 100
    few_max: int = 20
    record_losses: bool = False
    focal_gamma: float = 1.0  # the focal variant's gamma

    def __post_init__(self):
        if self.T < 0 or self.b < 1 or self.m < 1:
            raise ValueError("T must be >= 0 and batch sizes >= 1")
        if self.alpha <= 0 or self.lam < 0:
            raise ValueError("alpha must be positive and lam non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
        if self.many_min <= self.few_max:
            raise ValueError("many_min must exceed few_max")


@dataclass(frozen=True)
class SplitAccuracy:
    overall: float
    many: float | None
    medium: float | None
    few: float | None


def evaluate_splits(acc, counts, thresholds=(100, 20)) -> SplitAccuracy:
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
    looked = _lookahead(forward_tape(model, batch_x), batch_y, weights, alpha)
    return looked if isinstance(model, Classifier) else looked.net


def _lookahead(tape, labels, weights, alpha: float) -> Classifier:
    """phi_hat = phi - alpha * grad_phi of the weighted CE, from the tape at phi."""
    grads = tape.grads(ce_logit_cotangent(tape.logits, labels, weights))
    return replace(tape.clf, net=add_scaled(tape.clf.net, grads, -alpha))


def meta_gradient(
    head: DifficultyHead, model, signal, batch_x, batch_y, meta_x, meta_y,
    alpha: float, lam: float,
):
    """Gradient wrt the head's net of lam * driver + mean meta CE at the
    virtual step phi_hat(theta). signal is the accuracy vector, or for the
    sample kind the batch's per-sample losses."""
    return _meta_gradient(head, forward_tape(model, batch_x), signal, batch_y,
                          meta_x, meta_y, alpha, lam)


def _meta_gradient(head, tape, signal, batch_y, meta_x, meta_y, alpha, lam):
    """meta_gradient from the classifier's tape over the train batch at phi.

    phi_hat depends on theta only through the per-sample weights, so the
    whole meta term reduces to one backprop through the net with output
    cotangent v = -(alpha/b) * <g_i, g_meta>, summed per class for class-level
    kinds: v_c = -(alpha/b) * sum_{i: y_i = c} <g_i, g_meta>. The head's one
    forward pass gives d and is the tape that backprop runs on.
    """
    x = head_signal(head, signal)
    d_tape = forward_tape(head.net, head.embed(x))
    d = head.read(d_tape.logits, x.size)
    looked = _lookahead(tape, batch_y, head.weights(d, batch_y), alpha)
    g_meta = backward(looked, meta_x, meta_y, np.ones(meta_y.size))
    v = head.reduce(tape.dots(batch_y, g_meta), batch_y, d.size) * -(alpha / batch_y.size)
    _, driver_cot = target_fit_loss(d, head.target(x))
    u = lam * driver_cot + v
    # padding outputs of the sample kind are discarded: zero cotangent
    return d_tape.grads(head.embed(u, pad=0.0))


def classifier_objective(logits, labels, weights, focal_gamma=None):
    """Mean weighted loss and its logit cotangent: w_i * CE_i, or with
    focal_gamma the focal loss w_i * (1 - p_i)^gamma * CE_i."""
    if focal_gamma is None:
        loss, _ = weighted_ce_loss(logits, labels, weights)
        return loss, ce_logit_cotangent(logits, labels, weights)
    _, per_sample = focal_loss(logits, labels, focal_gamma)
    cot = focal_logit_cotangent(logits, labels, focal_gamma)
    return float((weights * per_sample).mean()), cot * weights[:, None]


def evaluate_epoch(epoch: int, model, head: DifficultyHead, train_set, meta_set, thresholds):
    """Per-class meta-set accuracy and the epoch's record: split means, and
    the class difficulty snapshot with its entropy when the head records
    them. Returns (AccuracyVector, EpochRecord)."""
    acc = per_class_accuracy(model, meta_set, "meta")
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


def _check_finite(value, phase: str, step: int, quantity: str, metrics: RunMetrics) -> None:
    if not np.isfinite(value).all():
        raise NumericError(phase, step, quantity, metrics)


def train(cfg: TrainConfig, train_set, meta_set, classifier, dnet=None):
    """Run cfg.T iterations of the three-update step (the classifier step
    alone for heads without a net), with batching, a per-epoch accuracy
    refresh and metric records.

    dnet is a DifficultyHead of the variant's kind; nometa and the fixed
    variants default to theirs (the fixed one gives uniform weights).
    Returns (classifier, the trained head or None if none was passed,
    RunMetrics). T=0 returns the inputs untouched with empty metrics.
    """
    kind = VARIANTS[cfg.variant]
    head = dnet
    if head is None and kind in ("nometa", "fixed"):
        head = head_init(kind, train_set.class_count, cfg.seed)
    if head is None:
        raise ValueError(f"variant {cfg.variant!r} requires a difficulty net")
    if head.kind != kind:
        raise ValueError(f"variant {cfg.variant!r} got a {head.kind} head")
    if kind == "sample" and cfg.b > head.width:
        raise ValueError("batch size exceeds the sample net width")
    counts = meta_set.per_class_counts
    if head.net is not None and counts.min() != counts.max():
        raise ValueError("meta set must be class-balanced")
    n = train_set.size
    spe = cfg.steps_per_epoch if cfg.steps_per_epoch is not None else n // cfg.b
    if spe < 1 or spe * cfg.b > n:
        raise ValueError("steps_per_epoch * b must fit inside the train set")
    if cfg.m > meta_set.size:
        raise ValueError("meta batch larger than the meta set")
    bad = [c for c in cfg.trace_classes if not 0 <= c < train_set.class_count]
    if bad:
        raise ValueError(f"trace classes outside [0, C): {bad}")

    model = as_classifier(classifier)
    clf_opt = cfg.classifier_opt.build()
    dn_opt = cfg.dnet_opt.build() if head.net is not None else None
    lam = 0.0 if cfg.variant == "nodriver" else cfg.lam
    gamma = cfg.focal_gamma if cfg.variant == "focal" else None
    rng = consumer_rng(cfg.seed, "batch")
    metrics = RunMetrics(records=head.records)
    acc = per_class_accuracy(model, meta_set, "meta")
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

        # the classifier's one forward pass over the batch this step: the
        # virtual step, the per-sample dots, the actual step and the sample
        # kind's loss signal all reuse it
        tape = forward_tape(model, bx)
        signal = acc
        if not head.per_class:
            _, signal = weighted_ce_loss(tape.logits, by, np.ones(by.size))
        if head.net is not None:
            g_theta = _meta_gradient(head, tape, signal, by, mx, my, cfg.alpha, lam)
            _check_finite(g_theta, "meta", t, "difficulty-net gradient", metrics)
            net, dn_opt = optimizer_step(dn_opt, head.net, g_theta)
            head = replace(head, net=net)
        # weights re-computed with the updated net before the actual step
        d = dnet_forward(head, signal)
        _check_finite(d, "weighting", t, "difficulty vector", metrics)
        loss, cot = classifier_objective(tape.logits, by, head.weights(d, by), gamma)
        grads = tape.grads(cot)
        _check_finite(grads, "classifier", t, "classifier gradient", metrics)
        _check_finite(loss, "classifier", t, "training loss", metrics)
        net, clf_opt = optimizer_step(clf_opt, model.net, grads)
        model = replace(model, net=net)

        if cfg.record_losses:
            metrics.step_losses.append(float(loss))
        if head.records and cfg.trace_classes:
            norm = d / d.sum()
            for c in cfg.trace_classes:
                metrics.weight_trace.append((t, c, float(norm[c])))

        if pos == spe - 1 or t == cfg.T - 1:
            acc, rec = evaluate_epoch(t // spe, model, head, train_set, meta_set,
                                      (cfg.many_min, cfg.few_max))
            metrics.epochs.append(rec)
    out_model = model if isinstance(classifier, Classifier) else model.net
    return out_model, head if dnet is not None else None, metrics
