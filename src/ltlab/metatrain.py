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
Every head draws a meta batch from its seed's stream, so that each seed's
train batches are the same for every method, but only a head with a net
gathers its rows.

Per-class accuracies feeding the difficulty head are refreshed once per epoch,
by one pass of every seed's classifier over the meta set.
A net-less head weights once per refresh: its rule runs, and its difficulties
are checked, on the first step after the refresh, and they hold until the next.
Inside an epoch a class-level net's input is fixed, so the net's pass that
weights step t's update 3 is also the pass that step t+1's updates 1 and 2
run on, and the pass that records the epoch's difficulties at its end is
the one the next epoch's first step runs on.

train_seeds trains the seeds of one command together: their nets are one
stack with a leading seed axis (see nnet), each seed draws its own batches
from its own stream, and a seed whose values stop being finite stops alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .difficulty import (
    DifficultyHead,
    difficulty_entropy,
    dnet_forward,
    head_signal,
    seed_labels,
    target_fit_cotangent,
)
from .nnet import (  # re-exported: ConfigError, NumericError (train_seeds gives them), OptSpec
    MLP,
    Classifier,
    ConfigError,
    NumericError,
    OptSpec,
    forward_tape,
    optimizer_step,
    per_class_accuracy,
)
from .rng import consumer_rng


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
    trace_classes: tuple[int, ...] = ()


@dataclass
class SplitAccuracy:
    overall: float
    many: float | None
    medium: float | None
    few: float | None


# the split names, in the order every report and CSV column lists them
SPLITS = tuple(f.name for f in fields(SplitAccuracy))


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
class EpochRecord(SplitAccuracy):
    epoch: int
    accuracy: np.ndarray  # (C,) per-class, on the meta/val set
    entropy: float | None
    difficulty: np.ndarray | None  # (C,) snapshot, for heads that record one


@dataclass
class RunMetrics:
    records: bool = False  # DifficultyHead.records: epochs carry difficulty snapshots
    epochs: list[EpochRecord] = field(default_factory=list)
    weight_trace: list[tuple[int, int, float]] = field(default_factory=list)


@dataclass(frozen=True)
class _StepBuffers:
    """The bilevel step's scratch nets, each over its own vector laid out
    like its net's params, seed axis included, so that their layer views
    are made once per training call: the classifier gradient (the
    lookahead's, then the actual step's), phi_hat, the meta gradient at
    phi_hat, and the difficulty-net gradient (None for heads without a
    net)."""

    grad: MLP
    phi_hat: Classifier
    meta: MLP
    theta: MLP | None


def _step_buffers(model: Classifier, net: MLP | None) -> _StepBuffers:
    """The step's buffers for a classifier and its head's net (None for a
    head without one), stacked as they are."""
    def scratch(n):
        return n.over(np.empty_like(n.params))

    return _StepBuffers(scratch(model.net), replace(model, net=scratch(model.net)),
                       scratch(model.net), None if net is None else scratch(net))


def _lookahead(tape, weights, alpha: float, buffers: _StepBuffers) -> Classifier:
    """phi_hat = phi - alpha * grad_phi of the weighted CE, from the labelled
    tape at phi, with the gradient in buffers.grad, written into and
    returned as buffers.phi_hat."""
    step = tape.grads(tape.cotangent(weights), buffers.grad)
    step *= -alpha
    np.add(tape.net.params, step, out=buffers.phi_hat.net.params)
    return buffers.phi_hat


def _meta_gradient(head, tape, labels, x, target, d_tape, meta_x, meta_y, alpha, lam,
                   buffers: _StepBuffers):
    """Gradient wrt the head's net of lam * driver + mean meta CE at the
    virtual step phi_hat(theta), written into buffers.theta (phi_hat and the
    meta gradient go into theirs), from the classifier's labelled tape over
    the train batch at phi, its labels as seed_labels, the checked signal x
    with its driver target, d_tape, the net's pass over x at the current
    theta, and meta labels already matched to the classifier's logits. x is
    the accuracy vector, or for the sample kind the batch's per-sample
    losses. For a stack of seeds every argument carries the seed axis.

    phi_hat depends on theta only through the per-sample weights, so the
    whole meta term reduces to one backprop through the net with output
    cotangent v = -(alpha/b) * <g_i, g_meta>, summed per class for class-level
    kinds: v_c = -(alpha/b) * sum_{i: y_i = c} <g_i, g_meta>. d_tape gives d
    and is the tape that backprop runs on.
    """
    d = head.read(d_tape.logits)
    looked = _lookahead(tape, head.weights(d, labels), alpha, buffers)
    meta = forward_tape(looked, meta_x).with_labels(meta_y)
    meta.grads(meta.resid * (1.0 / meta_y.shape[-1]), buffers.meta)  # the mean CE's cotangent
    v = head.reduce(tape.dots(buffers.meta), labels) * -(alpha / labels.shape[-1])
    u = lam * target_fit_cotangent(d, target) + v
    return d_tape.grads(head.embed(u), buffers.theta)


def classifier_objective(tape, weights, focal_gamma=None):
    """Mean weighted loss over the labelled tape's batch and its logit
    cotangent: w_i * CE_i, or with focal_gamma the focal loss
    w_i * (1 - p_i)^gamma * CE_i (Lin et al., 2017).

    The focal loss reads p_i as exp(-CE_i) and its cotangent reads the
    softmax p_i; the two round differently, and both are kept so that
    focal runs reproduce bit for bit. The cotangent is the CE residual
    scaled by s_i = (1-p)^g + g*(1-p)^(g-1)*p*CE_i; both terms vanish as
    p -> 1, so samples with p == 1 keep only the first.
    """
    # a mean over the batch axis, as a sum and one division: what mean()
    # computes, without its overhead
    n = tape.ce.shape[-1]
    if focal_gamma is None:
        return (weights * tape.ce).sum(axis=-1) / n, tape.cotangent(weights)
    gamma, p, ce = focal_gamma, tape.p, tape.ce
    loss = (weights * ((1.0 - np.exp(-ce)) ** gamma * ce)).sum(axis=-1) / n
    ce_p = -np.log(np.maximum(p, 1e-300))
    one_m = 1.0 - p
    scale = one_m**gamma
    if gamma > 0:
        mask = one_m > 0
        scale[mask] += gamma * one_m[mask] ** (gamma - 1.0) * p[mask] * ce_p[mask]
    return loss, tape.resid * (scale / n)[..., None] * weights[..., None]


def _stack(rows):
    """Per-seed arrays as one array with a leading seed axis. A single seed
    keeps no seed axis, so that training one seed pays nothing for the
    stack."""
    return rows[0] if len(rows) == 1 else np.stack(rows)


def _unstack(a, count: int) -> list:
    """Each seed's slice of an array that _stack made for count seeds."""
    return [a] if count == 1 else list(a)


def evaluate_epoch(epoch: int, acc: np.ndarray, live, head: DifficultyHead, train_set,
                   thresholds):
    """The end of an epoch, from acc, the per-class meta-set accuracies of
    the seeds' classifiers stacked like the seeds: for heads that record
    them, one pass of the head, stacked like the seeds, over acc for the
    class difficulty snapshots with their entropy, and the EpochRecord of
    each seed in live, its index in the stack.

    Returns (head_pass, records): that pass (None without one), which the
    next epoch's first step reuses: a net's tape, or a net-less head's
    difficulties; and the records, in the order of live."""
    count = 1 if acc.ndim == 1 else len(acc)
    head_pass, ds = None, [None] * count
    if head.records:
        x = head_signal(head, acc)
        tape = head.forward(x) if head.net is not None else None
        d = dnet_forward(head, x, tape)
        head_pass, ds = d if tape is None else tape, _unstack(d, count)
    rows, records = _unstack(acc, count), []
    for s in live:
        splits = evaluate_splits(rows[s], train_set.per_class_counts, thresholds)
        records.append(EpochRecord(epoch=epoch, accuracy=rows[s], **vars(splits),
                                   entropy=None if ds[s] is None else difficulty_entropy(ds[s]),
                                   difficulty=ds[s]))
    return head_pass, records


def train_seeds(cfg: TrainConfig, train_set, meta_set, classifiers, heads, seeds) -> list:
    """Run cfg.T iterations of the three-update step (the classifier step
    alone for heads without a net) for every seed at once, with batching, a
    per-epoch accuracy refresh and metric records. classifiers and heads
    hold one freshly built net of the same shapes per seed; the head's
    kind decides the step, and plain CE is head_init("fixed", C, seed).

    The seeds' nets train as one stack, each seed on the batches of its own
    stream consumer_rng(seed, "batch"), and every slice of the stack
    computes what that seed computes alone. An epoch is
    train_set.size // cfg.b batches drawn from one permutation.

    Returns per seed (classifier, trained head, RunMetrics), or the
    NumericError that stopped it: a non-finite value in one seed's slice
    stops that seed alone, in the phase and step that produced it, with its
    metrics as they stood; the other seeds train on. The optimizers update
    in place, so the nets are copied once here and the callers' are never
    written; T=0 returns the inputs themselves with empty metrics. Settings
    that do not fit the data raise ConfigError.
    """
    head = heads[0]
    if not len(classifiers) == len(heads) == len(seeds) > 0:
        raise ValueError("train_seeds needs one classifier and one head per seed")
    n = train_set.size
    if cfg.b > n:
        raise ConfigError(f"batch_size {cfg.b} exceeds the train set of {n}")
    spe = n // cfg.b
    if cfg.m > meta_set.size:
        raise ConfigError(f"meta batch of {cfg.m} (meta_batch_size) exceeds the meta set "
                          f"of {meta_set.size}")
    if head.kind == "sample" and cfg.b != head.width:
        raise ConfigError(f"batch_size {cfg.b} differs from the sample net width {head.width}")
    counts = meta_set.per_class_counts
    if head.net is not None and counts.min() != counts.max():
        raise ConfigError("meta set must be class-balanced")
    bad = [c for c in cfg.trace_classes if not 0 <= c < train_set.class_count]
    if bad:
        raise ConfigError(f"trace classes outside [0, C): {bad}")
    # the data's labels then fit the logits, as Tape.with_labels takes them
    width = classifiers[0].classes
    if {train_set.class_count, meta_set.class_count} != {width}:
        raise ConfigError(f"the classifier has {width} logits for data of "
                          f"{train_set.class_count} classes (meta set: {meta_set.class_count})")

    count = len(seeds)
    model = classifiers[0]
    model = replace(model, net=model.net.over(_stack([c.net.params for c in classifiers]).copy()))
    metrics = [RunMetrics(records=head.records) for _ in seeds]
    errors, live = [None] * count, list(range(count))

    def check(value, phase: str, t: int, quantity: str) -> None:
        """Stop each live seed whose slice of value is not finite."""
        finite = np.isfinite(value)
        if finite.all():
            return
        finite = finite.reshape(count, -1).all(axis=1)
        for s in [s for s in live if not finite[s]]:
            errors[s] = NumericError(phase, t, quantity, metrics[s])
            live.remove(s)

    # evaluation: one pass of the whole stack over the meta set
    acc = per_class_accuracy(model, meta_set)
    check(acc, "evaluation", 0, "meta-set logits")
    if cfg.T == 0:
        return [e or (c, h, m) for e, c, h, m in zip(errors, classifiers, heads, metrics)]

    if head.net is not None:
        head = replace(head, net=head.net.over(_stack([h.net.params for h in heads]).copy()))
    buffers = _step_buffers(model, head.net)
    clf_opt = cfg.classifier_opt.build()
    dn_opt = cfg.dnet_opt.build() if head.net is not None else None
    rngs = [consumer_rng(seed, "batch") for seed in seeds]

    head_pass = None  # the head's pass over x, once there is one: a tape, or a rule's difficulties
    perm = np.empty(0, dtype=np.int64)
    per_class, trace = head.per_class, cfg.trace_classes if head.records else ()
    for t in range(cfg.T):
        if not live:
            break
        pos = t % spe
        if pos == 0:
            perm = _stack([rng.permutation(n) for rng in rngs])
        idx = perm[..., pos * cfg.b : (pos + 1) * cfg.b]
        bx, by = train_set.features[idx], train_set.labels[idx]
        # drawn for every head, so all methods see the same train batches;
        # only a head with a net reads it
        midx = _stack([rng.choice(meta_set.size, size=cfg.m, replace=False) for rng in rngs])

        # the classifier's one forward pass over the batch this step: the
        # virtual step, the per-sample dots, the actual step and the sample
        # kind's loss signal all reuse it
        tape = forward_tape(model, bx).with_labels(by)
        labels = seed_labels(by, head.width)
        if pos == 0 or not per_class:
            # a new signal, the refreshed accuracies or this batch's losses;
            # the accuracies' pass is the evaluation's, if one ran
            x = head_signal(head, acc if per_class else tape.ce)
            if head.net is None:  # its difficulties hold until the next refresh
                d = dnet_forward(head, x) if head_pass is None else head_pass
                check(d, "weighting", t, "difficulty vector")
            else:
                target = head.target(x)
            if not per_class:
                head_pass = None
        if head.net is not None:
            mx, my = meta_set.features[midx], meta_set.labels[midx]
            if head_pass is None:
                head_pass = head.forward(x)
            g_theta = _meta_gradient(head, tape, labels, x, target, head_pass, mx, my,
                                     cfg.alpha, cfg.lam, buffers)
            check(g_theta, "meta", t, "difficulty-net gradient")
            optimizer_step(dn_opt, head.net, g_theta)
            # the updated net's pass: this step's weights, and while x holds,
            # the next step's pass before its update
            head_pass = head.forward(x)
            d = dnet_forward(head, x, head_pass)
            check(d, "weighting", t, "difficulty vector")
        loss, cot = classifier_objective(tape, head.weights(d, labels), cfg.focal_gamma)
        grads = tape.grads(cot, buffers.grad)
        check(grads, "classifier", t, "classifier gradient")
        check(loss, "classifier", t, "training loss")
        optimizer_step(clf_opt, model.net, grads)

        if trace:
            norm = _unstack(d / d.sum(axis=-1, keepdims=True), count)
            for s in live:
                metrics[s].weight_trace += [(t, c, float(norm[s][c])) for c in trace]

        if live and (pos == spe - 1 or t == cfg.T - 1):
            acc = per_class_accuracy(model, meta_set)
            check(acc, "evaluation", t, "meta-set logits")
            head_pass, records = evaluate_epoch(t // spe, acc, live, head, train_set,
                                                (cfg.many_min, cfg.few_max))
            for s, rec in zip(live, records):
                metrics[s].epochs.append(rec)

    models = [replace(model, net=model.net.over(p)) for p in _unstack(model.net.params, count)]
    heads_out = heads
    if head.net is not None:
        heads_out = [replace(head, net=head.net.over(p)) for p in _unstack(head.net.params, count)]
    return [e or (c, h, m) for e, c, h, m in zip(errors, models, heads_out, metrics)]
