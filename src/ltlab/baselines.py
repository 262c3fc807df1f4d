"""Comparison weighting schemes, the decoupled-learning second stage and
probability ensembling. The focal loss is a classifier objective and lives
with the training step (ltlab.metatrain.classifier_objective)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .nnet import (
    Classifier,
    ConfigError,
    MLP,
    accuracy_array,
    check_finite,
    classifier_logits,
    forward_tape,
    init_mlp,
    optimizer_step,
    softmax,
)
from .rng import consumer_rng


def cdb_weights(acc, tau: float) -> np.ndarray:
    """Class-difficulty-balancing weights (1 - a_c)^tau, unnormalized."""
    a = accuracy_array(acc)
    if tau < 0:
        raise ValueError("tau must be non-negative")
    return (1.0 - a) ** tau


def inverse_frequency_weights(counts) -> np.ndarray:
    """Weights proportional to 1/n_c, rescaled to mean 1."""
    n = np.asarray(counts, dtype=np.float64)
    if n.min() <= 0:
        raise ValueError("counts must be positive")
    w = 1.0 / n
    return w / w.mean()


def effective_number_weights(counts, beta: float) -> np.ndarray:
    """Weights proportional to (1 - beta) / (1 - beta^n_c), rescaled to mean 1."""
    n = np.asarray(counts, dtype=np.float64)
    if n.min() <= 0:
        raise ValueError("counts must be positive")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    w = (1.0 - beta) / (1.0 - beta**n)
    return w / w.mean()


def class_balanced_batches(dataset, batch_size: int, seed: int):
    """Endless index batches: class uniform, then instance uniform within it,
    with replacement across batches. Deterministic for a given seed."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    counts = dataset.per_class_counts
    if counts.min() == 0:
        raise ValueError("every class needs at least one sample")
    c_count = dataset.class_count
    table = np.zeros((c_count, int(counts.max())), dtype=np.int64)
    for c in range(c_count):
        idx = np.flatnonzero(dataset.labels == c)
        table[c, : idx.size] = idx
    rng = consumer_rng(seed, "balanced_batches")
    while True:
        classes = rng.integers(0, c_count, size=batch_size)
        draws = rng.random(batch_size)
        within = (draws * counts[classes]).astype(np.int64)
        yield table[classes, within]


def crt_retrain(model: Classifier, train_set, steps: int, batch_size: int, opt_spec, seed: int):
    """Classifier retraining: freeze every feature layer bit-for-bit, re-init
    the final layer, and train it alone with class-balanced batches and plain
    CE. steps=0 hands the model back untouched. A classifier whose logits do
    not match the data's classes raises ConfigError; a non-finite gradient
    or final layer raises NumericError in the stage2 phase.

    The frozen layers only run forward, their tape's logits being the
    features; each step's tape and gradient cover the final layer alone,
    which is what the gradient of the whole net holds for that layer, bit
    for bit."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps == 0:
        return model
    if model.classes != train_set.class_count:
        raise ConfigError(f"the classifier has {model.classes} logits for data of "
                          f"{train_set.class_count} classes")
    old = model.net.layers[-1]
    fresh = init_mlp(old.w.shape[::-1], old.act, consumer_rng(seed, "init", "crt")).layers[0]
    # the features copied bit for bit; the frozen layers and the final one
    # that the optimizer steps are nets over the two parts of one vector
    net = MLP(model.net.layers[:-1] + [fresh])
    start = net.params.size - fresh.w.size - fresh.b.size
    frozen = MLP(net.layers[:-1], net.params[:start])
    last = replace(model, net=MLP([fresh], net.params[start:]))
    grad = last.net.over(np.empty_like(last.net.params))
    opt = opt_spec.build()
    batches = class_balanced_batches(train_set, batch_size, seed)
    for step in range(steps):
        idx = next(batches)
        feats = forward_tape(frozen, train_set.features[idx]).logits
        # labels of the data, matched to the logits above
        tape = forward_tape(last, feats).with_labels(train_set.labels[idx])
        grads = tape.grads(tape.resid * (1.0 / idx.size), grad)  # the mean CE's cotangent
        check_finite(grads, "stage2", step, "classifier gradient")
        optimizer_step(opt, last.net, grads)
    # the last update has no gradient after it to catch an overflow
    check_finite(last.net.params, "stage2", steps - 1, "classifier parameters")
    return replace(model, net=net)


def ensemble_predict(members, inputs) -> np.ndarray:
    """Mean of the members' softmax outputs; rows still sum to one."""
    if not members:
        raise ValueError("need at least one member")
    probs = [softmax(classifier_logits(m, inputs)) for m in members]
    widths = {p.shape[1] for p in probs}
    if len(widths) != 1:
        raise ValueError("members disagree on class count")
    return np.mean(probs, axis=0)
