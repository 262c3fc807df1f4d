"""Comparison weighting schemes and the decoupled-learning second stage."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .nnet import (
    Classifier,
    Layer,
    MLP,
    accuracy_array,
    as_classifier,
    backward,
    check_finite,
    classifier_logits,
    log_softmax,
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


def focal_loss(logits, labels, gamma: float) -> tuple[float, np.ndarray]:
    """Per-sample (1 - p_y)^gamma * CE and its batch mean; gamma=0 is plain CE."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    ce = -log_softmax(logits)[np.arange(n), labels]
    p_y = np.exp(-ce)
    per_sample = (1.0 - p_y) ** gamma * ce
    return float(per_sample.mean()), per_sample


def focal_logit_cotangent(logits, labels, gamma: float) -> np.ndarray:
    """d(mean focal)/dlogits. The softmax-CE cotangent picks up a per-sample
    factor s = (1-p)^g + g*(1-p)^(g-1)*p*CE; both terms vanish as p -> 1."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    probs = softmax(logits)
    p_y = probs[np.arange(n), labels]
    ce = -np.log(np.maximum(p_y, 1e-300))
    one_m = 1.0 - p_y
    scale = one_m**gamma
    if gamma > 0:
        mask = one_m > 0
        scale = scale.copy()
        scale[mask] += gamma * one_m[mask] ** (gamma - 1.0) * p_y[mask] * ce[mask]
    g = probs
    g[np.arange(n), labels] -= 1.0
    return g * (scale / n)[:, None]


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


def crt_retrain(model, train_set, steps: int, batch_size: int, opt_spec, seed: int):
    """Classifier retraining: freeze every feature layer bit-for-bit, re-init
    the final layer, and train it alone with class-balanced batches and plain
    CE. steps=0 hands the model back untouched. A non-finite gradient or
    final layer raises NumericError in the stage2 phase."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps == 0:
        return model
    clf = as_classifier(model)
    old = clf.net.layers[-1]
    rng = consumer_rng(seed, "init", "crt")
    bound = 1.0 / np.sqrt(old.w.shape[1])
    fresh = Layer(rng.uniform(-bound, bound, size=old.w.shape), np.zeros_like(old.b), old.act)
    # the features copied bit for bit; the optimizer steps a net over the
    # final layer's slice of the parameter vector
    net = MLP(clf.net.layers[:-1] + [fresh])
    start = net.params.size - fresh.w.size - fresh.b.size
    head = MLP([fresh], net.params[start:])
    current = replace(clf, net=net)
    opt = opt_spec.build()
    batches = class_balanced_batches(train_set, batch_size, seed)
    for step in range(steps):
        idx = next(batches)
        bx, by = train_set.features[idx], train_set.labels[idx]
        grads = backward(current, bx, by, np.ones(by.size))[start:]
        check_finite(grads, "stage2", step, "classifier gradient")
        optimizer_step(opt, head, grads)
    # the last update has no gradient after it to catch an overflow
    check_finite(head.params, "stage2", steps - 1, "classifier parameters")
    return current if isinstance(model, Classifier) else net


def ensemble_predict(members, inputs) -> np.ndarray:
    """Mean of the members' softmax outputs; rows still sum to one."""
    if not members:
        raise ValueError("need at least one member")
    probs = [softmax(classifier_logits(m, inputs)) for m in members]
    widths = {p.shape[1] for p in probs}
    if len(widths) != 1:
        raise ValueError("members disagree on class count")
    return np.mean(probs, axis=0)
