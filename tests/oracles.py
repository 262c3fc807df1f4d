"""Reference rules that the tests check ltlab against and that no ltlab
command runs: the weighted CE with its own log-softmax, the label check,
the classifier gradient, the bilevel step's lookahead and meta-gradient with
buffers made per call and labels checked per call, the class weight lookup
and the driver loss."""

import numpy as np

from ltlab.difficulty import (
    class_driver_targets,
    head_signal,
    seed_labels,
    target_fit_cotangent,
)
from ltlab.metatrain import _lookahead, _meta_gradient, _step_buffers
from ltlab.nnet import forward_tape


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def weighted_ce_loss(logits, labels, weights) -> tuple[float, np.ndarray]:
    """(1/b) * sum_i w_i * CE_i and the per-sample terms w_i * CE_i."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError("logits must be (n, C)")
    n = logits.shape[0]
    if labels.shape != (n,) or weights.shape != (n,):
        raise ValueError("labels and weights must be (n,) matching logits")
    if n == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("labels outside [0, C)")
    ce = -log_softmax(logits)[np.arange(n), labels]
    per_sample = weights * ce
    return float(per_sample.mean()), per_sample


def check_labels(labels, rows: tuple, classes: int) -> np.ndarray:
    """labels as an array of shape rows, one per logit row, each in
    [0, classes); anything else raises ValueError."""
    labels = np.asarray(labels)
    if labels.shape != rows:
        raise ValueError(f"labels must be {rows}, one per logit row")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError("labels outside [0, C)")
    return labels


def labelled_tape(model, batch, labels):
    """The model's tape over batch, labelled after check_labels."""
    tape = forward_tape(model, batch)
    logits = tape.logits
    return tape.with_labels(check_labels(labels, logits.shape[:-1], logits.shape[-1]))


def backward(model, batch, labels, weights, out=None) -> np.ndarray:
    """Gradient of (1/b) * sum_i w_i * CE_i wrt the net's params, written
    into out as Tape.grads writes it."""
    tape = labelled_tape(model, batch, labels)
    return tape.grads(tape.cotangent(weights), out)


def virtual_step(model, batch_x, batch_y, weights, alpha: float):
    """One plain-SGD lookahead on the weighted CE; returns the looked-ahead
    classifier and never touches optimizer state."""
    return _lookahead(labelled_tape(model, batch_x, batch_y), weights, alpha,
                      _step_buffers(model, None))


def meta_gradient(head, model, signal, batch_x, batch_y, meta_x, meta_y, alpha: float,
                  lam: float) -> np.ndarray:
    """Gradient wrt the head's net of lam * driver + mean meta CE at the
    virtual step phi_hat(theta). signal is the accuracy vector, or for the
    sample kind the batch's per-sample losses."""
    x = head_signal(head, signal)
    tape = labelled_tape(model, batch_x, batch_y)
    meta_y = check_labels(meta_y, np.shape(meta_x)[:-1], tape.logits.shape[-1])
    return _meta_gradient(head, tape, seed_labels(tape.labels, head.width), x,
                          head.target(x), head.forward(x), meta_x, meta_y, alpha, lam,
                          _step_buffers(model, head.net))


def weights_from_difficulty(d, labels) -> np.ndarray:
    """Per-sample loss weights: w_i = d[y_i]."""
    d = np.asarray(d, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= d.size:
        raise ValueError("labels outside [0, C)")
    return d[labels]


def target_fit_loss(d, target) -> tuple[float, np.ndarray]:
    """Mean squared pull of d toward target, with its cotangent wrt d:
    value = (1/C) * sum_c (target_c - d_c)^2."""
    d = np.asarray(d, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if d.shape != target.shape or d.ndim != 1:
        raise ValueError("d and target must be matching vectors")
    return float(((target - d) ** 2).mean()), target_fit_cotangent(d, target)


def driver_loss(d, acc) -> tuple[float, np.ndarray]:
    """Anchor difficulties at 1 - normalized accuracy. Returns (value, dL/dd)."""
    return target_fit_loss(d, class_driver_targets(acc))
