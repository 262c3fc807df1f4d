"""Difficulty heads: map per-class accuracies (or per-sample losses) to
difficulty scores in (0, 1) that weight the classifier's loss.

A head's net is an MLP with two hidden layers of width H, where H is the
smallest power of two strictly above the class count: 2^(n-1) <= C < 2^n.

A head may hold a stack of S nets, one per seed (nnet's leading axis). Its
signals, difficulties and per-sample values then carry the same leading
axis, one row per seed, and every row is computed as a lone head computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nnet import MLP, Tape, accuracy_array, forward_tape, init_mlp
from .rng import consumer_rng


def hidden_width_for(class_count: int) -> int:
    """Smallest 2^n with class_count < 2^n (so 100 -> 128, 1000 -> 1024)."""
    if class_count < 1:
        raise ValueError("class_count must be positive")
    return 1 << int(class_count).bit_length()


KINDS = ("class", "abs", "sample", "nometa", "fixed")


@dataclass
class DifficultyHead:
    """A map from a signal to difficulties in (0, 1), in one of five kinds:

    class   accuracy vector in, difficulty vector out, through one net
    abs     a scalar net scores each class from its own accuracy, so the map
            is permutation-equivariant by construction
    sample  a batch's per-sample losses in, per-sample difficulties out, one
            batch wide (Meta-Weight-Net, Shu et al., 2019)
    nometa  no net: difficulties are the driver target, clipped above 0
    fixed   no net: a hand-set rule maps the accuracy vector to class weights

    width is the class count, or for sample the batch size. Net-less
    heads apply rule to the signal instead of a net, to each seed's row of
    a stacked signal on its own.
    """

    kind: str
    net: MLP | None
    width: int
    rule: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def per_class(self) -> bool:
        """Whether difficulties are one per class (weights then come from d[y])."""
        return self.kind != "sample"

    @property
    def records(self) -> bool:
        """Whether runs record the head's class difficulties: the per-epoch
        snapshot with its entropy, the weight trace and the extended CSV
        schema. A fixed rule's weights are not recorded."""
        return self.per_class and self.kind != "fixed"

    def embed(self, x: np.ndarray) -> np.ndarray:
        """A signal-length vector as the net's input rows, or a cotangent of
        the difficulties as one in the net's output shape."""
        return x[..., :, None] if self.kind == "abs" else x[..., None, :]

    def forward(self, x: np.ndarray) -> Tape:
        """The net's pass over a checked signal x, kept as a Tape: its
        logits read back as the difficulties, and backprop runs on it."""
        return forward_tape(self.net, self.embed(x))

    def read(self, out: np.ndarray) -> np.ndarray:
        """The net's output rows back as the difficulties."""
        return out[..., 0] if self.kind == "abs" else out[..., 0, :]

    def weights(self, d: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-sample loss weights for labels already checked against the
        classifier and given as seed_labels: d[y_i], or for the sample kind
        d itself."""
        return d.ravel()[labels] if self.per_class else d

    def reduce(self, dots: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-sample values summed onto the difficulties they were weighted
        by, in sample order: one bincount over seed_labels for all seeds."""
        if not self.per_class:
            return dots
        rows = dots.shape[:-1]
        return np.bincount(labels.ravel(), weights=dots.ravel(),
                           minlength=self.width * math.prod(rows)).reshape(rows + (self.width,))

    def target(self, x: np.ndarray) -> np.ndarray:
        """Driver target: 1 - normalized accuracy, or its per-sample analogue."""
        return class_driver_targets(x) if self.per_class else sample_driver_targets(x)


def head_init(kind: str, width: int, seed: int,
              rule: Callable[[np.ndarray], np.ndarray] | None = None) -> DifficultyHead:
    """Two hidden layers of hidden_width_for(width); abs maps 1 -> 1. The
    fixed kind applies rule (uniform weights if None), nometa its clipped
    driver target."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if rule is not None and kind != "fixed":
        raise ValueError("only a fixed head takes a rule")
    if kind == "nometa":
        return DifficultyHead(kind, None, width, nometa_difficulty)
    if kind == "fixed":
        return DifficultyHead(kind, None, width, rule or uniform_weights)
    h = hidden_width_for(width)
    io = 1 if kind == "abs" else width
    rng = consumer_rng(seed, "init", "dnet")
    return DifficultyHead(kind, init_mlp([io, h, h, io], "sigmoid", rng), width)


def seed_labels(labels: np.ndarray, size: int) -> np.ndarray:
    """Class labels as indices into the flattened difficulties: a lone
    batch's labels as they are, and for a stack of batches (S, n), row s's
    labels offset by s * size, so that one gather and one bincount serve
    every seed."""
    if labels.ndim == 1:
        return labels
    return labels + size * np.arange(labels.shape[0])[:, None]


def dnet_forward(head: DifficultyHead, signal, tape: Tape | None = None) -> np.ndarray:
    """Difficulties for one signal: accuracies, or a batch's per-sample
    losses. A tape of the net's pass over this signal, head.forward(x), is
    read instead of running the net again."""
    x = head_signal(head, signal)
    if head.net is None:
        return head.rule(x) if x.ndim == 1 else np.stack([head.rule(row) for row in x])
    return head.read((head.forward(x) if tape is None else tape).logits)


def head_signal(head: DifficultyHead, signal) -> np.ndarray:
    """The signal as a checked float64 vector of a length the head accepts,
    or a stack of them, one per seed."""
    x = accuracy_array(signal)
    if head.kind in ("class", "sample") and x.shape[-1] != head.width:
        raise ValueError(f"expected a signal of {head.width} values, got {x.shape[-1]}")
    return x


def nometa_difficulty(acc) -> np.ndarray:
    """1 - normalized accuracy, clamped at 1e-12 so the entropy log stays finite."""
    return np.clip(class_driver_targets(acc), 1e-12, None)


def uniform_weights(acc) -> np.ndarray:
    """One weight per class, all 1: plain CE."""
    return np.ones(accuracy_array(acc).size)


def normalized_accuracy(acc) -> np.ndarray:
    """a_c / sum_k a_k; the all-zero vector maps to the uniform 1/C."""
    a = accuracy_array(acc)
    total = a.sum(axis=-1, keepdims=True)
    return np.divide(a, total, out=np.full(a.shape, 1.0 / a.shape[-1]), where=total != 0.0)


def target_fit_cotangent(d: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The cotangent wrt d of the driver term, the mean squared pull
    (1/C) * sum_c (target_c - d_c)^2 of d toward target: -(2/C) *
    (target_c - d_c), for matching float64 vectors or stacks of them."""
    return -(2.0 / d.shape[-1]) * (target - d)


def class_driver_targets(acc) -> np.ndarray:
    """The driver target of class-level heads: 1 - normalized accuracy."""
    return 1.0 - normalized_accuracy(acc)


def sample_driver_targets(losses: np.ndarray) -> np.ndarray:
    """Sample-level analogue of the driver target: treat exp(-loss), the
    softmax probability of the true class, as a per-sample accuracy and
    return 1 minus its normalized value. Monotone increasing in the loss."""
    l = np.asarray(losses, dtype=np.float64)
    p = np.exp(-l)
    return 1.0 - p / p.sum(axis=-1, keepdims=True)


def difficulty_entropy(d: np.ndarray) -> float:
    """E(d) = -(1/C) * sum_c log(C * d_c / sum_k d_k).

    Zero exactly on uniform vectors, positive otherwise (Jensen); the log
    argument is clamped at 1e-12.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("d must be a non-empty vector")
    if d.min() <= 0.0:
        raise ValueError("difficulties must be positive")
    ratio = d.size * d / d.sum()
    value = float(-np.log(np.maximum(ratio, 1e-12)).mean())
    # the mean of logs can round to ~-1e-16 on uniform inputs; the true
    # quantity is a KL divergence and never negative
    return max(0.0, value)
