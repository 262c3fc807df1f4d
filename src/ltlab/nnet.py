"""Minimal dense-net numerics: forward, reverse-mode gradients, per-sample
gradient dot products, and the three optimizer rules the training loops use.

Everything is float64 and plain numpy. There is no general autodiff graph;
the backward passes below are hand-derived for this fixed layer structure
(affine -> {relu|identity|sigmoid}, optional cosine output head).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .data import atomic_write

NORM_EPS = 1e-12  # guard for cosine-head norms
SIG_CLAMP = 1e-12  # sigmoid outputs stay inside (0, 1) even under underflow


@dataclass
class Layer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    act: str  # "relu" | "identity" | "sigmoid"


class MLP:
    """A dense net over one float64 parameter vector, params, laid out as
    LTNN1 checkpoints store it: per layer W row-major, then b. Each layer's w
    and b are views into it. Built from layers alone, their arrays are copied
    into a new vector; with params, layers give only shapes and activations."""

    def __init__(self, layers: list[Layer], params: np.ndarray | None = None):
        if params is None:
            params = np.concatenate(
                [np.asarray(a, dtype=np.float64).ravel() for l in layers for a in (l.w, l.b)])
        self.params = params
        self.layers = [Layer(w, b, l.act) for (w, b), l in zip(_split(layers, params), layers)]

    def split(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (W, b) views into a vector laid out like params."""
        return _split(self.layers, vec)

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[1]


@dataclass
class Classifier:
    """A dense net plus its output head. Linear heads read logits straight off
    the last affine layer; cosine heads renormalize features and class rows."""

    net: MLP
    head: str = "linear"  # "linear" | "cosine"
    scale: float = 16.0

    def __post_init__(self):
        if self.head not in ("linear", "cosine"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == "cosine" and self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class AccuracyVector:
    """Per-class accuracies plus a tag naming the set they came from."""

    per_class: np.ndarray  # (C,) float64 in [0, 1]
    evaluated_on: str = "eval"

    def __post_init__(self):
        a = np.ascontiguousarray(self.per_class, dtype=np.float64)
        if a.ndim != 1:
            raise ValueError("per_class must be a vector")
        if a.size and (a.min() < 0.0 or a.max() > 1.0):
            raise ValueError("accuracies must lie in [0, 1]")
        a.setflags(write=False)
        object.__setattr__(self, "per_class", a)

    @property
    def mean(self) -> float:
        return float(self.per_class.mean())


def accuracy_array(acc) -> np.ndarray:
    """Per-class accuracies as a float64 vector, from an AccuracyVector or an
    array-like."""
    a = acc.per_class if isinstance(acc, AccuracyVector) else np.asarray(acc, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("accuracy must be a vector")
    return a


def _split(layers, vec):
    out, off = [], 0
    for layer in layers:
        rows, cols = np.shape(layer.w)
        mid = off + rows * cols
        out.append((vec[off:mid].reshape(rows, cols), vec[mid : mid + rows]))
        off = mid + rows
    if vec.shape != (off,):
        raise ValueError(f"expected a vector of {off} parameters, got shape {vec.shape}")
    return out


def init_mlp(sizes: list[int], out_act: str, rng: np.random.Generator) -> MLP:
    """Scaled-uniform fan-in init, zero biases: W ~ U(-1/sqrt(in), 1/sqrt(in))."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("sizes must list at least input and output widths, all >= 1")
    layers = []
    for k in range(len(sizes) - 1):
        fan_in, out = sizes[k], sizes[k + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(out, fan_in))
        act = out_act if k == len(sizes) - 2 else "relu"
        layers.append(Layer(w, np.zeros(out), act))
    return MLP(layers)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _apply_act(z, act):
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "identity":
        return z
    if act == "sigmoid":
        return np.clip(sigmoid(z), SIG_CLAMP, 1.0 - SIG_CLAMP)
    raise ValueError(f"unknown activation {act!r}")


def _act_grad(z, act):
    if act == "relu":
        return (z > 0.0).astype(np.float64)
    if act == "identity":
        return None  # multiply by 1: skip
    if act == "sigmoid":
        s = sigmoid(z)
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {act!r}")


def _cache_layers(layers, x):
    """Run a slice of layers, keeping (input, pre-activation) per layer."""
    h = np.ascontiguousarray(x, dtype=np.float64)
    steps = []
    for layer in layers:
        z = h @ layer.w.T + layer.b
        steps.append((h, z))
        h = _apply_act(z, layer.act)
    return steps, h


def _cosine_parts(last: Layer, feats, scale):
    """Logits = scale * cos(feature, class row) using the last layer as
    prototypes; its bias plays no part. Norms are guarded at 1e-12."""
    r_f = np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), NORM_EPS)
    f_hat = feats / r_f
    r_w = np.maximum(np.linalg.norm(last.w, axis=1, keepdims=True), NORM_EPS)
    w_hat = last.w / r_w
    return r_f, f_hat, r_w, w_hat, scale * f_hat @ w_hat.T


def as_classifier(model) -> Classifier:
    """A bare MLP as a linear-head Classifier; a Classifier as it is."""
    return model if isinstance(model, Classifier) else Classifier(model)


def classifier_logits(model, inputs: np.ndarray) -> np.ndarray:
    return forward_tape(model, inputs).logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def weighted_ce_loss(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
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


@dataclass
class Tape:
    """One forward pass over a batch, kept so that the loss, backprop from
    any logit cotangent and the per-sample gradient dots all share it:
    per-layer (input, pre-activation) steps, the cosine head's parts (None
    for linear heads), and the logits."""

    clf: Classifier
    steps: list
    cos: tuple | None
    logits: np.ndarray

    def grads(self, cotangent: np.ndarray) -> np.ndarray:
        """Parameter grads given dLoss/dlogits, laid out like the net's params."""
        cot = np.asarray(cotangent, dtype=np.float64)
        if cot.shape != self.logits.shape:
            raise ValueError(f"cotangent must be {self.logits.shape}, got {cot.shape}")
        net = self.clf.net
        grads = np.zeros_like(net.params)
        views = net.split(grads)
        if self.clf.head == "cosine":  # its bias takes no part and keeps a zero grad
            views[-1][0][...], d_f = _cosine_grads(self.cos, self.clf.scale * cot)
            _walk_grads(net.layers[:-1], self.steps, d_f, views)
        else:
            _walk_grads(net.layers, self.steps, cot, views)
        return grads

    def dots(self, labels, direction: np.ndarray) -> np.ndarray:
        """<grad_phi CE_i, direction> for every sample i, unweighted."""
        labels = _check_labels(labels, self.logits)
        clf, steps, n = self.clf, self.steps, labels.size
        views = clf.net.split(direction)
        g = softmax(self.logits)
        g[np.arange(n), labels] -= 1.0
        dots = np.zeros(n)
        if clf.head == "cosine":
            r_f, f_hat, r_w, w_hat, _ = self.cos
            vw, _ = views[-1]  # bias carries no cosine gradient
            a = f_hat @ vw.T
            b = f_hat @ w_hat.T
            u = (w_hat * vw).sum(axis=1)
            gs = clf.scale * g
            dots += (gs * (a - b * u[None, :]) / r_w.T).sum(axis=1)
            d_f = _normalize_vjp(gs @ w_hat, f_hat, r_f)
            return _walk_dots(clf.net.layers[:-1], steps, d_f, views, dots)
        return _walk_dots(clf.net.layers, steps, g, views, dots)


def forward_tape(model, x) -> Tape:
    """The classifier's forward pass over batch x, kept as a Tape."""
    clf = as_classifier(model)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != clf.net.in_dim:
        raise ValueError(f"inputs must be (n, {clf.net.in_dim}), got {x.shape}")
    if clf.head == "cosine":
        steps, feats = _cache_layers(clf.net.layers[:-1], x)
        cos = _cosine_parts(clf.net.layers[-1], feats, clf.scale)
        return Tape(clf, steps, cos, cos[4])
    steps, logits = _cache_layers(clf.net.layers, x)
    return Tape(clf, steps, None, logits)


def _check_labels(labels, logits) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ValueError("labels must be (n,)")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ValueError("labels outside [0, C)")
    return labels


def ce_logit_cotangent(logits, labels, weights) -> np.ndarray:
    """d/dlogits of (1/b) * sum_i w_i * CE_i: (softmax - onehot) * w_i / b."""
    labels = _check_labels(labels, logits)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != labels.shape:
        raise ValueError("weights must be (n,)")
    n = logits.shape[0]
    g = softmax(logits)
    g[np.arange(n), labels] -= 1.0
    g *= (weights / n)[:, None]
    return g


def _walk_grads(layers, steps, d_post, views) -> None:
    """Cotangent wrt a layer slice's post-activation output -> summed grads,
    written into the slice's (dW, db) views."""
    for k in reversed(range(len(layers))):
        h_in, z = steps[k]
        ag = _act_grad(z, layers[k].act)
        dz = d_post if ag is None else d_post * ag
        np.matmul(dz.T, h_in, out=views[k][0])
        np.add.reduce(dz, axis=0, out=views[k][1])
        d_post = dz @ layers[k].w


def _walk_dots(layers, steps, d_post, views, dots):
    """Per-sample cotangent rows -> per-sample <grad_i, direction>, accumulated
    into dots. Per-sample weight grads are rank-one (dz_i outer h_i), so the
    dot collapses to (dz @ Vw) . h row-wise without materializing them."""
    for k in reversed(range(len(layers))):
        h_in, z = steps[k]
        ag = _act_grad(z, layers[k].act)
        dz = d_post if ag is None else d_post * ag
        vw, vb = views[k]
        dots += ((h_in @ vw.T) * dz).sum(axis=1) + dz @ vb
        d_post = dz @ layers[k].w
    return dots


def _cosine_grads(cos, g):
    """Cotangent wrt cosine logits -> (dW_last, d_features)."""
    r_f, f_hat, r_w, w_hat, _ = cos
    return _normalize_vjp(g.T @ f_hat, w_hat, r_w), _normalize_vjp(g @ w_hat, f_hat, r_f)


def _normalize_vjp(d_hat, hat, r):
    """normalize() backward: project out the radial component, divide by norm."""
    return (d_hat - (d_hat * hat).sum(axis=1, keepdims=True) * hat) / r


def backward(model, batch, labels, weights) -> np.ndarray:
    """Gradient of (1/b) * sum_i w_i * CE_i wrt the net's params."""
    tape = forward_tape(model, batch)
    return tape.grads(ce_logit_cotangent(tape.logits, labels, weights))


def per_sample_grad_dots(model, batch, labels, direction: np.ndarray) -> np.ndarray:
    """<grad_phi CE_i, direction> for every sample i, unweighted."""
    return forward_tape(model, batch).dots(labels, direction)


# ---------------------------------------------------------------------------
# optimizers


def add_scaled(net: MLP, grads: np.ndarray, coeff: float) -> MLP:
    """New net with params + coeff * grads; activations carried over."""
    return MLP(net.layers, net.params + coeff * grads)


@dataclass
class OptimizerState:
    kind: str  # "sgd" | "momentum" | "adam"
    lr: float
    weight_decay: float = 0.0
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None  # velocity (momentum) or first moment (adam)
    v: np.ndarray | None = None  # second moment (adam)


def make_optimizer(kind: str, lr: float, **kwargs) -> OptimizerState:
    if kind not in ("sgd", "momentum", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    if lr <= 0:
        raise ValueError("lr must be positive")
    return OptimizerState(kind=kind, lr=lr, **kwargs)


def optimizer_step(
    state: OptimizerState, net: MLP, grads: np.ndarray
) -> tuple[MLP, OptimizerState]:
    """One update. Weight decay enters every rule as gradient += wd * param.
    Moments start at zero and are vectors laid out like the net's params."""
    g = grads + state.weight_decay * net.params
    t = state.step + 1
    if state.kind == "sgd":
        return add_scaled(net, g, -state.lr), replace(state, step=t)
    m_old = np.zeros_like(g) if state.m is None else state.m
    if state.kind == "momentum":
        m_new = state.momentum * m_old + g
        return add_scaled(net, m_new, -state.lr), replace(state, step=t, m=m_new)
    # adam with bias correction; the update reuses g's buffer (fewer temporaries)
    v_old = np.zeros_like(g) if state.v is None else state.v
    b1, b2 = state.beta1, state.beta2
    m_new = b1 * m_old + (1 - b1) * g
    v_new = b2 * v_old + (1 - b2) * g**2
    c1, c2 = 1 - b1**t, 1 - b2**t
    update = np.sqrt(v_new / c2, out=g)
    update += state.eps
    np.divide(m_new / c1, update, out=update)
    return add_scaled(net, update, -state.lr), replace(state, step=t, m=m_new, v=v_new)


# ---------------------------------------------------------------------------
# evaluation and checkpoints


def per_class_accuracy(model, eval_set, evaluated_on: str = "eval") -> AccuracyVector:
    """Argmax accuracy per class of the model's logits on eval_set."""
    return score_accuracy(classifier_logits(model, eval_set.features), eval_set, evaluated_on)


def score_accuracy(scores, eval_set, evaluated_on: str = "eval") -> AccuracyVector:
    """Argmax accuracy per class of (n, C) scores, logits or probabilities,
    for eval_set's rows; ties go to the lowest class index."""
    missing = np.flatnonzero(eval_set.per_class_counts == 0)
    if missing.size:
        raise ValueError(f"missing classes in eval set: {missing.tolist()}")
    pred = np.argmax(scores, axis=1)  # first max = lowest index on ties
    acc = np.empty(eval_set.class_count)
    for c in range(eval_set.class_count):
        sel = eval_set.labels == c
        acc[c] = float((pred[sel] == c).mean())
    return AccuracyVector(acc, evaluated_on)


_ACT_BYTE = {"identity": 0, "relu": 1, "sigmoid": 2}
_BYTE_ACT = {v: k for k, v in _ACT_BYTE.items()}
_MAGIC = b"LTNN1"


def save_checkpoint(net: MLP, path: str) -> None:
    """Little-endian binary: magic, layer count, then per layer rows, cols,
    row-major f64 weights, f64 biases, one activation tag byte."""
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(net.layers)))
        for layer in net.layers:
            rows, cols = layer.w.shape
            fh.write(struct.pack("<II", rows, cols))
            fh.write(np.ascontiguousarray(layer.w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())
            fh.write(struct.pack("B", _ACT_BYTE[layer.act]))


def load_checkpoint(path: str) -> MLP:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != _MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    off = 5
    (n_layers,) = struct.unpack_from("<I", raw, off)
    off += 4
    layers = []
    for _ in range(n_layers):
        rows, cols = struct.unpack_from("<II", raw, off)
        off += 8
        w = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=off)
        off += 8 * rows * cols
        b = np.frombuffer(raw, dtype="<f8", count=rows, offset=off)
        off += 8 * rows
        tag = raw[off]
        off += 1
        if tag not in _BYTE_ACT:
            raise ValueError(f"unknown activation tag {tag}")
        layers.append(Layer(w.reshape(rows, cols), b, _BYTE_ACT[tag]))
    if off != len(raw):
        raise ValueError("trailing bytes after last layer")
    return MLP(layers)  # copies into one writable parameter vector
