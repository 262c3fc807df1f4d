"""Minimal dense-net numerics: forward, reverse-mode gradients, per-sample
gradient dot products, and the three optimizer rules the training loops use.

Everything is float64 and plain numpy. There is no general autodiff graph;
the backward passes below are hand-derived for this fixed layer structure
(affine -> {relu|identity|sigmoid}, optional cosine output head).

Every array may carry leading axes before its own: a stack of S nets is one
(S, P) parameter array, its batches are (S, n, in) and its labels (S, n).
The code works on the trailing axes, so a lone net (P,) and a stack go
through the same operations, and each slice of a stack computes exactly
what that net computes alone: matmul, the elementwise rules and the
reductions over trailing axes treat every slice on its own.

Gradients and directions are nets too: an MLP over a vector laid out like
the net's params, whose per-layer views are made once. Tape.grads writes
into such a net that the caller keeps, for example one made once per
training call with net.over(np.empty_like(net.params)), and Tape.dots
reads its direction from one, so a step that reuses its buffers builds no
views.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import FormatError, atomic_write

NORM_EPS = 1e-12  # guard for cosine-head norms
SIG_CLAMP = 1e-12  # sigmoid outputs stay inside (0, 1) even under underflow
HEADS = ("linear", "cosine")
OPTIMIZERS = ("sgd", "momentum", "adam")


class ConfigError(ValueError):
    """Bad configuration; rejected before any run starts."""


class NumericError(ArithmeticError):
    """Training produced a non-finite value. Names the phase, the step and the
    quantity, and carries the metrics accumulated so far (None outside stage 1)."""

    def __init__(self, phase: str, step: int, quantity: str, metrics=None):
        super().__init__(f"non-finite {quantity} in the {phase} phase at step {step}")
        self.phase, self.step, self.quantity, self.metrics = phase, step, quantity, metrics


def check_finite(value, phase: str, step: int, quantity: str) -> None:
    if not np.isfinite(value).all():
        raise NumericError(phase, step, quantity)


@dataclass
class Layer:
    w: np.ndarray  # (..., out, in)
    b: np.ndarray  # (..., out)
    act: str  # "relu" | "identity" | "sigmoid"

    def __post_init__(self):
        # the affine map's operands as a batch's matmul takes them: views,
        # made once per net rather than once per pass
        self.wt, self.b_row = self.w.swapaxes(-1, -2), self.b[..., None, :]


class MLP:
    """A dense net over one float64 parameter vector, params, laid out as
    LTNN1 checkpoints store it: per layer W row-major, then b; or a stack of
    such nets over an (S, P) array, one net per row. Each layer's w and b
    are views into it, (..., out, in) and (..., out). Built from layers
    alone, their arrays are copied into a new vector; with params, layers
    give only shapes and activations.
    The layout is worked out once and shared by every net made with over()."""

    def __init__(self, layers: list[Layer], params: np.ndarray | None = None):
        if params is None:
            params = np.concatenate(
                [np.asarray(a, dtype=np.float64).ravel() for l in layers for a in (l.w, l.b)])
        self._bind(_layout(layers), params)

    def _bind(self, layout: tuple, params: np.ndarray) -> None:
        self.layout, self.params = layout, params
        self.layers = [Layer(w, b, act) for (w, b), (*_, act) in zip(self.split(params), layout)]

    def over(self, params: np.ndarray) -> MLP:
        """A net of this one's shapes and activations over params, not copied."""
        net = object.__new__(MLP)
        net._bind(self.layout, params)
        return net

    def copy(self) -> MLP:
        return self.over(self.params.copy())

    def split(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (W, b) views into a vector laid out like params, or into
        every row of a stack of them."""
        size = self.layout[-1][2]
        if vec.shape[-1:] != (size,):
            raise ValueError(f"expected a vector of {size} parameters, got shape {vec.shape}")
        lead = vec.shape[:-1]
        return [(vec[..., start:mid].reshape(lead + shape), vec[..., mid:end])
                for start, mid, end, shape, _ in self.layout]

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[-1]


@dataclass
class Classifier:
    """A dense net plus its output head. Linear heads read logits straight off
    the last affine layer; cosine heads renormalize features and class rows."""

    net: MLP
    head: str = "linear"  # one of HEADS
    scale: float = 16.0

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == "cosine" and self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def classes(self) -> int:
        """The logit width: the last layer's output rows."""
        return self.net.layers[-1].w.shape[-2]


def accuracy_array(acc) -> np.ndarray:
    """Per-class accuracies as a float64 vector, or a stack of them with the
    classes last."""
    a = np.asarray(acc, dtype=np.float64)
    if a.ndim < 1:
        raise ValueError("accuracy must be a vector")
    return a


def _layout(layers) -> tuple:
    """Per layer (W start, b start, b end, W shape, activation) in params."""
    out, off = [], 0
    for layer in layers:
        rows, cols = np.shape(layer.w)
        mid = off + rows * cols
        out.append((off, mid, mid + rows, (rows, cols), layer.act))
        off = mid + rows
    return tuple(out)


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
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, both from one
    e = exp(-|z|), so neither exp overflows. min(z, -z) is -|z| that keeps
    a NaN's sign, as exp(z) did on the negative branch."""
    e = np.exp(np.minimum(z, -z))
    den = 1.0 + e
    return np.where(z >= 0, 1.0 / den, e / den)


def clamp_sigmoid(s: np.ndarray) -> np.ndarray:
    """Sigmoid outputs kept inside [SIG_CLAMP, 1 - SIG_CLAMP]; NaN stays NaN.
    What np.clip gives, bit for bit, without its dispatch overhead."""
    out = np.maximum(s, SIG_CLAMP)
    return np.minimum(out, 1.0 - SIG_CLAMP, out=out)


def _cache_layers(layers, x):
    """Run a slice of layers, keeping per layer its input and the derivative
    of its activation at the pre-activation (None for identity)."""
    h = np.ascontiguousarray(x, dtype=np.float64)
    steps = []
    for layer in layers:
        z = h @ layer.wt
        z += layer.b_row
        if layer.act == "relu":
            deriv = (z > 0.0).astype(np.float64)
            out = np.maximum(z, 0.0, out=z)
        elif layer.act == "sigmoid":
            s = sigmoid(z)  # the derivative uses the unclipped value
            out, deriv = clamp_sigmoid(s), s * (1.0 - s)
        elif layer.act == "identity":
            out, deriv = z, None
        else:
            raise ValueError(f"unknown activation {layer.act!r}")
        steps.append((h, deriv))
        h = out
    return steps, h


def _cosine_parts(last: Layer, feats, scale):
    """The cosine head's parts (r_f, f_hat, r_w, w_hat, scale) and its logits
    scale * cos(feature, class row), using the last layer as prototypes;
    its bias plays no part. Norms are guarded at 1e-12."""
    r_f = np.maximum(np.linalg.norm(feats, axis=-1, keepdims=True), NORM_EPS)
    f_hat = feats / r_f
    r_w = np.maximum(np.linalg.norm(last.w, axis=-1, keepdims=True), NORM_EPS)
    w_hat = last.w / r_w
    return (r_f, f_hat, r_w, w_hat, scale), scale * f_hat @ w_hat.swapaxes(-1, -2)


def classifier_logits(model, inputs: np.ndarray) -> np.ndarray:
    return forward_tape(model, inputs).logits


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


@dataclass
class Tape:
    """One forward pass over a batch, kept so that the loss, backprop from
    any logit cotangent and the per-sample gradient dots all share it: the
    net, per-layer (input, activation derivative) steps, the cosine head's
    parts (None for linear heads), and the logits. with_labels() adds the
    batch's labels with the CE residual softmax - onehot, the per-sample CE
    and the true-class probability p."""

    net: MLP
    steps: list
    cos: tuple | None
    logits: np.ndarray
    labels: np.ndarray | None = None
    resid: np.ndarray | None = None
    ce: np.ndarray | None = None
    p: np.ndarray | None = None

    def with_labels(self, labels: np.ndarray) -> Tape:
        """Keep the batch's labels with the CE residual, the per-sample CE
        -log softmax[y] and p = softmax[y], all from one exp. labels is an
        int array that the caller has matched to the logits: of their
        leading shape, each in [0, C). Returns the tape."""
        self.labels = labels
        z = self.logits - self.logits.max(axis=-1, keepdims=True)
        classes = z.shape[-1]
        # each label's logit as one index into the flattened logits: row r
        # (row i of slice s is r = s * n + i) starts at r * classes
        at = np.arange(0, labels.size * classes, classes).reshape(labels.shape)
        at += labels
        e = np.exp(z)
        total = e.sum(axis=-1, keepdims=True)
        self.ce = -(z.reshape(-1)[at] - np.log(total)[..., 0])
        e /= total
        flat = e.reshape(-1)
        self.p = flat[at]
        flat[at] -= 1.0
        self.resid = e
        return self

    def cotangent(self, weights) -> np.ndarray:
        """d/dlogits of (1/b) * sum_i w_i * CE_i over the tape's logits and
        labels: the residual scaled by w_i / b."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.labels.shape:
            raise ValueError(f"weights must be {self.labels.shape}, like the labels")
        return self.resid * (weights / weights.shape[-1])[..., None]

    def grads(self, cotangent: np.ndarray, out: MLP | None = None) -> np.ndarray:
        """Parameter grads given dLoss/dlogits, written into out, a net laid
        out like the tape's (a new one when None), and returned as out's
        parameter vector."""
        cot = np.asarray(cotangent, dtype=np.float64)
        if cot.shape != self.logits.shape:
            raise ValueError(f"cotangent must be {self.logits.shape}, got {cot.shape}")
        net = self.net
        if out is None:
            out = net.over(np.empty_like(net.params))  # the walks write every view
        elif out.params.shape != net.params.shape:
            raise ValueError(f"grads must go into {net.params.shape} params, "
                             f"not {out.params.shape}")
        views = out.layers
        if self.cos is not None:  # the cosine head's bias takes no part and gets a zero grad
            views[-1].w[...], d_f = _cosine_grads(self.cos, cot)
            views[-1].b[...] = 0.0
            _walk_grads(net.layers[:-1], self.steps, d_f, views)
        else:
            _walk_grads(net.layers, self.steps, cot, views)
        return out.params

    def dots(self, direction: MLP) -> np.ndarray:
        """<grad_phi CE_i, direction> for every sample i, unweighted, from the
        residual kept by with_labels(). direction is a net laid out like the
        tape's, read through its layer views."""
        net, steps, g = self.net, self.steps, self.resid
        if direction.params.shape != net.params.shape:
            raise ValueError(f"direction must have {net.params.shape} params, "
                             f"not {direction.params.shape}")
        views = direction.layers
        dots = np.zeros(g.shape[:-1])
        if self.cos is not None:
            r_f, f_hat, r_w, w_hat, scale = self.cos
            vw = views[-1].w  # bias carries no cosine gradient
            a = f_hat @ views[-1].wt
            b = f_hat @ w_hat.swapaxes(-1, -2)
            u = (w_hat * vw).sum(axis=-1)
            gs = scale * g
            dots += (gs * (a - b * u[..., None, :]) / r_w.swapaxes(-1, -2)).sum(axis=-1)
            d_f = _normalize_vjp(gs @ w_hat, f_hat, r_f)
            return _walk_dots(net.layers[:-1], steps, d_f, views, dots)
        return _walk_dots(net.layers, steps, g, views, dots)


def forward_tape(model, x) -> Tape:
    """The classifier's forward pass over batch x, kept as a Tape. A bare
    MLP, such as a difficulty net, runs as a linear head, with no Classifier
    built around it. A stack of S nets takes (S, n, in) batches, or one
    (n, in) batch for all."""
    cosine = isinstance(model, Classifier) and model.head == "cosine"
    net = model.net if isinstance(model, Classifier) else model
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != net.in_dim:
        raise ValueError(f"inputs must be (n, {net.in_dim}), got {x.shape}")
    if cosine:
        steps, feats = _cache_layers(net.layers[:-1], x)
        return Tape(net, steps, *_cosine_parts(net.layers[-1], feats, model.scale))
    steps, logits = _cache_layers(net.layers, x)
    return Tape(net, steps, None, logits)


def _walk_grads(layers, steps, d_post, views) -> None:
    """Cotangent wrt a layer slice's post-activation output -> summed grads,
    written into the slice's gradient layers' (w, b) views."""
    for k in reversed(range(len(layers))):
        h_in, deriv = steps[k]
        dz = d_post if deriv is None else d_post * deriv
        if h_in.shape[-2] == 1:  # the difficulty nets' one row: an outer product beats a k=1 matmul
            np.multiply(dz.swapaxes(-1, -2), h_in, out=views[k].w)
        else:
            np.matmul(dz.swapaxes(-1, -2), h_in, out=views[k].w)
        np.add.reduce(dz, axis=-2, out=views[k].b)
        if k:  # the first layer's input cotangent is never read
            d_post = dz @ layers[k].w


def _walk_dots(layers, steps, d_post, views, dots):
    """Per-sample cotangent rows -> per-sample <grad_i, direction>, accumulated
    into dots. Per-sample weight grads are rank-one (dz_i outer h_i), so the
    dot collapses to (dz @ Vw) . h row-wise without materializing them."""
    for k in reversed(range(len(layers))):
        h_in, deriv = steps[k]
        dz = d_post if deriv is None else d_post * deriv
        hv = h_in @ views[k].wt
        hv *= dz
        dots += hv.sum(axis=-1) + (dz @ views[k].b[..., None])[..., 0]
        if k:  # the first layer's input cotangent is never read
            d_post = dz @ layers[k].w
    return dots


def _cosine_grads(cos, g):
    """Cotangent wrt cosine logits -> (dW_last, d_features)."""
    r_f, f_hat, r_w, w_hat, scale = cos
    g = scale * g
    return (_normalize_vjp(g.swapaxes(-1, -2) @ f_hat, w_hat, r_w),
            _normalize_vjp(g @ w_hat, f_hat, r_f))


def _normalize_vjp(d_hat, hat, r):
    """normalize() backward: project out the radial component, divide by norm."""
    return (d_hat - (d_hat * hat).sum(axis=-1, keepdims=True) * hat) / r


# ---------------------------------------------------------------------------
# optimizers


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptSpec:
    """Optimizer settings; build() checks them and turns them into fresh
    mutable state."""

    kind: str = "momentum"  # one of OPTIMIZERS
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0

    def build(self) -> OptimizerState:
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        return OptimizerState(self)


@dataclass
class OptimizerState:
    """An optimizer's settings, its step count and the vectors it owns, laid
    out like the net's params and made on the first step: g, the decayed
    gradient and then the update, for every kind; the velocity or first
    moment m for momentum and adam; the second moment v and a scratch
    vector tmp for adam alone."""

    spec: OptSpec
    step: int = 0
    g: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    tmp: np.ndarray | None = None


def optimizer_step(
    state: OptimizerState, net: MLP, grads: np.ndarray
) -> tuple[MLP, OptimizerState]:
    """One update, written into net.params and the state's own vectors, so
    after the first step it allocates none. Returns (net, state), the
    objects given. Weight decay enters every rule as gradient += wd * param;
    moments start at zero."""
    spec, p = state.spec, net.params
    if state.g is None:
        state.g = np.empty_like(p)
        if spec.kind != "sgd":
            state.m = np.zeros_like(p)
        if spec.kind == "adam":
            state.v, state.tmp = np.zeros_like(p), np.empty_like(p)
    elif state.g.shape != p.shape:
        raise ValueError(f"optimizer state is for {state.g.size} parameters, not {p.size}")
    g = np.multiply(spec.weight_decay, p, out=state.g)
    np.add(grads, g, out=g)
    state.step = t = state.step + 1
    update = g
    if spec.kind == "momentum":
        update = state.m
        update *= spec.momentum
        update += g
    elif spec.kind == "adam":  # with bias correction; the update is built in g
        m, v, tmp = state.m, state.v, state.tmp
        b1, b2 = ADAM_BETAS
        m *= b1
        m += np.multiply(1 - b1, g, out=tmp)
        v *= b2
        v += np.multiply(1 - b2, np.square(g, out=tmp), out=tmp)
        c1, c2 = 1 - b1**t, 1 - b2**t
        np.sqrt(np.divide(v, c2, out=g), out=g)
        g += ADAM_EPS
        np.divide(np.divide(m, c1, out=tmp), g, out=g)
    p += np.multiply(-spec.lr, update, out=g)
    return net, state


# ---------------------------------------------------------------------------
# evaluation and checkpoints


def per_class_accuracy(model, eval_set) -> np.ndarray:
    """Argmax accuracy per class of the model's logits on eval_set: (C,) for
    a lone net, (S, C) for a stack, one row per net. Logits that are not
    all finite rank nothing: that net's row reads NaN."""
    logits = classifier_logits(model, eval_set.features)
    acc = score_accuracy(logits, eval_set)
    acc[~np.isfinite(logits).all(axis=(-2, -1))] = np.nan
    return acc


def score_accuracy(scores, eval_set) -> np.ndarray:
    """Argmax accuracy per class of (n, C) scores, logits or probabilities,
    for eval_set's rows, or of a stack of them (S, n, C), one row each; ties
    go to the lowest class index. One bincount counts every row's hits,
    class c of row s in bin s * C + c, and each count over its class's
    rows is the mean of that class's 0/1 hits."""
    counts = eval_set.per_class_counts
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise ValueError(f"missing classes in eval set: {missing.tolist()}")
    pred = np.argmax(scores, axis=-1)  # first max = lowest index on ties
    rows, c = pred.shape[:-1], eval_set.class_count
    bins = eval_set.labels + c * np.arange(math.prod(rows)).reshape(rows + (1,))
    hits = np.bincount(bins[pred == eval_set.labels], minlength=c * math.prod(rows))
    return hits.reshape(rows + (c,)) / counts


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
    """The net that save_checkpoint wrote to path. Any other file, one cut
    short included, raises FormatError naming path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        if raw[:5] != _MAGIC:
            raise ValueError("bad magic")
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
    except (ValueError, IndexError, struct.error) as e:
        raise FormatError(f"{path}: not a checkpoint file ({e})") from None
